"""Entropies, divergences, correlation measures and the Petz recovery map.

All entropic quantities are in nats.  Relative entropy is extended-real: it
returns ``math.inf`` when the support condition fails (sigma-eigenvalues below
1e-12 that carry rho-weight above 1e-10).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .states import (
    DensityMatrix,
    PartitionError,
    StateValidityError,
    clamp_spectrum,
    embed,
    partial_trace,
)

SUPPORT_EIG_TOL = 1e-12   # sigma eigenvalues below this count as null space
SUPPORT_WEIGHT_TOL = 1e-10  # rho weight on the null space that triggers +inf
NONNEG_CLAMP = 1e-9       # small negatives from cancellation clamped to 0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda ln lambda over the clamped spectrum, in nats (computed once per state)."""
    return rho.entropy


def _check_same_partition(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.partition != sigma.partition:
        raise PartitionError("states live on different partitions")


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho, sigma) = (1/2) sum |eig(rho - sigma)|, in [0, 1]."""
    _check_same_partition(rho, sigma)
    eigs = np.linalg.eigvalsh(rho.data - sigma.data)
    return float(0.5 * np.abs(eigs).sum())


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(m)
    lam = clamp_spectrum(eigs)
    return (vecs * np.sqrt(lam)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1^2 via eigendecomposition."""
    _check_same_partition(rho, sigma)
    prod = _psd_sqrt(rho.data) @ _psd_sqrt(sigma.data)
    f = float(np.linalg.svd(prod, compute_uv=False).sum() ** 2)
    if f < -NONNEG_CLAMP or f > 1.0 + NONNEG_CLAMP:
        raise StateValidityError(f"fidelity {f} escaped [0, 1] beyond tolerance")
    return min(max(f, 0.0), 1.0)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) = tr rho (ln rho - ln sigma); +inf on support violation."""
    _check_same_partition(rho, sigma)
    q, v = np.linalg.eigh(sigma.data)
    q = clamp_spectrum(q)
    null = q < SUPPORT_EIG_TOL
    # rho weight carried by sigma's null space
    w = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho.data, v))
    w = np.clip(w, 0.0, None)
    if w[null].sum() > SUPPORT_WEIGHT_TOL:
        return math.inf
    term_p = -rho.entropy
    keep = ~null
    term_q = float((w[keep] * np.log(q[keep])).sum())
    val = term_p - term_q
    if val < -NONNEG_CLAMP:
        raise StateValidityError(f"relative entropy {val} below 0 beyond tolerance")
    return max(val, 0.0)


def telescopic_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix, a: float) -> float:
    """S_a(rho||sigma) = S(rho || a rho + (1-a) sigma) / (-ln a), a in (0,1).

    Always finite (the mixture's support contains rho's) and bounded in [0,1].
    """
    _check_same_partition(rho, sigma)
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie strictly inside (0, 1), got {a}")
    mix = DensityMatrix(a * rho.data + (1.0 - a) * sigma.data, rho.partition, _owned=True)
    val = relative_entropy(rho, mix) / (-math.log(a))
    if val > 1.0 + NONNEG_CLAMP:
        raise StateValidityError(f"telescopic relative entropy {val} above 1")
    return min(max(val, 0.0), 1.0)


def jensen_shannon_telescopic(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Symmetrized a=1/2 telescopic relative entropy, in [0, 1]."""
    return 0.5 * (
        telescopic_relative_entropy(rho, sigma, 0.5)
        + telescopic_relative_entropy(sigma, rho, 0.5)
    )


def _disjoint_cover(rho: DensityMatrix, *parts: Iterable[str]) -> list[frozenset]:
    sets = [frozenset(p) for p in parts]
    union: set = set()
    total = 0
    for s in sets:
        if not s:
            raise PartitionError("empty label set")
        total += len(s)
        union |= s
    if total != len(union):
        raise PartitionError("label sets overlap")
    if union != set(rho.labels):
        raise PartitionError(
            f"label sets {sorted(map(sorted, sets))} do not cover partition {rho.labels}"
        )
    return sets


def mutual_information(rho: DensityMatrix, part_a: Iterable[str], part_b: Iterable[str]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB); the two sets must cover the partition."""
    a, b = _disjoint_cover(rho, part_a, part_b)
    val = (
        von_neumann_entropy(partial_trace(rho, a))
        + von_neumann_entropy(partial_trace(rho, b))
        - von_neumann_entropy(rho)
    )
    if val < -NONNEG_CLAMP:
        raise StateValidityError(f"mutual information {val} below 0 beyond tolerance")
    return max(val, 0.0)


def conditional_mutual_information(
    rho: DensityMatrix,
    part_a: Iterable[str],
    part_b: Iterable[str],
    part_c: Iterable[str],
) -> float:
    """I(A:B|C) = S(AC) + S(CB) - S(C) - S(ACB) >= 0 (strong subadditivity)."""
    a, b, c = _disjoint_cover(rho, part_a, part_b, part_c)
    val = (
        von_neumann_entropy(partial_trace(rho, a | c))
        + von_neumann_entropy(partial_trace(rho, b | c))
        - von_neumann_entropy(partial_trace(rho, c))
        - von_neumann_entropy(rho)
    )
    if val < -NONNEG_CLAMP:
        raise StateValidityError(f"conditional mutual information {val} < 0 beyond tolerance")
    return max(val, 0.0)


def interaction_information(
    rho: DensityMatrix,
    part_e1: Iterable[str],
    part_e2: Iterable[str],
    part_a: Iterable[str],
    part_s: Iterable[str],
) -> float:
    """I(E1;E2;A|S) = I(E1:E2|S) - I(E1:E2|SA); may be negative."""
    e1, e2, a, s = _disjoint_cover(rho, part_e1, part_e2, part_a, part_s)
    reduced = partial_trace(rho, e1 | e2 | s)
    return conditional_mutual_information(reduced, e1, e2, s) - conditional_mutual_information(
        rho, e1, e2, s | a
    )


# ---------------------------------------------------------------------------
# Petz recovery


def _psd_power(m: np.ndarray, power: float) -> np.ndarray:
    """Eigen-clamped pseudo-inverse-aware matrix power of a PSD matrix."""
    eigs, vecs = np.linalg.eigh(m)
    lam = clamp_spectrum(eigs)
    out = np.zeros_like(lam)
    mask = lam > SUPPORT_EIG_TOL
    out[mask] = lam[mask] ** power
    return (vecs * out) @ vecs.conj().T


def petz_recovery(
    rho_full: DensityMatrix,
    part_a: Iterable[str],
    part_b: Iterable[str],
    part_c: Iterable[str],
) -> DensityMatrix:
    """Apply the Petz transpose channel of tracing out C to rho_AB.

    Returns sigma_ABC = (I_A (x) R_{B->BC}) rho_AB with
    R(X) = rho_BC^{1/2} (rho_B^{-1/2} X rho_B^{-1/2} (x) I_C) rho_BC^{1/2};
    exact whenever I(A:C|B) = 0.  Pseudo-inverse square roots handle rank
    deficiency; the output is re-Hermitized and trace-renormalized when the
    drift is below 1e-9.
    """
    a, b, c = _disjoint_cover(rho_full, part_a, part_b, part_c)
    part = rho_full.partition
    rho_ab = partial_trace(rho_full, a | b)
    rho_b = partial_trace(rho_full, b)
    rho_bc = partial_trace(rho_full, b | c)
    sqrt_bc = embed(_psd_power(rho_bc.data, 0.5), part, b | c)
    inv_sqrt_b = embed(_psd_power(rho_b.data, -0.5), part, b)
    lifted_ab = embed(rho_ab.data, part, a | b)
    out = sqrt_bc @ inv_sqrt_b @ lifted_ab @ inv_sqrt_b @ sqrt_bc
    out = 0.5 * (out + out.conj().T)
    drift = abs(out.trace() - 1.0)
    if drift > 1e-9:
        raise StateValidityError(f"Petz output trace drifted by {drift:.3e}")
    out = out / out.trace().real
    return DensityMatrix(out, part, _owned=True)
