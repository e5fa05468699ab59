"""Entropies, divergences, correlation measures and the Petz recovery map.

All entropic quantities are in nats.  Relative entropy is extended-real: it
returns ``math.inf`` when the support condition fails (sigma-eigenvalues below
1e-12 that carry rho-weight above 1e-10).

Every function acts slice by slice on stacked states (see :mod:`.states`):
it returns a float for a single state and an array of one value per slice
for a stack, with each slice's value the bits of that float.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .states import (
    DensityMatrix,
    PartitionError,
    StateValidityError,
    _real,
    clamp_spectrum,
    embed,
    masked_sums,
    partial_trace,
)

SUPPORT_EIG_TOL = 1e-12   # sigma eigenvalues below this count as null space
SUPPORT_WEIGHT_TOL = 1e-10  # rho weight on the null space that triggers +inf
NONNEG_CLAMP = 1e-9       # small negatives from cancellation clamped to 0


def von_neumann_entropy(rho: DensityMatrix) -> float | np.ndarray:
    """S(rho) = -sum lambda ln lambda over the clamped spectrum, in nats (computed once per state)."""
    return rho.entropy


def _check_same_partition(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.partition != sigma.partition:
        raise PartitionError("states live on different partitions")


def _refuse(val, bad, message: str):
    """Raise ``message`` naming the first value of ``val`` where ``bad`` holds."""
    if np.any(bad):
        raise StateValidityError(message.format(np.asarray(val)[bad].flat[0]))


def _clamp(val, hi: float = math.inf):
    """``min(max(val, 0.0), hi)`` slice by slice, a float for a single value."""
    val = np.where(0.0 > val, 0.0, val)
    return _real(np.where(hi < val, hi, val))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float | np.ndarray:
    """D(rho, sigma) = (1/2) sum |eig(rho - sigma)|, in [0, 1]."""
    _check_same_partition(rho, sigma)
    eigs = np.linalg.eigvalsh(rho.data - sigma.data)
    return _real(0.5 * np.abs(eigs).sum(axis=-1))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(m)
    lam = clamp_spectrum(eigs)
    return (vecs * np.sqrt(lam)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float | np.ndarray:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1^2 via eigendecomposition."""
    _check_same_partition(rho, sigma)
    prod = _psd_sqrt(rho.data) @ _psd_sqrt(sigma.data)
    f = np.linalg.svd(prod, compute_uv=False).sum(axis=-1) ** 2
    _refuse(f, (f < -NONNEG_CLAMP) | (f > 1.0 + NONNEG_CLAMP), "fidelity {} escaped [0, 1] beyond tolerance")
    return _clamp(f, 1.0)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float | np.ndarray:
    """S(rho || sigma) = tr rho (ln rho - ln sigma); +inf on support violation."""
    _check_same_partition(rho, sigma)
    q, v = np.linalg.eigh(sigma.data)
    q = clamp_spectrum(q)
    null = q < SUPPORT_EIG_TOL
    # rho weight carried by sigma's null space
    w = np.real(np.einsum("...ij,...jk,...ki->...i", v.conj().swapaxes(-1, -2), rho.data, v))
    w = np.clip(w, 0.0, None)
    outside = masked_sums(w, null) > SUPPORT_WEIGHT_TOL
    val = -rho.entropy - masked_sums(w * np.log(np.where(null, 1.0, q)), ~null)
    _refuse(val, ~outside & (val < -NONNEG_CLAMP), "relative entropy {} below 0 beyond tolerance")
    return _real(np.where(outside, math.inf, _clamp(val)))


def telescopic_relative_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, a: float | np.ndarray
) -> float | np.ndarray:
    """S_a(rho||sigma) = S(rho || a rho + (1-a) sigma) / (-ln a), a in (0,1).

    Always finite (the mixture's support contains rho's) and bounded in [0,1].
    For stacks ``a`` may hold one value per slice.
    """
    _check_same_partition(rho, sigma)
    arr = np.asarray(a, dtype=float)
    if not ((0.0 < arr) & (arr < 1.0)).all():
        raise ValueError(f"a must lie strictly inside (0, 1), got {a}")
    w = arr[..., None, None]
    mix = DensityMatrix(w * rho.data + (1.0 - w) * sigma.data, rho.partition, _owned=True)
    ln_a = np.array([math.log(x) for x in arr.flat]).reshape(arr.shape)  # ``math.log``, as for one state
    val = relative_entropy(rho, mix) / (-ln_a)
    _refuse(val, val > 1.0 + NONNEG_CLAMP, "telescopic relative entropy {} above 1")
    return _clamp(val, 1.0)


def jensen_shannon_telescopic(rho: DensityMatrix, sigma: DensityMatrix) -> float | np.ndarray:
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


def mutual_information(rho: DensityMatrix, part_a: Iterable[str], part_b: Iterable[str]) -> float | np.ndarray:
    """I(A:B) = S(A) + S(B) - S(AB); the two sets must cover the partition."""
    a, b = _disjoint_cover(rho, part_a, part_b)
    val = (
        von_neumann_entropy(partial_trace(rho, a))
        + von_neumann_entropy(partial_trace(rho, b))
        - von_neumann_entropy(rho)
    )
    _refuse(val, val < -NONNEG_CLAMP, "mutual information {} below 0 beyond tolerance")
    return _clamp(val)


def conditional_mutual_information(
    rho: DensityMatrix,
    part_a: Iterable[str],
    part_b: Iterable[str],
    part_c: Iterable[str],
) -> float | np.ndarray:
    """I(A:B|C) = S(AC) + S(CB) - S(C) - S(ACB) >= 0 (strong subadditivity)."""
    a, b, c = _disjoint_cover(rho, part_a, part_b, part_c)
    val = (
        von_neumann_entropy(partial_trace(rho, a | c))
        + von_neumann_entropy(partial_trace(rho, b | c))
        - von_neumann_entropy(partial_trace(rho, c))
        - von_neumann_entropy(rho)
    )
    _refuse(val, val < -NONNEG_CLAMP, "conditional mutual information {} < 0 beyond tolerance")
    return _clamp(val)


def interaction_information(
    rho: DensityMatrix,
    part_e1: Iterable[str],
    part_e2: Iterable[str],
    part_a: Iterable[str],
    part_s: Iterable[str],
) -> float | np.ndarray:
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
    return (vecs * out[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


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
    out = 0.5 * (out + out.conj().swapaxes(-1, -2))
    tr = np.trace(out, axis1=-2, axis2=-1)
    drift = abs(tr - 1.0)
    if np.any(drift > 1e-9):
        raise StateValidityError(f"Petz output trace drifted by {np.max(drift):.3e}")
    return DensityMatrix(out / tr.real[..., None, None], part, _owned=True)
