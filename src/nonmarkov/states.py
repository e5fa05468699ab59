"""Dense finite-dimensional quantum states on labeled subsystem partitions.

Everything is a plain complex numpy matrix plus a :class:`SystemPartition`
naming the tensor factors.  All objects are immutable after construction and
validated against the usual density-matrix invariants (Hermitian, unit trace,
positive semidefinite up to tolerance).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-10
KRAUS_TOL = 1e-10


class PartitionError(ValueError):
    """Label or dimension bookkeeping error in a subsystem partition."""


class StateValidityError(ValueError):
    """A matrix failed the density-matrix invariants beyond tolerance."""


class ChannelError(ValueError):
    """A Kraus set is inconsistent or does not match its target."""


@dataclass(frozen=True)
class SystemPartition:
    """Ordered list of named subsystems with dimensions.

    The factor order is authoritative: no operation ever reorders factors
    silently, so label-driven conditioning is unambiguous.  ``labels``,
    ``dims`` and ``total_dim`` are computed once; equality and hash depend
    on ``factors`` alone.
    """

    factors: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, factors: Iterable[tuple[str, int]]):
        factors = tuple((str(lbl), int(dim)) for lbl, dim in factors)
        if not factors:
            raise PartitionError("partition needs at least one factor")
        labels = tuple(lbl for lbl, _ in factors)
        if len(set(labels)) != len(labels):
            raise PartitionError(f"duplicate labels in partition: {list(labels)}")
        for lbl, dim in factors:
            if dim < 1:
                raise PartitionError(f"factor {lbl!r} has nonpositive dimension {dim}")
        dims = tuple(d for _, d in factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", math.prod(dims))
        object.__setattr__(self, "_index", {lbl: i for i, lbl in enumerate(labels)})

    def dim_of(self, label: str) -> int:
        if label not in self._index:
            raise PartitionError(f"unknown label {label!r}; have {self.labels}")
        return self.dims[self._index[label]]

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Factor indices of ``labels`` in original order."""
        want = set(labels)
        unknown = want - self._index.keys()
        if unknown:
            raise PartitionError(f"unknown labels {sorted(unknown)}; have {self.labels}")
        return sorted(self._index[lbl] for lbl in want)

    def restrict(self, labels: Iterable[str]) -> "SystemPartition":
        """Sub-partition of ``labels`` keeping the original factor order."""
        keep = self.positions(labels)
        return SystemPartition(tuple(self.factors[i] for i in keep))

    def concat(self, other: "SystemPartition") -> "SystemPartition":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise PartitionError(f"label collision between partitions: {sorted(clash)}")
        return SystemPartition(self.factors + other.factors)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix with a labeled factorization.

    ``spectrum`` is the raw ascending ``eigvalsh`` spectrum computed during
    validation (read-only, like ``data``, so it can never go stale).  The
    marginals :func:`partial_trace` builds are kept in ``_marginals`` of the
    root state they are traced from; each marginal refers back to that root
    through the weak reference ``_root`` (``None`` on a root).
    """

    data: np.ndarray
    partition: SystemPartition
    spectrum: np.ndarray = field(init=False, repr=False)
    _root: weakref.ref | None = field(default=None, init=False, repr=False)
    _marginals: dict[frozenset, DensityMatrix] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        m = np.array(self.data, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateValidityError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] != self.partition.total_dim:
            raise StateValidityError(
                f"matrix size {m.shape[0]} does not match partition dimension "
                f"{self.partition.total_dim}"
            )
        if not np.isfinite(m).all():
            raise StateValidityError("matrix has non-finite entries")
        # every comparison is written so that NaN fails it
        herm = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if not herm <= HERMITICITY_TOL:
            raise StateValidityError(f"not Hermitian: max |M - M^dag| = {herm:.3e}")
        tr = m.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateValidityError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        eigs = np.linalg.eigvalsh(m)
        lo = float(eigs[0])
        if not lo >= -PSD_TOL:
            raise StateValidityError(f"negative eigenvalue {lo:.3e} beyond tolerance")
        m.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "data", m)
        object.__setattr__(self, "spectrum", eigs)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return self.partition.labels

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum with small negatives clamped to zero."""
        return clamp_spectrum(self.spectrum)


def clamp_spectrum(eigs: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Clamp eigenvalues in [-tol, 0) to 0; reject anything more negative."""
    eigs = np.asarray(eigs, dtype=float)
    lo = eigs.min() if eigs.size else 0.0
    if not lo >= -tol:
        raise StateValidityError(f"eigenvalue {lo:.3e} below -{tol:.0e}")
    return np.where(eigs < 0.0, 0.0, eigs)


def spectrum_entropy(eigs: np.ndarray, tol: float = PSD_TOL) -> float:
    """-sum p ln p over a spectrum or distribution clamped at ``tol``, in nats."""
    lam = clamp_spectrum(eigs, tol=tol)
    pos = lam[lam > 0.0]
    return float(-(pos * np.log(pos)).sum())


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map given by Kraus operators (rectangular Kraus allowed)."""

    kraus_operators: tuple[np.ndarray, ...]

    def __init__(self, kraus_operators: Sequence[np.ndarray]):
        ops = tuple(np.array(k, dtype=np.complex128) for k in kraus_operators)
        if not ops:
            raise ChannelError("empty Kraus set")
        out_dim, in_dim = ops[0].shape
        for k in ops:
            if k.ndim != 2 or k.shape != (out_dim, in_dim):
                raise ChannelError("inconsistent Kraus operator shapes")
        comp = sum(k.conj().T @ k for k in ops)
        err = np.max(np.abs(comp - np.eye(in_dim)))
        if err > KRAUS_TOL:
            raise ChannelError(f"Kraus completeness violated: |sum K^dag K - I| = {err:.3e}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_operators", ops)

    @property
    def in_dim(self) -> int:
        return self.kraus_operators[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus_operators[0].shape[0]


# ---------------------------------------------------------------------------
# construction helpers


def pure_state(vector: np.ndarray, partition: SystemPartition) -> DensityMatrix:
    """|psi><psi| from an amplitude vector (normalized to 1e-12)."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if v.size != partition.total_dim:
        raise StateValidityError("vector length does not match partition dimension")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-12:
        raise StateValidityError(f"vector norm {norm} is not 1 within 1e-12")
    return DensityMatrix(np.outer(v, v.conj()), partition)


def basis_state(partition: SystemPartition, occupation: Sequence[int]) -> DensityMatrix:
    """Computational-basis product state |i1 i2 ...><...|."""
    if len(occupation) != len(partition.factors):
        raise PartitionError("one occupation number per factor required")
    idx = 0
    for (lbl, d), k in zip(partition.factors, occupation):
        if not 0 <= k < d:
            raise PartitionError(f"occupation {k} out of range for factor {lbl!r}")
        idx = idx * d + k
    v = np.zeros(partition.total_dim, dtype=np.complex128)
    v[idx] = 1.0
    return pure_state(v, partition)


def maximally_mixed(partition: SystemPartition) -> DensityMatrix:
    d = partition.total_dim
    return DensityMatrix(np.eye(d) / d, partition)


# ---------------------------------------------------------------------------
# operations


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the partition is the concatenation of factor lists."""
    return DensityMatrix(np.kron(a.data, b.data), a.partition.concat(b.partition))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced state on ``keep`` (original factor order preserved).

    Each marginal of a state is computed and validated once: it is traced
    from the root state (``rho`` itself, or the state ``rho`` was traced
    from) and memoised on that root, keyed by ``frozenset(keep)``.  So
    ``partial_trace(partial_trace(rho, ABC), AB)`` is ``partial_trace(rho,
    AB)``, the same object.  A marginal refers to its root only weakly; once
    the root is gone, the marginal is the root of its own marginals.
    ``keep`` must name factors of ``rho``; keeping all of them returns ``rho``.
    """
    keep = frozenset(keep)
    n_keep = len(rho.partition.positions(keep))
    if n_keep == len(rho.partition.factors):
        return rho
    if not n_keep:
        raise PartitionError("cannot trace out every factor")
    root = rho._root() if rho._root is not None else None
    if root is None:
        root = rho
    hit = root._marginals.get(keep)
    if hit is not None:
        return hit
    part = root.partition
    keep_pos = part.positions(keep)
    dims = list(part.dims)
    n = len(dims)
    t = root.data.reshape(dims + dims)
    ket = list(range(n))
    bra = [(i + n) if i in keep_pos else i for i in range(n)]
    out = keep_pos + [i + n for i in keep_pos]
    red = np.einsum(t, ket + bra, out)
    d_keep = math.prod(dims[i] for i in keep_pos)
    marginal = DensityMatrix(red.reshape(d_keep, d_keep), part.restrict(keep))
    object.__setattr__(marginal, "_root", weakref.ref(root))
    return root._marginals.setdefault(keep, marginal)


def _apply_on_factor(mat: np.ndarray, op: np.ndarray, dims: Sequence[int], pos: int) -> np.ndarray:
    """K rho K^dag contribution with K acting on factor ``pos`` only."""
    n = len(dims)
    out_d, in_d = op.shape
    t = mat.reshape(list(dims) + list(dims))
    # contract ket leg
    t = np.tensordot(op, t, axes=([1], [pos]))        # new leg 0 is the out leg
    t = np.moveaxis(t, 0, pos)
    # contract bra leg
    t = np.tensordot(t, op.conj(), axes=([n + pos], [1]))
    t = np.moveaxis(t, -1, n + pos)
    new_dims = list(dims)
    new_dims[pos] = out_d
    d = int(np.prod(new_dims, dtype=np.int64))
    return t.reshape(d, d), new_dims


def apply_channel(rho: DensityMatrix, ch: QuantumChannel, target: str) -> DensityMatrix:
    """Sum_k (I (x) K_k) rho (I (x) K_k)^dag on the ``target`` factor."""
    part = rho.partition
    pos = part.positions([target])[0]
    if ch.in_dim != part.dims[pos]:
        raise ChannelError(
            f"channel input dimension {ch.in_dim} does not match factor "
            f"{target!r} of dimension {part.dims[pos]}"
        )
    dims = part.dims
    acc = None
    for k in ch.kraus_operators:
        term, new_dims = _apply_on_factor(rho.data, k, dims, pos)
        acc = term if acc is None else acc + term
    new_factors = list(part.factors)
    new_factors[pos] = (target, ch.out_dim)
    return DensityMatrix(acc, SystemPartition(new_factors))


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix; deterministic per seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phase = np.diag(r).copy()
    phase /= np.abs(phase)
    return q * phase.conj()


def random_density_matrix(partition: SystemPartition, rank: int, seed: int) -> DensityMatrix:
    """Random state of the requested rank.

    Sampled as the partial trace of a Haar-ish random pure state on a
    rank-sized auxiliary space (Ginibre construction); deterministic per seed.
    """
    d = partition.total_dim
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, partition)


def random_pure_state(partition: SystemPartition, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    d = partition.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return pure_state(v / np.linalg.norm(v), partition)


# ---------------------------------------------------------------------------
# stock channels


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel([np.eye(dim)])


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    return QuantumChannel([u])


def depolarizing_channel(dim: int) -> QuantumChannel:
    """Fully depolarizing map X -> tr(X) I/d via the Heisenberg-Weyl set."""
    w = np.exp(2j * np.pi / dim)
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(w ** np.arange(dim))
    ops = []
    for a in range(dim):
        for b in range(dim):
            ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) / dim)
    return QuantumChannel(ops)


def random_channel(dim_in: int, kraus_count: int, seed: int, dim_out: int | None = None) -> QuantumChannel:
    """Random CPTP map from a Stinespring dilation of a Haar unitary."""
    dim_out = dim_in if dim_out is None else dim_out
    u = haar_random_unitary(dim_out * kraus_count, seed)
    iso = u[:, :dim_in]  # V |psi> = U |psi>|0>, isometry in_dim -> out*k
    ops = [iso[i * dim_out:(i + 1) * dim_out, :] for i in range(kraus_count)]
    return QuantumChannel(ops)
