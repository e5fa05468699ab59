"""Dense finite-dimensional quantum states on labeled subsystem partitions.

Everything is a plain complex numpy matrix plus a :class:`SystemPartition`
naming the tensor factors.  All objects are immutable after construction and
validated against the usual density-matrix invariants (Hermitian, unit trace,
positive semidefinite up to tolerance).  A state is validated on its support,
the principal block of its nonzero rows and columns, and takes ownership of
the fresh arrays the package's own producers hand it instead of copying them.

A :class:`DensityMatrix` may also hold a stack of states on one partition
(``data`` of shape (N, d, d)).  Every operation here and in :mod:`.info` acts
slice by slice, with one NumPy call per step for the whole stack; slices that
share their support get the bits each would get as a state of its own, and a
stack's scalar results are arrays of N values where a single state's are floats.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=1024)
def _layout(factors: tuple[tuple[str, int], ...]) -> tuple:
    """Labels, dims, total dimension, label index and kept-set memo of a factor list.

    Validated and built once per distinct factor list and shared by every
    partition with those factors, so equal partitions share their kept sets.
    """
    if not factors:
        raise PartitionError("partition needs at least one factor")
    labels = tuple(lbl for lbl, _ in factors)
    if len(set(labels)) != len(labels):
        raise PartitionError(f"duplicate labels in partition: {list(labels)}")
    for lbl, dim in factors:
        if dim < 1:
            raise PartitionError(f"factor {lbl!r} has nonpositive dimension {dim}")
    dims = tuple(d for _, d in factors)
    return labels, dims, math.prod(dims), {lbl: i for i, lbl in enumerate(labels)}, {}


@dataclass(frozen=True)
class SystemPartition:
    """Ordered list of named subsystems with dimensions.

    The factor order is authoritative: no operation ever reorders factors
    silently, so label-driven conditioning is unambiguous.  ``labels``,
    ``dims``, ``total_dim`` and the bookkeeping of each kept label set
    (``_kept``) are computed once per distinct factor list and shared by all
    equal partitions; equality and hash depend on ``factors`` alone.
    """

    factors: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _memo: dict[frozenset, tuple] = field(init=False, repr=False, compare=False)

    def __init__(self, factors: Iterable[tuple[str, int]]):
        factors = tuple((str(lbl), int(dim)) for lbl, dim in factors)
        for name, value in zip(("factors", "labels", "dims", "total_dim", "_index", "_memo"),
                               (factors, *_layout(factors))):
            object.__setattr__(self, name, value)

    def _kept(self, labels: frozenset) -> tuple[list[int], "SystemPartition", list[int], list[int]]:
        """Positions, sub-partition and ``partial_trace`` einsum subscripts (in, out) of ``labels``.

        Computed once per factor list and label set and memoised; callers must not mutate them.
        """
        hit = self._memo.get(labels)
        if hit is None:
            unknown = labels - self._index.keys()
            if unknown:
                raise PartitionError(f"unknown labels {sorted(unknown)}; have {self.labels}")
            pos = sorted(self._index[lbl] for lbl in labels)
            n = len(self.factors)
            bra = [(i + n) if i in pos else i for i in range(n)]
            sub = SystemPartition(tuple(self.factors[i] for i in pos))
            hit = self._memo.setdefault(labels, (pos, sub, [*range(n), *bra], pos + [i + n for i in pos]))
        return hit

    def dim_of(self, label: str) -> int:
        if label not in self._index:
            raise PartitionError(f"unknown label {label!r}; have {self.labels}")
        return self.dims[self._index[label]]

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Factor indices of ``labels`` in original order."""
        return list(self._kept(frozenset(labels))[0])

    def restrict(self, labels: Iterable[str]) -> "SystemPartition":
        """Sub-partition of ``labels`` keeping the original factor order."""
        return self._kept(frozenset(labels))[1]

    def concat(self, other: "SystemPartition") -> "SystemPartition":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise PartitionError(f"label collision between partitions: {sorted(clash)}")
        return SystemPartition(self.factors + other.factors)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix with a labeled factorization, or a stack of them.

    Validation runs on the support only: the principal block of the indices
    whose row or column is nonzero.  Every nonzero entry lies in that block,
    so each check (finite, Hermitian, unit trace, PSD) reads as on the whole
    matrix, and the other eigenvalues are exact zeros.  ``spectrum`` is the
    raw ascending ``eigvalsh`` spectrum computed during validation (read-only,
    like ``data``, so it can never go stale).

    ``data`` of shape (N, d, d) is a stack of N states on one partition.  Every
    slice is validated, with the same checks, tolerances and messages, by one
    call per check; the support is the union of the slices' supports, so
    slices that share their support get the spectrum each would get alone.
    ``spectrum`` is then (N, d) and ``entropy`` an array of N values.

    ``data`` is copied, so the caller's array is never aliased or frozen.  The
    package's own producers pass ``_owned=True`` with a fresh complex array
    that nothing else refers to; the state then takes that array over (a
    non-contiguous or non-complex one is still copied).  The marginals
    :func:`partial_trace` builds are kept in ``_marginals`` of the root state
    they are traced from; each marginal refers back to that root through the
    weak reference ``_root`` (``None`` on a root).
    """

    data: np.ndarray
    partition: SystemPartition
    _owned: bool = field(default=False, kw_only=True, repr=False)
    spectrum: np.ndarray = field(init=False, repr=False)
    _root: weakref.ref | None = field(default=None, init=False, repr=False)
    _marginals: dict[frozenset, DensityMatrix] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        m = self.data
        if not (self._owned and type(m) is np.ndarray and m.dtype == np.complex128 and m.flags.forc):
            m = np.array(m, dtype=np.complex128)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or not m.size:
            raise StateValidityError(f"expected a square matrix or a stack of them, got shape {m.shape}")
        n = m.shape[-1]
        if n != self.partition.total_dim:
            raise StateValidityError(
                f"matrix size {n} does not match partition dimension {self.partition.total_dim}"
            )
        diag = m.diagonal(axis1=-2, axis2=-1)
        live = None if diag.all() else _support(m)  # a nonzero diagonal makes every row live
        block = m if live is None else m[..., live[:, None], live]
        if not np.isfinite(block).all():
            raise StateValidityError("matrix has non-finite entries")
        # every comparison is written so that NaN fails it
        herm = np.abs(block - block.conj().swapaxes(-1, -2)).max() if block.size else 0.0
        if not herm <= HERMITICITY_TOL:
            raise StateValidityError(f"not Hermitian: max |M - M^dag| = {herm:.3e}")
        tr = np.atleast_1d(diag.sum(axis=-1))  # ``m.trace()``, the same reduction
        bad = ~(abs(tr - 1.0) <= TRACE_TOL)
        if bad.any():
            raise StateValidityError(f"trace {tr[bad][0]} deviates from 1 beyond {TRACE_TOL}")
        eigs = np.linalg.eigvalsh(block)
        if live is not None:  # the dead indices add exact zeros to the spectrum
            eigs = np.sort(np.concatenate([np.zeros(m.shape[:-2] + (n - live.size,)), eigs], axis=-1))
        lo = float(eigs[..., 0].min())
        if not lo >= -PSD_TOL:
            raise StateValidityError(f"negative eigenvalue {lo:.3e} beyond tolerance")
        m.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "data", m)
        object.__setattr__(self, "spectrum", eigs)

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def labels(self) -> tuple[str, ...]:
        return self.partition.labels

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum with small negatives clamped to zero."""
        return clamp_spectrum(self.spectrum)

    @functools.cached_property
    def entropy(self) -> float | np.ndarray:
        """``spectrum_entropy(spectrum)``, computed once (one value per slice of a stack).

        Validation has already rejected a spectrum below -PSD_TOL, so only the
        positive eigenvalues are summed here.
        """
        return _positive_entropy(self.spectrum)


def _support(m: np.ndarray) -> np.ndarray | None:
    """Indices whose row or column of ``m`` (of any slice) is nonzero; ``None`` when that is every index.

    A zero row and column span an exact eigenvector of eigenvalue 0 of a
    Hermitian matrix, and hold no entry any other check reads.
    """
    live = (m.any(axis=-1) | m.any(axis=-2)).reshape(-1, m.shape[-1]).any(axis=0)
    return None if live.all() else np.flatnonzero(live)


def _checked_spectrum(eigs: np.ndarray, tol: float) -> np.ndarray:
    """``eigs`` as a float array; anything below -tol is rejected."""
    eigs = np.asarray(eigs, dtype=float)
    lo = eigs.min() if eigs.size else 0.0
    if not lo >= -tol:
        raise StateValidityError(f"eigenvalue {lo:.3e} below -{tol:.0e}")
    return eigs


def clamp_spectrum(eigs: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Clamp eigenvalues in [-tol, 0) to 0; reject anything more negative."""
    eigs = _checked_spectrum(eigs, tol)
    return np.where(eigs < 0.0, 0.0, eigs)


def spectrum_entropy(eigs: np.ndarray, tol: float = PSD_TOL) -> float:
    """-sum p ln p over a spectrum or distribution clamped at ``tol``, in nats.

    The clamped entries are zeros, which add nothing, so only the positive
    entries are summed.
    """
    return _positive_entropy(_checked_spectrum(eigs, tol))


def _positive_entropy(lam: np.ndarray) -> float | np.ndarray:
    """-sum p ln p over the positive entries of ``lam``, or of each row of a 2-D ``lam``."""
    pos = lam > 0.0
    return _real(-masked_sums(lam * np.log(np.where(pos, lam, 1.0)), pos))


def masked_sums(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``x[mask].sum()``, or that sum for each row of a 2-D ``x`` and ``mask``.

    Each row is summed as the 1-D array ``x[i][mask[i]]`` would be: the rows
    are grouped by their mask and each group is gathered into a contiguous
    block and summed along its rows, which rounds as the 1-D sum does.  When
    every row has the same mask (full-rank stacks, the common case), that one
    group is gathered without grouping.
    """
    if x.ndim == 1:
        return x[mask].sum()
    if len(mask) and not (mask != mask[0]).any():
        return np.ascontiguousarray(x[:, mask[0]]).sum(axis=-1)
    out = np.empty(len(x))
    patterns, which = np.unique(mask, axis=0, return_inverse=True)
    for j, keep in enumerate(patterns):
        rows = which == j
        out[rows] = np.ascontiguousarray(x[rows][:, keep]).sum(axis=-1)
    return out


def _real(x):
    """A single value as a Python ``float``; the values of a stack as they are."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map given by Kraus operators (rectangular Kraus allowed).

    Kraus operators of shape (N, out, in) make a stack of N channels, which
    :func:`apply_channel` applies slice by slice to a stack of N states.
    """

    kraus_operators: tuple[np.ndarray, ...]

    def __init__(self, kraus_operators: Sequence[np.ndarray]):
        ops = tuple(np.array(k, dtype=np.complex128) for k in kraus_operators)
        if not ops:
            raise ChannelError("empty Kraus set")
        shape = ops[0].shape
        in_dim = shape[-1]
        for k in ops:
            if k.ndim not in (2, 3) or k.shape != shape:
                raise ChannelError("inconsistent Kraus operator shapes")
        comp = sum(k.conj().swapaxes(-1, -2) @ k for k in ops)
        err = np.max(np.abs(comp - np.eye(in_dim)))
        if err > KRAUS_TOL:
            raise ChannelError(f"Kraus completeness violated: |sum K^dag K - I| = {err:.3e}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_operators", ops)

    @property
    def in_dim(self) -> int:
        return self.kraus_operators[0].shape[-1]

    @property
    def out_dim(self) -> int:
        return self.kraus_operators[0].shape[-2]


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
    return DensityMatrix(np.outer(v, v.conj()), partition, _owned=True)


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
    """Kronecker product; the partition is the concatenation of factor lists.

    One broadcast product, the same elementwise products as ``np.kron``.  A
    stack pairs slice by slice with a stack of the same length, and a single
    state with every slice of a stack.
    """
    d = a.dim * b.dim
    data = a.data[..., :, None, :, None] * b.data[..., None, :, None, :]
    return DensityMatrix(data.reshape(data.shape[:-4] + (d, d)), a.partition.concat(b.partition), _owned=True)


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
    n_keep = len(rho.partition._kept(keep)[0])
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
    _, sub, subscripts, out = part._kept(keep)
    batch = root.data.shape[:-2]
    red = np.einsum(root.data.reshape(batch + part.dims * 2), [..., *subscripts], [..., *out])
    marginal = DensityMatrix(red.reshape(batch + (sub.total_dim,) * 2), sub, _owned=True)
    object.__setattr__(marginal, "_root", weakref.ref(root))
    return root._marginals.setdefault(keep, marginal)


def embed(op: np.ndarray, partition: SystemPartition, labels: Iterable[str]) -> np.ndarray:
    """Lift an operator on the factors ``labels`` to the whole of ``partition`` (identity elsewhere).

    A stack of operators (shape (N, k, k)) lifts slice by slice.
    """
    pos = partition.positions(labels)
    dims = partition.dims
    n = len(dims)
    batch = op.shape[:-2]
    operands = [op.reshape(batch + tuple(dims[i] for i in pos) * 2), [..., *pos, *(i + n for i in pos)]]
    for i in range(n):
        if i not in pos:
            operands += [np.eye(dims[i]), [i, i + n]]
    d = partition.total_dim
    return np.einsum(*operands, [..., *range(2 * n)]).reshape(batch + (d, d))


def apply_channel(rho: DensityMatrix, ch: QuantumChannel, target: str) -> DensityMatrix:
    """Sum_k (I (x) K_k) rho (I (x) K_k)^dag on the ``target`` factor, one ``np.einsum`` per K_k.

    A stack of states takes either one channel or a stack of as many channels.
    """
    part = rho.partition
    pos = part.positions([target])[0]
    if ch.in_dim != part.dims[pos]:
        raise ChannelError(
            f"channel input dimension {ch.in_dim} does not match factor "
            f"{target!r} of dimension {part.dims[pos]}"
        )
    n = len(part.dims)
    batch = rho.data.shape[:-2]
    legs = [*range(2 * n)]
    out = [2 * n if i == pos else 2 * n + 1 if i == n + pos else i for i in legs]
    mat = rho.data.reshape(batch + part.dims * 2)
    acc = sum(np.einsum(k, [..., 2 * n, pos], mat, [..., *legs], k.conj(), [..., 2 * n + 1, n + pos], [..., *out])
              for k in ch.kraus_operators)
    new_factors = list(part.factors)
    new_factors[pos] = (target, ch.out_dim)
    new = SystemPartition(new_factors)
    return DensityMatrix(acc.reshape(batch + (new.total_dim,) * 2), new, _owned=True)


def _per_seed(draw, seed):
    """``draw(seed)``, or the stack of ``draw(s)`` over a sequence of seeds."""
    return draw(seed) if np.ndim(seed) == 0 else np.stack([draw(s) for s in seed])


def haar_random_unitary(dim: int, seed: int | Sequence[int]) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix; deterministic per seed.

    A sequence of seeds gives the stack of their unitaries.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def draw(s):
        rng = np.random.default_rng(s)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        phase = np.diag(r).copy()
        phase /= np.abs(phase)
        return q * phase.conj()

    return _per_seed(draw, seed)


def random_density_matrix(partition: SystemPartition, rank: int, seed: int | Sequence[int]) -> DensityMatrix:
    """Random state of the requested rank.

    Sampled as the partial trace of a Haar-ish random pure state on a
    rank-sized auxiliary space (Ginibre construction); deterministic per seed.
    A sequence of seeds gives the stack of their states.
    """
    d = partition.total_dim
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}]")

    def draw(s):
        rng = np.random.default_rng(s)
        return rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))

    g = _per_seed(draw, seed)
    m = g @ g.conj().swapaxes(-1, -2)
    return DensityMatrix(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None], partition, _owned=True)


def random_pure_state(partition: SystemPartition, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    d = partition.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return pure_state(v / np.linalg.norm(v), partition)


def random_channel(
    dim_in: int, kraus_count: int, seed: int | Sequence[int], dim_out: int | None = None
) -> QuantumChannel:
    """Random CPTP map from a Stinespring dilation of a Haar unitary.

    A sequence of seeds gives the stack of their channels.
    """
    dim_out = dim_in if dim_out is None else dim_out
    u = haar_random_unitary(dim_out * kraus_count, seed)
    iso = u[..., :dim_in]  # V |psi> = U |psi>|0>, isometry in_dim -> out*k
    ops = [iso[..., i * dim_out:(i + 1) * dim_out, :] for i in range(kraus_count)]
    return QuantumChannel(ops)
