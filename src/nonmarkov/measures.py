"""Non-Markovianity measures as functionals of sampled series.

BLP and tBLP take pairs of state trajectories.  LFS, N1 and N2 take one
``ScalarSeries`` per candidate: ``mi_series`` and ``cmi_series`` produce it
from a dense ``StateTrajectory``, ``dephasing.BranchComputer.trajectories``
on the branch path of the discrete model.

The supremum over initial states in each measure definition is replaced by a
maximization over an explicit candidate list; values are therefore lower
bounds on the corresponding sup.  Time derivatives are first differences on
the sampled grid with a noise floor (default 1e-10 nats) so eigensolver
jitter is not counted as backflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import info
from .states import DensityMatrix, PartitionError, SystemPartition, partial_trace, pure_state

DEFAULT_NOISE_TOL = 1e-10

MEASURE_NAMES = ("BLP", "tBLP", "LFS", "N1", "N2")

S_PARTITION = SystemPartition([("S1", 2), ("S2", 2)])  # the two dephasing qubits
AS_PARTITION = SystemPartition([("A", 2)]).concat(S_PARTITION)  # with a qubit ancilla


class TrajectoryError(ValueError):
    """Inconsistent time grids, partitions or candidate lists."""


@dataclass(frozen=True, eq=False)
class ScalarSeries:
    """A real scalar sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if t.shape != v.shape:
            raise TrajectoryError("times and values have different lengths")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise TrajectoryError("time grid is not strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """The states of a sampled evolution as one stacked ``DensityMatrix``: slice i at ``times[i]``.

    A sequence of single states on one partition is stacked, and the stack
    validated, on construction.
    """

    times: np.ndarray
    states: DensityMatrix

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        states = self.states
        if not isinstance(states, DensityMatrix):
            states = tuple(states)
            if not states:
                raise TrajectoryError("empty trajectory")
            if any(s.partition != states[0].partition for s in states):
                raise TrajectoryError("states do not share one partition")
            states = DensityMatrix(np.stack([s.data for s in states]), states[0].partition, _owned=True)
        if states.data.ndim != 3 or len(states.data) != t.size:
            raise TrajectoryError("one state per time sample required")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise TrajectoryError("time grid is not strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)

    @property
    def partition(self) -> SystemPartition:
        return self.states.partition

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Measure value with the achieving candidate and per-step contributions."""

    measure_name: str
    value: float
    best_candidate_index: int
    increments: ScalarSeries

    def __post_init__(self):
        if self.measure_name not in MEASURE_NAMES:
            raise ValueError(f"unknown measure {self.measure_name!r}")
        if self.value < 0.0:
            raise ValueError("measure value must be nonnegative")


def positive_increment_integral(
    series: ScalarSeries, noise_tol: float = DEFAULT_NOISE_TOL
) -> tuple[float, ScalarSeries]:
    """Sum of positive steps: discretization of the integral over df/dt > 0.

    Steps with |delta| <= noise_tol contribute zero.
    """
    if len(series) < 2:
        raise TrajectoryError("need at least two samples")
    if noise_tol < 0.0:
        raise ValueError("noise_tol must be nonnegative")
    d = np.diff(series.values)
    contrib = np.where(np.abs(d) <= noise_tol, 0.0, np.maximum(d, 0.0))
    return float(contrib.sum()), ScalarSeries(series.times[1:], contrib)


def negative_decrement_integral(
    series: ScalarSeries, noise_tol: float = DEFAULT_NOISE_TOL
) -> tuple[float, ScalarSeries]:
    """Integral of |d/dt| over the decreasing part: positive increments of -f."""
    flipped = ScalarSeries(series.times, -series.values)
    return positive_increment_integral(flipped, noise_tol)


def _best(
    name: str,
    integral: Callable[[ScalarSeries, float], tuple[float, ScalarSeries]],
    series: Sequence[ScalarSeries],
    noise_tol: float,
) -> MeasureResult:
    """The candidate series with the largest ``integral``, as the measure ``name``.

    A series with no step integrates to 0 with no increments; ties go to the
    first candidate.
    """
    per = [
        integral(s, noise_tol) if len(s) > 1 else (0.0, ScalarSeries(s.times[:0], np.zeros(0)))
        for s in series
    ]
    if not per:
        raise TrajectoryError("candidate list is empty")
    idx = int(np.argmax([v for v, _ in per]))
    value, inc = per[idx]
    return MeasureResult(name, value, idx, inc)


def measure_distance_blp(
    pair_trajectories: Sequence[tuple[StateTrajectory, StateTrajectory]],
    distance: str = "trace",
    noise_tol: float = DEFAULT_NOISE_TOL,
) -> MeasureResult:
    """BLP-style measure: integrated revivals of a distinguishability series.

    ``distance`` selects the trace distance ("trace") or the quantum
    Jensen-Shannon telescopic divergence ("telescopic"), taken once per pair
    over the two stacks.
    """
    if distance == "trace":
        name, dist = "BLP", info.trace_distance
    elif distance == "telescopic":
        name, dist = "tBLP", info.jensen_shannon_telescopic
    else:
        raise ValueError(f"unknown distance {distance!r}")
    series = []
    for t1, t2 in pair_trajectories:
        if t1.times.shape != t2.times.shape or not np.allclose(t1.times, t2.times):
            raise TrajectoryError("pair trajectories sampled on different grids")
        if t1.partition != t2.partition:
            raise TrajectoryError("pair trajectories on different partitions")
        series.append(ScalarSeries(t1.times, dist(t1.states, t2.states)))
    return _best(name, positive_increment_integral, series, noise_tol)


def measure_lfs(series: Sequence[ScalarSeries], noise_tol: float = DEFAULT_NOISE_TOL) -> MeasureResult:
    """Integrated revivals of I(S : A), one series per candidate (from ``mi_series``, say)."""
    return _best("LFS", positive_increment_integral, series, noise_tol)


def measure_n1(series: Sequence[ScalarSeries], noise_tol: float = DEFAULT_NOISE_TOL) -> MeasureResult:
    """Integrated decrease of the leaked information I(A : E | S), one series per candidate."""
    return _best("N1", negative_decrement_integral, series, noise_tol)


def measure_n2(series: Sequence[ScalarSeries], noise_tol: float = DEFAULT_NOISE_TOL) -> MeasureResult:
    """The N1 functional of I(A : E | S A'), the series of ``cmi_series`` with ``aprime_label``."""
    return _best("N2", negative_decrement_integral, series, noise_tol)


# ---------------------------------------------------------------------------
# series of dense state trajectories


def mi_series(traj: StateTrajectory, ancilla_labels: Iterable[str] = ("A",)) -> ScalarSeries:
    """I(rest : ancilla)(t), the series of LFS when the rest is the system."""
    anc = frozenset(ancilla_labels)
    if not anc <= set(traj.partition.labels):
        raise PartitionError(f"trajectory partition lacks ancilla labels {sorted(anc)}")
    rest = frozenset(traj.partition.labels) - anc
    return ScalarSeries(traj.times, info.mutual_information(traj.states, rest, anc))


def cmi_series(
    traj: StateTrajectory,
    env_labels: Iterable[str],
    system_labels: Iterable[str],
    ancilla_labels: Iterable[str] = ("A",),
    aprime_label: str | None = None,
    aprime_drift_tol: float = 1e-8,
) -> ScalarSeries:
    """The leaked information I(A : env | system)(t), the series of N1.

    Environment labels outside ``env_labels`` are traced out, not conditioned
    on, so a sub-environment series realizes the partial-environment variant
    of the measure.  With ``aprime_label`` the primed ancilla A' joins the
    conditioning system, the series of N2: this requires dim(A') =
    dim(system) + 1 and an A' marginal constant along the trajectory (the
    primed ancilla must evolve trivially).
    """
    env = frozenset(env_labels)
    system = frozenset(system_labels)
    anc = frozenset(ancilla_labels)
    if not env:
        raise PartitionError("env_labels must be nonempty")
    part = traj.partition
    labels = set(part.labels)
    for group in (env, system, anc):
        if not group <= labels:
            raise PartitionError(f"labels {sorted(group - labels)} missing from trajectory")
    if aprime_label is not None:
        d_sys = int(np.prod([part.dim_of(l) for l in system], dtype=np.int64))
        d_ap = part.dim_of(aprime_label)
        if d_ap != d_sys + 1:
            raise PartitionError(
                f"dim(A') = {d_ap} but dim(system) + 1 = {d_sys + 1} required"
            )
        marg = partial_trace(traj.states, {aprime_label})
        drift = info.trace_distance(marg, DensityMatrix(marg.data[0], marg.partition))
        if np.any(drift > aprime_drift_tol):
            raise TrajectoryError(
                f"A' marginal drifts by {drift[drift > aprime_drift_tol][0]:.3e} along the trajectory"
            )
        system = system | {aprime_label}
    reduced = partial_trace(traj.states, anc | env | system)
    return ScalarSeries(traj.times, info.conditional_mutual_information(reduced, anc, env, system))


# ---------------------------------------------------------------------------
# candidate-state constructions


def optimal_pair_state(
    rho1: DensityMatrix, rho2: DensityMatrix, ancilla_label: str = "A"
) -> DensityMatrix:
    """(rho1 (x) |0><0| + rho2 (x) |1><1|)/2 with a fresh qubit ancilla flag, slice by slice for stacks."""
    if rho1.partition != rho2.partition:
        raise PartitionError("pair states live on different partitions")
    part = rho1.partition.concat(SystemPartition([(ancilla_label, 2)]))
    batch, d = np.broadcast_shapes(rho1.data.shape, rho2.data.shape)[:-2], rho1.dim
    data = np.zeros(batch + (d, 2, d, 2), dtype=complex)
    data[..., 0, :, 0] = 0.5 * rho1.data
    data[..., 1, :, 1] = 0.5 * rho2.data
    return DensityMatrix(data.reshape(batch + (2 * d, 2 * d)), part, _owned=True)


def tsio_trajectory(
    traj1: StateTrajectory, traj2: StateTrajectory, ancilla_label: str = "A"
) -> StateTrajectory:
    """Pointwise optimal-pair construction along two system trajectories."""
    if traj1.times.shape != traj2.times.shape or not np.allclose(traj1.times, traj2.times):
        raise TrajectoryError("trajectories sampled on different grids")
    return StateTrajectory(traj1.times, optimal_pair_state(traj1.states, traj2.states, ancilla_label))


def flagged_ancilla_state(
    amplitudes: Sequence[complex],
    system_indices: Sequence[int],
    system_partition: SystemPartition,
    ancilla_label: str = "A",
    ancilla_dim: int | None = None,
    flags: Sequence[np.ndarray] | None = None,
) -> DensityMatrix:
    """Pure flagged superposition  sum_i a_i |f_i>_A (x) |s_i>_S.

    ``system_indices`` are computational-basis indices of the system factors;
    ``flags`` default to the first len(amplitudes) ancilla basis vectors and
    must be orthonormal.  The ancilla factor comes first in the partition.
    """
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
        raise ValueError("amplitudes are not normalized to 1e-12")
    if len(system_indices) != amps.size:
        raise ValueError("one system index per amplitude required")
    d_s = system_partition.total_dim
    d_a = ancilla_dim if ancilla_dim is not None else amps.size
    if flags is None:
        flags = [np.eye(d_a)[:, i] for i in range(amps.size)]
    flag_mat = np.column_stack([np.asarray(f, dtype=complex).reshape(-1) for f in flags])
    if flag_mat.shape[0] != d_a:
        raise ValueError("flag vectors do not match the ancilla dimension")
    gram = flag_mat.conj().T @ flag_mat
    if np.max(np.abs(gram - np.eye(amps.size))) > 1e-12:
        raise ValueError("flag vectors are not orthonormal")
    vec = np.zeros(d_a * d_s, dtype=complex)
    for a, s_idx, k in zip(amps, system_indices, range(amps.size)):
        if not 0 <= s_idx < d_s:
            raise ValueError(f"system basis index {s_idx} out of range")
        block = np.zeros(d_s, dtype=complex)
        block[s_idx] = 1.0
        vec += a * np.kron(flag_mat[:, k], block)
    part = SystemPartition([(ancilla_label, d_a)]).concat(system_partition)
    return pure_state(vec, part)


def ops_state() -> DensityMatrix:
    """The default flagged candidate (|0>_A |01>_S + |1>_A |10>_S)/sqrt(2)."""
    return flagged_ancilla_state([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [0b01, 0b10], S_PARTITION)
