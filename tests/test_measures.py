import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonmarkov import dephasing, info, measures
from nonmarkov.measures import (
    MeasureResult,
    ScalarSeries,
    StateTrajectory,
    TrajectoryError,
    cmi_series,
    flagged_ancilla_state,
    measure_distance_blp,
    measure_lfs,
    measure_n1,
    measure_n2,
    mi_series,
    negative_decrement_integral,
    ops_state,
    optimal_pair_state,
    positive_increment_integral,
    tsio_trajectory,
)
from nonmarkov.states import (
    DensityMatrix,
    PartitionError,
    StateValidityError,
    SystemPartition,
    apply_channel,
    basis_state,
    partial_trace,
    pure_state,
    random_channel,
    random_density_matrix,
    random_pure_state,
    tensor,
)

LN2 = math.log(2.0)


class TestStateTrajectory:
    def test_states_are_one_validated_stack(self):
        part = SystemPartition([("S", 2), ("A", 2)])
        states = [random_density_matrix(part, 2, seed) for seed in range(3)]
        traj = StateTrajectory([0.0, 1.0, 2.0], tuple(states))
        assert traj.states.data.shape == (3, 4, 4) and traj.partition == part
        assert all(np.array_equal(a, s.data) for a, s in zip(traj.states.data, states))
        assert StateTrajectory(traj.times, traj.states).states is traj.states

    def test_every_slice_is_checked(self):
        part = SystemPartition([("S", 2)])
        data = np.stack([np.eye(2) / 2, np.diag([1.5, -0.5])])
        with pytest.raises(StateValidityError, match="negative eigenvalue"):
            StateTrajectory([0.0, 1.0], DensityMatrix(data, part))

    def test_mismatched_stacks_rejected(self):
        part = SystemPartition([("S", 2)])
        stack = DensityMatrix(np.stack([np.eye(2) / 2] * 2), part)
        with pytest.raises(TrajectoryError, match="one state per time"):
            StateTrajectory([0.0, 1.0, 2.0], stack)
        with pytest.raises(TrajectoryError, match="one state per time"):
            StateTrajectory([0.0], DensityMatrix(np.eye(2) / 2, part))
        with pytest.raises(TrajectoryError, match="empty"):
            StateTrajectory([], ())
        with pytest.raises(TrajectoryError, match="share one partition"):
            StateTrajectory([0.0, 1.0], (pure_state([1, 0], part), pure_state([1, 0], SystemPartition([("A", 2)]))))


class TestScalarSeries:
    def test_non_monotone_grid_rejected(self):
        with pytest.raises(TrajectoryError):
            ScalarSeries([0.0, 1.0, 1.0], [0, 0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(TrajectoryError):
            ScalarSeries([0.0, 1.0], [0.0])


class TestPositiveIncrementIntegral:
    def test_constant_series(self):
        s = ScalarSeries(np.linspace(0, 1, 50), np.full(50, 0.3))
        val, inc = positive_increment_integral(s)
        assert val == 0.0
        assert np.all(inc.values == 0.0)

    def test_single_rise_of_ln2(self):
        t = np.linspace(0, 2, 2001)
        vals = np.where(t <= 1.0, LN2 * (1 - t), LN2 * (t - 1))
        val, _ = positive_increment_integral(ScalarSeries(t, vals))
        assert_allclose(val, LN2, atol=1e-9)

    def test_abs_cos_rise(self):
        t = np.arange(0.0, math.pi, 1e-3)
        val, _ = positive_increment_integral(ScalarSeries(t, np.abs(np.cos(t))))
        assert abs(val - 1.0) <= 2e-3

    def test_noise_tolerance_filters_jitter(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1, 200)
        vals = 1.0 - t + rng.uniform(-1e-12, 1e-12, 200)
        val, _ = positive_increment_integral(ScalarSeries(t, vals), noise_tol=1e-10)
        assert val == 0.0

    def test_requires_two_samples(self):
        with pytest.raises(TrajectoryError):
            positive_increment_integral(ScalarSeries([0.0], [1.0]))

    def test_refinement_stability(self):
        coarse = np.linspace(0, math.pi, 500)
        fine = np.linspace(0, math.pi, 1000)
        vc, _ = positive_increment_integral(ScalarSeries(coarse, np.abs(np.cos(coarse))))
        vf, _ = positive_increment_integral(ScalarSeries(fine, np.abs(np.cos(fine))))
        assert abs(vc - vf) <= 4e-3


def _slices(traj):
    """The states of a trajectory one by one, each validated on its own."""
    return [DensityMatrix(m, traj.partition) for m in traj.states.data]


def _qubit_pair_trajectory(thetas, times):
    """Pure-state pair (|0>, sin t|0> + cos t|1>) with trace distance |cos t|."""
    part = SystemPartition([("S", 2)])
    fixed = tuple(pure_state([1, 0], part) for _ in times)
    moving = tuple(pure_state([math.sin(th), math.cos(th)], part) for th in thetas)
    return StateTrajectory(times, fixed), StateTrajectory(times, moving)


class TestMeasureDistanceBLP:
    def test_monotone_dephasing_pair_is_markovian(self):
        part = SystemPartition([("S", 2)])
        times = np.linspace(0, 3, 60)
        def dephased(sign):
            states = []
            for t in times:
                c = sign * 0.5 * math.exp(-t)
                states.append(DensityMatrix(np.array([[0.5, c], [c, 0.5]]), part))
            return StateTrajectory(times, tuple(states))
        res = measure_distance_blp([(dephased(+1), dephased(-1))], distance="trace")
        assert res.value == 0.0
        assert res.measure_name == "BLP"

    def test_engineered_abs_cos_distance(self):
        times = np.arange(0.0, math.pi, 1e-3)
        pair = _qubit_pair_trajectory(times, times)
        # oracle: trace distance between the pure states is exactly |cos t|
        d0 = info.trace_distance(_slices(pair[0])[100], _slices(pair[1])[100])
        assert abs(d0 - abs(math.cos(times[100]))) <= 1e-12
        res = measure_distance_blp([pair], distance="trace")
        assert abs(res.value - 1.0) <= 2e-3

    def test_telescopic_variant_matches_pointwise_series(self):
        times = np.linspace(0, math.pi, 80)
        pair = _qubit_pair_trajectory(times, times)
        res = measure_distance_blp([pair], distance="telescopic")
        series = ScalarSeries(
            times,
            [info.jensen_shannon_telescopic(a, b) for a, b in zip(_slices(pair[0]), _slices(pair[1]))],
        )
        val, inc = positive_increment_integral(series)
        # one call over the stacks gives each time the bits of its own pair of states
        assert res.value == val and np.array_equal(res.increments.values, inc.values)
        assert res.measure_name == "tBLP"

    @pytest.mark.parametrize("env_kind", dephasing.ENV_KINDS)
    def test_dephasing_pair_series_match_per_state_calls(self, env_kind):
        # one distance call over the two stacks of a tsio pair gives each time the
        # bits of the call on its own two states
        p = dephasing.DephasingParams(omega_c=0.05, r=0.8, alpha1=4.0, alpha2=4.0, t1s=0.0, t1f=2.5,
                                      t2s=2.5, t2f=4.2, env_kind=env_kind)
        times = np.round(np.arange(0.0, 4.2 + 1e-9, 0.05), 12)
        s = 1 / math.sqrt(2)
        pair = tuple(dephasing.system_trajectory(p, pure_state(a, measures.S_PARTITION), times)
                     for a in ([0, s, s, 0], [0, s, -s, 0]))
        for distance, dist in (("trace", info.trace_distance), ("telescopic", info.jensen_shannon_telescopic)):
            res = measure_distance_blp([pair], distance=distance)
            ref = ScalarSeries(times, [dist(a, b) for a, b in zip(_slices(pair[0]), _slices(pair[1]))])
            val, inc = positive_increment_integral(ref)
            assert res.value == val and np.array_equal(res.increments.values, inc.values)

    def test_grid_mismatch_rejected(self):
        t1, t2 = _qubit_pair_trajectory(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        t3, _ = _qubit_pair_trajectory(np.linspace(0, 2, 5), np.linspace(0, 2, 5))
        with pytest.raises(TrajectoryError):
            measure_distance_blp([(t1, t3)])

    def test_candidate_relabeling_keeps_value(self):
        times = np.linspace(0, math.pi, 60)
        pair_a = _qubit_pair_trajectory(times, times)
        pair_b = _qubit_pair_trajectory(0.5 * times, times)
        r1 = measure_distance_blp([pair_a, pair_b])
        r2 = measure_distance_blp([pair_b, pair_a])
        assert_allclose(r1.value, r2.value, atol=1e-15)
        assert r1.best_candidate_index != r2.best_candidate_index


def _composed_channel_trajectory(seed, steps=25):
    """rho_SA under a fixed random CPTP map applied repeatedly to S."""
    part = SystemPartition([("S", 2), ("A", 2)])
    rho = random_density_matrix(part, 2, seed)
    ch = random_channel(2, 3, seed + 1)
    states = [rho]
    for _ in range(steps - 1):
        states.append(apply_channel(states[-1], ch, "S"))
    return StateTrajectory(np.arange(steps, dtype=float), tuple(states))


def _swap_revival_trajectory(n=41):
    """S entangled with A; E swapped out and back in: full MI revival at the end."""
    import scipy.linalg as sla

    part = SystemPartition([("S", 2), ("A", 2), ("E", 2)])
    bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), SystemPartition([("S", 2), ("A", 2)]))
    rho0 = tensor(bell, basis_state(SystemPartition([("E", 2)]), [0]))
    logswap = sla.logm(np.eye(4)[[0, 2, 1, 3]])
    times = np.linspace(0.0, 2.0, n)
    states = []
    for t in times:
        theta = t if t <= 1.0 else 2.0 - t  # out then back
        u_se = np.real_if_close(sla.expm(logswap * theta))
        # the swap acts on legs (S, E) of the (S, A, E) ordering
        full = np.einsum(
            u_se.reshape(2, 2, 2, 2), [0, 2, 4, 6], np.eye(2), [1, 5],
            [0, 1, 2, 4, 5, 6],
        ).reshape(8, 8)
        states.append(DensityMatrix(full @ rho0.data @ full.conj().T, part))
    return StateTrajectory(times, tuple(states))


class TestMeasureLFS:
    def test_markovian_semigroup_gives_zero(self):
        traj = _composed_channel_trajectory(seed=3)
        res = measure_lfs([mi_series(traj)])
        assert res.value <= 1e-9
        assert res.measure_name == "LFS"

    def test_swap_revival_value(self):
        traj = _swap_revival_trajectory()
        res = measure_lfs([mi_series(traj)])
        mi = [info.mutual_information(s, {"S", "E"}, {"A"}) for s in _slices(traj)]
        expected = mi[0] - min(mi)
        assert abs(res.value - expected) <= 1e-8

    def test_single_sample_trajectory(self):
        part = SystemPartition([("S", 2), ("A", 2)])
        traj = StateTrajectory([0.0], (random_density_matrix(part, 4, 0),))
        assert measure_lfs([mi_series(traj)]).value == 0.0

    def test_missing_ancilla_label(self):
        part = SystemPartition([("S", 2), ("B", 2)])
        traj = StateTrajectory([0.0], (random_density_matrix(part, 4, 0),))
        with pytest.raises(PartitionError):
            measure_lfs([mi_series(traj)])


def _partial_swap_cmi_trajectory(n=81):
    """Classically correlated AS pair; S partially swapped into E and back.

    The conditional mutual information I(A:E|S) rises to ln 2 and returns to
    zero, so the decrease integral equals the apex height.
    """
    import scipy.linalg as sla

    part = SystemPartition([("A", 2), ("S", 2), ("E", 2)])
    rho_as = DensityMatrix(np.diag([0.5, 0, 0, 0.5]), SystemPartition([("A", 2), ("S", 2)]))
    rho0 = tensor(rho_as, basis_state(SystemPartition([("E", 2)]), [0]))
    swap = np.eye(4)[[0, 2, 1, 3]]
    logswap = sla.logm(swap)
    times = np.linspace(0.0, 2.0, n)
    states = []
    for t in times:
        theta = t if t <= 1.0 else 2.0 - t
        u_se = np.real_if_close(sla.expm(logswap * theta))
        full = np.kron(np.eye(2), u_se)
        states.append(DensityMatrix(full @ rho0.data @ full.conj().T, part))
    return StateTrajectory(times, tuple(states))


class TestMeasureN1:
    def test_decoupled_environment_zero(self):
        part_as = SystemPartition([("A", 2), ("S", 2)])
        env = SystemPartition([("E", 2)])
        times = np.linspace(0, 1, 12)
        states = tuple(
            tensor(random_density_matrix(part_as, 4, 7), basis_state(env, [0])) for _ in times
        )
        res = measure_n1([cmi_series(StateTrajectory(times, states), {"E"}, {"S"})])
        assert res.value == 0.0

    def test_partial_swap_apex(self):
        traj = _partial_swap_cmi_trajectory()
        res = measure_n1([cmi_series(traj, {"E"}, {"S"})])
        cmi = [
            info.conditional_mutual_information(s, {"A"}, {"E"}, {"S"}) for s in _slices(traj)
        ]
        assert abs(max(cmi) - LN2) <= 1e-3  # apex of the engineered series
        assert abs(res.value - max(cmi)) <= 1e-8
        assert res.measure_name == "N1"

    def test_equals_lfs_when_total_correlation_constant(self):
        traj = _swap_revival_trajectory()
        # relabel to the (A | S | E) roles measure_n1 expects
        n1 = measure_n1([cmi_series(traj, {"E"}, {"S"}, ancilla_labels=("A",))])
        lfs_traj = StateTrajectory(traj.times, partial_trace(traj.states, {"S", "A"}))
        lfs = measure_lfs([mi_series(lfs_traj)])
        assert abs(n1.value - lfs.value) <= 1e-8

    def test_idle_sub_environment_does_not_contribute(self):
        # evolution on S+E only: the measure over {E} equals the measure over
        # {E, F} with an idle extra sub-environment F
        base = _partial_swap_cmi_trajectory(n=41)
        idle = basis_state(SystemPartition([("F", 2)]), [0])
        ext = StateTrajectory(base.times, tensor(base.states, idle))
        n1_sub = measure_n1([cmi_series(ext, {"E"}, {"S"})])
        n1_full = measure_n1([cmi_series(ext, {"E", "F"}, {"S"})])
        assert abs(n1_sub.value - n1_full.value) <= 1e-8


class TestMeasureN2:
    def _extended(self, traj, d_ap=3):
        ap = SystemPartition([("Ap", d_ap)])
        vac = basis_state(ap, [0])
        return StateTrajectory(traj.times, tensor(traj.states, vac))

    def test_product_aprime_reduces_to_n1(self):
        traj = _partial_swap_cmi_trajectory(n=21)
        ext = self._extended(traj)
        n1 = measure_n1([cmi_series(traj, {"E"}, {"S"})])
        n2 = measure_n2([cmi_series(ext, {"E"}, {"S"}, aprime_label="Ap")])
        assert abs(n1.value - n2.value) <= 1e-9
        assert n2.measure_name == "N2"

    def test_closed_system_zero(self):
        part = SystemPartition([("A", 2), ("S", 2), ("Ap", 3), ("E", 2)])
        times = np.linspace(0, 1, 8)
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), SystemPartition([("A", 2), ("S", 2)]))
        base = tensor(tensor(bell, basis_state(SystemPartition([("Ap", 3)]), [0])),
                      basis_state(SystemPartition([("E", 2)]), [0]))
        traj = StateTrajectory(times, tuple(base for _ in times))
        assert measure_n2([cmi_series(traj, {"E"}, {"S"}, aprime_label="Ap")]).value == 0.0

    def test_wrong_aprime_dimension(self):
        traj = self._extended(_partial_swap_cmi_trajectory(n=5), d_ap=4)
        with pytest.raises(PartitionError):
            measure_n2([cmi_series(traj, {"E"}, {"S"}, aprime_label="Ap")])

    def test_drifting_aprime_rejected(self):
        part = SystemPartition([("A", 2), ("S", 2), ("E", 2)])
        traj = _partial_swap_cmi_trajectory(n=5)
        ap = SystemPartition([("Ap", 3)])
        states = _slices(self._extended(traj))
        # tamper with the last A' marginal
        states[-1] = tensor(_slices(traj)[-1], basis_state(ap, [1]))
        bad = StateTrajectory(traj.times, tuple(states))
        with pytest.raises(TrajectoryError):
            measure_n2([cmi_series(bad, {"E"}, {"S"}, aprime_label="Ap")])

    def test_n2_at_least_n1_on_shared_candidates(self):
        trajs = [_partial_swap_cmi_trajectory(n=17)]
        exts = [self._extended(t) for t in trajs]
        n1 = measure_n1([cmi_series(t, {"E"}, {"S"}) for t in trajs])
        n2 = measure_n2([cmi_series(t, {"E"}, {"S"}, aprime_label="Ap") for t in exts])
        assert n2.value >= n1.value - 1e-9


class TestOptimalPairState:
    def test_orthogonal_pures_ln2(self):
        part = SystemPartition([("S", 2)])
        rho1 = pure_state([1, 0], part)
        rho2 = pure_state([0, 1], part)
        op = optimal_pair_state(rho1, rho2)
        assert_allclose(info.mutual_information(op, {"S"}, {"A"}), LN2, atol=1e-12)

    def test_equal_states_zero(self):
        part = SystemPartition([("S", 2)])
        rho = random_density_matrix(part, 2, 0)
        op = optimal_pair_state(rho, rho)
        assert info.mutual_information(op, {"S"}, {"A"}) <= 1e-10

    def test_relative_entropy_identity(self):
        # S(op || marginals) = ln2 * D_tele(rho1, rho2), both sides independent
        part = SystemPartition([("S", 3)])
        for seed in range(10):
            rho1 = random_density_matrix(part, 3, seed)
            rho2 = random_density_matrix(part, 3, seed + 20)
            op = optimal_pair_state(rho1, rho2)
            prod = tensor(partial_trace(op, {"S"}), partial_trace(op, {"A"}))
            lhs = info.relative_entropy(op, prod)
            rhs = LN2 * info.jensen_shannon_telescopic(rho1, rho2)
            assert abs(lhs - rhs) <= 1e-9

    def test_partition_mismatch(self):
        rho1 = random_density_matrix(SystemPartition([("S", 2)]), 2, 0)
        rho2 = random_density_matrix(SystemPartition([("T", 2)]), 2, 0)
        with pytest.raises(PartitionError):
            optimal_pair_state(rho1, rho2)


class TestFlaggedAncillaState:
    def test_default_instance(self):
        rho = ops_state()
        assert rho.partition.labels == ("A", "S1", "S2")
        assert_allclose(
            info.mutual_information(rho, {"S1", "S2"}, {"A"}), 2 * LN2, atol=1e-12
        )
        marg = partial_trace(rho, {"S1", "S2"})
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        assert_allclose(marg.data, expected, atol=1e-12)

    def test_single_branch_is_product(self):
        sys_part = SystemPartition([("S1", 2), ("S2", 2)])
        rho = flagged_ancilla_state([1.0], [2], sys_part, ancilla_dim=2)
        assert info.mutual_information(rho, {"S1", "S2"}, {"A"}) <= 1e-12

    def test_normalization_enforced(self):
        sys_part = SystemPartition([("S1", 2), ("S2", 2)])
        with pytest.raises(ValueError):
            flagged_ancilla_state([0.9, 0.1], [1, 2], sys_part)

    def test_non_orthonormal_flags_rejected(self):
        sys_part = SystemPartition([("S1", 2), ("S2", 2)])
        flags = [np.array([1, 0]), np.array([1, 1]) / math.sqrt(2)]
        with pytest.raises(ValueError):
            flagged_ancilla_state(
                [1 / math.sqrt(2), 1 / math.sqrt(2)], [1, 2], sys_part, flags=flags
            )


class TestMeasureResult:
    def test_value_is_sum_of_increments(self):
        times = np.linspace(0, math.pi, 300)
        pair = _qubit_pair_trajectory(times, times)
        res = measure_distance_blp([pair])
        assert_allclose(res.value, res.increments.values.sum(), atol=1e-14)
        assert res.value >= 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            MeasureResult("XXX", 1.0, 0, ScalarSeries([0.0], [0.0]))
