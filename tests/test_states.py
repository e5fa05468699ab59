import gc
import itertools
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonmarkov.states import (
    ChannelError,
    DensityMatrix,
    PartitionError,
    QuantumChannel,
    StateValidityError,
    SystemPartition,
    apply_channel,
    basis_state,
    clamp_spectrum,
    embed,
    haar_random_unitary,
    masked_sums,
    maximally_mixed,
    partial_trace,
    pure_state,
    random_channel,
    random_density_matrix,
    spectrum_entropy,
    tensor,
)

QUBIT = SystemPartition([("S", 2)])


def bell_state():
    part = SystemPartition([("S", 2), ("A", 2)])
    return pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2), part)


def ghz_state():
    part = SystemPartition([("A", 2), ("S", 2), ("E", 2)])
    v = np.zeros(8)
    v[0] = v[7] = 1 / np.sqrt(2)
    return pure_state(v, part)


class TestSystemPartition:
    def test_labels_and_dims(self):
        p = SystemPartition([("A", 2), ("S", 4)])
        assert p.labels == ("A", "S")
        assert p.total_dim == 8
        assert p.dim_of("S") == 4

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PartitionError):
            SystemPartition([("A", 2), ("A", 2)])

    def test_restrict_keeps_order(self):
        p = SystemPartition([("A", 2), ("S", 3), ("E", 2)])
        assert p.restrict({"E", "A"}).labels == ("A", "E")

    def test_concat_collision(self):
        with pytest.raises(PartitionError):
            SystemPartition([("A", 2)]).concat(SystemPartition([("A", 2)]))

    def test_equality_hash_and_repr_depend_on_factors_only(self):
        p = SystemPartition([("A", 2), ("S", 4)])
        q = SystemPartition((("A", 2), ("S", 4)))
        assert p == q and hash(p) == hash(q) == hash((p.factors,))
        assert p != SystemPartition([("A", 2), ("S", 3)])
        assert len({p, q}) == 1
        assert repr(p) == "SystemPartition(factors=(('A', 2), ('S', 4)))"

    def test_bookkeeping_is_computed_once(self):
        p = SystemPartition([("A", 2), ("S", 3), ("E", 5)])
        assert p.labels is p.labels and p.dims is p.dims
        assert p.dims == (2, 3, 5) and p.total_dim == 30 and type(p.total_dim) is int
        assert p.positions(["E", "A"]) == [0, 2]

    def test_kept_label_sets_are_memoised(self):
        p = SystemPartition([("A", 2), ("S", 3), ("E", 5)])
        sub = p.restrict({"E", "A"})
        assert p.restrict(["A", "E"]) is sub and sub == SystemPartition([("A", 2), ("E", 5)])
        pos = p.positions({"A", "E"})
        pos.append(1)  # a caller's list, not the memo's
        assert p.positions(["E", "A"]) == [0, 2]
        # an equal partition built separately shares the kept-set bookkeeping
        q = SystemPartition((("A", 2), ("S", 3), ("E", 5)))
        assert q is not p and q.restrict(["E", "A"]) is sub
        qpos = q.positions(["A", "E"])
        assert qpos == [0, 2] and qpos is not pos
        qpos.append(1)
        assert p.positions({"A", "E"}) == q.positions({"A", "E"}) == [0, 2]

    def test_unknown_label_messages(self):
        p = SystemPartition([("A", 2), ("S", 4)])
        with pytest.raises(PartitionError, match=r"^unknown label 'Q'; have \('A', 'S'\)$"):
            p.dim_of("Q")
        with pytest.raises(PartitionError, match=r"^unknown labels \['Q', 'R'\]; have \('A', 'S'\)$"):
            p.positions({"A", "R", "Q"})


def _dead_row_state(**entries) -> np.ndarray:
    """A 3x3 trace-one matrix whose row and column 0 are zero, plus ``entries`` (key "ij")."""
    m = np.diag([0.0, 0.5, 0.5]).astype(complex)
    for key, val in entries.items():
        m[int(key[1]), int(key[2])] = val
    return m


NON_FINITE = {
    "diag_nan": np.diag([np.nan, np.nan]),
    "offdiag_nan": np.array([[0.5, np.nan], [np.nan, 0.5]]),
    "diag_inf": np.diag([np.inf, 0.5]),
    "offdiag_inf": np.array([[0.5, np.inf], [np.inf, 0.5]]),
    "dead_row_diag_nan": _dead_row_state(m11=np.nan),
    "dead_row_offdiag_inf": _dead_row_state(m12=np.inf, m21=np.inf),
    "zero_diagonal_row_nan": _dead_row_state(m01=np.nan),
}

# every input ``TestDensityMatrixValidation`` rejects
INVALID = {
    "non_hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    "dead_row_non_hermitian": _dead_row_state(m12=0.25, m21=0.25 + 1e-3j),
    "bad_trace": np.eye(2),
    "negative_eigenvalue": np.diag([1.5, -0.5]),
    **NON_FINITE,
}


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(StateValidityError):
            DensityMatrix(m, QUBIT)
        # inside the support of a state with a dead row, validated on that support:
        # the deviation reported is the whole matrix's max |M - M^dag|
        m = _dead_row_state(m12=0.25, m21=0.25 + 1e-3j)
        herm = np.abs(m - m.conj().T).max()
        with pytest.raises(StateValidityError, match=rf"^not Hermitian: max \|M - M\^dag\| = {herm:.3e}$"):
            DensityMatrix(m, SystemPartition([("S", 3)]))

    def test_bad_trace_rejected(self):
        with pytest.raises(StateValidityError):
            DensityMatrix(np.eye(2), QUBIT)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(StateValidityError):
            DensityMatrix(m, QUBIT)

    @pytest.mark.parametrize("m", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_rejected(self, m):
        with pytest.raises(StateValidityError, match="non-finite"):
            DensityMatrix(m, SystemPartition([("S", len(m))]))

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("name", INVALID)
    def test_one_bad_slice_fails_a_stack_with_its_own_message(self, name, slot):
        m = INVALID[name]
        part = SystemPartition([("S", len(m))])
        with pytest.raises(StateValidityError) as alone:
            DensityMatrix(m, part)
        # the other slices are valid states with the same dead rows as the 3x3 inputs
        good = _dead_row_state() if len(m) == 3 else np.eye(2) / 2
        stack = [good, good, good]
        stack[slot] = m
        with pytest.raises(StateValidityError) as stacked:
            DensityMatrix(np.array(stack), part)
        assert str(stacked.value) == str(alone.value)

    def test_clamp_rejects_nan(self):
        with pytest.raises(StateValidityError):
            clamp_spectrum(np.array([np.nan, 0.5]))

    def test_spectrum_entropy_sums_the_clamped_spectrum(self):
        eigs = np.array([-5e-11, -0.0, 0.0, 1e-300, 0.25, 0.75])
        lam = clamp_spectrum(eigs)
        pos = lam[lam > 0.0]
        assert spectrum_entropy(eigs) == float(-(pos * np.log(pos)).sum())
        assert spectrum_entropy(np.array([])) == 0.0
        for bad in (np.array([-2e-10, 1.0]), np.array([np.nan, 1.0])):
            with pytest.raises(StateValidityError, match="below -1e-10"):
                spectrum_entropy(bad)

    def test_data_read_only(self):
        rho = maximally_mixed(QUBIT)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 2.0
        # a caller's array is copied: it stays writeable and is never aliased
        for arr in (np.eye(2) / 2, np.eye(2, dtype=complex) / 2,
                    np.asfortranarray(np.array([[0.5, 0.25j], [-0.25j, 0.5]])),
                    _dead_row_state()[1:, 1:]):
            before = arr.copy()
            rho = DensityMatrix(arr, QUBIT)
            assert not rho.data.flags.writeable
            assert arr.flags.writeable and not np.shares_memory(arr, rho.data)
            arr[0, 0] = 2.0
            assert np.array_equal(rho.data, before)
        # only a package producer hands over a fresh complex array for the state to own
        fresh = np.eye(2, dtype=complex) / 2
        assert DensityMatrix(fresh, QUBIT, _owned=True).data is fresh and not fresh.flags.writeable


class TestValidatedSpectrum:
    def test_spectrum_is_read_only_raw_eigvalsh(self):
        for seed, rank in ((1, 4), (2, 2), (3, 1)):
            rho = random_density_matrix(SystemPartition([("A", 2), ("S", 2)]), rank, seed=seed)
            assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.data))
            assert not rho.spectrum.flags.writeable
            with pytest.raises(ValueError):
                rho.spectrum[0] = 0.5

    def test_zero_rows_are_exact_zeros_of_the_spectrum(self, monkeypatch):
        rho = random_density_matrix(SystemPartition([("A", 2), ("S", 2)]), 3, seed=7)
        flag = basis_state(SystemPartition([("F", 3)]), [1])
        solved = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(m.shape[0]) or real(m))
        state = tensor(rho, flag)
        assert solved == [4]  # the support of the 12-dim state: rows (a, s, 1)
        dead = np.flatnonzero(~state.data.any(axis=1))
        assert dead.size == 8
        assert np.count_nonzero(state.spectrum == 0.0) >= dead.size
        assert np.all(np.diff(state.spectrum) >= 0.0)
        assert np.max(np.abs(state.spectrum - real(state.data))) <= 1e-14

    def test_zero_row_with_a_small_column_entry_stays_live(self, monkeypatch):
        # within the Hermiticity tolerance, row 0 is zero but column 0 is not
        m = np.zeros((3, 3), dtype=complex)
        m[1, 1], m[2, 2], m[1, 0] = 0.5, 0.5, 1e-10
        solved = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a.shape[0]) or real(a))
        rho = DensityMatrix(m, SystemPartition([("S", 3)]))
        assert solved == [3]
        assert np.array_equal(rho.spectrum, real(rho.data))

    def test_eigenvalues_reuse_the_spectrum(self, monkeypatch):
        rho = random_density_matrix(SystemPartition([("S", 3)]), 2, seed=5)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or real(m))
        eigs = rho.eigenvalues()
        assert rho.entropy == spectrum_entropy(rho.spectrum)  # computed once, from the spectrum
        assert calls == []
        assert eigs.min() >= 0.0
        assert_allclose(eigs, rho.spectrum, atol=1e-10)


class TestTensor:
    def test_identity_case(self):
        a = maximally_mixed(SystemPartition([("S", 2)]))
        b = maximally_mixed(SystemPartition([("A", 2)]))
        out = tensor(a, b)
        assert out.partition.labels == ("S", "A")
        assert_allclose(out.data, np.eye(4) / 4)

    def test_basis_product(self):
        zero = basis_state(SystemPartition([("S", 2)]), [0])
        one = basis_state(SystemPartition([("A", 2)]), [1])
        out = tensor(zero, one)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert_allclose(out.data, expected)

    def test_spectrum_is_outer_product(self):
        # oracle: eigenvalues of a Kronecker product are the pairwise products
        rho = random_density_matrix(SystemPartition([("S", 2)]), 2, seed=3)
        sig = random_density_matrix(SystemPartition([("A", 2)]), 2, seed=4)
        out = tensor(rho, sig)
        assert np.array_equal(out.data, np.kron(rho.data, sig.data))  # bit for bit
        assert abs(out.data.trace() - 1.0) < 1e-12
        expected = np.sort(np.outer(rho.eigenvalues(), sig.eigenvalues()).ravel())
        assert_allclose(np.sort(out.eigenvalues()), expected, atol=1e-12)

    def test_label_collision(self):
        a = maximally_mixed(QUBIT)
        with pytest.raises(PartitionError):
            tensor(a, a)

    def test_associative_up_to_flattening(self):
        parts = [SystemPartition([(l, 2)]) for l in "XYZ"]
        rhos = [random_density_matrix(p, 2, seed=i) for i, p in enumerate(parts)]
        left = tensor(tensor(rhos[0], rhos[1]), rhos[2])
        right = tensor(rhos[0], tensor(rhos[1], rhos[2]))
        assert np.max(np.abs(left.data - right.data)) <= 1e-14
        assert left.partition == right.partition


class TestPartialTrace:
    def test_bell_reduces_to_mixed(self):
        assert_allclose(partial_trace(bell_state(), {"S"}).data, np.eye(2) / 2, atol=1e-12)

    def test_product_state_exact(self):
        rho = random_density_matrix(SystemPartition([("S", 3)]), 3, seed=1)
        env = random_density_matrix(SystemPartition([("E", 2)]), 2, seed=2)
        out = partial_trace(tensor(rho, env), {"S"})
        assert_allclose(out.data, rho.data, atol=1e-14)

    def test_ghz_two_party_reduction(self):
        red = partial_trace(ghz_state(), {"A", "S"})
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert_allclose(red.data, expected, atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(PartitionError):
            partial_trace(bell_state(), {"Q"})

    def test_round_trip_property(self):
        # partial_trace(tensor(rho, sigma), labels of rho) == rho
        for seed in range(20):
            rho = random_density_matrix(SystemPartition([("S", 2), ("T", 2)]), 4, seed=seed)
            sig = random_density_matrix(SystemPartition([("E", 3)]), 3, seed=seed + 100)
            back = partial_trace(tensor(rho, sig), {"S", "T"})
            assert np.max(np.abs(back.data - rho.data)) <= 1e-12
            assert abs(back.data.trace() - 1.0) <= 1e-12


class TestMarginalMemo:
    PART = SystemPartition([("A", 2), ("S", 2), ("E1", 2), ("E2", 3)])

    def rho(self, seed=7):
        return random_density_matrix(self.PART, self.PART.total_dim, seed)

    def test_second_trace_returns_the_same_object(self):
        rho = self.rho()
        first = partial_trace(rho, {"A", "S"})
        assert partial_trace(rho, ["S", "A"]) is first
        assert partial_trace(rho, ("A", "S", "E1", "E2")) is rho

    def test_marginal_of_marginal_is_the_root_marginal(self):
        rho = self.rho()
        ase1 = partial_trace(rho, {"A", "S", "E1"})
        as_ = partial_trace(ase1, {"A", "S"})
        assert as_ is partial_trace(rho, {"A", "S"})
        assert partial_trace(as_, {"S"}) is partial_trace(rho, {"S"})
        direct = rho.data.reshape(2, 2, 6, 2, 2, 6).trace(axis1=2, axis2=5).reshape(4, 4)
        assert np.max(np.abs(as_.data - direct)) <= 1e-15

    def test_labels_outside_the_marginal_are_rejected(self):
        rho = self.rho()
        ase1 = partial_trace(rho, {"A", "S", "E1"})
        with pytest.raises(PartitionError):
            partial_trace(ase1, {"A", "E2"})
        with pytest.raises(PartitionError):
            partial_trace(ase1, set())

    def test_marginal_outlives_its_root_without_a_cycle(self):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            rho = self.rho()
            ase1 = partial_trace(rho, {"A", "S", "E1"})
            expected = partial_trace(rho, {"A", "S"}).data.copy()
            root = weakref.ref(rho)
            del rho
            assert root() is None  # freed by reference counting alone
            as_ = partial_trace(ase1, {"A", "S"})
            assert np.max(np.abs(as_.data - expected)) <= 1e-15
            assert partial_trace(ase1, {"A", "S"}) is as_
            refs = weakref.ref(ase1), weakref.ref(as_)
            del ase1, as_
            assert all(r() is None for r in refs)
        finally:
            if enabled:
                gc.enable()


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density_matrix(SystemPartition([("S", 2), ("E", 2)]), 4, seed=0)
        out = apply_channel(rho, QuantumChannel([np.eye(2)]), "E")
        assert_allclose(out.data, rho.data, atol=1e-14)

    def test_depolarizing_destroys_correlations(self):
        # X -> tr(X) I/2 through the four Heisenberg-Weyl (Pauli) operators, each / 2
        shift = np.array([[0, 1], [1, 0]])
        clock = np.diag([1, -1])
        paulis = [np.eye(2), clock, shift, shift @ clock]
        out = apply_channel(bell_state(), QuantumChannel([p / 2 for p in paulis]), "A")
        expected = tensor(maximally_mixed(SystemPartition([("S", 2)])),
                          maximally_mixed(SystemPartition([("A", 2)])))
        assert_allclose(out.data, expected.data, atol=1e-12)

    def test_unitary_preserves_spectrum(self):
        rho = random_density_matrix(SystemPartition([("S", 3)]), 3, seed=5)
        u = haar_random_unitary(3, seed=6)
        out = apply_channel(rho, QuantumChannel([u]), "S")
        assert_allclose(out.eigenvalues(), rho.eigenvalues(), atol=1e-12)

    def test_dimension_mismatch(self):
        rho = maximally_mixed(SystemPartition([("S", 3)]))
        with pytest.raises(ChannelError):
            apply_channel(rho, QuantumChannel([np.eye(2)]), "S")

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ChannelError):
            QuantumChannel([np.eye(2) * 0.5])

    def test_trace_and_psd_preserved(self):
        for seed in range(10):
            rho = random_density_matrix(SystemPartition([("S", 2), ("E", 2)]), 4, seed=seed)
            ch = random_channel(2, 3, seed=seed + 50)
            out = apply_channel(rho, ch, "S")
            assert abs(out.data.trace() - 1.0) <= 1e-12
            assert out.eigenvalues().min() >= 0.0

    def test_rectangular_kraus_changes_dimension(self):
        # isometry embedding a qubit into a qutrit
        v = np.zeros((3, 2))
        v[0, 0] = v[1, 1] = 1.0
        rho = random_density_matrix(SystemPartition([("S", 2), ("E", 2)]), 4, seed=9)
        out = apply_channel(rho, QuantumChannel([v]), "S")
        assert out.partition.dims == (3, 2)
        assert abs(out.data.trace() - 1.0) <= 1e-12


def same_bits(stacked, per_slice) -> bool:
    """A stacked result holds exactly the bits of the per-slice results."""
    ref = np.array(per_slice)
    stacked = np.asarray(stacked)
    return stacked.shape == ref.shape and stacked.dtype == ref.dtype and stacked.tobytes() == ref.tobytes()


def slices(stack: DensityMatrix) -> list[DensityMatrix]:
    return [DensityMatrix(m, stack.partition) for m in stack.data]


class TestStacks:
    def test_seeded_producers_stack_their_seeds(self):
        part = SystemPartition([("A", 2), ("S", 4)])
        seeds = [3, 11, 5]
        stack = random_density_matrix(part, 5, seeds)
        alone = [random_density_matrix(part, 5, s) for s in seeds]
        assert same_bits(stack.data, [r.data for r in alone])
        assert same_bits(stack.spectrum, [r.spectrum for r in alone])
        assert same_bits(haar_random_unitary(6, seeds), [haar_random_unitary(6, s) for s in seeds])
        ch = random_channel(3, 2, seeds, dim_out=4)
        for k, ops in enumerate(zip(*(random_channel(3, 2, s, dim_out=4).kraus_operators for s in seeds))):
            assert same_bits(ch.kraus_operators[k], ops)
        assert (ch.in_dim, ch.out_dim) == (3, 4)

    def test_operations_act_slice_by_slice(self, identity_stacks):
        rho, _ = identity_stacks
        alone = slices(rho)
        assert same_bits(rho.spectrum, [r.spectrum for r in alone])
        assert same_bits(rho.entropy, [r.entropy for r in alone])
        labels = rho.labels
        for n in range(1, len(labels)):
            for keep in itertools.combinations(labels, n):
                marg = partial_trace(rho, keep)
                singles = [partial_trace(r, keep) for r in alone]
                assert same_bits(marg.data, [m.data for m in singles])
                assert same_bits(marg.entropy, [m.entropy for m in singles])
        flag = basis_state(SystemPartition([("G", 2)]), [0])
        assert same_bits(tensor(rho, flag).data, [tensor(r, flag).data for r in alone])
        target, d = rho.partition.factors[0]
        ch = random_channel(d, 2, [7, 8, 9])
        each = [QuantumChannel([k[i] for k in ch.kraus_operators]) for i in range(3)]
        assert same_bits(apply_channel(rho, ch, target).data,
                         [apply_channel(r, c, target).data for r, c in zip(alone, each)])
        u = haar_random_unitary(d, [4, 5, 6])
        assert same_bits(embed(u, rho.partition, [target]), [embed(x, rho.partition, [target]) for x in u])

    @staticmethod
    def grouped(x, mask):
        """``masked_sums`` through its grouped loop: one extra row of another pattern forces it."""
        return masked_sums(np.vstack([x, x[:1]]), np.vstack([mask, ~mask[:1]]))[:-1]

    def test_one_pattern_sums_match_the_grouped_path(self, identity_stacks):
        # the entropy sums of full-rank stacks (-dead: shared dead rows), and of their first slice alone
        rho, _ = identity_stacks
        lam = rho.spectrum
        mask = lam > 0.0
        x = lam * np.log(np.where(mask, lam, 1.0))
        assert (mask == mask[0]).all()  # one pattern: the path under test
        for rows in (slice(None), slice(0, 1)):
            sums = masked_sums(x[rows], mask[rows])
            assert same_bits(sums, self.grouped(x[rows], mask[rows]))
            assert same_bits(sums, [masked_sums(xi, mi) for xi, mi in zip(x[rows], mask[rows])])

    def test_mixed_patterns_sum_each_row_alone(self):
        part = SystemPartition([("A", 2), ("S", 4)])
        x = random_density_matrix(part, 8, list(range(6))).spectrum
        mask = np.random.default_rng(3).random(x.shape) < 0.6
        mask[2] = False  # a dead row sums to 0
        mask[4] = mask[1]  # rows 1 and 4 form one group
        sums = masked_sums(x, mask)
        assert same_bits(sums, [masked_sums(xi, mi) for xi, mi in zip(x, mask)])
        assert sums[2] == 0.0

    def test_a_stack_of_channels_is_validated_slice_by_slice(self):
        ops = random_channel(2, 2, [1, 2]).kraus_operators
        broken = [k.copy() for k in ops]
        broken[0][1] *= 1.1
        with pytest.raises(ChannelError, match="completeness"):
            QuantumChannel(broken)


class TestHaarRandomUnitary:
    def test_dim_one_is_phase(self):
        u = haar_random_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self):
        for dim in (2, 3, 8):
            u = haar_random_unitary(dim, seed=dim)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12

    def test_determinism_and_seed_sensitivity(self):
        a = haar_random_unitary(4, seed=7)
        b = haar_random_unitary(4, seed=7)
        c = haar_random_unitary(4, seed=8)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a - c)) > 1e-3

    def test_entropy_invariance_under_conjugation(self):
        # oracle: entropy from the eigenvalue spectrum directly
        from nonmarkov.info import von_neumann_entropy

        part = SystemPartition([("S", 4)])
        rho = random_density_matrix(part, 4, seed=11)
        u = haar_random_unitary(4, seed=12)
        rot = DensityMatrix(u @ rho.data @ u.conj().T, part)
        assert abs(von_neumann_entropy(rot) - von_neumann_entropy(rho)) <= 1e-10


class TestRandomDensityMatrix:
    def test_rank_one_is_pure(self):
        rho = random_density_matrix(SystemPartition([("S", 4)]), 1, seed=0)
        purity = np.real(np.trace(rho.data @ rho.data))
        assert abs(purity - 1.0) <= 1e-10

    def test_full_rank_strictly_positive(self):
        rho = random_density_matrix(SystemPartition([("S", 4)]), 4, seed=1)
        assert np.linalg.eigvalsh(rho.data).min() > 0.0

    def test_bitwise_determinism(self):
        p = SystemPartition([("S", 4)])
        a = random_density_matrix(p, 2, seed=3)
        b = random_density_matrix(p, 2, seed=3)
        assert np.array_equal(a.data, b.data)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_density_matrix(SystemPartition([("S", 2)]), 3, seed=0)
