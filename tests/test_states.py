import gc
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
    depolarizing_channel,
    haar_random_unitary,
    identity_channel,
    maximally_mixed,
    partial_trace,
    pure_state,
    random_channel,
    random_density_matrix,
    tensor,
    unitary_channel,
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

    def test_unknown_label_messages(self):
        p = SystemPartition([("A", 2), ("S", 4)])
        with pytest.raises(PartitionError, match=r"^unknown label 'Q'; have \('A', 'S'\)$"):
            p.dim_of("Q")
        with pytest.raises(PartitionError, match=r"^unknown labels \['Q', 'R'\]; have \('A', 'S'\)$"):
            p.positions({"A", "R", "Q"})


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(StateValidityError):
            DensityMatrix(m, QUBIT)

    def test_bad_trace_rejected(self):
        with pytest.raises(StateValidityError):
            DensityMatrix(np.eye(2), QUBIT)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(StateValidityError):
            DensityMatrix(m, QUBIT)

    @pytest.mark.parametrize("m", [
        np.diag([np.nan, np.nan]),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.diag([np.inf, 0.5]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
    ], ids=["diag_nan", "offdiag_nan", "diag_inf", "offdiag_inf"])
    def test_non_finite_rejected(self, m):
        with pytest.raises(StateValidityError, match="non-finite"):
            DensityMatrix(m, QUBIT)

    def test_clamp_rejects_nan(self):
        with pytest.raises(StateValidityError):
            clamp_spectrum(np.array([np.nan, 0.5]))

    def test_data_read_only(self):
        rho = maximally_mixed(QUBIT)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 2.0


class TestValidatedSpectrum:
    def test_spectrum_is_read_only_raw_eigvalsh(self):
        for seed, rank in ((1, 4), (2, 2), (3, 1)):
            rho = random_density_matrix(SystemPartition([("A", 2), ("S", 2)]), rank, seed=seed)
            assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.data))
            assert not rho.spectrum.flags.writeable
            with pytest.raises(ValueError):
                rho.spectrum[0] = 0.5

    def test_eigenvalues_reuse_the_spectrum(self, monkeypatch):
        rho = random_density_matrix(SystemPartition([("S", 3)]), 2, seed=5)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or real(m))
        eigs = rho.eigenvalues()
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
        out = apply_channel(rho, identity_channel(2), "E")
        assert_allclose(out.data, rho.data, atol=1e-14)

    def test_depolarizing_destroys_correlations(self):
        out = apply_channel(bell_state(), depolarizing_channel(2), "A")
        expected = tensor(maximally_mixed(SystemPartition([("S", 2)])),
                          maximally_mixed(SystemPartition([("A", 2)])))
        assert_allclose(out.data, expected.data, atol=1e-12)

    def test_unitary_preserves_spectrum(self):
        rho = random_density_matrix(SystemPartition([("S", 3)]), 3, seed=5)
        u = haar_random_unitary(3, seed=6)
        out = apply_channel(rho, unitary_channel(u), "S")
        assert_allclose(out.eigenvalues(), rho.eigenvalues(), atol=1e-12)

    def test_dimension_mismatch(self):
        rho = maximally_mixed(SystemPartition([("S", 3)]))
        with pytest.raises(ChannelError):
            apply_channel(rho, identity_channel(2), "S")

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
