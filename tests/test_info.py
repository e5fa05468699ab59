import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonmarkov import info
from nonmarkov.states import (
    DensityMatrix,
    PartitionError,
    SystemPartition,
    apply_channel,
    basis_state,
    haar_random_unitary,
    maximally_mixed,
    partial_trace,
    pure_state,
    random_channel,
    random_density_matrix,
    spectrum_entropy,
    tensor,
)

LN2 = math.log(2.0)
QUBIT = SystemPartition([("S", 2)])


def qubit_state(vec):
    v = np.asarray(vec, dtype=complex)
    return pure_state(v / np.linalg.norm(v), QUBIT)


def rand_qubits(labels, seed, rank=None):
    part = SystemPartition([(l, 2) for l in labels])
    return random_density_matrix(part, rank or part.total_dim, seed)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert info.von_neumann_entropy(qubit_state([1, 0])) <= 1e-12

    def test_maximally_mixed(self):
        assert_allclose(info.von_neumann_entropy(maximally_mixed(QUBIT)), LN2, atol=1e-12)

    def test_quarter_three_quarter(self):
        # direct scalar oracle: -(1/4 ln 1/4 + 3/4 ln 3/4)
        rho = DensityMatrix(np.diag([0.25, 0.75]), QUBIT)
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert_allclose(info.von_neumann_entropy(rho), expected, atol=1e-14)
        assert_allclose(expected, 0.5623351446188083, atol=1e-15)


class TestSpectrumReuse:
    """Entropies of an existing state read its validated spectrum; no eigensolve."""

    @staticmethod
    def _count_eigvalsh(monkeypatch) -> list:
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
        return calls

    def test_von_neumann_entropy(self, monkeypatch):
        rho = random_density_matrix(SystemPartition([("A", 2), ("S", 3)]), 4, seed=6)
        fresh = spectrum_entropy(np.linalg.eigvalsh(rho.data))
        calls = self._count_eigvalsh(monkeypatch)
        assert info.von_neumann_entropy(rho) == fresh
        assert calls == []

    def test_relative_entropy_rho_side(self, monkeypatch):
        rho = random_density_matrix(QUBIT, 2, seed=7)
        sigma = random_density_matrix(QUBIT, 2, seed=8)
        expected = info.relative_entropy(rho, sigma)
        calls = self._count_eigvalsh(monkeypatch)
        assert info.relative_entropy(rho, sigma) == expected
        assert calls == []


class TestTraceDistance:
    def test_identical(self):
        rho = rand_qubits("S", 0)
        assert info.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert_allclose(
            info.trace_distance(qubit_state([1, 0]), qubit_state([0, 1])), 1.0, atol=1e-12
        )

    def test_zero_vs_plus(self):
        # eigenvalues of the 2x2 difference are +-1/sqrt(2)
        d = info.trace_distance(qubit_state([1, 0]), qubit_state([1, 1]))
        assert_allclose(d, 1 / math.sqrt(2), atol=1e-12)

    def test_partition_mismatch(self):
        with pytest.raises(PartitionError):
            info.trace_distance(qubit_state([1, 0]), maximally_mixed(SystemPartition([("A", 2)])))


class TestFidelity:
    def test_identical(self):
        rho = rand_qubits("S", 1)
        assert_allclose(info.fidelity(rho, rho), 1.0, atol=1e-10)

    def test_orthogonal_pure(self):
        assert info.fidelity(qubit_state([1, 0]), qubit_state([0, 1])) <= 1e-12

    def test_pure_vs_mixed_half(self):
        assert_allclose(info.fidelity(qubit_state([1, 0]), maximally_mixed(QUBIT)), 0.5, atol=1e-12)


class TestRelativeEntropy:
    def test_self_zero(self):
        rho = rand_qubits("S", 2)
        assert info.relative_entropy(rho, rho) <= 1e-10

    def test_disjoint_support_infinite(self):
        assert info.relative_entropy(qubit_state([1, 0]), qubit_state([0, 1])) == math.inf

    def test_matches_mutual_information(self):
        for seed in range(25):
            rho = rand_qubits("SA", seed)
            prod = tensor(partial_trace(rho, {"S"}), partial_trace(rho, {"A"}))
            lhs = info.relative_entropy(rho, prod)
            rhs = info.mutual_information(rho, {"S"}, {"A"})
            assert abs(lhs - rhs) <= 1e-9


class TestTelescopicRelativeEntropy:
    def test_self_zero(self):
        rho = rand_qubits("S", 3)
        for a in (0.1, 0.5, 0.9):
            assert info.telescopic_relative_entropy(rho, rho, a) <= 1e-12

    def test_orthogonal_pure_is_one(self):
        val = info.telescopic_relative_entropy(qubit_state([1, 0]), qubit_state([0, 1]), 0.5)
        assert_allclose(val, 1.0, atol=1e-12)

    def test_against_explicit_eigendecomposition(self):
        # S(|0><0| || diag(3/4, 1/4)) = -ln(3/4), normalized by ln 2
        rho = qubit_state([1, 0])
        sigma = maximally_mixed(QUBIT)
        val = info.telescopic_relative_entropy(rho, sigma, 0.5)
        mix = 0.5 * rho.data + 0.5 * sigma.data
        eigs, vecs = np.linalg.eigh(mix)
        w = vecs.conj().T @ rho.data @ vecs
        explicit = -np.real(np.diag(w) @ np.log(eigs)) / (-math.log(0.5))
        assert abs(val - explicit) <= 1e-10

    def test_a_out_of_range(self):
        rho = rand_qubits("S", 4)
        for a in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                info.telescopic_relative_entropy(rho, rho, a)

    def test_bounded_in_unit_interval(self):
        for seed in range(20):
            rho, sig = rand_qubits("S", seed), rand_qubits("S", seed + 60)
            a = 0.1 + 0.8 * (seed / 20)
            val = info.telescopic_relative_entropy(rho, sig, max(a, 0.05))
            assert 0.0 <= val <= 1.0


class TestJensenShannonTelescopic:
    def test_self_zero(self):
        rho = rand_qubits("S", 5)
        assert info.jensen_shannon_telescopic(rho, rho) <= 1e-12

    def test_orthogonal_pure_is_one(self):
        assert_allclose(
            info.jensen_shannon_telescopic(qubit_state([1, 0]), qubit_state([0, 1])),
            1.0,
            atol=1e-12,
        )

    def test_symmetry_exact(self):
        for seed in range(10):
            rho, sig = rand_qubits("S", seed), rand_qubits("S", seed + 30)
            assert info.jensen_shannon_telescopic(rho, sig) == info.jensen_shannon_telescopic(sig, rho)


class TestMutualInformation:
    def test_product_zero(self):
        rho = tensor(rand_qubits("S", 6), rand_qubits("A", 7))
        assert info.mutual_information(rho, {"S"}, {"A"}) <= 1e-10

    def test_bell_two_ln2(self):
        part = SystemPartition([("S", 2), ("A", 2)])
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), part)
        assert_allclose(info.mutual_information(bell, {"S"}, {"A"}), 2 * LN2, atol=1e-12)

    def test_classical_correlated_ln2(self):
        part = SystemPartition([("S", 2), ("A", 2)])
        rho = DensityMatrix(np.diag([0.5, 0, 0, 0.5]), part)
        assert_allclose(info.mutual_information(rho, {"S"}, {"A"}), LN2, atol=1e-12)

    def test_label_set_errors(self):
        rho = rand_qubits("SA", 8)
        with pytest.raises(PartitionError):
            info.mutual_information(rho, {"S"}, {"S"})
        with pytest.raises(PartitionError):
            info.mutual_information(rho, {"S"}, set())


class TestConditionalMutualInformation:
    def test_fully_product_zero(self):
        rho = tensor(tensor(rand_qubits("A", 0), rand_qubits("S", 1)), rand_qubits("E", 2))
        assert info.conditional_mutual_information(rho, {"A"}, {"E"}, {"S"}) <= 1e-10

    def test_ghz_ln2(self):
        part = SystemPartition([("A", 2), ("S", 2), ("E", 2)])
        v = np.zeros(8)
        v[0] = v[7] = 1 / math.sqrt(2)
        ghz = pure_state(v, part)
        assert_allclose(
            info.conditional_mutual_information(ghz, {"A"}, {"E"}, {"S"}), LN2, atol=1e-12
        )

    def test_entangled_as_with_product_env(self):
        part = SystemPartition([("A", 2), ("S", 2)])
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), part)
        rho = tensor(bell, rand_qubits("E", 3))
        assert info.conditional_mutual_information(rho, {"A"}, {"E"}, {"S"}) <= 1e-10

    def test_strong_subadditivity_on_random_states(self):
        for seed in range(200):
            rho = rand_qubits("ASE", seed)
            val = info.conditional_mutual_information(rho, {"A"}, {"E"}, {"S"})
            assert val >= 0.0  # already clamped at -1e-9 internally

    def test_local_unitary_invariance(self):
        for seed in range(10):
            rho = rand_qubits("ASE", seed)
            us = haar_random_unitary(2, seed + 1)
            ue = haar_random_unitary(2, seed + 2)
            u = np.kron(np.eye(2), np.kron(us, ue))
            rot = DensityMatrix(u @ rho.data @ u.conj().T, rho.partition)
            before = info.conditional_mutual_information(rho, {"A"}, {"E"}, {"S"})
            after = info.conditional_mutual_information(rot, {"A"}, {"E"}, {"S"})
            assert abs(before - after) <= 1e-9

    def test_tensor_extension_invariance(self):
        for seed in range(10):
            rho = rand_qubits("ASE", seed)
            ext = tensor(rho, random_density_matrix(SystemPartition([("F", 2)]), 2, seed + 9))
            before = info.conditional_mutual_information(rho, {"A"}, {"E"}, {"S"})
            after = info.conditional_mutual_information(ext, {"A"}, {"E", "F"}, {"S"})
            assert abs(before - after) <= 1e-9

    def test_chain_rule(self):
        for seed in range(10):
            rho = rand_qubits("ASEF", seed)  # F plays the second environment
            lhs = info.conditional_mutual_information(rho, {"E", "F"}, {"A"}, {"S"})
            t1 = info.conditional_mutual_information(
                partial_trace(rho, {"A", "S", "E"}), {"E"}, {"A"}, {"S"}
            )
            t2 = info.conditional_mutual_information(rho, {"F"}, {"A"}, {"S", "E"})
            assert abs(lhs - (t1 + t2)) <= 1e-9


class TestInteractionInformation:
    def test_fully_product_zero(self):
        rho = tensor(
            tensor(rand_qubits("E", 0), rand_qubits("F", 1)),
            tensor(rand_qubits("A", 2), rand_qubits("S", 3)),
        )
        val = info.interaction_information(rho, {"E"}, {"F"}, {"A"}, {"S"})
        assert abs(val) <= 1e-10

    def test_ghz_with_trivial_system(self):
        part = SystemPartition([("A", 2), ("E1", 2), ("E2", 2), ("S", 1)])
        v = np.zeros(8)
        v[0] = v[7] = 1 / math.sqrt(2)
        ghz = pure_state(v, part)
        val = info.interaction_information(ghz, {"E1"}, {"E2"}, {"A"}, {"S"})
        assert abs(val) <= 1e-10

    def test_chain_rule_rearrangement(self):
        for seed in range(15):
            rho = rand_qubits("ASEF", seed + 40)
            ii = info.interaction_information(rho, {"E"}, {"F"}, {"A"}, {"S"})
            def cmi_env(env):
                red = partial_trace(rho, {"A", "S"} | env)
                return info.conditional_mutual_information(red, {"A"}, env, {"S"})
            lhs = cmi_env({"E"}) + cmi_env({"F"}) - cmi_env({"E", "F"})
            assert abs(ii - lhs) <= 1e-9


class TestDataProcessing:
    def test_relative_entropy_monotone(self):
        for seed in range(15):
            rho, sig = rand_qubits("S", seed), rand_qubits("S", seed + 70)
            ch = random_channel(2, 2, seed + 140)
            before = info.relative_entropy(rho, sig)
            after = info.relative_entropy(apply_channel(rho, ch, "S"), apply_channel(sig, ch, "S"))
            assert after <= before + 1e-9

    def test_telescopic_monotone(self):
        for seed in range(15):
            rho, sig = rand_qubits("S", seed), rand_qubits("S", seed + 70)
            ch = random_channel(2, 2, seed + 140)
            before = info.telescopic_relative_entropy(rho, sig, 0.5)
            after = info.telescopic_relative_entropy(
                apply_channel(rho, ch, "S"), apply_channel(sig, ch, "S"), 0.5
            )
            assert after <= before + 1e-9


class TestPetzRecovery:
    def test_product_state_exact(self):
        rho = tensor(tensor(rand_qubits("A", 0), rand_qubits("B", 1)), rand_qubits("C", 2))
        rec = info.petz_recovery(rho, {"A"}, {"B"}, {"C"})
        assert info.trace_distance(rec, rho) <= 1e-10

    def test_classical_markov_chain_exact(self):
        part = SystemPartition([("A", 2), ("B", 2), ("C", 2)])
        rho = DensityMatrix(np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]), part)
        assert info.conditional_mutual_information(rho, {"A"}, {"C"}, {"B"}) <= 1e-10
        rec = info.petz_recovery(rho, {"A"}, {"B"}, {"C"})
        assert info.trace_distance(rec, rho) <= 1e-10

    def test_racmi_bound_on_random_states(self):
        for seed in range(50):
            rho = rand_qubits("ABC", seed)
            rec = info.petz_recovery(rho, {"A"}, {"B"}, {"C"})
            cmi = info.conditional_mutual_information(rho, {"A"}, {"C"}, {"B"})
            dist = info.trace_distance(rho, rec)
            assert cmi <= 7.0 * math.log2(2) * math.sqrt(dist) + 1e-12

    def test_output_is_valid_state(self):
        rho = rand_qubits("ABC", 77)
        rec = info.petz_recovery(rho, {"A"}, {"B"}, {"C"})
        assert abs(rec.data.trace() - 1.0) <= 1e-12
        assert rec.eigenvalues().min() >= 0.0

    def test_nonadjacent_conditioning_factors(self):
        # B spans the two outer factors; the lifting must respect factor order
        part = SystemPartition([("B1", 2), ("A", 2), ("B2", 2)])
        rho_bab = random_density_matrix(part, 8, seed=5)
        rho = tensor(rho_bab, random_density_matrix(SystemPartition([("C", 2)]), 2, seed=6))
        assert info.conditional_mutual_information(rho, {"A"}, {"C"}, {"B1", "B2"}) <= 1e-10
        rec = info.petz_recovery(rho, {"A"}, {"B1", "B2"}, {"C"})
        assert info.trace_distance(rec, rho) <= 1e-10


class TestInitialMarkovianity:
    def test_cmi_nonnegative_after_short_evolution(self):
        # I(A:E|S)(0) = 0 on product states; after a small joint SE unitary the
        # value must stay nonnegative
        from scipy.linalg import expm

        for seed in range(10):
            rng = np.random.default_rng(seed)
            rho = tensor(rand_qubits("AS", seed, rank=2), rand_qubits("E", seed + 5))
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = 0.5 * (h + h.conj().T)
            u = np.kron(np.eye(2), expm(-1j * 0.03 * h))
            rot = DensityMatrix(u @ rho.data @ u.conj().T, rho.partition)
            assert info.conditional_mutual_information(rot, {"A"}, {"E"}, {"S"}) >= 0.0


class TestStacks:
    """Each info function on a stack gives every slice the bits it gets alone."""

    @staticmethod
    def same_bits(stacked, per_slice) -> bool:
        ref = np.array(per_slice)
        stacked = np.asarray(stacked)
        return stacked.shape == ref.shape and stacked.tobytes() == ref.tobytes()

    def test_every_function_acts_slice_by_slice(self, identity_stacks):
        rho, sigma = identity_stacks
        pairs = [(DensityMatrix(r, rho.partition), DensityMatrix(s, rho.partition))
                 for r, s in zip(rho.data, sigma.data)]
        a = np.array([0.2, 0.5, 0.7])
        lbl = [[x] for x in rho.labels]
        cases = {
            "entropy": (lambda r, s, a: info.von_neumann_entropy(r)),
            "relative_entropy": (lambda r, s, a: info.relative_entropy(r, s)),
            "telescopic": (lambda r, s, a: info.telescopic_relative_entropy(r, s, a)),
            "jensen_shannon": (lambda r, s, a: info.jensen_shannon_telescopic(r, s)),
            "trace_distance": (lambda r, s, a: info.trace_distance(r, s)),
            "fidelity": (lambda r, s, a: info.fidelity(r, s)),
        }
        if len(lbl) >= 2:
            cases["mutual_information"] = lambda r, s, a: info.mutual_information(r, lbl[0], sum(lbl[1:], []))
        if len(lbl) >= 3:
            cases["cmi"] = lambda r, s, a: info.conditional_mutual_information(r, lbl[0], lbl[1], sum(lbl[2:], []))
            cases["petz_recovery"] = lambda r, s, a: info.petz_recovery(r, lbl[0], lbl[1], sum(lbl[2:], [])).data
        if len(lbl) >= 4:
            cases["interaction"] = lambda r, s, a: info.interaction_information(
                r, lbl[0], lbl[1], lbl[2], sum(lbl[3:], []))
        for name, fn in cases.items():
            stacked = fn(rho, sigma, a)
            alone = [fn(r, s, float(x)) for (r, s), x in zip(pairs, a)]
            assert all(type(v) is (np.ndarray if name == "petz_recovery" else float) for v in alone), name
            assert self.same_bits(stacked, alone), name
