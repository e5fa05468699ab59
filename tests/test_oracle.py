import json
import math
import tracemalloc

import numpy as np
import pytest

from nonmarkov import dephasing, measures, oracle


def identity_table(seed: int, samples: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The (samples, columns) table of samples ``lo <= i < hi``, one ``identity_column`` call per column."""
    columns = oracle.identity_draws(seed, samples)
    return np.hstack([oracle.identity_column(j, draws[lo:hi]) for j, draws in enumerate(columns)])


class TestIdentitySuite:
    def test_small_run_passes(self):
        report = oracle.identity_suite(seed=1, samples=40)
        assert report.all_passed, report.summary()

    def test_asserted_checks_present(self):
        report = oracle.identity_suite(seed=2, samples=5)
        names = {c.name for c in report.checks}
        for prefix in "abcdefgh":
            assert any(n.startswith(prefix + "_") for n in names)
        assert "negative_control_detected" in names
        assert "petz_racmi_bound" in names

    def test_recorded_entries_never_fail(self):
        report = oracle.identity_suite(seed=3, samples=5)
        for c in report.checks:
            if c.name.endswith("_recorded"):
                assert c.tolerance == np.inf and c.passed

    def test_deterministic_per_seed(self):
        a = oracle.identity_suite(seed=9, samples=8)
        b = oracle.identity_suite(seed=9, samples=8)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_violations(self):
        a = oracle.identity_suite(seed=1, samples=8)
        b = oracle.identity_suite(seed=2, samples=8)
        va = [c.max_violation for c in a.checks]
        vb = [c.max_violation for c in b.checks]
        assert va != vb

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            oracle.identity_suite(seed=0, samples=0)

    @pytest.mark.parametrize("seed", [671587649, 1664773921])
    def test_negative_control_is_bounded_away_from_zero(self, seed):
        # a correlated random sample once gave |delta I(A:SE)| ~ 5e-7 at these seeds
        report = oracle.identity_suite(seed=seed, samples=100)
        assert report.all_passed, report.summary()

    def test_state_construction_count(self, monkeypatch):
        # each marginal is traced and validated once per root state, as a slice of its
        # partition's stack; a change that re-traces or re-validates states moves this count
        slices = []
        real = oracle.DensityMatrix.__post_init__

        def count(self):
            real(self)
            slices.append(1 if self.data.ndim == 2 else len(self.data))

        monkeypatch.setattr(oracle.DensityMatrix, "__post_init__", count)
        oracle.identity_suite(seed=11, samples=10)
        # 87 states per sample, except check (e)'s fresh |00> register: one state
        # per partition (3 of them at this seed) instead of one per sample
        assert sum(slices) == 870 - 10 + 3

    @pytest.mark.parametrize("column,name", [
        (2, "c_chain_rule"), (8, "negative_control_detected"), (9, "petz_racmi_bound"),
    ])
    def test_a_nan_in_one_row_fails_its_check(self, column, name):
        # table columns: checks (a)-(h), the negative control, the Petz margins
        table = identity_table(4, 3)
        table[1, column] = math.nan
        report = oracle.identity_report(4, table)
        assert not report.all_passed
        assert [c.name for c in report.checks if not c.passed] == [name]

    def test_a_nan_row_serializes_as_null(self):
        # a NaN max_violation is written as JSON null, never as the bare token NaN
        table = identity_table(4, 3)
        table[1, 2] = math.nan
        text = json.dumps(oracle.identity_report(4, table).to_dict())
        assert "NaN" not in text
        by_name = {c["name"]: c for c in json.loads(text)["checks"]}
        assert by_name["c_chain_rule"]["max_violation"] is None
        assert by_name["c_chain_rule"]["passed"] is False
        assert by_name["petz_dsq_half_norm_recorded"]["tolerance"] == math.inf

    def test_negative_control_fails_without_rotation(self, monkeypatch):
        monkeypatch.setattr(oracle, "_u_on", lambda part, labels, seed: np.eye(part.total_dim))
        by_name = {c.name: c for c in oracle.identity_suite(seed=5, samples=3).checks}
        assert by_name["a_conservation_I_A_SE"].passed
        assert not by_name["negative_control_detected"].passed


class TestSpecialFunctionSuite:
    def test_passes(self):
        report = oracle.special_function_suite(seed=0)
        assert report.all_passed, report.summary()

    def test_check_names_and_tolerances(self):
        report = oracle.special_function_suite(seed=0)
        by_name = {c.name: c for c in report.checks}
        assert by_name["displaced_fock_overlap"].tolerance == 1e-8
        assert by_name["classical_char_factor_vs_sum"].tolerance == 1e-6
        assert by_name["entangled_char_factor_vs_tmsv"].tolerance == 1e-6

    def test_deterministic(self):
        assert (
            oracle.special_function_suite(seed=4).to_dict()
            == oracle.special_function_suite(seed=4).to_dict()
        )


def _small_model(kind: str, r: float = 0.5, n_max: int = 6):
    params = dephasing.DephasingParams(
        omega_c=0.25, r=r, env_kind=kind, t1s=0.0, t1f=2.5, t2s=2.5, t2f=5.0
    )
    return dephasing.build_discrete_model(params, n_modes=1, n_max=n_max)


class TestDenseDephasingCheck:
    def test_entangled_agreement(self):
        model = _small_model("entangled")
        report = oracle.dense_dephasing_check(model, measures.ops_state(), [0.0, 1.3, 2.5, 3.8, 5.0])
        assert report.all_passed, report.summary()

    def test_classical_agreement_and_modulus_symmetry(self):
        model = _small_model("classical", n_max=8)
        report = oracle.dense_dephasing_check(model, measures.ops_state(), [0.0, 1.3, 2.5, 3.8, 5.0])
        assert report.all_passed, report.summary()
        names = [c.name for c in report.checks]
        assert "classical_k12_lam12_modulus" in names

    def test_vacuum_environment_keeps_e2_empty(self):
        model = _small_model("entangled", r=0.0, n_max=3)
        series = dephasing.cmi_trajectory(model, measures.ops_state(), [0.0, 1.0, 2.5], "E2")
        assert np.max(series.values) <= 1e-9

    def test_budget_guard(self):
        model = _small_model("entangled")
        with pytest.raises(dephasing.BudgetError):
            oracle.dense_dephasing_check(model, measures.ops_state(), [0.0], budget=16)

    @pytest.mark.parametrize("kind", ["entangled", "classical"])
    def test_peak_memory_is_a_few_dense_states(self, kind):
        # the check model's full-size states are 392 x 392: the cross-check holds one
        # state at a time, on the 196 rows of [A', S', E] that its live rows use,
        # owned rather than copied and validated on its support, and only the
        # live blocks of rho0
        model = dephasing.build_discrete_model(
            dephasing.DephasingParams(omega_c=0.25, r=0.5, env_kind=kind), n_modes=1, n_max=6
        )
        times = [0.0, 1.5, 3.0, 5.0]
        oracle.dense_dephasing_check(model, measures.ops_state(), times)  # caches warmed
        tracemalloc.start()
        try:
            oracle.dense_dephasing_check(model, measures.ops_state(), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 392**2 * 16


class TestExpm:
    """The oracle's Taylor ``expm`` against SciPy's Pade one."""

    def test_displacement_generators(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(5)
        n_dim = 61
        b = np.diag(np.sqrt(np.arange(1.0, n_dim)), k=1)
        gammas = [0.0, 2.0, -2.0, 2j, *np.linspace(-2, 2, 9),
                  *(rng.uniform(-1.4, 1.4, 12) + 1j * rng.uniform(-1.4, 1.4, 12))]
        for g in gammas:
            gen = g * b.conj().T - np.conj(g) * b
            assert np.abs(oracle.expm(gen) - expm(gen)).max() <= 1e-13, g

    def test_small_hermitian_steps(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(6)
        for d in range(8, 33, 4):
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.5 * (h + h.conj().T)
            for a in (0.05 * h, -0.05j * h):
                assert np.abs(oracle.expm(a) - expm(a)).max() <= 1e-13, d

    def test_zero_is_identity(self):
        assert np.array_equal(oracle.expm(np.zeros((4, 4))), np.eye(4))


class TestIdentityBlocks:
    def test_blocks_fold_to_the_suite(self):
        # a sample's values do not depend on the samples it is evaluated with
        table = np.vstack([identity_table(3, 13, lo, hi) for lo, hi in ((0, 5), (5, 10), (10, 13))])
        assert oracle.identity_report(3, table).to_dict() == oracle.identity_suite(3, 13).to_dict()

    def test_one_task_per_column(self):
        tasks = []

        def submit(fn, *args):
            tasks.append(args[0])
            return oracle.run_now(fn, *args)

        report = oracle.identity_suite(3, 4, submit)
        assert tasks == list(range(len(oracle.COLUMN_CHECKS)))
        assert report.to_dict() == oracle.identity_suite(3, 4).to_dict()
