import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonmarkov import dephasing, info, measures
from nonmarkov.dephasing import (
    ENV_KINDS,
    DephasingParams,
    QuadratureConfig,
    TruncationError,
    beta,
    build_discrete_model,
    classical_char_factor,
    cmi_trajectory,
    coherence_factor_matrix,
    discrete_phase_factors,
    displaced_fock_overlap,
    entangled_char_factor,
    phase_factor_grid,
    phase_factors,
    spectral_gauss_rule,
    system_state,
    system_trajectory,
)
from nonmarkov.states import SystemPartition, pure_state, random_pure_state, spectrum_entropy

PAPER = dict(omega_c=1e-2, r=3.0, alpha1=1.0, alpha2=1.0, t1s=0.0, t1f=2.5, t2s=2.5, t2f=5.0)
DESK = dict(omega_c=0.25, r=0.8, alpha1=1.0, alpha2=1.0, t1s=0.0, t1f=2.5, t2s=2.5, t2f=5.0)


class TestBeta:
    def test_zero_before_window(self):
        assert beta(0.7, 0.5, (1.0, 2.0)) == 0.0

    def test_full_mode_revival(self):
        # omega * tau = 2 pi brings the mode back to where it started
        omega = 1.3
        val = beta(omega, 2 * math.pi / omega, (0.0, 100.0))
        assert abs(val) <= 1e-12

    def test_modulus_squared_formula(self):
        omega, t = 0.9, 1.7
        val = beta(omega, t, (0.0, 5.0))
        assert_allclose(abs(val) ** 2, (2 / omega**2) * (1 - math.cos(omega * t)), atol=1e-14)

    def test_frozen_after_window(self):
        w = (0.0, 2.0)
        assert beta(1.1, 2.0, w) == beta(1.1, 7.5, w)

    def test_omega_positive_required(self):
        with pytest.raises(ValueError):
            beta(0.0, 1.0, (0.0, 1.0))


class TestClassicalCharFactor:
    def test_zero_displacements(self):
        assert classical_char_factor(0.0, 0.0, 1.3) == 0.0

    def test_single_bath_thermal_suppression(self):
        r, g1 = 1.1, 0.4
        assert_allclose(
            classical_char_factor(g1, 0.0, r), -0.5 * math.cosh(2 * r) * g1 * g1, atol=1e-14
        )

    def test_vacuum_case(self):
        g1, g2 = 0.3, 0.7
        assert_allclose(
            classical_char_factor(g1, g2, 0.0), -0.5 * (g1 * g1 + g2 * g2), atol=1e-14
        )

    def test_large_argument_stability(self):
        # sinh(2r) ~ 201 at r = 3; the log-space route must not overflow
        val = classical_char_factor(2.0, 2.0, 3.0)
        assert np.isfinite(val)


class TestEntangledCharFactor:
    def test_single_bath_matches_classical(self):
        r, g = 0.9, 0.35 + 0.2j
        assert_allclose(
            entangled_char_factor(g, 0.0, r), classical_char_factor(abs(g), 0.0, r), atol=1e-14
        )

    def test_vacuum_case(self):
        g1, g2 = 0.3 + 0.1j, -0.2 + 0.5j
        assert_allclose(
            entangled_char_factor(g1, g2, 0.0),
            -0.5 * (abs(g1) ** 2 + abs(g2) ** 2),
            atol=1e-14,
        )

    def test_truncated_fock_oracle(self):
        from scipy.linalg import expm

        r, n_dim = 0.8, 41
        u = math.tanh(r)
        b = np.diag(np.sqrt(np.arange(1.0, n_dim)), k=1)
        v = u ** np.arange(n_dim)
        v = v / np.linalg.norm(v)
        vec = np.zeros(n_dim * n_dim, dtype=complex)
        vec[np.arange(n_dim) * n_dim + np.arange(n_dim)] = v
        g1, g2 = 0.3, 0.3
        d = lambda g: expm(g * b.conj().T - np.conj(g) * b)
        brute = np.vdot(vec, np.kron(d(g1), d(g2)) @ vec)
        assert abs(brute - math.exp(entangled_char_factor(g1, g2, r))) <= 1e-8


class TestDisplacedFockOverlap:
    def test_ground_state(self):
        for x in (0.0, 0.7, 1.9):
            assert_allclose(displaced_fock_overlap(0, x), math.exp(-x * x / 4), atol=1e-15)

    def test_n1_x1(self):
        assert_allclose(displaced_fock_overlap(1, 1.0), math.exp(-0.25) * 0.5, atol=1e-15)
        assert_allclose(displaced_fock_overlap(1, 1.0), 0.38940039153570244, atol=1e-15)

    def test_no_displacement(self):
        for n in (0, 3, 57, 400):
            assert displaced_fock_overlap(n, 0.0) == 1.0


class TestPhaseFactors:
    def test_all_one_at_start(self):
        pf = phase_factors(DephasingParams(**PAPER, env_kind="entangled"), 0.0)
        for name, mag in pf.magnitudes().items():
            assert_allclose(mag, 1.0, atol=1e-12)

    def test_all_one_before_delayed_window(self):
        p = DephasingParams(
            omega_c=0.1, r=1.0, env_kind="classical", t1s=1.0, t1f=2.0, t2s=2.0, t2f=3.0
        )
        for t in (0.0, 0.5, 1.0):
            for mag in phase_factors(p, t).magnitudes().values():
                assert_allclose(mag, 1.0, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            phase_factors(DephasingParams(**PAPER, env_kind="entangled"), -0.1)

    def test_tilde_factors_equal_plain(self):
        pf = phase_factors(DephasingParams(**PAPER, env_kind="entangled"), 3.3)
        assert pf.k1 == pf.k1t
        assert pf.k2 == pf.k2t

    def test_cases_agree_before_second_window(self):
        ts = np.linspace(0.0, 2.5, 26)
        ge = phase_factor_grid(DephasingParams(**PAPER, env_kind="entangled"), ts)
        gc = phase_factor_grid(DephasingParams(**PAPER, env_kind="classical"), ts)
        for key in ("k1", "k2", "k12", "lam12"):
            assert np.max(np.abs(ge[key] - gc[key])) <= 1e-10

    def test_classical_k12_lam12_equal_modulus(self):
        ts = np.linspace(0.0, 5.0, 26)
        gc = phase_factor_grid(DephasingParams(**PAPER, env_kind="classical"), ts)
        assert np.max(np.abs(np.abs(gc["k12"]) - np.abs(gc["lam12"]))) <= 1e-10

    def test_magnitudes_bounded(self):
        for kind in ("entangled", "classical"):
            g = phase_factor_grid(DephasingParams(**PAPER, env_kind=kind), np.linspace(0, 5, 21))
            for key in g:
                assert np.max(np.abs(g[key])) <= 1.0 + 1e-9

    def test_entangled_lam12_revival_at_paper_parameters(self):
        ts = np.linspace(2.5, 5.0, 26)
        g = phase_factor_grid(DephasingParams(**PAPER, env_kind="entangled"), ts)
        lam = np.abs(g["lam12"])
        assert lam[-1] > lam[0] + 0.1

    def test_classical_factors_non_increasing_at_paper_parameters(self):
        ts = np.linspace(0.0, 5.0, 101)
        g = phase_factor_grid(DephasingParams(**PAPER, env_kind="classical"), ts)
        for key in g:
            assert np.max(np.diff(np.abs(g[key]))) <= 1e-9

    def test_energy_phases_do_not_move_magnitudes(self):
        ts = np.linspace(0.0, 5.0, 11)
        base = phase_factor_grid(DephasingParams(**PAPER, env_kind="entangled"), ts)
        shifted = phase_factor_grid(
            DephasingParams(**{**PAPER, "eps1": 1.0, "eps2": 0.7}, env_kind="entangled"), ts
        )
        for key in base:
            assert np.max(np.abs(np.abs(base[key]) - np.abs(shifted[key]))) <= 1e-12
        # and the phases themselves are nontrivial
        assert np.max(np.abs(base["k1"] - shifted["k1"])) > 0.1

    def test_closed_form_single_bath_decay(self):
        # exp(-2 alpha cosh(2r) ln(1 + wc^2 tau^2)) for the ohmic-exponential bath
        p = DephasingParams(**PAPER, env_kind="entangled")
        for t in (1.0, 2.5):
            expected = math.exp(-2 * math.cosh(6.0) * math.log(1 + (0.01 * t) ** 2))
            assert_allclose(abs(phase_factors(p, t).k1), expected, atol=1e-9)


# composite Gauss-Legendre panels in units of omega_c, for the quadrature oracle
_PANEL_EDGES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0)


def _quadrature_log_patterns(params, times):
    """The four log-magnitude patterns by adaptive composite Gauss-Legendre quadrature.

    Integrates the coupling densities g_j = 2 sqrt(J_j) beta_j over
    (0, cutoff_mult * omega_c] on fixed panels, doubling the nodes per panel
    (at most 8 times) until two successive estimates agree to 1e-15.
    """
    wc, hi = params.omega_c, params.quad.cutoff_mult
    edges = [e for e in _PANEL_EDGES if e < hi] + [hi]

    def estimate(nodes_per_panel):
        x0, w0 = np.polynomial.legendre.leggauss(nodes_per_panel)
        om = np.concatenate([(0.5 * (a + b) + 0.5 * (b - a) * x0) * wc for a, b in zip(edges, edges[1:])])
        wt = np.concatenate([0.5 * (b - a) * w0 * wc for a, b in zip(edges, edges[1:])])
        g = []
        for alpha, (ts, tf) in ((params.alpha1, params.window1), (params.alpha2, params.window2)):
            tau = np.clip(times, ts, tf) - ts
            w = om[:, None]
            beta_grid = np.exp(1j * w * ts) * (1.0 - np.exp(1j * w * tau[None, :])) / w
            g.append(2.0 * np.sqrt(alpha * om * np.exp(-om / wc))[:, None] * beta_grid)
        a1, a2 = np.abs(g[0]) ** 2, np.abs(g[1]) ** 2
        if params.env_kind == "classical":
            u = params.u_eff
            c, cross = (1.0 + u * u) / (1.0 - u * u), 0.0 * a1
        else:
            c, cross = math.cosh(2 * params.r), math.sinh(2 * params.r) * (g[0] * g[1]).real
        dens = {"single1": -0.5 * c * a1, "single2": -0.5 * c * a2,
                "same": -0.5 * c * (a1 + a2) + cross, "opp": -0.5 * c * (a1 + a2) - cross}
        return {k: wt @ v for k, v in dens.items()}

    prev, n = estimate(16), 32
    for _ in range(8):
        cur = estimate(n)
        err = max(np.max(np.abs(cur[k] - prev[k])) for k in cur)
        if err <= 1e-15 * (1.0 + max(np.max(np.abs(v)) for v in cur.values())):
            return cur
        prev, n = cur, 2 * n
    raise AssertionError("oracle quadrature did not converge")


# the log-magnitude pattern and the (sigma1, sigma2) multipliers of each named factor
_FACTOR_PATTERNS = {
    "k1": ("single1", -2, 0), "k2": ("single2", 0, -2), "k1t": ("single1", -2, 0),
    "k2t": ("single2", 0, -2), "k12": ("same", -2, -2), "lam12": ("opp", -2, 2),
}

OFF_DEFAULT = dict(omega_c=0.1, r=1.2, alpha1=0.3, alpha2=2.0, t1s=0.5, t1f=1.7, t2s=2.2, t2f=4.1)


class TestClosedFormPhaseFactors:
    @pytest.mark.parametrize("cutoff_mult", [2.0, 60.0, 400.0])
    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_matches_quadrature_oracle(self, env_kind, cutoff_mult):
        quad = QuadratureConfig(cutoff_mult=cutoff_mult)
        times = np.linspace(0.0, 5.0, 101)
        for base, eps in ((PAPER, (0.0, 0.0)), (DESK, (0.7, -0.3)), (OFF_DEFAULT, (-0.4, 1.1))):
            p = DephasingParams(**base, env_kind=env_kind, eps1=eps[0], eps2=eps[1], quad=quad)
            grid = phase_factor_grid(p, times)
            logs = _quadrature_log_patterns(p, times)
            for name, (pattern, m1, m2) in _FACTOR_PATTERNS.items():
                assert_allclose(np.log(np.abs(grid[name])), logs[pattern], rtol=0, atol=1e-13, err_msg=name)
                phase = np.exp(-1j * (m1 * p.eps1 + m2 * p.eps2) * times)
                assert_allclose(grid[name] / np.abs(grid[name]), phase, rtol=0, atol=1e-13, err_msg=name)
            if eps == (0.0, 0.0):  # closed windows give a log of exactly 0.0: every factor is exactly 1
                assert all(np.all(grid[name][times <= p.t1s] == 1.0) for name in grid)

    def test_exp1_matches_scipy(self):
        exp1 = pytest.importorskip("scipy.special").exp1
        b = np.concatenate(([0.0], np.linspace(0.01, 10.0, 1000), np.logspace(-6, 3, 400)))
        for k in (0.5, 2.0, 5.0, 20.0, 60.0, 400.0):
            z = k * (1.0 - 1j * b)
            assert_allclose(dephasing._exp1(z), exp1(z), rtol=1e-13, atol=0, err_msg=f"K = {k}")


class TestSystemState:
    def test_initial_state_is_pure(self):
        a = np.array([0.5, 0.5, 0.5, 0.5])
        rho = system_state(DephasingParams(**PAPER, env_kind="entangled"), a, 0.0)
        assert_allclose(rho.data, np.outer(a, a.conj()), atol=1e-12)

    def test_ops_marginal_tracks_lam12(self):
        p = DephasingParams(**PAPER, env_kind="entangled")
        a = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
        for t in (1.0, 3.0, 5.0):
            rho = system_state(p, a, t)
            lam = phase_factors(p, t).lam12
            assert_allclose(abs(rho.data[1, 2]), 0.5 * abs(lam), atol=1e-10)
        # every named factor multiplies its own coherence |s1 s2><s1' s2'|,
        # phases included, for both environments
        index = {"k1": (2, 0), "k2": (1, 0), "k1t": (3, 1), "k2t": (3, 2),
                 "k12": (3, 0), "lam12": (2, 1)}
        a = np.array([0.3 + 0.2j, 0.5 - 0.1j, -0.4 + 0.3j, 0.2 + 0.1j])
        a /= np.linalg.norm(a)
        for kind in ("entangled", "classical"):
            p = DephasingParams(**DESK, env_kind=kind, eps1=0.7, eps2=-0.3)
            for t in (0.5, 2.0, 3.5, 5.0):
                rho = system_state(p, a, t).data
                pf = phase_factors(p, t)
                for name, (i, j) in index.items():
                    want = a[i] * np.conj(a[j]) * getattr(pf, name)
                    assert_allclose(rho[i, j], want, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_classical_coherences_non_increasing_at_reduced_r(self):
        p = DephasingParams(**DESK, env_kind="classical")
        a = np.array([0.5, 0.5, 0.5, 0.5])
        mags = []
        for t in np.linspace(0, 5, 26):
            rho = system_state(p, a, t)
            mags.append(np.abs(rho.data[np.triu_indices(4, k=1)]))
        diffs = np.diff(np.array(mags), axis=0)
        assert diffs.max() <= 1e-9

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            system_state(DephasingParams(**PAPER), np.array([1.0, 1.0, 0, 0]), 0.0)

    def test_diagonal_constant(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        a = np.array([0.2, 0.4, 0.6, np.sqrt(1 - 0.2**2 - 0.4**2 - 0.6**2)])
        rho = system_state(p, a, 4.0)
        assert_allclose(np.diag(rho.data), np.abs(a) ** 2, atol=1e-12)


class TestSpectralGaussRule:
    def test_single_node_at_mean_frequency(self):
        wc = 0.25
        nodes, weights = spectral_gauss_rule(wc, 60.0, 1)
        # mean of w e^{-w/wc}: 2 wc (up to cutoff corrections)
        assert_allclose(nodes[0], 2 * wc, rtol=1e-6)
        assert_allclose(weights[0], wc * wc, rtol=1e-6)  # total weight = integral of J

    def test_rule_integrates_polynomials(self):
        wc = 0.3
        nodes, weights = spectral_gauss_rule(wc, 60.0, 4)
        for k in range(6):  # 4-node Gauss rule is exact through degree 7
            exact = math.factorial(k + 1) * wc ** (k + 2)
            assert_allclose(weights @ nodes**k, exact, rtol=1e-6)

    @staticmethod
    def _reference_rule(omega_c, cutoff_mult, n_modes):
        """The same truncated-weight Gauss rule at 60 digits, from its moments.

        Moments m_k = omega_c^{k+2} gammainc(k+2, 0, K); Cholesky of the Hankel
        matrix gives the Jacobi matrix, whose eigenpairs give nodes and weights.
        """
        mp = pytest.importorskip("mpmath", reason="the 60-digit reference rule needs mpmath").mp
        mp.dps = 60
        wc = mp.mpf(omega_c)
        mom = [wc ** (k + 2) * mp.gammainc(k + 2, 0, cutoff_mult) for k in range(2 * n_modes + 1)]
        hankel = mp.matrix([[mom[i + j] for j in range(n_modes + 1)] for i in range(n_modes + 1)])
        r = mp.cholesky(hankel).T
        jac = mp.matrix(n_modes, n_modes)
        for k in range(n_modes):
            jac[k, k] = r[k, k + 1] / r[k, k] - (r[k - 1, k] / r[k - 1, k - 1] if k else 0)
            if k + 1 < n_modes:
                jac[k, k + 1] = jac[k + 1, k] = r[k + 1, k + 1] / r[k, k]
        eigs, vecs = mp.eigsy(jac)
        order = sorted(range(n_modes), key=lambda i: eigs[i])
        nodes = np.array([float(eigs[i]) for i in order])
        weights = np.array([float(mom[0] * vecs[0, i] ** 2) for i in order])
        return nodes, weights

    @pytest.mark.parametrize("cutoff_mult", [60.0, 20.0])
    def test_matches_60_digit_reference(self, cutoff_mult):
        for n_modes in range(1, 13):
            nodes, weights = spectral_gauss_rule(0.05, cutoff_mult, n_modes)
            ref_nodes, ref_weights = self._reference_rule(0.05, cutoff_mult, n_modes)
            assert_allclose(nodes, ref_nodes, rtol=2e-13, atol=0)
            assert_allclose(weights, ref_weights, rtol=2e-13, atol=0)


class TestNumpyOnlyPath:
    def test_matches_expm_and_is_unitary(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(11)
        alphas = [0.0, *(rng.uniform(-3, 3, 6) + 1j * rng.uniform(-3, 3, 6))]
        for n_dim in (2, 15, 61):
            b = np.diag(np.sqrt(np.arange(1.0, n_dim)), k=1)
            for a in alphas:
                d = dephasing._displacement(n_dim, a)
                ref = expm(a * b.conj().T - np.conj(a) * b)
                assert np.abs(d - ref).max() <= 1e-13
                assert np.abs(d @ d.conj().T - np.eye(n_dim)).max() <= 1e-13

    def test_package_and_cli_import_no_scipy(self, tmp_path):
        # importing, then running phase_factors for both env kinds, loads no SciPy
        src = os.path.dirname(os.path.dirname(os.path.abspath(dephasing.__file__)))
        code = (
            "import json, sys, nonmarkov, nonmarkov.cli\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "for kind in ('entangled', 'classical'):\n"
            "    cfg = {'mode': 'phase_factors', 'output_path': sys.argv[1] + '/' + kind + '.csv',\n"
            "           'dephasing': {'omega_c': 0.01, 'r': 3.0, 'env_kind': kind},\n"
            "           'grid': {'t_start': 0.0, 't_end': 5.0, 'dt': 0.25}}\n"
            "    assert nonmarkov.cli.execute(cfg) == 0\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        )
        subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                       env={**os.environ, "PYTHONPATH": src}, check=True)
        assert sorted(os.listdir(tmp_path)) == ["classical.csv", "entangled.csv"]


class TestBuildDiscreteModel:
    def test_vacuum_truncation_exact(self):
        p = DephasingParams(**{**DESK, "r": 0.0}, env_kind="entangled")
        m = build_discrete_model(p, n_modes=1, n_max=2)
        assert m.captured_trace == 1.0

    def test_geometric_tail(self):
        # u^2 = 0.5 per pair: captured weight 1 - 0.5^(n_max+1)
        u = math.sqrt(0.5)
        p = DephasingParams(**{**DESK, "r": 0.4}, env_kind="classical", u=u)
        m = build_discrete_model(p, n_modes=1, n_max=20)
        assert_allclose(m.captured_trace, 1 - 0.5**21, atol=1e-15)

    def test_insufficient_truncation_rejected(self):
        p = DephasingParams(**{**DESK, "r": 1.0}, env_kind="classical")
        with pytest.raises(TruncationError):
            build_discrete_model(p, n_modes=2, n_max=2)


class TestCmiTrajectory:
    def test_zero_before_first_window(self):
        p = DephasingParams(omega_c=0.25, r=0.5, env_kind="entangled", t1s=1.0, t1f=2.0, t2s=2.0, t2f=3.0)
        m = build_discrete_model(p, n_modes=1, n_max=6)
        for part in ("E1", "E2", "E1E2"):
            series = cmi_trajectory(m, measures.ops_state(), [0.0, 0.5, 1.0], part)
            assert np.max(series.values) <= 1e-9

    def test_uncorrelated_baths_keep_e2_empty(self):
        p = DephasingParams(**{**DESK, "r": 0.0}, env_kind="entangled")
        m = build_discrete_model(p, n_modes=2, n_max=3)
        series = cmi_trajectory(m, measures.ops_state(), np.linspace(0, 2.5, 6), "E2")
        assert np.max(series.values) <= 1e-9

    def test_balance_along_trajectory(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        m = build_discrete_model(p, n_modes=1, n_max=10)
        comp = dephasing.BranchComputer(m, measures.ops_state())
        tr = comp.trajectories(np.linspace(0, 5, 11), env_parts=("E1E2",))
        total = tr["mi_sa"].values + tr["E1E2"].values
        assert np.max(np.abs(total - total[0])) <= 1e-8

    def test_mixed_initial_uses_dense_fallback(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        m = build_discrete_model(p, n_modes=1, n_max=8)
        mixed = measures.optimal_pair_state(
            pure_state([0, 1, 0, 0], SystemPartition([("S1", 2), ("S2", 2)])),
            pure_state([0, 0, 1, 0], SystemPartition([("S1", 2), ("S2", 2)])),
        )
        # reorder to [A, S1, S2]
        perm = np.einsum(
            mixed.data.reshape([2, 2, 2] * 2),
            [0, 1, 2, 3, 4, 5],
            [2, 0, 1, 5, 3, 4],
        ).reshape(8, 8)
        from nonmarkov.states import DensityMatrix

        initial = DensityMatrix(perm, SystemPartition([("A", 2), ("S1", 2), ("S2", 2)]))
        series = cmi_trajectory(m, initial, [0.0, 1.0], "E2")
        assert series.values[0] <= 1e-9

    def test_n1_identity_on_monotone_window(self):
        p = DephasingParams(
            omega_c=0.05, r=0.8, alpha1=4.0, alpha2=4.0,
            t1s=0.0, t1f=2.5, t2s=2.5, t2f=4.2, env_kind="entangled",
        )
        m = build_discrete_model(p, n_modes=2, n_max=12)
        ts = np.round(np.arange(0.0, 4.2 + 1e-9, 0.1), 10)
        comp = dephasing.BranchComputer(m, measures.ops_state())
        tr = comp.trajectories(ts, env_parts=("E2", "E1E2"))
        e2 = tr["E2"]
        window2 = e2.values[e2.times >= 2.5]
        assert np.all(np.diff(window2) <= 1e-9)  # monotone on the second window
        n1, _ = measures.negative_decrement_integral(tr["E1E2"])
        drop = window2[0] - window2[-1]
        assert abs(n1 - drop) <= 1e-6


class TestStructuredBranchEntropies:
    """The direct-sum / closed-form / Fock-diagonal entropies against the assembled operator."""

    @staticmethod
    def _states():
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        # three flags, the first two on the same system basis state
        flagged = measures.flagged_ancilla_state(
            [0.6, 0.48, 0.64], [1, 1, 2], SystemPartition([("S1", 2), ("S2", 2)])
        )
        return [measures.ops_state(), flagged] + [random_pure_state(part, s) for s in (1, 2, 3)]

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    @pytest.mark.parametrize("n_modes,n_max", [(1, 4), (2, 3)])
    def test_matches_assembled_operator(self, env_kind, n_modes, n_max):
        p = DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=n_modes, n_max=n_max)
        for state in self._states():
            comp = dephasing.BranchComputer(m, state)
            for t in (1.3, 3.7):
                snap = dephasing._Snapshot(m, t)
                for keep_a, keep_s, env_keep in itertools.product(
                    (False, True), (False, True), ("none", "b1", "b2", "both")
                ):
                    ref = comp._assembled(snap, range(comp.br.nb), keep_a, keep_s, env_keep)
                    assert abs(comp._entropy(snap, keep_a, keep_s, env_keep)
                               - spectrum_entropy(ref, tol=1e-9)) <= 1e-12


class TestRealGauge:
    """D(sigma beta) = R O(sigma) R^dag: O(sigma) = exp(sigma |beta| (b^dag - b)) real
    orthogonal, R = e^{i arg(beta) n} the same for both signs."""

    @staticmethod
    def _check(o, beta_, sigma):
        from scipy.linalg import expm

        n = o.shape[0]
        alpha = sigma * beta_
        r = np.power(complex(beta_ / abs(beta_)) if beta_ else 1.0, np.arange(n))
        b = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
        assert o.dtype == np.float64
        assert np.abs(o @ o.T - np.eye(n)).max() <= 1e-13
        d = dephasing._displacement(n, alpha)
        assert np.abs(r[:, None] * o * r.conj() - d).max() <= 1e-14
        assert np.abs(d - expm(alpha * b.T - np.conj(alpha) * b)).max() <= 1e-13

    @pytest.mark.parametrize("n_dim", [2, 15, 61])
    @pytest.mark.parametrize("beta_", [0.0, 0.7, 0.4 - 1.1j])
    def test_gauge_matches_displacement(self, n_dim, beta_):
        d, o = dephasing._displacement_gauge(n_dim, beta_)
        assert np.array_equal(d, dephasing._displacement(n_dim, beta_))
        for sigma, o_sigma in ((1, o), (-1, o.T)):
            self._check(o_sigma, beta_, sigma)
        if beta_ == 0.0:
            assert np.array_equal(o, np.eye(n_dim))

    def test_snapshot_gauges(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        m = build_discrete_model(p, n_modes=2, n_max=14)
        for t in (0.0, 1.3, 3.7):
            snap = dephasing._Snapshot(m, t)
            for k, (om, g1, g2) in enumerate(m.mode_pairs):
                for d, o, b in ((snap.d1[k], snap.o1[k], g1 * beta(om, t, p.window1)),
                                (snap.d2[k], snap.o2[k], g2 * beta(om, t, p.window2))):
                    assert np.array_equal(o[-1], o[+1].T)
                    for sigma in (1, -1):
                        self._check(o[sigma], b, sigma)
                        d_ref = dephasing._displacement(m.fock_dim, sigma * b)
                        assert np.abs(d[sigma] - d_ref).max() <= 1e-14


class TestSnapshotOverlaps:
    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_omega_is_product_of_pair_overlaps(self, env_kind):
        # the per-pair loop: Omega[s, s'] = prod_m Tr[Phi_s rho_m Phi_s'^dag]
        p = DephasingParams(**DESK, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=2, n_max=12)
        sigmas = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for t in (0.0, 1.3, 3.7):
            snap = dephasing._Snapshot(m, t)
            ref = np.ones((4, 4), dtype=complex)
            for k in range(m.n_pairs):
                for (i, ket), (j, bra) in itertools.product(enumerate(sigmas), repeat=2):
                    if env_kind == "entangled":
                        ref[i, j] *= np.vdot(snap.psi[k][bra], snap.psi[k][ket])
                    else:
                        c1 = np.diag(snap.d1[k][bra[0]].conj().T @ snap.d1[k][ket[0]])
                        c2 = np.diag(snap.d2[k][bra[1]].conj().T @ snap.d2[k][ket[1]])
                        ref[i, j] *= (snap.probs * c1 * c2).sum()
            assert np.abs(snap.omega - ref).max() <= 1e-14


class TestBranchSolves:
    def test_one_real_kept_bath_solve_per_env_part_and_three_env_free(self, monkeypatch):
        # entangled ops_state cmi run at 2 pairs, n_max 14: per time point, the
        # S_ASE of E1 and E2 are the only kept-bath solves (S_SE splits into
        # single-branch components), and S_AS, S_S, S_A are solved once for all
        # three env parts
        p = DephasingParams(omega_c=0.05, r=0.8, alpha1=4.0, alpha2=4.0,
                            t1s=0.0, t1f=2.5, t2s=2.5, t2f=4.2, env_kind="entangled")
        m = build_discrete_model(p, n_modes=2, n_max=14)
        comp = dephasing.BranchComputer(m, measures.ops_state())
        solves = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: solves.append((a.shape, a.dtype)) or real(a)
        )
        for t in np.linspace(0.5, 4.0, 5):
            comp.trajectories([t], env_parts=("E1", "E2", "E1E2"), with_mi=False)
            assert sorted(solves) == sorted(
                [((225, 225), np.dtype(np.float64))] * 2
                + [((k, k), np.dtype(np.complex128)) for k in (2, 4, 8)]
            )
            solves.clear()


def _kron_evolved(dense, t):
    """The full-matrix evolution kron(1_A, blockdiag_s U_s) rho0 U^dag, kept as the test oracle."""
    model = dense.model
    n = model.fock_dim
    dim_env = (n * n) ** model.n_pairs
    u_mat = np.zeros((4 * dim_env, 4 * dim_env), dtype=complex)
    for s_idx, (s1, s2) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)]):
        ops = [
            np.kron(
                dephasing._displacement(n, s1 * g1 * beta(om, t, model.params.window1)),
                dephasing._displacement(n, s2 * g2 * beta(om, t, model.params.window2)),
            )
            for om, g1, g2 in model.mode_pairs
        ]
        lo = s_idx * dim_env
        u_mat[lo:lo + dim_env, lo:lo + dim_env] = functools.reduce(np.kron, ops)
    u = np.kron(np.eye(dense.d_a), u_mat)
    return u @ dense.rho0 @ u.conj().T


class TestDenseComputer:
    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    @pytest.mark.parametrize("n_modes,n_max", [(1, 4), (2, 2)])
    def test_blockwise_matches_kron_evolution(self, env_kind, n_modes, n_max):
        p = DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=n_modes, n_max=n_max)
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        for initial in (measures.ops_state(), random_pure_state(part, 4)):
            dense = dephasing.DenseComputer(m, initial)
            for t in (1.3, 3.7):
                assert np.max(np.abs(dense.state_at(t).data - _kron_evolved(dense, t))) <= 1e-13

    def test_one_state_per_time(self, monkeypatch):
        p = DephasingParams(**{**DESK, "r": 0.2}, env_kind="entangled")
        m = build_discrete_model(p, n_modes=1, n_max=4)
        dense = dephasing.DenseComputer(m, measures.ops_state())
        dim = dense.partition.total_dim
        full_solves = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: full_solves.append(a.shape[0] == dim) or real(a)
        )
        for k, t in enumerate((1.3, 3.7), start=1):
            for part in dephasing.ENV_PARTS:
                dense.entropies_at(t, part)
            dense.system_state(t)
            assert sum(full_solves) == k

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_env_parts_share_marginals(self, env_kind, monkeypatch):
        # the check model: E1 builds the state and its A S E1, A S, S, A and S E1
        # marginals; E2 adds A S E2 and S E2; E1E2 (the full state) adds S E1 E2
        m = build_discrete_model(DephasingParams(omega_c=0.25, r=0.5, env_kind=env_kind), 1, 6)
        dense = dephasing.DenseComputer(m, measures.ops_state())
        calls = []
        real = dephasing.DensityMatrix.__post_init__
        monkeypatch.setattr(
            dephasing.DensityMatrix, "__post_init__", lambda self: calls.append(1) or real(self)
        )
        counts = []
        for part in dephasing.ENV_PARTS:
            dense.entropies_at(1.5, part)
            counts.append(len(calls))
            calls.clear()
        assert counts == [6, 2, 1]


class TestModeCountConvergence:
    def test_classical_cmi_converges_with_mode_count(self):
        # at n_max 14, 3 and 4 pairs need 6750- and 101250-dim assembled
        # operators, beyond the 4096 budget: only the structured rule reaches them
        p = DephasingParams(
            omega_c=0.05, r=0.8, alpha1=4.0, alpha2=4.0, t1s=0.0, t1f=2.5, t2s=2.5, t2f=4.2,
            env_kind="classical",
        )
        times = [0.0, 1.5, 3.0, 4.2]
        e2_final = []
        for n_modes in (1, 2, 3, 4):
            m = build_discrete_model(p, n_modes=n_modes, n_max=14)
            tr = dephasing.BranchComputer(m, measures.ops_state()).trajectories(
                times, env_parts=("E2", "E1E2")
            )
            assert all(np.all(s.values >= 0.0) for s in tr.values())
            total = tr["mi_sa"].values + tr["E1E2"].values
            assert np.max(np.abs(total - total[0])) <= 1e-8
            e2_final.append(tr["E2"].values[-1])
        steps = np.abs(np.diff(e2_final))
        assert steps[0] > steps[1] > steps[2]


class TestDiscretePhaseFactors:
    def test_matches_branch_coherences(self):
        p = DephasingParams(**DESK, env_kind="classical")
        m = build_discrete_model(p, n_modes=1, n_max=8)
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        amps = np.zeros(8, dtype=complex)
        amps[:4] = 0.5
        comp = dephasing.BranchComputer(m, pure_state(amps, part))
        for t in (1.0, 3.0):
            pf = discrete_phase_factors(m, t)
            rho = comp.system_state(t).data
            assert_allclose(rho[2, 0] / 0.25, pf.k1, atol=1e-12)
            assert_allclose(rho[2, 1] / 0.25, pf.lam12, atol=1e-12)

    def test_converges_to_quadrature_with_mode_count(self):
        p = DephasingParams(**DESK, env_kind="classical")
        devs = []
        for n_modes in (2, 4, 8):
            m = build_discrete_model(p, n_modes=n_modes, n_max=12)
            worst = 0.0
            for t in (1.0, 2.5, 4.0):
                pf_d = discrete_phase_factors(m, t)
                pf_c = phase_factors(p, t)
                for key in ("k1", "k2", "k12", "lam12"):
                    worst = max(worst, abs(abs(getattr(pf_d, key)) - abs(getattr(pf_c, key))))
            devs.append(worst)
        assert devs[0] > devs[1] > devs[2]

    def test_entangled_convergence_with_mode_count(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        devs = []
        for n_modes in (2, 4, 8):
            m = build_discrete_model(p, n_modes=n_modes, n_max=12)
            worst = 0.0
            for t in (1.0, 2.5, 4.0):
                pf_d = discrete_phase_factors(m, t)
                pf_c = phase_factors(p, t)
                for key in ("k1", "k12", "lam12"):
                    worst = max(worst, abs(abs(getattr(pf_d, key)) - abs(getattr(pf_c, key))))
            devs.append(worst)
        assert devs[0] > devs[1] > devs[2]


class TestSystemTrajectory:
    def test_channel_linearity_matches_pure_construction(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        a = np.array([0.5, 0.5, 0.5, 0.5])
        part = SystemPartition([("S1", 2), ("S2", 2)])
        traj = system_trajectory(p, pure_state(a, part), [0.0, 2.0, 4.0])
        for t, st in zip(traj.times, traj.states):
            direct = system_state(p, a, t)
            assert_allclose(st.data, direct.data, atol=1e-12)
