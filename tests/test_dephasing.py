import functools
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonmarkov import cli, dephasing, info, measures
from nonmarkov.dephasing import (
    ENV_KINDS,
    DephasingParams,
    QuadratureConfig,
    TruncationError,
    beta,
    build_discrete_model,
    classical_char_factor,
    cmi_trajectory,
    discrete_phase_factors,
    displaced_fock_overlap,
    entangled_char_factor,
    phase_factor_grid,
    phase_factors,
    spectral_gauss_rule,
    system_state,
    system_trajectory,
)
from nonmarkov.states import (
    DensityMatrix,
    SystemPartition,
    partial_trace,
    pure_state,
    random_density_matrix,
    random_pure_state,
    spectrum_entropy,
)

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


class TestLogBesselI0:
    def test_matches_scipy(self):
        i0e = pytest.importorskip("scipy.special").i0e
        z = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 2000), np.linspace(19.0, 21.0, 201)])
        ref = z + np.log(i0e(z))
        val = dephasing.log_bessel_i0(z)
        assert np.all(np.abs(val - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_small_argument_relative_accuracy(self):
        # ln I0(z) = z^2/4 - z^4/64 + O(z^6); log(I0(z)) itself loses the digits here
        z = np.geomspace(1e-12, 1e-4, 200)
        series = z * z / 4 - z**4 / 64
        assert np.all(np.abs(dephasing.log_bessel_i0(z) - series) <= 1e-15 * series)

    def test_zero_is_exact_and_even(self):
        assert dephasing.log_bessel_i0(0.0) == 0.0
        assert dephasing.log_bessel_i0(-3.5) == dephasing.log_bessel_i0(3.5)


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
        for name, val in pf.items():
            assert_allclose(abs(val), 1.0, atol=1e-12)

    def test_all_one_before_delayed_window(self):
        p = DephasingParams(
            omega_c=0.1, r=1.0, env_kind="classical", t1s=1.0, t1f=2.0, t2s=2.0, t2f=3.0
        )
        for t in (0.0, 0.5, 1.0):
            for val in phase_factors(p, t).values():
                assert_allclose(abs(val), 1.0, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            phase_factors(DephasingParams(**PAPER, env_kind="entangled"), -0.1)

    def test_tilde_factors_equal_plain(self):
        pf = phase_factors(DephasingParams(**PAPER, env_kind="entangled"), 3.3)
        assert pf["k1"] == pf["k1t"]
        assert pf["k2"] == pf["k2t"]

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
            assert_allclose(abs(phase_factors(p, t)["k1"]), expected, atol=1e-9)


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

    def test_closed_windows_stay_one_when_the_coupling_overflows(self):
        # at r = 354.6, 4 cosh(2r) overflows to inf; a closed window (F = 0) must
        # still give a log of exactly 0, not inf * 0 = nan (and no RuntimeWarning),
        # and once both windows are open the marginal (-inf) and the squeezing
        # cross term (+-inf) must not meet as -inf + inf = nan either
        grid = phase_factor_grid(DephasingParams(omega_c=0.01, r=354.6), [0.0, 1.0, 3.0, 4.0])
        mags = {name: np.abs(v) for name, v in grid.items()}
        assert all(m[0] == 1.0 for m in mags.values())  # both windows closed
        assert mags["k2"][1] == mags["k2t"][1] == 1.0  # window 2 closed, window 1 open
        assert mags["k1"][1] == mags["k12"][1] == 0.0
        for name, m in mags.items():  # both windows open: every factor decays to 0
            assert m[2] == m[3] == 0.0, name

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_factors_stay_finite_when_the_cutoff_frequency_overflows_b_squared(self, env_kind):
        # at omega_c 1e300, b = |a| omega_c squares to inf: ln|1 - i b| is then ln b,
        # so no factor is nan (and there is no RuntimeWarning)
        grid = phase_factor_grid(DephasingParams(omega_c=1e300, r=3.0, env_kind=env_kind),
                                 np.linspace(0.0, 5.0, 21))
        for name, v in grid.items():
            assert np.all(np.isfinite(v)) and np.all(np.abs(v) <= 1.0), name
            assert v[0] == 1.0, name
        # on either side of the overflow, F(a) grows as ln b: E1(K s) is negligible there
        f = dephasing._decay_integral(DephasingParams(omega_c=1.0), np.array([1e150, 1e160]))
        assert abs((f[1] - f[0]) - 10.0 * math.log(10.0)) <= 1e-12

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
            lam = phase_factors(p, t)["lam12"]
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
                    want = a[i] * np.conj(a[j]) * pf[name]
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

    def test_legendre_rule_is_stored_and_read_only(self, monkeypatch):
        # the stored rule holds the bits of leggauss(200), and no process solves for it
        x, w = np.polynomial.legendre.leggauss(200)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: pytest.fail("recomputed"))
        dephasing._legendre_rule.cache_clear()
        cached = dephasing._legendre_rule()
        assert np.array_equal(cached[0], x) and np.array_equal(cached[1], w)
        assert not cached[0].flags.writeable and not cached[1].flags.writeable
        assert dephasing._legendre_rule() is cached
        spectral_gauss_rule(0.05, 60.0, 4)

    @pytest.mark.parametrize("cutoff_mult", [60.0, 20.0])
    def test_matches_60_digit_reference(self, cutoff_mult):
        for n_modes in range(1, 13):
            nodes, weights = spectral_gauss_rule(0.05, cutoff_mult, n_modes)
            ref_nodes, ref_weights = self._reference_rule(0.05, cutoff_mult, n_modes)
            assert_allclose(nodes, ref_nodes, rtol=2e-13, atol=0)
            assert_allclose(weights, ref_weights, rtol=2e-13, atol=0)

    def test_more_modes_than_discretization_nodes_are_refused(self):
        # past the 200 nodes of the discretized weight the recurrence has no further orthogonal polynomial
        assert len(spectral_gauss_rule(0.05, 60.0, 200)[0]) == 200
        with pytest.raises(ValueError, match="n_modes must be <= 200"):
            spectral_gauss_rule(0.05, 60.0, 201)

    @pytest.mark.parametrize("omega_c,cutoff_mult,mass", [(0.05, 1e-300, "mass 0;"), (1e300, 60.0, "mass inf;")])
    def test_out_of_range_window_is_refused_without_warnings(self, omega_c, cutoff_mult, mass):
        # a weight that underflows to 0 or overflows to inf has no Gauss rule
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=mass):
                spectral_gauss_rule(omega_c, cutoff_mult, 2)


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
        # importing, then running phase_factors for both env kinds, an entangled cmi run, a
        # classical measures run with a random candidate and a check, loads no SciPy
        src = os.path.dirname(os.path.dirname(os.path.abspath(dephasing.__file__)))
        code = (
            "import json, sys, nonmarkov, nonmarkov.cli\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "for kind in ('entangled', 'classical'):\n"
            "    cfg = {'mode': 'phase_factors', 'output_path': sys.argv[1] + '/' + kind + '.csv',\n"
            "           'dephasing': {'omega_c': 0.01, 'r': 3.0, 'env_kind': kind},\n"
            "           'grid': {'t_start': 0.0, 't_end': 5.0, 'dt': 0.25}}\n"
            "    assert nonmarkov.cli.execute(cfg) == 0\n"
            "model = {'discrete': {'n_modes': 2, 'n_max': 6}, 'grid': {'t_start': 0.0, 't_end': 2.0, 'dt': 0.25},\n"
            "         'dephasing': {'omega_c': 0.25, 'r': 0.6, 't1s': 0.0, 't1f': 1.0, 't2s': 1.0, 't2f': 2.0}}\n"
            "for mode, kind, cands in (('cmi', 'entangled', [{'kind': 'ops_state'}]),\n"
            "                          ('measures', 'classical', [{'kind': 'ops_state'}, {'kind': 'random'}])):\n"
            "    cfg = {**model, 'mode': mode, 'output_path': sys.argv[1] + '/' + mode + '.csv', 'candidates': cands,\n"
            "           'dephasing': {**model['dephasing'], 'env_kind': kind}}\n"
            "    assert nonmarkov.cli.execute(cfg) == 0\n"
            "assert nonmarkov.cli.main(['check', '--samples', '2', '--output', sys.argv[1] + '/check.json']) == 0\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        )
        subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                       env={**os.environ, "PYTHONPATH": src}, check=True)
        assert sorted(os.listdir(tmp_path)) == ["check.json", "classical.csv", "cmi.csv", "entangled.csv",
                                                "measures.csv"]


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

    def test_u_is_rejected_for_the_entangled_state(self):
        # u sets the classical pair correlations; the squeezed state has only r
        with pytest.raises(ValueError, match="u applies only"):
            DephasingParams(**DESK, env_kind="entangled", u=0.3)
        assert DephasingParams(**DESK, env_kind="classical", u=0.3).u_eff == 0.3


class TestPairState:
    """The model holds the pair state once: the paper's two preparations share their marginals."""

    @pytest.mark.parametrize("r", [0.0, 0.4, 0.8, 1.5])
    def test_same_local_spectrum_for_both_preparations(self, r):
        ent, cla = (build_discrete_model(DephasingParams(**{**DESK, "r": r}, env_kind=kind), 1, 40)
                    for kind in ENV_KINDS)
        assert np.abs(ent.local_spectrum - cla.local_spectrum).max() <= 1e-15
        for m in (ent, cla):
            assert abs(m.local_spectrum.sum() - 1.0) <= 1e-15
        assert cla.local_spectrum is cla.pair_weights
        assert_allclose(ent.pair_weights ** 2, cla.pair_weights, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_pair_state_is_computed_once_and_read_only(self, env_kind):
        m = build_discrete_model(DephasingParams(**DESK, env_kind=env_kind), 2, 14)
        for name in ("pair_weights", "local_spectrum"):
            arr = getattr(m, name)
            assert getattr(m, name) is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5


class TestFactorOrder:
    """The six factors are one name -> value mapping, in the CSV's column order."""

    COLUMNS = ["k1", "k2", "k1t", "k2t", "k12", "lam12"]

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_every_producer_shares_the_csv_order(self, env_kind, tmp_path):
        p = DephasingParams(**DESK, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=1, n_max=12)
        grid = phase_factor_grid(p, [0.0, 3.0])
        one = phase_factors(p, 3.0)
        assert list(grid) == list(one) == list(discrete_phase_factors(m, 3.0)) == self.COLUMNS
        assert one == {name: complex(v[1]) for name, v in grid.items()}
        out = tmp_path / "pf.csv"
        cfg = {"mode": "phase_factors", "output_path": str(out), "grid": {"t_start": 0.0, "t_end": 3.0, "dt": 3.0},
               "dephasing": {**DESK, "env_kind": env_kind}}
        assert cli.execute(cfg) == 0
        header, _, row = out.read_text().splitlines()
        assert header.split(",")[1:-1] == [f"|{name}|" for name in self.COLUMNS]
        assert [float(x) for x in row.split(",")[1:-1]] == [abs(v) for v in one.values()]


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

    def test_branch_matches_dense_for_mixed_and_wide_initial_states(self):
        # rank-2, rank-3 and rank-8 states, the optimal-pair mixture, and a pure state on
        # A(17) S1 S2 (68 amplitudes, dense dimension 1700): every entropy of the
        # three parts against the dense path, for both env kinds
        a_s = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        s_part = SystemPartition([("S1", 2), ("S2", 2)])
        pair = measures.optimal_pair_state(pure_state([0, 1, 0, 0], s_part), pure_state([0, 0, 1, 0], s_part))
        # reorder [S1, S2, A] to [A, S1, S2]
        perm = np.einsum(pair.data.reshape([2, 2, 2] * 2), [0, 1, 2, 3, 4, 5], [2, 0, 1, 5, 3, 4])
        wide = random_pure_state(SystemPartition([("A", 17), ("S1", 2), ("S2", 2)]), 9)
        cases = [
            (random_density_matrix(a_s, 2, 5), [1.3, 3.7]),
            (random_density_matrix(a_s, 3, 7), [1.3, 3.7]),
            (random_density_matrix(a_s, 8, 6), [1.3, 3.7]),
            (DensityMatrix(perm.reshape(8, 8), a_s), [1.3, 3.7]),
            (wide, [3.7]),  # both baths displaced; one 1700-dim dense state per env kind
        ]
        for env_kind in ENV_KINDS:
            m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind), 1, 4)
            for initial, times in cases:
                branch = dephasing.BranchComputer(m, initial)
                dense = dephasing.DenseComputer(m, initial)
                for part in dephasing.ENV_PARTS:
                    series = cmi_trajectory(m, initial, times, part)
                    for t, cmi in zip(times, series.values):
                        eb, ed = branch.entropies_at(t, part), dense.entropies_at(t, part)
                        assert cmi == eb["cmi"]
                        assert max(abs(eb[k] - ed[k]) for k in ed) <= 1e-7

    def test_mi_sa_comes_with_every_request(self):
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}, env_kind="entangled"), n_modes=1, n_max=4)
        comp = dephasing.BranchComputer(m, measures.ops_state())
        ts = [0.0, 1.3, 3.7]
        ref = [comp.entropies_at(t, "E1E2")["mi_sa"] for t in ts]
        for parts in (("E2",), ("E1", "E1E2"), dephasing.ENV_PARTS):
            tr = comp.trajectories(ts, env_parts=parts)
            assert sorted(tr) == sorted((*parts, "mi_sa"))
            assert_allclose(tr["mi_sa"].values, ref, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="env_parts"):
            comp.trajectories(ts, env_parts=())

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


KEEP_SETS = [frozenset(c) for n in range(5) for c in itertools.combinations(("A", "S", "E1", "E2"), n)]
# every nonempty kept set that a rule of ``BranchComputer._entropy`` covers: all but both baths without S
COVERED_SETS = [k for k in KEEP_SETS[1:] if "S" in k or not {"E1", "E2"} <= k]
_PSI_AXES = {"A": 1, "S": 2, "E1": 3, "E2": 4}  # their axes in the purified state on [Q, A, S, E1, E2, R]


def _displacements(grid, i):
    """D(sigma g_jm beta_j) at ``grid.times[i]`` by bath j, pair m and sigma, from the snapshot's gauges."""
    return [[dephasing._signed(dephasing._ungauged(o[i], r[i])) for o, r in zip(os, rs)]
            for os, rs in zip(grid.o, grid.r)]


def _kets(comp):
    """(Q, d_A, 4): rho0 = sum_i |psi_i><psi_i| over its eigenvalues above ``RANK_CUTOFF``."""
    w, v = np.linalg.eigh(comp.rho0)
    live = w > dephasing.RANK_CUTOFF
    return (v[:, live] * np.sqrt(w[live])).T.reshape(-1, comp.partition.dims[0], 4)


def _purified(comp, grid, i):
    """The global state at ``grid.times[i]`` as one vector on [Q, A, S, E1, E2, R].

    sum_{i,s} psi_i[a, s] |i a s> (x)_m |e_m(s)>: Q purifies rho0 (``_kets``),
    and pair m of branch s is the displaced squeezed vacuum, or
    sum_k sqrt(p_k) D1(sigma1)|k> D2(sigma2)|k> |k>_R with R purifying the
    classical pair state.
    """
    model = comp.model
    d1, d2 = _displacements(grid, i)
    psi = [dephasing._pair_states(a, b, model.pair_weights) for a, b in zip(d1, d2)]
    envs = []
    for s1, s2 in dephasing._SIGMAS:
        env = np.ones((1, 1, 1))
        for m in range(model.n_pairs):
            pair = (psi[m][s1, s2][:, :, None] if model.env_kind == "entangled"
                    else d1[m][s1][:, None] * d2[m][s2] * np.sqrt(model.pair_weights))
            env = np.einsum("abc,ijk->aibjck", env, pair).reshape(np.multiply(env.shape, pair.shape))
        envs.append(env)
    return np.einsum("qas,sxyz->qasxyz", _kets(comp), np.stack(envs))


def _purified_entropy(psi, kept):
    """S(rho_K) of any kept set K from the purified state ``psi``: the test reference for every rule.

    As a K x (the rest) matrix, Psi's Gram matrix on either side has the
    nonzero spectrum of rho_K; the smaller side is solved.
    """
    axes = sorted(_PSI_AXES[label] for label in kept)
    dim_k = math.prod(psi.shape[i] for i in axes)
    side = min(dim_k, psi.size // dim_k)
    summed = [i for i in range(psi.ndim) if i not in axes] if side == dim_k else axes
    gram = np.tensordot(psi, psi.conj(), axes=(summed, summed)).reshape(side, side)
    return spectrum_entropy(np.linalg.eigvalsh(gram), tol=1e-9)


class TestStructuredBranchEntropies:
    """Every rule of ``BranchComputer._entropy``, over a time grid, against the purified global state."""

    @staticmethod
    def _states():
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        # three flags, the first two on the same system basis state
        flagged = measures.flagged_ancilla_state(
            [0.6, 0.48, 0.64], [1, 1, 2], SystemPartition([("S1", 2), ("S2", 2)])
        )
        return [measures.ops_state(), flagged] + [random_pure_state(part, s) for s in (1, 2, 3)]

    @staticmethod
    def _mixed_states():
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        return [random_density_matrix(part, rank, seed) for rank, seed in ((2, 5), (3, 7), (8, 3))]

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    @pytest.mark.parametrize("n_modes,n_max", [(1, 4), (2, 3), (3, 2)])
    def test_matches_assembled_operator(self, env_kind, n_modes, n_max):
        # the reference is the Gram spectrum of the purified global state (the
        # name is kept from the assembled operator it replaced); the mixed states
        # of the entangled kind keep S and one bath through their purified complement
        p = DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=n_modes, n_max=n_max)
        rules = set()
        for state in self._states() + self._mixed_states():
            comp = dephasing.BranchComputer(m, state)
            rules.update(rule for rule, *_ in comp._baths.values())
            snap = dephasing._Snapshot(m, [1.3, 3.7])
            got = comp._entropy(snap, COVERED_SETS)  # each over the grid
            for i in range(snap.times.size):
                psi = _purified(comp, snap, i)
                for kept in COVERED_SETS:
                    assert abs(got[kept][i] - _purified_entropy(psi, kept)) <= 1e-12
        # every one-bath kept set without S is in COVERED_SETS: each case of rule (d) was checked
        assert rules == {"direct", "sectors", "assembled"}

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_purified_state_matches_dense(self, env_kind):
        # the reference itself against the independent dense evolution and
        # partial traces: every kept set, the five states and a rank-2 state
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind), 1, 4)
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        factors = {"A": {"A"}, "S": {"S"}, "E1": {"E1m0"}, "E2": {"E2m0"}}
        for state in self._states() + [random_density_matrix(part, 2, 5)]:
            comp = dephasing.BranchComputer(m, state)
            dense = dephasing.DenseComputer(m, state)
            for t in (1.3, 3.7):
                psi = _purified(comp, dephasing._Snapshot(m, [t]), 0)
                for kept in KEEP_SETS:
                    keep = set().union(*(factors[label] for label in kept))
                    ref = info.von_neumann_entropy(partial_trace(dense.state_at(t), keep)) if keep else 0.0
                    assert abs(_purified_entropy(psi, kept) - ref) <= 1e-12

    def test_budget_is_checked_before_a_mixed_kept_bath_is_built(self, monkeypatch):
        # entangled rank-2 rho0 at 2 pairs and n_max 14: keeping S E1 is solved as its
        # complement on Q A E2, a d_M = rank rho_S0 = 4 block operator on the 225-dim
        # bath, and keeping A S E1 as Q E2, d_M = rank rho0 = 2
        p = DephasingParams(**{**DESK, "r": 0.8}, env_kind="entangled")
        m = build_discrete_model(p, n_modes=2, n_max=14)
        state = random_density_matrix(SystemPartition([("A", 2), ("S1", 2), ("S2", 2)]), 2, 5)
        comp = dephasing.BranchComputer(m, state, budget=400)
        snap = dephasing._Snapshot(m, [1.3])
        monkeypatch.setattr(dephasing, "_kept_bath", lambda *args: pytest.fail("kept bath built"))
        for kept, side in (({"S", "E1"}, 900), ({"A", "S", "E1"}, 450)):
            with pytest.raises(dephasing.BudgetError, match=f"assembled operator dimension {side} exceeds budget 400"):
                comp._entropy(snap, [frozenset(kept)])

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_kept_set_outside_the_rules_raises(self, env_kind):
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind), 1, 4)
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        snap = dephasing._Snapshot(m, [1.3])
        for state in (measures.ops_state(), random_density_matrix(part, 2, 5)):
            comp = dephasing.BranchComputer(m, state)
            for kept in ({"E1", "E2"}, {"A", "E1", "E2"}):
                with pytest.raises(ValueError, match="no entropy rule covers the kept set"):
                    comp._entropy(snap, [frozenset(kept)])


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
        (o,), (r,) = dephasing._real_gauges(n_dim, [beta_])
        assert np.array_equal(dephasing._ungauged(o, r), dephasing._displacement(n_dim, beta_))
        for sigma, o_sigma in ((1, o), (-1, o.T)):
            self._check(o_sigma, beta_, sigma)
        # b^dag - b is odd under Pi = (-1)^n, so Pi O Pi = O(-1) = O^T
        pi = 1.0 - 2.0 * (np.arange(n_dim) % 2)
        assert np.abs(pi[:, None] * o * pi - o.T).max() <= 1e-15
        if beta_ == 0.0:
            assert np.array_equal(o, np.eye(n_dim))

    def test_snapshot_gauges(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        m = build_discrete_model(p, n_modes=2, n_max=14)
        grid = dephasing._Snapshot(m, [0.0, 1.3, 3.7])
        for i, t in enumerate(grid.times):
            d1, d2 = _displacements(grid, i)
            for k, (om, g1, g2) in enumerate(m.mode_pairs):
                for d, o, b in ((d1[k], grid.o[0][k][i], g1 * beta(om, t, p.window1)),
                                (d2[k], grid.o[1][k][i], g2 * beta(om, t, p.window2))):
                    for sigma, o_sigma in ((1, o), (-1, o.T)):
                        self._check(o_sigma, b, sigma)
                        d_ref = dephasing._displacement(m.fock_dim, sigma * b)
                        assert np.abs(d[sigma] - d_ref).max() <= 1e-14
        # K(+), stacked over the grid, holds the bits of np.kron at each time; the kept
        # block of label -1, built from O_m(-1) = O_m^T, is K(+) with its entries
        # between the joint-parity sectors negated
        lam = m.local_spectrum
        signs, even, odd = dephasing._parity_sectors(m.fock_dim, m.n_pairs)
        assert (even.size, odd.size) == (113, 112)
        for j in (0, 1):
            k_plus = dephasing._kept_bath(grid.o[j], lam)
            for i in range(grid.times.size):
                gauges = [o[i] for o in grid.o[j]]
                assert np.array_equal(k_plus[i], functools.reduce(np.kron, [(o * lam) @ o.T for o in gauges]))
                k_minus = functools.reduce(np.kron, [(o.T * lam) @ o for o in gauges])
                assert np.abs(k_plus[i] * np.outer(signs, signs) - k_minus).max() <= 1e-15


class TestSnapshotOverlaps:
    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_omega_is_product_of_pair_overlaps(self, env_kind):
        # the per-pair loop: Omega[s, s'] = prod_m Tr[Phi_s rho_m Phi_s'^dag]
        p = DephasingParams(**DESK, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=2, n_max=12)
        grid = dephasing._Snapshot(m, [0.0, 1.3, 3.7])
        for t_idx in range(grid.times.size):
            d1, d2 = _displacements(grid, t_idx)
            ref = np.ones((4, 4), dtype=complex)
            for k in range(m.n_pairs):
                psi = dephasing._pair_states(d1[k], d2[k], m.pair_weights)
                for (i, ket), (j, bra) in itertools.product(enumerate(dephasing._SIGMAS), repeat=2):
                    if env_kind == "entangled":
                        ref[i, j] *= np.vdot(psi[bra], psi[ket])
                    else:
                        c1 = np.diag(d1[k][bra[0]].conj().T @ d1[k][ket[0]])
                        c2 = np.diag(d2[k][bra[1]].conj().T @ d2[k][ket[1]])
                        ref[i, j] *= (m.pair_weights * c1 * c2).sum()
            assert np.abs(grid.omega[t_idx] - ref).max() <= 1e-14


class TestStackedSnapshot:
    """One snapshot of a grid holds, time by time, the bits of a one-point snapshot, and the
    branch series read from it the bits of ``entropies_at``."""

    TIMES = [0.0, 0.7, 2.5, 3.1, 4.2, 5.0]  # no bath displaced at 0, bath 2 not until t2s = 2.5

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    @pytest.mark.parametrize("n_modes", [1, 2])
    @pytest.mark.parametrize("budget", [dephasing.DEFAULT_BUDGET, 20])  # 20^2 // (4 * 5^2): 4 times a chunk
    def test_grid_matches_one_point_snapshots(self, env_kind, n_modes, budget):
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind), n_modes, 4)
        grid = dephasing._Snapshot(m, self.TIMES, budget)
        assert not grid.displaced[0].any() and list(grid.displaced[1]) == [True, False]
        assert all(np.array_equal(o[1], np.eye(5)) for o in grid.o[1])  # alpha = 0: O = 1
        for i, t in enumerate(self.TIMES):
            one = dephasing._Snapshot(m, [t])
            assert np.array_equal(grid.displaced[i], one.displaced[0])
            assert np.array_equal(grid.omega[i], one.omega[0])
            for name in ("o", "r", "c"):
                for per_pair, ref in zip(getattr(grid, name), getattr(one, name)):
                    assert len(per_pair) == (m.n_pairs if name != "c" or env_kind == "classical" else 0)
                    assert all(np.array_equal(a[i], b[0]) for a, b in zip(per_pair, ref))

    def test_gauges_match_one_alpha_at_a_time(self):
        alphas = [0.0, 0.7, 0.4 - 1.1j, np.complex128(-2.3 + 0.2j), 1e-9j]
        o, r = dephasing._real_gauges(15, alphas)
        for i, alpha in enumerate(alphas):
            (o1,), (r1,) = dephasing._real_gauges(15, [alpha])
            assert np.array_equal(o[i], o1) and np.array_equal(r[i], r1)

    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    def test_series_match_entropies_at(self, env_kind):
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind), 2, 3)
        wide = random_pure_state(SystemPartition([("A", 3), ("S1", 2), ("S2", 2)]), 4)
        a_s = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        for state in (measures.ops_state(), random_density_matrix(a_s, 2, 5), wide):
            comp = dephasing.BranchComputer(m, state)
            env_free = comp._entropy(dephasing._Snapshot(m, self.TIMES), list(dephasing._ENV_FREE.values()))
            series = comp.trajectories(self.TIMES)
            for i, t in enumerate(self.TIMES):
                for part in dephasing.ENV_PARTS:
                    ent = comp.entropies_at(t, part)
                    assert ent["cmi"] == series[part].values[i]
                    assert all(ent[name] == env_free[k][i] for name, k in dephasing._ENV_FREE.items())
                assert ent["mi_sa"] == series["mi_sa"].values[i]

    def test_strong_subadditivity_is_checked_time_by_time(self, monkeypatch):
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}), 1, 4)
        comp = dephasing.BranchComputer(m, measures.ops_state())
        e = comp.entropies_at(3.1, "E1")  # the first failing (time, env part) below
        first = (e["S_AS"] - 1.0) + e["S_SE"] - e["S_S"] - e["S_ASE"]
        real = comp._entropy
        s_as = frozenset({"A", "S"})

        def broken(snap, kept_sets):  # S(A S) one nat too small at t = 3.1, two at t = 4.2
            out = real(snap, kept_sets)
            return {**out, s_as: out[s_as] - np.select([snap.times == 3.1, snap.times == 4.2], [1.0, 2.0])}

        monkeypatch.setattr(comp, "_entropy", broken)
        with pytest.raises(RuntimeError, match=r"branch CMI -0\.\d+ violates strong subadditivity"):
            comp.trajectories(self.TIMES, env_parts=("E1E2",))
        with pytest.raises(RuntimeError, match=re.escape(f"branch CMI {first} violates")):
            comp.trajectories(self.TIMES, env_parts=("E1", "E2"))
        with pytest.raises(RuntimeError, match="violates strong subadditivity"):
            comp.entropies_at(3.1, "E1")
        comp.trajectories([t for t in self.TIMES if t not in (3.1, 4.2)])  # every other time passes

    def test_snapshot_of_another_grid_is_refused(self):
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}), 1, 4)
        comp = dephasing.BranchComputer(m, measures.ops_state())
        with pytest.raises(ValueError, match="another model or time grid"):
            comp.trajectories([0.0, 1.0], snap=dephasing._Snapshot(m, [0.0, 2.0]))


class TestBranchSolves:
    def test_two_parity_sector_solves_per_kept_bath_and_three_env_free(self, monkeypatch):
        # entangled ops_state cmi run at 2 pairs, n_max 14: per time point, the
        # S_ASE of E1 and E2 are the only kept-bath solves (the blocks M_+ and M_-
        # of S_SE are orthogonal, so its spectrum needs none); their M_+ = M_- =
        # 1/2, so each is one real solve per joint-parity sector of the 225-dim
        # bath (113 even, 112 odd), and eig(M_+ + M_-) is solved once, before the
        # run. Until t2s = 2.5 bath 2 is not displaced, and keeping it needs no
        # solve. S_AS, S_S, S_A are solved once for all three env parts. Every
        # solve is a stack over the grid, here of one point
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
            comp.trajectories([t], env_parts=("E1", "E2", "E1E2"))
            displaced = 2 if t > p.t2s else 1
            assert sorted(solves) == sorted(
                [((1, 113, 113), np.dtype(np.float64))] * displaced
                + [((1, 112, 112), np.dtype(np.float64))] * displaced
                + [((1, k, k), np.dtype(np.complex128)) for k in (2, 4, 8)]
            )
            solves.clear()

    @pytest.mark.parametrize("candidate,rule,sides", [
        ("ops_state", "sectors", [112, 113]),  # M_+ = M_- = 1/2
        ("flagged", "assembled", [225]),  # M_+ = 0.4096, M_- = 0.5904
    ], ids=["ops_state", "flagged"])
    def test_kept_bath_rule_follows_the_blocks(self, monkeypatch, candidate, rule, sides):
        # S_ASE of E1 at 2 pairs, n_max 14 keeps E2 alone (rule (c)), with A traced
        p = DephasingParams(omega_c=0.05, r=0.8, alpha1=4.0, alpha2=4.0,
                            t1s=0.0, t1f=2.5, t2s=2.5, t2f=4.2, env_kind="entangled")
        m = build_discrete_model(p, n_modes=2, n_max=14)
        state = (measures.ops_state() if candidate == "ops_state" else measures.flagged_ancilla_state(
            [0.6, 0.48, 0.64], [1, 1, 2], SystemPartition([("S1", 2), ("S2", 2)])))
        comp = dephasing.BranchComputer(m, state)
        assert comp._baths[frozenset({"E2"})][0] == rule
        solves = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape[-1]) or real(a))
        comp._entropy(dephasing._Snapshot(m, [3.7]), [frozenset({"A", "S", "E1"})])
        assert sorted(solves) == sides

    def test_classical_e1e2_makes_no_bath_solve(self, monkeypatch):
        # classical ops_state run at 2 pairs, n_max 14: E1E2 keeps S and both
        # baths, whose entropies are S(rho0_K) + S(rho_E) at every t, so it adds
        # nothing to the three env-free solves; E1 and E2 each add two batches
        # of 225 Fock-index blocks, 2 x 2 on the support of rho0
        p = DephasingParams(omega_c=0.05, r=0.8, alpha1=4.0, alpha2=4.0,
                            t1s=0.0, t1f=2.5, t2s=2.5, t2f=4.2, env_kind="classical")
        m = build_discrete_model(p, n_modes=2, n_max=14)
        comp = dephasing.BranchComputer(m, measures.ops_state())
        solves = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: solves.append((a.shape, a.dtype)) or real(a)
        )
        env_free = [((1, k, k), np.dtype(np.complex128)) for k in (2, 4, 8)]
        blocks = [((1, 225, 2, 2), np.dtype(np.complex128))] * 4
        for t in np.linspace(0.5, 4.0, 5):
            for parts, bath in ((("E1E2",), []), (("E1", "E2", "E1E2"), blocks)):
                comp.trajectories([t], env_parts=parts)
                assert sorted(solves) == sorted(env_free + bath)
                solves.clear()

    @pytest.mark.parametrize("env_kind,candidate,kept,rule,per_time,stacks_per_chunk", [
        ("entangled", "ops_state", {"E1"}, "sectors", 25, 3),  # K(+) of the 5-dim bath, its two blocks
        ("entangled", "flagged", {"E1"}, "assembled", 25, 2),  # K(+), the 5-dim operator
        ("classical", "ops_state", {"S", "E1"}, "blocks", 20, 1),  # 5 Fock blocks of 2 x 2
    ])
    def test_rules_over_the_grid_solve_in_bounded_chunks(self, monkeypatch, env_kind, candidate, kept, rule,
                                                        per_time, stacks_per_chunk):
        # at budget 20 a stack holds at most 20^2 = 400 entries, here 16 times of rule (d)
        # and 20 of rule (e); rule (d) solves the 40 displaced times of 41, rule (e) all of
        # them, and the series keep the bits of the default budget (one stack of the grid)
        p = DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=1, n_max=4)
        state = (measures.ops_state() if candidate == "ops_state" else measures.flagged_ancilla_state(
            [0.6, 0.48, 0.64], [1, 1, 2], SystemPartition([("S1", 2), ("S2", 2)])))
        times = np.linspace(0.0, 5.0, 41)
        kept = frozenset(kept)
        comp = dephasing.BranchComputer(m, state, budget=20)
        assert rule == "blocks" or comp._baths[kept][0] == rule
        stacks = []
        real_eig, real_kept = np.linalg.eigvalsh, dephasing._kept_bath
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.shape) or real_eig(a))
        monkeypatch.setattr(dephasing, "_kept_bath", lambda *args: (k := real_kept(*args), stacks.append(k.shape))[0])
        chunked = comp._entropy(dephasing._Snapshot(m, times, 20), [kept])[kept]
        monkeypatch.undo()
        step, solved = 400 // per_time, times.size - (rule != "blocks")
        assert all(math.prod(shape) <= 400 for shape in stacks)
        assert [shape[0] for shape in stacks[::stacks_per_chunk]] == [step] * (solved // step) + [solved % step]
        one_stack = dephasing.BranchComputer(m, state)._entropy(dephasing._Snapshot(m, times), [kept])[kept]
        assert np.array_equal(chunked, one_stack)


def _kron_evolved(model, initial, t):
    """The full-matrix evolution kron(1_A, blockdiag_s U_s) rho0 U^dag on [A, S1, S2, E], kept as the test oracle.

    rho0 = initial (x) env, with env the product over pairs of the truncated
    two-mode squeezed vacuum sum_k u^k |k k> (entangled) or of its
    Fock-diagonal counterpart sum_k u^(2k) |k k><k k| (classical), normalised.
    """
    n = model.fock_dim
    dim_env = (n * n) ** model.n_pairs
    diag = np.arange(n) * (n + 1)  # |k k> in one pair's n*n space
    pair = np.zeros((n * n, n * n), dtype=complex)
    if model.env_kind == "entangled":
        v = model.u ** np.arange(n)
        pair[np.ix_(diag, diag)] = np.outer(v, v) / (v @ v)
    else:
        p = model.u ** (2 * np.arange(n))
        pair[diag, diag] = p / p.sum()
    rho0 = np.kron(initial.data, functools.reduce(np.kron, [pair] * model.n_pairs))
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
    u = np.kron(np.eye(initial.partition.dims[0]), u_mat)
    return u @ rho0 @ u.conj().T


class TestDenseComputer:
    @pytest.mark.parametrize("env_kind", ENV_KINDS)
    @pytest.mark.parametrize("n_modes,n_max", [(1, 4), (2, 2)])
    def test_blockwise_matches_kron_evolution(self, env_kind, n_modes, n_max):
        p = DephasingParams(**{**DESK, "r": 0.2}, env_kind=env_kind)
        m = build_discrete_model(p, n_modes=n_modes, n_max=n_max)
        part = SystemPartition([("A", 2), ("S1", 2), ("S2", 2)])
        for initial in (measures.ops_state(), random_pure_state(part, 4)):
            dense = dephasing.DenseComputer(m, initial)
            # the rows (a, s, e) of [A, S1, S2, E] whose a and s some live row of rho0 uses
            x = initial.data
            live = np.flatnonzero(x.any(axis=1) | x.any(axis=0))
            blocks = [4 * a + s for a in np.unique(live // 4) for s in np.unique(live % 4)]
            dim_env = m.fock_dim ** (2 * n_modes)
            kept = (np.array(blocks)[:, None] * dim_env + np.arange(dim_env)).ravel()
            dropped = np.setdiff1d(np.arange(8 * dim_env), kept)
            for t in (1.3, 3.7):
                ref = _kron_evolved(m, initial, t)
                assert np.max(np.abs(dense.state_at(t).data - ref[np.ix_(kept, kept)])) <= 1e-13
                assert not ref[dropped].any() and not ref[:, dropped].any()

    def test_side_keeps_the_live_ancilla_values_and_system_labels(self):
        # the check model has 2 x 4 x 49 = 392 rows on [A, S1, S2, E]: ops_state uses
        # 2 ancilla values and 2 system labels, the coherence probe 1 and 4, a rank-8
        # state all of them; the budget still bounds the nominal 392
        m = build_discrete_model(DephasingParams(omega_c=0.25, r=0.5, env_kind="entangled"), 1, 6)
        probe = pure_state(np.r_[np.full(4, 0.5), np.zeros(4)], measures.AS_PARTITION)
        rank8 = random_density_matrix(measures.AS_PARTITION, 8, 3)
        for initial, dims in ((measures.ops_state(), (2, 2)), (probe, (1, 4)), (rank8, (2, 4))):
            dense = dephasing.DenseComputer(m, initial)
            assert dense.partition.dims[:2] == dims
            assert dense.state_at(1.5).dim == {(2, 2): 196, (1, 4): 196, (2, 4): 392}[dims]
            with pytest.raises(dephasing.BudgetError, match="dense dimension 392 exceeds budget 391"):
                dephasing.DenseComputer(m, initial, budget=391)

    @pytest.mark.parametrize("computer", ["BranchComputer", "DenseComputer"])
    def test_rejects_a_non_qubit_system(self, computer):
        # both computers share one input check; a qutrit S1 never reaches the dense evolution
        m = build_discrete_model(DephasingParams(**{**DESK, "r": 0.2}, env_kind="entangled"), 1, 4)
        state = random_pure_state(SystemPartition([("A", 2), ("S1", 3), ("S2", 2)]), 0)
        with pytest.raises(ValueError, match="S1 and S2 must be qubits"):
            getattr(dephasing, computer)(m, state)

    def test_one_state_per_time(self, monkeypatch):
        # ops_state has 2 live (a, s) rows of 8, on 2 ancilla values and 2 system
        # labels: the 100-dim state on [A', S', E] is solved on its 50-dim support,
        # once per time, and never at full size
        p = DephasingParams(**{**DESK, "r": 0.2}, env_kind="entangled")
        m = build_discrete_model(p, n_modes=1, n_max=4)
        dense = dephasing.DenseComputer(m, measures.ops_state())
        dim = dense.partition.total_dim
        validating = []
        solves = []  # (dimension of the state being validated, dimension solved)
        real_post = dephasing.DensityMatrix.__post_init__

        def post_init(state):
            validating.append(state.partition.total_dim)
            try:
                real_post(state)
            finally:
                validating.pop()

        real = np.linalg.eigvalsh
        monkeypatch.setattr(dephasing.DensityMatrix, "__post_init__", post_init)
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: solves.append((validating[-1], a.shape[0])) or real(a)
        )
        for k, t in enumerate((1.3, 3.7), start=1):
            for part in dephasing.ENV_PARTS:
                dense.entropies_at(t, part)
            dense.system_state(t)
            assert [n for of, n in solves if of == dim] == [50] * k
            assert max(n for _, n in solves) < dim

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
        # at n_max 14, 3 and 4 pairs keep 3375- and 50625-dim baths, but the
        # classical entropies of a cmi run are constants (rule (b)) and batches of
        # 2 x 2 Fock-index blocks (rule (e)): only the batch grows with the pairs
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
            assert_allclose(rho[2, 0] / 0.25, pf["k1"], atol=1e-12)
            assert_allclose(rho[2, 1] / 0.25, pf["lam12"], atol=1e-12)

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
                    worst = max(worst, abs(abs(pf_d[key]) - abs(pf_c[key])))
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
                    worst = max(worst, abs(abs(pf_d[key]) - abs(pf_c[key])))
            devs.append(worst)
        assert devs[0] > devs[1] > devs[2]


class TestSystemTrajectory:
    def test_channel_linearity_matches_pure_construction(self):
        p = DephasingParams(**DESK, env_kind="entangled")
        a = np.array([0.5, 0.5, 0.5, 0.5])
        part = SystemPartition([("S1", 2), ("S2", 2)])
        traj = system_trajectory(p, pure_state(a, part), [0.0, 2.0, 4.0])
        for t, st in zip(traj.times, traj.states.data):
            direct = system_state(p, a, t)
            assert_allclose(st, direct.data, atol=1e-12)


class TestSharedCaches:
    """Threads that share a model read the per-Fock-dimension caches together."""

    @pytest.mark.parametrize("name,args,builder", [
        ("_quadrature_modes", (97,), "_ladder"),
        ("_parity_sectors", (5, 3), "reduce"),
    ])
    def test_threads_that_miss_together_build_an_entry_once(self, name, args, builder, monkeypatch):
        cached = getattr(dephasing, name)
        cached.cache_clear()
        real = getattr(dephasing, builder)
        built = []

        def slow(*a):
            built.append(a)
            time.sleep(0.2)  # every thread has missed the entry by then
            return real(*a)

        monkeypatch.setattr(dephasing, builder, slow)
        threads = 4
        together = threading.Barrier(threads)

        def call(_):
            together.wait(timeout=10)
            return cached(*args)

        with ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(call, range(threads), timeout=30))
        cached.cache_clear()
        assert len(built) == 1
        assert all(r is results[0] for r in results)
