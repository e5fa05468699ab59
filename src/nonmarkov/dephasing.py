"""Two dephasing qubits coupled to two bosonic baths with correlated pair states.

Each qubit couples to its own multimode bath through sigma_z during its own
time window, so every environment mode is conditionally displaced and the
system coherences acquire characteristic-function factors.  Two initial
environment states are supported per mode pair: a two-mode squeezed vacuum
("entangled") and its Fock-diagonal counterpart with the same thermal
marginals ("classical").

Two computation routes are provided:

* continuum phase factors in closed form (logarithm plus exponential
  integral) for the spectral density J_j(w) = alpha_j * w * exp(-w / omega_c)
  cut off at cutoff_mult * omega_c;
* a discrete-mode model (Gauss rule with J as the weight function) whose
  truncated Fock dynamics supports conditional-mutual-information
  trajectories for a pure or mixed initial state on [A, S1, S2], plus a
  dense full-Hilbert-space path used as an independent cross-check.

The environment branch of a term depends only on its system label s, so
rho(t) = sum_{s,s'} X_{ss'} (x) |s><s'| (x) |E_s><E_s'| with X_{ss'} = <s|rho0|s'>
a block on A.  Each entropy is that of a kept set K, a subset of ``LABELS`` =
{A, S, E1, E2} (S = S1 S2, Ej = the modes of bath j).  ``BranchComputer._entropy``
takes it from one of five rules over the s-blocks, each over a whole time grid: a
marginal of rho_AS(t) when K holds no bath, a constant when K holds S and both
baths, the complement of K in a pure global state (a register Q purifies a mixed
rho0) when the environment is entangled and K holds S and one bath, a solve in the
real gauge D(sigma beta) = R O(sigma) R^dag (R diagonal, O real orthogonal) when K
holds one bath and not S (the two labels' kept baths are related by the joint
parity (-1)^(sum_m n_m), so when both weigh the same the solve splits into its even
and odd sectors; a bath not yet displaced needs none), and Fock-index blocks for a
classical state when K holds S and one bath.

Conventions: sigma_z = diag(+1, -1); the coupling is factored out of the
single-mode displacement response and carried by the spectral density (the
Gauss-rule weights in the discrete model); energies eps_i contribute only
unimodular phases and default to zero.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce, wraps
from typing import Sequence

import numpy as np

from . import info
from .measures import S_PARTITION, ScalarSeries, StateTrajectory
from .states import DensityMatrix, SystemPartition, partial_trace, pure_state, spectrum_entropy

ENV_KINDS = ("entangled", "classical")
ENV_PARTS = ("E1", "E2", "E1E2")
BATHS = ("E1", "E2")  # bath j of the model is BATHS[j]
LABELS = frozenset({"A", "S", *BATHS})  # every kept set is a subset of these
RANK_CUTOFF = 1e-14  # eigenvalues of the Gram matrix G at or below this are left out of a mixed rho0's purification
DEFAULT_BUDGET = 4096  # the default side bound of ``BudgetError``
_CHUNK_ENTRIES = 2 ** 14  # entries of the largest stack a ``_Snapshot`` builds at once, within budget^2 too
_MAX_COSH_ARG = math.acosh(np.finfo(float).max)  # math.cosh overflows above this

class TruncationError(ValueError):
    """Fock truncation captures too little of the initial environment state."""


class BudgetError(RuntimeError):
    """A solve or the dense state exceeds the configured dimension budget.

    The budget bounds the Fock dimension, the operator of rule (d) and the
    dense state; every other array of the branch path that grows with the pair
    count (rule (d)'s spectrum without a solve, rule (e)'s Fock blocks) may
    hold at most budget^2 entries, as many as the largest operator the budget
    admits.
    """


@dataclass(frozen=True)
class QuadratureConfig:
    """Frequency cutoff shared by the continuum factors and the discrete Gauss rule."""

    cutoff_mult: float = 60.0    # the spectral density lives on (0, cutoff_mult * omega_c]

    def __post_init__(self):
        if self.cutoff_mult <= 0:
            raise ValueError("cutoff_mult must be positive")


@dataclass(frozen=True)
class DephasingParams:
    """Physical and numerical parameters of the two-qubit/two-bath model.

    ``u`` is the classical-correlation parameter of the Fock-diagonal
    environment state; it defaults to tanh(r), which matches the thermal
    marginals of the squeezed state, and is rejected for the entangled one.
    """

    omega_c: float
    r: float = 0.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    eps1: float = 0.0
    eps2: float = 0.0
    t1s: float = 0.0
    t1f: float = 2.5
    t2s: float = 2.5
    t2f: float = 5.0
    env_kind: str = "entangled"
    u: float | None = None
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.omega_c <= 0:
            raise ValueError("omega_c must be positive")
        if self.r < 0 or self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("r and couplings must be nonnegative")
        if not 0.0 <= self.t1s <= self.t1f <= self.t2s <= self.t2f:  # the evolution starts at t = 0
            raise ValueError("interaction windows must satisfy 0 <= t1s <= t1f <= t2s <= t2f")
        if self.env_kind not in ENV_KINDS:
            raise ValueError(f"env_kind must be one of {ENV_KINDS}")
        if self.u is not None and self.env_kind != "classical":
            raise ValueError("u applies only to env_kind 'classical'")
        if self.u is not None and not 0.0 <= self.u < 1.0:
            raise ValueError("u must lie in [0, 1)")
        if self.env_kind == "classical" and self.u_eff == 1.0:
            raise ValueError(f"r = {self.r} is too large: u = tanh(r) rounds to 1")
        if self.env_kind == "entangled" and 2 * self.r > _MAX_COSH_ARG:
            raise ValueError(f"r = {self.r} is too large: cosh(2r) overflows")

    @property
    def u_eff(self) -> float:
        return math.tanh(self.r) if self.u is None else self.u

    @property
    def window1(self) -> tuple[float, float]:
        return (self.t1s, self.t1f)

    @property
    def window2(self) -> tuple[float, float]:
        return (self.t2s, self.t2f)


# ---------------------------------------------------------------------------
# single-mode response and characteristic functions


def beta(omega: float, t: float, window: tuple[float, float]) -> complex:
    """Coupling-free displacement response of one bath mode.

    beta = (1/w) e^{i w ts} (1 - e^{i w tau}) with tau the elapsed overlap of
    t with the window; zero before the window opens, frozen after it closes.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    ts, tf = window
    tau = min(max(t, ts), tf) - ts
    if tau <= 0.0:
        return 0.0 + 0.0j
    return np.exp(1j * omega * ts) * (1.0 - np.exp(1j * omega * tau)) / omega


def log_bessel_i0(z: np.ndarray | float) -> np.ndarray | float:
    """ln I0(z) for real z, overflow-free for any argument.

    Below |z| = 20 it is log1p of the power series sum_{k>=1} (z^2/4)^k / (k!)^2
    (40 terms, all positive), which keeps full relative accuracy as z -> 0 and
    gives exactly 0 at z = 0.  Above, it is the asymptotic series
    z - ln(2 pi z)/2 + ln sum_k ((2k-1)!!)^2 / (k! (8z)^k), cut at 30 terms,
    whose last term is below 3e-18 there.
    """
    x = np.abs(np.asarray(z, dtype=float))
    out = np.empty_like(x)
    small = x < 20.0
    q = 0.25 * x[small] ** 2
    term = q.copy()
    acc = q.copy()
    for k in range(2, 41):
        term *= q / (k * k)
        acc += term
    out[small] = np.log1p(acc)
    big = x[~small]
    term = np.ones_like(big)
    acc = np.ones_like(big)
    for k in range(1, 31):
        term *= (2 * k - 1) ** 2 / (8.0 * k * big)
        acc += term
    out[~small] = big - 0.5 * np.log(2.0 * math.pi * big) + np.log(acc)
    return out if out.ndim else float(out)


def classical_char_factor(g1abs: float, g2abs: float, r: float) -> float:
    """-(cosh 2r)/4 * f + ln I0(g sinh(2r)/2), f = 2(g1^2+g2^2), g = 2 g1 g2.

    This is the classical pair-state factor with correlation u = tanh r.
    """
    f = 2.0 * (g1abs * g1abs + g2abs * g2abs)
    g = 2.0 * g1abs * g2abs
    return float(-0.25 * math.cosh(2 * r) * f + log_bessel_i0(0.5 * g * math.sinh(2 * r)))


def entangled_char_factor(gamma1: complex, gamma2: complex, r: float) -> float:
    """Log magnitude of <D1(g1) D2(g2)> in the two-mode squeezed vacuum.

    -(cosh 2r)(|g1|^2+|g2|^2)/2 + (sinh 2r) Re(g1 g2); the bilinear-term
    convention corresponds to <b1 b2> = +sinh(2r)/2 and is pinned by the
    truncated-Fock oracle.
    """
    g1 = complex(gamma1)
    g2 = complex(gamma2)
    return float(
        -0.5 * math.cosh(2 * r) * (abs(g1) ** 2 + abs(g2) ** 2)
        + math.sinh(2 * r) * (g1 * g2).real
    )


def displaced_fock_overlap(n: int, x: float) -> float:
    """<n| exp(-i x p) |n> = exp(-x^2/4) L_n(x^2/2) via the Laguerre recurrence."""
    if n < 0 or n > 10**4:
        raise ValueError("n out of supported range")
    z = 0.5 * x * x
    prev, cur = 1.0, 1.0 - z
    if n == 0:
        cur = prev
    else:
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1 - z) * cur - k * prev) / (k + 1)
    return float(math.exp(-0.25 * x * x) * cur)


# ---------------------------------------------------------------------------
# continuum phase factors in closed form

_EULER_GAMMA = 0.5772156649015329


def _exp1(z: np.ndarray) -> np.ndarray:
    """Exponential integral E1(z) for complex z with Re z > 0 (NumPy only).

    Power series -gamma - ln z - sum_k (-z)^k / (k k!) for |z| <= 2, and the
    even continued fraction e^{-z} / (z+1 - 1/(z+3 - 4/(z+5 - ...))) by the
    modified Lentz method otherwise.  Each element stops at its own
    convergence, so its value does not depend on the rest of the array.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) <= 2.0
    eps = np.finfo(float).eps

    zs = z[small]
    term = -zs
    total = term
    k = 1
    active = np.ones(zs.shape, dtype=bool)
    while active.any():
        k += 1
        term = term * -zs / k
        inc = term / k
        total = np.where(active, total + inc, total)
        active &= np.abs(inc) > eps * np.abs(total)
    out[small] = -_EULER_GAMMA - np.log(zs) - total

    zl = z[~small]
    b = zl + 1.0
    d = 1.0 / b
    h = d
    c = np.full_like(zl, 1e300)  # Lentz's C_0 = infinity
    n = 0
    active = np.ones(zl.shape, dtype=bool)
    while active.any():
        n += 1
        an = -float(n * n)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h = np.where(active, h * delta, h)
        active &= np.abs(delta - 1.0) > 4.0 * eps
    out[~small] = h * np.exp(-zl)
    return out


def _decay_series(k: float, b: np.ndarray) -> np.ndarray:
    """F(b) = sum_m (-1)^{m+1} P(2m, K) b^{2m} / (2m) for 0 <= b <= 1/2.

    This is the cosine series integrated term by term, with P(n, K) =
    1 - e^{-K} sum_{j<n} K^j / j! the regularized lower incomplete gamma
    function.  The terms shrink at least like 4^{-m}, and F keeps its
    relative accuracy as b -> 0, where ln s and the two E1 values of the
    closed form nearly cancel (an absolute error of eps * E1(K) there is
    amplified by 4 cosh(2r) in the log factors).
    """
    b2 = b * b
    power = b2
    poisson = math.exp(-k)          # e^{-K} K^j / j!, j = 0
    head = poisson                  # e^{-K} sum_{j<n} K^j / j!
    total = np.zeros_like(b)
    m = 0
    active = np.ones(b.shape, dtype=bool)
    while active.any():
        m += 1
        poisson *= k / (2 * m - 1)
        head += poisson
        term = (1.0 - head) * power / (2 * m)
        total = np.where(active, total + term if m % 2 else total - term, total)
        active &= term > np.finfo(float).eps * total
        poisson *= k / (2 * m)
        head += poisson
        power = power * b2
    return total


def _decay_integral(params: DephasingParams, a: np.ndarray) -> np.ndarray:
    """F(a) = int_0^{K omega_c} e^{-w/omega_c} (1 - cos a w) / w dw, elementwise.

    With K = cutoff_mult, b = |a| omega_c and s = 1 - i b,
    F = Re[ln s + E1(K s) - E1(K)].  Each distinct b is computed once:
    by ``_decay_series`` for b <= 1/2 (so F(0) is exactly 0), and by the
    closed form otherwise, with one E1 call that also gives E1(K).
    """
    k = params.quad.cutoff_mult
    b, inverse = np.unique(np.abs(a) * params.omega_c, return_inverse=True)
    f = np.empty_like(b)
    near = b <= 0.5
    f[near] = _decay_series(k, b[near])
    far = b[~near]
    e1 = _exp1(k * (1.0 - 1j * np.append(0.0, far))).real
    with np.errstate(over="ignore"):
        far2 = far * far
    # ln|s| = log1p(b^2) / 2, which is ln b to double precision where b^2 overflows
    f[~near] = np.where(np.isinf(far2), np.log(far), 0.5 * np.log1p(far2)) + e1[1:] - e1[0]
    return f[inverse].reshape(a.shape)


def _scaled(coef: float, f: np.ndarray) -> np.ndarray:
    """``coef * f``, but exactly 0 where f is 0 (a closed window), even for an infinite coef."""
    out = np.zeros_like(f)
    live = f != 0.0
    out[live] = coef * f[live]
    return out


def _log_factor_grid(params: DephasingParams, times: np.ndarray) -> dict[str, np.ndarray]:
    """Log magnitudes (T,) of the four coherence patterns.

    A coupling g_j = 2 sqrt(J_j) beta_j has int |g_j|^2 = 8 alpha_j F(tau_j),
    and the squeezing cross term int Re(g1 g2) = -4 sqrt(alpha1 alpha2)
    sum_k c_k F(x_k), with x = A + (0, tau1, tau2, tau1 + tau2),
    c = (1, -1, -1, 1) and A = t1s + t2s.

    The classical pair correlations leave no cross term: per mode they
    contribute ln I0(~ coupling^2) = O(dw^2), which vanishes in the continuum
    limit, so the classical patterns are purely marginal (any finite-mode
    realization retains the per-mode I0 factor; see ``classical_char_factor``
    and the discrete model).
    """
    tau1 = np.clip(times, params.t1s, params.t1f) - params.t1s
    tau2 = np.clip(times, params.t2s, params.t2f) - params.t2s
    shift = params.t1s + params.t2s
    f1, f2, fa, fa1, fa2, fa12 = _decay_integral(params, np.stack([
        tau1, tau2, np.full_like(tau1, shift), shift + tau1, shift + tau2, shift + tau1 + tau2,
    ]))
    # grouped so that the sum is exactly 0 while either window is still closed
    x = (fa + fa12) - (fa1 + fa2)
    if params.env_kind == "classical":
        u = params.u_eff
        c = (1.0 + u * u) / (1.0 - u * u)
        corr = 0.0
        cross = 0.0
    else:
        c = math.cosh(2 * params.r)
        corr = math.tanh(2 * params.r) * math.sqrt(params.alpha1 * params.alpha2)
        cross = _scaled(-4.0 * math.sinh(2 * params.r) * math.sqrt(params.alpha1 * params.alpha2), x)
    single1 = _scaled(-4.0 * c * params.alpha1, f1)
    single2 = _scaled(-4.0 * c * params.alpha2, f2)
    marg = single1 + single2
    logs = {"single1": single1, "single2": single2}
    for name, sign in (("same", 1.0), ("opp", -1.0)):
        with np.errstate(invalid="ignore"):  # -inf + inf once 4 cosh(2r) overflows; regrouped below
            lg = marg + sign * cross
        bad = ~np.isfinite(lg)
        # -4 cosh(2r) [alpha1 F1 + alpha2 F2 +- tanh(2r) sqrt(alpha1 alpha2) x], whose bracket is finite
        lg[bad] = -4.0 * (c * (params.alpha1 * f1[bad] + params.alpha2 * f2[bad] + sign * corr * x[bad]))
        logs[name] = lg
    return logs


# the sigma_z eigenvalues (sigma1, sigma2) of each system label |s1 s2>, index 2 s1 + s2
_SIGMAS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

# (row, column) of each named factor in the 4x4 coherence matrix, in CSV column order
_FACTOR_INDEX = {
    "k1": (2, 0), "k2": (1, 0), "k1t": (3, 1), "k2t": (3, 2), "k12": (3, 0), "lam12": (2, 1),
}


def phase_factor_grid(params: DephasingParams, times: Sequence[float]) -> dict[str, np.ndarray]:
    """The six coherence factors by name, in ``_FACTOR_INDEX`` order, each a complex array over the times."""
    mats = coherence_factor_matrices(params, times)
    return {name: mats[:, i, j] for name, (i, j) in _FACTOR_INDEX.items()}


def phase_factors(params: DephasingParams, t: float) -> dict[str, complex]:
    """The six coherence factors by name at one time (all equal 1 for t <= t1s)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return {name: complex(v[0]) for name, v in phase_factor_grid(params, [t]).items()}


def coherence_factor_matrices(params: DephasingParams, times: Sequence[float]) -> np.ndarray:
    """(T, 4, 4) multiplicative coherence factors of the dephasing channel."""
    t = np.asarray(times, dtype=float).reshape(-1)
    logs = _log_factor_grid(params, t)
    out = np.ones((t.size, 4, 4), dtype=complex)
    for i, (a1, a2) in enumerate(_SIGMAS):
        for j, (b1, b2) in enumerate(_SIGMAS):
            m1, m2 = a1 - b1, a2 - b2
            if m1 == 0 and m2 == 0:  # i == j
                continue
            if m2 == 0:
                lg = logs["single1"]
            elif m1 == 0:
                lg = logs["single2"]
            elif m1 * m2 > 0:
                lg = logs["same"]
            else:
                lg = logs["opp"]
            phase = -(m1 * params.eps1 + m2 * params.eps2)
            out[:, i, j] = np.exp(lg + 1j * phase * t)
    return out


def system_state(params: DephasingParams, amplitudes, t: float) -> DensityMatrix:
    """The 4x4 dephased system state from initial amplitudes a_{ij} of |ij>."""
    rho0 = pure_state(amplitudes, S_PARTITION)
    return DensityMatrix(rho0.data * coherence_factor_matrices(params, [t])[0], S_PARTITION, _owned=True)


def system_trajectory(params: DephasingParams, rho0: DensityMatrix, times: Sequence[float]) -> StateTrajectory:
    """Dephasing-channel trajectory of a two-qubit system state, one validated stack over the times."""
    t = np.asarray(times, dtype=float).reshape(-1)
    states = DensityMatrix(rho0.data * coherence_factor_matrices(params, t), rho0.partition, _owned=True)
    return StateTrajectory(t, states)


# ---------------------------------------------------------------------------
# discrete-mode model


@dataclass(frozen=True)
class DiscreteDephasingModel:
    """Finite mode-pair realization of the two-bath model on truncated Fock space; it stores only
    its inputs, and derives the pair state from ``params`` once."""

    mode_pairs: tuple[tuple[float, float, float], ...]  # (omega, g1, g2)
    n_max: int
    params: DephasingParams

    @property
    def env_kind(self) -> str:
        return self.params.env_kind

    @property
    def u(self) -> float:
        return self.params.u_eff

    @property
    def n_pairs(self) -> int:
        return len(self.mode_pairs)

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1

    @property
    def captured_trace(self) -> float:
        return (1.0 - self.u ** (2 * self.fock_dim)) ** self.n_pairs

    @cached_property
    def pair_weights(self) -> np.ndarray:
        """One pair's state on its |k k>, read-only: the squeezed vacuum's Schmidt amplitudes
        ~ u^k, or the classical Fock weights ~ u^(2k)."""
        if self.env_kind == "entangled":
            v = self.u ** np.arange(self.fock_dim)
            return _read_only(v / np.linalg.norm(v))
        p = (self.u * self.u) ** np.arange(self.fock_dim)
        return _read_only(p / p.sum())

    @cached_property
    def local_spectrum(self) -> np.ndarray:
        """The thermal weights of one mode, read-only: the spectrum of one displaced bath mode, and of
        a classical pair."""
        return self.pair_weights if self.env_kind == "classical" else _read_only(self.pair_weights ** 2)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of ``leggauss(200)``, read once from ``legendre200.npy`` next to this
    module (saved from that call) instead of solved; the arrays are read-only."""
    return tuple(map(_read_only, np.load(os.path.join(os.path.dirname(__file__), "legendre200.npy"))))


def spectral_gauss_rule(omega_c: float, cutoff_mult: float, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights with weight function w * exp(-w/omega_c) on (0, K*omega_c].

    Discretized Stieltjes recurrence + Golub-Welsch; the one-point rule sits
    at the mean frequency of the weight.  A 200-node Gauss-Legendre
    discretization matches a 60-digit moment-based reference to 2e-13 for
    n_modes <= 24 at K = 60; more nodes only add roundoff from the
    high-degree Legendre weights.  A rule has at most 200 modes, the nodes of
    that discretization.
    """
    hi = cutoff_mult * omega_c
    x0, w0 = _legendre_rule()
    if n_modes > x0.size:
        raise ValueError(f"n_modes must be <= {x0.size}, the nodes of the spectral discretization, got {n_modes}")
    with np.errstate(all="ignore"):  # an out-of-range window is refused below
        x = 0.5 * hi * (x0 + 1.0)
        w = 0.5 * hi * w0 * x * np.exp(-x / omega_c)
        m0 = w.sum()
    if not 0.0 < m0 < math.inf:
        raise ValueError(f"the spectral weight on (0, cutoff_mult * omega_c] = (0, {hi:g}] "
                         f"has mass {m0:g}; it must be positive and finite")
    alpha = np.empty(n_modes)
    sqrt_beta = np.empty(max(n_modes - 1, 0))
    p_prev = np.zeros_like(x)
    p_cur = np.full_like(x, 1.0 / math.sqrt(m0))
    for k in range(n_modes):
        alpha[k] = float(w @ (x * p_cur * p_cur))
        if k == n_modes - 1:
            break
        r_vec = (x - alpha[k]) * p_cur - (sqrt_beta[k - 1] * p_prev if k > 0 else 0.0)
        bk = float(w @ (r_vec * r_vec))
        sqrt_beta[k] = math.sqrt(bk)
        p_prev, p_cur = p_cur, r_vec / sqrt_beta[k]
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(sqrt_beta, 1) + np.diag(sqrt_beta, -1))
    weights = m0 * vecs[0, :] ** 2
    return nodes, weights


def build_discrete_model(params: DephasingParams, n_modes: int, n_max: int) -> DiscreteDephasingModel:
    """Discretize both baths on a shared Gauss rule and truncate the pair states.

    Couplings are g_{j,m} = sqrt(alpha_j * weight_m); the truncated initial
    environment must capture at least 99.9% of its trace.
    """
    if n_modes < 1 or n_max < 1:
        raise ValueError("need n_modes >= 1 and n_max >= 1")
    nodes, weights = spectral_gauss_rule(params.omega_c, params.quad.cutoff_mult, n_modes)
    pairs = tuple(
        (float(om), math.sqrt(params.alpha1 * wt), math.sqrt(params.alpha2 * wt))
        for om, wt in zip(nodes, weights)
    )
    model = DiscreteDephasingModel(mode_pairs=pairs, n_max=n_max, params=params)
    if model.captured_trace < 0.999:
        raise TruncationError(
            f"truncated environment captures {model.captured_trace:.6f} < 0.999 of the trace; "
            f"increase n_max (correlation parameter u = {model.u:.4f})"
        )
    return model


def _built_once(fn):
    """``lru_cache`` that builds each entry under a lock.

    Threads that share a model read these caches together; a bare
    ``lru_cache`` lets threads that miss together each build the entry.
    """
    cached = lru_cache(maxsize=None)(fn)
    lock = threading.Lock()

    @wraps(fn)
    def once(*args):
        with lock:
            return cached(*args)

    once.cache_clear = cached.cache_clear
    return once


def _ladder(n_dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_dim)), k=1)


@_built_once
def _quadrature_modes(n_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs (x, V) of the real symmetric X = b + b^dag, and P_jk = i^(j-k).

    Computed once per Fock dimension; the arrays are read-only.
    """
    b = _ladder(n_dim)
    x, v = np.linalg.eigh(b + b.T)
    phases = np.array([1.0, 1j, -1.0, -1j])[np.arange(n_dim) % 4]
    return tuple(map(_read_only, (x, v, np.outer(phases, phases.conj()))))


def _real_gauges(n_dim: int, alphas: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Real gauges O = exp(|alpha| (b^dag - b)) (N, n, n) and phases r = (alpha / |alpha|)^n (N, n) of N alphas.

    D = exp(alpha b^dag - alpha* b) = R O R^dag with R = diag(r).  b^dag - b = S (-i X) S^dag
    with S = diag(i^n), so O = P o exp(-i |alpha| X): real, since X (tridiagonal, zero
    diagonal) is odd under (-1)^n; only roundoff is dropped with its imaginary part.  The
    form 1 - V (1 - e^{-i |alpha| x}) V^T keeps D = O = 1 at alpha = 0.  |alpha| and
    alpha / |alpha| are scalar ``abs`` and division (``np.abs`` rounds differently).
    """
    x, v, p = _quadrature_modes(n_dim)
    a = [abs(al) for al in alphas]
    r = np.power(np.array([complex(al / ai if ai else 1.0) for al, ai in zip(alphas, a)])[:, None], np.arange(n_dim))
    a = np.array(a, dtype=float)[:, None]
    g = p * (np.eye(n_dim) - (v * (2.0 * np.sin(0.5 * a * x) ** 2 + 1j * np.sin(a * x))[:, None, :]) @ v.T)
    return g.real.copy(), r


def _ungauged(o: np.ndarray, r: np.ndarray) -> np.ndarray:
    """D = R O R^dag from a real gauge and its phases (or stacks of them)."""
    return r[..., :, None] * o * r.conj()[..., None, :]


def _displacement(n_dim: int, alpha: complex) -> np.ndarray:
    """exp(alpha b^dag - alpha* b) on the truncated Fock space (exactly unitary)."""
    o, r = _real_gauges(n_dim, [alpha])
    return _ungauged(o[0], r[0])


def _signed(dp: np.ndarray) -> dict[int, np.ndarray]:
    """D(sigma beta) by sigma from D(+beta) (or a stack of them): D(-beta) = D(beta)^dag."""
    return {+1: dp, -1: dp.conj().swapaxes(-1, -2)}


def _pair_states(d1: dict, d2: dict, weights: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """The displaced squeezed vacuum of one pair by label (sigma1, sigma2): D1 diag(w) D2^T (or stacks)."""
    return {(s1, s2): d1[s1] @ (weights[:, None] * d2[s2].swapaxes(-1, -2)) for s1, s2 in _SIGMAS}


def _fock_overlaps(d: dict) -> np.ndarray:
    """c[k, b, n] = (D(sigma_b)^dag D(sigma_k))_nn of one bath mode, bit 0 <-> sigma +1 (or stacks)."""
    ds = np.stack([d[+1], d[-1]], axis=-3)
    return np.einsum("...bin,...kin->...kbn", ds.conj(), ds)


def _chunks(size: int, entries: int, budget: int) -> list[slice]:
    """Slices of ``size`` times, each as many as fit in min(budget^2, ``_CHUNK_ENTRIES``) at ``entries`` a time, or one."""
    step = max(1, min(budget ** 2, _CHUNK_ENTRIES) // entries)
    return [slice(lo, lo + step) for lo in range(0, size, step)]


class _Snapshot:
    """Per-pair displaced environment data over a time grid; only read, so computers may share it.

    Bath j, pair m: ``o[j][m]`` (T, n, n) and ``r[j][m]`` (T, n) are the real
    gauge O_m of sigma = +1 and its phases, D(sigma g_jm beta_j) = R O_m(sigma) R^dag
    with O_m(-1) = O_m^T; classical, ``c[j][m]`` (T, 2, 2, n) holds ``_fock_overlaps``.
    ``displaced[i, j]``: some g_jm beta_j is nonzero at time i.  ``omega[i, s, s']`` =
    prod_m Tr[Phi_s rho_m Phi_s'^dag] (s = 2 s1 + s2), so rho_AS(t_i) = rho0 o
    (1_A (x) omega[i]).  The displacements behind ``omega`` are built a chunk of
    times at a time (``_chunks``) and dropped; every rule of ``BranchComputer._entropy``
    reads the grid.
    """

    def __init__(self, model: DiscreteDephasingModel, times: Sequence[float], budget: int = DEFAULT_BUDGET):
        self.model = model
        self.times = t = np.asarray(times, dtype=float).reshape(-1)
        n, w = model.fock_dim, model.pair_weights
        entangled = model.env_kind == "entangled"
        chunks = _chunks(t.size, 4 * n * n, budget)  # a chunk's pair states: 4 n^2 entries a time
        self.o, self.r, self.c = ([], []), ([], []), ([], [])  # by bath, then pair
        self.omega = np.ones((t.size, 4, 4), dtype=complex)
        self.displaced = np.zeros((t.size, 2), dtype=bool)
        windows = (model.params.window1, model.params.window2)
        for om, *gs in model.mode_pairs:
            alphas = [[g * beta(om, ti, window) for ti in t] for g, window in zip(gs, windows)]
            self.displaced |= np.array(alphas).T != 0
            for j in range(len(BATHS)):
                self.o[j].append(np.empty((t.size, n, n)))
                self.r[j].append(np.empty((t.size, n), dtype=complex))
                if not entangled:
                    self.c[j].append(np.empty((t.size, 2, 2, n), dtype=complex))
            for chunk in chunks:
                d = []
                for j, alpha in enumerate(alphas):
                    o, r = self.o[j][-1][chunk], self.r[j][-1][chunk]
                    o[...], r[...] = _real_gauges(n, alpha[chunk])
                    d.append(_signed(_ungauged(o, r)))
                if entangled:
                    psi = _pair_states(*d, w)
                    vecs = np.stack([psi[s].reshape(-1, n * n) for s in _SIGMAS], axis=1)
                    self.omega[chunk] *= vecs @ vecs.conj().swapaxes(-1, -2)
                else:
                    c = [self.c[j][-1][chunk] for j in range(len(BATHS))]
                    c[0][...], c[1][...] = map(_fock_overlaps, d)
                    self.omega[chunk] *= np.einsum("n,...acn,...bdn->...abcd", w, *c).reshape(-1, 4, 4)
        for arr in (self.omega, self.displaced, *(a for grid in (self.o, self.r, self.c) for bath in grid for a in bath)):
            _read_only(arr)  # shared between computers, and their threads


def _stacked_kron(a: np.ndarray, b: np.ndarray, axes: int) -> np.ndarray:
    """``np.kron`` over the last ``axes`` axes, slice by slice over the leading ones: the same products."""
    lead, sa, sb = a.shape[:-axes], a.shape[-axes:], b.shape[-axes:]
    prod = (a.reshape(*lead, *(x for d in sa for x in (d, 1))) * b.reshape(*lead, *(x for d in sb for x in (1, d))))
    return prod.reshape(*lead, *np.multiply(sa, sb))


def _kept_bath(gauges: list[np.ndarray], lam: np.ndarray) -> np.ndarray:
    """K = (x)_m O_m diag(lam) O_m^T at each time of one bath's gauges ``gauges[m]`` (T, n, n).

    The kept block of a term whose label on that bath is +1, with R conjugated
    away.  Each O_m is odd under the parity (-1)^n, (-1)^n O_m (-1)^n = O_m^T,
    so the block of label -1 is Pi K Pi with Pi the joint parity
    (-1)^(sum_m n_m): K with its entries between the two parity sectors negated.
    """
    return reduce(lambda a, b: _stacked_kron(a, b, 2), [(o * lam) @ o.swapaxes(-1, -2) for o in gauges])


@_built_once
def _parity_sectors(n_dim: int, pairs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The joint parity (-1)^(sum_m n_m) of each index of ``pairs`` Fock spaces, and the
    indices of its even and odd sectors.

    Computed once per (Fock dimension, pairs); the arrays are read-only.
    """
    signs = reduce(np.kron, [1.0 - 2.0 * (np.arange(n_dim) % 2)] * pairs)
    return tuple(map(_read_only, (signs, np.flatnonzero(signs > 0), np.flatnonzero(signs < 0))))


def _marginal(rho: np.ndarray, kept: frozenset) -> np.ndarray:
    """The part of a matrix on [A, S1, S2] (or of each of a stack) on the A and S of ``kept``:
    rows 4 a + s, a 0 if A is traced."""
    if {"A", "S"} <= kept:
        return rho
    d_a = rho.shape[-1] // 4
    return np.einsum("...asat->...st" if "S" in kept else "...asbs->...ab", rho.reshape(rho.shape[:-2] + (d_a, 4, d_a, 4)))


def _check_initial(initial: DensityMatrix):
    """Reject an initial state that does not live on [A, S1, S2] with qubits S1 and S2."""
    if initial.partition.labels != ("A", "S1", "S2"):
        raise ValueError(f"initial state must live on [A, S1, S2], got {initial.partition.labels}")
    if initial.partition.factors[1:] != S_PARTITION.factors:
        raise ValueError("S1 and S2 must be qubits")


_ENV_FREE = {"S_AS": frozenset({"A", "S"}), "S_S": frozenset({"S"}), "S_A": frozenset({"A"})}
_ENTROPY_SETS = {
    part: {**_ENV_FREE, "S_SE": frozenset({"S", *env}), "S_ASE": frozenset({"A", "S", *env})}
    for part, env in zip(ENV_PARTS, (("E1",), ("E2",), BATHS))
}


def entropy_sets(env_part: str) -> dict[str, frozenset]:
    """The kept set of each entropy of I(A : env_part | S), as subsets of ``LABELS``."""
    if env_part not in ENV_PARTS:
        raise ValueError(f"env_part must be one of {ENV_PARTS}")
    return _ENTROPY_SETS[env_part]


class BranchComputer:
    """Entropies and CMI series for one discrete model and initial state on [A, S1, S2].

    The environment branch of a term depends only on its system label s, so
    rho(t) = sum_{s,s'} X_{ss'} (x) |s><s'| (x) |E_s><E_s'| with X_{ss'} = <s|rho0|s'>
    a block on A; rho0 may be mixed.
    """

    def __init__(self, model: DiscreteDephasingModel, initial: DensityMatrix, budget: int = DEFAULT_BUDGET):
        _check_initial(initial)
        self.model = model
        self.budget = budget
        self._within_budget(model.fock_dim, "Fock")
        self.partition = initial.partition
        self.rho0 = initial.data
        self.pure = float(initial.eigenvalues()[-1]) >= 1.0 - 1e-10
        # by kept set: rho0 and its entropy on {S} and {A, S}, and every kept set of
        # ``_one_bath`` with its case, its bath j, the spectrum of M_+ + M_- and the blocks M_sigma
        self._kept0 = {k: _marginal(self.rho0, k) for k in (frozenset({"S"}), frozenset({"A", "S"}))}
        self._s0 = {k: spectrum_entropy(np.linalg.eigvalsh(x), tol=1e-9) for k, x in self._kept0.items()}
        self._baths = {}
        for j, bath in enumerate(BATHS):
            for k, x in self._kept0.items():
                # bath j kept, S traced: M_sigma = sum_{s: sigma_j(s) = sigma} tr_{traced A} X_ss
                self._baths[k - {"S"} | {bath}] = self._bath_case(
                    j, [sum(x[s::4, s::4] for s in range(4) if _SIGMAS[s][j] == sig) for sig in (1, -1)])
                if model.env_kind == "entangled" and not self.pure:
                    # K = k and the other bath, solved as its complement on [Q, A, S, E1, E2], which
                    # keeps bath j: M_sigma = Lam^1/2 V^dag P_sigma V Lam^1/2, V Lam V^dag = G = x^T
                    w, v = np.linalg.eigh(x.T)
                    f = v[:, w > RANK_CUTOFF] * np.sqrt(w[w > RANK_CUTOFF])
                    labels = np.array([_SIGMAS[s % 4][j] for s in range(len(x))])
                    self._baths[k | {BATHS[1 - j]}] = self._bath_case(
                        j, [f[labels == sig].conj().T @ f[labels == sig] for sig in (1, -1)])
        # rule (b) of ``_entropy``: S(rho0_K) + S(rho_E) at every t
        s_env = 0.0 if model.env_kind == "entangled" else model.n_pairs * spectrum_entropy(model.local_spectrum)
        self._fixed = {k | set(BATHS): s + s_env for k, s in self._s0.items()}

    @staticmethod
    def _bath_case(j: int, ms: list[np.ndarray]) -> tuple:
        """The ``_baths`` entry of the blocks ``ms`` = [M_+, M_-] on bath j: real where they are."""
        ms = [m if np.any(m.imag) else m.real for m in ms]
        rule = "direct" if not np.any(ms[0] @ ms[1]) else "sectors" if np.array_equal(ms[0], ms[1]) else "assembled"
        return rule, j, np.linalg.eigvalsh(ms[0] + ms[1]), ms

    def _within_budget(self, dim: int, what: str):
        """Refuse to solve a matrix of side ``dim`` above the budget."""
        if dim > self.budget:
            raise BudgetError(f"{what} dimension {dim} exceeds budget {self.budget}")

    def _entries_within_budget(self, size: int, what: str):
        """Refuse to build an array of ``size`` entries above budget^2."""
        if size > self.budget ** 2:
            raise BudgetError(f"{what} of {size} entries exceeds budget^2 = {self.budget ** 2}")

    def _entropy(self, snap: _Snapshot, kept_sets: Sequence[frozenset]) -> dict[frozenset, np.ndarray]:
        """Entropies (T,) over the grid of ``snap`` of the reduced state on each of ``kept_sets``, each a
        nonempty subset of {A, S, E1, E2}.

        (a) No bath kept: a marginal of rho_AS(t), one batched solve over the grid.
        (b) Both baths and S kept: W = sum_s |s><s| (x) U_s is unitary, so the
            entropy is S(rho0_K) + S(rho_E) at every t, computed once.
        (c) Entangled, S and one bath kept: the global state is pure, so take
            the complement of kept, which keeps the other bath and traces S: (d).
            For a pure rho0 that is {A, S, E1, E2} - kept; a mixed rho0 is purified
            by a register Q, which the complement keeps (``__init__``).
        (d) One bath kept, S traced: ``_one_bath``.
        (e) Classical, S and one bath kept: ``_fock_blocks``.
        Any other kept set, such as both baths without S, raises ValueError.
        """
        entangled = self.model.env_kind == "entangled"
        rho_as = self._rho_as(snap)
        out = {}
        for kept in kept_sets:
            solved = LABELS - kept if entangled and self.pure and "S" in kept else kept
            if kept in self._fixed:
                out[kept] = np.full(snap.times.size, self._fixed[kept])
            elif kept.isdisjoint(BATHS):
                out[kept] = spectrum_entropy(np.linalg.eigvalsh(_marginal(rho_as, kept)), tol=1e-9)
            elif solved in self._baths:
                out[kept] = self._one_bath(snap, solved)
            elif not entangled and "S" in solved:
                out[kept] = self._fock_blocks(snap, solved)
            else:
                raise ValueError(f"no entropy rule covers the kept set {sorted(kept)}")
        return out

    def _one_bath(self, snap: _Snapshot, kept: frozenset) -> np.ndarray:
        """Entropies (T,) of sum_sigma M_sigma (x) K(sigma): one bath kept, S traced (for a mixed
        rho0 of the entangled kind, also the purified complement of S and one bath).

        With S traced only s = s' survives, and the kept bath of branch s is
        D(sigma beta) rho_th D(sigma beta)^dag, sigma its label on that bath;
        D = R O(sigma) R^dag with R common to every term, so R is dropped:
        K(+) = ``_kept_bath``, K(-) = Pi K(+) Pi.  When M_+ M_- = 0, or the bath
        is not displaced (K(+) = K(-) = rho_th^(x)P), the spectrum is that of
        M_+ + M_- times lam^(x)P.  When M_+ = M_- it is that of M_+ + M_- times
        those of the even and odd parity blocks of K(+).  Otherwise the operator
        is assembled.  Each solve is a stack over the displaced times of a chunk
        (``_chunks``).  The budget bounds the side d_M n^P whenever M_+ M_- != 0,
        and budget^2 the entries of a spectrum taken without a solve.
        """
        rule, j, e, ms = self._baths[kept]
        n, pairs, lam = self.model.fock_dim, self.model.n_pairs, self.model.local_spectrum
        side = len(e) * n ** pairs
        if rule != "direct":
            self._within_budget(side, "assembled operator")
        solved = np.flatnonzero(snap.displaced[:, j] & (rule != "direct"))  # the times that need a solve
        out = np.empty(snap.times.size)
        if solved.size < out.size:
            self._entries_within_budget(side, "kept-bath spectrum")
            out[:] = spectrum_entropy(np.outer(e, reduce(np.kron, [lam] * pairs)).ravel(), tol=1e-9)
        signs, even, odd = _parity_sectors(n, pairs)
        for chunk in _chunks(solved.size, side ** 2 if rule == "assembled" else max(side, n ** (2 * pairs)),
                             self.budget):
            rows = solved[chunk]
            k = _kept_bath([o[rows] for o in snap.o[j]], lam)
            if rule == "sectors":
                halves = np.concatenate([np.linalg.eigvalsh(k[:, idx[:, None], idx]) for idx in (even, odd)], axis=-1)
                spectra = (e[:, None] * halves[:, None, :]).reshape(rows.size, -1)
            else:
                mat = np.zeros((rows.size, side, side), dtype=np.result_type(*ms))
                for m, k_sig in zip(ms, (k, k * np.outer(signs, signs))):
                    mat += np.kron(m, k_sig)
                spectra = np.linalg.eigvalsh(0.5 * (mat + mat.conj().swapaxes(-1, -2)))
            out[rows] = spectrum_entropy(spectra, tol=1e-9)
        return out

    def _fock_blocks(self, snap: _Snapshot, kept: frozenset) -> np.ndarray:
        """Entropies (T,) of a classical state that keeps S and one bath.

        The kept displacement is fixed by the row's s, so conjugating it away
        leaves sum_n X_K o C_n (x) |n><n|: one block per kept Fock index n, on
        the rows where X_K is nonzero.  C_n[s, s'] is the product over the
        pairs of p_n c[s, s', n] (``snap.c`` of the traced bath).  The (time, n)
        blocks of a chunk of times are one solve.
        """
        x = self._kept0[kept & {"A", "S"}]
        traced = BATHS.index(*(LABELS - kept - {"A"}))
        rows = np.flatnonzero(np.any(x, axis=1))
        size = rows.size ** 2 * self.model.fock_dim ** self.model.n_pairs
        self._entries_within_budget(size, "Fock blocks")
        bits = np.array([(1 - _SIGMAS[s][traced]) // 2 for s in rows % 4])  # the traced label of each row, 0 <-> +1
        out = np.empty(snap.times.size)
        for chunk in _chunks(out.size, size, self.budget):
            w = reduce(lambda a, b: _stacked_kron(a, b, 1),
                       [self.model.pair_weights * c[chunk][:, bits[:, None], bits] for c in snap.c[traced]])
            mats = np.moveaxis(x[np.ix_(rows, rows)][:, :, None] * w, -1, 1)
            spectra = np.linalg.eigvalsh(0.5 * (mats + mats.conj().swapaxes(-1, -2)))
            out[chunk] = spectrum_entropy(spectra.reshape(len(spectra), -1), tol=1e-9)
        return out

    def _rho_as(self, snap: _Snapshot) -> np.ndarray:
        """rho_AS(t) = rho0 o (1_A (x) omega) on [A, S1, S2] at every time, Hermitian-symmetrized."""
        d_a = self.partition.dims[0]
        mat = self.rho0 * np.tile(snap.omega, (1, d_a, d_a))
        return 0.5 * (mat + mat.conj().swapaxes(-1, -2))

    def _entropies(self, snap: _Snapshot, env_parts: Sequence[str]) -> list[dict[str, np.ndarray]]:
        """Over the grid of ``snap``, the entropies of each of ``env_parts`` with its CMI (checked against
        strong subadditivity time by time, env part by env part) and I(S : A)."""
        named = [entropy_sets(part) for part in env_parts]
        ent = self._entropy(snap, list(dict.fromkeys(k for sets in named for k in sets.values())))
        outs = [{name: ent[k] for name, k in sets.items()} for sets in named]
        cmi = np.array([out["S_AS"] + out["S_SE"] - out["S_S"] - out["S_ASE"] for out in outs])
        bad = cmi.T[cmi.T < -1e-8]  # in (time, env part) order
        if bad.size:
            raise RuntimeError(f"branch CMI {float(bad[0])} violates strong subadditivity")
        for out, c in zip(outs, cmi):  # max(x, 0.0) entry by entry: -0.0 and NaN stay
            out["cmi"], out["mi_sa"] = (np.where(x < 0.0, 0.0, x) for x in (c, out["S_S"] + out["S_A"] - out["S_AS"]))
        return outs

    def entropies_at(self, t: float, env_part: str) -> dict[str, float]:
        """``_entropies`` of ``env_part`` at time t, from a one-point snapshot."""
        (ents,) = self._entropies(_Snapshot(self.model, [t], self.budget), [env_part])
        return {name: float(v[0]) for name, v in ents.items()}

    def trajectories(
        self, times: Sequence[float], env_parts: Sequence[str] = ENV_PARTS, snap: _Snapshot | None = None
    ) -> dict[str, ScalarSeries]:
        """CMI series per env part (keys "E1", "E2", "E1E2") plus "mi_sa".

        ``snap`` is the model's snapshot of ``times``, built here when not
        given; it is only read, so the computers of several initial states may
        share one.  mi_sa, the same for every env part, comes from the first.
        """
        if not env_parts:
            raise ValueError("env_parts must be nonempty")
        t = np.asarray(times, dtype=float).reshape(-1)
        if snap is None:
            snap = _Snapshot(self.model, t, self.budget)
        elif snap.model is not self.model or not np.array_equal(snap.times, t):
            raise ValueError("the snapshot is of another model or time grid")
        ents = self._entropies(snap, env_parts)
        return {**{p: ScalarSeries(t, ent["cmi"]) for p, ent in zip(env_parts, ents)},
                "mi_sa": ScalarSeries(t, ents[0]["mi_sa"])}

    def system_state(self, t: float) -> DensityMatrix:
        rho = self._rho_as(_Snapshot(self.model, [t], self.budget))[0]
        return DensityMatrix(_marginal(rho, frozenset({"S"})), S_PARTITION)


def cmi_trajectory(
    model: DiscreteDephasingModel,
    initial: DensityMatrix,
    times: Sequence[float],
    env_part: str,
    budget: int = DEFAULT_BUDGET,
) -> ScalarSeries:
    """I(A : env_part | S1 S2)(t) along the discrete-model evolution, pure or mixed initial state."""
    comp = BranchComputer(model, initial, budget=budget)
    return comp.trajectories(times, env_parts=(env_part,))[env_part]


def discrete_phase_factors(model: DiscreteDephasingModel, t: float) -> dict[str, complex]:
    """The six coherence factors by name, in ``_FACTOR_INDEX`` order, of the truncated discrete model.

    Computed from per-pair displaced-environment overlaps in the interaction
    picture (free eps phases excluded); converges to the continuum
    (closed-form) factors at eps = 0 as the mode count grows.
    """
    omega = _Snapshot(model, [t]).omega[0]
    return {name: complex(omega[i, j]) for name, (i, j) in _FACTOR_INDEX.items()}


# ---------------------------------------------------------------------------
# dense cross-check path


class DenseComputer:
    """Full-space evolution of rho0's live (a, s) blocks on [A', S', E-modes].

    A' and S' keep only the ancilla values a and the system labels
    s = 2 s1 + s2 that some live row of rho0 uses (a row or column with a
    nonzero entry), so a state has |A'| |S'| n^(2P) rows instead of
    d_A 4 n^(2P); every row left out is an exact zero of the full state.
    The live rows keep their order and entries, and every marginal is a
    ``partial_trace`` of the validated state.  The independent cross-check
    for the branch path.
    """

    def __init__(self, model: DiscreteDephasingModel, initial: DensityMatrix, budget: int = DEFAULT_BUDGET):
        _check_initial(initial)
        self.model = model
        n = model.fock_dim
        dim = initial.partition.total_dim * n ** (2 * model.n_pairs)
        if dim > budget:
            raise BudgetError(f"dense dimension {dim} exceeds budget {budget}")
        # block (k, l) of rho0 = kron(initial, env) is initial[k, l] * env; only the live
        # (a, s) blocks, whose row or column of the initial state is nonzero, are built
        x = initial.data
        self._live = np.flatnonzero(x.any(axis=1) | x.any(axis=0))
        a_vals, a_idx = np.unique(self._live // len(_SIGMAS), return_inverse=True)
        self._s, s_idx = np.unique(self._live % len(_SIGMAS), return_inverse=True)
        self._rows = a_idx * len(self._s) + s_idx  # the row block of each live (a, s) in A' x S'
        env_factors = [(f"{bath}m{m}", n) for m in range(model.n_pairs) for bath in BATHS]
        self.partition = SystemPartition([("A", len(a_vals)), ("S", len(self._s)), *env_factors])
        # the factors of each label of ``LABELS``
        self._factors = {"A": {"A"}, "S": {"S"},
                         **{bath: {f"{bath}m{m}" for m in range(model.n_pairs)} for bath in BATHS}}
        ii = np.arange(n) * (n + 1)  # |k k> in one pair's n*n space
        w = model.pair_weights
        pair_state = np.zeros((n * n, n * n), dtype=complex)
        pair_state[np.ix_(ii, ii)] = np.outer(w, w) if model.env_kind == "entangled" else np.diag(w)
        env = reduce(np.kron, [pair_state] * model.n_pairs)
        self._blocks = x[np.ix_(self._live, self._live)][:, :, None, None] * env
        self._memo: tuple[float, DensityMatrix] | None = None

    def state_at(self, t: float) -> DensityMatrix:
        """U(t) rho0 U(t)^dag on [A', S', E-modes] with U = 1_A (x) blockdiag_s(U_s), block by block.

        Only the live (a, s) blocks of rho0 (found once, in ``__init__``) are
        evolved, and only their U_s built; every other block is an exact zero,
        so validation solves the state on its support.  The last state is
        kept until the next is built, so the entropies of every env part and
        the system state at one t share a single evolution and validation.
        """
        t = float(t)
        if self._memo is not None and self._memo[0] == t:
            return self._memo[1]
        self._memo = None
        model = self.model
        n = model.fock_dim
        dim_env = (n * n) ** model.n_pairs
        live = self._live
        u_s = {}
        for s_idx in self._s:
            s1, s2 = _SIGMAS[s_idx]
            ops = []
            for om, g1, g2 in model.mode_pairs:
                d1 = _displacement(n, s1 * g1 * beta(om, t, model.params.window1))
                d2 = _displacement(n, s2 * g2 * beta(om, t, model.params.window2))
                ops.append(np.kron(d1, d2))
            u_s[s_idx] = reduce(np.kron, ops)
        # row block k = (a, s) evolves with U_s
        u_k = np.stack([u_s[k % len(_SIGMAS)] for k in live])
        out = u_k[:, None] @ self._blocks @ u_k.conj().transpose(0, 2, 1)[None, :]
        # 0.5 (rho + rho^dag) block by block, in place: block (k, l) pairs with block (l, k)^dag
        h = out.conj().transpose(1, 0, 3, 2)
        h += out
        h *= 0.5
        dim = self.partition.total_dim
        nb = dim // dim_env
        rho = np.zeros((dim, dim), dtype=complex)
        rho.reshape(nb, dim_env, nb, dim_env)[self._rows[:, None], :, self._rows, :] = h
        del u_k, out, h  # so only the state itself is held while it is validated
        state = DensityMatrix(rho, self.partition, _owned=True)
        self._memo = (t, state)
        return state

    def entropies_at(self, t: float, env_part: str) -> dict[str, float]:
        state = self.state_at(t)
        marg = {name: partial_trace(state, set().union(*(self._factors[label] for label in kept)))
                for name, kept in entropy_sets(env_part).items()}
        out = {name: info.von_neumann_entropy(rho) for name, rho in marg.items()}
        a, s = self._factors["A"], self._factors["S"]
        env = set(marg["S_ASE"].labels) - a - s
        out["cmi"] = info.conditional_mutual_information(marg["S_ASE"], a, env, s)
        out["mi_sa"] = info.mutual_information(marg["S_AS"], s, a)
        return out

    def system_state(self, t: float) -> DensityMatrix:
        """The [S1, S2] state: the S' marginal, embedded on the labels S' keeps."""
        rho = np.zeros((len(_SIGMAS),) * 2, dtype=complex)
        rho[np.ix_(self._s, self._s)] = partial_trace(self.state_at(t), self._factors["S"]).data
        return DensityMatrix(rho, S_PARTITION, _owned=True)
