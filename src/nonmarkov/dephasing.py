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
  trajectories via a branch Gram method, plus a dense full-Hilbert-space
  path used as an independent cross-check.

Branch entropies that keep no bath are marginals of one rho_AS(t) per
time; one that keeps one bath and traces S is solved in the real gauge
D(sigma beta) = R O(sigma) R^dag (R diagonal, O real orthogonal).

Conventions: sigma_z = diag(+1, -1); the coupling is factored out of the
single-mode displacement response and carried by the spectral density (the
Gauss-rule weights in the discrete model); energies eps_i contribute only
unimodular phases and default to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from . import info
from .measures import ScalarSeries, StateTrajectory
from .states import DensityMatrix, SystemPartition, partial_trace, pure_state, spectrum_entropy

ENV_KINDS = ("entangled", "classical")
ENV_PARTS = ("E1", "E2", "E1E2")

class TruncationError(ValueError):
    """Fock truncation captures too little of the initial environment state."""


class BudgetError(RuntimeError):
    """Branch count or operator dimension exceeds the configured budget."""


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
    marginals of the squeezed state.
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
        if not self.t1s <= self.t1f <= self.t2s <= self.t2f:
            raise ValueError("interaction windows must satisfy t1s <= t1f <= t2s <= t2f")
        if self.env_kind not in ENV_KINDS:
            raise ValueError(f"env_kind must be one of {ENV_KINDS}")
        if self.u is not None and not 0.0 <= self.u < 1.0:
            raise ValueError("u must lie in [0, 1)")

    @property
    def u_eff(self) -> float:
        return math.tanh(self.r) if self.u is None else self.u

    @property
    def window1(self) -> tuple[float, float]:
        return (self.t1s, self.t1f)

    @property
    def window2(self) -> tuple[float, float]:
        return (self.t2s, self.t2f)


@dataclass(frozen=True)
class PhaseFactors:
    """The six coherence factors of the 4x4 system state at one time."""

    k1: complex
    k2: complex
    k1t: complex
    k2t: complex
    k12: complex
    lam12: complex

    def magnitudes(self) -> dict[str, float]:
        return {name: abs(getattr(self, name)) for name in
                ("k1", "k2", "k1t", "k2t", "k12", "lam12")}


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
    """ln I0(z), overflow-free for any argument (log-space evaluation)."""
    from scipy.special import i0e  # only the oracle needs it; keeps SciPy out of the import path

    return z + np.log(i0e(z))


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
    f[~near] = 0.5 * np.log1p(far * far) + e1[1:] - e1[0]
    return f[inverse].reshape(a.shape)


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
    if params.env_kind == "classical":
        u = params.u_eff
        c = (1.0 + u * u) / (1.0 - u * u)
        cross = 0.0
    else:
        c = math.cosh(2 * params.r)
        # grouped so that the sum is exactly 0 while either window is still closed
        cross = -4.0 * math.sinh(2 * params.r) * math.sqrt(params.alpha1 * params.alpha2) * (
            (fa + fa12) - (fa1 + fa2))
    single1 = -4.0 * c * params.alpha1 * f1
    single2 = -4.0 * c * params.alpha2 * f2
    marg = single1 + single2
    return {"single1": single1, "single2": single2, "same": marg + cross, "opp": marg - cross}


def phase_factor_grid(params: DephasingParams, times: Sequence[float]) -> dict[str, np.ndarray]:
    """Complex k1, k2, k1t, k2t, k12, lam12 sampled on a time grid."""
    mats = coherence_factor_matrices(params, times)
    return {name: mats[:, i, j] for name, (i, j) in _FACTOR_INDEX.items()}


def phase_factors(params: DephasingParams, t: float) -> PhaseFactors:
    """The six coherence factors at one time (all equal 1 for t <= t1s)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    grid = phase_factor_grid(params, [t])
    return PhaseFactors(**{k: complex(v[0]) for k, v in grid.items()})


_BASIS = [(0, 0), (0, 1), (1, 0), (1, 1)]  # |s1 s2>, index 2*s1 + s2

# (row, column) of each named factor in the 4x4 coherence matrix
_FACTOR_INDEX = {
    "k1": (2, 0), "k2": (1, 0), "k1t": (3, 1), "k2t": (3, 2), "k12": (3, 0), "lam12": (2, 1),
}


def _sigma(bit: int) -> int:
    return 1 - 2 * bit


def _multipliers(i: int, j: int) -> tuple[int, int]:
    (n, m), (r_, s_) = _BASIS[i], _BASIS[j]
    return _sigma(n) - _sigma(r_), _sigma(m) - _sigma(s_)


_SIGMAS = [(_sigma(s1), _sigma(s2)) for s1, s2 in _BASIS]  # sigma_z eigenvalues of each |s1 s2>
_SIGMA_INDEX = {sig: i for i, sig in enumerate(_SIGMAS)}


def coherence_factor_matrices(params: DephasingParams, times: Sequence[float]) -> np.ndarray:
    """(T, 4, 4) multiplicative coherence factors of the dephasing channel."""
    t = np.asarray(times, dtype=float).reshape(-1)
    logs = _log_factor_grid(params, t)
    out = np.ones((t.size, 4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            m1, m2 = _multipliers(i, j)
            if m1 == 0 and m2 == 0:
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


def coherence_factor_matrix(params: DephasingParams, t: float) -> np.ndarray:
    return coherence_factor_matrices(params, [t])[0]


_SYS_PARTITION = SystemPartition([("S1", 2), ("S2", 2)])


def system_state(params: DephasingParams, amplitudes, t: float) -> DensityMatrix:
    """The 4x4 dephased system state from initial amplitudes a_{ij} of |ij>."""
    return system_trajectory(params, pure_state(amplitudes, _SYS_PARTITION), [t]).states[0]


def system_trajectory(params: DephasingParams, rho0: DensityMatrix, times: Sequence[float]) -> StateTrajectory:
    """Dephasing-channel trajectory of a two-qubit system state."""
    t = np.asarray(times, dtype=float).reshape(-1)
    mats = coherence_factor_matrices(params, t)
    states = tuple(DensityMatrix(rho0.data * m, rho0.partition) for m in mats)
    return StateTrajectory(t, states)


# ---------------------------------------------------------------------------
# discrete-mode model


@dataclass(frozen=True)
class DiscreteDephasingModel:
    """Finite mode-pair realization of the two-bath model on truncated Fock space."""

    mode_pairs: tuple[tuple[float, float, float], ...]  # (omega, g1, g2)
    n_max: int
    env_kind: str
    r: float
    u: float
    params: DephasingParams
    captured_trace: float

    @property
    def n_pairs(self) -> int:
        return len(self.mode_pairs)

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1


def spectral_gauss_rule(omega_c: float, cutoff_mult: float, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights with weight function w * exp(-w/omega_c) on (0, K*omega_c].

    Discretized Stieltjes recurrence + Golub-Welsch; the one-point rule sits
    at the mean frequency of the weight.  A 200-node Gauss-Legendre
    discretization matches a 60-digit moment-based reference to 2e-13 for
    n_modes <= 24 at K = 60; more nodes only add roundoff from the
    high-degree Legendre weights.
    """
    hi = cutoff_mult * omega_c
    x0, w0 = np.polynomial.legendre.leggauss(200)
    x = 0.5 * hi * (x0 + 1.0)
    w = 0.5 * hi * w0 * x * np.exp(-x / omega_c)
    m0 = w.sum()
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
    u = params.u_eff if params.env_kind == "classical" else math.tanh(params.r)
    per_pair = 1.0 - u ** (2 * (n_max + 1))
    captured = per_pair ** n_modes
    if captured < 0.999:
        raise TruncationError(
            f"truncated environment captures {captured:.6f} < 0.999 of the trace; "
            f"increase n_max (correlation parameter u = {u:.4f})"
        )
    return DiscreteDephasingModel(
        mode_pairs=pairs,
        n_max=n_max,
        env_kind=params.env_kind,
        r=params.r,
        u=u,
        params=params,
        captured_trace=captured,
    )


def _ladder(n_dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_dim)), k=1)


@lru_cache(maxsize=None)
def _quadrature_modes(n_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs (x, V) of the real symmetric X = b + b^dag, and P_jk = i^(j-k).

    Computed once per Fock dimension; the arrays are read-only.
    """
    b = _ladder(n_dim)
    x, v = np.linalg.eigh(b + b.T)
    phases = np.array([1.0, 1j, -1.0, -1j])[np.arange(n_dim) % 4]
    p = np.outer(phases, phases.conj())
    for arr in (x, v, p):
        arr.setflags(write=False)
    return x, v, p


def _displacement_gauge(n_dim: int, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """D = exp(alpha b^dag - alpha* b) and its real gauge O = exp(|alpha| (b^dag - b)) = R^dag D R.

    R = diag((alpha / |alpha|)^n).  b^dag - b = S (-i X) S^dag with S = diag(i^n),
    so O = P o exp(-i |alpha| X): real, since X (tridiagonal, zero diagonal) is
    odd under (-1)^n; only roundoff is dropped with its imaginary part.  The
    form 1 - V (1 - e^{-i |alpha| x}) V^T keeps D = O = 1 at alpha = 0.
    """
    x, v, p = _quadrature_modes(n_dim)
    a = abs(alpha)
    g = p * (np.eye(n_dim) - (v * (2.0 * np.sin(0.5 * a * x) ** 2 + 1j * np.sin(a * x))) @ v.T)
    o = g.real.copy()
    r = np.power(complex(alpha / a if a else 1.0), np.arange(n_dim))
    return r[:, None] * o * r.conj(), o


def _displacement(n_dim: int, alpha: complex) -> np.ndarray:
    """exp(alpha b^dag - alpha* b) on the truncated Fock space (exactly unitary)."""
    return _displacement_gauge(n_dim, alpha)[0]


class _Branches:
    """Computational-basis branch decomposition of a pure state on [A, S1, S2]."""

    def __init__(self, initial: DensityMatrix, amp_tol: float = 1e-14):
        labels = initial.partition.labels
        if labels != ("A", "S1", "S2"):
            raise ValueError(f"initial state must live on [A, S1, S2], got {labels}")
        if initial.partition.dims[1:] != (2, 2):
            raise ValueError("S1 and S2 must be qubits")
        eigs, vecs = np.linalg.eigh(initial.data)
        if eigs[-1] < 1.0 - 1e-10:
            raise ValueError("initial state is not pure (branch method requires purity)")
        psi = vecs[:, -1]
        self.d_a = initial.partition.dims[0]
        idx = np.flatnonzero(np.abs(psi) > amp_tol)
        self.amps = psi[idx]
        self.a_lbl = (idx // 4).astype(int)
        s = (idx % 4).astype(int)
        self.s_idx = s
        self.s1 = (s // 2).astype(int)
        self.s2 = (s % 2).astype(int)
        self.nb = idx.size
        self.partition = initial.partition
        # sigma_z eigenvalues per branch and qubit
        self.sig1 = 1 - 2 * self.s1
        self.sig2 = 1 - 2 * self.s2


class _Snapshot:
    """Per-pair displaced environment data at one time.

    ``omega[s, s']`` = prod_m Tr[Phi_s rho_m Phi_s'^dag] (s = 2 s1 + s2), so
    rho_AS(t) = psi psi^dag o (1_A (x) omega).
    """

    def __init__(self, model: DiscreteDephasingModel, t: float):
        self.model = model
        n = model.fock_dim
        u = model.u
        if model.env_kind == "entangled":
            v = u ** np.arange(n)
            v = v / np.linalg.norm(v)
            self.tmsv = v
        else:
            p = (u * u) ** np.arange(n)
            self.probs = p / p.sum()
        self.d1: list[dict[int, np.ndarray]] = []   # sigma -> D(sigma g1 beta_1m)
        self.d2: list[dict[int, np.ndarray]] = []
        self.o1: list[dict[int, np.ndarray]] = []   # sigma -> O_m(sigma), the real gauge of D
        self.o2: list[dict[int, np.ndarray]] = []
        self.psi: list[dict[tuple[int, int], np.ndarray]] = []
        self.omega = np.ones((4, 4), dtype=complex)
        self._kept: dict[tuple[str, int], np.ndarray] = {}
        for om, g1, g2 in model.mode_pairs:
            d1p, o1p = _displacement_gauge(n, g1 * beta(om, t, model.params.window1))
            d2p, o2p = _displacement_gauge(n, g2 * beta(om, t, model.params.window2))
            d1 = {+1: d1p, -1: d1p.conj().T}
            d2 = {+1: d2p, -1: d2p.conj().T}
            self.d1.append(d1)
            self.d2.append(d2)
            self.o1.append({+1: o1p, -1: o1p.T})
            self.o2.append({+1: o2p, -1: o2p.T})
            if model.env_kind == "entangled":
                psi = {(s1, s2): d1[s1] @ (self.tmsv[:, None] * d2[s2].T) for s1, s2 in _SIGMAS}
                self.psi.append(psi)
                vecs = np.stack([psi[s].ravel() for s in _SIGMAS])
                self.omega *= vecs @ vecs.conj().T
            else:
                # c_j[k, b, n] = (D(sigma_b)^dag D(sigma_k))_nn, bit 0 <-> sigma +1
                c1, c2 = (np.einsum("bin,kin->kbn", ds.conj(), ds)
                          for ds in (np.stack([d1[+1], d1[-1]]), np.stack([d2[+1], d2[-1]])))
                self.omega *= np.einsum("n,acn,bdn->abcd", self.probs, c1, c2).reshape(4, 4)

    # -- per-pair overlap objects; orientation: O_{b b'} = Tr_traced[Phi_b rho Phi_b'^dag]

    def local_spectrum(self) -> np.ndarray:
        """Per-pair spectrum of one branch's kept environment block, which displacements leave unchanged.

        Classical: the thermal weights for any kept bath(s); entangled: the Schmidt weights of one bath.
        """
        return self.probs if self.model.env_kind == "classical" else self.tmsv ** 2

    def fock_weights(self, m: int, ket: tuple[int, int], bra: tuple[int, int], keep: str) -> np.ndarray:
        """Diagonal of a classical block once its kept displacements are conjugated away.

        That is p_n c[n], with c = diag(D_bra^dag D_ket) of the traced bath (1 if both are kept).
        """
        if keep == "b1":
            return self.probs * np.diag(self.d2[m][bra[1]].conj().T @ self.d2[m][ket[1]])
        if keep == "b2":
            return self.probs * np.diag(self.d1[m][bra[0]].conj().T @ self.d1[m][ket[0]])
        return self.probs

    def block(self, m: int, ket: tuple[int, int], bra: tuple[int, int], keep: str) -> np.ndarray:
        if self.model.env_kind == "entangled":
            pk, pb = self.psi[m][ket], self.psi[m][bra]
            if keep == "b1":
                return pk @ pb.conj().T
            if keep == "b2":
                return pk.T @ pb.conj()
            if keep == "both":
                return np.outer(pk.ravel(), pb.ravel().conj())
            raise ValueError(f"unknown keep spec {keep!r}")
        if keep in ("b1", "b2"):
            i = 0 if keep == "b1" else 1
            d = (self.d1, self.d2)[i][m]
            return d[ket[i]] @ (self.fock_weights(m, ket, bra, keep)[:, None] * d[bra[i]].conj().T)
        if keep == "both":
            dk = np.kron(self.d1[m][ket[0]], self.d2[m][ket[1]])
            db = np.kron(self.d1[m][bra[0]], self.d2[m][bra[1]])
            n = self.model.fock_dim
            diag = np.zeros(n * n)
            diag[np.arange(n) * n + np.arange(n)] = self.probs
            return dk @ (diag[:, None] * db.conj().T)
        raise ValueError(f"unknown keep spec {keep!r}")

    def kept_state(self, keep: str, sig: int) -> np.ndarray:
        """(x)_m O_m(sig) rho_m O_m(sig)^T on bath ``keep``, rho_m = diag(``local_spectrum``).

        The kept block of a term whose ket and bra share sig, with R conjugated
        away; built on first use.
        """
        if (keep, sig) not in self._kept:
            lam = self.local_spectrum()
            gauges = self.o1 if keep == "b1" else self.o2
            self._kept[keep, sig] = reduce(np.kron, [(o[sig] * lam) @ o[sig].T for o in gauges])
        return self._kept[keep, sig]


def _components(kept: np.ndarray, traced: np.ndarray) -> list[list[int]]:
    """Branch groups closed under sharing a kept label (same rows) or a traced label (a cross term)."""
    groups: list[set[int]] = []
    for b in range(kept.size):
        linked = [g for g in groups if any(kept[x] == kept[b] or traced[x] == traced[b] for x in g)]
        groups = [g for g in groups if g not in linked] + [set().union({b}, *linked)]
    return [sorted(g) for g in groups]


class BranchComputer:
    """Branch Gram entropies and CMI series for one discrete model + pure state."""

    def __init__(self, model: DiscreteDephasingModel, initial: DensityMatrix, budget: int = 4096):
        self.model = model
        self.br = _Branches(initial)
        self.budget = budget
        if self.br.nb > 64:
            raise BudgetError(f"branch count {self.br.nb} exceeds 64")
        self._memo: tuple[_Snapshot, dict[tuple[bool, bool], float]] | None = None

    def _sig(self, b: int) -> tuple[int, int]:
        return (int(self.br.sig1[b]), int(self.br.sig2[b]))

    def _labels(self, keep_a: bool, keep_s: bool) -> tuple[np.ndarray, np.ndarray]:
        """Kept and traced flat (A, S) label of every branch; a part not in the set reads 0."""
        a, s = 4 * self.br.a_lbl, self.br.s_idx
        return a * keep_a + s * keep_s, a * (not keep_a) + s * (not keep_s)

    def _terms(self, comp: Sequence[int], keep_a: bool, keep_s: bool) -> tuple[int, list]:
        """Kept-label count of ``comp`` and (row, column, weight, ket, bra) of its nonzero terms."""
        kept, traced = self._labels(keep_a, keep_s)
        uniq = sorted(set(kept[comp].tolist()))
        return len(uniq), [
            (uniq.index(kept[b]), uniq.index(kept[bp]), self.br.amps[b] * np.conj(self.br.amps[bp]),
             self._sig(b), self._sig(bp))
            for b in comp for bp in comp if traced[b] == traced[bp]
        ]

    def _operator(self, dim: int, dtype) -> np.ndarray:
        """A zero ``dim``-square operator to assemble; the only place the budget applies."""
        if dim > self.budget:
            raise BudgetError(f"assembled operator dimension {dim} exceeds budget {self.budget}")
        return np.zeros((dim, dim), dtype=dtype)

    def _assembled(self, snap: _Snapshot, comp: Sequence[int], keep_a: bool, keep_s: bool,
                   env_keep: str) -> np.ndarray:
        """Spectrum of the branches ``comp`` from their assembled ``nq * n^P`` Kron operator."""
        nq, terms = self._terms(comp, keep_a, keep_s)
        n, n_pairs = self.model.fock_dim, self.model.n_pairs
        ne = {"none": 1, "both": n * n}.get(env_keep, n) ** n_pairs
        mat = self._operator(nq * ne, complex)
        for i, j, w, ket, bra in terms:
            if env_keep == "none":
                mat[i, j] += w * snap.omega[_SIGMA_INDEX[ket], _SIGMA_INDEX[bra]]
            else:
                blocks = [snap.block(m, ket, bra, env_keep) for m in range(n_pairs)]
                mat[i * ne:(i + 1) * ne, j * ne:(j + 1) * ne] += w * reduce(np.kron, blocks)
        return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))

    def _real_gauge(self, snap: _Snapshot, comp: Sequence[int], keep_a: bool,
                    env_keep: str) -> np.ndarray:
        """Spectrum of a one-bath component with S traced, from its real-gauge operator.

        Every term has the same sigma on ket and bra, so its kept block is
        R K(sigma) R^dag with K = ``snap.kept_state`` and R common to all terms;
        sum w E_ij (x) K(sigma) is real symmetric when every weight is (always for S_ASE).
        """
        nq, terms = self._terms(comp, keep_a, False)
        ne = self.model.fock_dim ** self.model.n_pairs
        real = all(w.imag == 0.0 for _, _, w, _, _ in terms)
        mat = self._operator(nq * ne, float if real else complex)
        bath = 0 if env_keep == "b1" else 1
        for i, j, w, ket, _ in terms:
            mat[i * ne:(i + 1) * ne, j * ne:(j + 1) * ne] += (
                (w.real if real else w) * snap.kept_state(env_keep, ket[bath]))
        return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))

    def _fock_diagonal(self, snap: _Snapshot, comp: Sequence[int], keep_a: bool, keep_s: bool,
                       env_keep: str) -> np.ndarray:
        """Spectrum of a classical component whose kept displacement is fixed by the kept label.

        Conjugating each row block by its kept displacements leaves an operator
        diagonal in the kept Fock index n; each n gives one nq x nq block.
        """
        nq, terms = self._terms(comp, keep_a, keep_s)
        mats = np.zeros((self.model.fock_dim ** self.model.n_pairs, nq, nq), dtype=complex)
        for i, j, w, ket, bra in terms:
            weights = [snap.fock_weights(m, ket, bra, env_keep) for m in range(self.model.n_pairs)]
            mats[:, i, j] += w * reduce(np.kron, weights)
        return np.linalg.eigvalsh(0.5 * (mats + mats.conj().transpose(0, 2, 1))).ravel()

    def _entropy(self, snap: _Snapshot, keep_a: bool, keep_s: bool, env_keep: str) -> float:
        """Entropy of the reduced state on the kept labels and the ``env_keep`` modes.

        That state is sum_{b,b'} [traced labels equal] a_b a_b'* |q_b><q_b'| (x)_m B_m(b, b'),
        a direct sum over the branch components.  With no mode kept it is a
        marginal of rho_AS(t).  A single-branch component has spectrum
        |a_b|^2 (x)_m local_spectrum; a classical component whose kept
        displacement is fixed by its kept label splits into Fock-diagonal
        blocks; a one-bath component with S traced is solved in the real gauge;
        any other component is assembled.
        """
        if env_keep == "both" and self.model.env_kind == "entangled":
            # global state pure: S(kept labels, E1 E2) = S(traced labels)
            keep_a, keep_s, env_keep = not keep_a, not keep_s, "none"
        if env_keep == "none":
            return self._env_free(snap)[keep_a, keep_s]
        kept, traced = self._labels(keep_a, keep_s)
        spectra = []
        for comp in _components(kept, traced):
            if len(comp) == 1:
                lam = reduce(np.kron, [snap.local_spectrum()] * self.model.n_pairs)
                spectra.append(abs(self.br.amps[comp[0]]) ** 2 * lam)
            # a kept S label fixes both displacements of its branches
            elif self.model.env_kind == "classical" and (keep_s or len(set(kept[comp])) == len(comp)):
                spectra.append(self._fock_diagonal(snap, comp, keep_a, keep_s, env_keep))
            elif not keep_s and env_keep != "both":
                spectra.append(self._real_gauge(snap, comp, keep_a, env_keep))
            else:
                spectra.append(self._assembled(snap, comp, keep_a, keep_s, env_keep))
        return spectrum_entropy(np.concatenate(spectra), tol=1e-9)

    def _rho_as(self, snap: _Snapshot) -> np.ndarray:
        """rho_AS(t) = psi psi^dag o (1_A (x) omega) on [A, S1, S2], Hermitian-symmetrized."""
        br = self.br
        psi = np.zeros(br.d_a * 4, dtype=complex)
        psi[4 * br.a_lbl + br.s_idx] = br.amps
        mat = np.outer(psi, psi.conj()) * np.tile(snap.omega, (br.d_a, br.d_a))
        return 0.5 * (mat + mat.conj().T)

    def _env_free(self, snap: _Snapshot) -> dict[tuple[bool, bool], float]:
        """S(A S), S(S), S(A), S() by (keep_a, keep_s) from rho_AS, kept for the last snapshot."""
        if self._memo is None or self._memo[0] is not snap:
            d_a = self.br.d_a
            rho = self._rho_as(snap)
            blocks = rho.reshape(d_a, 4, d_a, 4)
            marginals = {(True, True): rho, (False, True): np.einsum("asat->st", blocks),
                         (True, False): np.einsum("asbs->ab", blocks)}
            ent = {k: spectrum_entropy(np.linalg.eigvalsh(m), tol=1e-9) for k, m in marginals.items()}
            ent[False, False] = 0.0
            self._memo = (snap, ent)
        return self._memo[1]

    def entropies_at(self, t: float, env_part: str, snap: _Snapshot | None = None) -> dict[str, float]:
        if env_part not in ENV_PARTS:
            raise ValueError(f"env_part must be one of {ENV_PARTS}")
        if snap is None:
            snap = _Snapshot(self.model, t)
        out: dict[str, float] = {}
        out["S_AS"] = self._entropy(snap, True, True, "none")
        out["S_S"] = self._entropy(snap, False, True, "none")
        out["S_A"] = self._entropy(snap, True, False, "none")
        if self.model.env_kind == "entangled":
            # global state pure: S(S E) = S(A E'), S(A S E) = S(E') with E' the other env part
            keep = {"E1": "b2", "E2": "b1", "E1E2": "none"}[env_part]
            out["S_SE"] = self._entropy(snap, True, False, keep)
            out["S_ASE"] = self._entropy(snap, False, False, keep)
        else:
            keep = {"E1": "b1", "E2": "b2", "E1E2": "both"}[env_part]
            out["S_SE"] = self._entropy(snap, False, True, keep)
            out["S_ASE"] = self._entropy(snap, True, True, keep)
        cmi = out["S_AS"] + out["S_SE"] - out["S_S"] - out["S_ASE"]
        if cmi < -1e-8:
            raise RuntimeError(f"branch CMI {cmi} violates strong subadditivity")
        out["cmi"] = max(cmi, 0.0)
        out["mi_sa"] = max(out["S_S"] + out["S_A"] - out["S_AS"], 0.0)
        return out

    def trajectories(
        self, times: Sequence[float], env_parts: Sequence[str] = ENV_PARTS, with_mi: bool = True
    ) -> dict[str, ScalarSeries]:
        """CMI series per env part (keys "E1", "E2", "E1E2") plus "mi_sa".

        One snapshot per time sample is shared across all requested series.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        acc: dict[str, list[float]] = {p: [] for p in env_parts}
        if with_mi:
            acc["mi_sa"] = []
        for ti in t:
            snap = _Snapshot(self.model, ti)
            first = True
            for p in env_parts:
                ent = self.entropies_at(ti, p, snap=snap)
                acc[p].append(ent["cmi"])
                if with_mi and first:
                    acc["mi_sa"].append(ent["mi_sa"])
                    first = False
            if with_mi and not env_parts:
                ent = self.entropies_at(ti, "E1E2", snap=snap)
                acc["mi_sa"].append(ent["mi_sa"])
        return {k: ScalarSeries(t, v) for k, v in acc.items()}

    def system_ancilla_state(self, t: float) -> DensityMatrix:
        return DensityMatrix(self._rho_as(_Snapshot(self.model, t)), self.br.partition)

    def system_state(self, t: float) -> DensityMatrix:
        return partial_trace(self.system_ancilla_state(t), {"S1", "S2"})


def cmi_trajectory(
    model: DiscreteDephasingModel,
    initial: DensityMatrix,
    times: Sequence[float],
    env_part: str,
    budget: int = 4096,
) -> ScalarSeries:
    """I(A : env_part | S1 S2)(t) along the discrete-model evolution.

    Pure initial states run through the branch Gram method; mixed states fall
    back to dense full-Hilbert-space evolution when the dimension allows.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    top = float(initial.eigenvalues()[-1])
    if top >= 1.0 - 1e-10:
        comp = BranchComputer(model, initial, budget=budget)
        vals = [comp.entropies_at(ti, env_part)["cmi"] for ti in t]
        return ScalarSeries(t, vals)
    dense = DenseComputer(model, initial, budget=budget)
    vals = [dense.entropies_at(ti, env_part)["cmi"] for ti in t]
    return ScalarSeries(t, vals)


def discrete_phase_factors(model: DiscreteDephasingModel, t: float) -> PhaseFactors:
    """The six coherence factors of the truncated discrete model.

    Computed from per-pair displaced-environment overlaps in the interaction
    picture (free eps phases excluded); converges to the continuum
    (closed-form) factors at eps = 0 as the mode count grows.
    """
    omega = _Snapshot(model, t).omega
    return PhaseFactors(**{name: complex(omega[i, j]) for name, (i, j) in _FACTOR_INDEX.items()})


# ---------------------------------------------------------------------------
# dense cross-check path


class DenseComputer:
    """Full-Hilbert-space evolution; the independent cross-check for the branch path."""

    def __init__(self, model: DiscreteDephasingModel, initial: DensityMatrix, budget: int = 4096):
        self.model = model
        n = model.fock_dim
        labels = initial.partition.labels
        if labels != ("A", "S1", "S2"):
            raise ValueError(f"initial state must live on [A, S1, S2], got {labels}")
        env_factors = []
        for m in range(model.n_pairs):
            env_factors += [(f"E1m{m}", n), (f"E2m{m}", n)]
        self.partition = initial.partition.concat(SystemPartition(env_factors))
        dim = self.partition.total_dim
        if dim > budget:
            raise BudgetError(f"dense dimension {dim} exceeds budget {budget}")
        u = model.u
        if model.env_kind == "entangled":
            v = u ** np.arange(n)
            v = v / np.linalg.norm(v)
            vec = np.zeros(n * n, dtype=complex)
            vec[np.arange(n) * n + np.arange(n)] = v
            pair_state = np.outer(vec, vec.conj())
        else:
            p = (u * u) ** np.arange(n)
            p = p / p.sum()
            pair_state = np.zeros((n * n, n * n), dtype=complex)
            ii = np.arange(n) * n + np.arange(n)
            pair_state[ii, ii] = p
        env = reduce(np.kron, [pair_state] * model.n_pairs)
        self.rho0 = np.kron(initial.data, env)
        self.d_a = initial.partition.dims[0]
        self._memo: tuple[float, DensityMatrix] | None = None

    def state_at(self, t: float) -> DensityMatrix:
        """U(t) rho0 U(t)^dag with U = 1_A (x) blockdiag_s(U_s), applied block by block.

        The last state is kept, so the entropies of every env part and the
        system state at one t share a single evolution and validation.
        """
        t = float(t)
        if self._memo is not None and self._memo[0] == t:
            return self._memo[1]
        model = self.model
        n = model.fock_dim
        dim_env = (n * n) ** model.n_pairs
        u_s = np.empty((len(_BASIS), dim_env, dim_env), dtype=complex)
        for s_idx, (b1bit, b2bit) in enumerate(_BASIS):
            s1, s2 = _sigma(b1bit), _sigma(b2bit)
            ops = []
            for om, g1, g2 in model.mode_pairs:
                d1 = _displacement(n, s1 * g1 * beta(om, t, model.params.window1))
                d2 = _displacement(n, s2 * g2 * beta(om, t, model.params.window2))
                ops.append(np.kron(d1, d2))
            u_s[s_idx] = reduce(np.kron, ops)
        u_k = np.tile(u_s, (self.d_a, 1, 1))  # row block k = (a, s) evolves with U_s
        nb = u_k.shape[0]
        blocks = self.rho0.reshape(nb, dim_env, nb, dim_env).transpose(0, 2, 1, 3)
        out = u_k[:, None] @ blocks @ u_k.conj().transpose(0, 2, 1)[None, :]
        rho = out.transpose(0, 2, 1, 3).reshape(self.rho0.shape)
        rho = 0.5 * (rho + rho.conj().T)
        state = DensityMatrix(rho, self.partition)
        self._memo = (t, state)
        return state

    def entropies_at(self, t: float, env_part: str) -> dict[str, float]:
        if env_part not in ENV_PARTS:
            raise ValueError(f"env_part must be one of {ENV_PARTS}")
        state = self.state_at(t)
        e1 = {l for l in self.partition.labels if l.startswith("E1")}
        e2 = {l for l in self.partition.labels if l.startswith("E2")}
        env = e1 if env_part == "E1" else e2 if env_part == "E2" else (e1 | e2)
        sys_l = {"S1", "S2"}
        reduced = partial_trace(state, {"A"} | sys_l | env)
        rho_as = partial_trace(state, {"A"} | sys_l)
        out = {
            "S_AS": info.von_neumann_entropy(rho_as),
            "S_S": info.von_neumann_entropy(partial_trace(state, sys_l)),
            "S_A": info.von_neumann_entropy(partial_trace(state, {"A"})),
            "S_SE": info.von_neumann_entropy(partial_trace(reduced, sys_l | env)),
            "S_ASE": info.von_neumann_entropy(reduced),
        }
        out["cmi"] = info.conditional_mutual_information(reduced, {"A"}, env, sys_l)
        out["mi_sa"] = info.mutual_information(rho_as, sys_l, {"A"})
        return out

    def system_state(self, t: float) -> DensityMatrix:
        return partial_trace(self.state_at(t), {"S1", "S2"})
