"""Brute-force verification suites.

Random-state identity checks for the information-measure layer, truncated
Fock-space checks for the special functions, and the dense cross-check of
the s-block ``BranchComputer``, whose branch side is read from one snapshot
of the check's times.  Every suite is deterministic per seed; violations
are reported, not thrown.  The identity suite is a table with one row per
sample: ``identity_draws`` draws every sample's inputs, and
``identity_column`` evaluates one check (its value or values) over the
samples it is given, once per partition they drew, on the stack of their
states (see :mod:`.states`).  Each value holds the bits of its sample alone,
so the checks can be computed in any grouping and by any process.
``identity_suite`` alone schedules them: it draws, submits one task per
column through the ``submit`` it is given (``run_now``, or a pool's), and
folds the table in sample order.  The suite's negative control applies a global
unitary to a product state tau_A (x) sigma_SE and must see I(A:SE) change;
it checks that the suite can fail.  Entries whose name ends in ``_recorded``
are informational (tolerance = inf): they log margins for bounds that are
not theorems for the implemented (Petz) recovery map.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dephasing, info, measures
from .states import (
    DensityMatrix,
    SystemPartition,
    apply_channel,
    basis_state,
    embed,
    haar_random_unitary,
    partial_trace,
    pure_state,
    random_channel,
    random_density_matrix,
    tensor,
)

IDENTITY_TOL = 1e-8
DENSE_TOL = 1e-7


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_violation <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": int(self.samples),
            "max_violation": None if math.isnan(self.max_violation) else float(self.max_violation),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...]
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: max violation {c.max_violation:.3e} "
                f"(tol {c.tolerance:.0e}, {c.samples} samples)"
            )
        return "\n".join(lines)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-18 Taylor polynomial.

    ``a`` is scaled by 2^-s until its 1-norm is at most 1/2, where the
    truncated series is exact to ~1e-23 relative; the result is then squared
    s times.  Against SciPy's Pade ``expm`` it agrees to ~3e-14 on 61-dim
    displacement generators with |gamma| <= 2.
    """
    norm = float(np.linalg.norm(a, 1))
    s = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    x = a / 2.0**s
    eye = np.eye(a.shape[0], dtype=x.dtype)
    out = eye
    for k in range(18, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def _rng_for(seed: int, sample: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(sample,)))


def _qubit_split(rng: np.random.Generator, n_parts: int, total_range=(3, 5)) -> tuple[int, ...]:
    """Random dims, one qubit or more per part, total qubits in range."""
    total = int(rng.integers(total_range[0], total_range[1] + 1))
    extra = total - n_parts
    counts = [1] * n_parts
    for _ in range(extra):
        counts[int(rng.integers(0, n_parts))] += 1
    return tuple(2**c for c in counts)


def _seeds(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(rng.integers(0, 2**31)) for _ in range(n))


def _rand_states(part: SystemPartition, seeds: Sequence[int]) -> DensityMatrix:
    """The stack of the full-rank random states of ``seeds`` on ``part``."""
    return random_density_matrix(part, part.total_dim, seeds)


def _u_on(part: SystemPartition, labels: set[str], seeds: Sequence[int]) -> np.ndarray:
    """Embed the stack of Haar unitaries of ``seeds`` acting on `labels` into the full space."""
    return embed(haar_random_unitary(part.restrict(labels).total_dim, seeds), part, labels)


def _conj(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    return DensityMatrix(u @ rho.data @ u.conj().swapaxes(-1, -2), rho.partition, _owned=True)


def _max(a, b):
    """Python's ``max(a, b)`` slice by slice: ``b`` only where it is larger."""
    return np.where(b > a, b, a)


# Each identity check is a draw and a stacked evaluation.  The draw takes a
# sample's inputs from its generator in a fixed order and returns them with a
# key naming their partition; the evaluation takes a key and, for each input,
# the tuple of its values over the samples drawn with that key, and returns
# the violations of those samples.


def _draw_conservation(rng, negative: bool = False):
    return (_qubit_split(rng, 3), negative), _seeds(rng, 3 if negative else 2)


def _check_conservation(key, *seeds) -> np.ndarray:
    """(a) I(A:SE) conserved under U_SE (x) 1_A.

    The negative control starts from a product tau_A (x) sigma_SE, so
    I(A:SE) = 0 before the rotation, and rotates A too: |delta| is then the
    correlation the global unitary creates, which is bounded away from 0
    (a random correlated state could land on delta ~ 0 by chance).
    """
    (da, ds, de), negative = key
    part = SystemPartition([("A", da), ("S", ds), ("E", de)])
    if negative:
        rho = tensor(
            _rand_states(part.restrict({"A"}), seeds[0]), _rand_states(part.restrict({"S", "E"}), seeds[1])
        )
        labels = {"A", "S", "E"}
    else:
        rho = _rand_states(part, seeds[0])
        labels = {"S", "E"}
    u = _u_on(part, labels, seeds[-1])
    before = info.mutual_information(rho, {"A"}, {"S", "E"})
    after = info.mutual_information(_conj(rho, u), {"A"}, {"S", "E"})
    return np.abs(after - before)


def _draw_four_party(n_seeds: int):
    return lambda rng: (_qubit_split(rng, 4, total_range=(4, 5)), _seeds(rng, n_seeds))


def _four_party(dims: tuple[int, ...], seeds: Sequence[int]) -> tuple[SystemPartition, DensityMatrix]:
    part = SystemPartition(zip(("A", "S", "E1", "E2"), dims))
    return part, _rand_states(part, seeds)


def _cmi_sub(rho: DensityMatrix, env: set[str]):
    reduced = partial_trace(rho, {"A", "S"} | env)
    return info.conditional_mutual_information(reduced, {"A"}, env, {"S"})


def _check_sub_env(dims, seeds, u_seeds) -> np.ndarray:
    """(b) delta I(A:E1E2|S) = delta I(A:E1|S) under U on S+E1."""
    part, rho = _four_party(dims, seeds)
    rho2 = _conj(rho, _u_on(part, {"S", "E1"}, u_seeds))
    d_full = _cmi_sub(rho2, {"E1", "E2"}) - _cmi_sub(rho, {"E1", "E2"})
    d_e1 = _cmi_sub(rho2, {"E1"}) - _cmi_sub(rho, {"E1"})
    return np.abs(d_full - d_e1)


def _check_chain_rule(dims, seeds) -> np.ndarray:
    """(c) I(E1E2:A|S) = I(E1:A|S) + I(E2:A|SE1)."""
    _, rho = _four_party(dims, seeds)
    lhs = info.conditional_mutual_information(rho, {"E1", "E2"}, {"A"}, {"S"})
    t1 = _cmi_sub(rho, {"E1"})
    t2 = info.conditional_mutual_information(rho, {"E2"}, {"A"}, {"S", "E1"})
    return np.abs(lhs - (t1 + t2))


def _check_interaction_decomposition(dims, seeds) -> np.ndarray:
    """(d) I(A:E1E2|S) = I(A:E1|S) + I(A:E2|S) - I(E1;E2;A|S)."""
    _, rho = _four_party(dims, seeds)
    lhs = _cmi_sub(rho, {"E1", "E2"})
    rhs = (
        _cmi_sub(rho, {"E1"})
        + _cmi_sub(rho, {"E2"})
        - info.interaction_information(rho, {"E1"}, {"E2"}, {"A"}, {"S"})
    )
    return np.abs(lhs - rhs)


def _draw_broadcast(rng):
    dims = _qubit_split(rng, 2, total_range=(2, 3))
    probs = rng.dirichlet(np.ones(2))
    return dims, (probs, *_seeds(rng, 2))


def _check_broadcast(dims, probs, *block_seeds) -> np.ndarray:
    """(e) broadcast copying gives every sub-environment the same leaked information.

    The premise requires states classical on E1 in the copy basis, so the
    sample is rho_AS^(e) mixed over projectors on E1 before CNOT-copying into
    |0>-initialized fresh sub-environments.
    """
    da, ds = dims
    de = 2
    part_as = SystemPartition([("A", da), ("S", ds)])
    probs = np.array(probs)
    part = SystemPartition([("A", da), ("S", ds), ("E1", de)])
    data = np.zeros((len(probs),) + (da * ds * de,) * 2, dtype=complex)
    for e, seeds in enumerate(block_seeds):
        proj = np.zeros((de, de))
        proj[e, e] = 1.0
        data += np.kron(_rand_states(part_as, seeds).data * probs[:, e, None, None], proj)
    rho = DensityMatrix(data, part, _owned=True)
    base = _cmi_sub(rho, {"E1"})
    # attach two fresh |0> sub-environments and copy E1's basis into them
    fresh = SystemPartition([("E2", de), ("E3", de)])
    sigma = tensor(rho, basis_state(fresh, [0, 0]))
    # the copy |e j k> -> |e, j + e, k + e> is a permutation: output index i reads input src[i]
    e, j, k = np.indices((de,) * 3).reshape(3, -1)
    src = (e * de + (j - e) % de) * de + (k - e) % de
    perm = (np.arange(da * ds)[:, None] * de**3 + src).ravel()
    sigma = DensityMatrix(sigma.data[:, perm[:, None], perm], sigma.partition, _owned=True)
    worst = 0.0
    for env in ({"E1"}, {"E2"}, {"E3"}, {"E1", "E2", "E3"}):
        reduced = partial_trace(sigma, {"A", "S"} | env)
        val = info.conditional_mutual_information(reduced, {"A"}, env, {"S"})
        worst = _max(worst, np.abs(val - base))
    return worst


def _draw_initial_markovianity(rng):
    dims = _qubit_split(rng, 3)
    seeds = _seeds(rng, 2)
    n = dims[1] * dims[2]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return dims, (*seeds, h)


def _check_initial_markovianity(dims, as_seeds, e_seeds, hs) -> np.ndarray:
    """(f) I(A:E|S)=0 initially implies I >= 0 after a short U_SE step."""
    da, ds, de = dims
    part_as = SystemPartition([("A", da), ("S", ds)])
    part_e = SystemPartition([("E", de)])
    rho0 = tensor(_rand_states(part_as, as_seeds), _rand_states(part_e, e_seeds))
    start = info.conditional_mutual_information(rho0, {"A"}, {"E"}, {"S"})
    steps = np.stack([expm(-1j * 0.05 * (0.5 * (h + h.conj().T))) for h in hs])
    full = embed(steps, rho0.partition, {"S", "E"})
    after = info.conditional_mutual_information(_conj(rho0, full), {"A"}, {"E"}, {"S"})
    return _max(_max(start, -after), 0.0)


def _draw_pair_state_identity(rng):
    return int(rng.integers(2, 5)), _seeds(rng, 2)


def _check_pair_state_identity(ds, seeds1, seeds2) -> np.ndarray:
    """(g) S(rho_SA^op || rho_S (x) rho_A) = ln2 * D_tele(rho1, rho2)."""
    part_s = SystemPartition([("S", ds)])
    rho1 = _rand_states(part_s, seeds1)
    rho2 = _rand_states(part_s, seeds2)
    op = measures.optimal_pair_state(rho1, rho2)
    prod = tensor(partial_trace(op, {"S"}), partial_trace(op, {"A"}))
    lhs = info.relative_entropy(op, prod)
    rhs = math.log(2.0) * info.jensen_shannon_telescopic(rho1, rho2)
    return np.abs(lhs - rhs)


def _draw_telescopic_dpi(rng):
    d = int(rng.integers(2, 5))
    rho_seed, sigma_seed = _seeds(rng, 2)
    a = float(rng.uniform(0.1, 0.9))
    kraus_count = int(rng.integers(2, 4))
    return (d, kraus_count), (rho_seed, sigma_seed, a, *_seeds(rng, 1))


def _check_telescopic_dpi(key, rho_seeds, sigma_seeds, a, channel_seeds) -> np.ndarray:
    """(h) S_a is non-increasing under CPTP maps."""
    d, kraus_count = key
    part = SystemPartition([("S", d)])
    rho = _rand_states(part, rho_seeds)
    sigma = _rand_states(part, sigma_seeds)
    a = np.array(a)
    ch = random_channel(d, kraus_count, channel_seeds)
    before = info.telescopic_relative_entropy(rho, sigma, a)
    after = info.telescopic_relative_entropy(
        apply_channel(rho, ch, "S"), apply_channel(sigma, ch, "S"), a
    )
    return _max(after - before, 0.0)


def _draw_petz(rng):
    return (), _seeds(rng, 1)


def _petz_three_qubit(key, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RACMI margin (asserted) and the recovery-bound margins (recorded)."""
    part = SystemPartition([("A", 2), ("B", 2), ("C", 2)])
    rho = _rand_states(part, seeds)
    sigma = info.petz_recovery(rho, {"A"}, {"B"}, {"C"})
    cmi = info.conditional_mutual_information(rho, {"A"}, {"C"}, {"B"})
    d = info.trace_distance(rho, sigma)
    racmi_violation = _max(cmi - 7.0 * math.log2(2) * np.sqrt(d), 0.0)
    # D^2 <= ln2 * I(A:C|B) holds for an optimal recovery map; record the Petz
    # margins under both distance normalizations.
    half_norm = d * d - math.log(2.0) * cmi
    # Python's ``**`` (libm ``pow``), which NumPy's square does not always match to the bit
    full_norm = np.array([(2 * x) ** 2 for x in d.tolist()]) - math.log(2.0) * cmi
    return racmi_violation, half_norm, full_norm


# (name, draw, stacked check)
_IDENTITY_CHECKS = (
    ("a_conservation_I_A_SE", _draw_conservation, _check_conservation),
    ("b_sub_environment", _draw_four_party(2), _check_sub_env),
    ("c_chain_rule", _draw_four_party(1), _check_chain_rule),
    ("d_interaction_decomposition", _draw_four_party(1), _check_interaction_decomposition),
    ("e_broadcast_redundancy", _draw_broadcast, _check_broadcast),
    ("f_initial_markovianity", _draw_initial_markovianity, _check_initial_markovianity),
    ("g_pair_state_identity", _draw_pair_state_identity, _check_pair_state_identity),
    ("h_telescopic_dpi", _draw_telescopic_dpi, _check_telescopic_dpi),
)
# the checks of the columns of ``identity_draws``: (a)-(h), the negative control, the Petz margins
COLUMN_CHECKS = (*(check for *_, check in _IDENTITY_CHECKS), _check_conservation, _petz_three_qubit)


def _by_partition(draws: list, check) -> np.ndarray:
    """``check`` on every sample's draw, one stacked call per partition key.

    Returns one row per sample, with the value (or values) ``check`` gives it.
    """
    groups: dict = {}
    for i, (key, _) in enumerate(draws):
        groups.setdefault(key, []).append(i)
    table = None
    for key, rows in groups.items():
        vals = check(key, *zip(*(draws[i][1] for i in rows)))
        vals = np.column_stack(vals if isinstance(vals, tuple) else (vals,))
        if table is None:
            table = np.empty((len(draws), vals.shape[1]))
        table[rows] = vals
    return table


def identity_draws(seed: int, samples: int) -> list[list]:
    """The inputs of samples 0, 1, ..., one list per column of ``identity_column``.

    Sample i draws only from ``_rng_for(seed, i)`` (checks (a)-(h) in order,
    then the negative control from a fresh generator) and from
    ``_rng_for(seed + 1, i)`` (the Petz sample).
    """
    rows = []
    for i in range(samples):
        rng = _rng_for(seed, i)
        row = [draw(rng) for _, draw, _ in _IDENTITY_CHECKS]
        row.append(_draw_conservation(_rng_for(seed, i), negative=True))
        row.append(_draw_petz(_rng_for(seed + 1, i)))
        rows.append(row)
    return [list(column) for column in zip(*rows)]


def identity_column(j: int, draws: list) -> np.ndarray:
    """The values of column ``j`` of ``identity_draws`` for each of its samples.

    Each partition the samples drew is evaluated as one stacked state, and
    every slice's values are those it would have alone, so a sample's values
    do not depend on the samples it is evaluated with.
    """
    return _by_partition(draws, COLUMN_CHECKS[j])


def identity_report(seed: int, table: np.ndarray) -> SuiteReport:
    """Fold the (samples, columns) table of ``identity_suite`` into the suite's report.

    A row holds a sample's violation of each check (a)-(h), the negative
    control's |delta I(A:SE)| and the three Petz margins of
    ``_petz_three_qubit``.  Each column is folded by a NumPy reduction, which
    propagates NaN, so a NaN in any row reaches its ``CheckResult`` and fails it.
    """
    samples = len(table)
    n = len(_IDENTITY_CHECKS)
    worst = table.max(axis=0, initial=0.0)  # checks (a)-(h) before n, the RACMI margin at n + 1
    neg_min = table[:, n].min(initial=math.inf)
    dsq_half, dsq_full = table[:, n + 2:].max(axis=0, initial=-math.inf)
    checks = [
        CheckResult(name, samples, w, IDENTITY_TOL) for (name, *_), w in zip(_IDENTITY_CHECKS, worst[:n])
    ]
    # sensitivity: the deliberately broken precondition must be detected
    checks.append(
        CheckResult("negative_control_detected", samples, 0.0 if neg_min > 1e-6 else math.inf, IDENTITY_TOL)
    )
    checks.append(CheckResult("petz_racmi_bound", samples, worst[n + 1], IDENTITY_TOL))
    checks.append(CheckResult("petz_dsq_half_norm_recorded", samples, dsq_half, math.inf))
    checks.append(CheckResult("petz_dsq_full_norm_recorded", samples, dsq_full, math.inf))
    return SuiteReport(tuple(checks), seed)


def run_now(fn, *args) -> Future:
    """``fn(*args)``, run at once and returned as the finished future a pool's ``submit`` gives."""
    future = Future()
    future.set_result(fn(*args))
    return future


def identity_suite(seed: int, samples: int, submit=run_now) -> SuiteReport:
    """Run checks (a)-(h) plus the negative control on random instances.

    Draws every sample here, submits ``identity_column(j, draws)`` for each
    column (``run_now``, or a process pool's ``submit``) and folds the table,
    which does not depend on ``submit``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    columns = [submit(identity_column, j, draws) for j, draws in enumerate(identity_draws(seed, samples))]
    return identity_report(seed, np.hstack([f.result() for f in columns]))


# ---------------------------------------------------------------------------
# special functions


def special_function_suite(seed: int = 0) -> SuiteReport:
    """Truncated-Fock checks of the displaced-number overlap and both pair factors.

    The displacements come from ``expm`` of the generator, an algorithm
    independent of the eigendecomposition behind ``dephasing._displacement``.
    """
    rng = np.random.default_rng(seed)
    n_dim = 61
    b = np.diag(np.sqrt(np.arange(1.0, n_dim)), k=1)

    def disp(gamma: complex) -> np.ndarray:
        return expm(gamma * b.conj().T - np.conj(gamma) * b)

    # (a) <n| e^{-i x p} |n> vs exp(-x^2/4) L_n(x^2/2); e^{-ixp} = D(x/sqrt2)
    worst_a = 0.0
    xs = np.concatenate([np.linspace(-2, 2, 9), rng.uniform(-2, 2, 4)])
    for x in xs:
        d = disp(x / math.sqrt(2.0))
        for n in range(11):
            worst_a = max(worst_a, abs(d[n, n].real - dephasing.displaced_fock_overlap(n, x)))

    # (b) classical factor vs the Laguerre sum at r = 0.8
    r = 0.8
    u = math.tanh(r)
    n_sum = 200
    nn = np.arange(n_sum + 1)
    probs = (1 - u * u) * u ** (2 * nn)
    worst_b = 0.0

    def lag_all(z: float) -> np.ndarray:
        out = np.empty(n_sum + 1)
        out[0] = 1.0
        if n_sum >= 1:
            out[1] = 1.0 - z
        for k in range(1, n_sum):
            out[k + 1] = ((2 * k + 1 - z) * out[k] - k * out[k - 1]) / (k + 1)
        return out

    for x1, x2 in [(0.5, 0.5), (1.2, 0.3), (0.0, 0.9), (1.5, 1.5), (2.0, 0.7)]:
        ref = float(
            (probs * np.exp(-(x1 * x1 + x2 * x2) / 4.0) * lag_all(x1 * x1 / 2) * lag_all(x2 * x2 / 2)).sum()
        )
        g1, g2 = x1 / math.sqrt(2.0), x2 / math.sqrt(2.0)
        val = math.exp(dephasing.classical_char_factor(g1, g2, r))
        worst_b = max(worst_b, abs(val - ref))

    # (c) entangled factor vs the truncated TMSV expectation at r = 0.8
    n_t = 41
    bt = np.diag(np.sqrt(np.arange(1.0, n_t)), k=1)

    def disp_t(gamma: complex) -> np.ndarray:
        return expm(gamma * bt.conj().T - np.conj(gamma) * bt)

    v = u ** np.arange(n_t)
    v = v / np.linalg.norm(v)
    mat = np.diag(v).astype(complex)  # |v> = sum_n v_n |n>|n>, reshaped to n_t x n_t
    worst_c = 0.0
    pts = [(0.3, 0.3), (0.3 + 0.2j, -0.1 + 0.4j), (0.5j, 0.5j), (0.8, -0.4 + 0.1j)]
    rnd = rng.uniform(-0.6, 0.6, (2, 4))
    pts += [(complex(a, b_), complex(c, d_)) for a, b_, c, d_ in rnd]
    for g1, g2 in pts:
        # <v| D1 (x) D2 |v> = <V, D1 V D2^T>
        ref = np.vdot(mat, disp_t(g1) @ mat @ disp_t(g2).T)
        val = math.exp(dephasing.entangled_char_factor(g1, g2, r))
        worst_c = max(worst_c, abs(ref - val))

    checks = (
        CheckResult("displaced_fock_overlap", len(xs) * 11, worst_a, 1e-8),
        CheckResult("classical_char_factor_vs_sum", 5, worst_b, 1e-6),
        CheckResult("entangled_char_factor_vs_tmsv", len(pts), worst_c, 1e-6),
    )
    return SuiteReport(checks, seed)


# ---------------------------------------------------------------------------
# dense cross-check of the s-block branch computer


def dense_dephasing_check(
    model: dephasing.DiscreteDephasingModel,
    initial: DensityMatrix,
    times: Sequence[float],
    budget: int = dephasing.DEFAULT_BUDGET,
) -> SuiteReport:
    """Compare ``BranchComputer`` entropies/CMI against dense full-space evolution.

    The branch side reads every entropy of every env part from one snapshot
    of ``times``, in one ``entropies_at`` call.  Each dense state holds only
    the rows [A', S', E] of the full space that the live rows of its initial
    state use (``DenseComputer``); the rows left out are exact zeros, so every
    entropy is that of the full state.  One dense state is held at a time.
    The system coherences are compared on a probe state that populates all
    of them: its branch system state is rho_S(0) o omega(t), from the same
    snapshot.  Also records how far the dense system coherences sit from the
    continuum (closed-form) factors, under the historical key
    ``quadrature_coherence_dev_*`` (a convergence indicator for the mode
    count, looser by construction and not asserted).
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    snap = dephasing._Snapshot(model, t, budget)
    branch = dephasing.BranchComputer(model, initial, budget=budget).entropies_at(snap, dephasing.ENV_PARTS)
    dense = dephasing.DenseComputer(model, initial, budget=budget)
    worst_cmi = 0.0
    worst_ent = 0.0
    for i, ti in enumerate(t):
        for part, eb in zip(dephasing.ENV_PARTS, branch):
            ed = dense.entropies_at(ti, part)
            worst_cmi = max(worst_cmi, abs(float(eb["cmi"][i]) - ed["cmi"]))
            for key in ("S_AS", "S_S", "S_A", "S_SE", "S_ASE", "mi_sa"):
                worst_ent = max(worst_ent, abs(float(eb[key][i]) - ed[key]))
    del dense  # so the probe below never holds a dense state beside it
    # coherence convergence vs the continuum factors (recorded); probed with a state that
    # populates every system coherence (the measurement initial usually doesn't)
    amps = np.zeros(8, dtype=complex)
    amps[:4] = 0.5
    probe = pure_state(amps, measures.AS_PARTITION)
    dense_probe = dephasing.DenseComputer(model, probe, budget=budget)
    branch_sys = partial_trace(probe, {"S1", "S2"}).data * snap.omega
    cont = dephasing.coherence_factor_matrices(model.params, t)
    rho0 = dense_probe.system_state(0.0).data
    quad_dev = 0.0
    mod_dev = 0.0
    path_dev = 0.0
    for ti, bm, om, cf in zip(t, branch_sys, snap.omega, cont):
        dm = dense_probe.system_state(ti).data
        path_dev = max(path_dev, float(np.max(np.abs(dm - bm))))
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                quad_dev = max(quad_dev, abs(dm[i, j] / rho0[i, j] - cf[i, j]))
        if model.env_kind == "classical":
            k12, lam12 = (om[dephasing._FACTOR_INDEX[name]] for name in ("k12", "lam12"))
            mod_dev = max(mod_dev, abs(abs(k12) - abs(lam12)))
            mod_dev = max(mod_dev, abs(abs(bm[2, 1]) - abs(dm[2, 1])))
    checks = [
        CheckResult("branch_vs_dense_cmi", t.size, worst_cmi, DENSE_TOL),
        CheckResult("branch_vs_dense_entropies", t.size, worst_ent, DENSE_TOL),
        CheckResult("branch_vs_dense_coherences", t.size, path_dev, DENSE_TOL),
        CheckResult(
            f"quadrature_coherence_dev_{model.n_pairs}_pairs_recorded",
            t.size,
            quad_dev,
            math.inf,
        ),
    ]
    if model.env_kind == "classical":
        checks.append(CheckResult("classical_k12_lam12_modulus", t.size, mod_dev, 1e-10))
    return SuiteReport(tuple(checks), seed=0)
