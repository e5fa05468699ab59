"""Command-line front end: JSON experiment configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 config error, 2 numerical-convergence failure,
3 failed check suite.  Output files are written atomically
(temp-then-rename) and are byte-identical for identical config + seed at a
fixed BLAS thread count.
``NONMARKOV_THREADS`` caps worker parallelism (default, and upper limit: the
CPUs this process may use): the thread pool over ``measures`` candidates, and
the ``check`` pool of ``NONMARKOV_THREADS`` forked processes that each take
whole checks (a cross-check, or one identity check over every sample).
``check`` has one schedule, ``oracle.identity_suite``; this module only
picks the pool's ``submit`` or an in-process one (see
``_identity_and_cross_checks``).  Neither changes an output byte.  Before
the pool forks, the parent imports ``numpy.random``, which its draws load
anyway, so that the workers share its pages instead of each loading a copy;
importing this module does not load it, so a ``run`` job never pays for it.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from . import dephasing, measures, oracle
from .dephasing import BudgetError, DephasingParams, QuadratureConfig, TruncationError
from .states import pure_state, random_pure_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

MODES = ("phase_factors", "cmi", "measures", "check")
MAX_GRID_STEPS = 10**6
CHECK_IN_PROCESS = 10  # a ``check`` of at most this many identity samples starts no pool: it gains no wall time


class ConfigError(ValueError):
    pass


def available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """``NONMARKOV_THREADS``, capped at ``available_cpus()``, which is also the default."""
    cpus = available_cpus()
    env = os.environ.get("NONMARKOV_THREADS")
    if env is None:
        return cpus
    try:
        n = int(env)
    except ValueError as exc:
        raise ConfigError(f"NONMARKOV_THREADS must be an integer, got {env!r}") from exc
    if n < 1:
        raise ConfigError("NONMARKOV_THREADS must be >= 1")
    return min(n, cpus)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nonmarkov-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config key {key!r} has wrong type {type(val).__name__}")
    return val


def _fields(cfg, types: dict, what: str, build=dict):
    """``build(**fields)`` from the keys present in ``cfg``, each converted through ``types``.

    Keys outside ``types`` are rejected; absent keys keep ``build``'s defaults.
    A ``TypeError`` of a converter is reported with the key it came from.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(cfg) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")
    try:
        return build(**{k: _convert(types[k], k, v) for k, v in cfg.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # the top level is the config itself, which the "invalid config" of ``execute`` names
        raise ConfigError(exc if what == "config" else f"invalid {what}: {exc}") from exc


def _convert(convert, key: str, value):
    try:
        return convert(value)
    except TypeError as exc:
        raise TypeError(f"{key} {exc}") from exc


def _json(kind: type, accept, name: str):
    """A converter that returns ``kind(value)`` for a JSON ``name`` (Python ``accept``) only.

    A bool is no number: ``True`` is an ``int`` to Python, not to JSON configs.
    """

    def convert(value):
        if isinstance(value, bool) or not isinstance(value, accept):
            raise TypeError(f"must be a JSON {name}, got {value!r}")
        return kind(value)

    return convert


_number = _json(float, (int, float), "number")  # a JSON integer counts as a number
_string = _json(str, str, "string")
_object = _json(dict, dict, "object")
_array = _json(list, list, "array")


def _int_at_least(low: int, what: str):
    """A converter that takes a JSON integer of at least ``low``, and no bool or fractional number."""

    def convert(value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{what} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{what} must be >= {low}, got {value}")
        return value

    return convert


_seed = _int_at_least(0, "seed")


_QUAD_TYPES = {"cutoff_mult": _number}
_DEPHASING_TYPES = {
    **dict.fromkeys(
        ("omega_c", "r", "alpha1", "alpha2", "eps1", "eps2", "t1s", "t1f", "t2s", "t2f"), _number
    ),
    "env_kind": _string,
    "u": lambda v: None if v is None else _number(v),
    "quad": lambda q: _fields(q, _QUAD_TYPES, "quad", QuadratureConfig),
}
_DISCRETE_TYPES = {k: _int_at_least(1, k) for k in ("n_modes", "n_max")}


def _discrete(value) -> dict:
    """The ``discrete`` section, checked whenever a config has one, also where no model is built."""
    disc = _fields(_object(value), _DISCRETE_TYPES, "discrete")
    for key in _DISCRETE_TYPES:
        _require(disc, key)
    nodes = dephasing._legendre_rule()[0].size  # the bound of ``spectral_gauss_rule``
    if disc["n_modes"] > nodes:
        raise ConfigError(f"invalid discrete: n_modes must be <= {nodes}, got {disc['n_modes']}")
    return disc


_MODEL_TYPES = {"dephasing": _object, "discrete": _discrete, "grid": _object, "candidates": _array,
                "seed": _seed, "budget": _int_at_least(1, "budget")}
_MODE_TYPES = {
    "phase_factors": {"dephasing": _object, "grid": _object},
    "cmi": _MODEL_TYPES,
    "measures": _MODEL_TYPES,
    "check": {"check": _object, "seed": _seed},
}
_CANDIDATE_TYPES = {
    "ops_state": {},
    "random": {"seed": _seed},
    "flagged": {"amplitudes": _array, "system_indices": _array},
    "tsio": {"state1": _array, "state2": _array},
}


def parse_dephasing(cfg: dict) -> DephasingParams:
    return _fields(cfg, _DEPHASING_TYPES, "dephasing", DephasingParams)


def parse_grid(cfg: dict) -> np.ndarray:
    grid = _fields(cfg, dict.fromkeys(("t_start", "t_end", "dt"), _number), "grid")
    t0, t1, dt = (_require(grid, k) for k in ("t_start", "t_end", "dt"))
    if dt <= 0 or t1 < t0:
        raise ConfigError("grid needs dt > 0 and t_end >= t_start")
    if t0 < 0:
        raise ConfigError("grid needs t_start >= 0: the evolution starts at t = 0")
    if (t1 - t0) / dt > MAX_GRID_STEPS:  # checked as a float, before int() or any allocation
        raise ConfigError(f"grid needs (t_end - t_start) / dt <= {MAX_GRID_STEPS}")
    n = math.floor((t1 - t0) / dt + 1e-9)  # no sample past t_end; 1e-9 absorbs the quotient's rounding
    if not math.isfinite((t0 + dt * n) * 1e12):  # the last time as ``np.round(..., 12)`` scales it
        raise ConfigError(f"grid needs t_end <= {sys.float_info.max / 1e12:.4g}: times are rounded to 12 decimals")
    return np.round(t0 + dt * np.arange(n + 1), 12)


def _complex_list(spec, length: int, what: str) -> np.ndarray:
    try:
        arr = np.array([complex(_number(re), _number(im)) for re, im in spec])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a list of [re, im] pairs") from exc
    if arr.size != length:
        raise ConfigError(f"{what} must have {length} entries")
    return arr


def parse_candidate(spec: dict, seed: int):
    """Returns ("as", DensityMatrix) or ("pair", (amps1, amps2))."""
    if not isinstance(spec, dict):
        raise ConfigError(f"a candidate must be a JSON object, got {spec!r}")
    kind = _require(spec, "kind", str)
    if kind not in _CANDIDATE_TYPES:
        raise ConfigError(f"unknown candidate kind {kind!r}")
    spec = _fields(spec, {"kind": _string, **_CANDIDATE_TYPES[kind]}, f"{kind} candidate")
    if kind == "ops_state":
        return ("as", measures.ops_state())
    if kind == "random":
        return ("as", random_pure_state(measures.AS_PARTITION, spec.get("seed", seed)))
    if kind == "flagged":
        amps = _complex_list(_require(spec, "amplitudes"), len(spec["amplitudes"]), "amplitudes")
        idx = _require(spec, "system_indices")
        try:
            idx = [_int_at_least(0, "a system index")(i) for i in idx]
            return ("as", measures.flagged_ancilla_state(amps, idx, measures.S_PARTITION))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid flagged candidate: {exc}") from exc
    pair = [_complex_list(_require(spec, k), 4, k) for k in ("state1", "state2")]
    if any(abs(np.linalg.norm(a) - 1.0) > 1e-9 for a in pair):
        raise ConfigError("tsio states must be normalized amplitude vectors")
    return ("pair", tuple(a / np.linalg.norm(a) for a in pair))


def _candidates(cfg: dict) -> tuple[list, list]:
    """The system-ancilla states and the system-state pairs among the candidates."""
    as_cands, pair_cands = [], []
    for spec in cfg.get("candidates", [{"kind": "ops_state"}]):
        kind, val = parse_candidate(spec, cfg.get("seed", 0))
        (as_cands if kind == "as" else pair_cands).append(val)
    return as_cands, pair_cands


# ---------------------------------------------------------------------------
# modes


def _continuum_inputs(cfg: dict) -> tuple[DephasingParams, np.ndarray]:
    """The ``dephasing`` and ``grid`` of a mode that evaluates the continuum factors on the grid.

    A phase that overflows on the grid is a config error, before anything is computed.
    """
    params = parse_dephasing(_require(cfg, "dephasing", dict))
    times = parse_grid(_require(cfg, "grid", dict))
    try:
        dephasing.check_phase_range(params, times)
    except ValueError as exc:
        raise ConfigError(exc) from exc
    return params, times


def _run_phase_factors(cfg: dict) -> str:
    params, times = _continuum_inputs(cfg)
    grid = dephasing.phase_factor_grid(params, times)  # one column per factor, in the mapping's order
    mags = np.abs(np.stack(list(grid.values()), axis=1)).tolist()
    lines = [",".join(["t", *(f"|{name}|" for name in grid), "env_kind"])]
    for t, row in zip(times, mags):
        lines.append(",".join([_fmt(t)] + [_fmt(m) for m in row] + [params.env_kind]))
    return "\n".join(lines) + "\n"


def _build_model(cfg: dict, params: DephasingParams) -> dephasing.DiscreteDephasingModel:
    """The discrete model of a config with its parsed ``dephasing``; a spectral window the Gauss rule
    cannot take is a config error."""
    disc = _require(cfg, "discrete")  # checked by ``_discrete`` with the config's keys
    try:
        return dephasing.build_discrete_model(params, disc["n_modes"], disc["n_max"])
    except TruncationError:
        raise
    except ValueError as exc:
        raise ConfigError(exc) from exc


def _run_cmi(cfg: dict) -> str:
    times = parse_grid(_require(cfg, "grid", dict))
    model = _build_model(cfg, parse_dephasing(_require(cfg, "dephasing", dict)))
    as_cands, pair_cands = _candidates(cfg)
    if len(as_cands) != 1 or pair_cands:
        raise ConfigError("cmi mode needs exactly one system-ancilla candidate and no tsio candidate")
    comp = dephasing.BranchComputer(model, as_cands[0], cfg.get("budget", dephasing.DEFAULT_BUDGET))
    series = comp.trajectories(times, env_parts=("E1", "E2", "E1E2"))
    lines = ["t,I_A_E1_S,I_A_E2_S,I_A_E1E2_S,env_kind"]
    for i, t in enumerate(times):
        vals = [series[p].values[i] for p in ("E1", "E2", "E1E2")]
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in vals] + [model.env_kind]))
    return "\n".join(lines) + "\n"


def _run_measures(cfg: dict) -> str:
    params, times = _continuum_inputs(cfg)
    as_cands, pair_cands = _candidates(cfg)
    if not pair_cands:
        # default optimal-style orthogonal pair with maximal S1-S2 coherence
        plus = np.array([0, 1, 1, 0]) / math.sqrt(2.0)
        minus = np.array([0, 1, -1, 0]) / math.sqrt(2.0)
        pair_cands = [(plus, minus)]

    # distance measures over dephasing-channel pair trajectories
    pair_trajs = [
        tuple(dephasing.system_trajectory(params, pure_state(a, measures.S_PARTITION), times) for a in pair)
        for pair in pair_cands
    ]
    results = [
        measures.measure_distance_blp(pair_trajs, distance=d) for d in ("trace", "telescopic")
    ]

    # information measures over discrete-model candidates
    if as_cands:
        model = _build_model(cfg, params)
        budget = cfg.get("budget", dephasing.DEFAULT_BUDGET)
        comps = [dephasing.BranchComputer(model, c, budget) for c in as_cands]
        snap = dephasing._Snapshot(model, times, budget)  # one snapshot of the grid, read by every candidate
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            all_series = list(pool.map(lambda c: c.trajectories(times, env_parts=("E1E2",), snap=snap), comps))
        results.append(measures.measure_lfs([s["mi_sa"] for s in all_series]))
        results.append(measures.measure_n1([s["E1E2"] for s in all_series]))

    lines = ["measure,value,best_candidate,increment_count"]
    for r in results:
        count = int(np.count_nonzero(r.increments.values))
        lines.append(f"{r.measure_name},{_fmt(r.value)},{r.best_candidate_index},{count}")
    return "\n".join(lines) + "\n"


_CROSS_CHECKS = ("special_functions", "entangled", "classical")


def _cross_check(name: str, seed: int) -> oracle.SuiteReport:
    """The special-function suite, or the small fixed dense dephasing cross-check of env kind ``name``."""
    if name == "special_functions":
        return oracle.special_function_suite(seed)
    params = DephasingParams(omega_c=0.25, r=0.5, env_kind=name)
    model = dephasing.build_discrete_model(params, n_modes=1, n_max=6)
    return oracle.dense_dephasing_check(model, measures.ops_state(), [0.0, 1.5, 3.0, 5.0])


def _identity_and_cross_checks(seed: int, samples: int) -> list:
    """The ``oracle.identity_suite`` report, then those of ``_CROSS_CHECKS``; this picks only the submitter.

    A check of more than ``CHECK_IN_PROCESS`` samples submits to a pool of
    ``worker_count()`` forked processes: one task per cross-check (first,
    since it needs no draws) and one per identity check over every sample,
    while ``identity_suite`` draws in this process.  Without ``fork`` (or
    with at most ``CHECK_IN_PROCESS`` samples, or one worker) each task runs
    at once here (``oracle.run_now``).  Neither changes the report.  ``fork``
    rather than ``spawn``: a spawned worker would import NumPy and the
    package again, most of a small job's gain.  The fork is safe here
    because ``check`` starts no thread of its own and a fork-context
    executor launches its workers before its manager thread.  The workers
    fork at the first ``submit``, before the first draw, so ``numpy.random``
    is imported just before the pool is built: otherwise each worker loads
    its own copy (about 5 MB resident and 10 ms), and the largest worker,
    not this process, sets the job's peak memory.
    """
    import multiprocessing

    workers = min(worker_count(), len(_CROSS_CHECKS) + len(oracle.COLUMN_CHECKS))
    fork = "fork" in multiprocessing.get_all_start_methods()
    submit = oracle.run_now
    with contextlib.ExitStack() as stack:
        if samples > CHECK_IN_PROCESS and workers >= 2 and fork:
            from concurrent.futures import ProcessPoolExecutor

            # loaded before the fork, its pages are shared by the workers instead of each
            # loading its own copy; the draws would load it here a few milliseconds later
            import numpy.random  # noqa: F401

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            stack.callback(pool.shutdown, cancel_futures=True)  # on an error, run no check only to drop it
            submit = pool.submit
        cross = [submit(_cross_check, name, seed) for name in _CROSS_CHECKS]
        return [oracle.identity_suite(seed, samples, submit), *(f.result() for f in cross)]


def _run_check(cfg: dict) -> tuple[str, bool]:
    seed = cfg.get("seed", 0)
    check = _fields(cfg.get("check", {}), {"samples": _int_at_least(1, "samples")}, "check")
    samples = check.get("samples", 100)
    reports = _identity_and_cross_checks(seed, samples)
    payload = {
        "seed": seed,
        "all_passed": all(r.all_passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", payload["all_passed"]


_RUNNERS = {"phase_factors": _run_phase_factors, "cmi": _run_cmi, "measures": _run_measures}


def execute(cfg: dict) -> int:
    """Execute one parsed experiment config; returns the process exit code."""
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        mode = _require(cfg, "mode", str)
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        output_path = _require(cfg, "output_path", str)
        cfg = _fields(cfg, {"mode": _string, "output_path": _string, **_MODE_TYPES[mode]}, "config")
        unwritable = f"cannot write output_path {output_path!r}: "
        try:  # refuse before the run what ``_atomic_write`` would refuse after it
            if os.path.isdir(output_path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(output_path))).close()
        except OSError as exc:
            raise ConfigError(unwritable + exc.strerror) from exc
        text, ok = _run_check(cfg) if mode == "check" else (_RUNNERS[mode](cfg), True)
        try:
            _atomic_write(output_path, text)
        except OSError as exc:
            raise ConfigError(unwritable + exc.strerror) from exc
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, BudgetError) as exc:
        print(f"error: numerical convergence failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not ok:
        print("error: check suite reported failures", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _finite(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"non-finite number {text}")
    return val


def run(config_path: str) -> int:
    """Execute one experiment config file; returns the process exit code."""
    try:
        with open(config_path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return execute(cfg)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as a ``ConfigError`` (exit 1), not argparse's usage text and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="nonmarkov",
        description="Information-measure non-Markovianity experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_check = sub.add_parser("check", help="run the verification suites")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=int, default=100)
    p_check.add_argument("--output", default="check_report.json")
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "run":
        return run(args.config)
    rc = execute({
        "mode": "check",
        "seed": args.seed,
        "check": {"samples": args.samples},
        "output_path": args.output,
    })
    if rc in (EXIT_OK, EXIT_CHECK_FAILED):
        print(("all checks passed" if rc == EXIT_OK else "CHECK FAILURES"), "->", args.output)
    return rc


if __name__ == "__main__":
    sys.exit(main())
