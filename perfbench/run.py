"""Benchmark of the ``nonmarkov`` command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a source tree (``src/nonmarkov`` must exist).  Each
workload is a closed loop with one client: every job is a fresh
``python -m nonmarkov.cli ...`` process, and the next job starts only when
the previous one has exited.  Job inputs come from ``--seed`` (see
``workloads.py``); the program sees only the generated configs.  The loop
runs whole cycles and starts no cycle that it predicts would end after
``--seconds``.  Every output is checked; for the default seed the first
jobs are also compared with stored reference outputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and prints per-layer metrics, averaged per
traced job.  ``--workload all`` runs every workload in turn.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_SPAWNS = 7
RUN_LIMIT_S = 170.0  # every job is killed by then, counted from the start of the run
THREAD_VARS = ("NONMARKOV_THREADS", "OPENBLAS_NUM_THREADS")

END_TO_END_UNITS = {
    "job_s_p50": "s", "job_s_tail": "s", "work_per_s": "1/s",
    "cpu_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s",
}

# per-layer metric -> (layer, total key, unit); values are means per traced job
LAYER_METRICS = {
    "cli.self_s": ("cli", "self_s", "s"),
    "cli.write.s": ("cli.write", "incl_s", "s"),
    "cli.write.bytes": ("cli.write", "bytes", "bytes"),
    "cli.pool.wait_s": ("cli.pool.task", "wait_s", "s"),
    "cli.pool.busy_s": ("cli.pool.task", "incl_s", "s"),
    "states.self_s": ("states", "self_s", "s"),
    "states.calls": ("states", "calls", "count"),
    "states.validate.self_s": ("states.validate", "self_s", "s"),
    "states.validate.calls": ("states.validate", "calls", "count"),
    "states.validate.eig_calls": ("states.validate", "eig_calls", "count"),
    "states.validate.eig_s": ("states.validate", "eig_s", "s"),
    "info.self_s": ("info", "self_s", "s"),
    "info.calls": ("info", "calls", "count"),
    "info.eig_calls": ("info", "eig_calls", "count"),
    "info.eig_s": ("info", "eig_s", "s"),
    "measures.self_s": ("measures", "self_s", "s"),
    "measures.calls": ("measures", "calls", "count"),
    "dephasing.self_s": ("dephasing", "self_s", "s"),
    "dephasing.calls": ("dephasing", "calls", "count"),
    "dephasing.quadrature.self_s": ("dephasing.quadrature", "self_s", "s"),
    "dephasing.quadrature.calls": ("dephasing.quadrature", "calls", "count"),
    "dephasing.model_build.self_s": ("dephasing.model_build", "self_s", "s"),
    "dephasing.model_build.eig_s": ("dephasing.model_build", "eig_s", "s"),
    "dephasing.snapshot.self_s": ("dephasing.snapshot", "self_s", "s"),
    "dephasing.snapshot.calls": ("dephasing.snapshot", "calls", "count"),
    "dephasing.branch.self_s": ("dephasing.branch", "self_s", "s"),
    "dephasing.branch.calls": ("dephasing.branch", "calls", "count"),
    "dephasing.branch.eig_calls": ("dephasing.branch", "eig_calls", "count"),
    "dephasing.branch.eig_s": ("dephasing.branch", "eig_s", "s"),
    "dephasing.branch.eig_n3": ("dephasing.branch", "eig_n3", "count"),
    "dephasing.branch.eig_max_dim": ("dephasing.branch", "eig_max_dim", "count"),
    "dephasing.dense.self_s": ("dephasing.dense", "self_s", "s"),
    "dephasing.dense.eig_s": ("dephasing.dense", "eig_s", "s"),
    "dephasing.dense.eig_n3": ("dephasing.dense", "eig_n3", "count"),
    "oracle.self_s": ("oracle", "self_s", "s"),
}
# shares of in-process time (the traced ``cli`` span) spent in a layer
SHARE_METRICS = {
    "cli.share": ("cli", "self_s"),
    "states.share": ("states", "self_s"),
    "states.validate.share": ("states.validate", "self_s"),
    "states.validate.eig_share": ("states.validate", "eig_s"),
    "info.share": ("info", "self_s"),
    "info.eig_share": ("info", "eig_s"),
    "measures.share": ("measures", "self_s"),
    "dephasing.quadrature.share": ("dephasing.quadrature", "self_s"),
    "dephasing.model_build.share": ("dephasing.model_build", "self_s"),
    "dephasing.snapshot.share": ("dephasing.snapshot", "self_s"),
    "dephasing.branch.share": ("dephasing.branch", "self_s"),
    "dephasing.branch.eig_share": ("dephasing.branch", "eig_s"),
    "dephasing.dense.share": ("dephasing.dense", "self_s"),
    "oracle.share": ("oracle", "self_s"),
}
DEPHASING_LAYERS = ("dephasing", "dephasing.quadrature", "dephasing.model_build",
                    "dephasing.snapshot", "dephasing.branch", "dephasing.dense")


class SetupError(RuntimeError):
    pass


def job_env() -> dict:
    """The environment of every child: the tree's ``src`` and pinned threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NONMARKOV_THREADS"] = str(min(2, os.cpu_count() or 1))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Proc:
    """Wall time, CPU time and peak RSS of one child process."""

    def __init__(self, argv: list[str], env: dict, log: Path, timeout: float):
        with open(log, "w") as fh:
            t0 = perf_counter()
            p = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(timeout, 1.0), p.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = perf_counter() - t0
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.log = log.read_text(errors="replace")


def setup_probe(env: dict, deadline: float) -> float:
    """Wall time of a fresh process that only runs ``import nonmarkov``."""
    p = Proc([sys.executable, "-c", "import nonmarkov"], env, WORK / "setup.log",
             deadline - perf_counter())
    if p.code != 0:
        raise SetupError(f"`import nonmarkov` failed (exit {p.code}):\n{p.log}")
    return p.wall_s


def run_job(wl: workloads.Workload, seed: int, k: int, traced: bool, env: dict,
            deadline: float) -> dict:
    job = wl.job(seed, k)
    base = WORK / f"job{k}"
    out = base.with_suffix("." + wl.ext)
    cfg_path = base.with_suffix(".json.in")
    if job.config is not None:
        cfg_path.write_text(json.dumps({**job.config, "output_path": str(out)}))
    args = job.cli_args(str(cfg_path), str(out))
    spans = base.with_suffix(".spans.json")
    if traced:
        argv = [sys.executable, str(HERE / "trace_job.py"), str(spans), str(k), *args]
    else:
        argv = [sys.executable, "-m", "nonmarkov.cli", *args]
    p = Proc(argv, env, base.with_suffix(".log"), deadline - perf_counter())
    rec = {"k": k, "kind": job.kind, "traced": traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
           "rss_mb": p.rss_mb, "exit": p.code, "units": job.units, "error": None,
           "byte_identical": None}
    try:
        if p.code != 0 or "Traceback" in p.log:
            raise workloads.OutputError(f"exit {p.code}: {p.log.strip()[-300:]}")
        text = out.read_text()
        workloads.check_output(wl.name, job, text)
        ref = workloads.read_reference(wl.name, seed, k)
        if ref is not None:
            rec["byte_identical"] = workloads.compare_reference(wl.name, text, ref)
    except (workloads.OutputError, OSError, ValueError, KeyError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    if traced and rec["error"] is None:
        rec["layers"] = tracer.summarize(tracer.load(str(spans)))
    return rec


def closed_loop(wl: workloads.Workload, seed: int, seconds: float, trace: bool, env: dict,
                deadline: float) -> tuple[list[dict], float, list[float]]:
    """Run whole cycles until the next one is predicted to end after ``seconds``.

    With ``trace``, cycles alternate untraced / traced and at least one of
    each runs.  Between cycles, set-up probes are spread over the run, so
    their median sees the same machine as the jobs; they are not part of
    the loop's time.  Returns (jobs, loop seconds, set-up probe times).
    """
    setup_probe(env, deadline)  # warm-up: byte-compiles the tree on first use
    jobs: list[dict] = []
    setup: list[float] = []
    t0 = perf_counter()
    loop_s = 0.0
    cycles = 0
    while True:
        traced = trace and cycles % 2 == 1
        c0 = perf_counter()
        for j in range(wl.cycle):
            jobs.append(run_job(wl, seed, cycles * wl.cycle + j, traced, env, deadline))
        loop_s += perf_counter() - c0
        cycles += 1
        elapsed = perf_counter() - t0
        if len(setup) < SETUP_SPAWNS * elapsed / seconds:
            setup.append(setup_probe(env, deadline))
            elapsed = perf_counter() - t0
        if trace and cycles < 2:
            continue
        if elapsed + elapsed / cycles > seconds or perf_counter() > deadline:
            break
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_probe(env, deadline))
    return jobs, loop_s, setup


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no such percentile exists, and the maximum is reported (0 beyond).
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(jobs: list[dict], wall: float, setup: list[float]) -> tuple[dict, dict]:
    walls = [j["wall_s"] for j in jobs]
    value, pct, beyond = tail(walls)
    done = sum(j["units"] for j in jobs if j["error"] is None)
    metrics = {
        "job_s_p50": statistics.median(walls),
        "job_s_tail": value,
        "work_per_s": done / wall,
        "cpu_s_p50": statistics.median(j["cpu_s"] for j in jobs),
        "peak_rss_mb": max(j["rss_mb"] for j in jobs),
        "setup_s": statistics.median(setup),
    }
    notes = {"job_s_tail_percentile": pct, "job_s_tail_beyond": beyond, "jobs": len(jobs),
             "fail_frac": sum(j["error"] is not None for j in jobs) / len(jobs)}
    return metrics, notes


def per_layer(jobs: list[dict]) -> dict:
    """Per-layer metrics, as means per traced job, with their units."""
    traced = [j for j in jobs if j["traced"] and j["error"] is None]
    n = len(traced) or 1  # all zeros when every traced job failed; the run is then incorrect

    def total(layer: str, key: str) -> float:
        return sum(j["layers"].get(layer, {}).get(key, 0) for j in traced)

    out = {name: (total(layer, key) / n, unit) for name, (layer, key, unit) in LAYER_METRICS.items()}
    in_process = total("cli", "incl_s") or 1.0
    for name, (layer, key) in SHARE_METRICS.items():
        out[name] = (total(layer, key) / in_process, "ratio")
    out["dephasing.expm.calls"] = (sum(total(l, "expm_calls") for l in DEPHASING_LAYERS) / n, "count")
    out["dephasing.expm.s"] = (sum(total(l, "expm_s") for l in DEPHASING_LAYERS) / n, "s")
    walls = {flag: [j["wall_s"] for j in jobs if j["traced"] == flag] for flag in (True, False)}
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.in_process_frac"] = (in_process / (sum(j["wall_s"] for j in traced) or 1.0), "ratio")
    out["trace.jobs"] = (len(traced), "count")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def provenance(args, wl_name: str, jobs: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    env = job_env()
    return {
        "workload": wl_name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs": jobs,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"), "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: env[v] for v in THREAD_VARS},
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def run_workload(args, name: str) -> dict:
    wl = workloads.WORKLOADS[name]
    deadline = perf_counter() + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = job_env()
    jobs, wall, setup = closed_loop(wl, args.seed, args.seconds, bool(args.trace), env, deadline)
    e2e, notes = end_to_end(jobs, wall, setup)
    if args.trace:
        metrics = per_layer(jobs)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    failed = sum(j["error"] is not None for j in jobs)
    compared = [j["byte_identical"] for j in jobs if j["byte_identical"] is not None]
    notes.update({"reference_compared": len(compared), "reference_byte_identical": sum(compared),
                  "cycles": len(jobs) // wl.cycle, "loop_s": wall, "work_unit": wl.unit})
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    record = {"provenance": provenance(args, name, len(jobs)), "notes": notes, "setup_s": setup,
              "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in jobs],
              "result": result}

    print(f"== {name}: seed {args.seed}, {len(jobs)} jobs in {wall:.1f} s, trace {args.trace}")
    for j in jobs:
        if j["error"]:
            print(f"   FAILED job {j['k']} ({j['kind']}): {j['error']}")
    if not args.trace:
        for k, v in e2e.items():
            print(f"   {k:13s} {v:12.6g} {END_TO_END_UNITS[k]}")
        print(f"   {'fail_frac':13s} {notes['fail_frac']:12.6g} ratio")
        print(f"   job_s_tail is p{notes['job_s_tail_percentile']:.0f} of {len(jobs)} jobs "
              f"({notes['job_s_tail_beyond']} beyond it)")
    else:
        for k, m in metrics.items():
            print(f"   {k:32s} {m['value']:14.6g} {m['unit']}")
    print(f"   reference: {len(compared)} compared, {sum(compared)} byte-identical")
    print("   provenance: " + json.dumps(record["provenance"], sort_keys=True))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full run record (JSON line) to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nonmarkov" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'nonmarkov'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(args, name) for name in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
