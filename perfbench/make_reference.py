"""Regenerate the stored reference outputs of the default seed.

    python3 perfbench/make_reference.py

Runs the first ``workloads.REFERENCE_JOBS`` jobs of every workload at
``workloads.REFERENCE_SEED`` and stores their checked outputs, gzipped,
under ``perfbench/reference/``.  Only do this when an output is meant to
change; ``run.py`` compares against these files at 1e-12.
"""

import gzip
import json
import shutil
import sys
from time import perf_counter

import run
import workloads


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    env = run.job_env()
    for wl in workloads.WORKLOADS.values():
        for k in range(workloads.REFERENCE_JOBS):
            job = wl.job(workloads.REFERENCE_SEED, k)
            out = run.WORK / f"ref.{wl.ext}"
            cfg = run.WORK / "ref.json.in"
            if job.config is not None:
                cfg.write_text(json.dumps({**job.config, "output_path": str(out)}))
            argv = [sys.executable, "-m", "nonmarkov.cli", *job.cli_args(str(cfg), str(out))]
            p = run.Proc(argv, env, run.WORK / "ref.log", run.RUN_LIMIT_S)
            if p.code != 0:
                print(f"{wl.name} job {k}: exit {p.code}\n{p.log}", file=sys.stderr)
                return 1
            text = out.read_text()
            workloads.check_output(wl.name, job, text)
            dest = workloads.reference_path(wl.name, k)
            dest.parent.mkdir(parents=True, exist_ok=True)
            # mtime=0 keeps the gzip bytes a function of the output alone
            with open(dest, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(text.encode())
            print(f"{dest.relative_to(run.ROOT)}: {len(text)} bytes in {p.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    started = perf_counter()
    code = main()
    print(f"done in {perf_counter() - started:.1f} s")
    sys.exit(code)
