"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records appended by ``run.py --record``; only untraced
runs are read.  For every end-to-end metric of ``BENCHMARK.json`` it prints
one row per workload: each side's median and quartiles, the ratio of the
medians with its base, and a verdict:

* improved   - at least ten pairs, of which the new side wins nine tenths
  (ties count for neither), and the medians differ by more than the base's
  quartile spread;
* worse      - the new median is worse than the base's by more than the bound;
* unresolved - the base's own quartile spread exceeds the bound and not every
  new run beats every base run;
* no worse   - otherwise.

Runs pair up by seed where both sides have the seed, otherwise in order.
Run the two sides alternately, pair by pair.  The machine drifts, so two
blocks of runs of the same code can differ by more than their own spread.
There is no combined score.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """workload -> untraced run records, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["provenance"]["trace"]:
                    runs.setdefault(rec["provenance"]["workload"], []).append(rec)
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["provenance"]["seed"]: r for r in new}
    matched = [(b, by_seed[b["provenance"]["seed"]]) for b in base
               if b["provenance"]["seed"] in by_seed]
    return matched or list(zip(base, new))


def verdict(base: list[float], new: list[float], paired: list[tuple[float, float]],
            lower_better: bool, bound: float) -> str:
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    wins = sum(better(n, b) for b, n in paired)
    if len(paired) >= 10 and wins >= 0.9 * len(paired) and better(nm, bm) and abs(nm - bm) > b3 - b1:
        return "improved"
    worse_by = (nm - bm) / bm if lower_better else (bm - nm) / bm
    spread = (b3 - b1) / bm
    every_run_better = all(better(n, b) for n in new for b in base)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "worse" if worse_by > bound else "no worse"


def values(recs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in recs]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(argv[0]), load(argv[1])
    names = [w["name"] for w in spec["workloads"] if w["name"] in base and w["name"] in new]
    for name in sorted(set(base) ^ set(new)):
        print(f"note: workload {name} has runs on one side only; skipped")
    for metric in spec["end_to_end"]:
        m, unit = metric["name"], metric["unit"]
        print(f"\n{m} [{unit}], {metric['better']} is better, bound {metric['bound']:.0%}")
        print(f"  {'workload':14s} {'base median [q1, q3]':>32s}   {'new median [q1, q3]':>32s}"
              f"   {'new/base':>8s}  runs   verdict")
        for name in names:
            b, n = values(base[name], m), values(new[name], m)
            paired = [(vb, vn) for rb, rn in pairs(base[name], new[name])
                      for vb, vn in [(values([rb], m)[0], values([rn], m)[0])]]
            (b1, bm, b3), (n1, nm, n3) = quartiles(b), quartiles(n)
            v = verdict(b, n, paired, metric["better"] == "lower", metric["bound"])
            print(f"  {name:14s} {bm:10.4g} [{b1:9.4g}, {b3:9.4g}]   {nm:10.4g} [{n1:9.4g}, {n3:9.4g}]"
                  f"   {nm / bm:8.3f}  {len(b):2d}/{len(n):<2d}  {v}")
    print("\nfailed / attempted jobs")
    for name in names:
        tally = [(sum(r["result"]["failed"] for r in side[name]),
                  sum(r["result"]["attempted"] for r in side[name])) for side in (base, new)]
        print(f"  {name:14s} base {tally[0][0]}/{tally[0][1]}   new {tally[1][0]}/{tally[1][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
