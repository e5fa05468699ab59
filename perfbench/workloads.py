"""The benchmark's workloads: CLI jobs generated from a seed, and output checks.

Job ``k`` of workload ``w`` at seed ``s`` is drawn from its own generator
(``random.Random("w:s:k")``), so the same seed gives the same jobs whatever
the run length.  Jobs alternate between the two environment preparations
(even ``k`` entangled, odd ``k`` classical), except ``check_oracle``; a run
completes whole cycles, so both kinds are always equally represented.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0  # reference outputs are stored for this seed only
REFERENCE_JOBS = 2  # ... and for its first this many jobs
REL_TOL = 1e-12

DESK = {"alpha1": 4.0, "alpha2": 4.0, "t1s": 0.0, "t1f": 2.5, "t2s": 2.5, "t2f": 4.2}
PAPER = {"alpha1": 1.0, "alpha2": 1.0, "t1s": 0.0, "t1f": 2.5, "t2s": 2.5, "t2f": 5.0}
TSIO = {
    "kind": "tsio",
    "state1": [[0, 0], [0.70710678118654746, 0], [0.70710678118654746, 0], [0, 0]],
    "state2": [[0, 0], [0.70710678118654746, 0], [-0.70710678118654746, 0], [0, 0]],
}
CMI_HEADER = ["t", "I_A_E1_S", "I_A_E2_S", "I_A_E1E2_S", "env_kind"]
PHASE_HEADER = ["t", "|k1|", "|k2|", "|k1t|", "|k2t|", "|k12|", "|lam12|", "env_kind"]
MEASURES_HEADER = ["measure", "value", "best_candidate", "increment_count"]
MEASURE_ROWS = ["BLP", "tBLP", "LFS", "N1"]


@dataclass
class Job:
    """One CLI invocation: ``python -m nonmarkov.cli <args>`` after writing ``config``."""

    index: int
    kind: str
    units: int  # work units this job completes
    config: dict | None = None  # written to <job>.json for ``run`` jobs
    check_seed: int | None = None  # set for ``check`` jobs
    expect: dict = field(default_factory=dict)  # what the output check needs

    def cli_args(self, config_path: str, output_path: str) -> list[str]:
        if self.config is not None:
            return ["run", config_path]
        return ["check", "--seed", str(self.check_seed), "--samples",
                str(self.expect["samples"]), "--output", output_path]


def _grid_len(t_start: float, t_end: float, dt: float) -> int:
    return int(round((t_end - t_start) / dt)) + 1


def _kind(k: int) -> str:
    return "entangled" if k % 2 == 0 else "classical"


def cmi_desk(rng: random.Random, k: int) -> Job:
    kind = _kind(k)
    grid = {"t_start": 0.0, "t_end": 4.2, "dt": 0.2}
    n = _grid_len(**grid)
    cfg = {
        "mode": "cmi",
        "dephasing": {"omega_c": 0.05, "r": rng.uniform(0.6, 1.0), "env_kind": kind, **DESK},
        "discrete": {"n_modes": 2, "n_max": 14},
        "grid": grid,
        "candidates": [{"kind": "ops_state"}],
    }
    return Job(k, kind, units=3 * n, config=cfg, expect={"grid": grid, "samples": n})


def measures_mix(rng: random.Random, k: int) -> Job:
    kind = _kind(k)
    grid = {"t_start": 0.0, "t_end": 4.2, "dt": 0.05}
    n = _grid_len(**grid)
    deph = {"omega_c": rng.uniform(0.03, 0.08), "r": rng.uniform(0.6, 1.0), "env_kind": kind, **DESK}
    cands = [{"kind": "ops_state"}]
    if kind == "entangled":
        # a classical job with this candidate exits 2 (BudgetError): see BENCHMARK.json
        cands.append({"kind": "random", "seed": rng.randrange(2**31)})
    cands.append(TSIO)
    cfg = {
        "mode": "measures",
        "dephasing": deph,
        "discrete": {"n_modes": 2, "n_max": 14},
        "grid": grid,
        "candidates": cands,
    }
    n_as = len(cands) - 1
    return Job(k, kind, units=len(cands) * n, config=cfg,
               expect={"samples": n, "best_bound": {"BLP": 1, "tBLP": 1, "LFS": n_as, "N1": n_as}})


def check_oracle(rng: random.Random, k: int) -> Job:
    samples = 100
    return Job(k, "check", units=samples, check_seed=rng.randrange(2**31),
               expect={"samples": samples})


def phase_fine(rng: random.Random, k: int) -> Job:
    kind = _kind(k)
    grid = {"t_start": 0.0, "t_end": 5.0, "dt": 0.001}
    n = _grid_len(**grid)
    cfg = {
        "mode": "phase_factors",
        "dephasing": {"omega_c": rng.uniform(0.01, 0.05), "r": rng.uniform(2.0, 3.0),
                      "env_kind": kind, **PAPER},
        "grid": grid,
    }
    return Job(k, kind, units=n, config=cfg, expect={"grid": grid, "samples": n})


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (rng, k) -> Job
    cycle: int  # jobs per cycle; a run completes whole cycles
    ext: str  # output file extension
    unit: str  # what one work unit is

    def job(self, seed: int, k: int) -> Job:
        return self.make(random.Random(f"{self.name}:{seed}:{k}"), k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cmi_desk", cmi_desk, 2, "csv", "time sample x env part"),
        Workload("measures_mix", measures_mix, 2, "csv", "candidate x time sample"),
        Workload("check_oracle", check_oracle, 1, "json", "identity sample"),
        Workload("phase_fine", phase_fine, 2, "csv", "grid sample"),
    )
}


# ---------------------------------------------------------------------------
# output checks


class OutputError(ValueError):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise OutputError(what)


def _finite(cell: str) -> float:
    x = float(cell)
    _require(math.isfinite(x), f"non-finite value {cell!r}")
    return x


def _check_grid(rows: list[list[str]], grid: dict):
    n = _grid_len(**grid)
    _require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    for i, row in enumerate(rows):
        t = grid["t_start"] + grid["dt"] * i
        _require(abs(float(row[0]) - t) <= 1e-9, f"row {i}: t = {row[0]}, expected {t}")


def _read_csv(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(text.splitlines()))
    _require(rows and rows[0] == header, f"header {rows[:1]} != {header}")
    for row in rows[1:]:
        _require(len(row) == len(header), f"row of {len(row)} cells: {row}")
    return rows[1:]


def check_output(workload: str, job: Job, text: str):
    """Raise OutputError unless ``text`` is a valid output of ``job``."""
    if workload == "cmi_desk":
        rows = _read_csv(text, CMI_HEADER)
        _check_grid(rows, job.expect["grid"])
        for row in rows:
            _require(all(_finite(c) >= 0.0 for c in row[1:4]), f"negative CMI in {row}")
            _require(row[4] == job.kind, f"env_kind {row[4]} != {job.kind}")
    elif workload == "phase_fine":
        rows = _read_csv(text, PHASE_HEADER)
        _check_grid(rows, job.expect["grid"])
        _require(rows[0][1:7] == ["1"] * 6, f"factors at t=0 are not 1: {rows[0]}")
        for row in rows:
            _require(all(0.0 <= _finite(c) <= 1.0 + REL_TOL for c in row[1:7]),
                     f"factor magnitude outside [0, 1] in {row}")
            _require(row[7] == job.kind, f"env_kind {row[7]} != {job.kind}")
    elif workload == "measures_mix":
        rows = _read_csv(text, MEASURES_HEADER)
        _require([r[0] for r in rows] == MEASURE_ROWS, f"measure rows {[r[0] for r in rows]}")
        for name, value, best, count in rows:
            _require(_finite(value) >= 0.0, f"negative {name} = {value}")
            _require(0 <= int(best) < job.expect["best_bound"][name], f"{name} best_candidate {best}")
            _require(0 <= int(count) < job.expect["samples"], f"{name} increment_count {count}")
    elif workload == "check_oracle":
        report = json.loads(text)
        _require(report["all_passed"] is True, "check report: all_passed is not true")
        _require(report["seed"] == job.check_seed, f"check report seed {report['seed']}")
        _require(len(report["suites"]) == 4, f"{len(report['suites'])} suites, expected 4")
    else:
        raise KeyError(workload)


# ---------------------------------------------------------------------------
# reference outputs (default seed)


def reference_path(workload: str, k: int) -> Path:
    return REFERENCE_DIR / workload / f"job{k}.{WORKLOADS[workload].ext}.gz"


def read_reference(workload: str, seed: int, k: int) -> str | None:
    if seed != REFERENCE_SEED or k >= REFERENCE_JOBS:
        return None
    with gzip.open(reference_path(workload, k), "rt", newline="") as fh:
        return fh.read()


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _cells(x):
    """Numbers as floats, everything else as-is, in a flat list."""
    if isinstance(x, dict):
        return [k for k in sorted(x)] + [c for k in sorted(x) for c in _cells(x[k])]
    if isinstance(x, list):
        return [c for v in x for c in _cells(v)]
    if isinstance(x, bool) or x is None:
        return [str(x)]
    return [float(x)] if isinstance(x, (int, float)) else [x]


def _csv_cells(text: str) -> list:
    out = []
    for row in csv.reader(text.splitlines()):
        for c in row:
            try:
                out.append(float(c))
            except ValueError:
                out.append(c)
    return out


def compare_reference(workload: str, text: str, ref: str) -> bool:
    """True when ``text`` equals ``ref`` cell by cell to REL_TOL; raises otherwise."""
    if WORKLOADS[workload].ext == "json":
        got, want = _cells(json.loads(text)), _cells(json.loads(ref))
    else:
        got, want = _csv_cells(text), _csv_cells(ref)
    _require(len(got) == len(want), f"reference has {len(want)} cells, output {len(got)}")
    for i, (a, b) in enumerate(zip(got, want)):
        _require(_close(a, b), f"cell {i}: {a!r} differs from reference {b!r}")
    return text == ref
