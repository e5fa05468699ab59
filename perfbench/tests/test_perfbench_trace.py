"""The traced run: same outputs as untraced, every layer seen, counts repeat."""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

DEPH = {"omega_c": 0.05, "r": 0.5, "alpha1": 4.0, "alpha2": 4.0, "env_kind": "entangled",
        "t1s": 0.0, "t1f": 2.5, "t2s": 2.5, "t2f": 4.2}
TSIO = {"kind": "tsio",
        "state1": [[0, 0], [0.70710678118654746, 0], [0.70710678118654746, 0], [0, 0]],
        "state2": [[0, 0], [0.70710678118654746, 0], [-0.70710678118654746, 0], [0, 0]]}
CASES = {
    "phase": {"mode": "phase_factors", "dephasing": DEPH,
              "grid": {"t_start": 0.0, "t_end": 5.0, "dt": 0.5}},
    "cmi": {"mode": "cmi", "dephasing": DEPH, "discrete": {"n_modes": 1, "n_max": 4},
            "grid": {"t_start": 0.0, "t_end": 4.0, "dt": 1.0}},
    "measures": {"mode": "measures", "dephasing": DEPH, "discrete": {"n_modes": 1, "n_max": 4},
                 "grid": {"t_start": 0.0, "t_end": 4.0, "dt": 0.5},
                 "candidates": [{"kind": "ops_state"}, {"kind": "random", "seed": 3}, TSIO]},
    "check": None,
}
LAYERS = {
    "cli", "cli.write", "cli.pool", "cli.pool.task", "states", "states.validate", "info",
    "measures", "dephasing", "dephasing.quadrature", "dephasing.model_build",
    "dephasing.snapshot", "dephasing.branch", "dephasing.dense", "oracle",
}


def _job(tmp: Path, case: str, tag: str):
    """Run one tiny job; returns (output bytes, spans or None)."""
    out = tmp / f"{case}-{tag}.out"
    if CASES[case] is None:
        args = ["check", "--seed", "5", "--samples", "2", "--output", str(out)]
    else:
        cfg = tmp / f"{case}-{tag}.json"
        cfg.write_text(json.dumps({**CASES[case], "output_path": str(out)}))
        args = ["run", str(cfg)]
    spans = tmp / f"{case}-{tag}.spans.json"
    if tag == "plain":
        argv = [sys.executable, "-m", "nonmarkov.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "trace_job.py"), str(spans), tag, *args]
    done = subprocess.run(argv, env=run.job_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return out.read_bytes(), (tracer.load(str(spans)) if tag != "plain" else None)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    keys = [(case, tag) for case in CASES for tag in ("plain", "t1", "t2")]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda key: _job(tmp, *key), keys))
    out: dict = {}
    for (case, tag), result in zip(keys, done):
        out.setdefault(case, {})[tag] = result
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_traced_output_is_byte_identical(runs, case):
    assert runs[case]["t1"][0] == runs[case]["plain"][0]


def test_every_layer_has_a_span(runs):
    seen = {s["name"] for case in runs.values() for s in case["t1"][1]}
    assert LAYERS <= seen, sorted(LAYERS - seen)


def test_spans_carry_job_thread_and_parent(runs):
    spans = runs["measures"]["t1"][1]
    assert {s["job"] for s in spans} == {"t1"}
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli"]
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
    assert all(s["start"] <= s["end"] for s in spans)


@pytest.mark.parametrize("case", list(CASES))
def test_counts_repeat_exactly(runs, case):
    def counts(spans):
        return {layer: (d["calls"], d["eig_calls"], d["eig_n3"])
                for layer, d in tracer.summarize(spans).items()}

    assert counts(runs[case]["t1"][1]) == counts(runs[case]["t2"][1])


def test_self_time_excludes_same_thread_children():
    spans = [
        {"id": 1, "name": "cli", "parent": None, "thread": 1, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "info", "parent": 1, "thread": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "name": "cli.pool.task", "parent": 1, "thread": 2, "start": 2.0, "end": 9.0},
    ]
    for s in spans:
        s.update(dict.fromkeys(("eig_calls", "eig_n3", "eig_max_dim", "expm_calls", "bytes"), 0))
        s.update(dict.fromkeys(("eig_s", "expm_s", "wait_s"), 0.0))
    layers = tracer.summarize(spans)
    assert layers["cli"]["self_s"] == 7.0
    assert layers["cli.pool.task"]["self_s"] == 7.0
