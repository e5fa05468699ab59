"""Golden-file regression test for the CLI artifacts.

Each tiny config below runs through ``nonmarkov run`` (or ``nonmarkov
check``) and its output is compared with the file of the same name under
``tests/golden/``: numbers at 1e-12 relative (absolute below 1), every other
cell or JSON value exactly.  Regenerate the files only when an output is
meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from nonmarkov import cli

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

_DEPHASING = {
    "omega_c": 0.25, "r": 0.6, "alpha1": 1.0, "alpha2": 1.0,
    "t1s": 0.0, "t1f": 1.0, "t2s": 1.0, "t2f": 2.0,
}
_README_DEPHASING = {
    "omega_c": 0.05, "r": 0.8, "alpha1": 4.0, "alpha2": 4.0,
    "t1s": 0.0, "t1f": 2.5, "t2s": 2.5, "t2f": 4.2,
}
_S = 1 / math.sqrt(2)

CONFIGS = {
    "phase_factors.csv": {
        "mode": "phase_factors",
        "dephasing": {"omega_c": 0.01, "r": 3.0, "env_kind": "entangled"},
        "grid": {"t_start": 0.0, "t_end": 5.0, "dt": 0.25},
    },
    "cmi_entangled.csv": {
        "mode": "cmi",
        "dephasing": {**_DEPHASING, "env_kind": "entangled"},
        "discrete": {"n_modes": 1, "n_max": 6},
        "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 0.25},
        "candidates": [{"kind": "ops_state"}],
    },
    "cmi_classical.csv": {
        "mode": "cmi",
        "dephasing": {**_DEPHASING, "env_kind": "classical"},
        "discrete": {"n_modes": 1, "n_max": 6},
        "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 0.25},
        "candidates": [{"kind": "ops_state"}],
    },
    # the README cmi config at dt 0.2: 2 pairs run the Kronecker products of rules (d) and (e),
    # and the classical file the classical omega and rule (b)
    **{f"cmi_desk_{kind}.csv": {
        "mode": "cmi",
        "dephasing": {**_README_DEPHASING, "env_kind": kind},
        "discrete": {"n_modes": 2, "n_max": 14},
        "grid": {"t_start": 0.0, "t_end": 4.2, "dt": 0.2},
        "candidates": [{"kind": "ops_state"}],
    } for kind in ("entangled", "classical")},
    "measures.csv": {
        "mode": "measures",
        "seed": 3,
        "dephasing": {**_DEPHASING, "env_kind": "entangled"},
        "discrete": {"n_modes": 1, "n_max": 6},
        "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 0.25},
        "candidates": [
            {"kind": "ops_state"},
            {"kind": "random", "seed": 7},
            {"kind": "tsio", "state1": [[0, 0], [_S, 0], [_S, 0], [0, 0]],
             "state2": [[0, 0], [_S, 0], [-_S, 0], [0, 0]]},
        ],
    },
    # the README measures config at env_kind classical: pins the classical omega and rule (b)
    "measures_classical.csv": {
        "mode": "measures",
        "dephasing": {**_README_DEPHASING, "env_kind": "classical"},
        "discrete": {"n_modes": 2, "n_max": 14},
        "grid": {"t_start": 0.0, "t_end": 4.2, "dt": 0.05},
        "candidates": [
            {"kind": "ops_state"},
            {"kind": "random", "seed": 7},
            {"kind": "tsio", "state1": [[0, 0], [_S, 0], [_S, 0], [0, 0]],
             "state2": [[0, 0], [_S, 0], [-_S, 0], [0, 0]]},
        ],
    },
}
CHECK_ARGS = ["check", "--seed", "2", "--samples", "3"]
CHECK_NAME = "check.json"


def _produce(name: str, out_dir: Path) -> Path:
    out = out_dir / name
    if name == CHECK_NAME:
        assert cli.main(CHECK_ARGS + ["--output", str(out)]) == 0
    else:
        cfg_path = out_dir / f"{name}.config.json"
        cfg_path.write_text(json.dumps({**CONFIGS[name], "output_path": str(out)}))
        assert cli.run(str(cfg_path)) == 0
    return out


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _as_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _assert_csv_match(got: str, want: str, where: str):
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert len(got_rows) == len(want_rows), where
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        assert len(g_row) == len(w_row), (where, i)
        for g, w in zip(g_row, w_row):
            gn, wn = _as_number(g), _as_number(w)
            if gn is None or wn is None:
                assert g == w, (where, i, g, w)
            else:
                assert _close(gn, wn), (where, i, g, w)


def _assert_json_match(got, want, where: str):
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        assert type(got) is type(want), (where, got, want)
        if isinstance(want, dict):
            assert sorted(got) == sorted(want), where
            for k in want:
                _assert_json_match(got[k], want[k], f"{where}.{k}")
        elif isinstance(want, list):
            assert len(got) == len(want), where
            for i, (g, w) in enumerate(zip(got, want)):
                _assert_json_match(g, w, f"{where}[{i}]")
        else:
            assert got == want, (where, got, want)
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert _close(float(got), float(want)), (where, got, want)


@pytest.mark.parametrize("name", sorted(CONFIGS) + [CHECK_NAME])
def test_output_matches_golden(name, tmp_path):
    got = _produce(name, tmp_path).read_text()
    want = (GOLDEN / name).read_text()
    if name == CHECK_NAME:
        _assert_json_match(json.loads(got), json.loads(want), name)
    else:
        _assert_csv_match(got, want, name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CONFIGS) + [CHECK_NAME]:
        _produce(name, GOLDEN)
        (GOLDEN / f"{name}.config.json").unlink(missing_ok=True)
        print("wrote", GOLDEN / name, file=sys.stderr)
