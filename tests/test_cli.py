import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nonmarkov import cli


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = open(path).read().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


PF_CFG = {
    "mode": "phase_factors",
    "output_path": None,
    "dephasing": {"omega_c": 0.01, "r": 3.0, "env_kind": "entangled"},
    "grid": {"t_start": 0.0, "t_end": 5.0, "dt": 0.25},
}


class TestPhaseFactorsMode:
    def test_csv_schema_and_first_row(self, tmp_path):
        out = str(tmp_path / "pf.csv")
        cfg = {**PF_CFG, "output_path": out}
        assert cli.run(write_config(tmp_path, cfg)) == 0
        header, rows = read_csv(out)
        assert header == ["t", "|k1|", "|k2|", "|k1t|", "|k2t|", "|k12|", "|lam12|", "env_kind"]
        first = rows[0]
        assert float(first[0]) == 0.0
        assert all(float(x) == 1.0 for x in first[1:7])
        assert first[7] == "entangled"

    def test_byte_identical_reruns(self, tmp_path):
        out = str(tmp_path / "pf.csv")
        cfg_path = write_config(tmp_path, {**PF_CFG, "output_path": out})
        assert cli.run(cfg_path) == 0
        first = open(out, "rb").read()
        assert cli.run(cfg_path) == 0
        assert open(out, "rb").read() == first


CMI_CFG = {
    "mode": "cmi",
    "output_path": None,
    "dephasing": {
        "omega_c": 0.25, "r": 0.0, "env_kind": "entangled",
        "t1s": 0.0, "t1f": 1.0, "t2s": 1.0, "t2f": 2.0,
    },
    "discrete": {"n_modes": 1, "n_max": 3},
    "grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.25},
}


class TestCmiMode:
    def test_vacuum_e2_column_is_zero(self, tmp_path):
        out = str(tmp_path / "cmi.csv")
        cfg = {**CMI_CFG, "output_path": out}
        assert cli.run(write_config(tmp_path, cfg)) == 0
        header, rows = read_csv(out)
        assert header == ["t", "I_A_E1_S", "I_A_E2_S", "I_A_E1E2_S", "env_kind"]
        for row in rows:
            assert abs(float(row[2])) <= 1e-9  # E2 never correlates at r = 0
            assert row[4] == "entangled"

    def test_missing_discrete_section(self, tmp_path):
        cfg = {k: v for k, v in CMI_CFG.items() if k != "discrete"}
        cfg["output_path"] = str(tmp_path / "x.csv")
        assert cli.run(write_config(tmp_path, cfg)) == 1

    @pytest.mark.parametrize("env_kind,code", [("entangled", 2), ("classical", 0)])
    def test_budget_bounds_the_kept_bath_operator(self, env_kind, code, tmp_path, capsys):
        # at 2 pairs and n_max 14 the entangled one-bath entropies solve 225-dim
        # operators; every classical entropy has a structured spectrum
        out = str(tmp_path / "cmi.csv")
        cfg = {**CMI_CFG, "output_path": out, "budget": 100,
               "dephasing": {**CMI_CFG["dephasing"], "r": 0.8, "env_kind": env_kind},
               "discrete": {"n_modes": 2, "n_max": 14},
               "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 1.0}}
        assert cli.main(["run", write_config(tmp_path, cfg)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and os.path.exists(out)
        else:
            assert len(err.splitlines()) == 1 and err.startswith("error:"), err
            assert "225 exceeds budget 100" in err
            assert not os.path.exists(out)


class TestMeasuresMode:
    def test_schema_and_revival_free_case(self, tmp_path):
        out = str(tmp_path / "m.csv")
        cfg = {
            "mode": "measures",
            "output_path": out,
            "seed": 1,
            "dephasing": CMI_CFG["dephasing"],
            "discrete": {"n_modes": 1, "n_max": 3},
            "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 0.25},
            "candidates": [{"kind": "ops_state"}],
        }
        assert cli.run(write_config(tmp_path, cfg)) == 0
        header, rows = read_csv(out)
        assert header == ["measure", "value", "best_candidate", "increment_count"]
        by_name = {r[0]: r for r in rows}
        assert set(by_name) == {"BLP", "tBLP", "LFS", "N1"}
        # vacuum environments: monotone dephasing, every measure vanishes
        for name, row in by_name.items():
            assert abs(float(row[1])) <= 1e-9, (name, row)

    def test_tsio_candidates(self, tmp_path):
        out = str(tmp_path / "m.csv")
        s = 1 / math.sqrt(2)
        cfg = {
            "mode": "measures",
            "output_path": out,
            "dephasing": CMI_CFG["dephasing"],
            "discrete": {"n_modes": 1, "n_max": 3},
            "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 0.5},
            "candidates": [
                {"kind": "ops_state"},
                {"kind": "tsio", "state1": [[0, 0], [s, 0], [s, 0], [0, 0]],
                 "state2": [[0, 0], [s, 0], [-s, 0], [0, 0]]},
            ],
        }
        assert cli.run(write_config(tmp_path, cfg)) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["BLP", "tBLP", "LFS", "N1"]
        assert all(r[2] == "0" for r in rows)  # one candidate of each kind


class TestCheckMode:
    def test_check_runs_and_reports(self, tmp_path):
        out = str(tmp_path / "report.json")
        cfg = {
            "mode": "check",
            "seed": 5,
            "check": {"samples": 3},
            "output_path": out,
        }
        assert cli.run(write_config(tmp_path, cfg)) == 0
        payload = json.loads(open(out).read())
        assert payload["all_passed"] is True
        assert len(payload["suites"]) == 4

    def test_check_subcommand(self, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["check", "--seed", "1", "--samples", "2", "--output", out])
        assert rc == 0
        assert os.path.exists(out)


class TestConfigValidation:
    def test_unknown_mode(self, tmp_path):
        cfg = {"mode": "woo", "output_path": str(tmp_path / "x")}
        assert cli.run(write_config(tmp_path, cfg)) == 1

    def test_unknown_candidate_kind(self, tmp_path):
        cfg = {
            **CMI_CFG,
            "output_path": str(tmp_path / "x.csv"),
            "candidates": [{"kind": "banana"}],
        }
        assert cli.run(write_config(tmp_path, cfg)) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run(str(path)) == 1

    def test_bad_grid(self, tmp_path):
        cfg = {**PF_CFG, "output_path": str(tmp_path / "x.csv"),
               "grid": {"t_start": 0.0, "t_end": 1.0, "dt": -0.1}}
        assert cli.run(write_config(tmp_path, cfg)) == 1

    def test_thread_env_validation(self, monkeypatch):
        monkeypatch.setenv("NONMARKOV_THREADS", "3")
        assert cli.worker_count() == 3
        monkeypatch.setenv("NONMARKOV_THREADS", "zero")
        with pytest.raises(cli.ConfigError):
            cli.worker_count()

    @pytest.mark.parametrize("case", [
        "flagged_unnormalised", "flagged_bad_index", "check_samples_flag", "check_samples_key",
        "unknown_quad_key", "removed_quad_abscissas", "removed_quad_rel_tol",
        "removed_quad_max_doublings", "unknown_top_key_n2", "unknown_top_key_typo",
        "bare_number", "zero_modes", "t_end_infinity", "omega_c_nan", "t_end_1e999",
        "dt_5e-324", "dt_1e-300", "dt_1e-9", "check_seed_flag", "check_seed_key",
        "measures_seed_random", "random_candidate_seed",
    ])
    def test_bad_input_is_one_line_exit_1(self, case, tmp_path, capsys, monkeypatch):
        s = 1 / math.sqrt(2)
        out = str(tmp_path / "out")
        flagged = {"kind": "flagged", "amplitudes": [[1, 0], [1, 0]], "system_indices": [1, 2]}
        configs = {
            "flagged_unnormalised": {**CMI_CFG, "candidates": [flagged]},
            "flagged_bad_index": {**CMI_CFG, "candidates": [
                {**flagged, "amplitudes": [[s, 0], [s, 0]], "system_indices": [1, 7]}]},
            "check_samples_key": {"mode": "check", "check": {"samples": 0}},
            "unknown_quad_key": {**PF_CFG, "dephasing": {
                **PF_CFG["dephasing"], "quad": {"abscisas": 16}}},
            # the adaptive-quadrature knobs are gone with the quadrature itself
            **{f"removed_quad_{key}": {**PF_CFG, "dephasing": {
                **PF_CFG["dephasing"], "quad": {"cutoff_mult": 60.0, key: value}}}
               for key, value in (("abscissas", 16), ("rel_tol", 1e-8), ("max_doublings", 8))},
            "unknown_top_key_n2": {**CMI_CFG, "include_n2": True},
            "unknown_top_key_typo": {**CMI_CFG, "candidatez": [{"kind": "ops_state"}]},
            "zero_modes": {**CMI_CFG, "discrete": {"n_modes": 0, "n_max": 4}},
            "t_end_infinity": {**PF_CFG, "grid": {**PF_CFG["grid"], "t_end": math.inf}},
            "omega_c_nan": {**PF_CFG, "dephasing": {**PF_CFG["dephasing"], "omega_c": math.nan}},
            **{name: {**PF_CFG, "grid": {"t_start": 0.0, "t_end": 1.0, "dt": dt}}
               for name, dt in (("dt_5e-324", 5e-324), ("dt_1e-300", 1e-300), ("dt_1e-9", 1e-9))},
            "check_seed_key": {"mode": "check", "seed": -5, "check": {"samples": 1}},
            "measures_seed_random": {**CMI_CFG, "mode": "measures", "seed": -5,
                                     "candidates": [{"kind": "random"}]},
            "random_candidate_seed": {**CMI_CFG, "candidates": [{"kind": "random", "seed": -1}]},
        }
        if case.startswith("dt_"):  # an over-long grid must be refused before it is allocated
            def no_grid(*args, **kwargs):
                raise AssertionError("grid allocated")
            monkeypatch.setattr(cli.np, "arange", no_grid)
        raw = {  # config texts json.dumps cannot produce
            "bare_number": "5",
            "t_end_1e999": json.dumps({**PF_CFG, "output_path": out}).replace('"t_end": 5.0', '"t_end": 1e999'),
        }
        if case == "check_samples_flag":
            argv = ["check", "--samples", "0", "--output", out]
        elif case == "check_seed_flag":
            argv = ["check", "--seed", "-1", "--samples", "1", "--output", out]
        elif case in raw:
            (tmp_path / "raw.json").write_text(raw[case])
            argv = ["run", str(tmp_path / "raw.json")]
        else:
            argv = ["run", write_config(tmp_path, {**configs[case], "output_path": out})]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert not os.path.exists(out)


class TestThreadDeterminism:
    """Outputs across worker and BLAS thread counts, each run in a fresh process.

    Bytes are identical across ``NONMARKOV_THREADS`` at a fixed BLAS thread
    count; across BLAS thread counts the assembled eigensolves may round
    differently, so values agree to 1e-12.
    """

    DEPHASING = {"omega_c": 0.05, "r": 0.8, "alpha1": 4.0, "alpha2": 4.0, "env_kind": "entangled",
                 "t1s": 0.0, "t1f": 2.5, "t2s": 2.5, "t2f": 4.2}
    CONFIGS = {
        "cmi": {"mode": "cmi", "dephasing": DEPHASING, "discrete": {"n_modes": 2, "n_max": 14},
                "grid": {"t_start": 0.0, "t_end": 4.2, "dt": 0.6}, "candidates": [{"kind": "ops_state"}]},
        "measures": {"mode": "measures", "dephasing": DEPHASING, "discrete": {"n_modes": 2, "n_max": 14},
                     "grid": {"t_start": 0.0, "t_end": 4.2, "dt": 0.3},
                     "candidates": [{"kind": "ops_state"}, {"kind": "random", "seed": 7}]},
    }

    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_thread_counts(self, mode, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        outputs = {}
        for workers, blas in itertools.product("12", "12"):
            out = tmp_path / f"{mode}-{workers}-{blas}.csv"
            cfg = write_config(tmp_path, {**self.CONFIGS[mode], "output_path": str(out)})
            env = {**os.environ, "PYTHONPATH": src, "NONMARKOV_THREADS": workers, "OPENBLAS_NUM_THREADS": blas}
            subprocess.run([sys.executable, "-m", "nonmarkov.cli", "run", cfg], env=env, check=True)
            outputs[workers, blas] = out.read_bytes()
        for blas in "12":
            assert outputs["1", blas] == outputs["2", blas]
        cells = [outputs["1", blas].decode().replace("\n", ",").split(",") for blas in "12"]
        assert len(cells[0]) == len(cells[1])
        for a, b in zip(*cells):
            try:
                x, y = float(a), float(b)
            except ValueError:
                assert a == b
            else:
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (a, b)
