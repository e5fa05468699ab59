import concurrent.futures
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from nonmarkov import cli, dephasing, measures, oracle
from nonmarkov.states import partial_trace


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

    @pytest.mark.parametrize("env_kind", ["entangled", "classical"])
    def test_factors_stay_finite_at_a_huge_cutoff_frequency(self, env_kind, tmp_path, capsys):
        # omega_c 1e300 squares past the float range in the decay integral; every
        # factor is still finite, and no warning is printed (the suite makes
        # a RuntimeWarning an error)
        out = str(tmp_path / "pf.csv")
        cfg = {**PF_CFG, "output_path": out,
               "dephasing": {**PF_CFG["dephasing"], "omega_c": 1e300, "env_kind": env_kind}}
        assert cli.run(write_config(tmp_path, cfg)) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert all(0.0 <= float(x) <= 1.0 for row in rows for x in row[1:7])


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


    @pytest.mark.parametrize("case,message", [
        ("entangled", "kept-bath spectrum of 2199023255552 entries exceeds budget^2 = 16777216"),
        ("classical", "Fock blocks of 4398046511104 entries exceeds budget^2 = 16777216"),
        ("n_max", "Fock dimension 100001 exceeds budget 4096"),
    ])
    def test_budget_bounds_every_branch_array(self, case, message, tmp_path):
        # 40 pairs at n_max 1 make 2^40-entry arrays without a solve, and n_max 1e5 a
        # 1e5-dim Fock space; each is refused before it is built. Run under a 3 GB
        # address-space limit, so that an unbounded allocation fails fast instead
        resource = pytest.importorskip("resource")
        out = tmp_path / "cmi.csv"
        kind = "classical" if case == "classical" else "entangled"
        cfg = {**CMI_CFG, "output_path": str(out),
               "dephasing": {**CMI_CFG["dephasing"], "r": 0.02, "env_kind": kind},
               "discrete": {"n_modes": 1, "n_max": 100000} if case == "n_max" else {"n_modes": 40, "n_max": 1}}
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        limit = 3 * 2**30
        proc = subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", "run", write_config(tmp_path, cfg)],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: numerical convergence failure: {message}\n"
        assert not out.exists()


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

    def test_one_sample_grid_has_no_increment(self, tmp_path):
        # t_start == t_end: no step to integrate, so every measure is 0 with no increment
        out = str(tmp_path / "m.csv")
        cfg = {"mode": "measures", "output_path": out, "dephasing": CMI_CFG["dephasing"],
               "discrete": {"n_modes": 1, "n_max": 3}, "grid": {"t_start": 1.0, "t_end": 1.0, "dt": 0.25}}
        assert cli.run(write_config(tmp_path, cfg)) == 0
        _, rows = read_csv(out)
        assert rows == [[name, "0", "0", "0"] for name in ("BLP", "tBLP", "LFS", "N1")]


    def test_one_snapshot_for_every_candidate(self, tmp_path, monkeypatch):
        built = []
        real = dephasing._Snapshot.__init__

        def counted(self, model, times, *args):
            built.append(len(times))
            real(self, model, times, *args)

        monkeypatch.setattr(dephasing._Snapshot, "__init__", counted)
        out = str(tmp_path / "m.csv")
        cfg = {"mode": "measures", "output_path": out,
               "dephasing": {"omega_c": 0.5, "r": 0.2, "alpha1": 4.0, "alpha2": 4.0, "env_kind": "entangled"},
               "discrete": {"n_modes": 1, "n_max": 4}, "grid": {"t_start": 0.0, "t_end": 4.0, "dt": 0.5},
               "candidates": [{"kind": "ops_state"}, {"kind": "random", "seed": 3}]}
        assert cli.run(write_config(tmp_path, cfg)) == 0
        assert built == [9]  # one snapshot, of the whole grid
        assert [r[0] for r in read_csv(out)[1]] == ["BLP", "tBLP", "LFS", "N1"]

    def test_rows_are_the_dense_measures(self, tmp_path):
        # LFS and N1 of a run equal measure_lfs / measure_n1 of the dense series:
        # I(S : A) of the A S marginal, and I(A : E1 E2 | S) of the full state
        out = str(tmp_path / "m.csv")
        cfg = {"mode": "measures", "output_path": out,
               "dephasing": {"omega_c": 0.5, "r": 0.2, "alpha1": 4.0, "alpha2": 4.0, "env_kind": "entangled"},
               "discrete": {"n_modes": 1, "n_max": 4}, "grid": {"t_start": 0.0, "t_end": 5.0, "dt": 0.5}}
        assert cli.run(write_config(tmp_path, cfg)) == 0
        rows = {r[0]: float(r[1]) for r in read_csv(out)[1]}
        model = dephasing.build_discrete_model(cli.parse_dephasing(cfg["dephasing"]), 1, 4)
        dense = dephasing.DenseComputer(model, measures.ops_state())
        times = cli.parse_grid(cfg["grid"])
        traj = measures.StateTrajectory(times, tuple(dense.state_at(t) for t in times))
        a_s = measures.StateTrajectory(times, partial_trace(traj.states, {"A", "S"}))
        lfs = measures.measure_lfs([measures.mi_series(a_s)])
        n1 = measures.measure_n1([measures.cmi_series(traj, {"E1m0", "E2m0"}, {"S"})])
        assert rows["LFS"] > 0.1 and rows["N1"] > 0.1  # revivals to compare
        assert abs(rows["LFS"] - lfs.value) <= 1e-7
        assert abs(rows["N1"] - n1.value) <= 1e-7


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

    def test_cross_checks_solve_no_dense_state_above_its_support(self, monkeypatch):
        # the check model's dense states keep 196 of the 392 rows of [A, S1, S2, E];
        # ops_state lives on 98 of them and the coherence probe on all 196
        depth = []
        dense_dims = []

        def counted(method):
            def run(self, *args):
                depth.append(method)
                try:
                    return method(self, *args)
                finally:
                    depth.pop()
            return run

        for name in ("state_at", "entropies_at", "system_state"):
            method = getattr(dephasing.DenseComputer, name)
            monkeypatch.setattr(dephasing.DenseComputer, name, counted(method))
        real = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: (depth and dense_dims.append(a.shape[0])) or real(a)
        )
        reports = [cli._cross_check(name, 0) for name in cli._CROSS_CHECKS]
        assert all(r.all_passed for r in reports)
        assert max(dense_dims) == 196


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

    @pytest.mark.parametrize("grid,samples", [
        ((0.0, 4.2, 0.05), 85), ((0.0, 4.2, 0.02), 211), ((0.0, 4.2, 0.2), 22), ((0.0, 4.2, 0.3), 15),
        ((0.0, 4.2, 0.6), 8), ((0.0, 5.0, 0.001), 5001), ((0.0, 5.0, 0.01), 501), ((0.0, 5.0, 0.25), 21),
        ((0.0, 2.0, 0.25), 9), ((0.0, 4.0, 0.5), 9), ((0.0, 4.0, 1.0), 5), ((1.0, 1.0, 0.1), 1),
        ((0.3, 2.9, 0.2), 14),
    ])
    def test_grid_with_a_whole_step_count_ends_at_t_end(self, grid, samples):
        times = cli.parse_grid(dict(zip(("t_start", "t_end", "dt"), grid)))
        assert times.size == samples and times[0] == grid[0] and abs(times[-1] - grid[1]) <= 1e-12

    def test_grid_has_no_sample_past_t_end(self):
        assert list(cli.parse_grid({"t_start": 0, "t_end": 1, "dt": 0.6})) == [0.0, 0.6]
        assert list(cli.parse_grid({"t_start": 0.5, "t_end": 1.0, "dt": 0.3})) == [0.5, 0.8]

    def test_thread_env_validation(self, monkeypatch):
        monkeypatch.setattr(cli, "available_cpus", lambda: 4)
        monkeypatch.setenv("NONMARKOV_THREADS", "3")
        assert cli.worker_count() == 3
        monkeypatch.setenv("NONMARKOV_THREADS", "zero")
        with pytest.raises(cli.ConfigError):
            cli.worker_count()

    def test_worker_count_is_capped_at_the_available_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "available_cpus", lambda: 2)
        monkeypatch.setenv("NONMARKOV_THREADS", "64")
        assert cli.worker_count() == 2
        monkeypatch.delenv("NONMARKOV_THREADS")
        assert cli.worker_count() == 2
        monkeypatch.undo()
        assert 1 <= cli.available_cpus() <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("case", [
        "flagged_unnormalised", "flagged_bad_index", "check_samples_flag", "check_samples_key",
        "unknown_quad_key", "removed_quad_abscissas", "removed_quad_rel_tol",
        "removed_quad_max_doublings", "unknown_top_key_n2", "unknown_top_key_typo",
        "bare_number", "zero_modes", "t_end_infinity", "omega_c_nan", "t_end_1e999",
        "dt_5e-324", "dt_1e-300", "dt_1e-9", "check_seed_flag", "check_seed_key",
        "measures_seed_random", "random_candidate_seed", "budget_negative", "budget_zero",
        "cmi_two_candidates", "cmi_tsio_candidate", "cmi_no_candidate", "entangled_u",
        "fractional_and_bool_ints", "n_modes_fraction", "n_max_whole_float", "n_max_bool",
        "budget_fraction", "seed_bool", "random_candidate_seed_fraction", "check_samples_fraction",
        "check_seed_fraction", "system_index_fraction", "check_samples_text_flag", "check_unknown_flag",
        "no_command", "candidates_object", "candidate_number", "number_as_string", "number_as_bool",
        "object_as_pairs", "object_as_number", "string_as_number", "u_as_string", "array_as_string",
        "classical_r_tanh_one", "classical_r_tanh_one_measures", "entangled_r_cosh_overflow",
        "gauss_window_underflow", "gauss_window_overflow", "gauss_window_overflow_measures",
        "t_start_negative", "measures_tsio_bad_discrete", "measures_tsio_discrete_missing_key",
        "t1s_negative", "t_end_1e300", "n_modes_250",
    ])
    def test_bad_input_is_one_line_exit_1(self, case, tmp_path, capsys, monkeypatch):
        s = 1 / math.sqrt(2)
        out = str(tmp_path / "out")
        flagged = {"kind": "flagged", "amplitudes": [[1, 0], [1, 0]], "system_indices": [1, 2]}
        tsio_only = {**CMI_CFG, "mode": "measures", "candidates": [  # no candidate needs the discrete model
            {"kind": "tsio", "state1": [[1, 0], [0, 0], [0, 0], [0, 0]], "state2": [[0, 0], [1, 0], [0, 0], [0, 0]]}]}
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
            # a config error, whether or not some entropy of the run is budget-checked
            "budget_negative": {**CMI_CFG, "budget": -3},
            "budget_zero": {**CMI_CFG, "budget": 0, "dephasing": {
                **CMI_CFG["dephasing"], "env_kind": "classical"}},
            # cmi writes the series of one system-ancilla candidate, and never drops one
            "cmi_two_candidates": {**CMI_CFG, "candidates": [{"kind": "ops_state"}, {"kind": "random"}]},
            "cmi_tsio_candidate": {**CMI_CFG, "candidates": [
                {"kind": "tsio", "state1": [[1, 0], [0, 0], [0, 0], [0, 0]],
                 "state2": [[0, 0], [1, 0], [0, 0], [0, 0]]}, {"kind": "ops_state"}]},
            "cmi_no_candidate": {**CMI_CFG, "candidates": []},
            # the classical-correlation parameter has no meaning for the squeezed state
            "entangled_u": {**CMI_CFG, "dephasing": {**CMI_CFG["dephasing"], "u": 0.3}},
            # integer keys take JSON integers only: nothing is truncated, no bool counts as 0 or 1
            "fractional_and_bool_ints": {**CMI_CFG, "discrete": {"n_modes": 1.9, "n_max": 6.7},
                                         "budget": 99.9, "seed": True},
            "n_modes_fraction": {**CMI_CFG, "discrete": {"n_modes": 1.9, "n_max": 3}},
            "n_max_whole_float": {**CMI_CFG, "discrete": {"n_modes": 1, "n_max": 3.0}},
            "n_max_bool": {**CMI_CFG, "discrete": {"n_modes": 1, "n_max": True}},
            "budget_fraction": {**CMI_CFG, "budget": 99.9},
            "seed_bool": {**CMI_CFG, "mode": "measures", "seed": True, "candidates": [{"kind": "random"}]},
            "random_candidate_seed_fraction": {**CMI_CFG, "candidates": [{"kind": "random", "seed": 1.5}]},
            "check_samples_fraction": {"mode": "check", "check": {"samples": 2.5}},
            "check_seed_fraction": {"mode": "check", "seed": 0.5, "check": {"samples": 1}},
            "system_index_fraction": {**CMI_CFG, "candidates": [
                {**flagged, "amplitudes": [[s, 0], [s, 0]], "system_indices": [1.5, 2]}]},
            # a candidate list whose entries are not objects (a bare object is read as its keys)
            "candidates_object": {**CMI_CFG, "candidates": {"kind": "ops_state"}},
            "candidate_number": {**CMI_CFG, "candidates": [5]},
            # number, string, object and array keys take that JSON type only; nothing is coerced
            "number_as_string": {**PF_CFG, "dephasing": {**PF_CFG["dephasing"], "omega_c": "0.25"}},
            "number_as_bool": {**PF_CFG, "dephasing": {**PF_CFG["dephasing"], "r": True}},
            "object_as_pairs": {**PF_CFG, "dephasing": [["omega_c", 0.25]]},
            "object_as_number": {**PF_CFG, "dephasing": 5},
            "string_as_number": {**PF_CFG, "dephasing": {**PF_CFG["dephasing"], "env_kind": 1}},
            "u_as_string": {**CMI_CFG, "dephasing": {
                **CMI_CFG["dephasing"], "env_kind": "classical", "u": "0.3"}},
            "array_as_string": {**CMI_CFG, "candidates": [
                {**flagged, "amplitudes": [[s, 0], [s, 0]], "system_indices": "12"}]},
            # r past the floating-point range of the pair state: tanh(r) rounds to 1, cosh(2r) overflows
            "classical_r_tanh_one": {**PF_CFG, "dephasing": {
                **PF_CFG["dephasing"], "r": 19.5, "env_kind": "classical"}},
            "classical_r_tanh_one_measures": {**CMI_CFG, "mode": "measures", "dephasing": {
                **CMI_CFG["dephasing"], "r": 19.5, "env_kind": "classical"}},
            "entangled_r_cosh_overflow": {**PF_CFG, "dephasing": {**PF_CFG["dephasing"], "r": 400.0}},
            # a spectral window whose Gauss-rule weight has no positive, finite mass
            "gauss_window_underflow": {**CMI_CFG, "dephasing": {
                **CMI_CFG["dephasing"], "quad": {"cutoff_mult": 1e-300}}},
            "gauss_window_overflow": {**CMI_CFG, "dephasing": {**CMI_CFG["dephasing"], "omega_c": 1e300}},
            # measures mode evolves its distance candidates by the continuum factors first
            "gauss_window_overflow_measures": {**CMI_CFG, "mode": "measures", "dephasing": {
                **CMI_CFG["dephasing"], "omega_c": 1e300}},
            # the evolution starts at t = 0: no row for an earlier time
            "t_start_negative": {**PF_CFG, "grid": {"t_start": -1.0, "t_end": 1.0, "dt": 0.5}},
            # a discrete section is checked whenever it is present, also where no model is built
            "measures_tsio_bad_discrete": {**tsio_only, "discrete": {"n_modes": 0, "n_max": "x"}},
            "measures_tsio_discrete_missing_key": {**tsio_only, "discrete": {"n_modes": 2}},
            # no interaction window opens before the evolution starts
            "t1s_negative": {**PF_CFG, "dephasing": {**PF_CFG["dephasing"], "t1s": -1.0}},
            # the times are rounded to 12 decimals, which overflows past ~1.8e296
            "t_end_1e300": {**PF_CFG, "grid": {"t_start": 1e300, "t_end": 1e300, "dt": 0.5}},
            # the Gauss rule has at most the 200 nodes of its discretization, also where no model is built
            "n_modes_250": {**tsio_only, "discrete": {"n_modes": 250, "n_max": 3}},
        }
        named = {  # the key at fault is named in the message
            "number_as_string": "omega_c", "number_as_bool": "r must", "object_as_pairs": "dephasing",
            "object_as_number": "dephasing", "string_as_number": "env_kind", "u_as_string": "u must",
            "array_as_string": "system_indices", "classical_r_tanh_one": "r = 19.5",
            "classical_r_tanh_one_measures": "r = 19.5", "entangled_r_cosh_overflow": "r = 400",
            "gauss_window_underflow": "mass 0;", "gauss_window_overflow": "mass inf;",
            "gauss_window_overflow_measures": "mass inf;", "t_start_negative": "t_start >= 0",
            "measures_tsio_bad_discrete": "discrete: n_modes", "measures_tsio_discrete_missing_key": "'n_max'",
            "t1s_negative": "0 <= t1s", "t_end_1e300": "rounded to 12 decimals", "n_modes_250": "n_modes must be <= 200",
        }
        if case.startswith("dt_"):  # an over-long grid must be refused before it is allocated
            def no_grid(*args, **kwargs):
                raise AssertionError("grid allocated")
            monkeypatch.setattr(cli.np, "arange", no_grid)
        raw = {  # config texts json.dumps cannot produce
            "bare_number": "5",
            "t_end_1e999": json.dumps({**PF_CFG, "output_path": out}).replace('"t_end": 5.0', '"t_end": 1e999'),
        }
        argvs = {  # argument errors exit 1 like config errors, not argparse's 2
            "check_samples_flag": ["check", "--samples", "0", "--output", out],
            "check_seed_flag": ["check", "--seed", "-1", "--samples", "1", "--output", out],
            "check_samples_text_flag": ["check", "--samples", "abc", "--output", out],
            "check_unknown_flag": ["check", "--samples", "1", "--bogus", "--output", out],
            "no_command": [],
        }
        if case in argvs:
            argv = argvs[case]
        elif case in raw:
            (tmp_path / "raw.json").write_text(raw[case])
            argv = ["run", str(tmp_path / "raw.json")]
        else:
            argv = ["run", write_config(tmp_path, {**configs[case], "output_path": out})]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert named.get(case, "") in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("where", ["directory", "missing_directory"])
    def test_unwritable_output_is_one_line_exit_1(self, where, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        path = out if where == "directory" else out / "missing" / "x.csv"
        # the output path is checked before the run: a check computes no identity sample
        samples = []
        monkeypatch.setattr(oracle, "identity_draws", lambda *args: samples.append(args))
        config = write_config(tmp_path, {**PF_CFG, "output_path": str(path)})
        for argv in (["run", config], ["check", "--samples", "3", "--output", str(path)]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error:") and str(path) in err, err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]  # no temporary file left
            assert not any(out.iterdir())
        assert samples == []

    def test_top_level_error_says_invalid_config_once(self, tmp_path, capsys):
        cfg = {**CMI_CFG, "output_path": str(tmp_path / "x.csv"), "seed": -1}
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == "error: invalid config: seed must be >= 0, got -1\n"

    def test_help_is_left_to_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nonmarkov check")


class TestThreadDeterminism:
    """Outputs across worker and BLAS thread counts, each run in a fresh process.

    Bytes are identical across ``NONMARKOV_THREADS`` at a fixed BLAS thread
    count; across BLAS thread counts the assembled eigensolves may round
    differently, so values agree to 1e-12.  The ``check`` cases run in this
    process, so that they can see its worker processes.
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

    @pytest.mark.parametrize("samples", [5, 23, 100])
    def test_check_pool(self, samples, tmp_path, monkeypatch):
        # 1 runs in-process; 2 and 3 fork that many workers, each taking whole
        # checks (a cross-check, or one identity check over every sample); a
        # check of at most CHECK_IN_PROCESS samples also runs in-process by default
        monkeypatch.setattr(cli, "available_cpus", lambda: 3)
        runs = [("1", 0), ("2", 0), ("3", 0)]
        if samples <= cli.CHECK_IN_PROCESS:
            runs.append(("3", cli.CHECK_IN_PROCESS))
        outputs = {}
        for workers, in_process in runs:
            monkeypatch.setenv("NONMARKOV_THREADS", workers)
            monkeypatch.setattr(cli, "CHECK_IN_PROCESS", in_process)
            out = tmp_path / f"check-{workers}-{in_process}.json"
            assert cli.main(["check", "--seed", "4", "--samples", str(samples), "--output", str(out)]) == 0
            assert multiprocessing.active_children() == []
            outputs[workers, in_process] = out.read_bytes()
        assert len(set(outputs.values())) == 1, sorted(outputs)
        report = json.loads(outputs["1", 0])["suites"][0]
        assert {c["samples"] for c in report["checks"]} == {samples}

    @pytest.mark.parametrize("where", ["identity_check", "cross_check"])
    def test_check_pool_failure_reaches_the_caller(self, where, tmp_path, monkeypatch):
        parent = os.getpid()
        # the Petz column holds its check function itself, so the fault goes in one call deeper
        module, name = (oracle.info, "petz_recovery") if where == "identity_check" else (
            oracle, "dense_dephasing_check")
        real = getattr(module, name)

        def fails_in_a_worker(*args):
            if os.getpid() != parent:
                raise BlockFailure("raised in a worker")
            return real(*args)

        monkeypatch.setattr(module, name, fails_in_a_worker)
        monkeypatch.setattr(cli, "CHECK_IN_PROCESS", 0)
        monkeypatch.setattr(cli, "available_cpus", lambda: 2)
        monkeypatch.setenv("NONMARKOV_THREADS", "2")
        out = tmp_path / "check.json"
        with pytest.raises(BlockFailure, match="raised in a worker"):
            cli.main(["check", "--seed", "4", "--samples", "23", "--output", str(out)])
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []  # neither the report nor a temporary file

    def test_small_check_builds_no_process_pool(self, monkeypatch):
        class Refused:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Refused)
        monkeypatch.setattr(cli, "available_cpus", lambda: 3)
        monkeypatch.setenv("NONMARKOV_THREADS", "3")
        monkeypatch.setattr(cli, "_CROSS_CHECKS", ())
        for samples in range(1, cli.CHECK_IN_PROCESS + 1):
            [report] = cli._identity_and_cross_checks(4, samples)
            assert {c.samples for c in report.checks} == {samples}
        with pytest.raises(AssertionError, match="process pool"):
            cli._identity_and_cross_checks(4, cli.CHECK_IN_PROCESS + 1)


class BlockFailure(RuntimeError):
    """Raised by a patched check; module-level so it pickles back from a worker."""
