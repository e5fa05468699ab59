"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from nonmarkov import cli, dephasing, info, measures, oracle
from nonmarkov.measures import (
    StateTrajectory,
    cmi_series,
    measure_lfs,
    measure_n1,
    measure_n2,
    mi_series,
    negative_decrement_integral,
    ops_state,
    positive_increment_integral,
    ScalarSeries,
)
from nonmarkov.states import (
    SystemPartition,
    basis_state,
    partial_trace,
    pure_state,
    random_density_matrix,
    tensor,
)

PAPER = dict(omega_c=1e-2, r=3.0, alpha1=1.0, alpha2=1.0, t1s=0.0, t1f=2.5, t2s=2.5, t2f=5.0)
DESK = dict(
    omega_c=0.05, r=0.8, alpha1=4.0, alpha2=4.0, t1s=0.0, t1f=2.5, t2s=2.5, t2f=4.2
)


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_identity_suite():
    start = time.time()
    report = oracle.identity_suite(seed=1, samples=1000)
    elapsed = time.time() - start
    asserted = [c for c in report.checks if not c.name.endswith("_recorded")]
    worst = max(c.max_violation for c in asserted)
    ok = report.all_passed and elapsed < 120.0
    _report(
        "criterion 1 (identity suite, 1000 samples at 1e-8)",
        ok,
        f"worst asserted violation {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_special_functions():
    start = time.time()
    report = oracle.special_function_suite(seed=0)
    elapsed = time.time() - start
    by_name = {c.name: c for c in report.checks}
    ok = (
        by_name["displaced_fock_overlap"].max_violation <= 1e-8
        and by_name["classical_char_factor_vs_sum"].max_violation <= 1e-6
        and by_name["entangled_char_factor_vs_tmsv"].max_violation <= 1e-6
        and elapsed < 60.0
    )
    _report(
        "criterion 2 (special functions)",
        ok,
        ", ".join(f"{c.name}={c.max_violation:.2e}" for c in report.checks)
        + f", runtime {elapsed:.1f}s",
    )


def test_criterion_3_phase_factor_reproduction():
    start = time.time()
    times = np.round(np.arange(0.0, 5.0 + 1e-9, 0.01), 12)
    grid_e = dephasing.phase_factor_grid(dephasing.DephasingParams(**PAPER, env_kind="entangled"), times)
    grid_c = dephasing.phase_factor_grid(dephasing.DephasingParams(**PAPER, env_kind="classical"), times)
    i_t2s = int(np.argmin(np.abs(times - 2.5)))

    dev_i = max(
        float(np.max(np.abs(grid_e["k1"] - grid_c["k1"]))),
        float(np.max(np.abs(grid_e["k2"] - grid_c["k2"]))),
        float(np.max(np.abs(grid_e["k1t"] - grid_c["k1t"]))),
        float(np.max(np.abs(grid_e["k2t"] - grid_c["k2t"]))),
    )
    dev_ii = max(
        float(np.max(np.abs(grid_e["k12"][: i_t2s + 1] - grid_c["k12"][: i_t2s + 1]))),
        float(np.max(np.abs(grid_e["lam12"][: i_t2s + 1] - grid_c["lam12"][: i_t2s + 1]))),
    )
    rise_iii = max(float(np.max(np.diff(np.abs(grid_c[k])))) for k in grid_c)
    lam = np.abs(grid_e["lam12"])
    revival_iv = float(np.max(lam[i_t2s + 1 :]) - lam[i_t2s])
    elapsed = time.time() - start
    ok = dev_i <= 1e-10 and dev_ii <= 1e-10 and rise_iii <= 1e-9 and revival_iv > 0.0 and elapsed < 300.0
    _report(
        "criterion 3 (Fig.-2-style factor checks at paper parameters)",
        ok,
        f"(i) case dev {dev_i:.2e}, (ii) early dev {dev_ii:.2e}, "
        f"(iii) classical max rise {rise_iii:.2e}, (iv) revival +{revival_iv:.3f}, "
        f"runtime {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def desk_runs():
    start = time.time()
    runs = {}
    times = np.round(np.arange(0.0, DESK["t2f"] + 1e-9, 0.02), 10)
    for kind in ("entangled", "classical"):
        params = dephasing.DephasingParams(**DESK, env_kind=kind)
        model = dephasing.build_discrete_model(params, n_modes=2, n_max=14)
        comp = dephasing.BranchComputer(model, ops_state())
        runs[kind] = comp.trajectories(times, env_parts=("E2", "E1E2"))
    runs["elapsed"] = time.time() - start
    return runs


def test_criterion_4_desk_scale_cmi(desk_runs):
    start = time.time() - desk_runs["elapsed"]
    t = desk_runs["entangled"]["E2"].times
    i_t2s = int(np.argmin(np.abs(t - DESK["t2s"])))

    n1_c, _ = negative_decrement_integral(desk_runs["classical"]["E1E2"])
    n1_e, _ = negative_decrement_integral(desk_runs["entangled"]["E1E2"])

    e2_e = desk_runs["entangled"]["E2"].values
    window2 = e2_e[i_t2s:]
    monotone = bool(np.all(np.diff(window2) <= 1e-9))
    identity_dev = abs(n1_e - (e2_e[i_t2s] - e2_e[-1])) if monotone else math.inf

    e2_c = desk_runs["classical"]["E2"].values
    c_window_drops = float(np.max(np.maximum(-np.diff(e2_c[i_t2s:]), 0.0)))

    balance = 0.0
    for kind in ("entangled", "classical"):
        mi = desk_runs[kind]["mi_sa"].values
        full = desk_runs[kind]["E1E2"].values
        balance = max(balance, float(np.max(np.abs(np.diff(mi) + np.diff(full)))))

    elapsed = time.time() - start
    ok = (
        n1_c <= 1e-6
        and n1_e > 1e-4
        and monotone
        and identity_dev <= 1e-6
        and c_window_drops <= 1e-9
        and balance <= 1e-8
        and elapsed < 600.0
    )
    _report(
        "criterion 4 (desk-scale CMI experiment)",
        ok,
        f"(i) N1_C={n1_c:.2e}, (ii) N1_E={n1_e:.4f}, (iii) identity dev {identity_dev:.2e} "
        f"(window-2 monotone: {monotone}), (iv) classical window-2 max drop {c_window_drops:.2e}, "
        f"(v) balance {balance:.2e}; runtime {elapsed:.1f}s",
    )


def test_criterion_5_branch_vs_dense():
    start = time.time()
    worst = 0.0
    for kind, n_max in (("entangled", 8), ("classical", 8)):
        params = dephasing.DephasingParams(
            omega_c=0.25, r=0.6, env_kind=kind, t1s=0.0, t1f=2.5, t2s=2.5, t2f=5.0
        )
        model = dephasing.build_discrete_model(params, n_modes=1, n_max=n_max)
        report = oracle.dense_dephasing_check(model, ops_state(), [0.0, 1.2, 2.5, 3.6, 5.0])
        for c in report.checks:
            if c.name.startswith("branch_vs_dense"):
                worst = max(worst, c.max_violation)
                assert c.passed, report.summary()
    elapsed = time.time() - start
    ok = worst <= 1e-7 and elapsed < 120.0
    _report(
        "criterion 5 (branch method vs dense evolution)",
        ok,
        f"worst entropy/CMI deviation {worst:.2e}, runtime {elapsed:.1f}s",
    )


def _closed_se_trajectory(seed: int, steps: int = 25) -> StateTrajectory:
    """Unitary S+E evolution with an idle ancilla: I(A:SE) is constant."""
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    part = SystemPartition([("A", 2), ("S", 2), ("E", 2)])
    rho0 = tensor(
        random_density_matrix(SystemPartition([("A", 2), ("S", 2)]), 1, seed),
        basis_state(SystemPartition([("E", 2)]), [0]),
    )
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (h + h.conj().T)
    times = np.linspace(0.0, 3.0, steps)
    states = []
    for t in times:
        u = np.kron(np.eye(2), expm(-1j * h * t))
        from nonmarkov.states import DensityMatrix

        states.append(DensityMatrix(u @ rho0.data @ u.conj().T, part))
    return StateTrajectory(times, tuple(states))


def test_criterion_6_measures_layer():
    worst_lfs_n1 = 0.0
    for seed in range(5):
        traj = _closed_se_trajectory(seed)
        n1 = measure_n1([cmi_series(traj, {"E"}, {"S"})])
        lfs_traj = StateTrajectory(traj.times, partial_trace(traj.states, {"A", "S"}))
        lfs = measure_lfs([mi_series(lfs_traj)])
        worst_lfs_n1 = max(worst_lfs_n1, abs(n1.value - lfs.value))

    traj = _closed_se_trajectory(7)
    ap = basis_state(SystemPartition([("Ap", 3)]), [0])
    ext = StateTrajectory(traj.times, tensor(traj.states, ap))
    n1 = measure_n1([cmi_series(traj, {"E"}, {"S"})])
    n2 = measure_n2([cmi_series(ext, {"E"}, {"S"}, aprime_label="Ap")])
    n2_dev = abs(n2.value - n1.value)

    t = np.arange(0.0, math.pi, 1e-3)
    val, _ = positive_increment_integral(ScalarSeries(t, np.abs(np.cos(t))))
    cos_dev = abs(val - 1.0)

    ok = worst_lfs_n1 <= 1e-7 and n2_dev <= 1e-9 and cos_dev <= 2e-3
    _report(
        "criterion 6 (measures layer identities)",
        ok,
        f"max |LFS - N1| = {worst_lfs_n1:.2e}, |N2 - N1| = {n2_dev:.2e}, "
        f"|cos| integral dev {cos_dev:.2e}",
    )


def test_criterion_7_determinism(tmp_path):
    cfgs = {
        "pf.json": {
            "mode": "phase_factors",
            "output_path": str(tmp_path / "pf.csv"),
            "dephasing": {"omega_c": 0.01, "r": 3.0, "env_kind": "classical"},
            "grid": {"t_start": 0.0, "t_end": 5.0, "dt": 0.5},
        },
        "cmi.json": {
            "mode": "cmi",
            "output_path": str(tmp_path / "cmi.csv"),
            "seed": 3,
            "dephasing": {
                "omega_c": 0.25, "r": 0.5, "env_kind": "entangled",
                "t1s": 0.0, "t1f": 1.0, "t2s": 1.0, "t2f": 2.0,
            },
            "discrete": {"n_modes": 1, "n_max": 6},
            "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 0.5},
        },
        "check.json": {
            "mode": "check",
            "seed": 5,
            "check": {"samples": 5},
            "output_path": str(tmp_path / "report.json"),
        },
    }
    ok = True
    details = []
    for name, cfg in cfgs.items():
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        assert cli.run(str(path)) == 0
        first = open(cfg["output_path"], "rb").read()
        assert cli.run(str(path)) == 0
        second = open(cfg["output_path"], "rb").read()
        same = first == second
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    _report("criterion 7 (byte-identical reruns)", ok, "; ".join(details))
