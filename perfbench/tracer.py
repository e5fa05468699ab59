"""In-memory span tracer for one ``nonmarkov`` CLI process.

``install`` wraps the public entry points of each layer of the package from
the outside (``src/`` is not modified), plus the eigensolvers and ``expm``
it calls.  A span records name, start, end, parent, thread and job id.  Each
eigensolve and each ``expm`` is not a span of its own: it is attributed to
the innermost open layer span on its thread, whose counters it raises.
Spans stay in memory; ``Tracer.dump`` writes them once, when the job ends.

``summarize`` turns the spans of one job into per-layer totals.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

import numpy

FIELDS = (
    "id", "name", "parent", "thread", "job", "start", "end",
    "eig_calls", "eig_s", "eig_n3", "eig_max_dim", "expm_calls", "expm_s",
    "bytes", "wait_s",
)

# (layer, module, attribute): module-level functions.  Every module of the
# package that imported the same object by name gets the wrapper too.
FUNCTIONS = (
    ("states", "nonmarkov.states", (
        "partial_trace", "tensor", "apply_channel", "pure_state", "basis_state",
        "maximally_mixed", "haar_random_unitary", "random_density_matrix",
        "random_pure_state", "random_channel",
    )),
    ("info", "nonmarkov.info", (
        "von_neumann_entropy", "trace_distance", "fidelity", "relative_entropy",
        "telescopic_relative_entropy", "jensen_shannon_telescopic",
        "mutual_information", "conditional_mutual_information",
        "interaction_information", "petz_recovery",
    )),
    ("measures", "nonmarkov.measures", (
        "positive_increment_integral", "negative_decrement_integral",
        "measure_distance_blp", "measure_lfs", "measure_n1", "measure_n2",
        "optimal_pair_state", "tsio_trajectory", "flagged_ancilla_state", "ops_state",
    )),
    ("dephasing", "nonmarkov.dephasing", (
        "system_trajectory", "system_state", "cmi_trajectory", "discrete_phase_factors",
    )),
    ("dephasing.quadrature", "nonmarkov.dephasing", (
        "phase_factor_grid", "coherence_factor_matrices",
    )),
    ("dephasing.model_build", "nonmarkov.dephasing", ("build_discrete_model",)),
    ("oracle", "nonmarkov.oracle", (
        "identity_suite", "special_function_suite", "dense_dephasing_check",
    )),
    ("cli", "nonmarkov.cli", ("main",)),
)

# (layer, module, class, method names)
METHODS = (
    ("states.validate", "nonmarkov.states", "DensityMatrix", ("__post_init__",)),
    ("dephasing.snapshot", "nonmarkov.dephasing", "_Snapshot", ("__init__",)),
    ("dephasing.branch", "nonmarkov.dephasing", "BranchComputer", ("entropies_at",)),
    ("dephasing", "nonmarkov.dephasing", "BranchComputer", ("trajectories",)),
    ("dephasing.dense", "nonmarkov.dephasing", "DenseComputer",
     ("__init__", "state_at", "entropies_at", "system_state")),
)


class Span:
    __slots__ = FIELDS

    def row(self) -> list:
        return [getattr(self, f) for f in FIELDS]


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        s = Span()
        s.id = next(self._ids)
        s.name = name
        s.parent = parent if parent is not None else (stack[-1].id if stack else None)
        s.thread = threading.get_ident()
        s.job = self.job
        s.eig_calls = s.eig_n3 = s.eig_max_dim = s.expm_calls = s.bytes = 0
        s.eig_s = s.expm_s = s.wait_s = 0.0
        s.end = None
        stack.append(s)
        s.start = perf_counter()
        return s

    def close(self, s: Span):
        s.end = perf_counter()
        self._stack().pop()
        self.spans.append(s)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)
        return wrapper

    def wrap_solver(self, fn, kind: str):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                s = self.current()
                if s is not None:
                    if kind == "expm":
                        s.expm_calls += 1
                        s.expm_s += dt
                    else:
                        shape = numpy.shape(a)
                        n = shape[-1]
                        batch = 1
                        for d in shape[:-2]:
                            batch *= d
                        s.eig_calls += batch
                        s.eig_s += dt
                        s.eig_n3 += batch * n ** 3
                        s.eig_max_dim = max(s.eig_max_dim, n)
        return wrapper

    def dump(self, path: str):
        payload = {"job": self.job, "fields": FIELDS, "spans": [s.row() for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _rebind(orig, new):
    """Point every name in the package that is bound to ``orig`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nonmarkov" or mod_name.startswith("nonmarkov.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap every traced entry point; imports the whole package first."""
    import scipy.linalg

    import nonmarkov  # noqa: F401  (binds every submodule in sys.modules)
    import nonmarkov.cli

    for layer, mod_name, attrs in FUNCTIONS:
        mod = sys.modules[mod_name]
        for attr in attrs:
            orig = getattr(mod, attr)
            _rebind(orig, tracer.wrap(layer, orig))
    for layer, mod_name, cls_name, methods in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        for meth in methods:
            setattr(cls, meth, tracer.wrap(layer, vars(cls)[meth]))

    cli = sys.modules["nonmarkov.cli"]
    orig_write = cli._atomic_write

    def atomic_write(path, text):
        s = tracer.open("cli.write")
        s.bytes = len(text.encode())
        try:
            return orig_write(path, text)
        finally:
            tracer.close(s)

    cli._atomic_write = atomic_write
    cli.ThreadPoolExecutor = _traced_pool(tracer, cli.ThreadPoolExecutor)

    for name in ("eigvalsh", "eigh"):
        orig = getattr(numpy.linalg, name)
        setattr(numpy.linalg, name, tracer.wrap_solver(orig, "eig"))
    _rebind(scipy.linalg.eigh_tridiagonal, tracer.wrap_solver(scipy.linalg.eigh_tridiagonal, "eig"))
    _rebind(scipy.linalg.expm, tracer.wrap_solver(scipy.linalg.expm, "expm"))


def _traced_pool(tracer: Tracer, base):
    """The CLI's thread pool with a ``cli.pool`` span around its ``with`` block.

    Each task runs in a ``cli.pool.task`` span on its worker thread, whose
    parent is the submitting span and whose ``wait_s`` is its queueing delay.
    """

    class TracedPool(base):
        def __enter__(self):
            self._span = tracer.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            submitted = perf_counter()

            def task():
                s = tracer.open("cli.pool.task", parent=parent.id if parent else None)
                s.wait_s = s.start - submitted
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(s)

            return super().submit(task)

    return TracedPool


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per-layer totals for the spans of one job.

    ``self_s`` is a span's duration minus that of its children on the same
    thread (pool tasks run on other threads and do not count against the
    span that submitted them).  Eigensolves count against the innermost
    layer, except for ``dephasing.dense``, which makes none of its own: its
    ``eig_*`` totals cover every solve in its subtree, including those made
    through the ``states`` and ``info`` calls it issues.
    """
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = {}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None and p["thread"] == s["thread"]:
            child_s[p["id"]] = child_s.get(p["id"], 0.0) + s["end"] - s["start"]

    in_dense: dict[int, bool] = {}

    def under_dense(span) -> bool:
        chain = []
        hit = False
        while span is not None:
            if span["id"] in in_dense:
                hit = in_dense[span["id"]]
                break
            chain.append(span["id"])
            if span["name"] == "dephasing.dense":
                hit = True
                break
            span = by_id.get(span["parent"])
        for i in chain:
            in_dense[i] = hit
        return hit

    out: dict[str, dict[str, float]] = {}
    dense = {"eig_calls": 0, "eig_s": 0.0, "eig_n3": 0, "eig_max_dim": 0}
    for s in spans:
        d = out.setdefault(s["name"], {
            "calls": 0, "incl_s": 0.0, "self_s": 0.0, "eig_calls": 0, "eig_s": 0.0,
            "eig_n3": 0, "eig_max_dim": 0, "expm_calls": 0, "expm_s": 0.0,
            "bytes": 0, "wait_s": 0.0,
        })
        dur = s["end"] - s["start"]
        d["calls"] += 1
        d["incl_s"] += dur
        d["self_s"] += dur - child_s.get(s["id"], 0.0)
        for k in ("eig_calls", "eig_s", "eig_n3", "expm_calls", "expm_s", "bytes", "wait_s"):
            d[k] += s[k]
        d["eig_max_dim"] = max(d["eig_max_dim"], s["eig_max_dim"])
        if s["eig_calls"] and under_dense(s):
            for k in ("eig_calls", "eig_s", "eig_n3"):
                dense[k] += s[k]
            dense["eig_max_dim"] = max(dense["eig_max_dim"], s["eig_max_dim"])
    if "dephasing.dense" in out:
        out["dephasing.dense"].update(dense)
    return out


def load(path: str) -> list[dict]:
    with open(path) as fh:
        payload = json.load(fh)
    fields = payload["fields"]
    return [dict(zip(fields, row)) for row in payload["spans"]]
