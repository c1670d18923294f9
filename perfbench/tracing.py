"""Span tracing at discoh's module boundaries, from outside the package.

``Tracer.install`` replaces, in every discoh module, each name that refers to
a public function of *another* discoh module with a wrapper that records a
span.  A call is therefore traced as the calling module sees it: ``partial_trace``
called from ``discoh.measures`` is a ``linalg`` span, while calls inside
``discoh.linalg`` itself are not split out.  Constructors that validate
(``DensityMatrix`` and friends), ``MeasureReport.compute``, numpy's ``eigh``
and ``eigvalsh`` and the ``minimize`` handed to the basis search are wrapped
in place.  ``uninstall`` restores every original.

Each span records a name, start, end, parent and operation id.  Spans are
kept in memory in flat arrays and written out when the run ends.  No file of
the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
from array import array
from time import perf_counter

LAYERS = (
    "bench", "states", "linalg", "kernel", "measures",
    "discord", "search", "channels", "verify", "cli",
)

# discord.py holds both the closed forms and the basis search; these names
# are the search.
SEARCH_FUNCTIONS = ("discord", "discord_via_coherence")
CLOSED_FORM = ("discord.coherence_discord", "discord.coherence_discord_symmetric")
VALIDATING_CLASSES = (
    ("states", "DensityMatrix"),
    ("states", "ReferenceBasis"),
    ("channels", "KrausChannel"),
    ("channels", "ChannelMixture"),
)
MODULES = ("states", "linalg", "measures", "discord", "channels", "verify", "cli")


def span_name(module: str, func: str) -> str:
    layer = module.rsplit(".", 1)[-1]
    if layer == "discord" and func in SEARCH_FUNCTIONS:
        layer = "search"
    return f"{layer}.{func}"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.opid = array("i")
        self.stack = [-1]
        self.op = 0
        self.eig_matrices = 0
        self.objective_evals = 0
        # (d_a, seconds, restarts, restarts_at_best, budget_hits, converged)
        self.solves: list[tuple] = []
        self._patches: list[tuple] = []
        self._wrapped: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.t0)
        self.nid.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.opid.append(self.op)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self.stack.pop()

    def add(self, name: str, t0: float, t1: float, parent: int) -> int:
        """Record a finished span measured elsewhere."""
        i = len(self.t0)
        self.nid.append(self._id(name))
        self.parent.append(parent)
        self.opid.append(self.op)
        self.t0.append(t0)
        self.t1.append(t1)
        return i

    def wrap(self, fn, name: str, after=None):
        nid = self._id(name)
        nids, t0s, t1s, parents, opids, stack = (
            self.nid, self.t0, self.t1, self.parent, self.opid, self.stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(t0s)
            nids.append(nid)
            parents.append(stack[-1])
            opids.append(self.op)
            t1s.append(0.0)
            stack.append(i)
            t0s.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out, t1s[i] - t0s[i])
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrapper_for(self, fn, name: str):
        key = id(fn)
        if key not in self._wrapped:
            after = self._after_solve if name.startswith("search.") else None
            self._wrapped[key] = self.wrap(fn, name, after)
        return self._wrapped[key]

    def install(self) -> None:
        import numpy.linalg

        import discoh

        mods = {"discoh": discoh}
        for short in MODULES:
            full = f"discoh.{short}"
            if full in sys.modules:
                mods[full] = sys.modules[full]
        for caller_name, caller in mods.items():
            for attr, val in list(vars(caller).items()):
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                home = getattr(val, "__module__", "") or ""
                if home.startswith("discoh.") and home != caller_name:
                    self.patch(caller, attr, self._wrapper_for(val, span_name(home, attr)))
        for short, cls_name in VALIDATING_CLASSES:
            cls = getattr(mods[f"discoh.{short}"], cls_name)
            self.patch(cls, "__init__", self.wrap(cls.__init__, f"{short}.{cls_name}"))
        report_cls = mods["discoh.measures"].MeasureReport
        compute = report_cls.__dict__["compute"].__func__
        self.patch(report_cls, "compute",
                    classmethod(self.wrap(compute, "measures.MeasureReport.compute")))
        for fname in ("eigh", "eigvalsh"):
            self.patch(numpy.linalg, fname,
                        self.wrap(getattr(numpy.linalg, fname), f"kernel.{fname}",
                                  self._after_eig))
        discord_mod = mods["discoh.discord"]
        self.patch(discord_mod, "minimize",
                    self.wrap(self._counting_minimize(discord_mod.minimize), "search.minimize"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
        self._wrapped.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own work (an output check) with nothing wrapped."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- counters at the boundaries -----------------------------------------

    def _after_eig(self, args, kwargs, out, seconds) -> None:
        shape = getattr(args[0], "shape", ())
        self.eig_matrices += math.prod(shape[:-2])

    def _after_solve(self, args, kwargs, out, seconds) -> None:
        if not (isinstance(out, tuple) and hasattr(out[-1], "restarts")):
            return
        rho, trace = args[0], out[-1]
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        max_iter = config.max_iter if config is not None else _default_max_iter()
        finals = [r.final_value for r in trace.restarts]
        self.solves.append((
            rho.d_a,
            seconds,
            len(finals),
            sum(1 for v in finals if v <= trace.best_value + 1e-9),
            sum(1 for r in trace.restarts if r.iterations >= max_iter),
            bool(trace.converged),
        ))

    def _counting_minimize(self, minimize):
        tracer = self

        def traced_minimize(fun, x0, *args, **kwargs):
            def counted(x, *a):
                tracer.objective_evals += 1
                return fun(x, *a)

            return minimize(tracer.wrap(counted, "search.objective"), x0, *args, **kwargs)

        return traced_minimize

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        return {
            "names": np.array(self.names, dtype=object),
            "name_id": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "start": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "end": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.opid, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        import numpy as np

        a = self.arrays()
        np.savez_compressed(path, **{**a, "names": np.array(self.names, dtype=str)},
                            counters=np.array([self.eig_matrices, self.objective_evals]))


def _default_max_iter() -> int:
    from discoh.discord import OptimizerConfig

    return OptimizerConfig().max_iter


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(start, end, parent):
    """Duration minus the durations of direct children, per span."""
    import numpy as np

    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur, dur - child


def outermost(mask, parent):
    """Spans in ``mask`` with no ancestor in ``mask`` (no double counting)."""
    import numpy as np

    covered = np.zeros(mask.size, dtype=bool)
    p = parent.copy()
    while True:
        live = p >= 0
        if not live.any():
            break
        covered[live] |= mask[p[live]]
        p[live] = parent[p[live]]
    return mask & ~covered


class SpanTable:
    """Aggregates over recorded spans, selected by name."""

    def __init__(self, arrays: dict):
        import numpy as np

        self.np = np
        self.names = [str(n) for n in arrays["names"]]
        self.nid = arrays["name_id"]
        self.parent = arrays["parent"].astype(np.int64)
        self.dur, self.self_time = self_times(arrays["start"], arrays["end"], self.parent)

    def _select(self, keep) -> "np.ndarray":
        ids = [i for i, n in enumerate(self.names) if keep(n)]
        return self.np.isin(self.nid, ids)

    def mask(self, names=None, prefix=None, layer=None):
        if names is not None:
            return self._select(lambda n: n in names)
        if prefix is not None:
            return self._select(lambda n: n.startswith(prefix))
        return self._select(lambda n: n.split(".", 1)[0] == layer)

    def calls(self, m) -> int:
        return int(m.sum())

    def inclusive_s(self, m) -> float:
        return float(self.dur[outermost(m, self.parent)].sum())

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_time[self.mask(layer=layer)].sum())


def merge_child_spans(tracer: Tracer, path, parent: int) -> None:
    """Append the spans a child process saved, under the span ``parent``.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by every process, so the
    child's times sit on the parent's time line.
    """
    import numpy as np

    with np.load(path) as z:
        tracer.eig_matrices += int(z["counters"][0])
        tracer.objective_evals += int(z["counters"][1])
        names = [str(n) for n in z["names"]]
        base = len(tracer.t0)
        for nid, t0, t1, par in zip(z["name_id"], z["start"], z["end"], z["parent"]):
            tracer.add(names[nid], float(t0), float(t1), parent if par < 0 else base + int(par))


def import_times_ms(stderr_text: str) -> tuple:
    """(import of discoh.cli, import of scipy.optimize) in ms from -X importtime."""
    cli = scipy_opt = 0.0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        try:
            us = float(cumulative)
        except ValueError:
            continue  # the header line
        if name.strip() == "discoh.cli":
            cli = max(cli, us / 1000.0)
        elif name.strip() == "scipy.optimize":
            scipy_opt = max(scipy_opt, us / 1000.0)
    return cli, scipy_opt


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit).  "/op" figures are totals over the traced pass divided by its
# operations; ".ms" figures of a call are inclusive (children counted, nested
# calls of the same kind counted once); "self_ms.<layer>" is self time.
PER_LAYER = (
    ("states.validate.calls", "count/op"),
    ("states.validate.ms", "ms/op"),
    ("states.json.load_ms", "ms"),
    ("states.json.save_ms", "ms"),
    ("linalg.calls", "count/op"),
    ("linalg.ms", "ms/op"),
    ("linalg.as_frame.calls", "count/op"),
    ("kernel.eig.calls", "count/op"),
    ("kernel.eig.matrices", "count/op"),
    ("kernel.eig.ms", "ms/op"),
    ("measures.calls", "count/op"),
    ("measures.ms", "ms/op"),
    ("discord.closed_form.calls", "count/op"),
    ("discord.closed_form.ms", "ms/op"),
    ("search.solve_ms.da2", "ms"),
    ("search.solve_ms.da3", "ms"),
    ("search.solve_ms.da4", "ms"),
    ("search.objective_evals", "count/solve"),
    ("search.objective_eval_us", "us"),
    ("search.restarts", "count/solve"),
    ("search.restarts_at_best", "ratio"),
    ("search.budget_hits", "count/solve"),
    ("search.unconverged", "ratio"),
    ("channels.apply.calls", "count/op"),
    ("channels.apply.ms", "ms/op"),
    ("channels.classify.calls", "count/op"),
    ("channels.classify.ms", "ms/op"),
    ("channels.sample.ms", "ms/op"),
    ("verify.trial_ms.theorem1", "ms"),
    ("verify.trial_ms.theorem2", "ms"),
    ("verify.trial_ms.theorem3", "ms"),
    ("verify.trial_ms.superadditivity", "ms"),
    ("verify.trial_ms.invariance", "ms"),
    ("verify.driver.self_ms", "ms/trial"),
    ("cli.import_ms", "ms"),
    ("cli.import.scipy_optimize_ms", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.command_ms", "ms"),
    ("cli.emit_bytes", "bytes"),
    *((f"self_ms.{layer}", "ms/op") for layer in LAYERS),
    ("trace.spans", "count/op"),
    ("trace.overhead_pct", "%"),
)

SAMPLERS = ("channels.random_iuo", "channels.random_rank_one_ppio",
            "channels.random_physically_free", "channels.random_kraus_ops")


def per_layer_metrics(tracer: Tracer, n_ops: int, trial_s: dict, import_ms: list,
                      emit_bytes: list, untraced_s: float, traced_s: float) -> dict:
    """Every PER_LAYER metric from one traced pass; absent layers read 0."""
    import numpy as np

    t = SpanTable(tracer.arrays())
    per_op = 1.0 / max(n_ops, 1)

    def median_ms(xs):
        return float(np.median(xs)) * 1e3 if len(xs) else 0.0

    def mean_ms(m):
        return float(t.dur[m].mean()) * 1e3 if m.any() else 0.0

    v = {}
    validate = t.mask(names=["states.DensityMatrix"])
    v["states.validate.calls"] = t.calls(validate) * per_op
    v["states.validate.ms"] = t.inclusive_s(validate) * 1e3 * per_op
    v["states.json.load_ms"] = mean_ms(t.mask(names=["states.load_state"]))
    v["states.json.save_ms"] = mean_ms(t.mask(names=["states.save_state"]))
    for layer in ("linalg", "measures"):
        m = t.mask(layer=layer)
        v[f"{layer}.calls"] = t.calls(m) * per_op
        v[f"{layer}.ms"] = t.inclusive_s(m) * 1e3 * per_op
    v["linalg.as_frame.calls"] = t.calls(t.mask(names=["linalg.as_frame"])) * per_op
    eig = t.mask(layer="kernel")
    v["kernel.eig.calls"] = t.calls(eig) * per_op
    v["kernel.eig.matrices"] = tracer.eig_matrices * per_op
    v["kernel.eig.ms"] = t.inclusive_s(eig) * 1e3 * per_op
    closed = t.mask(names=CLOSED_FORM)
    v["discord.closed_form.calls"] = t.calls(closed) * per_op
    v["discord.closed_form.ms"] = t.inclusive_s(closed) * 1e3 * per_op

    solves = tracer.solves
    n_solves = max(len(solves), 1)
    for d_a in (2, 3, 4):
        v[f"search.solve_ms.da{d_a}"] = median_ms([s[1] for s in solves if s[0] == d_a])
    v["search.objective_evals"] = tracer.objective_evals / n_solves
    v["search.objective_eval_us"] = mean_ms(t.mask(names=["search.objective"])) * 1e3
    restarts = sum(s[2] for s in solves)
    v["search.restarts"] = restarts / n_solves
    v["search.restarts_at_best"] = sum(s[3] for s in solves) / restarts if restarts else 0.0
    v["search.budget_hits"] = sum(s[4] for s in solves) / n_solves
    v["search.unconverged"] = sum(1 for s in solves if not s[5]) / n_solves

    for what in ("apply", "classify"):
        m = t.mask(names=[f"channels.{what}"])
        v[f"channels.{what}.calls"] = t.calls(m) * per_op
        v[f"channels.{what}.ms"] = t.inclusive_s(m) * 1e3 * per_op
    v["channels.sample.ms"] = t.inclusive_s(t.mask(names=SAMPLERS)) * 1e3 * per_op

    for suite in ("theorem1", "theorem2", "theorem3", "superadditivity", "invariance"):
        v[f"verify.trial_ms.{suite}"] = median_ms(trial_s.get(suite, []))
    n_trials = sum(len(x) for x in trial_s.values())
    v["verify.driver.self_ms"] = t.layer_self_s("verify") * 1e3 / n_trials if n_trials else 0.0

    v["cli.import_ms"] = float(np.median([x[0] for x in import_ms])) if import_ms else 0.0
    v["cli.import.scipy_optimize_ms"] = (
        float(np.median([x[1] for x in import_ms])) if import_ms else 0.0)
    commands = max(t.calls(t.mask(prefix="bench.cli.")), 1)
    parse = t.mask(names=["cli.build_parser", "cli.parse_args"])
    v["cli.parse_ms"] = float(t.dur[parse].sum()) * 1e3 / commands
    v["cli.command_ms"] = float(t.dur[t.mask(prefix="cli.cmd_")].sum()) * 1e3 / commands
    v["cli.emit_bytes"] = float(np.mean(emit_bytes)) if emit_bytes else 0.0

    for layer in LAYERS:
        v[f"self_ms.{layer}"] = t.layer_self_s(layer) * 1e3 * per_op
    v["trace.spans"] = len(t.dur) * per_op
    v["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0 if untraced_s else 0.0
    return v
