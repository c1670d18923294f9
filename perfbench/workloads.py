"""The four workloads.

A workload is set up once (``setup``), then runs whole rounds of the same
operations (``run_round``) until the run length is reached.  Each operation is
recorded as ``(kind, seconds, failed)`` and its output is checked just after,
outside the timed window, and dropped, so the measuring process keeps no
output and its memory does not grow with the number of operations.
``prepare`` makes what the checks need (references) in the measuring process
only, after set-up.  With a tracer the round runs with spans on and each
operation gets its own root span and operation id.

Why these four: ``closed-form`` spends its time in states, linalg, measures
and the closed forms, none in the search; ``campaigns`` adds the suite driver
and the channel layer; ``basis-search`` is the optimizer; ``cli`` is process
start, import, argument parsing, the JSON loaders and output formatting.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

import references as ref
from inputs import (
    child_rng,
    child_seed,
    haar_unitary,
    low_rank,
    mixed_state,
    pure_vector,
)

CLOSED_FORM_TOL = 1e-9
SEARCH_TOL = 1e-4
BELOW_TOL = 1e-9
CHILD_TIMEOUT_S = 120.0


@dataclass
class Context:
    root: Path      # checkout root (holds src/ and perfbench/)
    work: Path      # scratch directory of this run, removed at the end
    seed: int

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


def run_child(argv, ctx: Context, stdout_path: Path, stderr_path: Path):
    """Run one child to its end; returns (exit code, seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root)
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        t1 = perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, t1 - t0, usage.ru_maxrss / 1024.0


class Workload:
    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.seed = ctx.seed
        self.problems: list[str] = []
        # failed operation name -> [count, largest excess over the reference]
        self.failures: dict[str, list] = {}
        # Filled on traced rounds: suite trial times, and per CLI command the
        # import times and the bytes it wrote.
        self.trial_s: dict[str, list[float]] = {}
        self.import_ms: list[tuple] = []
        self.emit_bytes: list[int] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, record, tracer=None) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def fail(self, name: str, excess: float) -> None:
        entry = self.failures.setdefault(name, [0, excess])
        entry[0] += 1
        entry[1] = max(entry[1], excess)


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

CLOSED_FORM_DIMS = ((2, 2), (2, 3), (3, 3), (4, 4), (8, 8))
CLOSED_FORM_KINDS = ("ginibre", "pure", "low-rank")
# Distinct input rounds; the run cycles through them.  The program keeps no
# cache, so a repeat costs what a fresh state does.
CLOSED_FORM_POOL = 32


@dataclass
class StateItem:
    label: str
    dims: tuple
    mat: np.ndarray
    frame_a: np.ndarray | None = None
    frame_b: np.ndarray | None = None


class ClosedForm(Workload):
    """Validate a raw matrix, then MeasureReport, dac and dac_sym."""

    name = "closed-form"

    def setup(self) -> None:
        import discoh  # noqa: F401  (import is part of set-up)

        self.pool = [self._inputs(r) for r in range(CLOSED_FORM_POOL)]
        self.refs = {}  # empty until prepare(): the warm-up round is not checked
        self.run_round(0, lambda *a: None)

    def _inputs(self, r: int) -> list[StateItem]:
        items = []
        for slot, (dims, kind) in enumerate(product(CLOSED_FORM_DIMS, CLOSED_FORM_KINDS)):
            rng = child_rng(self.seed, self.name, r, slot)
            d = dims[0] * dims[1]
            item = StateItem(f"{kind}-{dims[0]}x{dims[1]}", dims, None)
            if kind == "ginibre":
                item.mat = mixed_state(rng, d)
            elif kind == "pure":
                v = pure_vector(rng, d)
                item.mat = np.outer(v, v.conj())
            else:
                item.mat = mixed_state(rng, d, low_rank(d))
                item.frame_a = haar_unitary(rng, dims[0])
                item.frame_b = haar_unitary(rng, dims[1])
            items.append(item)
        return items

    def run_round(self, r: int, record, tracer=None) -> None:
        import discoh

        p = r % CLOSED_FORM_POOL
        for slot, it in enumerate(self.pool[p]):
            t0 = perf_counter()
            sid = tracer.open("bench.closed_form") if tracer else -1
            rho = discoh.DensityMatrix(it.mat, it.dims)
            rep = discoh.MeasureReport.compute(rho, it.frame_a, it.frame_b)
            dac = discoh.coherence_discord(rho, it.frame_a)
            dac_sym = discoh.coherence_discord_symmetric(rho, it.frame_a, it.frame_b)
            if tracer:
                tracer.close(sid)
                tracer.op += 1
            t1 = perf_counter()
            record(it.label, t1 - t0, False)
            if self.refs:
                self._check(it, self.refs[p, slot], p, rep, dac, dac_sym)

    def prepare(self) -> None:
        self.refs = {
            (p, slot): ref.closed_form_report(it.mat, it.dims, it.frame_a, it.frame_b)
            for p, items in enumerate(self.pool) for slot, it in enumerate(items)
        }

    def _check(self, it, want, p, rep, dac, dac_sym) -> None:
        got = {**rep.to_dict(), "dac": dac, "dac_sym": dac_sym}
        for key, value in got.items():
            if key not in want:
                self.problem(f"{it.label}: no reference for {key}")
            elif not abs(value - want[key]) <= CLOSED_FORM_TOL:
                self.problem(f"{it.label} round {p}: {key} = {value!r}, reference {want[key]!r}")
        if not got["I_co"] >= -CLOSED_FORM_TOL:
            self.problem(f"{it.label}: I_co = {got['I_co']!r} < 0")
        if not -CLOSED_FORM_TOL <= dac <= got["C_r_upper"] + CLOSED_FORM_TOL:
            self.problem(f"{it.label}: dac = {dac!r} outside [0, C_r_upper]")


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

# (suite, trials per round).  The suites that run no basis search, at their
# default dims (superadditivity cycles 2x2, 2x3 and 3x3 itself), in the ratio
# of the acceptance campaigns (tests/test_acceptance.py: 1000, 500, 1000 and
# 100 trials), so the layers weigh here as they do in a full campaign.
CAMPAIGN_PLAN = (
    ("theorem1", 20),
    ("theorem3", 10),
    ("superadditivity", 20),
    ("invariance", 2),
)


# Round index of the warm-up, never reached by a timed phase.
WARMUP_ROUND = 2**31 - 1


class Campaigns(Workload):
    """run_suite with a child of the workload seed; one operation per trial."""

    name = "campaigns"

    def setup(self) -> None:
        import discoh  # noqa: F401

        self.run_round(WARMUP_ROUND, lambda *a: None)

    def run_round(self, r: int, record, tracer=None) -> None:
        import discoh

        for k, (suite, trials) in enumerate(CAMPAIGN_PLAN):
            seed = child_seed(self.seed, self.name, r, k)
            stamps = [perf_counter()]

            def progress(i, n):
                stamps.append(perf_counter())
                if tracer:
                    tracer.op += 1

            sid = tracer.open(f"bench.{suite}") if tracer else -1
            res = discoh.run_suite(suite, trials=trials, seed=seed, progress=progress)
            if tracer:
                tracer.close(sid)
            for i in range(len(stamps) - 1):
                record(suite, stamps[i + 1] - stamps[i], False)
            if tracer:
                self.trial_s.setdefault(suite, []).extend(np.diff(stamps))
            self._check(suite, trials, seed, len(stamps) - 1, res)

    def _check(self, suite, trials, seed, calls, res) -> None:
        where = f"{suite} seed {seed}"
        if res.trials != trials or calls != trials:
            self.problem(f"{where}: {res.trials} trials, {calls} progress calls, asked {trials}")
        if not res.passed or res.failures:
            self.problem(f"{where}: failed ({res.failures} failures)")
        if not res.max_violation <= res.tolerance:
            self.problem(f"{where}: max violation {res.max_violation!r} > {res.tolerance!r}")


# ---------------------------------------------------------------------------
# basis-search
# ---------------------------------------------------------------------------

# The 2x2 families come twice, so that two thirds of the solves are 2x2 and
# the median solve lies well inside that group, not on the edge between two
# kinds of very different cost.
SEARCH_STATES = (
    *("bell-diagonal", "werner", "pure-da2", "hidden-basis-da2") * 2,
    "pure-da3",
    "pure-da4",
    "hidden-basis-da3",
    "hidden-basis-da4-fixed",
)
SEARCH_ROUTES = ("discord", "discord_via_coherence")
# The d_a = 4 hidden-basis state is one fixed state, not drawn from the
# workload seed: the default search stops at its iteration budget 5e-3 above
# the exact 0 on it, so it fails on every run and its share of failures never
# changes.  On seeded d_a = 4 hidden-basis states the search misses by 1.3e-4
# to 2e-2, close enough to the tolerance on some that a seed could pass, so
# they are left out.
FIXED_HIDDEN_SEED = 20161101
FAULT = ("default search (16 Nelder-Mead restarts over Givens angles) stops at its "
         "8000-iteration budget without converging")


def hidden_basis_state(rng, d_a: int, d_b: int = 2) -> np.ndarray:
    probs = rng.dirichlet(np.ones(d_a))
    frame = haar_unitary(rng, d_a)
    blocks = [mixed_state(rng, d_b) for _ in range(d_a)]
    return ref.classical_quantum(probs, frame, blocks)


class BasisSearch(Workload):
    """discord() and discord_via_coherence() against outside references, plus
    one Theorem 2 trial with its grid check per round."""

    name = "basis-search"

    def setup(self) -> None:
        import discoh

        self.fixed = hidden_basis_state(np.random.default_rng(FIXED_HIDDEN_SEED), 4)
        self.rounds: dict[int, list] = {}
        rho = discoh.DensityMatrix(self._inputs(0)[0][2], (2, 2))
        discoh.discord(rho)

    def _inputs(self, r: int) -> list:
        """[(label, route, matrix, dims, reference discord)] for round r; every
        solve but the fixed d_a = 4 hidden-basis one has its own state, drawn
        from its own child seed."""
        if r in self.rounds:
            return self.rounds[r]
        items = []
        for slot, (label, route) in enumerate(product(SEARCH_STATES, SEARCH_ROUTES)):
            rng = child_rng(self.seed, self.name, r, slot)
            if label in ("bell-diagonal", "werner"):
                if label == "bell-diagonal":
                    m0 = ref.bell_diagonal(rng.dirichlet(np.ones(4)))
                    want = ref.luo_discord(ref.correlation_coefficients(m0))
                else:
                    p = float(rng.uniform(0.0, 1.0))
                    m0, want = ref.werner(p), ref.werner_discord(p)
                u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
                items.append((label, route, u @ m0 @ u.conj().T, (2, 2), want))
            elif label.startswith("pure"):
                dims = (int(label[-1]), 2)
                v = pure_vector(rng, dims[0] * dims[1])
                items.append((label, route, np.outer(v, v.conj()), dims,
                              ref.pure_discord(v, dims)))
            elif label == "hidden-basis-da4-fixed":
                items.append((label, route, self.fixed, (4, 2), 0.0))
            else:
                d_a = int(label[-1])
                items.append((label, route, hidden_basis_state(rng, d_a), (d_a, 2), 0.0))
        self.rounds = {r: items}
        return items

    def run_round(self, r: int, record, tracer=None) -> None:
        import discoh

        verify = sys.modules["discoh.verify"]
        for label, route, mat, dims, want in self._inputs(r):
            rho = discoh.DensityMatrix(mat, dims)
            solve = getattr(discoh, route)
            t0 = perf_counter()
            sid = tracer.open("bench.solve") if tracer else -1
            value = solve(rho)[0]
            if tracer:
                tracer.close(sid)
                tracer.op += 1
            t1 = perf_counter()
            name = f"{label}/{route}"
            failed = value - want > SEARCH_TOL
            if value < want - BELOW_TOL:
                self.problem(f"{name} round {r}: {value!r} below reference {want!r}")
            if failed:
                self.fail(name, value - want)
            # The two routes minimize the same function: one kind per family.
            record(label, t1 - t0, failed)
        thm2 = verify.verify_theorem2
        if tracer:
            thm2 = tracer.wrap(thm2, "verify.verify_theorem2")
        seed = child_seed(self.seed, self.name, r, len(SEARCH_STATES) * len(SEARCH_ROUTES))
        t0 = perf_counter()
        sid = tracer.open("bench.theorem2") if tracer else -1
        res = thm2(trials=1, dims=(2, 2), seed=seed, grid_checks=1)
        if tracer:
            tracer.close(sid)
            tracer.op += 1
            self.trial_s.setdefault("theorem2", []).append(perf_counter() - t0)
        t1 = perf_counter()
        if not res.passed:
            self.fail("theorem2", res.max_violation)
        record("theorem2", t1 - t0, not res.passed)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Closed-form columns requested from the CLI; the check reads back whatever
# names the program prints and requires these four among them.
CLI_MEASURES = ("S_ab,S_a,S_b,I,C_r_ab,C_r_a,C_r_b,I_co,C_r_upper,C_r_sym,l1_cc,"
                "dac,dac_sym")
CLI_REQUIRED = ("I_co", "C_r_upper", "dac", "dac_sym")
SWEEP_STEPS = 11


def matrix_to_json(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def swap_parts(m, dims) -> np.ndarray:
    d_a, d_b = dims
    return m.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(d_a * d_b, -1)


def cq_angle_state(theta: float) -> np.ndarray:
    """The CLI's cq-angle family: (|f0><f0| (x) |0><0| + |f1><f1| (x) |+><+|)/2
    with f the real rotation by theta."""
    c, s = np.cos(theta), np.sin(theta)
    frame = np.array([[c, -s], [s, c]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    return ref.classical_quantum([0.5, 0.5], frame, [zero, plus])


def printed_close(printed: float, want: float) -> bool:
    """Agreement to the 12 printed significant digits, plus reference roundoff."""
    return abs(printed - want) <= 5e-12 * abs(want) + 1e-12


class Cli(Workload):
    """One fresh interpreter per command, run one after another."""

    name = "cli"

    def setup(self) -> None:
        self.n = 0
        self.peak_rss_mb = 0.0
        code, _, _ = run_child([sys.executable, "-m", "discoh.cli", "--version"], self.ctx,
                               self.ctx.work / "warm.out", self.ctx.work / "warm.err")
        if code != 0:
            raise RuntimeError("discoh.cli --version failed")

    def _write_inputs(self, r: int) -> dict:
        w = self.ctx.work
        files = {}
        rng = child_rng(self.seed, self.name, r, 0)
        m = mixed_state(rng, 9)
        files["json"] = (w / f"r{r}-json.json", m, (3, 3), None, None)
        rng = child_rng(self.seed, self.name, r, 1)
        m = mixed_state(rng, 8, low_rank(8))
        fa, fb = haar_unitary(rng, 4), haar_unitary(rng, 2)  # A is the old B after --part b
        files["csv"] = (w / f"r{r}-csv.json", m, (2, 4), fa, fb)
        for path, mat, dims, _, _ in files.values():
            path.write_text(json.dumps({"dims": list(dims), "matrix": matrix_to_json(mat)}))
        (w / f"r{r}-basis.json").write_text(
            json.dumps({"frame_a": matrix_to_json(fa), "frame_b": matrix_to_json(fb)}))
        return files

    def _command(self, args: list, tracer) -> tuple:
        import tracing

        self.n += 1
        w = self.ctx.work
        out, err = w / f"c{self.n}.out", w / f"c{self.n}.err"
        if tracer:
            spans = w / f"c{self.n}.npz"
            argv = [sys.executable, "-X", "importtime",
                    str(self.ctx.root / "perfbench" / "cli_shim.py"), str(spans), *args]
            sid = tracer.open(f"bench.cli.{args[0]}")
        else:
            argv = [sys.executable, "-m", "discoh.cli", *args]
        code, seconds, rss = run_child(argv, self.ctx, out, err)
        text = out.read_text()
        if tracer:
            tracer.close(sid)
            if spans.exists():
                tracing.merge_child_spans(tracer, spans, sid)
                spans.unlink()
            tracer.op += 1
            self.import_ms.append(tracing.import_times_ms(err.read_text()))
            emitted = len(text.encode())
            if "--out" in args:
                emitted += os.path.getsize(args[args.index("--out") + 1])
            self.emit_bytes.append(emitted)
        else:
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code != 0:
            self.problem(f"{' '.join(args)}: exit code {code}: {err.read_text()[-300:]}")
        return seconds, text

    def run_round(self, r: int, record, tracer=None) -> None:
        w = self.ctx.work
        files = self._write_inputs(r)
        for k, (dims, ensemble) in enumerate((((2, 2), "ginibre-mixed"), ((8, 8), "haar-pure"))):
            path = w / f"r{r}-random{k}.json"
            args = ["random", "--dims", f"{dims[0]}x{dims[1]}", "--ensemble", ensemble,
                    "--seed", str(child_seed(self.seed, self.name, r, 2 + k)), "--out", str(path)]
            seconds, _ = self._command(args, tracer)
            record(f"random-{dims[0]}x{dims[1]}", seconds, False)
            self._check("random", dims, path.read_text(), tracer)
        path, mat, dims, _, _ = files["json"]
        seconds, text = self._command(
            ["compute", str(path), "--measures", CLI_MEASURES, "--format", "json"], tracer)
        record("compute-json", seconds, False)
        self._check("compute-json", files["json"], text, tracer)
        path, mat, dims, _, _ = files["csv"]
        seconds, text = self._command(
            ["compute", str(path), "--measures", CLI_MEASURES, "--format", "csv",
             "--part", "b", "--basis", str(w / f"r{r}-basis.json")], tracer)
        record("compute-csv", seconds, False)
        self._check("compute-csv", files["csv"], text, tracer)
        seconds, text = self._command(
            ["sweep", "cq-angle", "--steps", str(SWEEP_STEPS), "--measures", CLI_MEASURES], tracer)
        record("sweep-cq-angle", seconds, False)
        self._check("sweep", None, text, tracer)

    def _check(self, kind, spec, text, tracer) -> None:
        # The references call numpy.linalg, which a tracer counts as discoh's.
        with tracer.suspended() if tracer else contextlib.nullcontext():
            self._check_output(kind, spec, text)

    def _check_output(self, kind, spec, text) -> None:
        try:
            if kind == "random":
                self._check_random(spec, text)
            elif kind == "compute-json":
                self._check_compute_json(spec, text)
            elif kind == "compute-csv":
                self._check_compute_csv(spec, text)
            else:
                self._check_sweep(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.problem(f"{kind}: unreadable output ({exc!r})")

    def _check_random(self, dims, text) -> None:
        obj = json.loads(text)
        m = matrix_from_json(obj["matrix"])
        if obj["dims"] != list(dims) or not ref.is_valid_state(m, dims):
            self.problem(f"random {dims}: not a valid state of the requested dims")

    def _compare(self, where, values: dict, want: dict) -> None:
        missing = [n for n in CLI_REQUIRED if n not in values]
        if missing:
            self.problem(f"{where}: missing {missing}")
        for name, got in values.items():
            if name not in want or not printed_close(got, want[name]):
                self.problem(f"{where}: {name} = {got!r}, reference {want.get(name)!r}")

    def _check_compute_json(self, spec, text) -> None:
        _, mat, dims, _, _ = spec
        obj = json.loads(text)
        if obj["dims"] != list(dims):
            self.problem(f"compute json: dims {obj['dims']} != {list(dims)}")
        self._compare("compute json", obj["measures"], ref.closed_form_report(mat, dims))

    def _check_compute_csv(self, spec, text) -> None:
        _, mat, dims, fa, fb = spec
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2:
            self.problem(f"compute csv: {len(rows)} lines, expected 2")
            return
        values = {k: float(v) for k, v in zip(rows[0], rows[1])}
        swapped = (dims[1], dims[0])
        want = ref.closed_form_report(swap_parts(mat, dims), swapped, fa, fb)
        self._compare("compute csv --part b --basis", values, want)

    def _check_sweep(self, text) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != SWEEP_STEPS + 1 or rows[0][0] != "theta":
            self.problem(f"sweep: {len(rows)} lines, header {rows[0] if rows else None}")
            return
        for row, theta in zip(rows[1:], np.linspace(0.0, np.pi / 4.0, SWEEP_STEPS)):
            values = {k: float(v) for k, v in zip(rows[0], row)}
            if not printed_close(values.pop("theta"), theta):
                self.problem(f"sweep: theta {row[0]} != {theta!r}")
            self._compare(f"sweep theta={theta:.4f}", values,
                          ref.closed_form_report(cq_angle_state(theta), (2, 2)))


WORKLOADS = {w.name: w for w in (ClosedForm, Campaigns, BasisSearch, Cli)}
