"""discoh benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout (it imports the package from ``src/``).
Set-up is measured in fresh interpreters, then whole rounds of the workload's
operations run until ``--seconds`` have passed, and every output is checked
against references computed apart from the program.  With ``--trace 0`` the
last line of standard output is the end-to-end result; with ``--trace 1``
each round runs once untraced and once with spans on, and the last line holds
the per-layer metrics.  A summary, the failed operations and the environment
go to standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("closed-form", "campaigns", "basis-search", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (one set-up sample)")
    return p.parse_args(argv)


def setup_sample(args, work: Path, speed) -> tuple:
    """(seconds from starting a fresh interpreter to the end of its set-up,
    midpoint), after a machine-speed probe."""
    speed.refresh()
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    with open(work / "setup.err", "wb") as err:
        t0 = perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        killer = threading.Timer(120.0, p.kill)
        killer.start()
        try:
            line = p.stdout.readline()
            t1 = perf_counter()
            p.stdout.read()
            p.wait()
        finally:
            killer.cancel()
            p.stdout.close()
    if line.strip() != b"ready" or p.returncode != 0:
        raise RuntimeError(f"set-up run failed: {(work / 'setup.err').read_text()[-500:]}")
    return t1 - t0, (t0 + t1) / 2


def import_sample(ctx) -> tuple:
    import tracing
    from workloads import run_child

    out, err = ctx.work / "import.out", ctx.work / "import.err"
    code, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import discoh.cli"],
                           ctx, out, err)
    if code != 0:
        raise RuntimeError(f"import discoh.cli failed: {err.read_text()[-500:]}")
    return tracing.import_times_ms(err.read_text())


def blas_threads():
    """OpenBLAS thread count, or None if it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


class OpLog:
    """Kind, seconds, failed flag and midpoint of each measured operation.

    The arrays are allocated and written through before the timed phase, so
    the measuring process's memory (about 5 MB for the log) is the same
    whatever the number of operations.  A run ends early, at the end of a
    round, when another round would not fit."""

    CAPACITY = 1 << 18

    def __init__(self):
        import numpy as np

        self.kind = np.full(self.CAPACITY, -1, dtype=np.int32)
        self.seconds = np.full(self.CAPACITY, math.nan)
        self.mid = np.full(self.CAPACITY, math.nan)
        self.failed = np.ones(self.CAPACITY, dtype=bool)
        self.kinds: dict[str, int] = {}
        self.n = 0

    def add(self, kind: str, seconds: float, failed: bool, mid: float) -> None:
        i = self.n
        self.kind[i] = self.kinds.setdefault(kind, len(self.kinds))
        self.seconds[i] = seconds
        self.failed[i] = failed
        self.mid[i] = mid
        self.n = i + 1

    def has_room(self, ops: int) -> bool:
        return self.n + ops <= self.CAPACITY


def kind_median(kind, latency) -> float:
    """Median over the operations of the median latency of their kind.

    A kind is one position in the round (one state family and size, one
    suite, one command), so this is the plain median with each operation's
    latency replaced by its kind's median: isolated operations slowed by
    other tenants do not move it.  A failed operation's latency is inf."""
    import numpy as np

    weighted = sorted((float(np.median(latency[kind == k])), int(np.count_nonzero(kind == k)))
                      for k in np.unique(kind))
    half, seen = len(latency) / 2.0, 0
    for value, n in weighted:
        seen += n
        if seen >= half:
            return value
    return math.inf


def tail(latencies) -> tuple | None:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    import numpy as np

    n = len(latencies)
    if n < 40:
        return None
    return 100.0 * (n - 10) / n, float(np.sort(latencies)[n - 11])


def _finite(x: float):
    return x if math.isfinite(x) else None


def run(args) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Context

    bench_work = ROOT / ".bench_work"
    bench_work.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_work))
    ctx = Context(root=ROOT, work=work, seed=args.seed)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](ctx).setup()
            print("ready", flush=True)
            return 0
        return measure(args, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            bench_work.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, ctx) -> int:
    import numpy as np

    import tracing
    from calibration import Speed
    from workloads import WORKLOADS

    if args.trace:
        setup = raw_setup = []
        import_ms = ([] if args.workload == "cli"
                     else [import_sample(ctx) for _ in range(IMPORT_SAMPLES)])
    else:
        probes = Speed("process")
        samples = [setup_sample(args, ctx.work, probes) for _ in range(SETUP_SAMPLES)]
        probes.refresh()
        raw_setup = [sec for sec, _ in samples]
        setup = [sec * probes.factor(mid) for sec, mid in samples]

    wl = WORKLOADS[args.workload](ctx)
    wl.setup()
    wl.prepare()

    log = OpLog()   # the measured pass
    traced = []     # (kind, seconds, failed) of the traced pass
    tracer = tracing.Tracer() if args.trace else None
    speed = Speed("process" if args.workload == "cli" else "loop")

    def record(kind, seconds, failed):
        log.add(kind, seconds, failed, perf_counter() - seconds / 2)
        speed.refresh()

    t_start = perf_counter()
    r = 0
    while True:
        wl.run_round(r, record)
        if tracer is not None:
            tracer.install()
            try:
                wl.run_round(r, lambda *op: traced.append(op), tracer)
            finally:
                tracer.uninstall()
        r += 1
        if perf_counter() - t_start >= args.seconds or not log.has_room(log.n // r):
            break
    wall = perf_counter() - t_start
    peak = wl.peak_rss_mb if args.workload == "cli" else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    speed.refresh()

    n = log.n
    kind, raw, failed_mask = log.kind[:n], log.seconds[:n], log.failed[:n]
    # scale each operation by the machine speed probed around its midpoint
    scaled = raw * np.array([speed.factor(m) for m in log.mid[:n]])
    attempted = n + len(traced)
    failed = int(np.count_nonzero(failed_mask)) + sum(1 for op in traced if op[2])
    env = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": r, "timed_s": wall, "full_log": not log.has_room(n // r),
        "attempted": attempted, "failed": failed,
        "failed_ops": {name: {"count": c, "max_excess": x}
                       for name, (c, x) in sorted(wl.failures.items())},
        "problems": wl.problems, **env,
    }
    if wl.name == "basis-search" and wl.failures:
        from workloads import FAULT
        report["fault"] = FAULT

    if tracer is None:
        ok = n - int(np.count_nonzero(failed_mask))
        latency = np.where(failed_mask, math.inf, scaled)
        raw_latency = np.where(failed_mask, math.inf, raw)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ok / float(scaled.sum()),
            "op_p50_ms": kind_median(kind, latency) * 1e3,
            "peak_rss_mb": peak,
        }
        units = dict(END_TO_END)
        report["setup_samples_s"] = setup
        # The same figures without the machine-speed scaling, and the plain
        # median, to show what the scaling and the kind median change.
        report["unscaled"] = {
            "setup_s": statistics.median(raw_setup),
            "ops_per_s": ok / float(raw.sum()),
            "op_p50_ms": kind_median(kind, raw_latency) * 1e3,
        }
        report["plain_p50_ms"] = float(np.median(latency)) * 1e3
        report["speed_factor_median"] = speed.reference / statistics.median(speed.samples)
        report["p50_ms_by_kind"] = {
            name: _finite(float(np.median(latency[kind == k])) * 1e3)
            for name, k in sorted(log.kinds.items())}
        t = tail(latency)
        report["op_tail_ms"] = None if t is None else {"percentile": t[0], "ms": t[1] * 1e3}
    else:
        if args.workload == "cli":
            import_ms = wl.import_ms
        values = tracing.per_layer_metrics(
            tracer, len(traced), wl.trial_s, import_ms, wl.emit_bytes,
            untraced_s=float(raw.sum()), traced_s=sum(s for _, s, _ in traced))
        units = dict(tracing.PER_LAYER)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}.npz"
        tracer.save(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
        report["accounting_ms_per_op"] = {
            "untraced": float(raw.sum()) * 1e3 / max(n, 1),
            "traced": sum(s for _, s, _ in traced) * 1e3 / max(len(traced), 1),
            "layer_self_sum": sum(values[f"self_ms.{x}"] for x in tracing.LAYERS),
        }

    report["metrics"] = {k: values[k] for k in units}
    print(json.dumps(report, indent=1), file=sys.stderr)
    result = {
        "correct": not wl.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "discoh" / "__init__.py").is_file():
        print(f"error: no discoh package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
