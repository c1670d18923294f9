"""Run every workload over several seeds and print each metric's median and spread.

    python3 perfbench/figures.py --seeds 1-10 [--workloads cli,campaigns] [--trace 1]

Each run is ``run.py --workload W --seed S`` in a fresh process, one after
another.  For every end-to-end metric (per-layer with ``--trace 1``) it prints
the median of the runs, the quartiles from ``statistics.quantiles(n=4)`` and
their distance as a share of the median, and per workload the share of failed
operations.  Untraced, it also prints the figures without the machine-speed
scaling (``unscaled.*``) and the plain median latency (``plain_p50_ms``).
The per-run results are written to .bench_out/figures.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed-form", "campaigns", "basis-search", "cli")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            # the report is the last thing run.py writes to standard error
            report = proc.stderr[proc.stderr.rindex('{\n "workload"'):]
            result["report"] = json.loads(report)
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    print(f"\n{'workload':13s} {'metric':34s} {'unit':12s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for w, results in runs.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        rows = [(name, m["unit"], [r["metrics"][name]["value"] for r in results])
                for name, m in results[0]["metrics"].items()]
        if args.trace == 0:
            # the same figures without the machine-speed scaling, and the
            # scaled plain median next to the kind median
            units = dict(results[0]["metrics"].items())
            rows += [(f"unscaled.{name}", units[name]["unit"],
                      [r["report"]["unscaled"][name] for r in results])
                     for name in results[0]["report"]["unscaled"]]
            rows.append(("plain_p50_ms", "ms", [r["report"]["plain_p50_ms"] for r in results]))
        for name, unit, vals in rows:
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:13s} {name:34s} {unit:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f}")
        print(f"{w:13s} correct={correct} failed share={shares}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "figures.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
