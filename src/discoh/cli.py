"""Command-line front end: state and basis I/O, measure computation, family
sweeps, randomized verification campaigns, and CSV/JSON reporting.

Exit codes: 0 success, 1 computation-level failure (suite violation),
2 input-validation failure.  Suites stream progress to stderr; machine
readable results go to stdout only.  Numeric output uses 12 significant
digits, and every report embeds the seed and configuration that produced it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .discord import OptimizerConfig, coherence_discord, discord
from .measures import CSV_COLUMNS, MeasureReport, _roundoff_to_zero
from .states import (
    ENSEMBLES,
    DensityMatrix,
    ReferenceBasis,
    _check_count,
    _state_text,
    check_tolerance,
    classical_quantum,
    ket_projector,
    load_bases,
    load_state,
    random_state,
    swap_subsystems,
    werner,
)
from .verify import SUITES, run_suite

EXTRA_MEASURES = ("dac", "dac_sym", "discord")
ALL_MEASURES = tuple(CSV_COLUMNS) + EXTRA_MEASURES

_ALIASES = {
    "ico": "I_co",
    "mi": "I",
    "cr": "C_r_ab",
    "cr_ab": "C_r_ab",
    "cr_a": "C_r_a",
    "cr_b": "C_r_b",
    "cr_upper": "C_r_upper",
    "cr_sym": "C_r_sym",
    "dac-symmetric": "dac_sym",
    "dacsym": "dac_sym",
}
_CANONICAL = {name.lower(): name for name in ALL_MEASURES}


# The theory makes these nonnegative, so their roundoff prints as 0; l1_cc prints as computed
_NONNEGATIVE = ("I", "C_r_ab", "C_r_a", "C_r_b", "I_co", "C_r_upper", "C_r_sym", "dac", "dac_sym",
                "discord")


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def parse_measures(spec: str) -> list:
    if spec.strip().lower() == "all":
        return list(ALL_MEASURES)
    names = []
    for raw in spec.split(","):
        token = raw.strip().lower()
        if not token:
            continue
        name = _ALIASES.get(token, _CANONICAL.get(token))
        if name is None:
            raise ValueError(f"unknown measure {raw.strip()!r}; known: {', '.join(ALL_MEASURES)}")
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError("no measures requested")
    # canonical column order regardless of request order
    return [n for n in ALL_MEASURES if n in names]


def parse_dims(text: str) -> tuple:
    try:
        a, b = text.lower().split("x")
        dims = (int(a), int(b))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must look like 2x2, got {text!r}")
    if dims[0] < 1 or dims[1] < 1:
        raise argparse.ArgumentTypeError("dims must be positive")
    return dims


def parse_tolerance(text: str) -> float:
    """A --tol-* value, checked by the rule validate_density applies."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}")
    try:
        return check_tolerance("tolerance", value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")


def parse_seed(text: str) -> int:
    """A --seed value, checked by the rule OptimizerConfig and the suites apply."""
    try:
        seed = int(text)
        _check_count("seed", seed, least=0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return seed


def _state_tolerances(args) -> dict:
    tols = {"hermitian_tol": args.tol_hermitian, "trace_tol": args.tol_trace,
            "psd_tol": args.tol_psd}
    return {key: tol for key, tol in tols.items() if tol is not None}


def _config_dict(args, **extra) -> dict:
    """The run configuration echoed in JSON output: the flags compute and
    verify share, then each extra entry that is set."""
    cfg = {"seed": args.seed, "format": args.format, "restarts": args.restarts,
           "max_iter": args.max_iter}
    cfg.update((key, value) for key, value in extra.items() if value)
    return cfg


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _warn_unconverged(trace, where: str) -> None:
    if trace is not None and not trace.converged:
        print(
            f"warning: discord search did not converge on {where}; best value "
            f"{trace.best_value:.12g} is an upper bound (raise --max-iter or --restarts)",
            file=sys.stderr,
        )


def _measure_values(rho, names, basis_a, basis_b, opt_config):
    values = {}
    trace = None
    if any(n != "discord" for n in names):
        # every closed form reads the report's entropy table: dac through the A frame, and
        # dac_sym is I_co, as the fully dephased state keeps no I_co
        report = MeasureReport.compute(rho, basis_a, basis_b)
        closed = {**report.to_dict(), "dac": coherence_discord(rho, basis_a),
                  "dac_sym": report.I_co}
        values = {n: closed[n] for n in names if n != "discord"}
    if "discord" in names:
        # discord minimizes over all bases, so any basis file is irrelevant to it
        values["discord"], trace = discord(rho, opt_config)
    return {n: _roundoff_to_zero(v) if n in _NONNEGATIVE else v for n, v in values.items()}, trace


def cmd_compute(args) -> int:
    names = parse_measures(args.measures)
    if args.trace and (args.format == "csv" or "discord" not in names):
        conflict = "--format csv" if args.format == "csv" else "no discord is measured"
        raise ValueError(f"--trace adds the discord search's trace to JSON output: {conflict}")
    tols = _state_tolerances(args)
    rho = load_state(args.state, **tols)
    if args.part == "b":
        rho = swap_subsystems(rho)
    basis_a, basis_b = load_bases(args.basis) if args.basis else (None, None)
    for key, basis, dim in (("frame_a", basis_a, rho.d_a), ("frame_b", basis_b, rho.d_b)):
        if basis is not None and basis.dim != dim:
            raise ValueError(
                f"basis JSON in {args.basis}, {key}: frame is {basis.dim}x{basis.dim}, "
                f"but that part of the state has dimension {dim}"
            )
    opt_config = OptimizerConfig(restarts=args.restarts, max_iter=args.max_iter, seed=args.seed)
    values, trace = _measure_values(rho, names, basis_a, basis_b, opt_config)
    _warn_unconverged(trace, args.state)

    if args.format == "csv":
        header = ",".join(names)
        row = ",".join(f"{values[n]:.12g}" for n in names)
        _emit(f"{header}\n{row}", args.out)
    else:
        payload = {
            "version": __version__,
            "config": _config_dict(
                args, tolerances={k.replace("_tol", ""): v for k, v in tols.items()}
            ),
            "state_file": args.state,
            "dims": list(rho.dims),
            "measures": {n: _round12(values[n]) for n in names},
        }
        if args.trace:
            payload["trace"] = trace.to_dict()
        _emit(json.dumps(payload, indent=2, sort_keys=False), args.out)
    return 0


def _cq_angle_state(theta: float) -> DensityMatrix:
    """Classical-quantum state whose A basis is rotated by theta away from
    the reference basis; its coherence correlation grows from zero with theta."""
    c, s = np.cos(theta), np.sin(theta)
    frame = np.array([[c, -s], [s, c]], dtype=complex)
    plus = ket_projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    return classical_quantum([0.5, 0.5], [zero, plus], basis_a=ReferenceBasis(frame))


# family -> (parameter name, last parameter value, state builder); sweeps start at 0
_SWEEPS = {
    "werner": ("p", 1.0, werner),
    "cq-angle": ("theta", np.pi / 4.0, _cq_angle_state),
}
SWEEP_FAMILIES = tuple(_SWEEPS)


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    names = parse_measures(args.measures)
    opt_config = OptimizerConfig(restarts=args.restarts, max_iter=args.max_iter, seed=args.seed)
    param_name, last, family = _SWEEPS[args.family]
    params = np.linspace(0.0, last, args.steps)
    states = [family(float(p)) for p in params]

    lines = [",".join([param_name] + names)]
    for p, rho in zip(params, states):
        values, trace = _measure_values(rho, names, None, None, opt_config)
        _warn_unconverged(trace, f"{args.family} {param_name}={p:.12g}")
        lines.append(",".join([f"{p:.12g}"] + [f"{values[n]:.12g}" for n in names]))
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    def progress(i, n):
        step = max(1, n // 10)
        if i % step == 0 or i == n:
            print(f"{args.suite}: {i}/{n} trials", file=sys.stderr)

    result = run_suite(
        args.suite,
        trials=args.trials,
        dims=args.dims,
        seed=args.seed,
        restarts=args.restarts,
        max_iter=args.max_iter,
        progress=progress,
    )
    summary = result.to_dict()
    summary["max_violation"] = _round12(summary["max_violation"])
    # ints (worst_seed replays a trial) and bools print as they are
    summary["details"] = {key: _round12(value) if isinstance(value, float) else value
                          for key, value in summary["details"].items()}
    payload = {"version": __version__, "config": _config_dict(args, trials=args.trials), **summary}
    if args.format == "csv":
        keys = ["suite", "trials", "seed", "tolerance", "max_violation", "failures", "passed"]
        _emit(
            ",".join(keys) + "\n" + ",".join(str(payload[k]) for k in keys),
            args.out,
        )
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return 0 if result.passed else 1


def cmd_random(args) -> int:
    _emit(_state_text(random_state(args.dims[0], args.dims[1], args.ensemble, args.seed)),
          args.out)
    return 0


def _add_common(p, fmt: bool = False, search: bool = False):
    """The flags shared by several commands; each command takes only those it reads."""
    p.add_argument("--seed", type=parse_seed, default=0, help="root seed (always echoed in output)")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    if search:
        defaults = OptimizerConfig()
        p.add_argument("--restarts", type=int, default=defaults.restarts,
                       help="optimizer restarts")
        p.add_argument("--max-iter", type=int, default=defaults.max_iter, dest="max_iter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discoh",
        description="Coherence/discord measures for bipartite states, with "
        "verification suites for the structural theorems.",
    )
    parser.add_argument("--version", action="version", version=f"discoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute measures for a state file")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--measures", default="all", help="comma list, e.g. ico,dac,discord")
    p.add_argument("--basis", default=None, help="optional basis JSON file (frame_a/frame_b)")
    p.add_argument("--part", choices=("a", "b"), default="a",
                   help="swap subsystems first to measure up to part B")
    p.add_argument("--trace", action="store_true", help="attach the search trace (JSON, discord)")
    p.add_argument("--tol-hermitian", type=parse_tolerance, default=None, dest="tol_hermitian")
    p.add_argument("--tol-trace", type=parse_tolerance, default=None, dest="tol_trace")
    p.add_argument("--tol-psd", type=parse_tolerance, default=None, dest="tol_psd")
    _add_common(p, fmt=True, search=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("sweep", help="sweep a state family, one CSV row per parameter")
    p.add_argument("family", choices=SWEEP_FAMILIES)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--measures", default="all")
    _add_common(p, search=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--trials", type=int, default=None, help="override the suite default")
    p.add_argument("--dims", type=parse_dims, default=None,
                   help="AxB, e.g. 2x3 (default: 2x2; superadditivity cycles 2x2/2x3/3x3)")
    _add_common(p, fmt=True, search=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="write a random state file")
    p.add_argument("--dims", type=parse_dims, default=(2, 2))
    p.add_argument("--ensemble", choices=ENSEMBLES, default="ginibre-mixed")
    _add_common(p)
    p.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
