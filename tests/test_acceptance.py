"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to stream them).

Run:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from discoh.cli import main
from discoh.discord import (
    OptimizerConfig,
    coherence_discord,
    discord,
    qubit_discord_grid,
)
from discoh.measures import MeasureReport, coherence_rel_ent, correlated_coherence, cq_coherence
from discoh.states import DensityMatrix, bell_phi_plus, classical_quantum, werner
from discoh.verify import (
    verify_invariance,
    verify_superadditivity,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_zero_sets,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def report(number, name, ok, detail):
    print(f"\nacceptance {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_fixed_points():
    t0 = time.time()
    bell = bell_phi_plus()
    rep = MeasureReport.compute(bell)
    d_bell, _ = discord(bell)
    cq = classical_quantum([0.5, 0.5], [np.diag([1.0, 0.0]), PLUS])
    product = DensityMatrix(np.kron(PLUS, np.diag([0.3, 0.7])), (2, 2))
    checks = {
        "bell I_co": (rep.I_co, 1.0),
        "bell dac": (coherence_discord(bell), 1.0),
        "bell discord": (d_bell, 1.0),
        "bell C_r_upper": (cq_coherence(bell), 1.0),
        "bell C_r_sym": (coherence_rel_ent(bell), 1.0),
        "cq dac": (coherence_discord(cq), 0.0),
        "cq C_r_upper": (cq_coherence(cq), 0.0),
        "product I_co": (correlated_coherence(product), 0.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, "fixed points", ok, f"max |error| = {worst:.2e} (tol 1e-6), {elapsed:.2f}s (< 5s)")


def test_criterion_2_theorem1_monotonicity():
    t0 = time.time()
    result = verify_theorem1(trials=1000, dims=(2, 2), seed=20260810)
    elapsed = time.time() - t0
    ok = result.passed and result.max_violation <= 1e-9 and elapsed < 30.0
    report(
        2,
        "theorem 1 monotonicity",
        ok,
        f"1000 trials, max violation = {result.max_violation:.2e} (tol 1e-9), "
        f"min gap = {result.details['min_gap']:.3e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_theorem2_agreement():
    t0 = time.time()
    result = verify_theorem2(
        trials=200, dims=(2, 2), seed=20260811, restarts=16, grid_checks=20
    )
    elapsed = time.time() - t0
    d = result.details
    ok = result.passed and elapsed < 300.0
    report(
        3,
        "theorem 2 at the searched basis",
        ok,
        f"200 states: max |search - discord_at_basis| = {d['max_discord_at_basis_dev']:.2e}, "
        f"max |search - I_co drop| = {d['max_ico_drop_dev']:.2e}, grid cross-check "
        f"(20 states) = {d['max_grid_dev']:.2e} (tol 1e-4), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_4_theorem3_closure():
    t0 = time.time()
    result = verify_theorem3(trials=500, dims=(2, 2), seed=20260812)
    elapsed = time.time() - t0
    ok = result.passed and result.max_violation <= 1e-10 and elapsed < 30.0
    report(
        4,
        "theorem 3 free-operation closure",
        ok,
        f"500 pairs, max dac after channel = {result.max_violation:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_superadditivity():
    result = verify_superadditivity(trials=1000, seed=20260813)
    ok = result.passed and result.max_violation <= 1e-9
    report(
        5,
        "superadditivity",
        ok,
        f"1000 states over 2x2/2x3/3x3, max -(I_co) = {result.max_violation:.2e} (tol 1e-9)",
    )


def test_criterion_6_representation_independence():
    result = verify_invariance(trials=100, dims=(2, 2), seed=20260814)
    ok = result.passed and result.max_violation <= 1e-9
    report(
        6,
        "dac representation independence",
        ok,
        f"100 states x their IUO's level map and conjugation, max deviation = "
        f"{result.max_violation:.2e} (tol 1e-9)",
    )


def test_criterion_7_zero_set_structure():
    result = verify_zero_sets(trials=200, dims=(2, 2), seed=20260815)
    d = result.details
    ok = (
        result.passed
        and result.max_violation <= 1e-10
        and d["witness_discord_optimizer"] > 0.01
        and d["witness_discord_grid"] > 0.01
    )
    report(
        7,
        "zero-set structure",
        ok,
        f"200 mixtures stay members (max dac = {result.max_violation:.2e}, tol 1e-10); "
        f"members' discord <= {d['member_discord_max']:.2e} (tol 1e-6); "
        f"two-basis witness discord = {d['witness_discord_optimizer']:.4f} (> 0.01)",
    )


def test_criterion_8_werner_sweep(capsys):
    code = main(["sweep", "werner", "--steps", "11", "--measures", "discord",
                 "--restarts", "16", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,discord"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    params = [r[0] for r in rows]
    values = [r[1] for r in rows]

    monotone = all(hi >= lo - 1e-8 for lo, hi in zip(values, values[1:]))
    endpoints = abs(values[0]) <= 1e-4 and abs(values[-1] - 1.0) <= 1e-4
    grid_dev = max(
        abs(v - qubit_discord_grid(werner(p))) for p, v in zip(params, values)
    )
    ok = len(rows) == 11 and monotone and endpoints and grid_dev <= 1e-4
    with capsys.disabled():
        report(
            8,
            "Werner sweep",
            ok,
            f"11 points, monotone={monotone}, endpoints ({values[0]:.2e}, "
            f"{values[-1]:.6f}), max |optimizer - grid| = {grid_dev:.2e} (tol 1e-4)",
        )
