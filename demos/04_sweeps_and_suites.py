#!/usr/bin/env python3
"""Family sweeps and the randomized verification campaigns.

Reproduces what the CLI's `sweep` and `verify` subcommands do, from the
library API: a Werner sweep with the discord optimizer pinned against the
brute-force grid, the rotated classical-quantum family, and small runs of
the theorem suites with their seeds printed for reproduction.
"""

import numpy as np

from discoh import (
    OptimizerConfig,
    ReferenceBasis,
    classical_quantum,
    coherence_discord,
    discord,
    qubit_discord_grid,
    run_suite,
    werner,
)

# 1. Werner sweep: discord is monotone in p, and the optimizer tracks the
# exhaustive grid to ~1e-13.
print("p, discord (optimizer), discord (grid), |diff|")
for p in np.linspace(0.0, 1.0, 11):
    w = werner(float(p))
    v, _ = discord(w, OptimizerConfig(restarts=8, seed=1))
    g = qubit_discord_grid(w)
    print(f"{p:4.2f}, {v:.10f}, {g:.10f}, {abs(v - g):.2e}")

# 2. The rotated-CQ family (the CLI's cq-angle sweep): the correlation leaves
# zero as the state's own basis twists away from the reference basis.
print("\ntheta, dac of the rotated classical-quantum state")
for theta in np.linspace(0.0, np.pi / 4.0, 6):
    c, s = np.cos(theta), np.sin(theta)
    frame = ReferenceBasis(np.array([[c, -s], [s, c]], dtype=complex))
    rho = classical_quantum([0.5, 0.5], [np.diag([1.0, 0.0]), np.full((2, 2), 0.5)], basis_a=frame)
    print(f"{theta:5.3f}, {coherence_discord(rho):.8f}")

# 3. Small verification campaigns (the acceptance suite runs the full sizes).
for result in (
    run_suite("theorem1", trials=300, seed=2026),
    run_suite("theorem3", trials=200, seed=2026),
    run_suite("superadditivity", trials=300, seed=2026),
):
    print(
        f"\nsuite {result.suite}: trials={result.trials} seed={result.seed} "
        f"passed={result.passed} max_violation={result.max_violation:.2e} "
        f"(tolerance {result.tolerance:g})"
    )
