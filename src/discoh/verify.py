"""Randomized verification suites for the structural theorems and the
invariants behind the coherence correlation (see README for the statements).

Every suite derives one child seed per trial from the root seed, so results
are reproducible and independent of evaluation order; aggregation is a
max/min reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import apply, random_physically_free, random_rank_one_ppio
from .discord import (
    OptimizerConfig,
    coherence_discord,
    coherence_discord_invariance,
    discord,
    discord_at_basis,
    discord_via_coherence,
    ppio_monotonicity_gap,
    qubit_discord_grid,
    random_local_iuo_conjugation,
)
from .linalg import dephase_local
from .measures import correlated_coherence
from .states import (
    DensityMatrix,
    classical_quantum,
    ket_projector,
    random_cq_state,
    random_state_from,
    rng_from_seed,
    spawn_seeds,
)

_DEFAULT_TRIALS = {
    "theorem1": 1000,
    "theorem2": 200,
    "theorem3": 500,
    "superadditivity": 1000,
    "invariance": 100,
    "zero-sets": 200,
}
SUITES = tuple(_DEFAULT_TRIALS)


@dataclass
class SuiteResult:
    suite: str
    trials: int
    dims: tuple
    seed: int
    tolerance: float
    max_violation: float
    failures: int
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "dims": list(self.dims),
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "failures": self.failures,
            "passed": self.passed,
            "details": self.details,
        }


def _trial_rngs(seed: int, trials: int):
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    return [rng_from_seed(int(s)) for s in spawn_seeds(seed, trials)]


def verify_theorem1(
    trials: int = 1000, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Correlated coherence never increases under local rank-one PPIOs, and
    the drop dominates the mutual-information drop of the bare measurement."""
    tol = 1e-9
    worst = -np.inf
    failures = 0
    min_gap = np.inf
    for i, rng in enumerate(_trial_rngs(seed, trials)):
        rho = random_state_from(rng, *dims, "ginibre-mixed")
        ppio = random_rank_one_ppio(dims[0], rng, injective=False)
        gap, mi_drop = ppio_monotonicity_gap(rho, ppio, strict=False)
        violation = max(-gap, mi_drop - gap)
        min_gap = min(min_gap, gap)
        worst = max(worst, violation)
        if violation > tol:
            failures += 1
        if progress:
            progress(i + 1, trials)
    return SuiteResult(
        suite="theorem1",
        trials=trials,
        dims=dims,
        seed=seed,
        tolerance=tol,
        max_violation=float(worst),
        failures=failures,
        passed=failures == 0,
        details={"min_gap": float(min_gap)},
    )


def verify_theorem2(
    trials: int = 200,
    dims: tuple = (2, 2),
    seed: int = 0,
    restarts: int = 16,
    grid_checks: int = 0,
    progress=None,
) -> SuiteResult:
    """One basis search per trial, checked at the basis it returns.  Two routes
    that share no code with the search objective evaluate dac_U = I - J_U
    there: discord_at_basis (I minus the post-measurement mutual information)
    and the literal I_co drop under dephasing A in U.  Both must equal the
    search value; the first grid_checks trials also compare it with the qubit
    grid oracle, which catches a basis that is not the minimum."""
    tol = 1e-4
    worst_mi = worst_drop = worst_grid = 0.0
    failures = 0
    for i, rng in enumerate(_trial_rngs(seed, trials)):
        rho = random_state_from(rng, *dims, "ginibre-mixed")
        config = OptimizerConfig(restarts=restarts, seed=int(rng.integers(0, 2**63)))
        value, basis, _ = discord_via_coherence(rho, config)
        mi_dev = abs(discord_at_basis(rho, basis) - value)
        dephased = DensityMatrix(dephase_local(rho.mat, rho.dims, basis), rho.dims)
        drop = correlated_coherence(rho, basis) - correlated_coherence(dephased, basis)
        drop_dev = abs(drop - value)
        worst_mi, worst_drop = max(worst_mi, mi_dev), max(worst_drop, drop_dev)
        bad = max(mi_dev, drop_dev) > tol
        if i < grid_checks:
            gdev = abs(qubit_discord_grid(rho) - value)
            worst_grid = max(worst_grid, gdev)
            bad = bad or gdev > tol
        if bad:
            failures += 1
        if progress:
            progress(i + 1, trials)
    return SuiteResult(
        suite="theorem2",
        trials=trials,
        dims=dims,
        seed=seed,
        tolerance=tol,
        max_violation=float(max(worst_mi, worst_drop, worst_grid)),
        failures=failures,
        passed=failures == 0,
        details={
            "max_discord_at_basis_dev": float(worst_mi),
            "max_ico_drop_dev": float(worst_drop),
            "max_grid_dev": float(worst_grid),
        },
    )


MIXTURE_EVERY = 4


def verify_theorem3(
    trials: int = 500, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Physically free channels U_a (x) {B_j} map the zero set into itself
    (free operations generate no resource); every fourth trial uses a convex
    mixture of two such channels."""
    from .channels import ChannelMixture

    tol = 1e-10
    worst = -np.inf
    failures = 0
    for i, rng in enumerate(_trial_rngs(seed, trials)):
        cq = random_cq_state(rng, *dims)
        if i % MIXTURE_EVERY == MIXTURE_EVERY - 1:
            w = rng.dirichlet(np.ones(2))
            chan = ChannelMixture(
                w,
                [
                    random_physically_free(*dims, rng, n_b_ops=int(rng.integers(1, 4)))
                    for _ in range(2)
                ],
            )
        else:
            chan = random_physically_free(*dims, rng, n_b_ops=int(rng.integers(1, 4)))
        v = coherence_discord(apply(chan, cq))
        worst = max(worst, v)
        if v > tol:
            failures += 1
        if progress:
            progress(i + 1, trials)
    return SuiteResult(
        suite="theorem3",
        trials=trials,
        dims=dims,
        seed=seed,
        tolerance=tol,
        max_violation=float(worst),
        failures=failures,
        passed=failures == 0,
    )


def verify_superadditivity(
    trials: int = 1000,
    dims_list: tuple = ((2, 2), (2, 3), (3, 3)),
    seed: int = 0,
    progress=None,
) -> SuiteResult:
    """C_r(rho_ab) >= C_r(rho_a) + C_r(rho_b), i.e. the correlated coherence
    is nonnegative, on random mixed and pure states across dimensions."""
    tol = 1e-9
    worst = -np.inf
    failures = 0
    for i, rng in enumerate(_trial_rngs(seed, trials)):
        dims = dims_list[i % len(dims_list)]
        ensemble = "haar-pure" if i % 5 == 4 else "ginibre-mixed"
        rho = random_state_from(rng, *dims, ensemble)
        violation = -correlated_coherence(rho)
        worst = max(worst, violation)
        if violation > tol:
            failures += 1
        if progress:
            progress(i + 1, trials)
    return SuiteResult(
        suite="superadditivity",
        trials=trials,
        dims=dims_list[0],
        seed=seed,
        tolerance=tol,
        max_violation=float(worst),
        failures=failures,
        passed=failures == 0,
        details={"dims_list": [list(d) for d in dims_list]},
    )


def verify_invariance(
    trials: int = 100,
    dims: tuple = (2, 2),
    seed: int = 0,
    ppio_samples: int = 50,
    progress=None,
) -> SuiteResult:
    """Representation independence of the closed form over random non-merging
    rank-one PPIOs, plus invariance under local IUO conjugation."""
    tol = 1e-9
    worst = 0.0
    failures = 0
    for i, rng in enumerate(_trial_rngs(seed, trials)):
        rho = random_state_from(rng, *dims, "ginibre-mixed")
        dev = coherence_discord_invariance(
            rho, trials=ppio_samples, seed=int(rng.integers(0, 2**63))
        )
        conj = random_local_iuo_conjugation(rho, rng)
        dev = max(dev, abs(coherence_discord(conj) - coherence_discord(rho)))
        worst = max(worst, dev)
        if dev > tol:
            failures += 1
        if progress:
            progress(i + 1, trials)
    return SuiteResult(
        suite="invariance",
        trials=trials,
        dims=dims,
        seed=seed,
        tolerance=tol,
        max_violation=float(worst),
        failures=failures,
        passed=failures == 0,
    )


def nonconvexity_witness() -> DensityMatrix:
    """Equal mixture of two zero-correlation states built in different A
    bases; it carries strictly positive discord, so the discord-free set is
    not convex."""
    p0 = np.zeros((2, 2), dtype=complex)
    p0[0, 0] = 1.0
    p1 = np.zeros((2, 2), dtype=complex)
    p1[1, 1] = 1.0
    plus = ket_projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    mat = 0.5 * np.kron(p0, p0) + 0.5 * np.kron(plus, p1)
    return DensityMatrix(mat, (2, 2))


def verify_zero_sets(
    trials: int = 200,
    dims: tuple = (2, 2),
    seed: int = 0,
    member_discord_checks: int = 20,
    restarts: int = 16,
    progress=None,
) -> SuiteResult:
    """Convex mixtures of zero-correlation states stay in the zero set; the
    zero set sits inside the discord-free set; and the two-basis mixture
    witness has discord > 0.01 (non-convexity of the discord-free set)."""
    tol = 1e-10
    worst = -np.inf
    member_discord_max = 0.0
    failures = 0
    for i, rng in enumerate(_trial_rngs(seed, trials)):
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        mix = sum(w * random_cq_state(rng, *dims).mat for w in weights)
        mixture = DensityMatrix(mix, dims)
        v = coherence_discord(mixture)
        worst = max(worst, v)
        if v > tol:
            failures += 1
        if i < member_discord_checks:
            dv, _ = discord(
                mixture, OptimizerConfig(restarts=restarts, seed=int(rng.integers(0, 2**63)))
            )
            member_discord_max = max(member_discord_max, dv)
            if dv > 1e-6:
                failures += 1
        if progress:
            progress(i + 1, trials)
    witness = nonconvexity_witness()
    w_opt, _ = discord(witness, OptimizerConfig(restarts=restarts, seed=seed))
    w_grid = qubit_discord_grid(witness)
    witness_ok = min(w_opt, w_grid) > 0.01
    if not witness_ok:
        failures += 1
    return SuiteResult(
        suite="zero-sets",
        trials=trials,
        dims=dims,
        seed=seed,
        tolerance=tol,
        max_violation=float(worst),
        failures=failures,
        passed=failures == 0,
        details={
            "member_discord_max": float(member_discord_max),
            "witness_discord_optimizer": float(w_opt),
            "witness_discord_grid": float(w_grid),
            "witness_above_0.01": witness_ok,
        },
    )


def run_suite(suite: str, trials: int | None = None, dims: tuple = (2, 2), seed: int = 0,
              restarts: int = 16, progress=None) -> SuiteResult:
    """Dispatch a suite by name; trials=None runs its standard trial count."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    n = _DEFAULT_TRIALS[suite] if trials is None else trials
    if suite == "theorem1":
        return verify_theorem1(n, dims, seed, progress=progress)
    if suite == "theorem2":
        return verify_theorem2(n, dims, seed, restarts=restarts, grid_checks=0, progress=progress)
    if suite == "theorem3":
        return verify_theorem3(n, dims, seed, progress=progress)
    if suite == "superadditivity":
        return verify_superadditivity(n, seed=seed, progress=progress)
    if suite == "invariance":
        return verify_invariance(n, dims, seed, progress=progress)
    return verify_zero_sets(n, dims, seed, restarts=restarts, progress=progress)
