"""Randomized verification suites for the structural theorems and the
invariants behind the coherence correlation (see README for the statements).

Every suite is one per-trial check run by _run_trials: each trial draws from
its own child seed of the root seed, so results are reproducible and
independent of evaluation order, and the trials' rows reduce to a SuiteResult
that names the worst trial and its child seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .channels import random_physically_free, random_rank_one_ppio
from .discord import (
    OptimizerConfig,
    _check_count,
    _ppio_drops,
    coherence_discord,
    discord,
    discord_at_basis,
    discord_via_coherence,
    qubit_discord_grid,
    random_local_iuo_conjugation,
)
from .linalg import apply_local, dephase_local
from .measures import correlated_coherence
from .states import (
    DensityMatrix,
    ket_projector,
    random_cq_state,
    random_state_from,
    rng_from_seed,
    spawn_seeds,
)


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
        return {**asdict(self), "dims": list(self.dims)}


def _trial_rngs(seed: int, trials: int):
    _check_count("trials", trials)
    return [rng_from_seed(int(s)) for s in spawn_seeds(seed, trials)]


def _run_trials(suite, trials, dims, seed, tol, check, progress, reduce=None, limits=None):
    """The trial protocol of every suite.  Trial i runs check(i, rng) on its
    own child stream and returns (violation, row).  A trial fails when its
    violation exceeds tol, and counts one more failure for each row value above
    its entry in limits.  reduce maps a row key to fn, and details carry fn of
    that key's values over the trials that report it, if any trial does.
    Details also name the worst trial and its child seed; child seeds are
    prefix-stable, so rerunning with trials=worst_trial + 1 reproduces it."""
    rows = []
    for i, rng in enumerate(_trial_rngs(seed, trials)):
        rows.append(check(i, rng))
        if progress:
            progress(i + 1, trials)
    violations = [v for v, _ in rows]
    worst = max(range(trials), key=violations.__getitem__)
    failures = sum(1 for v in violations if v > tol) + sum(
        1 for _, row in rows for key, limit in (limits or {}).items()
        if key in row and row[key] > limit
    )
    details = {"worst_trial": worst, "worst_seed": int(spawn_seeds(seed, trials)[worst])}
    for key, fn in (reduce or {}).items():
        values = [row[key] for _, row in rows if key in row]
        if values:
            details[key] = float(fn(values))
    return SuiteResult(
        suite, trials, dims, seed, tol, float(violations[worst]), failures, failures == 0, details
    )


def verify_theorem1(
    trials: int = 1000, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Correlated coherence never increases under local rank-one PPIOs, and
    the drop dominates the mutual-information drop of the bare measurement.
    The tests, not a classify call per trial, certify the PPIO sampler."""

    def check(i, rng):
        rho = random_state_from(rng, *dims, "ginibre-mixed")
        (gap,), mi_drop = _ppio_drops(rho, random_rank_one_ppio(dims[0], rng, 1))
        return max(-gap, mi_drop - gap), {"min_gap": gap}

    return _run_trials(
        "theorem1", trials, dims, seed, 1e-9, check, progress, reduce={"min_gap": min}
    )


def verify_theorem2(
    trials: int = 200,
    dims: tuple = (2, 2),
    seed: int = 0,
    restarts: int = 16,
    grid_checks: int = 0,
    progress=None,
    max_iter: int = 500,
) -> SuiteResult:
    """One basis search per trial, checked at the basis it returns.  Two routes
    that share no code with the search objective evaluate dac_U = I - J_U
    there: discord_at_basis (I minus the post-measurement mutual information)
    and the literal I_co drop under dephasing A in U.  Both must equal the
    search value; the first grid_checks trials also compare it with the qubit
    grid oracle, which catches a basis that is not the minimum."""

    def check(i, rng):
        rho = random_state_from(rng, *dims, "ginibre-mixed")
        config = OptimizerConfig(
            restarts=restarts, max_iter=max_iter, seed=int(rng.integers(0, 2**63))
        )
        value, basis, _ = discord_via_coherence(rho, config)
        dephased = DensityMatrix(dephase_local(rho.mat, rho.dims, basis), rho.dims)
        drop = correlated_coherence(rho, basis) - correlated_coherence(dephased, basis)
        row = {
            "max_discord_at_basis_dev": abs(discord_at_basis(rho, basis) - value),
            "max_ico_drop_dev": abs(drop - value),
        }
        if i < grid_checks:
            row["max_grid_dev"] = abs(qubit_discord_grid(rho) - value)
        return max(row.values()), row

    keys = ("max_discord_at_basis_dev", "max_ico_drop_dev", "max_grid_dev")
    return _run_trials(
        "theorem2", trials, dims, seed, 1e-4, check, progress,
        reduce=dict.fromkeys(keys, max),
    )


MIXTURE_EVERY = 4


def verify_theorem3(
    trials: int = 500, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Physically free channels U_a (x) {B_j} map the zero set into itself
    (free operations generate no resource); every fourth trial uses a convex
    mixture of two such channels: the weighted sum of their outputs."""

    def free_ops(rng):
        return random_physically_free(*dims, rng, n_b_ops=int(rng.integers(1, 4)))

    def check(i, rng):
        cq = random_cq_state(rng, *dims)
        weights = rng.dirichlet(np.ones(2)) if i % MIXTURE_EVERY == MIXTURE_EVERY - 1 else [1.0]
        out = sum(w * apply_local(cq.mat, dims, *free_ops(rng)) for w in weights)
        return coherence_discord(DensityMatrix(out, dims)), {}

    return _run_trials("theorem3", trials, dims, seed, 1e-10, check, progress)


def verify_superadditivity(
    trials: int = 1000,
    dims_list: tuple = ((2, 2), (2, 3), (3, 3)),
    seed: int = 0,
    progress=None,
    dims: tuple | None = None,
) -> SuiteResult:
    """C_r(rho_ab) >= C_r(rho_a) + C_r(rho_b), i.e. the correlated coherence
    is nonnegative, on random mixed and pure states across dimensions.  The
    trials cycle through dims_list; an explicit dims runs that one split."""
    if dims is not None:
        dims_list = (dims,)

    def check(i, rng):
        ensemble = "haar-pure" if i % 5 == 4 else "ginibre-mixed"
        rho = random_state_from(rng, *dims_list[i % len(dims_list)], ensemble)
        return -correlated_coherence(rho), {}

    result = _run_trials("superadditivity", trials, dims_list[0], seed, 1e-9, check, progress)
    result.details["dims_list"] = [list(d) for d in dims_list]
    return result


def verify_invariance(
    trials: int = 100,
    dims: tuple = (2, 2),
    seed: int = 0,
    ppio_samples: int = 50,
    progress=None,
) -> SuiteResult:
    """Representation independence of the closed form over random non-merging
    rank-one PPIOs (the coherence_discord_invariance check), plus invariance
    under local IUO conjugation; the closed form of rho is computed once."""
    _check_count("ppio_samples", ppio_samples)

    def check(i, rng):
        rho = random_state_from(rng, *dims, "ginibre-mixed")
        ppio_rng = rng_from_seed(int(rng.integers(0, 2**63)))
        ops = random_rank_one_ppio(dims[0], ppio_rng, ppio_samples, injective=True)
        drops, _ = _ppio_drops(rho, ops)
        conj = random_local_iuo_conjugation(rho, rng)
        dac = coherence_discord(rho)
        return float(np.max(np.abs(np.append(drops, coherence_discord(conj)) - dac))), {}

    return _run_trials("invariance", trials, dims, seed, 1e-9, check, progress)


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
    max_iter: int = 500,
) -> SuiteResult:
    """Convex mixtures of zero-correlation states stay in the zero set; the
    zero set sits inside the discord-free set; and the two-basis mixture
    witness has discord > 0.01 (non-convexity of the discord-free set)."""

    def search(search_seed):
        return OptimizerConfig(restarts=restarts, max_iter=max_iter, seed=search_seed)

    def check(i, rng):
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        mixture = DensityMatrix(sum(w * random_cq_state(rng, *dims).mat for w in weights), dims)
        v = coherence_discord(mixture)
        if i >= member_discord_checks:
            return v, {}
        dv, _ = discord(mixture, search(int(rng.integers(0, 2**63))))
        # discord is nonnegative; the search's roundoff below zero reports as 0
        return v, {"member_discord_max": max(dv, 0.0)}

    result = _run_trials(
        "zero-sets", trials, dims, seed, 1e-10, check, progress,
        reduce={"member_discord_max": max}, limits={"member_discord_max": 1e-6},
    )
    witness = nonconvexity_witness()
    w_opt, _ = discord(witness, search(seed))
    w_grid = qubit_discord_grid(witness)
    witness_ok = min(w_opt, w_grid) > 0.01
    result.details.update({
        "witness_discord_optimizer": float(w_opt),
        "witness_discord_grid": float(w_grid),
        "witness_above_0.01": witness_ok,
    })
    result.failures += not witness_ok
    result.passed = result.failures == 0
    return result


_SUITES = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "theorem3": verify_theorem3,
    "superadditivity": verify_superadditivity,
    "invariance": verify_invariance,
    "zero-sets": verify_zero_sets,
}
SUITES = tuple(_SUITES)
_SEARCHING = ("theorem2", "zero-sets")


def run_suite(suite: str, trials: int | None = None, dims: tuple | None = None, seed: int = 0,
              restarts: int | None = None, max_iter: int | None = None,
              progress=None) -> SuiteResult:
    """Run a suite by name.  None for trials, dims, restarts or max_iter keeps
    the suite's own default; restarts and max_iter reach only the suites that
    search (theorem2 and zero-sets), but every suite rejects invalid ones, as
    OptimizerConfig does, before any trial runs."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    options = {"trials": trials, "dims": dims, "restarts": restarts, "max_iter": max_iter}
    given = {key: value for key, value in options.items() if value is not None}
    search = {key: given.pop(key) for key in ("restarts", "max_iter") if key in given}
    OptimizerConfig(**search)
    if suite in _SEARCHING:
        given.update(search)
    return _SUITES[suite](seed=seed, progress=progress, **given)
