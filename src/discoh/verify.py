"""Randomized verification suites for the structural theorems and the
invariants behind the coherence correlation (see README for the statements).

Every suite runs _run_trials in two phases: draw(i, rng) makes trial i's draws
from its own child seed and returns arrays, and measure checks up to CHUNK (64)
draws in one stacked pass; then progress fires once per trial of the chunk, in
order.  theorem2 and zero-sets search per trial, so their draw is the whole
check, and their chunks hold one trial each: progress follows every search.
The rows reduce to a SuiteResult naming the worst trial and its seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .channels import random_iuo, random_physically_free, random_rank_one_ppio
from .discord import (
    OptimizerConfig,
    _check_count,
    _ppio_drops,
    coherence_discord,
    discord,
    discord_at_basis,
    discord_via_coherence,
    qubit_discord_grid,
)
from .linalg import apply_local, dephase_local
from .measures import _DAC, _I_CO, _closed_form, correlated_coherence
from .states import (
    DensityMatrix,
    _random_cq_mat,
    _random_state_mat,
    ket_projector,
    random_cq_state,
    random_state_from,
    rng_from_seed,
    spawn_seeds,
    validate_density,
)

# The suites' fixed sizes: every fourth theorem3 trial applies a mixture of two
# channels, superadditivity cycles through these splits when no dims is given,
# an invariance trial applies PPIO_SAMPLES rank-one PPIOs, and the first
# MEMBER_DISCORD_CHECKS zero-sets trials also run a discord search.
MIXTURE_EVERY = 4
SUPERADDITIVITY_DIMS = ((2, 2), (2, 3), (3, 3))
PPIO_SAMPLES = 50
MEMBER_DISCORD_CHECKS = 20
# Trials per stacked pass: it bounds peak memory, whatever the trial count.
CHUNK = 64


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


def _run_trials(suite, trials, dims, seed, tol, draw, measure, progress, reduce=None,
                limits=None):
    """Trial i draws draw(i, rng) on its own child stream; measure maps a chunk of draws
    to one (violation, row) each.  A trial fails when its violation exceeds tol, and
    counts one more failure for each row value above its entry in limits.  reduce maps a
    row key to fn, and details carry fn of that key's values over the trials that report
    it, if any.  Details also name the worst trial and its child seed; child seeds are
    prefix-stable, so rerunning with trials=worst_trial + 1 reproduces it."""
    _check_count("trials", trials)
    rows, seeds = [], spawn_seeds(seed, trials)
    step = 1 if suite in _SEARCHING else CHUNK
    for start in range(0, trials, step):
        chunk = range(start, min(start + step, trials))
        rows += measure([draw(i, rng_from_seed(int(seeds[i]))) for i in chunk])
        for i in chunk if progress else ():
            progress(i + 1, trials)
    violations = [v for v, _ in rows]
    worst = max(range(trials), key=violations.__getitem__)
    failures = sum(1 for v in violations if v > tol) + sum(
        1 for _, row in rows for key, limit in (limits or {}).items()
        if key in row and row[key] > limit
    )
    details = {"worst_trial": worst, "worst_seed": int(seeds[worst])}
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

    def draw(i, rng):
        mat = _random_state_mat(dims[0] * dims[1], "ginibre-mixed", rng)
        return mat, random_rank_one_ppio(dims[0], rng, 1)

    def measure(chunk):
        mats, ops = map(np.array, zip(*chunk))
        gaps, mi = _ppio_drops(mats, validate_density(mats), dims, ops)
        return [(max(-g, m - g), {"min_gap": g}) for (g,), m in zip(gaps.tolist(), mi.tolist())]

    return _run_trials(
        "theorem1", trials, dims, seed, 1e-9, draw, measure, progress, reduce={"min_gap": min}
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
        "theorem2", trials, dims, seed, 1e-4, check, list, progress,
        reduce=dict.fromkeys(keys, max),
    )


def verify_theorem3(
    trials: int = 500, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Physically free channels U_a (x) {B_j} map the zero set into itself
    (free operations generate no resource); every fourth trial mixes two such
    channels, as the weighted sum of their outputs.  Zero channels pad the stack."""
    d_a, d_b = dims

    def draw(i, rng):
        cq = _random_cq_mat(rng, d_a, d_b)
        mixed = i % MIXTURE_EVERY == MIXTURE_EVERY - 1
        weights = rng.dirichlet(np.ones(2)) if mixed else np.array([1.0, 0.0])
        ops_a, ops_b = np.zeros((2, 1, d_a, d_a), complex), np.zeros((2, 3, d_b, d_b), complex)
        for k in range(1 + mixed):
            u_a, b_ops = random_physically_free(d_a, d_b, rng, n_b_ops=int(rng.integers(1, 4)))
            ops_a[k], ops_b[k, : len(b_ops)] = u_a, b_ops
        return cq, weights, ops_a, ops_b

    def measure(chunk):
        cq, weights, ops_a, ops_b = map(np.array, zip(*chunk))
        validate_density(cq)
        outs = (weights[..., None, None] * apply_local(cq[:, None], dims, ops_a, ops_b)).sum(1)
        return zip(_closed_form(outs, validate_density(outs), dims, _DAC).tolist(), repeat({}))

    return _run_trials("theorem3", trials, dims, seed, 1e-10, draw, measure, progress)


def verify_superadditivity(
    trials: int = 1000, dims: tuple | None = None, seed: int = 0, progress=None
) -> SuiteResult:
    """C_r(rho_ab) >= C_r(rho_a) + C_r(rho_b), i.e. the correlated coherence
    is nonnegative, on random mixed and pure states across dimensions.  The
    trials cycle through SUPERADDITIVITY_DIMS; an explicit dims runs that one
    split, and a chunk is measured one split at a time."""
    dims_list = SUPERADDITIVITY_DIMS if dims is None else (dims,)

    def draw(i, rng):
        ensemble = "haar-pure" if i % 5 == 4 else "ginibre-mixed"
        split = dims_list[i % len(dims_list)]
        return split, _random_state_mat(split[0] * split[1], ensemble, rng)

    def measure(chunk):
        violations = np.empty(len(chunk))
        for split in {s for s, _ in chunk}:
            group = [j for j, (s, _) in enumerate(chunk) if s == split]
            mats = np.array([chunk[j][1] for j in group])
            violations[group] = -_closed_form(mats, validate_density(mats), split, _I_CO)
        return zip(violations.tolist(), repeat({}))

    result = _run_trials("superadditivity", trials, dims_list[0], seed, 1e-9, draw, measure,
                         progress)
    result.details["dims_list"] = [list(d) for d in dims_list]
    return result


def verify_invariance(
    trials: int = 100, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Representation independence of the closed form over PPIO_SAMPLES random
    non-merging rank-one PPIOs, plus invariance under local IUO conjugation;
    the closed form of rho is computed once.

    Merging PPIOs (two levels mapped to one) drop strictly more coherence by
    convexity, so representation independence holds on the non-merging class
    only, and the sampler draws from it."""

    def draw(i, rng):
        mat = _random_state_mat(dims[0] * dims[1], "ginibre-mixed", rng)
        ppio_rng = rng_from_seed(int(rng.integers(0, 2**63)))
        ops = random_rank_one_ppio(dims[0], ppio_rng, PPIO_SAMPLES, injective=True)
        return mat, ops, random_iuo(dims[0], rng), random_iuo(dims[1], rng)

    def measure(chunk):
        mats, ops, u_a, u_b = map(np.array, zip(*chunk))
        spectra = validate_density(mats)
        drops, _ = _ppio_drops(mats, spectra, dims, ops)
        conj = apply_local(mats, dims, u_a, u_b)
        both = np.stack([spectra, validate_density(conj)], 1)
        dac = _closed_form(np.stack([mats, conj], 1), both, dims, _DAC)
        devs = np.abs(np.concatenate([drops, dac[:, 1:]], axis=1) - dac[:, :1]).max(axis=1)
        return zip(devs.tolist(), repeat({}))

    return _run_trials("invariance", trials, dims, seed, 1e-9, draw, measure, progress)


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
    restarts: int = 16,
    progress=None,
    max_iter: int = 500,
) -> SuiteResult:
    """Convex mixtures of zero-correlation states stay in the zero set; the
    zero set sits inside the discord-free set (checked by a discord search on
    the first MEMBER_DISCORD_CHECKS mixtures); and the two-basis mixture
    witness has discord > 0.01 (non-convexity of the discord-free set)."""

    def search(search_seed):
        return OptimizerConfig(restarts=restarts, max_iter=max_iter, seed=search_seed)

    def check(i, rng):
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        mixture = DensityMatrix(sum(w * random_cq_state(rng, *dims).mat for w in weights), dims)
        v = coherence_discord(mixture)
        if i >= MEMBER_DISCORD_CHECKS:
            return v, {}
        dv, _ = discord(mixture, search(int(rng.integers(0, 2**63))))
        # discord is nonnegative; the search's roundoff below zero reports as 0
        return v, {"member_discord_max": max(dv, 0.0)}

    result = _run_trials(
        "zero-sets", trials, dims, seed, 1e-10, check, list, progress,
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
