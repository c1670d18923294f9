"""Randomized verification suites for the structural theorems and the
invariants behind the coherence correlation (see README for the statements).

Every suite runs _run_trials in two phases: draw(i, rng) makes trial i's RNG calls
on its own child stream (one Philox generator, re-keyed per trial) and returns the
raw output; measure builds up to CHUNK (64) draws with the samplers' own builders,
checks them and yields their rows in batches (a closed-form suite's chunk in one stacked
pass, theorem2's and zero-sets' one search at a time), and progress fires per trial, in
order, as its batch comes out.  The rows reduce to a SuiteResult naming the worst trial.
theorem1 and invariance carry a rank-one PPIO as its level map alone, which fixes its
output (discord._merged_blocks): no Kraus stack is formed, no d x d output decomposed.
An invariance trial checks one such map, the permutation of its IUO on A.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .channels import _draw_kraus, _draw_rank_one_ppio, _iuo_mats, _kraus_ops
from .discord import (
    OptimizerConfig,
    _check_searchable,
    _level_map_drops,
    coherence_discord,
    discord,
    qubit_discord_grid,
)
from .linalg import apply_local, dephase_local
from .measures import _DAC, _I_CO, _closed_form, _roundoff_to_zero
from .measures import correlated_coherence, mutual_information
from .states import (
    DensityMatrix, _check_count, _check_dims, _cq_mat, _draw_cq, _draw_state, _restarts,
    _state_mats, ket_projector, rng_from_seed, spawn_seeds, validate_density,
)

# The suites' fixed sizes: every fourth theorem3 trial applies a mixture of two
# channels, superadditivity cycles through these splits when no dims is given,
# and the first MEMBER_DISCORD_CHECKS zero-sets trials also run a discord search.
MIXTURE_EVERY = 4
SUPERADDITIVITY_DIMS = ((2, 2), (2, 3), (3, 3))
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
    """Trial i draws draw(i, rng) on its own child stream; measure yields a chunk's
    (violation, row) pairs in batches, and progress fires per trial as its batch comes out.
    A trial fails when its violation exceeds tol, and each row value above its entry in
    limits counts one more failure.  reduce maps a row key to fn; details carry fn of that
    key's values, if any trial reports it, and name the worst trial and its child seed,
    which is prefix-stable, so trials=worst_trial + 1 replays it."""
    _check_count("trials", trials)
    _check_count("seed", seed, least=0)
    rows, seeds, rng = [], spawn_seeds(seed, trials), rng_from_seed(0)
    for start in range(0, trials, CHUNK):
        chunk = range(start, min(start + CHUNK, trials))
        for batch in measure([draw(i, r) for i, r in zip(chunk, _restarts(rng, seeds[chunk]))]):
            done = len(rows)
            rows += batch
            for i in range(done, len(rows)) if progress else ():
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
    return SuiteResult(suite, trials, dims, seed, tol, float(violations[worst]) + 0.0,  # not -0.0
                       failures, failures == 0, details)


def _groups(keys):
    """(key, indices) of each distinct key: the trials of a chunk that share one build."""
    groups = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    return groups.items()


def verify_theorem1(
    trials: int = 1000, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Correlated coherence never increases under local rank-one PPIOs, and
    the drop dominates the mutual-information drop of the bare measurement.  A trial
    draws one level map, f(j) = floor(d_a u_j) as random_rank_one_ppio draws it, and
    checks it beside dephasing, the identity map."""
    d_a = _check_dims(dims)[0]

    def draw(i, rng):
        return _draw_state(dims[0] * dims[1], "ginibre-mixed", rng), rng.random(d_a)

    def measure(chunk):
        g, keys = map(np.array, zip(*chunk))
        mats = _state_mats("ginibre-mixed", g)
        maps = np.stack([(d_a * keys).astype(int), np.broadcast_to(np.arange(d_a), keys.shape)], 1)
        drops = _level_map_drops(mats, validate_density(mats), dims, maps)
        yield [(max(-g, m - g), {"min_gap": g}) for g, m in drops.tolist()]

    return _run_trials(
        "theorem1", trials, dims, seed, 1e-9, draw, measure, progress, reduce={"min_gap": min}
    )


def verify_theorem2(
    trials: int = 200,
    dims: tuple = (2, 2),
    seed: int = 0,
    restarts: int = OptimizerConfig.restarts,
    grid_checks: int = 0,
    progress=None,
    max_iter: int = OptimizerConfig.max_iter,
) -> SuiteResult:
    """One basis search per trial, checked at the basis U it returns.  The trial
    builds Pi_U rho, rho with A dephased in U, once, and reads from it two routes
    to dac_U = I(rho) - I(Pi_U rho) that share no code with the search objective:
    the mutual-information drop (details key max_discord_at_basis_dev) and the
    literal I_co drop.  Both must equal the search value; the first grid_checks
    trials also compare it with the qubit grid oracle, which catches a basis that
    is not the minimum."""
    _check_searchable(np.prod(_check_dims(dims)))
    _check_count("grid_checks", grid_checks, least=0)
    if grid_checks and dims[0] != 2:
        raise ValueError(f"the grid oracle only covers d_a = 2, got grid_checks at d_a = {dims[0]}")

    def draw(i, rng):
        g = _draw_state(dims[0] * dims[1], "ginibre-mixed", rng)
        return g, int(rng.integers(0, 2**63)), i < grid_checks

    def measure(chunk):
        mats = _state_mats("ginibre-mixed", np.array([g for g, _, _ in chunk]))
        for mat, (_, search_seed, grid) in zip(mats, chunk):
            rho = DensityMatrix(mat, dims)
            value, trace = discord(rho, OptimizerConfig(restarts, max_iter, search_seed))
            basis = trace.best_basis
            dephased = DensityMatrix(dephase_local(rho.mat, rho.dims, basis), rho.dims)
            drop = correlated_coherence(rho, basis) - correlated_coherence(dephased, basis)
            mi_drop = mutual_information(rho) - mutual_information(dephased)
            row = {"max_discord_at_basis_dev": abs(mi_drop - value),
                   "max_ico_drop_dev": abs(drop - value)}
            if grid:
                row["max_grid_dev"] = abs(qubit_discord_grid(rho) - value)
            yield [(max(row.values()), row)]

    keys = ("max_discord_at_basis_dev", "max_ico_drop_dev", "max_grid_dev")
    return _run_trials(
        "theorem2", trials, dims, seed, 1e-4, draw, measure, progress,
        reduce=dict.fromkeys(keys, max),
    )


def verify_theorem3(
    trials: int = 500, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Physically free channels U_a (x) {B_j} map the zero set, sum_i p_i |i><i| (x) sigma_i
    in A's reference basis, into itself (off it, as on rho_a (x) sigma, they can raise dac);
    every fourth trial mixes two such channels, as the weighted sum of their
    outputs.  Zero channels pad the stack."""
    d_a, d_b = _check_dims(dims)

    def draw(i, rng):
        probs, g = _draw_cq(rng, d_a, d_b)
        mixed = i % MIXTURE_EVERY == MIXTURE_EVERY - 1
        weights = rng.dirichlet(np.ones(2)) if mixed else np.array([1.0, 0.0])
        free = []  # per channel, in draw order: a Kraus count, U_a's draw, the B channel's
        for _ in range(1 + mixed):
            n_b_ops = int(rng.integers(1, 4))
            free.append((*_draw_rank_one_ppio(d_a, rng, 1, True), _draw_kraus(d_b, n_b_ops, rng)))
        return probs, g, weights, free

    def measure(chunk):
        probs, g, weights, frees = zip(*chunk)
        cq = _cq_mat(np.array(probs), _state_mats("ginibre-mixed", np.array(g)))
        # channel k of trial t fills slot (t, k) of the stacks; zero channels pad the rest
        slots = [(t, k) for t, free in enumerate(frees) for k in range(len(free))]
        perms, phases, kraus = zip(*(channel for free in frees for channel in free))
        ops_a = np.zeros((len(chunk), 2, 1, d_a, d_a), complex)
        ops_b = np.zeros((len(chunk), 2, 3, d_b, d_b), complex)
        ops_a[tuple(np.transpose(slots))] = _iuo_mats(np.array(perms), np.array(phases))
        for shape, group in _groups(raw.shape for raw in kraus):  # one QR per Kraus count
            t, k = np.transpose([slots[j] for j in group])
            ops_b[t, k, : shape[1] // d_b] = _kraus_ops(np.array([kraus[j] for j in group]))
        weights = np.array(weights)[..., None, None]
        outs = (weights * apply_local(cq[:, None], dims, ops_a, ops_b)).sum(1)
        # the cq states and the outputs in one check; dac reads the outputs' half
        spectra = validate_density(np.concatenate([cq, outs]))[len(chunk):]
        yield zip(_closed_form(outs, spectra, dims, _DAC).tolist(), repeat({}))

    return _run_trials("theorem3", trials, dims, seed, 1e-10, draw, measure, progress)


def verify_superadditivity(
    trials: int = 1000, dims: tuple | None = None, seed: int = 0, progress=None
) -> SuiteResult:
    """C_r(rho_ab) >= C_r(rho_a) + C_r(rho_b), i.e. the correlated coherence
    is nonnegative, on random mixed and pure states across dimensions.  The
    trials cycle through SUPERADDITIVITY_DIMS; an explicit dims runs that one
    split, and a chunk is measured one split at a time."""
    dims_list = SUPERADDITIVITY_DIMS if dims is None else (_check_dims(dims),)

    def draw(i, rng):
        ensemble = "haar-pure" if i % 5 == 4 else "ginibre-mixed"
        split = dims_list[i % len(dims_list)]
        return split, ensemble, _draw_state(split[0] * split[1], ensemble, rng)

    def measure(chunk):
        mats, violations = {}, np.empty(len(chunk))
        for (_, ensemble), group in _groups(trial[:2] for trial in chunk):
            mats.update(zip(group, _state_mats(ensemble, np.array([chunk[j][2] for j in group]))))
        for split, group in _groups(trial[0] for trial in chunk):
            stack = np.array([mats[j] for j in group])
            violations[group] = -_closed_form(stack, validate_density(stack), split, _I_CO)
        yield zip(violations.tolist(), repeat({}))

    result = _run_trials("superadditivity", trials, dims_list[0], seed, 1e-9, draw, measure,
                         progress)
    result.details["dims_list"] = [list(d) for d in dims_list]
    return result


def verify_invariance(
    trials: int = 100, dims: tuple = (2, 2), seed: int = 0, progress=None
) -> SuiteResult:
    """Representation independence of the closed form: a trial draws rho and an IUO on
    each side from its own child stream, checks that the non-merging rank-one PPIO whose
    level map is U_a's permutation drops dac, and that dac is invariant under the IUO
    conjugation.  Every non-merging rank-one PPIO is dephasing followed by an IUO, so the
    trial's one level map stands for the d_a! of the class.  Merging PPIOs drop at least
    as much coherence, so representation independence holds on the non-merging class only."""
    _check_dims(dims)

    def draw(i, rng):
        g = _draw_state(dims[0] * dims[1], "ginibre-mixed", rng)
        return g, *(x for d in dims for x in _draw_rank_one_ppio(d, rng, 1, True))

    def measure(chunk):
        g, perm_a, phase_a, perm_b, phase_b = map(np.array, zip(*chunk))
        mats = _state_mats("ginibre-mixed", g)
        u_a, u_b = _iuo_mats(perm_a, phase_a), _iuo_mats(perm_b, phase_b)
        both = np.stack([mats, apply_local(mats, dims, u_a, u_b)], 1)  # rho and its conjugate
        spectra = validate_density(both)
        dac = _closed_form(both, spectra, dims, _DAC)
        drops = _level_map_drops(mats, spectra[:, 0], dims, perm_a)[:, 0]  # U_a's level map
        devs = np.maximum(np.abs(dac[:, 1] - dac[:, 0]), np.abs(drops - dac[:, 0]))
        yield zip(devs.tolist(), repeat({}))

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
    restarts: int = OptimizerConfig.restarts,
    progress=None,
    max_iter: int = OptimizerConfig.max_iter,
) -> SuiteResult:
    """Convex mixtures of states of the zero set, sum_i p_i |i><i| (x) sigma_i in A's
    reference basis, stay in it; the zero set sits inside the discord-free set (checked
    by a discord search on the first MEMBER_DISCORD_CHECKS mixtures); and the two-basis
    mixture witness has discord > 0.01 (non-convexity of the discord-free set).  dac and
    I_co also vanish on a larger set that is not convex, such as rho_a (x) sigma."""
    _check_searchable(np.prod(_check_dims(dims)))

    def draw(i, rng):
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
        cqs = [_draw_cq(rng, *dims) for _ in weights]
        return weights, cqs, int(rng.integers(0, 2**63)) if i < MEMBER_DISCORD_CHECKS else None

    def measure(chunk):
        for weights, cqs, search_seed in chunk:
            probs, g = map(np.array, zip(*cqs))
            parts = _cq_mat(probs, _state_mats("ginibre-mixed", g))
            validate_density(parts)  # each component is a state, as is their mixture
            mixture, row = DensityMatrix(sum(w * p for w, p in zip(weights, parts)), dims), {}
            if search_seed is not None:  # discord >= 0: a value below roundoff counts as |value|
                dv, _ = discord(mixture, OptimizerConfig(restarts, max_iter, search_seed))
                row["member_discord_max"] = abs(_roundoff_to_zero(dv))
            yield [(coherence_discord(mixture), row)]

    result = _run_trials(
        "zero-sets", trials, dims, seed, 1e-10, draw, measure, progress,
        reduce={"member_discord_max": max}, limits={"member_discord_max": 1e-6},
    )
    witness = nonconvexity_witness()
    w_opt, _ = discord(witness, OptimizerConfig(restarts, max_iter, seed))
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


def run_suite(suite: str, trials: int | None = None, dims: tuple | None = None, seed: int = 0,
              restarts: int | None = None, max_iter: int | None = None,
              progress=None) -> SuiteResult:
    """Run a suite by name.  None for trials, dims, restarts or max_iter keeps
    the suite's own default; restarts and max_iter reach only the suites that
    search (theorem2 and zero-sets), but every suite rejects invalid ones, as
    OptimizerConfig does, before any trial runs, and each suite checks dims first."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    options = {"trials": trials, "dims": dims, "restarts": restarts, "max_iter": max_iter}
    given = {key: value for key, value in options.items() if value is not None}
    search = {key: given.pop(key) for key in ("restarts", "max_iter") if key in given}
    OptimizerConfig(**search)
    if suite in ("theorem2", "zero-sets"):
        given.update(search)
    return _SUITES[suite](seed=seed, progress=progress, **given)
