"""Randomized invariant suites at reduced trial counts; the acceptance module
runs the full campaigns."""

from types import SimpleNamespace

import numpy as np
import pytest

from discoh.channels import (
    _draw_kraus, _draw_rank_one_ppio, _iuo_mats, _kraus_ops, _rank_one_stacks,
    random_iuo, random_physically_free, random_rank_one_ppio,
)
from discoh.discord import coherence_discord, ppio_monotonicity_gap
from discoh.linalg import apply_local
from discoh.measures import _I_CO, _closed_form
from discoh.states import (
    DensityMatrix, _cq_mat, _draw_cq, _draw_state, _restarts, _state_mats, random_cq_state,
    random_state, random_state_from, rng_from_seed, spawn_seeds, validate_density,
)
from discoh.verify import (
    SUITES,
    run_suite,
    verify_invariance,
    verify_superadditivity,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_zero_sets,
)


def test_theorem1_suite_small():
    result = verify_theorem1(trials=150, seed=101)
    assert result.passed
    assert result.max_violation <= 1e-9


def test_theorem1_suite_2x3():
    result = verify_theorem1(trials=60, dims=(2, 3), seed=102)
    assert result.passed


def test_theorem1_suite_3x2():
    result = verify_theorem1(trials=60, dims=(3, 2), seed=103)
    assert result.passed


def test_theorem2_suite_small():
    result = verify_theorem2(trials=12, seed=104, grid_checks=4)
    assert result.passed
    assert result.details["max_discord_at_basis_dev"] <= 1e-4
    assert result.details["max_ico_drop_dev"] <= 1e-4
    assert result.details["max_grid_dev"] <= 1e-4


def test_theorem2_check_catches_a_wrong_value(monkeypatch):
    import discoh.verify

    search = discoh.verify.discord

    def off_by_1e3(rho, config=None):
        value, trace = search(rho, config)
        return value + 1e-3, trace

    monkeypatch.setattr(discoh.verify, "discord", off_by_1e3)
    result = verify_theorem2(trials=3, seed=104)
    assert not result.passed and result.failures == 3
    for key in ("max_discord_at_basis_dev", "max_ico_drop_dev"):
        assert abs(result.details[key] - 1e-3) <= 1e-12


def test_theorem2_grid_check_catches_a_non_optimal_basis(monkeypatch):
    import discoh.verify
    from discoh.states import ReferenceBasis, haar_unitary

    def wrong_basis(rho, config=None):
        basis = ReferenceBasis(haar_unitary(2, np.random.default_rng(1)))
        return coherence_discord(rho, basis), SimpleNamespace(best_basis=basis)

    monkeypatch.setattr(discoh.verify, "discord", wrong_basis)
    result = verify_theorem2(trials=1, seed=104, grid_checks=1)
    assert not result.passed
    # the value is right at its basis; only the grid sees it is not the minimum
    assert result.details["max_discord_at_basis_dev"] <= 1e-12
    assert result.details["max_ico_drop_dev"] <= 1e-12
    assert result.details["max_grid_dev"] > 1e-4


def test_a_theorem2_trial_builds_its_measured_state_once(monkeypatch):
    # rho and Pi_U rho, A dephased in the found basis; both routes read the one Pi_U rho
    import discoh.states

    calls, check = [], discoh.states.validate_density

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(discoh.states, "validate_density", counted)
    assert verify_theorem2(trials=3, seed=104).passed
    assert len(calls) == 2 * 3


@pytest.mark.parametrize("grid_checks, dims, match", [
    (-1, (2, 2), "grid_checks must be an integer >= 0"),
    (1.5, (2, 2), "grid_checks must be an integer >= 0"),
    (1, (3, 2), "the grid oracle only covers d_a = 2"),
])
def test_theorem2_rejects_grid_checks_before_any_trial(monkeypatch, grid_checks, dims, match):
    import discoh.verify

    def no_search(rho, config=None):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(discoh.verify, "discord", no_search)
    with pytest.raises(ValueError, match=match):
        verify_theorem2(trials=2, dims=dims, grid_checks=grid_checks)


def forbid_draws(monkeypatch):
    import discoh.verify

    def no_draw(*args, **kwargs):
        raise AssertionError("a trial drew")

    for name in ("_draw_state", "_draw_cq"):
        monkeypatch.setattr(discoh.verify, name, no_draw)


# each of these raised from inside the draws (an IndexError, a ZeroDivisionError or a
# TypeError), or, in theorem2, from the DensityMatrix built after the first draw
@pytest.mark.parametrize("dims", [(2,), (0, 2), (2, -1), (2.5, 2), "2x2", (True, 2), (2, 2, 2), 4],
                         ids=repr)
@pytest.mark.parametrize("suite", SUITES)
def test_suites_reject_bad_dims_before_any_draw(monkeypatch, suite, dims):
    forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"dims must be a pair of positive integers, got "):
        run_suite(suite, trials=2, dims=dims)


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; expected one of \("):
        run_suite("nope")


@pytest.mark.parametrize("suite", ["theorem2", "zero-sets"])
def test_searching_suites_reject_dims_above_the_search_cap_before_any_draw(monkeypatch, suite):
    forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="capped at total dimension 64, got 72"):
        run_suite(suite, trials=2, dims=(9, 8))


def test_theorem3_suite_small():
    result = verify_theorem3(trials=120, seed=105)
    assert result.passed
    assert result.max_violation <= 1e-10


def test_theorem3_suite_2x3():
    result = verify_theorem3(trials=60, dims=(2, 3), seed=106)
    assert result.passed


def test_superadditivity_suite_small():
    result = verify_superadditivity(trials=240, seed=107)
    assert result.passed
    assert result.max_violation <= 1e-9


def test_invariance_suite_small():
    result = verify_invariance(trials=20, seed=108)
    assert result.passed
    assert result.max_violation <= 1e-9


def test_zero_sets_suite_small(monkeypatch):
    import discoh.verify

    traces, search = [], discoh.verify.discord

    def traced(rho, config=None):
        value, trace = search(rho, config)
        traces.append(trace)
        return value, trace

    monkeypatch.setattr(discoh.verify, "discord", traced)
    monkeypatch.setattr(discoh.verify, "MEMBER_DISCORD_CHECKS", 5)
    result = verify_zero_sets(trials=40, seed=109)
    assert result.passed
    # each member sits at its floor, 0; the witness, last, does not
    assert [t.certified for t in traces] == [True] * 5 + [False]
    assert result.details["witness_discord_optimizer"] > 0.01
    assert result.details["witness_discord_grid"] > 0.01


@pytest.mark.parametrize("value,failures", [(1.0, 2), (0.0, 1)])
def test_zero_sets_counts_member_and_witness_checks(monkeypatch, value, failures):
    # every search returns value: 1.0 fails the two member checks, 0.0 the witness
    import discoh.verify

    monkeypatch.setattr(discoh.verify, "discord", lambda rho, config=None: (value, None))
    monkeypatch.setattr(discoh.verify, "MEMBER_DISCORD_CHECKS", 2)
    result = verify_zero_sets(trials=3, seed=109)
    assert result.failures == failures and not result.passed
    assert result.max_violation <= 1e-10
    assert result.details["member_discord_max"] == value
    assert result.details["witness_discord_optimizer"] == value


@pytest.mark.parametrize("value,reported,failures", [(-0.5, 0.5, 2), (-1e-13, 0.0, 0)])
def test_zero_sets_reports_a_negative_member_discord_beyond_roundoff(monkeypatch, value,
                                                                     reported, failures):
    # the two member searches return value, the witness search its own: a discord in
    # [-1e-12, 0] is roundoff and reports as 0, and one below that as its magnitude,
    # so the 1e-6 limit on member_discord_max fails it
    import discoh.verify

    calls, search = [], discoh.verify.discord

    def member_value(rho, config=None):
        calls.append(rho)
        return (value, None) if len(calls) <= 2 else search(rho, config)

    monkeypatch.setattr(discoh.verify, "discord", member_value)
    monkeypatch.setattr(discoh.verify, "MEMBER_DISCORD_CHECKS", 2)
    result = verify_zero_sets(trials=3, seed=109)
    assert len(calls) == 3
    assert result.details["member_discord_max"] == reported
    assert result.failures == failures and result.passed == (failures == 0)


def test_rank_one_ppio_output_in_zero_set():
    # any local rank-one PPIO pushes any state into the zero set
    rng = rng_from_seed(110)
    for _ in range(50):
        rho = random_state_from(rng, 2, 2)
        ppio = random_rank_one_ppio(2, rng, 1)[0]
        out = DensityMatrix(apply_local(rho.mat, rho.dims, ppio), rho.dims)
        assert coherence_discord(out) <= 1e-10


def test_cq_constructor_lands_in_zero_set():
    rng = rng_from_seed(111)
    for _ in range(50):
        rho = random_cq_state(rng, 2, 2)
        assert coherence_discord(rho) <= 1e-10
    for _ in range(20):
        rho = random_cq_state(rng, 3, 2)
        assert coherence_discord(rho) <= 1e-10


def test_zero_set_is_convex():
    rng = rng_from_seed(112)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        mix = sum(w * random_cq_state(rng, 2, 2).mat for w in weights)
        from discoh.states import DensityMatrix

        assert coherence_discord(DensityMatrix(mix, (2, 2))) <= 1e-10


def _two_copy(rho1, rho2):
    """Tensor two bipartite states and regroup to (A1 A2 | B1 B2)."""
    from discoh.states import DensityMatrix

    a1, b1 = rho1.dims
    a2, b2 = rho2.dims
    big = np.kron(rho1.mat, rho2.mat)
    t = big.reshape(a1, b1, a2, b2, a1, b1, a2, b2)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    d = a1 * a2 * b1 * b2
    return DensityMatrix(t.reshape(d, d), (a1 * a2, b1 * b2))


def test_zero_set_closed_under_two_copy_composition():
    # freeness survives tensoring, permuting the pairs, and discarding one pair
    rng = rng_from_seed(114)
    for _ in range(20):
        cq1 = random_cq_state(rng, 2, 2)
        cq2 = random_cq_state(rng, 2, 2)
        joint = _two_copy(cq1, cq2)
        assert coherence_discord(joint) <= 1e-10
        swapped = _two_copy(cq2, cq1)
        assert coherence_discord(swapped) <= 1e-10
    # tracing out the second pair returns the first free state
    cq1 = random_cq_state(rng, 2, 2)
    cq2 = random_cq_state(rng, 2, 2)
    joint = np.kron(cq1.mat, cq2.mat).reshape(4, 4, 4, 4)
    reduced = np.einsum("ijkj->ik", joint)
    from discoh.states import DensityMatrix

    back = DensityMatrix(reduced, (2, 2))
    assert np.max(np.abs(back.mat - cq1.mat)) < 1e-12
    assert coherence_discord(back) <= 1e-10


def test_suite_results_deterministic():
    a = verify_theorem1(trials=50, seed=113)
    b = verify_theorem1(trials=50, seed=113)
    assert a.max_violation == b.max_violation
    assert a.details == b.details


DIRECT = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "theorem3": verify_theorem3,
    "superadditivity": verify_superadditivity,
    "invariance": verify_invariance,
    "zero-sets": verify_zero_sets,
}


@pytest.mark.parametrize("name", SUITES)
def test_run_suite_is_the_direct_call_with_one_progress_call_per_trial(name):
    # the campaigns benchmark times each trial from these progress calls
    calls = []
    result = run_suite(name, trials=3, seed=114, progress=lambda i, n: calls.append((i, n)))
    assert calls == [(1, 3), (2, 3), (3, 3)]
    assert result.trials == 3
    assert result.to_dict() == DIRECT[name](trials=3, seed=114).to_dict()


@pytest.mark.parametrize("name", ["theorem1", "theorem3", "superadditivity", "invariance"])
def test_stacked_results_do_not_depend_on_the_chunk_size(monkeypatch, name):
    import discoh.verify

    whole = run_suite(name, trials=11, seed=125).to_dict()
    monkeypatch.setattr(discoh.verify, "CHUNK", 4)
    assert run_suite(name, trials=11, seed=125).to_dict() == whole


def test_worst_trial_is_the_first_largest_violation(monkeypatch):
    import discoh.verify

    # the closed form of each trial's output, computed for the whole stack
    values = iter([1e-12, 5e-10, -3e-11, 5e-10])
    monkeypatch.setattr(discoh.verify, "_closed_form",
                        lambda mats, spectra, dims, signs: np.array([next(values) for _ in mats]))
    result = verify_theorem3(trials=4, seed=116)
    assert result.max_violation == 5e-10
    assert result.failures == 2 and not result.passed
    assert result.details == {"worst_trial": 1, "worst_seed": int(spawn_seeds(116, 4)[1])}


@pytest.mark.parametrize(
    "name,trials", [("theorem1", 40), ("theorem3", 40), ("superadditivity", 40), ("invariance", 6)]
)
def test_worst_trial_replays_as_the_last_trial_of_a_prefix(name, trials):
    full = run_suite(name, trials=trials, seed=115)
    worst = full.details["worst_trial"]
    assert full.details["worst_seed"] == int(spawn_seeds(115, trials)[worst])
    again = run_suite(name, trials=worst + 1, seed=115)
    assert again.max_violation == full.max_violation
    assert again.details["worst_trial"] == worst
    assert again.details["worst_seed"] == full.details["worst_seed"]


@pytest.mark.parametrize("name", ["theorem1", "theorem2"])
@pytest.mark.parametrize(
    "option,value", [("restarts", 0), ("max_iter", 0), ("restarts", True), ("max_iter", 2.5)]
)
def test_run_suite_rejects_invalid_search_options_before_any_trial(name, option, value):
    # theorem1 runs no search, but an invalid option is still an error, not ignored
    calls = []
    with pytest.raises(ValueError, match=f"{option} must be an integer >= 1"):
        run_suite(name, trials=2, seed=122, progress=lambda i, n: calls.append(i),
                  **{option: value})
    assert calls == []


@pytest.mark.parametrize("name", SUITES)
def test_a_negative_seed_is_rejected_before_any_trial(name):
    calls = []
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        run_suite(name, trials=2, seed=-1, progress=lambda i, n: calls.append(i))
    assert calls == []


# ---------------------------------------------------------------------------
# The stacked campaign checks still catch wrong values
# ---------------------------------------------------------------------------


def test_invariance_check_catches_a_shifted_closed_form(monkeypatch):
    import discoh.verify

    closed_form = discoh.verify._closed_form

    def shifted(mats, spectra, dims, signs):
        return closed_form(mats, spectra, dims, signs) + 1e-6

    monkeypatch.setattr(discoh.verify, "_closed_form", shifted)
    result = verify_invariance(trials=3, seed=117)
    assert not result.passed and result.failures == 3
    assert abs(result.max_violation - 1e-6) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_invariance_check_catches_one_shifted_level_map(monkeypatch, dims):
    # the drop of each trial's level map alone is off by 1e-6
    import discoh.verify

    level_map_drops = discoh.verify._level_map_drops

    def shifted(m, w, dims, maps):
        drops = level_map_drops(m, w, dims, maps)
        drops[..., -1] += 1e-6
        return drops

    monkeypatch.setattr(discoh.verify, "_level_map_drops", shifted)
    result = verify_invariance(trials=3, dims=dims, seed=117)
    assert not result.passed and result.failures == 3
    assert abs(result.max_violation - 1e-6) <= 1e-12


def test_invariance_trial_computes_the_closed_form_of_two_states(monkeypatch):
    # rho's closed form serves both the PPIO and the IUO-conjugation check
    import discoh.verify

    seen = []
    closed_form = discoh.verify._closed_form

    def spy(mats, spectra, dims, signs):
        seen.extend(mats.reshape(-1, *mats.shape[-2:]))
        return closed_form(mats, spectra, dims, signs)

    monkeypatch.setattr(discoh.verify, "_closed_form", spy)
    # the trial's draws: rho, then the product IUO
    rng = rng_from_seed(int(spawn_seeds(123, 1)[0]))
    rho = random_state_from(rng, 2, 2, "ginibre-mixed")
    u_a, u_b = random_iuo(2, rng), random_iuo(2, rng)
    conj = DensityMatrix(apply_local(rho.mat, rho.dims, u_a, u_b), rho.dims)
    assert verify_invariance(trials=1, seed=123).passed
    assert [mat.tolist() for mat in seen] == [rho.mat.tolist(), conj.mat.tolist()]


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_theorem1_check_catches_a_coherent_channel(monkeypatch):
    import discoh.verify

    level_map_drops = discoh.verify._level_map_drops

    def hadamard_on_a(m, w, dims, maps):
        # each trial's PPIO drop taken under the Hadamard channel on A instead: the I_co
        # drop to its literal output; the dephasing drop, mi_drop, stays
        drops = level_map_drops(m, w, dims, maps)
        out = apply_local(m, dims, HADAMARD[None])
        drops[:, 0] = _closed_form(m, w, dims, _I_CO) - _closed_form(
            out, validate_density(out), dims, _I_CO)
        return drops

    monkeypatch.setattr(discoh.verify, "_level_map_drops", hadamard_on_a)
    result = verify_theorem1(trials=8, seed=118)
    assert not result.passed and result.failures == 8
    assert result.max_violation > 1e-3


def test_theorem3_check_catches_a_coherent_channel(monkeypatch):
    import discoh.verify

    # every U_a (x) {B_j} built as the Hadamard on A and the identity channel on B
    def hadamard_on_a(perms, phases):
        return np.broadcast_to(HADAMARD, (*perms.shape, 2))

    def identity_on_b(g):
        n, d_b = g.shape[-2] // g.shape[-1], g.shape[-1]
        return np.broadcast_to(np.eye(d_b) / np.sqrt(n), (len(g), n, d_b, d_b))

    monkeypatch.setattr(discoh.verify, "_iuo_mats", hadamard_on_a)
    monkeypatch.setattr(discoh.verify, "_kraus_ops", identity_on_b)
    result = verify_theorem3(trials=8, seed=118)
    assert not result.passed and result.failures == 8
    assert result.max_violation > 1e-3


def test_sampled_merging_ppios_drop_more_than_the_closed_form():
    # merging two levels of A destroys coherence that dephasing A keeps
    rng = rng_from_seed(119)
    merging = 0
    while merging < 20:
        rho = random_state_from(rng, 3, 2)
        ppio = random_rank_one_ppio(3, rng, 1)[0]
        rows = np.abs(ppio).sum(axis=0).argmax(axis=0)
        if len(set(rows.tolist())) == 3:
            continue
        merging += 1
        assert ppio_monotonicity_gap(rho, ppio)[0] > coherence_discord(rho) + 1e-6


# ---------------------------------------------------------------------------
# Structural guards: campaign trials lift no operator to A (x) B, and the
# invariance trial decomposes a whole stack of PPIO outputs at once
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []

    def counting(a, *args, _original=getattr(owner, name), **kwargs):
        calls.append(np.shape(a))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("name", ["theorem1", "theorem3", "invariance"])
def test_campaign_trials_form_no_kron(monkeypatch, name):
    calls = count_calls(monkeypatch, np, "kron")
    # four theorem3 trials include one with a mixture of two channels
    assert run_suite(name, trials=4, seed=120).passed
    assert calls == []


def test_invariance_trial_decomposes_as_often_at_2_and_24_maps(monkeypatch):
    # d_a = 2 and 4 have 2 and 24 non-merging level maps, and a trial checks one of them:
    # the same decomposition calls at both, and at 4x2 the merged blocks of one map
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    counts = []
    for d_a in (2, 4):
        calls.clear()
        assert verify_invariance(trials=1, dims=(d_a, 2), seed=121).passed
        counts.append(len(calls))
    assert counts[0] == counts[1]
    b_side = sum(int(np.prod(shape[:-2])) for shape in calls if shape[-2:] == (2, 2))
    assert b_side == 2 * (1 + 4) + 4


def test_invariance_trial_decomposes_the_merged_blocks_of_each_map_and_no_output(monkeypatch):
    # at 3x2 the d_b x d_b decompositions are the B marginals and the three
    # conditional blocks of rho and its IUO conjugate for the closed form, then the
    # three merged blocks of the trial's one level map; the only d x d ones are rho's
    # and its conjugate's, at validation
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert verify_invariance(trials=1, dims=(3, 2), seed=121).passed
    b_side = sum(int(np.prod(shape[:-2])) for shape in calls if shape[-2:] == (2, 2))
    assert b_side == 2 * (1 + 3) + 3
    assert [shape for shape in calls if shape[-2:] == (6, 6)] == [(1, 2, 6, 6)]


@pytest.mark.parametrize("d_a", [1, 3, 5, 7])
def test_an_invariance_trial_checks_the_level_map_of_its_iuo_on_a(monkeypatch, d_a):
    # one level map per trial, whatever d_a! is: the permutation of the IUO on A that
    # the trial draws from its child stream, after its state
    import discoh.verify

    passes, level_map_drops = [], discoh.verify._level_map_drops

    def recording(m, w, dims, maps):
        passes.append(np.asarray(maps).tolist())
        return level_map_drops(m, w, dims, maps)

    monkeypatch.setattr(discoh.verify, "_level_map_drops", recording)
    assert verify_invariance(trials=3, dims=(d_a, 2), seed=127).passed
    replayed = []
    for child in spawn_seeds(127, 3):
        rng = rng_from_seed(int(child))
        _draw_state(2 * d_a, "ginibre-mixed", rng)
        replayed.append(_draw_rank_one_ppio(d_a, rng, 1, True)[0].tolist())
    assert passes == [replayed]


def test_progress_fires_once_per_trial_after_its_chunk_is_measured(monkeypatch):
    import discoh.verify

    measured, calls = [], []
    level_map_drops = discoh.verify._level_map_drops

    def counting(m, *args):
        measured.append(len(m))
        return level_map_drops(m, *args)

    monkeypatch.setattr(discoh.verify, "_level_map_drops", counting)
    trials = discoh.verify.CHUNK + 5
    verify_theorem1(trials=trials, seed=124,
                    progress=lambda i, n: calls.append((i, n, sum(measured))))
    assert measured == [discoh.verify.CHUNK, 5]
    assert [(i, n) for i, n, _ in calls] == [(i, trials) for i in range(1, trials + 1)]
    assert all(i <= done for i, _, done in calls)


@pytest.mark.parametrize("name,search", [("theorem2", "discord"), ("zero-sets", "discord")])
def test_each_search_is_followed_by_its_own_progress_call(monkeypatch, name, search):
    # the searching suites report each trial as it ends, not in bursts of
    # CHUNK; zero-sets searches once more, for its witness, after the trials
    import discoh.verify

    events, inner = [], getattr(discoh.verify, search)

    def recording(*args):
        events.append("search")
        return inner(*args)

    monkeypatch.setattr(discoh.verify, search, recording)
    run_suite(name, trials=3, seed=126, restarts=2, progress=lambda i, n: events.append(i))
    assert events[:6] == ["search", 1, "search", 2, "search", 3]


@pytest.mark.parametrize("name", ["theorem2", "zero-sets"])
def test_a_searching_suite_draws_its_chunk_before_its_first_search(monkeypatch, name):
    # every draw of a chunk, RNG calls only, comes before the chunk's first
    # validation or search; here a chunk holds 3 trials, so 5 trials take two
    import discoh.states
    import discoh.verify

    events, restarts, search = [], discoh.verify._restarts, discoh.verify.discord

    def drawing(rng, seeds):
        for restarted in restarts(rng, seeds):
            events.append("draw")
            yield restarted

    def searching(*args):
        events.append("search")
        return search(*args)

    for owner in (discoh.states, discoh.verify):
        validate = owner.validate_density
        monkeypatch.setattr(owner, "validate_density",
                            lambda *args, _v=validate: events.append("validate") or _v(*args))
    monkeypatch.setattr(discoh.verify, "_restarts", drawing)
    monkeypatch.setattr(discoh.verify, "discord", searching)
    monkeypatch.setattr(discoh.verify, "CHUNK", 3)
    run_suite(name, trials=5, seed=128, restarts=2)
    second = events.index("draw", 3)
    assert events[:3] == ["draw"] * 3 and events[second:second + 2] == ["draw"] * 2
    marks = [event for event in events if event != "validate"]
    assert marks[:10] == ["draw"] * 3 + ["search"] * 3 + ["draw"] * 2 + ["search"] * 2


@pytest.mark.parametrize("name", ["theorem1", "theorem3"])
def test_campaign_trials_decompose_in_stacked_calls(monkeypatch, name):
    # theorem1, three calls: rho, the merged blocks of its PPIO's and dephasing's
    # level maps, and its A marginals; theorem3, three: the cq states and the
    # channel outputs together, the outputs' A marginals, and their B marginals
    # with their conditional blocks.  Each is one stacked call for all the
    # trials of a chunk.
    values = count_calls(monkeypatch, np.linalg, "eigvalsh")
    systems = count_calls(monkeypatch, np.linalg, "eigh")
    # four theorem3 trials include one with a mixture of two channels
    assert run_suite(name, trials=4, seed=122).passed
    lengths = {"theorem1": [4, 4, 4], "theorem3": [8, 4, 4]}[name]
    assert [shape[0] for shape in values + systems] == lengths


# ---------------------------------------------------------------------------
# Recorded results: the suite's run with trials=t, seed=s and any further options.
# The counts beyond 8 span two stacked chunks (verify.CHUNK is 64).  A change that
# draws differently, or in another order, or that measures a trial apart from its
# chunk in another summation order, moves the worst trial or its values.
# ---------------------------------------------------------------------------

# (seed, trials, *(option, value)): (max_violation, failures, worst_trial, worst_seed,
# *the float details in order: min_gap, the deviations, the discords)
RECORDED = {
    "theorem1": {
        (7, 8): (0.0, 0, 0, 16920295385781661272, 0.15283067783133775),
        (0, 130): (4.440892098500626e-16, 0, 57, 3287870231391313489, 0.08926856088011614),
        (7, 130): (4.440892098500626e-16, 0, 12, 5695765839877112676, 0.07468672771745599),
    },
    "theorem3": {
        (7, 8): (2.220446049250313e-16, 0, 3, 12917519645081627820),
        (0, 130): (4.440892098500626e-16, 0, 69, 3145109768351792608),
        (7, 130): (4.440892098500626e-16, 0, 67, 12192983480865354683),
    },
    "superadditivity": {
        (7, 8): (-0.1933038314593487, 0, 0, 16920295385781661272),
        (0, 130): (-0.12424214058006577, 0, 3, 3188717715514472916),
        (7, 130): (-0.13112051057593319, 0, 69, 13285551925594234729),
    },
    "invariance": {
        (7, 8): (6.661338147750939e-16, 0, 7, 10400641126733403575),
        (0, 70): (1.9984014443252818e-15, 0, 47, 8091597668830358219),
        (7, 70): (1.3322676295501878e-15, 0, 22, 3559628314908963368),
    },
    "theorem2": {
        (3, 6, ("grid_checks", 2)): (7.0976618491980226e-06, 0, 1, 12872254111863797241,
                                     2.9976021664879227e-15, 1.9984014443252818e-15,
                                     7.0976618491980226e-06),
        (1, 5, ("dims", (3, 2))): (4.9960036108132044e-15, 0, 1, 10007452063617845036,
                                   4.9960036108132044e-15, 2.886579864025407e-15),
    },
    "zero-sets": {
        (3, 30): (4.440892098500626e-16, 0, 11, 9918724147601234342,
                  2.220446049250313e-16, 0.2017520733857111, 0.20175241779843478),
        (2, 25, ("dims", (3, 2)), ("restarts", 4)): (
            8.881784197001252e-16, 0, 12, 9099095930707887757,
            5.551115123125783e-16, 0.20175207338571177, 0.20175241779843478),
    },
}


@pytest.mark.parametrize("name", list(RECORDED))
def test_suite_results_match_the_recorded_values(name):
    for (seed, trials, *options), want in RECORDED[name].items():
        result = DIRECT[name](trials=trials, seed=seed, **dict(options)).to_dict()
        details = result["details"]
        got = (result["max_violation"], result["failures"], details["worst_trial"],
               details["worst_seed"], *(v for v in details.values() if isinstance(v, float)))
        assert got == want, (seed, trials, *options)


# ---------------------------------------------------------------------------
# Draw-only trials.  A closed-form suite's draw makes only its RNG calls; its
# measure builds the whole chunk with the builders the library samplers use
# (each sampler is its draw, then its build over a leading axis of one), and one
# generator is restarted on each trial's child stream.
# ---------------------------------------------------------------------------

CHUNK_SIZES = [1, 7, 64]


def same_bits(a, b) -> bool:
    """Equal to the last bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stacked(draws):
    """The raw draws of a chunk, one stack per returned array."""
    return map(np.array, zip(*draws))


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("ensemble", ["ginibre-mixed", "haar-pure"])
def test_chunk_built_states_are_the_sampled_states(n, ensemble):
    for dims in [(2, 1), (2, 2), (2, 3), (3, 3)]:
        d = dims[0] * dims[1]
        singles = [random_state(*dims, ensemble, seed=s).mat for s in range(n)]
        g = np.array([_draw_state(d, ensemble, rng_from_seed(s)) for s in range(n)])
        assert same_bits(_state_mats(ensemble, g), singles), dims


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_chunk_built_cq_states_are_the_sampled_cq_states(n):
    for dims in [(2, 2), (3, 2), (2, 3)]:
        singles = [random_cq_state(rng_from_seed(s), *dims).mat for s in range(n)]
        probs, g = stacked(_draw_cq(rng_from_seed(s), *dims) for s in range(n))
        assert same_bits(_cq_mat(probs, _state_mats("ginibre-mixed", g)), singles), dims


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_chunk_built_iuos_and_ppios_are_the_sampled_ones(n):
    for d in (2, 3, 4):
        singles = [random_iuo(d, rng_from_seed(s)) for s in range(n)]
        perms, phases = stacked(_draw_rank_one_ppio(d, rng_from_seed(s), 1, True) for s in range(n))
        assert same_bits(_iuo_mats(perms, phases), singles), d
        for injective in (False, True):
            singles = [random_rank_one_ppio(d, rng_from_seed(s), 3, injective) for s in range(n)]
            maps, phases = stacked(
                _draw_rank_one_ppio(d, rng_from_seed(s), 3, injective) for s in range(n))
            assert same_bits(_rank_one_stacks(maps, np.exp(1j * phases)), singles), (d, injective)


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_chunk_built_physically_free_channels_are_the_sampled_ones(n):
    # as theorem3 builds them: the IUOs in one pass, the B channels one QR per Kraus count
    d_a, d_b = 2, 3
    counts = [1 + s % 3 for s in range(n)]
    singles = [random_physically_free(d_a, d_b, rng_from_seed(s), k) for s, k in enumerate(counts)]
    draws = []
    for s, k in enumerate(counts):
        rng = rng_from_seed(s)
        draws.append((*_draw_rank_one_ppio(d_a, rng, 1, True), _draw_kraus(d_b, k, rng)))
    perms, phases = stacked((p, ph) for p, ph, _ in draws)
    u_a = _iuo_mats(perms, phases)
    for k in (1, 2, 3):
        group = [s for s in range(n) if counts[s] == k]
        b_ops = _kraus_ops(np.array([draws[s][2] for s in group])) if group else []
        for s, ops in zip(group, b_ops):
            assert same_bits(u_a[s], singles[s][0]) and same_bits(ops, singles[s][1]), s


def test_state_builds_keep_the_per_state_arithmetic():
    # the formulas the samplers used one state at a time, before stacks
    for d in (2, 4, 6, 9, 64):
        for s in range(8):
            g = _draw_state(d, "ginibre-mixed", rng_from_seed(s))
            z = g[0] + 1j * g[1]
            m = z @ z.conj().T
            m /= np.trace(m).real
            assert same_bits(_state_mats("ginibre-mixed", g[None])[0], (m + m.conj().T) / 2.0)
            g = _draw_state(d, "haar-pure", rng_from_seed(s))
            v = g[0] + 1j * g[1]
            v /= np.linalg.norm(v)
            assert same_bits(_state_mats("haar-pure", g[None])[0], np.outer(v, v.conj()))


def raw_leaves(x):
    if isinstance(x, (tuple, list)):
        for item in x:
            yield from raw_leaves(item)
    elif not isinstance(x, str):
        yield np.asarray(x)


@pytest.mark.parametrize("name", ["theorem1", "theorem3", "superadditivity", "invariance"])
def test_a_closed_form_draw_returns_raw_rng_output_only(monkeypatch, name):
    # no validation, QR, PPIO construction or build runs while a trial draws, and
    # what a draw returns is real: normals, permutations, phases, weights, counts
    import discoh.channels
    import discoh.states
    import discoh.verify

    drawing = []

    def forbid_while_drawing(owner, attr):
        original = getattr(owner, attr)

        def spy(*args, **kwargs):
            assert not drawing, f"trial {drawing[0]} called {attr} while drawing"
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)

    for owner, attr in [
        (np.linalg, "qr"), (discoh.states, "validate_density"),
        (discoh.verify, "validate_density"), (discoh.channels, "_iuo_mats"),
        *((discoh.verify, builder) for builder in
          ("_state_mats", "_cq_mat", "_iuo_mats", "_kraus_ops", "_level_map_drops")),
    ]:
        forbid_while_drawing(owner, attr)
    run_trials = discoh.verify._run_trials

    def watched(suite, trials, dims, seed, tol, draw, *args, **kwargs):
        def watched_draw(i, rng):
            drawing.append(i)
            out = draw(i, rng)
            drawing.pop()
            assert all(leaf.dtype.kind in "iuf" for leaf in raw_leaves(out)), (suite, i)
            return out

        return run_trials(suite, trials, dims, seed, tol, watched_draw, *args, **kwargs)

    monkeypatch.setattr(discoh.verify, "_run_trials", watched)
    assert run_suite(name, trials=12, seed=126).passed


@pytest.mark.parametrize("name,most", [("invariance", 3), ("theorem1", 2)])
def test_a_trial_draws_in_a_few_generator_calls(monkeypatch, name, most):
    # an invariance trial draws its state and its two IUOs in one call each, and a
    # 2x2 theorem1 trial its state and its level map, all on its own child stream:
    # only the driver re-keys a generator, once per chunk
    import discoh.verify

    calls, rekeys, restarts = [], [], discoh.verify._restarts
    monkeypatch.setattr(discoh.verify, "_restarts", lambda *a: rekeys.append(a) or restarts(*a))

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, attr):
            calls[-1] += 1
            return getattr(self.rng, attr)

    run_trials = discoh.verify._run_trials

    def counted(suite, trials, dims, seed, tol, draw, *args, **kwargs):
        def counted_draw(i, rng):
            calls.append(0)
            return draw(i, Counting(rng))

        return run_trials(suite, trials, dims, seed, tol, counted_draw, *args, **kwargs)

    monkeypatch.setattr(discoh.verify, "_run_trials", counted)
    assert run_suite(name, trials=6, seed=129).passed
    assert len(calls) == 6 and max(calls) <= most and len(rekeys) == 1


def test_theorem1_level_maps_are_uniform(monkeypatch):
    # derandomized: the maps of 6000 3x2 trials, each beside the identity map; f(j)
    # i.i.d. uniform makes the chi-square of the counts of the 27 maps stay under
    # 54.1, its 0.1% point at 26 degrees of freedom
    import discoh.verify

    maps, level_map_drops = [], discoh.verify._level_map_drops

    def recording(m, w, dims, chunk_maps):
        maps.extend(chunk_maps.tolist())
        return level_map_drops(m, w, dims, chunk_maps)

    monkeypatch.setattr(discoh.verify, "_level_map_drops", recording)
    assert verify_theorem1(trials=6000, dims=(3, 2), seed=3005).passed
    drawn = np.array(maps)
    assert drawn.shape == (6000, 2, 3) and (drawn[:, 1] == [0, 1, 2]).all()
    counts = np.bincount(drawn[:, 0] @ [9, 3, 1], minlength=27)
    assert ((counts - 6000 / 27) ** 2).sum() / (6000 / 27) <= 54.1, counts.tolist()


def test_restarted_streams_are_the_seeded_streams():
    # the keys are numpy's SeedSequence(s).generate_state(2, np.uint64), and the
    # generator restarts clean even after a draw left half a 64-bit word buffered
    edges = np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    seeds = np.concatenate([edges, spawn_seeds(127, 10**4)])
    rng = rng_from_seed(1)
    for k, (s, restarted) in enumerate(zip(seeds, _restarts(rng, seeds))):
        assert restarted is rng
        want = np.random.SeedSequence(int(s)).generate_state(2, np.uint64)
        assert restarted.bit_generator.state["state"]["key"].tolist() == want.tolist(), int(s)
        if k < 40:
            draws = [[gen.standard_normal(3), gen.integers(1, 4), gen.permutation(3),
                      gen.dirichlet(np.ones(3)), gen.integers(0, 2**63)]
                     for gen in (rng_from_seed(int(s)), restarted)]
            assert all(same_bits(a, b) for a, b in zip(*draws)), int(s)
        restarted.integers(1, 4)
