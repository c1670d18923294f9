"""Randomized invariant suites at reduced trial counts; the acceptance module
runs the full campaigns."""

import numpy as np
import pytest

from discoh.channels import random_iuo, random_rank_one_ppio
from discoh.discord import coherence_discord, ppio_monotonicity_gap
from discoh.linalg import apply_local
from discoh.states import (
    DensityMatrix, random_cq_state, random_state_from, rng_from_seed, spawn_seeds
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

    search = discoh.verify.discord_via_coherence

    def off_by_1e3(rho, config=None):
        value, basis, trace = search(rho, config)
        return value + 1e-3, basis, trace

    monkeypatch.setattr(discoh.verify, "discord_via_coherence", off_by_1e3)
    result = verify_theorem2(trials=3, seed=104)
    assert not result.passed and result.failures == 3
    for key in ("max_discord_at_basis_dev", "max_ico_drop_dev"):
        assert abs(result.details[key] - 1e-3) <= 1e-12


def test_theorem2_grid_check_catches_a_non_optimal_basis(monkeypatch):
    import discoh.verify
    from discoh.discord import discord_at_basis
    from discoh.states import ReferenceBasis, haar_unitary

    def wrong_basis(rho, config=None):
        basis = ReferenceBasis(haar_unitary(2, np.random.default_rng(1)))
        return discord_at_basis(rho, basis), basis, None

    monkeypatch.setattr(discoh.verify, "discord_via_coherence", wrong_basis)
    result = verify_theorem2(trials=1, seed=104, grid_checks=1)
    assert not result.passed
    # the value is right at its basis; only the grid sees it is not the minimum
    assert result.details["max_discord_at_basis_dev"] <= 1e-12
    assert result.details["max_ico_drop_dev"] <= 1e-12
    assert result.details["max_grid_dev"] > 1e-4


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


def test_invariance_suite_small(monkeypatch):
    import discoh.verify

    monkeypatch.setattr(discoh.verify, "PPIO_SAMPLES", 25)
    result = verify_invariance(trials=20, seed=108)
    assert result.passed
    assert result.max_violation <= 1e-9


def test_zero_sets_suite_small(monkeypatch):
    import discoh.verify

    monkeypatch.setattr(discoh.verify, "MEMBER_DISCORD_CHECKS", 5)
    result = verify_zero_sets(trials=40, seed=109)
    assert result.passed
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


def test_invariance_trial_computes_the_closed_form_of_two_states(monkeypatch):
    # rho's closed form serves both the PPIO and the IUO-conjugation check
    import discoh.verify

    seen = []
    closed_form = discoh.verify._closed_form

    def spy(mats, spectra, dims, signs):
        seen.extend(mats.reshape(-1, *mats.shape[-2:]))
        return closed_form(mats, spectra, dims, signs)

    monkeypatch.setattr(discoh.verify, "_closed_form", spy)
    # the trial's draws: rho, the PPIO seed, then the product IUO
    rng = rng_from_seed(int(spawn_seeds(123, 1)[0]))
    rho = random_state_from(rng, 2, 2, "ginibre-mixed")
    rng.integers(0, 2**63)
    u_a, u_b = random_iuo(2, rng), random_iuo(2, rng)
    conj = DensityMatrix(apply_local(rho.mat, rho.dims, u_a, u_b), rho.dims)
    assert verify_invariance(trials=1, seed=123).passed
    assert [mat.tolist() for mat in seen] == [rho.mat.tolist(), conj.mat.tolist()]


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_theorem1_check_catches_a_coherent_channel(monkeypatch):
    import discoh.verify

    def hadamard_on_a(dim, rng, n, injective=False):
        # the Hadamard channel as a stack of d_a = 2 operators, one of them zero
        return np.stack([HADAMARD, np.zeros((2, 2))])[None]

    monkeypatch.setattr(discoh.verify, "random_rank_one_ppio", hadamard_on_a)
    result = verify_theorem1(trials=8, seed=118)
    assert not result.passed and result.failures == 8
    assert result.max_violation > 1e-3


def test_theorem3_check_catches_a_coherent_channel(monkeypatch):
    import discoh.verify

    def hadamard_on_a(d_a, d_b, rng, n_b_ops=2):
        return HADAMARD[None], np.eye(d_b)[None]

    monkeypatch.setattr(discoh.verify, "random_physically_free", hadamard_on_a)
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


def test_invariance_trial_decomposes_as_often_at_5_and_50_samples(monkeypatch):
    import discoh.verify

    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    counts = []
    for samples in (5, 50):
        monkeypatch.setattr(discoh.verify, "PPIO_SAMPLES", samples)
        calls.clear()
        assert verify_invariance(trials=1, seed=121).passed
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_invariance_trial_decomposes_no_conditional_block_of_a_ppio_output(monkeypatch):
    # at 3x2 the d_b x d_b decompositions are the B marginals of rho, its 50
    # PPIO outputs and its dephasing, then the B marginals and the three
    # conditional blocks of rho and its IUO conjugate for the closed form
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert verify_invariance(trials=1, dims=(3, 2), seed=121).passed
    b_side = sum(int(np.prod(shape[:-2])) for shape in calls if shape[-2:] == (2, 2))
    assert b_side == (50 + 2) + 2 * (1 + 3)


def test_progress_fires_once_per_trial_after_its_chunk_is_measured(monkeypatch):
    import discoh.verify

    measured, calls = [], []
    ppio_drops = discoh.verify._ppio_drops

    def counting(m, *args):
        measured.append(len(m))
        return ppio_drops(m, *args)

    monkeypatch.setattr(discoh.verify, "_ppio_drops", counting)
    trials = discoh.verify.CHUNK + 5
    verify_theorem1(trials=trials, seed=124,
                    progress=lambda i, n: calls.append((i, n, sum(measured))))
    assert measured == [discoh.verify.CHUNK, 5]
    assert [(i, n) for i, n, _ in calls] == [(i, trials) for i in range(1, trials + 1)]
    assert all(i <= done for i, _, done in calls)


@pytest.mark.parametrize("name,search", [("theorem2", "discord_via_coherence"),
                                         ("zero-sets", "discord")])
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


@pytest.mark.parametrize("name", ["theorem1", "theorem3"])
def test_campaign_trial_decomposes_four_times(monkeypatch, name):
    # theorem1: rho, its PPIO and dephasing outputs, the A marginals of all
    # three, and their B marginals; theorem3: the cq state, the channel output,
    # its A marginal, and its B marginal with its conditional blocks.  Each is
    # one stacked call for all the trials of a chunk.
    values = count_calls(monkeypatch, np.linalg, "eigvalsh")
    systems = count_calls(monkeypatch, np.linalg, "eigh")
    # four theorem3 trials include one with a mixture of two channels
    assert run_suite(name, trials=4, seed=122).passed
    assert len(values) + len(systems) == 4
    assert [shape[0] for shape in values + systems] == [4] * 4


# ---------------------------------------------------------------------------
# Recorded results: run_suite(name, trials=t, seed=s).  The counts beyond 8 span
# two stacked chunks (verify.CHUNK is 64).  A change that draws differently, or
# in another order, or that measures a trial apart from its chunk in another
# summation order, moves the worst trial or its values.
# ---------------------------------------------------------------------------

# (seed, trials): (max_violation, failures, worst_trial, worst_seed[, min_gap])
RECORDED = {
    "theorem1": {
        (7, 8): (4.440892098500626e-16, 0, 2, 7078124019849193311, 0.1933038314593487),
        (0, 130): (2.220446049250313e-16, 0, 10, 12426324003838119764, 0.08926856088011548),
        (7, 130): (6.661338147750939e-16, 0, 30, 10662670176723430074, 0.09316699658763394),
    },
    "theorem3": {
        (7, 8): (2.220446049250313e-16, 0, 5, 12242414004113001224),
        (0, 130): (4.440892098500626e-16, 0, 43, 797829054873436191),
        (7, 130): (6.661338147750939e-16, 0, 18, 4335859634209406619),
    },
    "superadditivity": {
        (7, 8): (-0.1933038314593487, 0, 0, 16920295385781661272),
        (0, 130): (-0.12424214058006577, 0, 3, 3188717715514472916),
        (7, 130): (-0.13112051057593319, 0, 69, 13285551925594234729),
    },
    "invariance": {
        (7, 8): (1.1102230246251565e-15, 0, 2, 7078124019849193311),
        (0, 70): (1.5543122344752192e-15, 0, 60, 7789158707010503658),
        (7, 70): (1.7763568394002505e-15, 0, 14, 3307404742530723846),
    },
}


@pytest.mark.parametrize("name", list(RECORDED))
def test_suite_results_match_the_recorded_values(name):
    for (seed, trials), want in RECORDED[name].items():
        result = run_suite(name, trials=trials, seed=seed).to_dict()
        details = result["details"]
        got = (result["max_violation"], result["failures"], details["worst_trial"],
               details["worst_seed"], *([details["min_gap"]] if "min_gap" in details else []))
        assert got == want, (seed, trials)
