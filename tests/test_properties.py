"""Randomized invariant suites at reduced trial counts; the acceptance module
runs the full campaigns."""

import numpy as np

from discoh.channels import apply, lift_to_bipartite, random_rank_one_ppio
from discoh.discord import coherence_discord
from discoh.states import random_cq_state, random_state_from, rng_from_seed
from discoh.verify import (
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


def test_invariance_suite_small():
    result = verify_invariance(trials=20, ppio_samples=25, seed=108)
    assert result.passed
    assert result.max_violation <= 1e-9


def test_zero_sets_suite_small():
    result = verify_zero_sets(trials=40, member_discord_checks=5, seed=109)
    assert result.passed
    assert result.details["witness_discord_optimizer"] > 0.01
    assert result.details["witness_discord_grid"] > 0.01


def test_rank_one_ppio_output_in_zero_set():
    # any local rank-one PPIO pushes any state into the zero set
    rng = rng_from_seed(110)
    for _ in range(50):
        rho = random_state_from(rng, 2, 2)
        ppio = random_rank_one_ppio(2, rng)
        out = apply(lift_to_bipartite(ppio, 2), rho)
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
