import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from discoh.channels import random_physically_free
from discoh.linalg import apply_local, dephase_local, partial_trace
from discoh.measures import (
    CSV_COLUMNS,
    MeasureReport,
    coherence_rel_ent,
    correlated_coherence,
    cq_coherence,
    entropy,
    entropy_of_probs,
    l1_coherence,
    mutual_information,
    relative_entropy,
)
from discoh.states import (
    ENSEMBLES,
    DensityMatrix,
    bell_phi_plus,
    classical_quantum,
    haar_unitary,
    random_cq_state,
    random_state,
    random_state_from,
    rng_from_seed,
    swap_subsystems,
    werner,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def product_state(a, b):
    return DensityMatrix(np.kron(a, b), (a.shape[0], b.shape[0]))


def cq_example():
    return classical_quantum([0.5, 0.5], [np.diag([1.0, 0.0]), PLUS])


def test_entropy_pure_and_mixed():
    assert entropy(PLUS) == 0.0
    assert_allclose(entropy(np.eye(4) / 4), 2.0, atol=1e-12)
    # -(3/4 log 3/4 + 1/4 log 1/4) = 2 - (3/4) log2 3
    assert_allclose(entropy(np.diag([0.75, 0.25])), 2.0 - 0.75 * np.log2(3.0), atol=1e-12)
    assert_allclose(entropy(np.diag([0.75, 0.25])), 0.811278124459, atol=1e-9)


def test_entropy_rejects_invalid_state():
    with pytest.raises(ValueError, match="negative"):
        entropy(np.diag([1.1, -0.1]))


def test_entropy_of_probs_of_a_stack_is_each_row():
    p = np.array([[0.5, 0.5, 0.0], [1.0, -1e-12, 0.0], [0.25, 0.25, 0.5]])
    assert_allclose(entropy_of_probs(p, axis=-1), [entropy_of_probs(row) for row in p],
                    rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="negative"):
        entropy_of_probs(np.array([[0.5, 0.5], [1.1, -0.1]]), axis=-1)


def test_relative_entropy_identical_is_zero():
    rho = random_state(2, 2, "ginibre-mixed", seed=8)
    assert abs(relative_entropy(rho, rho)) < 1e-10


def test_relative_entropy_disjoint_support_is_infinite():
    assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf


def test_relative_entropy_plus_vs_mixed():
    assert_allclose(relative_entropy(PLUS, np.eye(2) / 2), 1.0, atol=1e-12)


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_relative_entropy_nonnegative_random():
    rng = np.random.default_rng(21)
    for i in range(20):
        rho = random_state(2, 2, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        sig = random_state(2, 2, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        assert relative_entropy(rho, sig) >= -1e-10


def test_relative_entropy_contractive_under_partial_trace():
    # monotonicity: discarding B cannot increase distinguishability
    rng = np.random.default_rng(22)
    for _ in range(25):
        rho = random_state(2, 3, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        sig = random_state(2, 3, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        full = relative_entropy(rho, sig)
        reduced = relative_entropy(
            partial_trace(rho.mat, rho.dims, "a"), partial_trace(sig.mat, sig.dims, "a")
        )
        assert full >= reduced - 1e-9


def test_coherence_diagonal_is_zero():
    assert abs(coherence_rel_ent(np.diag([0.4, 0.6]))) < 1e-12


def test_coherence_maximally_coherent_qubit():
    assert_allclose(coherence_rel_ent(PLUS), 1.0, atol=1e-12)


def test_coherence_bell_joint_basis():
    assert_allclose(coherence_rel_ent(bell_phi_plus().mat), 1.0, atol=1e-12)


def test_coherence_vanishes_in_eigenbasis():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_state(2, 2, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        frame = np.linalg.eigh(rho.mat)[1]
        assert abs(coherence_rel_ent(rho.mat, frame)) < 1e-9


def test_mutual_information_product_zero():
    rho = product_state(np.diag([0.3, 0.7]), PLUS)
    assert abs(mutual_information(rho)) < 1e-12


def test_mutual_information_bell():
    assert_allclose(mutual_information(bell_phi_plus()), 2.0, atol=1e-12)


def test_mutual_information_werner_matches_composed_entropies():
    w = werner(0.5)
    ra, rb = partial_trace(w.mat, w.dims, "a"), partial_trace(w.mat, w.dims, "b")
    expected = entropy(ra) + entropy(rb) - entropy(w)
    assert_allclose(mutual_information(w), expected, atol=1e-12)
    assert_allclose(expected, 2.0 - entropy(np.diag([5 / 8, 1 / 8, 1 / 8, 1 / 8])), atol=1e-12)


def test_correlated_coherence_product_zero():
    rho = product_state(PLUS, PLUS)
    assert abs(correlated_coherence(rho)) < 1e-9


def test_correlated_coherence_bell_one():
    assert_allclose(correlated_coherence(bell_phi_plus()), 1.0, atol=1e-12)


def test_correlated_coherence_diagonal_bipartite_zero():
    rho = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
    assert abs(correlated_coherence(rho)) < 1e-12


def test_cq_coherence_zero_on_cq_states():
    assert abs(cq_coherence(cq_example())) < 1e-12


def test_cq_coherence_bell_one():
    assert_allclose(cq_coherence(bell_phi_plus()), 1.0, atol=1e-12)


def test_cq_coherence_product_reduces_to_marginal_coherence():
    rho = product_state(PLUS, np.diag([0.2, 0.8]))
    assert_allclose(cq_coherence(rho), coherence_rel_ent(PLUS), atol=1e-10)


def test_cq_coherence_equals_relative_entropy_to_dephased():
    # consistency of the closed form with its relative-entropy definition
    rng = np.random.default_rng(17)
    for _ in range(15):
        rho = random_state(2, 2, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        sigma = dephase_local(rho.mat, rho.dims)
        assert_allclose(cq_coherence(rho), relative_entropy(rho.mat, sigma), atol=1e-9)


def test_l1_coherence_cases():
    assert l1_coherence(np.diag([0.4, 0.6])) == 0.0
    assert_allclose(MeasureReport.compute(bell_phi_plus()).l1_cc, 1.0, atol=1e-12)
    rho = product_state(np.diag([0.3, 0.7]), np.diag([0.1, 0.9]))
    assert abs(MeasureReport.compute(rho).l1_cc) < 1e-12


def l1_in_frame(m, frame):
    a = np.abs(frame.conj().T @ m @ frame)
    return a.sum() - np.trace(a)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4), (8, 8)])
@pytest.mark.parametrize("sides", ["a", "b", "ab"])
def test_l1_correlated_coherence_matches_joint_frame_formula(dims, sides):
    rho, rng = seeded_state(dims, dims[0] * dims[1], 7 * sum(dims) + len(sides))
    fa = haar_unitary(dims[0], rng) if "a" in sides else None
    fb = haar_unitary(dims[1], rng) if "b" in sides else None
    ua = np.eye(dims[0]) if fa is None else fa
    ub = np.eye(dims[1]) if fb is None else fb
    want = (
        l1_in_frame(rho.mat, np.kron(ua, ub))
        - l1_in_frame(partial_trace(rho.mat, dims, "a"), ua)
        - l1_in_frame(partial_trace(rho.mat, dims, "b"), ub)
    )
    assert abs(MeasureReport.compute(rho, fa, fb).l1_cc - want) <= 1e-12


def test_superadditivity_on_random_states():
    rng = np.random.default_rng(33)
    for _ in range(50):
        rho = random_state(2, 2, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        assert correlated_coherence(rho) >= -1e-9


def test_report_internal_consistency():
    rng = np.random.default_rng(55)
    for _ in range(10):
        rho = random_state(2, 3, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        rep = MeasureReport.compute(rho)
        assert abs(rep.I - (rep.S_a + rep.S_b - rep.S_ab)) < 1e-9
        assert abs(rep.I_co - (rep.C_r_ab - rep.C_r_a - rep.C_r_b)) < 1e-9
        # cross-check against standalone calls
        assert abs(rep.I - mutual_information(rho)) < 1e-9
        assert abs(rep.I_co - correlated_coherence(rho)) < 1e-9
        assert abs(rep.C_r_upper - cq_coherence(rho)) < 1e-9
        assert abs(rep.C_r_sym - coherence_rel_ent(rho)) < 1e-9


def test_report_serialization_order():
    rep = MeasureReport.compute(bell_phi_plus())
    d = rep.to_dict()
    assert tuple(d.keys()) == CSV_COLUMNS
    assert d["I_co"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# one decomposition per matrix, checked against the plain definitions
# ---------------------------------------------------------------------------


def seeded_state(dims, rank, seed):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims), rng


def test_spectrum_is_kept_read_only():
    rho, _ = seeded_state((2, 3), 6, 1)
    assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.mat))
    assert not rho.spectrum.flags.writeable
    with pytest.raises(ValueError):
        rho.spectrum[0] = 0.0
    with pytest.raises(AttributeError):
        rho.spectrum = np.zeros(6)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (8, 8)])
@pytest.mark.parametrize("framed", [False, True])
def test_measures_never_decompose_the_full_state(monkeypatch, dims, framed):
    # each closed form reads one entropy table: rho_a, and rho_b stacked with
    # the conditional blocks, are decomposed once each
    from discoh.discord import coherence_discord, coherence_discord_symmetric

    rho, rng = seeded_state(dims, dims[0] * dims[1], sum(dims))
    fa = fb = None
    if framed:
        fa, fb = haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)
    shapes = []
    for name in ("eigvalsh", "eigh"):
        def counting(a, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    calls = {
        "MeasureReport": lambda: MeasureReport.compute(rho, fa, fb),
        "coherence_discord": lambda: coherence_discord(rho, fa),
        "coherence_discord_symmetric": lambda: coherence_discord_symmetric(rho, fa, fb),
        "correlated_coherence": lambda: correlated_coherence(rho, fa, fb),
        "cq_coherence": lambda: cq_coherence(rho, fa),
        "mutual_information": lambda: mutual_information(rho),
    }
    d = rho.dim
    for name, call in calls.items():
        shapes.clear()
        call()
        assert len(shapes) == 2, (name, shapes)
        assert all(shape[-2:] != (d, d) for shape in shapes), (name, shapes)


def plain_entropy(m):
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def projectors(frame, d_b=1):
    # |u_k><u_k| (x) 1_B for the columns u_k of the frame
    return [np.kron(np.outer(u, u.conj()), np.eye(d_b)) for u in frame.T]


def plain_dephase(m, projectors):
    return sum(p @ m @ p for p in projectors)


def plain_measured_info(rho, fa):
    # S(rho_b) - sum_k p_k S(rho_k), rho_k the B state left by outcome k on A
    d_a, d_b = rho.dims
    cond = 0.0
    for p_k in projectors(fa, d_b):
        post = (p_k @ rho.mat @ p_k).reshape(d_a, d_b, d_a, d_b)
        block = np.einsum("ijil->jl", post)
        p = np.trace(block).real
        if p > 1e-15:
            cond += p * plain_entropy(block / p)
    return plain_entropy(np.einsum("ijil->jl", rho.mat.reshape(d_a, d_b, d_a, d_b))) - cond


def plain_report(rho, fa, fb):
    d_a, d_b = rho.dims
    fa = np.eye(d_a) if fa is None else fa
    fb = np.eye(d_b) if fb is None else fb
    m = rho.mat
    t = m.reshape(d_a, d_b, d_a, d_b)
    ra, rb = np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)
    s_ab, s_a, s_b = plain_entropy(m), plain_entropy(ra), plain_entropy(rb)
    c_ab = plain_entropy(plain_dephase(m, projectors(np.kron(fa, fb)))) - s_ab
    c_a = plain_entropy(plain_dephase(ra, projectors(fa))) - s_a
    c_b = plain_entropy(plain_dephase(rb, projectors(fb))) - s_b
    c_upper = plain_entropy(plain_dephase(m, projectors(fa, d_b))) - s_ab
    return {"S_ab": s_ab, "S_a": s_a, "S_b": s_b, "I": s_a + s_b - s_ab, "C_r_ab": c_ab,
            "C_r_a": c_a, "C_r_b": c_b, "I_co": c_ab - c_a - c_b, "C_r_upper": c_upper,
            "C_r_sym": c_ab, "dac": c_upper - c_a}


@pytest.mark.parametrize("dims, rank", [((2, 2), 1), ((2, 3), 2), ((3, 3), 2), ((4, 2), 3)])
@pytest.mark.parametrize("framed", [False, True])
def test_report_and_dac_match_plain_definitions_on_rank_deficient_states(dims, rank, framed):
    from discoh.discord import coherence_discord

    rho, rng = seeded_state(dims, rank, 10 * rank + dims[0])
    fa = fb = None
    if framed:
        fa, fb = haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)
    want = plain_report(rho, fa, fb)
    want["J_U"] = plain_measured_info(rho, np.eye(dims[0]) if fa is None else fa)
    got = {**MeasureReport.compute(rho, fa, fb).to_dict(), "dac": coherence_discord(rho, fa)}
    # the standalone closed forms, each against its plain definition
    got.update(C_r_upper=cq_coherence(rho, fa), I=mutual_information(rho),
               I_co=correlated_coherence(rho, fa, fb))
    got["J_U"] = got["I"] - got["dac"]  # the information measuring A in fa keeps
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12, (key, got[key], value)


def test_correlated_coherence_of_a_stack_is_per_state():
    from discoh.measures import _I_CO, _entropies

    rng = np.random.default_rng(31)
    for dims in [(2, 2), (2, 3), (3, 2)]:
        states = [random_state(*dims, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
                  for _ in range(5)]
        fa, fb = haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)
        stack = np.stack([rho.mat for rho in states])
        spectra = np.stack([rho.spectrum for rho in states])
        for basis_a, basis_b in [(None, None), (fa, fb)]:
            expected = [correlated_coherence(rho, basis_a, basis_b) for rho in states]
            got = _entropies(stack, spectra, dims, basis_a, basis_b)[0] @ _I_CO
            assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_a_table_without_s_union_refuses_the_quantities_that_read_it():
    from discoh.measures import _DAC, _I_CO, _MI, _entropies, _read

    rho = random_state(2, 3, "ginibre-mixed", seed=41)
    full = _entropies(rho.mat, rho.spectrum, rho.dims)[0]
    short = _entropies(rho.mat, rho.spectrum, rho.dims, union=False)[0]
    assert short.shape == (6,)
    for signs in (_I_CO, _MI):
        assert _read(short, signs) == _read(full, signs)
    with pytest.raises(ValueError, match="S_union"):
        _read(short, _DAC)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_closed_form_of_a_stack_is_the_one_state_value_bit_for_bit(dims):
    from discoh.measures import _DAC, _I_CO, _MI, _closed_form, _table

    states = [random_state(*dims, "ginibre-mixed", seed=50 + s) for s in range(6)]
    mats = np.stack([rho.mat for rho in states]).reshape(3, 2, *states[0].mat.shape)
    spectra = np.stack([rho.spectrum for rho in states]).reshape(3, 2, -1)
    for signs in (_I_CO, _DAC, _MI):
        want = [float(_table(rho) @ signs) for rho in states]
        assert _closed_form(mats, spectra, dims, signs).ravel().tolist() == want


# ---------------------------------------------------------------------------
# The relative entropy measure that dac induces, C^r = cq_coherence (the
# distance to the classical-quantum states), is a bipartite coherence measure,
# and so is C~^r = C_r_ab, the distance to the diagonal states.  Each property
# runs on derandomized draws at 2x2 to 4x4, and a fault-injected measure shows
# that it can fail.
# ---------------------------------------------------------------------------

CASES = st.tuples(st.integers(2, 4), st.integers(2, 4), st.sampled_from(ENSEMBLES),
                  st.integers(0, 2**32 - 1))
BOUNDED = settings(derandomize=True, max_examples=20, deadline=None)


def drawn(case):
    d_a, d_b, ensemble, seed = case
    rng = rng_from_seed(seed)
    return random_state_from(rng, d_a, d_b, ensemble), rng


def c_r_tilde(rho):
    return MeasureReport.compute(rho).C_r_ab


# each measure, its nearest free state, and a sampler of other free states
FREE_SETS = {
    "C^r": (cq_coherence, lambda rho: dephase_local(rho.mat, rho.dims),
            lambda rho, rng: random_cq_state(rng, rho.d_a, rho.d_b)),
    "C~^r": (c_r_tilde, lambda rho: np.diag(np.diag(rho.mat)),
             lambda rho, rng: np.diag(rng.dirichlet(np.ones(rho.dim)))),
}


def check_variational(measure, nearest, sample, rho, rng):
    value = measure(rho)
    assert abs(relative_entropy(rho, nearest(rho)) - value) <= 1e-12
    for _ in range(3):
        assert relative_entropy(rho, sample(rho, rng)) >= value - 1e-12


def check_monotone(measure, rho, rng):
    # one channel U_a (x) {B_j}, then a mixture of two
    for n in (1, 2):
        out = sum(
            w * apply_local(rho.mat, rho.dims, *random_physically_free(
                rho.d_a, rho.d_b, rng, n_b_ops=int(rng.integers(1, 4))))
            for w in rng.dirichlet(np.ones(n))
        )
        assert measure(DensityMatrix(out, rho.dims)) <= measure(rho) + 1e-12


def check_convex(measure, rho, rng):
    tau, p = random_state_from(rng, rho.d_a, rho.d_b), rng.uniform()
    mix = DensityMatrix(p * rho.mat + (1 - p) * tau.mat, rho.dims)
    assert measure(mix) <= p * measure(rho) + (1 - p) * measure(tau) + 1e-12


@pytest.mark.parametrize("name", list(FREE_SETS))
@BOUNDED
@given(CASES)
def test_measure_is_the_least_relative_entropy_to_its_free_states(name, case):
    check_variational(*FREE_SETS[name], *drawn(case))


@BOUNDED
@given(CASES)
def test_cq_coherence_does_not_grow_under_physically_free_channels(case):
    check_monotone(cq_coherence, *drawn(case))


@BOUNDED
@given(CASES)
def test_cq_coherence_is_convex(case):
    check_convex(cq_coherence, *drawn(case))


MUTANTS = {
    # the distance to the diagonal states in place of the classical-quantum ones
    "variational-C^r": (check_variational, c_r_tilde, *FREE_SETS["C^r"][1:]),
    # C~^r without its -S(rho) term
    "variational-C~^r": (check_variational, lambda rho: c_r_tilde(rho) + entropy(rho),
                         *FREE_SETS["C~^r"][1:]),
    # B dephased in place of A: the distance to the quantum-classical states
    "monotone": (check_monotone, lambda rho: cq_coherence(swap_subsystems(rho))),
    # C^r without its -S(rho) term: the entropy of the A-dephased state, concave
    "convex": (check_convex, lambda rho: cq_coherence(rho) + entropy(rho)),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_measure_property_catches_its_mutant(name):
    check, *args = MUTANTS[name]
    for seed in range(20):
        try:
            check(*args, *drawn((2 + seed % 2, 2, "ginibre-mixed", seed)))
        except AssertionError:
            return
    pytest.fail(f"no seeded case caught the {name} mutant")
