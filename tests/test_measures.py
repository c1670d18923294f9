import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from discoh.channels import apply, dephasing_channel, random_physically_free
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
    ReferenceBasis,
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


# ---------------------------------------------------------------------------
# One state check: a plain matrix is validated on entry, a DensityMatrix is not
# checked or decomposed again
# ---------------------------------------------------------------------------

ENTRY_POINTS = {
    "entropy": entropy,
    "relative_entropy(rho)": lambda m: relative_entropy(m, np.eye(2) / 2),
    "relative_entropy(sigma)": lambda m: relative_entropy(np.eye(2) / 2, m),
    "coherence_rel_ent": coherence_rel_ent,
    "l1_coherence": l1_coherence,
    "classical_quantum": lambda m: classical_quantum([0.5, 0.5], [m, np.eye(2) / 2]),
    "apply": lambda m: apply(dephasing_channel(2), m),
}
INVALID_STATES = {
    "non-Hermitian": (np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian"),
    "trace 1.5": (np.diag([0.75, 0.75]), r"trace = 1\.5 exceeds tolerance"),
    "negative eigenvalue": (np.diag([1.1, -0.1]), "negative eigenvalue"),
}


@pytest.mark.parametrize("case", INVALID_STATES)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_plain_matrices_are_validated_on_entry(name, case):
    m, message = INVALID_STATES[case]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[name](m)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_plain_state_must_be_square(name):
    with pytest.raises(ValueError, match="square"):
        ENTRY_POINTS[name](np.ones((2, 3)) / 3)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_density_matrix_argument_is_not_decomposed_again(monkeypatch, name):
    rho = DensityMatrix(np.array([[0.7, 0.3j], [-0.3j, 0.3]]), (1, 2))
    eigvalsh, seen = np.linalg.eigvalsh, []

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    ENTRY_POINTS[name](rho)
    assert not any(a.shape == rho.mat.shape and np.array_equal(a, rho.mat) for a in seen)


def test_a_plain_state_gives_the_bits_of_its_density_matrix():
    m = random_state(2, 3, "ginibre-mixed", seed=12).mat
    rho, sigma = DensityMatrix(m, (2, 3)), random_state(2, 3, "ginibre-mixed", seed=13)
    for fn in (entropy, coherence_rel_ent, l1_coherence):
        assert fn(m) == fn(rho)
    assert relative_entropy(m, sigma.mat) == relative_entropy(rho, sigma)


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
        assert abs(rep.C_r_ab - coherence_rel_ent(rho)) < 1e-9


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_report_fields_equal_their_functions_bit_for_bit(d_a, d_b):
    # one product of the table with every field's sign vector summed I_co in another
    # order than correlated_coherence, and on 27 of these 450 the last bits differed
    rng = np.random.default_rng(100 * d_a + d_b)
    for _ in range(25):
        rho = random_state(d_a, d_b, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        for fa, fb in ((None, None), (haar_unitary(d_a, rng), haar_unitary(d_b, rng))):
            rep = MeasureReport.compute(rho, fa, fb)
            assert rep.I_co == correlated_coherence(rho, fa, fb)
            assert rep.I == mutual_information(rho)
            assert rep.C_r_upper == cq_coherence(rho, fa)


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


def closed_forms(fa, fb):
    """Each public closed form of one state, by name, in the frames fa and fb."""
    from discoh.discord import coherence_discord, coherence_discord_symmetric

    return {
        "MeasureReport": lambda rho: MeasureReport.compute(rho, fa, fb).to_dict(),
        "coherence_discord": lambda rho: coherence_discord(rho, fa),
        "coherence_discord_symmetric": lambda rho: coherence_discord_symmetric(rho, fa, fb),
        "correlated_coherence": lambda rho: correlated_coherence(rho, fa, fb),
        "cq_coherence": lambda rho: cq_coherence(rho, fa),
        "mutual_information": mutual_information,
    }


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (8, 8)])
@pytest.mark.parametrize("framed", [False, True])
def test_measures_never_decompose_the_full_state(monkeypatch, dims, framed):
    # each closed form reads one entropy table: rho_a, and rho_b stacked with
    # the conditional blocks, are decomposed once each.  The state keeps the
    # table, so a repeat in the same frames decomposes nothing, and a new
    # frame pair builds its own table.
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
    d = rho.dim
    for name, call in closed_forms(fa, fb).items():
        fresh = DensityMatrix(rho.mat, rho.dims)
        shapes.clear()
        call(fresh)
        assert len(shapes) == 2, (name, shapes)
        assert all(shape[-2:] != (d, d) for shape in shapes), (name, shapes)
        shapes.clear()
        call(fresh)
        assert shapes == [], (name, shapes)
    shapes.clear()
    correlated_coherence(fresh, haar_unitary(dims[0], rng), haar_unitary(dims[1], rng))
    assert len(shapes) == 2 and all(shape[-2:] != (d, d) for shape in shapes), shapes


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_kept_tables_give_a_fresh_states_values(dims):
    # a warm state answers every closed form bit for bit as a fresh one does,
    # with no frames, raw frame arrays, or the same frames as ReferenceBasis
    rho, rng = seeded_state(dims, 3, 7 + sum(dims))
    fa, fb = haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)
    frame_sets = [(None, None), (fa, fb), (ReferenceBasis(fa), ReferenceBasis(fb)), (fa, None)]
    for frames in frame_sets * 2:  # the second pass reads kept tables only
        for name, call in closed_forms(*frames).items():
            assert call(rho) == call(DensityMatrix(rho.mat, rho.dims)), (name, frames)


def test_a_frame_changed_in_place_gets_its_own_table():
    # the memo keys on a frame's content: an id()-keyed memo would return the
    # old frame's value here
    rho, rng = seeded_state((2, 2), 4, 11)
    fa, other = haar_unitary(2, rng), haar_unitary(2, rng)
    before = correlated_coherence(rho, fa)
    fa[...] = other
    after = correlated_coherence(rho, fa)
    assert after == correlated_coherence(DensityMatrix(rho.mat, rho.dims), other)
    assert after != before


def count_calls(monkeypatch, owner_names):
    """Record the shape of each call's first argument to each (owner, name) pair."""
    calls = []
    for owner, name in owner_names:
        def counting(a, *args, _original=getattr(owner, name), **kwargs):
            calls.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def count_decompositions(monkeypatch):
    return count_calls(monkeypatch, [(np.linalg, "eigvalsh"), (np.linalg, "eigh")])


def count_unitarity_checks(monkeypatch):
    import discoh.linalg
    import discoh.measures

    return count_calls(monkeypatch, [(m, "check_unitary") for m in (discoh.linalg, discoh.measures)])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_a_report_serves_what_reads_only_its_a_frame(monkeypatch, dims):
    # dac and cq_coherence read no row through the B frame, and I none through
    # either frame: after a framed report they read its table, decompose nothing,
    # check no frame again, and give a fresh state's bits; I_co reads H_ab and H_b
    # through the B frame, and cq_coherence S_union through the A frame
    from discoh.discord import coherence_discord

    rho, rng = seeded_state(dims, 2, 17 + sum(dims))
    fa, fb = haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)
    quantities = (lambda r: coherence_discord(r, fa), lambda r: cq_coherence(r, fa),
                  mutual_information)
    want = [f(DensityMatrix(rho.mat, rho.dims)) for f in quantities]
    checks, eig = count_unitarity_checks(monkeypatch), count_decompositions(monkeypatch)
    MeasureReport.compute(rho, fa, fb)
    assert len(checks) == 2 and len(eig) == 2
    checks.clear()
    eig.clear()
    assert [f(rho) for f in quantities] == want
    assert checks == [] and eig == []
    assert rho._kept[0] == (fa.tobytes(), fb.tobytes())
    # a quantity that reads a row through a frame the report used builds its own table
    others = (lambda r: correlated_coherence(r, fa), cq_coherence)
    want = [f(DensityMatrix(rho.mat, rho.dims)) for f in others]
    eig.clear()
    assert [f(rho) for f in others] == want
    assert len(eig) == 4 and rho._kept[0] == (None, None)


def test_each_row_reads_a_kept_table_only_where_its_frames_match():
    # each row alone, read on a state that keeps one table in other frames, is a
    # fresh state's: the table serves it only if no frame it depends on differs
    from discoh.measures import _ROWS, _quantity, _signs

    rho, rng = seeded_state((2, 3), 3, 29)
    fa, fb = haar_unitary(2, rng), haar_unitary(3, rng)
    pairs = [(None, None), (fa, None), (None, fb), (fa, fb)]
    for kept, asked in ((k, a) for k in pairs for a in pairs):
        for row in _ROWS:
            warm = DensityMatrix(rho.mat, rho.dims)
            MeasureReport.compute(warm, *kept)
            fresh = DensityMatrix(rho.mat, rho.dims)
            signs = _signs(**{row: 1})
            assert _quantity(warm, signs, *asked) == _quantity(fresh, signs, *asked), (row, asked)


def test_a_kept_frame_is_not_checked_again_and_a_new_one_is(monkeypatch):
    # a frame whose bytes key a kept table passed the check when it was built;
    # any other frame is checked, whatever the state keeps
    from discoh.discord import coherence_discord

    rho, rng = seeded_state((2, 3), 3, 19)
    fa, fb = haar_unitary(2, rng), haar_unitary(3, rng)
    checks = count_unitarity_checks(monkeypatch)
    correlated_coherence(rho, fa, fb)
    assert checks == [(2, 2), (3, 3)]
    checks.clear()
    correlated_coherence(rho, fa.copy(), fb)
    correlated_coherence(rho, fa, None)  # a new pair, but fa is known
    assert checks == []
    for call in (lambda: correlated_coherence(rho, 1.1 * fa, fb),
                 lambda: MeasureReport.compute(rho, fa, 1.1 * fb),
                 lambda: coherence_discord(rho, 1.1 * fa)):
        with pytest.raises(ValueError, match="^frame is not unitary: max"):
            call()
    assert len(checks) == 3


def test_a_reference_basis_is_not_checked_again(monkeypatch):
    rho, rng = seeded_state((3, 3), 4, 23)
    b = ReferenceBasis(haar_unitary(3, rng))
    checks = count_unitarity_checks(monkeypatch)
    values = [correlated_coherence(rho, b, b) for _ in range(3)]
    assert checks == []
    assert values == [correlated_coherence(DensityMatrix(rho.mat, rho.dims), b.frame, b.frame)] * 3
    with pytest.raises(ValueError, match=r"basis frame is \(3, 3\), expected \(2, 2\)"):
        correlated_coherence(seeded_state((2, 2), 2, 1)[0], b)


def test_kept_tables_stay_few_and_read_only():
    # the state keeps one pair, keyed by the last frames that built a table: a
    # quantity the kept table serves leaves it in place
    rho, rng = seeded_state((2, 3), 6, 12)
    for _ in range(10):
        fa = haar_unitary(2, rng)
        correlated_coherence(rho, fa)
        key, tables = rho._kept
        assert key == (fa.tobytes(), None)
        mutual_information(rho)
        assert rho._kept[0] == key and rho._kept[1] is tables
    for a in tables:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_one_quantity_in_alternating_frames_gives_a_fresh_states_values(dims):
    # each closed form in turn, its frames alternating call by call, so every call
    # finds the kept table built in the frames before
    rho, rng = seeded_state(dims, 3, 31 + sum(dims))
    fa, fb = haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)
    frame_sets = [(fa, fb), (fa, None), (None, None)] * 3
    for name in closed_forms(None, None):
        for frames in frame_sets:
            call = closed_forms(*frames)[name]
            assert call(rho) == call(DensityMatrix(rho.mat, rho.dims)), (name, frames)


def test_threads_sharing_a_state_read_whole_tables():
    # more threads than cores, switching often, each replacing the one kept pair:
    # each value must be the fresh state's, whatever the interleaving
    from discoh.measures import _I_CO

    rho, rng = seeded_state((2, 3), 6, 13)
    pairs = [(haar_unitary(2, rng), haar_unitary(3, rng)) for _ in range(6)]
    want = [correlated_coherence(DensityMatrix(rho.mat, rho.dims), *p) for p in pairs]
    wrong, n_threads = [], 6

    def work(k):
        for i in range(60):
            j = (i + k) % len(pairs)
            if correlated_coherence(rho, *pairs[j]) != want[j]:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    # the pair left kept is whole: its table is its key's
    key, (h, _, _) = rho._kept
    j = [(a.tobytes(), b.tobytes()) for a, b in pairs].index(key)
    assert h @ _I_CO == want[j]


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
    from discoh.measures import _DAC, _I_CO, _MI, _closed_form, _quantity

    states = [random_state(*dims, "ginibre-mixed", seed=50 + s) for s in range(6)]
    mats = np.stack([rho.mat for rho in states]).reshape(3, 2, *states[0].mat.shape)
    spectra = np.stack([rho.spectrum for rho in states]).reshape(3, 2, -1)
    for signs in (_I_CO, _DAC, _MI):
        want = [_quantity(rho, signs) for rho in states]
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
