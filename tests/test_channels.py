import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from discoh.channels import (
    ChannelMixture,
    KrausChannel,
    _draw_rank_one_ppio,
    _rank_one_stacks,
    classify,
    dephasing_channel,
    make_iuo,
    make_physically_free,
    make_rank_one_ppio,
    random_iuo,
    random_kraus_ops,
    random_physically_free,
    random_rank_one_ppio,
)
from discoh.discord import coherence_discord, ppio_monotonicity_gap
from discoh.linalg import apply_local
from discoh.states import (
    DensityMatrix, bell_phi_plus, classical_quantum, haar_unitary, random_cq_state, random_state,
    random_state_from, rng_from_seed,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def plain_dephase(m):
    return np.diag(np.diag(m))


def test_identity_channel_is_noop():
    chan = [np.eye(2)]
    rho = random_state(2, 1, "ginibre-mixed", seed=1)
    assert_allclose(apply_local(rho.mat, rho.dims, chan), rho.mat, atol=1e-12)


def test_full_dephasing_channel_matches_dephase():
    chan = dephasing_channel(2)
    rho = random_state(2, 1, "ginibre-mixed", seed=2)
    assert_allclose(apply_local(rho.mat, rho.dims, chan), plain_dephase(rho.mat), atol=1e-12)


def test_bit_flip_channel():
    chan = [PAULI_X]
    out = apply_local(np.diag([1.0, 0.0]).astype(complex), (2, 1), chan)
    assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


def test_kraus_validation_rejects_incomplete_set():
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel([np.diag([1.0, 0.0])])


def test_kraus_channel_rejects_non_square_operators():
    # an isometry C^2 -> C^3 is trace preserving, but no free operation
    # changes the dimension of its system
    with pytest.raises(ValueError, match="square"):
        KrausChannel([np.eye(3)[:, :2]])
    assert KrausChannel([np.eye(3)]).dim == 3


def test_make_iuo_identity_and_swap():
    ident = make_iuo([0, 1], [0.0, 0.0])
    assert ident.shape == (1, 2, 2)
    assert_allclose(ident[0], np.eye(2))
    swap = make_iuo([1, 0], [0.0, 0.0])
    rho = random_state(2, 1, "ginibre-mixed", seed=3)
    assert_allclose(apply_local(rho.mat, rho.dims, swap), PAULI_X @ rho.mat @ PAULI_X, atol=1e-12)


def test_make_iuo_preserves_diagonal_states():
    rng = np.random.default_rng(4)
    for _ in range(5):
        chan = make_iuo(rng.permutation(3), rng.uniform(0, 2 * np.pi, 3))
        d = rng.dirichlet(np.ones(3))
        out = apply_local(np.diag(d).astype(complex), (3, 1), chan)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12


def test_make_iuo_rejects_bad_permutation():
    with pytest.raises(ValueError, match="permutation"):
        make_iuo([0, 0], [0.0, 0.0])


@pytest.mark.parametrize("perm", [[0.7, 1.2], [True, False], [True, 0], np.array([1.0, 0.0])],
                         ids=repr)
def test_make_iuo_rejects_non_integer_permutations(perm):
    # a cast to int would make the first the identity and the second the swap
    with pytest.raises(ValueError, match="a permutation holds integers"):
        make_iuo(perm, [0.0, 0.0])


@pytest.mark.parametrize("perm", [[1, 0], (1, 0), np.array([1, 0]), np.array([1, 0], np.uint8)],
                         ids=repr)
def test_make_iuo_takes_integer_sequences_and_arrays(perm):
    assert np.array_equal(make_iuo(perm, [0.0, 0.0]), PAULI_X[None])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_iuo_rejects_non_finite_phases(bad):
    # a nan phase would pass into the stack, and an infinite one warns in exp
    with pytest.raises(ValueError, match="finite"):
        make_iuo([1, 0], [bad, 0.0])


# each raised a ZeroDivisionError, numpy's reshape, negative-dimension or float-size
# error, or (make_iuo on a 2-D permutation, dephasing_channel(0), haar_unitary(0)) returned
# an array that is no Kraus stack or unitary; the state samplers check dims before drawing
BAD_SIZES_AND_SHAPES = {
    "random_iuo dim 0": (lambda rng: random_iuo(0, rng), "dim must be an integer >= 1, got 0"),
    "random_rank_one_ppio dim 0": (lambda rng: random_rank_one_ppio(0, rng, 1), "dim must be"),
    "random_rank_one_ppio n 0": (lambda rng: random_rank_one_ppio(2, rng, 0), "n must be an"),
    "random_rank_one_ppio n -1": (lambda rng: random_rank_one_ppio(2, rng, -1), "n must be an"),
    "random_rank_one_ppio n 1.5": (lambda rng: random_rank_one_ppio(2, rng, 1.5), "n must be an"),
    "dephasing_channel dim 0": (lambda rng: dephasing_channel(0), "dim must be an integer >= 1"),
    "random_kraus_ops dim 2.5": (lambda rng: random_kraus_ops(2.5, 2, rng), "dim must be"),
    "random_kraus_ops n_ops 0": (lambda rng: random_kraus_ops(2, 0, rng), "n_ops must be"),
    "random_physically_free n_b_ops 0": (
        lambda rng: random_physically_free(2, 2, rng, n_b_ops=0), "n_b_ops must be"),
    "make_iuo 2-D": (lambda rng: make_iuo([[0, 1]], [[0.0, 0.0]]), "1-D sequence, got shape (1,"),
    "make_iuo empty": (lambda rng: make_iuo([], []), "non-empty 1-D sequence, got shape (0,)"),
    "haar_unitary dim 0": (lambda rng: haar_unitary(0, rng), "dim must be an integer >= 1, got 0"),
    "haar_unitary n -1": (lambda rng: haar_unitary(2, rng, -1),
                          "n must be an integer >= 0, got -1"),
    "random_state dims 2.0": (lambda rng: random_state(2.0, 2, "ginibre-mixed", 1),
                              "dims must be a pair of positive integers, got (2.0, 2)"),
    "random_state dims -1": (lambda rng: random_state(-1, 2, "ginibre-mixed", 1),
                             "dims must be a pair of positive integers, got (-1, 2)"),
    "random_state_from dims 0": (lambda rng: random_state_from(rng, 2, 0),
                                 "dims must be a pair of positive integers, got (2, 0)"),
    "random_cq_state dims 1.5": (lambda rng: random_cq_state(rng, 1.5, 2),
                                 "dims must be a pair of positive integers, got (1.5, 2)"),
}


@pytest.mark.parametrize("case", BAD_SIZES_AND_SHAPES)
def test_public_samplers_and_make_iuo_reject_bad_sizes_and_shapes(case):
    call, message = BAD_SIZES_AND_SHAPES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(rng_from_seed(0))


def test_rank_one_ppio_all_identity_is_dephasing():
    ops = make_rank_one_ppio([0, 1], [0.0, 0.0])
    assert np.array_equal(ops, dephasing_channel(2))
    rho = random_state(2, 1, "ginibre-mixed", seed=5)
    assert_allclose(apply_local(rho.mat, rho.dims, ops), plain_dephase(rho.mat), atol=1e-12)


def test_rank_one_ppio_dim3_level_swap_kraus_set():
    # the level-merging example: levels 0 and 1 both go to 1, level 2 stays
    ops = make_rank_one_ppio([1, 1, 2], [0.0, 0.0, 0.0])
    k0 = np.zeros((3, 3))
    k0[1, 0] = 1.0
    assert ops.shape == (3, 3, 3)
    assert_allclose(ops[0], k0)
    assert_allclose(ops[1], np.diag([0.0, 1.0, 0.0]))
    assert_allclose(ops[2], np.diag([0.0, 0.0, 1.0]))
    # it merges the first two diagonal blocks
    rho = random_state(3, 1, "ginibre-mixed", seed=6)
    out = apply_local(rho.mat, rho.dims, ops)
    assert_allclose(out, np.diag([0.0, rho.mat[0, 0] + rho.mat[1, 1], rho.mat[2, 2]]), atol=1e-12)


def test_rank_one_ppio_output_always_incoherent():
    rng = np.random.default_rng(7)
    for _ in range(10):
        chan = random_rank_one_ppio(2, rng, 1)[0]
        rho = random_state(2, 1, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        out = apply_local(rho.mat, rho.dims, chan)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12


def test_rank_one_ppio_and_iuo_build_the_sampled_stacks():
    # a rank-one PPIO from its level map and phases is the sampler's scatter, merging or
    # not, and an IUO from a drawn permutation is random_iuo of the same draw
    for d in (1, 2, 3, 4):
        for s, injective in itertools.product(range(6), (False, True)):
            ((f,), (th,)) = _draw_rank_one_ppio(d, rng_from_seed(s), 1, injective)
            ops = make_rank_one_ppio(f, th)
            assert np.array_equal(ops, _rank_one_stacks(f, np.exp(1j * th)))
            assert np.array_equal(ops, random_rank_one_ppio(d, rng_from_seed(s), 1, injective)[0])
            if injective:
                assert np.array_equal(make_iuo(f, th), random_iuo(d, rng_from_seed(s)))


BAD_LEVEL_MAPS = {
    "level out of range": ([0, 3, 1], [0.0] * 3, "a level map takes values in range(3), got"),
    "negative level": ([0, -1], [0.0] * 2, "a level map takes values in range(2), got [0, -1]"),
    "float levels": ([0.0, 1.0], [0.0] * 2, "a level map holds integers"),
    "float array": (np.array([1.0, 0.0]), [0.0] * 2, "a level map holds integers"),
    "bool levels": ([True, False], [0.0] * 2, "a level map holds integers"),
    "2-D map": ([[0, 1]], [[0.0, 0.0]], "a level map is a non-empty 1-D sequence, got shape (1,"),
    "empty map": ([], [], "a level map is a non-empty 1-D sequence, got shape (0,)"),
    "short phases": ([0, 1, 1], [0.0] * 2, "phase vectors must be finite and of length 3"),
    "long phases": ([0, 1], [0.0] * 3, "phase vectors must be finite and of length 2"),
    "nan phase": ([0, 1], [np.nan, 0.0], "phase vectors must be finite and of length 2"),
}


@pytest.mark.parametrize("case", BAD_LEVEL_MAPS)
def test_rank_one_ppio_rejects_bad_level_maps_and_phases(case):
    level_map, phases, message = BAD_LEVEL_MAPS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        make_rank_one_ppio(level_map, phases)
    # make_iuo runs the same check, and also wants the map onto range(d)
    message = message.replace("a level map", "a permutation")
    with pytest.raises(ValueError, match=re.escape(message)):
        make_iuo(level_map, phases)


def test_ppio_coarse_projectors_not_rank_one():
    # P_0 = |0><0| + |1><1| and P_1 = |2><2|, each with the identity IUO
    ops = np.array([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])
    labels = classify(ops)
    assert "ppio" in labels
    assert "rank-one-ppio" not in labels


def test_ppio_all_rank_one_projectors():
    # K_j = U_j |j><j| with U_1 swapping levels 0 and 1 keeps e^{i th_j} at rows 0, 0, 2
    ops = np.zeros((3, 3, 3), dtype=complex)
    ops[[0, 1, 2], [0, 0, 2], [0, 1, 2]] = np.exp(1j * np.array([0.1, 0.5, 2.0]))
    assert classify(ops) == frozenset({"incoherent", "ppio", "rank-one-ppio"})


def test_builders_return_trace_preserving_stacks():
    stacks = [
        make_iuo([2, 0, 1], [0.1, 0.2, 0.3]),
        make_rank_one_ppio([1, 1, 2], [0.0, 0.4, 0.0]),
        dephasing_channel(3),
    ]
    for ops in stacks:
        assert ops.ndim == 3 and ops.shape[1:] == (3, 3)
        assert_allclose(KrausChannel(ops).ops, ops, rtol=0, atol=0)


def test_pio_mixture_of_two_ppios():
    # a PIO is a convex mixture of PPIOs: a ChannelMixture of their stacks, here
    # dephasing and the swap, kept checked and read-only
    one, other = dephasing_channel(2), [PAULI_X]
    pio = ChannelMixture((0.5, 0.5), [one, other])
    assert len(pio.components) == 2
    assert all(not c.flags.writeable for c in pio.components)
    rho = random_state(2, 1, "ginibre-mixed", seed=8)
    m, dims = rho.mat, rho.dims
    expected = 0.5 * apply_local(m, dims, one) + 0.5 * apply_local(m, dims, other)
    out = sum(w * apply_local(m, dims, c) for w, c in zip(pio.weights, pio.components))
    assert_allclose(out, expected, atol=1e-12)


def test_pio_weights_must_sum_to_one():
    one = dephasing_channel(2)
    with pytest.raises(ValueError, match="sum"):
        ChannelMixture((0.5, 0.4), (one, one))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.5])
def test_mixture_weights_must_be_finite_and_positive(bad):
    # nan <= 0 and abs(nan - 1) > 1e-10 are both false: a check built from
    # them alone lets a nan weight through to an all-nan output
    one = dephasing_channel(2)
    with pytest.raises(ValueError, match="finite and positive"):
        ChannelMixture((bad, 1.0), (one, one))


def test_mixture_components_must_share_one_dimension():
    with pytest.raises(ValueError, match="share dimensions"):
        ChannelMixture((0.5, 0.5), ([np.eye(2)], [np.eye(3)]))


def test_mixture_needs_a_component():
    message = "^weights and components must be equal-length and non-empty$"
    with pytest.raises(ValueError, match=message):
        ChannelMixture((), ())


def apply_free(u_a, b_ops, rho) -> DensityMatrix:
    """U_a (x) {B_j} on rho, from its checked factor stacks."""
    return DensityMatrix(apply_local(rho.mat, rho.dims, *make_physically_free(u_a, b_ops)),
                         rho.dims)


def joint(u_a, b_ops) -> np.ndarray:
    """The joint Kraus stack {U_a (x) B_j} on A (x) B."""
    return np.array([np.kron(u, b) for u in u_a for b in b_ops])


def test_physically_free_identity():
    u_a, b_ops = make_physically_free(np.eye(2)[None], [np.eye(2)])
    assert_allclose(u_a, np.eye(2)[None], rtol=0, atol=0)
    assert_allclose(b_ops, np.eye(2)[None], rtol=0, atol=0)
    rho = random_state(2, 2, "ginibre-mixed", seed=9)
    assert_allclose(apply_free(np.eye(2)[None], [np.eye(2)], rho).mat, rho.mat, atol=1e-12)


@pytest.mark.parametrize("d_a, d_b", [(1, 2), (2, 2), (3, 2), (2, 4)])
def test_physically_free_takes_the_sampled_factors(d_a, d_b):
    # the sampler's two stacks are the builder's input form, and come back bit for bit
    for s in range(4):
        u_a, b_ops = random_physically_free(d_a, d_b, rng_from_seed(s), n_b_ops=1 + s % 3)
        built = make_physically_free(u_a, b_ops)
        assert all(np.array_equal(x, y) for x, y in zip(built, (u_a, b_ops)))


def test_physically_free_depolarizing_b_keeps_cq_free():
    # U_a = I with a depolarizing-style B channel leaves the zero set fixed
    b_ops = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5 / 3) * PAULI_X,
             np.sqrt(0.5 / 3) * np.array([[0, -1j], [1j, 0]]),
             np.sqrt(0.5 / 3) * np.diag([1.0, -1.0])]
    cq = classical_quantum([0.3, 0.7], [PLUS, np.diag([0.2, 0.8])])
    out = apply_free(np.eye(2)[None], b_ops, cq)
    assert abs(coherence_discord(out)) < 1e-10


def test_physically_free_level_swap_permutes_cq():
    cq = classical_quantum([0.3, 0.7], [PLUS, np.diag([0.2, 0.8])])
    out = apply_free(PAULI_X[None], [np.eye(2)], cq)
    assert abs(coherence_discord(out)) < 1e-12
    expected = classical_quantum([0.7, 0.3], [np.diag([0.2, 0.8]), PLUS])
    assert_allclose(out.mat, expected.mat, atol=1e-12)


def test_physically_free_requires_complete_b_side():
    with pytest.raises(ValueError, match="B-side"):
        make_physically_free(np.eye(2)[None], [np.sqrt(0.5) * np.eye(2)])


def test_physically_free_requires_iuo_on_a():
    # a unitary that is not an IUO, a matrix that is not even unitary, two operators, and
    # an IUO given as a bare matrix, not as its one-operator stack
    message = "u_a must be a one-operator stack (1, d_a, d_a) of a phase-decorated permutation"
    for u_a in (HADAMARD[None], 2.0 * np.eye(2)[None], np.array([np.eye(2), PAULI_X]), PAULI_X):
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            make_physically_free(u_a, [np.eye(2)])
        assert f"got one of shape {np.shape(u_a)}" in str(err.value)


def test_classify_dephasing():
    assert classify(dephasing_channel(2)) == frozenset(
        {"incoherent", "ppio", "rank-one-ppio"}
    )


def test_classify_hadamard_is_coherent():
    assert classify([HADAMARD]) == frozenset()


def test_classify_iuo():
    labels = classify(make_iuo([1, 0], [0.3, 1.7]))
    # a unitary IUO is an m=1 PIO whose single projector is the identity,
    # which is full rank, so the rank-one label must not appear
    assert labels == frozenset({"incoherent", "iuo", "ppio"})


def test_classify_factorizable_free():
    rng = np.random.default_rng(10)
    ops = joint(*random_physically_free(2, 2, rng, n_b_ops=3))
    assert "physically-free" in classify(ops, dims=(2, 2))
    # remixing the Kraus set by a unitary keeps the common-IUO structure
    mix = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    remixed = [sum(mix[i, j] * ops[j] for j in range(3)) for i in range(3)]
    assert "physically-free" in classify(remixed, dims=(2, 2))


# The physically-free label in any Kraus representation, and what is not free: a
# coherent U_a has the rank-one realignment but fails the IUO test, and a mixture
# of two IUOs passes the IUO test on either one but has rank two.
def free_stack(dims, n_b_ops, seed):
    return joint(*random_physically_free(*dims, rng_from_seed(seed), n_b_ops=n_b_ops))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_classify_free_in_an_isometric_remix_into_more_operators(dims):
    ops = free_stack(dims, 2, 30 + sum(dims))
    w = random_kraus_ops(2, 3, rng_from_seed(31)).reshape(6, 2)  # an isometry C^2 -> C^6
    remixed = np.einsum("ij,jkl->ikl", w, ops)
    assert len(remixed) == 6 and "physically-free" in classify(remixed, dims=dims)


def test_classify_free_with_zero_operators_padded():
    ops = free_stack((3, 2), 3, 32)
    padded = np.concatenate([ops[:1], np.zeros((2, 6, 6)), ops[1:]])
    assert "physically-free" in classify(padded, dims=(3, 2))


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_classify_coherent_unitary_on_a_is_not_free(dims):
    rng = rng_from_seed(33)
    ops = joint(haar_unitary(dims[0], rng)[None], random_kraus_ops(dims[1], 2, rng))
    assert "physically-free" not in classify(ops, dims=dims)


@pytest.mark.parametrize("weight", [0.5, 0.8])
@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_classify_mixture_of_two_iuos_on_a_is_not_free(dims, weight):
    # a diagonal IUO and a cyclic shift are orthogonal, so at weight 0.8 the leading
    # realigned vector is the diagonal IUO, and only the rank test (s_2 = s_1 / 2)
    # tells the mixture from it
    rng, d_a = rng_from_seed(34), dims[0]
    b_ops = random_kraus_ops(dims[1], 2, rng)
    diagonal = make_iuo(np.arange(d_a), rng.uniform(0, 2 * np.pi, d_a))
    shift = make_iuo(np.roll(np.arange(d_a), 1), rng.uniform(0, 2 * np.pi, d_a))
    ops = np.concatenate([np.sqrt(weight) * joint(diagonal, b_ops),
                          np.sqrt(1 - weight) * joint(shift, b_ops)])
    assert "physically-free" not in classify(ops, dims=dims)


def test_classify_free_edges_of_one_dimensional_sides():
    # every channel on B is free with nothing on A, and an operator on A alone is
    # free exactly when it is an IUO
    b_ops = random_kraus_ops(3, 2, rng_from_seed(35))
    assert "physically-free" in classify(b_ops, dims=(1, 3))
    assert "physically-free" in classify(make_iuo([2, 0, 1], [0.1, 0.2, 0.3]), dims=(3, 1))
    assert "physically-free" not in classify(dephasing_channel(2), dims=(2, 1))
    assert "physically-free" not in classify([HADAMARD], dims=(2, 1))


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 3), (3, 3)])
def test_classify_free_needs_dims_that_fit_the_stack(dims):
    assert "physically-free" not in classify(free_stack((2, 2), 2, 36), dims=dims)


@pytest.mark.parametrize("dims", [(2.5, 2), (True, 4), (4,), (0, 4)], ids=repr)
def test_classify_rejects_dims_that_are_no_pair_of_sizes(dims):
    # a split that is no pair of sizes is an input error, as in DensityMatrix
    with pytest.raises(ValueError, match="dims must be a pair of positive integers"):
        classify(free_stack((2, 2), 2, 36), dims=dims)


def test_classify_ppio_needs_nonzero_operators_on_disjoint_columns():
    # a zero operator, or two operators sharing a column, make an incoherent
    # channel but not a PPIO; shared columns hold no unit-modulus entries,
    # since two such entries in one column would break trace preservation
    padded = [*dephasing_channel(2), np.zeros((2, 2))]
    assert classify(padded) == frozenset({"incoherent"})
    shared = [np.eye(2) / np.sqrt(2.0)] * 2
    assert classify(shared) == frozenset({"incoherent"})
    with pytest.raises(ValueError, match="not trace preserving"):
        classify([np.eye(2)] * 2)


def test_classify_non_factorizable():
    rng = np.random.default_rng(11)
    ops = random_kraus_ops(4, 2, rng)
    assert "physically-free" not in classify(ops, dims=(2, 2))
    # dephasing A by {I, Z}: each operator has the IUO pattern, but no single
    # U_a serves both (the second one's blocks have the opposite ratio)
    ops = [np.kron(np.eye(2), np.eye(2)), np.kron(np.diag([1.0, -1.0]), np.eye(2))]
    assert "physically-free" not in classify([k / np.sqrt(2.0) for k in ops], dims=(2, 2))


def test_classify_in_rotated_frame():
    # dephasing conjugated into the Hadamard frame is incoherent w.r.t. it:
    # the stack rotated back, F† K F, carries the labels in that frame
    ops = HADAMARD @ dephasing_channel(2) @ HADAMARD.conj().T
    assert "rank-one-ppio" in classify(HADAMARD.conj().T @ ops @ HADAMARD)
    assert "rank-one-ppio" not in classify(ops)


def test_incoherent_channels_preserve_diagonals():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ops = random_rank_one_ppio(3, rng, 1)[0]
        assert "incoherent" in classify(ops)
        d = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        for k in ops:
            out = k @ d @ k.conj().T
            assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-10


def test_apply_local_dephasing_on_a_is_dephase_local():
    rho = random_state(2, 2, "ginibre-mixed", seed=13)
    from discoh.linalg import dephase_local

    out = apply_local(rho.mat, rho.dims, dephasing_channel(2))
    assert_allclose(out, dephase_local(rho.mat, (2, 2)), atol=1e-12)


def test_product_channel_matches_its_joint_kraus_set():
    # U_a (x) {B_j} from its factors, and as its joint stack on A (x) B: the
    # channel on the one system of dims (6, 1)
    rng = np.random.default_rng(14)
    u_a, b_ops = random_physically_free(2, 3, rng, n_b_ops=2)
    rho = random_state(2, 3, "ginibre-mixed", seed=14)
    assert_allclose(apply_local(rho.mat, rho.dims, u_a, b_ops),
                    apply_local(rho.mat, (6, 1), joint(u_a, b_ops)), atol=1e-12)


def test_keeping_the_zero_set_does_not_make_a_channel_physically_free():
    # Theorem 3 as the suite checks it runs one way: U_a (x) {B_j} keeps the zero set.
    # The converse fails: reset of A, a rank-one PPIO, keeps every sampled cq state at
    # dac = 0 exactly, yet {K_n (x) 1} is no U_a (x) {B_j}, since no mixture of unitaries
    # on A sends 1/2 to |0><0|
    reset = make_rank_one_ppio([0, 0], [0.0, 0.0])
    rng = rng_from_seed(3)
    for _ in range(200):
        rho = random_cq_state(rng, 2, 2)
        assert coherence_discord(DensityMatrix(apply_local(rho.mat, rho.dims, reset), (2, 2))) == 0
    assert classify(joint(reset, np.eye(2)[None]), dims=(2, 2)) == {"incoherent", "ppio"}


@pytest.mark.parametrize("side", ["a", "b"])
def test_apply_local_names_the_side_of_a_mismatched_stack(side):
    # a 2x2 stack on the 3-dimensional side of a 3x2 (or 2x3) state, and a
    # bare 2-D matrix, which is no stack at all
    dims = (3, 2) if side == "a" else (2, 3)
    m = random_state(*dims, "ginibre-mixed", seed=15).mat
    for ops in (np.eye(2)[None], np.eye(3)):
        with pytest.raises(ValueError) as err:
            apply_local(m, dims, **{f"ops_{side}": ops})
        message = str(err.value)
        assert f"side {side.upper()} of dims {dims}" in message
        assert "(..., n, 3, 3)" in message and str(ops.shape) in message


def test_apply_local_names_the_shape_of_a_state_that_does_not_fit():
    # a 6x6 matrix is no state of dims (2, 2); numpy's reshape error said so before
    with pytest.raises(ValueError) as err:
        apply_local(np.eye(6) / 6, (2, 2), dephasing_channel(2))
    assert "dims (2, 2) must be (..., 4, 4), got shape (6, 6)" in str(err.value)


def test_apply_local_takes_a_list_of_kraus_matrices():
    m = random_state(2, 3, "ginibre-mixed", seed=16).mat
    ops_a, ops_b = random_physically_free(2, 3, rng_from_seed(16), n_b_ops=2)
    as_lists = apply_local(m, (2, 3), list(ops_a), [op.tolist() for op in ops_b])
    assert np.array_equal(as_lists, apply_local(m, (2, 3), ops_a, ops_b))


def test_a_kraus_channel_is_not_taken_for_its_stack():
    # every entry point checks its stack through KrausChannel, which names the fix
    chan = KrausChannel(dephasing_channel(2))
    for call in (lambda: KrausChannel(chan), lambda: classify(chan),
                 lambda: ppio_monotonicity_gap(bell_phi_plus(), chan),
                 lambda: ChannelMixture([0.5, 0.5], [chan, chan])):
        with pytest.raises(TypeError, match=r"pass its \.ops"):
            call()
    assert "rank-one-ppio" in classify(chan.ops)


def test_apply_local_on_a_trivial_b_is_the_kraus_sum():
    # a channel on one system is the local channel on A of dims (d, 1), and a PIO's
    # output is the weighted sum of its components' outputs: both are sum_n K_n m K_n†
    rng = rng_from_seed(17)
    for d in (2, 3, 4, 6):
        m = random_state_from(rng, d, 1).mat
        ops, other = random_kraus_ops(d, 2, rng), random_kraus_ops(d, 3, rng)

        def kraus_sum(k):
            return (k @ m @ k.conj().swapaxes(-1, -2)).sum(axis=0)

        assert_allclose(apply_local(m, (d, 1), ops), kraus_sum(ops), rtol=0, atol=1e-15)
        pio = ChannelMixture([0.25, 0.75], [ops, other])
        out = sum(w * apply_local(m, (d, 1), c) for w, c in zip(pio.weights, pio.components))
        assert_allclose(out, 0.25 * kraus_sum(ops) + 0.75 * kraus_sum(other), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# The direct samplers, certified by classify, and the local kernel against the
# kron(K, 1_B) / kron(U_a, B_j) formula.
# ---------------------------------------------------------------------------


def merges(ops) -> bool:
    """Does the rank-one PPIO send two levels to one?"""
    rows = np.abs(ops).sum(axis=0).argmax(axis=0)  # level j goes to row rows[j]
    return len(set(rows.tolist())) < len(rows)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sampled_rank_one_ppios_are_certified(d):
    rng = rng_from_seed(200 + d)
    merging = 0
    for injective in (True, False):
        for ops in random_rank_one_ppio(d, rng, 80, injective):
            assert "rank-one-ppio" in classify(ops)
            assert not (injective and merges(ops))
            merging += merges(ops)
    assert merging > 0


def test_rank_one_ppio_stack_draws_as_single_samples_do():
    for injective in (True, False):
        one, many = rng_from_seed(21), rng_from_seed(21)
        singles = [random_rank_one_ppio(3, one, 1, injective)[0] for _ in range(5)]
        assert_allclose(random_rank_one_ppio(3, many, 5, injective), singles, rtol=0, atol=0)
        assert one.integers(1 << 62) == many.integers(1 << 62)  # the same draws were used


# random_rank_one_ppio(3, rng_from_seed(2016), 2, injective): the (sample, level,
# row) of each nonzero entry, and its value.  A sampler that draws differently,
# or in another order, moves them.
RECORDED_PPIOS = {
    False: ([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [2, 1, 2, 0, 1, 0], [
        -0.956439053564743 + 0.291932075689155j, 0.9550440809935925 + 0.29646383145183897j,
        -0.3902408475415226 - 0.9207128113098427j, 0.36319863095864324 - 0.931711733568794j,
        -0.029608524325521766 + 0.9995615715338725j, -0.5254591328855076 + 0.8508188406865532j]),
    True: ([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [1, 0, 2, 0, 2, 1], [
        -0.956439053564743 + 0.291932075689155j, 0.9550440809935925 + 0.29646383145183897j,
        -0.3902408475415226 - 0.9207128113098427j, 0.36319863095864324 - 0.931711733568794j,
        -0.029608524325521766 + 0.9995615715338725j, -0.5254591328855076 + 0.8508188406865532j]),
}


@pytest.mark.parametrize("injective", [False, True])
def test_rank_one_ppio_stacks_are_the_recorded_draws(injective):
    ops = random_rank_one_ppio(3, rng_from_seed(2016), 2, injective)
    sample, level, row, col = np.nonzero(ops)
    want_sample, want_level, want_row, want_values = RECORDED_PPIOS[injective]
    assert sample.tolist() == want_sample and level.tolist() == want_level
    assert row.tolist() == want_row and col.tolist() == want_level
    assert ops[sample, level, row, col].tolist() == want_values


def one_call_draw(rng, n, injective, fault=None):
    """The d = 3 PPIO draw's layout, with an optional fault: one rng.random call, and per
    sample 3 uniforms keying the level map (floor(3 u), or a stable argsort if injective),
    then 3 uniforms that 2pi scales to the phases."""
    u = rng.random((n, 6))
    keys = {"constant key": np.zeros((n, 3)), "one key for all levels": u[:, :1].repeat(3, 1)}
    keys = keys.get(fault, u[:, :3])
    maps = keys.argsort(kind="stable") if injective else (3 * keys).astype(int)
    return maps, (np.pi if fault == "phases times pi" else 2.0 * np.pi) * u[:, 3:]


def uniformity_misses(maps, phases, injective):
    """The checks that d = 3 draws (n, 3) fail: the chi-square of the counts of the 6
    permutations (5 degrees of freedom; 20.5 is the 0.1% point), or of all 27 level maps
    if not injective (26; 54.1), then the range [0, 2pi) of the phases and their mean, pi
    within 5 standard errors."""
    cells = list(itertools.permutations(range(3)) if injective
                 else itertools.product(range(3), repeat=3))
    codes, n = maps @ [9, 3, 1], len(maps)
    counts = np.array([np.count_nonzero(codes == np.dot(c, [9, 3, 1])) for c in cells])
    misses = []
    if ((counts - n / len(cells)) ** 2).sum() / (n / len(cells)) > (20.5 if injective else 54.1):
        misses.append(f"map counts {counts.tolist()}")
    if not 0.0 <= phases.min() <= phases.max() < 2.0 * np.pi:
        misses.append("phase range")
    if abs(phases.mean() - np.pi) > 5 * 2.0 * np.pi / np.sqrt(12 * phases.size):
        misses.append(f"phase mean {phases.mean():.4f}")
    return misses


@pytest.mark.parametrize("injective", [True, False])
def test_one_call_ppio_draws_are_uniform(injective):
    # derandomized: 6000 draws of one seed, and the same layout with three faults
    draws = _draw_rank_one_ppio(3, rng_from_seed(3003), 6000, injective)
    layout = one_call_draw(rng_from_seed(3003), 6000, injective)
    assert all(np.array_equal(a, b) for a, b in zip(draws, layout))
    assert uniformity_misses(*draws, injective) == []
    for fault in ("constant key", "one key for all levels", "phases times pi"):
        draw = one_call_draw(rng_from_seed(3003), 6000, injective, fault)
        assert uniformity_misses(*draw, injective), fault
    # an IUO is the sum of a non-merging PPIO's operators, from the same draw
    maps, phases = _draw_rank_one_ppio(3, rng_from_seed(3004), 1, True)
    want = _rank_one_stacks(maps, np.exp(1j * phases)).sum(axis=1)
    assert np.array_equal(random_iuo(3, rng_from_seed(3004)), want)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_sampled_physically_free_channels_are_certified(dims):
    rng = rng_from_seed(210 + sum(dims))
    for n_b_ops in (1, 2, 3) * 20:
        u_a, b_ops = random_physically_free(*dims, rng, n_b_ops=n_b_ops)
        assert u_a.shape == (1, dims[0], dims[0]) and b_ops.shape == (n_b_ops, dims[1], dims[1])
        assert "physically-free" in classify(joint(u_a, b_ops), dims=dims)


@pytest.mark.parametrize("n_ops", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_sampled_kraus_isometries_are_haar(d, n_ops):
    # LAPACK's Q alone has Re V[0, 0] < 0 in every draw; with R's diagonal phases
    # moved into Q the sign is a fair coin, as for a Haar isometry
    rng = rng_from_seed(50 + 3 * d + n_ops)
    first = np.array([random_kraus_ops(d, n_ops, rng)[0, 0, 0] for _ in range(2000)])
    assert 0.45 <= np.mean(first.real < 0) <= 0.55
    # a Haar unitary is the one-operator case, from the same draws
    one, other = rng_from_seed(d), rng_from_seed(d)
    assert np.array_equal(random_kraus_ops(d, 1, one)[0], haar_unitary(d, other))


def test_physically_free_stacks_draw_as_random_physically_free_does():
    # the IUO on A is drawn first, then the channel on B
    for dims in [(2, 2), (2, 3), (3, 2)]:
        for n_b_ops in (1, 2, 3):
            rngs = [rng_from_seed(23 + n_b_ops) for _ in range(2)]
            u_a, b_ops = random_physically_free(*dims, rngs[0], n_b_ops=n_b_ops)
            iuo, kraus = random_iuo(dims[0], rngs[1]), random_kraus_ops(dims[1], n_b_ops, rngs[1])
            assert np.array_equal(u_a, iuo) and np.array_equal(b_ops, kraus)
            assert "iuo" in classify(u_a)
            assert len({int(rng.integers(1 << 62)) for rng in rngs}) == 1


def kron_reference(m, ops_a, ops_b):
    """sum_ij (K_i (x) L_j) m (K_i (x) L_j)†, the lifted operators formed."""
    out = np.zeros_like(m)
    for k in ops_a:
        for b in ops_b:
            big = np.kron(k, b)
            out += big @ m @ big.conj().T
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_apply_local_matches_the_kron_formula(dims):
    d_a, d_b = dims
    rng = rng_from_seed(220 + d_a * d_b)
    m = random_state(d_a, d_b, "ginibre-mixed", seed=d_a * d_b).mat
    eye_b = np.eye(d_b)[None]
    # one channel on A
    ppio = random_rank_one_ppio(d_a, rng, 1)[0]
    assert_allclose(apply_local(m, dims, ppio), kron_reference(m, ppio, eye_b), atol=1e-12)
    general = random_kraus_ops(d_a, 3, rng)
    assert_allclose(apply_local(m, dims, general), kron_reference(m, general, eye_b), atol=1e-12)
    # a stack of channels on A
    stack = random_rank_one_ppio(d_a, rng, 7, injective=True)
    expected = [kron_reference(m, ops, eye_b) for ops in stack]
    assert_allclose(apply_local(m, dims, stack), expected, atol=1e-12)
    # a channel on B alone, and U_a (x) {B_j} given as its two factors
    b_ops = random_kraus_ops(d_b, 2, rng)
    assert_allclose(
        apply_local(m, dims, ops_b=b_ops), kron_reference(m, np.eye(d_a)[None], b_ops),
        atol=1e-12,
    )
    u_a, b_ops = random_physically_free(d_a, d_b, rng, n_b_ops=3)
    assert_allclose(
        apply_local(m, dims, u_a, b_ops),
        kron_reference(m, u_a, b_ops),
        atol=1e-12,
    )


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_apply_local_on_a_stack_of_states_is_the_per_state_loop(dims):
    # states (n, d, d) against channels stacked per state, or shared by all
    d_a, d_b = dims
    rng = rng_from_seed(230 + d_a * d_b)
    mats = np.array([random_state(d_a, d_b, "ginibre-mixed", seed=s).mat for s in range(5)])
    u_a = np.array([random_iuo(d_a, rng) for _ in mats])
    b_ops = np.array([random_kraus_ops(d_b, 2, rng) for _ in mats])
    loop = [apply_local(m, dims, a, b) for m, a, b in zip(mats, u_a, b_ops)]
    assert np.array_equal(apply_local(mats, dims, u_a, b_ops), loop)
    ppios = random_rank_one_ppio(d_a, rng, 15).reshape(5, 3, d_a, d_a, d_a)
    loop = [apply_local(m, dims, ops) for m, ops in zip(mats, ppios)]
    assert np.array_equal(apply_local(mats[:, None], dims, ppios), loop)
    shared = random_kraus_ops(d_a, 2, rng)
    loop = [apply_local(m, dims, shared) for m in mats]
    assert np.array_equal(apply_local(mats, dims, shared), loop)
