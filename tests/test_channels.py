import numpy as np
import pytest
from numpy.testing import assert_allclose

from discoh.channels import (
    ChannelMixture,
    KrausChannel,
    PIOSpec,
    PPIOSpec,
    apply,
    classify,
    dephasing_channel,
    lift_to_bipartite,
    make_iuo,
    make_physically_free,
    make_pio,
    make_ppio,
    make_rank_one_ppio,
    random_kraus_ops,
    random_physically_free,
    random_rank_one_ppio,
)
from discoh.discord import coherence_discord
from discoh.linalg import dephase
from discoh.states import classical_quantum, random_state

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_identity_channel_is_noop():
    chan = KrausChannel([np.eye(2)])
    rho = random_state(2, 1, "ginibre-mixed", seed=1)
    assert_allclose(apply(chan, rho).mat, rho.mat, atol=1e-12)


def test_full_dephasing_channel_matches_dephase():
    chan = dephasing_channel(2)
    rho = random_state(2, 1, "ginibre-mixed", seed=2)
    assert_allclose(apply(chan, rho).mat, dephase(rho.mat), atol=1e-12)


def test_bit_flip_channel():
    chan = KrausChannel([PAULI_X])
    out = apply(chan, np.diag([1.0, 0.0]).astype(complex))
    assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


def test_kraus_validation_rejects_incomplete_set():
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel([np.diag([1.0, 0.0])])


def test_apply_dimension_mismatch():
    chan = KrausChannel([np.eye(2)])
    with pytest.raises(ValueError, match="dimension"):
        apply(chan, np.eye(3) / 3)


def test_make_iuo_identity_and_swap():
    ident = make_iuo([0, 1], [0.0, 0.0])
    assert_allclose(ident.ops[0], np.eye(2))
    swap = make_iuo([1, 0], [0.0, 0.0])
    rho = random_state(2, 1, "ginibre-mixed", seed=3)
    assert_allclose(apply(swap, rho).mat, PAULI_X @ rho.mat @ PAULI_X, atol=1e-12)


def test_make_iuo_preserves_diagonal_states():
    rng = np.random.default_rng(4)
    for _ in range(5):
        chan = make_iuo(rng.permutation(3), rng.uniform(0, 2 * np.pi, 3))
        d = rng.dirichlet(np.ones(3))
        out = apply(chan, np.diag(d).astype(complex))
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12


def test_make_iuo_rejects_bad_permutation():
    with pytest.raises(ValueError, match="permutation"):
        make_iuo([0, 0], [0.0, 0.0])


def test_rank_one_ppio_all_identity_is_dephasing():
    chan = make_rank_one_ppio(2, [np.eye(2), np.eye(2)])
    rho = random_state(2, 1, "ginibre-mixed", seed=5)
    assert_allclose(apply(chan, rho).mat, dephase(rho.mat), atol=1e-12)


def test_rank_one_ppio_dim3_level_swap_kraus_set():
    # the level-merging example: U_0 swaps levels 0 and 1, the rest identity
    u_swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    chan = make_rank_one_ppio(3, [u_swap, np.eye(3), np.eye(3)])
    k0 = np.zeros((3, 3))
    k0[1, 0] = 1.0
    assert_allclose(chan.ops[0], k0)
    assert_allclose(chan.ops[1], np.diag([0.0, 1.0, 0.0]))
    assert_allclose(chan.ops[2], np.diag([0.0, 0.0, 1.0]))
    # it merges the first two diagonal blocks
    rho = random_state(3, 1, "ginibre-mixed", seed=6)
    out = apply(chan, rho).mat
    assert_allclose(out, np.diag([0.0, rho.mat[0, 0] + rho.mat[1, 1], rho.mat[2, 2]]), atol=1e-12)


def test_rank_one_ppio_output_always_incoherent():
    rng = np.random.default_rng(7)
    for _ in range(10):
        chan = random_rank_one_ppio(2, rng)
        rho = random_state(2, 1, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        out = apply(chan, rho).mat
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12


def test_rank_one_ppio_requires_one_unitary_per_level():
    with pytest.raises(ValueError, match="unitaries"):
        make_rank_one_ppio(3, [np.eye(3)])


def test_rank_one_ppio_rejects_non_iuo():
    with pytest.raises(ValueError, match="permutation"):
        make_rank_one_ppio(2, [HADAMARD, np.eye(2)])


def test_ppio_coarse_projectors_not_rank_one():
    spec = PPIOSpec(
        dim=3,
        supports=((0, 1), (2,)),
        perms=((0, 1, 2), (0, 1, 2)),
        phases=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    )
    chan = make_ppio(spec)
    labels = classify(chan)
    assert "ppio" in labels
    assert "rank-one-ppio" not in labels


def test_ppio_all_rank_one_projectors():
    spec = PPIOSpec(
        dim=3,
        supports=((0,), (1,), (2,)),
        perms=((0, 1, 2), (1, 0, 2), (0, 1, 2)),
        phases=((0.1, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 2.0)),
    )
    labels = classify(make_ppio(spec))
    assert "rank-one-ppio" in labels


def test_ppio_spec_validation():
    with pytest.raises(ValueError, match="partition"):
        PPIOSpec(dim=3, supports=((0,), (2,)), perms=((0, 1, 2),) * 2,
                 phases=((0.0,) * 3,) * 2).validate()
    with pytest.raises(ValueError, match="disjoint"):
        PPIOSpec(dim=2, supports=((0, 1), (1,)), perms=((0, 1),) * 2,
                 phases=((0.0,) * 2,) * 2).validate()


def test_pio_mixture_of_two_ppios():
    one = PPIOSpec(dim=2, supports=((0,), (1,)), perms=((0, 1), (0, 1)),
                   phases=((0.0, 0.0), (0.0, 0.0)))
    other = PPIOSpec(dim=2, supports=((0, 1),), perms=((1, 0),),
                     phases=((0.0, 0.0),))
    pio = make_pio(PIOSpec(weights=(0.5, 0.5), components=(one, other)))
    assert pio.m == 2
    rho = random_state(2, 1, "ginibre-mixed", seed=8)
    expected = 0.5 * apply(make_ppio(one), rho).mat + 0.5 * apply(make_ppio(other), rho).mat
    assert_allclose(apply(pio, rho).mat, expected, atol=1e-12)


def test_pio_weights_must_sum_to_one():
    one = PPIOSpec(dim=2, supports=((0,), (1,)), perms=((0, 1), (0, 1)),
                   phases=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError, match="sum"):
        make_pio(PIOSpec(weights=(0.5, 0.4), components=(one, one)))


def test_physically_free_identity():
    chan = make_physically_free(np.eye(2), [np.eye(2)])
    rho = random_state(2, 2, "ginibre-mixed", seed=9)
    assert_allclose(apply(chan, rho).mat, rho.mat, atol=1e-12)


def test_physically_free_depolarizing_b_keeps_cq_free():
    # U_a = I with a depolarizing-style B channel leaves the zero set fixed
    b_ops = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5 / 3) * PAULI_X,
             np.sqrt(0.5 / 3) * np.array([[0, -1j], [1j, 0]]),
             np.sqrt(0.5 / 3) * np.diag([1.0, -1.0])]
    chan = make_physically_free(np.eye(2), b_ops)
    cq = classical_quantum([0.3, 0.7], [PLUS, np.diag([0.2, 0.8])])
    out = apply(chan, cq)
    assert abs(coherence_discord(out)) < 1e-10


def test_physically_free_level_swap_permutes_cq():
    chan = make_physically_free(PAULI_X, [np.eye(2)])
    cq = classical_quantum([0.3, 0.7], [PLUS, np.diag([0.2, 0.8])])
    out = apply(chan, cq)
    assert abs(coherence_discord(out)) < 1e-12
    expected = classical_quantum([0.7, 0.3], [np.diag([0.2, 0.8]), PLUS])
    assert_allclose(out.mat, expected.mat, atol=1e-12)


def test_physically_free_requires_complete_b_side():
    with pytest.raises(ValueError, match="B-side"):
        make_physically_free(np.eye(2), [np.sqrt(0.5) * np.eye(2)])


def test_physically_free_requires_iuo_on_a():
    with pytest.raises(ValueError, match="permutation"):
        make_physically_free(HADAMARD, [np.eye(2)])


def test_classify_dephasing():
    assert classify(dephasing_channel(2)) == frozenset(
        {"incoherent", "ppio", "rank-one-ppio"}
    )


def test_classify_hadamard_is_coherent():
    assert classify(KrausChannel([HADAMARD])) == frozenset()


def test_classify_iuo():
    labels = classify(make_iuo([1, 0], [0.3, 1.7]))
    # a unitary IUO is an m=1 PIO whose single projector is the identity,
    # which is full rank, so the rank-one label must not appear
    assert labels == frozenset({"incoherent", "iuo", "ppio"})


def test_classify_factorizable_free():
    rng = np.random.default_rng(10)
    chan = random_physically_free(2, 2, rng, n_b_ops=3)
    assert "physically-free" in classify(chan, dims=(2, 2))
    # remixing the Kraus set by a unitary keeps the common-IUO structure
    ops = chan.ops
    mix = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    remixed = KrausChannel([sum(mix[i, j] * ops[j] for j in range(3)) for i in range(3)])
    assert "physically-free" in classify(remixed, dims=(2, 2))


def test_classify_non_factorizable():
    rng = np.random.default_rng(11)
    ops = random_kraus_ops(4, 2, rng)
    assert "physically-free" not in classify(KrausChannel(ops), dims=(2, 2))


def test_classify_in_rotated_frame():
    # dephasing conjugated into the Hadamard frame is incoherent w.r.t. it
    chan = KrausChannel([HADAMARD @ k @ HADAMARD.conj().T for k in dephasing_channel(2).ops])
    assert "rank-one-ppio" in classify(chan, basis=HADAMARD)
    assert "rank-one-ppio" not in classify(chan)


def test_incoherent_channels_preserve_diagonals():
    rng = np.random.default_rng(12)
    for _ in range(10):
        chan = random_rank_one_ppio(3, rng)
        assert "incoherent" in classify(chan)
        d = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        for k in chan.ops:
            out = k @ d @ k.conj().T
            assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-10


def test_lift_to_bipartite():
    chan = lift_to_bipartite(dephasing_channel(2), 2)
    rho = random_state(2, 2, "ginibre-mixed", seed=13)
    from discoh.linalg import dephase_local

    assert_allclose(apply(chan, rho).mat, dephase_local(rho.mat, (2, 2)), atol=1e-12)

