import numpy as np
import pytest
from numpy.testing import assert_allclose

from discoh.linalg import (
    as_frame,
    conditional_blocks,
    dephase_local,
    frame_diagonal,
    partial_trace,
)
from discoh.states import haar_unitary

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def rand_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_partial_trace_product_factorizes():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 3)
        m = np.kron(a, b)
        assert_allclose(partial_trace(m, (2, 3), "a"), a * np.trace(b), atol=1e-10)
        assert_allclose(partial_trace(m, (2, 3), "b"), b * np.trace(a), atol=1e-10)


def test_partial_trace_bell_marginal():
    assert_allclose(partial_trace(BELL, (2, 2), "a"), np.eye(2) / 2, atol=1e-12)
    assert_allclose(partial_trace(BELL, (2, 2), "b"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_cq_block_sum():
    cq = 0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.diag([0.0, 1.0]), PLUS
    )
    assert_allclose(partial_trace(cq, (2, 2), "a"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    m = rand_hermitian(rng, 6)
    for keep in ("a", "b"):
        assert abs(np.trace(partial_trace(m, (2, 3), keep)) - np.trace(m)) < 1e-10


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 3), "a")


def test_dephase_local_bell():
    expected = np.diag([0.5, 0.0, 0.0, 0.5])
    assert_allclose(dephase_local(BELL, (2, 2)), expected, atol=1e-12)


def test_dephase_local_product_factorizes():
    rng = np.random.default_rng(9)
    a = rand_hermitian(rng, 2)
    b = rand_hermitian(rng, 3)
    assert_allclose(
        dephase_local(np.kron(a, b), (2, 3)), np.kron(np.diag(np.diag(a)), b), atol=1e-12
    )


def test_dephase_local_fixes_cq_states():
    cq = 0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.diag([0.0, 1.0]), PLUS
    )
    assert_allclose(dephase_local(cq, (2, 2)), cq, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (2, 4), (4, 4), (8, 8)])
def test_conditional_blocks_and_framed_dephase_local(dims):
    # reference: conjugate by U (x) 1, keep the diagonal A blocks, conjugate back
    d_a, d_b = dims
    rng = np.random.default_rng(sum(dims))
    m = rand_hermitian(rng, d_a * d_b)
    u, _ = np.linalg.qr(rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a)))
    big = np.kron(u, np.eye(d_b))
    inner = (big.conj().T @ m @ big).reshape(d_a, d_b, d_a, d_b)
    keep = np.eye(d_a)[:, None, :, None] * np.ones((1, d_b, 1, d_b))
    expected = big @ (inner * keep).reshape(m.shape) @ big.conj().T
    blocks = conditional_blocks(m, dims, u)
    assert_allclose(blocks, [inner[k, :, k, :] for k in range(d_a)], atol=1e-13)
    assert_allclose(dephase_local(m, dims, u), expected, atol=1e-13)
    assert_allclose(dephase_local(m, dims), (m.reshape(inner.shape) * keep).reshape(m.shape))


def test_diag_probs_matches_dephase_spectrum():
    rng = np.random.default_rng(13)
    m = rand_hermitian(rng, 3)
    frame = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    # m dephased in the frame: F diag(diag(F† m F)) F†
    dephased = frame @ np.diag(np.diag(frame.conj().T @ m @ frame)) @ frame.conj().T
    assert_allclose(
        np.sort(frame_diagonal(m, as_frame(frame, 3))),
        np.sort(np.linalg.eigvalsh(dephased)),
        atol=1e-10,
    )


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 64])
def test_diag_probs_matches_full_product(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    frame = haar_unitary(d, rng)
    expected = np.diag(frame.conj().T @ m @ frame).real
    assert_allclose(frame_diagonal(m, as_frame(frame, d)), expected, rtol=0, atol=1e-12)
    assert_allclose(frame_diagonal(m), np.diag(m).real, rtol=0, atol=0)


def test_frame_diagonal_of_a_stack_is_each_diagonal():
    rng = np.random.default_rng(17)
    stack = np.stack([rand_hermitian(rng, 3) for _ in range(4)])
    frame = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    expected = [np.diag(frame.conj().T @ m @ frame).real for m in stack]
    assert_allclose(frame_diagonal(stack, frame), expected, rtol=0, atol=1e-13)
    assert_allclose(frame_diagonal(stack), [np.diag(m).real for m in stack], rtol=0, atol=0)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_partial_trace_and_conditional_blocks_of_a_stack_are_per_matrix(dims):
    rng = np.random.default_rng(18)
    d = dims[0] * dims[1]
    stack = np.stack([rand_hermitian(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
    frame = haar_unitary(dims[0], rng)
    for keep in ("a", "b"):
        expected = [[partial_trace(m, dims, keep) for m in row] for row in stack]
        assert_allclose(partial_trace(stack, dims, keep), expected, rtol=0, atol=0)
    for f in (None, frame):
        expected = [[conditional_blocks(m, dims, f) for m in row] for row in stack]
        assert_allclose(conditional_blocks(stack, dims, f), expected, rtol=0, atol=1e-15)
    t = stack.reshape(2, 3, dims[0], dims[1], dims[0], dims[1])
    blocks = [[[t[r, s, k, :, k, :] for k in range(dims[0])] for s in range(3)] for r in range(2)]
    assert_allclose(conditional_blocks(stack, dims), blocks, rtol=0, atol=0)
