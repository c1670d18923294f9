import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from discoh.linalg import partial_trace
from discoh.measures import entropy
from discoh.states import (
    DensityMatrix,
    ReferenceBasis,
    bell_phi_plus,
    classical_quantum,
    haar_unitary,
    load_state,
    random_state,
    rng_from_seed,
    save_state,
    state_from_json,
    state_to_json,
    swap_subsystems,
    validate_density,
    werner,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_from_raw_maximally_mixed():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert rho.dims == (2, 2)


def test_from_raw_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([0.6, 0.6, -0.1, -0.1]), (2, 2))


def test_from_raw_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.5, 0.48]), (2, 1))


def test_from_raw_rejects_non_hermitian():
    m = np.eye(4) / 4
    m[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m, (2, 2))


def test_from_raw_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dims"):
        DensityMatrix(np.eye(4) / 4, (2, 3))


def test_bell_projector_valid():
    rho = bell_phi_plus()
    assert_allclose(np.trace(rho.mat), 1.0)
    assert_allclose(rho.mat[0, 3], 0.5)


def test_density_matrix_immutable():
    rho = bell_phi_plus()
    with pytest.raises((ValueError, AttributeError)):
        rho.mat[0, 0] = 2.0


def test_classical_quantum_degenerate_mixture_is_product():
    zero = np.diag([1.0, 0.0])
    rho = classical_quantum([1.0, 0.0], [zero, zero])
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert_allclose(rho.mat, expected)


def test_classical_quantum_invalid_probs():
    zero = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="sum"):
        classical_quantum([0.5, 0.4], [zero, zero])
    with pytest.raises(ValueError, match="nonnegative"):
        classical_quantum([1.5, -0.5], [zero, zero])


def test_classical_quantum_rotated_basis():
    hadamard = ReferenceBasis(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
    rho = classical_quantum(
        [0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], basis_a=hadamard
    )
    # blocks attach to |+><+| and |-><-|
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    expected = 0.5 * np.kron(PLUS, np.diag([1.0, 0.0])) + 0.5 * np.kron(
        minus, np.diag([0.0, 1.0])
    )
    assert_allclose(rho.mat, expected, atol=1e-12)


def test_classical_quantum_takes_a_raw_frame():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    probs, blocks = [0.3, 0.7], [np.diag([1.0, 0.0]), PLUS]
    raw = classical_quantum(probs, blocks, basis_a=hadamard)
    wrapped = classical_quantum(probs, blocks, basis_a=ReferenceBasis(hadamard))
    assert_allclose(raw.mat, wrapped.mat, rtol=0, atol=0)
    with pytest.raises(ValueError, match="unitary"):
        classical_quantum(probs, blocks, basis_a=2.0 * np.eye(2))
    # the A dimension is len(probs), and a given frame must have it
    with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
        classical_quantum(probs, blocks, basis_a=np.eye(3))


def test_werner_endpoints():
    assert_allclose(werner(0.0).mat, np.eye(4) / 4)
    assert_allclose(werner(1.0).mat, bell_phi_plus().mat)


def test_werner_half_spectrum():
    w = np.sort(np.linalg.eigvalsh(werner(0.5).mat))
    assert_allclose(w, [1 / 8, 1 / 8, 1 / 8, 5 / 8], atol=1e-12)


def test_werner_range_check():
    with pytest.raises(ValueError):
        werner(1.2)


def test_random_state_haar_pure_has_zero_entropy():
    rho = random_state(2, 2, "haar-pure", seed=123)
    assert entropy(rho) <= 1e-9


def test_random_state_ginibre_mixed_full_rank():
    rho = random_state(2, 2, "ginibre-mixed", seed=123)
    assert np.linalg.eigvalsh(rho.mat)[0] > 1e-6
    assert entropy(rho) > 0.0
    assert abs(np.trace(rho.mat) - 1.0) < 1e-12


def test_random_state_deterministic():
    a = random_state(2, 3, "ginibre-mixed", seed=99)
    b = random_state(2, 3, "ginibre-mixed", seed=99)
    assert np.array_equal(a.mat, b.mat)
    c = random_state(2, 3, "ginibre-mixed", seed=100)
    assert not np.array_equal(a.mat, c.mat)


def test_random_state_unknown_ensemble():
    with pytest.raises(ValueError, match="ensemble"):
        random_state(2, 2, "uniform", seed=1)


def marginals(rho):
    return partial_trace(rho.mat, rho.dims, "a"), partial_trace(rho.mat, rho.dims, "b")


def test_marginals_bell():
    ra, rb = marginals(bell_phi_plus())
    assert_allclose(ra, np.eye(2) / 2, atol=1e-12)
    assert_allclose(rb, np.eye(2) / 2, atol=1e-12)


def test_marginals_product():
    a = np.diag([0.2, 0.8])
    b = np.diag([0.9, 0.1])
    rho = DensityMatrix(np.kron(a, b), (2, 2))
    ra, rb = marginals(rho)
    assert_allclose(ra, a, atol=1e-12)
    assert_allclose(rb, b, atol=1e-12)


def test_marginals_werner_half():
    ra, rb = marginals(werner(0.5))
    assert_allclose(ra, np.eye(2) / 2, atol=1e-12)
    assert_allclose(rb, np.eye(2) / 2, atol=1e-12)


def test_swap_subsystems():
    a = np.diag([0.2, 0.8])
    b = np.diag([0.5, 0.3, 0.2])
    rho = DensityMatrix(np.kron(a, b), (2, 3))
    swapped = swap_subsystems(rho)
    assert swapped.dims == (3, 2)
    assert_allclose(swapped.mat, np.kron(b, a), atol=1e-12)


def test_json_round_trip(tmp_path):
    rho = random_state(2, 3, "ginibre-mixed", seed=5)
    path = tmp_path / "state.json"
    save_state(rho, path)
    back = load_state(path)
    assert back.dims == rho.dims
    assert_allclose(back.mat, rho.mat, atol=1e-15)


def test_json_errors_cite_row_and_column():
    obj = state_to_json(bell_phi_plus())
    obj["matrix"][1][2] = [0.0]
    with pytest.raises(ValueError, match="row 1, column 2"):
        state_from_json(obj)
    obj = state_to_json(bell_phi_plus())
    obj["matrix"][3][0] = "x"
    with pytest.raises(ValueError, match="row 3, column 0"):
        state_from_json(obj)


# one malformed entry each: a JSON boolean, a string, a 3-element list and a NaN part
MALFORMED_ENTRIES = (True, "x", [0.5, 0.0, 0.0], [0.0, float("nan")])


@pytest.mark.parametrize("bad", MALFORMED_ENTRIES, ids=["bool", "string", "triple", "nan"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_json_errors_name_the_malformed_entry(bad, data):
    n = data.draw(st.integers(1, 4), label="n")
    entry = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
    row = st.lists(entry, min_size=n, max_size=n)
    matrix = data.draw(st.lists(row, min_size=n, max_size=n), label="matrix")
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1), label="j")
    matrix[i][j] = bad
    with pytest.raises(ValueError, match=f"row {i}, column {j} "):
        state_from_json({"dims": [n, 1], "matrix": matrix})


def test_json_requires_fields():
    with pytest.raises(ValueError, match="dims"):
        state_from_json({"matrix": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError, match="positive integers"):
        state_from_json({"dims": [2, 0], "matrix": [[[1.0, 0.0]]]})


def test_load_state_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_state(path)


def test_reference_basis_validates_unitarity():
    with pytest.raises(ValueError, match="unitary"):
        ReferenceBasis(np.array([[1.0, 0.0], [1.0, 1.0]]))
    basis = ReferenceBasis(np.eye(3))
    assert basis.dim == 3


def test_validate_density_of_a_stack_keeps_each_spectrum():
    states = [random_state(2, 3, "ginibre-mixed", seed=s) for s in range(4)]
    stack = np.stack([rho.mat for rho in states])
    assert_allclose(validate_density(stack), [rho.spectrum for rho in states], rtol=0, atol=0)
    assert_allclose(validate_density(states[0].mat), states[0].spectrum, rtol=0, atol=0)


@pytest.mark.parametrize(
    "bad,match",
    [(np.diag([0.5, 0.3]), "trace = 0.8 "), (np.diag([1.2, -0.2]), "negative eigenvalue -2.000e-01"),
     (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian")],
)
def test_validate_density_names_the_worst_matrix_of_a_stack(bad, match):
    stack = np.stack([np.eye(2) / 2, bad, np.diag([1.0, 0.0])]).astype(complex)
    with pytest.raises(ValueError, match=match):
        validate_density(stack)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_density_rejects_a_non_finite_stack(value):
    stack = np.stack([np.eye(2) / 2, np.diag([value, 0.0])]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # finiteness is checked before any arithmetic
        for mats in (np.full((1, 2, 2), value + 0j), stack):
            with pytest.raises(ValueError, match="non-finite"):
                validate_density(mats)


@pytest.mark.parametrize("value", [-1, math.nan, math.inf])
@pytest.mark.parametrize("name", ["hermitian_tol", "trace_tol", "psd_tol"])
def test_tolerances_must_be_finite_and_nonnegative(name, value):
    # inf would switch a check off and -1 would blame the state; each state
    # here fails one check, so only the tolerance check can name the tolerance
    bad = {"hermitian_tol": [[0.5, 0.3], [0, 0.5]], "trace_tol": np.diag([0.7, 0.5]),
           "psd_tol": np.diag([1.2, -0.2])}[name]
    with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0"):
        DensityMatrix(bad, (2, 1), **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0"):
        validate_density(np.eye(2)[None] / 2, **{name: value})


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_haar_unitaries_are_successive_single_draws(d):
    one, many = rng_from_seed(40 + d), rng_from_seed(40 + d)
    singles = np.stack([haar_unitary(d, one) for _ in range(6)])
    stack = haar_unitary(d, many, 6)
    assert stack.shape == (6, d, d) and np.array_equal(stack, singles)
    assert one.integers(1 << 62) == many.integers(1 << 62)  # the same draws were used
    assert_allclose(stack.conj().swapaxes(-1, -2) @ stack, np.broadcast_to(np.eye(d), stack.shape),
                    atol=1e-12)
