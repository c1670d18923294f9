import json
import math
import re
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
    matrix_from_json,
    matrix_to_json,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_state_is_checked_for_finiteness_once(monkeypatch, value):
    # validate_density's check is the only one: as_complex_matrix's would repeat it
    calls = []

    def counting(a, *args, _original=np.isfinite, **kwargs):
        calls.append(np.shape(a))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    DensityMatrix(np.eye(4) / 4, (2, 2))
    assert calls == [(4, 4)]
    m = np.eye(4) / 4
    m[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            DensityMatrix(m, (2, 2))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_plain_state_is_checked_for_finiteness_once(monkeypatch, value):
    # the measures' entry check coerces a plain matrix and leaves the finiteness
    # check to validate_density
    calls = []

    def counting(a, *args, _original=np.isfinite, **kwargs):
        calls.append(np.shape(a))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    assert entropy(np.eye(4) / 4) == 2.0
    assert calls == [(4, 4)]
    m = np.eye(4) / 4
    m[1, 2] = value
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        entropy(m)
    with pytest.raises(ValueError, match="^expected a 2-D matrix, got ndim=1$"):
        entropy(np.full(4, 0.25))
    with pytest.raises(ValueError, match=r"^a state must be a square matrix, got shape \(2, 3\)$"):
        entropy(np.ones((2, 3)) / 3)


def test_a_state_must_be_a_matrix():
    with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=1"):
        DensityMatrix(np.full(4, 0.25), (2, 2))


@pytest.mark.parametrize("dims", [(2.7, 2), (True, 4)])
def test_dims_must_be_integers(dims):
    # int() would read them as (2, 2) and (1, 4)
    with pytest.raises(ValueError, match="positive integers"):
        DensityMatrix(np.eye(4) / 4, dims)
    rho = DensityMatrix(np.eye(4) / 4, (np.int64(2), np.int64(2)))
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)


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
    with pytest.raises(ValueError, match="^probs and blocks must be equal-length sequences$"):
        classical_quantum([0.5, 0.5], [zero, zero, zero])


def test_classical_quantum_rejects_blocks_of_different_sizes():
    # checked one at a time, each block is a state; the library's message, not numpy's
    for blocks in ([np.eye(2) / 2, np.eye(3) / 3], [np.eye(3) / 3, np.eye(2) / 2]):
        with pytest.raises(ValueError, match="all B blocks must share one dimension"):
            classical_quantum([0.5, 0.5], blocks)


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


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seeds_must_be_integers_of_at_least_zero(seed):
    message = re.escape(f"seed must be an integer >= 0, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        rng_from_seed(seed)
    with pytest.raises(ValueError, match=message):
        random_state(2, 2, "ginibre-mixed", seed)


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


# one malformed entry each: a JSON boolean, a string, a 3-element list, a NaN part, and
# integers beyond double range, which float() would overflow on
MALFORMED_ENTRIES = (True, "x", [0.5, 0.0, 0.0], [0.0, float("nan")], [10**400, 0.0],
                     [0.0, -(10**309)])


@pytest.mark.parametrize("bad", MALFORMED_ENTRIES,
                         ids=["bool", "string", "triple", "nan", "huge-int", "huge-negative-int"])
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_json_non_finite_literals_name_their_entry(tmp_path, literal):
    # Python's json reads these as nan and inf floats
    path = tmp_path / "s.json"
    path.write_text(f'{{"dims": [2, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, {literal}]]]}}')
    message = f"state JSON in {path}: matrix entry at row 1, column 1 is not a finite [re, im] pair"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_state(path)


def test_json_matrix_round_trip_is_bit_exact():
    # signed zeros, subnormals, the double range's ends and a full-precision value
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny)],
                  [complex(-2.5e-310, 1.0), complex(big, -big), complex(0.1, 1 / 3)]])
    for back in (matrix_from_json(matrix_to_json(m)),
                 matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))):
        assert back.dtype == complex and back.shape == m.shape
        assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


def test_json_integers_within_double_range_load():
    back = matrix_from_json([[[10**300, -(2**60)], [0, 1]]])
    assert back[0, 0] == complex(1e300, -(2.0**60)) and back[0, 1] == 1j


@pytest.mark.parametrize("matrix, message", [
    ([], "matrix must be a non-empty list of rows"),
    ({"0": [[1, 0]]}, "matrix must be a non-empty list of rows"),
    ([[[1, 0], [0, 0]], "row"], "matrix row 1 is not a list"),
    ([[[1, 0], [0, 0]], [[0, 0]]], "matrix row 1 has 1 entries, expected 2"),
])
def test_json_matrix_shape_errors(matrix, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        matrix_from_json(matrix)


@pytest.mark.parametrize("matrix", [[[]], [[], []]])
def test_json_rows_without_entries_get_the_density_matrix_check(matrix):
    with pytest.raises(ValueError, match=rf"^matrix is \({len(matrix)}, 0\) but dims"):
        state_from_json({"dims": [1, 1], "matrix": matrix})


def test_state_json_must_be_an_object():
    with pytest.raises(ValueError, match="^state JSON must be an object$"):
        state_from_json([[[1, 0]]])


def test_json_requires_fields():
    with pytest.raises(ValueError, match="dims"):
        state_from_json({"matrix": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError, match="positive integers"):
        state_from_json({"dims": [2, 0], "matrix": [[[1.0, 0.0]]]})


@pytest.mark.parametrize("dims", [2, None, "22", [2], [2, 1, 1], {"a": 2, "b": 1}, [2.0, 1]],
                         ids=repr)
def test_json_dims_get_the_density_matrix_check(dims):
    # DensityMatrix's check is the only one: a non-list gets its ValueError too, not
    # the TypeError of an index taken before the check, which the CLI would not catch
    matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ValueError, match=r"^dims must be a pair of positive integers, got "):
        state_from_json({"dims": dims, "matrix": matrix})


def test_load_state_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_state(path)


def test_reference_basis_validates_unitarity():
    with pytest.raises(ValueError, match="unitary"):
        ReferenceBasis(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="^basis frame must be square$"):
        ReferenceBasis(np.eye(2, 3))
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


def test_psd_tolerance_may_not_exceed_the_entropy_floor():
    # every entropy rejects an eigenvalue below -PSD_TOL, so a looser psd_tol would
    # accept a state that each measure then rejects
    mat = np.diag([0.5 + 1e-7, 0.5, -1e-7, 0.0])
    with pytest.raises(ValueError, match=r"^psd_tol must be <= 1e-10, .* got 1e-06$"):
        DensityMatrix(mat, (2, 2), psd_tol=1e-6)
    with pytest.raises(ValueError, match=r"^psd_tol must be <= 1e-10"):
        validate_density(np.eye(2)[None] / 2, psd_tol=1e-9)
    # the floor itself and tighter values stay; a spectrum within it loads and measures
    rho = DensityMatrix(np.diag([0.5 + 5e-11, 0.5, -5e-11, 0.0]), (2, 2), psd_tol=1e-10)
    assert abs(entropy(rho) - 1.0) < 1e-9
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(rho.mat, (2, 2), psd_tol=1e-11)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_haar_unitaries_are_successive_single_draws(d):
    one, many = rng_from_seed(40 + d), rng_from_seed(40 + d)
    singles = np.stack([haar_unitary(d, one) for _ in range(6)])
    stack = haar_unitary(d, many, 6)
    assert stack.shape == (6, d, d) and np.array_equal(stack, singles)
    assert one.integers(1 << 62) == many.integers(1 << 62)  # the same draws were used
    assert_allclose(stack.conj().swapaxes(-1, -2) @ stack, np.broadcast_to(np.eye(d), stack.shape),
                    atol=1e-12)
