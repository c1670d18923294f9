"""Validated bipartite density matrices, reference bases, state families and
random ensembles, plus the JSON state and basis formats.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    as_complex_matrix,
    as_frame,
    check_unitary,
    dag,
)


class ReferenceBasis:
    """A unitary frame over one (sub)system; its columns are the basis vectors
    that count as incoherent."""

    __slots__ = ("dim", "frame")

    def __init__(self, frame: np.ndarray):
        frame = as_complex_matrix(frame)
        if frame.shape[0] != frame.shape[1]:
            raise ValueError("basis frame must be square")
        check_unitary(frame)
        frame = frame.copy()
        frame.setflags(write=False)
        object.__setattr__(self, "dim", frame.shape[0])
        object.__setattr__(self, "frame", frame)

    def __setattr__(self, name, value):
        raise AttributeError("ReferenceBasis is immutable")

    def __repr__(self):
        return f"ReferenceBasis(dim={self.dim})"


def check_tolerance(name: str, value) -> float:
    """A validation tolerance must be a finite number >= 0: NaN or inf would
    switch its check off, and a negative one would reject every state."""
    if not (isinstance(value, (int, float, np.integer, np.floating))
            and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def validate_density(mats, hermitian_tol=HERMITIAN_TOL, trace_tol=TRACE_TOL, psd_tol=PSD_TOL):
    """Check that a matrix, or each matrix of a stack (..., d, d), is Hermitian,
    unit-trace and PSD within the tolerances, naming the worst value if not.
    Returns the ascending spectra (..., d) the positivity check computes."""
    check_tolerance("hermitian_tol", hermitian_tol)
    check_tolerance("trace_tol", trace_tol)
    check_tolerance("psd_tol", psd_tol)
    # checked first, so that no arithmetic below sees inf or nan
    if not np.isfinite(mats).all():
        raise ValueError("matrix contains non-finite entries")
    herm_err = float(np.abs(mats - mats.conj().swapaxes(-1, -2)).max())
    if not herm_err <= hermitian_tol:
        raise ValueError(f"matrix is not Hermitian: max |M - M†| = {herm_err:.3e} > "
                         f"{hermitian_tol:g}")
    traces = mats.trace(axis1=-2, axis2=-1)
    trace_err = np.abs(traces - 1.0)
    if not trace_err.max() <= trace_tol:
        tr = np.ravel(traces)[np.argmax(trace_err)]
        raise ValueError(f"trace = {tr.real:.12g} exceeds tolerance {trace_tol:g} from 1")
    spectra = np.linalg.eigvalsh(mats)
    w_min = spectra[..., 0].min()
    if not w_min >= -psd_tol:
        raise ValueError(f"negative eigenvalue {w_min:.3e} below tolerance -{psd_tol:g}")
    return spectra


class DensityMatrix:
    """Positive semidefinite, unit-trace complex matrix with a bipartite
    dimension split (d_a, d_b).

    Validation (``validate_density``: Hermiticity, trace, positivity) happens
    at construction, and only there: the measures trust a DensityMatrix.  The
    eigenvalues the positivity check computes are kept, ascending, as the
    read-only ``spectrum``, so no measure decomposes the state again.
    Instances are immutable, so they can be shared freely across workers.
    """

    __slots__ = ("mat", "dims", "spectrum")

    def __init__(
        self,
        mat,
        dims: tuple[int, int],
        *,
        hermitian_tol: float = HERMITIAN_TOL,
        trace_tol: float = TRACE_TOL,
        psd_tol: float = PSD_TOL,
    ):
        mat = as_complex_matrix(mat)
        d_a, d_b = int(dims[0]), int(dims[1])
        if d_a < 1 or d_b < 1:
            raise ValueError(f"dims must be positive, got ({d_a}, {d_b})")
        d = d_a * d_b
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix is {mat.shape} but dims ({d_a}, {d_b}) require ({d}, {d})"
            )
        mat = mat.copy()
        spectrum = validate_density(mat, hermitian_tol, trace_tol, psd_tol)
        mat.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", (d_a, d_b))
        object.__setattr__(self, "spectrum", spectrum)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self):
        return f"DensityMatrix(dims={self.dims})"

    @property
    def d_a(self) -> int:
        return self.dims[0]

    @property
    def d_b(self) -> int:
        return self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]


def state_mat(rho) -> np.ndarray:
    """Accept a DensityMatrix or a plain (already square) matrix."""
    if isinstance(rho, DensityMatrix):
        return rho.mat
    return as_complex_matrix(rho)


def swap_subsystems(rho: DensityMatrix) -> DensityMatrix:
    """Exchange the roles of A and B (used by the CLI's --part b)."""
    d_a, d_b = rho.dims
    t = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2)
    return DensityMatrix(t.reshape(d_a * d_b, d_a * d_b), (d_b, d_a))


def ket_projector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


def bell_phi_plus() -> DensityMatrix:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(ket_projector(v), (2, 2))


def werner(p: float) -> DensityMatrix:
    """p * Phi+ + (1-p) * I/4 on two qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must be in [0, 1], got {p}")
    mat = p * bell_phi_plus().mat + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(mat, (2, 2))


def classical_quantum(probs, blocks, basis_a=None) -> DensityMatrix:
    """Build sum_i p_i |i><i| (x) rho_i^b, with |i> the columns of ``basis_a``
    (a ReferenceBasis or a raw unitary frame; None is the computational
    basis), so d_a = len(probs).

    When built in the global reference basis these states are exactly the
    zero set of the discordlike coherence correlation.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or len(probs) != len(blocks):
        raise ValueError("probs and blocks must be equal-length sequences")
    if np.any(probs < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {probs.sum():.12g}, expected 1")
    block_mats = np.array([state_mat(b) for b in blocks])  # raises on ragged shapes
    d_b = block_mats.shape[-1]
    if block_mats.shape[1:] != (d_b, d_b):
        raise ValueError("all B blocks must share one dimension")
    d_a = len(probs)
    f = as_frame(basis_a, d_a)
    f = np.eye(d_a) if f is None else f
    # mat[a, j, c, l] = sum_i f_i[a] conj(f_i[c]) p_i b_i[j, l]
    mat = np.einsum("ai,ci,ijl->ajcl", f, f.conj(), probs[:, None, None] * block_mats)
    return DensityMatrix(mat.reshape(d_a * d_b, -1), (d_a, d_b))


# ---------------------------------------------------------------------------
# Random ensembles.  Each call owns one counter-based (Philox) stream so the
# suites reproduce bit-for-bit across platforms.
# ---------------------------------------------------------------------------

ENSEMBLES = ("haar-pure", "ginibre-mixed")


def rng_from_seed(seed) -> np.random.Generator:
    """One explicit Philox stream per seed (int or SeedSequence)."""
    return np.random.Generator(np.random.Philox(seed))


def spawn_seeds(seed: int, n: int) -> np.ndarray:
    """n child seeds derived deterministically from a root seed."""
    return np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)


def haar_unitary(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix, or an (n, dim, dim)
    stack of them, drawn as n successive single calls draw them."""
    g = rng.standard_normal((1 if n is None else n, 2, dim, dim))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    ph = np.diagonal(r, axis1=-2, axis2=-1)[..., None, :]
    u = q * (ph / np.abs(ph))
    return u[0] if n is None else u


def _random_state_mat(d: int, ensemble: str, rng: np.random.Generator) -> np.ndarray:
    if ensemble == "haar-pure":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        return ket_projector(v)
    if ensemble == "ginibre-mixed":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ dag(g)
        m /= np.trace(m).real
        return (m + dag(m)) / 2.0
    raise ValueError(f"unknown ensemble {ensemble!r}; expected one of {ENSEMBLES}")


def random_state(d_a: int, d_b: int, ensemble: str, seed) -> DensityMatrix:
    """Seed-deterministic random bipartite state from the named ensemble."""
    rng = rng_from_seed(seed)
    return random_state_from(rng, d_a, d_b, ensemble)


def random_state_from(
    rng: np.random.Generator, d_a: int, d_b: int, ensemble: str = "ginibre-mixed"
) -> DensityMatrix:
    """Draw a random state from an existing generator (suite plumbing)."""
    return DensityMatrix(_random_state_mat(d_a * d_b, ensemble, rng), (d_a, d_b))


def random_cq_state(rng: np.random.Generator, d_a: int, d_b: int) -> DensityMatrix:
    """Random classical-quantum state in the computational reference basis."""
    probs = rng.dirichlet(np.ones(d_a))
    blocks = [_random_state_mat(d_b, "ginibre-mixed", rng) for _ in range(d_a)]
    return classical_quantum(probs, blocks)


# ---------------------------------------------------------------------------
# JSON state format:
#   {"dims": [da, db], "matrix": [[[re, im], ...], ...]}
# row-major, each entry a 2-array of real/imaginary parts.
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _is_number(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix must be a non-empty list of rows")
    rows = len(obj)
    cols = None
    out = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ValueError(f"matrix row {i} is not a list")
        if cols is None:
            cols = len(row)
            out = np.zeros((rows, cols), dtype=complex)
        elif len(row) != cols:
            raise ValueError(f"matrix row {i} has {len(row)} entries, expected {cols}")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number(x) for x in entry)
            ):
                raise ValueError(
                    f"matrix entry at row {i}, column {j} is not a [re, im] pair"
                )
            out[i, j] = entry[0] + 1j * entry[1]
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        bad = np.argwhere(~(np.isfinite(out.real) & np.isfinite(out.imag)))[0]
        raise ValueError(f"matrix entry at row {bad[0]}, column {bad[1]} is not finite")
    return out


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dims": [rho.d_a, rho.d_b], "matrix": matrix_to_json(rho.mat)}


def state_from_json(obj, **tolerances) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    if "dims" not in obj or "matrix" not in obj:
        raise ValueError("state JSON needs 'dims' and 'matrix' fields")
    dims = obj["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise ValueError("'dims' must be a pair of positive integers")
    mat = matrix_from_json(obj["matrix"])
    return DensityMatrix(mat, (dims[0], dims[1]), **tolerances)


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(rho), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def load_state(path, **tolerances) -> DensityMatrix:
    obj = _read_json(path)
    try:
        return state_from_json(obj, **tolerances)
    except ValueError as exc:
        raise ValueError(f"state JSON in {path}: {exc}") from exc


_BASIS_KEYS = ("frame_a", "frame_b")


def load_bases(path) -> tuple[ReferenceBasis | None, ReferenceBasis | None]:
    """Read a basis file {"frame_a": matrix, "frame_b": matrix} into
    (basis_a, basis_b), None where a frame is absent.  Matrices use the state
    format, basis vectors as columns; either frame may be left out, not both,
    and any other key is an error."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"basis JSON in {path} must be an object")
    for key in obj:
        if key not in _BASIS_KEYS:
            raise ValueError(f"basis JSON in {path}: unknown key {key!r} (expected {_BASIS_KEYS})")
    if not obj:
        raise ValueError(f"basis JSON in {path} needs 'frame_a' or 'frame_b'")
    bases = []
    for key in _BASIS_KEYS:
        try:
            bases.append(ReferenceBasis(matrix_from_json(obj[key])) if key in obj else None)
        except ValueError as exc:
            raise ValueError(f"basis JSON in {path}, {key}: {exc}") from exc
    return tuple(bases)
