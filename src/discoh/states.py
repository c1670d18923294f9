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
    ReferenceBasis,
    as_frame,
)


def check_tolerance(name: str, value) -> float:
    """A validation tolerance must be a finite number >= 0: NaN or inf would
    switch its check off, and a negative one would reject every state."""
    if not (isinstance(value, (int, float, np.integer, np.floating))
            and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _is_dim(d) -> bool:  # bool counts as an int in Python
    return isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1


def _check_dims(dims) -> tuple[int, int]:
    if not hasattr(dims, "__len__") or len(dims) != 2 or not all(map(_is_dim, dims)):
        raise ValueError(f"dims must be a pair of positive integers, got {dims!r}")
    return int(dims[0]), int(dims[1])


def validate_density(mats, hermitian_tol=HERMITIAN_TOL, trace_tol=TRACE_TOL, psd_tol=PSD_TOL):
    """Check that a matrix, or each matrix of a stack (..., d, d), is Hermitian,
    unit-trace and PSD within the tolerances, naming the worst value if not.
    psd_tol may not exceed PSD_TOL, the floor of every entropy: a looser one would
    accept a state that each measure then rejects.
    Returns the ascending spectra (..., d) the positivity check computes."""
    check_tolerance("hermitian_tol", hermitian_tol)
    check_tolerance("trace_tol", trace_tol)
    if check_tolerance("psd_tol", psd_tol) > PSD_TOL:
        raise ValueError(f"psd_tol must be <= {PSD_TOL:g}, the floor below which every "
                         f"entropy rejects an eigenvalue, got {psd_tol:g}")
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
    read-only ``spectrum``, so no measure decomposes the state again; the
    measures keep the last entropy table they built on the state too, read-only,
    with its frame pair (measures._state_entropies); a quantity reads the kept
    table if its frames match on the sides it depends on.  Instances are immutable,
    and the kept tables are pure functions of the matrix, so they can be
    shared freely across workers.
    """

    __slots__ = ("mat", "dims", "spectrum", "_kept")

    def __init__(
        self,
        mat,
        dims: tuple[int, int],
        *,
        hermitian_tol: float = HERMITIAN_TOL,
        trace_tol: float = TRACE_TOL,
        psd_tol: float = PSD_TOL,
    ):
        mat = np.array(mat, dtype=complex)  # a copy; validate_density checks finiteness
        if mat.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
        d_a, d_b = _check_dims(dims)
        d = d_a * d_b
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix is {mat.shape} but dims ({d_a}, {d_b}) require ({d}, {d})"
            )
        spectrum = validate_density(mat, hermitian_tol, trace_tol, psd_tol)
        mat.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", (d_a, d_b))
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "_kept", ((None, None), None))  # no table yet

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


def _checked_state(rho) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, ascending spectrum) of a DensityMatrix, or of a plain square matrix
    that validate_density accepts at the default tolerances."""
    if isinstance(rho, DensityMatrix):
        return rho.mat, rho.spectrum
    m = np.asarray(rho, dtype=complex)  # validate_density checks finiteness
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"a state must be a square matrix, got shape {m.shape}")
    return m, validate_density(m)


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
    zero set; the discordlike coherence correlation also vanishes off it (README).
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or len(probs) != len(blocks):
        raise ValueError("probs and blocks must be equal-length sequences")
    if np.any(probs < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {probs.sum():.12g}, expected 1")
    block_mats = [_checked_state(b)[0] for b in blocks]
    if len({m.shape for m in block_mats}) > 1:
        raise ValueError("all B blocks must share one dimension")
    block_mats = np.array(block_mats)
    d_a, d_b = len(probs), block_mats.shape[-1]
    f = as_frame(basis_a, d_a)
    return DensityMatrix(_cq_mat(probs, block_mats, f), (d_a, d_b))


def _cq_mat(probs: np.ndarray, block_mats: np.ndarray, f=None) -> np.ndarray:
    """classical_quantum's matrix, unvalidated, or a stack of them for probs (..., d_a) and
    blocks (..., d_a, d_b, d_b): f is a checked frame (one state), or None to place p_i b_i."""
    *lead, d_a, d_b, _ = block_mats.shape
    weighted = probs[..., None, None] * block_mats
    if f is not None:  # mat[a, j, c, l] = sum_i f_i[a] conj(f_i[c]) p_i b_i[j, l]
        return np.einsum("ai,ci,ijl->ajcl", f, f.conj(), weighted).reshape(d_a * d_b, -1)
    mat = np.zeros((*lead, d_a, d_a, d_b, d_b), dtype=complex)  # axes (i, k, j, l)
    mat[..., range(d_a), range(d_a), :, :] = weighted
    return mat.swapaxes(-2, -3).reshape(*lead, d_a * d_b, d_a * d_b)


# ---------------------------------------------------------------------------
# Random ensembles.  Each call owns one counter-based (Philox) stream so the
# suites reproduce bit-for-bit across platforms.
# ---------------------------------------------------------------------------

ENSEMBLES = ("haar-pure", "ginibre-mixed")


def _check_count(name: str, n, least: int = 1) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


def rng_from_seed(seed) -> np.random.Generator:
    """One explicit Philox stream per seed, an integer >= 0."""
    _check_count("seed", seed, least=0)
    return np.random.Generator(np.random.Philox(seed))


# SeedSequence.generate_state hashes pool word k with c_k and c_k+1, c_k = C * M**k mod 2**32
_OUT_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & 0xFFFFFFFF for k in range(5)],
                     dtype=np.uint32)


def _restarts(rng: np.random.Generator, seeds):
    """Restart rng, for each seed s in turn, on the stream rng_from_seed(s) starts, and yield
    it; no generator is built.  A Philox stream is a zero counter and a key, the
    SeedSequence(s).generate_state(2, np.uint64) hash, whose last step runs for all seeds."""
    v = np.array([np.random.SeedSequence(int(s)).pool for s in seeds]) ^ _OUT_HASH[:-1]
    v *= _OUT_HASH[1:]
    for key in (v ^ v >> 16).astype("<u4").view("<u8").tolist():
        rng.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        yield rng


def spawn_seeds(seed: int, n: int) -> np.ndarray:
    """n child seeds derived deterministically from a root seed."""
    return np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)


def _haar_isometries(g: np.ndarray) -> np.ndarray:
    """Haar isometries (..., m, d) of raw normals g (..., 2, m, d), real then imaginary:
    Q of the QR of the Ginibre matrix, each column's phase set by R's diagonal."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    ph = np.diagonal(r, axis1=-2, axis2=-1)[..., None, :]
    return q * (ph / np.abs(ph))


def haar_unitary(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-distributed unitary, the one-operator Haar isometry, or an (n, dim, dim)
    stack of them, drawn as n successive single calls draw them."""
    _check_count("dim", dim)
    _check_count("n", 0 if n is None else n, least=0)
    u = _haar_isometries(rng.standard_normal((1 if n is None else n, 2, dim, dim)))
    return u[0] if n is None else u


def _draw_state(d: int, ensemble: str, rng: np.random.Generator) -> np.ndarray:
    """A state's raw draw: real, then imaginary normals, (2, d) haar-pure, else (2, d, d)."""
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}; expected one of {ENSEMBLES}")
    return rng.standard_normal((2, d) if ensemble == "haar-pure" else (2, d, d))


def _state_mats(ensemble: str, g: np.ndarray) -> np.ndarray:
    """The states (..., d, d), unvalidated, of raw draws g (..., 2, d[, d]): the projector
    on v/|v| (haar-pure) or g g†/tr (ginibre-mixed), for v or g = re + i im."""
    if ensemble == "haar-pure":
        v = (g[..., 0, :] + 1j * g[..., 1, :])[..., None, :]
        re, im = v.real, v.imag  # np.linalg.norm's dot products, so a stack gets its bits
        v /= np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))
        return v.swapaxes(-1, -2) * v.conj()
    g = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= m.trace(axis1=-2, axis2=-1).real[..., None, None]
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def random_state(d_a: int, d_b: int, ensemble: str, seed) -> DensityMatrix:
    """Seed-deterministic random bipartite state from the named ensemble."""
    rng = rng_from_seed(seed)
    return random_state_from(rng, d_a, d_b, ensemble)


def random_state_from(
    rng: np.random.Generator, d_a: int, d_b: int, ensemble: str = "ginibre-mixed"
) -> DensityMatrix:
    """Draw a random state from an existing generator (random_state draws through it)."""
    _check_dims((d_a, d_b))
    return DensityMatrix(_state_mats(ensemble, _draw_state(d_a * d_b, ensemble, rng)), (d_a, d_b))


def _draw_cq(rng: np.random.Generator, d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """A cq state's raw draw: its probabilities (d_a,), its blocks' draws (d_a, 2, d_b, d_b)."""
    return rng.dirichlet(np.ones(d_a)), rng.standard_normal((d_a, 2, d_b, d_b))


def random_cq_state(rng: np.random.Generator, d_a: int, d_b: int) -> DensityMatrix:
    """Random classical-quantum state in the computational reference basis."""
    _check_dims((d_a, d_b))
    probs, g = _draw_cq(rng, d_a, d_b)
    return DensityMatrix(_cq_mat(probs, _state_mats("ginibre-mixed", g)), (d_a, d_b))


# ---------------------------------------------------------------------------
# JSON state format:
#   {"dims": [da, db], "matrix": [[[re, im], ...], ...]}
# row-major, each entry a 2-array of real/imaginary parts.
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


_DOUBLE_MAX = float(np.finfo(float).max)


def _is_entry(x) -> bool:
    """A [re, im] pair of finite numbers within double range; an int compares
    exactly with a float, so an int too large for one fails without overflow, and
    JSON true/false, which load as bool and so count as ints, fail too."""
    return (isinstance(x, list) and len(x) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and -_DOUBLE_MAX <= v <= _DOUBLE_MAX for v in x))


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix must be a non-empty list of rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ValueError(f"matrix row {i} is not a list")
        if len(row) != len(obj[0]):
            raise ValueError(f"matrix row {i} has {len(row)} entries, expected {len(obj[0])}")
        for j, entry in enumerate(row):
            if not _is_entry(entry):
                raise ValueError(
                    f"matrix entry at row {i}, column {j} is not a finite [re, im] pair"
                )
    # each row's re, im, re, im, ... doubles are its complex128 entries, bit for bit
    return np.array(obj, dtype=float).reshape(len(obj), -1).view(complex)


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dims": [rho.d_a, rho.d_b], "matrix": matrix_to_json(rho.mat)}


def state_from_json(obj, **tolerances) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    if "dims" not in obj or "matrix" not in obj:
        raise ValueError("state JSON needs 'dims' and 'matrix' fields")
    return DensityMatrix(matrix_from_json(obj["matrix"]), obj["dims"], **tolerances)


def _state_text(rho: DensityMatrix) -> str:
    """The compact state file text, without its final newline."""
    return json.dumps(state_to_json(rho), sort_keys=True, separators=(",", ":"))


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(_state_text(rho) + "\n")


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
