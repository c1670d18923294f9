"""Scalar entropy and coherence quantities.

All logarithms are base 2; every value is in bits.  The reference basis
defaults to the computational basis of each subsystem; pass a
``ReferenceBasis`` (or raw unitary frame) to move it.

Each public function checks its basis arguments on entry, but for a frame that
passed check_unitary before: a ReferenceBasis's, or one whose bytes key a kept
table of the state.  A ``DensityMatrix`` was validated when it was built and
carries its spectrum, so S(rho) costs no decomposition; a plain matrix is
validated on entry, by the same check (states._checked_state).

Every closed form is a signed sum of seven entropies of rho, its marginals
and its dephasings, which ``_entropies`` tabulates for one state or a stack:
H(rho in fa (x) fb), S(rho), H(rho_a in fa), S(rho_a), H(rho_b in fb),
S(rho_b) and S_union, the entropy of the joint spectrum of the A-conditional
blocks (S of the A-dephased state).  A table costs two small decompositions:
rho_a, and rho_b stacked with the blocks, which are all d_b x d_b.  Each
quantity is one sign vector over the rows (``_I_CO``, ``_DAC``, ...); only this
module knows the row order.  A DensityMatrix keeps the last table built for it, with
its marginals and its frame pair.  A quantity reads the kept table if its
frames match on the sides its rows depend on (dac and cq_coherence: A; I: none),
so a report, dac and dac_sym in (fa, fb) read one table.  The kept arrays are
read-only pure functions of the immutable matrix, safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _frame, as_frame, check_unitary, conditional_blocks, dag, frame_diagonal
from .linalg import PSD_TOL, partial_trace
from .states import DensityMatrix, _checked_state

# Support cutoff for relative entropy: sigma eigenvalues below this count as
# kernel directions, and rho mass above the same cutoff there gives +inf.
SUPPORT_CUTOFF = 1e-10

_NEGATIVE_ROUNDOFF = 1e-12


def _roundoff_to_zero(v: float) -> float:
    """0.0 for a value in [-_NEGATIVE_ROUNDOFF, 0] of a measure the theory makes
    nonnegative, that being roundoff; any other value as it is."""
    return 0.0 if -_NEGATIVE_ROUNDOFF <= v <= 0.0 else v


def entropy_of_probs(p: np.ndarray, axis=None):
    """Shannon entropy in bits with the 0 log 0 := 0 convention: of all of
    ``p`` as one distribution (a float), or of each distribution along
    ``axis`` (an array).

    Values in [-PSD_TOL, 0] count as zero; more negative values raise, since
    they signal an invalid state rather than roundoff.
    """
    p = np.asarray(p, dtype=float)
    w_min = p.min() if p.size else 0.0
    if w_min < -PSD_TOL:
        raise ValueError(f"negative probability/eigenvalue {w_min:.3e} below -{PSD_TOL:g}")
    if axis is None:
        nz = p[p > 0.0]
        return float(-np.dot(nz, np.log2(nz))) if nz.size else 0.0
    safe = np.where(p > 0.0, p, 1.0)  # 1 log 1 = 0 stands in for every zero
    return -(safe * np.log2(safe)).sum(axis=axis)


def entropy(rho) -> float:
    """Von Neumann entropy -Tr(rho log2 rho)."""
    return entropy_of_probs(_checked_state(rho)[1])


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr(rho log2 rho - rho log2 sigma).

    Returns math.inf when the support of rho is not contained in the support
    of sigma (rank decided with eigenvalue cutoff 1e-10).
    """
    r, w_r = _checked_state(rho)
    s = _checked_state(sigma)[0]
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    w_s, v_s = np.linalg.eigh(s)
    # mass of rho in each eigendirection of sigma
    mass = frame_diagonal(r, v_s)
    kernel = w_s <= SUPPORT_CUTOFF
    if np.any(mass[kernel] > SUPPORT_CUTOFF):
        return math.inf
    keep = ~kernel
    cross = float(np.dot(mass[keep], np.log2(w_s[keep])))
    return -entropy_of_probs(w_r) - cross


def coherence_rel_ent(rho, basis=None) -> float:
    """Relative entropy of coherence: S[dephased rho] - S(rho)."""
    m, w = _checked_state(rho)
    return entropy_of_probs(frame_diagonal(m, as_frame(basis, m.shape[0]))) - entropy_of_probs(w)


# The rows of the entropy table, in order: H is the Shannon entropy of a
# diagonal in the reference frame, S a von Neumann entropy, and S_union that
# of the A-dephased state.
_ROWS = ("H_ab", "S_ab", "H_a", "S_a", "H_b", "S_b", "S_union")


def _signs(**terms: int) -> np.ndarray:
    """A quantity as a sign vector over the rows of the entropy table."""
    return np.array([terms.get(row, 0) for row in _ROWS], dtype=float)


_S_AB, _S_A, _S_B = _signs(S_ab=1), _signs(S_a=1), _signs(S_b=1)
_MI = _S_A + _S_B - _S_AB
_C_R_AB, _C_R_A, _C_R_B = _signs(H_ab=1, S_ab=-1), _signs(H_a=1, S_a=-1), _signs(H_b=1, S_b=-1)
_I_CO = _C_R_AB - _C_R_A - _C_R_B
# S[(dephase_a x id)(rho)] - S(rho): the dephased state is block diagonal, so
# its spectrum is the union of the conditional blocks' spectra
_C_R_UPPER = _signs(S_union=1, S_ab=-1)
_DAC = _C_R_UPPER - _C_R_A


def _entropies(m: np.ndarray, w: np.ndarray, dims, fa=None, fb=None, union=True):
    """The entropy table (..., 7) of a trusted state, or of each state of a
    stack m (..., d, d) with spectra w (..., d), in checked frames; its rows
    are _ROWS.  Their distributions are the zero-padded rows of one array, so
    one entropy call covers them all.  Also returns the marginals.  With
    union=False no block is decomposed and the table stops before S_union."""
    lead = m.shape[:-2]
    ra, rb = partial_trace(m, dims, keep="a"), partial_trace(m, dims, keep="b")
    # the diagonal of rho in the frame fa (x) fb is the diagonal, in fb, of its
    # conditional blocks in fa
    blocks = conditional_blocks(m, dims, fa)
    # rho_b and, for S_union, the blocks are all d_b x d_b: one decomposition covers them
    lam = np.linalg.eigvalsh(np.concatenate([rb[..., None, :, :], blocks][: 1 + union], axis=-3))
    parts = (
        frame_diagonal(blocks, fb).reshape(*lead, -1), w,
        frame_diagonal(ra, fa), np.linalg.eigvalsh(ra),
        frame_diagonal(rb, fb), lam[..., 0, :],
        *([lam[..., 1:, :].reshape(*lead, -1)] if union else ()),
    )
    table = np.zeros((*lead, len(parts), m.shape[-1]))
    for k, part in enumerate(parts):
        table[..., k, : part.shape[-1]] = part
    return entropy_of_probs(table, axis=-1), ra, rb


def _read(h: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """A quantity from entropy tables h; one built without S_union has no such row."""
    if signs[h.shape[-1]:].any():
        raise ValueError("the quantity reads S_union, which this entropy table skipped")
    return h @ signs[: h.shape[-1]]


def _closed_form(m: np.ndarray, w: np.ndarray, dims, signs: np.ndarray) -> np.ndarray:
    """A sign vector's quantity for each trusted state of a stack, bit for bit as
    from _quantity: one product per table, as one over several tables sums differently."""
    h = _entropies(m[..., None, :, :], w[..., None, :], dims, union=bool(signs[-1]))[0]
    return _read(h, signs)[..., 0]


# The rows each side's frame enters (fa: H_ab, H_a and, via the blocks, S_union; fb: H_ab, H_b)
_FRAME_ROWS = (_signs(H_ab=1, H_a=1, S_union=1) != 0, _signs(H_ab=1, H_b=1) != 0)


def _state_entropies(rho: DensityMatrix, signs: np.ndarray, basis_a=None, basis_b=None):
    """_entropies of a state for the sign vector signs (or one per column), and its
    checked frames.  The state keeps one (key, tables) pair, read-only; the key is the
    frames' content, not their id(), as a raw frame array can change in place, and one
    attribute write replaces the pair, so a reader sees it whole."""
    (fa, trusted_a), (fb, trusted_b) = _frame(basis_a, rho.dims[0]), _frame(basis_b, rho.dims[1])
    key = (None if fa is None else fa.tobytes(), None if fb is None else fb.tobytes())
    kept_key, tables = rho._kept
    for side, frame, trusted in ((0, fa, trusted_a), (1, fb, trusted_b)):
        if not trusted and key[side] != kept_key[side]:  # the kept key's frames passed it
            check_unitary(frame)
    # each row is computed on its own: a side that no row of signs reads may differ
    if tables is None or (key != kept_key and any(
            a != b and signs[rows].any() for a, b, rows in zip(kept_key, key, _FRAME_ROWS))):
        tables = _entropies(rho.mat, rho.spectrum, rho.dims, fa, fb)
        for a in tables:
            a.setflags(write=False)
        object.__setattr__(rho, "_kept", (key, tables))
    return tables, (fa, fb)


def _quantity(rho: DensityMatrix, signs: np.ndarray, basis_a=None, basis_b=None) -> float:
    """A sign vector's quantity for one state, its basis arguments checked here."""
    return float(_state_entropies(rho, signs, basis_a, basis_b)[0][0] @ signs)


def mutual_information(rho: DensityMatrix) -> float:
    """S(rho_a) + S(rho_b) - S(rho_ab)."""
    return _quantity(rho, _MI)


def correlated_coherence(rho: DensityMatrix, basis_a=None, basis_b=None) -> float:
    """Bipartite coherence minus the marginal coherences.

    Nonnegative by superadditivity of the relative entropy of coherence, and
    zero on product states and on diagonal bipartite states.
    """
    return _quantity(rho, _I_CO, basis_a, basis_b)


def cq_coherence(rho: DensityMatrix, basis_a=None) -> float:
    """Relative entropy distance from rho to the classical-quantum states:
    S[(dephase_a x id)(rho)] - S(rho).

    Not faithful: it vanishes on every classical-quantum state in the
    reference basis, not only on incoherent states.
    """
    return _quantity(rho, _C_R_UPPER, basis_a)


def _l1_of(m: np.ndarray, frame) -> float:
    if frame is not None:
        m = dag(frame) @ m @ frame
    a = np.abs(m)
    return float(a.sum() - np.trace(a).real)


def l1_coherence(rho, basis=None) -> float:
    """Sum of moduli of the off-diagonal entries in the reference frame."""
    m = _checked_state(rho)[0]
    return _l1_of(m, as_frame(basis, m.shape[0]))


def _l1_correlated(rho: DensityMatrix, ra, rb, fa, fb) -> float:
    m = rho.mat
    if fa is not None or fb is not None:
        # F† m F for F = fa (x) fb, one subsystem index at a time: a pass takes
        # m to (F† m)†, so two passes give F† m F without forming F
        for _ in range(2):
            if fa is not None:
                m = dag(fa) @ m.reshape(rho.d_a, -1)
            if fb is not None:
                m = dag(fb) @ m.reshape(rho.d_a, rho.d_b, -1)
            m = dag(m.reshape(rho.dim, rho.dim))
    return _l1_of(m, None) - _l1_of(ra, fa) - _l1_of(rb, fb)


# Stable column order of the report (documented in the README; the CSV and
# JSON serializations both follow it).
CSV_COLUMNS = (
    "S_ab",
    "S_a",
    "S_b",
    "I",
    "C_r_ab",
    "C_r_a",
    "C_r_b",
    "I_co",
    "C_r_upper",
    "C_r_sym",
    "l1_cc",
)


# The sign vectors of MeasureReport's entropy fields, one row each, in field order
_REPORT_SIGNS = np.stack([_S_AB, _S_A, _S_B, _MI, _C_R_AB, _C_R_A, _C_R_B, _I_CO, _C_R_UPPER])


@dataclass(frozen=True)
class MeasureReport:
    """Named bundle of every scalar quantity for one state, in bits."""

    S_ab: float
    S_a: float
    S_b: float
    I: float
    C_r_ab: float
    C_r_a: float
    C_r_b: float
    I_co: float
    C_r_upper: float
    l1_cc: float

    @classmethod
    def compute(cls, rho: DensityMatrix, basis_a=None, basis_b=None) -> "MeasureReport":
        """One pass over the state: one entropy table gives every entropy
        field, and l1_cc reuses its marginals.  Each field is its own dot product,
        as in _quantity (one matrix product sums in another order), so I_co, I and
        C_r_upper equal their functions bit for bit."""
        (h, ra, rb), (fa, fb) = _state_entropies(rho, _REPORT_SIGNS.T, basis_a, basis_b)
        fields = (h @ _REPORT_SIGNS[..., None])[:, 0]
        return cls(*fields.tolist(), l1_cc=_l1_correlated(rho, ra, rb, fa, fb))

    def to_dict(self) -> dict:
        # C_r_sym, the coherence of rho in the product frame, is C_r_ab
        return {name: getattr(self, "C_r_ab" if name == "C_r_sym" else name)
                for name in CSV_COLUMNS}
