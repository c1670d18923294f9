"""Scalar entropy and coherence quantities.

All logarithms are base 2; every value is in bits.  The reference basis
defaults to the computational basis of each subsystem; pass a
``ReferenceBasis`` (or raw unitary frame) to move it.

Each public function checks its basis arguments once, on entry; the private
helpers below take the checked frames.  A ``DensityMatrix`` was validated when
it was built and carries its spectrum, so S(rho) costs no decomposition.

Every closed form is a signed sum of seven entropies of rho, its marginals
and its dephasings, which ``_entropies`` tabulates for one state or a stack:
H(rho in fa (x) fb), S(rho), H(rho_a in fa), S(rho_a), H(rho_b in fb),
S(rho_b) and S_union, the entropy of the joint spectrum of the A-conditional
blocks (S of the A-dephased state).  A table costs two small decompositions:
rho_a, and rho_b stacked with the blocks, which are all d_b x d_b.  Each
quantity is one sign vector over the rows (``_I_CO``, ``_DAC``, ...); only this
module knows the row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_complex_matrix, as_frame, conditional_blocks, dag, frame_diagonal, partial_trace
)
from .states import DensityMatrix, state_mat

# Eigenvalues of a state below this are treated as exactly zero; anything
# more negative signals an invalid state and raises.
EIG_CLIP = 1e-10

# Support cutoff for relative entropy: sigma eigenvalues below this count as
# kernel directions, and rho mass above the same cutoff there gives +inf.
SUPPORT_CUTOFF = 1e-10


def entropy_of_probs(p: np.ndarray, axis=None):
    """Shannon entropy in bits with the 0 log 0 := 0 convention: of all of
    ``p`` as one distribution (a float), or of each distribution along
    ``axis`` (an array).

    Values in [-EIG_CLIP, 0] count as zero; more negative values raise, since
    they signal an invalid state rather than roundoff.
    """
    p = np.asarray(p, dtype=float)
    w_min = p.min() if p.size else 0.0
    if w_min < -EIG_CLIP:
        raise ValueError(f"negative probability/eigenvalue {w_min:.3e} below -{EIG_CLIP:g}")
    if axis is None:
        nz = p[p > 0.0]
        return float(-np.dot(nz, np.log2(nz))) if nz.size else 0.0
    safe = np.where(p > 0.0, p, 1.0)  # 1 log 1 = 0 stands in for every zero
    return -(safe * np.log2(safe)).sum(axis=axis)


def _state(rho) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, eigenvalues) of a DensityMatrix, which keeps its spectrum, or
    of a plain matrix."""
    if isinstance(rho, DensityMatrix):
        return rho.mat, rho.spectrum
    m = as_complex_matrix(rho)
    return m, np.linalg.eigvalsh(m)


def entropy(rho) -> float:
    """Von Neumann entropy -Tr(rho log2 rho)."""
    return entropy_of_probs(_state(rho)[1])


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr(rho log2 rho - rho log2 sigma).

    Returns math.inf when the support of rho is not contained in the support
    of sigma (rank decided with eigenvalue cutoff 1e-10).
    """
    r = state_mat(rho)
    s = state_mat(sigma)
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
    return -entropy(rho) - cross


def coherence_rel_ent(rho, basis=None) -> float:
    """Relative entropy of coherence: S[dephased rho] - S(rho)."""
    m, w = _state(rho)
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


def _entropies(m: np.ndarray, w: np.ndarray, dims, fa=None, fb=None):
    """The entropy table (..., 7) of a trusted state, or of each state of a
    stack m (..., d, d) with spectra w (..., d), in checked frames; its rows
    are _ROWS.  Their distributions are the zero-padded rows of one array, so
    one entropy call covers them all.  Also returns the marginals."""
    lead = m.shape[:-2]
    ra, rb = partial_trace(m, dims, keep="a"), partial_trace(m, dims, keep="b")
    # the diagonal of rho in the frame fa (x) fb is the diagonal, in fb, of its
    # conditional blocks in fa
    blocks = conditional_blocks(m, dims, fa)
    # rho_b and the blocks are all d_b x d_b: one decomposition covers them
    lam = np.linalg.eigvalsh(np.concatenate([rb[..., None, :, :], blocks], axis=-3))
    parts = (
        frame_diagonal(blocks, fb).reshape(*lead, -1), w,
        frame_diagonal(ra, fa), np.linalg.eigvalsh(ra),
        frame_diagonal(rb, fb), lam[..., 0, :],
        lam[..., 1:, :].reshape(*lead, -1),
    )
    table = np.zeros((*lead, len(parts), m.shape[-1]))
    for k, part in enumerate(parts):
        table[..., k, : part.shape[-1]] = part
    return entropy_of_probs(table, axis=-1), ra, rb


def _table(rho: DensityMatrix, basis_a=None, basis_b=None) -> np.ndarray:
    """The entropy table of one state, its basis arguments checked here."""
    fa, fb = as_frame(basis_a, rho.d_a), as_frame(basis_b, rho.d_b)
    return _entropies(rho.mat, rho.spectrum, rho.dims, fa, fb)[0]


def mutual_information(rho: DensityMatrix) -> float:
    """S(rho_a) + S(rho_b) - S(rho_ab)."""
    return float(_table(rho) @ _MI)


def correlated_coherence(rho: DensityMatrix, basis_a=None, basis_b=None) -> float:
    """Bipartite coherence minus the marginal coherences.

    Nonnegative by superadditivity of the relative entropy of coherence, and
    zero on product states and on diagonal bipartite states.
    """
    return float(_table(rho, basis_a, basis_b) @ _I_CO)


def cq_coherence(rho: DensityMatrix, basis_a=None) -> float:
    """Relative entropy distance from rho to the classical-quantum states:
    S[(dephase_a x id)(rho)] - S(rho).

    Not faithful: it vanishes on every classical-quantum state in the
    reference basis, not only on incoherent states.
    """
    return float(_table(rho, basis_a) @ _C_R_UPPER)


def _l1_of(m: np.ndarray, frame) -> float:
    if frame is not None:
        m = dag(frame) @ m @ frame
    a = np.abs(m)
    return float(a.sum() - np.trace(a).real)


def l1_coherence(rho, basis=None) -> float:
    """Sum of moduli of the off-diagonal entries in the reference frame."""
    m = state_mat(rho)
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


# The sign vectors of MeasureReport's entropy fields, in field order
_REPORT_SIGNS = np.stack(
    [_S_AB, _S_A, _S_B, _MI, _C_R_AB, _C_R_A, _C_R_B, _I_CO, _C_R_UPPER], axis=-1
)


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
        field, and l1_cc reuses its marginals."""
        fa, fb = as_frame(basis_a, rho.d_a), as_frame(basis_b, rho.d_b)
        h, ra, rb = _entropies(rho.mat, rho.spectrum, rho.dims, fa, fb)
        return cls(*(h @ _REPORT_SIGNS).tolist(), l1_cc=_l1_correlated(rho, ra, rb, fa, fb))

    @property
    def C_r_sym(self) -> float:
        """The symmetric (joint) coherence: C_r of rho in the product frame,
        which is C_r_ab."""
        return self.C_r_ab

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}
