"""Scalar entropy and coherence quantities.

All logarithms are base 2; every value is in bits.  The reference basis
defaults to the computational basis of each subsystem; pass a
``ReferenceBasis`` (or raw unitary frame) to move it.

Each public function checks its basis arguments once, on entry; the private
helpers below take the checked frames.  A ``DensityMatrix`` was validated when
it was built and carries its spectrum, so S(rho) costs no decomposition; the
marginals and the conditional blocks are decomposed once per call.
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


def _entropy_of(m: np.ndarray) -> float:
    """Entropy of a trusted Hermitian matrix, or of the direct sum of a stack."""
    return entropy_of_probs(np.linalg.eigvalsh(m))


def _dephased_entropy(m: np.ndarray, frame) -> float:
    """Entropy of a trusted matrix (or stack) dephased in a checked frame."""
    return entropy_of_probs(frame_diagonal(m, frame))


def _coherence_of(m: np.ndarray, frame) -> float:
    """Relative entropy of coherence of a trusted matrix in a checked frame."""
    return _dephased_entropy(m, frame) - _entropy_of(m)


def _marginals(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    return partial_trace(rho.mat, rho.dims, keep="a"), partial_trace(rho.mat, rho.dims, keep="b")


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
    return _dephased_entropy(m, as_frame(basis, m.shape[0])) - entropy_of_probs(w)


def mutual_information(rho: DensityMatrix) -> float:
    """S(rho_a) + S(rho_b) - S(rho_ab)."""
    ra, rb = _marginals(rho)
    return _entropy_of(ra) + _entropy_of(rb) - entropy(rho)


def correlated_coherence(rho: DensityMatrix, basis_a=None, basis_b=None) -> float:
    """Bipartite coherence minus the marginal coherences.

    Nonnegative by superadditivity of the relative entropy of coherence, and
    zero on product states and on diagonal bipartite states.
    """
    fa, fb = as_frame(basis_a, rho.d_a), as_frame(basis_b, rho.d_b)
    ra, rb = _marginals(rho)
    # the diagonal of rho in the frame fa (x) fb is the diagonal, in fb, of its
    # conditional blocks in fa
    blocks = conditional_blocks(rho.mat, rho.dims, fa)
    return (
        _dephased_entropy(blocks, fb) - entropy(rho)
        - _coherence_of(ra, fa)
        - _coherence_of(rb, fb)
    )


def _cq_coherence(rho: DensityMatrix, fa) -> float:
    """S[(dephase_a x id)(rho)] - S(rho) in a checked frame: the dephased state
    is block diagonal, so its spectrum is the union of the conditional blocks'
    spectra."""
    return _entropy_of(conditional_blocks(rho.mat, rho.dims, fa)) - entropy(rho)


def cq_coherence(rho: DensityMatrix, basis_a=None) -> float:
    """Relative entropy distance from rho to the classical-quantum states:
    S[(dephase_a x id)(rho)] - S(rho).

    Not faithful: it vanishes on every classical-quantum state in the
    reference basis, not only on incoherent states.
    """
    return _cq_coherence(rho, as_frame(basis_a, rho.d_a))


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


def l1_correlated_coherence(rho: DensityMatrix, basis_a=None, basis_b=None) -> float:
    """l1-norm analogue of the correlated coherence (comparison measure)."""
    fa, fb = as_frame(basis_a, rho.d_a), as_frame(basis_b, rho.d_b)
    return _l1_correlated(rho, *_marginals(rho), fa, fb)


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
        """One pass over the state: S(rho) is read from its kept spectrum, and
        the marginals and the conditional blocks are decomposed once each."""
        fa, fb = as_frame(basis_a, rho.d_a), as_frame(basis_b, rho.d_b)
        ra, rb = _marginals(rho)
        blocks = conditional_blocks(rho.mat, rho.dims, fa)
        s_ab = entropy(rho)
        s_a = _entropy_of(ra)
        s_b = _entropy_of(rb)
        c_ab = _dephased_entropy(blocks, fb) - s_ab
        c_a = _dephased_entropy(ra, fa) - s_a
        c_b = _dephased_entropy(rb, fb) - s_b
        c_upper = _entropy_of(blocks) - s_ab
        return cls(
            S_ab=s_ab,
            S_a=s_a,
            S_b=s_b,
            I=s_a + s_b - s_ab,
            C_r_ab=c_ab,
            C_r_a=c_a,
            C_r_b=c_b,
            I_co=c_ab - c_a - c_b,
            C_r_upper=c_upper,
            l1_cc=_l1_correlated(rho, ra, rb, fa, fb),
        )

    @property
    def C_r_sym(self) -> float:
        """The symmetric (joint) coherence: C_r of rho in the product frame,
        which is C_r_ab."""
        return self.C_r_ab

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}
