"""Scalar entropy and coherence quantities.

All logarithms are base 2; every value is in bits.  The reference basis
defaults to the computational basis of each subsystem; pass a
``ReferenceBasis`` (or raw unitary frame) to move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_frame, conditional_blocks, dag, diag_probs, partial_trace, tensor
from .states import DensityMatrix, ReferenceBasis, state_mat

# Eigenvalues of a state below this are treated as exactly zero; anything
# more negative signals an invalid state and raises.
EIG_CLIP = 1e-10

# Support cutoff for relative entropy: sigma eigenvalues below this count as
# kernel directions, and rho mass above the same cutoff there gives +inf.
SUPPORT_CUTOFF = 1e-10


def entropy_of_probs(p: np.ndarray) -> float:
    """Shannon entropy in bits with the 0 log 0 := 0 convention.

    Values in [-EIG_CLIP, 0) are clipped to zero; more negative values raise,
    since they signal an invalid state rather than roundoff.
    """
    p = np.asarray(p, dtype=float).ravel()
    w_min = p.min() if p.size else 0.0
    if w_min < -EIG_CLIP:
        raise ValueError(f"negative probability/eigenvalue {w_min:.3e} below -{EIG_CLIP:g}")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0.0]
    if nz.size == 0:
        return 0.0
    return float(-np.dot(nz, np.log2(nz)))


def entropy(rho) -> float:
    """Von Neumann entropy -Tr(rho log2 rho)."""
    m = state_mat(rho)
    return entropy_of_probs(np.linalg.eigvalsh(m))


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
    mass = np.einsum("ia,ij,ja->a", v_s.conj(), r, v_s).real
    kernel = w_s <= SUPPORT_CUTOFF
    if np.any(mass[kernel] > SUPPORT_CUTOFF):
        return math.inf
    keep = ~kernel
    cross = float(np.dot(mass[keep], np.log2(w_s[keep])))
    return -entropy(r) - cross


def coherence_rel_ent(rho, basis=None) -> float:
    """Relative entropy of coherence: S[dephased rho] - S(rho)."""
    m = state_mat(rho)
    frame = as_frame(basis, m.shape[0])
    return entropy_of_probs(diag_probs(m, frame)) - entropy(m)


def mutual_information(rho: DensityMatrix) -> float:
    """S(rho_a) + S(rho_b) - S(rho_ab)."""
    ra = partial_trace(rho.mat, rho.dims, keep="a")
    rb = partial_trace(rho.mat, rho.dims, keep="b")
    return entropy(ra) + entropy(rb) - entropy(rho.mat)


def joint_frame(basis_a, basis_b, dims: tuple[int, int]) -> np.ndarray | None:
    """Tensor-product frame of two subsystem bases (None if both default)."""
    d_a, d_b = dims
    fa = as_frame(basis_a, d_a)
    fb = as_frame(basis_b, d_b)
    if fa is None and fb is None:
        return None
    if fa is None:
        fa = np.eye(d_a, dtype=complex)
    if fb is None:
        fb = np.eye(d_b, dtype=complex)
    return tensor(fa, fb)


def correlated_coherence(rho: DensityMatrix, basis_a=None, basis_b=None) -> float:
    """Bipartite coherence minus the marginal coherences.

    Nonnegative by superadditivity of the relative entropy of coherence, and
    zero on product states and on diagonal bipartite states.
    """
    frame = joint_frame(basis_a, basis_b, rho.dims)
    ra = partial_trace(rho.mat, rho.dims, keep="a")
    rb = partial_trace(rho.mat, rho.dims, keep="b")
    return (
        coherence_rel_ent(rho.mat, frame)
        - coherence_rel_ent(ra, basis_a)
        - coherence_rel_ent(rb, basis_b)
    )


def _a_dephased_entropy(rho: DensityMatrix, basis_a=None) -> float:
    """S[(dephase_a x id)(rho)]: the dephased state is block diagonal, so its
    spectrum is the union of the conditional blocks' spectra."""
    blocks = conditional_blocks(rho.mat, rho.dims, as_frame(basis_a, rho.d_a))
    return entropy_of_probs(np.linalg.eigvalsh(blocks))


def cq_coherence(rho: DensityMatrix, basis_a=None) -> float:
    """Relative entropy distance from rho to the classical-quantum states:
    S[(dephase_a x id)(rho)] - S(rho).

    Not faithful: it vanishes on every classical-quantum state in the
    reference basis, not only on incoherent states.
    """
    return _a_dephased_entropy(rho, basis_a) - entropy(rho.mat)


def joint_coherence(rho: DensityMatrix, basis_ab=None) -> float:
    """Symmetric variant: the relative entropy of coherence of the joint
    state in the (product) reference basis.  Faithful on diagonal states."""
    return coherence_rel_ent(rho.mat, basis_ab)


def l1_coherence(rho, basis=None) -> float:
    """Sum of moduli of the off-diagonal entries in the reference frame."""
    m = state_mat(rho)
    frame = as_frame(basis, m.shape[0])
    if frame is not None:
        m = dag(frame) @ m @ frame
    a = np.abs(m)
    return float(a.sum() - np.trace(a).real)


def l1_correlated_coherence(rho: DensityMatrix, basis_a=None, basis_b=None) -> float:
    """l1-norm analogue of the correlated coherence (comparison measure)."""
    frame = joint_frame(basis_a, basis_b, rho.dims)
    ra = partial_trace(rho.mat, rho.dims, keep="a")
    rb = partial_trace(rho.mat, rho.dims, keep="b")
    return (
        l1_coherence(rho.mat, frame)
        - l1_coherence(ra, basis_a)
        - l1_coherence(rb, basis_b)
    )


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
    C_r_sym: float
    l1_cc: float

    @classmethod
    def compute(cls, rho: DensityMatrix, basis_a=None, basis_b=None) -> "MeasureReport":
        """One pass over the state, sharing the eigendecompositions."""
        d_a, d_b = rho.dims
        frame = joint_frame(basis_a, basis_b, rho.dims)
        ra = partial_trace(rho.mat, rho.dims, keep="a")
        rb = partial_trace(rho.mat, rho.dims, keep="b")
        s_ab = entropy(rho.mat)
        s_a = entropy(ra)
        s_b = entropy(rb)
        c_ab = entropy_of_probs(diag_probs(rho.mat, frame)) - s_ab
        c_a = entropy_of_probs(diag_probs(ra, as_frame(basis_a, d_a))) - s_a
        c_b = entropy_of_probs(diag_probs(rb, as_frame(basis_b, d_b))) - s_b
        c_upper = _a_dephased_entropy(rho, basis_a) - s_ab
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
            C_r_sym=c_ab,
            l1_cc=l1_correlated_coherence(rho, basis_a, basis_b),
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}

    def csv_row(self, digits: int = 12) -> str:
        return ",".join(f"{getattr(self, name):.{digits}g}" for name in CSV_COLUMNS)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)
