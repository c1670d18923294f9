"""Reference values computed apart from discoh.

Plain numpy formulas, written from the textbook definitions and sharing no
code with the package: entropies from full spectra, partial traces by
``np.trace`` over the reshaped tensor, dephasing by explicit projectors.  The
discord values come from closed forms that hold on special families, so they
do not depend on any optimizer.  All logarithms are base 2.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues below this are zero for the 0 log 0 convention.
ZERO = 1e-15


def shannon(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > ZERO]
    return float(-np.sum(p * np.log2(p)))


def vn_entropy(m) -> float:
    return shannon(np.linalg.eigvalsh(np.asarray(m, dtype=complex)))


def trace_out_b(m, dims) -> np.ndarray:
    d_a, d_b = dims
    return np.trace(np.asarray(m).reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)


def trace_out_a(m, dims) -> np.ndarray:
    d_a, d_b = dims
    return np.trace(np.asarray(m).reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)


def frame_or_identity(frame, dim) -> np.ndarray:
    return np.eye(dim, dtype=complex) if frame is None else np.asarray(frame, dtype=complex)


def dephase_full(m, frame) -> np.ndarray:
    """sum_k |f_k><f_k| m |f_k><f_k| over the columns of ``frame``."""
    out = np.zeros_like(m, dtype=complex)
    for k in range(frame.shape[1]):
        proj = np.outer(frame[:, k], frame[:, k].conj())
        out += proj @ m @ proj
    return out


def dephase_a(m, dims, frame_a) -> np.ndarray:
    """(Delta_a (x) 1) m with Delta_a the dephasing in the columns of frame_a."""
    d_a, d_b = dims
    out = np.zeros_like(m, dtype=complex)
    for k in range(d_a):
        proj = np.kron(np.outer(frame_a[:, k], frame_a[:, k].conj()), np.eye(d_b))
        out += proj @ m @ proj
    return out


def rel_ent_coherence(m, frame) -> float:
    """C_r(m) = S[Delta(m)] - S(m), with Delta built from projectors."""
    return vn_entropy(dephase_full(m, frame)) - vn_entropy(m)


def l1_coherence(m, frame) -> float:
    inner = frame.conj().T @ m @ frame
    a = np.abs(inner)
    return float(a.sum() - np.trace(a))


def closed_form_report(m, dims, frame_a=None, frame_b=None) -> dict:
    """Every MeasureReport field plus dac and dac_sym, by their definitions."""
    m = np.asarray(m, dtype=complex)
    d_a, d_b = dims
    fa = frame_or_identity(frame_a, d_a)
    fb = frame_or_identity(frame_b, d_b)
    fab = np.kron(fa, fb)
    ra = trace_out_b(m, dims)
    rb = trace_out_a(m, dims)
    s_ab, s_a, s_b = vn_entropy(m), vn_entropy(ra), vn_entropy(rb)
    c_ab = rel_ent_coherence(m, fab)
    c_a = rel_ent_coherence(ra, fa)
    c_b = rel_ent_coherence(rb, fb)
    i_co = c_ab - c_a - c_b
    c_upper = vn_entropy(dephase_a(m, dims, fa)) - s_ab
    # Literal drop of I_co under full dephasing of both sides.
    deph = dephase_full(m, fab)
    i_co_deph = (
        rel_ent_coherence(deph, fab)
        - rel_ent_coherence(trace_out_b(deph, dims), fa)
        - rel_ent_coherence(trace_out_a(deph, dims), fb)
    )
    return {
        "S_ab": s_ab,
        "S_a": s_a,
        "S_b": s_b,
        "I": s_a + s_b - s_ab,
        "C_r_ab": c_ab,
        "C_r_a": c_a,
        "C_r_b": c_b,
        "I_co": i_co,
        "C_r_upper": c_upper,
        "C_r_sym": c_ab,
        "l1_cc": l1_coherence(m, fab) - l1_coherence(ra, fa) - l1_coherence(rb, fb),
        "dac": c_upper - c_a,
        "dac_sym": i_co - i_co_deph,
    }


# ---------------------------------------------------------------------------
# Discord references (measurement on A)
# ---------------------------------------------------------------------------

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Bell basis |Phi+>, |Phi->, |Psi+>, |Psi-> as columns.
BELL = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex
) / np.sqrt(2.0)


def bell_diagonal(weights) -> np.ndarray:
    """sum_k w_k |beta_k><beta_k| over the Bell basis."""
    w = np.asarray(weights, dtype=float)
    return (BELL * w) @ BELL.conj().T


def correlation_coefficients(m) -> np.ndarray:
    """c_i = Tr[m (sigma_i (x) sigma_i)]."""
    return np.array([np.trace(m @ np.kron(s, s)).real for s in PAULI])


def _xlog2x(x: float) -> float:
    return float(x * np.log2(x)) if x > ZERO else 0.0


def luo_discord(c) -> float:
    """Discord of the Bell-diagonal state (1 + sum c_i s_i (x) s_i)/4.

    S. Luo, PRA 77, 042303 (2008): D = I - C with
    I = 2 + sum_k l_k log2 l_k over the four eigenvalues l_k and
    C = (1-c)/2 log2(1-c) + (1+c)/2 log2(1+c), c = max |c_i|.
    """
    c1, c2, c3 = (float(x) for x in c)
    lam = (
        (1 - c1 - c2 - c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 - c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
    )
    mutual = 2.0 + sum(_xlog2x(x) for x in lam)
    c = max(abs(c1), abs(c2), abs(c3))
    classical = (1 - c) / 2 * _log2_or_zero(1 - c) + (1 + c) / 2 * _log2_or_zero(1 + c)
    return mutual - classical


def werner_discord(p: float) -> float:
    """Discord of p |Phi+><Phi+| + (1-p) 1/4."""
    return (
        (1 - p) / 4 * _log2_or_zero(1 - p)
        - (1 + p) / 2 * _log2_or_zero(1 + p)
        + (1 + 3 * p) / 4 * _log2_or_zero(1 + 3 * p)
    )


def _log2_or_zero(x: float) -> float:
    return float(np.log2(x)) if x > ZERO else 0.0


def werner(p: float) -> np.ndarray:
    phi = BELL[:, 0]
    return p * np.outer(phi, phi.conj()) + (1 - p) * np.eye(4) / 4


def pure_discord(psi, dims) -> float:
    """D = S(rho_a) on a pure state, at every measurement basis."""
    m = np.outer(psi, np.conj(psi))
    return vn_entropy(trace_out_b(m, dims))


def discord_bruteforce_qubit(m, d_b: int, n: int = 401) -> float:
    """Discord up to a qubit A by exhaustive search over the Bloch sphere.

    For tests only: the minimum over an (n x n) grid of measurement
    directions of I(rho) - S(rho_b) + sum_k p_k S(rho_b|k).
    """
    m = np.asarray(m, dtype=complex)
    dims = (2, d_b)
    s_b = vn_entropy(trace_out_a(m, dims))
    mutual = vn_entropy(trace_out_b(m, dims)) + s_b - vn_entropy(m)
    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, n), np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    )
    c, s, e = np.cos(theta / 2).ravel(), np.sin(theta / 2).ravel(), np.exp(1j * phi).ravel()
    t = m.reshape(2, d_b, 2, d_b)
    cond = np.zeros(c.size)
    for v in (np.stack([c, e * s], 1), np.stack([-e.conj() * s, c + 0j], 1)):
        lam = np.clip(np.linalg.eigvalsh(np.einsum("gi,ijkl,gk->gjl", v.conj(), t, v)), 0, None)
        p = lam.sum(axis=1)
        # p S(block / p) = -sum lam log2 lam + p log2 p
        cond += -np.sum(lam * np.log2(np.where(lam > ZERO, lam, 1.0)), axis=1)
        cond += p * np.log2(np.where(p > ZERO, p, 1.0))
    return float(mutual - s_b + cond.min())


def classical_quantum(probs, frame_a, blocks) -> np.ndarray:
    """sum_i p_i |f_i><f_i| (x) blocks[i]: zero discord up to A exactly."""
    return sum(
        p * np.kron(np.outer(frame_a[:, k], frame_a[:, k].conj()), b)
        for k, (p, b) in enumerate(zip(probs, blocks))
    )


# ---------------------------------------------------------------------------
# State checks
# ---------------------------------------------------------------------------


def is_valid_state(m, dims, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    d = dims[0] * dims[1]
    if m.shape != (d, d) or not np.all(np.isfinite(m)):
        return False
    if np.max(np.abs(m - m.conj().T)) > tol or abs(np.trace(m) - 1) > tol:
        return False
    return float(np.linalg.eigvalsh(m)[0]) >= -tol
