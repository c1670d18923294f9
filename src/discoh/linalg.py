"""Dense complex-matrix kernel: tensor products, partial traces, Hermitian
eigendecompositions and dephasing maps.

Everything here works on plain ``numpy`` arrays (complex128, row-major).
Functions accepting a ``basis`` argument take either ``None`` (computational
basis), a unitary frame matrix whose columns are the basis vectors, or any
object with a ``.frame`` attribute (see ``discoh.states.ReferenceBasis``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Global numerical tolerances (see README).  Hermiticity/trace checks sit at
# 1e-10, unitarity checks at 1e-9; both can be overridden per call.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARY_TOL = 1e-9

# Hard cap for the basis-optimization paths; closed-form paths are unlimited.
MAX_OPT_DIM = 64


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_frame(basis, dim: int) -> np.ndarray | None:
    """Normalize a basis argument to a unitary frame matrix (or None).

    ``None`` means the computational basis.  Raises if the frame is not
    unitary within UNITARY_TOL or has the wrong dimension.
    """
    if basis is None:
        return None
    frame = getattr(basis, "frame", basis)
    frame = as_complex_matrix(frame)
    if frame.shape != (dim, dim):
        raise ValueError(f"basis frame is {frame.shape}, expected ({dim}, {dim})")
    check_unitary(frame)
    return frame


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.max(np.abs(m - dag(m))) <= tol)


def check_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> None:
    d = u.shape[0]
    err = np.max(np.abs(dag(u) @ u - np.eye(d)))
    if err > tol:
        raise ValueError(f"frame is not unitary: max |U†U - I| = {err:.3e} > {tol:g}")


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row index of ``a`` on the slow axis."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Parameters
    ----------
    m : square matrix of size d_a*d_b
    dims : (d_a, d_b)
    keep : "a" or "b", the subsystem kept

    The trace of the result equals the trace of the input.
    """
    d_a, d_b = dims
    m = np.asarray(m, dtype=complex)
    if m.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"matrix is {m.shape}, expected ({d_a * d_b}, {d_a * d_b})")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "a":
        return np.einsum("ijkj->ik", t)
    if keep == "b":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are sorted descending; eigenvectors holds the matching
    unitary matrix of column vectors, so V diag(w) V† reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray, tol: float = HERMITIAN_TOL) -> HermitianEig:
    """Eigendecompose a Hermitian matrix, eigenvalues descending."""
    m = as_complex_matrix(m)
    if not is_hermitian(m, tol):
        err = np.max(np.abs(m - dag(m)))
        raise ValueError(f"matrix is not Hermitian: max |M - M†| = {err:.3e} > {tol:g}")
    w, v = np.linalg.eigh(m)
    return HermitianEig(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def dephase(m: np.ndarray, basis=None) -> np.ndarray:
    """Zero all off-diagonal entries of ``m`` in the reference basis.

    With a non-computational basis the matrix is conjugated into the frame,
    its off-diagonals dropped, and conjugated back; this keeps the map exactly
    idempotent and trace preserving.
    """
    m = as_complex_matrix(m)
    d = m.shape[0]
    if m.shape[1] != d:
        raise ValueError("dephase requires a square matrix")
    frame = as_frame(basis, d)
    if frame is None:
        return np.diag(np.diag(m))
    inner = dag(frame) @ m @ frame
    return frame @ np.diag(np.diag(inner)) @ dag(frame)


def conditional_blocks(m: np.ndarray, dims: tuple[int, int], frame=None) -> np.ndarray:
    """Unnormalized conditional B blocks M_k = <u_k| m |u_k>_A, shape (d_a, d_b, d_b).

    ``frame`` is None (computational basis of A) or a unitary whose columns are
    the u_k.  The blocks are the diagonal blocks of m in the frame u (x) 1, so
    their joint spectrum is the spectrum of the A-dephased state.
    """
    d_a, d_b = dims
    t = m.reshape(d_a, d_b, d_a, d_b)
    if frame is None:
        idx = np.arange(d_a)
        return t[idx, :, idx, :]
    return np.einsum("ia,ijkl,ka->ajl", frame.conj(), t, frame)


def dephase_local(m: np.ndarray, dims: tuple[int, int], basis_a=None) -> np.ndarray:
    """Apply the dephasing map to subsystem A only (identity on B):
    sum_k |u_k><u_k| (x) M_k with M_k the conditional blocks.

    The output is block diagonal in the A reference frame.
    """
    d_a, d_b = dims
    m = as_complex_matrix(m)
    if m.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"matrix is {m.shape}, expected ({d_a * d_b}, {d_a * d_b})")
    frame = as_frame(basis_a, d_a)
    blocks = conditional_blocks(m, dims, frame)
    if frame is None:
        out = np.zeros((d_a, d_b, d_a, d_b), dtype=complex)
        idx = np.arange(d_a)
        out[idx, :, idx, :] = blocks
    else:
        out = np.einsum("ia,ka,ajl->ijkl", frame, frame.conj(), blocks)
    return out.reshape(d_a * d_b, d_a * d_b)


def diag_probs(m: np.ndarray, basis=None) -> np.ndarray:
    """Real diagonal of ``m`` in the given reference frame.

    For a density matrix this is the outcome distribution of the reference
    measurement, i.e. the spectrum of dephase(m, basis).
    """
    m = as_complex_matrix(m)
    frame = as_frame(basis, m.shape[0])
    if frame is None:
        return np.diag(m).real.copy()
    # diag(F† m F) without forming the full product
    return np.einsum("ia,ij,ja->a", frame.conj(), m, frame).real
