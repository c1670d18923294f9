"""Dense complex-matrix kernel: partial traces, conditional blocks, dephasing
maps and local channels.

Everything here works on plain ``numpy`` arrays (complex128, row-major).
Functions accepting a ``basis`` argument take either ``None`` (computational
basis), a unitary frame matrix whose columns are the basis vectors, or any
object with a ``.frame`` attribute (see ``discoh.states.ReferenceBasis``), and
check it with ``as_frame``.  The inner kernels ``conditional_blocks`` and
``frame_diagonal`` take a ``frame`` that is None or already checked, and trust
their input.
"""

from __future__ import annotations

import numpy as np

# Global numerical tolerances (see README).  Hermiticity/trace/PSD checks sit
# at 1e-10 and can be overridden per state; unitarity checks sit at 1e-9.
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
    if not np.isfinite(a).all():
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


def check_unitary(u: np.ndarray) -> None:
    d = u.shape[0]
    err = np.max(np.abs(dag(u) @ u - np.eye(d)))
    if err > UNITARY_TOL:
        raise ValueError(f"frame is not unitary: max |U†U - I| = {err:.3e} > {UNITARY_TOL:g}")


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator m (d_a*d_b square), or
    of each operator of a stack (..., d, d); ``keep`` names the subsystem kept,
    "a" or "b".  The trace of the result equals the trace of the input."""
    d_a, d_b = dims
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise ValueError(f"matrix is {m.shape}, expected ({d_a * d_b}, {d_a * d_b})")
    t = m.reshape(*m.shape[:-2], d_a, d_b, d_a, d_b)
    if keep == "a":
        return np.einsum("...ijkj->...ik", t)
    if keep == "b":
        return np.einsum("...ijil->...jl", t)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def conditional_blocks(m: np.ndarray, dims: tuple[int, int], frame=None) -> np.ndarray:
    """Unnormalized conditional B blocks M_k = <u_k| m |u_k>_A, shape (..., d_a,
    d_b, d_b) for m of shape (..., d, d).

    ``frame`` is None (computational basis of A) or a unitary whose columns are
    the u_k.  The blocks are the diagonal blocks of m in the frame u (x) 1, so
    their joint spectrum is the spectrum of the A-dephased state.
    """
    d_a, d_b = dims
    lead = m.shape[:-2]
    t = m.reshape(*lead, d_a, d_b, d_a, d_b)
    if frame is None:
        return np.einsum("...ijil->...ijl", t)
    # y[..., i, j, l, a] = sum_k t[..., i, j, k, l] u_k[a]: one matrix product
    y = (t.swapaxes(-1, -2).reshape(-1, d_a) @ frame).reshape(*lead, d_a, d_b, d_b, d_a)
    return np.einsum("ia,...ijla->...ajl", frame.conj(), y)


def _transfer(ops: np.ndarray) -> np.ndarray:
    """The channel of a Kraus stack (..., n, d, d) as a matrix on X[p, q]:
    S[(i, k), (p, q)] = sum_n K_n[i, p] conj(K_n[k, q])."""
    d = ops.shape[-1]
    s = (ops[..., :, None, :, None] * ops.conj()[..., None, :, None, :]).sum(axis=-5)
    return s.reshape(*s.shape[:-4], d * d, d * d)


def apply_local(m: np.ndarray, dims: tuple[int, int], ops_a=None, ops_b=None) -> np.ndarray:
    """(Phi_A (x) Phi_B)(m) for Kraus stacks ops_a on A and ops_b on B (None is
    the identity), with no operator on A (x) B formed; stacks of states (..., d, d)
    and of channels (..., n, d, d) broadcast.  On the realigned R[(i, k), (j, l)]
    = m[(i, j), (k, l)] a channel on A acts on the rows and one on B on the
    columns: one matrix product per side."""
    d_a, d_b = dims
    for side, ops, d in (("A", ops_a, d_a), ("B", ops_b, d_b)):
        if ops is not None and (ops.ndim < 3 or ops.shape[-2:] != (d, d)):
            raise ValueError(f"ops_{side.lower()} for side {side} of dims {dims} must be a Kraus "
                             f"stack (..., n, {d}, {d}), got shape {ops.shape}")
    lead = m.shape[:-2]
    r = m.reshape(*lead, d_a, d_b, d_a, d_b).swapaxes(-2, -3).reshape(*lead, d_a**2, d_b**2)
    if ops_a is not None:
        r = _transfer(ops_a) @ r
    if ops_b is not None:
        r = r @ _transfer(ops_b).swapaxes(-1, -2)
    lead = r.shape[:-2]
    out = r.reshape(*lead, d_a, d_a, d_b, d_b).swapaxes(-2, -3)
    return out.reshape(*lead, d_a * d_b, d_a * d_b)


def dephase_local(m: np.ndarray, dims: tuple[int, int], basis_a=None) -> np.ndarray:
    """Apply the dephasing map to subsystem A only (identity on B): the local
    channel with Kraus operators |u_k><u_k| on A, which leaves
    sum_k |u_k><u_k| (x) M_k with M_k the conditional blocks.

    The output is block diagonal in the A reference frame.
    """
    d_a, d_b = dims
    m = as_complex_matrix(m)
    if m.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"matrix is {m.shape}, expected ({d_a * d_b}, {d_a * d_b})")
    frame = as_frame(basis_a, d_a)
    u = np.eye(d_a) if frame is None else frame.T
    return apply_local(m, dims, u[:, :, None] * u.conj()[:, None, :])


def frame_diagonal(m: np.ndarray, frame=None) -> np.ndarray:
    """Real diagonal of F† m F, for one matrix or a stack of them (shape
    (..., d)); ``frame`` is None (computational basis) or a checked unitary.

    Only the diagonal is formed: entry a is sum_i conj(F_ia) (m F)_ia.
    """
    if frame is None:
        return np.diagonal(m, axis1=-2, axis2=-1).real.copy()
    return (frame.conj() * (m @ frame)).sum(axis=-2).real
