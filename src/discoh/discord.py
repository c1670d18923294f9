"""Quantum discord via measurement-basis search, the discordlike coherence
correlation in closed form, and the machinery that checks the structural
theorems relating the two (see README, Theorems 1-3).

The basis search minimizes one objective, I(rho) - J_U(rho) (equally the
coherence correlation against the frame U), over unitary frames U on A.  All
restarts move in lock-step on U(d_a): one stacked evaluation gives every
value and analytic gradient, each restart follows a geodesic with a
Barzilai-Borwein step and Armijo backtracking, and retires on its own once its
Riemannian gradient is small (Abrudan, Eriksson & Koivunen, IEEE TSP 56, 1134
(2008); Wen & Yin, Math. Program. 142, 397 (2013)).  The value is an upper
bound on the true minimum, with per-restart statistics attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import LABEL_RANK_ONE_PPIO, classify, dephasing_channel
from .linalg import MAX_OPT_DIM, apply_local, dephase_local, partial_trace
from .measures import (
    _DAC,
    _I_CO,
    _MI,
    _entropies,
    _read,
    _table,
    correlated_coherence,
    entropy,
    entropy_of_probs,
    mutual_information,
)
from .states import (
    DensityMatrix, ReferenceBasis, haar_unitary, matrix_to_json, rng_from_seed, validate_density
)


def _check_count(name: str, n, least: int = 1) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings for the basis search, tuned for d_a <= 4; all
    randomness is driven by the explicit seed.  max_iter caps the steps of
    each restart; X_TOL and F_TOL decide when a restart has converged."""

    restarts: int = 16
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_count("restarts", self.restarts)
        _check_count("max_iter", self.max_iter)


@dataclass(frozen=True)
class RestartRecord:
    initial_frame: tuple
    final_value: float
    iterations: int


@dataclass(frozen=True)
class OptimizationTrace:
    """The search's result: converged says whether the best restart converged,
    restarts_at_best how many restarts ended within F_TOL of the best value."""

    best_value: float
    best_basis: ReferenceBasis
    restarts: tuple
    converged: bool
    restarts_at_best: int

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_frame": matrix_to_json(self.best_basis.frame),
            "converged": self.converged,
            "restarts_at_best": self.restarts_at_best,
            "restarts": [
                {"initial_frame": matrix_to_json(r.initial_frame), "final_value": r.final_value,
                 "iterations": r.iterations}
                for r in self.restarts
            ],
        }


def _eigvalsh_psd_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of small Hermitian PSD matrices.

    2x2 blocks use the closed form; larger blocks go through LAPACK.
    """
    if mats.shape[-1] == 2:
        a = mats[..., 0, 0].real
        d = mats[..., 1, 1].real
        b = mats[..., 0, 1]
        half = 0.5 * (a + d)
        r = np.sqrt(0.25 * (a - d) ** 2 + b.real**2 + b.imag**2)
        return np.stack([half - r, half + r], axis=-1)
    return np.linalg.eigvalsh(mats)


# ---------------------------------------------------------------------------
# Measured quantities at a fixed basis
# ---------------------------------------------------------------------------


def discord_at_basis(rho: DensityMatrix, basis) -> float:
    """I(rho) - I(post-measurement state): the discord candidate at one basis.

    Built from the full post-measurement state, the A-dephased rho, so it
    cross-checks the closed form coherence_discord(rho, basis), which is
    I(rho) - J_U(rho), through an independent route.
    """
    post = DensityMatrix(dephase_local(rho.mat, rho.dims, basis), rho.dims)
    return mutual_information(rho) - mutual_information(post)


# ---------------------------------------------------------------------------
# Basis search on U(d_a)
# ---------------------------------------------------------------------------

# Value changes this small are roundoff; the line search lets them pass, so a
# restart near its minimum keeps following the (still exact) gradient.
ROUNDOFF = 1e-14
ARMIJO, MAX_BACKTRACKS = 1e-4, 40
# A restart stops once its Riemannian gradient norm reaches X_TOL, or when its
# line search can lower its value no further (converged if its last step
# changed the value by at most F_TOL).
X_TOL, F_TOL = 1e-9, 1e-9


def _basis_objective(rho: DensityMatrix):
    """f(U) = I(rho) - J_U(rho) = S(rho_a) - S(rho) + S_union - H(p) on a
    stack of frames U, shape (R, d_a, d_a), with its gradient wrt conj(U).

    M_k = <u_k|rho|u_k>_A are the unnormalized conditional B blocks, p_k their
    traces and S_union the entropy of their joint spectrum.  The same f is the
    coherence correlation against the frame U, S[(Delta_U x 1)rho] - S(rho) -
    C_r(rho_a).  df = sum_k Tr[W_k dM_k] with W_k = log2(p_k) 1 - log2 M_k:
    the 1/ln2 terms cancel because Tr dM_k = dp_k.
    """
    d_a, d_b = rho.dims
    # tm[(i, j, l), m] = rho[i, j, m, l], so (tm @ U)[(i, j, l), a] = y[i, j, l, a]
    tm = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 1, 3, 2).reshape(-1, d_a)
    const = entropy(partial_trace(rho.mat, rho.dims, keep="a")) - entropy(rho)

    def objective(frames):
        y = (tm @ frames).reshape(-1, d_a, d_b, d_b, d_a)
        blocks = np.einsum("ria,rijla->rajl", frames.conj(), y)
        lam, vec = np.linalg.eigh(blocks)
        lam = np.clip(lam, 0.0, None)
        p = lam.sum(axis=-1)
        # pseudo-log, log 0 := 0: a zero eigenvalue of a PSD block moves only at
        # second order, so its weight in W adds nothing to the gradient
        log_lam = np.log2(np.where(lam > 0.0, lam, 1.0))
        log_p = np.log2(np.where(p > 0.0, p, 1.0))
        f = const - (lam * log_lam).sum(axis=(1, 2)) + (p * log_p).sum(axis=1)
        w = log_p[..., None] - log_lam
        wmat = (vec * w[..., None, :]) @ vec.conj().swapaxes(-1, -2)
        return f, np.einsum("rijla,ralj->ria", y, wmat)

    return objective


def _riemannian(grad, frames):
    """Lie-algebra gradient A = G U^H - U G^H: f(exp(tX) U) changes at rate Re Tr(A^H X)."""
    x = grad @ frames.conj().swapaxes(-1, -2)
    return x - x.conj().swapaxes(-1, -2)


def _inner(a, b):
    return np.einsum("rij,rij->r", a.conj(), b).real


def minimize(objective, frames, config: OptimizerConfig):
    """Riemannian gradient descent on U(d), every restart in lock-step.

    objective(frames) maps an (n, d, d) stack to the values and the gradients
    wrt conj(frames).  Each step moves a restart along the geodesic
    exp(-mu A) U, A its Lie-algebra gradient, with mu a Barzilai-Borwein step
    (capped at a half turn) that an Armijo line search halves until the value
    drops; all pending restarts share each stacked call.
    Returns (frames, values, iterations, converged), one entry per restart.
    """
    u = np.array(frames, dtype=complex)
    f, g = objective(u)
    a = _riemannian(g, u)
    step, drop, iters = np.ones(len(u)), np.full(len(u), math.inf), np.zeros(len(u), dtype=int)
    converged = _inner(a, a) <= X_TOL**2
    active = np.flatnonzero(~converged)
    while active.size:
        d, f0 = a[active], f[active]
        # exp(-mu D) = V exp(i mu w) V^H from the eigensystem of the Hermitian iD
        w, v = np.linalg.eigh(1j * d)
        vu = v.conj().swapaxes(-1, -2) @ u[active]
        mu = np.minimum(step[active], np.pi / np.abs(w).max(axis=-1))
        decrease = ARMIJO * _inner(d, d)
        pending = np.arange(active.size)
        for _ in range(MAX_BACKTRACKS):
            rot = np.exp(1j * mu[pending, None] * w[pending])
            trial = v[pending] @ (rot[..., None] * vu[pending])
            ft, gt = objective(trial)
            ok = ft <= f0[pending] - mu[pending] * decrease[pending] + ROUNDOFF
            r = active[pending[ok]]
            u[r], f[r], a[r] = trial[ok], ft[ok], _riemannian(gt[ok], trial[ok])
            pending = pending[~ok]
            if not pending.size:
                break
            mu[pending] *= 0.5
        converged[active[pending]] = drop[active[pending]] <= F_TOL
        moved = np.ones(active.size, dtype=bool)
        moved[pending] = False
        r = active[moved]
        # BB steps from s = -mu D and y = A_new - A_old, alternating the two forms
        s, y = -mu[moved, None, None] * d[moved], a[r] - d[moved]
        sy, ss, yy = np.abs(_inner(s, y)), _inner(s, s), _inner(y, y)
        bb = np.where(iters[r] % 2 == 0, ss / np.maximum(sy, 1e-300), sy / np.maximum(yy, 1e-300))
        step[r] = np.clip(bb, 1e-10, 1e10)
        drop[r] = f0[moved] - f[r]
        iters[r] += 1
        converged[r] = _inner(a[r], a[r]) <= X_TOL**2
        active = r[~converged[r] & (iters[r] < config.max_iter)]
    return u, f, iters, converged


def _search(rho: DensityMatrix, config: OptimizerConfig | None) -> OptimizationTrace:
    """One search over all restarts: restart 0 starts at the reference frame,
    the others at seeded Haar frames; ties go to the lowest restart index."""
    if rho.dim > MAX_OPT_DIM:
        cap = f"optimization paths are capped at total dimension {MAX_OPT_DIM}"
        raise ValueError(f"{cap}, got {rho.dim}")
    config = config or OptimizerConfig()
    rng = rng_from_seed(config.seed)
    eye = np.eye(rho.d_a, dtype=complex)[None]
    starts = np.concatenate([eye, haar_unitary(rho.d_a, rng, config.restarts - 1)])
    frames, values, iters, converged = minimize(_basis_objective(rho), starts, config)
    best = int(np.argmin(values))
    records = tuple(
        RestartRecord(tuple(map(tuple, s)), float(v), int(i))
        for s, v, i in zip(starts, values, iters)
    )
    best_basis = ReferenceBasis(frames[best])
    at_best = int(np.count_nonzero(values - values[best] <= F_TOL))
    return OptimizationTrace(
        float(values[best]), best_basis, records, bool(converged[best]), at_best
    )


def discord(rho: DensityMatrix, config: OptimizerConfig | None = None):
    """Quantum discord up to part A by multi-start basis search.

    Returns (value, OptimizationTrace).  The value is an upper bound on the
    true minimum; it is deterministic for a fixed config seed.
    """
    trace = _search(rho, config)
    return trace.best_value, trace


def qubit_discord_grid(rho: DensityMatrix, n_theta: int = 400, n_phi: int = 400) -> float:
    """Brute-force grid oracle for d_a = 2, validation-only: the minimum of
    I(rho) - J over the measurements {psi0, psi1} on A,
    psi0 = (cos theta, sin theta e^{i phi}), at every point of the grid
    theta = linspace(0, pi/2, n_theta) by
    phi = linspace(0, 2 pi, n_phi, endpoint=False).

    Bloch form: psi0 has Bloch vector n = (sin 2theta cos phi,
    sin 2theta sin phi, cos 2theta) and psi1 has -n, so the two outcomes'
    conditional B blocks rho_b/2 + H and rho_b/2 - H share one half-block
    H = sum_j n_j R_j / 2, with R_j = Tr_A[(sigma_j x 1) rho].  H is
    broadcast over the separable grid: an equatorial part per phi times
    sin 2theta, plus cos 2theta R_z.  Beyond the block spectra and entropy
    sums, the oracle shares no code with the basis search.
    """
    d_a, d_b = rho.dims
    if d_a != 2:
        raise ValueError("the grid oracle only covers d_a = 2")
    _check_count("n_theta", n_theta, least=2)
    _check_count("n_phi", n_phi, least=2)
    t = rho.mat.reshape(2, d_b, 2, d_b)
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    r_x, r_y, r_z = np.einsum("xki,ijkl->xjl", pauli, t) / 2.0
    rb = partial_trace(rho.mat, rho.dims, keep="b")

    theta = np.linspace(0.0, np.pi / 2.0, n_theta)[:, None, None, None]
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)[:, None, None]
    # block = rho_b/2 + H, shape (n_theta, n_phi, d_b, d_b)
    block = np.sin(2.0 * theta) * (np.cos(phi) * r_x + np.sin(phi) * r_y)
    block += np.cos(2.0 * theta) * r_z + rb / 2.0

    def s_union_minus_h_p(block):
        lam = _eigvalsh_psd_batch(block)
        p = lam.sum(axis=-1, keepdims=True)
        return entropy_of_probs(lam, axis=-1) - entropy_of_probs(p, axis=-1)

    cond = s_union_minus_h_p(block)
    np.subtract(rb, block, out=block)  # the other outcome: rho_b/2 - H
    cond += s_union_minus_h_p(block)
    mci = entropy(rb) - cond
    return float(np.min(mutual_information(rho) - mci))


# ---------------------------------------------------------------------------
# Discordlike coherence correlation (closed form and variants)
# ---------------------------------------------------------------------------


def coherence_discord(rho: DensityMatrix, basis_a=None) -> float:
    """Drop of the correlated coherence under a local rank-one PPIO on A.

    The minimum over rank-one PPIOs is attained by plain dephasing of A, so
    the value has the closed form
    S[(dephase_a x id)(rho)] - S(rho) - C_r(rho_a), and is independent of the
    B-side reference basis.  Zero exactly on the classical-quantum states
    built in the A reference basis.  Equal to MeasureReport's C_r_upper - C_r_a.
    """
    return float(_table(rho, basis_a) @ _DAC)


def coherence_discord_symmetric(rho: DensityMatrix, basis_a=None, basis_b=None) -> float:
    """Both-sided variant: correlated-coherence drop under full dephasing of
    A and B in the (product) reference basis.

    The fully dephased state is diagonal in the product frame, and so are its
    marginals, so it keeps no correlated coherence: the drop is I_co itself.
    """
    return correlated_coherence(rho, basis_a, basis_b)


def discord_via_coherence(rho: DensityMatrix, config: OptimizerConfig | None = None):
    """Minimize the coherence correlation over all reference bases of A.

    Returns (value, best ReferenceBasis, OptimizationTrace).  The minimum
    recovers the quantum discord (Theorem 2 in the README): the coherence
    correlation against a frame equals I(rho) minus the information its
    measurement keeps, so this runs the same search as discord().
    """
    trace = _search(rho, config)
    return trace.best_value, trace.best_basis, trace


# ---------------------------------------------------------------------------
# Monotonicity diagnostics (README Theorem 1)
# ---------------------------------------------------------------------------


def _ppio_drops(m: np.ndarray, w: np.ndarray, dims, ops: np.ndarray):
    """The I_co drops (..., n) of each trusted state of m (..., d, d), spectra w,
    under each rank-one PPIO of its Kraus stack (..., n, d_a, d_a, d_a), and its
    mutual-information drop under dephasing A, in one pass: one apply_local
    call, one validate_density call for all outputs, and one _entropies call,
    with no S_union row, for the states and the outputs."""
    deph = np.broadcast_to(dephasing_channel(dims[0]), (*ops.shape[:-4], 1, *ops.shape[-3:]))
    outs = apply_local(m[..., None, :, :], dims, np.concatenate([ops, deph], axis=-4))
    spectra = np.concatenate([w[..., None, :], validate_density(outs)], axis=-2)
    h = _entropies(np.concatenate([m[..., None, :, :], outs], axis=-3), spectra, dims,
                   union=False)[0]
    ico, mi = _read(h, _I_CO), _read(h, _MI)
    return ico[..., :1] - ico[..., 1:-1], mi[..., 0] - mi[..., -1]


def ppio_monotonicity_gap(rho: DensityMatrix, ops) -> tuple[float, float]:
    """Correlated-coherence drop under a local rank-one PPIO, given as its Kraus
    stack (n, d_a, d_a) on A, paired with the mutual-information drop under
    the bare reference measurement.

    Returns (gap, mi_drop).  The gap is nonnegative and dominates mi_drop for
    every bipartite state; a violation beyond 1e-9 raises ArithmeticError (it
    would signal a numerical bug, not physics).
    """
    labels = classify(ops)  # checks the stack
    ops = np.asarray(ops, dtype=complex)
    if ops.shape[-1] != rho.d_a:
        raise ValueError(f"expected a channel on A (dim {rho.d_a})")
    if LABEL_RANK_ONE_PPIO not in labels:
        raise ValueError("channel is not a rank-one PPIO in the reference basis")
    (gap,), mi_drop = _ppio_drops(rho.mat, rho.spectrum, rho.dims, ops[None])
    if gap < -1e-9 or gap < mi_drop - 1e-9:
        raise ArithmeticError(
            f"monotonicity violated: gap={gap:.3e}, mi_drop={mi_drop:.3e}"
        )
    return float(gap), float(mi_drop)
