"""Quantum discord via measurement-basis search, the discordlike coherence
correlation in closed form, and the machinery that checks the structural
theorems relating the two (see README, Theorems 1-3).

The basis search minimizes one objective, I(rho) - J_U(rho) (equally the
coherence correlation against the frame U), over unitary frames U on A.  Each
restart steps along the Cayley curve on U(d_a), one small linear solve per
trial point, with a Barzilai-Borwein step capped at pi/||A||_F and Armijo
backtracking, and retires on its own once its Riemannian gradient A is small
(Abrudan, Eriksson & Koivunen, IEEE TSP 56, 1134 (2008); Wen & Yin, Math.
Program. 142, 397 (2013)).  One stacked evaluation gives the value and
analytic gradient at the next trial point of every live restart, a new step or
a halved backtrack, so no restart waits on another's line search.  No frame goes
below max(0, S(A) - S(AB)); once a restart reaches that floor, the search is
certified and its other restarts stop.  A zero-discord state's own frame, where each
slice Tr_B[(1 x X) rho] is diagonal (Dakic, Vedral & Brukner, PRL 105, 190502 (2010)),
rides in the first stacked call and starts the search there.  The seeded starts, the
reference frame and Haar frames, are drawn once per process for each (d_a, restarts,
seed) and shared read-only, so a value stays a function of the state and the config.
The value is an upper bound on the true minimum, with per-restart statistics attached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import LABEL_RANK_ONE_PPIO, classify
from .linalg import MAX_OPT_DIM, conditional_blocks, partial_trace
from .measures import _DAC, _quantity, correlated_coherence, entropy_of_probs, mutual_information
from .states import (
    DensityMatrix, ReferenceBasis, _check_count, haar_unitary, matrix_to_json, rng_from_seed,
)


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
        _check_count("seed", self.seed, least=0)


_DEFAULT_CONFIG = OptimizerConfig()


class RestartRecord(NamedTuple):
    """One restart: stop is "gradient", "line-search", "budget" or "cut" (stopped once
    another restart reached the floor), and evaluations counts the objective rows it
    took, its initial point included."""

    initial_frame: tuple
    final_value: float
    iterations: int
    stop: str
    evaluations: int


@dataclass(frozen=True)
class OptimizationTrace:
    """The search's result: restarts_at_best counts the restarts that ended within
    F_TOL of the best value; certified says whether a restart reached the floor
    max(0, S(A) - S(AB)) that no frame goes below, which makes the value the minimum to
    roundoff; converged says whether the search is certified or one of those converged."""

    best_value: float
    best_basis: ReferenceBasis
    restarts: tuple
    converged: bool
    restarts_at_best: int
    certified: bool

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_frame": matrix_to_json(self.best_basis.frame),
            "converged": self.converged,
            "certified": self.certified,
            "restarts_at_best": self.restarts_at_best,
            "restarts": [
                {"initial_frame": matrix_to_json(r.initial_frame), "final_value": r.final_value,
                 "iterations": r.iterations, "stop": r.stop, "evaluations": r.evaluations}
                for r in self.restarts
            ],
        }


# ---------------------------------------------------------------------------
# Basis search on U(d_a)
# ---------------------------------------------------------------------------

# Value changes this small are roundoff; the line search lets them pass, so a
# restart near its minimum keeps following the (still exact) gradient.
ROUNDOFF = 1e-14
# A value within FLOOR_TOL of the objective's floor is its minimum: no frame is lower by
# more.  At the floor, the objective's roundoff reaches 1e-14 on 3x3 and 4x4 states.
FLOOR_TOL = 1e-14
ARMIJO, MAX_BACKTRACKS = 1e-4, 40
# A restart stops once its Riemannian gradient norm reaches X_TOL, or when its
# line search can lower its value no further (converged if its last step
# changed the value by at most F_TOL).
X_TOL, F_TOL = 1e-9, 1e-9
# A fixed generic Hermitian on B, X[j, l] = sqrt(j + l + 2) e^{i(j - l)}: its slice
# Tr_B[(1 x X) rho] of a cq state sum_k p_k |f_k><f_k| (x) sigma_k is diagonal in the f_k.
_PROBE = np.fromfunction(lambda j, l: np.sqrt(j + l + 2) * np.exp(1j * (j - l)), (MAX_OPT_DIM,) * 2)
# a qubit block's p, lo and hi: weights on half its trace and on r, half the gap
# of its spectrum, and the signs of their x log2 x in f
_HALF_TRACE, _HALF_GAP, _SIGNS = np.array([[2.0, 1.0, 1.0], [0.0, -1.0, 1.0], [1.0, -1.0, -1.0]])
_HALF_TRACE, _HALF_GAP = _HALF_TRACE[:, None, None], _HALF_GAP[:, None, None]
# The seeded starts a process keeps, each for one (d_a, restarts, seed): enough for the
# default search at every d_a and a few configs beside it, while searches that each draw
# their own seed, as the theorem2 and zero-sets trials do, only cycle through the memo.
_STARTS_MEMO_SIZE = 32


def _log2_or_0(x):
    """log2 with the pseudo-log convention log 0 := 0."""
    return np.log2(np.where(x > 0.0, x, 1.0))


def _log2_slope(lo, hi, r):
    """c1 with log2 M = c1 (M - lo 1) + log2(lo) 1 (log 0 := 0) for 2x2 spectra
    lo = max(half - r, 0) and hi = half + r: log2(hi / lo) / 2r, taken through log1p
    so that near-degenerate blocks keep their digits, and log2(hi) / hi when lo = 0."""
    full = lo > 0.0
    if full.all():  # no rank-one block, the common case
        x = np.maximum(2.0 * r / lo, 1e-300)
        return np.log1p(x) / x / (lo * math.log(2.0))
    slope = _log2_slope(np.where(full, lo, 1.0), hi, r)
    return np.where(full, slope, _log2_or_0(hi) / np.maximum(hi, 1e-300))


def _basis_objective(rho: DensityMatrix):
    """(objective, floor): f(U) = I(rho) - J_U(rho) = S(rho_a) - S(rho) + S_union - H(p)
    on a stack of frames U, shape (R, d_a, d_a), with its gradient wrt conj(U), and the
    floor max(0, S(rho_a) - S(rho)) no f(U) goes below, which every caller passes to minimize.

    M_k = <u_k|rho|u_k>_A are the unnormalized conditional B blocks, p_k their
    traces and S_union the entropy of their joint spectrum.  The same f is the
    coherence correlation against the frame U, S[(Delta_U x 1)rho] - S(rho) -
    C_r(rho_a).  df = sum_k Tr[W_k dM_k] with W_k = log2(p_k) 1 - log2 M_k:
    the 1/ln2 terms cancel because Tr dM_k = dp_k.  Qubit blocks (d_b = 2) take
    their spectra and log2 M_k in closed form, larger ones from eigh.
    """
    d_a, d_b = rho.dims
    # tm[(i, j, l), m] = rho[i, j, m, l], so (tm @ U)[(i, j, l), a] = y[i, j, l, a]
    tm = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 1, 3, 2).reshape(-1, d_a)
    # the marginal is trusted as rho is, not rechecked at tolerances rho may have loosened
    ra = partial_trace(rho.mat, rho.dims, keep="a")
    const = entropy_of_probs(np.linalg.eigvalsh(ra)) - entropy_of_probs(rho.spectrum)

    def objective(frames):
        y = (tm @ frames).reshape(-1, d_a, d_b, d_b, d_a)
        blocks = np.einsum("ria,rijla->rajl", frames.conj(), y)
        if d_b == 2:
            a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
            half, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(blocks[..., 0, 1]))
            x = np.maximum(_HALF_TRACE * half + _HALF_GAP * r, 0.0)  # p, lo, hi
            # pseudo-log, log 0 := 0: a zero eigenvalue of a PSD block moves only at
            # second order, so its weight in W adds nothing to the gradient
            logs = _log2_or_0(x)
            f = const + np.einsum("kra,k->r", x * logs, _SIGNS)
            c1 = _log2_slope(x[1], x[2], r)
            wmat = -c1[..., None, None] * blocks
            wmat.reshape(*c1.shape, 4)[..., ::3] += (logs[0] - logs[1] + c1 * x[1])[..., None]
        else:
            lam, vec = np.linalg.eigh(blocks)
            lam = np.clip(lam, 0.0, None)
            p = lam.sum(axis=-1)
            log_lam, log_p = _log2_or_0(lam), _log2_or_0(p)
            f = const - (lam * log_lam).sum(axis=(1, 2)) + (p * log_p).sum(axis=1)
            w = log_p[..., None] - log_lam
            wmat = (vec * w[..., None, :]) @ vec.conj().swapaxes(-1, -2)
        return f, np.einsum("rijla,ralj->ria", y, wmat)

    # no frame goes below S(rho_a) - S(rho), the sum's terms being p_k S(B|k) >= 0, nor
    # below 0, f being a drop of mutual information under a local measurement
    return objective, max(0.0, float(const))


def _riemannian(grad, frames):
    """Lie-algebra gradient A = G U^H - U G^H: f(exp(tX) U) changes at rate Re Tr(A^H X)."""
    x = grad @ frames.conj().swapaxes(-1, -2)
    return x - x.conj().swapaxes(-1, -2)


def _inner(a, b):
    # Re Tr(a^H b) of each row, as one sum over the real views of C-ordered stacks
    return np.einsum("rij,rij->r", a.view(float), b.view(float))


def minimize(objective, frames, config: OptimizerConfig, floor: float, probe=None):
    """Riemannian gradient descent on U(d), each restart on its own path.

    objective(frames) maps an (n, d, d) stack to the values and the gradients
    wrt conj(frames).  Each step moves a restart along the Cayley curve
    (1 + mu A/2)^-1 (1 - mu A/2) U = 2 (1 + mu A/2)^-1 U - U, A its Lie-algebra
    gradient, with mu a Barzilai-Borwein step that an Armijo line search halves
    until the value drops.  A new step is capped at pi/||A||_F, which bounds
    mu ||A||_2 by pi, so 1 + mu A/2 stays well conditioned and the frames
    unitary to roundoff.  Each stacked call carries the next trial point of
    every live restart, a new step or a halved one, from one stacked solve, so
    no restart waits on another's line search and each follows the path it
    would follow alone.  floor is a value no frame goes below, -inf if none is
    known: every caller passes one.  The start or accepted step that first brings
    a restart within FLOOR_TOL of it stops every other live restart (stop "cut");
    the restarts at the floor go on to their own stop.  A probe frame rides as one more
    row of the first call, and restart 0 starts there, with that row's value and gradient,
    where it reaches the floor and frames[0] does not; only then is the row an evaluation.
    Returns (starts, frames, values, iterations, converged, stop, evaluations), one entry
    per restart in each, and certified, whether a start or accepted step came that close.
    """
    starts = np.array(frames, dtype=complex)
    n = len(starts)
    # a value up to reach is within FLOOR_TOL of the floor, which no frame goes below
    reach = floor + FLOOR_TOL
    f, g = objective(starts if probe is None else np.concatenate([starts, probe[None]]))
    if probe is not None and f[n] <= reach and not f[0] <= reach:
        starts[0], f[0], g[0] = probe, f[n], g[n]
    f, g = f[:n], g[:n]
    u = starts.copy()
    a = _riemannian(g, u)
    # the rows of stats, per restart: value, |A|^2, the drop of the last accepted
    # step, mu, iterations, tries since that step, and evaluations
    stats = np.zeros((7, n))
    stats[0], stats[1], stats[2], stats[6] = f, _inner(a, a), math.inf, 1.0
    rows = np.flatnonzero(stats[1] > X_TOL**2)
    certified = bool((f <= reach).any())
    cut = np.zeros(n, dtype=bool)
    if certified:
        cut[rows] = f[rows] > reach
        rows = rows[~cut[rows]]
    if rows.size:  # the live restarts' state, over their rows; each writes it back as it retires
        ul, al, sl = u[rows], a[rows], stats[:, rows]
        sl[3] = np.minimum(1.0, np.pi / np.sqrt(sl[1]))
        eye = np.eye(u.shape[-1])
    while rows.size:
        fl, aal, _, mu, it, tries, _ = sl
        trial = 2.0 * np.linalg.solve(eye + (0.5 * mu)[:, None, None] * al, ul) - ul
        ft, gt = objective(trial)
        sl[5:] += 1.0
        ok = ft <= fl - ARMIJO * mu * aal + ROUNDOFF
        at = _riemannian(gt, trial)
        # BB steps from s = -mu A_old and y = A_new - A_old, alternating the two forms
        y = at - al
        sy, ss, yy = mu * np.abs(_inner(al, y)), mu * mu * aal, _inner(y, y)
        bb = np.where(it % 2 == 0, ss / np.maximum(sy, 1e-300), sy / np.maximum(yy, 1e-300))
        np.copyto(ul, trial, where=ok[:, None, None])
        np.copyto(al, at, where=ok[:, None, None])
        np.copyto(sl[:3], [ft, _inner(at, at), fl - ft], where=ok)
        it += ok
        tries *= ~ok
        # accepted: a new BB step, capped (the floor guards retiring rows); rejected: halved
        step = np.minimum(np.maximum(bb, 1e-10), 1e10)
        sl[3] = np.where(ok, np.minimum(step, np.pi / np.sqrt(np.maximum(aal, X_TOL**2))), 0.5 * mu)
        keep = (aal > X_TOL**2) & (it < config.max_iter) & (tries < MAX_BACKTRACKS)
        if not certified and (fl <= reach).any():
            certified = True
            cut[rows] = keep & (fl > reach)
            keep &= fl <= reach
        if np.count_nonzero(keep) < rows.size:
            done = rows[~keep]
            u[done], stats[:, done] = ul[~keep], sl[:, ~keep]
            rows, ul, al, sl = rows[keep], ul[keep], al[keep], sl[:, keep]
    f, aa, drop, _, iters, tries, evals = stats
    # tries restart at every accepted step, so only a restart whose line search
    # ran out ends at MAX_BACKTRACKS; it converged if its last step changed the
    # value by at most F_TOL
    at_gradient, failed = aa <= X_TOL**2, tries >= MAX_BACKTRACKS
    stop = np.where(failed, "line-search", np.where(at_gradient, "gradient", "budget"))
    stop[cut] = "cut"
    converged = at_gradient | failed & (drop <= F_TOL)
    return starts, u, f, iters.astype(int), converged, stop, evals.astype(int), certified


def _check_searchable(dim: int) -> None:
    if dim > MAX_OPT_DIM:
        raise ValueError(f"optimization paths are capped at total dimension {MAX_OPT_DIM}, "
                         f"got {dim}")


def _probe_frame(rho: DensityMatrix) -> np.ndarray:
    """The eigenframe of the slice Tr_B[(1 x X) rho], X = _PROBE: on a cq state
    sum_k p_k |f_k><f_k| (x) sigma_k, the f_k if the p_k Tr(X sigma_k) are distinct."""
    d_a, d_b = rho.dims
    probe = np.einsum("ijkl,lj->ik", rho.mat.reshape(d_a, d_b, d_a, d_b), _PROBE[:d_b, :d_b])
    return np.linalg.eigh(probe)[1]


@functools.lru_cache(maxsize=_STARTS_MEMO_SIZE)
def _seeded_starts(d_a: int, restarts: int, seed: int) -> np.ndarray:
    """The reference frame, then restarts - 1 Haar frames from rng_from_seed(seed): drawn
    once per process for each (d_a, restarts, seed) and shared read-only."""
    eye = np.eye(d_a, dtype=complex)[None]
    starts = np.concatenate([eye, haar_unitary(d_a, rng_from_seed(seed), restarts - 1)])
    starts.flags.writeable = False
    return starts


@functools.lru_cache(maxsize=_STARTS_MEMO_SIZE)
def _start_tuples(d_a: int, restarts: int, seed: int) -> tuple:
    """The seeded starts as the nested tuples of RestartRecord.initial_frame."""
    return tuple(tuple(map(tuple, s)) for s in _seeded_starts(d_a, restarts, seed).tolist())


def discord(rho: DensityMatrix, config: OptimizerConfig | None = None):
    """Quantum discord up to part A by multi-start basis search.

    Restart 0 starts at the reference frame, the others at seeded Haar frames, which a
    process draws once for each (d_a, restarts, seed) and shares read-only between its
    searches; ties go to the lowest restart index.  If the floor is 0, as a cq state's is,
    _probe_frame rides as one more row of minimize's first stacked call, and restart 0
    starts there where that frame reaches the floor and the reference frame does not.
    Returns (value, OptimizationTrace).  The value is an upper bound on the true
    minimum; it is deterministic for a fixed config seed.
    The search is certified as minimize returns it: a restart's start or accepted step came
    within FLOOR_TOL of the floor, even if it then ended roundoff above it.  It is converged
    if it is certified or a restart that ended within F_TOL of the best value converged.
    """
    _check_searchable(rho.dim)
    config = config or _DEFAULT_CONFIG
    objective, floor = _basis_objective(rho)
    probe = _probe_frame(rho) if floor <= FLOOR_TOL else None  # as on a cq state
    key = rho.d_a, config.restarts, config.seed
    starts, frames, values, iters, converged, stop, evals, certified = minimize(
        objective, _seeded_starts(*key), config, floor, probe)
    best = int(np.argmin(values))
    # restart 0 starts at the probe or the reference frame, the others at the memo's frames
    firsts = (tuple(map(tuple, starts[0].tolist())), *_start_tuples(*key)[1:])
    records = tuple(map(RestartRecord, firsts, *(c.tolist() for c in (values, iters, stop, evals))))
    at_best = values - values[best] <= F_TOL
    value = float(values[best])
    return value, OptimizationTrace(value, ReferenceBasis(frames[best]), records,
                                    certified or bool(converged[at_best].any()),
                                    int(np.count_nonzero(at_best)), certified)


def qubit_discord_grid(rho: DensityMatrix, n_theta: int = 400, n_phi: int = 400) -> float:
    """Brute-force grid oracle for d_a = 2, validation-only: the minimum of
    I(rho) - J over the measurements {psi0, psi1} on A,
    psi0 = (cos theta, sin theta e^{i phi}), at every point of the grid
    theta = linspace(0, pi/2, n_theta) by
    phi = linspace(0, 2 pi, n_phi, endpoint=False).

    Bloch form: psi0 has Bloch vector n = (sin 2theta cos phi,
    sin 2theta sin phi, cos 2theta) and psi1 has -n, with conditional B blocks
    rho_b/2 + H(+-n), H(n) = sum_j n_j R_j / 2, R_j = Tr_A[(sigma_j x 1) rho],
    broadcast over the separable grid.  The antipode -n(theta_i, phi_k) is
    n(theta_{n_theta-1-i}, phi_{k+n_phi/2}), a grid point as n_phi must be
    even, so psi0's term on the grid gives psi1's.  Qubit blocks (d_b = 2) are
    taken in real closed form.  Beyond the block spectra and entropy sums, the
    oracle shares no code with the basis search.
    """
    d_a, d_b = rho.dims
    if d_a != 2:
        raise ValueError("the grid oracle only covers d_a = 2")
    _check_count("n_theta", n_theta, least=2)
    _check_count("n_phi", n_phi, least=2)
    if n_phi % 2:
        raise ValueError(f"n_phi must be even, got {n_phi}")
    t = rho.mat.reshape(2, d_b, 2, d_b)
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rb = partial_trace(rho.mat, rho.dims, keep="b")
    # terms rho_b/2, R_x/2, R_y/2, R_z/2; at d_b = 2, each as half-trace and Bloch vector
    coef = np.concatenate([rb[None] / 2.0, np.einsum("xki,ijkl->xjl", pauli, t) / 2.0])
    if d_b == 2:
        coef = np.einsum("mjl,xlj->xm", np.concatenate([np.eye(2)[None], pauli]), coef).real / 2.0
    const, c_x, c_y, c_z = coef[..., None, None]
    theta = np.linspace(0.0, np.pi / 2.0, n_theta)[:, None]
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    equator = np.cos(phi) * c_x + np.sin(phi) * c_y

    def term_at(th):  # S_union - H(p) of psi0's outcome on the grid rows th
        block = np.sin(2.0 * th) * equator  # entries first: (..., len(th), n_phi)
        block += np.cos(2.0 * th) * c_z + const
        if d_b != 2:
            lam = np.linalg.eigvalsh(np.moveaxis(block, (0, 1), (-2, -1)))
            p = lam.sum(axis=-1, keepdims=True)
            return entropy_of_probs(lam, axis=-1) - entropy_of_probs(p, axis=-1)
        r = np.sqrt(block[1] ** 2 + block[2] ** 2 + block[3] ** 2)
        lo, hi = np.maximum(block[0] - r, 0.0), block[0] + r  # half-trace -+ |Bloch|
        x = np.stack([lo + hi, lo, hi])
        x *= np.log2(np.maximum(x, np.finfo(float).tiny))  # x log2 x, 0 at x = 0
        return x[0] - x[1] - x[2]

    # rows go ~16k points at a time at every d_b: small temporaries reuse freed memory, and
    # at d_b > 2 the blocks and their eigenvalues of a chunk, not of the grid, are held
    rows = max(1, 16384 // n_phi)
    term = np.concatenate([term_at(theta[i:i + rows]) for i in range(0, n_theta, rows)])
    cond = term + np.roll(term[::-1], n_phi // 2, axis=1)
    mci = entropy_of_probs(np.linalg.eigvalsh(rb)) - cond
    return float(np.min(mutual_information(rho) - mci))


# ---------------------------------------------------------------------------
# Discordlike coherence correlation (closed form and variants)
# ---------------------------------------------------------------------------


def coherence_discord(rho: DensityMatrix, basis_a=None) -> float:
    """Drop of the correlated coherence under a local rank-one PPIO on A.

    The minimum over rank-one PPIOs is attained by plain dephasing of A, so
    the value has the closed form
    S[(dephase_a x id)(rho)] - S(rho) - C_r(rho_a), and is independent of the
    B-side reference basis.  Zero on the classical-quantum states built in the A reference
    basis, and on others such as rho_a (x) sigma.  Equal to MeasureReport's C_r_upper - C_r_a.
    """
    return _quantity(rho, _DAC, basis_a)


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
    correlation against a frame U is I(rho) - I(Pi_U rho), Pi_U rho being rho
    with A dephased in U, which is the discord candidate at U's measurement.
    So this is discord(), with the trace's best basis returned beside it.
    """
    value, trace = discord(rho, config)
    return value, trace.best_basis, trace


# ---------------------------------------------------------------------------
# Monotonicity diagnostics (README Theorem 1)
# ---------------------------------------------------------------------------


def _merged_blocks(m: np.ndarray, dims, maps) -> np.ndarray:
    """sigma_k = sum_{f(j) = k} M_j (..., n, d_a, d_b, d_b) of each level map f of maps
    (..., n, d_a), M_j the conditional B blocks of a state of m (..., d, d): the rank-one
    PPIO {e^{i th_j} |f(j)><j|} on A sends it to sum_k |k><k| (x) sigma_k, whatever its
    phases.  A level outside range(d_a) raises."""
    d_a, d_b = dims
    onehot = np.asarray(maps)[..., None, :] == np.arange(d_a)[:, None]  # [..., n, k, j]
    if np.count_nonzero(onehot) * d_a != onehot.size:  # a level that hits no k
        raise ValueError(f"a level map sends A's levels into range({d_a})")
    # one real product on the blocks' (re, im) pairs
    blocks = np.ascontiguousarray(conditional_blocks(m, dims)).view(float)
    sigma = onehot.astype(float) @ blocks.reshape(*m.shape[:-2], 1, d_a, -1)
    return sigma.view(complex).reshape(*sigma.shape[:-1], d_b, d_b)


def _level_map_drops(m: np.ndarray, w: np.ndarray, dims, maps) -> np.ndarray:
    """The I_co drops (..., n) of trusted states m (..., d, d), spectra w, under the
    rank-one PPIOs on A of level maps (..., n, d_a): an output keeps rho_B and has
    C_r(A) = 0, so its drop is C_r(rho) - C_r(rho_A) - C_r(output), and the output's H and
    S are those of its merged blocks' diagonals and joint spectrum.  The identity map,
    dephasing of A, drops dac, which is also its mutual-information drop."""
    def c_r(mat, spectrum, axis=-1):  # H of the diagonal minus S of the spectrum
        h = entropy_of_probs(np.stack([np.diagonal(mat, axis1=-2, axis2=-1).real, spectrum]), axis)
        return h[0] - h[1]

    sigma, ra = _merged_blocks(m, dims, maps), partial_trace(m, dims, keep="a")
    # entropy_of_probs checks the merged spectra as validate_density checks a spectrum
    c_r_out = c_r(sigma, np.linalg.eigvalsh(sigma), axis=(-2, -1))
    return (c_r(m, w) - c_r(ra, np.linalg.eigvalsh(ra)))[..., None] - c_r_out


def ppio_monotonicity_gap(rho: DensityMatrix, ops) -> tuple[float, float]:
    """Correlated-coherence drop under a local rank-one PPIO, given as its Kraus
    stack (n, d_a, d_a) on A, paired with the mutual-information drop under
    the bare reference measurement.

    Returns (gap, mi_drop).  The gap is nonnegative and dominates mi_drop for
    every bipartite state; a violation beyond 1e-9 raises ArithmeticError (it
    would signal a numerical bug, not physics).  The drops read the level map off the stack.
    """
    labels = classify(ops)  # checks the stack
    ops = np.asarray(ops, dtype=complex)
    if ops.shape[-1] != rho.d_a:
        raise ValueError(f"expected a channel on A (dim {rho.d_a})")
    if LABEL_RANK_ONE_PPIO not in labels:
        raise ValueError("channel is not a rank-one PPIO in the reference basis")
    level_map = np.abs(ops).sum(axis=0).argmax(axis=0)  # level j goes to row level_map[j]
    maps = [level_map, range(rho.d_a)]  # the PPIO, then dephasing
    gap, mi_drop = _level_map_drops(rho.mat, rho.spectrum, rho.dims, maps).tolist()
    if gap < -1e-9 or gap < mi_drop - 1e-9:
        raise ArithmeticError(
            f"monotonicity violated: gap={gap:.3e}, mi_drop={mi_drop:.3e}"
        )
    return gap, mi_drop
