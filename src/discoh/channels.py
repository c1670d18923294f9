"""Kraus channels and the incoherent-operation families used throughout:
incoherently unitary operations (IUOs), projective physically incoherent
operations (PPIOs), their rank-one special case, and the factorizable
physically free channels U_a (x) B_j.  Every channel argument and result is one
(n, d, d) Kraus stack (U_a (x) B_j as its two factors, which act on the reshaped
state through linalg.apply_local); each family's builder and sampler (a raw
draw, then the build) share one construction.  classify, ChannelMixture and
apply check a stack through KrausChannel, the one trace-preservation check.  A
PIO, a convex mixture of PPIOs, is a ChannelMixture of their stacks; a general
PPIO is a stack that classify labels ppio.

classify decides physically-free in every Kraus representation of a channel;
its other labels read the representation as given.
"""

from __future__ import annotations

import numpy as np

from .linalg import dag
from .states import DensityMatrix, _check_count, _check_dims, _checked_state, _haar_isometries

KRAUS_TOL = 1e-9
CLASSIFY_TOL = 1e-9

LABEL_INCOHERENT = "incoherent"
LABEL_IUO = "iuo"
LABEL_PPIO = "ppio"
LABEL_RANK_ONE_PPIO = "rank-one-ppio"
LABEL_PHYSICALLY_FREE = "physically-free"


class KrausChannel:
    """A CPTP map of a system into itself, given by its square Kraus
    operators, kept as one read-only stack ``ops`` of shape (n, dim, dim)."""

    __slots__ = ("ops", "dim")

    def __init__(self, ops):
        if isinstance(ops, KrausChannel):
            raise TypeError("expected a Kraus stack, got a KrausChannel: pass its .ops")
        ops = np.array(ops, dtype=complex)  # raises if the shapes differ
        if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
            raise ValueError("a channel needs at least one Kraus operator, all square of one shape")
        dim = ops.shape[2]
        # sum_n K_n† K_n = F† F for the operators stacked into one column F;
        # a non-finite entry makes err nan, which fails the check too
        flat = ops.reshape(-1, dim)
        err = float(np.abs(dag(flat) @ flat - np.eye(dim)).max())
        if not err <= KRAUS_TOL:
            raise ValueError(
                f"channel is not trace preserving: max |sum K†K - I| = {err:.3e} > {KRAUS_TOL:g}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")


class ChannelMixture:
    """Convex combination of Kraus stacks, each checked and kept read-only.

    Mixtures are applied as the weighted sum of the component outputs; they
    are deliberately not flattened into one Kraus set, so the number of
    components stays observable.
    """

    __slots__ = ("weights", "components")

    def __init__(self, weights, components):
        weights = tuple(float(w) for w in weights)
        components = tuple(KrausChannel(c).ops for c in components)
        if len(weights) != len(components) or not components:
            raise ValueError("weights and components must be equal-length and non-empty")
        if not all(0 < w < np.inf for w in weights):  # a nan weight fails too
            raise ValueError("mixture weights must be finite and positive")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError(f"mixture weights sum to {sum(weights):.12g}, expected 1")
        if len({c.shape[-1] for c in components}) != 1:
            raise ValueError("mixture components must share dimensions")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("ChannelMixture is immutable")


def apply(chan, rho):
    """Apply a Kraus stack (n, d, d), or a ChannelMixture of them, to a state of
    its own system.

    DensityMatrix in, DensityMatrix out (revalidated); a plain matrix, checked
    on entry, comes out as a matrix.  A channel on one side of a bipartite
    state, such as U_a (x) {B_j}, acts through linalg.apply_local instead.
    """
    if not isinstance(chan, ChannelMixture):
        chan = ChannelMixture((1.0,), (chan,))  # which checks the stack
    state = isinstance(rho, DensityMatrix)
    m = _checked_state(rho)[0]
    dim = chan.components[0].shape[-1]
    if m.shape[0] != dim:
        raise ValueError(f"state dimension {m.shape[0]} does not match channel ({dim})")
    out = sum(w * (c @ m @ c.conj().swapaxes(-1, -2)).sum(axis=0)
              for w, c in zip(chan.weights, chan.components))
    return DensityMatrix(out, rho.dims) if state else out


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _iuo_mats(perms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """IUO matrices sum_y e^{i phases[y]} |perms[y]><y| of stacked perms and phases (..., d),
    checked and written for the whole stack at once."""
    *lead, d = perms.shape
    if phases.shape != perms.shape or not np.isfinite(phases).all():
        raise ValueError(f"phase vectors must be finite and of length {d}")
    bad = ~(perms[..., None] == np.arange(d)).any(axis=-2).all(axis=-1)  # a value never hit
    if bad.any():
        raise ValueError(f"not a permutation of range({d}): {perms[bad][0].tolist()}")
    u, n = np.zeros((perms.size // d, d, d), dtype=complex), np.arange(perms.size // d)
    u[n[:, None], perms.reshape(-1, d), np.arange(d)] = np.exp(1j * phases.reshape(-1, d))
    return u.reshape(*lead, d, d)


def make_iuo(perm, phases) -> np.ndarray:
    """Kraus stack (1, d, d) of the incoherently unitary operation
    sum_y e^{i th_y} |perm(y)><y|: the PPIO with one projector, the identity."""
    arr = np.asarray(perm)
    if arr.ndim != 1 or not arr.size:
        raise ValueError(f"a permutation is a non-empty 1-D sequence, got shape {arr.shape}")
    if not all(isinstance(p, (int, np.integer)) and not isinstance(p, bool) for p in perm):
        raise ValueError(f"a permutation holds integers, got {list(perm)!r}")
    return _iuo_mats(arr.astype(int), np.asarray(phases, dtype=float))[None]


def _is_iuo(u) -> bool:
    try:
        return LABEL_IUO in classify([u])  # raises for every matrix that is not unitary
    except ValueError:
        return False


def _require_iuo(u, what: str) -> np.ndarray:
    if not _is_iuo(u):
        raise ValueError(f"{what} is not a phase-decorated permutation of the reference basis")
    return np.array(u, dtype=complex)


def make_rank_one_ppio(dim: int, unitaries) -> np.ndarray:
    """Kraus stack (dim, dim, dim) of the rank-one PPIO {U_j |j><j|}, with one
    IUO matrix U_j per basis level.

    Only the j-th column of U_j survives, so the channel sends every input to
    a state diagonal in the reference basis (up to the permutations).
    """
    if len(unitaries) != dim:
        raise ValueError(f"need {dim} unitaries (one per level), got {len(unitaries)}")
    for j, u in enumerate(unitaries):
        if _require_iuo(u, f"unitary #{j}").shape != (dim, dim):
            raise ValueError(f"unitary #{j} is {np.shape(u)}, expected ({dim}, {dim})")
    return _own_columns(np.array(unitaries, dtype=complex))


def _own_columns(u: np.ndarray) -> np.ndarray:
    """Rank-one PPIO stacks (..., d, d, d) {U_j |j><j|}: column j of each level's U_j."""
    return np.where(np.eye(u.shape[-1], dtype=bool)[:, None, :], u, 0)


def dephasing_channel(dim: int) -> np.ndarray:
    """Kraus stack {|j><j|} of full dephasing in the reference basis: the
    canonical rank-one PPIO."""
    eye = np.eye(dim, dtype=complex)
    return eye[:, :, None] * eye[:, None, :]


def make_physically_free(u_a, b_ops) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stacks (1, d_a, d_a) and (n, d_b, d_b) of the bipartite channel
    {U_a (x) B_j}, as its two checked factors.

    u_a must be an IUO on A; the B-side operators must satisfy
    sum_j B_j† B_j = I_b.
    """
    u = _require_iuo(u_a, "u_a")
    try:
        b = KrausChannel(b_ops)
    except ValueError as exc:
        raise ValueError(f"B-side Kraus set incomplete: {exc}") from exc
    return u[None], b.ops


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(ops, dims=None) -> frozenset:
    """Structural labels of a Kraus stack (n, d, d) in the reference basis,
    checked through KrausChannel (U_a (x) {B_j} is classified by its joint
    stack {U_a (x) B_j}).

    Returns any of {incoherent, iuo, ppio, rank-one-ppio, physically-free}.
    The physically-free label needs the bipartite split ``dims`` and is decided
    in any Kraus representation of the channel; the other labels read the stack
    as given.  An empty set means no structure was recognized.
    """
    ops = KrausChannel(ops).ops
    d = ops.shape[-1]
    labels = set()
    nz = np.abs(ops) > CLASSIFY_TOL  # (n, d, d)
    if nz.sum(axis=1).max() <= 1:  # no column of any operator holds two entries
        labels.add(LABEL_INCOHERENT)
        cols = nz.any(axis=1)  # the columns each operator keeps
        if (
            nz.sum(axis=2).max() <= 1  # ... each sent to its own row
            and np.all(np.abs(np.abs(ops[nz]) - 1.0) <= CLASSIFY_TOL)  # with a unit-modulus entry
            and cols.any(axis=1).all()  # no operator is zero
            and np.all(cols.sum(axis=0) == 1)  # the kept columns partition range(d)
        ):
            labels.add(LABEL_PPIO)
            if len(ops) == 1:
                labels.add(LABEL_IUO)
            if len(ops) == d and np.all(cols.sum(axis=1) == 1):
                labels.add(LABEL_RANK_ONE_PPIO)

    if dims is not None and _is_factorizable_free(ops, dims):
        labels.add(LABEL_PHYSICALLY_FREE)
    return frozenset(labels)


def _is_factorizable_free(ops: np.ndarray, dims) -> bool:
    """Does every Kraus operator factor as U_a (x) B_j with one common IUO?

    Exactly then is the realignment R[(i,k),(n,j,l)] = K_n[(i,j),(k,l)] the
    product vec(U_a) vec(B)^T (operator-Schmidt rank one), with U_a sqrt(d_a)
    times R's leading left singular vector, up to a phase.  Every Kraus set of
    the channel is then U_a (x) {B'_i}, so the answer holds in all of them.
    """
    d_a, d_b = _check_dims(dims)
    if ops.shape[-1] != d_a * d_b:
        return False
    r = ops.reshape(-1, d_a, d_b, d_a, d_b).transpose(1, 3, 0, 2, 4).reshape(d_a * d_a, -1)
    u, s, _ = np.linalg.svd(r, full_matrices=False)
    return bool(s[1:].sum() <= 10 * CLASSIFY_TOL * s[0]
                and _is_iuo(np.sqrt(d_a) * u[:, 0].reshape(d_a, d_a)))


# ---------------------------------------------------------------------------
# Random sampling: a raw draw (_draw_*), then a build that takes stacks, which
# the suites run on whole chunks of draws.
# ---------------------------------------------------------------------------


def _draw_iuo(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """An IUO's raw draw: a permutation and a phase vector (dim,), from one rng.random
    call, as one level of a rank-one PPIO is drawn."""
    u = rng.random(2 * dim)
    return u[:dim].argsort(kind="stable"), 2.0 * np.pi * u[dim:]


def random_iuo(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Kraus stack (1, dim, dim) of a uniformly random permutation with i.i.d.
    uniform phases in [0, 2pi)."""
    _check_count("dim", dim)
    return _iuo_mats(*_draw_iuo(dim, rng))[None]


def _draw_rank_one_ppio(dim: int, rng, n: int, injective: bool) -> tuple[np.ndarray, np.ndarray]:
    """n rank-one PPIOs' raw draws, (n, dim, dim) each, in one rng.random call: per sample,
    each level's permutation (one for all, if injective) is the stable argsort of dim
    uniforms, and its phases are 2pi times the rest, so a stack draws as its samples do."""
    k = (1 if injective else dim) * dim
    u = rng.random((n, k + dim * dim))
    perms = u[:, :k].reshape(n, -1, dim).argsort(kind="stable")
    return perms.repeat(dim if injective else 1, 1), 2.0 * np.pi * u[:, k:].reshape(n, dim, dim)


def _rank_one_ppio_ops(perms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Rank-one PPIO stacks (..., d, d, d) of their raw draws (..., d, d)."""
    return _own_columns(_iuo_mats(perms, phases))


def random_rank_one_ppio(
    dim: int, rng: np.random.Generator, n: int, injective: bool = False
) -> np.ndarray:
    """Kraus stacks of n random rank-one PPIOs, shape (n, dim, dim, dim).
    K_j = U_j |j><j| keeps only column j of a random IUO U_j drawn for level j:
    e^{i th_j} at row perm_j(j).  With ``injective=True`` the levels share one
    permutation, so the level map j -> perm(j) is a permutation (no two levels
    merge): the class on which the coherence correlation is representation
    independent; merging PPIOs can only drop it further."""
    _check_count("dim", dim)
    return _rank_one_ppio_ops(*_draw_rank_one_ppio(dim, rng, n, injective))


def _draw_kraus(dim: int, n_ops: int, rng: np.random.Generator) -> np.ndarray:
    """A channel's raw draw: the real, then the imaginary normals (2, n_ops * dim, dim)."""
    return rng.standard_normal((2, n_ops * dim, dim))


def _kraus_ops(g: np.ndarray) -> np.ndarray:
    """Kraus stacks (..., n, d, d) of the Haar isometries of raw normals (..., 2, n * d, d)."""
    return _haar_isometries(g).reshape(*g.shape[:-3], -1, g.shape[-1], g.shape[-1])


def random_kraus_ops(dim: int, n_ops: int, rng: np.random.Generator) -> np.ndarray:
    """Random trace-preserving Kraus stack (n_ops, dim, dim) via a Haar-random
    isometry."""
    _check_count("dim", dim)
    _check_count("n_ops", n_ops)
    return _kraus_ops(_draw_kraus(dim, n_ops, rng))


def random_physically_free(
    d_a: int, d_b: int, rng: np.random.Generator, n_b_ops: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stacks (1, d_a, d_a) and (n_b_ops, d_b, d_b) of a random
    U_a (x) {B_j}: a random IUO on A, then a random channel on B."""
    _check_count("n_b_ops", n_b_ops)
    return random_iuo(d_a, rng), random_kraus_ops(d_b, n_b_ops, rng)
