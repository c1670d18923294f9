"""Kraus channels and the incoherent-operation families used throughout:
incoherently unitary operations (IUOs), projective physically incoherent
operations (PPIOs), their rank-one special case, and the factorizable
physically free channels U_a (x) B_j.  Every channel argument and result is one
(n, d, d) Kraus stack (U_a (x) B_j as its two factors, which act on the reshaped
state through linalg.apply_local).  Each builder takes the input that defines its
family: an IUO or a rank-one PPIO {e^{i th_j} |f(j)><j|} its level map f and phases,
checked by one function (an IUO's f a permutation), and U_a (x) {B_j} its two factor
stacks; a family's builder and sampler (a raw draw, then the build) share one
construction.  classify, ChannelMixture and apply check a stack through KrausChannel,
the one trace-preservation check.  A PIO, a convex mixture of PPIOs, is a
ChannelMixture of their stacks; a general PPIO is a stack that classify labels ppio.

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


def _level_map(level_map, phases, onto: bool) -> tuple[np.ndarray, np.ndarray]:
    """The checked level map f of range(d) into itself, a non-empty 1-D sequence of
    integers, and its d finite phases, as arrays; onto, f must be a permutation."""
    what = "a permutation" if onto else "a level map"
    f = np.asarray(level_map)
    if f.ndim != 1 or not f.size:
        raise ValueError(f"{what} is a non-empty 1-D sequence, got shape {f.shape}")
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in level_map):
        raise ValueError(f"{what} holds integers, got {list(level_map)!r}")
    d, phases = f.size, np.asarray(phases, dtype=float)
    if phases.shape != f.shape or not np.isfinite(phases).all():
        raise ValueError(f"phase vectors must be finite and of length {d}")
    if not ((0 <= f) & (f < d)).all():
        raise ValueError(f"{what} takes values in range({d}), got {f.tolist()}")
    if onto and len(set(f.tolist())) != d:
        raise ValueError(f"not a permutation of range({d}): {f.tolist()}")
    return f.astype(int), phases


def _iuo_mats(perms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """IUO matrices sum_y e^{i phases[y]} |perms[y]><y| of stacked permutations and phases
    (..., d), unchecked: the summed operators of the non-merging rank-one PPIOs."""
    return _rank_one_stacks(perms, np.exp(1j * phases)).sum(axis=-3)


def make_iuo(perm, phases) -> np.ndarray:
    """Kraus stack (1, d, d) of the incoherently unitary operation
    sum_y e^{i th_y} |perm(y)><y|: the PPIO with one projector, the identity."""
    return _iuo_mats(*_level_map(perm, phases, onto=True))[None]


def make_rank_one_ppio(level_map, phases) -> np.ndarray:
    """Kraus stack (d, d, d) of the rank-one PPIO {e^{i th_j} |f(j)><j|} = {U_j |j><j|} of a
    level map f of range(d) into itself and phases th, U_j any IUO sending j to f(j) with
    phase th_j; the levels that f sends to one output merge there."""
    f, phases = _level_map(level_map, phases, onto=False)
    return _rank_one_stacks(f, np.exp(1j * phases))


def _is_iuo(ops) -> bool:
    try:
        return LABEL_IUO in classify(ops)  # raises for every stack that is not trace preserving
    except ValueError:
        return False


def _rank_one_stacks(level_maps: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Rank-one PPIO stacks (..., d, d, d) {entries[j] |f(j)><j|} of level maps f and their
    entries (..., d), in one scatter."""
    *lead, d = level_maps.shape
    n, j = np.arange(level_maps.size // d)[:, None], np.arange(d)
    ops = np.zeros((n.size, d, d, d), dtype=complex)
    ops[n, j, level_maps.reshape(-1, d), j] = entries.reshape(-1, d)
    return ops.reshape(*lead, d, d, d)


def dephasing_channel(dim: int) -> np.ndarray:
    """Kraus stack {|j><j|} of full dephasing in the reference basis: the
    canonical rank-one PPIO."""
    _check_count("dim", dim)
    return _rank_one_stacks(np.arange(dim), np.ones(dim))


def make_physically_free(u_a, b_ops) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stacks (1, d_a, d_a) and (n, d_b, d_b) of the bipartite channel {U_a (x) B_j},
    as its two checked factors: u_a an IUO stack, as make_iuo and random_iuo return it,
    and b_ops with sum_j B_j† B_j = I_b."""
    u = np.array(u_a, dtype=complex)
    if u.ndim != 3 or len(u) != 1 or not _is_iuo(u):
        raise ValueError(f"u_a must be a one-operator stack (1, d_a, d_a) of a phase-decorated "
                         f"permutation of the reference basis, got one of shape {u.shape}")
    try:
        b = KrausChannel(b_ops)
    except ValueError as exc:
        raise ValueError(f"B-side Kraus set incomplete: {exc}") from exc
    return u, b.ops


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
                and _is_iuo(np.sqrt(d_a) * u[:, 0].reshape(1, d_a, d_a)))


# ---------------------------------------------------------------------------
# Random sampling: a raw draw (_draw_*), then a build that takes stacks, which
# the suites run on whole chunks of draws.
# ---------------------------------------------------------------------------


def random_iuo(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Kraus stack (1, dim, dim) of a uniformly random permutation with i.i.d.
    uniform phases in [0, 2pi): the sum of a random non-merging rank-one PPIO's
    operators, from the same draw."""
    _check_count("dim", dim)
    return _iuo_mats(*_draw_rank_one_ppio(dim, rng, 1, True))


def _draw_rank_one_ppio(dim: int, rng, n: int, injective: bool) -> tuple[np.ndarray, np.ndarray]:
    """n rank-one PPIOs' raw draws, a level map and phases (n, dim) each, in one rng.random
    call: per sample, f(j) = floor(dim u_j) of the first dim uniforms (their stable argsort
    if injective), and the phases are 2pi times the rest, so a stack draws as its samples do."""
    u = rng.random((n, 2 * dim))
    keys = u[:, :dim]
    maps = keys.argsort(kind="stable") if injective else (dim * keys).astype(int)
    return maps, 2.0 * np.pi * u[:, dim:]


def random_rank_one_ppio(dim: int, rng: np.random.Generator, n: int,
                         injective: bool = False) -> np.ndarray:
    """Kraus stacks (n, dim, dim, dim) of n random rank-one PPIOs {e^{i th_j} |f(j)><j|},
    f(j) and th_j i.i.d. uniform in range(dim) and [0, 2pi).  With ``injective=True`` f is
    a uniform permutation (no two levels merge): the class on which the coherence
    correlation is representation independent; merging PPIOs can only drop it further."""
    _check_count("dim", dim)
    _check_count("n", n)
    maps, phases = _draw_rank_one_ppio(dim, rng, n, injective)
    return _rank_one_stacks(maps, np.exp(1j * phases))


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
