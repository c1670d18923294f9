"""Kraus channels and the incoherent-operation families used throughout:
incoherently unitary operations (IUOs), projective physically incoherent
operations (PPIOs), their rank-one special case, and the factorizable
physically free channels U_a (x) B_j.  A channel is one (n, d, d) stack of
Kraus operators: each family has one builder and one sampler, and both return
stacks (U_a (x) B_j as its two factors), which act on the reshaped bipartite
state (linalg.apply_local), never lifted to A (x) B.  classify takes a stack
(U_a (x) B_j as its joint stack) and checks it through KrausChannel, the one
trace-preservation check.  A PIO, a convex mixture of PPIOs, is a
ChannelMixture of KrausChannels, which ``apply`` applies to a state of their
own system.

Classification is structural: it inspects the Kraus representation it is
given.  Labels are sound but detection of equivalence under Kraus gauge
freedom is out of scope.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_complex_matrix, dag
from .states import DensityMatrix

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

    def __repr__(self):
        return f"KrausChannel(n_ops={len(self.ops)}, dim={self.dim})"


class ChannelMixture:
    """Convex combination of channels, kept as a weighted list.

    Mixtures are applied as the weighted sum of the component outputs; they
    are deliberately not flattened into one Kraus set, so the number of
    components stays observable.
    """

    __slots__ = ("weights", "components")

    def __init__(self, weights, components):
        weights = tuple(float(w) for w in weights)
        components = tuple(components)
        if len(weights) != len(components) or not components:
            raise ValueError("weights and components must be equal-length and non-empty")
        if not all(0 < w < np.inf for w in weights):  # a nan weight fails too
            raise ValueError("mixture weights must be finite and positive")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError(f"mixture weights sum to {sum(weights):.12g}, expected 1")
        if len({c.dim for c in components}) != 1:
            raise ValueError("mixture components must share dimensions")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("ChannelMixture is immutable")


def apply(chan, rho):
    """Apply a KrausChannel, or a mixture of them, to a state of its own system.

    DensityMatrix in, DensityMatrix out (revalidated); plain matrices pass
    through as matrices.  A channel on one side of a bipartite state, such as
    U_a (x) {B_j}, acts through linalg.apply_local instead.
    """
    mixture = isinstance(chan, ChannelMixture)
    weights, parts = (chan.weights, chan.components) if mixture else ((1.0,), (chan,))
    state = isinstance(rho, DensityMatrix)
    m = rho.mat if state else as_complex_matrix(rho)
    dim = parts[0].dim
    if m.shape[0] != dim:
        raise ValueError(f"state dimension {m.shape[0]} does not match channel ({dim})")
    out = sum(w * (c.ops @ m @ c.ops.conj().swapaxes(-1, -2)).sum(axis=0)
              for w, c in zip(weights, parts))
    return DensityMatrix(out, rho.dims) if state else out


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def make_ppio(dim: int, supports, perms, phases) -> np.ndarray:
    """Kraus stack (n, dim, dim) of the projective physically incoherent
    operation K_j = U_j P_j.

    supports: index sets of the orthogonal incoherent projectors P_j (they
    must partition range(dim)); perms[j] and phases[j] define the incoherent
    unitary U_j = sum_y e^{i phases[j][y]} |perms[j][y]><y| attached to P_j.
    """
    seen: set[int] = set()
    for s in supports:
        s_set = {int(y) for y in s}
        if not s_set or (s_set & seen):
            raise ValueError("projector supports must be disjoint and non-empty")
        seen |= s_set
    if seen != set(range(dim)):
        raise ValueError("projector supports must partition the basis index set")
    if len(perms) != len(supports) or len(phases) != len(supports):
        raise ValueError("need one permutation and one phase vector per projector")
    ops = np.zeros((len(supports), dim, dim), dtype=complex)
    for k, (support, perm, ph) in enumerate(zip(supports, perms, phases)):
        perm, ph = np.asarray(perm, dtype=int), np.asarray(ph, dtype=float)
        if perm.shape != (dim,) or sorted(perm.tolist()) != list(range(dim)):
            raise ValueError(f"not a permutation of range({dim}): {perm.tolist()}")
        if ph.shape != (dim,) or not np.isfinite(ph).all():
            raise ValueError(f"phase vectors must be finite and of length {dim}")
        cols = np.array([int(y) for y in support])
        ops[k, perm[cols], cols] = np.exp(1j * ph[cols])
    return ops


def make_iuo(perm, phases) -> np.ndarray:
    """Kraus stack (1, d, d) of the incoherently unitary operation
    sum_y e^{i th_y} |perm(y)><y|: the PPIO with one projector, the identity."""
    return make_ppio(len(perm), [range(len(perm))], [perm], [phases])


def _require_iuo(u, what: str) -> np.ndarray:
    try:
        iuo = LABEL_IUO in classify([u])  # raises for every matrix that is not unitary
    except ValueError:
        iuo = False
    if not iuo:
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
    ops = np.zeros((dim, dim, dim), dtype=complex)
    for j, u in enumerate(unitaries):
        u = _require_iuo(u, f"unitary #{j}")
        if u.shape != (dim, dim):
            raise ValueError(f"unitary #{j} is {u.shape}, expected ({dim}, {dim})")
        ops[j, :, j] = u[:, j]
    return ops


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
    The physically-free (factorizable) label needs the bipartite split, so it
    is only attempted when ``dims`` is given; detection is best-effort up to
    Kraus gauge freedom.  An empty set means no structure was recognized.
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

    Writes each operator as a d_a x d_a grid of d_b x d_b blocks; for a
    common IUO the only nonzero blocks, in every operator, sit at (perm(c), c),
    and the block of column c is ratio_c times the block of column 0, with
    unit-modulus ratios shared across operators.
    """
    d_a, d_b = dims
    if ops.shape[1:] != (d_a * d_b, d_a * d_b):
        return False
    grids = ops.reshape(-1, d_a, d_b, d_a, d_b).transpose(0, 1, 3, 2, 4)
    nz = np.abs(grids).max(axis=(3, 4)).sum(axis=0) > CLASSIFY_TOL
    if not np.all(nz.sum(axis=0) == 1):
        return False
    perm, cols = nz.argmax(axis=0), np.arange(d_a)
    if len(set(perm.tolist())) != d_a:
        return False
    kept = grids[:, perm, cols]  # (n, d_a, d_b, d_b): each column's block
    # the operator with the largest column-0 block fixes the ratios
    ref = kept[int(np.abs(kept[:, 0]).max(axis=(1, 2)).argmax())]
    denom = np.vdot(ref[0], ref[0]).real
    if denom <= CLASSIFY_TOL**2:
        return False
    ratios = np.einsum("jl,cjl->c", ref[0].conj(), ref) / denom
    if np.max(np.abs(np.abs(ratios) - 1.0)) > 10 * CLASSIFY_TOL:
        return False
    return bool(np.max(np.abs(kept - ratios[:, None, None] * kept[:, :1])) <= 10 * CLASSIFY_TOL)


# ---------------------------------------------------------------------------
# Random sampling (suite plumbing)
# ---------------------------------------------------------------------------


def random_iuo(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Kraus stack (1, dim, dim) of a uniformly random permutation with i.i.d.
    uniform phases in [0, 2pi)."""
    return make_iuo(rng.permutation(dim), rng.uniform(0.0, 2.0 * np.pi, dim))


def random_rank_one_ppio(
    dim: int, rng: np.random.Generator, n: int, injective: bool = False
) -> np.ndarray:
    """Kraus stacks of n random rank-one PPIOs, shape (n, dim, dim, dim).
    K_j = U_j |j><j| keeps only column j of a random IUO U_j drawn for level j:
    e^{i th_j} at row perm_j(j).  With ``injective=True`` the levels share one
    permutation, so the level map j -> perm(j) is a permutation (no two levels
    merge): the class on which the coherence correlation is representation
    independent; merging PPIOs can only drop it further."""
    rows, phases = np.empty((n, dim), dtype=int), np.empty((n, dim, dim))
    for k in range(n):
        if injective:
            rows[k] = rng.permutation(dim)
            phases[k] = rng.uniform(0.0, 2.0 * np.pi, (dim, dim))
        else:
            for j in range(dim):
                rows[k, j] = rng.permutation(dim)[j]
                phases[k, j] = rng.uniform(0.0, 2.0 * np.pi, dim)
    levels = np.arange(dim)
    ops = np.zeros((n, dim, dim, dim), dtype=complex)
    ops[np.arange(n)[:, None], levels, rows, levels] = np.exp(1j * phases[:, levels, levels])
    return ops


def random_kraus_ops(dim: int, n_ops: int, rng: np.random.Generator) -> np.ndarray:
    """Random trace-preserving Kraus stack (n_ops, dim, dim) via a Haar-random
    isometry."""
    g = rng.standard_normal((n_ops * dim, dim)) + 1j * rng.standard_normal((n_ops * dim, dim))
    q, _ = np.linalg.qr(g)
    return q.reshape(n_ops, dim, dim)


def random_physically_free(
    d_a: int, d_b: int, rng: np.random.Generator, n_b_ops: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stacks (1, d_a, d_a) and (n_b_ops, d_b, d_b) of a random
    U_a (x) {B_j}: a random IUO on A, then a random channel on B."""
    return random_iuo(d_a, rng), random_kraus_ops(d_b, n_b_ops, rng)
