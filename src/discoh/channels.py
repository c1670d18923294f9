"""Kraus channels and the incoherent-operation families used throughout:
incoherently unitary operations (IUOs), projective physically incoherent
operations (PPIOs), their rank-one special case, convex mixtures, and the
factorizable physically free channels U_a (x) B_j.

Classification is structural: it inspects the Kraus representation it is
given.  Labels are sound but detection of equivalence under Kraus gauge
freedom is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix, as_frame, dag, tensor
from .states import DensityMatrix

KRAUS_TOL = 1e-9
CLASSIFY_TOL = 1e-9

LABEL_INCOHERENT = "incoherent"
LABEL_IUO = "iuo"
LABEL_PPIO = "ppio"
LABEL_RANK_ONE_PPIO = "rank-one-ppio"
LABEL_PHYSICALLY_FREE = "physically-free"


class KrausChannel:
    """A CPTP map given by its Kraus operators."""

    __slots__ = ("ops", "in_dim", "out_dim")

    def __init__(self, ops, tol: float = KRAUS_TOL):
        mats = tuple(as_complex_matrix(k).copy() for k in ops)
        if not mats:
            raise ValueError("a channel needs at least one Kraus operator")
        out_dim, in_dim = mats[0].shape
        for k in mats:
            if k.shape != (out_dim, in_dim):
                raise ValueError("all Kraus operators must share one shape")
            k.setflags(write=False)
        total = sum(dag(k) @ k for k in mats)
        err = float(np.max(np.abs(total - np.eye(in_dim))))
        if err > tol:
            raise ValueError(
                f"channel is not trace preserving: max |sum K†K - I| = {err:.3e} > {tol:g}"
            )
        object.__setattr__(self, "ops", mats)
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")

    def __repr__(self):
        return f"KrausChannel(n_ops={len(self.ops)}, dim={self.in_dim})"

    def __call__(self, rho):
        return apply(self, rho)


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
        if any(w <= 0 for w in weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError(f"mixture weights sum to {sum(weights):.12g}, expected 1")
        dims = {(c.in_dim, c.out_dim) for c in components}
        if len(dims) != 1:
            raise ValueError("mixture components must share dimensions")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("ChannelMixture is immutable")

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def in_dim(self) -> int:
        return self.components[0].in_dim

    def __call__(self, rho):
        return apply(self, rho)


def apply(chan, rho):
    """Apply a channel (or mixture) to a state.

    DensityMatrix in, DensityMatrix out (revalidated); plain matrices pass
    through as matrices.
    """
    if isinstance(chan, ChannelMixture):
        mats = [apply_mat(c, _input_mat(chan, rho)) for c in chan.components]
        out = sum(w * m for w, m in zip(chan.weights, mats))
    else:
        out = apply_mat(chan, _input_mat(chan, rho))
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out, rho.dims)
    return out


def _input_mat(chan, rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        m = rho.mat
    else:
        m = as_complex_matrix(rho)
    if m.shape[0] != chan.in_dim:
        raise ValueError(f"state dimension {m.shape[0]} does not match channel ({chan.in_dim})")
    if isinstance(rho, DensityMatrix) and chan.in_dim != _out_dim(chan):
        raise ValueError("dimension-changing channels cannot return a DensityMatrix")
    return m


def _out_dim(chan) -> int:
    return chan.components[0].out_dim if isinstance(chan, ChannelMixture) else chan.out_dim


def apply_mat(chan: KrausChannel, m: np.ndarray) -> np.ndarray:
    return sum(k @ m @ dag(k) for k in chan.ops)


def lift_to_bipartite(chan: KrausChannel, d_b: int) -> KrausChannel:
    """Extend a channel on A to A (x) B by tensoring identity on B."""
    eye = np.eye(d_b)
    return KrausChannel([tensor(k, eye) for k in chan.ops])


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _check_permutation(perm, dim: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    if perm.shape != (dim,) or sorted(perm.tolist()) != list(range(dim)):
        raise ValueError(f"not a permutation of range({dim}): {perm.tolist()}")
    return perm


def iuo_matrix(perm, phases) -> np.ndarray:
    """Matrix of the incoherently unitary operation sum_y e^{i th_y} |perm(y)><y|."""
    dim = len(perm)
    perm = _check_permutation(perm, dim)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (dim,):
        raise ValueError(f"need {dim} phases, got {phases.shape}")
    u = np.zeros((dim, dim), dtype=complex)
    u[perm, np.arange(dim)] = np.exp(1j * phases)
    return u


def make_iuo(perm, phases) -> KrausChannel:
    """Single-Kraus unitary channel from a permutation decorated with phases."""
    return KrausChannel([iuo_matrix(perm, phases)])


def _is_iuo_matrix(u: np.ndarray, tol: float = CLASSIFY_TOL) -> bool:
    d = u.shape[0]
    if u.shape != (d, d):
        return False
    nz = np.abs(u) > tol
    if not np.all(nz.sum(axis=0) == 1):
        return False
    rows = nz.argmax(axis=0)
    if len(set(rows.tolist())) != d:
        return False
    vals = u[rows, np.arange(d)]
    return bool(np.max(np.abs(np.abs(vals) - 1.0)) <= tol)


def _require_iuo_matrix(u, what: str) -> np.ndarray:
    if isinstance(u, KrausChannel):
        if len(u.ops) != 1:
            raise ValueError(f"{what} must be a single-Kraus unitary channel")
        u = u.ops[0]
    u = as_complex_matrix(u)
    if not _is_iuo_matrix(u):
        raise ValueError(f"{what} is not a phase-decorated permutation of the reference basis")
    return u


def make_rank_one_ppio(dim: int, unitaries) -> KrausChannel:
    """Rank-one PPIO: Kraus set {U_j |j><j|} with one IUO per basis vector.

    Only the j-th column of U_j survives, so the channel sends every input to
    a state diagonal in the reference basis (up to the permutations).
    """
    if len(unitaries) != dim:
        raise ValueError(f"need {dim} unitaries (one per level), got {len(unitaries)}")
    ops = []
    for j, u in enumerate(unitaries):
        u = _require_iuo_matrix(u, f"unitary #{j}")
        if u.shape != (dim, dim):
            raise ValueError(f"unitary #{j} is {u.shape}, expected ({dim}, {dim})")
        k = np.zeros((dim, dim), dtype=complex)
        k[:, j] = u[:, j]
        ops.append(k)
    return KrausChannel(ops)


@dataclass(frozen=True)
class PPIOSpec:
    """One projective physically incoherent operation.

    supports: index sets of the orthogonal incoherent projectors P_j (they
    must partition range(dim)); perms/phases define the incoherent unitary
    U_j attached to each projector, with K_j = U_j P_j.
    """

    dim: int
    supports: tuple
    perms: tuple
    phases: tuple

    def validate(self) -> None:
        seen: set[int] = set()
        for s in self.supports:
            s_set = set(int(y) for y in s)
            if not s_set or (s_set & seen):
                raise ValueError("projector supports must be disjoint and non-empty")
            seen |= s_set
        if seen != set(range(self.dim)):
            raise ValueError("projector supports must partition the basis index set")
        if len(self.perms) != len(self.supports) or len(self.phases) != len(self.supports):
            raise ValueError("need one permutation and one phase vector per projector")
        for p in self.perms:
            _check_permutation(p, self.dim)
        for ph in self.phases:
            if len(ph) != self.dim:
                raise ValueError(f"phase vectors must have length {self.dim}")


def make_ppio(spec: PPIOSpec) -> KrausChannel:
    """Channel with Kraus operators K_j = U_j P_j from a validated spec."""
    spec.validate()
    ops = []
    for support, perm, phases in zip(spec.supports, spec.perms, spec.phases):
        k = np.zeros((spec.dim, spec.dim), dtype=complex)
        for y in support:
            k[perm[y], y] = np.exp(1j * phases[y])
        ops.append(k)
    return KrausChannel(ops)


@dataclass(frozen=True)
class PIOSpec:
    """Convex combination of PPIOs with positive weights summing to one."""

    weights: tuple
    components: tuple

    def validate(self) -> None:
        if abs(sum(self.weights) - 1.0) > 1e-10:
            raise ValueError("PIO weights must sum to 1")
        if any(w <= 0 for w in self.weights):
            raise ValueError("PIO weights must be positive")
        for c in self.components:
            c.validate()


def make_pio(spec: PIOSpec) -> ChannelMixture:
    spec.validate()
    return ChannelMixture(spec.weights, [make_ppio(c) for c in spec.components])


def dephasing_channel(dim: int) -> KrausChannel:
    """Full dephasing in the reference basis: the canonical rank-one PPIO."""
    eye = np.eye(dim, dtype=complex)
    return make_rank_one_ppio(dim, [eye] * dim)


def make_physically_free(u_a, b_ops, tol: float = KRAUS_TOL) -> KrausChannel:
    """Bipartite channel with Kraus set {U_a (x) B_j}.

    u_a must be an IUO on A; the B-side operators must satisfy
    sum_j B_j† B_j = I_b.
    """
    u = _require_iuo_matrix(u_a, "u_a")
    b_mats = [as_complex_matrix(b) for b in b_ops]
    d_b = b_mats[0].shape[0]
    total = sum(dag(b) @ b for b in b_mats)
    err = float(np.max(np.abs(total - np.eye(d_b))))
    if err > tol:
        raise ValueError(f"B-side Kraus set incomplete: max |sum B†B - I| = {err:.3e} > {tol:g}")
    return KrausChannel([tensor(u, b) for b in b_mats])


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _column_structure(k: np.ndarray, tol: float):
    """Nonzero columns of a Kraus operator, or None if any column has more
    than one nonzero entry (which rules out the incoherent families)."""
    nz = np.abs(k) > tol
    counts = nz.sum(axis=0)
    if np.any(counts > 1):
        return None
    cols = np.flatnonzero(counts == 1)
    rows = nz[:, cols].argmax(axis=0)
    vals = k[rows, cols]
    return cols, rows, vals


def classify(chan: KrausChannel, basis=None, dims=None, tol: float = CLASSIFY_TOL) -> frozenset:
    """Structural labels of a Kraus representation.

    Returns any of {incoherent, iuo, ppio, rank-one-ppio, physically-free}.
    The physically-free (factorizable) label needs the bipartite split, so it
    is only attempted when ``dims`` is given; detection is best-effort up to
    Kraus gauge freedom.  An empty set means no structure was recognized.
    """
    d = chan.in_dim
    frame = as_frame(basis, d)
    ops = chan.ops
    if frame is not None:
        ops = tuple(dag(frame) @ k @ frame for k in ops)

    labels = set()
    structures = [_column_structure(k, tol) for k in ops]
    if all(s is not None for s in structures):
        labels.add(LABEL_INCOHERENT)

        if len(ops) == 1:
            cols, rows, vals = structures[0]
            if (
                len(cols) == d
                and len(set(rows.tolist())) == d
                and np.max(np.abs(np.abs(vals) - 1.0)) <= tol
            ):
                labels.add(LABEL_IUO)

        covered: set[int] = set()
        is_ppio = True
        for s in structures:
            cols, rows, vals = s
            if (
                len(cols) == 0
                or len(set(rows.tolist())) != len(cols)
                or np.max(np.abs(np.abs(vals) - 1.0)) > tol
                or covered & set(cols.tolist())
            ):
                is_ppio = False
                break
            covered |= set(cols.tolist())
        if is_ppio and covered == set(range(d)):
            labels.add(LABEL_PPIO)
            if len(ops) == d and all(len(s[0]) == 1 for s in structures):
                labels.add(LABEL_RANK_ONE_PPIO)

    if dims is not None and _is_factorizable_free(ops, dims, tol):
        labels.add(LABEL_PHYSICALLY_FREE)
    return frozenset(labels)


def _blocks(k: np.ndarray, dims) -> np.ndarray:
    d_a, d_b = dims
    return k.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)


def _is_factorizable_free(ops, dims, tol: float) -> bool:
    """Does every Kraus operator factor as U_a (x) B_j with one common IUO?

    Writes each operator as a d_a x d_a grid of d_b x d_b blocks; for a
    common IUO the only nonzero blocks sit at (perm(c), c) and the blocks are
    proportional with unit-modulus ratios shared across operators.
    """
    d_a, d_b = dims
    if ops[0].shape != (d_a * d_b, d_a * d_b):
        return False
    grids = [_blocks(k, dims) for k in ops]
    norms = sum(np.abs(g).reshape(d_a, d_a, -1).max(axis=2) for g in grids)
    nz = norms > tol
    if not np.all(nz.sum(axis=0) == 1):
        return False
    perm = nz.argmax(axis=0)
    if len(set(perm.tolist())) != d_a:
        return False
    # reference column: the B_j candidates, up to one global phase
    refs = [g[perm[0], 0] for g in grids]
    j0 = int(np.argmax([np.abs(r).max() for r in refs]))
    for c in range(1, d_a):
        cur = grids[j0][perm[c], c]
        denom = np.vdot(refs[j0], refs[j0]).real
        if denom <= tol**2:
            return False
        ratio = np.vdot(refs[j0], cur) / denom
        if abs(abs(ratio) - 1.0) > 10 * tol:
            return False
        for g, ref in zip(grids, refs):
            if np.max(np.abs(g[perm[c], c] - ratio * ref)) > 10 * tol:
                return False
    # off-pattern blocks must vanish
    for g in grids:
        for r in range(d_a):
            for c in range(d_a):
                if r != perm[c] and np.max(np.abs(g[r, c])) > tol:
                    return False
    return True


# ---------------------------------------------------------------------------
# Random sampling (suite plumbing)
# ---------------------------------------------------------------------------


def random_iuo(dim: int, rng: np.random.Generator) -> KrausChannel:
    """Uniform random permutation with i.i.d. uniform phases in [0, 2pi)."""
    return make_iuo(rng.permutation(dim), rng.uniform(0.0, 2.0 * np.pi, dim))


def random_rank_one_ppio(
    dim: int, rng: np.random.Generator, injective: bool = False
) -> KrausChannel:
    """Random rank-one PPIO, one random IUO per basis level.

    With ``injective=True`` the level map j -> perm_j(j) is forced to be a
    permutation (no two levels merge), which is the class on which the
    coherence correlation is representation independent; the general class
    (default) may merge levels and can only drop the correlation further.
    """
    if injective:
        tau = rng.permutation(dim)
        unitaries = [iuo_matrix(tau, rng.uniform(0.0, 2.0 * np.pi, dim)) for _ in range(dim)]
    else:
        unitaries = [
            iuo_matrix(rng.permutation(dim), rng.uniform(0.0, 2.0 * np.pi, dim))
            for _ in range(dim)
        ]
    return make_rank_one_ppio(dim, unitaries)


def random_kraus_ops(dim: int, n_ops: int, rng: np.random.Generator) -> list:
    """Random trace-preserving Kraus set via a Haar-random isometry."""
    g = rng.standard_normal((n_ops * dim, dim)) + 1j * rng.standard_normal((n_ops * dim, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_ops)]


def random_physically_free(
    d_a: int, d_b: int, rng: np.random.Generator, n_b_ops: int = 2
) -> KrausChannel:
    u = iuo_matrix(rng.permutation(d_a), rng.uniform(0.0, 2.0 * np.pi, d_a))
    return make_physically_free(u, random_kraus_ops(d_b, n_b_ops, rng))

