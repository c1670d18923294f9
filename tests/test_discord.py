import functools
import importlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from discoh.channels import (
    LABEL_PHYSICALLY_FREE,
    classify,
    dephasing_channel,
    make_physically_free,
    make_rank_one_ppio,
    random_kraus_ops,
    random_rank_one_ppio,
)
from discoh.discord import (
    OptimizerConfig,
    _level_map_drops,
    _merged_blocks,
    coherence_discord,
    coherence_discord_symmetric,
    discord,
    discord_via_coherence,
    minimize,
    ppio_monotonicity_gap,
    qubit_discord_grid,
)
from discoh.linalg import apply_local, dephase_local, partial_trace
from discoh.measures import correlated_coherence, entropy, mutual_information
from discoh.states import (
    DensityMatrix,
    ReferenceBasis,
    bell_phi_plus,
    classical_quantum,
    haar_unitary,
    matrix_to_json,
    random_state,
    rng_from_seed,
    werner,
)
from discoh.verify import nonconvexity_witness, run_suite

# the module itself, for monkeypatch: the function discord, which discoh exports, shadows the
# submodule as the attribute discoh.discord, so monkeypatch.setattr("discoh.discord.X", ...)
# would look X up on the function
DISCORD_MODULE = importlib.import_module("discoh.discord")

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def product_state(a, b):
    return DensityMatrix(np.kron(a, b), (a.shape[0], b.shape[0]))


def cq_example():
    return classical_quantum([0.5, 0.5], [np.diag([1.0, 0.0]), PLUS])


def random_states(n, d_a=2, d_b=2, seed=0):
    rng = np.random.default_rng(seed)
    return [
        random_state(d_a, d_b, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# the basis search on U(d_a)
# ---------------------------------------------------------------------------


def expm_skew(x):
    # exp(X) for skew-Hermitian X, from the eigensystem of the Hermitian iX
    w, v = np.linalg.eigh(1j * x)
    return (v * np.exp(-1j * w)) @ v.conj().T


def random_skew(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g - g.conj().T


def ginibre(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def hidden_basis_state(rng, d_a, d_b=2):
    # classical-quantum in a random frame of A: exact discord 0
    blocks = [ginibre(rng, d_b, d_b) for _ in range(d_a)]
    basis = ReferenceBasis(haar_unitary(d_a, rng))
    return classical_quantum(rng.dirichlet(np.ones(d_a)), blocks, basis_a=basis)


def probe_blind_state(rng):
    # cq in a Haar frame of A, with equal weights on two B blocks the probe X cannot tell
    # apart, Tr(X sigma_0) = Tr(X sigma_1): its slice is degenerate there, so the frame
    # the probe picks is not the state's own
    x = DISCORD_MODULE._PROBE[:2, :2]
    sx, sz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    c_x, c_z = np.trace(x @ sx).real, np.trace(x @ sz).real
    blind = (c_z * sx - c_x * sz) / (4.0 * np.hypot(c_x, c_z))  # traceless, Tr(X blind) = 0
    blocks = [np.eye(2) / 2, np.eye(2) / 2 + blind, ginibre(rng, 2, 2)]
    basis = ReferenceBasis(haar_unitary(3, rng))
    return classical_quantum([0.35, 0.35, 0.3], blocks, basis_a=basis)


def counting_minimize(calls):
    """minimize that appends the row count of each stacked objective call to calls; its
    trailing arguments, the floor and the probe frame among them, pass through as
    perfbench's tracer passes them."""
    def counting(objective, frames, *args):
        def counted(x):
            calls.append(len(x))
            return objective(x)

        return minimize(counted, frames, *args)

    return counting


def test_riemannian_gradient_matches_finite_differences():
    from discoh.discord import _basis_objective, _riemannian

    rng = np.random.default_rng(1)
    states = [random_state(d_a, 2, "ginibre-mixed", seed=d_a) for d_a in (2, 3, 4)]
    states.append(DensityMatrix(ginibre(rng, 6, 2), (2, 3)))  # every conditional block singular
    h = 1e-5
    for rho in states:
        objective, _ = _basis_objective(rho)
        for _ in range(3):
            u = haar_unitary(rho.d_a, rng)
            x = random_skew(rng, rho.d_a)
            _, g = objective(u[None])
            analytic = np.vdot(_riemannian(g, u[None])[0], x).real
            f_plus, _ = objective((expm_skew(h * x) @ u)[None])
            f_minus, _ = objective((expm_skew(-h * x) @ u)[None])
            numeric = (f_plus[0] - f_minus[0]) / (2 * h)
            assert abs(numeric - analytic) <= 1e-6 * abs(analytic)


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_cayley_steps_keep_frames_unitary(monkeypatch, d_a):
    from discoh.discord import _basis_objective

    # a gradient-norm threshold no restart reaches keeps every restart stepping
    monkeypatch.setattr(DISCORD_MODULE, "X_TOL", 1e-300)
    rng = np.random.default_rng(2)
    rho = random_state(d_a, 2, "ginibre-mixed", seed=3)
    starts = np.stack([haar_unitary(d_a, rng) for _ in range(4)])
    objective, floor = _basis_objective(rho)
    _, frames, _, iters, *_ = minimize(objective, starts, OptimizerConfig(), floor)
    assert iters.min() > 10
    for u in frames:
        assert np.max(np.abs(u.conj().T @ u - np.eye(d_a))) < 1e-12


def test_a_search_step_is_one_solve_and_no_eigendecomposition(monkeypatch):
    # qubit B blocks take their spectra in closed form, and each trial point is
    # one stacked Cayley solve over the restarts the objective call carries; the one
    # eigendecomposition is the probe's, of its (d_a, d_a) slice, before the search
    rho = random_state(3, 2, "ginibre-mixed", seed=7)
    calls = {name: [] for name in ("eigh", "solve")}
    for name, shapes in calls.items():
        def counting(a, *args, _original=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    stacked, eigh_in_search = [], []
    counting_search = counting_minimize(stacked)

    def search(*args):
        before = len(calls["eigh"])
        result = counting_search(*args)
        eigh_in_search.extend(calls["eigh"][before:])
        return result

    monkeypatch.setattr(DISCORD_MODULE, "minimize", search)
    _, trace = discord(rho)
    assert trace.converged and len(stacked) > 10
    assert calls["eigh"] == [(3, 3)] and eigh_in_search == []
    assert [shape[0] for shape in calls["solve"]] == stacked[1:]


def test_search_retires_restarts_whose_line_search_fails():
    from discoh.discord import _basis_objective

    objective, _ = _basis_objective(random_state(3, 2, "ginibre-mixed", seed=5))

    def uphill(frames):
        f, g = objective(frames)
        return f, -g

    starts = np.stack([haar_unitary(3, np.random.default_rng(k)) for k in range(3)])
    _, frames, values, iters, converged, *_ = minimize(uphill, starts, OptimizerConfig(), -np.inf)
    assert_allclose(frames, starts, atol=1e-15)
    assert_allclose(values, objective(starts)[0], atol=1e-15)
    assert not iters.any() and not converged.any()


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_search_finds_hidden_basis_zero(d_a):
    rng = np.random.default_rng(40 + d_a)
    for _ in range(3):
        value, trace = discord(hidden_basis_state(rng, d_a))
        assert abs(value) <= 1e-9
        assert trace.converged


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_the_search_from_the_reference_and_haar_frames_finds_hidden_basis_zero(d_a):
    from discoh.discord import FLOOR_TOL, _basis_objective

    # discord starts these states in their own frame; from the reference frame and 15
    # seeded Haar frames, the gradient search still walks to their zero and certifies it
    rng = np.random.default_rng(40 + d_a)
    for _ in range(3):
        objective, floor = _basis_objective(hidden_basis_state(rng, d_a))
        starts = np.concatenate([np.eye(d_a)[None], haar_unitary(d_a, rng_from_seed(0), 15)])
        _, _, values, _, _, stop, evaluations, certified = minimize(
            objective, starts, OptimizerConfig(), floor)
        assert values.min() <= 1e-9 and evaluations.sum() > len(starts)
        assert "cut" in stop or values.min() <= floor + FLOOR_TOL
        assert certified


def assert_certified_at_its_own_frame(rho, frame):
    # one stacked call of 17 rows: restart 0 starts at frame, which reaches the floor 0,
    # and cuts the other 15 at their first row
    from discoh.discord import FLOOR_TOL

    value, trace = discord(rho)
    assert trace.certified and trace.converged and abs(value) <= FLOOR_TOL
    assert np.array_equal(trace.restarts[0].initial_frame, frame)
    assert [r.stop for r in trace.restarts[1:]] == ["cut"] * 15
    assert sum(r.evaluations for r in trace.restarts) == 16
    # the state is cq in that frame: its blocks <f_j|rho|f_k>_A off the diagonal vanish
    d_a, d_b = rho.dims
    u = np.kron(frame, np.eye(d_b))
    blocks = (u.conj().T @ rho.mat @ u).reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
    assert np.abs(blocks[~np.eye(d_a, dtype=bool)]).max() <= 1e-12


@pytest.mark.parametrize("equal_weights", [False, True])
@pytest.mark.parametrize("d_b", [2, 3])
@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_a_cq_state_in_a_haar_frame_certifies_at_the_probe_frame(d_a, d_b, equal_weights):
    rng = np.random.default_rng(10 * d_a + d_b)
    for _ in range(3):
        probs = np.full(d_a, 1.0 / d_a) if equal_weights else rng.dirichlet(np.ones(d_a))
        blocks = [ginibre(rng, d_b, d_b) for _ in range(d_a)]
        basis = ReferenceBasis(haar_unitary(d_a, rng))
        rho = classical_quantum(probs, blocks, basis_a=basis)
        assert_certified_at_its_own_frame(rho, DISCORD_MODULE._probe_frame(rho))


@pytest.mark.parametrize("step", range(11))
def test_every_cq_angle_of_the_sweep_certifies_at_its_first_row(step):
    from discoh.cli import _cq_angle_state

    # the sweep's default 11 angles; at theta = 0 the reference frame is the state's own
    rho = _cq_angle_state(np.pi / 4 * step / 10)
    frame = DISCORD_MODULE._probe_frame(rho) if step else np.eye(2)
    assert_certified_at_its_own_frame(rho, frame)


def test_a_state_cq_in_the_reference_frame_keeps_the_reference_start():
    # the probe's frame lists this state's levels the other way round, but the reference
    # frame reaches the floor too, and the search starts as it would without the probe
    rho = classical_quantum([0.5, 0.5], [PLUS, np.diag([1.0, 0.0])])
    assert not np.array_equal(DISCORD_MODULE._probe_frame(rho), np.eye(2))
    assert_certified_at_its_own_frame(rho, np.eye(2))


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_a_wrong_probe_frame_leaves_the_search_from_the_reference_frame(monkeypatch, dims):
    # certification never trusts the probe: a Haar frame in its place reaches no floor,
    # and the search is the one from the reference frame, bit for bit
    rng = np.random.default_rng(sum(dims))
    seed = 10 * dims[0] + dims[1]
    for rho in (hidden_basis_state(rng, *dims), random_state(*dims, "ginibre-mixed", seed=seed)):
        monkeypatch.setattr(DISCORD_MODULE, "_probe_frame", lambda rho: np.eye(rho.d_a))
        reference = discord(rho)[1].to_dict()
        monkeypatch.setattr(DISCORD_MODULE, "_probe_frame",
                            lambda rho: haar_unitary(rho.d_a, rng))
        assert discord(rho)[1].to_dict() == reference
        assert sum(r["evaluations"] for r in reference["restarts"]) > 16
        monkeypatch.undo()


def counted_search(rho, config=None):
    """(row counts of each stacked objective call, trace) of one search; every call the
    objective gets passes through the objective minimize is given."""
    calls, made = [], []

    def counting_objective(rho):
        objective, floor = basis_objective(rho)

        def counted(x):
            made.append(len(x))
            return objective(x)

        return counted, floor

    basis_objective = DISCORD_MODULE._basis_objective
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DISCORD_MODULE, "minimize", counting_minimize(calls))
        mp.setattr(DISCORD_MODULE, "_basis_objective", counting_objective)
        trace = discord(rho, config)[1]
    assert calls == made
    return calls, trace


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_a_cq_state_in_a_haar_frame_takes_one_call_of_seventeen_rows(d_a):
    # the probe row rides in the first call, reaches the floor 0 and cuts every other start
    calls, trace = counted_search(hidden_basis_state(np.random.default_rng(80 + d_a), d_a))
    assert calls == [17] and trace.certified
    assert sum(r.evaluations for r in trace.restarts) == 16


def test_a_state_whose_floor_is_above_zero_carries_no_probe_row():
    # a pure state's floor S(A) is above 0, so no frame is probed
    rho = random_state(3, 2, "haar-pure", seed=8)
    assert DISCORD_MODULE._basis_objective(rho)[1] > DISCORD_MODULE.FLOOR_TOL
    calls, trace = counted_search(rho)
    assert calls[0] == 16 and trace.certified


def test_a_probe_row_that_misses_leaves_restart_0_at_the_reference_frame():
    calls, trace = counted_search(probe_blind_state(np.random.default_rng(7)))
    assert calls[0] == 17 and len(calls) > 1
    assert np.array_equal(trace.restarts[0].initial_frame, np.eye(3))
    assert sum(calls) == sum(r.evaluations for r in trace.restarts) + 1


def two_call_search(rho, config=None):
    """trace.to_dict() of the search as it ran with the probe in a call of its own: a
    2-row call on [reference frame, probe frame], restart 0 at the probe where only the
    probe reaches the floor, then minimize on those starts."""
    from discoh.discord import F_TOL, FLOOR_TOL, _basis_objective

    config = config or OptimizerConfig()
    objective, floor = _basis_objective(rho)
    starts = drawn_starts(rho.d_a, config.restarts, config.seed)
    if floor <= FLOOR_TOL:
        pair = np.stack([starts[0], DISCORD_MODULE._probe_frame(rho)])
        reach = objective(pair)[0] <= floor + FLOOR_TOL
        if reach[1] and not reach[0]:
            starts = np.concatenate([pair[1:], starts[1:]])
    _, frames, values, iters, converged, stop, evals, certified = minimize(
        objective, starts, config, floor)
    best = int(np.argmin(values))
    at_best = values - values[best] <= F_TOL
    columns = (starts, values.tolist(), iters.tolist(), stop.tolist(), evals.tolist())
    return {
        "best_value": float(values[best]),
        "best_frame": matrix_to_json(frames[best]),
        "converged": certified or bool(converged[at_best].any()),
        "certified": certified,
        "restarts_at_best": int(np.count_nonzero(at_best)),
        "restarts": [{"initial_frame": matrix_to_json(s), "final_value": v, "iterations": i,
                      "stop": why, "evaluations": e} for s, v, i, why, e in zip(*columns)],
    }


def test_the_probe_row_gives_the_search_of_the_two_call_path():
    rng = np.random.default_rng(90)
    # the probe is taken: cq states in Haar frames, d_a = 2-4 at d_b = 2 and 3
    taken = [hidden_basis_state(rng, d_a, d_b) for d_a in (2, 3, 4) for d_b in (2, 3)]
    cases = [(rho, None, "probe") for rho in taken]
    cases += [
        # cq in the reference frame, which reaches the floor too and keeps restart 0
        (classical_quantum([0.5, 0.5], [PLUS, np.diag([1.0, 0.0])]), None, "reference"),
        # the probe misses and the search walks from the reference frame
        (probe_blind_state(np.random.default_rng(7)), None, "reference"),
        # a floor above 0: no probe row at all
        (random_state(3, 2, "haar-pure", seed=8), None, "reference"),
        # one restart, so the first call has two rows, at the probe's hit and at its miss
        (taken[2], OptimizerConfig(restarts=1), "probe"),
        (random_state(3, 2, "ginibre-mixed", seed=8), OptimizerConfig(restarts=1), "reference"),
    ]
    for rho, config, start in cases:
        trace = discord(rho, config)[1].to_dict()
        assert trace == two_call_search(rho, config)
        at_reference = trace["restarts"][0]["initial_frame"] == matrix_to_json(np.eye(rho.d_a))
        assert at_reference == (start == "reference")


def drawn_starts(d_a, restarts, seed):
    """The seeded starts as a search draws them without the memo."""
    eye = np.eye(d_a, dtype=complex)[None]
    return np.concatenate([eye, haar_unitary(d_a, rng_from_seed(seed), restarts - 1)])


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_the_memoized_starts_are_the_drawn_ones_and_read_only(d_a):
    starts = DISCORD_MODULE._seeded_starts(d_a, 16, 0)
    drawn = drawn_starts(d_a, 16, 0)
    assert starts.shape == drawn.shape and starts.tobytes() == drawn.tobytes()
    assert DISCORD_MODULE._seeded_starts(d_a, 16, 0) is starts
    with pytest.raises(ValueError, match="read-only"):
        starts[0, 0, 0] = 2.0


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_a_search_takes_one_path_whether_its_starts_are_memoized_or_drawn(d_a):
    # the cq state certifies at its probe frame, which takes restart 0's place in a copy
    rng = np.random.default_rng(60 + d_a)
    states = (random_state(d_a, 2, "ginibre-mixed", seed=60 + d_a), hidden_basis_state(rng, d_a, 2))
    for rho in states:
        discord(rho)
        warm = discord(rho)[1].to_dict()
        DISCORD_MODULE._seeded_starts.cache_clear()
        assert json.dumps(discord(rho)[1].to_dict()) == json.dumps(warm)
    assert warm["certified"] and warm["restarts"][0]["initial_frame"] != matrix_to_json(np.eye(d_a))
    assert DISCORD_MODULE._seeded_starts(d_a, 16, 0).tobytes() == drawn_starts(d_a, 16, 0).tobytes()


def test_searches_of_another_seed_or_restart_count_get_their_own_starts():
    rho = random_state(2, 2, "ginibre-mixed", seed=9)
    memo = DISCORD_MODULE._seeded_starts
    memo.cache_clear()
    configs = [(8, 1), (8, 2), (12, 1)]
    for restarts, seed in configs:
        trace = discord(rho, OptimizerConfig(restarts=restarts, seed=seed))[1]
        starts = np.array([r.initial_frame for r in trace.restarts])
        assert starts.tobytes() == drawn_starts(2, restarts, seed).tobytes()
    assert memo.cache_info().currsize == len(configs)


def test_per_trial_seeds_keep_the_memo_within_its_bound():
    memo = DISCORD_MODULE._seeded_starts
    memo.cache_clear()
    # each of the 100 trials searches from its own seed
    assert run_suite("theorem2", trials=100, seed=3).passed
    info = memo.cache_info()
    assert info.misses == 100 and info.currsize == info.maxsize == DISCORD_MODULE._STARTS_MEMO_SIZE


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 2), (2, 4)])
def test_search_on_pure_states_returns_entanglement_entropy(dims):
    # every measurement basis gives S(rho_a) on a pure state
    rho = random_state(*dims, "haar-pure", seed=sum(dims))
    value, trace = discord(rho)
    assert abs(value - entropy(partial_trace(rho.mat, dims, keep="a"))) <= 1e-9
    assert trace.converged and trace.certified


@pytest.mark.parametrize("d_b", [2, 3])
@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_a_restart_follows_the_path_it_takes_alone(d_a, d_b):
    from discoh.discord import _basis_objective

    # d_b = 2 runs the closed-form qubit blocks, d_b = 3 the eigh ones
    rho = random_state(d_a, d_b, "ginibre-mixed", seed=10 * d_a + d_b)
    objective, floor = _basis_objective(rho)
    starts = np.concatenate([np.eye(d_a)[None], haar_unitary(d_a, rng_from_seed(d_a), 15)])
    # no frame of a full-rank state reaches its floor, so no restart certifies or is cut
    *stacked, certified = minimize(objective, starts, OptimizerConfig(), floor)
    assert not certified
    for k in range(len(starts)):
        *alone, certified = minimize(objective, starts[k:k + 1], OptimizerConfig(), floor)
        # every column: starts, frames, values, iterations, converged, stop and evaluations
        for together, by_itself in zip(stacked, alone, strict=True):
            assert np.array_equal(together[k:k + 1], by_itself)
        assert not certified


def test_stacked_calls_follow_the_longest_restart():
    calls = []
    rho = hidden_basis_state(np.random.default_rng(44), 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DISCORD_MODULE, "minimize", counting_minimize(calls))
        # from the reference and Haar starts: the probe's frame would certify at once
        mp.setattr(DISCORD_MODULE, "_probe_frame", lambda rho: np.eye(rho.d_a))
        value, trace = discord(rho)
    assert abs(value) <= 1e-9 and trace.converged and len(calls) > 1
    evaluations = [r.evaluations for r in trace.restarts]
    # every call carries each live restart once, the first call all of them and the probe
    # row, which counts as no restart's evaluation here: it reaches no floor
    assert len(calls) == max(evaluations) and sum(calls) == sum(evaluations) + 1
    assert calls[0] == len(trace.restarts) + 1
    # restarts that waited on each other's backtracks took 141 calls on this state
    assert 1.5 * len(calls) <= 141


def test_stop_reasons_name_the_budget_and_the_line_search():
    from discoh.discord import _basis_objective

    objective, floor = _basis_objective(random_state(3, 2, "ginibre-mixed", seed=5))
    starts = np.stack([haar_unitary(3, np.random.default_rng(k)) for k in range(3)])
    _, _, _, iters, _, stop, _, certified = minimize(
        objective, starts, OptimizerConfig(max_iter=2), floor)
    assert list(stop) == ["budget"] * 3 and list(iters) == [2] * 3 and not certified

    def uphill(frames):
        f, g = objective(frames)
        return f, -g

    # the initial point and every halving of the one step that never drops
    *_, stop, evaluations, certified = minimize(uphill, starts, OptimizerConfig(), -np.inf)
    assert list(stop) == ["line-search"] * 3 and not certified
    assert list(evaluations) == [41] * 3


def eigh_objective(rho, frames):
    """The basis objective and its gradient wrt conj(U) with every block
    spectrum and block logarithm from LAPACK."""
    d_a, d_b = rho.dims
    t = rho.mat.reshape(d_a, d_b, d_a, d_b)
    lam, vec = np.linalg.eigh(np.einsum("ria,ijml,rma->rajl", frames.conj(), t, frames))
    lam = lam.clip(0.0, None)
    p = lam.sum(axis=-1)

    def log2(x):
        return np.log2(np.where(x > 0.0, x, 1.0))

    wmat = (vec * (log2(p)[..., None] - log2(lam))[..., None, :]) @ vec.conj().swapaxes(-1, -2)
    const = entropy(partial_trace(rho.mat, rho.dims, keep="a")) - entropy(rho)
    f = const - (lam * log2(lam)).sum(axis=(1, 2)) + (p * log2(p)).sum(axis=1)
    return f, np.einsum("ijml,rma,ralj->ria", t, frames, wmat)


def with_blocks(blocks, seed):
    """A state whose conditional blocks in the computational frame of A are the
    given PSD blocks (trace 1 in all), joined through a random correlation
    matrix: rho = S (C x 1) S^H with S the block diagonal of the roots."""
    d_a, d_b = len(blocks), blocks[0].shape[0]
    g = rng_from_seed(seed).standard_normal((d_a, d_a)) + 0j
    c = g @ g.T
    c /= np.sqrt(np.outer(np.diag(c), np.diag(c)))
    roots = []
    for m in blocks:
        w, v = np.linalg.eigh(m)
        roots.append((v * np.sqrt(w.clip(0.0, None))) @ v.conj().T)
    s = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for k, root in enumerate(roots):
        s[k * d_b:(k + 1) * d_b, k * d_b:(k + 1) * d_b] = root
    return DensityMatrix(s @ np.kron(c, np.eye(d_b)) @ s.conj().T, (d_a, d_b))


def qubit_kernel_cases():
    rng = np.random.default_rng(17)
    v = haar_unitary(2, rng)
    near = (v * [0.2 - 1e-11, 0.2 + 1e-11]) @ v.conj().T  # eigenvalues 1e-10 apart, relative
    return {
        "full rank": random_state(3, 2, "ginibre-mixed", seed=1),
        "rank one": random_state(3, 2, "haar-pure", seed=2),
        "degenerate": with_blocks([0.4 * np.eye(2) / 2, 0.6 * ginibre(rng, 2, 2)], seed=3),
        "zero": DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2)),
        "near-degenerate": with_blocks([near, 0.6 * ginibre(rng, 2, 2)], seed=4),
    }


@pytest.mark.parametrize("case", ["full rank", "rank one", "degenerate", "zero", "near-degenerate"])
def test_qubit_block_kernel_matches_eigh(case):
    from discoh.discord import _basis_objective

    rho = qubit_kernel_cases()[case]
    d_a = rho.d_a
    # the computational frame holds the case's blocks; the Haar frames mix them
    frames = np.concatenate([np.eye(d_a)[None], haar_unitary(d_a, rng_from_seed(5), 3)]) + 0j
    f, g = _basis_objective(rho)[0](frames)
    f_ref, g_ref = eigh_objective(rho, frames)
    assert np.max(np.abs(f - f_ref)) <= 1e-12
    assert np.max(np.abs(g - g_ref)) <= 1e-12


def test_qubit_block_log_slope_keeps_its_digits():
    from decimal import Decimal, localcontext

    from discoh.discord import _log2_slope

    # (lo, r): rank two at relative gaps 2e-10, 1e-13, 1e-6 and 1, degenerate,
    # rank one and zero
    lo = np.array([0.3, 0.3, 1e-3, 0.25, 0.5, 0.0, 0.0])
    r = np.array([3e-11, 1.5e-14, 5e-10, 0.125, 0.0, 0.5, 0.0])
    hi = lo + 2.0 * r
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        want = []
        for a, b, h in zip(lo.tolist(), r.tolist(), hi.tolist()):
            a, b, h = Decimal(a), Decimal(b), Decimal(h)
            if a == 0:
                want.append(float(h.ln() / ln2 / h) if h else 0.0)
            elif b == 0:
                want.append(float(1 / (a * ln2)))
            else:
                want.append(float(((a + 2 * b) / a).ln() / ln2 / (2 * b)))
    assert_allclose(_log2_slope(lo, hi, r), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("field, value", [("restarts", 0), ("max_iter", 0), ("seed", -1)])
def test_optimizer_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


# ---------------------------------------------------------------------------
# measured quantities at a basis
# ---------------------------------------------------------------------------


def measured_conditional_info(rho, basis):
    """J_U = S(rho_b) - sum_k p_k S(rho_k), read off the closed form
    dac_U = I - J_U."""
    return mutual_information(rho) - coherence_discord(rho, basis)


def test_measured_conditional_info_product_state():
    rho = product_state(PLUS, np.diag([0.2, 0.8]))
    for basis in (None, HADAMARD):
        assert abs(measured_conditional_info(rho, basis)) < 1e-10


def test_measured_conditional_info_bell():
    assert_allclose(measured_conditional_info(bell_phi_plus(), None), 1.0, atol=1e-12)


def test_measured_conditional_info_cq_block_evaluation():
    probs = [0.3, 0.7]
    blocks = [PLUS, np.diag([0.6, 0.4])]
    rho = classical_quantum(probs, blocks)
    rb = 0.3 * PLUS + 0.7 * np.diag([0.6, 0.4])
    expected = entropy(rb) - sum(p * entropy(b) for p, b in zip(probs, blocks))
    assert_allclose(measured_conditional_info(rho, None), expected, atol=1e-10)


def measured_mi_drop(rho, basis):
    # I(rho) - I(Pi_U rho), Pi_U rho being rho with A dephased in U: the discord
    # candidate at U's measurement, from the full post-measurement state
    post = DensityMatrix(dephase_local(rho.mat, rho.dims, basis), rho.dims)
    return mutual_information(rho) - mutual_information(post)


def test_discord_at_basis_cq_fixed_point():
    assert abs(measured_mi_drop(cq_example(), None)) < 1e-10


def test_discord_at_basis_bell_any_basis():
    rng = np.random.default_rng(2)
    for _ in range(5):
        frame = haar_unitary(2, rng)
        assert_allclose(measured_mi_drop(bell_phi_plus(), frame), 1.0, atol=1e-9)


def test_discord_formulas_agree_at_random_bases():
    # the closed form and the post-measurement-state route
    rng = np.random.default_rng(3)
    for rho in random_states(10, seed=4):
        frame = haar_unitary(2, rng)
        assert abs(measured_mi_drop(rho, frame) - coherence_discord(rho, frame)) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)])
@pytest.mark.parametrize("ensemble", ["ginibre-mixed", "haar-pure"])
def test_search_objective_is_the_closed_form_at_each_frame(dims, ensemble):
    # the one basis objective: d_b = 2 takes its qubit-block branch, d_b > 2 eigh
    from discoh.discord import _basis_objective

    d_a, d_b = dims
    rho = random_state(d_a, d_b, ensemble, seed=7 * d_a + d_b)
    frames = haar_unitary(d_a, rng_from_seed(d_a + 10 * d_b), 6)
    values, _ = _basis_objective(rho)[0](frames)
    want = [coherence_discord(rho, frame) for frame in frames]
    assert np.max(np.abs(values - want)) <= 1e-12


# ---------------------------------------------------------------------------
# optimized discord
# ---------------------------------------------------------------------------


def test_discord_bell():
    value, trace = discord(bell_phi_plus())
    assert abs(value - 1.0) < 1e-6
    assert trace.converged
    assert trace.best_value == min(r.final_value for r in trace.restarts)


def test_discord_cq_state_zero():
    value, _ = discord(cq_example())
    assert abs(value) < 1e-8


def test_discord_deterministic_for_seed():
    rho = random_states(1, seed=5)[0]
    v1, t1 = discord(rho, OptimizerConfig(seed=7))
    v2, t2 = discord(rho, OptimizerConfig(seed=7))
    assert v1 == v2
    assert t1.restarts == t2.restarts


def test_discord_werner_grid_oracle():
    for p in np.linspace(0.1, 0.9, 9):
        value, _ = discord(werner(float(p)), OptimizerConfig(restarts=8, seed=1))
        oracle = qubit_discord_grid(werner(float(p)))
        assert abs(value - oracle) < 1e-4


def werner_discord(p):
    # closed form for p Phi+ + (1 - p) I/4, with 0 log 0 := 0
    def xlog2x(x):
        return x * np.log2(x) if x > 0 else 0.0

    return xlog2x(1 - p) / 4 - xlog2x(1 + p) / 2 + xlog2x(1 + 3 * p) / 4


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_discord_matches_werner_closed_form(p):
    value, trace = discord(werner(p))
    assert abs(value - werner_discord(p)) <= 1e-9
    assert trace.converged


PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def luo_bell_diagonal_discord(c):
    """Discord of (1 + sum_j c_j s_j (x) s_j)/4 (Luo, PRA 77, 042303 (2008)):
    I(rho) minus the classical correlation, which is set by max_j |c_j|."""
    signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])  # Phi+-, Psi+-
    lam = (1 + signs @ c) / 4
    mutual = 2 + sum(x * np.log2(x) for x in lam if x > 0)
    top = np.max(np.abs(c))
    classical = sum((1 + s * top) / 2 * np.log2(1 + s * top) for s in (1, -1) if 1 + s * top > 0)
    return mutual - classical


def test_discord_matches_luo_on_rotated_bell_diagonal_states():
    rng = np.random.default_rng(2008)
    for _ in range(8):
        # Bell-diagonal weights w_k give the correlations c_j = sum_k w_k <s_j s_j>_k
        w = rng.dirichlet(np.ones(4))
        c = np.array([w[0] - w[1] + w[2] - w[3], -w[0] + w[1] + w[2] - w[3],
                      w[0] + w[1] - w[2] - w[3]])
        mat = (np.eye(4) + sum(cj * np.kron(s, s) for cj, s in zip(c, PAULIS))) / 4
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        value, trace = discord(DensityMatrix(u @ mat @ u.conj().T, (2, 2)))
        assert abs(value - luo_bell_diagonal_discord(c)) <= 1e-9
        assert trace.converged


def plain_entropy(w):
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def maximally_correlated(a, rng):
    """sum_ij a_ij |ii><jj| under Haar local unitaries; its discord is
    H(diag a) - S(a), attained by measuring A in the rotated computational basis."""
    d = a.shape[0]
    m = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)  # |ii> sits at index i*d + i
    m[np.ix_(diag, diag)] = a
    u = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
    return DensityMatrix(u @ m @ u.conj().T, (d, d))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("deficient", [False, True])
def test_discord_matches_maximally_correlated_closed_form(d, deficient):
    rng = np.random.default_rng(300 + 10 * d + deficient)
    for _ in range(2):
        a = ginibre(rng, d, d - 1 if deficient else d)
        exact = plain_entropy(np.diag(a).real) - plain_entropy(np.linalg.eigvalsh(a))
        rho = maximally_correlated(a, rng)
        # D = H(diag a) - S(a) = S(A) - S(AB), the floor of every frame
        value, trace = discord(rho)
        assert abs(value - exact) <= 1e-9
        assert trace.converged and trace.certified
        value, _, trace = discord_via_coherence(rho, OptimizerConfig(seed=1))
        assert abs(value - exact) <= 1e-9
        assert trace.converged and trace.certified


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cnot_converts_local_coherence_into_equal_discord(d):
    # |i, j> -> |i, i + j mod d> is an incoherent permutation; on rho_a (x) |0><0|
    # it gives sum_ij (rho_a)_ij |ii><jj|, so C_r(rho_a) = I_co = dac = D^a
    # (Ma, Yadin, Girolami, Vedral & Gu, PRL 116, 160407 (2016))
    rho_a = ginibre(np.random.default_rng(500 + d), d, d)
    cnot = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            cnot[i * d + (i + j) % d, i * d + j] = 1.0
    zero = np.zeros((d, d))
    zero[0, 0] = 1.0
    rho = DensityMatrix(cnot @ np.kron(rho_a, zero) @ cnot.T, (d, d))
    c_r = plain_entropy(np.diag(rho_a).real) - plain_entropy(np.linalg.eigvalsh(rho_a))
    value, trace = discord(rho)
    assert trace.converged
    for got in (correlated_coherence(rho), coherence_discord(rho), value):
        assert abs(got - c_r) <= 1e-9


# at 4x4 only the full-rank state, whose restarts most often end at different minima,
# to keep the 3x3 and 4x4 cases near 1 s together
@pytest.mark.parametrize("rank, d_a, d_b", [
    pytest.param(rank, d_a, d_b, id=f"{rank}-{d_a}" + (f"x{d_b}" if d_b > 2 else ""))
    for rank, d_a, d_b in [("full", 3, 2), (2, 3, 2), ("full", 4, 2), (2, 4, 2),
                           ("full", 3, 3), (2, 3, 3), ("full", 4, 4)]
])
def test_no_sampled_frame_beats_the_search(rank, d_a, d_b):
    # the search's value is a minimum over A's frames, so none of 10^4 Haar frames,
    # evaluated through the objective the search minimizes, goes below it
    from discoh.discord import _basis_objective

    rng = np.random.default_rng(700 + 100 * (d_b - 2) + 10 * d_a + (rank == 2))
    d = d_a * d_b
    rho = DensityMatrix(ginibre(rng, d, d if rank == "full" else rank), (d_a, d_b))
    value, _ = discord(rho)
    values, _ = _basis_objective(rho)[0](haar_unitary(d_a, rng, 10**4))
    assert values.min() >= value - 1e-12


def test_search_converges_on_a_rank_two_4x2_state():
    # most restarts on this state take 400-600 steps to reach their minimum; the
    # search must still converge within the default budget
    rho = DensityMatrix(ginibre(np.random.default_rng(1), 8, 2), (4, 2))
    value, trace = discord(rho)
    assert trace.converged
    other, _, _ = discord_via_coherence(rho, OptimizerConfig(seed=1))
    assert abs(value - other) <= 1e-9


@functools.cache
def local_relation_gaps(restarts=16, max_iter=500):
    """Two relations that hold for any state (Modi, Brodutch, Cable, Paterek & Vedral,
    RMP 84, 1655 (2012)), on two full-rank Ginibre states at each of 3x2, 3x3, 4x2
    and 4x4: per state, |D^a((U_a (x) U_b) rho (U_a (x) U_b)^dag) - D^a(rho)| for Haar
    U_a and U_b, and D^a((1 (x) L_B) rho) - D^a(rho) for a sampled channel L_B on B."""
    config, gaps = OptimizerConfig(restarts, max_iter), []
    for d_a, d_b in ((3, 2), (3, 3), (4, 2), (4, 4)):
        rng = np.random.default_rng(800 + 10 * d_a + d_b)
        for _ in range(2):
            mat = ginibre(rng, d_a * d_b, d_a * d_b)
            rotated = apply_local(mat, (d_a, d_b), haar_unitary(d_a, rng)[None],
                                  haar_unitary(d_b, rng)[None])
            on_b = apply_local(mat, (d_a, d_b), ops_b=random_kraus_ops(d_b, 2, rng))
            value, turned, lowered = (discord(DensityMatrix(m, (d_a, d_b)), config)[0]
                                      for m in (mat, rotated, on_b))
            gaps.append((abs(turned - value), lowered - value))
    return tuple(gaps)


def test_discord_is_invariant_under_local_unitaries():
    assert max(gap for gap, _ in local_relation_gaps()) <= 1e-9


def test_a_channel_on_b_never_raises_the_discord():
    assert max(rise for _, rise in local_relation_gaps()) <= 1e-9


def test_local_unitary_invariance_catches_a_one_step_search():
    # one restart of one step from the reference frame reads rho and its rotation in
    # different frames: 1.9e-3 to 9.5e-2 apart.  The B relation, read through the same
    # search, catches none of the 8 states, and a one-restart search of the full budget
    # is caught by neither relation.
    assert all(gap > 1e-9 for gap, _ in local_relation_gaps(restarts=1, max_iter=1))


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_a_spectator_joined_to_b_leaves_the_discord(d_a):
    # D^a(rho (x) sigma) = D^a(rho) for a state sigma of a qubit B' joined to B: the
    # objective is the same function of the frame on both states, read through the
    # qubit closed form at d_b = 2 and through eigh at d_b = 4; from d_b = 3, through
    # eigh on both sides, up to 4x4 against 4x8 (32, within MAX_OPT_DIM)
    for d_b in (2, 3, 4):
        rng = np.random.default_rng(900 + d_a)
        rho = DensityMatrix(ginibre(rng, d_b * d_a, d_b * d_a), (d_a, d_b))
        joined = DensityMatrix(np.kron(rho.mat, ginibre(rng, 2, 2)), (d_a, 2 * d_b))
        assert abs(discord(joined)[0] - discord(rho)[0]) <= 1e-9, d_b


SIGMA_YY = np.kron([[0.0, -1j], [1j, 0.0]], [[0.0, -1j], [1j, 0.0]])


def binary_entropy(x):
    return plain_entropy(np.array([x, 1.0 - x]))


def entanglement_of_formation(c):
    """E_f of a two-qubit state of concurrence c (Wootters, PRL 80, 2245 (1998))."""
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def koashi_winter_discord(rho, e_f=entanglement_of_formation):
    """S(A) - S(AB) + E_f(rho_BE) for d_b = 2 and rank <= 2, where a qubit E
    purifies rho_AB.  Every pure-state ensemble of rho_BE comes from a rank-one
    POVM on A, so this is the discord over POVMs (Koashi & Winter, PRA 69,
    022309 (2004)), a lower bound on D^a, which takes von Neumann measurements
    only.  It shares no code with the search beyond the eigensolvers."""
    lam, vec = np.linalg.eigh(rho.mat)
    psi = (vec[:, -2:] * np.sqrt(lam[-2:].clip(0.0, None))).reshape(rho.d_a, 2, 2)  # [a, b, e]
    rho_a = np.einsum("abe,cbe->ac", psi, psi.conj())
    rho_be = np.einsum("abe,acf->becf", psi, psi.conj()).reshape(4, 4)
    root = np.sqrt(np.abs(np.linalg.eigvals(rho_be @ SIGMA_YY @ rho_be.conj() @ SIGMA_YY)))
    root = np.sort(root)[::-1]
    concurrence = max(0.0, root[0] - root[1:].sum())
    return plain_entropy(np.linalg.eigvalsh(rho_a)) - plain_entropy(lam) + e_f(concurrence)


# Seeds of the rank-two d_a x 2 Ginibre states checked against the oracle.  On 202,
# every restart of the default search ends on its budget, unconverged, up to 1e-7
# above the oracle; 64 restarts of 5000 steps land within 1e-13 of it.
KOASHI_WINTER_SEEDS = {2: (2001, 2005, 2006), 3: (3001, 3003, 3005), 4: (4001, 202)}


@functools.cache
def rank_two_searches(restarts, max_iter):
    searches = []
    for d_a, seeds in KOASHI_WINTER_SEEDS.items():
        for seed in seeds:
            rho = DensityMatrix(ginibre(np.random.default_rng(seed), 2 * d_a, 2), (d_a, 2))
            searches.append((d_a, seed, rho, *discord(rho, OptimizerConfig(restarts, max_iter))))
    return tuple(searches)


def rank_two_states_off_koashi_winter(e_f=entanglement_of_formation, restarts=16, max_iter=500):
    """(d_a, seed) of the states whose search value is below the oracle, or above
    it at 2x2 by more than 1e-6, or at 4x2 by more than 1e-9 (1e-6 where the
    search says it did not converge).  On 100 states each drawn from
    default_rng(9000 + 100 d_a + k), the search met the oracle to 5.6e-13 at 4x2
    and to 1.7e-8 at 2x2.  At 3x2 only the bound holds: 14 of those states sat
    2.4e-5 to 5.1e-2 above it, the advantage of POVMs, as on three of them 256
    restarts went lower by at most 8.9e-16 and no Haar frame of 2e4 went below."""
    off = []
    for d_a, seed, rho, value, trace in rank_two_searches(restarts, max_iter):
        gap = value - koashi_winter_discord(rho, e_f)
        limit = {2: 1e-6, 3: np.inf, 4: 1e-9 if trace.converged else 1e-6}[d_a]
        if not -1e-12 <= gap <= limit:
            off.append((d_a, seed))
    return off


def test_search_meets_the_koashi_winter_discord_on_rank_two_states():
    assert rank_two_states_off_koashi_winter() == []


def test_koashi_winter_checks_catch_a_short_search_and_a_wrong_oracle():
    states = [(d_a, seed) for d_a, seeds in KOASHI_WINTER_SEEDS.items() for seed in seeds]
    exact_or_close = [(d_a, seed) for d_a, seed in states if d_a != 3]
    # one restart of 5 steps stays above the oracle where it is exact or close
    assert rank_two_states_off_koashi_winter(restarts=1, max_iter=5) == exact_or_close
    # h(C) in place of h((1 + sqrt(1 - C^2))/2) lifts the oracle above every search
    assert rank_two_states_off_koashi_winter(binary_entropy) == states
    # an oracle lowered by 2 E_f keeps the bound; only the 2x2 and 4x2 limits see it
    lowered = rank_two_states_off_koashi_winter(lambda c: -entanglement_of_formation(c))
    assert lowered == exact_or_close


@pytest.mark.parametrize("stops, converged", [
    # the lowest restart ran out of budget; one within F_TOL of it reached its gradient
    (["gradient", "budget", "gradient"], True),
    # every restart within F_TOL of the best ran out of budget; one above it converged
    (["gradient", "budget", "budget"], False),
])
def test_search_converged_if_a_restart_at_the_best_value_converged(monkeypatch, stops, converged):
    def fake(objective, frames, config, floor, probe):
        stop = np.array(stops)
        values = np.array([0.3, 0.1, 0.1 + 5e-10])
        return frames, frames, values, np.full(3, 9), stop != "budget", stop, np.full(3, 10), False

    monkeypatch.setattr(DISCORD_MODULE, "minimize", fake)
    value, trace = discord(random_state(2, 2, "ginibre-mixed", seed=1), OptimizerConfig(3))
    assert value == 0.1 and trace.restarts_at_best == 2
    assert [r.stop for r in trace.restarts] == stops
    assert trace.converged is converged and trace.certified is False


@pytest.mark.parametrize("seed", [93])
def test_search_converges_on_rank_two_4x2_states_whose_lowest_restart_hit_its_budget(seed):
    # every restart ends within F_TOL of the best value, some of them on the gradient;
    # the one with the lowest last bits ends on its budget.  The floor S(A) - S(AB) is
    # not attained on this state, so no restart is cut.  Not in KOASHI_WINTER_SEEDS
    rho = DensityMatrix(ginibre(np.random.default_rng(seed), 8, 2), (4, 2))
    value, trace = discord(rho)
    assert min(trace.restarts, key=lambda r: r.final_value).stop == "budget"
    assert trace.restarts_at_best == 16 and trace.converged and not trace.certified
    assert abs(value - koashi_winter_discord(rho)) <= 1e-9


@pytest.mark.parametrize("seed", [11, 22])
def test_rank_two_4x2_states_at_their_floor_are_certified(seed):
    # E_f(rho_BE) = 0 on these states, so the discord is S(A) - S(AB): the first
    # restart to reach it cuts the others, and goes on to its own stop
    rho = DensityMatrix(ginibre(np.random.default_rng(seed), 8, 2), (4, 2))
    value, trace = discord(rho)
    assert trace.certified and trace.converged
    stops = [r.stop for r in trace.restarts]
    assert stops.count("cut") == 15 and set(stops) - {"cut"} <= {"gradient", "budget"}
    assert abs(value - koashi_winter_discord(rho)) <= 1e-9


def test_a_restart_certified_at_an_accepted_step_keeps_the_verdict_above_the_floor():
    from discoh.discord import FLOOR_TOL, _basis_objective

    # the one restart reaches the floor S(A) - S(AB) at an accepted step, with no restart
    # left to cut, walks on to its 500-step budget and ends 1.2e-14 above that floor
    rho = DensityMatrix(ginibre(np.random.default_rng(207), 8, 2), (4, 2))
    value, trace = discord(rho, OptimizerConfig(restarts=1))
    assert trace.certified and trace.converged
    assert [r.stop for r in trace.restarts] == ["budget"]
    assert value > _basis_objective(rho)[1] + FLOOR_TOL


def test_a_search_whose_restarts_at_the_best_value_all_hit_their_budget_is_unconverged():
    (trace,) = [trace for _, seed, _, _, trace in rank_two_searches(16, 500) if seed == 202]
    assert {r.stop for r in trace.restarts} == {"budget"}
    assert not trace.converged


# The 400 x 400 grid can miss the optimal axis by half a phi step, 7.9e-3 rad;
# on 160 seeded X states the grid sat above the search by at most 2.5e-5.
X_STATE_GRID_RESOLUTION = 5e-5


@functools.cache
def x_state_oracles():
    """(state, sigma_z/sigma_x candidate, grid value) of eight seeded two-qubit X
    states (Ali, Rau and Alber, PRA 81, 042105 (2010)), every other one with
    complex off-diagonals.  The candidate is the smaller dac of the
    computational and Hadamard frames; with complex phases it is not the
    discord, so it serves only as an upper bound."""
    rng = np.random.default_rng(2010)
    oracles = []
    for k in range(8):
        a, b, c, d = rng.dirichlet(np.ones(4))
        w, z = rng.uniform(0.0, 1.0, 2) * np.sqrt([a * d, b * c])  # |w|^2 <= ad, |z|^2 <= bc
        if k % 2:
            w, z = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2)) * [w, z]
        m = np.array([[a, 0, 0, w], [0, b, z, 0], [0, np.conj(z), c, 0], [np.conj(w), 0, 0, d]])
        rho = DensityMatrix(m, (2, 2))
        candidate = min(coherence_discord(rho), coherence_discord(rho, HADAMARD))
        oracles.append((rho, candidate, qubit_discord_grid(rho)))
    return tuple(oracles)


def x_states_off_their_oracles():
    """The X states whose searched discord is above the candidate, or off the grid
    by more than its resolution."""
    off = []
    for k, (rho, candidate, grid) in enumerate(x_state_oracles()):
        value, _ = discord(rho)
        if value > candidate + 1e-12 or not -1e-12 <= grid - value <= X_STATE_GRID_RESOLUTION:
            off.append(k)
    return off


def test_x_state_discord_is_below_the_candidate_and_at_the_grid():
    assert x_states_off_their_oracles() == []


def test_x_state_oracles_catch_a_search_pinned_to_the_reference_frame(monkeypatch):
    def pinned(objective, frames, config, floor, probe):
        # the search itself, from the reference frame and without the probe, with every
        # gradient zeroed
        u = np.broadcast_to(np.eye(2, dtype=complex), frames.shape)
        return minimize(lambda x: (objective(x)[0], np.zeros_like(x)), u, config, floor)

    monkeypatch.setattr(DISCORD_MODULE, "minimize", pinned)
    # caught on every state but the two whose minimum is at the reference frame
    assert x_states_off_their_oracles() == [0, 1, 3, 5, 6, 7]


def test_discord_dimension_cap():
    big = DensityMatrix(np.eye(72) / 72, (8, 9))
    with pytest.raises(ValueError, match="capped"):
        discord(big)


def test_grid_oracle_requires_qubit_a():
    rho = random_state(3, 2, "ginibre-mixed", seed=6)
    with pytest.raises(ValueError, match="d_a = 2"):
        qubit_discord_grid(rho)


@pytest.mark.parametrize("n_theta, n_phi, name", [(0, 0, "n_theta"), (1, 40, "n_theta"),
                                                  (41, 1, "n_phi"), (41, True, "n_phi")])
def test_grid_oracle_rejects_resolutions_below_two(n_theta, n_phi, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 2, got"):
        qubit_discord_grid(werner(0.5), n_theta, n_phi)


@pytest.mark.parametrize("n_phi", [3, 41])
def test_grid_oracle_rejects_odd_phi_resolutions(n_phi):
    # psi1's term is psi0's at the antipode, a grid point only for an even n_phi
    with pytest.raises(ValueError, match=f"n_phi must be even, got {n_phi}"):
        qubit_discord_grid(werner(0.5), 41, n_phi)


@pytest.mark.parametrize("d_b, grid_blocks", [(2, []), (3, [(41, 40, 3, 3)])])
def test_grid_oracle_decomposes_each_sphere_point_once(monkeypatch, d_b, grid_blocks):
    # psi0's blocks on the grid in one stacked call, none for psi1, and qubit
    # blocks in closed form; the kept entropy table serves I(rho)
    rho = random_state(2, d_b, "ginibre-mixed", seed=d_b)
    mutual_information(rho)
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    qubit_discord_grid(rho, 41, 40)
    assert sorted(shapes) == sorted([(d_b, d_b)] + grid_blocks)


def test_grid_oracle_holds_one_chunk_of_blocks_at_a_time():
    # the whole 400x400 grid of 4x4 blocks, with their spectra, took some 60 MB
    rho = random_state(2, 4, "ginibre-mixed", seed=4)
    tracemalloc.start()
    try:
        qubit_discord_grid(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def grid_reference(rho, n_theta, n_phi):
    # the grid as two explicit contractions: <psi|rho|psi>_A for psi0 and psi1
    # at every (theta, phi), each block spectrum from LAPACK
    d_b = rho.d_b
    t = rho.mat.reshape(2, d_b, 2, d_b)
    theta = np.linspace(0.0, np.pi / 2.0, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    c, s, e = np.cos(th).ravel(), np.sin(th).ravel(), np.exp(1j * ph.ravel())
    psi0 = np.stack([c, s * e], axis=1)
    psi1 = np.stack([-s * e.conj(), c + 0j], axis=1)
    lam = np.stack([
        np.linalg.eigvalsh(np.einsum("gi,ijkl,gk->gjl", psi.conj(), t, psi))
        for psi in (psi0, psi1)
    ], axis=1).clip(0.0, None)  # (G, 2, d_b)
    p = lam.sum(axis=2)

    def h(x):
        return -(x * np.log2(np.where(x > 0.0, x, 1.0))).sum(axis=tuple(range(1, x.ndim)))

    mci = entropy(partial_trace(rho.mat, rho.dims, keep="b")) - (h(lam) - h(p))
    return float(np.min(mutual_information(rho) - mci))


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_grid_oracle_matches_reference(d_b):
    rng = np.random.default_rng(40 + d_b)
    states = random_states(3, 2, d_b, seed=d_b)
    states.append(DensityMatrix(ginibre(rng, 2 * d_b, 1), (2, d_b)))  # rank one
    for rho in states:
        assert abs(qubit_discord_grid(rho, 41, 40) - grid_reference(rho, 41, 40)) <= 1e-12


@pytest.mark.parametrize("case", ["rank one", "degenerate", "zero", "near-degenerate"])
def test_grid_oracle_matches_reference_on_boundary_qubit_blocks(case):
    # the qubit kernel's cases with a qubit A (rank one as a two-qubit pure
    # state): rank-one and zero blocks on the grid put 0 log 0 in both sums
    rho = qubit_kernel_cases()[case] if case != "rank one" else random_state(2, 2, "haar-pure", 2)
    assert abs(qubit_discord_grid(rho, 41, 40) - grid_reference(rho, 41, 40)) <= 1e-12


@pytest.mark.parametrize("d_b", [2, 3])
def test_grid_oracle_pure_state_gives_entanglement_entropy(d_b):
    # every measurement leaves pure conditional states, so every grid point
    # gives S(rho_a), computed here from the reduced spectrum alone
    rho = random_state(2, d_b, "haar-pure", seed=d_b)
    lam = np.linalg.eigvalsh(rho.mat.reshape(2, d_b, 2, d_b).trace(axis1=1, axis2=3))
    s_a = -sum(x * np.log2(x) for x in lam if x > 0.0)
    assert abs(qubit_discord_grid(rho, 41, 40) - s_a) <= 1e-12


def test_grid_oracle_and_search_read_zero_at_d_b_1():
    # a 2x1 state has no B to correlate with: I = 0 at every measurement
    rho = DensityMatrix(ginibre(np.random.default_rng(21), 2, 2), (2, 1))
    assert abs(qubit_discord_grid(rho)) <= 1e-12
    assert abs(discord(rho)[0]) <= 1e-12


def test_grid_oracle_zero_on_computational_cq_state():
    # classical on A in the computational basis: theta = 0 is on the grid
    rng = np.random.default_rng(11)
    rho = classical_quantum([0.3, 0.7], [ginibre(rng, 3, 3), ginibre(rng, 3, 2)])
    assert abs(qubit_discord_grid(rho, 41, 40)) <= 1e-12


def test_trace_serialization():
    _, trace = discord(bell_phi_plus(), OptimizerConfig(restarts=3))
    d = trace.to_dict()
    assert set(d) == {"best_value", "best_frame", "converged", "certified", "restarts_at_best",
                      "restarts"}
    assert len(d["restarts"]) == 3
    # the Bell state is pure: every frame gives S(A) - S(AB), the floor
    assert d["certified"] is True
    # every basis gives the Bell state's discord, so every restart ends at the best value
    assert d["restarts_at_best"] == 3
    assert {"initial_frame", "final_value", "iterations", "stop", "evaluations"} == set(
        d["restarts"][0])
    assert [r["stop"] for r in d["restarts"]] == ["gradient"] * 3


def test_a_search_that_never_reaches_its_floor_cuts_no_restart(monkeypatch):
    # a full-rank Ginibre state sits above the floor at every frame: its search is
    # the one with the floor switched off, restart for restart
    rho = random_state(3, 2, "ginibre-mixed", seed=11)
    _, trace = discord(rho)
    assert not trace.certified and trace.converged
    assert "cut" not in {r.stop for r in trace.restarts}
    monkeypatch.setattr(DISCORD_MODULE, "FLOOR_TOL", -np.inf)
    _, alone = discord(rho)
    assert trace.to_dict() == alone.to_dict()


def test_restarts_at_best_counts_restarts_within_f_tol():
    rho = random_state(3, 2, "ginibre-mixed", seed=11)
    _, full = discord(rho, OptimizerConfig(restarts=8))
    _, cut = discord(rho, OptimizerConfig(restarts=8, max_iter=1))
    assert full.restarts_at_best == 8
    # one step from eight different frames leaves eight different values
    assert cut.restarts_at_best == 1
    for trace in (full, cut):
        finals = [r.final_value for r in trace.restarts]
        assert trace.restarts_at_best == sum(v - trace.best_value <= 1e-9 for v in finals)


# ---------------------------------------------------------------------------
# closed-form coherence correlation
# ---------------------------------------------------------------------------


def test_coherence_discord_cq_zero():
    assert abs(coherence_discord(cq_example())) < 1e-12


def test_coherence_discord_bell_one():
    assert_allclose(coherence_discord(bell_phi_plus()), 1.0, atol=1e-12)


def test_coherence_discord_product_zero():
    rho = product_state(PLUS, np.diag([0.2, 0.8]))
    assert abs(coherence_discord(rho)) < 1e-10


def test_coherence_discord_rotated_cq_is_one():
    # blocks |0><0|, |1><1| attached to the |+>/|-> basis of A: hand expansion
    # gives S[(dephase_a x id)rho] = 2, S(rho) = 1, C_r(rho_a) = 0
    rho = classical_quantum(
        [0.5, 0.5],
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
        basis_a=ReferenceBasis(HADAMARD),
    )
    assert_allclose(coherence_discord(rho), 1.0, atol=1e-12)


def test_coherence_discord_closed_form_matches_literal_drop():
    # dual route: the closed form equals the correlated-coherence drop under
    # the canonical rank-one PPIO (plain dephasing)
    for rho in random_states(10, seed=8):
        literal, _ = ppio_monotonicity_gap(rho, dephasing_channel(2))
        assert abs(coherence_discord(rho) - literal) < 1e-12


def test_coherence_discord_respects_frame_argument():
    rho = classical_quantum(
        [0.5, 0.5],
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
        basis_a=ReferenceBasis(HADAMARD),
    )
    # measured against its own defining frame the correlation vanishes
    assert abs(coherence_discord(rho, basis_a=HADAMARD)) < 1e-12


def invariance_deviation(rho):
    # the invariance trial's PPIO check: the drops under every non-merging
    # rank-one PPIO, one per permutation of A's levels, against the closed form
    maps = list(itertools.permutations(range(rho.d_a)))
    drops = _level_map_drops(rho.mat, rho.spectrum, rho.dims, maps)
    return np.max(np.abs(drops - coherence_discord(rho)))


def test_invariance_check_bell_and_diagonal():
    assert invariance_deviation(bell_phi_plus()) < 1e-12
    diag = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
    assert invariance_deviation(diag) < 1e-12


def test_invariance_check_random_states():
    # all d_a! non-merging level maps, at 2x2, 3x2 and 4x2
    for d_a, seed in ((2, 9), (3, 10), (4, 11)):
        for rho in random_states(5, d_a, 2, seed=seed):
            assert invariance_deviation(rho) <= 1e-9


def test_permutation_maps_merge_the_same_blocks_to_the_last_bit():
    # a permutation level map only reorders the conditional B blocks: at 5x2 the sorted
    # merged-block spectra of all 120 maps are the identity map's, bit for bit
    rho = random_states(1, 5, 2, seed=12)[0]
    maps = list(itertools.permutations(range(5)))
    assert maps[0] == tuple(range(5))
    spectra = np.linalg.eigvalsh(_merged_blocks(rho.mat, rho.dims, maps)).reshape(120, -1)
    spectra.sort(axis=1)
    assert (spectra == spectra[0]).all()


def test_symmetric_variant_diagonal_zero():
    diag = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
    assert abs(coherence_discord_symmetric(diag)) < 1e-12


def test_symmetric_variant_bell_one():
    assert_allclose(coherence_discord_symmetric(bell_phi_plus()), 1.0, atol=1e-12)


def test_symmetric_variant_equals_literal_drop():
    # I_co(rho) - I_co(rho dephased in the product frame), written out
    rng = np.random.default_rng(23)
    for d_a, d_b in [(2, 2), (2, 3), (3, 3), (4, 2), (4, 4)]:
        rho = random_state(d_a, d_b, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        fa, fb = haar_unitary(d_a, rng), haar_unitary(d_b, rng)
        for basis_a, basis_b in [(None, None), (fa, fb)]:
            big = np.kron(np.eye(d_a) if basis_a is None else fa,
                          np.eye(d_b) if basis_b is None else fb)
            inner = big.conj().T @ rho.mat @ big
            deph = DensityMatrix(big @ np.diag(np.diag(inner)) @ big.conj().T, rho.dims)
            literal = correlated_coherence(rho, basis_a, basis_b) - correlated_coherence(
                deph, basis_a, basis_b
            )
            assert abs(coherence_discord_symmetric(rho, basis_a, basis_b) - literal) <= 1e-12


def test_symmetric_variant_cq_with_distinct_coherent_blocks():
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    rho = classical_quantum([0.5, 0.5], [PLUS, minus])
    assert coherence_discord_symmetric(rho) > 0.5


# ---------------------------------------------------------------------------
# basis-minimized correlation (Theorem 2 route)
# ---------------------------------------------------------------------------


def test_discord_via_coherence_bell():
    value, _, trace = discord_via_coherence(bell_phi_plus())
    assert abs(value - 1.0) < 1e-6
    assert trace.best_value == value


def test_discord_via_coherence_cq_recovers_basis():
    value, basis, _ = discord_via_coherence(cq_example())
    assert abs(value) < 1e-8
    # the minimizing frame realigns with the defining basis up to phase/order
    overlap = np.abs(basis.frame.conj().T @ np.eye(2))
    assert np.max(np.abs(np.sort(overlap, axis=0)[-1] - 1.0)) < 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_discord_via_coherence_is_discord(seed):
    rho = random_state(3, 2, "ginibre-mixed", seed=seed)
    config = OptimizerConfig(restarts=6, seed=seed)
    value, trace = discord(rho, config)
    other, basis, other_trace = discord_via_coherence(rho, config)
    assert other == value and basis is other_trace.best_basis
    assert other_trace.to_dict() == trace.to_dict()


def test_discord_via_coherence_agrees_with_discord():
    for rho in random_states(8, seed=12):
        v1, _ = discord(rho, OptimizerConfig(seed=21))
        v2, _, _ = discord_via_coherence(rho, OptimizerConfig(seed=22))
        assert abs(v1 - v2) < 1e-4


def test_discord_via_coherence_agrees_2x3():
    for rho in random_states(4, d_b=3, seed=13):
        v1, _ = discord(rho, OptimizerConfig(seed=31))
        v2, _, _ = discord_via_coherence(rho, OptimizerConfig(seed=32))
        assert abs(v1 - v2) < 1e-4


def test_coherence_discord_upper_bounds_discord():
    for rho in random_states(10, seed=14):
        v, _ = discord(rho, OptimizerConfig(seed=3))
        assert coherence_discord(rho) >= v - 1e-6


# ---------------------------------------------------------------------------
# monotonicity gap (Theorem 1 route)
# ---------------------------------------------------------------------------


def test_gap_cq_canonical_zero():
    gap, rhs = ppio_monotonicity_gap(cq_example(), dephasing_channel(2))
    assert abs(gap) < 1e-12
    assert abs(rhs) < 1e-12


def test_gap_bell_equality_case():
    gap, rhs = ppio_monotonicity_gap(bell_phi_plus(), dephasing_channel(2))
    assert_allclose(gap, 1.0, atol=1e-12)
    assert_allclose(rhs, 1.0, atol=1e-12)


@pytest.mark.parametrize("gap, mi_drop", [(-1e-6, 0.0), (0.5, 0.5 + 1e-6)])
def test_gap_violation_raises(monkeypatch, gap, mi_drop):
    # a negative gap, or one below the mutual-information drop, is a numerical bug
    monkeypatch.setattr(DISCORD_MODULE, "_level_map_drops",
                        lambda m, w, dims, maps: np.array([gap, mi_drop]))
    with pytest.raises(ArithmeticError, match="monotonicity violated"):
        ppio_monotonicity_gap(bell_phi_plus(), dephasing_channel(2))


def test_gap_requires_rank_one_ppio():
    from discoh.channels import make_iuo

    with pytest.raises(ValueError, match="rank-one"):
        ppio_monotonicity_gap(bell_phi_plus(), make_iuo([1, 0], [0.0, 0.0]))


def test_gap_checks_the_stack_and_its_side():
    with pytest.raises(ValueError, match="trace preserving"):
        ppio_monotonicity_gap(bell_phi_plus(), 0.5 * dephasing_channel(2))
    with pytest.raises(ValueError, match=r"channel on A \(dim 3\)"):
        ppio_monotonicity_gap(random_state(3, 2, "ginibre-mixed", seed=18), dephasing_channel(2))


def test_gap_dim3_level_swap_nonnegative():
    ppio = make_rank_one_ppio([1, 1, 2], [0.0, 0.0, 0.0])  # levels 0 and 1 both go to 1
    rng = np.random.default_rng(15)
    for _ in range(10):
        rho = random_state(3, 2, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
        gap, rhs = ppio_monotonicity_gap(rho, ppio)
        assert gap >= -1e-9
        assert gap >= rhs - 1e-9


def test_gap_equality_for_non_merging_ppios():
    # when no two levels merge, the drop equals the mutual-information drop
    rng = np.random.default_rng(16)
    for rho in random_states(10, seed=17):
        ppio = random_rank_one_ppio(2, rng, 1, injective=True)[0]
        gap, rhs = ppio_monotonicity_gap(rho, ppio)
        assert abs(gap - rhs) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_stacked_ppio_drops_are_the_scalar_route(dims):
    # the level-map kernel of the Theorem 1 and invariance trials against the
    # measures of the lifted outputs sum_k (K_k (x) 1) rho (K_k (x) 1)†, one
    # state at a time
    d_a, d_b = dims
    eye = np.eye(d_a)

    def lifted(rho, ops):
        big = [np.kron(k, np.eye(d_b)) for k in ops]
        return DensityMatrix(sum(b @ rho.mat @ b.conj().T for b in big), dims)

    rng = np.random.default_rng(231 + d_a * d_b)
    merging = {True: 0, False: 0}
    for injective in (True, False):
        for _ in range(4):
            rho = random_state(d_a, d_b, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
            stack = random_rank_one_ppio(d_a, rng, 3, injective)
            maps = np.abs(stack).sum(axis=1).argmax(axis=1)  # level j goes to row maps[:, j]
            *drops, mi_drop = _level_map_drops(rho.mat, rho.spectrum, dims, [*maps, range(d_a)])
            deph = lifted(rho, eye[:, :, None] * eye[:, None, :])
            assert abs(mi_drop - (mutual_information(rho) - mutual_information(deph))) <= 1e-12
            for ops, level_map, drop in zip(stack, maps, drops):
                gap = correlated_coherence(rho) - correlated_coherence(lifted(rho, ops))
                assert abs(drop - gap) <= 1e-12
                assert_allclose(ppio_monotonicity_gap(rho, ops), (gap, mi_drop),
                                rtol=0, atol=1e-12)
                merging[injective] += len(set(level_map.tolist())) < d_a
    assert merging[True] == 0 < merging[False]
    for level in (-1, d_a):  # a level outside range(d_a) is no level map
        with pytest.raises(ValueError, match="level map"):
            _level_map_drops(rho.mat, rho.spectrum, dims, [[level, *range(1, d_a)]])


@pytest.mark.parametrize("d_a", [2, 3, 4])
def test_merged_blocks_are_the_applied_ppio_output(d_a):
    # sum_k |k><k| (x) sigma_k, sigma_k = sum_{f(j) = k} M_j, is apply_local's output of
    # the Kraus stack {e^{i th_j} |f(j)><j|} for random phases, merging or not
    dims = (d_a, 2)
    rng = rng_from_seed(240 + d_a)
    mats = np.array([random_state(*dims, "ginibre-mixed", seed=s).mat for s in range(3)])
    merging = {True: 0, False: 0}
    for injective in (True, False):
        stack = random_rank_one_ppio(d_a, rng, 12, injective).reshape(3, 4, d_a, d_a, d_a)
        maps = np.abs(stack).sum(axis=2).argmax(axis=2)
        outs = apply_local(mats[:, None], dims, stack).reshape(3, 4, d_a, 2, d_a, 2)
        sigma = _merged_blocks(mats, dims, maps)
        diagonal = np.einsum("snkxy,km->snkxmy", sigma, np.eye(d_a))
        assert np.abs(outs - diagonal).max() <= 1e-14
        merging[injective] += sum(len(set(f)) < d_a for f in maps.reshape(-1, d_a).tolist())
    assert merging[True] == 0 < merging[False]


def test_monotonicity_drop_under_merging_exceeds_closed_form():
    # a merging PPIO can only drop more correlated coherence than dephasing
    merging = make_rank_one_ppio([1, 1], [0.0, 0.0])
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    rho = classical_quantum([0.5, 0.5], [PLUS, minus])
    drop, _ = ppio_monotonicity_gap(rho, merging)
    assert drop > coherence_discord(rho) + 0.9  # merging destroys 1 extra bit


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------


def test_zero_set_memberships():
    # the zero-sets suite's rules: dac and I_co vanish to 1e-10 on members,
    # and the discord search reaches at most 1e-6
    cq = cq_example()
    assert coherence_discord(cq) <= 1e-10

    diag = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
    assert coherence_discord(diag) <= 1e-10
    assert correlated_coherence(diag) <= 1e-10
    value, _, trace = discord_via_coherence(diag)
    assert trace.converged and trace.certified and value <= 1e-6
    assert qubit_discord_grid(diag) <= 1e-6

    assert coherence_discord(bell_phi_plus()) > 1e-10


def test_witness_not_in_discord_zero_set():
    wit = nonconvexity_witness()
    value, basis, trace = discord_via_coherence(wit)
    assert trace.converged and value > 0.01
    assert basis.frame.shape == (2, 2)
    assert len(trace.to_dict()["best_frame"]) == 2
    assert qubit_discord_grid(wit) > 0.01
    # ... even though both mixture components are discord free
    assert coherence_discord(product_state(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))) <= 1e-10
    plus_one = product_state(PLUS, np.diag([0.0, 1.0]))
    value, _, _ = discord_via_coherence(plus_one)
    assert value <= 1e-6
    assert qubit_discord_grid(plus_one) <= 1e-6


def test_dac_vanishes_on_a_larger_set_than_the_zero_set_and_it_is_not_convex():
    # both components are products rho_a (x) sigma, outside the zero set when rho_a
    # is coherent, and dac is 0 on each; their equal mixture is the witness
    zero_zero = product_state(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    plus_one = product_state(PLUS, np.diag([0.0, 1.0]))
    assert coherence_discord(zero_zero) <= 1e-12 and coherence_discord(plus_one) <= 1e-12
    witness = nonconvexity_witness()
    assert_allclose(witness.mat, (zero_zero.mat + plus_one.mat) / 2, atol=1e-15)
    assert coherence_discord(witness) > 0.2


def test_a_mixture_of_physically_free_channels_raises_dac_off_the_zero_set():
    # 1 (x) (prepare |0>) and Z (x) (prepare |1>) map |+><+| (x) 1/2, where dac is 0
    # though A is coherent, to |+><+| (x) |0><0| and |-><-| (x) |1><1|; their equal
    # mixture has dac = 1
    prepare_0 = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    prepare_1 = prepare_0[:, ::-1]
    rho = product_state(PLUS, np.eye(2) / 2)
    outputs = []
    for u, b_ops in ((np.eye(2)[None], prepare_0), (np.diag([1.0, -1.0])[None], prepare_1)):
        u_a, b = make_physically_free(u, b_ops)
        assert LABEL_PHYSICALLY_FREE in classify(np.kron(u_a, b), dims=(2, 2))
        outputs.append(apply_local(rho.mat, rho.dims, u_a, b))
    assert abs(coherence_discord(rho)) <= 1e-12
    mixed = DensityMatrix((outputs[0] + outputs[1]) / 2, (2, 2))
    assert abs(coherence_discord(mixed) - 1.0) <= 1e-12


def test_unconverged_discord_search_leaves_membership_undecided():
    # exact discord 0, in a frame the probe misses, so the search starts at the reference
    # frame; one step leaves the best restart far above the threshold, and the trace says
    # the value is only an upper bound
    rho = probe_blind_state(np.random.default_rng(7))
    value, _, trace = discord_via_coherence(rho, OptimizerConfig(max_iter=1))
    assert np.array_equal(trace.restarts[0].initial_frame, np.eye(3))
    assert not trace.converged and value > 1e-6
    value, _, trace = discord_via_coherence(rho)
    assert trace.converged and value <= 1e-9
