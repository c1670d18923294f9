"""Tests of the benchmark's own references against textbook values.

Run:  python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import references as R
from inputs import child_rng, haar_unitary, mixed_state, pure_vector

PHI_PLUS = R.bell_diagonal([1, 0, 0, 0])


def test_bell_state_fixed_points():
    rep = R.closed_form_report(PHI_PLUS, (2, 2))
    assert rep["I_co"] == pytest.approx(1.0, abs=1e-12)
    assert rep["dac"] == pytest.approx(1.0, abs=1e-12)
    assert rep["dac_sym"] == pytest.approx(1.0, abs=1e-12)
    assert rep["C_r_upper"] == pytest.approx(1.0, abs=1e-12)
    assert rep["I"] == pytest.approx(2.0, abs=1e-12)
    assert R.luo_discord(R.correlation_coefficients(PHI_PLUS)) == pytest.approx(1.0, abs=1e-12)
    assert R.discord_bruteforce_qubit(PHI_PLUS, 2) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p, want", [(0.0, 0.0), (1.0, 1.0)])
def test_werner_endpoints(p, want):
    assert R.werner_discord(p) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.35, 0.6, 0.9])
def test_werner_matches_luo_and_bruteforce(p):
    w = R.werner(p)
    assert np.allclose(R.correlation_coefficients(w), [p, -p, p])
    assert R.luo_discord(R.correlation_coefficients(w)) == pytest.approx(R.werner_discord(p), abs=1e-12)
    assert R.discord_bruteforce_qubit(w, 2) == pytest.approx(R.werner_discord(p), abs=1e-6)


@pytest.mark.parametrize("slot", range(4))
def test_luo_matches_bruteforce_under_local_unitaries(slot):
    rng = child_rng(7, "basis-search", 0, slot)
    m = R.bell_diagonal(rng.dirichlet(np.ones(4)))
    want = R.luo_discord(R.correlation_coefficients(m))
    u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    assert R.discord_bruteforce_qubit(u @ m @ u.conj().T, 2) == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("d_b", [2, 3])
def test_classical_quantum_has_zero_discord(d_b):
    rng = child_rng(3, "basis-search", 1, d_b)
    m = R.classical_quantum(rng.dirichlet(np.ones(2)), haar_unitary(rng, 2),
                            [mixed_state(rng, d_b) for _ in range(2)])
    assert R.is_valid_state(m, (2, d_b))
    assert R.discord_bruteforce_qubit(m, d_b) == pytest.approx(0.0, abs=1e-5)
    assert R.discord_bruteforce_qubit(m, d_b) >= -1e-12


def test_pure_state_discord_is_marginal_entropy():
    rng = child_rng(5, "basis-search", 2, 0)
    v = pure_vector(rng, 4)
    m = np.outer(v, v.conj())
    assert R.discord_bruteforce_qubit(m, 2) == pytest.approx(R.pure_discord(v, (2, 2)), abs=1e-9)


def test_partial_traces_and_dephasing():
    rng = child_rng(11, "closed-form", 0, 0)
    a, b = mixed_state(rng, 2), mixed_state(rng, 3)
    m = np.kron(a, b)
    assert np.allclose(R.trace_out_b(m, (2, 3)), a)
    assert np.allclose(R.trace_out_a(m, (2, 3)), b)
    # product states carry no correlated coherence, and dac vanishes on them
    rep = R.closed_form_report(m, (2, 3))
    assert rep["I_co"] == pytest.approx(0.0, abs=1e-12)
    assert rep["dac"] == pytest.approx(0.0, abs=1e-12)
    # dephasing A leaves A's diagonal and zeroes A's coherences
    f = haar_unitary(rng, 2)
    d = R.dephase_a(m, (2, 3), f)
    inner = np.kron(f.conj().T, np.eye(3)) @ d @ np.kron(f, np.eye(3))
    assert np.allclose(inner.reshape(2, 3, 2, 3)[0, :, 1, :], 0)


def test_closed_form_inequalities_on_random_states():
    for slot in range(10):
        rng = child_rng(13, "closed-form", 1, slot)
        m = mixed_state(rng, 6, 2 if slot % 2 else None)
        rep = R.closed_form_report(m, (2, 3), haar_unitary(rng, 2), haar_unitary(rng, 3))
        assert rep["I_co"] >= -1e-12
        assert -1e-12 <= rep["dac"] <= rep["C_r_upper"] + 1e-12
        assert rep["C_r_ab"] >= rep["C_r_a"] + rep["C_r_b"] - 1e-12


def test_cq_angle_family_starts_incoherently_correlated():
    from workloads import cq_angle_state

    rep = R.closed_form_report(cq_angle_state(0.0), (2, 2))
    assert rep["dac"] == pytest.approx(0.0, abs=1e-12)
    assert R.closed_form_report(cq_angle_state(np.pi / 4), (2, 2))["dac"] > 0.01
