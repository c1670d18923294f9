"""Seeded input generation.

Every operation draws from its own child seed, ``SeedSequence(seed,
spawn_key=(workload, round, slot))``, so the same workload seed gives the same
inputs whatever the run length, and a run that stops early draws a prefix of
the inputs of a longer one.  The program receives only the generated
matrices; the suites take their seed as their API.
"""

from __future__ import annotations

import numpy as np

WORKLOAD_KEYS = {"closed-form": 1, "campaigns": 2, "basis-search": 3, "cli": 4}


def child_rng(seed: int, workload: str, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(WORKLOAD_KEYS[workload], *key))
    return np.random.default_rng(ss)


def child_seed(seed: int, workload: str, *key: int) -> int:
    """A 63-bit integer seed for APIs that take their own seed."""
    return int(child_rng(seed, workload, *key).integers(0, 2**63))


def complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def mixed_state(rng, d: int, rank: int | None = None) -> np.ndarray:
    """G G† / Tr with G a d x rank Ginibre matrix (full rank by default)."""
    g = complex_normal(rng, (d, rank or d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def pure_vector(rng, d: int) -> np.ndarray:
    v = complex_normal(rng, d)
    return v / np.linalg.norm(v)


def haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_normal(rng, (d, d)))
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def low_rank(d: int) -> int:
    """Rank of the low-rank mixtures: 2 at d <= 9, d // 4 above."""
    return max(2, d // 4)
