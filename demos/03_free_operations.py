#!/usr/bin/env python3
"""The incoherent channel families and what they do to the correlation.

Builds IUOs, PPIOs, rank-one PPIOs and factorizable physically free channels
as Kraus stacks; classifies them structurally; and demonstrates the two
closure facts the verification suites check at scale: rank-one PPIOs never
increase the correlated coherence (Theorem 1), and physically free channels
keep the zero set fixed (Theorem 3).  Off that set, on states such as
rho_a (x) sigma where dac also vanishes, neither convexity nor closure holds.
"""

import numpy as np

from discoh import (
    DensityMatrix,
    apply_local,
    bell_phi_plus,
    classical_quantum,
    classify,
    coherence_discord,
    correlated_coherence,
    dephasing_channel,
    make_iuo,
    make_physically_free,
    make_rank_one_ppio,
    nonconvexity_witness,
    ppio_monotonicity_gap,
    random_rank_one_ppio,
)
from discoh.channels import random_physically_free
from discoh.states import random_state, rng_from_seed


def shown(dac: float) -> float:
    """dac as the CLI prints it: a value in [-1e-12, 0] is roundoff, shown as 0."""
    return 0.0 if -1e-12 <= dac <= 0.0 else dac


# 1. Channel zoo and structural classification.  Builders and samplers return
# Kraus stacks (n, d, d), and classify checks and labels a stack; U_a (x) {B_j}
# comes as its two factor stacks, and classify takes their joint stack.
print("classification (structural, on the given Kraus representation):")
swap = make_iuo([1, 0], [0.0, np.pi / 3])
print("  phase-decorated swap:", sorted(classify(swap)))
print("  full dephasing:      ", sorted(classify(dephasing_channel(2))))
hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
print("  Hadamard unitary:    ", sorted(classify([hadamard])), "(coherent)")
rng = rng_from_seed(7)
u_a, b_ops = random_physically_free(2, 2, rng)
u_a, b_ops = make_physically_free(u_a[0], b_ops)  # the checked factor stacks
joint = np.array([np.kron(u, b) for u in u_a for b in b_ops])  # {U_a (x) B_j} on A (x) B
print("  U_a x {B_j} channel: ", sorted(classify(joint, dims=(2, 2))))

# 2. Rank-one PPIOs only ever destroy correlated coherence.
bell = bell_phi_plus()
gap, mi_drop = ppio_monotonicity_gap(bell, dephasing_channel(2))
print("\nBell state under plain dephasing of A:")
print(f"  I_co drop = {gap:.6f}, mutual-information drop = {mi_drop:.6f} (equality case)")

print("\nrandom states under random rank-one PPIOs (drop, floor):")
for _ in range(5):
    rho = random_state(2, 2, "ginibre-mixed", seed=int(rng.integers(1 << 32)))
    (ppio,) = random_rank_one_ppio(2, rng, 1)
    gap, mi_drop = ppio_monotonicity_gap(rho, ppio)
    print(f"  drop = {gap:+.6f}  >=  mi drop = {mi_drop:+.6f}")

# A level-merging rank-one PPIO in dimension 3: the first unitary swaps
# levels 0 and 1, so blocks 0 and 1 pile onto the same output level.
u_swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
merging = make_rank_one_ppio(3, [u_swap, np.eye(3), np.eye(3)])
rho = random_state(3, 2, "ginibre-mixed", seed=11)
# its Kraus operators act on A's indices of rho; no operator on A (x) B is formed
out = DensityMatrix(apply_local(rho.mat, rho.dims, merging), rho.dims)
print("\nlevel-merging PPIO on a 3x2 state:")
print(f"  I_co before = {correlated_coherence(rho):.6f}, after = {correlated_coherence(out):.6f}")

# 3. Physically free channels cannot create the resource.
cq = classical_quantum([0.3, 0.7], [np.diag([0.2, 0.8]), np.array([[0.5, 0.5], [0.5, 0.5]])])
print("\nfree channels acting on a zero-correlation (classical-quantum) state:")
print(f"  dac before: {shown(coherence_discord(cq)):.2e}")
for n_ops in (1, 2, 3):
    u_a, b_ops = random_physically_free(2, 2, rng, n_b_ops=n_ops)
    out = DensityMatrix(apply_local(cq.mat, cq.dims, u_a, b_ops), cq.dims)
    print(f"  dac after U_a x {{B_j}} with {n_ops} B ops: {shown(coherence_discord(out)):.2e}")

# ... while a plain unitary that is not incoherent does create it.
coherent = DensityMatrix(apply_local(cq.mat, cq.dims, hadamard[None]), cq.dims)
print(f"  dac after (Hadamard x I), for contrast: {coherence_discord(coherent):.4f}")

# dac also vanishes off the zero set, on products rho_a (x) sigma with a coherent A;
# that larger set is not convex, and a mixture of two free channels maps a state in it out.
plus = np.full((2, 2), 0.5)
ket0, ket1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
products = [DensityMatrix(np.kron(a, b), (2, 2)) for a, b in ((ket0, ket0), (plus, ket1))]
dacs = [shown(coherence_discord(r)) for r in (*products, nonconvexity_witness())]
print(f"  off the zero set, dac of |00>, of |+>|1> and of their equal mixture: "
      f"{dacs[0]:.2e}, {dacs[1]:.2e}, {dacs[2]:.4f}")
rho = DensityMatrix(np.kron(plus, np.eye(2) / 2), (2, 2))
prepare_0 = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])  # |0><0|, |0><1|
outs = [apply_local(rho.mat, rho.dims, *make_physically_free(u, b_ops))
        for u, b_ops in ((np.eye(2), prepare_0), (np.diag([1.0, -1.0]), prepare_0[:, ::-1]))]
mixed = DensityMatrix(sum(outs) / 2, (2, 2))
print(f"  off the zero set, dac of |+><+| x 1/2: {shown(coherence_discord(rho)):.2e}, after the "
      f"equal mixture of 1 x (prepare |0>) and Z x (prepare |1>): {coherence_discord(mixed):.4f}")
