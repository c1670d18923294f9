"""discoh: discordlike correlation of bipartite coherence.

A numpy toolkit for finite-dimensional bipartite density matrices:
entropy and coherence measures, the incoherent channel families (IUO, PPIO,
rank-one PPIO, physically free operations), quantum discord via basis
optimization, the closed-form discordlike coherence correlation, and
randomized suites verifying the structural theorems that tie them together.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelMixture,
    classify,
    dephasing_channel,
    make_iuo,
    make_physically_free,
    make_rank_one_ppio,
    random_iuo,
    random_rank_one_ppio,
)
from .discord import (
    OptimizationTrace,
    OptimizerConfig,
    coherence_discord,
    coherence_discord_symmetric,
    discord,
    discord_via_coherence,
    ppio_monotonicity_gap,
    qubit_discord_grid,
)
from .linalg import apply_local, dephase_local, partial_trace
from .measures import (
    CSV_COLUMNS,
    MeasureReport,
    coherence_rel_ent,
    correlated_coherence,
    cq_coherence,
    entropy,
    l1_coherence,
    mutual_information,
    relative_entropy,
)
from .states import (
    DensityMatrix,
    ReferenceBasis,
    bell_phi_plus,
    classical_quantum,
    load_state,
    random_state,
    save_state,
    state_from_json,
    state_to_json,
    swap_subsystems,
    werner,
)
from .verify import SUITES, SuiteResult, nonconvexity_witness, run_suite
