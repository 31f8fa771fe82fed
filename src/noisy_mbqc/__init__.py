"""Noise propagation in one-dimensional cluster-state computing.

The package maps local single-qubit noise on the physical circuit to logical
errors on the computation's output, twice over: once through the channel
calculus of the measurement building block, and once through matrix product
operators acting in the correlation space.  Every closed form is checked
against a brute-force density-matrix oracle.
"""

from . import block, channels, cli, densemath, mpo, oracle, teleport
from .block import (
    BlockNoiseConfig,
    MeasSpec,
    compose_block_noise,
    ideal_block,
    map_measurement_noise,
    map_resource_noise,
)
from .channels import (
    KrausChannel,
    apply,
    choi,
    compose,
    pauli_decompose,
    validate,
)
from .mpo import (
    MpoState,
    mpo_apply_channel,
    mpo_apply_pauli,
    mpo_apply_unitary,
    mpo_cluster,
    mpo_contract,
    mpo_logical_output,
    mpo_maximally_mixed,
    mpo_measure,
    mpo_one_clean,
)
from .oracle import block_oracle_channel, simulate
from .teleport import diagonal_resource, teleport_branch

__version__ = "0.1.0"

__all__ = [
    "block",
    "channels",
    "cli",
    "densemath",
    "mpo",
    "oracle",
    "teleport",
    "BlockNoiseConfig",
    "MeasSpec",
    "compose_block_noise",
    "ideal_block",
    "map_measurement_noise",
    "map_resource_noise",
    "KrausChannel",
    "apply",
    "choi",
    "compose",
    "pauli_decompose",
    "validate",
    "MpoState",
    "mpo_apply_channel",
    "mpo_apply_pauli",
    "mpo_apply_unitary",
    "mpo_cluster",
    "mpo_contract",
    "mpo_logical_output",
    "mpo_maximally_mixed",
    "mpo_measure",
    "mpo_one_clean",
    "block_oracle_channel",
    "simulate",
    "diagonal_resource",
    "teleport_branch",
]
