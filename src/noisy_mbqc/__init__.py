"""Noise propagation in one-dimensional cluster-state computing.

The package maps local single-qubit noise on the physical circuit to logical
errors on the computation's output, twice over: once through the channel
calculus of the measurement building block, and once through matrix product
operators acting in the correlation space.  Every closed form is checked
against a brute-force density-matrix oracle.  Names are imported from their
module, as in ``from noisy_mbqc.mpo import mpo_cluster``.
"""

from . import block, channels, cli, densemath, mpo, oracle, teleport

__version__ = "0.1.0"
