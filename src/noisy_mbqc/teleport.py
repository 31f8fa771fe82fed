"""Teleportation through a Bell-diagonal resource.

Qubit 0 carries the input state, qubits 1 and 2 the shared resource, with
the noise channel acting on qubit 2 (the receiving half).  A Bell projection
on qubits (0, 1) with outcome (s, t) leaves qubit 2 holding, for any
Pauli-noise resource, the unnormalised state (1/4) X^s Z^t e(rho) Z^t X^s:
the resource noise commutes through the protocol and lands on the input.
A branch is returned as that bare state, and its trace is the branch
probability.
"""

from __future__ import annotations

import numpy as np

from . import densemath as dm
from .channels import KrausChannel, apply, choi, pauli_decompose
from .errors import DimensionMismatch


def bell_ket(i: int, j: int) -> np.ndarray:
    """Bell state (I (x) X^i Z^j)(|00> + |11>)/sqrt(2)."""
    base = (dm.kron(dm.I2, np.linalg.matrix_power(dm.X, i) @ np.linalg.matrix_power(dm.Z, j)))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return base @ v


def diagonal_resource(eps: KrausChannel) -> np.ndarray:
    """Two-qubit resource sum_ij (1/2)|i><j| (x) eps(|i><j|): half the Choi matrix."""
    return 0.5 * choi(eps)


def teleport_branch(resource: np.ndarray, rho: np.ndarray, s: int, t: int) -> np.ndarray:
    """Project qubits (0, 1) of rho (x) resource onto the Bell state (s, t).

    Returns Bob's unnormalised single-qubit state; its trace is the branch
    probability (1/4 for any Bell-diagonal resource).
    """
    resource = np.asarray(resource, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if resource.shape != (4, 4):
        raise DimensionMismatch("resource must be a two-qubit operator")
    if rho.shape != (2, 2):
        raise DimensionMismatch("input must be a single-qubit operator")
    joint = dm.kron(rho, resource)
    proj = dm.kron(dm.projector(bell_ket(s, t)), dm.I2)
    projected = proj @ joint @ proj
    return dm.partial_trace(projected, keep=[2], dims=(2, 2, 2))


def is_pauli_channel(eps: KrausChannel, tol: float = dm.ATOL) -> bool:
    """True when every Kraus operator is proportional to one Pauli."""
    for k in eps.ops:
        coeffs = np.abs(pauli_decompose(k))
        if np.count_nonzero(coeffs > tol) > 1:
            return False
    return True


def pauli_corrected_target(
    eps: KrausChannel, rho: np.ndarray, s: int, t: int
) -> np.ndarray:
    """Closed-form branch state (1/4) X^s Z^t eps(rho) Z^t X^s."""
    xs = np.linalg.matrix_power(dm.X, s)
    zt = np.linalg.matrix_power(dm.Z, t)
    return 0.25 * xs @ zt @ apply(eps, rho) @ zt @ xs
