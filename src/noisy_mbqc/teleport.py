"""Teleportation through a Bell-diagonal resource.

Qubit 0 carries the input state, qubits 1 and 2 the shared resource, with
the noise channel acting on qubit 2 (the receiving half).  A Bell projection
on qubits (0, 1) with outcome (s, t) leaves qubit 2 holding, for any
Pauli-noise resource, the unnormalised state (1/4) X^s Z^t e(rho) Z^t X^s:
the resource noise commutes through the protocol and lands on the input.
A branch is returned as that bare state, and its trace is the branch
probability.  Both branch forms take one 2x2 input or a stack of them, such
as (N, 2, 2) (:func:`densemath.item_or_stack`), so one call per Bell outcome
serves every input, each with the bits a call of its own would give.  The
Bell projectors are built once, at import.
"""

from __future__ import annotations

import numpy as np

from . import densemath as dm
from .channels import KrausChannel, apply, choi, pauli_decompose


def bell_ket(i: int, j: int) -> np.ndarray:
    """Bell state (I (x) X^i Z^j)(|00> + |11>)/sqrt(2), for bits i and j."""
    i, j = dm.outcome_bit(i), dm.outcome_bit(j)
    base = np.kron(dm.I2, np.linalg.matrix_power(dm.X, i) @ np.linalg.matrix_power(dm.Z, j))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return base @ v


#: BELL_PROJECTORS[s, t] is |b_st><b_st| (x) I on qubits (0, 1, 2), read-only
BELL_PROJECTORS = np.array(
    [[np.kron(dm.projector(bell_ket(s, t)), dm.I2) for t in range(2)] for s in range(2)]
)
BELL_PROJECTORS.setflags(write=False)


def diagonal_resource(eps: KrausChannel) -> np.ndarray:
    """Two-qubit resource sum_ij (1/2)|i><j| (x) eps(|i><j|): half the Choi matrix."""
    return 0.5 * choi(eps)


def teleport_branch(resource: np.ndarray, rho: np.ndarray, s: int, t: int) -> np.ndarray:
    """Project qubits (0, 1) of rho (x) resource onto the Bell state (s, t).

    ``rho`` is one 2x2 input or a stack of them, such as (N, 2, 2); the
    result is Bob's unnormalised single-qubit state per input, of the same
    leading shape, whose trace is the branch probability (1/4 for any
    Bell-diagonal resource).  The product rho (x) resource is one broadcast
    multiply, so each input gets the bits ``np.kron`` would give it.
    """
    resource = dm.stacked(resource, (4, 4), "resource")
    rho = dm.item_or_stack(rho, (2, 2), "input rho (2x2, or an (N, 2, 2) stack)")
    proj = BELL_PROJECTORS[dm.outcome_bit(s), dm.outcome_bit(t)]
    joint = rho[..., :, None, :, None] * resource[:, None, :]
    projected = proj @ joint.reshape(*rho.shape[:-2], 8, 8) @ proj
    return dm.partial_trace(projected, keep=[2], dims=(2, 2, 2))


def is_pauli_channel(eps: KrausChannel) -> bool:
    """True when every Kraus operator is proportional to one Pauli, within dm.ATOL."""
    for k in eps.ops:
        coeffs = np.abs(pauli_decompose(k))
        if np.count_nonzero(coeffs > dm.ATOL) > 1:
            return False
    return True


def pauli_corrected_target(
    eps: KrausChannel, rho: np.ndarray, s: int, t: int
) -> np.ndarray:
    """Closed-form branch state (1/4) X^s Z^t eps(rho) Z^t X^s, for bits s and t,
    of one 2x2 input or per input of a stack of them, as :func:`channels.apply`
    takes them."""
    s, t = dm.outcome_bit(s), dm.outcome_bit(t)
    xs = np.linalg.matrix_power(dm.X, s)
    zt = np.linalg.matrix_power(dm.Z, t)
    return 0.25 * xs @ zt @ apply(eps, rho) @ zt @ xs
