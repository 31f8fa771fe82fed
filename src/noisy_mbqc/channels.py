"""Kraus-channel algebra and the single-qubit Pauli labelling.

A channel is one complex (r, 2, 2) array of single-qubit Kraus operators,
stacked once when built, so each kernel is one broadcast over the stack
axis; :func:`densemath.stacked` checks its shape, as it checks every state
and operator the other calls here take.  No trace condition is stored with
it: sum K^dag K is I for a trace-preserving map, below I for a post-selected
branch, and may exceed I for a derived map such as mapped resource or
readout noise.  :func:`validate` checks the bound where channels enter
(stock channels and parsed documents); the constructor and :func:`compose`
build derived maps without it, and :func:`kraus_sum` gives the trace
behaviour on demand.  Channels are compared through their Choi matrices
(Kraus sets are not unique).

Single-qubit Paulis carry one labelling, sigma_gh = i^(g*h) X^g Z^h: (0, 1)
is Z, (1, 0) is X and (1, 1) is Y.  :func:`pauli_decompose` gives an
operator's coefficients in it; the noise maps themselves work on matrix
entries and need no table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemath as dm
from .errors import NotAChannel, NotUnitary


@dataclass(frozen=True)
class KrausChannel:
    """A single-qubit completely positive map: ``ops``, any sequence of r >= 1
    2x2 Kraus operators, is stored as one (r, 2, 2) array by
    :func:`densemath.stacked`."""

    ops: np.ndarray

    def __post_init__(self):
        ops = dm.stacked(self.ops, (None, 2, 2), "Kraus operators")
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)


def kraus_sum(ops) -> np.ndarray:
    """The operator sum K^dag K over all Kraus operators."""
    return sum(dm.dag(k) @ k for k in ops)


def validate(ops) -> KrausChannel:
    """Build a channel, insisting on finite entries and sum K^dag K bounded by I.

    The set passes when the sum is entrywise within ``dm.ATOL`` of I, or when
    the largest eigenvalue of its Hermitian part is at most 1 + ``dm.ATOL``.
    A bounded sum bounds every entry, |K_ij|^2 <= 1 + ``dm.ATOL``, so a larger
    entry is refused before the sum is formed (where it could overflow).
    """
    ch = KrausChannel(ops)
    if not np.isfinite(ch.ops).all():
        raise NotAChannel("Kraus operators must have finite entries")
    big = np.abs(ch.ops).max()
    if big > 1.0 + dm.ATOL:
        raise NotAChannel(f"sum K^dag K exceeds the identity (entry modulus {big:.3e})")
    s = kraus_sum(ch.ops)
    if dm.max_abs_diff(s, dm.I2) > dm.ATOL:
        top = np.linalg.eigvalsh(0.5 * (s + dm.dag(s))).max()
        if top > 1.0 + dm.ATOL:
            raise NotAChannel(
                f"sum K^dag K exceeds the identity (largest eigenvalue 1 + {top - 1.0:.3e})"
            )
    return ch


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel, sum_m K_m rho K_m^dag, to ``rho``: one 2x2 state or a
    stack of them, such as (N, 2, 2), told apart by shape as an oracle prep's
    are (:func:`densemath.item_or_stack`); a stack gives a stack of its shape.

    The r products of every state are one batched matmul over the stacked
    Kraus operators, summed over the Kraus axis, so each state of a stack
    gets the bits it would get alone.
    """
    rho = dm.item_or_stack(rho, (2, 2), "state rho (2x2, or an (N, 2, 2) stack)")
    ks = ch.ops
    return (ks @ rho[..., None, :, :] @ ks.conj().transpose(0, 2, 1)).sum(axis=-3)


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Composite map acting as ``after(before(rho))``; Kraus set {A_i B_j},
    with i the outer index of the stack."""
    return KrausChannel((after.ops[:, None] @ before.ops[None]).reshape(-1, 2, 2))


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) ch(|i><j|), trace 2 for CPTP maps.

    Its entry ((i, a), (j, b)) is sum_m K_m[a, i] conj(K_m[b, j]), so with
    row m of V equal to vec(K_m^T) (row-major) the matrix is V^T conj(V):
    one matmul over the stacked operators.
    """
    v = ch.ops.transpose(0, 2, 1).reshape(len(ch), -1)
    return v.T @ v.conj()


# ---------------------------------------------------------------------------
# Paulis and unitaries
# ---------------------------------------------------------------------------


def basis_element(g: int, h: int) -> np.ndarray:
    """The Pauli sigma_gh = i^(g*h) X^g Z^h, for bits g and h."""
    g, h = dm.outcome_bit(g), dm.outcome_bit(h)
    return (1j) ** (g * h) * np.linalg.matrix_power(dm.X, g) @ np.linalg.matrix_power(
        dm.Z, h
    )


#: PAULI_DAGGERS[g, h] is basis_element(g, h)^dag, the table pauli_decompose reads
PAULI_DAGGERS = np.array([[dm.dag(basis_element(g, h)) for h in range(2)] for g in range(2)])
PAULI_DAGGERS.setflags(write=False)


def pauli_decompose(k: np.ndarray) -> np.ndarray:
    """Coefficients a[g, h] with k = sum_gh a[g, h] * basis_element(g, h)."""
    k = dm.stacked(k, (2, 2), "operator k")
    return np.trace(PAULI_DAGGERS @ k, axis1=-2, axis2=-1) / 2.0


def check_unitary(u) -> np.ndarray:
    """``u`` as a complex 2x2 matrix: finite, with U^dag U within ``dm.ATOL`` of I."""
    u = dm.stacked(u, (2, 2), "unitary")
    if not np.isfinite(u).all():
        raise NotUnitary("a unitary must have finite entries")
    # unit columns bound every entry; a larger one could overflow U^dag U
    if np.abs(u).max() > 1.0 + dm.ATOL or dm.max_abs_diff(dm.dag(u) @ u, dm.I2) > dm.ATOL:
        raise NotUnitary("matrix fails the unitarity check, U^dag U != I")
    return u


# ---------------------------------------------------------------------------
# Stock channels
# ---------------------------------------------------------------------------


def identity_channel() -> KrausChannel:
    return KrausChannel([dm.I2])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return validate([check_unitary(u)])


def mixed_unitary(pairs) -> KrausChannel:
    """Channel applying unitary u with probability p for each (p, u) pair."""
    return validate([np.sqrt(p) * check_unitary(u) for p, u in pairs])


def bit_flip(p: float) -> KrausChannel:
    return mixed_unitary([(1.0 - p, dm.I2), (p, dm.X)])


def phase_flip(p: float) -> KrausChannel:
    return mixed_unitary([(1.0 - p, dm.I2), (p, dm.Z)])


def depolarizing() -> KrausChannel:
    """Completely depolarising channel, sending every input to I/2."""
    return validate([0.5 * s for s in (dm.I2, dm.X, dm.Y, dm.Z)])


def random_channel(rng: np.random.Generator, n_kraus: int) -> KrausChannel:
    """A Haar-flavoured single-qubit CPTP channel from a random isometry.

    A Gaussian (2 n_kraus) x 2 matrix is orthonormalised by QR; slicing the
    isometry into 2x2 blocks yields Kraus operators that satisfy the
    trace-preservation sum exactly.
    """
    size = (2 * n_kraus, 2)
    q, _ = np.linalg.qr(rng.normal(size=size) + 1j * rng.normal(size=size))
    return validate(q.reshape(n_kraus, 2, 2))
