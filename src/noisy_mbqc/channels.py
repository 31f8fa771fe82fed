"""Kraus-channel algebra and the single-qubit Pauli labelling.

A channel is a finite list of equal-shaped Kraus operators.  No trace
condition is stored with it: sum K^dag K is I for a trace-preserving map,
below I for a post-selected branch, and may exceed I for a derived map such
as mapped resource or readout noise.  :func:`validate` checks the bound
where channels enter (stock channels and parsed documents); :func:`channel`
and :func:`compose` build derived maps without it, and :func:`kraus_sum`
gives the trace behaviour on demand.  Channels are compared through their
Choi matrices (Kraus sets are not unique).

Single-qubit Paulis carry one labelling, sigma_gh = i^(g*h) X^g Z^h: (0, 1)
is Z, (1, 0) is X and (1, 1) is Y.  :func:`pauli_decompose` gives an
operator's coefficients in it; the noise maps themselves work on matrix
entries and need no table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemath as dm
from .errors import DimensionMismatch, NotAChannel, NotUnitary


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by Kraus operators."""

    ops: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def __len__(self) -> int:
        return len(self.ops)


def kraus_sum(ops) -> np.ndarray:
    """The operator sum K^dag K over all Kraus operators."""
    return sum(dm.dag(k) @ k for k in ops)


def _check_ops(ops) -> tuple[np.ndarray, ...]:
    ops = tuple(np.asarray(k, dtype=complex) for k in ops)
    if not ops:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    d = ops[0].shape
    if len(d) != 2 or d[0] != d[1]:
        raise DimensionMismatch(f"Kraus operators must be square, got {d}")
    if any(k.shape != d for k in ops):
        raise DimensionMismatch("Kraus operators must share one shape")
    return ops


def validate(ops) -> KrausChannel:
    """Build a channel, insisting on sum K^dag K bounded by the identity.

    The set passes when the sum is entrywise within ``dm.ATOL`` of I, or when
    the largest eigenvalue of its Hermitian part is at most 1 + ``dm.ATOL``.
    """
    ops = _check_ops(ops)
    s = kraus_sum(ops)
    if dm.max_abs_diff(s, np.eye(s.shape[0])) > dm.ATOL:
        top = np.linalg.eigvalsh(0.5 * (s + dm.dag(s))).max()
        if top > 1.0 + dm.ATOL:
            raise NotAChannel(
                f"sum K^dag K exceeds the identity (largest eigenvalue 1 + {top - 1.0:.3e})"
            )
    return KrausChannel(ops)


def channel(ops) -> KrausChannel:
    """Build a channel without the trace bound, e.g. a derived map."""
    return KrausChannel(_check_ops(ops))


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel: sum_m K_m rho K_m^dag.

    The Kraus operators are stacked into one (r, d, d) array, so the r
    products are one batched matmul summed over the stack axis.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match channel dimension {ch.dim}"
        )
    ks = np.asarray(ch.ops)
    return (ks @ rho @ ks.conj().transpose(0, 2, 1)).sum(axis=0)


def kraus_products(after, before) -> tuple[np.ndarray, ...]:
    """The Kraus set {A_i B_j} of ``after`` following ``before``."""
    if after[0].shape != before[0].shape:
        raise DimensionMismatch(
            f"cannot compose dimension {after[0].shape[0]} after {before[0].shape[0]}"
        )
    return tuple(a @ b for a in after for b in before)


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Composite map acting as ``after(before(rho))``; Kraus set {A_i B_j}."""
    return KrausChannel(kraus_products(after.ops, before.ops))


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) ch(|i><j|), trace d for CPTP maps.

    Its entry ((i, a), (j, b)) is sum_m K_m[a, i] conj(K_m[b, j]), so with
    row m of V equal to vec(K_m^T) (row-major) the matrix is V^T conj(V):
    one matmul over the stacked operators.
    """
    ks = np.asarray(ch.ops)
    v = ks.transpose(0, 2, 1).reshape(len(ks), -1)
    return v.T @ v.conj()


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Largest entrywise difference between the two Choi matrices."""
    return dm.max_abs_diff(choi(a), choi(b))


def channels_equal(a: KrausChannel, b: KrausChannel, tol: float = 1e-9) -> bool:
    """Channel equality as Choi max-entry distance within ``tol``."""
    return choi_distance(a, b) <= tol


# ---------------------------------------------------------------------------
# Paulis and unitaries
# ---------------------------------------------------------------------------


def basis_element(g: int, h: int) -> np.ndarray:
    """The Pauli sigma_gh = i^(g*h) X^g Z^h."""
    return (1j) ** (g * h) * np.linalg.matrix_power(dm.X, g) @ np.linalg.matrix_power(
        dm.Z, h
    )


def pauli_decompose(k: np.ndarray) -> np.ndarray:
    """Coefficients a[g, h] with k = sum_gh a[g, h] * basis_element(g, h)."""
    k = np.asarray(k, dtype=complex)
    if k.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {k.shape}")
    table = np.zeros((2, 2), dtype=complex)
    for g in range(2):
        for h in range(2):
            table[g, h] = np.trace(dm.dag(basis_element(g, h)) @ k) / 2.0
    return table


def check_unitary(u) -> np.ndarray:
    """``u`` as a complex matrix, insisting on U^dag U within ``dm.ATOL`` of I."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"a unitary must be square, got {u.shape}")
    if dm.max_abs_diff(dm.dag(u) @ u, np.eye(u.shape[0])) > dm.ATOL:
        raise NotUnitary("matrix fails the unitarity check, U^dag U != I")
    return u


# ---------------------------------------------------------------------------
# Stock channels
# ---------------------------------------------------------------------------


def identity_channel(dim: int = 2) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),))


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


def random_channel(rng: np.random.Generator, n_kraus: int = 2, dim: int = 2) -> KrausChannel:
    """A Haar-flavoured CPTP channel from a random isometry.

    A Gaussian (n_kraus*dim) x dim matrix is orthonormalised by QR; slicing
    the isometry into dim x dim blocks yields Kraus operators that satisfy
    the trace-preservation sum exactly.
    """
    g = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    q, _ = np.linalg.qr(g)
    ops = [q[i * dim : (i + 1) * dim, :] for i in range(n_kraus)]
    return validate(ops)
