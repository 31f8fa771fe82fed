"""The one-dimensional measurement step and its four noise locations.

One computational step entangles the current qubit with a fresh |+> qubit
through CZ and measures the first qubit, either in the Z basis or in the
equatorial plane at angle phi.  Each outcome k implements a trace-halving
channel on the surviving qubit:

* Z basis:      rho -> (1/2) Z^k rho Z^k
* equatorial:   rho -> (1/2) X^k H exp(i*phi*Z/2) rho exp(-i*phi*Z/2) H X^k

Noise can strike at four places: on the input before CZ (``alpha1``), on the
fresh plus qubit before CZ (``alpha2``), on the measured qubit just before
readout (``alpha3``), or on the output after CZ (``alpha4``).  Input and
output noise compose directly; the other two locations map to new channels
with diagonal Kraus operators, so the composite step is
``alpha4 o mapped(alpha2) o step_k o mapped(alpha3, k) o alpha1``.  A Kraus
operator K of the resource noise maps to the diagonal M with M|+> = K|+>, one
of the readout noise to the diagonal M with <v|M = <v|K for the observed
equatorial state v; both come straight from the entries of K.

:func:`compose_block_noise` maps every step to its one channel; a Z step is
its ideal channel and takes no noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemath as dm
from .channels import KrausChannel, compose, identity_channel
from .errors import ZBasisUnsupported

Z_BASIS = "z"
EQUATORIAL = "equatorial"


@dataclass(frozen=True)
class MeasSpec:
    """Measurement basis (Z or equatorial at angle phi) plus outcome bit."""

    basis: str
    phi: float = 0.0
    outcome: int = 0

    def __post_init__(self):
        if self.basis not in (Z_BASIS, EQUATORIAL):
            raise ValueError(f"unknown basis {self.basis!r}")
        if not np.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if self.outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")

    @property
    def ket(self) -> np.ndarray:
        """The unit vector this readout projects onto."""
        if self.basis == Z_BASIS:
            return (dm.KET0, dm.KET1)[self.outcome]
        return dm.equatorial_ket(self.phi, self.outcome)

    @classmethod
    def z(cls, outcome: int = 0) -> "MeasSpec":
        return cls(basis=Z_BASIS, outcome=outcome)

    @classmethod
    def equatorial(cls, phi: float, outcome: int = 0) -> "MeasSpec":
        return cls(basis=EQUATORIAL, phi=phi, outcome=outcome)


@dataclass(frozen=True)
class BlockNoiseConfig:
    """Measurement spec plus the four optional noise channels."""

    meas: MeasSpec
    alpha1: KrausChannel | None = None
    alpha2: KrausChannel | None = None
    alpha3: KrausChannel | None = None
    alpha4: KrausChannel | None = None


def ideal_block(meas: MeasSpec) -> KrausChannel:
    """Noiseless step channel for the given basis and outcome."""
    k = meas.outcome
    if meas.basis == Z_BASIS:
        op = np.linalg.matrix_power(dm.Z, k) / np.sqrt(2.0)
    else:
        xk = np.linalg.matrix_power(dm.X, k)
        op = xk @ dm.H @ dm.rz(-meas.phi) / np.sqrt(2.0)
    return KrausChannel([op])


def map_resource_noise(alpha2: KrausChannel) -> KrausChannel:
    """Channel equivalent to ``alpha2`` hitting the fresh plus qubit.

    The noise acts on a known |+> before CZ, so each Kraus operator K can be
    replaced by the diagonal M = sqrt(2) diag(K|+>), which has M|+> = K|+>.
    Paulis map as I -> I, X -> I, Z -> Z, Y -> -iZ.
    """
    return KrausChannel([np.sqrt(2.0) * np.diag(k @ dm.PLUS) for k in alpha2.ops])


def map_measurement_noise(alpha3: KrausChannel, phi: float, k: int) -> KrausChannel:
    """Outcome-dependent channel equivalent to noise just before readout.

    Only the projection <v|K onto the observed state v = exp(-i*phi*Z/2)
    Z^k |+> survives the readout, and |v_i|^2 = 1/2, so each Kraus operator
    K maps to the diagonal M = 2 diag(v * (v^dag K)), which has <v|M = <v|K.
    In the basis rotated by exp(-i*phi*Z/2), Paulis map as I -> I, Z -> Z,
    X -> (-1)^k I and iXZ -> i(-1)^k Z.
    """
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    v = dm.equatorial_ket(phi, k)
    return KrausChannel([2.0 * np.diag(v * (v.conj() @ op)) for op in alpha3.ops])


def compose_block_noise(cfg: BlockNoiseConfig) -> KrausChannel:
    """The one channel of a step with outcome ``cfg.meas.outcome``.

    An equatorial step builds ``alpha4 o mapped(alpha2) o step o mapped(alpha3,
    k) o alpha1``; absent channels default to the identity.  A Z step is its
    ideal channel and takes no noise (``ZBasisUnsupported`` if any is set).
    """
    meas = cfg.meas
    if meas.basis == Z_BASIS:
        if any(a is not None for a in (cfg.alpha1, cfg.alpha2, cfg.alpha3, cfg.alpha4)):
            raise ZBasisUnsupported("a Z step takes no noise")
        return ideal_block(meas)
    # the identity start stays a factor: dropping it can flip the sign of a zero
    ch = cfg.alpha1 if cfg.alpha1 is not None else identity_channel()
    if cfg.alpha3 is not None:
        ch = compose(map_measurement_noise(cfg.alpha3, meas.phi, meas.outcome), ch)
    ch = compose(ideal_block(meas), ch)
    if cfg.alpha2 is not None:
        ch = compose(map_resource_noise(cfg.alpha2), ch)
    if cfg.alpha4 is not None:
        ch = compose(cfg.alpha4, ch)
    return ch
