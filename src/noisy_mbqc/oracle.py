"""Brute-force density-matrix circuit simulator used as ground truth.

The register holds up to ``NOISY_MBQC_MAX_QUBITS`` (default 12) sites.
Sites enter the simulation when a prep op runs and leave it when a
measurement with ``remove=True`` traces them out, so long chains can be
simulated with a small live register.  Everything is linear in the state,
which lets callers feed computational basis elements |i><j| to assemble
process matrices; no positivity is enforced on prepared operators.

:func:`simulate` returns the bare state over the surviving sites.  A
measurement names the unit ket of its outcome, the same readout form
:func:`noisy_mbqc.mpo.mpo_measure` takes, and projects onto it without
sampling, so the final trace is the probability of the chosen outcomes.

Every op costs O(4^m) on m live sites and touches only its sites' ket and
bra axes: a single-site unitary, channel or kept projection is one matmul
with the 4x4 superoperator sum_r K_r (x) conj(K_r); CZ negates two
quarter-slices in place; a removing measurement contracts <v| and |v> into
the site's axes.  No 2^m x 2^m operator is built.  Single-site maps hold two
state-sized arrays, the state and a spare they write into (268 MB each by
shape at m=12); a removing measurement frees the spare and holds the state
plus its half- and quarter-sized contractions.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import densemath as dm
from .block import EQUATORIAL, BlockNoiseConfig, MeasSpec
from .channels import KrausChannel
from .errors import (
    DimensionMismatch,
    SiteOutOfRange,
    SizeLimit,
    ZBasisUnsupported,
)

ENV_MAX_QUBITS = "NOISY_MBQC_MAX_QUBITS"
DEFAULT_MAX_QUBITS = 12


def max_oracle_qubits() -> int:
    """Dense-simulation cap, overridable via the environment."""
    raw = os.environ.get(ENV_MAX_QUBITS)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError:
        raise SizeLimit(f"{ENV_MAX_QUBITS} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class PrepPlus:
    site: int


@dataclass(frozen=True)
class PrepState:
    site: int
    rho: np.ndarray


@dataclass(frozen=True)
class CZ:
    a: int
    b: int


@dataclass(frozen=True)
class Channel1Q:
    site: int
    channel: KrausChannel


@dataclass(frozen=True)
class Unitary1Q:
    site: int
    u: np.ndarray


@dataclass(frozen=True)
class Measure:
    """Project ``site`` onto the unit outcome vector ``ket``.

    With ``remove`` the site is traced out afterwards, shrinking the register.
    """

    site: int
    ket: np.ndarray
    remove: bool = True


class _Register:
    """Live subset of the register as a dense operator.

    Each kernel views the state as one ket and one bra axis per live site and
    touches only the axes of the sites it acts on, O(4^m) for m live sites.
    """

    def __init__(self, n: int):
        self.n = n
        self.sites: list[int] = []  # kept in ascending site order
        self.state = np.array([[1.0 + 0j]])
        self.spare = np.empty((0, 0), dtype=complex)

    @property
    def m(self) -> int:
        return len(self.sites)

    def check_site(self, site: int):
        if not 0 <= site < self.n:
            raise SiteOutOfRange(f"site {site} outside register of size {self.n}")

    def pos(self, site: int) -> int:
        self.check_site(site)
        if site not in self.sites:
            raise SiteOutOfRange(f"site {site} has not been prepared")
        return self.sites.index(site)

    def prep(self, site: int, block: np.ndarray):
        self.check_site(site)
        if site in self.sites:
            raise SiteOutOfRange(f"site {site} prepared twice")
        block = np.asarray(block, dtype=complex)
        if block.shape != (2, 2):
            raise DimensionMismatch("prepared state must be a 2x2 operator")
        pos = bisect_left(self.sites, site)
        left, right = 2**pos, 2 ** (self.m - pos)
        grown = self.state.reshape(left, 1, right, left, 1, right) * block.reshape(
            1, 2, 1, 1, 2, 1
        )
        self.sites.insert(pos, site)
        self.state = grown.reshape(2**self.m, 2**self.m)

    def apply(self, ks: np.ndarray, pos: int):
        """rho -> sum_r K_r rho K_r^dag on the site at ``pos``, K_r = ks[r].

        The superoperator sum_r K_r (x) conj(K_r) acts on the site's (ket,
        bra) axis pair in one matmul, whatever the Kraus count.  The state
        and one spare array of its size trade places, so repeated maps on
        a register of one size allocate nothing.
        """
        sup = np.einsum("rij,rkl->ikjl", ks, ks.conj()).reshape(4, 4)
        if self.spare.shape != self.state.shape:
            self.spare = np.empty(self.state.shape, dtype=complex)
        left, right = 2**pos, 2 ** (self.m - pos - 1)
        site_axes = (left, 2, right, left, 2, right)
        pair_first = (2, 2, left, right, left, right)
        moved = self.spare.reshape(pair_first)
        np.copyto(moved, self.state.reshape(site_axes).transpose(1, 4, 0, 2, 3, 5))
        mixed = np.matmul(sup, moved.reshape(4, -1), out=self.state.reshape(4, -1))
        back = self.spare.reshape(site_axes)
        np.copyto(back, mixed.reshape(pair_first).transpose(2, 0, 3, 4, 1, 5))
        self.state, self.spare = back.reshape(self.state.shape), self.state

    def cz(self, pa: int, pb: int):
        """Negate in place the quarter-slice where both ket bits are 1, then
        the one where both bra bits are 1."""
        lo, hi = sorted((pa, pb))
        dim = 2**self.m
        a, mid, b = 2**lo, 2 ** (hi - lo - 1), 2 ** (self.m - hi - 1)
        rows = self.state.reshape(a, 2, mid, 2, b * dim)
        rows[:, 1, :, 1] *= -1
        cols = rows.reshape(dim * a, 2, mid, 2, b)
        cols[:, 1, :, 1] *= -1
        self.state = cols.reshape(dim, dim)

    def project_out(self, ket: np.ndarray, pos: int):
        """<v| rho |v> on the site at ``pos``, which leaves the register."""
        self.spare = np.empty((0, 0), dtype=complex)  # free it: the register shrinks
        left, right = 2**pos, 2 ** (self.m - pos - 1)
        half = np.matmul(ket.conj(), self.state.reshape(left, 2, -1))
        reduced = np.matmul(ket, half.reshape(-1, 2, right))
        del self.sites[pos]
        self.state = reduced.reshape(2**self.m, 2**self.m)


def simulate(n: int, ops) -> np.ndarray:
    """Run the operation list over an ``n``-site register.

    Returns the state over the surviving sites in ascending site order.
    Measurements project onto their ket (no sampling); the final trace is the
    probability of the chosen outcome string.
    """
    cap = max_oracle_qubits()
    if not 1 <= n <= cap:
        raise SizeLimit(f"register size {n} outside [1, {cap}]")
    reg = _Register(n)

    for op in ops:
        if isinstance(op, PrepPlus):
            reg.prep(op.site, dm.projector(dm.PLUS))
        elif isinstance(op, PrepState):
            reg.prep(op.site, op.rho)
        elif isinstance(op, CZ):
            pa, pb = reg.pos(op.a), reg.pos(op.b)
            if pa == pb:
                raise SiteOutOfRange("CZ needs two distinct sites")
            reg.cz(pa, pb)
        elif isinstance(op, Unitary1Q):
            u = np.asarray(op.u, dtype=complex)
            if u.shape != (2, 2):
                raise DimensionMismatch("single-site unitary must be 2x2")
            reg.apply(u[None], reg.pos(op.site))
        elif isinstance(op, Channel1Q):
            reg.apply(op.channel.ops, reg.pos(op.site))
        elif isinstance(op, Measure):
            ket = dm.unit_ket(op.ket)
            pos = reg.pos(op.site)
            if op.remove:
                reg.project_out(ket, pos)
            else:
                reg.apply(dm.projector(ket)[None], pos)
        else:
            raise TypeError(f"unknown circuit op {op!r}")
    return reg.state


def cluster_ops(n: int) -> list:
    """Op list preparing the n-site linear cluster state."""
    ops: list = [PrepPlus(i) for i in range(n)]
    ops.extend(CZ(i, i + 1) for i in range(n - 1))
    return ops


def teleport_oracle_state(
    eps: KrausChannel, rho: np.ndarray, s: int, t: int
) -> np.ndarray:
    """Gate-level teleportation: noisy resource on qubits (1, 2), Bell readout
    on (0, 1) via CNOT and H, Z measurements reading (t, s)."""
    ops = [
        PrepState(0, rho),
        PrepPlus(1),
        PrepState(2, dm.projector(dm.KET0)),
        Unitary1Q(2, dm.H),
        CZ(1, 2),
        Unitary1Q(2, dm.H),
        Channel1Q(2, eps),
        Unitary1Q(1, dm.H),
        CZ(0, 1),
        Unitary1Q(1, dm.H),
        Unitary1Q(0, dm.H),
        Measure(0, MeasSpec.z(t).ket),
        Measure(1, MeasSpec.z(s).ket),
    ]
    return simulate(3, ops)


def block_step_ops(cfg: BlockNoiseConfig, site: int) -> list:
    """One noisy step on sites (site, site+1): prep the fresh plus qubit, noise
    before CZ (alpha1, alpha2), CZ, noise after it (alpha3, alpha4), then the
    removing readout of ``site``."""
    a, b = site, site + 1
    ops: list = [PrepPlus(b)]
    if cfg.alpha1 is not None:
        ops.append(Channel1Q(a, cfg.alpha1))
    if cfg.alpha2 is not None:
        ops.append(Channel1Q(b, cfg.alpha2))
    ops.append(CZ(a, b))
    if cfg.alpha3 is not None:
        ops.append(Channel1Q(a, cfg.alpha3))
    if cfg.alpha4 is not None:
        ops.append(Channel1Q(b, cfg.alpha4))
    ops.append(Measure(a, cfg.meas.ket))
    return ops


def block_oracle_channel(cfg: BlockNoiseConfig) -> np.ndarray:
    """Choi matrix of one noisy measurement step, assembled by simulation.

    Feeds each basis element |i><j| through the two-qubit circuit of
    :func:`block_step_ops` and stacks the outputs; linearity makes this the
    exact process matrix.
    """
    if cfg.meas.basis != EQUATORIAL:
        raise ZBasisUnsupported(
            "noise composition is defined for equatorial measurements only"
        )
    step = block_step_ops(cfg, 0)
    chois = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            out = simulate(2, [PrepState(0, e), *step])
            chois += np.kron(e, out)
    return chois
