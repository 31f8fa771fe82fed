"""Brute-force density-matrix circuit simulator used as ground truth.

The dense state holds at most ``densemath.max_qubits()`` qubits (default 12);
site labels may run past it.  A prep op only records its site's operator.  The
site joins the dense state when an op first touches it, together with every
prep issued before its own, in op order; preps no op touched join at the end.
A site leaves the state on its readout, which traces it out as a readout
collapses a site out of an MPO, so a circuit that prepares every site first and
then reads them out one by one, like a long chain, runs on a small live state.
Everything is linear in the state, so callers may feed basis elements |i><j| to
assemble process matrices; no positivity is enforced on prepared operators.

:func:`simulate` returns the bare state over the surviving sites.  A
measurement names the unit ket of its outcome, the same readout form
:func:`noisy_mbqc.mpo.mpo_measure` takes, and projects onto it without
sampling, so the final trace is the probability of the chosen outcomes.

One call runs a batch of B branches of one circuit.  A prep holds a 2x2
operator and a readout a unit 2-vector, each alone or in a stack along one or
more leading axes (:func:`densemath.item_or_stack`).  Each prep and readout
adds its leading axes to the result, in op order; a lone one adds none.  The
state holds the result's leading axes from the op that adds them, (*leading
axes, D, D), a pending prep's at length 1 until its site joins.  Every branch
sees the same arithmetic as a circuit of its own, bit for bit.

Every op costs O(B * 4^m) on the m sites joined so far and not yet read
out, and touches only its sites' ket and bra axes: a single-site unitary or
channel is one matmul per branch with the 4x4 superoperator
sum_r K_r (x) conj(K_r); CZ negates two quarter-slices in place; a readout
contracts <v| and |v> into the site's axes, once per ket.  No 2^m x 2^m
operator is built.  Single-site maps hold two state-sized arrays, the state
and a spare they write into (268 MB each at m=12 and B=1; the ``mpo`` runner's
circuit holds at most its open sites and two more); a readout frees the spare
and holds the state, its half-sized contraction and the K quarter-sized
branches it forks into.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import densemath as dm
from .block import EQUATORIAL, BlockNoiseConfig, MeasSpec
from .channels import KrausChannel
from .errors import (
    NotNormalized,
    SiteOutOfRange,
    SizeLimit,
    ZBasisUnsupported,
)


@dataclass(frozen=True)
class PrepPlus:
    site: int


@dataclass(frozen=True)
class PrepState:
    """Prepare ``site`` in ``rho``, a 2x2 operator or a stack of them."""

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
    """Project ``site`` onto the unit outcome vector ``ket``, a 2-vector, and
    trace the site out, shrinking the register; a stack of unit kets, one per
    outcome, forks each branch into one per ket."""

    site: int
    ket: np.ndarray
    remove: ClassVar[bool] = True  # every readout removes its site; perfbench reads it


class _Register:
    """Live subset of the register as dense operators, (*leading axes, D, D).

    The state holds the result's leading axes from the op that adds them, in
    op order.  A prep waits in ``pending`` until an op touches its site
    (``positions``).  Each kernel views a branch as one ket and one bra axis
    per live site and touches only the axes of the sites it acts on, O(B * 4^m)
    for B branches and m live sites.
    """

    def __init__(self, n: int):
        self.n, self.cap = n, dm.max_qubits()
        self.sites: list[int] = []  # joined sites, kept in ascending site order
        self.pending: dict[int, np.ndarray] = {}  # site -> blocks, in op order
        self.state = np.ones((1, 1), dtype=complex)
        self.spare = np.empty(0, dtype=complex)

    @property
    def m(self) -> int:
        return len(self.sites)

    def check_site(self, site: int):
        dm._checked_int(site, SiteOutOfRange, "a site label must be an integer")
        if not 0 <= site < self.n:
            raise SiteOutOfRange(f"site {site} outside register of size {self.n}")

    def positions(self, *sites: int) -> list[int]:
        """The positions of ``sites`` in the state, once every pending prep up
        to and including theirs has joined."""
        for site in sites:
            self.check_site(site)
            if site in self.pending:
                self.join(site)
            if site not in self.sites:
                raise SiteOutOfRange(f"site {site} has not been prepared")
        return [self.sites.index(site) for site in sites]

    def hold(self, site: int, blocks: np.ndarray):
        """Record the prep of ``site`` in ``blocks``, a 2x2 operator or a stack,
        as pending, and give the state the stack's leading axes at length 1;
        the blocks keep a length-1 axis for each leading axis before them."""
        self.check_site(site)
        if site in self.sites or site in self.pending:
            raise SiteOutOfRange(f"site {site} prepared twice")
        lead, dims = self.state.shape[:-2], self.state.shape[-2:]
        self.pending[site] = blocks.reshape((1,) * len(lead) + blocks.shape)
        self.state = self.state.reshape(lead + (1,) * (blocks.ndim - 2) + dims)

    def join(self, last: int | None = None):
        """Tensor in pending preps in op order, through site ``last``'s (or all)."""
        for site in list(self.pending):
            self.prep(site, self.pending.pop(site))
            if site == last:
                return

    def prep(self, site: int, blocks: np.ndarray):
        """Tensor in the held ``blocks`` if m < cap, padded with a trailing
        length-1 axis per leading axis added since: the prep's own length-1
        axes in the state broadcast to the stack's lengths."""
        if self.m >= self.cap:
            held = f"{self.m + 1} qubits densely, over the cap of {self.cap}"
            raise SizeLimit(f"joining site {site} would hold {held} (NOISY_MBQC_MAX_QUBITS)")
        pos = bisect_left(self.sites, site)
        left, right = 2**pos, 2 ** (self.m - pos)
        lead, since = self.state.shape[:-2], (1,) * (self.state.ndim - blocks.ndim)
        grown = self.state.reshape(*lead, left, 1, right, left, 1, right) * blocks.reshape(
            *blocks.shape[:-2], *since, 1, 2, 1, 1, 2, 1
        )
        self.sites.insert(pos, site)
        self.state = grown.reshape(*grown.shape[:-6], 2**self.m, 2**self.m)

    def apply(self, ks: np.ndarray, pos: int):
        """rho -> sum_r K_r rho K_r^dag on the site at ``pos``, K_r = ks[r].

        The superoperator sum_r K_r (x) conj(K_r) acts on each branch's (ket,
        bra) axis pair in one matmul, whatever the Kraus count.  The state
        and one spare array of its size trade places, so repeated maps on
        a register of one size allocate nothing.
        """
        sup = np.einsum("rij,rkl->ikjl", ks, ks.conj()).reshape(4, 4)
        if self.spare.size != self.state.size:
            self.spare = np.empty(self.state.size, dtype=complex)
        b = self.state.size >> 2 * self.m
        left, right = 2**pos, 2 ** (self.m - pos - 1)
        site_axes = (b, left, 2, right, left, 2, right)
        pair_first = (b, 2, 2, left, right, left, right)
        moved = self.spare.reshape(pair_first)
        np.copyto(moved, self.state.reshape(site_axes).transpose(0, 2, 5, 1, 3, 4, 6))
        mixed = np.matmul(sup, moved.reshape(b, 4, -1), out=self.state.reshape(b, 4, -1))
        back = self.spare.reshape(site_axes)
        np.copyto(back, mixed.reshape(pair_first).transpose(0, 3, 1, 4, 5, 2, 6))
        self.state, self.spare = back.reshape(self.state.shape), self.state

    def cz(self, pa: int, pb: int):
        """Negate in place, in every branch, the quarter-slice where both ket
        bits are 1, then the one where both bra bits are 1."""
        lo, hi = sorted((pa, pb))
        dim = 2**self.m
        a, mid, b = 2**lo, 2 ** (hi - lo - 1), 2 ** (self.m - hi - 1)
        rows = self.state.reshape(-1, 2, mid, 2, b * dim)
        rows[:, 1, :, 1] *= -1
        cols = rows.reshape(-1, 2, mid, 2, b)
        cols[:, 1, :, 1] *= -1
        self.state = cols.reshape(self.state.shape)

    def project_out(self, kets: np.ndarray, pos: int):
        """<v| rho |v> on the site at ``pos``, which leaves the register, for
        each of the ``kets``, a 2-vector or a stack: each branch forks into one
        per ket, and the state gains the stack's leading axes."""
        self.spare = np.empty(0, dtype=complex)  # free it: the register shrinks
        b, flat = self.state.size >> 2 * self.m, kets.reshape(-1, 2)
        left, right = 2**pos, 2 ** (self.m - pos - 1)
        rows = self.state.reshape(b * left, 2, -1)
        del self.sites[pos]
        dim = 2**self.m
        forked = np.empty((b, len(flat), dim * left, right), dtype=complex)
        for i, ket in enumerate(flat):
            half = np.matmul(ket.conj(), rows)
            np.matmul(ket, half.reshape(b, -1, 2, right), out=forked[:, i])
        self.state = forked.reshape(*self.state.shape[:-2], *kets.shape[:-1], dim, dim)


_PLUS = dm.projector(dm.PLUS)
_PLUS.setflags(write=False)


def _readout_kets(ket) -> np.ndarray:
    """A readout's unit ket, or its stack of unit kets, each row checked by
    :func:`densemath.unit_ket`."""
    what = "readout (a 2-vector, or a (K, 2) stack of at least one ket)"
    kets = dm.item_or_stack(ket, (2,), what)
    for i, row in enumerate(kets.reshape(-1, 2)):
        try:
            dm.unit_ket(row)
        except NotNormalized as exc:
            at = ", ".join(map(str, np.unravel_index(i, kets.shape[:-1])))
            where = f"readout stack row {at}: " if at else ""
            raise NotNormalized(f"{where}{exc}") from None
    return kets


def simulate(n: int, ops) -> np.ndarray:
    """Run the operation list over sites labelled 0..n-1, one branch per item
    of each prep and readout stack, and return the states over the surviving
    sites in ascending site order, shape (*leading axes, D, D): each prep and
    readout adds its leading axes, in op order; a lone one adds none.  Nothing
    is sampled; the final trace is the probability of the chosen outcome string.

    A prep joins the state when an op first touches its site, with every
    prep issued before it (see the module docstring), so each op costs
    O(B * 4^m) on the m sites joined and not yet read out, and a join past
    ``densemath.max_qubits()`` raises SizeLimit."""
    if dm._checked_int(n, SizeLimit, "the register size must be an integer") < 1:
        raise SizeLimit(f"register size {n} must be at least 1")
    reg = _Register(n)

    for op in ops:
        if isinstance(op, PrepPlus):
            reg.hold(op.site, _PLUS)
        elif isinstance(op, PrepState):
            what = "prepared state (2x2, or a (P, 2, 2) stack)"
            reg.hold(op.site, dm.item_or_stack(op.rho, (2, 2), what))
        elif isinstance(op, CZ):
            pa, pb = reg.positions(op.a, op.b)
            if pa == pb:
                raise SiteOutOfRange("CZ needs two distinct sites")
            reg.cz(pa, pb)
        elif isinstance(op, Unitary1Q):
            u = dm.stacked(op.u, (2, 2), "single-site unitary")
            reg.apply(u[None], *reg.positions(op.site))
        elif isinstance(op, Channel1Q):
            reg.apply(op.channel.ops, *reg.positions(op.site))
        elif isinstance(op, Measure):
            reg.project_out(_readout_kets(op.ket), *reg.positions(op.site))
        else:
            raise TypeError(f"unknown circuit op {op!r}")
    reg.join()
    return reg.state


def cluster_ops(n: int) -> list:
    """Op list preparing the n-site linear cluster state."""
    ops: list = [PrepPlus(i) for i in range(n)]
    ops.extend(CZ(i, i + 1) for i in range(n - 1))
    return ops


def teleport_oracle_state(eps: KrausChannel, rhos) -> np.ndarray:
    """Gate-level teleportation of each input in ``rhos``, a (N, 2, 2) stack:
    noisy resource on qubits (1, 2), Bell readout on (0, 1) via CNOT and H, Z
    measurements reading (t, s), both forking.  Returns the outputs as
    [input, s, t], shape (N, 2, 2, 2, 2)."""
    z = np.stack([MeasSpec.z(0).ket, MeasSpec.z(1).ket])
    ops = [
        PrepState(0, rhos),
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
        Measure(0, z),
        Measure(1, z),
    ]
    return simulate(3, ops).swapaxes(-4, -3)


def block_step_ops(cfg: BlockNoiseConfig) -> list:
    """One noisy step on sites (0, 1), whose input the caller prepares on site 0:
    prep a plus qubit on site 1, noise before CZ (alpha1, alpha2), CZ, noise after
    it (alpha3, alpha4), then the removing readout of site 0, leaving site 1."""
    a, b = 0, 1
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

    Feeds the four basis elements |i><j|, as one (2, 2) prep stack, through the
    two-qubit circuit of :func:`block_step_ops` and places output (i, j) in
    block (i, j); linearity makes this the exact process matrix.
    """
    if cfg.meas.basis != EQUATORIAL:
        raise ZBasisUnsupported(
            "noise composition is defined for equatorial measurements only"
        )
    basis = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)  # [i, j] holds |i><j|
    outs = simulate(2, [PrepState(0, basis), *block_step_ops(cfg)])
    # added to zeros rather than copied, so a -0.0 entry becomes 0.0
    chois = np.zeros((2, 2, 2, 2), dtype=complex)
    chois += outs.transpose(0, 2, 1, 3)
    return chois.reshape(4, 4)
