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

One call runs a batch of branches of one circuit, a state of shape (B, D, D).
A prep holds a 2x2 operator or a (P, 2, 2) stack, which multiplies B by P; a
readout holds a unit 2-vector or a (K, 2) stack of them, which forks each
branch into K.  The result has one leading axis per stack, whatever its
length, in op order, then (D, D).  Every branch sees the same arithmetic as
a circuit of its own, bit for bit.

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
from collections import deque
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
    """Prepare ``site`` in ``rho``, a 2x2 operator or a (P, 2, 2) stack of them."""

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
    trace the site out, shrinking the register; a (K, 2) stack of unit kets,
    one per outcome, forks each branch into K."""

    site: int
    ket: np.ndarray
    remove: ClassVar[bool] = True  # every readout removes its site; perfbench reads it


class _Register:
    """Live subset of the register as a stack of dense operators, (B, D, D).

    A prep waits in ``pending`` until an op touches its site (``positions``).
    Each kernel views a branch as one ket and one bra axis per live site and
    touches only the axes of the sites it acts on, O(B * 4^m) for m live sites.
    """

    def __init__(self, n: int):
        self.n, self.cap = n, dm.max_qubits()
        self.sites: list[int] = []  # joined sites, kept in ascending site order
        # preps no op has touched yet, in op order: (site, (P, 2, 2) blocks, axis)
        self.pending: deque[tuple[int, np.ndarray, int | None]] = deque()
        self.waiting: set[int] = set()  # the sites of ``pending``
        self.axes: list[int] = []  # the op-order stack number of each branch axis
        self.state = np.ones((1, 1, 1), dtype=complex)
        self.spare = np.empty((0, 0, 0), dtype=complex)

    @property
    def m(self) -> int:
        return len(self.sites)

    def check_site(self, site: int):
        if not 0 <= site < self.n:
            raise SiteOutOfRange(f"site {site} outside register of size {self.n}")

    def positions(self, *sites: int) -> list[int]:
        """The positions of ``sites`` in the state, once every pending prep up
        to and including theirs has joined."""
        for site in sites:
            self.check_site(site)
            if site in self.waiting:
                self.join(site)
            if site not in self.sites:
                raise SiteOutOfRange(f"site {site} has not been prepared")
        return [self.sites.index(site) for site in sites]

    def hold(self, site: int, blocks: np.ndarray, axis: int | None):
        """Record the prep of ``site`` in the (P, 2, 2) ``blocks`` as pending;
        ``axis`` numbers a stack among the circuit's stacks, None a lone prep."""
        self.check_site(site)
        if site in self.sites or site in self.waiting:
            raise SiteOutOfRange(f"site {site} prepared twice")
        self.pending.append((site, blocks, axis))
        self.waiting.add(site)

    def join(self, last: int | None = None):
        """Tensor in pending preps in op order, through site ``last``'s (or all)."""
        while self.pending:
            site, blocks, axis = self.pending.popleft()
            self.waiting.remove(site)
            self.prep(site, blocks)
            if axis is not None:
                self.axes.append(axis)
            if site == last:
                return

    def prep(self, site: int, blocks: np.ndarray):
        """Tensor in one of the (P, 2, 2) ``blocks`` per branch, B -> B * P, if m < cap."""
        if self.m >= self.cap:
            held = f"{self.m + 1} qubits densely, over the cap of {self.cap}"
            raise SizeLimit(f"joining site {site} would hold {held} (NOISY_MBQC_MAX_QUBITS)")
        pos = bisect_left(self.sites, site)
        left, right = 2**pos, 2 ** (self.m - pos)
        b, p = len(self.state), len(blocks)
        grown = self.state.reshape(b, 1, left, 1, right, left, 1, right) * blocks.reshape(
            1, p, 1, 2, 1, 1, 2, 1
        )
        self.sites.insert(pos, site)
        self.state = grown.reshape(b * p, 2**self.m, 2**self.m)

    def apply(self, ks: np.ndarray, pos: int):
        """rho -> sum_r K_r rho K_r^dag on the site at ``pos``, K_r = ks[r].

        The superoperator sum_r K_r (x) conj(K_r) acts on each branch's (ket,
        bra) axis pair in one matmul, whatever the Kraus count.  The state
        and one spare array of its size trade places, so repeated maps on
        a register of one size allocate nothing.
        """
        sup = np.einsum("rij,rkl->ikjl", ks, ks.conj()).reshape(4, 4)
        if self.spare.shape != self.state.shape:
            self.spare = np.empty(self.state.shape, dtype=complex)
        b = len(self.state)
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
        self.state = cols.reshape(-1, dim, dim)

    def project_out(self, kets: np.ndarray, pos: int):
        """<v| rho |v> on the site at ``pos``, which leaves the register, for
        each of the (K, 2) ``kets``: each branch forks into K, B -> B * K."""
        self.spare = np.empty((0, 0, 0), dtype=complex)  # free it: the register shrinks
        b, k = len(self.state), len(kets)
        left, right = 2**pos, 2 ** (self.m - pos - 1)
        rows = self.state.reshape(b * left, 2, -1)
        del self.sites[pos]
        dim = 2**self.m
        forked = np.empty((b, k, dim * left, right), dtype=complex)
        for i, ket in enumerate(kets):
            half = np.matmul(ket.conj(), rows)
            np.matmul(ket, half.reshape(b, -1, 2, right), out=forked[:, i])
        self.state = forked.reshape(b * k, dim, dim)


_PLUS = dm.projector(dm.PLUS)[None]
_PLUS.setflags(write=False)


def _one_stack(items, shape: tuple, what: str) -> np.ndarray:
    """``items`` by :func:`densemath.item_or_stack`, held to one stack axis at
    most, since a prep or readout stack forks the branches along one result
    axis; :func:`densemath.stacked` refuses a stack of stacks."""
    out = dm.item_or_stack(items, shape, what)
    return out if out.ndim <= len(shape) + 1 else dm.stacked(out, (None, *shape), what)


def _readout_kets(ket) -> np.ndarray:
    """A readout's unit ket, or its (K, 2) stack of unit kets, each row
    checked by :func:`densemath.unit_ket`."""
    what = "readout (a 2-vector, or a (K, 2) stack of at least one ket)"
    kets = _one_stack(ket, (2,), what)
    for i, row in enumerate(kets.reshape(-1, 2)):
        try:
            dm.unit_ket(row)
        except NotNormalized as exc:
            where = f"readout stack row {i}: " if kets.ndim == 2 else ""
            raise NotNormalized(f"{where}{exc}") from None
    return kets


def simulate(n: int, ops) -> np.ndarray:
    """Run the operation list over sites labelled 0..n-1, one branch per row
    of each prep and readout stack, and return the states over the surviving
    sites in ascending site order, shape (*stacks, D, D): one leading axis per
    stack, in op order.  Nothing is sampled; the final trace is the
    probability of the chosen outcome string.

    A prep joins the state when an op first touches its site, with every
    prep issued before it (see the module docstring), so each op costs
    O(B * 4^m) on the m sites joined and not yet read out, and a join past
    ``densemath.max_qubits()`` raises SizeLimit."""
    if n < 1:
        raise SizeLimit(f"register size {n} must be at least 1")
    reg = _Register(n)
    stacks: list[int] = []  # the length of each stack met so far, in op order

    for op in ops:
        if isinstance(op, PrepPlus):
            reg.hold(op.site, _PLUS, None)
        elif isinstance(op, PrepState):
            what = "prepared state (2x2, or a (P, 2, 2) stack)"
            blocks = _one_stack(op.rho, (2, 2), what)
            axis = len(stacks) if blocks.ndim == 3 else None
            reg.hold(op.site, blocks.reshape(-1, 2, 2), axis)
            stacks += blocks.shape[:-2]
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
            kets = _readout_kets(op.ket)
            reg.project_out(kets.reshape(-1, 2), *reg.positions(op.site))
            if kets.ndim == 2:
                reg.axes.append(len(stacks))
            stacks += kets.shape[:-1]
        else:
            raise TypeError(f"unknown circuit op {op!r}")
    reg.join()
    dim = 2**reg.m
    # a stacked prep may join after a later readout forked: axes back to op order
    joined = reg.state.reshape(*(stacks[a] for a in reg.axes), dim, dim)
    return joined.transpose(*np.argsort(reg.axes), -2, -1)


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

    Feeds the four basis elements |i><j|, as one prep stack, through the
    two-qubit circuit of :func:`block_step_ops` and places output (i, j) in
    block (i, j); linearity makes this the exact process matrix.
    """
    if cfg.meas.basis != EQUATORIAL:
        raise ZBasisUnsupported(
            "noise composition is defined for equatorial measurements only"
        )
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)  # |i><j| in (i, j) order
    outs = simulate(2, [PrepState(0, basis), *block_step_ops(cfg)])
    # added to zeros rather than copied, so a -0.0 entry becomes 0.0
    chois = np.zeros((2, 2, 2, 2), dtype=complex)
    chois += outs.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    return chois.reshape(4, 4)
