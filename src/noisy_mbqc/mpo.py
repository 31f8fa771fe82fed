"""Matrix product operators contracted by one left-to-right sweep.

An ``MpoState`` stores, per site, a family of bond-space objects indexed by
the physical value i and a Kraus-like index s.  Interior sites hold matrices
A[i, s]; the final site is the boundary and holds vectors v[i, s].  The
contraction starts from the correlation-space seed and carries a tensor
T[r, c] of bond operators over the open sites seen so far.  An interior site
is absorbed as T'[(r,i),(c,j)] = sum_s A[i, s] T[r, c] A[j, s]^dag; a
measured site has one physical slot, so T keeps its size.  The boundary
closes the sweep with out[(r,i),(c,j)] = sum_s v[i, s]^dag T[r, c] v[j, s],
which is the dense operator with the first site as most significant bit.
A measured interior site's logical step is the channel with Kraus operators
A[0, s]; stopping the sweep before the boundary composes those steps.

Physical single-site events update the stored families in place of the
dense state:

* measurement collapses the physical index, A[v, s] = sum_i <v|i> A[i, s];
* an operator K on the physical qubit (a Pauli, a unitary, or each Kraus
  operator of a channel) acts in correlation space as
  A -> A diag(K) + Z A offdiag(K), with offdiag(K) = K - diag(K); for the
  Pauli sigma_ab = i^(ab) X^a Z^b this is A -> Z^a A sigma_ab;
* a channel extends the s family with one branch per Kraus operator.

The correlation-space rule (Gross and Eisert, quant-ph/0609149) tracks the
dense state exactly for tensor families with the cluster symmetry
(A[i^1, s] = Z A[i, s] X and A[i, s] Z = (-1)^i A[i, s]), which covers the
builders here and any single update per site; stacking several non-Pauli
updates on one site leaves that family and is on the caller.  Bond
dimension is 2 for every builder; the contraction does not assume it, the
event rule (Z on the bond) does, and an event on a site of any other bond
dimension raises ``DimensionMismatch`` naming the site.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import densemath as dm
from .channels import KrausChannel, basis_element, check_unitary
from .errors import (
    AlreadyMeasured,
    DimensionMismatch,
    NotNormalized,
    SizeLimit,
    UnmeasuredSites,
)

CONTRACTION_MAX_QUBITS = 12


@dataclass(frozen=True)
class SiteTensor:
    """One site's family of bond-space objects.

    ``ops[i][s]`` is a matrix (interior site) or vector (boundary site) for
    physical value i.  A measured site keeps a single collapsed physical slot
    ``ops[0]`` together with the recorded outcome.
    """

    ops: tuple[tuple[np.ndarray, ...], ...]
    boundary: bool = False
    measured: bool = False
    outcome: object = None

    @property
    def s_count(self) -> int:
        return len(self.ops[0])

    @property
    def bond_dim(self) -> int:
        first = self.ops[0][0]
        return first.shape[-1] if self.boundary else first.shape[0]


@dataclass(frozen=True)
class MpoState:
    """Ordered site tensors plus the correlation-space seed operator."""

    sites: tuple[SiteTensor, ...]
    seed: np.ndarray

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def unmeasured_count(self) -> int:
        return sum(1 for s in self.sites if not s.measured)


def _tensors(mats) -> tuple[tuple[np.ndarray, ...], ...]:
    return tuple(tuple(np.asarray(m, dtype=complex) for m in fam) for fam in mats)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def mpo_cluster(n: int) -> MpoState:
    """Linear cluster state: interior A[k] = H|k><k| on a |+><+| seed,
    boundary vectors |i>."""
    if n < 2:
        raise ValueError("cluster representation needs at least 2 sites")
    a = [dm.H @ dm.projector(dm.KET0), dm.H @ dm.projector(dm.KET1)]
    interior = SiteTensor(ops=_tensors([[a[0]], [a[1]]]))
    bound = SiteTensor(ops=_tensors([[dm.KET0], [dm.KET1]]), boundary=True)
    return MpoState(
        sites=tuple([interior] * (n - 1) + [bound]), seed=dm.projector(dm.PLUS)
    )


def mpo_maximally_mixed(n: int) -> MpoState:
    """Maximally mixed state on n qubits, I / 2^n."""
    if n < 1:
        raise ValueError("need at least one site")
    a = [dm.KET0[:, None] @ dm.KET0[None, :], dm.KET0[:, None] @ dm.KET1[None, :]]
    # each site carries the scrambling pair {A[i], A[i] X} / sqrt(2)
    r = 1.0 / np.sqrt(2.0)
    interior = SiteTensor(
        ops=_tensors([[r * a[0], r * a[0] @ dm.X], [r * a[1], r * a[1] @ dm.X]])
    )
    bound = SiteTensor(
        ops=_tensors(
            [
                [r * dm.KET0, r * (dm.X @ dm.KET0)],
                [r * dm.KET1, r * (dm.X @ dm.KET1)],
            ]
        ),
        boundary=True,
    )
    return MpoState(
        sites=tuple([interior] * (n - 1) + [bound]), seed=dm.projector(dm.KET0)
    )


def mpo_one_clean(n: int) -> MpoState:
    """One clean qubit in front of n maximally mixed ones, |0><0| (x) I/2^n.

    Translational invariance fails here: the first site keeps the noiseless
    single-branch family, later sites carry the scrambling pair.
    """
    if n < 1:
        raise ValueError("need at least one mixed site")
    mixed = mpo_maximally_mixed(n)
    a = [dm.KET0[:, None] @ dm.KET0[None, :], dm.KET0[:, None] @ dm.KET1[None, :]]
    clean = SiteTensor(ops=_tensors([[a[0]], [a[1]]]))
    return MpoState(sites=(clean,) + mixed.sites, seed=dm.projector(dm.KET0))


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


def _absorb(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """T'[(r,i),(c,j)] = sum_s A[i,s] T[r,c] A[j,s]^dag for a stacked family
    A of shape (P, S, D', D)."""
    left = np.tensordot(a, t, axes=([3], [2]))  # (i, s, a, r, c, d)
    out = np.tensordot(left, a.conj(), axes=([1, 5], [1, 3]))  # (i, a, r, c, j, e)
    r, c, p, d = t.shape[0], t.shape[1], a.shape[0], a.shape[2]
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(r * p, c * p, d, d)


def _sweep(state: MpoState) -> np.ndarray:
    """Seed carried through every interior site, shape (2^k, 2^k, D, D) over
    the k open ones; the first site is the most significant bit."""
    t = np.asarray(state.seed, dtype=complex)[None, None]
    for site in state.sites[:-1]:
        t = _absorb(t, np.asarray(site.ops))
    return t


def mpo_contract(state: MpoState) -> np.ndarray:
    """Dense operator over the unmeasured sites, first site most significant.

    Sweeps left to right from the seed and closes with the boundary, whose
    vectors enter as the 1 x D rows v[i, s]^dag.
    """
    open_count = state.unmeasured_count()
    if open_count > CONTRACTION_MAX_QUBITS:
        raise SizeLimit(
            f"contraction over {open_count} open sites exceeds 2^{CONTRACTION_MAX_QUBITS}"
        )
    rows = np.asarray(state.sites[-1].ops).conj()[:, :, None, :]
    return _absorb(_sweep(state), rows)[:, :, 0, 0]


# ---------------------------------------------------------------------------
# Physical events
# ---------------------------------------------------------------------------


def _site(state: MpoState, index: int) -> SiteTensor:
    if not 0 <= index < state.n_sites:
        raise IndexError(f"site {index} outside MPO of length {state.n_sites}")
    return state.sites[index]


def _unmeasured_interior(state: MpoState, index: int) -> SiteTensor:
    site = _site(state, index)
    if site.measured:
        raise AlreadyMeasured(f"site {index} was already measured")
    if site.boundary:
        raise ValueError(
            "boundary sites hold vectors; the correlation-space updates need matrices"
        )
    return site


def _with_site(state: MpoState, index: int, site: SiteTensor) -> MpoState:
    sites = list(state.sites)
    sites[index] = site
    return replace(state, sites=tuple(sites))


def mpo_measure(
    state: MpoState, index: int, basis_vec: np.ndarray, outcome
) -> MpoState:
    """Collapse a site onto the unit vector of an observed outcome.

    Interior matrices combine with conjugated amplitudes <v|i>; boundary
    vectors combine with plain amplitudes because the boundary functional
    already daggers its bra-side vector.
    """
    site = _site(state, index)
    if site.measured:
        raise AlreadyMeasured(f"site {index} was already measured")
    v = np.asarray(basis_vec, dtype=complex).reshape(-1)
    if v.shape != (2,):
        raise DimensionMismatch("basis vector must live on one qubit")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise NotNormalized("measurement vector must have unit norm")
    weights = v if site.boundary else v.conj()
    collapsed = tuple(
        weights[0] * a0 + weights[1] * a1 for a0, a1 in zip(site.ops[0], site.ops[1])
    )
    new_site = SiteTensor(
        ops=(collapsed,), boundary=site.boundary, measured=True, outcome=outcome
    )
    return _with_site(state, index, new_site)


def _apply_ops(state: MpoState, index: int, ops) -> MpoState:
    """Each family member A becomes A diag(K) + Z A offdiag(K), one per K.

    The Z acts on the bond, so every member must be a 2x2 bond matrix.
    """
    site = _unmeasured_interior(state, index)
    bad = next((a.shape for fam in site.ops for a in fam if a.shape != (2, 2)), None)
    if bad is not None:
        raise DimensionMismatch(
            f"site {index} has bond dimension {site.bond_dim} (matrix shape {bad}); "
            "events need bond dimension 2"
        )
    parts = [(np.diag(np.diag(k)), k - np.diag(np.diag(k))) for k in ops]
    new_ops = tuple(
        tuple(a @ d + dm.Z @ a @ off for a in fam for d, off in parts)
        for fam in site.ops
    )
    return _with_site(state, index, replace(site, ops=new_ops))


def mpo_apply_pauli(state: MpoState, index: int, pauli: tuple[int, int]) -> MpoState:
    """Pauli sigma_ab on the physical qubit: A -> Z^a A sigma_ab."""
    a, b = pauli
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("Pauli label must be a pair of bits")
    return _apply_ops(state, index, [basis_element(a, b)])


def mpo_apply_unitary(state: MpoState, index: int, u: np.ndarray) -> MpoState:
    """Unitary on the physical qubit."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DimensionMismatch("site unitary must be 2x2")
    return _apply_ops(state, index, [check_unitary(u)])


def mpo_apply_channel(state: MpoState, index: int, eta: KrausChannel) -> MpoState:
    """Channel on the physical qubit; the site's s family gains one branch
    per Kraus operator."""
    if eta.dim != 2:
        raise DimensionMismatch("site channels must be single-qubit")
    return _apply_ops(state, index, eta.ops)


def mpo_logical_output(state: MpoState) -> np.ndarray:
    """The sweep stopped before the boundary, with every interior site measured.

    The result is the correlation-space operator carried to the boundary;
    its trace is the probability of the recorded outcome string.
    """
    pending = [
        i
        for i, s in enumerate(state.sites)
        if not s.boundary and not s.measured
    ]
    if pending:
        raise UnmeasuredSites(f"sites {pending} are still open")
    return _sweep(state)[0, 0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def mpo_to_dict(state: MpoState) -> dict:
    """JSON-ready description: per-site dims, s count and matrices."""
    sites = []
    for site in state.sites:
        mats = [
            [dm.mat_to_json(np.atleast_2d(m)) for m in fam] for fam in site.ops
        ]
        sites.append(
            {
                "physical_dim": len(site.ops),
                "bond_dim": site.bond_dim,
                "s_count": site.s_count,
                "boundary": site.boundary,
                "measured": site.measured,
                "outcome": site.outcome,
                "matrices": mats,
            }
        )
    return {"seed": dm.mat_to_json(state.seed), "sites": sites}


def mpo_from_dict(doc: dict) -> MpoState:
    """Inverse of :func:`mpo_to_dict`; a malformed document raises
    DimensionMismatch."""
    seed = dm.mat_from_json(doc["seed"])
    if seed.ndim != 2 or seed.shape[0] != seed.shape[1]:
        raise DimensionMismatch(f"seed must be a square matrix, got {seed.shape}")
    entries = doc["sites"]
    if [bool(e["boundary"]) for e in entries] != [False] * (len(entries) - 1) + [True]:
        raise DimensionMismatch("the last site, and only the last site, is the boundary")
    sites = []
    for idx, entry in enumerate(entries):
        boundary, measured = bool(entry["boundary"]), bool(entry["measured"])
        shape = seed.shape[:1] if boundary else seed.shape
        fams = tuple(
            tuple(dm.mat_from_json(rows) for rows in fam) for fam in entry["matrices"]
        )
        if boundary:
            fams = tuple(tuple(v.reshape(-1) for v in fam) for fam in fams)
        if len(fams) != (1 if measured else 2):
            raise DimensionMismatch(f"site {idx} has {len(fams)} physical slots")
        if not fams[0] or any(len(fam) != len(fams[0]) for fam in fams):
            raise DimensionMismatch(f"site {idx} slots differ in s_count")
        if any(m.shape != shape for fam in fams for m in fam):
            raise DimensionMismatch(f"site {idx} operators must have shape {shape}")
        sites.append(
            SiteTensor(
                ops=fams,
                boundary=boundary,
                measured=measured,
                outcome=entry.get("outcome"),
            )
        )
    return MpoState(sites=tuple(sites), seed=seed)
