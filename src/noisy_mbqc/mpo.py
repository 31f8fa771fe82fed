"""Matrix product operators contracted by one left-to-right sweep.

An ``MpoState`` holds one bare array per site: the family of bond-space
objects indexed by the physical value i and a Kraus-like index s.  Interior
sites hold matrices A[i, s] (P, S, D, D); the last site is the boundary and
holds vectors v[i, s] (P, S, D).  A measured site is one with a single
physical slot, P == 1.  ``MpoState.__post_init__`` is the one place that
checks this site contract, for built, hand-made and decoded states alike;
``mpo_from_dict`` decodes JSON, refuses booleans, and checks only the
boundary rows.  The contraction starts from the correlation-space seed and carries
a tensor T[r, c] of bond operators over the open sites seen so far.  An
interior site is absorbed as T'[(r,i),(c,j)] = sum_s A[i, s] T[r, c]
A[j, s]^dag, so a measured site leaves T's size alone.  The boundary closes
the sweep with out[(r,i),(c,j)] = sum_s v[i, s]^dag T[r, c] v[j, s], which
is the dense operator with the first site as most significant bit.  A
measured interior site's logical step is the channel with Kraus operators
A[0, s]; stopping the sweep before the boundary composes those steps.

Physical single-site events update the stored families in place of the
dense state, each as one broadcast expression over the stacked family:

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
updates on one site leaves that family and is on the caller.  The bond
dimension D is 2, the correlation space of the cluster state: the event
rule's Z acts on the bond and needs it, and ``MpoState`` checks it on the
seed and on every site.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import densemath as dm
from .channels import KrausChannel, basis_element, check_unitary
from .errors import AlreadyMeasured, DimensionMismatch, SizeLimit, UnmeasuredSites

CONTRACTION_MAX_QUBITS = 12


@dataclass(frozen=True)
class MpoState:
    """Ordered site families plus the correlation-space seed operator.

    ``sites[j]`` is an array or nested sequences, stacked once into a complex
    (P, S, 2, 2) array, or (P, S, 2) for the last site, the boundary, with
    P in (1, 2); the seed is a 2x2 matrix.
    """

    sites: tuple[np.ndarray, ...]
    seed: np.ndarray

    def __post_init__(self):
        seed = dm.stacked(self.seed, 2, "seed")
        if seed.shape != (2, 2):
            raise DimensionMismatch(f"seed must be a 2x2 matrix, got shape {seed.shape}")
        if not self.sites:
            raise DimensionMismatch("sites: an MPO needs at least one site")
        last = len(self.sites) - 1
        sites = tuple(
            dm.stacked(a, 3 if j == last else 4, f"site {j} family members")
            for j, a in enumerate(self.sites)
        )
        for j, a in enumerate(sites):
            if len(a) > 2 or set(a.shape[2:]) != {2}:
                raise DimensionMismatch(
                    f"site {j} has shape {a.shape}; it needs 1 or 2 physical slots "
                    "and bond dimension 2"
                )
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def unmeasured_count(self) -> int:
        return sum(len(a) != 1 for a in self.sites)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def mpo_cluster(n: int) -> MpoState:
    """Linear cluster state: interior A[k] = H|k><k| on a |+><+| seed,
    boundary vectors |i>."""
    if n < 2:
        raise ValueError("cluster representation needs at least 2 sites")
    a = [dm.H @ dm.projector(dm.KET0), dm.H @ dm.projector(dm.KET1)]
    interior = np.asarray([[a[0]], [a[1]]], dtype=complex)
    bound = [[dm.KET0], [dm.KET1]]
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
    interior = np.asarray(
        [[r * a[0], r * a[0] @ dm.X], [r * a[1], r * a[1] @ dm.X]], dtype=complex
    )
    bound = [[r * dm.KET0, r * (dm.X @ dm.KET0)], [r * dm.KET1, r * (dm.X @ dm.KET1)]]
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
    clean = [[a[0]], [a[1]]]
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
    t = state.seed[None, None]
    for site in state.sites[:-1]:
        t = _absorb(t, site)
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
    rows = state.sites[-1].conj()[:, :, None, :]
    return _absorb(_sweep(state), rows)[:, :, 0, 0]


# ---------------------------------------------------------------------------
# Physical events
# ---------------------------------------------------------------------------


def _site(state: MpoState, index: int) -> np.ndarray:
    """The family of site ``index``, which must still be open."""
    if not 0 <= index < state.n_sites:
        raise IndexError(f"site {index} outside MPO of length {state.n_sites}")
    site = state.sites[index]
    if len(site) == 1:
        raise AlreadyMeasured(f"site {index} was already measured")
    return site


def _with_site(state: MpoState, index: int, site: np.ndarray) -> MpoState:
    return replace(state, sites=(*state.sites[:index], site, *state.sites[index + 1 :]))


def mpo_measure(state: MpoState, index: int, basis_vec: np.ndarray) -> MpoState:
    """Collapse a site onto the unit vector of an observed outcome.

    Interior matrices combine with conjugated amplitudes <v|i>; boundary
    vectors combine with plain amplitudes because the boundary functional
    already daggers its bra-side vector.
    """
    site = _site(state, index)
    v = dm.unit_ket(basis_vec)
    weights = v if index == state.n_sites - 1 else v.conj()
    collapsed = weights[0] * site[0] + weights[1] * site[1]
    return _with_site(state, index, collapsed[None])


def _apply_ops(state: MpoState, index: int, ks: np.ndarray) -> MpoState:
    """Each family member A becomes A diag(K) + Z A offdiag(K), one per K of
    the stacked (K, 2, 2) operators ``ks``; member s, K k lands at s * K + k."""
    site = _site(state, index)
    if index == state.n_sites - 1:
        raise ValueError(
            "boundary sites hold vectors; the correlation-space updates need matrices"
        )
    diag = np.where(np.eye(2, dtype=bool), ks, 0)
    a = site[:, :, None]
    new = a @ diag + dm.Z @ a @ (ks - diag)
    return _with_site(state, index, new.reshape(len(a), -1, 2, 2))


def mpo_apply_pauli(state: MpoState, index: int, pauli: tuple[int, int]) -> MpoState:
    """Pauli sigma_ab on the physical qubit: A -> Z^a A sigma_ab."""
    a, b = pauli
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("Pauli label must be a pair of bits")
    return _apply_ops(state, index, basis_element(a, b)[None])


def mpo_apply_unitary(state: MpoState, index: int, u: np.ndarray) -> MpoState:
    """Unitary on the physical qubit."""
    return _apply_ops(state, index, check_unitary(u)[None])


def mpo_apply_channel(state: MpoState, index: int, eta: KrausChannel) -> MpoState:
    """Channel on the physical qubit; the site's s family gains one branch
    per Kraus operator."""
    return _apply_ops(state, index, eta.ops)


def mpo_logical_output(state: MpoState) -> np.ndarray:
    """The sweep stopped before the boundary, with every interior site measured.

    The result is the correlation-space operator carried to the boundary;
    its trace is the probability of the measured outcome string.
    """
    pending = [i for i, a in enumerate(state.sites[:-1]) if len(a) != 1]
    if pending:
        raise UnmeasuredSites(f"sites {pending} are still open")
    return _sweep(state)[0, 0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def mpo_to_dict(state: MpoState) -> dict:
    """JSON-ready description: the seed and each site's (P, S, rows, cols)
    matrices as [re, im] pairs; a boundary vector is written as a 1 x D row."""
    rows = state.sites[-1][:, :, None]
    sites = [{"matrices": dm.mat_to_json(a)} for a in (*state.sites[:-1], rows)]
    return {"seed": dm.mat_to_json(state.seed), "sites": sites}


def mpo_from_dict(doc: dict) -> MpoState:
    """Inverse of :func:`mpo_to_dict`.

    Reads only ``seed`` and each site's ``matrices`` and ignores any other
    key, so files that also record per-site dimensions and flags load the
    same.  A malformed document, a JSON boolean entry included, raises
    DimensionMismatch, naming the seed or the site; of the shapes, only the
    boundary rows are checked here.
    """
    if not isinstance(doc, dict):
        kind = type(doc).__name__
        raise DimensionMismatch(f"seed and sites: expected an object, got {kind}")
    try:
        seed = dm.mat_from_json(doc.get("seed"))
    except (TypeError, ValueError):  # missing, not [re, im] pairs, or ragged rows
        raise DimensionMismatch("seed: expected a matrix of [re, im] pairs") from None
    if dm.holds_bool(doc["seed"]):
        raise DimensionMismatch("seed: matrix entries must be numbers, got a boolean")
    entries = doc.get("sites")
    if not isinstance(entries, list) or not entries:
        raise DimensionMismatch("sites: expected a non-empty list")
    sites = []
    for idx, entry in enumerate(entries):
        try:
            ops = np.array(
                [[dm.mat_from_json(rows) for rows in fam] for fam in entry["matrices"]]
            )
        except (KeyError, TypeError, ValueError):  # missing, not pairs, or ragged
            raise DimensionMismatch(
                f"site {idx} matrices are missing or do not stack as [re, im] pairs"
            ) from None
        if dm.holds_bool(entry["matrices"]):
            raise DimensionMismatch(
                f"site {idx}: matrix entries must be numbers, got a boolean"
            )
        sites.append(ops)
    rows = sites.pop()  # the boundary
    if rows.ndim != 4 or rows.shape[2] != 1:
        raise DimensionMismatch(f"site {idx} (the boundary) is not written as 1 x D rows")
    return MpoState(sites=(*sites, rows[:, :, 0]), seed=seed)
