"""Matrix product operators contracted by one left-to-right sweep.

An ``MpoState`` holds one bare (P, S, rows, D) array per site: the family of
bond-space objects indexed by the physical value i and a Kraus-like index s.
Interior sites hold matrices A[i, s] (rows = D); the last site, the boundary,
holds the bra rows B[i, s] = v[i, s]^dag of its closing vectors (rows = 1).
A measured site has a single physical slot, P == 1.  ``_family`` is the one
check of this site contract, run on every site of a new ``MpoState`` and on
the one site an event or readout changes.  The contraction carries a tensor
T[r, c] of bond operators over the open sites seen so far, from the
correlation-space seed through every site, the boundary included:
T'[(r,i),(c,j)] = sum_s A[i, s] T[r, c] A[j, s]^dag.  A measured site leaves
T's size alone, and the boundary's single row closes T to the dense operator,
first site as most significant bit.  A measured interior site's logical step
is the channel with Kraus operators A[0, s]; stopping the sweep before the
boundary composes those steps.

Physical single-site events update the stored families in place of the
dense state, each as one broadcast expression over the stacked family:

* measurement collapses the physical index, A[v, s] = sum_i <v|i> A[i, s];
* an operator K on the physical qubit (a Pauli, a unitary, or each Kraus
  operator of a channel) acts in correlation space as
  A -> A diag(K) + Z A offdiag(K), with offdiag(K) = K - diag(K); for the
  Pauli sigma_ab = i^(ab) X^a Z^b this is A -> Z^a A sigma_ab;
* a channel extends the s family with one branch per Kraus operator.

The correlation-space rule (Gross and Eisert, quant-ph/0609149) is exact
for any number of Pauli events and Pauli channels on any builder, one
unitary or channel per site of a cluster, and one unitary on the clean site
0 of ``mpo_one_clean``.  Elsewhere it can be wrong, on the caller: it needs
the cluster symmetry A[i^1, s] = Z A[i, s] X and A[i, s] Z = (-1)^i A[i, s],
which the mixed sites' scrambling members A[i] X / sqrt 2 break (H on site 1
of ``mpo_maximally_mixed(3)`` is off by 0.125), as do two updates on one
cluster site unless both are Paulis (H then T; X and H in either order).
The bond dimension D is 2, the correlation space of the cluster state: the
event rule's Z acts on the bond and needs it, and ``MpoState`` checks it on
the seed and on every site.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import densemath as dm
from .channels import KrausChannel, basis_element, check_unitary
from .errors import AlreadyMeasured, DimensionMismatch, SizeLimit, UnmeasuredSites


@dataclass(frozen=True)
class MpoState:
    """Ordered site families plus the correlation-space seed operator.

    ``sites[j]`` is an array or nested sequences, stacked once by
    :func:`densemath.stacked` into a complex (P, S, rows, 2) array with P in
    (1, 2): two rows on an interior site, one on the last site, the boundary;
    the seed is a 2x2 matrix.  There is at least one site.
    """

    sites: tuple[np.ndarray, ...]
    seed: np.ndarray

    def __post_init__(self):
        seed = dm.stacked(self.seed, (2, 2), "seed")
        if not self.sites:
            raise DimensionMismatch("sites: an MPO needs at least one site")
        sites = tuple(_family(a, j, len(self.sites)) for j, a in enumerate(self.sites))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def unmeasured_count(self) -> int:
        return sum(len(a) != 1 for a in self.sites)


def _family(a, j: int, count: int) -> np.ndarray:
    """Site ``j`` of ``count`` as a checked complex (P, S, rows, 2) array."""
    site = dm.stacked(a, (None, None, 1 if j == count - 1 else 2, 2), f"site {j}")
    if len(site) > 2:
        raise DimensionMismatch(f"site {j} has {len(site)} physical slots, not 1 or 2")
    return site


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def mpo_cluster(n: int) -> MpoState:
    """Linear cluster state: interior A[k] = H|k><k| on a |+><+| seed,
    boundary rows <i|."""
    if n < 2:
        raise ValueError("cluster representation needs at least 2 sites")
    a = [dm.H @ dm.projector(dm.KET0), dm.H @ dm.projector(dm.KET1)]
    interior = np.asarray([[a[0]], [a[1]]], dtype=complex)
    bound = np.conj([[[dm.KET0]], [[dm.KET1]]])
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
    bound = np.conj([[[r * dm.KET0], [r * dm.KET1]], [[r * dm.KET1], [r * dm.KET0]]])
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


def _sweep(state: MpoState, sites) -> np.ndarray:
    """Seed carried through ``sites``, shape (2^k, 2^k, rows, D) over the k
    open ones; the first site is the most significant bit."""
    t = state.seed[None, None]
    for site in sites:
        t = _absorb(t, site)
    return t


def mpo_contract(state: MpoState) -> np.ndarray:
    """Dense operator over the unmeasured sites, first site most significant:
    one sweep from the seed through every site, closed by the boundary row."""
    open_count, cap = state.unmeasured_count(), dm.max_qubits()
    if open_count > cap:
        raise SizeLimit(f"contraction over {open_count} open sites exceeds 2^{cap}")
    return _sweep(state, state.sites)[:, :, 0, 0]


# ---------------------------------------------------------------------------
# Physical events
# ---------------------------------------------------------------------------


def _site(state: MpoState, index: int) -> np.ndarray:
    """The family of site ``index``, an integer, which must still be open."""
    dm._checked_int(index, IndexError, "an MPO site index must be an integer")
    if not 0 <= index < state.n_sites:
        raise IndexError(f"site {index} outside MPO of length {state.n_sites}")
    site = state.sites[index]
    if len(site) == 1:
        raise AlreadyMeasured(f"site {index} was already measured")
    return site


def _with_site(state: MpoState, index: int, site: np.ndarray) -> MpoState:
    """``state`` with site ``index`` replaced and checked, the others as they were."""
    new = copy.copy(state)  # skips __post_init__ and its check of every site
    site = _family(site, index, state.n_sites)
    object.__setattr__(new, "sites", (*state.sites[:index], site, *state.sites[index + 1 :]))
    return new


def mpo_measure(state: MpoState, index: int, basis_vec: np.ndarray) -> MpoState:
    """Collapse a site onto the unit vector v of an observed outcome: every
    site, the boundary's rows included, combines with the amplitudes <v|i>."""
    site = _site(state, index)
    weights = dm.unit_ket(basis_vec).conj()
    collapsed = weights[0] * site[0] + weights[1] * site[1]
    return _with_site(state, index, collapsed[None])


def _apply_ops(state: MpoState, index: int, ks: np.ndarray) -> MpoState:
    """Each family member A becomes A diag(K) + Z A offdiag(K), one per K of
    the stacked (K, 2, 2) operators ``ks``; member s, K k lands at s * K + k."""
    site = _site(state, index)
    if index == state.n_sites - 1:
        raise ValueError(
            "boundary sites hold rows; the correlation-space updates need matrices"
        )
    diag = np.where(np.eye(2, dtype=bool), ks, 0)
    a = site[:, :, None]
    new = a @ diag + dm.Z @ a @ (ks - diag)
    return _with_site(state, index, new.reshape(len(a), -1, 2, 2))


def mpo_apply_pauli(state: MpoState, index: int, pauli: tuple[int, int]) -> MpoState:
    """Pauli sigma_ab on the physical qubit: A -> Z^a A sigma_ab."""
    a, b = pauli
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
    return _sweep(state, state.sites[:-1])[0, 0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def mpo_to_dict(state: MpoState) -> dict:
    """JSON-ready description: the seed and each site's (P, S, rows, cols)
    matrices as [re, im] pairs; the boundary as its vectors v, 1 x D rows."""
    sites = (*state.sites[:-1], state.sites[-1].conj())
    matrices = [{"matrices": dm.mat_to_json(a)} for a in sites]
    return {"seed": dm.mat_to_json(state.seed), "sites": matrices}


def _decoded(obj, where: str, shape: str) -> np.ndarray:
    """One matrix array of an MPO file; its entries must be finite."""
    try:
        m = dm.mat_from_json(obj)
    except TypeError as exc:  # a boolean, or an integer too large for a float
        raise DimensionMismatch(f"{where}: {exc}") from None
    except ValueError:  # missing, not [re, im] pairs, or ragged
        raise DimensionMismatch(shape) from None
    if not np.isfinite(m).all():
        raise DimensionMismatch(f"{where}: matrix entries must be finite")
    return m


def mpo_from_dict(doc: dict) -> MpoState:
    """Inverse of :func:`mpo_to_dict`.

    Reads only ``seed`` and each site's ``matrices`` and ignores any other
    key, so files that also record per-site dimensions and flags load the
    same.  A malformed document, a JSON boolean or non-finite entry included,
    raises DimensionMismatch, naming the seed or the site; ``MpoState``
    checks every shape.
    """
    if not isinstance(doc, dict):
        kind = type(doc).__name__
        raise DimensionMismatch(f"seed and sites: expected an object, got {kind}")
    seed = _decoded(doc.get("seed"), "seed", "seed: expected a matrix of [re, im] pairs")
    entries = doc.get("sites")
    if not isinstance(entries, list) or not entries:
        raise DimensionMismatch("sites: expected a non-empty list")
    sites = []
    for idx, entry in enumerate(entries):
        matrices = entry.get("matrices") if isinstance(entry, dict) else None
        shape = f"site {idx} matrices are missing or do not stack as [re, im] pairs"
        sites.append(_decoded(matrices, f"site {idx}", shape))
    return MpoState(sites=(*sites[:-1], sites[-1].conj()), seed=seed)
