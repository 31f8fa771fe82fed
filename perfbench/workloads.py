"""Experiment documents for each benchmark workload, made from a seed.

A workload is a fixed list of size classes; the seed only fills in the
content of each document (channels, probabilities, angles, sites, outcomes).
Two seeds therefore give different documents with the same per-class cost,
which keeps the end-to-end figures comparable from seed to seed.

Every document also carries the number of cases the runner must report for
it, and whether it is a known-defect document.  Those exercise an input the
closed forms get wrong today: the runner reports a tolerance failure (exit
code 1) for them.  Each workload holds a fixed number of them, so the share
of failed documents stays visible and constant until a fix lands.  Every
other document agrees with the oracle today.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

S2 = 0.7071067811865476
HADAMARD = [[[S2, 0.0], [S2, 0.0]], [[S2, 0.0], [-S2, 0.0]]]
T_GATE = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [S2, S2]]]


@dataclass(frozen=True)
class Doc:
    name: str
    text: str
    expected_cases: int
    defect: bool = False


def _doc(name: str, body: dict, expected_cases: int, defect: bool = False) -> Doc:
    text = json.dumps(body, indent=1, sort_keys=True) + "\n"
    return Doc(name, text, expected_cases, defect)


def _mat(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _isometry(rng, n_kraus: int) -> list:
    g = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * i : 2 * i + 2, :] for i in range(n_kraus)]


def _prob(rng) -> float:
    return round(float(rng.uniform(0.05, 0.45)), 6)


def _unitary_channel(rng) -> dict:
    return {"builtin": "unitary", "matrix": _mat(_isometry(rng, 1)[0])}


def _general_channel(rng) -> dict:
    """A two-Kraus channel that is not a Pauli channel.

    Pauli channels make sparser outputs that cost less to contract and to
    write, so documents of one size class do not mix the two kinds.
    """
    if rng.integers(2):
        u = _mat(_isometry(rng, 1)[0])
        return {"builtin": "mixed_unitary", "p": _prob(rng), "matrix": u}
    return {"dim": 2, "ops": [_mat(k) for k in _isometry(rng, 2)]}


def _pauli_channel(rng) -> dict:
    pick = int(rng.integers(3))
    if pick == 0:
        return {"builtin": "bit_flip", "p": _prob(rng)}
    if pick == 1:
        return {"builtin": "phase_flip", "p": _prob(rng)}
    return {"builtin": "depolarizing"}


def _non_pauli_channel(rng) -> dict:
    """A resource noise the teleport runner sends down the general branch path."""
    if rng.integers(2):
        return {"builtin": "mixed_unitary", "p": _prob(rng), "matrix": HADAMARD}
    return _general_channel(rng)


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31))


# ---------------------------------------------------------------------------
# calculus: three-qubit-or-smaller documents, per-call overhead
# ---------------------------------------------------------------------------


def _random_suite(rng, cases: int, kraus: int) -> Doc:
    body = {
        "kind": "block_chain",
        "seed": _seed(rng),
        "tolerance": 1e-9,
        "random_suite": {"cases": cases, "kraus": kraus},
    }
    return _doc(f"suite_k{kraus}", body, 2 * cases)


def _chain(rng, steps: int, z_first: bool = False) -> Doc:
    """An outcome-branched chain; ``z_first`` starts it with a Z step on |+>.

    Every equatorial step has noise at two random locations, one a unitary
    and one a two-Kraus channel, so chains of one length cost the same.
    """
    channels = {
        "u0": _unitary_channel(rng),
        "u1": _unitary_channel(rng),
        "n0": _general_channel(rng),
        "n1": _general_channel(rng),
    }
    chain = [{"z": True, "k": "both"}] if z_first else []
    for i in range(len(chain), steps):
        chain.append(_chain_step(rng, i))
    inputs = ["plus", "zero", "one", "minus"]
    body = {
        "kind": "block_chain",
        "tolerance": 1e-9,
        "channels": channels,
        "input": "plus" if z_first else inputs[int(rng.integers(4))],
        "chain": chain,
    }
    return _doc(f"chain_{steps}" + ("_z" if z_first else ""), body, 2**steps)


def _chain_step(rng, i: int) -> dict:
    magnitude = round(float(rng.uniform(-np.pi, np.pi)), 6)
    earlier = [j for j in range(i) if rng.random() < 0.5]
    phi = {"magnitude": magnitude, "flip_on": earlier} if earlier else magnitude
    slots = rng.permutation(["alpha1", "alpha2", "alpha3", "alpha4"])
    return {
        "phi": phi,
        "k": "both",
        str(slots[0]): f"u{int(rng.integers(2))}",
        str(slots[1]): f"n{int(rng.integers(2))}",
    }


def _z_mid_chain(rng) -> Doc:
    """A Z step after an equatorial one.

    Known defect: the closed form applies Z^k/sqrt(2) to the incoming state,
    but a Z readout discards that state; the two paths agree only when the
    Z step meets |+>, i.e. as the first step on a plus input.
    """
    doc = _chain(rng, 3)
    body = json.loads(doc.text)
    body["chain"][1] = {"z": True, "k": "both"}
    return _doc("defect_chain_z_mid", body, doc.expected_cases, defect=True)


def _teleport(rng, pauli: bool, n_inputs: int) -> Doc:
    noise = _pauli_channel(rng) if pauli else _non_pauli_channel(rng)
    if rng.integers(2):
        inputs = {"random": n_inputs}
    else:
        aliases = ["plus", "zero", "one", "minus"]
        inputs = [aliases[int(rng.integers(4))] for _ in range(n_inputs)]
    body = {
        "kind": "teleport",
        "seed": _seed(rng),
        "tolerance": 1e-10,
        "channels": {"noise": noise},
        "resource_noise": "noise",
        "inputs": inputs,
    }
    return _doc("teleport_pauli" if pauli else "teleport_general", body, 4 * n_inputs)


def _small_mpo(rng, kind: int) -> Doc:
    """Three live qubits at most: an MPO document sized like the calculus."""
    builder, total = _builder(kind, 3)
    site = int(rng.integers(total - 1))
    body = {
        "kind": "mpo",
        "tolerance": 1e-9,
        "channels": {"noise": _site_channel(rng, builder)},
        "builder": builder,
        "site_ops": [{"site": site, "channel": "noise"}],
        "measurements": [
            {"site": i, "basis": "x", "outcome": "both"} for i in range(total - 1)
        ],
    }
    return _doc("mpo_small", body, 2 ** (total - 1))


def _calculus_slice(rng) -> list[Doc]:
    """One small document per closed-form layer.

    Added to the MPO workloads so that every layer the traced run reports
    has calls on every workload; it costs about 1% of their wall time.
    """
    return [
        _random_suite(rng, 2, 2),
        _chain(rng, 3),
        _teleport(rng, True, 1),
        _teleport(rng, False, 1),
    ]


def calculus(rng) -> list[Doc]:
    docs = [_random_suite(rng, 8, k) for k in (1, 2, 3)] + [_random_suite(rng, 4, 4)]
    # the tail class: three 6-step chains, 64 outcome strings each
    docs += [_chain(rng, steps) for steps in (3, 4, 4, 5, 5, 6, 6, 6)]
    docs += [_chain(rng, 4, z_first=True), _z_mid_chain(rng)]
    # twelve similar teleport documents put the median document time inside
    # one size class, so doc_s_p50 does not jump between classes by seed
    docs += [_teleport(rng, i % 2 == 0, 4) for i in range(12)]
    docs += [_small_mpo(rng, kind) for kind in range(2)]
    return docs


# ---------------------------------------------------------------------------
# MPO documents
# ---------------------------------------------------------------------------


BUILDERS = ("cluster", "maximally_mixed", "one_clean")


def _builder(kind: int, qubits: int) -> tuple[dict, int]:
    """Builder ``kind`` (taken round-robin) with a ``qubits``-site register.

    The builder is part of a document's size class, not of its random
    content: their oracle and contraction costs differ.
    """
    name = BUILDERS[kind % len(BUILDERS)]
    n = qubits - 1 if name == "one_clean" else qubits
    return {"name": name, "n": n}, qubits


def _site_channel(rng, builder: dict) -> dict:
    """A two-Kraus channel the MPO rules handle exactly on this builder.

    Only the cluster builder has the symmetry the conjugation rules need for
    a general channel; the mixed builders get Pauli channels (see _MIXED_SITE
    for the documents that exercise the general case there).
    """
    if builder["name"] == "cluster":
        return _general_channel(rng)
    p = _prob(rng)
    return {"builtin": "bit_flip" if rng.integers(2) else "phase_flip", "p": p}


def _wide(rng, qubits: int, kind: int) -> Doc:
    """A channel on every non-boundary site, every non-boundary site measured."""
    builder, total = _builder(kind, qubits)
    channels = {f"c{i}": _site_channel(rng, builder) for i in range(3)}
    body = {
        "kind": "mpo",
        "tolerance": 1e-9,
        "channels": channels,
        "builder": builder,
        "site_ops": [
            {"site": i, "channel": f"c{int(rng.integers(3))}"} for i in range(total - 1)
        ],
        "measurements": [
            {
                "site": i,
                "basis": "x" if rng.random() < 0.5 else "z",
                "outcome": int(rng.integers(2)),
            }
            for i in range(total - 1)
        ],
    }
    return _doc(f"wide_{qubits}", body, 1)


def oracle_wide(rng) -> list[Doc]:
    docs = [_wide(rng, 8, kind) for kind in range(6)]
    docs += [_wide(rng, 9, kind) for kind in range(5)]
    docs += [_wide(rng, 10, 0)]
    return docs + _calculus_slice(rng) + [_small_mpo(rng, 2)]


def _open(rng, qubits: int, kind: int, readout: bool = True) -> Doc:
    """A Pauli, a unitary and a channel on sites 1-3; site 0 read out or open.

    The sites are fixed because the contraction cost depends on where the
    channel sits.  On the mixed builders the unitary is a Pauli, the only
    kind the MPO rules handle exactly there.
    """
    builder, _ = _builder(kind, qubits)
    if builder["name"] == "cluster":
        unitary = {"unitary": _mat(_isometry(rng, 1)[0])}
    else:
        unitary = {"pauli": [int(rng.integers(2)), int(rng.integers(2))]}
    body = {
        "kind": "mpo",
        "tolerance": 1e-9,
        "channels": {"noise": _site_channel(rng, builder)},
        "builder": builder,
        "site_ops": [
            {"site": 1, "pauli": [int(rng.integers(2)), int(rng.integers(2))]},
            {"site": 2, **unitary},
            {"site": 3, "channel": "noise"},
        ],
        "measurements": (
            [{"site": 0, "basis": "x", "outcome": int(rng.integers(2))}] if readout else []
        ),
    }
    return _doc(f"{'open' if readout else 'full'}_{qubits}", body, 1)


# Known defects of the MPO conjugation rules (ROADMAP open item 3): two
# events stacked on one cluster site, and a non-Pauli event on a site of a
# maximally mixed builder.
_STACKS = (
    ("h_then_t", [{"unitary": HADAMARD}, {"unitary": T_GATE}]),
    ("pauli_then_h", [{"pauli": [1, 0]}, {"unitary": HADAMARD}]),
    ("hmix_then_bitflip", [{"channel": "hmix"}, {"channel": "flip"}]),
)
_MIXED_SITE = ("mixed_h", [{"unitary": HADAMARD}])


def _defect_mpo(rng, qubits: int, label: str, events: list) -> Doc:
    mixed = label == _MIXED_SITE[0]
    name = "maximally_mixed" if mixed else "cluster"
    site = int(rng.integers(1, qubits - 2))
    body = {
        "kind": "mpo",
        "tolerance": 1e-9,
        "channels": {
            "hmix": {"builtin": "mixed_unitary", "p": _prob(rng), "matrix": HADAMARD},
            "flip": {"builtin": "bit_flip", "p": _prob(rng)},
        },
        "builder": {"name": name, "n": qubits},
        "site_ops": [{"site": site, **event} for event in events],
        "measurements": [{"site": 0, "basis": "x", "outcome": int(rng.integers(2))}],
    }
    return _doc(f"defect_{label}", body, 1, defect=True)


def mpo_open(rng) -> list[Doc]:
    docs = [_open(rng, 6, kind) for kind in range(6)]
    docs += [_open(rng, 7, kind) for kind in range(4)]
    # the tail class: four cluster documents with 7 open sites (128x128
    # outputs, 2.5 MB reports), three of them with nothing measured
    docs += [_open(rng, 7, 0, readout=False) for _ in range(3)] + [_open(rng, 8, 0)]
    # six-site known-defect documents cost about what open_6 ones do, which
    # puts the median document time inside that class, not at its edge
    docs += [_defect_mpo(rng, 6, *stack) for stack in _STACKS + (_MIXED_SITE,)]
    return docs + _calculus_slice(rng)


GENERATORS = {"calculus": calculus, "oracle_wide": oracle_wide, "mpo_open": mpo_open}
WORKLOADS = tuple(GENERATORS)


def make_documents(workload: str, seed: int) -> list[Doc]:
    """The documents of one workload; the same seed gives the same bytes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [
        Doc(f"{i:02d}_{d.name}", d.text, d.expected_cases, d.defect)
        for i, d in enumerate(GENERATORS[workload](rng))
    ]
