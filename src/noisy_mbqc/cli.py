"""Experiment runner: declarative JSON configs executed on two paths.

Every experiment runs a closed-form path and the brute-force oracle path and
reports their disagreement per case, so a passing report certifies the maps
against direct density-matrix simulation.

Document layout (all kinds)::

    {
      "kind": "teleport" | "block_chain" | "mpo",
      "tolerance": 1e-9,            # optional, default 1e-9; finite, >= 0
      "seed": 7,                    # optional, default 0; >= 0
      "channels": {                 # named single-qubit channels
        "noise":  {"builtin": "phase_flip", "p": 0.5},   # p in [0, 1]
        "custom": {"dim": 2, "ops": [[[[0.7,0],[0,0]], ...], ...]}  # 2x2 ops
      },
      ...kind-specific fields...
    }

Kind ``teleport``: ``resource_noise`` names a channel; ``inputs`` is either
``{"random": N}`` or a list of state specs (``"plus"``, ``"zero"``, ``"one"``,
``"minus"`` or a 2x2 ``{"matrix": [...]}``).  One case per input and Bell outcome.

Kind ``block_chain``: either ``chain`` (a list of step entries) or
``random_suite`` (``{"cases": N, "kraus": 2}``, comparing composed Choi
matrices against the oracle for random noise at all four locations).  A chain
entry reads ``{"phi": 0.3, "k": 0|1|"both", "alpha1": "name", ...}`` or
``{"z": true, "k": ...}``, where ``z`` is a JSON boolean (default false) and a
Z step names no phi or alpha slot; ``phi`` may also be an adaptive sign table
``{"magnitude": x, "flip_on": [earlier step indices]}``, resolved to x *
(-1)^(sum of those outcomes) per outcome string.  One case per outcome string;
states are compared unnormalised so traces carry branch probabilities.  A chain
composes each distinct step (step index and resolved measurement, Z or not)
once with ``block.compose_block_noise`` and reuses it across outcome strings.
The outcome strings are walked depth first as a prefix tree, in product
order: the closed-form state and the oracle's one live qubit after a prefix
are computed once and shared by every string below it.  Step i's oracle
starts from that live qubit on site i and runs the step's circuit on sites
(i, i+1) of the chain's full register (len(chain) + 1 sites), so the register
cap applies as for one circuit over the whole chain.  An L-step chain costs
2^(L+1) - 2 step evaluations on each path, not L * 2^L.

Kind ``mpo``: ``builder`` is ``{"name": "cluster"|"maximally_mixed"|
"one_clean", "n": N}``, whose register (n sites, n+1 for ``one_clean``) must
fit ``NOISY_MBQC_MAX_QUBITS``; ``site_ops`` lists single-site events on
sites before the last (the boundary): ``{"site": i, "pauli": [a, b]}`` with
bits a, b, ``{"site": i, "unitary": [...]}`` or ``{"site": i, "channel":
"name"}``; ``measurements`` lists ``{"site": i, "basis": "x"|"z", "outcome":
0|1|"both"}``, each site of the register at most once.  Contractions are
compared against the dense simulation per outcome string.  Its circuit
prepares every site, then runs site by site in ascending order the CZ to the
next site (cluster), the site's events in document order and the site's
readout, so a read-out site leaves the register before any later site's
events run; the peak register is the full one, as the preps make it.  The
prep and per-site op lists are built once per document; a branch only places
its readouts among them.  An optional
``save_mpo`` path stores the prepared (pre-measurement) operator as
``mpo.mpo_to_dict`` writes it, ``{"seed": [[re, im] rows], "sites":
[{"matrices": [P][S][rows][cols] of [re, im]}, ...]}`` (the last site, the
boundary, as 1 x D rows), once every case has run and ``--cases`` has
selected at least one.

Integer fields (``seed``, ``inputs.random``, ``random_suite.cases``/``kraus``,
``builder.n``, sites, a chain entry's ``k``, ``flip_on`` entries, an ``outcome``)
take an integer or an integral float; null, booleans, strings and fractions are
bad input.  Number fields (``tolerance``, ``p``, ``phi``, ``magnitude``, matrix
entries) reject booleans and strings; ``phi``, ``magnitude`` and matrix entries
must be finite.
A custom channel has ``dim`` 2 (the default) and a non-empty list of 2x2 ops.
A channel definition names only the keys its kind reads (``builtin`` and its
``p`` and ``matrix``, or ``dim`` and ``ops``); any other key is bad input.
The ``matrix`` of a ``unitary`` or ``mixed_unitary`` builtin and a site
``unitary`` are 2x2 with U^dag U within ``densemath.ATOL`` of I.

``parse_experiment`` reads and checks every field once, before any MPO, oracle
or file work, and returns the spec with its kind's ``run(rng)``; the runner
reads no field of the document.

Reports: ``--out`` writes CSV when the path ends in ``.csv`` and JSON
otherwise.  The JSON text is what ``json.dump(report_to_dict(report), fh,
indent=2)`` writes, plus a final newline: floats read as their ``repr``
(``NaN``, ``Infinity``, ``-Infinity`` when not finite), and two runs of one
document give byte-identical reports apart from ``meta.timestamp``.  The
writer takes the layout from ``json.dumps`` itself, with null at each matrix
leaf, and streams the matrices into it row by row, each distinct float
formatted once.

Exit codes: 0 all cases within tolerance, 1 a case exceeded it, 2 the
document or a module precondition was at fault, or ``--cases`` selected no
case.  ``NOISY_MBQC_MAX_QUBITS`` caps the dense register (default 12).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, product

import numpy as np

from . import densemath as dm
from . import mpo as mpo_mod
from . import oracle
from .block import BlockNoiseConfig, MeasSpec, compose_block_noise
from .channels import (
    KrausChannel,
    apply,
    basis_element,
    bit_flip,
    check_unitary,
    choi,
    depolarizing,
    identity_channel,
    mixed_unitary,
    phase_flip,
    random_channel,
    unitary_channel,
    validate,
)
from .errors import DimensionMismatch, NotAChannel, NotUnitary, ParseError
from .errors import UnknownChannelRef
from .teleport import (
    diagonal_resource,
    is_pauli_channel,
    pauli_corrected_target,
    teleport_branch,
)

_STATES = {
    "zero": dm.projector(dm.KET0),
    "one": dm.projector(dm.KET1),
    "plus": dm.projector(dm.PLUS),
    "minus": dm.projector(dm.MINUS),
}


@dataclass
class ExperimentSpec:
    """Parsed and resolved experiment document."""

    kind: str
    channels: dict[str, KrausChannel]
    payload: dict  # the document as read
    run: Runner  # the selected cases, from the parsed fields; reads no field again
    tolerance: float = 1e-9
    seed: int = 0
    spec_hash: str = ""


@dataclass
class CaseResult:
    """Closed-form and oracle outputs for one case, plus their distances."""

    case_id: str
    closed_form: np.ndarray
    oracle: np.ndarray
    max_entry_diff: float
    trace_distance: float
    branch_prob: float


# run(rng, select) returns select(cases); select applies --cases and raises on an
# empty selection, so a runner writes its files only after select returns.
# numpy.random stays lazy.
Runner = Callable[["np.random.Generator", Callable], list[CaseResult]]


@dataclass
class Report:
    cases: list[CaseResult] = field(default_factory=list)
    tolerance: float = 1e-9
    seed: int = 0
    spec_hash: str = ""
    timestamp: str = ""

    @property
    def max_entry_diff(self) -> float:
        return max((c.max_entry_diff for c in self.cases), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.max_entry_diff <= self.tolerance for c in self.cases)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# builtin name -> (the fields it reads, in order, and its constructor)
_BUILTINS = {
    "identity": ((), identity_channel),
    "bit_flip": (("p",), bit_flip),
    "phase_flip": (("p",), phase_flip),
    "depolarizing": ((), depolarizing),
    "unitary": (("matrix",), unitary_channel),
    "mixed_unitary": (
        ("p", "matrix"),
        lambda p, u: mixed_unitary([(1.0 - p, dm.I2), (p, u)]),
    ),
}


def _parse_channel_def(name: str, obj) -> KrausChannel:
    where = f"channels.{name}"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        if "builtin" in obj:
            builtin = obj["builtin"]
            if not isinstance(builtin, str) or builtin not in _BUILTINS:
                raise ParseError(f"{where}: unknown builtin {builtin!r}")
            fields, make = _BUILTINS[builtin]
            read = {"p": _probability, "matrix": _unitary}
            channel = make(*(read[key](obj[key], f"{where}.{key}") for key in fields))
            what, reads = f"builtin {builtin!r}", ("builtin", *fields)
        elif "ops" in obj:
            dim = _integer(obj.get("dim", 2), f"{where}.dim")
            _require(dim == 2, f"{where}.dim must be 2 (single-qubit), got {dim}")
            rows = obj["ops"]
            shape = f"{where}.ops: expected a non-empty list of 2x2 matrices"
            _require(isinstance(rows, list) and rows, shape)
            ops = [_matrix(op, f"{where}.ops[{i}]") for i, op in enumerate(rows)]
            _require(all(k.shape == (2, 2) for k in ops), shape)
            channel = validate(ops)
            what, reads = "an ops channel", ("dim", "ops")
        else:
            raise ParseError(f"{where}: needs either 'builtin' or 'ops'")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{where}: malformed definition ({exc})") from exc
    except NotAChannel as exc:
        raise NotAChannel(f"{where}: {exc}") from exc
    # a key the channel does not read is refused, not dropped
    for key in obj:
        _require(key in reads, f"{where}.{key}: not a field of {what}")
    return channel


def _number(obj, where: str) -> float:
    """A document number: an int or a float; booleans and strings are bad input."""
    if isinstance(obj, numbers.Real) and not isinstance(obj, bool):
        try:
            return float(obj)
        except OverflowError:
            pass
    raise ParseError(f"{where}: expected a number, got {obj!r}")


def _finite(obj, where: str) -> float:
    x = _number(obj, where)
    _require(math.isfinite(x), f"{where} must be finite, got {x}")
    return x


def _integer(obj, where: str) -> int:
    """A document integer: an int, or a float with no fractional part."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if isinstance(obj, float) and obj.is_integer():
        return int(obj)
    raise ParseError(f"{where}: expected an integer, got {obj!r}")


def _at_least(obj, where: str, low: int) -> int:
    n = _integer(obj, where)
    _require(n >= low, f"{where} must be >= {low}, got {n}")
    return n


def _outcomes(obj, where: str, message: str) -> tuple[int, ...]:
    """The outcomes a chain ``k`` or a measurement ``outcome`` runs: (k,) or (0, 1)."""
    if obj == "both":
        return (0, 1)
    k = _integer(obj, where)
    _require(k in (0, 1), message)
    return (k,)


def _matrix(obj, where: str) -> np.ndarray:
    finite = f"{where}: matrix entries must be finite"
    try:
        m = dm.mat_from_json(obj)
    except OverflowError:  # an integer entry too large for a float
        raise ParseError(finite) from None
    except (TypeError, ValueError):
        raise ParseError(f"{where}: expected a matrix of [re, im] pairs") from None
    boolean = f"{where}: matrix entries must be numbers, got a boolean"
    _require(not dm.holds_bool(obj), boolean)
    _require(np.isfinite(m).all(), finite)
    return m


def _unitary(obj, where: str) -> np.ndarray:
    try:
        return check_unitary(_matrix(obj, where))
    except (DimensionMismatch, NotUnitary) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _probability(obj, where: str) -> float:
    p = _number(obj, where)
    _require(0.0 <= p <= 1.0, f"{where} must be a probability in [0, 1], got {p}")
    return p


def _tolerance(obj, where: str) -> float:
    tol = _number(obj, where)
    _require(
        math.isfinite(tol) and tol >= 0.0,
        f"{where} must be finite and non-negative, got {tol}",
    )
    return tol


def _parse_state(obj, where: str) -> np.ndarray:
    if isinstance(obj, str):
        if obj not in _STATES:
            raise ParseError(f"{where}: unknown state alias {obj!r}")
        return _STATES[obj].copy()
    if isinstance(obj, dict):
        if "state" in obj:
            return _parse_state(obj["state"], where)
        if "matrix" in obj:
            rho = _matrix(obj["matrix"], f"{where}.matrix")
            _require(rho.shape == (2, 2), f"{where}.matrix: expected a 2x2 matrix")
            if not dm.is_density_operator(rho, normalized=True):
                raise ParseError(f"{where}: matrix is not a normalised state")
            return rho
    raise ParseError(f"{where}: expected a state alias or a matrix")


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _resolve_ref(ref, channels: dict[str, KrausChannel], where: str) -> KrausChannel:
    if not isinstance(ref, str) or ref not in channels:
        raise UnknownChannelRef(f"{where}: unknown channel {ref!r}")
    return channels[ref]


def parse_experiment(text: str) -> ExperimentSpec:
    """Read and check every field once; every channel must pass validation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("document nested too deeply to read") from None
    _require(isinstance(doc, dict), "top level must be an object")
    kind = doc.get("kind")
    _require(kind in EXPERIMENT_KINDS, f"kind must be one of {EXPERIMENT_KINDS}")

    channel_defs = doc.get("channels", {})
    _require(isinstance(channel_defs, dict), "channels: expected an object")
    channels: dict[str, KrausChannel] = {}
    for name, obj in sorted(channel_defs.items()):
        channels[name] = _parse_channel_def(name, obj)

    return ExperimentSpec(
        kind=kind,
        channels=channels,
        payload=dict(doc),
        tolerance=_tolerance(doc.get("tolerance", 1e-9), "tolerance"),
        seed=_at_least(doc.get("seed", 0), "seed", 0),
        spec_hash=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        run=_PARSERS[kind](doc, channels),
    )


# ---------------------------------------------------------------------------
# Experiment kinds: each parser reads its fields and returns run(rng)
# ---------------------------------------------------------------------------


def _parse_teleport(doc: dict, channels: dict[str, KrausChannel]) -> Runner:
    eps = _resolve_ref(doc.get("resource_noise"), channels, "resource_noise")
    inputs = doc.get("inputs", {"random": 1})
    if isinstance(inputs, dict):
        _require("random" in inputs, "inputs: expected {'random': N} or a list")
        states, n_random = [], _at_least(inputs["random"], "inputs.random", 1)
    else:
        _require(isinstance(inputs, list) and inputs, "inputs: empty list")
        states = [_parse_state(st, f"inputs[{i}]") for i, st in enumerate(inputs)]
        n_random = 0

    def run(rng, select) -> list[CaseResult]:
        rhos = states + [_random_density(rng) for _ in range(n_random)]
        pauli = is_pauli_channel(eps)
        resource = diagonal_resource(eps)
        cases = []
        for (idx, rho), s, t in product(enumerate(rhos), range(2), range(2)):
            if pauli:
                closed = pauli_corrected_target(eps, rho, s, t)
            else:
                closed = teleport_branch(resource, rho, s, t)
            orac = oracle.teleport_oracle_state(eps, rho, s, t)
            cases.append(_case(f"input{idx}:s{s}t{t}", closed, orac))
        return select(cases)

    return run


_SLOTS = ("alpha1", "alpha2", "alpha3", "alpha4")


def _parse_phi(obj, step_index: int, where: str) -> tuple[float, tuple[int, ...]]:
    """A chain angle as (magnitude, flip_on); a plain number flips on nothing."""
    if isinstance(obj, dict) and "magnitude" in obj:
        magnitude = _finite(obj["magnitude"], f"{where}.magnitude")
        flips = obj.get("flip_on", [])
        _require(isinstance(flips, list), f"{where}.flip_on: expected a list")
        flip_on = tuple(_integer(j, f"{where}.flip_on[{n}]") for n, j in enumerate(flips))
        for n, j in enumerate(flip_on):
            _require(
                0 <= j < step_index,
                f"{where}.flip_on[{n}] must name an earlier step, got {j}",
            )
        return magnitude, flip_on
    if isinstance(obj, dict):
        raise ParseError(f"{where}: expected a number or {{magnitude, flip_on}}")
    return _finite(obj, where), ()


def _parse_block_chain(doc: dict, channels: dict[str, KrausChannel]) -> Runner:
    chain = doc.get("chain")
    suite = doc.get("random_suite")
    _require(
        (chain is None) != (suite is None),
        "block_chain needs exactly one of 'chain' or 'random_suite'",
    )
    if suite is not None:
        return _parse_block_random_suite(suite)

    _require(isinstance(chain, list) and chain, "chain must be nonempty")
    # per step: (magnitude, flip_on) or None for a Z step, its k axis, its noise
    steps = []
    for i, entry in enumerate(chain):
        where = f"chain[{i}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        z = entry.get("z", False)
        _require(isinstance(z, bool), f"{where}.z: expected a boolean, got {z!r}")
        _require(not (z and "phi" in entry), f"{where}.phi: a Z step takes no angle")
        phi = None if z else _parse_phi(entry.get("phi", 0.0), i, f"{where}.phi")
        ks = _outcomes(
            entry.get("k", "both"), f"{where}.k", f"{where}.k must be 0, 1 or 'both'"
        )
        alphas = {
            slot: _resolve_ref(entry[slot], channels, f"{where}.{slot}")
            for slot in _SLOTS
            if entry.get(slot) is not None
        }
        _require(
            not (z and alphas),
            f"{where}: a Z step takes no noise, got {', '.join(alphas)}",
        )
        steps.append((phi, ks, alphas))
    rho0 = _parse_state(doc.get("input", "plus"), "input")

    def run(rng, select) -> list[CaseResult]:
        # a step's channel depends only on (step, MeasSpec): at most four per step
        composed: dict[tuple[int, MeasSpec], KrausChannel] = {}
        cases = []

        def walk(outcomes: tuple[int, ...], closed: np.ndarray, live: np.ndarray):
            """Cases below the prefix ``outcomes``, whose closed-form output is
            ``closed`` and whose oracle leaves ``live`` on site len(outcomes)."""
            i = len(outcomes)
            if i == len(steps):
                cases.append(_case("k=" + "".join(map(str, outcomes)), closed, live))
                return
            phi, ks, alphas = steps[i]
            for k in ks:
                if phi is None:
                    meas = MeasSpec.z(k)
                else:
                    magnitude, flip_on = phi
                    sign = -1.0 if sum(outcomes[j] for j in flip_on) % 2 else 1.0
                    meas = MeasSpec.equatorial(sign * magnitude, k)
                cfg = BlockNoiseConfig(meas=meas, **alphas)
                step = composed.get((i, meas))
                if step is None:
                    step = compose_block_noise(cfg)
                    composed[i, meas] = step
                circuit = [oracle.PrepState(i, live), *oracle.block_step_ops(cfg, i)]
                walk(
                    (*outcomes, k),
                    apply(step, closed),
                    oracle.simulate(len(steps) + 1, circuit),
                )

        walk((), rho0, rho0)
        return select(cases)

    return run


def _parse_block_random_suite(suite) -> Runner:
    _require(isinstance(suite, dict), "random_suite: expected {'cases': N}")
    n_cases = _at_least(suite.get("cases", 0), "random_suite.cases", 1)
    n_kraus = _at_least(suite.get("kraus", 2), "random_suite.kraus", 1)

    def run(rng, select) -> list[CaseResult]:
        cases = []
        for i in range(n_cases):
            phi = float(rng.uniform(0.0, 2.0 * np.pi))
            alphas = {slot: random_channel(rng, n_kraus) for slot in _SLOTS}
            for k in (0, 1):
                cfg = BlockNoiseConfig(meas=MeasSpec.equatorial(phi, k), **alphas)
                closed = choi(compose_block_noise(cfg))
                orac = oracle.block_oracle_channel(cfg)
                cases.append(_case(f"cfg{i}:k{k}", closed, orac))
        return select(cases)

    return run


def _parse_mpo(doc: dict, channels: dict[str, KrausChannel]) -> Runner:
    builder = doc.get("builder")
    shape = "builder: expected {'name': cluster|maximally_mixed|one_clean, 'n': N}"
    _require(
        isinstance(builder, dict)
        and builder.get("name") in ("cluster", "maximally_mixed", "one_clean"),
        shape,
    )
    name, n = builder["name"], _integer(builder.get("n", 0), "builder.n")
    _require(n >= 1, shape)
    _require(name != "cluster" or n >= 2, "builder: a cluster needs at least 2 sites")
    limit = oracle.max_oracle_qubits() - (name == "one_clean")  # its clean qubit
    _require(n <= limit, f"builder.n must be <= {limit} for {name} (register cap)")
    sites = n + (name == "one_clean")  # the register; its last site is the boundary
    site_ops = doc.get("site_ops", [])
    _require(isinstance(site_ops, list), "site_ops: expected a list")
    readouts = doc.get("measurements", [])
    _require(isinstance(readouts, list), "measurements: expected a list")
    save = doc.get("save_mpo")
    _require(save is None or isinstance(save, str), "save_mpo: expected a path")

    events = []  # (pauli|unitary|channel, site, [a, b] | matrix | channel)
    for i, op in enumerate(site_ops):
        where = f"site_ops[{i}]"
        _require(isinstance(op, dict) and "site" in op, f"{where}: needs a site")
        kinds = [k for k in ("pauli", "unitary", "channel") if k in op]
        _require(len(kinds) == 1, f"{where}: exactly one of pauli/unitary/channel")
        site = _integer(op["site"], f"{where}.site")
        _require(
            0 <= site < sites - 1,
            f"{where}.site must be in 0..{sites - 2} (site {sites - 1} is the "
            f"boundary, which takes no events), got {site}",
        )
        if "pauli" in op:
            _require(
                isinstance(op["pauli"], list) and len(op["pauli"]) == 2,
                f"{where}.pauli: expected [a, b]",
            )
            value = tuple(_integer(x, f"{where}.pauli") for x in op["pauli"])
            _require(
                set(value) <= {0, 1}, f"{where}.pauli: expected a pair of bits, got {value}"
            )
        elif "unitary" in op:
            value = _unitary(op["unitary"], f"{where}.unitary")
        else:
            value = _resolve_ref(op["channel"], channels, f"{where}.channel")
        events.append((kinds[0], site, value))

    measurements = []  # (site, basis kets, outcome axis)
    for i, m in enumerate(readouts):
        where = f"measurements[{i}]"
        shape = f"{where}: expected site, basis x|z, outcome 0|1|'both'"
        basis = m.get("basis", "x") if isinstance(m, dict) else None
        _require(basis in ("x", "z") and "site" in m, shape)
        site = _integer(m["site"], f"{where}.site")
        _require(0 <= site < sites, f"{where}.site must be in 0..{sites - 1}, got {site}")
        _require(
            all(site != other for other, _, _ in measurements),
            f"{where}.site: site {site} is measured twice",
        )
        ks = _outcomes(m.get("outcome", "both"), f"{where}.outcome", shape)
        kets = (dm.PLUS, dm.MINUS) if basis == "x" else (dm.KET0, dm.KET1)
        measurements.append((site, kets, ks))

    def run(rng, select) -> list[CaseResult]:
        if name == "cluster":
            state = mpo_mod.mpo_cluster(n)
            preps: list = [oracle.PrepPlus(i) for i in range(n)]
        elif name == "maximally_mixed":
            state = mpo_mod.mpo_maximally_mixed(n)
            preps = [oracle.PrepState(i, 0.5 * dm.I2) for i in range(n)]
        else:
            state = mpo_mod.mpo_one_clean(n)
            preps = [oracle.PrepState(0, dm.projector(dm.KET0))]
            preps += [oracle.PrepState(i + 1, 0.5 * dm.I2) for i in range(n)]

        # every prep first, so the peak register is the full one; then per
        # site its CZ to the right, its events and (per branch) its readout
        steps = [
            [oracle.CZ(j, j + 1)] if name == "cluster" and j < n - 1 else []
            for j in range(sites)
        ]
        for kind, site, value in events:
            if kind == "pauli":
                state = mpo_mod.mpo_apply_pauli(state, site, value)
                steps[site].append(oracle.Unitary1Q(site, basis_element(*value)))
            elif kind == "unitary":
                state = mpo_mod.mpo_apply_unitary(state, site, value)
                steps[site].append(oracle.Unitary1Q(site, value))
            else:
                state = mpo_mod.mpo_apply_channel(state, site, value)
                steps[site].append(oracle.Channel1Q(site, value))

        cases = []
        for ks in product(*(axis for _, _, axis in measurements)):
            branch_state = state
            readouts = {}
            for (site, kets, _), k in zip(measurements, ks):
                branch_state = mpo_mod.mpo_measure(branch_state, site, kets[k])
                readouts[site] = oracle.Measure(site, kets[k])
            circuit = list(preps)
            for j, step in enumerate(steps):
                circuit += step
                if j in readouts:
                    circuit.append(readouts[j])
            closed = mpo_mod.mpo_contract(branch_state)
            orac = oracle.simulate(state.n_sites, circuit)
            cases.append(_case("m=" + "".join(str(k) for k in ks), closed, orac))

        # written once every case has run and --cases selected some, so a
        # failed case or an empty selection leaves no file
        cases = select(cases)
        if save:
            try:
                with open(save, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(mpo_mod.mpo_to_dict(state)))
            except OSError as exc:
                raise ParseError(f"save_mpo: cannot write: {exc}") from exc
        return cases

    return run


_PARSERS = {
    "teleport": _parse_teleport,
    "block_chain": _parse_block_chain,
    "mpo": _parse_mpo,
}
EXPERIMENT_KINDS = tuple(_PARSERS)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_experiment(
    spec: ExperimentSpec,
    tolerance: float | None = None,
    seed: int | None = None,
    case_filter: str | None = None,
) -> Report:
    """Execute closed-form and oracle paths for every case of the spec."""
    tol = spec.tolerance if tolerance is None else _tolerance(tolerance, "tolerance")
    rng_seed = spec.seed if seed is None else _at_least(seed, "seed", 0)
    rng = np.random.default_rng(rng_seed)

    def select(cases: list[CaseResult]) -> list[CaseResult]:
        kept = [c for c in cases if case_filter is None or case_filter in c.case_id]
        _require(
            bool(kept) or not cases,
            f"--cases {case_filter!r} matches none of the {len(cases)} cases",
        )
        return kept

    return Report(
        cases=spec.run(rng, select),
        tolerance=tol,
        seed=rng_seed,
        spec_hash=spec.spec_hash,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _case(case_id: str, closed: np.ndarray, orac: np.ndarray) -> CaseResult:
    return CaseResult(
        case_id=case_id,
        closed_form=closed,
        oracle=orac,
        max_entry_diff=dm.max_abs_diff(closed, orac),
        trace_distance=dm.trace_distance(closed, orac),
        branch_prob=float(np.trace(closed).real),
    )


def _random_density(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _report_skeleton(report: Report, leaf) -> dict:
    """The report layout, with ``leaf(matrix)`` at each matrix."""
    return {
        "meta": {
            "spec_sha256": report.spec_hash,
            "seed": report.seed,
            "timestamp": report.timestamp,
        },
        "tolerance": report.tolerance,
        "cases": [
            {
                "case": c.case_id,
                "closed_form": leaf(c.closed_form),
                "oracle": leaf(c.oracle),
                "max_entry_diff": c.max_entry_diff,
                "trace_distance": c.trace_distance,
                "branch_prob": c.branch_prob,
                "pass": c.max_entry_diff <= report.tolerance,
            }
            for c in report.cases
        ],
        "summary": {
            "n_cases": len(report.cases),
            "max_entry_diff": report.max_entry_diff,
            "pass": report.passed,
        },
    }


def report_to_dict(report: Report) -> dict:
    return _report_skeleton(report, dm.mat_to_json)


# a matrix leaf in the layout text; a quote inside string data is always
# escaped, so a key's closing quote then ": null" appears only at the leaves
_LEAF = re.compile(r'(?<="closed_form": )null|(?<="oracle": )null')


def _report_chunks(report: Report):
    """The text of ``json.dumps(report_to_dict(report), indent=2)``, in pieces.

    ``json`` writes the layout with null at each matrix leaf; the text is split
    there and the matrices are streamed in between, row by row.  Their entries
    become int64 views (re, im interleaved along each row).  Each distinct bit
    pattern is formatted once, by one ``json.dumps`` of a list (the C
    encoder), so ``-0.0``, NaN and the infinities read exactly as the
    pure-Python encoder writes them.
    """
    mats = [
        np.ascontiguousarray(m, dtype=complex).view(np.int64)
        for c in report.cases
        for m in (c.closed_form, c.oracle)
    ]
    bits = dict.fromkeys(chain.from_iterable(m.ravel().tolist() for m in mats))
    floats = np.array(list(bits), dtype=np.int64).view(np.float64).tolist()
    text = dict(zip(bits, json.dumps(floats)[1:-1].split(", ")))
    pieces = _LEAF.split(json.dumps(_report_skeleton(report, lambda m: None), indent=2))
    yield pieces[0]
    for m, piece in zip(mats, pieces[1:], strict=True):
        yield from _matrix_chunks(m.tolist(), text, "\n      ")  # a case's keys' pad
        yield piece


def _matrix_chunks(rows: list, text: dict, pad: str):
    """One piece per row of a matrix leaf: its [re, im] pairs, indented."""
    if not (rows and rows[0]):
        yield json.dumps(rows, indent=2).replace("\n", pad)
        return
    a, b, c = pad + "  ", pad + "    ", pad + "      "
    pair = "[" + c + "%s," + c + "%s" + b + "]"
    row = "[" + b + ("," + b).join([pair] * (len(rows[0]) // 2)) + a + "]"
    lead = "[" + a
    for bits in rows:
        yield lead + row % tuple(map(text.__getitem__, bits))
        lead = "," + a
    yield pad + "]"


CSV_COLUMNS = ("case", "branch_prob", "max_entry_diff", "trace_distance", "pass")


def emit_report(report: Report, fmt: str, path: str) -> None:
    """Write a report as JSON (full matrices) or CSV (scalar columns)."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_report_chunks(report))
            fh.write("\n")
        return
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for c in report.cases:
                writer.writerow(
                    [
                        c.case_id,
                        repr(c.branch_prob),
                        repr(c.max_entry_diff),
                        repr(c.trace_distance),
                        c.max_entry_diff <= report.tolerance,
                    ]
                )
        return
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

# every library precondition error subclasses one of these (ParseError,
# UnknownChannelRef, NotAChannel, ZBasisUnsupported, SizeLimit, ... are
# ValueErrors; SiteOutOfRange is an IndexError)
_SPEC_ERRORS = (ValueError, IndexError)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisy-mbqc",
        description="Run noise-propagation experiments against the density-matrix oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment document")
    runp.add_argument("spec", help="path to the experiment JSON")
    runp.add_argument("--out", help="report path (.json or .csv)")
    runp.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    runp.add_argument("--tol", type=float, default=None, help="override the tolerance")
    runp.add_argument("--cases", default=None, help="only run cases whose id contains this")
    args = parser.parse_args(argv)

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2

    try:
        spec = parse_experiment(text)
        report = run_experiment(
            spec, tolerance=args.tol, seed=args.seed, case_filter=args.cases
        )
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for c in report.cases:
        verdict = "ok" if c.max_entry_diff <= report.tolerance else "FAIL"
        print(
            f"{c.case_id}: prob={c.branch_prob:.6f} "
            f"max_diff={c.max_entry_diff:.3e} tdist={c.trace_distance:.3e} {verdict}"
        )
    print(
        f"summary: {len(report.cases)} cases, worst max_diff="
        f"{report.max_entry_diff:.3e}, tolerance={report.tolerance:.1e} -> "
        f"{'PASS' if report.passed else 'FAIL'}"
    )

    if args.out:
        fmt = "csv" if args.out.endswith(".csv") else "json"
        try:
            emit_report(report, fmt, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
