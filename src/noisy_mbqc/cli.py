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
``{"random": N}`` or a list of state specs (an alias ``"plus"``, ``"zero"``,
``"one"`` or ``"minus"``, also as ``{"state": alias}``, or a 2x2 ``{"matrix":
[...]}``, Hermitian, positive and of trace 1 within ``densemath.ATOL``).  One
case per input and Bell outcome.  The closed form makes one call per Bell
outcome (s, t), four in all, each on the (N, 2, 2) stack of every input:
``teleport.pauli_corrected_target`` for a Pauli resource, else
``teleport.teleport_branch`` on the resource; its memory grows with N like
the oracle's own (N, 8, 8) state, which one ``oracle.teleport_oracle_state``
call forks over both readouts.

Kind ``block_chain``: either ``chain`` (a list of step entries, run on the
state spec ``input``, default ``"plus"``) or ``random_suite`` (``{"cases": N,
"kraus": 2}``, comparing composed Choi matrices against the oracle for random
noise at all four locations).  A chain entry reads ``{"phi": 0.3, "k":
0|1|"both", "alpha1": "name", ...}`` or ``{"z": true, "k": ...}``, where ``z``
is a JSON boolean (default false) and a Z step names no phi or alpha slot;
``phi`` may also be an adaptive sign table ``{"magnitude": x, "flip_on":
[earlier step indices]}``, resolved to x * (-1)^(sum of those outcomes) per
outcome string.  One case per outcome string, in product order; states are
compared unnormalised so traces carry branch probabilities.  The oracle runs
a step as two-qubit circuits, ``oracle.block_step_ops`` after the previous
output on site 0, so a chain of any length holds two qubits.  Both paths grow
the outcome strings' prefix tree one step at a time and compose each distinct
step once: an L-step chain costs 2^(L+1) - 2 step evaluations.  Each path
keeps a level's prefixes as one (prefixes, 2, 2) stack.  The closed form makes
one ``channels.apply`` call per distinct step channel of the level, at most
four, on the stack of the prefixes it follows.  The oracle runs each step as
one ``oracle.simulate`` call: every prefix is one prep stack, and the readout,
on the site ``block_step_ops`` reads out, forks over a (sign, k) stack of kets,
one per sign of the angle and outcome the step needs, at most four.

Kind ``mpo``: ``builder`` is ``{"name": "cluster"|"maximally_mixed"|
"one_clean", "n": N}``, n sites (n+1 for ``one_clean``), whose open sites
plus ``"both"`` readouts must not exceed ``NOISY_MBQC_MAX_QUBITS``;
``site_ops`` lists single-site events on sites before the last (the
boundary): ``{"site": i, "pauli": [a, b]}`` with bits a, b, ``{"site": i,
"unitary": [...]}`` or ``{"site": i, "channel": "name"}``; ``measurements``
lists ``{"site": i, "basis": "x"|"z", "outcome": 0|1|"both"}``, each site of
the register at most once.  The MPO side measures each outcome prefix once,
in document order, and its contractions agree with the dense simulation where
the MPO event rule is exact (``noisy_mbqc.mpo``): Pauli events and channels
anywhere, one unitary or channel per cluster site, one unitary on site 0 of
``one_clean``.  The oracle circuit is built once, at parse: it prepares every
site, then runs per site, in ascending order, the CZ to the next site
(cluster), the site's events in document order and its readout; the oracle
joins a prepared site only when an op first touches it, so the live register
holds the open sites and the few around the next readout.  A ``"both"``
readout forks over its two kets, a fixed one reads its one ket, and the fork
axes are put into the document's measurement order, so every outcome string's
oracle output comes from one ``oracle.simulate`` call.  An optional
``save_mpo`` path, a non-empty string, stores the prepared (pre-measurement)
operator as ``mpo.mpo_to_dict`` writes it, ``{"seed": [[re, im] rows],
"sites": [{"matrices": [P][S][rows][cols] of [re, im]}, ...]}`` (the last
site, the boundary, as 1 x D rows), once every case has run and ``--cases``
has selected at least one.

Integer fields (``seed``, ``inputs.random``, ``random_suite.cases``/``kraus``,
``builder.n``, sites, a chain entry's ``k``, ``flip_on`` entries, an ``outcome``)
take an integer or an integral float; null, booleans, strings and fractions are
bad input.  Number fields (``tolerance``, ``p``, ``phi``, ``magnitude``, matrix
entries) reject booleans and strings; ``phi``, ``magnitude`` and matrix entries
must be finite.
A custom channel has ``dim`` 2 (the default) and a non-empty list of 2x2 ops.
Every object names only the keys its reader reads (a channel definition
``builtin`` and its ``p`` and ``matrix``, or ``dim`` and ``ops``); any other
key, at the top level or in a chain step, is bad input, never dropped, and
so is a key repeated in one object.
The ``matrix`` of a ``unitary`` or ``mixed_unitary`` builtin and a site
``unitary`` are 2x2 with U^dag U within ``densemath.ATOL`` of I.

``parse_experiment`` reads and checks every field once, before any MPO, oracle
or file work, and returns the spec with its kind's ``run(rng)``; the runner
reads no field of the document.

Reports: every runner scores its cases once, as (N, d, d) stacks of closed
forms and oracle outputs (``densemath.max_abs_diff`` and ``trace_distance``
give one value per matrix).  The JSON and CSV writers and the console lines
all read one view of a report, whose verdict per case is ``Report.ok``.
``--out`` writes CSV when the path ends in ``.csv``, else JSON (``"format":
2``; a case's ``oracle`` matrix only when it fails) as
``json.dumps(report_to_dict(report), indent=2)`` plus a final newline: floats
read as their ``repr`` (``NaN``, ``Infinity``, ``-Infinity`` when not
finite), and two runs of one document give byte-identical reports apart from
``meta.timestamp``.  The JSON writer reaches those bytes with json's own
encoders: ``json.dumps(..., indent=2)`` lays out the view without its cases
and the C encoder each case, every matrix leaf null; each matrix is streamed
into its leaf, and one ``json.dumps`` of a list formats its distinct floats.

Exit codes: 0 all cases within tolerance, 1 a case exceeded it, 2 the
document or a module precondition was at fault (a document that needs more
memory than exists included), or ``--cases`` selected no case.
``NOISY_MBQC_MAX_QUBITS``, an integer of at least 1 (default 12), caps the
qubits one dense state holds: the oracle's live sites (two in a chain step) and
an MPO contraction's open ones.
At parse it also caps log2 of a document's case count: a chain's forking steps,
log2(4N) for a teleport of N inputs, log2(2N) for a random suite of N cases and,
for ``mpo``, its forking readouts, counted with its open sites.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import numbers
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import product

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
from .errors import DimensionMismatch, NotAChannel, NotUnitary, ParseError, UnknownChannelRef
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

    channels: dict[str, KrausChannel]
    payload: dict  # the document as read
    run: Runner  # the selected cases, from the parsed fields; reads no field again
    tolerance: float
    seed: int
    spec_hash: str


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
    cases: list[CaseResult]
    tolerance: float
    seed: int
    spec_hash: str
    timestamp: str

    def ok(self, case: CaseResult) -> bool:
        """The one verdict on a case: its max-entry difference within tolerance."""
        return bool(case.max_entry_diff <= self.tolerance)

    @property
    def max_entry_diff(self) -> float:
        """The largest case difference, 0.0 for no case; NaN if any case's is."""
        diffs = [c.max_entry_diff for c in self.cases]
        return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)

    @property
    def passed(self) -> bool:
        return all(map(self.ok, self.cases))


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
    _require(isinstance(obj, dict), f"{where}: expected an object")
    try:
        if "builtin" in obj:
            builtin = obj["builtin"]
            if not isinstance(builtin, str) or builtin not in _BUILTINS:
                raise ParseError(f"{where}: unknown builtin {builtin!r}")
            fields, make = _BUILTINS[builtin]
            what, reads = f"builtin {builtin!r}", ("builtin", *fields)
            for key in fields:
                _require(key in obj, f"{where}.{key}: missing ({what} reads {key})")
            read = {"p": _probability, "matrix": _unitary}
            channel = make(*(read[key](obj[key], f"{where}.{key}") for key in fields))
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
    except TypeError as exc:
        raise ParseError(f"{where}: malformed definition ({exc})") from exc
    except NotAChannel as exc:
        raise NotAChannel(f"{where}: {exc}") from exc
    _only(obj, reads, where, what)
    return channel


def _only(obj: dict, reads, where: str, what: str) -> None:
    """Refuse, rather than drop, a key of ``obj`` that its reader does not read."""
    for key in obj:
        path = f"{where}.{key}" if where else key
        _require(key in reads, f"{path}: not a field of {what}")


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
    try:
        m = dm.mat_from_json(obj)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None
    _require(m.ndim == 2, f"{where}: expected a matrix of [re, im] pairs")
    _require(np.isfinite(m).all(), f"{where}: matrix entries must be finite")
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
    if isinstance(obj, dict) and "state" in obj:
        _only(obj, ("state",), where, "a state")
        obj, where = obj["state"], f"{where}.state"
        _require(isinstance(obj, str), f"{where}: expected a state alias")
    if isinstance(obj, str):
        _require(obj in _STATES, f"{where}: unknown state alias {obj!r}")
        return _STATES[obj].copy()
    if isinstance(obj, dict) and "matrix" in obj:
        _only(obj, ("matrix",), where, "a state")
        rho = _matrix(obj["matrix"], f"{where}.matrix")
        _require(rho.shape == (2, 2), f"{where}.matrix: expected a 2x2 matrix")
        if not (dm.is_psd(rho) and abs(np.trace(rho).real - 1.0) <= dm.ATOL):
            raise ParseError(f"{where}: matrix is not a normalised state")
        return rho
    raise ParseError(f"{where}: expected a state alias or a matrix")


def _object(pairs: list) -> dict:
    """A JSON object; a repeated key is bad input, never a value dropped."""
    obj = {}
    for key, value in pairs:
        _require(key not in obj, f"{key}: repeated key")
        obj[key] = value
    return obj


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _case_cap(n_cases: int, where: str, got: str) -> None:
    """Refuse, at parse, a document of more than 2^cap cases: the qubit cap
    bounds the cases too, as each case's work and report grow with their count."""
    cap = dm.max_qubits()
    _require(
        (n_cases - 1).bit_length() <= cap,  # n_cases <= 2**cap, without the power
        f"{where}: the cases must number <= 2^{cap} (NOISY_MBQC_MAX_QUBITS), got {got}",
    )


def _resolve_ref(ref, channels: dict[str, KrausChannel], where: str) -> KrausChannel:
    if not isinstance(ref, str) or ref not in channels:
        raise UnknownChannelRef(f"{where}: unknown channel {ref!r}")
    return channels[ref]


def parse_experiment(text: str) -> ExperimentSpec:
    """Read and check every field once; every channel must pass validation."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
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


_SLOTS = ("alpha1", "alpha2", "alpha3", "alpha4")
_COMMON = ("kind", "tolerance", "seed", "channels")  # the fields every kind reads


def _parse_teleport(doc: dict, channels: dict[str, KrausChannel]) -> Runner:
    _only(doc, (*_COMMON, "resource_noise", "inputs"), "", "a teleport document")
    eps = _resolve_ref(doc.get("resource_noise"), channels, "resource_noise")
    inputs = doc.get("inputs", {"random": 1})
    if isinstance(inputs, dict):
        _require("random" in inputs, "inputs: expected {'random': N} or a list")
        _only(inputs, ("random",), "inputs", "random inputs")
        states, n_random = [], _at_least(inputs["random"], "inputs.random", 1)
    else:
        _require(isinstance(inputs, list) and inputs, "inputs: empty list")
        states = [_parse_state(st, f"inputs[{i}]") for i, st in enumerate(inputs)]
        n_random = 0
    n_inputs = len(states) + n_random
    where = "inputs.random" if n_random else "inputs"
    _case_cap(4 * n_inputs, where, f"4 * {n_inputs} (4 Bell outcomes per input)")

    def run(rng, select) -> list[CaseResult]:
        rhos = np.stack(states + [_random_density(rng) for _ in range(n_random)])
        if is_pauli_channel(eps):
            branch = functools.partial(pauli_corrected_target, eps)
        else:
            branch = functools.partial(teleport_branch, diagonal_resource(eps))
        outputs = oracle.teleport_oracle_state(eps, rhos)
        # one call per Bell outcome over the input stack: closed[input, s, t]
        bells = list(product(range(2), range(2)))
        closed = np.stack([branch(rhos, s, t) for s, t in bells], axis=1)
        ids = [f"input{i}:s{s}t{t}" for i in range(len(rhos)) for s, t in bells]
        return select(_cases(ids, closed.reshape(-1, 2, 2), outputs.reshape(-1, 2, 2)))

    return run


def _parse_phi(obj, step_index: int, where: str) -> tuple[float, tuple[int, ...]]:
    """A chain angle as (magnitude, flip_on); a plain number flips on nothing."""
    if not isinstance(obj, dict):
        return _finite(obj, where), ()
    _require("magnitude" in obj, f"{where}: expected a number or {{magnitude, flip_on}}")
    _only(obj, ("magnitude", "flip_on"), where, "an adaptive angle")
    magnitude = _finite(obj["magnitude"], f"{where}.magnitude")
    flips = obj.get("flip_on", [])
    _require(isinstance(flips, list), f"{where}.flip_on: expected a list")
    flip_on = tuple(_integer(j, f"{where}.flip_on[{n}]") for n, j in enumerate(flips))
    for n, j in enumerate(flip_on):
        _require(
            0 <= j < step_index, f"{where}.flip_on[{n}] must name an earlier step, got {j}"
        )
    return magnitude, flip_on


def _parse_block_chain(doc: dict, channels: dict[str, KrausChannel]) -> Runner:
    chain = doc.get("chain")
    suite = doc.get("random_suite")
    _require(
        (chain is None) != (suite is None),
        "block_chain needs exactly one of 'chain' or 'random_suite'",
    )
    if suite is not None:
        _only(doc, (*_COMMON, "random_suite"), "", "a random_suite document")
        return _parse_block_random_suite(suite)

    _only(doc, (*_COMMON, "chain", "input"), "", "a chain document")
    _require(isinstance(chain, list) and chain, "chain must be nonempty")
    # per step: (magnitude, flip_on) or None for a Z step, its k axis, its noise
    steps = []
    for i, entry in enumerate(chain):
        where = f"chain[{i}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        _only(entry, ("z", "phi", "k", *_SLOTS), where, "a chain step")
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
    forks = sum(len(ks) == 2 for _, ks, _ in steps)
    _case_cap(2**forks, "chain", f"2^{forks} ({forks} forking steps)")
    rho0 = _parse_state(doc.get("input", "plus"), "input")

    def run(rng, select) -> list[CaseResult]:
        # the prefixes of one length: their outcome strings, in product order,
        # and their closed forms and oracle outputs as (prefixes, 2, 2) stacks
        strings, closed, live = [()], rho0[None], rho0[None]
        for phi, ks, alphas in steps:
            # a prefix's outcomes set only the sign of the step's angle: a level
            # reads out a ket per (sign, k), at most four; a -0.0 angle keeps its own
            signs = [
                -1.0 if phi and sum(outcomes[j] for j in phi[1]) % 2 else 1.0
                for outcomes in strings
            ]
            groups = list(dict.fromkeys(signs))
            specs = [
                [MeasSpec.equatorial(s * phi[0], k) if phi else MeasSpec.z(k) for k in ks]
                for s in groups
            ]
            # a step's channel depends only on its MeasSpec: at most four per step
            composed = {
                meas: compose_block_noise(BlockNoiseConfig(meas=meas, **alphas))
                for meas in dict.fromkeys(m for row in specs for m in row)
            }
            # one oracle call: every prefix stacked, the readout forking over every
            # ket of the level; each prefix keeps the outputs of its own sign
            *body, last = oracle.block_step_ops(BlockNoiseConfig(meas=specs[0][0], **alphas))
            kets = np.stack([[m.ket for m in row] for row in specs])  # (sign, k, 2)
            lives = oracle.PrepState(0, live)
            outs = oracle.simulate(2, [lives, *body, oracle.Measure(last.site, kets)])
            at = np.array([groups.index(s) for s in signs])  # each prefix's sign group
            live = outs[np.arange(len(at)), at]  # (prefix, k, 2, 2)
            grown = np.empty_like(live)
            for meas, channel in composed.items():  # one apply per distinct channel
                uses = np.array([[m == meas for m in row] for row in specs])  # (sign, k)
                prefix, k = np.nonzero(uses[at])
                grown[prefix, k] = apply(channel, closed[prefix])
            strings = [(*outcomes, k) for outcomes in strings for k in ks]
            closed, live = grown.reshape(-1, 2, 2), live.reshape(-1, 2, 2)
        ids = ["k=" + "".join(map(str, outcomes)) for outcomes in strings]
        return select(_cases(ids, closed, live))

    return run


def _parse_block_random_suite(suite) -> Runner:
    _require(isinstance(suite, dict), "random_suite: expected {'cases': N}")
    _only(suite, ("cases", "kraus"), "random_suite", "a random suite")
    n_cases = _at_least(suite.get("cases", 0), "random_suite.cases", 1)
    n_kraus = _at_least(suite.get("kraus", 2), "random_suite.kraus", 1)
    _case_cap(2 * n_cases, "random_suite.cases", f"2 * {n_cases} (k = 0 and 1 per case)")

    def run(rng, select) -> list[CaseResult]:
        ids, closed, orac = [], [], []
        for i in range(n_cases):
            phi = float(rng.uniform(0.0, 2.0 * np.pi))
            alphas = {slot: random_channel(rng, n_kraus) for slot in _SLOTS}
            for k in (0, 1):
                cfg = BlockNoiseConfig(meas=MeasSpec.equatorial(phi, k), **alphas)
                ids.append(f"cfg{i}:k{k}")
                closed.append(choi(compose_block_noise(cfg)))
                orac.append(oracle.block_oracle_channel(cfg))
        return select(_cases(ids, np.stack(closed), np.stack(orac)))

    return run


def _parse_mpo(doc: dict, channels: dict[str, KrausChannel]) -> Runner:
    reads = (*_COMMON, "builder", "site_ops", "measurements", "save_mpo")
    _only(doc, reads, "", "an mpo document")
    builder = doc.get("builder")
    shape = "builder: expected {'name': cluster|maximally_mixed|one_clean, 'n': N}"
    _require(
        isinstance(builder, dict)
        and builder.get("name") in ("cluster", "maximally_mixed", "one_clean"),
        shape,
    )
    _only(builder, ("name", "n"), "builder", "a builder")
    name, n = builder["name"], _integer(builder.get("n", 0), "builder.n")
    _require(n >= 1, shape)
    _require(name != "cluster" or n >= 2, "builder: a cluster needs at least 2 sites")
    sites = n + (name == "one_clean")  # the register; its last site is the boundary
    site_ops = doc.get("site_ops", [])
    _require(isinstance(site_ops, list), "site_ops: expected a list")
    alone = "site_ops: the register has no site before the boundary, so it takes no events"
    _require(sites > 1 or not site_ops, alone)
    readouts = doc.get("measurements", [])
    _require(isinstance(readouts, list), "measurements: expected a list")
    save = doc.get("save_mpo")
    _require(
        save is None or (isinstance(save, str) and save != ""), "save_mpo: expected a path"
    )

    per_site: dict[int, list] = {}  # each site's events, then its readout
    updates = []  # (site, its mpo_apply_* update, the update's value), in document order
    for i, op in enumerate(site_ops):
        where = f"site_ops[{i}]"
        _require(isinstance(op, dict) and "site" in op, f"{where}: needs a site")
        _only(op, ("site", "pauli", "unitary", "channel"), where, "a site event")
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
            update = mpo_mod.mpo_apply_pauli
            gate = oracle.Unitary1Q(site, basis_element(*value))
        elif "unitary" in op:
            value = _unitary(op["unitary"], f"{where}.unitary")
            update, gate = mpo_mod.mpo_apply_unitary, oracle.Unitary1Q(site, value)
        else:
            value = _resolve_ref(op["channel"], channels, f"{where}.channel")
            update, gate = mpo_mod.mpo_apply_channel, oracle.Channel1Q(site, value)
        updates.append((site, update, value))
        per_site.setdefault(site, []).append(gate)

    measurements = {}  # site -> (basis kets, outcome axis), in document order
    for i, m in enumerate(readouts):
        where = f"measurements[{i}]"
        shape = f"{where}: expected site, basis x|z, outcome 0|1|'both'"
        basis = m.get("basis", "x") if isinstance(m, dict) else None
        _require(basis in ("x", "z") and "site" in m, shape)
        _only(m, ("site", "basis", "outcome"), where, "a measurement")
        site = _integer(m["site"], f"{where}.site")
        _require(0 <= site < sites, f"{where}.site must be in 0..{sites - 1}, got {site}")
        _require(site not in measurements, f"{where}.site: site {site} is measured twice")
        ks = _outcomes(m.get("outcome", "both"), f"{where}.outcome", shape)
        kets = (dm.PLUS, dm.MINUS) if basis == "x" else (dm.KET0, dm.KET1)
        measurements[site] = (kets, ks)
        ket = np.stack(kets) if len(ks) == 2 else kets[ks[0]]  # only "both" forks
        per_site.setdefault(site, []).append(oracle.Measure(site, ket))
    # each case is a dense state over the open sites; each fork doubles the cases
    forks = [site for site, (_, ks) in measurements.items() if len(ks) == 2]
    opened, cap = sites - len(measurements), dm.max_qubits()
    rule = f"open sites plus forking readouts must be <= {cap} (NOISY_MBQC_MAX_QUBITS)"
    _require(opened + len(forks) <= cap, f"builder.n: {rule}, got {opened} + {len(forks)}")

    # the one oracle circuit: every prep first, then per site its CZ to the
    # right, its events and its readout; simulate joins a prep only when an op
    # first touches its site, so the live register stays a few sites wide
    clean = name == "one_clean"  # a clean qubit 0 before the n mixed ones
    if name == "cluster":
        build = mpo_mod.mpo_cluster
        circuit: list = [oracle.PrepPlus(i) for i in range(n)]
    else:
        build = mpo_mod.mpo_one_clean if clean else mpo_mod.mpo_maximally_mixed
        circuit = [oracle.PrepState(0, dm.projector(dm.KET0))] * clean
        circuit += [oracle.PrepState(i + clean, 0.5 * dm.I2) for i in range(n)]
    for j in range(sites):
        if name == "cluster" and j < n - 1:
            circuit.append(oracle.CZ(j, j + 1))
        circuit += per_site.get(j, [])
    # fork axes come out in site order; order puts them in measurement order
    order = [sorted(forks).index(site) for site in forks]  # at most cap forks

    def run(rng, select) -> list[CaseResult]:
        # the oracle first: a register it refuses wastes no MPO work
        orac = oracle.simulate(sites, circuit)
        outs = orac.transpose(*order, -2, -1).reshape(-1, *orac.shape[-2:])
        state = build(n)
        for site, update, value in updates:
            state = update(state, site, value)
        branches = [((), state)]
        for site, (kets, axis) in measurements.items():  # each prefix once, product order
            branches = [
                ((*ks, k), mpo_mod.mpo_measure(branch, site, kets[k]))
                for ks, branch in branches
                for k in axis
            ]
        ids = ["m=" + "".join(map(str, ks)) for ks, _ in branches]
        closed = np.stack([mpo_mod.mpo_contract(branch) for _, branch in branches])
        cases = _cases(ids, closed, outs)

        # written once every case has run and --cases selected some, so a
        # failed case or an empty selection leaves no file
        cases = select(cases)
        if save is not None:
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


def _cases(ids: list[str], closed: np.ndarray, orac: np.ndarray) -> list[CaseResult]:
    """One case per id, from the (N, d, d) stacks of its closed forms and oracle
    outputs: each distance is one stacked call, which gives every case the bits
    a call of its own would."""
    diffs = dm.max_abs_diff(closed, orac).tolist()
    dists = dm.trace_distance(closed, orac).tolist()
    probs = np.trace(closed, axis1=-2, axis2=-1).real.tolist()
    rows = zip(ids, closed, orac, diffs, dists, probs, strict=True)
    return [CaseResult(*row) for row in rows]


def _random_density(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


_CLOSED, _ORACLE = "closed_form", "oracle"  # a case's matrix leaves


def _report_skeleton(report: Report, leaf=lambda m: None) -> dict:
    """The one view of a report that the JSON, CSV and console writers read,
    with ``leaf(matrix)`` at each matrix (null by default); a passing case has
    no ``oracle`` key, as a null there would read as a matrix leaf."""
    return {
        "format": 2,  # a report without this key is format 1: every oracle written
        "meta": {
            "spec_sha256": report.spec_hash,
            "seed": report.seed,
            "timestamp": report.timestamp,
        },
        "tolerance": report.tolerance,
        "cases": [
            {
                "case": c.case_id,
                _CLOSED: leaf(c.closed_form),
                **({} if report.ok(c) else {_ORACLE: leaf(c.oracle)}),
                "max_entry_diff": float(c.max_entry_diff),
                "trace_distance": float(c.trace_distance),
                "branch_prob": float(c.branch_prob),
                "pass": report.ok(c),
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
    """Format 2: a case holds ``oracle`` only when it fails; ``summary`` is last."""
    return _report_skeleton(report, dm.mat_to_json)


_PAD = "\n      "  # a case's keys' indent, at which its matrix leaves sit
_BLOCK_ROWS = 16  # matrix rows per piece handed to the file, so memory stays flat
# a case view holds only values, so the C encoder with these separators writes
# it as json.dumps(..., indent=2) does at a case's depth, bar its braces
_encode_case = json.JSONEncoder(separators=("," + _PAD, ": ")).encode
# a matrix leaf as json writes it, null; string data escapes its quotes, so no
# value can spell one
_LEAF = re.compile(f'("{_CLOSED}": |"{_ORACLE}": )null')


def _report_chunks(report: Report):
    """The text of ``json.dumps(report_to_dict(report), indent=2)``, in pieces.

    ``json.dumps(..., indent=2)`` lays out the report view without its cases,
    and the C encoder lays out each case, spliced in at ``"cases": []``.  The
    text is split at its null matrix leaves, and the matrices the view hands
    over in text order are streamed into them, a block of rows at a time.
    Their entries become int64 views (re, im interleaved along each row), one
    ``np.unique`` finds the distinct bit patterns of the report, and one
    ``json.dumps`` of a list (the C encoder) formats each distinct float once,
    so ``-0.0``, NaN and the infinities read as the pure-Python encoder writes
    them.
    """
    leaves: list[np.ndarray] = []
    view = _report_skeleton(report, leaves.append)
    cases, view["cases"] = view["cases"], []
    text = json.dumps(view, indent=2)
    if cases:  # json writes no case as [], a layout of its own
        body = ",\n    ".join("{" + _PAD + _encode_case(c)[1:-1] + "\n    }" for c in cases)
        text = text.replace('"cases": []', '"cases": [\n    ' + body + "\n  ]", 1)
    pieces = _LEAF.split(text)  # text, then (key, text) per leaf
    mats = [np.ascontiguousarray(m, dtype=complex).view(np.int64) for m in leaves]
    flat = np.concatenate([np.empty(0, np.int64), *(m.ravel() for m in mats)])
    bits, inverse = np.unique(flat, return_inverse=True)
    floats = json.dumps(bits.view(np.float64).tolist(), separators=("\n", ":"))
    cells = np.array(floats[1:-1].split("\n"), dtype=object)
    yield pieces[0]
    end = 0
    for m, key, piece in zip(mats, pieces[1::2], pieces[2::2], strict=True):
        start, end = end, end + m.size
        yield key
        yield from _matrix_chunks(m, cells[inverse[start:end]].tolist())
        yield piece


def _matrix_chunks(m: np.ndarray, cells: list[str]):
    """A matrix leaf's text, of the int64 view ``m`` and its formatted floats."""
    if not m.size:
        yield json.dumps(m.tolist(), indent=2).replace("\n", _PAD)
        return
    rows, width = m.shape
    for r in range(0, rows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, rows - r)
        yield _rows_template(width, n, r == 0) % tuple(cells[r * width : (r + n) * width])
    yield _PAD + "]"


@functools.lru_cache(maxsize=32)
def _rows_template(width: int, rows: int, first: bool) -> str:
    """``rows`` rows of ``width`` floats in [re, im] pairs, as a matrix leaf
    indents them, led by the leaf's ``[`` in its first block and ``,`` after."""
    a, b, c = _PAD + "  ", _PAD + "    ", _PAD + "      "
    pair = "[" + c + "%s," + c + "%s" + b + "]"
    row = "[" + b + ("," + b).join([pair] * (width // 2)) + a + "]"
    return ("[" if first else ",") + a + ("," + a).join([row] * rows)


CSV_COLUMNS = ("case", "branch_prob", "max_entry_diff", "trace_distance", "pass")


def emit_report(report: Report, path: str) -> None:
    """Write a report as CSV (scalar columns) when ``path`` ends in ``.csv``,
    else as JSON (matrices: every closed form, a failing case's oracle)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.endswith(".csv"):
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            cases = _report_skeleton(report)["cases"]
            writer.writerows([case[k] for k in CSV_COLUMNS] for case in cases)
        else:
            fh.writelines(_report_chunks(report))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

# every library precondition error subclasses one of these (ParseError,
# UnknownChannelRef, NotAChannel, ZBasisUnsupported, SizeLimit, ... are
# ValueErrors; SiteOutOfRange is an IndexError); a document that asks for
# more memory than exists (numpy refuses the array) is bad input too
_SPEC_ERRORS = (ValueError, IndexError, MemoryError)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built on the first call of :func:`main` and kept for
    the process: each ``parse_args`` starts from the defaults again."""
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
    runp.add_argument("--cases", help="report and judge only cases whose id contains this")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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

    view = _report_skeleton(report)
    for c in view["cases"]:
        print(
            f"{c['case']}: prob={c['branch_prob']:.6f} max_diff={c['max_entry_diff']:.3e} "
            f"tdist={c['trace_distance']:.3e} {'ok' if c['pass'] else 'FAIL'}"
        )
    summary = view["summary"]
    print(
        f"summary: {summary['n_cases']} cases, worst max_diff="
        f"{summary['max_entry_diff']:.3e}, tolerance={view['tolerance']:.1e} -> "
        f"{'PASS' if summary['pass'] else 'FAIL'}"
    )

    if args.out is not None:
        try:
            emit_report(report, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2

    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
