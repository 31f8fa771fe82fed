"""Span recorder the benchmark installs around the library's public functions.

Each wrapper replaces a module attribute at the name its callers look up
(``cli.choi`` for the runner's imported name, ``oracle.simulate`` for both
the runner and the oracle's own helpers), records one span per call and, for
a few functions, a count computed from the call's arguments.  ``uninstall``
puts every original back.  Spans stay in memory; ``layer_metrics`` reduces
them once the pass is over.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

# span name -> (module name, attribute); the span name is "<layer>.<what>"
WRAPPED = {
    "cli.parse": ("cli", "parse_experiment"),
    "cli.run": ("cli", "run_experiment"),
    "cli.report": ("cli", "emit_report"),
    "block.compose": ("cli", "compose_block_noise"),
    "channels.choi": ("cli", "choi"),
    "channels.apply": ("cli", "apply"),
    "teleport.branch": ("cli", "teleport_branch"),
    "teleport.corrected_target": ("cli", "pauli_corrected_target"),
    "teleport.resource": ("cli", "diagonal_resource"),
    "oracle.simulate": ("oracle", "simulate"),
    "oracle.block_channel": ("oracle", "block_oracle_channel"),
    "oracle.teleport": ("oracle", "teleport_oracle_state"),
    "mpo.contract": ("mpo", "mpo_contract"),
    "mpo.apply_pauli": ("mpo", "mpo_apply_pauli"),
    "mpo.apply_unitary": ("mpo", "mpo_apply_unitary"),
    "mpo.apply_channel": ("mpo", "mpo_apply_channel"),
    "mpo.measure": ("mpo", "mpo_measure"),
    "densemath.partial_trace": ("densemath", "partial_trace"),
    "densemath.trace_distance": ("densemath", "trace_distance"),
}
ROOT = "cli.main"
MPO_EVENTS = ("mpo.apply_pauli", "mpo.apply_unitary", "mpo.apply_channel", "mpo.measure")
TELEPORT = ("teleport.branch", "teleport.corrected_target", "teleport.resource")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children


@dataclass
class Recorder:
    """Spans and argument-derived counts of one worker process."""

    spans: list[Span] = field(default_factory=list)
    stack: list[Span] = field(default_factory=list)
    peak_qubits: int = 0
    state_bytes: int = 0
    output_entries: int = 0
    kraus_max: int = 0
    compose_keys: set = field(default_factory=set)
    compose_repeats: int = 0
    originals: dict = field(default_factory=dict)

    def call(self, name: str, fn, args, kwargs):
        span = Span(name, time.perf_counter())
        self.stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if self.stack:
                self.stack[-1].child_s += span.end - span.start
            self.spans.append(span)

    def wrap(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            return self.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts computed from the arguments a wrapper sees -----------------

    def count_simulate(self, n, ops, *_, **__):
        from noisy_mbqc import oracle

        live = 0
        for op in ops:
            if isinstance(op, (oracle.PrepPlus, oracle.PrepState)):
                live += 1
                self.peak_qubits = max(self.peak_qubits, live)
            elif isinstance(op, oracle.Unitary1Q):
                self.state_bytes += 16 * 4**live
            elif isinstance(op, oracle.Channel1Q):
                self.state_bytes += 16 * 4**live * len(op.channel.ops)
            elif isinstance(op, oracle.Measure):
                self.state_bytes += 16 * 4**live
                live -= 1 if op.remove else 0

    def count_contract(self, state, *_, **__):
        self.output_entries += 4 ** state.unmeasured_count()

    def count_kraus(self, ch, *_, **__):
        self.kraus_max = max(self.kraus_max, len(ch.ops))

    def count_mpo_channel(self, state, index, eta, *_, **__):
        self.count_kraus(eta)

    def count_compose(self, cfg, *_, **__):
        digest = hashlib.sha256()
        for ch in (cfg.alpha1, cfg.alpha2, cfg.alpha3, cfg.alpha4):
            digest.update(b"|" if ch is None else b"".join(k.tobytes() for k in ch.ops))
        key = (digest.digest(), cfg.meas.basis, cfg.meas.phi, cfg.meas.outcome)
        if key in self.compose_keys:
            self.compose_repeats += 1
        self.compose_keys.add(key)


COUNTS = {
    "oracle.simulate": Recorder.count_simulate,
    "mpo.contract": Recorder.count_contract,
    "mpo.apply_channel": Recorder.count_mpo_channel,
    "channels.choi": Recorder.count_kraus,
    "channels.apply": Recorder.count_kraus,
    "block.compose": Recorder.count_compose,
}


def install(rec: Recorder, modules: dict) -> None:
    """Replace every attribute in WRAPPED by a recording wrapper."""
    for name, (mod, attr) in WRAPPED.items():
        fn = getattr(modules[mod], attr)
        rec.originals[name] = fn
        setattr(modules[mod], attr, rec.wrap(name, fn, COUNTS.get(name)))


def uninstall(rec: Recorder, modules: dict) -> None:
    """Put the originals back and check that no wrapper is left behind."""
    for name, (mod, attr) in WRAPPED.items():
        setattr(modules[mod], attr, rec.originals.pop(name))
        if hasattr(getattr(modules[mod], attr), "__wrapped__"):
            raise RuntimeError(f"{mod}.{attr} is still wrapped")


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer totals of one pass: seconds, calls and computed counts."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in rec.spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start - s.child_s)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    simulate_s = t("oracle.simulate")
    compose_calls = calls.get("block.compose", 0)
    return {
        "cli.parse_s": t("cli.parse"),
        "cli.report_s": t("cli.report"),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "oracle.simulate_s": simulate_s,
        "oracle.simulate_calls": calls.get("oracle.simulate", 0),
        "oracle.peak_qubits": rec.peak_qubits,
        "oracle.state_bytes": rec.state_bytes,
        "oracle.state_gbps": rec.state_bytes / simulate_s / 1e9 if simulate_s else 0.0,
        "oracle.block_channel_s": t("oracle.block_channel"),
        "oracle.teleport_s": t("oracle.teleport"),
        "mpo.contract_s": t("mpo.contract"),
        "mpo.contract_calls": calls.get("mpo.contract", 0),
        "mpo.output_entries": rec.output_entries,
        "mpo.events_s": t(*MPO_EVENTS),
        "block.compose_s": t("block.compose"),
        "block.compose_calls": compose_calls,
        "block.compose_repeat_share": (
            rec.compose_repeats / compose_calls if compose_calls else 0.0
        ),
        "channels.choi_s": t("channels.choi"),
        "channels.kraus_max": rec.kraus_max,
        "teleport.branch_s": t(*TELEPORT),
        "densemath.partial_trace_s": t("densemath.partial_trace"),
        "densemath.partial_trace_calls": calls.get("densemath.partial_trace", 0),
        "densemath.trace_distance_s": t("densemath.trace_distance"),
        "calls": calls,
    }
