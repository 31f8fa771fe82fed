"""The library names the benchmark's span recorder relies on.

``perfbench/spans.py`` wraps the attributes listed in its ``WRAPPED`` table,
type-checks oracle ops by class, and its ``Recorder.count_*`` functions read
attributes off the arguments they see.  The file is read here as source text,
or run from its path, never imported as a package, so a rename in the library,
or a runner that stops calling a wrapped function, fails this suite rather
than only the traced benchmark run.  The ``BENCH_*.json`` trajectory files
at the repository root may name only the workloads and end-to-end metrics
of ``BENCHMARK.json``.
"""

import ast
import json
import runpy
from pathlib import Path

import noisy_mbqc
from noisy_mbqc import densemath as dm
from noisy_mbqc import cli, mpo, oracle
from noisy_mbqc.block import BlockNoiseConfig, MeasSpec
from noisy_mbqc.channels import bit_flip
from noisy_mbqc.mpo import mpo_cluster

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SIMULATE_OPS = {"PrepPlus", "PrepState", "Unitary1Q", "Channel1Q", "Measure"}


def _spans_tree() -> ast.Module:
    return ast.parse(SPANS.read_text(encoding="utf-8"))


def test_every_wrapped_attribute_resolves():
    wrapped = next(
        ast.literal_eval(node.value)
        for node in ast.walk(_spans_tree())
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    assert wrapped
    for name, (module, attr) in wrapped.items():
        assert callable(getattr(getattr(noisy_mbqc, module), attr, None)), name


def test_oracle_op_classes_exist():
    used = {
        node.attr
        for node in ast.walk(_spans_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "oracle"
    }
    assert SIMULATE_OPS <= used
    for name in used:
        assert hasattr(oracle, name), name
    for name in SIMULATE_OPS:
        assert isinstance(getattr(oracle, name), type), name


def test_span_counters_read_existing_attributes():
    # each counter runs on real arguments, every isinstance branch included, so
    # a renamed attribute it reads (MpoState.unmeasured_count, Measure.remove,
    # Channel1Q.channel, KrausChannel.ops, BlockNoiseConfig.alpha1..4/meas, ...)
    # raises here
    recorder = runpy.run_path(str(SPANS))["Recorder"]
    ch = bit_flip(0.3)
    ops = [
        oracle.PrepPlus(0),
        oracle.PrepState(1, dm.I2 / 2),
        oracle.Unitary1Q(0, dm.H),
        oracle.Channel1Q(1, ch),
        oracle.Measure(0, dm.MINUS),
        oracle.Measure(1, dm.PLUS),
    ]
    slots = dict.fromkeys(("alpha1", "alpha2", "alpha3", "alpha4"), ch)
    cfg = BlockNoiseConfig(MeasSpec.equatorial(0.2, 1), **slots)
    calls = {
        "count_simulate": (2, ops),
        "count_contract": (mpo_cluster(3),),
        "count_kraus": (ch,),
        "count_mpo_channel": (mpo_cluster(3), 0, ch),
        "count_compose": (cfg,),
    }
    assert set(calls) == {name for name in vars(recorder) if name.startswith("count_")}
    rec = recorder()
    for name, args in calls.items():
        getattr(rec, name)(*args)
    rec.count_compose(cfg)
    assert rec.peak_qubits == 2
    assert rec.state_bytes == 16 * (4**2 + 2 * 4**2 + 4**2 + 4)
    assert rec.output_entries == 4**3
    assert rec.kraus_max == 2
    assert (len(rec.compose_keys), rec.compose_repeats) == (1, 1)


_H = dm.mat_to_json(dm.H)
_SPAN_DOCS = {
    "teleport_pauli": {
        "kind": "teleport",
        "channels": {"noise": {"builtin": "phase_flip", "p": 0.2}},
        "resource_noise": "noise",
        "inputs": ["plus"],
    },
    "teleport_non_pauli": {
        "kind": "teleport",
        "channels": {"noise": {"builtin": "mixed_unitary", "p": 0.3, "matrix": _H}},
        "resource_noise": "noise",
        "inputs": ["zero"],
    },
    "chain": {
        "kind": "block_chain",
        "channels": {"noise": {"builtin": "bit_flip", "p": 0.1}},
        "chain": [{"phi": 0.3, "k": 0, "alpha2": "noise"}, {"phi": 0.7, "k": "both"}],
    },
    "random_suite": {"kind": "block_chain", "random_suite": {"cases": 1}},
    "mpo": {
        "kind": "mpo",
        "channels": {"noise": {"builtin": "phase_flip", "p": 0.2}},
        "builder": {"name": "cluster", "n": 3},
        "site_ops": [
            {"site": 0, "pauli": [1, 0]},
            {"site": 1, "unitary": _H},
            {"site": 0, "channel": "noise"},
        ],
        "measurements": [{"site": 0, "basis": "x", "outcome": 1}],
    },
}


def test_every_benchmark_span_records_calls(tmp_path, capsys):
    # the traced benchmark only warns when a wrapper records nothing; running
    # documents of every kind through the recorder turns that into a failure
    spans = runpy.run_path(str(SPANS))
    modules = {"cli": cli, "oracle": oracle, "mpo": mpo, "densemath": dm}
    rec = spans["Recorder"]()
    spans["install"](rec, modules)
    try:
        for name, doc in _SPAN_DOCS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"{name}.report.json"
            assert cli.main(["run", str(path), "--out", str(out)]) == 0, name
    finally:
        spans["uninstall"](rec, modules)
    recorded = {span.name for span in rec.spans}
    assert set(spans["WRAPPED"]) - recorded == set()


ROOT = SPANS.parent.parent


def test_bench_files_name_only_benchmark_workloads_and_metrics():
    # each BENCH_*.json is one point of the benchmark trajectory: medians of
    # the parent and of the change, per workload and end-to-end metric
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text(encoding="utf-8"))
        assert bench["workloads"] and set(bench["workloads"]) <= workloads, path.name
        for name, medians in bench["workloads"].items():
            assert medians and set(medians) <= metrics, (path.name, name)
            for metric, sides in medians.items():
                assert set(sides) == {"parent", "change"}, (path.name, name, metric)
                assert all(isinstance(v, (int, float)) for v in sides.values())
