import contextlib
import copy
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import sys
import tempfile
import time
import warnings
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    record_live_qubits,
    report_from_dict,
    run_block_sequence,
    whole_register_ops,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisy_mbqc import cli
from noisy_mbqc import densemath as dm
from noisy_mbqc import mpo, oracle
from noisy_mbqc.block import (
    BlockNoiseConfig,
    MeasSpec,
    compose_block_noise,
    ideal_block,
)
from noisy_mbqc.channels import apply, basis_element, bit_flip, check_unitary, random_channel
from noisy_mbqc.cli import (
    CaseResult,
    Report,
    emit_report,
    main,
    parse_experiment,
    report_to_dict,
    run_experiment,
)
from noisy_mbqc.errors import NotAChannel, NotUnitary, ParseError, UnknownChannelRef
from noisy_mbqc.mpo import mpo_from_dict


ROOT = Path(__file__).resolve().parents[1]

MINIMAL_BLOCK = {
    "kind": "block_chain",
    "chain": [{"phi": 0.0, "k": "both"}],
}


def spec_text(doc) -> str:
    return json.dumps(doc)


def test_parse_minimal_block_chain():
    spec = parse_experiment(spec_text(MINIMAL_BLOCK))
    assert spec.tolerance == 1e-9 and spec.seed == 0
    assert spec.spec_hash


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_experiment("{not json")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_experiment(spec_text({"kind": "nonsense"}))


def test_parse_unknown_channel_ref_names_path():
    doc = {
        "kind": "block_chain",
        "chain": [{"phi": 0.1, "k": 0, "alpha2": "alpha_bad"}],
    }
    with pytest.raises(UnknownChannelRef, match=r"chain\[0\].alpha2"):
        parse_experiment(spec_text(doc))


def test_parse_rejects_non_channel():
    doc = {
        "kind": "block_chain",
        "channels": {"bad": {"dim": 2, "ops": [dm.mat_to_json(2.0 * dm.I2)]}},
        "chain": [{"phi": 0.0, "k": 0, "alpha1": "bad"}],
    }
    with pytest.raises(NotAChannel, match="channels.bad"):
        parse_experiment(spec_text(doc))


def test_parse_rejects_empty_chain():
    with pytest.raises(ParseError):
        parse_experiment(spec_text({"kind": "block_chain", "chain": []}))


def test_parse_rejects_forward_adaptive_reference():
    doc = {
        "kind": "block_chain",
        "chain": [{"phi": {"magnitude": 0.5, "flip_on": [1]}, "k": 0}],
    }
    with pytest.raises(ParseError):
        parse_experiment(spec_text(doc))


def test_noiseless_block_both_outcomes():
    report = run_experiment(parse_experiment(spec_text(MINIMAL_BLOCK)))
    assert len(report.cases) == 2
    assert report.passed
    assert report.max_entry_diff <= 1e-12
    probs = sorted(c.branch_prob for c in report.cases)
    assert probs == pytest.approx([0.5, 0.5], abs=1e-10)


def test_teleport_experiment_dephasing():
    doc = {
        "kind": "teleport",
        "channels": {"noise": {"builtin": "phase_flip", "p": 0.5}},
        "resource_noise": "noise",
        "inputs": ["plus", "zero"],
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 8  # 2 inputs x 4 Bell outcomes
    assert report.passed
    assert all(c.branch_prob == pytest.approx(0.25, abs=1e-10) for c in report.cases)


def test_teleport_random_inputs_deterministic():
    doc = {
        "kind": "teleport",
        "seed": 11,
        "channels": {"noise": {"builtin": "depolarizing"}},
        "resource_noise": "noise",
        "inputs": {"random": 3},
    }
    a = run_experiment(parse_experiment(spec_text(doc)))
    b = run_experiment(parse_experiment(spec_text(doc)))
    assert a.passed and len(a.cases) == 12
    for ca, cb in zip(a.cases, b.cases):
        np.testing.assert_array_equal(ca.closed_form, cb.closed_form)


def test_noisy_chain_with_adaptive_angle():
    doc = {
        "kind": "block_chain",
        "channels": {"pf": {"builtin": "phase_flip", "p": 0.3}},
        "input": "plus",
        "chain": [
            {"phi": 0.7, "k": "both", "alpha2": "pf"},
            {"phi": {"magnitude": 0.7, "flip_on": [0]}, "k": "both", "alpha3": "pf"},
        ],
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 4
    assert report.passed
    total = sum(c.branch_prob for c in report.cases)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_chain_with_z_basis_step():
    doc = {
        "kind": "block_chain",
        "input": "plus",
        "chain": [{"z": True, "k": 0}, {"phi": 0.2, "k": 0}],
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert report.passed and len(report.cases) == 1


def test_random_suite_passes():
    doc = {
        "kind": "block_chain",
        "seed": 5,
        "random_suite": {"cases": 5, "kraus": 2},
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 10  # both outcomes per configuration
    assert report.passed
    assert report.max_entry_diff <= 1e-12


def test_mpo_experiment_bit_flip_then_sweep(tmp_path):
    save = tmp_path / "resource.json"
    doc = {
        "kind": "mpo",
        "channels": {"bf": {"builtin": "bit_flip", "p": 0.5}},
        "builder": {"name": "cluster", "n": 5},
        "site_ops": [{"site": 3, "channel": "bf"}],
        "measurements": [
            {"site": s, "basis": "x", "outcome": "both"} for s in range(4)
        ],
        "save_mpo": str(save),
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 16
    assert report.passed and report.max_entry_diff <= 1e-10
    total = sum(c.branch_prob for c in report.cases)
    assert total == pytest.approx(1.0, abs=1e-9)
    stored = mpo_from_dict(json.loads(save.read_text()))
    assert stored.n_sites == 5


def test_mpo_walk_measures_each_outcome_prefix_once(monkeypatch):
    # four "both" readouts: a walk per outcome string measures 16 * 4 = 64
    # times, the prefix walk 2 + 4 + 8 + 16 = 30, and each string's closed
    # form is bit for bit that of measuring its own string in document order
    text = (ROOT / "demos" / "specs" / "mpo_bitflip_sweep.json").read_text()
    measure, calls = mpo.mpo_measure, []
    monkeypatch.setattr(mpo, "mpo_measure", lambda *args: calls.append(args) or measure(*args))
    report = run_experiment(parse_experiment(text))
    assert len(calls) == 2 + 4 + 8 + 16 == 30 and report.passed
    state = mpo.mpo_apply_channel(mpo.mpo_cluster(5), 3, bit_flip(0.5))
    for case, ks in zip(report.cases, product((0, 1), repeat=4), strict=True):
        branch = state
        for site, k in enumerate(ks):
            branch = measure(branch, site, (dm.PLUS, dm.MINUS)[k])
        assert case.closed_form.tobytes() == mpo.mpo_contract(branch).tobytes()


def test_mpo_builders_run():
    for name, n, cases in (("maximally_mixed", 3, 1), ("one_clean", 2, 2)):
        doc = {
            "kind": "mpo",
            "builder": {"name": name, "n": n},
            "measurements": (
                [{"site": 1, "basis": "z", "outcome": "both"}] if cases == 2 else []
            ),
        }
        report = run_experiment(parse_experiment(spec_text(doc)))
        assert report.passed and len(report.cases) == cases


_EVENT_OPS = (oracle.Unitary1Q, oracle.Channel1Q)


def test_mpo_oracle_circuit_reads_out_each_site_after_its_ops():
    # a fully measured 6-site cluster with a channel on every site but the
    # boundary, a Pauli and a unitary stacked after the channel on site 2, and
    # readouts listed out of site order
    doc = {
        "kind": "mpo",
        "channels": {"bf": {"builtin": "bit_flip", "p": 0.2}},
        "builder": {"name": "cluster", "n": 6},
        "site_ops": [{"site": s, "channel": "bf"} for s in range(5)]
        + [{"site": 2, "pauli": [1, 1]}, {"site": 2, "unitary": _H}],
        "measurements": [
            {"site": s, "basis": "x", "outcome": "both" if s == 3 else s % 2}
            for s in (5, 3, 1, 0, 2, 4)
        ],
    }
    with mock.patch.object(oracle, "simulate", wraps=oracle.simulate) as simulate:
        report = run_experiment(parse_experiment(spec_text(doc)))
    assert [c.case_id for c in report.cases] == ["m=101000", "m=111000"]
    # one call for both branches: the readout of site 3 forks over its kets
    assert simulate.call_count == 1
    for (n_sites, ops), _ in simulate.call_args_list:
        assert n_sites == 6
        forks = [op for op in ops if isinstance(op, oracle.Measure) and op.ket.size > 2]
        assert [op.site for op in forks] == [3]
        np.testing.assert_array_equal(forks[0].ket, np.stack([dm.PLUS, dm.MINUS]))
        # every prep comes first, so the live register peaks at 6 qubits, as
        # in the whole-register order
        assert ops[:6] == [oracle.PrepPlus(s) for s in range(6)]
        assert not any(isinstance(op, oracle.PrepPlus) for op in ops[6:])
        at = {op.site: i for i, op in enumerate(ops) if isinstance(op, oracle.Measure)}
        assert sorted(at) == list(range(6))
        events = [(i, op) for i, op in enumerate(ops) if isinstance(op, _EVENT_OPS)]
        assert len(events) == 7
        for i, op in events:
            # site j's readout comes before any event on a site above j
            assert all(at[j] < i for j in range(op.site)), (i, op)
            assert i < at[op.site]
        for i, op in enumerate(ops):
            if isinstance(op, oracle.CZ):
                assert i < min(at[op.a], at[op.b])
                assert all(i < k for k, ev in events if ev.site in (op.a, op.b))
        stacked = [op for _, op in events if op.site == 2]
        assert isinstance(stacked[0], oracle.Channel1Q)
        np.testing.assert_array_equal(stacked[1].u, basis_element(1, 1))
        np.testing.assert_array_equal(stacked[2].u, dm.H)


_X_KETS, _Z_KETS = (dm.PLUS, dm.MINUS), (dm.KET0, dm.KET1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    builder=st.sampled_from(("cluster", "maximally_mixed", "one_clean")),
    n=st.integers(3, 6),
    n_events=st.integers(0, 7),
)
def test_mpo_oracle_matches_the_whole_register_order(seed, builder, n, n_events):
    # random documents with stacked Pauli, unitary and channel events and fixed
    # readouts in a random document order: the runner's site-by-site circuit
    # gives the oracle output of the whole-register order
    rng = np.random.default_rng(seed)
    sites = n + (builder == "one_clean")
    channels, site_ops, events = {}, [], []
    for i in range(n_events):
        site = int(rng.integers(0, sites - 1))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            bits = [int(b) for b in rng.integers(0, 2, size=2)]
            site_ops.append({"site": site, "pauli": bits})
            events.append(oracle.Unitary1Q(site, basis_element(*bits)))
        elif kind == 1:
            u = random_channel(rng, 1).ops[0]
            site_ops.append({"site": site, "unitary": dm.mat_to_json(u)})
            events.append(oracle.Unitary1Q(site, u))
        else:
            ch = random_channel(rng, int(rng.integers(2, 4)))
            channels[f"c{i}"] = {"ops": [dm.mat_to_json(k) for k in ch.ops]}
            site_ops.append({"site": site, "channel": f"c{i}"})
            events.append(oracle.Channel1Q(site, ch))
    measurements, readouts = [], []
    for site in (int(s) for s in rng.permutation(sites)):
        if rng.random() < 0.5:
            basis, k = ("x", "z")[int(rng.integers(0, 2))], int(rng.integers(0, 2))
            measurements.append({"site": site, "basis": basis, "outcome": k})
            readouts.append(oracle.Measure(site, (_X_KETS if basis == "x" else _Z_KETS)[k]))
    doc = {
        "kind": "mpo",
        "channels": channels,
        "builder": {"name": builder, "n": n},
        "site_ops": site_ops,
        "measurements": measurements,
    }
    (case,) = run_experiment(parse_experiment(spec_text(doc))).cases
    want = oracle.simulate(sites, whole_register_ops(builder, n, events, readouts))
    np.testing.assert_allclose(case.oracle, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5))
def test_mpo_forks_give_each_outcome_string_its_own_branch(seed, n):
    # a channel on every site but the boundary and readouts in a random
    # document order, some fixed and some "both": the one forking circuit's
    # case m=... holds the whole-register circuit of its own outcome string
    rng = np.random.default_rng(seed)
    channels, site_ops, events = {}, [], []
    for site in range(n - 1):
        ch = random_channel(rng, 2)
        channels[f"c{site}"] = {"ops": [dm.mat_to_json(k) for k in ch.ops]}
        site_ops.append({"site": site, "channel": f"c{site}"})
        events.append(oracle.Channel1Q(site, ch))
    measurements = []
    for site in (int(s) for s in rng.permutation(n)):
        if rng.random() < 0.8:
            outcome = ("both", 0, 1)[int(rng.integers(0, 3))]
            basis = ("x", "z")[int(rng.integers(0, 2))]
            measurements.append({"site": site, "basis": basis, "outcome": outcome})
    doc = {
        "kind": "mpo",
        "channels": channels,
        "builder": {"name": "cluster", "n": n},
        "site_ops": site_ops,
        "measurements": measurements,
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    axes = [(0, 1) if m["outcome"] == "both" else (m["outcome"],) for m in measurements]
    for case, ks in zip(report.cases, product(*axes), strict=True):
        assert case.case_id == "m=" + "".join(map(str, ks))
        readouts = [
            oracle.Measure(m["site"], (_X_KETS if m["basis"] == "x" else _Z_KETS)[k])
            for m, k in zip(measurements, ks)
        ]
        want = oracle.simulate(n, whole_register_ops("cluster", n, events, readouts))
        np.testing.assert_allclose(case.oracle, want, rtol=0, atol=1e-12)


def _long_cluster(n: int, open_sites, forks=(), seed=5) -> dict:
    """An n-site cluster with a random two-Kraus channel on every other site
    before the boundary and an x or z readout on every site not in
    ``open_sites``: ``"both"`` on the ``forks``, a fixed outcome elsewhere."""
    rng = np.random.default_rng(seed)
    channels, site_ops, measurements = {}, [], []
    for site in range(0, n - 1, 2):
        ops = random_channel(rng, 2).ops
        channels[f"c{site}"] = {"ops": [dm.mat_to_json(k) for k in ops]}
        site_ops.append({"site": site, "channel": f"c{site}"})
    for site in (int(s) for s in rng.permutation(n)):
        if site not in open_sites:
            outcome = "both" if site in forks else int(rng.integers(0, 2))
            basis = ("x", "z")[int(rng.integers(0, 2))]
            measurements.append({"site": site, "basis": basis, "outcome": outcome})
    return {
        "kind": "mpo",
        "channels": channels,
        "builder": {"name": "cluster", "n": n},
        "site_ops": site_ops,
        "measurements": measurements,
    }


@pytest.mark.parametrize("open_sites", [(30, 59), (0, 17, 42, 59)], ids=["2-open", "4-open"])
def test_long_cluster_runs_on_a_few_live_qubits(monkeypatch, open_sites):
    # 60 sites under the default cap: fixed readouts leave no axis and take no
    # share of the cap, and the oracle holds the open sites and two more
    sizes = record_live_qubits(monkeypatch)
    report = run_experiment(parse_experiment(spec_text(_long_cluster(60, open_sites))))
    assert max(sizes) <= len(open_sites) + 2
    (case,) = report.cases
    tr = np.trace(case.closed_form).real
    assert 0.0 < tr < 1e-9  # the absolute gate alone could not see a wrong branch
    assert case.oracle.shape == (2 ** len(open_sites),) * 2
    np.testing.assert_allclose(
        case.oracle / np.trace(case.oracle).real, case.closed_form / tr, rtol=0, atol=1e-12
    )


def test_200_site_cluster_with_fixed_readouts_runs_at_the_default_cap(tmp_path, capsys):
    # 195 fixed readouts would be as many result axes if each forked, past
    # numpy's 64; two "both" readouts give four cases over three open sites
    doc = _long_cluster(200, open_sites=(3, 100, 199), forks=(50, 150))
    assert sum(m["outcome"] != "both" for m in doc["measurements"]) == 195
    assert _run_doc(tmp_path, doc) == 0
    assert "summary: 4 cases, " in capsys.readouterr().out
    for case in run_experiment(parse_experiment(spec_text(doc))).cases:
        tr = np.trace(case.closed_form).real
        np.testing.assert_allclose(
            case.oracle / np.trace(case.oracle).real, case.closed_form / tr, atol=1e-12
        )


def test_case_filter():
    report = run_experiment(
        parse_experiment(spec_text(MINIMAL_BLOCK)), case_filter="k=0"
    )
    assert [c.case_id for c in report.cases] == ["k=0"]


def _workload_documents(seed: int) -> dict[str, str]:
    """Name -> text of every benchmark workload document at ``seed``; the
    generator is imported by path, as perfbench is not a package."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return {
        f"{workload}_{doc.name}": doc.text
        for workload in workloads.GENERATORS
        for doc in workloads.make_documents(workload, seed)
    }


_CONTRACT_DOCUMENTS = _workload_documents(1) | {
    f"demo_{p.stem}": p.read_text() for p in sorted((ROOT / "demos" / "specs").glob("*.json"))
}


@pytest.mark.parametrize("text", _CONTRACT_DOCUMENTS.values(), ids=_CONTRACT_DOCUMENTS.keys())
def test_the_parsed_case_ids_are_the_report_case_ids(text):
    spec = parse_experiment(text)
    assert spec.case_ids == [c.case_id for c in run_experiment(spec).cases]


_ONE_STEP = {"kind": "block_chain", "chain": [{"phi": 0.3, "k": "both"}]}


@pytest.mark.parametrize("path", ["closed_form", "oracle"])
def test_a_nan_output_fails_its_cases_with_exit_1(tmp_path, capsys, monkeypatch, path):
    # LAPACK refused the NaN ("SVD did not converge", a ValueError), and the
    # run exited 2 as if the document were at fault
    if path == "closed_form":
        monkeypatch.setattr(cli, "apply", lambda channel, rho: np.nan * rho)
    else:
        simulate = oracle.simulate
        monkeypatch.setattr(oracle, "simulate", lambda *args: simulate(*args) * np.nan)
    out = tmp_path / "report.json"
    assert _run_doc(tmp_path, _ONE_STEP, "--out", str(out)) == 1
    assert capsys.readouterr().out.endswith("-> FAIL\n")
    cases = json.loads(out.read_text())["cases"]
    assert len(cases) == 2
    for case in cases:
        assert math.isnan(case["trace_distance"]) and math.isnan(case["max_entry_diff"])


def test_case_filter_matching_nothing_writes_no_save_mpo(tmp_path, capsys):
    # an exit-2 run writes nothing, the saved MPO included
    save = tmp_path / "mpo.json"
    doc = {"kind": "mpo", "builder": {"name": "cluster", "n": 3}, "save_mpo": str(save)}
    assert _run_doc(tmp_path, doc, "--cases", "nomatch") == 2
    assert capsys.readouterr().err == (
        "error: --cases 'nomatch' matches none of the 1 cases\n"
    )
    assert not save.exists()
    assert _run_doc(tmp_path, doc, "--cases", "m=") == 0
    assert mpo_from_dict(json.loads(save.read_text())).n_sites == 3


def test_report_json_roundtrip(tmp_path):
    report = run_experiment(parse_experiment(spec_text(MINIMAL_BLOCK)))
    path = tmp_path / "report.json"
    emit_report(report, str(path))
    doc = json.loads(path.read_text())
    assert list(doc) == ["format", "meta", "tolerance", "cases", "summary"]
    back = report_from_dict(doc)
    assert back.spec_hash == report.spec_hash
    assert [c.case_id for c in back.cases] == [c.case_id for c in report.cases]
    assert report.passed
    for ca, cb in zip(report.cases, back.cases):
        np.testing.assert_allclose(ca.closed_form, cb.closed_form)
        assert ca.max_entry_diff == cb.max_entry_diff
        assert cb.oracle is None  # a passing case does not write its oracle


def test_report_determinism_modulo_timestamp(tmp_path):
    text = spec_text({**MINIMAL_BLOCK, "seed": 3})
    blobs = []
    for i in range(2):
        report = run_experiment(parse_experiment(text))
        report.timestamp = "fixed"
        path = tmp_path / f"report{i}.json"
        emit_report(report, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


_SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, 0.1, 5e-324, 1e-310, float("nan"), float("inf"), -float("inf")
]
report_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())


@st.composite
def report_matrices(draw):
    # some matrices run past one block of rows, the writer's unit of output
    block = cli._BLOCK_ROWS
    rows = draw(st.one_of(st.integers(0, 4), st.integers(block - 1, 2 * block + 1)))
    cols = draw(st.integers(0, 4))
    # a small pool repeats values; a large one makes most of them distinct
    pool = draw(st.lists(report_floats, min_size=1, max_size=2 * rows * cols + 1))
    size = 2 * rows * cols
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    m = np.array(values, dtype=float).view(complex).reshape(rows, cols)
    layout = draw(st.sampled_from(["contiguous", "transposed", "real part"]))
    return {"contiguous": m, "transposed": m.T, "real part": m.real}[layout]


@st.composite
def reports(draw):
    cases = [
        CaseResult(
            case_id=draw(st.text(max_size=6)),
            closed_form=draw(report_matrices()),
            oracle=draw(report_matrices()),
            max_entry_diff=draw(report_floats),
            trace_distance=draw(report_floats),
            branch_prob=draw(report_floats),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return Report(
        cases=cases,
        tolerance=draw(report_floats),
        seed=draw(st.integers(-(2**70), 2**70)),
        spec_hash=draw(st.text(max_size=8)),
        timestamp=draw(st.text(max_size=8)),
    )


def _report_with_text(text: str) -> Report:
    """A two-case report whose case ids, spec hash and timestamp are ``text``."""
    case = CaseResult(text, dm.H, np.zeros((0, 2)), 0.0, -0.0, float("nan"))
    return Report([case, case], 1e-9, 0, spec_hash=text, timestamp=text)


def _report_of(*pairs) -> Report:
    """One case per (closed_form, oracle) pair."""
    cases = [CaseResult(f"c{i}", a, b, 0.0, 0.0, 1.0) for i, (a, b) in enumerate(pairs)]
    return Report(cases, 1e-9, 0, spec_hash="", timestamp="t")


def _report_of_diffs(*diffs) -> Report:
    """One case per max-entry difference, at tolerance 1e-9, each with its own
    matrix shapes and values, so a matrix streamed into another leaf shows."""
    cases = [
        CaseResult(f"c{i}", np.full((1, i + 1), i), np.full((i + 2, 1), -i), d, 0.0, 1.0)
        for i, d in enumerate(diffs)
    ]
    return Report(cases, 1e-9, 0, spec_hash="", timestamp="t")


_TALL = np.arange(3 * (cli._BLOCK_ROWS + 1)).reshape(-1, 3) * (0.1 - 0.2j)


# the writer splits json's layout at each matrix leaf, written there as null;
# string data that spells out a leaf, or a NUL, must not move that split
@settings(max_examples=200, deadline=None)
@given(report=reports())
@example(report=_report_with_text('"closed_form": null'))
@example(report=_report_with_text('"oracle": null'))
@example(report=_report_with_text("\x00matrix"))
@example(report=_report_with_text('",\n      "oracle": null,\n      "x": "'))
@example(report=_report_of((_TALL, _TALL.T)))  # one block and one row more
@example(report=_report_of((np.zeros((3, 0)), np.zeros((0, 3)))))
@example(report=_report_of((dm.H, np.full((2, 2), 0.5)), (np.full((1, 1), 0.5), dm.I2)))
@example(report=_report_of_diffs(0.0, 1.0))  # a passing case, then a failing one
@example(report=_report_of_diffs(1.0, 0.0))  # a failing case, then a passing one
# the writer splices the cases in at "cases": [] and joins them with json's
# own separators; string data that spells either must not move the splice
@example(report=_report_with_text("\x00"))
@example(report=_report_with_text('"cases": []'))
@example(report=_report_with_text('"pass": true}'))
@example(report=_report_with_text("},\n    {"))
@example(report=_report_of_diffs(1.0, 2.0, math.inf))  # every case fails
@example(report=Report([], 1e-9, 0, spec_hash="", timestamp=""))  # no case
def test_emit_json_is_json_dumps_of_report_to_dict(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        emit_report(report, path)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == (json.dumps(report_to_dict(report), indent=2) + "\n").encode()


class _PieceSink:
    """A file that keeps each piece written to it."""

    def __init__(self):
        self.pieces = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, piece):
        self.pieces.append(piece)

    def writelines(self, pieces):
        self.pieces.extend(pieces)


def test_emit_json_hands_the_file_one_row_block_at_a_time():
    # a fully open 7-site cluster: 128x128 outputs, about 1.2 MB of report (the
    # case passes, so only its closed form is written); streaming it a block of
    # rows at a time keeps the writer's memory flat
    doc = {"kind": "mpo", "builder": {"name": "cluster", "n": 7}}
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert [c.oracle.shape for c in report.cases] == [(128, 128)]
    sink = _PieceSink()
    with mock.patch.object(cli, "open", lambda *args, **kwargs: sink, create=True):
        emit_report(report, "report.json")
    assert "".join(sink.pieces) == json.dumps(report_to_dict(report), indent=2) + "\n"
    # each of the 128 [re, im] pairs of a row spans 4 lines, and the row 2 more
    block_lines = cli._BLOCK_ROWS * (128 * 4 + 2)
    assert max(piece.count("\n") for piece in sink.pieces) <= block_lines
    assert len(sink.pieces) > 128 // cli._BLOCK_ROWS


def test_emit_csv(tmp_path):
    report = run_experiment(parse_experiment(spec_text(MINIMAL_BLOCK)))
    path = tmp_path / "report.csv"
    emit_report(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "case,branch_prob,max_entry_diff,trace_distance,pass"
    assert len(lines) == 3
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_emit_csv_empty_report(tmp_path):
    # run_experiment refuses a filter that selects no case
    report = Report([], 1e-9, 0, spec_hash="", timestamp="")
    path = tmp_path / "empty.csv"
    emit_report(report, str(path))
    assert path.read_text().strip() == "case,branch_prob,max_entry_diff,trace_distance,pass"


@pytest.mark.parametrize("diffs", [(math.nan, 1.0), (1.0, math.nan), (0.0, math.nan, 2.0)])
def test_the_summary_difference_is_nan_whenever_a_case_is(diffs):
    # a Python max kept whichever came first of a NaN and a number
    report = _report_of_diffs(*diffs)
    assert math.isnan(report.max_entry_diff) and not report.passed


def test_the_summary_difference_is_the_largest_case_difference():
    assert _report_of_diffs(0.5, 2.0, 1.0).max_entry_diff == 2.0
    assert Report([], 1e-9, 0, spec_hash="", timestamp="").max_entry_diff == 0.0


def test_report_writes_the_oracle_matrix_of_failing_cases_only(tmp_path):
    suite = {"kind": "block_chain", "random_suite": {"cases": 3}}
    spec = parse_experiment(spec_text(suite))
    diffs = sorted(c.max_entry_diff for c in run_experiment(spec).cases)
    assert diffs[0] < diffs[-1]
    # a tolerance between the smallest and the largest difference splits the verdicts
    report = run_experiment(spec, tolerance=(diffs[0] + diffs[-1]) / 2)
    assert not report.passed and any(map(report.ok, report.cases))
    emit_report(report, str(tmp_path / "report.json"))
    emit_report(report, str(tmp_path / "report.csv"))
    written = json.loads((tmp_path / "report.json").read_text())["cases"]
    assert len(written) == len(report.cases)
    for case, entry in zip(report.cases, written):
        assert ("oracle" in entry) == (not entry["pass"]) == (not report.ok(case))
        if "oracle" in entry:
            assert entry["oracle"] == dm.mat_to_json(case.oracle)
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert [row[0] for row in rows[1:]] == [c.case_id for c in report.cases]


def test_main_pass_and_report(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(MINIMAL_BLOCK))
    out_path = tmp_path / "report.json"
    code = main(["run", str(spec_path), "--out", str(out_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert out_path.exists()


def test_main_tolerance_failure(tmp_path, capsys):
    doc = {
        "kind": "block_chain",
        "seed": 1,
        "random_suite": {"cases": 2},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    code = main(["run", str(spec_path), "--tol", "1e-30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_spec_error_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{broken")
    assert main(["run", str(spec_path)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_main_spec_not_utf8_is_one_line_read_error(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_bytes(b'{"kind": "\xff"}')
    assert main(["run", str(spec_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {spec_path}: ")
    assert "0xff" in err and err.count("\n") == 1 and err.endswith("\n")


def test_main_z_basis_noise_is_spec_error(tmp_path):
    doc = {
        "kind": "block_chain",
        "channels": {"pf": {"builtin": "phase_flip", "p": 0.2}},
        "chain": [{"z": True, "k": 0, "alpha1": "pf"}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    assert main(["run", str(spec_path)]) == 2


@pytest.mark.parametrize("slot", ["alpha1", "alpha2", "alpha3", "alpha4"])
def test_noisy_z_step_is_rejected_at_parse(slot):
    doc = {
        "kind": "block_chain",
        "channels": {"pf": {"builtin": "phase_flip", "p": 0.2}},
        "chain": [{"phi": 0.3, "k": 0}, {"z": True, "k": "both", slot: "pf"}],
    }
    with pytest.raises(ParseError, match=rf"^chain\[1\]: a Z step takes no noise, got {slot}$"):
        parse_experiment(spec_text(doc))


def test_main_respects_register_cap(tmp_path, monkeypatch):
    doc = {
        "kind": "teleport",
        "channels": {"noise": {"builtin": "identity"}},
        "resource_noise": "noise",
        "inputs": ["plus"],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "2")
    assert main(["run", str(spec_path)]) == 2  # teleportation needs 3 sites


def _run_doc(tmp_path, doc, *extra) -> int:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    return main(["run", str(spec_path), *extra])


def test_the_reused_parser_keeps_no_state_between_runs(tmp_path, capsys):
    doc = dict(MINIMAL_BLOCK, seed=3, tolerance=1e-8)
    out = tmp_path / "report.json"

    def report(*extra):
        assert _run_doc(tmp_path, doc, "--out", str(out), *extra) == 0
        written = json.loads(out.read_text())
        cases = [c["case"] for c in written["cases"]]
        return written["meta"]["seed"], written["tolerance"], cases

    assert report("--seed", "5", "--tol", "0.5", "--cases", "k=0") == (5, 0.5, ["k=0"])
    # the same parser again, with no options: the document's own seed and
    # tolerance and all of its cases
    assert report() == (3, 1e-8, ["k=0", "k=1"])
    with pytest.raises(SystemExit) as exc:
        _run_doc(tmp_path, doc, "--seeds", "5")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seeds 5" in capsys.readouterr().err
    assert cli._parser() is cli._parser()


def test_main_channels_not_an_object_is_spec_error(tmp_path, capsys):
    assert _run_doc(tmp_path, dict(MINIMAL_BLOCK, channels=[])) == 2
    assert "channels: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_main_bad_document_tolerance_is_spec_error(tmp_path, capsys, tol):
    assert _run_doc(tmp_path, dict(MINIMAL_BLOCK, tolerance=tol)) == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_main_bad_tol_flag_is_spec_error(tmp_path, capsys, tol):
    assert _run_doc(tmp_path, MINIMAL_BLOCK, f"--tol={tol}") == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("builtin", ["bit_flip", "phase_flip", "mixed_unitary"])
@pytest.mark.parametrize("p", [1.5, -0.25, float("nan"), float("inf")])
def test_parse_rejects_bad_probability(builtin, p):
    noise = {"builtin": builtin, "p": p, "matrix": dm.mat_to_json(dm.H)}
    doc = dict(MINIMAL_BLOCK, channels={"noise": noise})
    with pytest.raises(ParseError, match=r"channels\.noise\.p"):
        parse_experiment(spec_text(doc))


def test_parse_accepts_probability_bounds():
    for p in (0.0, 1.0):
        doc = dict(MINIMAL_BLOCK, channels={"noise": {"builtin": "bit_flip", "p": p}})
        assert "noise" in parse_experiment(spec_text(doc)).channels


_H = dm.mat_to_json(dm.H)

# One valid document per runner path; the fuzz below breaks them.
SKELETONS = [
    {
        "kind": "teleport",
        "seed": 3,
        "tolerance": 1e-9,
        "channels": {"noise": {"builtin": "phase_flip", "p": 0.2}},
        "resource_noise": "noise",
        "inputs": ["plus", {"matrix": dm.mat_to_json(0.5 * dm.I2)}],
    },
    {
        "kind": "teleport",
        "channels": {"noise": {"builtin": "mixed_unitary", "p": 0.3, "matrix": _H}},
        "resource_noise": "noise",
        "inputs": {"random": 2},
    },
    {
        "kind": "block_chain",
        "channels": {"noise": {"builtin": "bit_flip", "p": 0.1}},
        "input": {"state": "minus"},
        "chain": [
            {"phi": 0.3, "k": "both", "alpha2": "noise"},
            {"phi": {"magnitude": 0.2, "flip_on": [0]}, "k": 0, "alpha3": "noise"},
        ],
    },
    {"kind": "block_chain", "seed": 1, "random_suite": {"cases": 1, "kraus": 2}},
    {
        "kind": "mpo",
        "channels": {"noise": {"dim": 2, "ops": [_H]}},
        "builder": {"name": "cluster", "n": 4},
        "site_ops": [
            {"site": 0, "pauli": [1, 0]},
            {"site": 1, "channel": "noise"},
            {"site": 2, "unitary": _H},
        ],
        "measurements": [
            {"site": 0, "basis": "x", "outcome": "both"},
            {"site": 1, "basis": "z", "outcome": 0},
        ],
    },
    {"kind": "mpo", "builder": {"name": "one_clean", "n": 2}},
]


def _nested(depth: int) -> list:
    """The pair [1.0, 0.0] inside ``depth`` lists: past 31, more axes than
    ``ndarray.flat`` walks."""
    obj = [1.0, 0.0]
    for _ in range(depth):
        obj = [obj]
    return obj


# nulls, wrong types, out-of-range values and pairs nested too deep; a 9-site
# builder leaves more open sites than the cap the fuzz runs under, and the
# oracle never holds more qubits than that cap, so no document grows a large
# dense state
_BAD_VALUES = [
    None, True, "x", "0.5", 1.0, 1.7, -1, 0, 9, [], {}, [0.5], math.nan, math.inf,
    _nested(32), _nested(64),
]


def _paths(obj, prefix=()):
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def broken_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SKELETONS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _parent(doc, path)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
    return doc


@pytest.mark.parametrize("doc", SKELETONS, ids=lambda d: d["kind"])
def test_fuzz_skeletons_pass(tmp_path, doc):
    assert _run_doc(tmp_path, doc) == 0


@pytest.mark.parametrize(
    "doc, n_cases", zip(SKELETONS, (8, 8, 2, 2, 2, 1)), ids=[d["kind"] for d in SKELETONS]
)
def test_case_filter_matching_nothing_is_spec_error(tmp_path, capsys, monkeypatch, doc, n_cases):
    # an empty selection certifies nothing, so it must not read as a pass, and
    # it is refused from the case ids before any oracle or MPO work
    def no_work(*args, **kwargs):
        raise AssertionError("a refused selection ran the document")

    for module, name in [
        (oracle, "simulate"),
        (oracle, "block_oracle_channel"),
        (oracle, "teleport_oracle_state"),
        (mpo, "mpo_contract"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    assert _run_doc(tmp_path, doc, "--cases", "nomatch") == 2
    out, err = capsys.readouterr()
    assert err == f"error: --cases 'nomatch' matches none of the {n_cases} cases\n"
    assert "summary" not in out


@settings(max_examples=300, deadline=None)
@given(doc=broken_documents())
def test_main_exit_codes_on_broken_documents(doc):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(spec_text(doc))
        out, err = io.StringIO(), io.StringIO()
        cap = mock.patch.dict(os.environ, {"NOISY_MBQC_MAX_QUBITS": "8"})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), cap:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["run", spec_path, "--out", os.path.join(tmp, "r.json")])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 1:
        assert math.isfinite(float(doc.get("tolerance", 1e-9)))
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    _parent(doc, path)[path[-1]] = value
    return doc


_MPO = SKELETONS[4]


@pytest.mark.parametrize(
    "doc, path, value",
    [
        (MINIMAL_BLOCK, ("seed",), None),
        (SKELETONS[1], ("inputs", "random"), None),
        (_MPO, ("builder", "n"), None),
        (SKELETONS[3], ("random_suite", "cases"), None),
        (SKELETONS[3], ("random_suite", "kraus"), None),
        (_MPO, ("site_ops", 0, "site"), None),
        (_MPO, ("measurements", 0, "site"), None),
        (MINIMAL_BLOCK, ("seed",), 1.7),
        (MINIMAL_BLOCK, ("seed",), True),
        (MINIMAL_BLOCK, ("seed",), "7"),
        (_MPO, ("builder", "n"), 3.5),
        (_MPO, ("site_ops", 1, "site"), 0.5),
        (_MPO, ("measurements", 1, "site"), 1.5),
    ],
)
def test_main_non_integer_field_is_spec_error(tmp_path, capsys, doc, path, value):
    assert _run_doc(tmp_path, _set(doc, path, value)) == 2
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
    expected = f"error: {field}: expected an integer, got {value!r}\n"
    assert capsys.readouterr().err == expected


def test_parse_accepts_integral_float_seed():
    assert parse_experiment(spec_text(dict(MINIMAL_BLOCK, seed=7.0))).seed == 7


@pytest.mark.parametrize("save", [5.0, ["x"], "missing/mpo.json"])
def test_main_bad_save_mpo_is_spec_error(tmp_path, capsys, monkeypatch, save):
    monkeypatch.chdir(tmp_path)
    assert _run_doc(tmp_path, dict(_MPO, save_mpo=save)) == 2
    assert capsys.readouterr().err.startswith("error: save_mpo")


def test_main_empty_save_mpo_is_spec_error(tmp_path, capsys, monkeypatch):
    # an empty path names no file: refused at parse, not skipped after the run
    monkeypatch.chdir(tmp_path)
    assert _run_doc(tmp_path, dict(_MPO, save_mpo="")) == 2
    assert capsys.readouterr().err == "error: save_mpo: expected a path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_main_empty_out_path_cannot_be_written(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_doc(tmp_path, MINIMAL_BLOCK, "--out", "") == 2
    assert capsys.readouterr().err.startswith("error: cannot write : ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


# --- satellite parse fixes: each of these documents misbehaved before --------

_CHAIN = SKELETONS[2]
_STEP3 = {"phi": {"magnitude": 0.1, "flip_on": [1]}}
_CHAIN3 = _set(_CHAIN, ("chain",), _CHAIN["chain"] + [_STEP3])
_FLIPS = ("chain", 2, "phi", "flip_on")
_INF_PAIR = [math.inf, 0.0]
_DIM = "channels.noise.dim: "
_OPS = "channels.noise.ops: expected a non-empty list of 2x2 matrices"
_Z = "chain[0].z: expected a boolean, got "
_PROJECTOR = dm.mat_to_json(dm.projector(dm.KET0))
_NOT_UNITARY = "channels.noise.matrix: matrix fails the unitarity check"
# JSON booleans spelling valid numbers: the identity, and I/2 as a state
_BOOL_ID = [[[True, 0], [0, 0]], [[0, 0], [True, 0]]]
_BOOL_HALF = [[[0.5, False], [0, 0]], [[0, 0], [0.5, 0]]]
_BOOL_UNITARY = {"builtin": "unitary", "matrix": _BOOL_ID}
_BOOL = ": matrix entries must be numbers, got a boolean"
_Z_PHI = "chain[{}].phi: a Z step takes no angle"


@pytest.mark.parametrize(
    "doc, path, value, message",
    [
        (_CHAIN, ("chain", 0, "k"), True, "chain[0].k: expected an integer, got True"),
        (_CHAIN, ("chain", 1, "k"), 2, "chain[1].k must be 0, 1 or 'both'"),
        (_CHAIN, ("channels", "noise", "p"), "0.5", "channels.noise.p: expected a"),
        (_CHAIN, ("channels", "noise", "p"), True, "channels.noise.p: expected a"),
        (_CHAIN, ("tolerance",), "1e-3", "tolerance: expected a number"),
        (
            _CHAIN,
            ("chain", 1, "phi", "magnitude"),
            "0.3",
            "chain[1].phi.magnitude: expected a number",
        ),
        (_CHAIN, ("chain", 0, "phi"), True, "chain[0].phi: expected a number"),
        (_CHAIN, ("chain", 0, "phi"), "0.3", "chain[0].phi: expected a number"),
        (
            _CHAIN3,
            ("chain", 2, "phi", "flip_on"),
            [True],
            "chain[2].phi.flip_on[0]: expected an integer, got True",
        ),
        (
            _MPO,
            ("channels", "noise", "ops", 0, 0, 0),
            _INF_PAIR,
            "channels.noise.ops[0]: matrix entries must be finite",
        ),
        (
            SKELETONS[1],
            ("channels", "noise", "matrix", 1, 1),
            _INF_PAIR,
            "channels.noise.matrix: matrix entries must be finite",
        ),
        (
            SKELETONS[0],
            ("inputs", 1, "matrix", 0, 0),
            [math.nan, 0.0],
            "inputs[1].matrix: matrix entries must be finite",
        ),
        (
            SKELETONS[0],
            ("inputs", 1, "matrix", 0, 0),
            [10**400, 0],
            "inputs[1].matrix: matrix entries must be finite",
        ),
        (_CHAIN, ("chain", 0, "phi"), math.nan, "chain[0].phi must be finite"),
        (_CHAIN, ("chain", 0, "phi"), math.inf, "chain[0].phi must be finite"),
        (
            _CHAIN,
            ("chain", 1, "phi", "magnitude"),
            -math.inf,
            "chain[1].phi.magnitude must be finite",
        ),
        (_MPO, ("channels", "noise", "dim"), "2", _DIM + "expected an integer"),
        (_MPO, ("channels", "noise", "dim"), 2.5, _DIM + "expected an integer"),
        (_MPO, ("channels", "noise", "dim"), True, _DIM + "expected an integer"),
        (_MPO, ("channels", "noise", "dim"), 4, "channels.noise.dim must be 2"),
        (_MPO, ("channels", "noise", "ops"), [], _OPS),
        (_MPO, ("channels", "noise", "ops"), None, _OPS),
        (_MPO, ("channels", "noise", "ops"), [dm.mat_to_json(np.eye(4))], _OPS),
        (_CHAIN, ("chain", 0, "z"), "false", _Z + "'false'"),
        (_CHAIN, ("chain", 0, "z"), 1, _Z + "1"),
        (_CHAIN, ("chain", 0, "z"), [0], _Z + "[0]"),
        (_CHAIN, ("chain", 1, "z"), None, "chain[1].z: expected a boolean, got None"),
        pytest.param(
            _MPO,
            ("builder", "n"),
            10**400,
            "builder.n: open sites plus forking readouts must be <= ",
            id="n-10e400",
        ),
        (MINIMAL_BLOCK, ("seed",), -3, "seed must be >= 0, got -3"),
        # an empty path passes the value as a command-line flag instead
        (MINIMAL_BLOCK, (), "--seed=-1", "seed must be >= 0, got -1"),
        (
            SKELETONS[0],
            ("channels", "noise"),
            {"builtin": "unitary", "matrix": _PROJECTOR},
            _NOT_UNITARY,
        ),
        (SKELETONS[1], ("channels", "noise", "matrix"), _PROJECTOR, _NOT_UNITARY),
        (
            SKELETONS[1],
            ("channels", "noise", "matrix"),
            dm.mat_to_json(np.eye(4)),
            "channels.noise.matrix: unitary must be a non-empty (2, 2) array, got shape (4, 4)",
        ),
        (_CHAIN3, _FLIPS, 1, "chain[2].phi.flip_on: expected a list"),
        (_CHAIN3, _FLIPS, [0, 0.5], "chain[2].phi.flip_on[1]: expected an integer"),
        (_CHAIN3, _FLIPS, [0, "1"], "chain[2].phi.flip_on[1]: expected an integer"),
        (_CHAIN3, _FLIPS, [2], "chain[2].phi.flip_on[0] must name an earlier step, got 2"),
        (_CHAIN3, _FLIPS, [-1.0], "chain[2].phi.flip_on[0] must name an earlier step"),
        (_MPO, ("site_ops", 2, "unitary"), _BOOL_ID, "site_ops[2].unitary" + _BOOL),
        (SKELETONS[0], ("channels", "noise"), _BOOL_UNITARY, "channels.noise.matrix" + _BOOL),
        (SKELETONS[1], ("channels", "noise", "matrix"), _BOOL_ID, "channels.noise.matrix" + _BOOL),
        (_MPO, ("channels", "noise", "ops"), [_H, _BOOL_ID], "channels.noise.ops[1]" + _BOOL),
        (_CHAIN, ("input",), {"matrix": _BOOL_HALF}, "input.matrix" + _BOOL),
        (SKELETONS[0], ("inputs", 1, "matrix"), _BOOL_HALF, "inputs[1].matrix" + _BOOL),
        (_CHAIN, ("chain", 0), {"z": True, "phi": "oops"}, _Z_PHI.format(0)),
        (_CHAIN, ("chain", 1, "z"), True, _Z_PHI.format(1)),
    ],
)
def test_main_bad_field_is_one_line_spec_error(
    tmp_path, capsys, doc, path, value, message
):
    doc, flags = (_set(doc, path, value), ()) if path else (doc, (value,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_doc(tmp_path, doc, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# a valid definition of every builtin and of a custom channel, and a key it
# does not read; the stray key used to be dropped (a "p" on depolarizing ran
# the completely depolarising channel and exited 0)
_UNREAD_KEYS = {
    "identity": ({"builtin": "identity"}, "p", 0.1),
    "bit_flip": ({"builtin": "bit_flip", "p": 0.1}, "matrix", _H),
    "phase_flip": ({"builtin": "phase_flip", "p": 0.1}, "dim", 2),
    "depolarizing": ({"builtin": "depolarizing"}, "p", 0.1),
    "unitary": ({"builtin": "unitary", "matrix": _H}, "p", 0.3),
    "mixed_unitary": ({"builtin": "mixed_unitary", "p": 0.3, "matrix": _H}, "ops", [_H]),
    "ops": ({"dim": 2, "ops": [_H]}, "matrix", _H),
}


@pytest.mark.parametrize("kind", list(_UNREAD_KEYS))
def test_main_channel_key_it_does_not_read_is_spec_error(tmp_path, capsys, kind):
    assert set(_UNREAD_KEYS) == {*cli._BUILTINS, "ops"}
    channel, key, value = _UNREAD_KEYS[kind]
    assert _run_doc(tmp_path, _set(SKELETONS[0], ("channels", "noise"), channel)) == 0
    capsys.readouterr()
    doc = _set(SKELETONS[0], ("channels", "noise"), dict(channel, **{key: value}))
    assert _run_doc(tmp_path, doc) == 2
    what = "an ops channel" if kind == "ops" else f"builtin {kind!r}"
    assert capsys.readouterr().err == f"error: channels.noise.{key}: not a field of {what}\n"


@pytest.mark.parametrize(
    "channel, key",
    [
        ({"builtin": "bit_flip"}, "p"),
        ({"builtin": "phase_flip"}, "p"),
        ({"builtin": "unitary"}, "matrix"),
        ({"builtin": "mixed_unitary", "p": 0.3}, "matrix"),
    ],
    ids=["bit_flip", "phase_flip", "unitary", "mixed_unitary"],
)
def test_main_missing_builtin_field_is_named(tmp_path, capsys, channel, key):
    # it used to be named as a Python KeyError: "malformed definition ('p')"
    assert _run_doc(tmp_path, _set(SKELETONS[0], ("channels", "noise"), channel)) == 2
    builtin = channel["builtin"]
    want = f"error: channels.noise.{key}: missing (builtin {builtin!r} reads {key})\n"
    assert capsys.readouterr().err == want


# one object of each kind the parser reads, and a key its reader does not
# read; a stray key used to be dropped, so a typo such as "alpah2" ran a
# noiseless step and exited 0
_UNREAD_IN = {
    "chain step": (_CHAIN, ("chain", 0), "alpah2", "a chain step"),
    "adaptive angle": (_CHAIN, ("chain", 1, "phi"), "flipon", "an adaptive angle"),
    "inputs object": (SKELETONS[1], ("inputs",), "randm", "random inputs"),
    "state alias object": (_CHAIN, ("input",), "label", "a state"),
    "state matrix object": (SKELETONS[0], ("inputs", 1), "label", "a state"),
    "random_suite": (SKELETONS[3], ("random_suite",), "kruas", "a random suite"),
    "builder": (_MPO, ("builder",), "sites", "a builder"),
    "site_ops entry": (_MPO, ("site_ops", 1), "after", "a site event"),
    "measurements entry": (_MPO, ("measurements", 0), "basiss", "a measurement"),
    "teleport top level": (SKELETONS[0], (), "resource", "a teleport document"),
    "chain top level": (_CHAIN, (), "chian", "a chain document"),
    "random_suite top level": (SKELETONS[3], (), "input", "a random_suite document"),
    "mpo top level": (_MPO, (), "save", "an mpo document"),
}


@pytest.mark.parametrize("obj", list(_UNREAD_IN))
def test_main_key_its_reader_does_not_read_is_spec_error(tmp_path, capsys, obj):
    doc, path, key, what = _UNREAD_IN[obj]
    doc = copy.deepcopy(doc)
    target = doc
    for k in path:
        target = target[k]
    target[key] = "noise"
    assert _run_doc(tmp_path, doc) == 2
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in (*path, key))[1:]
    assert capsys.readouterr().err == f"error: {field}: not a field of {what}\n"


def test_main_document_needing_more_memory_than_exists_is_spec_error(tmp_path, capsys):
    # numpy refuses this 28 PiB request before it allocates anything; never
    # test a size the machine could actually allocate
    doc = {"kind": "block_chain", "random_suite": {"cases": 1, "kraus": 10**15}}
    out = tmp_path / "report.json"
    assert _run_doc(tmp_path, doc, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _verdict_report(n_cases: int, scalar=float) -> Report:
    """One case exactly at the tolerance, then one just above it."""
    tol = 0.5
    diffs = [tol, np.nextafter(tol, 1.0)][:n_cases]
    cases = [
        CaseResult(f"c{i}", dm.H, dm.I2, scalar(d), scalar(0.25), scalar(0.1))
        for i, d in enumerate(diffs)
    ]
    return Report(cases=cases, tolerance=tol, seed=1, spec_hash="h", timestamp="t")


@pytest.mark.parametrize("n_cases, code", [(1, 0), (2, 1)])
def test_one_verdict_reaches_every_writer_and_the_exit_code(
    tmp_path, capsys, monkeypatch, n_cases, code
):
    report = _verdict_report(n_cases)
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: report)
    for ext in ("json", "csv"):
        assert _run_doc(tmp_path, MINIMAL_BLOCK, "--out", str(tmp_path / f"r.{ext}")) == code
    verdicts = ["ok", "FAIL"][:n_cases] + ["PASS" if code == 0 else "FAIL"]
    assert [line.split()[-1] for line in capsys.readouterr().out.splitlines()] == verdicts * 2
    written = json.loads((tmp_path / "r.json").read_text())
    assert [c["pass"] for c in written["cases"]] == [True, False][:n_cases]
    assert written["summary"]["pass"] is (code == 0)
    with open(tmp_path / "r.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[-1] for row in rows[1:]] == ["True", "False"][:n_cases]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_numpy_scalars_write_the_bytes_of_python_floats(tmp_path, fmt):
    written = []
    for scalar in (float, np.float64):
        path = tmp_path / f"{scalar.__name__}.{fmt}"
        emit_report(_verdict_report(2, scalar), str(path))
        written.append(path.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "name, is_csv", [("r.csv", True), ("r.json", False), ("r.CSV", False), ("r", False)]
)
def test_emit_report_writes_csv_for_a_csv_suffix_only(tmp_path, monkeypatch, name, is_csv):
    report = _verdict_report(1)
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: report)
    (tmp_path / "main").mkdir()
    assert _run_doc(tmp_path, MINIMAL_BLOCK, "--out", str(tmp_path / "main" / name)) == 0
    emit_report(report, str(tmp_path / name))
    written = (tmp_path / name).read_bytes()
    assert written == (tmp_path / "main" / name).read_bytes()
    if is_csv:
        assert written.startswith(b"case,branch_prob,max_entry_diff,trace_distance,pass\r\n")
    else:
        assert written == (json.dumps(report_to_dict(report), indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "doc, path, where",
    [(_CHAIN, ("input",), "input"), (SKELETONS[0], ("inputs", 0), r"inputs\[0\]")],
    ids=["input", "inputs[0]"],
)
def test_parse_rejects_a_two_qubit_input_state(doc, path, where):
    # a normalised 4x4 state is refused by the parser, before any run
    doc = _set(doc, path, {"matrix": dm.mat_to_json(np.eye(4) / 4)})
    with pytest.raises(ParseError, match=rf"^{where}\.matrix: expected a 2x2 matrix$"):
        parse_experiment(spec_text(doc))


# an input state off by e in its trace, its Hermiticity or its least eigenvalue
_OFF_STATES = {
    "trace": lambda e: np.diag([0.5 + e, 0.5]),
    "hermiticity": lambda e: dm.I2 / 2 + np.array([[0.0, e], [0.0, 0.0]]),
    "eigenvalue": lambda e: np.diag([1.0 + e, -e]),
}


@pytest.mark.parametrize("gap", list(_OFF_STATES))
@pytest.mark.parametrize("atols, code", [(0.5, 0), (2.0, 2)], ids=["0.5atol", "2atol"])
def test_main_input_state_check_holds_within_atol(tmp_path, capsys, gap, atols, code):
    rho = _OFF_STATES[gap](atols * dm.ATOL)
    assert _run_doc(tmp_path, _set(_CHAIN, ("input",), {"matrix": dm.mat_to_json(rho)})) == code
    err = capsys.readouterr().err
    assert err == ("error: input: matrix is not a normalised state\n" if code else "")


@pytest.mark.parametrize(
    "doc, path, where",
    [(_CHAIN, ("input",), "input"), (SKELETONS[0], ("inputs", 0), "inputs[0]")],
    ids=["input", "inputs[0]"],
)
@pytest.mark.parametrize(
    "inner", [{"state": "plus"}, {"matrix": dm.mat_to_json(dm.I2 / 2)}], ids=["state", "matrix"]
)
def test_main_state_object_takes_an_alias_only(tmp_path, capsys, doc, path, where, inner):
    assert _run_doc(tmp_path, _set(doc, path, {"state": inner})) == 2
    assert capsys.readouterr().err == f"error: {where}.state: expected a state alias\n"


def test_main_huge_kraus_entry_is_one_line_spec_error(tmp_path, capsys):
    # an entry this large would overflow sum K^dag K inside validate
    huge = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc = _set(_MPO, ("channels", "noise", "ops"), [huge])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_doc(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: channels.noise: sum K^dag K exceeds the identity")
    assert err.count("\n") == 1


# a finite entry this large overflows U^dag U
_HUGE = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize(
    "doc, path, value, where",
    [
        (
            SKELETONS[0],
            ("channels", "noise"),
            {"builtin": "unitary", "matrix": _HUGE},
            "channels.noise.matrix",
        ),
        (SKELETONS[1], ("channels", "noise", "matrix"), _HUGE, "channels.noise.matrix"),
        (_MPO, ("site_ops", 2, "unitary"), _HUGE, "site_ops[2].unitary"),
    ],
    ids=["unitary", "mixed_unitary", "site_unitary"],
)
def test_main_huge_unitary_entry_is_one_line_spec_error(
    tmp_path, capsys, doc, path, value, where
):
    # refused before U^dag U is formed, so no overflow warning reaches stderr
    message = "matrix fails the unitarity check, U^dag U != I"
    with pytest.raises(NotUnitary, match=rf"^{re.escape(message)}$"):
        check_unitary(dm.mat_from_json(_HUGE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_doc(tmp_path, _set(doc, path, value)) == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"


# a repeated key, which json.loads would resolve to its last value
_REPEATED = {
    "top_level": (_MPO, '"kind": "mpo"', '"kind": "block_chain", "kind": "mpo"', "kind"),
    "chain_step": (_CHAIN, '"alpha2": "noise"', '"alpha2": "noise", "alpha2": "x"', "alpha2"),
    "channel_definition": (_CHAIN, '"p": 0.1', '"p": 0.1, "p": 0.9', "p"),
}


@pytest.mark.parametrize("case", sorted(_REPEATED))
def test_main_repeated_key_is_spec_error_and_writes_nothing(tmp_path, capsys, case):
    doc, once, twice, key = _REPEATED[case]
    save, out = tmp_path / "saved.json", tmp_path / "report.json"
    text = spec_text(dict(doc, save_mpo=str(save)) if doc["kind"] == "mpo" else doc)
    assert text.count(once) == 1
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text.replace(once, twice))
    assert main(["run", str(spec_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {key}: repeated key\n"
    assert list(tmp_path.iterdir()) == [spec_path]


def test_flip_on_takes_integral_floats():
    # flip_on entries are integer fields: an integral float names the same step
    as_floats, as_ints = (_set(_CHAIN3, _FLIPS, flips) for flips in ([0.0, 1.0], [0, 1]))
    got, want = (run_experiment(parse_experiment(spec_text(d))) for d in (as_floats, as_ints))
    assert [c.case_id for c in got.cases] == [c.case_id for c in want.cases]
    for a, b in zip(got.cases, want.cases):
        assert a.closed_form.tobytes() == b.closed_form.tobytes()


def test_main_deeply_nested_document_is_spec_error(tmp_path, capsys):
    # json.loads raises RecursionError long before this depth
    depth = 100_000
    spec_path = tmp_path / "deep.json"
    spec_path.write_text('{"kind": "mpo", "x": ' + "[" * depth + "]" * depth + "}")
    assert main(["run", str(spec_path)]) == 2
    assert capsys.readouterr().err == "error: document nested too deeply to read\n"


def test_chain_z_false_is_the_equatorial_step():
    explicit = _set(_CHAIN, ("chain", 0, "z"), False)
    got, want = (run_experiment(parse_experiment(spec_text(d))) for d in (explicit, _CHAIN))
    assert [c.case_id for c in got.cases] == [c.case_id for c in want.cases]
    for a, b in zip(got.cases, want.cases):
        np.testing.assert_array_equal(a.closed_form, b.closed_form)


@pytest.mark.parametrize("name", ["cluster", "maximally_mixed", "one_clean"])
def test_builder_n_over_register_cap_fails_at_parse(tmp_path, capsys, monkeypatch, name):
    # the cap counts open sites plus forking readouts: the largest n admitted
    # with every site open still runs, and one more open site is refused
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "5")
    limit = 4 if name == "one_clean" else 5  # one_clean adds a clean qubit
    doc = {"kind": "mpo", "builder": {"name": name, "n": limit + 1}}
    message = "builder.n: open sites plus forking readouts must be <= 5 (NOISY_MBQC_MAX_QUBITS)"
    with pytest.raises(ParseError, match=re.escape(message + ", got 6 + 0")):
        parse_experiment(spec_text(doc))
    assert _run_doc(tmp_path, doc) == 2
    assert capsys.readouterr().err == f"error: {message}, got 6 + 0\n"
    assert _run_doc(tmp_path, _set(doc, ("builder", "n"), limit)) == 0
    # a fixed readout of site 0 leaves five open sites, a forking one does not
    fixed = {"site": 0, "basis": "x", "outcome": 1}
    assert _run_doc(tmp_path, dict(doc, measurements=[fixed])) == 0
    capsys.readouterr()
    both = dict(doc, measurements=[dict(fixed, outcome="both")])
    assert _run_doc(tmp_path, both) == 2
    assert capsys.readouterr().err == f"error: {message}, got 5 + 1\n"


def _forking_chain(n_forks: int) -> dict:
    steps = [{"phi": 0.3 * (i + 1), "k": "both"} for i in range(n_forks)]
    return {"kind": "block_chain", "chain": [*steps, {"phi": 0.5, "k": 1}]}


def _teleport(inputs) -> dict:
    noise = {"noise": {"builtin": "bit_flip", "p": 0.1}}
    return {"kind": "teleport", "channels": noise, "resource_noise": "noise", "inputs": inputs}


def _suite(n_cases: int) -> dict:
    return {"kind": "block_chain", "random_suite": {"cases": n_cases}}


@pytest.mark.parametrize(
    "at_the_cap, past_it, got",
    [
        (_forking_chain(3), _forking_chain(4), "chain: {} 2^4 (4 forking steps)"),
        (
            _teleport({"random": 2}),
            _teleport({"random": 3}),
            "inputs.random: {} 4 * 3 (4 Bell outcomes per input)",
        ),
        (
            _teleport(["plus", "zero"]),
            _teleport(["plus", "zero", "one"]),
            "inputs: {} 4 * 3 (4 Bell outcomes per input)",
        ),
        (_suite(4), _suite(5), "random_suite.cases: {} 2 * 5 (k = 0 and 1 per case)"),
    ],
    ids=["chain", "teleport_random", "teleport_list", "random_suite"],
)
def test_a_case_count_over_two_to_the_cap_fails_at_parse(
    tmp_path, capsys, monkeypatch, at_the_cap, past_it, got
):
    # the qubit cap bounds log2 of a document's case count: 2^3 cases run, and
    # one forking step, one input or one suite case more is refused by name
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "3")
    assert _run_doc(tmp_path, at_the_cap) == 0
    assert "summary: 8 cases," in capsys.readouterr().out
    message = got.format("the cases must number <= 2^3 (NOISY_MBQC_MAX_QUBITS), got")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_experiment(spec_text(past_it))
    assert _run_doc(tmp_path, past_it) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_billion_random_inputs_are_refused_at_the_default_cap(monkeypatch):
    monkeypatch.delenv("NOISY_MBQC_MAX_QUBITS", raising=False)
    message = "inputs.random: the cases must number <= 2^12 (NOISY_MBQC_MAX_QUBITS)"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_experiment(spec_text(_teleport({"random": 10**9})))


@pytest.mark.parametrize("depth", [32, 40, 64])
def test_a_deeply_nested_matrix_is_spec_error(tmp_path, capsys, depth):
    doc = dict(MINIMAL_BLOCK, input={"matrix": _nested(depth)})
    assert _run_doc(tmp_path, doc) == 2
    assert capsys.readouterr().err == "error: input.matrix: expected a matrix of [re, im] pairs\n"


def test_a_huge_cap_bounds_the_cases_without_a_huge_power(tmp_path, capsys, monkeypatch):
    # 2**cap as a Python int took seconds and hundreds of MB at a cap of 10^9
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "1000000000")
    start = time.perf_counter()
    assert _run_doc(tmp_path, dict(MINIMAL_BLOCK, chain=[{"phi": 0.3, "k": "both"}])) == 0
    assert time.perf_counter() - start < 1.0
    assert "summary: 2 cases," in capsys.readouterr().out


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_a_cap_that_is_not_an_integer_of_at_least_one_is_spec_error(
    tmp_path, capsys, monkeypatch, raw
):
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", raw)
    assert _run_doc(tmp_path, MINIMAL_BLOCK) == 2
    message = f"NOISY_MBQC_MAX_QUBITS must be an integer of at least 1, got {raw!r}"
    assert capsys.readouterr().err == f"error: {message}\n"


_MPO_CALLS = (
    "mpo_cluster",
    "mpo_apply_pauli",
    "mpo_apply_channel",
    "mpo_measure",
    "mpo_contract",
)


def test_a_register_the_oracle_refuses_costs_no_mpo_work(tmp_path, capsys, monkeypatch):
    # five open sites and a fixed readout of the last one pass the parse rule,
    # but the oracle holds all six sites densely before that readout; it runs
    # first, so the refusal comes before the MPO state is built or updated
    calls = []
    for name in _MPO_CALLS:
        fn = getattr(mpo, name)
        monkeypatch.setattr(mpo, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    doc = {
        "kind": "mpo",
        "builder": {"name": "cluster", "n": 6},
        "channels": {"bf": {"builtin": "bit_flip", "p": 0.1}},
        "site_ops": [{"site": 0, "pauli": [1, 0]}, {"site": 2, "channel": "bf"}],
        "measurements": [{"site": 5, "basis": "x", "outcome": 0}],
    }
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "5")
    assert _run_doc(tmp_path, doc) == 2
    held = "joining site 5 would hold 6 qubits densely, over the cap of 5"
    assert capsys.readouterr().err == f"error: {held} (NOISY_MBQC_MAX_QUBITS)\n"
    assert calls == []
    # one qubit more and the document runs, through every wrapped call
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "6")
    assert _run_doc(tmp_path, doc) == 0
    assert sorted(set(calls)) == sorted(_MPO_CALLS)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("site_ops", 0, "site"), 0.5, "site_ops[0].site: expected an integer"),
        (("site_ops", 0, "pauli"), [1, "x"], "site_ops[0].pauli: expected an int"),
        (("site_ops", 2, "unitary"), [[1, 0], [0, 1]], "site_ops[2].unitary: "),
        (("measurements", 0, "site"), 1.5, "measurements[0].site: expected an integer"),
        (("measurements", 1, "outcome"), True, "measurements[1].outcome: expected an"),
        (("site_ops", 0, "site"), 7, "site_ops[0].site must be in 0..2"),
        (("site_ops", 0, "site"), 3, "site_ops[0].site must be in 0..2"),
        (("site_ops", 1, "site"), -1, "site_ops[1].site must be in 0..2"),
        (("site_ops", 0, "pauli"), [2, 0], "site_ops[0].pauli: expected a pair of bits"),
        (("site_ops", 0, "pauli"), [0, -1], "site_ops[0].pauli: expected a pair of bits"),
        (
            ("site_ops", 2, "unitary"),
            dm.mat_to_json(np.eye(3)),
            "site_ops[2].unitary: unitary must be a non-empty (2, 2) array, got shape (3, 3)",
        ),
        (
            ("site_ops", 2, "unitary"),
            _PROJECTOR,
            "site_ops[2].unitary: matrix fails the unitarity check",
        ),
        (("measurements", 0, "site"), 7, "measurements[0].site must be in 0..3"),
        (("measurements", 1, "site"), -1, "measurements[1].site must be in 0..3"),
        (("measurements", 1, "site"), 0, "measurements[1].site: site 0 is measured twice"),
    ],
)
def test_parse_alone_rejects_bad_mpo_field(path, value, message):
    with pytest.raises(ParseError) as info:
        parse_experiment(spec_text(_set(_MPO, path, value)))
    assert str(info.value).startswith(message)


def test_parse_refuses_events_on_a_one_site_register():
    # its one site is the boundary; the range of event sites used to read "0..-1"
    doc = {"kind": "mpo", "builder": {"name": "maximally_mixed", "n": 1}}
    parse_experiment(spec_text(doc))
    message = "site_ops: the register has no site before the boundary, so it takes no events"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_experiment(spec_text(dict(doc, site_ops=[{"site": 0, "pauli": [1, 0]}])))


@pytest.mark.parametrize("site", [1.5, 9])
def test_main_bad_measurement_site_writes_no_save_mpo(tmp_path, capsys, site):
    save = tmp_path / "saved.json"
    doc = _set(dict(_MPO, save_mpo=str(save)), ("measurements", 0, "site"), site)
    assert _run_doc(tmp_path, doc) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not save.exists()


def _forbidden(*args, **kwargs):
    raise AssertionError("a runner read a document field")


def test_run_reads_no_document_field_and_reruns_the_same(monkeypatch):
    specs = [parse_experiment(spec_text(doc)) for doc in SKELETONS]
    for name in ("_integer", "_number", "_matrix", "_parse_state", "_resolve_ref"):
        monkeypatch.setattr(cli, name, _forbidden)
    for spec in specs:
        spec.payload.clear()
        first, again = run_experiment(spec), run_experiment(spec)
        assert first.passed and first.cases
        for a, b in zip(first.cases, again.cases, strict=True):
            assert a.case_id == b.case_id
            np.testing.assert_array_equal(a.closed_form, b.closed_form)
            np.testing.assert_array_equal(a.oracle, b.oracle)


_RUN_WORK = (
    "mpo_cluster",
    "mpo_maximally_mixed",
    "mpo_one_clean",
    "mpo_apply_pauli",
    "mpo_apply_unitary",
    "mpo_apply_channel",
    "mpo_measure",
    "mpo_contract",
)


def _run_work(*args, **kwargs):
    raise AssertionError("parse did MPO or oracle work")


def test_parse_does_no_mpo_oracle_or_file_work(monkeypatch, tmp_path):
    monkeypatch.setattr(oracle, "simulate", _run_work)
    for name in _RUN_WORK:
        monkeypatch.setattr(mpo, name, _run_work)
    monkeypatch.chdir(tmp_path)
    save = tmp_path / "saved.json"
    for doc in [*SKELETONS, dict(_MPO, save_mpo=str(save))]:
        assert parse_experiment(spec_text(doc)).run
    assert list(tmp_path.iterdir()) == []


def test_chain_integral_float_k_runs_as_int(tmp_path, capsys):
    doc = _set(_CHAIN, ("chain", 1, "k"), 1.0)
    assert _run_doc(tmp_path, doc) == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert labels[:2] == ["k=01", "k=11"]


def test_chain_signed_zero_adaptive_angle_passes():
    doc = {
        "kind": "block_chain",
        "channels": {"pf": {"builtin": "phase_flip", "p": 0.2}},
        "chain": [
            {"phi": 0.4, "k": "both", "alpha1": "pf"},
            {"phi": {"magnitude": 0.0, "flip_on": [0]}, "k": "both", "alpha3": "pf"},
            {"phi": -0.0, "k": "both", "alpha4": "pf"},
        ],
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert report.passed and len(report.cases) == 8


def _chain_cfgs(spec, outcomes):
    """Per-step configurations of one outcome string, resolved independently."""
    cfgs = []
    for entry in spec.payload["chain"]:
        k = outcomes[len(cfgs)]
        if entry.get("z", False):
            cfgs.append(BlockNoiseConfig(meas=MeasSpec.z(k)))
            continue
        phi = entry["phi"]
        if isinstance(phi, dict):
            sign = (-1) ** sum(outcomes[j] for j in phi.get("flip_on", []))
            phi = sign * phi["magnitude"]
        alphas = {
            slot: spec.channels[entry[slot]]
            for slot in ("alpha1", "alpha2", "alpha3", "alpha4")
            if slot in entry
        }
        cfgs.append(BlockNoiseConfig(meas=MeasSpec.equatorial(float(phi), k), **alphas))
    return cfgs


def test_chain_composes_each_distinct_step_once(monkeypatch):
    noise = {"builtin": "mixed_unitary", "p": 0.2, "matrix": _H}
    doc = {
        "kind": "block_chain",
        "channels": {"h": noise, "bf": {"builtin": "bit_flip", "p": 0.1}},
        "chain": [
            {"phi": 0.3, "k": "both", "alpha2": "h"},
            {"phi": {"magnitude": 0.5, "flip_on": [0]}, "k": "both", "alpha3": "h"},
            {"phi": {"magnitude": 0.7, "flip_on": [0, 1]}, "k": 0, "alpha1": "bf"},
            # the same MeasSpec as step 0 with other noise: the key needs the step
            {"phi": 0.3, "k": "both", "alpha4": "h", "alpha3": "bf"},
            {"phi": {"magnitude": 0.9, "flip_on": [3]}, "k": "both", "alpha2": "bf"},
            {"phi": {"magnitude": 0.2, "flip_on": [1, 4]}, "k": 1, "alpha1": "h"},
        ],
    }
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return compose_block_noise(cfg)

    monkeypatch.setattr(cli, "compose_block_noise", counting)
    spec = parse_experiment(spec_text(doc))
    report = run_experiment(spec)
    assert report.passed

    axes = [(0, 1), (0, 1), (0,), (0, 1), (0, 1), (1,)]
    distinct = set()
    for ks, case in zip(product(*axes), report.cases, strict=True):
        assert case.case_id == "k=" + "".join(map(str, ks))
        rho = dm.projector(dm.PLUS)
        for i, cfg in enumerate(_chain_cfgs(spec, ks)):
            distinct.add((i, cfg.meas))
            rho = apply(compose_block_noise(cfg), rho)
        np.testing.assert_array_equal(case.closed_form, rho)
    assert len(calls) == len(distinct) < len(report.cases) * len(axes)


def test_chain_z_steps_fold_like_run_block_sequence():
    doc = {
        "kind": "block_chain",
        "channels": {"h": {"builtin": "mixed_unitary", "p": 0.2, "matrix": _H}},
        "chain": [
            {"z": True, "k": "both"},
            {"phi": 0.4, "k": "both", "alpha2": "h"},
            {"z": True, "k": "both"},
            {"phi": {"magnitude": 0.9, "flip_on": [0, 2]}, "k": "both", "alpha3": "h"},
        ],
    }
    spec = parse_experiment(spec_text(doc))
    # only the closed form: the oracle's Z-step circuit reads out the input
    # qubit, a known defect that fails mid-chain Z steps against the oracle
    report = run_experiment(spec)
    assert len(report.cases) == 16
    for ks, case in zip(product((0, 1), repeat=4), report.cases, strict=True):
        assert case.case_id == "k=" + "".join(map(str, ks))
        want = run_block_sequence(dm.projector(dm.PLUS), _chain_cfgs(spec, ks))
        assert case.closed_form.tobytes() == want.tobytes()


def reference_chain_cases(spec) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The chain runner as a flat loop over ``product(...)``: every outcome
    string starts again from the input, and its oracle is one circuit over the
    whole chain, step i moved onto sites (i, i + 1).  Returns (label, closed
    form, oracle) per case."""
    doc = spec.payload
    steps = []
    for entry in doc["chain"]:
        phi = None if entry.get("z", False) else entry.get("phi", 0.0)
        if phi is not None and not isinstance(phi, dict):
            phi = {"magnitude": phi}
        k = entry.get("k", "both")
        alphas = {
            slot: spec.channels[entry[slot]]
            for slot in ("alpha1", "alpha2", "alpha3", "alpha4")
            if entry.get(slot) is not None
        }
        steps.append((phi, (0, 1) if k == "both" else (int(k),), alphas))
    rho0 = cli._parse_state(doc.get("input", "plus"), "input")
    composed = {}
    cases = []
    for outcomes in product(*(ks for _, ks, _ in steps)):
        closed = rho0.copy()
        circuit: list = [oracle.PrepState(0, rho0)]
        for i, (phi, _, alphas) in enumerate(steps):
            if phi is None:
                meas = MeasSpec.z(outcomes[i])
            else:
                flips = sum(outcomes[j] for j in phi.get("flip_on", []))
                sign = -1.0 if flips % 2 else 1.0
                meas = MeasSpec.equatorial(sign * float(phi["magnitude"]), outcomes[i])
            cfg = BlockNoiseConfig(meas=meas, **alphas)
            step = composed.get((i, meas))
            if step is None:
                if meas.basis == "z" and not alphas:
                    step = ideal_block(meas)
                else:
                    step = compose_block_noise(cfg)
                composed[i, meas] = step
            closed = apply(step, closed)
            for op in oracle.block_step_ops(cfg):
                if isinstance(op, oracle.CZ):
                    circuit.append(oracle.CZ(op.a + i, op.b + i))
                else:
                    circuit.append(dataclasses.replace(op, site=op.site + i))
        orac = oracle.simulate(len(steps) + 1, circuit)
        cases.append(("k=" + "".join(map(str, outcomes)), closed, orac))
    return cases


_NOISE = {
    "h": {"builtin": "mixed_unitary", "p": 0.2, "matrix": _H},
    "bf": {"builtin": "bit_flip", "p": 0.1},
    "dep": {"builtin": "depolarizing"},
}


def _both_chain(n_steps: int) -> dict:
    """An n-step chain, "k": "both" on every step, adaptive from step 1 on."""
    slots = ("alpha1", "alpha2", "alpha3", "alpha4")
    chain = [{"phi": 0.3, "k": "both", "alpha2": "h"}]
    for i in range(1, n_steps):
        phi = {"magnitude": 0.1 * i + 0.2, "flip_on": list(range(i % 2, i, 2))}
        chain.append({"phi": phi, "k": "both", slots[i % 4]: ("bf", "h")[i % 2]})
    return {"kind": "block_chain", "channels": _NOISE, "chain": chain}


_WALK_CHAINS = {
    "adaptive": {
        "kind": "block_chain",
        "channels": _NOISE,
        "input": {"matrix": dm.mat_to_json(dm.projector(np.array([0.6, 0.8j])))},
        "chain": [
            {"phi": 0.3, "k": "both", "alpha2": "h", "alpha3": "bf"},
            {"phi": {"magnitude": 0.5, "flip_on": [0]}, "k": "both", "alpha3": "h"},
            {"phi": {"magnitude": -0.7, "flip_on": [0, 1]}, "k": "both", "alpha1": "dep"},
            {"phi": {"magnitude": 0.0, "flip_on": [2]}, "k": "both", "alpha4": "bf"},
        ],
    },
    "z_first": {
        "kind": "block_chain",
        "channels": _NOISE,
        "chain": [
            {"z": True, "k": "both"},
            {"phi": {"magnitude": 0.4, "flip_on": [0]}, "k": "both", "alpha2": "bf"},
            {"phi": {"magnitude": 1.2, "flip_on": [0, 1]}, "k": 1, "alpha3": "dep"},
            {"phi": -0.0, "k": "both", "alpha4": "h"},
        ],
    },
    # the known Z-mid defect: the closed form keeps the state a Z readout discards
    "z_mid": {
        "kind": "block_chain",
        "channels": _NOISE,
        "chain": [
            {"phi": 0.4, "k": "both", "alpha2": "bf"},
            {"z": True, "k": "both"},
            {"phi": {"magnitude": 0.9, "flip_on": [0, 1]}, "k": "both", "alpha1": "h"},
        ],
    },
    "fixed_k": {
        "kind": "block_chain",
        "channels": _NOISE,
        "input": "one",
        "chain": [
            {"phi": 0.3, "k": 1, "alpha1": "h"},
            {"phi": {"magnitude": 0.6, "flip_on": [0]}, "k": "both", "alpha2": "bf"},
            {"phi": {"magnitude": 0.8, "flip_on": [0, 1]}, "k": 0, "alpha3": "h"},
            {"phi": 1.1, "k": "both", "alpha4": "dep"},
        ],
    },
    "six_both": _both_chain(6),
}


@pytest.mark.parametrize("name", sorted(_WALK_CHAINS))
def test_chain_walk_matches_the_product_loop_bit_for_bit(name):
    spec = parse_experiment(spec_text(_WALK_CHAINS[name]))
    report = run_experiment(spec)
    reference = reference_chain_cases(spec)
    assert [c.case_id for c in report.cases] == [label for label, _, _ in reference]
    for case, (_, closed, orac) in zip(report.cases, reference, strict=True):
        assert case.closed_form.tobytes() == closed.tobytes()
        assert case.oracle.tobytes() == orac.tobytes()
    assert report.passed == (name != "z_mid")


def test_chain_walk_evaluates_each_prefix_once(monkeypatch):
    spec = parse_experiment(spec_text(_both_chain(6)))
    distinct, angles = set(), set()
    for ks in product((0, 1), repeat=6):
        distinct.update((i, cfg.meas) for i, cfg in enumerate(_chain_cfgs(spec, ks)))
        angles.update((i, cfg.meas.phi) for i, cfg in enumerate(_chain_cfgs(spec, ks)))
    counts = {"apply": 0, "simulate": 0, "compose": 0}
    applied = []  # the prefixes each apply call takes, as one (N, 2, 2) stack

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def stacked_apply(ch, rho):
        assert rho.shape[1:] == (2, 2)
        applied.append(len(rho))
        return counted("apply", apply)(ch, rho)

    monkeypatch.setattr(cli, "apply", stacked_apply)
    monkeypatch.setattr(oracle, "simulate", counted("simulate", oracle.simulate))
    monkeypatch.setattr(
        cli, "compose_block_noise", counted("compose", compose_block_noise)
    )
    report = run_experiment(spec)
    assert len(report.cases) == 64 and report.passed
    # one evaluation per prefix, 2 + 4 + ... + 64, where a loop over the
    # strings applies 6 * 64 steps; the closed form makes one stacked apply per
    # distinct step channel of a level, and the oracle one call per level, its
    # prefixes stacked and the readout forking over every (angle, k) ket
    assert sum(applied) == 2**7 - 2 == 126
    assert counts["apply"] == len(distinct) == 20
    assert counts["simulate"] == len({i for i, _ in angles}) == 6
    assert counts["compose"] == len(distinct) == 20


@pytest.mark.parametrize("pauli", [True, False], ids=["pauli", "general"])
@pytest.mark.parametrize("n_inputs", [1, 7])
def test_teleport_runs_one_closed_form_call_per_bell_outcome(monkeypatch, pauli, n_inputs):
    noise = {"builtin": "phase_flip", "p": 0.2} if pauli else SKELETONS[1]["channels"]["noise"]
    doc = {
        "kind": "teleport",
        "channels": {"noise": noise},
        "resource_noise": "noise",
        "inputs": {"random": n_inputs},
    }
    closed = "pauli_corrected_target" if pauli else "teleport_branch"
    other = "teleport_branch" if pauli else "pauli_corrected_target"
    counts = {closed: 0, other: 0, "teleport_oracle_state": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, closed)
    counted(cli, other)
    counted(oracle, "teleport_oracle_state")
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 4 * n_inputs and report.passed
    # one call per Bell outcome (s, t), each over the stack of every input
    assert counts == {closed: 4, other: 0, "teleport_oracle_state": 1}


def _fixed_chain(n_steps: int) -> dict:
    """An n-step chain with one outcome per step, so one case, adaptive from step
    1 on, with noise in all four slots of every step."""
    slots = ("alpha1", "alpha2", "alpha3", "alpha4")
    chain = []
    for i in range(n_steps):
        flip_on = list(range(max(0, i - 3), i))
        phi = {"magnitude": 0.1 * (i % 9) + 0.2, "flip_on": flip_on}
        noise = {slot: ("h", "bf")[(i + j) % 2] for j, slot in enumerate(slots)}
        chain.append({"phi": phi, "k": i % 2, **noise})
    return {"kind": "block_chain", "channels": _NOISE, "chain": chain}


def test_chain_holds_two_qubits_whatever_its_length(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "2")
    sizes = []
    simulate = oracle.simulate

    def recorded(n, ops):
        sizes.append(n)
        return simulate(n, ops)

    monkeypatch.setattr(oracle, "simulate", recorded)
    assert _run_doc(tmp_path, _fixed_chain(100)) == 0
    assert sizes == [2] * 100
    [case] = run_experiment(parse_experiment(spec_text(_fixed_chain(100)))).cases
    tr = np.trace(case.closed_form).real
    assert 0.0 < tr < 1e-20  # a tiny branch, which the absolute gate cannot see
    np.testing.assert_allclose(case.oracle / tr, case.closed_form / tr, atol=1e-12)
    capsys.readouterr()
    # each step's circuit holds two qubits, one more than this cap
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "1")
    assert _run_doc(tmp_path, _fixed_chain(100)) == 2
    assert "would hold 2 qubits densely, over the cap of 1 " in capsys.readouterr().err


def test_chain_longer_than_the_recursion_limit_runs(tmp_path, capsys):
    assert _run_doc(tmp_path, _fixed_chain(1100)) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=") and "summary: 1 cases," in out
