"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_documents  # noqa: E402

from noisy_mbqc import cli, densemath, mpo, oracle  # noqa: E402
from noisy_mbqc.teleport import is_pauli_channel  # noqa: E402

MODULES = {"cli": cli, "oracle": oracle, "mpo": mpo, "densemath": densemath}
# size classes whose oracle takes seconds; the case-count test skips them
SLOW = ("wide_9", "wide_10")


def run_doc(doc, tmp_path) -> tuple[int, dict]:
    spec, report = tmp_path / f"{doc.name}.json", tmp_path / f"{doc.name}.out.json"
    spec.write_text(doc.text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["run", str(spec), "--out", str(report)])
    return rc, json.loads(report.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert make_documents(workload, 5) == make_documents(workload, 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_same_size_classes(workload):
    a, b = make_documents(workload, 5), make_documents(workload, 6)
    assert [d.name for d in a] == [d.name for d in b]
    assert [d.expected_cases for d in a] == [d.expected_cases for d in b]
    assert all(x.text != y.text for x, y in zip(a, b))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_defect_share_is_fixed(workload):
    shares = {sum(d.defect for d in make_documents(workload, s)) for s in range(8)}
    assert shares == {bench.TABLE["workloads"][workload]["defects"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_teleport_resources_take_their_path(workload):
    for seed in range(8):
        for doc in make_documents(workload, seed):
            if "teleport" in doc.name:
                spec = cli.parse_experiment(doc.text)
                noise = spec.channels[spec.payload["resource_noise"]]
                assert is_pauli_channel(noise) == doc.name.endswith("pauli"), doc.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_expected_cases_match_report(workload, tmp_path):
    for doc in make_documents(workload, 3):
        if doc.name.endswith(SLOW):
            continue
        rc, report = run_doc(doc, tmp_path)
        assert report["summary"]["n_cases"] == doc.expected_cases, doc.name
        assert rc == (1 if doc.defect else 0), doc.name


def test_spans_leave_results_and_functions_unchanged(tmp_path):
    doc = next(d for d in make_documents("mpo_open", 1) if d.name.endswith("open_6"))
    before = {name: getattr(MODULES[m], a) for name, (m, a) in spans.WRAPPED.items()}
    _, plain = run_doc(doc, tmp_path)
    rec = spans.Recorder()
    spans.install(rec, MODULES)
    try:
        _, traced = run_doc(doc, tmp_path)
    finally:
        spans.uninstall(rec, MODULES)
    assert {name: getattr(MODULES[m], a) for name, (m, a) in spans.WRAPPED.items()} == before
    for report in (plain, traced):
        del report["meta"]["timestamp"]
    assert plain == traced
    metrics = spans.layer_metrics(rec)
    assert metrics["mpo.contract_calls"] == 1
    assert metrics["oracle.peak_qubits"] == 6
    assert metrics["mpo.output_entries"] == 4**5


def test_min_passes_leave_ten_above_the_tail():
    for docs_per_pass in (5, 17, 19, 20):
        for p in (50, 70, 90, 95):
            k = bench.min_passes(docs_per_pass, p)
            values = list(range(k * docs_per_pass))
            bench.percentile(values, p)
            with pytest.raises(bench.BenchError):
                bench.percentile(values[: (k - 1) * docs_per_pass], p)


def test_benchmark_json_mirrors_the_table():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    table = bench.TABLE
    assert [w["name"] for w in spec["workloads"]] == list(table["workloads"])
    for w in spec["workloads"]:
        entry = table["workloads"][w["name"]]
        assert w["why"] == entry["why"]
        assert f"tail p{entry['tail_percentile']}" in w["why"]
    assert spec["end_to_end"] == table["end_to_end"]
    assert spec["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")}
        for layer in table["layers"]
        for m in layer["metrics"]
    ]
    assert set(table["wrappers"]) == set(spans.WRAPPED) | {spans.ROOT}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calculus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
