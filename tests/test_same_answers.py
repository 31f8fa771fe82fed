"""Smoke test of ``tools/same_answers.py``, the check that two checkouts give
the same answers.  Its reference documents are parsed here, never run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from noisy_mbqc import cli

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_answers.py"
_spec = importlib.util.spec_from_file_location("same_answers", TOOL)
same_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_answers)


def test_no_checkouts_prints_the_usage_line(capsys):
    assert same_answers.main([]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "usage: python tools/same_answers.py OLD_ROOT NEW_ROOT\n")


def test_every_workload_and_demo_spec_is_one_parsed_document():
    docs = same_answers.reference_documents(ROOT)
    workloads = sys.modules["perfbench_workloads"]  # the module the tool loaded
    # a name made twice would overwrite a document and shrink the count
    expected = sum(
        len(workloads.make_documents(workload, seed))
        for workload in workloads.GENERATORS
        for seed in same_answers.SEEDS
    )
    expected += len(list((ROOT / "demos" / "specs").glob("*.json")))
    assert len(docs) == expected
    assert all(name.endswith(".json") for name in docs)
    for text in docs.values():
        cli.parse_experiment(text)


def _report(closed, oracle, diff, prob):
    case = {"case": "b0", "closed_form": closed, "oracle": oracle, "max_entry_diff": diff}
    case |= {"trace_distance": diff, "branch_prob": prob, "pass": False}
    return json.dumps({"format": 2, "cases": [case], "summary": {"max_entry_diff": diff}})


def test_moves_reports_the_largest_change_of_each_field_and_the_signed_zeros():
    old = _report([[[0.5, 0.0], [0.0, -0.0]]], [[[0.5, 1e-17], [0.0, 0.0]]], 1e-17, 0.25)
    new = _report([[[0.5, 0.0], [0.0, -0.0]]], [[[0.5, -2e-17], [-0.0, 0.0]]], 3e-17, 0.25)
    largest, signed_zeros = same_answers.moves(old, new)
    assert largest == pytest.approx(
        {
            "closed_form": 0.0,
            "oracle": 3e-17,
            "max_entry_diff": 2e-17,
            "trace_distance": 2e-17,
            "branch_prob": 0.0,
        },
        rel=1e-12,
        abs=0.0,
    )
    assert signed_zeros == 1
    assert same_answers.moves_line(largest, signed_zeros) == (
        "moved: closed_form 0, oracle 3e-17, max_entry_diff 2e-17, "
        "trace_distance 2e-17, branch_prob 0; 1 signed zeros"
    )
