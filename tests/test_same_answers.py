"""Smoke test of ``tools/same_answers.py``, the check that two checkouts give
the same answers.  Its reference documents are parsed here; the demo specs and
one workload document per size class are run, to check the JSON writer."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from noisy_mbqc import cli
from noisy_mbqc.cli import report_to_dict

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


# size classes whose oracle takes seconds, skipped as perfbench's own tests do
SLOW = ("wide_9", "wide_10")


def _writer_documents() -> dict[str, str]:
    """The demo specs, and the first document of each size class that each
    workload makes at seed 7 (a class is a document's name without its index)."""
    same_answers.reference_documents(ROOT)  # loads the workloads module
    workloads = sys.modules["perfbench_workloads"]
    specs = (ROOT / "demos" / "specs").glob("*.json")
    docs = {f"demo_{p.stem}": p.read_text(encoding="utf-8") for p in specs}
    for workload in workloads.GENERATORS:
        for doc in workloads.make_documents(workload, 7):
            size_class = doc.name.split("_", 1)[1]
            if not size_class.endswith(SLOW):
                docs.setdefault(f"{workload}_{size_class}", doc.text)
    return dict(sorted(docs.items()))


_WRITER_DOCUMENTS = _writer_documents()


@pytest.mark.parametrize("text", _WRITER_DOCUMENTS.values(), ids=_WRITER_DOCUMENTS.keys())
def test_each_reference_report_is_json_dumps_of_report_to_dict(tmp_path, monkeypatch, text):
    reports, run_experiment = [], cli.run_experiment

    def fixed(*args, **kwargs):
        report = run_experiment(*args, **kwargs)
        report.timestamp = "2000-01-01T00:00:00+00:00"
        reports.append(report)
        return report

    monkeypatch.setattr(cli, "run_experiment", fixed)
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(spec), "--out", str(out)]) in (0, 1)
    [report] = reports
    want = json.dumps(report_to_dict(report), indent=2) + "\n"
    assert out.read_text(encoding="utf-8") == want


def test_answers_run_each_document_again_on_its_first_case(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    chain = {"kind": "block_chain", "chain": [{"phi": 0.3, "k": "both"}]}
    (docs / "chain.json").write_text(json.dumps(chain), encoding="utf-8")
    (docs / "bad.json").write_text("{}", encoding="utf-8")
    found = same_answers.answers(ROOT, docs, tmp_path / "work")
    assert sorted(found) == [
        "bad.json --out x.csv",
        "bad.json --out x.json",  # exit 2 writes no report, so no case to pick
        "chain.json --cases first --out x.json",
        "chain.json --out x.csv",
        "chain.json --out x.json",
    ]
    code, out, err, text = found["chain.json --cases first --out x.json"]
    assert (code, err) == (0, "")
    assert out.startswith("k=0: ") and "summary: 1 cases, " in out
    assert [c["case"] for c in json.loads(text)["cases"]] == ["k=0"]
