"""Check that two checkouts give the same answers on the reference documents.

    python tools/same_answers.py OLD_ROOT NEW_ROOT

The reference documents are the ``calculus``, ``oracle_wide`` and
``mpo_open`` documents that NEW_ROOT's ``perfbench/workloads.py`` makes at
seeds 7 and 11, plus NEW_ROOT's ``demos/specs/*.json``.  For each checkout,
one fresh interpreter with ``OPENBLAS_NUM_THREADS=1`` and that checkout's
``src`` first on its path runs every document through ``cli.main``, once with
``--out x.json`` and once with ``--out x.csv``; a document whose JSON report
holds a case runs once more with ``--out x.json --cases`` set to that report's
first case id, which the results list as ``--cases first``.  The two
checkouts must agree on the exit code, stdout, stderr, the CSV bytes, and the
JSON bytes apart from the ``meta.timestamp`` value.  Every document that differs is listed,
and the exit code is 1 if any does, else 0.  For each JSON report that
differs, the largest absolute change of each numeric field (``closed_form``,
``oracle``, ``max_entry_diff``, ``trace_distance``, ``branch_prob``) is
printed, with the count of entries that differ only in the sign of zero.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SEEDS = (7, 11)
TIMESTAMP = re.compile(r'^(\s*"timestamp": ).*$', re.MULTILINE)
NUMERIC_FIELDS = ("closed_form", "oracle", "max_entry_diff", "trace_distance", "branch_prob")

# run in each checkout's interpreter: argv is src, the documents, the results file
CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

src, docs, results_path = sys.argv[1:]
sys.path.insert(0, src)
from noisy_mbqc import cli

if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"imported {cli.__file__}, not the checkout at {src}")


def answer(doc, report, *extra):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", str(doc), "--out", report, *extra])
        except (Exception, SystemExit) as exc:  # a traceback is an answer too
            code = f"raised {exc!r}"
    path = Path(report)
    text = path.read_text(encoding="utf-8") if path.exists() else None
    path.unlink(missing_ok=True)
    return [code, out.getvalue(), err.getvalue(), text]


results = {}
for doc in sorted(Path(docs).iterdir()):
    for report in ("x.json", "x.csv"):
        results[f"{doc.name} --out {report}"] = answer(doc, report)
    text = results[f"{doc.name} --out x.json"][3]
    cases = json.loads(text)["cases"] if text is not None else []
    if cases:
        first = answer(doc, "x.json", "--cases", cases[0]["case"])
        results[f"{doc.name} --cases first --out x.json"] = first
Path(results_path).write_text(json.dumps(results), encoding="utf-8")
"""


def reference_documents(root: Path) -> dict[str, str]:
    """File name -> text of every reference document, in a stable order."""
    path = root / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    docs = {
        f"{workload}_s{seed}_{doc.name}.json": doc.text
        for workload in ("calculus", "oracle_wide", "mpo_open")
        for seed in SEEDS
        for doc in workloads.make_documents(workload, seed)
    }
    for spec_path in sorted((root / "demos" / "specs").glob("*.json")):
        docs[f"demo_{spec_path.name}"] = spec_path.read_text(encoding="utf-8")
    return docs


def answers(root: Path, docs_dir: Path, work: Path) -> dict[str, list]:
    """Run every document in one fresh interpreter on ``root``'s source."""
    work.mkdir()
    results = work / "results.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    args = [sys.executable, "-c", CHILD, str(root / "src"), str(docs_dir), str(results)]
    subprocess.run(args, cwd=work, env=env, check=True)
    found = json.loads(results.read_text(encoding="utf-8"))
    for key, entry in found.items():
        text = entry[3]
        if text is not None and key.endswith(".json"):
            entry[3] = TIMESTAMP.sub(r"\1null", text)  # still JSON, for moves()
    return found


def _number_pairs(old, new, field=None):
    """(field, old, new) for each number under a numeric field that both
    report trees hold at the same place."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old.keys() & new.keys():
            yield from _number_pairs(old[key], new[key], key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for x, y in zip(old, new):
            yield from _number_pairs(x, y, field)
    elif field in NUMERIC_FIELDS and isinstance(old, float) and isinstance(new, float):
        yield field, old, new


def moves(old_text: str, new_text: str) -> tuple[dict[str, float], int]:
    """The largest absolute change of each numeric field between two JSON
    reports, and the number of entries that differ only in the sign of zero."""
    largest = dict.fromkeys(NUMERIC_FIELDS, 0.0)
    signed_zeros = 0
    for field, x, y in _number_pairs(json.loads(old_text), json.loads(new_text)):
        if x == y:
            signed_zeros += math.copysign(1.0, x) != math.copysign(1.0, y)
        elif not (math.isnan(x) and math.isnan(y)):
            largest[field] = max(largest[field], abs(x - y))
    return largest, signed_zeros


def moves_line(largest: dict[str, float], signed_zeros: int) -> str:
    """What :func:`moves` found, as one line."""
    fields = ", ".join(f"{field} {value:.2g}" for field, value in largest.items())
    return f"moved: {fields}; {signed_zeros} signed zeros"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/same_answers.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        docs_dir = Path(tmp) / "docs"
        docs_dir.mkdir()
        docs = reference_documents(new_root)
        for name, text in docs.items():
            (docs_dir / name).write_text(text, encoding="utf-8")
        old = answers(old_root, docs_dir, Path(tmp) / "old")
        new = answers(new_root, docs_dir, Path(tmp) / "new")

    fields = ("exit code", "stdout", "stderr", "report")
    keys = old.keys() | new.keys()  # a --cases run may come from one checkout only
    old, new = ({key: found.get(key, [None] * 4) for key in keys} for found in (old, new))
    differ = {
        key: [f for f, x, y in zip(fields, old[key], new[key]) if x != y]
        for key in sorted(keys)
        if old[key] != new[key]
    }
    total, total_zeros = dict.fromkeys(NUMERIC_FIELDS, 0.0), 0
    for key, what in differ.items():
        print(f"differs: {key} ({', '.join(what)})")
        texts = old[key][3], new[key][3]
        if "report" in what and key.endswith(".json") and None not in texts:
            largest, signed_zeros = moves(*texts)
            print(f"  {moves_line(largest, signed_zeros)}")
            total = {f: max(total[f], largest[f]) for f in NUMERIC_FIELDS}
            total_zeros += signed_zeros
    if differ:
        print(f"over all JSON reports, {moves_line(total, total_zeros)}")
    codes = Counter(str(new[f"{name} --out x.json"][0]) for name in docs)
    summary = ", ".join(f"exit {code}: {n}" for code, n in sorted(codes.items()))
    documents = len({key.split(" --")[0] for key in differ})
    verdict = f"{documents} documents differ" if differ else "same answers"
    print(f"{verdict}; {len(docs)} documents ({summary})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
