"""Smoke test: every demo script, example spec and README example still runs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import report_from_dict

from noisy_mbqc import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
SPECS = sorted((ROOT / "demos" / "specs").glob("*.json"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_script_runs(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=script.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.name)
def test_demo_spec_passes(spec, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["run", str(spec), "--out", str(out)]) == 0
    text = out.read_text()
    report = report_from_dict(json.loads(text))
    assert text == json.dumps(cli.report_to_dict(report), indent=2) + "\n"


def test_readme_python_blocks_run():
    assert README_BLOCKS, "README.md has no python block"
    for i, code in enumerate(README_BLOCKS):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
