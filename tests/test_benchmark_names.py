"""The library names the benchmark's span recorder relies on.

``perfbench/spans.py`` wraps the attributes listed in its ``WRAPPED`` table
and type-checks oracle ops by class.  It is read here as source text, never
imported, so a rename in the library fails this suite rather than only the
traced benchmark run.
"""

import ast
from pathlib import Path

import noisy_mbqc
from noisy_mbqc import oracle

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
