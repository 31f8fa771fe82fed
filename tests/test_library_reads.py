"""Every public function and class of a library module is read by the library,
a demo or a README example, or named in README.md; a helper only tests read
belongs in the tests, as a named reference."""

import ast
import re

import pytest
from test_demos import README_BLOCKS
from test_unused_imports import MODULES, PACKAGE, ROOT, read_names

README = (ROOT / "README.md").read_text()


def defined_names(tree: ast.Module) -> set[str]:
    """The public functions and classes a module defines at top level."""
    defs = (ast.FunctionDef, ast.ClassDef)
    return {n.name for n in tree.body if isinstance(n, defs) and not n.name.startswith("_")}


def reads(tree: ast.Module) -> set[str]:
    """Every name the code reads, bare or as an attribute."""
    return read_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def code_names(markdown: str) -> set[str]:
    """Every identifier in an inline code span outside the fenced blocks."""
    prose = re.sub(r"^```.*?^```", "", markdown, flags=re.M | re.S)
    return {w for span in re.findall(r"`([^`\n]+)`", prose) for w in re.findall(r"\w+", span)}


SOURCES = [p.read_text() for p in [*PACKAGE.glob("*.py"), *ROOT.glob("demos/*.py")]]
READ = set().union(*(reads(ast.parse(code)) for code in SOURCES + README_BLOCKS))
KNOWN = READ | code_names(README)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_read_or_documented(path):
    unread = sorted(defined_names(ast.parse(path.read_text())) - KNOWN)
    assert not unread, f"{path.name}: nothing but the tests reads {unread}"


def test_check_sees_attributes_and_code_spans():
    tree = ast.parse("def used(): pass\ndef orphan(): pass\nclass _P: pass\nused()\ncli.to_dict\n")
    assert defined_names(tree) == {"used", "orphan"}
    assert reads(tree) == {"used", "cli", "to_dict"}
    text = "`from_dict` reads\n```python\nf(x)\n```\nand `x.y`"
    assert code_names(text) == {"from_dict", "x", "y"}
