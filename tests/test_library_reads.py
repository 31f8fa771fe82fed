"""Every public function and class of a library module is read by the library,
a demo or a README example, or named in README.md; a helper only tests read
belongs in the tests, as a named reference.  Every option of a public function
or method is set by some call outside the tests."""

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


CALLERS = [*PACKAGE.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("tools/*.py")]
CALLERS += ROOT.glob("perfbench/*.py")  # read only: the benchmark's own calls
CALLS = [
    node
    for code in [p.read_text() for p in CALLERS] + README_BLOCKS
    for node in ast.walk(ast.parse(code))
    if isinstance(node, ast.Call)
]


def options(tree: ast.Module):
    """(function, parameter, position) of each defaulted parameter of a public
    function or of a public method of a public class; keyword-only at None."""
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef) and not n.name.startswith("_")]
    for scope in [tree, *classes]:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            pos = [a.arg for a in args.posonlyargs + args.args if a.arg not in ("self", "cls")]
            for i in range(len(pos) - len(args.defaults), len(pos)):
                yield fn.name, pos[i], i
            for a, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, a.arg, None


def sets(call: ast.Call, name: str, param: str, position) -> bool:
    """True when ``call`` calls ``name`` and passes ``param``, by keyword, by
    position, or through a * or ** unpacking."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
        return False
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return starred or (position is not None and len(call.args) > position)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_option_is_set_by_a_call(path):
    """A default that every caller keeps is one value, not an option.  Calls in
    the library, the demos, the tools, the benchmark and the README count, and
    so does a call that forwards the option: ``is_psd(m, tol)`` inside a
    wrapper with its own ``tol`` sets ``is_psd``'s ``tol``."""
    unset = [
        f"{fn}({param})"
        for fn, param, position in options(ast.parse(path.read_text()))
        if not any(sets(call, fn, param, position) for call in CALLS)
    ]
    assert not unset, f"{path.name}: no call outside the tests sets {unset}"


def test_option_check_sees_keywords_positions_and_forwarding():
    tree = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n    def m(self, x=0): pass\n    def _p(self, y=0): pass\n"
    )
    assert list(options(tree)) == [("f", "b", 1), ("f", "c", None), ("m", "x", 0)]
    calls = [ast.parse(c).body[0].value for c in ("f(0, 1)", "k.f(0, c=3)", "k.m(**kw)", "g(0, 1)")]
    assert [sets(c, "f", "b", 1) for c in calls] == [True, False, False, False]
    assert [sets(c, "f", "c", None) for c in calls] == [False, True, False, False]
    assert sets(calls[2], "m", "x", 0)


def test_package_init_binds_only_its_modules():
    # every caller imports a name from its module, so the package re-exports none
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.unparse(node)
        assert node.module is None, f"re-exports names of .{node.module}"
    assert {a.name for n in imports for a in n.names} <= {p.stem for p in MODULES}
    assigned = {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets}
    assert assigned == {"__version__"}
