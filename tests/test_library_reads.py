"""Every public function and class of a library module is read by the library,
a demo or a README example, or named in README.md; a helper only tests read
belongs in the tests, as a named reference.  Every option of a public function
or method, and every defaulted field of a public class, is set by some call
outside the tests.  Every array argument is converted by
``densemath.stacked``."""

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


def calls(tree: ast.Module):
    """(called name, call) of every call in ``tree``: the bare or attribute
    name, or the class for a ``cls(...)`` call in that class's classmethod."""
    own = {}
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        for fn in [f for f in cls.body if isinstance(f, ast.FunctionDef)]:
            if "classmethod" not in map(ast.unparse, fn.decorator_list):
                continue
            first = fn.args.args[0].arg
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == first:
                    own[node] = cls.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield own.get(node, name), node


CALLS = [
    pair
    for code in [p.read_text() for p in CALLERS] + README_BLOCKS
    for pair in calls(ast.parse(code))
]


def options(tree: ast.Module):
    """(function, parameter, position) of each defaulted parameter of a public
    function or of a public method of a public class, keyword-only at None;
    and (class, field, position) of each defaulted field of a public class,
    an annotated assignment with a value in its body, a ``ClassVar`` not one."""
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
    for cls in classes:
        fields = [
            n
            for n in cls.body
            if isinstance(n, ast.AnnAssign) and "ClassVar" not in ast.unparse(n.annotation)
        ]
        for i, field in enumerate(fields):
            if field.value is not None:
                yield cls.name, field.target.id, i


def sets(called: str, call: ast.Call, name: str, param: str, position) -> bool:
    """True when ``called``, the name ``call`` calls, is ``name`` and ``call``
    passes ``param``, by keyword, by position, or through a * or ** unpacking."""
    if called != name:
        return False
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return starred or (position is not None and len(call.args) > position)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_option_is_set_by_a_call(path):
    """A default that every caller keeps is one value, not an option; so is a
    dataclass field's default.  Calls in the library, the demos, the tools,
    the benchmark and the README count, and so does a call that forwards the
    option: ``is_psd(m, tol)`` inside a wrapper with its own ``tol`` sets
    ``is_psd``'s ``tol``."""
    unset = [
        f"{fn}({param})"
        for fn, param, position in options(ast.parse(path.read_text()))
        if not any(sets(*pair, fn, param, position) for pair in CALLS)
    ]
    assert not unset, f"{path.name}: no call outside the tests sets {unset}"


def test_option_check_sees_keywords_positions_and_forwarding():
    tree = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n    def m(self, x=0): pass\n    def _p(self, y=0): pass\n"
    )
    assert list(options(tree)) == [("f", "b", 1), ("f", "c", None), ("m", "x", 0)]
    code = ("f(0, 1)", "k.f(0, c=3)", "k.m(**kw)", "g(0, 1)")
    pairs = [next(calls(ast.parse(c))) for c in code]
    assert [sets(*p, "f", "b", 1) for p in pairs] == [True, False, False, False]
    assert [sets(*p, "f", "c", None) for p in pairs] == [False, True, False, False]
    assert sets(*pairs[2], "m", "x", 0)


def test_option_check_sees_fields_and_classmethods():
    tree = ast.parse(
        "class D:\n    a: int\n    b: int = 0\n    c: ClassVar[int] = 1\n    d: int = 2\n"
        "    @classmethod\n    def make(cls): return cls(1, d=3)\n"
    )
    assert list(options(tree)) == [("D", "b", 1), ("D", "d", 2)]
    [(called, call)] = calls(tree)
    assert called == "D"
    assert sets(called, call, "D", "d", 2)
    assert not sets(called, call, "D", "b", 1)


def raw_conversions(tree: ast.Module) -> set[tuple[str, str]]:
    """(function, argument) of each ``np.asarray`` or ``np.array`` call that
    converts a parameter of its function, a loop variable, or an attribute of
    either, rather than leaving the conversion to ``densemath.stacked``."""
    found = set()
    for fn in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        a = fn.args
        names = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x}
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.comprehension)):
                names |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if ast.unparse(node.func) not in ("np.asarray", "np.array"):
                continue
            base = node.args[0]
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in names:
                found.add((fn.name, ast.unparse(node.args[0])))
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "densemath.py"], ids=lambda p: p.name
)
def test_array_arguments_are_converted_by_densemath_stacked(path):
    """One owner converts and shape-checks an array a call takes, so a ragged
    or misshapen argument is one DimensionMismatch, in one message form."""
    raw = sorted(raw_conversions(ast.parse(path.read_text())))
    assert not raw, f"{path.name}: convert through dm.stacked, not {raw}"


def test_conversion_check_sees_parameters_loop_variables_and_attributes():
    tree = ast.parse(
        "def f(a, *rest, k=None):\n"
        "    local = [a]\n"
        "    for op in rest:\n        np.asarray(op.u)\n"
        "    kets = [np.array(v) for v in rest]\n"
        "    return np.asarray(a), np.array(k.x.y, dtype=complex), np.asarray(local)\n"
        "def g(self):\n    return np.asarray(self.ops), np.asarray([self]), dm.stacked(self)\n"
    )
    assert raw_conversions(tree) == {
        ("f", "a"),
        ("f", "k.x.y"),
        ("f", "op.u"),
        ("f", "v"),
        ("g", "self.ops"),
    }


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
