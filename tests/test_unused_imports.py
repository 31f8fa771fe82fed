"""Every name a library module, test, demo or tool imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noisy_mbqc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("tools/*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _string_types(node: ast.AST):
    """Parsed expressions of the strings inside an annotation or subscript."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in string annotations."""
    typed = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            typed.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            typed.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            typed.append(node.slice)
    trees = [tree, *(expr for t in typed for expr in _string_types(t))]
    return {
        node.id
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _label(path: Path) -> str:
    """A library module by its file name, a test, demo or tool by its folder too."""
    return path.relative_to(PACKAGE if path.parent == PACKAGE else ROOT).as_posix()


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_label)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_check_sees_leftovers_and_string_annotations():
    tree = ast.parse(
        "import os\n"
        "from .block import MeasSpec, ideal_block\n"
        "def f(x: 'MeasSpec') -> None:\n"
        "    return os.sep\n"
    )
    used = read_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == ["ideal_block"]
