"""Every function, class and method of the package has a caller.

Lists each name defined in src/ultrafix/*.py (functions, classes and
non-dunder methods, nested ones too) and looks for it as a whole word in
src/, tests/, bench/ and pyproject.toml.  A name found nowhere but at its
own definitions has no caller and should go.  The search is textual, so a
name that only a comment or a string mentions still counts as used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ultrafix"


def _definitions():
    names = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def _corpus() -> str:
    files = [ROOT / "pyproject.toml"]
    for top in ("src", "tests", "bench"):
        files += sorted((ROOT / top).rglob("*.py"))
    return "\n".join(path.read_text() for path in files)


def test_every_definition_has_a_reference():
    text = _corpus()
    words = Counter(re.findall(r"\w+", text))
    unused = sorted(name for name, defined in _definitions().items() if words[name] <= defined)
    assert unused == []


def test_every_import_is_read():
    """Each name a module of the package or of the tests imports appears
    again in that module, outside its import statements; the package's
    __init__ only re-exports, and `annotations` is a compiler switch."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        imported = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
        words = Counter(re.findall(r"\w+", "\n".join(lines)))
        unread += [f"{path.relative_to(ROOT)}: {name}" for name in imported if name != "annotations" and not words[name]]
    assert unread == []
