"""Every imported name is used.  An unused import is dead code, or a call
site that moved away from it.  The package's ``__init__.py`` is exempt: its
imports are the public re-exports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(path for path in (ROOT / "src" / "qclab").glob("*.py")
               if path.name != "__init__.py") \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\nnp.zeros(c)\nx.y.z\n")
    assert unused_imports(source) == ["e", "os"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
