"""The public namespace: every name in ``sumways.__all__`` is bound, none is
listed twice, and a star import binds exactly those names. Modules share
only public names with one another."""

import ast
from pathlib import Path

import sumways


def test_every_exported_name_resolves_once():
    assert len(set(sumways.__all__)) == len(sumways.__all__)
    missing = [name for name in sumways.__all__ if not hasattr(sumways, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from sumways import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sumways.__all__)


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(Path(sumways.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "sumways":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((path.name, node.module, alias.name))
    assert found == []
