"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkoshy"


def test_src_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules, SRC
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
