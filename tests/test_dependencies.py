"""The package runs on the standard library alone."""

import ast
import os
import subprocess
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


def test_cli_import_loads_no_heavy_module():
    # every qkoshy command is a cold process, which pays for these first
    script = ("import sys; before = set(sys.modules); import qkoshy.cli; "
              "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    assert "qkoshy.cli" in out, out
    assert not {"dataclasses", "inspect", "multiprocessing"} & set(out), out
