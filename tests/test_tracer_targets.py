"""Every function the benchmark's tracer wraps still exists in qkoshy.

perfbench/tracer.py names its targets as (module, dotted attribute, span
name) triples and skips any that is gone, so its metric then reads
missing.  This test fails first, on the refactor that drops one.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in %s" % TRACER)


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = []
    for module, attr, _ in targets:
        mod = importlib.import_module("qkoshy." + module)
        try:
            reduce(getattr, attr.split("."), mod)
        except AttributeError:
            missing.append("%s.%s" % (module, attr))
    assert not missing, missing
