"""Every function the benchmark's tracer wraps still exists in qkoshy,
and every registry row still takes the tracer's wrapper.

perfbench/tracer.py names its targets as (module, dotted attribute, span
name) triples and skips any that is gone, so its metric then reads
missing.  This test fails first, on the refactor that drops one.
"""

import ast
import dataclasses
import importlib
from functools import reduce
from pathlib import Path

from qkoshy import registry

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


def test_tracer_can_rebuild_every_row():
    # the tracer wraps each row's checker with dataclasses.replace
    for row, chk in registry.CHECKS.items():
        traced = dataclasses.replace(chk, checker=len)
        assert type(traced) is registry.Check, row
        assert traced == chk._replace(checker=len), row
