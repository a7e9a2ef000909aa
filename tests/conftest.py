import importlib
import pkgutil

import pytest

import qkoshy
from qkoshy import poly, qfuncs

# every lru_cache'd function of the package's modules, once each
MEMOIZED = list({
    id(obj): obj
    for info in pkgutil.iter_modules(qkoshy.__path__)
    for obj in vars(importlib.import_module("qkoshy." + info.name)).values()
    if callable(getattr(obj, "cache_clear", None))
}.values())


def clear_memos():
    """Empty every memo the package holds: each lru_cache, the table of
    built q-binomials (qfuncs._built) and the held T-terms (qfuncs._held)."""
    for fn in MEMOIZED:
        fn.cache_clear()
    qfuncs._built.clear()
    qfuncs._held.clear()


@pytest.fixture
def cold_memos():
    """Every memo empty when the test starts, and emptied again when it
    ends, so that nothing built under a planted fault outlives the test."""
    clear_memos()
    yield
    clear_memos()


@pytest.fixture
def ratio_passes(monkeypatch):
    """Counts of the list passes behind q_ratio: multiplies by 1 - q^a
    ("mul") and divisions by 1 - q^b ("div"), from when the test sets
    them to zero."""
    counts = {"mul": 0, "div": 0}
    for name, key in (("_mul_one_minus", "mul"), ("_div_one_minus", "div")):
        def counted(c, a, real=getattr(poly, name), key=key):
            counts[key] += 1
            return real(c, a)

        monkeypatch.setattr(poly, name, counted)
    return counts
