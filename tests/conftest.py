import pytest

from qkoshy import poly


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
