"""Reference constructions that only the tests use."""

from functools import lru_cache

from qkoshy.dyckpaths import peak_dist
from qkoshy.poly import Poly


@lru_cache(maxsize=None)
def ballot_weighted_gen(n, r):
    """Peak generating polynomial over (r+1)-tuples of Dyck paths with n
    U-steps in total, by splitting off the first path of the tuple."""
    if r == 0:
        return peak_dist(n)
    out = Poly.zero()
    for k in range(n + 1):
        out = out + peak_dist(k) * ballot_weighted_gen(n - k, r - 1)
    return out


def poly_pow(p, e):
    """p^e for e >= 0, by repeated multiplication."""
    out = Poly.one()
    for _ in range(e):
        out = out * p
    return out
