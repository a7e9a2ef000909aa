"""Independent arithmetic for checking qkoshy's outputs.

Nothing here imports qkoshy.  Polynomials are plain lists of ints in
ascending powers of q with no trailing zeros ([] is zero).  The Gaussian
binomials come from the Pascal recurrence, not from the product formula
qkoshy uses, and every product form can also be evaluated at an integer
point with plain int arithmetic: [n]_q at q = x is (x^n - 1)/(x - 1).  Two
polynomials of degree at most D that agree at D + 1 points are equal, so
a few points make a fast screen and enough points a proof (Schwartz 1980;
Zippel 1979).

The cell counts restate each sweep grid and each registry row's domain as
closed forms over the inclusive bounds a report carries.
"""

from math import comb
from operator import add

CONSEQUENCE_N_CAP = 60   # the odd-n sweep re-checks its consequence cells up to n = 60


# -- polynomials on int lists -------------------------------------------


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    out[:len(b)] = map(add, out[:len(b)], b)
    return trim(out)


def pneg(a):
    return [-x for x in a]


def pshift(a, k):
    return [0] * k + list(a) if a else []


def pmul(a, b):
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = map(add, out[i:i + len(b)], [x * y for y in b])
    return trim(out)


def psubs_power(a, k):
    """q -> q^k."""
    if not a:
        return []
    out = [0] * ((len(a) - 1) * k + 1)
    out[::k] = a
    return out


def pdiv_one_minus(a, n):
    """a / (1 - q^n); raises ValueError when the division is not exact."""
    quot = list(a)
    for i in range(n, len(quot)):
        quot[i] += quot[i - n]
    # a = quot * (1 - q^n) exactly iff the top n entries of the running sum vanish
    if any(quot[len(quot) - n:]):
        raise ValueError("not divisible by 1 - q^%d" % n)
    return trim(quot[:len(quot) - n])


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def q_int(n):
    return [1] * n


def gauss(m, k):
    """[m choose k]_q by the Pascal recurrence [i,j] = [i-1,j-1] + q^j [i-1,j]."""
    if m < 0 or k < 0 or k > m:
        return []
    k = min(k, m - k)
    row = [[1]] + [[] for _ in range(k)]
    for i in range(1, m + 1):
        for j in range(min(i, k), 0, -1):
            left, right = row[j - 1], row[j]
            if not right:
                row[j] = list(left)
                continue
            new = left + [0] * max(0, len(right) + j - len(left))
            new[j:j + len(right)] = map(add, new[j:j + len(right)], right)
            row[j] = new
    return row[k]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def ballot_number(n, j):
    """Lattice paths with n U-steps and n + j - 1 D-steps that stay above -j."""
    return j * comb(2 * n + j, n) // (2 * n + j)


def q_catalan(n):
    """MacMahon's form C_n(q) = [2n, n]_q - q [2n, n+1]_q."""
    return padd(gauss(2 * n, n), pneg(pshift(gauss(2 * n, n + 1), 1)))


def q_ballot(j, n):
    """B_j(n) = [2n+j-2, n]_q - q^j [2n+j-2, n-2]_q."""
    return padd(gauss(2 * n + j - 2, n), pneg(pshift(gauss(2 * n + j - 2, n - 2), j)))


def t_term(r, n, j):
    """q^(r^2-r) [n, r]_{q^2} [2n+j-1-2r, n-1]_q (1 - q^j) / (1 - q^n); zero below n = 2r-j."""
    if n < 2 * r - j:
        return []
    core = pmul(psubs_power(gauss(n, r), 2), gauss(2 * n + j - 1 - 2 * r, n - 1))
    num = padd(core, pneg(pshift(core, j)))
    return pshift(pdiv_one_minus(num, n), r * r - r)


def conjecture_poly(case, m, n, j=None):
    """(1 + q^n) [m, n-1]_q, times [j]_q in the even-n case."""
    p = padd(gauss(m, n - 1), pshift(gauss(m, n - 1), n))
    return pmul(p, q_int(j)) if case == "even-n" else p


# -- product forms at an integer point -----------------------------------


def eval_q_int(n, x):
    return n if x == 1 else (x ** n - 1) // (x - 1)


def _ratio(num, den):
    q, r = divmod(num, den)
    if r:
        raise ValueError("product form is not an integer at this point")
    return q


def eval_gauss(m, k, x):
    """prod_{i=1..k} [m-k+i]_x / [i]_x."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(1, k + 1):
        num *= eval_q_int(m - k + i, x)
        den *= eval_q_int(i, x)
    return _ratio(num, den)


def eval_q_catalan(n, x):
    """prod_{i=2..n} [n+i]_x / [i]_x."""
    num = den = 1
    for i in range(2, n + 1):
        num *= eval_q_int(n + i, x)
        den *= eval_q_int(i, x)
    return _ratio(num, den)


def eval_q_ballot(j, n, x):
    """[j]_x [2n+j, n]_x / [2n+j]_x."""
    return _ratio(eval_q_int(j, x) * eval_gauss(2 * n + j, n, x), eval_q_int(2 * n + j, x))


def eval_t_term(r, n, j, x):
    if n < 2 * r - j:
        return 0
    num = (x ** (r * r - r) * eval_gauss(n, r, x * x)
           * eval_gauss(2 * n + j - 1 - 2 * r, n - 1, x) * eval_q_int(j, x))
    return _ratio(num, eval_q_int(n, x))


def eval_conjecture(case, m, n, j, x):
    v = (1 + x ** n) * eval_gauss(m, n - 1, x)
    return v * eval_q_int(j, x) if case == "even-n" else v


# -- shape scans ------------------------------------------------------------


def is_reciprocal(c):
    low = next((i for i, x in enumerate(c) if x), len(c))
    w = c[low:]
    return w == w[::-1]


def is_unimodal(c):
    """Weakly rising, then weakly falling, over the support window."""
    low = next((i for i, x in enumerate(c) if x), len(c))
    w = c[low:]
    i = 0
    while i + 1 < len(w) and w[i + 1] >= w[i]:
        i += 1
    while i + 1 < len(w) and w[i + 1] <= w[i]:
        i += 1
    return i + 1 >= len(w)


# -- combinatorial objects --------------------------------------------------


def is_dyck(word):
    h = 0
    for c in word:
        h += 1 if c == "U" else -1
        if h < 0 or c not in "UD":
            return False
    return h == 0


def up_peaks(word):
    """Peaks UD preceded by another U (so UUD patterns)."""
    return sum(1 for i in range(1, len(word) - 1)
               if word[i - 1] == "U" and word[i] == "U" and word[i + 1] == "D")


def major_index(word):
    return sum(i + 1 for i in range(len(word) - 1) if word[i] == "D" and word[i + 1] == "U")


def labeled_up_peak_count(n, m):
    """Elevated paths over n inner U-steps with m of their up-peaks labelled."""
    return comb(n - m + 1, m) * catalan(n - m) if n >= m else 0


def partition_count(max_part, length, strict):
    """Partitions with exactly `length` parts, each in [1, max_part >= 1]."""
    if strict:
        return comb(max_part, length)
    return comb(max_part - 1 + length, length)


# -- cell counts ------------------------------------------------------------


def sweep_cells(case, m_max, n_max, j_max):
    """Cells one sweep checks on a fresh grid (no frontier)."""
    top = min(n_max, m_max)
    if case == "odd-n":
        c = (top + 1) // 2                        # odd n = 1, 3, ..., 2c-1
        grid = c * (m_max + 1) - c * c            # sum of (m_max - n + 1)
        k = (min(n_max, CONSEQUENCE_N_CAP) + 1) // 2
        return grid + k * (k - 1) // 2            # r = 1..(n-1)/2 per odd n
    e = top // 2                                  # even n = 2, 4, ..., 2e
    return (e * (m_max + 1) - e * (e + 1)) * (j_max // 2)


def _span(lo, hi):
    return max(0, hi - lo + 1)


def _meet(b, lo=None, hi=None):
    """Size of the bound interval b = (a, z) intersected with [lo, hi]."""
    a, z = b
    if lo is not None:
        a = max(a, lo)
    if hi is not None:
        z = min(z, hi)
    return _span(a, z)


def _rng(b, lo=None, hi=None):
    a, z = b
    return range(a if lo is None else max(a, lo), (z if hi is None else min(z, hi)) + 1)


def _level_hi(n):
    # levels of the partition-pair family at j = 1: 0..min(n-1, (n+1)//2)
    return min(n - 1, (n + 1) // 2)


ROW_CELLS = {
    "koshy": lambda p: _meet(p["n"]),
    "upeak-label": lambda p: sum(_meet(p["m"], hi=n + 1) for n in _rng(p["n"])),
    "upeak-gf": lambda p: _meet(p["n"]),
    "lassalle": lambda p: _meet(p["n"], lo=1),
    "lassalle-transform": lambda p: _meet(p["n"], lo=1),
    "tower-ie": lambda p: _meet(p["n"], lo=1),
    "tower-closed": lambda p: sum(_meet(p["m"], 1, n) for n in _rng(p["n"])),
    "lemma1": lambda p: sum(_meet(p["m"], 1, n) for n in _rng(p["n"])),
    "lemma2": lambda p: sum(_meet(p["r"], 1, m) for n in _rng(p["n"])
                            for m in _rng(p["m"], 1, n)),
    "ballot-lassalle": lambda p: _meet(p["n"], lo=1) * _meet(p["r"], lo=0),
    "andrews": lambda p: _meet(p["n"], lo=1),
    "t-forms": lambda p: sum(_meet(p["r"], 1, min(n, (n + 1) // 2))
                             for n in _rng(p["n"], lo=1)),
    "theorem1-even": lambda p: sum(_meet(p["r"], 1, n // 2)
                                   for n in _rng(p["n"], lo=2) if n % 2 == 0),
    "theorem1-odd": lambda p: sum(_meet(p["r"], 1, (n + 1) // 2)
                                  for n in _rng(p["n"]) if n % 2 == 1),
    "theorem1-negq": lambda p: _meet(p["r"], lo=1),
    "cyclo-div": lambda p: sum(_meet(p["r"], 1, n // 2)
                               for n in _rng(p["n"], lo=2) if n % 2 == 0),
    "invT": lambda p: _meet(p["n"], lo=2),
    "partheo": lambda p: sum(_meet(p["r"], 0, _level_hi(n)) for n in _rng(p["n"], lo=1)),
    "iepar": lambda p: sum(_meet(p["r"], 0, _level_hi(n)) for n in _rng(p["n"], lo=2)),
    "qballot-forms": lambda p: _meet(p["n"], lo=1) * _meet(p["j"], lo=1),
    "qballot-koshy": lambda p: _meet(p["n"], lo=1) * _meet(p["j"], lo=1),
    "tj-poly": lambda p: sum(_meet(p["r"], 1, min(n, (n + j) // 2))
                             for n in _rng(p["n"], lo=1) for j in _rng(p["j"], lo=1)),
    "tj-negq": lambda p: sum(_meet(p["j"], 1, r) for r in _rng(p["r"], lo=1)),
    "qlucas": lambda p: (_meet(p["d"], lo=2)
                         * sum(_meet(p["k"], 0, m) for m in _rng(p["m"], lo=0))),
    "maj-catalan": lambda p: _meet(p["n"]),
    "maj-ballot": lambda p: _meet(p["n"], lo=1) * _meet(p["j"], lo=1),
    "succ-ranks": lambda p: _meet(p["n"], lo=1) * _meet(p["j"], lo=1),
    "brunetti-instance": lambda p: sum(_meet(p["r"], 1, n - 1) for n in _rng(p["n"], lo=2)),
}


def row_cells(identity, params):
    """Cells in one registry row's domain, given the bounds its report carries."""
    return ROW_CELLS[identity]({k: tuple(v) for k, v in params.items()})
