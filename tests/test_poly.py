import array
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkoshy import poly
from qkoshy.errors import DivisionInexact, DomainError, UnsupportedDivisor
from qkoshy.poly import (
    Poly,
    RationalForm,
    exact_div,
    q_ratio,
    rational_equal,
    shape,
    unimodal_break_index,
)

from oracles import poly_pow

coeff_lists = st.lists(st.integers(-9, 9), max_size=40)


def ref_convolve(a, b):
    """Schoolbook product on raw coefficient lists, the multiplication oracle."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def test_canonical_form():
    assert Poly(0, 0, 0) == Poly.zero()
    assert Poly().coeffs == ()
    assert Poly(1, 2, 0).coeffs == (1, 2)
    assert Poly.zero().degree == -1
    assert Poly.one().degree == 0
    assert Poly.q().coeffs == (0, 1)
    assert Poly.monomial(3).coeffs == (0, 0, 0, 1)


def test_str_rendering():
    assert str(Poly(1, 1, 2, 1, 1)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert str(Poly.zero()) == "0"
    assert str(Poly(0, -1, 3)) == "-q + 3*q^2"
    assert str(Poly(-2)) == "-2"


def test_arithmetic_spots():
    q = Poly.q()
    assert (Poly.one() + q) * (Poly.one() - q) == Poly(1, 0, -1)
    assert q * q * q == Poly.monomial(3)
    assert Poly(2, 3)(5) == 17
    assert Poly(1, 1, 1)(1) == 3


def test_int_is_the_only_scalar_operand():
    assert 3 - Poly.one() == Poly(2)
    for bad in (2.5, None):
        with pytest.raises(TypeError):
            bad + Poly.one()
        with pytest.raises(TypeError):
            bad - Poly.one()


def test_poly_pow_reference():
    assert poly_pow(Poly(1, 1), 2) == Poly(1, 2, 1)
    assert poly_pow(Poly(1, 1), 0) == Poly.one()
    assert poly_pow(Poly(1, -1), 5) == Poly(1, -5, 10, -10, 5, -1)


@given(coeff_lists, coeff_lists)
def test_mul_matches_reference(a, b):
    # covers both the sparse and the integer-packed multiply paths
    assert (Poly(*a) * Poly(*b)).coeffs == tuple(ref_convolve(a, b))


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    pa, pb, pc = Poly(*a), Poly(*b), Poly(*c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa - pa == Poly.zero()
    assert pa * 0 == 0 * pa == Poly.zero()


@given(coeff_lists, coeff_lists)
def test_exact_div_roundtrip(a, b):
    pa, pb = Poly(*a), Poly(*b)
    if pb.is_zero():
        return
    # divisor leading coefficient must be a unit for exact_div
    if abs(pb.coeffs[-1]) != 1:
        pb = pb + Poly.monomial(pb.degree + 1)
    assert exact_div(pa * pb, pb) == pa


def test_exact_div_errors():
    with pytest.raises(DivisionInexact):
        exact_div(Poly(1, 1, 1), Poly(1, 1))
    with pytest.raises(UnsupportedDivisor):
        exact_div(Poly(2, 4), Poly(2))
    with pytest.raises(ZeroDivisionError):
        exact_div(Poly(1), Poly.zero())


def one_minus(a):
    """The coefficients of 1 - q^a."""
    return (1,) + (0,) * (a - 1) + (-1,)


def ref_long_div(a, b):
    """Schoolbook long division of coefficient lists by a divisor whose
    leading coefficient is +-1: (quotient, remainder), both trimmed."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] * b[-1]
        quot[i] = c
        for k, d in enumerate(b):
            rem[i + k] -= c * d
    return poly._trim(quot), poly._trim(rem)


@given(coeff_lists, st.integers(1, 50))
def test_mul_one_minus_kernel_matches_sparse(c, a):
    # signed coefficients, and len(c) < a whenever a > 40
    b = one_minus(a)
    before = list(c)
    got = poly._mul_one_minus(c, a)
    assert c == before
    if c:
        assert got == poly._mul_sparse(tuple(c), b, len(c) - c.count(0), 2)
    assert poly._trim(got) == tuple(ref_convolve(c, list(b)))
    # Poly.__mul__ gives the kernel's coefficients on either side
    assert (Poly(c) * Poly(b)).coeffs == (Poly(b) * Poly(c)).coeffs == poly._trim(got)


@given(coeff_lists, st.integers(1, 50), st.booleans())
def test_div_one_minus_kernel_matches_long_division(c, a, exact):
    # an exact dividend, or any list at all (mostly inexact), some of
    # them shorter than the divisor
    if exact:
        c = poly._mul_one_minus(c, a)
    quot, rem = ref_long_div(c, one_minus(a))
    before = list(c)
    got = poly._div_one_minus(c, a)
    assert c == before
    if any(rem):
        assert got is None
    else:
        assert poly._trim(got) == quot
    pa, pb = Poly(c), Poly(one_minus(a))
    if pa.is_zero():
        return
    # exact_div is long division whatever the divisor: by 1 - q^a and by
    # q^a - 1 it gives the same DivisionInexact and remainder, and
    # quotients of opposite sign, as the reference division does
    outcomes = []
    for divisor, sign in ((pb, 1), (-pb, -1)):
        try:
            outcomes.append(("quotient", exact_div(pa, divisor) * sign))
        except DivisionInexact as exc:
            outcomes.append((str(exc), exc.remainder))
    assert outcomes[0] == outcomes[1]
    if not any(rem):
        assert outcomes[0] == ("quotient", Poly(quot))
    else:
        assert outcomes[0] == ("inexact division", Poly(rem))


@st.composite
def ratio_cases(draw):
    """(c, tops, bottoms): signed coefficients as a list or a tuple, and up
    to four exponents on each side, some of them on both; an exact case
    puts the bottoms into the dividend first, so the ratio is a polynomial."""
    c = draw(coeff_lists)
    tops = draw(st.lists(st.integers(1, 12), max_size=4))
    shared = draw(st.lists(st.sampled_from(tops), max_size=len(tops))) if tops else []
    bottoms = draw(st.permutations(shared + draw(st.lists(st.integers(1, 12), max_size=4))))
    if draw(st.booleans()):
        for b in bottoms:
            c = ref_convolve(c, one_minus(b))
    if draw(st.booleans()):
        c = tuple(c)
    return c, tops, bottoms


def ref_ratio(c, tops, bottoms):
    """The ratio by products with 1 - q^a and exact_div by each 1 - q^b,
    as a Poly, or None when it is not a polynomial."""
    num = Poly(c)
    for a in tops:
        num = Poly(ref_convolve(num.coeffs, one_minus(a)))
    try:
        for b in bottoms:
            num = exact_div(num, Poly(one_minus(b)))
    except DivisionInexact:
        return None
    return num


def ref_failing_bottom(c, tops, bottoms):
    """The b an inexact q_ratio names: the first bottom, in order, that
    does not divide, once each exponent on both sides has cancelled
    against the first equal bottom."""
    shared = Counter(tops) & Counter(bottoms)
    num = Poly(c)
    for a in (Counter(tops) - shared).elements():
        num = Poly(ref_convolve(num.coeffs, one_minus(a)))
    left = []
    for b in bottoms:
        if shared[b]:
            shared[b] -= 1
        else:
            left.append(b)
    for b in left:
        try:
            num = exact_div(num, Poly(one_minus(b)))
        except DivisionInexact:
            return b
    raise AssertionError("the reference divides every bottom")


@given(ratio_cases())
@settings(max_examples=300)
def test_q_ratio_matches_products_and_long_division(case):
    c, tops, bottoms = case
    args = [list(x) for x in case]
    want = ref_ratio(c, tops, bottoms)
    try:
        got = q_ratio(c, tops, bottoms, "ratio under test")
    except DivisionInexact as exc:
        assert want is None
        b = ref_failing_bottom(c, tops, bottoms)
        assert str(exc) == "ratio under test: 1 - q^%d does not divide" % b
    else:
        assert want is not None and poly._trim(got) == want.coeffs
    # the arguments are as they were
    assert [list(x) for x in (c, tops, bottoms)] == args


def test_q_ratio_rejects_exponents_below_one():
    for tops, bottoms in (((0,), ()), ((), (0,)), ((2, -1), (1,)), ((1,), (3, 0)), ((0,), (0,))):
        with pytest.raises(DomainError, match="exponents >= 1"):
            q_ratio([1, 1], tops, bottoms, "bad exponent")
    # (1 - q^3) / (1 - q) = 1 + q + q^2, and 1 + q is not a multiple of 1 - q^2
    assert q_ratio([1], (3,), (1,), "[3]_q") == [1, 1, 1]
    with pytest.raises(DivisionInexact, match=r"^1 \+ q: 1 - q\^2 does not divide$"):
        q_ratio([1, 1], (), (2,), "1 + q")


def test_q_ratio_refuses_a_remainder_in_the_top_entry_alone():
    # (1 - q^2)(1 + q) + q^3: its prefix sums modulo 2 leave 1 + q + q^3,
    # so the only remainder is the top entry; a cancelled pair on both
    # sides changes nothing
    c = [1, 1, -1, 0]
    assert poly._div_one_minus(c, 2) is None
    for tops, bottoms in (((), (2,)), ((5,), (2, 5)), ((5,), (5, 2))):
        with pytest.raises(DivisionInexact, match=r"^top: 1 - q\^2 does not divide$"):
            q_ratio(c, tops, bottoms, "top")
    assert c == [1, 1, -1, 0]


def test_q_ratio_cancels_shared_factors():
    # a pair on both sides costs no pass: every factor cancelled gives c
    # itself back, and equal exponents cancel as a multiset
    c = (1, 2, 3)
    assert q_ratio(c, (4, 2), (2, 4), "all cancel") is c
    assert q_ratio([1], (2, 2), (2,), "one left") == [1, 0, -1]
    assert q_ratio([1, 0, -1], (3,), (3, 2), "one below") == [1]


def test_div_one_minus_spots():
    # 1 + q + q^2 = (1 - q^3) / (1 - q), and (1 - q^3) / (1 - q^3) = 1
    assert poly._div_one_minus([1, 0, 0, -1], 1) == [1, 1, 1]
    assert poly._div_one_minus([1, 0, 0, -1], 3) == [1]
    assert poly._div_one_minus([], 4) == []
    # a dividend shorter than the divisor, and one with a remainder
    assert poly._div_one_minus([1, 2], 5) is None
    assert poly._div_one_minus([1, 2, 0], 4) is None
    assert poly._div_one_minus([1, 1, 1], 1) is None
    with pytest.raises(DivisionInexact) as short:
        exact_div(Poly(1, 2), Poly(one_minus(5)))
    assert short.value.remainder == Poly(1, 2)
    with pytest.raises(DivisionInexact) as inexact:
        exact_div(Poly(1, 1, 1), Poly(one_minus(1)))
    assert inexact.value.remainder == Poly(3)
    assert poly._mul_one_minus([2, -3], 4) == [2, -3, 0, 0, -2, 3]


@pytest.mark.parametrize("k", [1, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 199, 200])
def test_mul_kronecker_at_digit_boundaries(k):
    # +-(2^k - 1) and +-2^k sit at the digit width and at its sign bit
    rng = random.Random(k)
    values = {
        "nonnegative": [2 ** k - 1, 2 ** k],
        "negative": [-(2 ** k - 1), -(2 ** k)],
        "mixed": [2 ** k - 1, 2 ** k, -(2 ** k - 1), -(2 ** k)],
    }
    for sign_a, sign_b in [("nonnegative", "nonnegative"), ("negative", "negative"),
                           ("negative", "nonnegative"), ("mixed", "mixed"),
                           ("mixed", "negative"), ("nonnegative", "mixed")]:
        for la, lb in [(1, 1), (1, 9), (3, 40), (17, 17), (40, 33)]:
            a = [rng.choice(values[sign_a]) for _ in range(la)]
            b = [rng.choice(values[sign_b]) for _ in range(lb)]
            got = poly._mul_kronecker(tuple(a), tuple(b))
            assert len(got) == la + lb - 1
            assert poly._trim(got) == tuple(ref_convolve(a, b)), (sign_a, sign_b, la, lb)


# Every digit is w = bound.bit_length() // 8 + 1 bytes.  For each w up
# to 28, with bits = 8w, a bound of bit length bits - 1 still gets a
# w-byte digit, and one of bit length bits gets w + 1 bytes.
@pytest.mark.parametrize("bits", range(8, 8 * 28 + 1, 8))
@pytest.mark.parametrize("side", ["below", "above"])
def test_mul_kronecker_word_layouts(bits, side, monkeypatch):
    rng = random.Random(bits * 2 + (side == "above"))
    widths = []
    real_pack = poly._pack

    def pack(coeffs, width, half):
        widths.append(width)
        return real_pack(coeffs, width, half)

    monkeypatch.setattr(poly, "_pack", pack)
    want_bits = bits if side == "below" else bits + 8
    signs = {"nonnegative": [1], "negative": [-1], "mixed": [1, -1]}
    for sign_a, sign_b in itertools.product(signs, repeat=2):
        for la, lb in [(1, 1), (1, 9), (3, 40), (17, 17), (40, 33), (40, 40)]:
            m = min(la, lb)
            top_a = rng.randint(1, (1 << (bits - 2)) // m)
            # the largest bound below 2^(bits-1), or the smallest from it up
            if side == "below":
                top_b = ((1 << (bits - 1)) - 1) // (m * top_a)
            else:
                top_b = -(-(1 << (bits - 1)) // (m * top_a))
            bound = m * top_a * top_b
            assert bound.bit_length() == (bits - 1 if side == "below" else bits)
            # every operand reaches its largest magnitude at least once
            a = [top_a * rng.choice(signs[sign_a]) for _ in range(la)]
            b = [top_b * rng.choice(signs[sign_b]) for _ in range(lb)]
            a[0], b[-1] = top_a * signs[sign_a][-1], top_b * signs[sign_b][-1]
            del widths[:]
            got = poly._mul_kronecker(tuple(a), tuple(b))
            assert widths == [want_bits // 8] * 2
            assert len(got) == la + lb - 1
            assert poly._trim(got) == tuple(ref_convolve(a, b)), (sign_a, sign_b, la, lb)


@given(st.integers(0, 400), st.integers(1, 60), st.integers(1, 60), st.data())
@settings(max_examples=80, deadline=None)
def test_mul_kronecker_against_schoolbook(bits, la, lb, data):
    coeffs = st.integers(1 - (1 << bits), (1 << bits) - 1)
    a = data.draw(st.lists(coeffs, min_size=la, max_size=la))
    b = data.draw(st.lists(coeffs, min_size=lb, max_size=lb))
    if not any(a) or not any(b):
        return
    got = poly._mul_kronecker(tuple(a), tuple(b))
    assert len(got) == la + lb - 1
    assert poly._trim(got) == tuple(ref_convolve(a, b))


class BigEndianWords(array.array):
    """An array whose bytes come out and go in as a big-endian host's would."""

    def tobytes(self):
        swapped = array.array(self.typecode, self)
        swapped.byteswap()
        return swapped.tobytes()

    def frombytes(self, data):
        native = array.array(self.typecode)
        native.frombytes(data)
        native.byteswap()
        self.extend(native)


@given(coeff_lists, coeff_lists, st.integers(0, 200))
@settings(max_examples=60)
def test_mul_kronecker_on_a_big_endian_host(a, b, shift):
    # the byteswap path, run on any host by faking native big-endian words
    a = [c << shift for c in a]
    if not any(a) or not any(b):
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_SWAP", True)
        mp.setattr(poly, "array", BigEndianWords)
        got = poly._mul_kronecker(tuple(a), tuple(b))
    assert poly._trim(got) == tuple(ref_convolve(a, b))


def test_shift_and_substitutions():
    p = Poly(1, 2, 3)
    assert p.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert p.shift(0) == p
    with pytest.raises(DomainError):
        p.shift(-1)
    assert p.subs_power(2).coeffs == (1, 0, 2, 0, 3)
    assert Poly(1, 1, 1).negate_q() == Poly(1, -1, 1)
    assert Poly(0, 1).negate_q() == Poly(0, -1)


def old_subs_power(p, k):
    """q -> q^k as one coefficient at a time, the definition the slice
    assignment in Poly.subs_power replaced."""
    if k == 1 or not p.coeffs:
        return p
    out = [0] * ((len(p.coeffs) - 1) * k + 1)
    for i, c in enumerate(p.coeffs):
        out[i * k] = c
    return Poly(out)


@settings(max_examples=200, deadline=None)
@given(coeff_lists, st.integers(1, 5))
def test_subs_power_matches_the_coefficient_loop(c, k):
    p = Poly(c)
    assert p.subs_power(k) == old_subs_power(p, k)


def test_subs_power_edges():
    rng = random.Random(7)
    p = Poly([rng.randint(-5, 5) for _ in range(12)] + [1])
    assert p.subs_power(1) is p
    assert Poly.zero().subs_power(3) == Poly.zero()
    assert p.subs_power(3) == old_subs_power(p, 3)
    with pytest.raises(DomainError):
        p.subs_power(0)


def test_shape_report():
    s = shape(Poly(1, 2, 3, 2, 1))
    assert s.is_nonnegative and s.is_reciprocal and s.is_unimodal
    assert s.nonneg_prefix_degree == 4
    s = shape(Poly(1, 3, 2, 3, 1))
    assert s.is_reciprocal and not s.is_unimodal
    s = shape(Poly(1, 2, -1))
    assert not s.is_nonnegative and s.nonneg_prefix_degree == 1
    # support-window convention: q^2 + q^3 counts as reciprocal
    assert shape(Poly(0, 0, 1, 1)).is_reciprocal
    assert shape(Poly.zero()) == shape(Poly.zero())
    assert shape(Poly.zero()).nonneg_prefix_degree == -1
    # interior zero between positives breaks unimodality
    assert not shape(Poly(1, 0, 1)).is_unimodal


def test_unimodal_break_index():
    assert unimodal_break_index(Poly(1, 2, 3, 2, 1)) is None
    assert unimodal_break_index(Poly(1, 3, 2, 3, 1)) == 3
    assert unimodal_break_index(Poly(1, 0, 1)) == 2
    assert unimodal_break_index(Poly.zero()) is None
    assert unimodal_break_index(Poly(0, 0, 5)) is None


def test_from_counts():
    assert Poly.from_counts({}) == Poly.zero()
    assert Poly.from_counts({3: 0, 1: 0}) == Poly.zero()
    assert Poly.from_counts({2: 3, 0: 1, 5: 0}) == Poly(1, 0, 3)


def test_rational_forms():
    one, q = Poly.one(), Poly.q()
    a = RationalForm(Poly(1, 1), one - q)
    b = RationalForm((Poly(1, 1)) * (one - q), (one - q) * (one - q))
    assert rational_equal(a, b)
    assert not rational_equal(a, RationalForm(q, one - q))
    c = RationalForm(Poly(1, 1) * (one - q), one - q)
    assert rational_equal(RationalForm(Poly(1, 1), one), c)
    with pytest.raises(ZeroDivisionError):
        RationalForm(one, Poly.zero())
    # _replace and _make build through the same check
    with pytest.raises(ZeroDivisionError):
        a._replace(den=Poly.zero())
    with pytest.raises(ZeroDivisionError):
        RationalForm._make((one, Poly.zero()))
    assert a._replace(num=q) == RationalForm(q, one - q)
