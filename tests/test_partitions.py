import itertools
from collections import Counter
from math import comb

import pickle

import pytest

from qkoshy import partitions
from qkoshy.errors import DomainError, InvariantViolation, NoRepeatedPart, ScaleLimit
from qkoshy.partitions import (
    PartitionPair,
    enumerate_partitions,
    involution_step,
    iter_pairs,
    lambda_side,
    level_range,
    mu_side,
    nu_side,
    pair_box,
    rank_family_gen,
    render_partition,
    repetition_statistic,
)
from qkoshy.poly import Poly
from qkoshy.qfuncs import q_ballot

import oracles


def test_enumeration_counts():
    # partitions with exactly L parts each in [1, M]: count comb(M+L-1, L)
    # only when parts are unordered multisets; check against a direct filter
    for max_part in range(1, 6):
        for length in range(0, 5):
            got = list(enumerate_partitions(max_part, length))
            assert len(set(got)) == len(got)
            for p in got:
                assert len(p) == length
                assert all(1 <= x <= max_part for x in p)
                assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            # stars and bars oracle for multisets of fixed size
            assert len(got) == comb(max_part + length - 1, length) if length else len(got) == 1


def test_enumeration_strict_counts():
    for max_part in range(1, 7):
        for length in range(0, max_part + 1):
            got = list(enumerate_partitions(max_part, length, strict=True))
            assert len(got) == comb(max_part, length), (max_part, length)
            for p in got:
                assert len(set(p)) == len(p)


def test_enumeration_max_length():
    got = list(enumerate_partitions(2, 2, at_most=True))
    assert set(got) == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert got[0] == ()


def test_enumeration_guard():
    with pytest.raises(ScaleLimit):
        list(enumerate_partitions(60, 30))
    # force opens the gate; just peek at the first element
    first = next(iter(enumerate_partitions(60, 30, force=True)))
    assert len(first) == 30
    # an estimate far past the guard is refused without computing it
    with pytest.raises(ScaleLimit):
        next(enumerate_partitions(10 ** 19, 10 ** 18, strict=True))


def test_enumeration_against_recursive_oracle():
    # same partitions in the same order as the recursive walk, prefixes
    # first under at_most
    for max_part in range(0, 9):
        for length in range(0, 9):
            for at_most in (False, True):
                for strict in (False, True):
                    got = list(enumerate_partitions(max_part, length, at_most=at_most,
                                                    strict=strict))
                    want = list(oracles.partitions(max_part, length, at_most, strict))
                    assert got == want, (max_part, length, at_most, strict)


def test_strict_exact_walk_skips_dead_prefixes():
    # 60 partitions out of a tree of 2**60 strict prefixes
    got = list(enumerate_partitions(60, 59, strict=True))
    assert got == [tuple(v for v in range(60, 0, -1) if v != skip) for skip in range(1, 61)]


def test_long_partitions_need_no_recursion():
    walk = enumerate_partitions(2, 3000, at_most=True, force=True)
    assert [len(p) for p in itertools.islice(walk, 3001)] == list(range(3001))
    with pytest.raises(DomainError):
        next(enumerate_partitions(3, -1))


def test_basic_statistics():
    assert oracles.successive_ranks((3, 3, 1)) == (0, 1)
    assert oracles.successive_ranks(()) == ()
    assert oracles.successive_ranks((1,)) == (0,)


def test_successive_ranks_against_full_conjugate():
    # _ranks_below stops at the first rank that is too large and counts
    # conjugate parts by bisect; the oracle builds the whole conjugate
    parts = list(enumerate_partitions(9, 7, at_most=True))
    assert len(parts) == comb(16, 7)
    for lam in parts:
        ranks = oracles.successive_ranks(lam)
        for top in range(-9, 11):
            assert partitions._ranks_below(lam, top) == all(rk < top for rk in ranks), (lam, top)
    assert repetition_statistic((2, 2, 1)) == 1
    assert repetition_statistic((3, 2, 1)) == 0
    assert repetition_statistic((2, 2, 1, 1)) == 2
    assert render_partition((2, 2, 1)) == "[2,2,1]"
    assert render_partition(()) == "[]"


def test_pair_box_and_levels():
    assert pair_box(4, 1) == 3
    assert pair_box(4, 2) == 4
    assert pair_box(4, 5) == 4
    assert level_range(2, 1) == range(0, 2)
    assert level_range(4, 1) == range(0, 3)
    assert level_range(3, 4) == range(0, 4)


def test_pair_validation():
    pair = PartitionPair((1,), (1,), 2, 1)
    assert pair.r == 1 and pair.weight == 3  # mu counts doubled
    with pytest.raises(InvariantViolation):
        PartitionPair((2,), (1,), 2, 1)  # mu part above the box
    with pytest.raises(InvariantViolation):
        PartitionPair((1, 1), (1,), 4, 1)  # mu not strict
    with pytest.raises(InvariantViolation):
        PartitionPair((), (1, 1), 2, 1)  # nu has wrong length for r = 0


def test_pair_is_an_immutable_value():
    pair = PartitionPair((2,), (2, 1), 3, 1)
    same = PartitionPair((2,), (2, 1), 3, 1)
    assert pair == same and hash(pair) == hash(same) and pair is not same
    assert pair != PartitionPair((1,), (2, 1), 3, 1)
    assert pair != ((2,), (2, 1), 3, 1)
    assert len({pair, same}) == 1
    assert repr(pair) == "PartitionPair(mu=(2,), nu=(2, 1), n=3, j=1)"
    assert pickle.loads(pickle.dumps(pair)) == pair
    with pytest.raises(AttributeError):
        pair.mu = (1,)
    with pytest.raises(AttributeError):
        pair.extra = 1
    with pytest.raises(AttributeError):
        del pair.nu
    assert pair.mu == (2,) and pair.nu == (2, 1)


def test_pair_replace_is_checked():
    pair = PartitionPair((2,), (2, 1), 3, 1)
    assert pair._replace(mu=(1,)) == PartitionPair((1,), (2, 1), 3, 1)
    with pytest.raises(InvariantViolation, match="mu part 3 at position 1 exceeds cap 2"):
        pair._replace(mu=(3,))


@pytest.mark.parametrize("mu, nu, n, j, message", [
    ((), (), 0, 1, "need n >= 1 and j >= 1"),
    ((), (1,), 1, 0, "need n >= 1 and j >= 1"),
    ((2, 0), (1,), 3, 1, "mu must be strictly decreasing and positive"),
    ((-1,), (1, 1), 3, 1, "mu must be strictly decreasing and positive"),
    ((1, 1), (1,), 4, 1, "mu must be strictly decreasing and positive"),
    ((1, 2), (1,), 4, 1, "mu must be strictly decreasing and positive"),
    ((2,), (1,), 2, 1, "mu part 2 at position 1 exceeds cap 1"),
    ((6, 4, 1), (1, 1, 1), 5, 4, "mu part 6 at position 1 exceeds cap 5"),
    ((), (1, 1), 2, 1, "nu needs exactly 3 parts, got 2"),
    ((1,), (1, 1), 2, 1, "nu needs exactly 1 parts, got 2"),
    ((), (2, 1, 1), 2, 1, "nu parts must weakly decrease within [1, 1]"),
    ((), (2, 2, 1, 0), 2, 2, "nu parts must weakly decrease within [1, 2]"),
    ((), (1, 2, 1, 1), 2, 2, "nu parts must weakly decrease within [1, 2]"),
])
def test_pair_validation_messages(mu, nu, n, j, message):
    with pytest.raises(InvariantViolation) as exc:
        PartitionPair(mu, nu, n, j)
    assert str(exc.value) == message


def test_involution_hand_example():
    # n=2, j=1: level r=0 holds the single pair ((), (1,1,1)); the smallest
    # repeated value 1 moves two copies out of nu and one part onto mu
    src = PartitionPair((), (1, 1, 1), 2, 1)
    out = involution_step(src)
    assert out.mu == (1,) and out.nu == (1,)
    assert out.weight == src.weight
    assert involution_step(out) == src


def test_involution_is_weight_preserving_pairing():
    for n in range(1, 7):
        for j in range(1, 4):
            for r in level_range(n, j):
                for pair in iter_pairs(n, j, r):
                    out = involution_step(pair)
                    assert out.weight == pair.weight
                    assert out.r in (pair.r - 1, pair.r + 1)
                    assert out != pair
                    assert involution_step(out) == pair


def _counter_involution_step(pair):
    """The involution as first written: count mu + mu + nu with a Counter,
    take the least repeated value, and re-sort nu after an insertion."""
    counts = Counter(pair.nu)
    for p in pair.mu:
        counts[p] += 2
    repeated = [v for v, c in counts.items() if c >= 2]
    if not repeated:
        raise NoRepeatedPart("no value repeats")
    x = min(repeated)
    if pair.mu and pair.mu[-1] == x:
        nu = tuple(sorted(pair.nu + (x, x), reverse=True))
        return PartitionPair(pair.mu[:-1], nu, pair.n, pair.j)
    nu = list(pair.nu)
    nu.remove(x)
    nu.remove(x)
    return PartitionPair(pair.mu + (x,), tuple(nu), pair.n, pair.j)


def test_involution_step_matches_counter_reference():
    seen = 0
    for n in range(1, 7):
        for j in range(1, 5):
            for r in level_range(n, j):
                for pair in iter_pairs(n, j, r):
                    assert involution_step(pair) == _counter_involution_step(pair), pair
                    seen += 1
    assert seen > 1000


def test_side_gen_frozen_spots():
    assert mu_side(3, 1, 1) == Poly(0, 0, 1, 0, 1)  # q^2 + q^4
    assert nu_side(2, 1, 1) == Poly(0, 1)
    assert lambda_side(2, 1) == Poly.monomial(3)


def test_sides_match_enumeration():
    for n in range(1, 7):
        for j in range(1, 4):
            for r in level_range(n, j):
                acc = {}
                for pair in iter_pairs(n, j, r):
                    acc[pair.weight] = acc.get(pair.weight, 0) + 1
                if acc:
                    want = Poly(*[acc.get(i, 0) for i in range(max(acc) + 1)])
                else:
                    want = Poly.zero()
                got = mu_side(n, j, r) * nu_side(n, j, r)
                assert got == want, (n, j, r)


def test_lambda_side_is_level_zero():
    for n in range(1, 8):
        for j in range(1, 4):
            assert lambda_side(n, j) == nu_side(n, j, 0)


def test_rank_family_matches_ballot():
    for n in range(1, 7):
        for j in range(1, 4):
            assert rank_family_gen(n, j) == q_ballot(j, n), (n, j)


def test_rank_family_membership():
    # the generating series counts partitions by the three defining fences:
    # first part, length, and every successive rank below j - 1
    n, j = 4, 2
    total = rank_family_gen(n, j)(1)
    count = sum(
        1
        for lam in enumerate_partitions(n + j - 2, n, at_most=True)
        if all(rk < j - 1 for rk in oracles.successive_ranks(lam))
    )
    assert count == total


def test_rank_family_against_oracle_filter():
    # the whole series against the oracle's walk, each rank read from the
    # oracle's whole conjugate
    for n in range(1, 9):
        for j in range(1, 7):
            want = Poly.from_counts(Counter(
                sum(lam) for lam in oracles.partitions(n + j - 2, n, at_most=True)
                if all(rk < j - 1 for rk in oracles.successive_ranks(lam))))
            assert rank_family_gen(n, j) == want, (n, j)
