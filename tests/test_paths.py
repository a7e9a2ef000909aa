import pickle
import sys
import time
from collections import Counter
from itertools import accumulate, combinations
from math import comb

import pytest

import qkoshy.dyckpaths as dp
from qkoshy import registry
from qkoshy.dyckpaths import (
    LabeledPath,
    Tower,
    analyze,
    colored_towers,
    decompose_towers,
    distribution,
    is_dyck,
    is_elevated,
    iter_ballot_paths,
    iter_ballot_tuples,
    iter_dyck,
    iter_elevated,
    labeled_gen,
    lemma1_forward,
    lemma1_inverse,
    lemma2_forward,
    lemma2_inverse,
    major_index,
)
from qkoshy.errors import DomainError, InvariantViolation, MalformedLabel, ScaleLimit
from qkoshy.poly import Poly
from qkoshy.qfuncs import ballot_number, catalan, q_ballot, q_catalan

from conftest import clear_memos
import oracles
from oracles import ballot_weighted_gen


def test_predicates():
    assert is_dyck("")
    assert is_dyck("UUDD") and is_dyck("UDUD")
    assert not is_dyck("DU") and not is_dyck("UUD") and not is_dyck("UDX")
    assert is_elevated("UUDD") and is_elevated("UD")
    assert not is_elevated("UDUD") and not is_elevated("")


def test_enumeration_counts_and_order():
    for n in range(8):
        assert sum(1 for _ in iter_dyck(n)) == catalan(n)
    assert list(iter_dyck(0)) == [""]
    assert list(iter_dyck(3)) == ["UUUDDD", "UUDUDD", "UUDDUD", "UDUUDD", "UDUDUD"]
    # elevated paths wrap a Dyck path one size down
    assert list(iter_elevated(2)) == ["UUUDDD", "UUDUDD"]
    for n in range(7):
        assert sum(1 for _ in iter_elevated(n)) == catalan(n)
    with pytest.raises(ScaleLimit):
        list(iter_dyck(15))
    assert is_dyck(next(iter(iter_dyck(15, force=True))))


def test_ballot_enumerations():
    for n in range(1, 6):
        for r in range(4):
            tuples = list(iter_ballot_tuples(n, r))
            assert len(tuples) == ballot_number(n, r), (n, r)
            for t in tuples:
                assert len(t) == r + 1
                assert sum(len(p) for p in t) == 2 * n
                assert all(is_dyck(p) for p in t)
    for n in range(1, 6):
        for j in range(1, 5):
            paths = list(iter_ballot_paths(n, j))
            assert len(paths) == ballot_number(n, j - 1), (n, j)


def test_ballot_tuples_against_recursive_oracle():
    for n in range(7):
        for r in range(4):
            assert list(iter_ballot_tuples(n, r)) == list(oracles.ballot_tuples(n, r)), (n, r)


def test_major_index_distributions():
    # maj over Dyck paths is the q-Catalan number; this is the brute side
    for n in range(7):
        acc = {}
        for p in iter_dyck(n):
            k = major_index(p)
            acc[k] = acc.get(k, 0) + 1
        got = Poly(*[acc.get(i, 0) for i in range(max(acc) + 1)]) if acc else Poly.one()
        assert got == q_catalan(n), n
    assert major_index("UDUD") == 2
    assert major_index("UUDD") == 0


def test_major_index_ballot():
    for n in range(1, 6):
        for j in range(1, 5):
            acc = {}
            for p in iter_ballot_paths(n, j):
                k = major_index(p)
                acc[k] = acc.get(k, 0) + 1
            got = Poly(*[acc.get(i, 0) for i in range(max(acc) + 1)])
            assert got == q_ballot(j, n), (n, j)


def test_analyze_frozen_example():
    st = analyze("UUUDDUDUDD")
    assert st.peaks == 3
    assert st.up_peaks == 1
    assert [(t.start, t.height, t.colored) for t in st.towers] == [
        (0, 2, True),
        (4, 1, False),
        (6, 1, True),
    ]


def test_analyze_smallest_paths():
    st = analyze("UD")
    assert st.towers == ()
    st = analyze("UUDD")
    assert [(t.start, t.height, t.colored) for t in st.towers] == [(0, 1, True)]
    with pytest.raises(DomainError):
        analyze("UDUD")
    with pytest.raises(DomainError):
        analyze("UDX")


def test_usteps_split_into_uu_and_towers():
    for n in range(1, 8):
        for p in iter_elevated(n):
            st = analyze(p)
            # every U-step is followed by a U-step or is the peak of one tower
            u_steps = p.count("U")
            uu_steps = sum(p[i:i + 2] == "UU" for i in range(len(p) - 1))
            assert u_steps == uu_steps + len(st.towers), p
            if len(p) > 2:
                assert len(st.towers) >= 1
                assert any(t.colored for t in st.towers), p


def test_tower_coloring_rules():
    # a tower is colored iff its predecessor is a U-step (the elevating one
    # counts) or an uncolored tower ending right before it
    for n in range(1, 8):
        for p in iter_elevated(n):
            inner = p[1:-1]
            for t in analyze(p).towers:
                if t.colored:
                    if t.start == 0:
                        continue  # preceded by the elevating U
                    prev = inner[t.start - 1]
                    if prev == "U":
                        continue
                    found = False
                    for u in analyze(p).towers:
                        if u.end == t.start - 1 and not u.colored:
                            found = True
                    assert found, (p, t)


def test_labeled_gen_frozen_spots():
    # n = 3: the statistics-choose-1 sums match hand counts
    assert labeled_gen(3, "up-peaks", 1)(1) == 6
    assert labeled_gen(3, "colored-towers", 1)(1) == 6
    assert labeled_gen(0, "up-peaks", 0) == Poly.one()
    assert labeled_gen(0, "up-peaks", 1) == Poly.zero()
    with pytest.raises(DomainError):
        labeled_gen(3, "nope", 1)
    with pytest.raises(DomainError):
        labeled_gen(3, "up-peaks", 1, weight="heavy")


def test_label_count_identity():
    # choosing m marked up-peaks or m marked colored towers both count
    # binom(n-m+1, m) * catalan(n-m)
    for n in range(0, 8):
        for m in range(0, n + 2):
            want = comb(n - m + 1, m) * catalan(n - m) if m <= n else 0
            assert labeled_gen(n, "up-peaks", m)(1) == want, (n, m, "up-peaks")
            assert labeled_gen(n, "colored-towers", m)(1) == want, (n, m, "towers")


def test_distribution_consistency():
    for n in range(0, 7):
        d = distribution(n)
        assert d(1) == catalan(n)
        # peak-weighted m=1 sum equals sum over paths of up_peaks * q^peaks
        acc = {}
        for p in iter_elevated(n):
            st = analyze(p)
            acc[st.peaks] = acc.get(st.peaks, 0) + st.up_peaks
        want = Poly(*[acc.get(i, 0) for i in range(max(acc) + 1)]) if acc else Poly.zero()
        assert labeled_gen(n, "up-peaks", 1, weight="peak-weight-q") == want


def test_distribution_is_the_up_peak_histogram():
    # distribution counts UUD on each generated path; analyze is the
    # independent count, and labeled_gen reads the same statistic
    for n in range(0, 10):
        d = distribution(n)
        hist = Counter(analyze(p).up_peaks for p in iter_elevated(n))
        assert d == Poly.from_counts(hist), n
        for m in range(0, n + 2):
            labeled = sum(comb(k, m) * c for k, c in enumerate(d.coeffs))
            assert labeled == labeled_gen(n, "up-peaks", m)(1), (n, m)


def test_ballot_weighted_gen():
    assert ballot_weighted_gen(1, 1) == Poly(0, 2)
    for n in range(1, 5):
        for r in range(0, 3):
            acc = {}
            for t in iter_ballot_tuples(n, r):
                k = sum(p.count("UD") for p in t)
                acc[k] = acc.get(k, 0) + 1
            want = Poly(*[acc.get(i, 0) for i in range(max(acc) + 1)])
            assert ballot_weighted_gen(n, r) == want, (n, r)


def lemma1_all_sources(n, m):
    for p in iter_elevated(n):
        st = analyze(p)
        colored = [t.start for t in st.towers if t.colored]
        from itertools import combinations

        for s in combinations(colored, m):
            yield LabeledPath(p, "towers", s)


def test_lemma1_roundtrip_and_counts():
    for n in range(1, 6):
        for m in range(1, n + 1):
            seen = set()
            total = 0
            for lp in lemma1_all_sources(n, m):
                out = lemma1_forward(lp)
                assert out.kind == "usteps" and len(out.s_labels) == m
                back = lemma1_inverse(out)
                assert back == lp, (lp, out, back)
                seen.add((out.path, out.s_labels))
                total += 1
            assert len(seen) == total, (n, m)
            assert total == comb(n - m + 1, m) * catalan(n - m), (n, m)


def test_lemma1_regression_pair():
    src = LabeledPath("UUDUDUDD", "towers", (0, 4))
    img = lemma1_forward(src)
    assert img == LabeledPath("UUDD", "usteps", (0, 1))
    assert lemma1_inverse(img) == src


def test_lemma1_malformed():
    with pytest.raises(MalformedLabel):
        lemma1_forward(LabeledPath("UUUDDD", "usteps", (0,)))
    with pytest.raises(MalformedLabel):
        # inner index 2 is a D-step, not a tower start
        lemma1_forward(LabeledPath("UUUDDD", "towers", (2,)))
    with pytest.raises(MalformedLabel):
        lemma1_inverse(LabeledPath("UUDD", "usteps", (3,)))
    with pytest.raises(MalformedLabel):
        LabeledPath("UUDD", "towers", (0, 0))


def test_labeled_path_is_a_checked_value():
    lp = LabeledPath("UUDUUDDD", "towers", (2, 0), (2,))
    assert lp.s_labels == (0, 2) and lp.w_labels == (2,)
    assert LabeledPath("UUDD", "towers", (0,)).w_labels == ()
    # _replace and _make build through the same checks and sorting
    assert lp._replace(w_labels=(2, 0)).w_labels == (0, 2)
    assert LabeledPath._make(("UUDD", "usteps", (1, 0))).s_labels == (0, 1)
    with pytest.raises(MalformedLabel, match="^duplicate s-labels$"):
        lp._replace(s_labels=(2, 2))
    with pytest.raises(MalformedLabel, match="^w-labels must be a subset of s-labels$"):
        lp._replace(w_labels=(1,))
    with pytest.raises(MalformedLabel, match="^duplicate s-labels$"):
        LabeledPath._make(("UUDD", "towers", (0, 0), ()))
    with pytest.raises(MalformedLabel, match="^unknown label kind 'peaks'$"):
        lp._replace(kind="peaks")
    # a value: equal and hashed by its fields, and only to a LabeledPath
    same = LabeledPath("UUDUUDDD", "towers", (0, 2), (2,))
    assert lp == same and hash(lp) == hash(same) and not lp != same
    assert lp != tuple(lp) and not lp == tuple(lp)
    assert lp != lp._replace(path="UUDUDUDD")
    assert repr(lp) == ("LabeledPath(path='UUDUUDDD', kind='towers', s_labels=(0, 2), "
                        "w_labels=(2,))")
    assert pickle.loads(pickle.dumps(lp)) == lp
    with pytest.raises(AttributeError):
        lp.s_labels = (0,)


@pytest.mark.parametrize("labels,message", [
    ((2,), "tower at inner index 2 is not colored"),
    ((0, 2), "tower at inner index 2 is not colored"),
    ((1,), "no tower starts at inner index 1"),
    ((8,), "no tower starts at inner index 8"),
])
def test_bad_labels_on_a_held_path(labels, message):
    # the path's table is built, so its towers are in the memo, and a
    # label off its colored towers still gets its own message
    path = "UUDUDUDD"
    assert path in dict(colored_towers(3))
    for bijection, w_labels in ((lemma1_forward, ()), (lemma2_forward, labels[:1]),
                                (lemma2_inverse, labels[:1])):
        with pytest.raises(MalformedLabel, match="^%s$" % message):
            bijection(LabeledPath(path, "towers", labels, w_labels))


def test_held_path_is_not_decomposed_again(monkeypatch):
    # building the table put the path's towers in the memo
    path = "UUUDDUDUDD"
    colored_towers(4)

    def refused(inner):
        raise AssertionError("decomposed %s again" % inner)

    monkeypatch.setattr(dp, "decompose_towers", refused)
    assert lemma1_forward(LabeledPath(path, "towers", (0, 6))) == LabeledPath(
        "UUDUDD", "usteps", (1, 3))
    src = LabeledPath(path, "towers", (0, 6), (0,))
    assert lemma2_forward(src) == LabeledPath("UUDUDUDD", "towers", (0, 4), (0,))
    assert lemma2_inverse(src) == LabeledPath("UUUUDDDUDUDD", "towers", (0, 8), (0,))


def _decomposed_by_lemma_rows(monkeypatch):
    """The words decompose_towers is called on, with their call counts,
    while the lemma rows run at n <= 7 from empty tables and memo."""
    seen = Counter()

    def counting(inner, _real=dp.decompose_towers):
        seen[inner] += 1
        return _real(inner)

    monkeypatch.setattr(dp, "decompose_towers", counting)
    clear_memos()
    for ident in ("lemma1", "lemma2"):
        assert registry.verify(ident, bounds={"n": (1, 7)}, jobs=1).status == "pass"
    return seen


def test_lemma_rows_decompose_each_word_once(monkeypatch):
    seen = _decomposed_by_lemma_rows(monkeypatch)
    assert len(seen) == 626                  # every elevated path with n <= 7
    assert set(seen.values()) == {1}


def test_tower_memo_against_oracle(monkeypatch):
    seen = _decomposed_by_lemma_rows(monkeypatch)
    # each miss decomposed its word once, so seen names every cached entry
    info = dp._towers_of.cache_info()
    assert info.currsize == len(seen)
    for inner in seen:
        towers = dp._towers_of("U" + inner + "D")
        assert _fields(towers) == _fields(oracles.decompose_towers(inner)), inner
    assert dp._towers_of.cache_info().misses == info.misses


def test_bijection_builds_no_table():
    # no table is built for n = 11, above the lemma rows' cap
    src = LabeledPath("U" + "UUDD" + "UD" * 9 + "D", "towers", (0, 6, 10))
    size = colored_towers.cache_info().currsize
    img = lemma1_forward(src)
    assert img == LabeledPath("UUDUDUDUDUDUDUDUDD", "usteps", (1, 3, 5))
    assert colored_towers.cache_info().currsize == size
    assert lemma1_inverse(img) == src


def lemma2_all_sources(n, m, r):
    from itertools import combinations

    for p in iter_elevated(n):
        st = analyze(p)
        colored = [t for t in st.towers if t.colored]
        tall = [t.start for t in colored if t.height >= 2]
        for w in combinations(tall, r):
            rest = [t.start for t in colored if t.start not in w]
            for extra in combinations(rest, m - r):
                s = tuple(sorted(w + extra))
                yield LabeledPath(p, "towers", s, w)


def test_lemma2_roundtrip():
    for n in range(1, 6):
        for m in range(1, n + 1):
            for r in range(1, m + 1):
                for lp in lemma2_all_sources(n, m, r):
                    out = lemma2_forward(lp)
                    assert len(out.path) == len(lp.path) - 2 * r
                    back = lemma2_inverse(out)
                    assert back == lp, (lp, out, back)


def test_lemma2_frozen_example():
    # one height-3 tower, shrink it once: UUUUDDDD -> UUUDDD
    src = LabeledPath("UUUUDDDD", "towers", (0,), (0,))
    out = lemma2_forward(src)
    assert out == LabeledPath("UUUDDD", "towers", (0,), (0,))
    assert lemma2_inverse(out) == src


def test_tower_decomposition_direct():
    towers = decompose_towers("UUDDUD")
    assert [(t.start, t.height, t.colored) for t in towers] == [
        (0, 2, True),
        (4, 1, False),
    ]
    assert towers[0].end == 3


def test_tower_decomposition_spec():
    # each tower is a maximal pyramid U^h D^h, one per peak, left to right
    for n in range(10):
        for inner in iter_dyck(n):
            towers = decompose_towers(inner)
            assert len(towers) == inner.count("UD"), inner
            starts = [t.start for t in towers]
            assert starts == sorted(set(starts)), inner
            for t in towers:
                h = t.height
                assert h >= 1 and inner[t.start:t.end + 1] == "U" * h + "D" * h, (inner, t)
                grows = inner[t.start - 1:t.start] == "U" and inner[t.end + 1:t.end + 2] == "D"
                assert not grows, (inner, t)


def _fields(towers):
    return [(t.start, t.height, t.colored, t.end) for t in towers]


def test_tower_decomposition_against_oracle():
    for n in range(10):
        for inner in iter_dyck(n):
            towers = decompose_towers(inner)
            assert all(isinstance(t, Tower) and isinstance(t, tuple) for t in towers)
            assert _fields(towers) == _fields(oracles.decompose_towers(inner)), inner
    assert Tower(0, 2, True) == (0, 2, True)
    assert Tower(0, 2, True)._replace(colored=False).end == 3


def test_major_index_against_oracle():
    for n in range(10):
        for p in iter_dyck(n):
            assert major_index(p) == oracles.major_index(p), p
    for n in range(7):
        for j in range(1, 5):
            for p in iter_ballot_paths(n, j):
                assert major_index(p) == oracles.major_index(p), p


def test_colored_tower_table_against_oracle():
    for n in range(9):
        table = colored_towers(n)
        assert [p for p, _ in table] == list(iter_elevated(n))
        for p, towers in table:
            want = [t for t in oracles.decompose_towers(p[1:-1]) if t.colored]
            assert _fields(towers) == _fields(want), p
        assert colored_towers(n) is table        # one table per n


def test_colored_tower_table_keeps_the_invariant(monkeypatch):
    def uncolored(inner):
        return tuple(t._replace(colored=False) for t in decompose_towers(inner))

    monkeypatch.setattr("qkoshy.dyckpaths.decompose_towers", uncolored)
    clear_memos()
    try:
        with pytest.raises(InvariantViolation):
            colored_towers(3)
    finally:
        clear_memos()


def test_ballot_paths_content_and_order():
    def u_before_d(word):
        return word.replace("U", "0").replace("D", "1")

    for n in range(7):
        assert list(iter_ballot_paths(n, 1)) == list(iter_dyck(n))
        for j in range(1, 5):
            length = 2 * n + j - 1
            want = []
            for ups in combinations(range(length), n):
                word = "".join("U" if i in ups else "D" for i in range(length))
                heights = accumulate(1 if c == "U" else -1 for c in word)
                if all(h >= -(j - 1) for h in heights):
                    want.append(word)
            got = list(iter_ballot_paths(n, j))
            assert len(got) == len(set(got)), (n, j)
            assert set(got) == set(want), (n, j)
            assert got == sorted(got, key=u_before_d), (n, j)


def test_dyck_words_against_recursive_oracle():
    for n in range(12):
        assert list(iter_dyck(n)) == list(oracles.lattice_words(n, n, 0)), n


def test_ballot_paths_against_recursive_oracle():
    for n in range(9):
        for j in range(1, 6):
            want = list(oracles.lattice_words(n, n + j - 1, -(j - 1)))
            assert list(iter_ballot_paths(n, j)) == want, (n, j)


def test_long_words_need_no_recursion():
    # the recursive walk stopped at Python's recursion limit near n = 495
    assert next(iter_dyck(600, force=True)) == "U" * 600 + "D" * 600
    t0 = time.perf_counter()
    assert next(iter_elevated(600, force=True)) == "U" * 601 + "D" * 601
    assert time.perf_counter() - t0 < 1.0


def test_word_longer_than_any_str_overflows():
    # refused before a step is built: no str holds more than sys.maxsize
    with pytest.raises(OverflowError):
        next(iter_dyck(sys.maxsize // 2 + 1, force=True))
    with pytest.raises(OverflowError):
        next(iter_ballot_paths(1, sys.maxsize))


def test_elevated_stats_against_oracle():
    for n in range(11):
        want = Counter((p.count("UUD"),
                        sum(t.colored for t in oracles.decompose_towers(p[1:-1])),
                        p.count("UD"))
                       for p in iter_elevated(n))
        assert Counter(dict(dp._elevated_stats(n))) == want, n


def test_labeled_gen_keeps_the_invariant(monkeypatch):
    # a path whose tower scan finds no colored tower is an error, not a count
    real = dp._tower_runs

    def planted(inner):
        for s, h, c in real(inner):
            yield s, h, c and inner != "UDUD"

    monkeypatch.setattr(dp, "_tower_runs", planted)
    clear_memos()
    try:
        with pytest.raises(InvariantViolation):
            labeled_gen(2, "colored-towers", 1)
    finally:
        clear_memos()
