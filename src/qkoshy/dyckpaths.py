"""Dyck-path enumeration, tower coloring, and the two label-moving bijections.

Paths are U/D strings.  An elevated path is U + inner + D where the inner
part is itself a Dyck word; statistics (peaks, up-peaks, major index)
are always computed on the string as given, while towers live on the
inner part.  Tower records use inner-path indices; U-step labels use
whole-path indices, so the elevating first U-step is addressable as 0.

Every path iterator reads _lattice_words.  It walks the prefixes with an
explicit stack, so no word is too long for Python's recursion limit, and
takes the last 12 steps or fewer from cached tuples of short tails.
iter_ballot_tuples walks the tail family of each first-word length once
and pairs every first word of that length with it.

Coloring runs in one left-to-right pass, _tower_runs.  A tower is colored
when its immediately preceding element is a U-step (the elevating step
included) or an uncolored tower, with that tower's color as this same
pass gave it.  The rule has to be sequential: judging the preceding tower
by the U-step rule alone miscounts the labeled paths already at n = 4,
m = 1.  The pass reads only the lengths of the word's (U-run, D-run)
pairs: each pair holds one tower, and whether a tower follows a U-step or
ends right before the next one is a comparison of two run lengths.

A path's towers are looked up in one memo, _towers_of.  analyze reads
it, and so do the bijections, for the paths they are given and, in
lemma1_inverse, for each path as edited so far.  The lemma1 and lemma2
rows read colored_towers(n), one table per n of each elevated path with
its colored towers, because their cells walk the same few paths (626
with n <= 7) many times over; each table fills the memo as analyze builds
it, so the bijections decompose no word twice and never build a table.
labeled_gen and distribution stream instead: their rows reach n = 12,
whose 208,012 paths would be too many to hold.  labeled_gen reads the few
distinct (up-peaks, colored towers, peaks) rows, each weighted by its
path count, which one _tower_runs scan per inner word counts;
distribution counts UUD on each path.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from collections import Counter, namedtuple
from functools import lru_cache
from math import comb

from .errors import DomainError, InvariantViolation, MalformedLabel, ScaleLimit
from .poly import Poly
from .qfuncs import narayana_poly

SCALE_LIMIT = 14
_PEAK_RUN = re.compile("(U+)(D+)")


def _check_scale(n: int, force: bool = False) -> None:
    if n > SCALE_LIMIT and not force:
        raise ScaleLimit("n=%d exceeds enumeration guard %d" % (n, SCALE_LIMIT))


def is_dyck(word: str) -> bool:
    h = 0
    for c in word:
        if c == "U":
            h += 1
        elif c == "D":
            h -= 1
            if h < 0:
                return False
        else:
            return False
    return h == 0


def is_elevated(word: str) -> bool:
    return len(word) >= 2 and word[0] == "U" and word[-1] == "D" and is_dyck(word[1:-1])


_TAIL = 12


@lru_cache(maxsize=None)
def _tails(ups: int, downs: int, h: int):
    """Every word with the given numbers of U- and D-steps that starts h
    steps above the floor and never drops below it, in lexicographic
    order (U < D).  Cached.  _lattice_words asks only for words of at most
    _TAIL steps that end on the floor, so h is downs - ups and the cache
    holds at most 49 tuples, 1,912 words in all."""
    if not ups and not downs:
        return ("",)
    out = ()
    if ups:
        out += tuple("U" + w for w in _tails(ups - 1, downs, h + 1))
    if downs and h:
        out += tuple("D" + w for w in _tails(ups, downs - 1, h - 1))
    return out


def _lattice_words(ups: int, downs: int, floor: int):
    """Words with the given numbers of U- and D-steps whose height never
    drops below floor, in lexicographic order (U < D).

    The prefixes are walked with an explicit stack, D pushed before U so
    that U pops first, over one shared list of steps; once at most _TAIL
    steps remain, the suffixes come from _tails.
    """
    if ups + downs > sys.maxsize:
        raise OverflowError("a word of %d steps is too long for a str" % (ups + downs))
    word = []
    # (prefix length before the step, the step, then U- and D-steps left
    # and the height above the floor); the root's step is empty
    stack = [(0, "", ups, downs, -floor)]
    while stack:
        k, step, u, d, h = stack.pop()
        del word[k:]
        word.append(step)
        if u + d <= _TAIL:
            prefix = "".join(word)
            for tail in _tails(u, d, h):
                yield prefix + tail
            continue
        if d and h:
            stack.append((k + 1, "D", u, d - 1, h - 1))
        if u:
            stack.append((k + 1, "U", u - 1, d, h + 1))


def iter_dyck(n: int, force: bool = False):
    """All Dyck words with n U-steps, in lexicographic order (U < D)."""
    if n < 0:
        raise DomainError("need n >= 0")
    _check_scale(n, force)
    yield from _lattice_words(n, n, 0)


def iter_elevated(n: int, force: bool = False):
    """Elevated paths U + inner + D over all inner Dyck words with n U-steps."""
    for inner in iter_dyck(n, force):
        yield "U" + inner + "D"


def iter_ballot_tuples(n: int, r: int):
    """(r+1)-tuples of Dyck words with n U-steps in total, ordered by the
    first word's length, then by the first word, then by the rest.

    The tails after a first word of k U-steps are walked once for each k:
    held for the heads to share when there are several (k >= 2), streamed
    to the one head "" or "UD" otherwise.  So the largest tail families,
    those of k <= 1, are never held, and a held family is no larger than
    the tuples already yielded.
    """
    if n < 0 or r < 0:
        raise DomainError("need n, r >= 0")
    _check_scale(n)
    if r == 0:
        for p in iter_dyck(n):
            yield (p,)
        return
    for k in range(n + 1):
        tails = iter_ballot_tuples(n - k, r - 1)
        if k >= 2:
            tails = tuple(tails)
        for head in iter_dyck(k):
            for tail in tails:
                yield (head,) + tail


def iter_ballot_paths(n: int, j: int):
    """Lattice paths with n U-steps and n+j-1 D-steps never going below
    -(j-1), in lexicographic order (U < D); j = 1 gives iter_dyck(n)."""
    if n < 0 or j < 1:
        raise DomainError("need n >= 0 and j >= 1")
    _check_scale(n)
    yield from _lattice_words(n, n + j - 1, -(j - 1))


def major_index(word: str) -> int:
    """Sum of 1-based positions i with step i = D and step i+1 = U."""
    total = 0
    i = word.find("DU")
    while i >= 0:
        total += i + 1
        i = word.find("DU", i + 2)       # DU cannot overlap itself
    return total


class Tower(namedtuple("Tower", "start height colored")):
    """Maximal pyramid factor U^h D^h of the inner path.

    start is the inner-path index of its first U-step.
    """

    __slots__ = ()

    @property
    def end(self) -> int:
        return self.start + 2 * self.height - 1


def _tower_runs(inner: str):
    """(start, height, colored) of each tower of an inner Dyck word, left
    to right, with the elevating U-step of the surrounding elevated path
    counted as a predecessor.  The coloring rule is written only here.

    An inner Dyck word is a sequence of (U-run, D-run) pairs.  Each pair,
    of lengths a and b, holds one maximal pyramid, of height min(a, b),
    made of its last min(a, b) U's and its first min(a, b) D's.  In run
    lengths the rule reads: the first tower follows a U-step (the
    elevating one when a = b) and is colored; a later tower with a > b
    follows a U-step and is colored; one with a <= b follows the previous
    run's last D-step, which ends the previous tower exactly when that
    tower's D-run was no longer than its U-run, and then it takes the
    opposite color; any other tower is uncolored.
    """
    pos = 0                          # inner index where the pair starts
    adjacent = colored = False       # of the previous tower
    for ups, downs in _PEAK_RUN.findall(inner):
        a, b = len(ups), len(downs)
        if a > b:
            h, c = b, True           # follows a U-step of its own run
        elif pos:
            h, c = a, adjacent and not colored
        else:
            h, c = a, True           # follows the elevating U-step
        yield pos + a - h, h, c
        pos += a + b
        adjacent, colored = b <= a, c


def decompose_towers(inner: str):
    """Tower decomposition of an inner Dyck word, as Towers."""
    return tuple(map(Tower._make, _tower_runs(inner)))


class PathStats(namedtuple("PathStats", "peaks up_peaks towers")):
    """Peak and up-peak counts of an elevated path, and its inner Towers."""

    __slots__ = ()


# 1 << 15 holds all 23,714 elevated paths with at most 10 inner U-steps,
# the lemma rows' cap, so no lemma cell decomposes a word twice
@lru_cache(maxsize=1 << 15)
def _towers_of(path: str):
    """The towers of an elevated path's inner word, or None when path is
    not an elevated path.  Cached: analyze and the bijections find a
    path's towers only here."""
    return decompose_towers(path[1:-1]) if is_elevated(path) else None


def analyze(path: str) -> PathStats:
    """Statistics and tower decomposition of an elevated Dyck path.

    Neither UD nor UUD can overlap a copy of itself, so str.count finds
    every peak and every up-peak.
    """
    towers = _towers_of(path)
    if towers is None:
        raise DomainError("not an elevated Dyck path: %r" % path)
    if len(path) > 2 and not any(t.colored for t in towers):
        raise InvariantViolation("elevated path %r has no colored tower" % path)
    return PathStats(peaks=path.count("UD"), up_peaks=path.count("UUD"), towers=towers)


@lru_cache(maxsize=11)
def colored_towers(n: int):
    """(path, its colored towers) for each elevated path over n inner
    U-steps, in iter_elevated order.  Built by analyze, so a path with no
    colored tower still raises and every path's towers enter the
    _towers_of memo; these tables make the only analyze calls of the
    registry rows.  Cached, one table per n up to the lemma rows' cap of
    10."""
    return tuple((p, tuple(t for t in analyze(p).towers if t.colored))
                 for p in iter_elevated(n))


@lru_cache(maxsize=16)
def _elevated_stats(n: int):
    """Each distinct (up_peaks, colored_towers, peaks) row of the elevated
    paths over n inner U-steps, with its path count.  Cached.

    One scan of each inner word's towers counts its colored towers and its
    peaks, one per tower; the bare path UD has one peak and no tower.  The
    elevating U-step makes one more up-peak when the inner word starts
    with UD.
    """
    rows = Counter()
    for inner in iter_dyck(n):
        colored = peaks = 0
        for _, _, c in _tower_runs(inner):
            colored += c
            peaks += 1
        if n and not colored:
            raise InvariantViolation("elevated path %r has no colored tower" % ("U" + inner + "D"))
        rows[inner.count("UUD") + inner.startswith("UD"), colored, peaks or 1] += 1
    return tuple(rows.items())


_SELECTOR_INDEX = {"up-peaks": 0, "colored-towers": 1}


def labeled_gen(
    n: int,
    selector: str,
    m: int,
    weight: str = "unit",
) -> Poly:
    """Sum over elevated paths of binom(#selector-elements, m) times the
    weight, which is 1 or q^peaks."""
    if selector not in _SELECTOR_INDEX:
        raise DomainError("unknown selector %r" % selector)
    if weight not in ("unit", "peak-weight-q"):
        raise DomainError("unknown weight %r" % weight)
    if n < 0 or m < 0:
        raise DomainError("need n, m >= 0")
    _check_scale(n)
    idx = _SELECTOR_INDEX[selector]
    acc: dict[int, int] = {}
    for row, paths in _elevated_stats(n):
        c = comb(row[idx], m) * paths
        if not c:
            continue
        k = row[2] if weight == "peak-weight-q" else 0
        acc[k] = acc.get(k, 0) + c
    return Poly.from_counts(acc)


def distribution(n: int) -> Poly:
    """Ordinary generating polynomial of the up-peak count over elevated
    paths: coefficient of q^k is the number of paths with k up-peaks.
    It counts UUD in each path as it is generated, with no analyze."""
    return Poly.from_counts(Counter(p.count("UUD") for p in iter_elevated(n)))


@lru_cache(maxsize=None)
def peak_dist(k: int) -> Poly:
    """Peak-count polynomial of single Dyck paths: 1 for k = 0, else
    q times the Narayana polynomial."""
    if k == 0:
        return Poly.one()
    return narayana_poly(k).shift(1)


# -- labeled paths and the two bijections -----------------------------


class LabeledPath(namedtuple("LabeledPath", "path kind s_labels w_labels")):
    """An elevated path with labeled statistic elements: a named tuple,
    checked and with its labels sorted in __new__, that equals only
    another LabeledPath.

    kind "towers": s_labels (and w_labels) are tower start indices in
    the inner path.  kind "usteps": s_labels are U-step indices in the
    whole path, 0 being the elevating step.
    """

    __slots__ = ()

    def __new__(cls, path: str, kind: str, s_labels: tuple, w_labels: tuple = ()):
        if kind not in ("towers", "usteps"):
            raise MalformedLabel("unknown label kind %r" % kind)
        s = set(s_labels)
        if len(s) != len(s_labels):
            raise MalformedLabel("duplicate s-labels")
        if not s.issuperset(w_labels):
            raise MalformedLabel("w-labels must be a subset of s-labels")
        return tuple.__new__(cls, (path, kind, tuple(sorted(s)), tuple(sorted(w_labels))))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make too, so neither skips the checks
        return cls(*iterable)

    def __eq__(self, other):
        return isinstance(other, LabeledPath) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def _labeled_towers(lp: LabeledPath):
    """The towers of lp's path by start index, after checking that every
    s-label sits on a colored tower; the first bad label is named."""
    if lp.kind != "towers":
        raise MalformedLabel("expected tower labels, got %r" % lp.kind)
    towers = _towers_of(lp.path)
    if towers is None:
        raise MalformedLabel("label carrier is not an elevated path")
    tmap = {t.start: t for t in towers}
    for s in lp.s_labels:
        t = tmap.get(s)
        if t is None:
            raise MalformedLabel("no tower starts at inner index %d" % s)
        if not t.colored:
            raise MalformedLabel("tower at inner index %d is not colored" % s)
    return tmap


def _shrink(path: str, towers):
    """Delete the first U-step and the last D-step of each given tower.

    Returns the shorter elevated path and the map from an inner index of
    the old path to its inner index in the new one; -1 (the elevating
    U-step) maps to itself.
    """
    cuts = sorted(i for t in towers for i in (t.start, t.end))
    inner = path[1:-1]
    edges = [-1] + cuts + [len(inner)]
    kept = "".join(inner[a + 1:b] for a, b in zip(edges, edges[1:]))
    return "U" + kept + "D", lambda i: i - bisect_left(cuts, i)


def _wrap(path: str, t: Tower) -> str:
    """Wrap the inner tower t of an elevated path as U t D."""
    a, b = t.start + 1, t.end + 2       # whole-path span of t
    return path[:a] + "U" + path[a:b] + "D" + path[b:]


def lemma1_forward(lp: LabeledPath) -> LabeledPath:
    """Move m labels from colored towers to U-steps, shrinking the path
    by one U and one D per label.

    Height-1 towers after a U-step are deleted and the preceding U-step
    takes the label; height-1 towers after an uncolored tower transfer
    the label to that tower's peak U-step; taller towers lose their
    outer U and D and keep the label on the shrunken pyramid's peak.
    In both height-1 cases the target is the last U-step before the
    tower.  Each labeled tower is classified by its surroundings in the
    input path, then all edits are applied at once; the label targets
    are pairwise distinct and disjoint from every edited span.
    """
    tmap = _labeled_towers(lp)
    inner = lp.path[1:-1]
    chosen = [tmap[s] for s in lp.s_labels]
    # inner indices of target U-steps; -1 = elevating U
    targets = [t.start + t.height - 1 if t.height > 1 else inner.rfind("U", 0, t.start)
               for t in chosen]
    path, shifted = _shrink(lp.path, chosen)
    return LabeledPath(path, "usteps", tuple(shifted(t) + 1 for t in targets))


def lemma1_inverse(lp: LabeledPath) -> LabeledPath:
    """Rebuild the tower-labeled path from a U-step-labeled one.

    Labels are processed left to right and each one is classified on the
    path as edited so far: at that moment the prefix already agrees with
    the source path, so tower colors seen locally match the source.  A
    labeled U-step followed by U, or the elevating step of the bare path
    UD, regains a height-1 tower right after it; one followed by D is the
    peak of a tower, which is wrapped in U...D if colored and followed by
    a new height-1 tower if not.
    """
    if lp.kind != "usteps":
        raise MalformedLabel("expected U-step labels, got %r" % lp.kind)
    if _towers_of(lp.path) is None:
        raise MalformedLabel("label carrier is not an elevated path")
    cur = lp.path
    out_towers: list[int] = []
    shift = 0
    for orig in lp.s_labels:
        u = orig + shift
        if orig < 0 or u >= len(cur) or cur[u] != "U":
            raise MalformedLabel("label %d is not a U-step" % orig)
        shift += 2
        if cur[u + 1] == "U" or len(cur) == 2:
            cur = cur[: u + 1] + "UD" + cur[u + 1 :]
            out_towers.append(u)         # inner index of the inserted tower
            continue
        u_inner = u - 1
        t = next((x for x in _towers_of(cur) if x.start <= u_inner <= x.end), None)
        if t is None or t.start + t.height - 1 != u_inner:
            raise MalformedLabel("label %d is not a peak U-step" % orig)
        if t.colored:
            cur = _wrap(cur, t)
            out_towers.append(t.start)
        else:
            pos = t.end + 2              # whole-path position right after t
            cur = cur[:pos] + "UD" + cur[pos:]
            out_towers.append(t.end + 1)
    return LabeledPath(cur, "towers", tuple(out_towers))


def lemma2_forward(lp: LabeledPath) -> LabeledPath:
    """Shrink every s,w-labeled tower by its bottom U-step and one
    D-step, keeping both labels on the shrunken tower."""
    tmap = _labeled_towers(lp)
    for s in lp.w_labels:
        if tmap[s].height < 2:
            raise MalformedLabel("w-label on height-1 tower at %d" % s)
    path, shifted = _shrink(lp.path, [tmap[s] for s in lp.w_labels])
    s_labels = tuple(shifted(s + 1) if s in lp.w_labels else shifted(s) for s in lp.s_labels)
    w_labels = tuple(shifted(s + 1) for s in lp.w_labels)
    return LabeledPath(path, "towers", s_labels, w_labels)


def lemma2_inverse(lp: LabeledPath) -> LabeledPath:
    """Wrap every s,w-labeled tower as U tower D, the new bottom carrying
    the w-label."""
    tmap = _labeled_towers(lp)
    cur = lp.path
    for s in sorted(lp.w_labels, reverse=True):
        cur = _wrap(cur, tmap[s])

    def shifted(i: int) -> int:
        # the wrap around a tower starting at w inserts its U exactly at
        # the old start, so only wraps strictly to the left displace i
        return i + 2 * bisect_left(lp.w_labels, i)

    s_labels = tuple(shifted(s) for s in lp.s_labels)
    w_labels = tuple(shifted(s) for s in lp.w_labels)
    return LabeledPath(cur, "towers", s_labels, w_labels)
