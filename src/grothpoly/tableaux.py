"""Exact weighted enumeration of tableau families.

Families covered: marked multiset-valued tableaux, marked reverse plane
partitions (left, right and bottom marking variants, optionally with a
virtual boundary column driven by a mark set), integer-entry elegant and
inelegant tableaux, and flagged set-valued tableaux.  Every flagged family
takes its flags as one pair (r, s) of lower and upper flags, checked and
read by shapes.read_flags, so an upper flag past n (or infinite) reads as n.
A mark set's shape and marks are checked by shapes.marked_shape, and its
flags, one pair per row of the outer shape and r = 1, s = n when absent, are
read by shapes.read_flags with a mark set's reading: an infinite upper flag
reads as n, and the finite ones stay uncapped.

Fillings are plain dicts keyed by 1-based (row, column) cells.  Single-valued
marked fillings map a cell to (value, marked); multiset and set valued
fillings map a cell to a tuple of (value, marked) pairs.  enum_* functions
return exact TruncPoly sums of weights; gen_* generators yield the fillings
themselves; TableauSweep gives the flagged sums of one shape for many flag
vectors from one unflagged enumeration, or with a mark set from one
enumeration per upper flag vector.

One depth-first walk, _fill, places the cells of the multiset-valued,
set-valued and plane-partition families.  It reads each cell's flag range
from a dict that _cell_bounds builds once, before the walk.  It takes the
cells column by column from the right, top to bottom within a column, so
that the neighbors a cell is compared against are already placed, and fills
each cell with an increasing tuple from _increasing: a multiset, a set, or
a single value.  Its rules: rows weakly increase, so a cell's last entry is
at most the first entry to its right; down a column the first entry exceeds
the last one above by col_gap (1 for the tuple families, 0 for plane
partitions); all cells together hold at most max_entries entries; and each
cell's entries lie in its flag range.  A family's choices turn a tuple into
the cell's entry (adding marks, say) and its weight factor.  gen_elegant
keeps its own walk: it runs row by row, and its inelegant rule decreases
along rows and columns.

A mark set's boundary entries T(i, outer_i + 1), s_i for i in the set and
infinite outside it, form one dict built by _boundary.  Plane partitions
read a neighbor as values.get(cell, boundary.get(cell)), so a boundary
entry bounds the cell below it and takes part in the marking and beta rules
as a cell would.
"""

import itertools
import operator

from .ring import ALPHA, BETA, X, TruncPoly, pvar
from .shapes import (INF, ShapeError, cells, check_orientation, contains,
                     marked_shape, read_flags, skew)


def _col_order(cell_list):
    return sorted(cell_list, key=lambda c: (-c[1], c[0]))


def _cell_bounds(outer, inner, flags, orientation, n):
    """{cell: inclusive (lo, hi) value bounds} over the cells of outer/inner:
    (r_k, s_k) for a cell in row k (column k with col flags) of the flags as
    shapes.read_flags reads them, or (1, n) without flags.

    Values above n carry a zero x weight, so enumeration on the capped flags
    equals the specialization at x_{n+1} = x_{n+2} = ... = 0; only boundary
    mark sets need the uncapped flags, since their high values can be
    absorbed into parameter weights, and _rpp_fillings bounds those itself.
    """
    cell_list = cells(outer, inner)
    if flags is None:
        return dict.fromkeys(cell_list, (1, n))
    axis = 0 if orientation == "row" else 1
    r, s = read_flags(*flags, max((c[axis] for c in cell_list), default=0), n)
    return {c: (r[c[axis] - 1], s[c[axis] - 1]) for c in cell_list}


# ---------------------------------------------------------------------------
# marked multiset-valued tableaux

def _increasing(lo, hi, max_len, strict):
    """Nonempty increasing tuples over [lo, hi] of length <= max_len: sets
    when strict, multisets otherwise."""
    if lo > hi or max_len < 1:
        return
    prefix = []

    def rec(start):
        for v in range(start, hi + 1):
            prefix.append(v)
            yield tuple(prefix)
            if len(prefix) < max_len:
                yield from rec(v + strict)
            prefix.pop()

    yield from rec(lo)


def _fill(bounds, max_entries, strict, col_gap, choices, one):
    """Yield (weight, filling) for every filling of the cells of bounds, a
    dict cell -> (lo, hi) of flag ranges, by the rules of the module
    docstring; filling is a live dict cell -> entry, copied to keep.
    choices(i, j, t) yields the (entry, factor) ways to fill cell (i, j)
    with the tuple t; the weight is one times the factors along the walk,
    skipping None factors."""
    order = _col_order(bounds)
    tuples, filling = {}, {}

    def rec(k, used, acc):
        if k == len(order):
            yield acc, filling
            return
        i, j = order[k]
        lo, hi = bounds[i, j]
        above = tuples.get((i - 1, j))
        if above is not None:
            lo = max(lo, above[-1] + col_gap)
        right = tuples.get((i, j + 1))
        if right is not None:
            hi = min(hi, right[0])
        # the neighbors a cell reads come before it in order, so entries that
        # backtracking leaves behind are overwritten before they are read
        for t in _increasing(lo, hi, max_entries - used - len(order) + k + 1,
                             strict):
            tuples[(i, j)] = t
            for entry, factor in choices(i, j, t):
                filling[(i, j)] = entry
                yield from rec(k + 1, used + len(t),
                               acc if factor is None else acc * factor)

    yield from rec(0, 0, one)


def _markable_positions(ms):
    return [p for p in range(1, len(ms)) if ms[p - 1] < ms[p]]


def gen_mmsvt(outer, inner, n, deg, flags=None, orientation="row"):
    """Yield explicit fillings {(i,j): ((value, marked), ...)} whose total
    element count is at most deg."""
    check_orientation(orientation)
    outer, inner = skew(outer, inner)

    def marks(i, j, ms):
        positions = _markable_positions(ms)
        for npick in range(len(positions) + 1):
            for picked in itertools.combinations(positions, npick):
                yield tuple((v, p in picked) for p, v in enumerate(ms)), None

    for _, filling in _fill(_cell_bounds(outer, inner, flags, orientation, n),
                            deg, False, 1, marks, None):
        yield dict(filling)


def _mmsvt_fillings(outer, inner, n, deg, flags, orientation):
    """Yield (weight, filling) for every filling of the underlying multisets,
    filling mapping each cell to its multiset.  Marks are summed out cell by
    cell: a markable element contributes alpha_col - beta_row."""
    check_orientation(orientation)
    outer, inner = skew(outer, inner)
    # a cell's factor depends only on (i, j, ms): build each one once
    factors = {}

    def weighted(i, j, ms):
        factor = factors.get((i, j, ms))
        if factor is None:
            alpha = TruncPoly.var(n, deg, ALPHA, j)
            factor = TruncPoly.const(n, deg, 1)
            for v in ms:
                factor = factor * pvar(n, deg, X, v)
            markable = len(_markable_positions(ms))
            factor = factor * alpha ** (len(ms) - 1 - markable)
            factor = factor * (alpha - TruncPoly.var(n, deg, BETA, i)) \
                ** markable
            factors[(i, j, ms)] = factor
        return ((ms, factor),)

    yield from _fill(_cell_bounds(outer, inner, flags, orientation, n),
                     deg, False, 1, weighted, TruncPoly.const(n, deg, 1))


def enum_mmsvt(outer, inner, n, deg, flags=None, orientation="row"):
    """Exact generating function of flagged marked multiset fillings; only
    the underlying multisets are enumerated, since marks are summed out."""
    total = TruncPoly.zero(n, deg)
    for weight, _ in _mmsvt_fillings(outer, inner, n, deg, flags,
                                     orientation):
        total = total + weight
    return total


# ---------------------------------------------------------------------------
# marked reverse plane partitions

_VARIANTS = ("left", "right", "bottom")


def _mrpp_validate(outer, inner, variant, orientation, mark_set, flags, n):
    """(outer, inner, mark set, flags) checked; with a mark set the shape
    and the marks are checked by shapes.marked_shape, and the flags, r = 1
    and s = n when absent, one pair per row of outer, are read by
    shapes.read_flags with a mark set's reading."""
    check_orientation(orientation)
    if variant not in _VARIANTS:
        raise ShapeError(f"unknown variant {variant!r}")
    if mark_set is None:
        outer, inner = skew(outer, inner)
        return outer, inner, None, flags
    outer, inner, mark_set = marked_shape(outer, inner, mark_set)
    if variant == "right":
        raise ShapeError("mark sets apply to left and bottom variants only")
    if orientation != "row":
        raise ShapeError("mark sets use row flags")
    r, s = flags or ((1,) * len(outer), (n,) * len(outer))
    return outer, inner, mark_set, read_flags(r, s, len(outer), n,
                                              marked=True)


def _boundary(outer, mark_set, flags):
    """A mark set's boundary entries {(i, outer_i + 1): T} over the rows i
    of outer: s_i inside the set and infinite outside it; empty without a
    mark set."""
    if mark_set is None:
        return {}
    return {(i, lam + 1): s_i if i in mark_set else INF
            for i, (lam, s_i) in enumerate(zip(outer, flags[1]), 1)}


def gen_rpp(outer, inner, n, flags=None, orientation="row", mark_set=None):
    """Yield reverse plane partitions {(i,j): value} of the skew shape with
    weakly increasing rows and columns and per-row or per-column bounds.

    With a mark set the outer shape may be dented and the boundary entries
    T(i, outer_i+1) (s_i for i in the set, infinite otherwise) bound from
    above any real cell directly below them; if r is not componentwise <= s
    the family is empty.
    """
    outer, inner, mark_set, flags = _mrpp_validate(
        outer, inner, "left", orientation, mark_set, flags, n)
    yield from _rpp_fillings(outer, inner, n, flags, orientation, mark_set)


def _rpp_fillings(outer, inner, n, flags, orientation, mark_set):
    """gen_rpp on arguments _mrpp_validate has already checked."""
    if mark_set is None:
        bounds = _cell_bounds(outer, inner, flags, orientation, n)
    elif any(map(operator.gt, *flags)):
        return
    else:
        r, s = flags
        boundary = _boundary(outer, mark_set, flags)
        # (i - 1, j) holds a boundary entry only past the end of its row,
        # never a cell; an infinite one admits no value below it
        bounds = {(i, j): (max(r[i - 1], boundary.get((i - 1, j), 0)),
                           s[i - 1]) for i, j in cells(outer, inner)}
    for _, values in _fill(bounds, len(bounds), False, 0,
                           lambda i, j, t: ((t[0], None),), None):
        yield dict(values)


def _mrpp_neighbors(variant, i, j):
    """((mark cell, mark alpha index), (beta cell, beta index))."""
    if variant == "left":
        return ((i, j + 1), j), ((i - 1, j), i - 1)
    if variant == "right":
        return ((i, j - 1), j - 1), ((i + 1, j), i)
    return ((i - 1, j), i - 1), ((i, j + 1), j)


def markable_cells(values, variant, boundary=None):
    """Cells of the filling whose value equals the marking neighbor, a cell
    or an entry of boundary, a _boundary dict."""
    boundary = boundary or {}
    out = []
    for (i, j), v in values.items():
        (mcell, _), _ = _mrpp_neighbors(variant, i, j)
        if values.get(mcell, boundary.get(mcell)) == v:
            out.append((i, j))
    return sorted(out)


def _mrpp_summed_weight(values, variant, boundary, n, deg):
    """Weight of the underlying filling with its markable cells summed out:
    each contributes its unmarked weight minus the marking alpha."""
    w = TruncPoly.const(n, deg, 1)
    for (i, j), v in values.items():
        (mcell, midx), (bcell, bidx) = _mrpp_neighbors(variant, i, j)
        if values.get(bcell, boundary.get(bcell)) == v:
            rest = pvar(n, deg, BETA, bidx)
        else:
            rest = pvar(n, deg, X, v)
        if values.get(mcell, boundary.get(mcell)) == v:
            rest = rest - pvar(n, deg, ALPHA, midx)
        w = w * rest
    return w


def enum_mrpp(outer, inner, n, deg, variant="left", flags=None,
              orientation="row", mark_set=None):
    """Exact generating function of marked reverse plane partitions; only
    underlying fillings are enumerated, since marks are summed out."""
    outer_t, inner_t, mark_set, flags = _mrpp_validate(
        outer, inner, variant, orientation, mark_set, flags, n)
    boundary = _boundary(outer_t, mark_set, flags)
    total = TruncPoly.zero(n, deg)
    for values in _rpp_fillings(outer_t, inner_t, n, flags, orientation,
                                mark_set):
        total = total + _mrpp_summed_weight(values, variant, boundary, n,
                                            deg)
    return total


class TableauSweep:
    """Flagged generating functions of one skew shape for many flag vectors,
    from a single unflagged enumeration.

    A flagged filling is an unflagged one whose entries in row k (column k
    for column flags) lie in [r_k, s_k].  The fillings with values in 1..n
    are enumerated once, by the rules of enum_mmsvt (family "mmsvt"), of
    enum_mrpp's left variant ("mrpp") or of enum_fsvt ("fsvt", row flags
    only), and their weights are bucketed by the (min, max) entry of each
    row or column.  value(r, s) sums the buckets the flags admit; it equals
    enum_mmsvt / enum_mrpp / enum_fsvt with flags=(r, s) and the same
    orientation.

    With a mark set (family "mrpp", row flags; outer may be dented) the
    boundary entries and the uncapped values depend on s, so the fillings
    are enumerated once per upper flag vector s, with r = 1, and bucketed
    by row minima alone.  value(r, s) is zero when some r_k > s_k, as in
    enum_mrpp, and otherwise equals enum_mrpp(..., flags=(r, s),
    mark_set=mark_set).
    """

    def __init__(self, family, outer, inner, n, deg, orientation="row",
                 mark_set=None):
        if family not in ("mmsvt", "mrpp", "fsvt"):
            raise ShapeError(f"unknown tableau family {family!r}")
        if family == "fsvt" and orientation != "row":
            raise ShapeError("set-valued fillings use row flags")
        if mark_set is None:
            check_orientation(orientation)
            outer, inner = skew(outer, inner)
        elif family != "mrpp":
            raise ShapeError("mark sets apply to the mrpp family only")
        else:
            outer, inner, mark_set, _ = _mrpp_validate(
                outer, inner, "left", orientation, mark_set, None, n)
        self.family, self.outer, self.inner = family, outer, inner
        self.n, self.deg = n, deg
        self.orientation, self.mark_set = orientation, mark_set
        self._axis = 0 if orientation == "row" else 1
        # flags are needed up to the last row or column holding a cell, and
        # with a mark set for every row the boundary can reach
        self._width = len(outer) if mark_set is not None else max(
            (c[self._axis] for c in cells(outer, inner)), default=0)
        self._buckets = {}  # s with a mark set, else None -> buckets
        self._admitted = None, {}  # (r, key), their buckets summed by max

    def _fillings(self, s):
        """(weight, filling) of every filling of the sweep, filling mapping
        each cell to a tuple whose first and last items are its first and
        last entries; s is the upper flag vector of a marked sweep and None
        otherwise."""
        outer, inner, n, deg = self.outer, self.inner, self.n, self.deg
        if self.family == "mmsvt":
            yield from _mmsvt_fillings(outer, inner, n, deg, None,
                                       self.orientation)
            return
        if self.family == "fsvt":
            yield from _fsvt_fillings(outer, inner, n, deg)
            return
        flags = None if s is None else ((1,) * len(s), s)
        boundary = _boundary(outer, self.mark_set, flags)
        for values in gen_rpp(outer, inner, n, flags, self.orientation,
                              self.mark_set):
            weight = _mrpp_summed_weight(values, "left", boundary, n, deg)
            # a marked enumeration has applied s already: its last entries
            # read 0, so that row minima alone split the buckets
            yield weight, {c: (v, v if s is None else 0)
                           for c, v in values.items()}

    def _bucketed(self, s):
        buckets = {}
        for weight, filling in self._fillings(s):
            # an index without cells reads (INF, 0), which every flag admits
            lo, hi = [INF] * self._width, [0] * self._width
            for cell, t in filling.items():
                k = cell[self._axis] - 1
                lo[k], hi[k] = min(lo[k], t[0]), max(hi[k], t[-1])
            key = (tuple(lo), tuple(hi))
            got = buckets.get(key)
            buckets[key] = weight if got is None else got + weight
        return buckets

    def value(self, r, s):
        """The flagged sum for (r, s), raw or capped alike: shapes.read_flags
        reads them as FlagSweep does, and every bucket value is at most n, so
        capping the flags changes no bucket test.  The buckets the last r
        admits are kept summed by their maxima, so a call tests only those
        sums against s."""
        r, s = read_flags(r, s, self._width, self.n, self.mark_set is not None)
        key = None
        if self.mark_set is not None:
            if any(map(operator.gt, r, s)):
                return TruncPoly.zero(self.n, self.deg)
            key = s
        if self._admitted[0] != (r, key):
            buckets = self._buckets.get(key)
            if buckets is None:
                buckets = self._buckets[key] = self._bucketed(key)
            by_max = {}
            for (lo, hi), weight in buckets.items():
                if all(map(operator.le, r, lo)):
                    got = by_max.get(hi)
                    by_max[hi] = weight if got is None else got + weight
            self._admitted = (r, key), by_max
        total = None
        for hi, weight in self._admitted[1].items():
            if all(map(operator.le, hi, s)):
                total = weight if total is None else total + weight
        return TruncPoly.zero(self.n, self.deg) if total is None else total


def gen_mrpp(outer, inner, n, variant="left", flags=None, orientation="row",
             mark_set=None):
    """Yield explicit marked fillings {(i,j): (value, marked)}."""
    outer_t, inner_t, mark_set, flags = _mrpp_validate(
        outer, inner, variant, orientation, mark_set, flags, n)
    boundary = _boundary(outer_t, mark_set, flags)
    for values in _rpp_fillings(outer_t, inner_t, n, flags, orientation,
                                mark_set):
        markable = markable_cells(values, variant, boundary)
        for npick in range(len(markable) + 1):
            for picked in itertools.combinations(markable, npick):
                chosen = set(picked)
                yield {c: (v, c in chosen) for c, v in values.items()}


# ---------------------------------------------------------------------------
# elegant and inelegant tableaux

_FAMILIES = ("elegant", "inelegant", "barred")

_RULE_GROUPS = {
    "C": 0, "c'": 0,
    "c": 1, "C'": 1,
    "D": 2, "d'": 2,
    "d": 3, "D'": 3,
}


def _rule_weight(rule, n, deg, t, c):
    group = _RULE_GROUPS.get(rule)
    if group is None:
        raise ShapeError(f"unknown weight rule {rule!r}")
    if group == 0:
        return pvar(n, deg, ALPHA, t) - pvar(n, deg, BETA, t - c)
    if group == 1:
        return pvar(n, deg, BETA, t) - pvar(n, deg, ALPHA, t + c)
    if group == 2:
        return pvar(n, deg, ALPHA, t - c) - pvar(n, deg, BETA, t)
    return pvar(n, deg, BETA, t + c) - pvar(n, deg, ALPHA, t)


def _elegant_cells(outer, inner):
    outer, inner = tuple(outer), tuple(inner)
    if all(v >= 0 for v in outer + inner):
        outer, inner = skew(outer, inner)
    elif len(inner) != len(outer):
        raise ShapeError("generalized partitions must share their length")
    elif not contains(inner, outer):
        raise ShapeError(f"{inner} not contained in {outer}")
    return cells(outer, inner)


def gen_elegant(outer, inner, family):
    """Yield fillings {(i,j): value} of the family.

    elegant: rows weakly increase, columns strictly increase,
             min(i-j, 0) < T(i,j) < i;
    barred:  the same with T(i,j) <= i;
    inelegant: rows weakly decrease, columns strictly decrease,
             min(j-i, 0) < T(i,j) < j.
    """
    if family not in _FAMILIES:
        raise ShapeError(f"unknown family {family!r}")
    order = sorted(_elegant_cells(outer, inner))
    values = {}

    def rec(k):
        if k == len(order):
            yield dict(values)
            return
        i, j = order[k]
        if family == "inelegant":
            lo, hi = min(j - i, 0) + 1, j - 1
            if (i, j - 1) in values:
                hi = min(hi, values[(i, j - 1)])
            if (i - 1, j) in values:
                hi = min(hi, values[(i - 1, j)] - 1)
        else:
            lo = min(i - j, 0) + 1
            hi = i - 1 if family == "elegant" else i
            if (i, j - 1) in values:
                lo = max(lo, values[(i, j - 1)])
            if (i - 1, j) in values:
                lo = max(lo, values[(i - 1, j)] + 1)
        for v in range(lo, hi + 1):
            values[(i, j)] = v
            yield from rec(k + 1)
            del values[(i, j)]

    yield from rec(0)


def enum_elegant(outer, inner, n, deg, family, rule):
    """Sum of per-cell rule weights over the family; parameters only."""
    if rule not in _RULE_GROUPS:
        raise ShapeError(f"unknown weight rule {rule!r}")
    total = TruncPoly.zero(n, deg)
    for values in gen_elegant(outer, inner, family):
        w = TruncPoly.const(n, deg, 1)
        for (i, j), t in values.items():
            w = w * _rule_weight(rule, n, deg, t, j - i)
        total = total + w
    return total


# ---------------------------------------------------------------------------
# flagged set-valued tableaux

def gen_fsvt(outer, inner, n, deg, flags=None):
    """Yield set-valued fillings {(i,j): (v1 < v2 < ...)} with row i entries
    in [r_i, s_i], flags=(r, s), and at most deg entries in total."""
    outer, inner = skew(outer, inner)
    for _, filling in _fill(_cell_bounds(outer, inner, flags, "row", n), deg,
                            True, 1, lambda i, j, st: ((st, None),), None):
        yield dict(filling)


def _fsvt_fillings(outer, inner, n, deg, flags=None):
    """Yield (weight, filling) for every filling gen_fsvt yields: the weight
    is b_1^(entries - cells) times the product of its x variables, a product
    over cells of b_1^(|set| - 1) prod x_v."""
    beta = TruncPoly.var(n, deg, BETA, 1)
    factors = {}
    for filling in gen_fsvt(outer, inner, n, deg, flags):
        w = TruncPoly.const(n, deg, 1)
        for st in filling.values():
            factor = factors.get(st)
            if factor is None:
                factor = beta ** (len(st) - 1)
                for v in st:
                    factor = factor * pvar(n, deg, X, v)
                factors[st] = factor
            w = w * factor
        yield w, filling


def enum_fsvt(outer, inner, n, deg, flags=None):
    """Generating function of flagged set-valued fillings: each filling
    contributes b_1^(entries - cells) times the product of its x
    variables."""
    total = TruncPoly.zero(n, deg)
    for weight, _ in _fsvt_fillings(outer, inner, n, deg, flags):
        total = total + weight
    return total
