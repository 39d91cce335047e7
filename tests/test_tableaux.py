from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly import shapes, symfunc
from grothpoly.grothendieck import valid_mark_sets
from grothpoly.ring import ALPHA, BETA, TruncPoly, X, pvar
from grothpoly.shapes import ShapeError
from grothpoly.tableaux import (TableauSweep, _mrpp_neighbors, enum_elegant,
                                enum_fsvt, enum_mmsvt, enum_mrpp, gen_elegant,
                                gen_mmsvt, gen_mrpp, gen_rpp, markable_cells)


def xv(n, deg, i):
    return TruncPoly.var(n, deg, X, i)


def av(n, deg, i):
    return TruncPoly.var(n, deg, ALPHA, i)


def bv(n, deg, i):
    return TruncPoly.var(n, deg, BETA, i)


def one(n, deg):
    return TruncPoly.const(n, deg, 1)


def prod(polys, n, deg):
    out = one(n, deg)
    for p in polys:
        out = out * p
    return out


# Weights of explicit marked fillings: the oracles the summed-out
# enumerations are checked against.

def mmsvt_weight(entries, n, deg):
    """Weight of an explicit filling {(i,j): ((value, marked), ...)}.

    Each element contributes x_value; every unmarked element beyond the first
    unmarked one contributes alpha_col, and every marked element -beta_row.
    """
    w = TruncPoly.const(n, deg, 1)
    for (i, j), elems in entries.items():
        if not elems:
            raise ShapeError("cells hold nonempty multisets")
        vals = [v for v, _ in elems]
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ShapeError(f"multiset not weakly increasing: {vals}")
        unmarked = 0
        for p, (v, marked) in enumerate(elems):
            w = w * pvar(n, deg, X, v)
            if marked:
                if p == 0 or vals[p - 1] >= v:
                    raise ShapeError("marks need a strictly smaller "
                                     f"predecessor: {elems}")
                w = w * (-TruncPoly.var(n, deg, BETA, i))
            else:
                unmarked += 1
        w = w * TruncPoly.var(n, deg, ALPHA, j) ** (unmarked - 1)
    return w


def mrpp_weight(outer, inner, filling, variant, n, deg,
                mark_set=None, flags=None):
    """Weight of an explicit marked filling {(i,j): (value, marked)}.

    A marked cell contributes -alpha indexed by the marking rule; an unmarked
    cell repeating its beta-neighbor contributes the matching beta, any other
    unmarked cell contributes x_value.  With a mark set, row i of outer ends
    in the boundary entry T(i, outer_i + 1): s_i for i in the set, s
    defaulting to n, and infinite otherwise.
    """
    values = {c: v for c, (v, _) in filling.items()}
    if mark_set is not None:
        s = flags[1] if flags is not None else (n,) * len(outer)
        for i, lam_i in enumerate(outer, 1):
            values[(i, lam_i + 1)] = s[i - 1] if i in mark_set else shapes.INF
    w = TruncPoly.const(n, deg, 1)
    for (i, j), (v, marked) in filling.items():
        (mcell, midx), (bcell, bidx) = _mrpp_neighbors(variant, i, j)
        if marked:
            if values.get(mcell) != v:
                raise ShapeError(f"cell {(i, j)} is not markable")
            w = w * (-pvar(n, deg, ALPHA, midx))
        elif values.get(bcell) == v:
            w = w * pvar(n, deg, BETA, bidx)
        else:
            w = w * pvar(n, deg, X, v)
    return w


# ORACLE: filter all value maps on the cells by the defining inequalities.
def brute_single_valued(cell_list, ranges, row_cmp, col_cmp):
    out = []
    for combo in itertools.product(*(ranges[c] for c in cell_list)):
        values = dict(zip(cell_list, combo))
        ok = True
        for (i, j), v in values.items():
            if (i, j + 1) in values and not row_cmp(v, values[(i, j + 1)]):
                ok = False
            if (i + 1, j) in values and not col_cmp(v, values[(i + 1, j)]):
                ok = False
        if ok:
            out.append(values)
    return out


def sort_fillings(fillings):
    return sorted(tuple(sorted(f.items())) for f in fillings)


def test_rpp_matches_bruteforce():
    outer, inner, n = (3, 2), (1,), 3
    cs = shapes.cells(outer, inner)
    ranges = {c: range(1, n + 1) for c in cs}
    expected = brute_single_valued(cs, ranges, lambda a, b: a <= b,
                                   lambda a, b: a <= b)
    got = list(gen_rpp(outer, inner, n))
    assert sort_fillings(got) == sort_fillings(expected)


def test_rpp_row_and_column_counts():
    # a single row or column with values <= n is a multichoose count
    import math
    n = 3
    assert len(list(gen_rpp((4,), (), n))) == math.comb(n + 4 - 1, 4)
    assert len(list(gen_rpp((1, 1, 1, 1), (), n))) == math.comb(n + 4 - 1, 4)


def test_rpp_flags_by_row_and_column():
    outer, n = (2, 2), 4
    flagged = list(gen_rpp(outer, (), n, flags=((1, 2), (2, 3))))
    for values in flagged:
        for (i, j), v in values.items():
            lo, hi = ((1, 2)[i - 1], (2, 3)[i - 1])
            assert lo <= v <= hi
    by_col = list(gen_rpp(outer, (), n, flags=((1, 2), (2, 3)),
                          orientation="col"))
    for values in by_col:
        for (i, j), v in values.items():
            assert (1, 2)[j - 1] <= v <= (2, 3)[j - 1]
    assert flagged and by_col and flagged != by_col


# ---------------------------------------------------------------------------
# marked multiset-valued tableaux

def test_mmsvt_figure_weight_and_membership():
    n, deg = 4, 9
    entries = {(1, 2): ((1, False), (2, True), (2, False)),
               (1, 3): ((2, False), (2, False), (4, True)),
               (2, 1): ((1, False),),
               (2, 2): ((3, False), (3, False))}
    expect = prod([xv(n, deg, 1) ** 2, xv(n, deg, 2) ** 4,
                   xv(n, deg, 3) ** 2, xv(n, deg, 4),
                   av(n, deg, 2) ** 2, av(n, deg, 3),
                   bv(n, deg, 1) ** 2], n, deg)
    assert mmsvt_weight(entries, n, deg) == expect
    assert any(f == entries for f in gen_mmsvt((3, 2), (1,), n, deg))


def test_mmsvt_weight_rejects_bad_marks():
    with pytest.raises(ShapeError):
        mmsvt_weight({(1, 1): ((1, True),)}, 2, 2)
    with pytest.raises(ShapeError):
        mmsvt_weight({(1, 1): ((1, False), (1, True))}, 2, 2)
    with pytest.raises(ShapeError):
        mmsvt_weight({(1, 1): ((2, False), (1, False))}, 2, 2)


def test_mmsvt_single_cell_values():
    n, deg = 1, 2
    assert enum_mmsvt((1,), (), n, deg) == \
        xv(n, deg, 1) + av(n, deg, 1) * xv(n, deg, 1) ** 2
    n = 2
    got = enum_mmsvt((1,), (), n, deg)
    x1, x2 = xv(n, deg, 1), xv(n, deg, 2)
    a1, b1 = av(n, deg, 1), bv(n, deg, 1)
    assert got == x1 + x2 + a1 * (x1 ** 2 + x2 ** 2) + (a1 - b1) * x1 * x2


def test_mmsvt_empty_shape_is_one():
    assert enum_mmsvt((2, 1), (2, 1), 2, 3) == one(2, 3)


def test_mmsvt_enum_matches_explicit_generation():
    # enum_mmsvt builds each cell factor once per (row, column, multiset);
    # at n = 3 the same markable multiset recurs in cells of different rows
    # and columns, whose factors differ through beta_row and alpha_col
    for outer, inner, n, deg in [((2, 1), (), 2, 4), ((2, 2), (1,), 2, 4),
                                 ((3,), (), 2, 4), ((2, 2), (), 3, 6),
                                 ((3, 2), (1,), 3, 6), ((2, 1, 1), (), 3, 6)]:
        total = TruncPoly.zero(n, deg)
        for entries in gen_mmsvt(outer, inner, n, deg):
            total = total + mmsvt_weight(entries, n, deg)
        assert total == enum_mmsvt(outer, inner, n, deg), (outer, inner)


def test_mmsvt_flagged_enum_matches_explicit_generation():
    n, deg = 3, 5
    flags = ((1, 2), (2, 3))
    for orientation in ("row", "col"):
        total = TruncPoly.zero(n, deg)
        for entries in gen_mmsvt((2, 2), (1,), n, deg, flags=flags,
                                 orientation=orientation):
            total = total + mmsvt_weight(entries, n, deg)
        assert total == enum_mmsvt((2, 2), (1,), n, deg, flags=flags,
                                   orientation=orientation)


def x_only(p):
    return TruncPoly.from_monomials(p.n, p.deg, (
        (m, c) for m, c in p.monomials()
        if all(fam == X for (fam, _), _ in m)))


def test_mmsvt_lowest_degree_layer_is_schur():
    # single-element cells without marks are semistandard tableaux
    for lam in [(2,), (1, 1), (2, 1), (3,)]:
        for n in (2, 3):
            deg = sum(lam)
            assert x_only(enum_mmsvt(lam, (), n, deg)) == \
                symfunc.schur_jt(lam, (), n, deg)


def test_mrpp_lowest_degree_layer_is_schur():
    for lam in [(2,), (1, 1), (2, 1)]:
        for n in (2, 3):
            deg = sum(lam)
            assert x_only(enum_mrpp(lam, (), n, deg)) == \
                symfunc.schur_jt(lam, (), n, deg)


# ---------------------------------------------------------------------------
# marked reverse plane partitions

FIG_LEFT = {(1, 3): (1, False), (1, 4): (2, False), (1, 5): (4, True),
            (1, 6): (4, False),
            (2, 2): (1, True), (2, 3): (1, False), (2, 4): (3, False),
            (2, 5): (5, False),
            (3, 2): (1, False), (3, 3): (1, False),
            (4, 1): (3, True), (4, 2): (3, True), (4, 3): (3, False)}

FIG_RIGHT = {(1, 3): (1, False), (1, 4): (2, False), (1, 5): (4, False),
             (1, 6): (4, True),
             (2, 2): (1, False), (2, 3): (1, True), (2, 4): (3, False),
             (2, 5): (5, False),
             (3, 2): (1, False), (3, 3): (1, False),
             (4, 1): (3, False), (4, 2): (3, True), (4, 3): (3, True)}


def test_mrpp_left_figure_weight():
    n, deg = 5, 6
    w = mrpp_weight((6, 5, 3, 3), (2, 1, 1), FIG_LEFT, "left", n, deg)
    expect = prod([xv(n, deg, 1), xv(n, deg, 2), xv(n, deg, 3) ** 2,
                   xv(n, deg, 4), xv(n, deg, 5),
                   av(n, deg, 1), av(n, deg, 2) ** 2, av(n, deg, 5),
                   bv(n, deg, 1), bv(n, deg, 2) ** 2], n, deg)
    assert w == expect


def test_mrpp_right_figure_weight():
    n, deg = 5, 7
    w = mrpp_weight((6, 5, 3, 3), (2, 1, 1), FIG_RIGHT, "right", n, deg)
    expect = prod([xv(n, deg, 1) ** 2, xv(n, deg, 2), xv(n, deg, 3) ** 2,
                   xv(n, deg, 4), xv(n, deg, 5),
                   av(n, deg, 1), av(n, deg, 2) ** 2, av(n, deg, 5),
                   bv(n, deg, 1), bv(n, deg, 2)], n, deg)
    assert w == expect


def test_mrpp_weight_rejects_bad_marks():
    with pytest.raises(ShapeError):
        mrpp_weight((2,), (), {(1, 1): (1, True), (1, 2): (2, False)},
                    "left", 2, 2)


def test_mrpp_boundary_figure_weight_and_membership():
    # dented outer shape with virtual boundary entries driven by the mark set
    outer, inner = (3, 4, 4, 1), (1, 1)
    flags = ((1, 1, 2, 2), (3, 3, 4, 5))
    mark_set = {1, 3}
    filling = {(1, 2): (1, False), (1, 3): (2, False),
               (2, 2): (1, False), (2, 3): (3, True), (2, 4): (3, False),
               (3, 1): (2, False), (3, 2): (2, False), (3, 3): (3, False),
               (3, 4): (4, True),
               (4, 1): (4, False)}
    n, deg = 5, 5
    w = mrpp_weight(outer, inner, filling, "left", n, deg,
                    mark_set=mark_set, flags=flags)
    expect = prod([xv(n, deg, 1), xv(n, deg, 2) ** 3, xv(n, deg, 4),
                   av(n, deg, 3), av(n, deg, 4),
                   bv(n, deg, 1) ** 2, bv(n, deg, 2)], n, deg)
    assert w == expect
    values = {c: v for c, (v, _) in filling.items()}
    assert any(f == values for f in gen_rpp(outer, inner, n, flags=flags,
                                            mark_set=mark_set))


def test_mrpp_mark_set_conventions():
    n, deg = 3, 4
    flags_bad = ((2, 1), (1, 3))
    assert enum_mrpp((1, 2), (), n, deg, flags=flags_bad,
                     mark_set={1}) == TruncPoly.zero(n, deg)
    flags = ((1, 1), (2, 3))
    assert enum_mrpp((1, 1), (1, 1), n, deg, flags=flags,
                     mark_set={1}) == one(n, deg)
    # without boundary rows an empty mark set is the plain flagged family
    assert enum_mrpp((2, 1), (), n, deg, flags=flags, mark_set=set()) == \
        enum_mrpp((2, 1), (), n, deg, flags=flags)


def test_mrpp_mark_set_usage_errors():
    with pytest.raises(ShapeError):
        enum_mrpp((1, 3), (), 2, 2, mark_set={1})
    with pytest.raises(ShapeError):
        enum_mrpp((2, 1), (), 2, 2, variant="right", mark_set={1})
    with pytest.raises(ShapeError):
        enum_mrpp((2, 1), (), 2, 2, orientation="col", mark_set={1})


def test_mrpp_enum_matches_explicit_generation():
    n, deg = 2, 4
    cases = [((2, 2), (1,), None, None),
             ((2, 1), (), None, None),
             ((1, 2), (), ((1, 1), (2, 2)), {1, 2}),
             ((1, 2), (), ((1, 1), (2, 2)), {2}),
             ((2, 2, 1), (1,), ((1, 1, 2), (1, 2, 2)), {1, 2, 3})]
    for outer, inner, flags, mark_set in cases:
        variants = ("left", "right", "bottom") if mark_set is None \
            else ("left", "bottom")
        for variant in variants:
            total = TruncPoly.zero(n, deg)
            for filling in gen_mrpp(outer, inner, n, variant=variant,
                                    flags=flags, mark_set=mark_set):
                total = total + mrpp_weight(outer, inner, filling, variant,
                                            n, deg, mark_set=mark_set,
                                            flags=flags)
            assert total == enum_mrpp(outer, inner, n, deg, variant=variant,
                                      flags=flags, mark_set=mark_set)


def test_left_and_right_enumerations_agree():
    n, deg = 2, 5
    for outer, inner in [((2, 2), ()), ((3, 1), ()), ((2, 2), (1,)),
                         ((3, 2), (1,))]:
        left = enum_mrpp(outer, inner, n, deg, variant="left")
        right = enum_mrpp(outer, inner, n, deg, variant="right")
        assert left == right


def test_bottom_variant_is_transpose_of_right():
    n, deg = 2, 5
    for outer, inner in [((2, 2), ()), ((3, 1), ()), ((2, 2), (1,))]:
        bottom = enum_mrpp(outer, inner, n, deg, variant="bottom")
        right = enum_mrpp(shapes.conjugate(outer), shapes.conjugate(inner),
                          n, deg, variant="right")
        assert bottom == right


# The left/right marked-RPP bijection, kept as a test oracle.

def phi_left_to_right(outer, inner, filling):
    """Map a left-marked filling to the right-marked filling on the same
    underlying values: within the rows where two adjacent columns share the
    marked value, each mark moves up one row (wrapping at the top) and over
    to the right column.  Weight is preserved."""
    outer = tuple(outer)
    values = {c: v for c, (v, _) in filling.items()}
    new_marks = set()
    for (i, j), (v, marked) in filling.items():
        if not marked:
            continue
        rows = [r for r in range(1, len(outer) + 1)
                if values.get((r, j)) == v and values.get((r, j + 1)) == v]
        if i not in rows:
            raise ShapeError(f"cell {(i, j)} is not left-markable")
        idx = rows.index(i)
        target = rows[idx - 1] if idx > 0 else rows[-1]
        new_marks.add((target, j + 1))
    return {c: (v, c in new_marks) for c, v in values.items()}


def test_phi_figure():
    outer, inner = (5, 4, 4), (2, 1)
    marks = {(1, 3), (3, 1), (3, 3)}
    filling = {c: (1, c in marks) for c in shapes.cells(outer, inner)}
    out = phi_left_to_right(outer, inner, filling)
    assert {c for c, (v, m) in out.items() if m} == {(3, 2), (2, 4), (3, 4)}
    assert {c: v for c, (v, _) in out.items()} == \
        {c: 1 for c in shapes.cells(outer, inner)}


def test_phi_rejects_unmarkable_input():
    with pytest.raises(ShapeError):
        phi_left_to_right((2,), (), {(1, 1): (1, True), (1, 2): (2, False)})


def test_phi_is_a_weight_preserving_bijection():
    n, deg = 2, 4
    for outer, inner in [((2, 2), ()), ((3, 1), ()), ((2, 1, 1), ()),
                         ((2, 2), (1,)), ((3, 2), (1,))]:
        for values in gen_rpp(outer, inner, n):
            lefts = []
            for k in range(len(values) + 1):
                for picked in itertools.combinations(
                        markable_cells(values, "left"), k):
                    lefts.append({c: (v, c in set(picked))
                                  for c, v in values.items()})
            images = [phi_left_to_right(outer, inner, f) for f in lefts]
            for f, img in zip(lefts, images):
                wl = mrpp_weight(outer, inner, f, "left", n, deg)
                wr = mrpp_weight(outer, inner, img, "right", n, deg)
                assert wl == wr
            keys = [tuple(sorted(img.items())) for img in images]
            assert len(set(keys)) == len(keys)
            rights = markable_cells(values, "right")
            assert len(images) == 2 ** len(rights)


# ---------------------------------------------------------------------------
# elegant and inelegant tableaux

def elegant_ranges(family, cell_list):
    out = {}
    for i, j in cell_list:
        if family == "inelegant":
            out[(i, j)] = range(min(j - i, 0) + 1, j)
        elif family == "elegant":
            out[(i, j)] = range(min(i - j, 0) + 1, i)
        else:
            out[(i, j)] = range(min(i - j, 0) + 1, i + 1)
    return out


def test_elegant_families_match_bruteforce():
    cases = [("inelegant", (3, 2), (1,)), ("inelegant", (2, 2, 1), (1, 1)),
             ("elegant", (2, 2), (1,)), ("elegant", (3, 3, 1), (2, 1)),
             ("barred", (2, 2), (1,)), ("barred", (2, 1), ())]
    for family, outer, inner in cases:
        cs = shapes.cells(outer, inner)
        ranges = elegant_ranges(family, cs)
        if family == "inelegant":
            expected = brute_single_valued(cs, ranges, lambda a, b: a >= b,
                                           lambda a, b: a > b)
        else:
            expected = brute_single_valued(cs, ranges, lambda a, b: a <= b,
                                           lambda a, b: a < b)
        got = list(gen_elegant(outer, inner, family))
        assert sort_fillings(got) == sort_fillings(expected)


def test_elegant_generalized_shape():
    # barred tableaux may live on shapes with nonpositive column indices
    got = list(gen_elegant((1,), (-1,), "barred"))
    assert got == [{(1, 0): 1, (1, 1): 1}]


def test_elegant_refuses_bad_generalized_shapes():
    with pytest.raises(ShapeError, match="must share their length"):
        list(gen_elegant((1, 0), (-1,), "barred"))
    with pytest.raises(ShapeError, match="not contained"):
        list(gen_elegant((1, -1), (0, 0), "barred"))


def test_elegant_single_cell_values():
    n, deg = 1, 0
    assert enum_elegant((2,), (1,), n, deg, "inelegant", "C") == av(n, deg, 1)
    assert enum_elegant((1, 1), (1,), n, deg, "inelegant", "C") == \
        -bv(n, deg, 1)
    assert enum_elegant((1,), (), n, deg, "elegant", "c") == \
        TruncPoly.zero(n, deg)
    assert enum_elegant((), (), n, deg, "elegant", "c") == one(n, deg)


def test_elegant_rule_pairs_coincide():
    n, deg = 1, 0
    for outer, inner in [((2, 2), (1,)), ((3, 1), (1,))]:
        for fam, r1, r2 in [("inelegant", "C", "c'"),
                            ("inelegant", "D", "d'"),
                            ("elegant", "c", "C'"), ("elegant", "d", "D'")]:
            assert enum_elegant(outer, inner, n, deg, fam, r1) == \
                enum_elegant(outer, inner, n, deg, fam, r2)


def test_elegant_unknown_rule_or_family():
    with pytest.raises(ShapeError):
        enum_elegant((1,), (), 0, 0, "elegant", "Q")
    with pytest.raises(ShapeError):
        list(gen_elegant((1,), (), "weird"))


# ---------------------------------------------------------------------------
# flagged set-valued tableaux

def test_fsvt_single_cell():
    n, deg = 2, 2
    x1, x2, b1 = xv(n, deg, 1), xv(n, deg, 2), bv(n, deg, 1)
    assert enum_fsvt((1,), (), n, deg, ((1,), (1,))) == x1
    assert enum_fsvt((1,), (), n, deg, ((1,), (2,))) == x1 + x2 + b1 * x1 * x2
    assert enum_fsvt((1,), (1,), n, deg, ((1,), (1,))) == one(n, deg)


def test_fsvt_negated_excess_parameter():
    # the excess parameter is b_1; sending b_1 to -b_1 weighs each extra
    # entry by -b_1
    n, deg = 2, 2
    x1, x2, b1 = xv(n, deg, 1), xv(n, deg, 2), bv(n, deg, 1)
    got = enum_fsvt((1,), (), n, deg, ((1,), (2,))).specialize(
        lambda var: (-1, var) if var == (BETA, 1) else None)
    assert got == x1 + x2 - b1 * x1 * x2


def test_fsvt_is_mmsvt_with_collapsed_parameters():
    # killing the alphas keeps exactly the strict-set fillings, and sending
    # every beta_i to -beta turns (-beta_i)^marked into beta^excess
    for lam in [(2,), (1, 1), (2, 1)]:
        n, deg = 2, 4
        ell = len(lam)
        collapsed = enum_mmsvt(lam, (), n, deg).specialize(
            lambda var: (0, None) if var[0] == ALPHA else (-1, (BETA, 1)))
        want = enum_fsvt(lam, (), n, deg, ((1,) * ell, (n,) * ell))
        assert collapsed == want


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_flagged_generation_consistency(data):
    n, deg = 2, 3
    parts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    outer = tuple(sorted(parts, reverse=True))
    inner_cap = data.draw(st.integers(0, outer[-1]))
    inner = (inner_cap,) if inner_cap else ()
    m = len(outer)
    r = tuple(sorted(data.draw(
        st.lists(st.integers(1, n), min_size=m, max_size=m))))
    s = tuple(sorted(data.draw(
        st.lists(st.integers(1, n), min_size=m, max_size=m))))
    if any(a > b for a, b in zip(r, s)):
        r = tuple(min(a, b) for a, b in zip(r, s))
    flags = (r, s)
    total = TruncPoly.zero(n, deg)
    for entries in gen_mmsvt(outer, inner, n, deg, flags=flags):
        total = total + mmsvt_weight(entries, n, deg)
    assert total == enum_mmsvt(outer, inner, n, deg, flags=flags)
    total = TruncPoly.zero(n, deg)
    for filling in gen_mrpp(outer, inner, n, flags=flags):
        total = total + mrpp_weight(outer, inner, filling, "left", n, deg,
                                    flags=flags)
    assert total == enum_mrpp(outer, inner, n, deg, flags=flags)


@pytest.mark.parametrize("family", ["mmsvt", "mrpp"])
@pytest.mark.parametrize("orientation", ["row", "col"])
def test_tableau_sweep_matches_flagged_enumeration_on_raw_flags(family,
                                                                orientation):
    # flags up to n + 2 on both sides, r_k > s_k included; (2, 1)/(1, 1)
    # has an empty second row, and its conjugate (2, 1)/(2) an empty first
    # column; column flags enumerate the conjugate shape
    n, deg = 2, 4
    enum = enum_mmsvt if family == "mmsvt" else enum_mrpp
    flag_values = range(1, n + 3)
    for lam, mu in [((2, 1), (1, 1)), ((2, 1), (2,)), ((2, 2), (1,)),
                    ((3, 1), (1,)), ((1, 1), ())]:
        if orientation == "col":
            lam, mu = shapes.conjugate(lam), shapes.conjugate(mu)
        sweep = TableauSweep(family, lam, mu, n, deg, orientation)
        m = 2
        for r in itertools.product(flag_values, repeat=m):
            for s in itertools.product(flag_values, repeat=m):
                want = enum(lam, mu, n, deg, flags=(r, s),
                            orientation=orientation)
                assert sweep.value(r, s) == want, (lam, mu, r, s)


def test_marked_tableau_sweep_matches_enum_mrpp_on_raw_flags():
    # every raw flag pair over the shapes and mark sets of the marked
    # FlagSweep test: r_k > s_k, rows without cells ((1, 2)/(1)) and
    # s_k > n included; the sweep enumerates once per s with r = 1
    n = 2
    flag_values = [1, 2, 4]
    checked = nonzero = 0
    for lam, mu in [((1, 2), ()), ((1, 2), (1,)), ((2, 2, 1), (1,)),
                    ((1, 1, 2), ())]:
        deg = sum(lam) + 1
        flag_vectors = list(itertools.product(flag_values, repeat=len(lam)))
        for marks in valid_mark_sets(lam):
            sweep = TableauSweep("mrpp", lam, mu, n, deg, mark_set=marks)
            for r in flag_vectors:
                for s in flag_vectors:
                    want = enum_mrpp(lam, mu, n, deg, flags=(r, s),
                                     mark_set=marks)
                    assert sweep.value(r, s) == want, (lam, mu, marks, r, s)
                    checked += 1
                    nonzero += not want.is_zero()
    assert nonzero > checked // 10


def test_fsvt_sweep_matches_enum_fsvt_on_raw_flags():
    # raw flags with r <= s <= n; (2, 1)/(1, 1) has an empty second row
    n, deg = 3, 5
    for lam, mu in [((2, 1), ()), ((2, 1), (1, 1)), ((2, 2), (1,)),
                    ((1, 1, 1), ()), ((2, 1, 1), (1,)), ((3,), (1,))]:
        sweep = TableauSweep("fsvt", lam, mu, n, deg)
        flag_vectors = list(itertools.product(range(1, n + 1),
                                              repeat=len(lam)))
        for s in flag_vectors:
            for r in flag_vectors:
                if any(a > b for a, b in zip(r, s)):
                    continue
                assert sweep.value(r, s) == enum_fsvt(lam, mu, n, deg,
                                                      (r, s)), (lam, mu, r, s)


def test_tableau_sweep_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        TableauSweep("svt", (1,), (), 1, 1)
    with pytest.raises(ShapeError):
        TableauSweep("mmsvt", (1,), (), 1, 1, orientation="diag")
    with pytest.raises(ShapeError):
        TableauSweep("mrpp", (1,), (2,), 1, 1)
    with pytest.raises(ShapeError):
        TableauSweep("mmsvt", (2, 1), (), 2, 3).value((1,), (2,))
    with pytest.raises(ShapeError):
        TableauSweep("fsvt", (2, 1), (), 2, 3, orientation="col")
    with pytest.raises(ShapeError):
        TableauSweep("mmsvt", (1, 2), (), 2, 3, mark_set={1})
    with pytest.raises(ShapeError):
        TableauSweep("mrpp", (1, 2), (), 2, 3, mark_set={3})


@pytest.mark.parametrize("family, mark_set",
                         [("mmsvt", None), ("mrpp", None), ("fsvt", None),
                          ("mrpp", {1})])
def test_tableau_sweep_refuses_bad_flags_on_every_call(family, mark_set):
    # value() keeps each vector it has checked; a bad pair is refused on
    # its first and on later calls, also when each of its vectors was
    # accepted before beside another partner; lists work as tuples do
    outer = (1, 2) if mark_set else (2, 2)
    sweep = TableauSweep(family, outer, (), 2, 4, mark_set=mark_set)
    want = (enum_fsvt(outer, (), 2, 4, ((1, 1), (2, 2))) if family == "fsvt"
            else (enum_mmsvt if family == "mmsvt" else enum_mrpp)(
                outer, (), 2, 4, flags=((1, 1), (2, 2)),
                **({"mark_set": mark_set} if mark_set else {})))
    assert sweep.value([1, 1], [2, 2]) == sweep.value((1, 1), (2, 2)) == want
    sweep.value((1, 1, 1), (2, 2, 2))
    for _ in range(2):
        for r, s in (((1, 1), (2, 2, 2)), ((1, 1, 1), (2, 2)), ((1,), (2,)),
                     ((0, 1), (2, 2)), ((1, 1), (2, 0))):
            with pytest.raises(ShapeError):
                sweep.value(r, s)


def test_tableau_sweep_takes_raw_flags_after_their_classes():
    # capped flag classes first, as the flagged suite passes them, then raw
    # flags of the same classes against the enumeration
    n, deg = 2, 4
    lam, mu = (2, 2, 1), (1,)
    raw = [(1, 4, 5), (3, 3, 4), (1, 2, 6), (1, 1, 3)]
    for family, enum in (("mmsvt", enum_mmsvt), ("mrpp", enum_mrpp)):
        sweep = TableauSweep(family, lam, mu, n, deg)
        pairs = [(r, s) for r in raw for s in raw]
        for r, s in pairs:
            sweep.value(*shapes.flag_class(r, s, n))
        for r, s in pairs:
            assert sweep.value(r, s) == enum(lam, mu, n, deg, flags=(r, s)), \
                (family, r, s)


def test_marked_tableaux_read_an_infinite_upper_flag_as_n():
    # as the CLI and g_marked_det do; r_1 = 3 > n makes the family empty
    n, deg, inf = 2, 4, shapes.INF
    lam, mu, marks = (1, 2), (), {1}
    sweep = TableauSweep("mrpp", lam, mu, n, deg, mark_set=marks)
    for r in [(1, 1), (3, 1), (1, 2)]:
        at_n = enum_mrpp(lam, mu, n, deg, flags=(r, (n, n)), mark_set=marks)
        assert enum_mrpp(lam, mu, n, deg, flags=(r, (inf, inf)),
                         mark_set=marks) == at_n, r
        assert sweep.value(r, (inf, inf)) == sweep.value(r, (n, inf)) \
            == at_n, r
        assert list(gen_rpp(lam, mu, n, flags=(r, (inf, n)),
                            mark_set=marks)) == list(
            gen_rpp(lam, mu, n, flags=(r, (n, n)), mark_set=marks)), r
    got = enum_mrpp(lam, mu, n, deg, flags=((1, 1), (inf, inf)),
                    mark_set=marks)
    assert len(got.terms) == 7
    assert enum_mrpp(lam, mu, n, deg, flags=((3, 1), (inf, inf)),
                     mark_set=marks).is_zero()


def test_marked_tableaux_need_one_flag_per_row():
    # as g_marked_det does: (2, 1)/(1, 1) has no cell in row 1, yet its
    # boundary entry needs s_1, so one flag for two rows is refused
    for call in (
            lambda: enum_mrpp((2, 1), (1, 1), 2, 4, flags=((1,), (2,)),
                              mark_set={1}),
            lambda: list(gen_mrpp((2, 1), (1, 1), 2, flags=((1,), (2,)),
                                  mark_set={1})),
            lambda: list(gen_rpp((2, 1), (1, 1), 2, flags=((1,), (2,)),
                                 mark_set={1}))):
        with pytest.raises(ShapeError, match="shorter than the shape"):
            call()
    # without a mark set the rows holding cells are enough
    assert enum_mrpp((2, 1), (1, 1), 2, 4, flags=((1,), (2,))) \
        == enum_mrpp((2, 1), (1, 1), 2, 4)


@pytest.mark.parametrize("family, mark_set",
                         [("mmsvt", None), ("mrpp", None), ("fsvt", None),
                          ("mrpp", {1})])
def test_tableau_sweep_rejects_flags_below_one(family, mark_set):
    # as FlagSweep.value does; a lower flag of 0 admits every bucket
    outer = (1, 2) if mark_set else (2, 2)
    sweep = TableauSweep(family, outer, (), 2, 4, mark_set=mark_set)
    for r, s in (((0, 0), (2, 2)), ((1, 1), (2, 0))):
        with pytest.raises(ShapeError):
            sweep.value(r, s)
