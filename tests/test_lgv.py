from __future__ import annotations

import random

import pytest

from grothpoly import symfunc
from grothpoly.lgv import (PathFamily, WeightedLatticeGraph,
                           gen_nonintersecting, gen_paths,
                           nonintersecting_coeff, path_weight)
from grothpoly.ring import ALPHA, BETA, TruncPoly
from grothpoly.shapes import ShapeError, contains, part, partitions_up_to
from grothpoly.tableaux import gen_elegant

N, DEG = 1, 0

WEST = WeightedLatticeGraph("west-north")
EAST = WeightedLatticeGraph("east-north")


def av(i):
    return TruncPoly.var(N, DEG, ALPHA, i)


def bv(i):
    return TruncPoly.var(N, DEG, BETA, i)


def pv(fam, i):
    if i <= 0:
        return TruncPoly.zero(N, DEG)
    return TruncPoly.var(N, DEG, fam, i)


def one():
    return TruncPoly.const(N, DEG, 1)


def path_weight_sum(graph, u, v, n, deg):
    """Exact sum of path weights over all monotone paths from u to v."""
    (au, bu), (av, bv) = tuple(u), tuple(v)
    dx = graph.dx
    memo = {}

    def weight_from(a, b):
        if (a, b) == (av, bv):
            return TruncPoly.const(n, deg, 1)
        if b > bv or (av - a) * dx < 0:
            return TruncPoly.zero(n, deg)
        if (a, b) not in memo:
            north = weight_from(a, b + 1)
            horiz = graph.horizontal_weight(n, deg, a, b) * \
                weight_from(a + dx, b)
            memo[(a, b)] = north + horiz
        return memo[(a, b)]

    return weight_from(au, bu)


def family_to_tableau(family, paths):
    """Read the filling off a family: the heights of the horizontal steps of
    path i fill row i, right to left for kind C and left to right for c."""
    out = {}
    for i, path in enumerate(paths, start=1):
        heights = [b for (a, b), (a2, _) in zip(path, path[1:]) if a2 != a]
        mu_i = part(family.mu, i)
        for j, b in enumerate(heights, start=1):
            col = mu_i + 1 - j if family.kind == "C" else mu_i + j
            out[(i, col)] = b
    return out


def test_unknown_kinds_rejected():
    with pytest.raises(ShapeError):
        WeightedLatticeGraph("south")
    with pytest.raises(ShapeError):
        PathFamily((1,), (2,), "Q")


def test_empty_and_impossible_paths():
    for graph in (WEST, EAST):
        assert path_weight_sum(graph, (2, 3), (2, 3), N, DEG) == one()
        assert path_weight_sum(graph, (0, 1), (0, 0), N, DEG) == \
            TruncPoly.zero(N, DEG)
    assert path_weight_sum(WEST, (0, 0), (1, 1), N, DEG) == \
        TruncPoly.zero(N, DEG)
    assert path_weight_sum(EAST, (1, 0), (0, 1), N, DEG) == \
        TruncPoly.zero(N, DEG)


def test_single_west_step_value():
    # only the path stepping west at height 1 survives; the height-0 step
    # weighs zero but is still traversed
    assert path_weight_sum(WEST, (1, 0), (0, 1), N, DEG) == av(1)
    assert path_weight_sum(WEST, (1, 1), (0, 1), N, DEG) == av(1)


def test_single_east_step_value():
    assert path_weight_sum(EAST, (0, 0), (1, 0), N, DEG) == -av(1)
    assert path_weight_sum(EAST, (0, -1), (1, 1), N, DEG) == \
        bv(1) - av(1) - av(2)


def test_gen_paths_enumeration():
    paths = list(gen_paths(WEST, (3, 0), (0, 2)))
    assert len(paths) == 10 and len(set(paths)) == 10
    for p in paths:
        assert p[0] == (3, 0) and p[-1] == (0, 2) and len(p) == 6


def test_path_weight_sum_matches_explicit_paths():
    rng = random.Random(5)
    for _ in range(10):
        for graph in (WEST, EAST):
            a0, b0 = rng.randint(-3, 3), rng.randint(-3, 1)
            u = (a0, b0)
            v = (a0 + graph.dx * rng.randint(0, 3), b0 + rng.randint(0, 3))
            total = TruncPoly.zero(N, DEG)
            for p in gen_paths(graph, u, v):
                total = total + path_weight(graph, p, N, DEG)
            assert total == path_weight_sum(graph, u, v, N, DEG)


# ORACLE: the plethysm evaluations the path sums are meant to reproduce.
def test_west_graph_matches_h_plethysm():
    rng = random.Random(7)
    for _ in range(20):
        r = rng.randint(-3, 3)
        t = r + rng.randint(0, 4)
        s = min(t, 0) + rng.randint(0, 4)
        got = path_weight_sum(WEST, (t, min(t, 0)), (r, s), N, DEG)
        z = symfunc.cat(symfunc.a_prefix(s),
                        symfunc.neg(symfunc.b_prefix(s - r - 1)))
        assert got == symfunc.h_pleth(t - r, z, N, DEG)


def test_east_graph_matches_h_plethysm():
    rng = random.Random(11)
    for _ in range(20):
        t = rng.randint(-3, 3)
        r = t + rng.randint(0, 4)
        s = min(-t - 1, 0) + rng.randint(0, 4)
        got = path_weight_sum(EAST, (t, min(-t - 1, 0)), (r, s), N, DEG)
        z = symfunc.cat(symfunc.neg(symfunc.a_prefix(r + s)),
                        symfunc.b_prefix(s))
        assert got == symfunc.h_pleth(r - t, z, N, DEG)


def test_trivial_families():
    for lam in [(), (2, 1), (3, 2, 2)]:
        assert nonintersecting_coeff(lam, lam, "C", N, DEG) == one()
        assert nonintersecting_coeff(lam, lam, "c", N, DEG) == one()


def test_single_step_families():
    assert nonintersecting_coeff((1,), (2,), "C", N, DEG) == av(1)
    assert nonintersecting_coeff((2,), (1,), "c", N, DEG) == -av(1)


FIG_PATHS = (
    ((3, 1), (3, 2), (3, 3), (2, 3)),
    ((2, 1), (2, 2), (1, 2), (0, 2)),
    ((1, 1), (0, 1), (-1, 1), (-1, 2)),
    ((-1, 0), (-2, 0), (-2, 1), (-3, 1)),
    ((-2, -1), (-3, -1), (-3, 0), (-4, 0), (-5, 0)),
    ((-3, -2), (-4, -2), (-5, -2), (-5, -1), (-6, -1), (-6, 0)),
    ((-5, -4), (-5, -3), (-6, -3), (-6, -2), (-7, -2), (-7, -1), (-7, 0)),
)

FIG_TABLEAU = {(1, 4): 3, (2, 3): 2, (2, 4): 2, (3, 3): 1, (3, 4): 1,
               (4, 2): 1, (4, 3): 0, (5, 1): 0, (5, 2): 0, (5, 3): -1,
               (6, 1): -1, (6, 2): -2, (6, 3): -2, (7, 1): -2, (7, 2): -3}


def test_figure_family_maps_to_displayed_tableau():
    mu, lam = (4, 4, 4, 3, 3, 3, 2), (3, 2, 2, 1)
    family = PathFamily(lam, mu, "C")
    assert family.starts == [p[0] for p in FIG_PATHS]
    assert family.targets == [p[-1] for p in FIG_PATHS]
    assert family_to_tableau(family, FIG_PATHS) == FIG_TABLEAU
    assert any(paths == FIG_PATHS for paths in gen_nonintersecting(family))


def tableau_rule_weight(values, kind):
    w = one()
    for (i, j), t in values.items():
        c = j - i
        if kind == "C":
            w = w * (pv(ALPHA, t) - pv(BETA, t - c))
        else:
            w = w * (pv(BETA, t) - pv(ALPHA, t + c))
    return w


def test_family_tableau_bijection_is_weight_preserving():
    for big in partitions_up_to(4):
        for small in partitions_up_to(4):
            if not contains(small, big):
                continue
            family = PathFamily(small, big, "C")
            seen = []
            for paths in gen_nonintersecting(family):
                w = one()
                for p in paths:
                    w = w * path_weight(family.graph, p, N, DEG)
                tab = family_to_tableau(family, paths)
                assert w == tableau_rule_weight(tab, "C")
                seen.append(tuple(sorted(tab.items())))
            want = [tuple(sorted(t.items()))
                    for t in gen_elegant(big, small, "inelegant")]
            assert sorted(seen) == sorted(want)


def test_three_way_agreement_with_elegant_enumeration():
    from grothpoly.tableaux import enum_elegant
    for big in partitions_up_to(4):
        for small in partitions_up_to(4):
            if not contains(small, big):
                continue
            assert nonintersecting_coeff(small, big, "C", N, DEG) == \
                enum_elegant(big, small, N, DEG, "inelegant", "C")
            assert nonintersecting_coeff(big, small, "c", N, DEG) == \
                enum_elegant(big, small, N, DEG, "elegant", "c")
