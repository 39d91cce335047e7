"""Lattice-path evaluation of Schur expansion coefficients.

Two graphs on the integer lattice: the west-north graph, whose west step
leaving (a, b) weighs alpha_b - beta_{b-a}, and the east-north graph, whose
east step leaving (a, b) weighs beta_b - alpha_{a+b+1}.  North steps weigh 1
and alpha_m = beta_m = 0 for m <= 0.  Weighted path sums between staircase
endpoints reproduce complete homogeneous functions of the parameter
alphabets; sums over vertex-disjoint path families reproduce the expansion
coefficients, with the horizontal step heights reading off the corresponding
integer-entry tableau.
"""

import itertools

from .ring import ALPHA, BETA, TruncPoly, pvar
from .shapes import ShapeError, part, partition


class WeightedLatticeGraph:
    """North steps of weight one plus one weighted horizontal direction."""

    def __init__(self, kind):
        if kind not in ("west-north", "east-north"):
            raise ShapeError(f"unknown graph kind {kind!r}")
        self.kind = kind

    @property
    def dx(self):
        return -1 if self.kind == "west-north" else 1

    def horizontal_weight(self, n, deg, a, b):
        """Weight of the horizontal step leaving (a, b)."""
        if self.kind == "west-north":
            return pvar(n, deg, ALPHA, b) - pvar(n, deg, BETA, b - a)
        return pvar(n, deg, BETA, b) - pvar(n, deg, ALPHA, a + b + 1)


def gen_paths(graph, u, v):
    """Yield every monotone path from u to v as a tuple of vertices."""
    (au, bu), (av, bv) = tuple(u), tuple(v)
    dx = graph.dx
    if bu > bv or (av - au) * dx < 0:
        return
    horiz, rise = (av - au) * dx, bv - bu
    for positions in itertools.combinations(range(horiz + rise), horiz):
        chosen = set(positions)
        a, b = au, bu
        verts = [(a, b)]
        for step in range(horiz + rise):
            if step in chosen:
                a += dx
            else:
                b += 1
            verts.append((a, b))
        yield tuple(verts)


def path_weight(graph, path, n, deg):
    """Product of horizontal step weights along an explicit path."""
    w = TruncPoly.const(n, deg, 1)
    for (a, b), (a2, _) in zip(path, path[1:]):
        if a2 != a:
            w = w * graph.horizontal_weight(n, deg, a, b)
    return w


class PathFamily:
    """Identity-connected endpoint system for an expansion coefficient.

    Kind C pairs the i-th staircase point of mu with the i-th of lam over
    the west-north graph, one pair per row of mu; kind c runs over the rows
    of lam on the east-north graph.
    """

    def __init__(self, lam, mu, kind):
        lam, mu = partition(lam), partition(mu)
        if kind == "C":
            self.graph = WeightedLatticeGraph("west-north")
            m = len(mu)
            self.starts = [(part(mu, i) - i, min(part(mu, i) - i + 1, 1))
                           for i in range(1, m + 1)]
            self.targets = [(part(lam, i) - i, part(lam, i))
                            for i in range(1, m + 1)]
        elif kind == "c":
            self.graph = WeightedLatticeGraph("east-north")
            m = len(lam)
            self.starts = [(part(mu, i) - i, min(i - part(mu, i), 1))
                           for i in range(1, m + 1)]
            self.targets = [(part(lam, i) - i, i - 1)
                            for i in range(1, m + 1)]
        else:
            raise ShapeError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.lam, self.mu = lam, mu


def gen_nonintersecting(family):
    """Yield tuples of pairwise vertex-disjoint paths, start i to target i."""
    m = len(family.starts)
    options = [list(gen_paths(family.graph, family.starts[i],
                              family.targets[i])) for i in range(m)]
    chosen = []
    used = set()

    def rec(i):
        if i == m:
            yield tuple(chosen)
            return
        for path in options[i]:
            verts = set(path)
            if verts & used:
                continue
            used.update(verts)
            chosen.append(path)
            yield from rec(i + 1)
            chosen.pop()
            used.difference_update(verts)

    yield from rec(0)


def nonintersecting_coeff(lam, mu, kind, n, deg):
    """Sum of weight products over all vertex-disjoint families."""
    family = PathFamily(lam, mu, kind)
    total = TruncPoly.zero(n, deg)
    for paths in gen_nonintersecting(family):
        w = TruncPoly.const(n, deg, 1)
        for path in paths:
            w = w * path_weight(family.graph, path, n, deg)
        total = total + w
    return total
