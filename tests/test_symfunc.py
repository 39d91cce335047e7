from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly.grothendieck import _row_prefactor
from grothpoly.ring import ALPHA, BETA, X, TruncPoly, det
from grothpoly.shapes import (ShapeError, part, partition, partitions_up_to,
                              size)
from grothpoly.symfunc import (
    a_prefix,
    alternant_quotient,
    b_prefix,
    cat,
    e_ominus,
    e_pleth,
    h_ominus,
    h_pleth,
    neg,
    schur_branching,
    schur_jt,
    single,
    x_interval,
)

import pytest
from schur_oracle import SymmetryError, schur_expand, swap_x


def xv(i, n, deg):
    return TruncPoly.var(n, deg, X, i)


def av(i, n, deg):
    return TruncPoly.var(n, deg, ALPHA, i)


def bv(i, n, deg):
    return TruncPoly.var(n, deg, BETA, i)


def one(n, deg):
    return TruncPoly.const(n, deg, 1)


# ORACLES: the Vandermonde product and Schur's bialternant a_{lam+delta} /
# a_delta, which the branching rule and Jacobi-Trudi are compared with.

def vandermonde(n, deg):
    out = one(n, deg)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (xv(i, n, deg) - xv(j, n, deg))
    return out


def schur_bialternant(lam, n, deg):
    """det(x_j^{lam_i + n - i}) / prod_{i<j}(x_i - x_j)."""
    return alternant_quotient(
        lambda i, j, work: TruncPoly.var(n, work, X, j, part(lam, i) + n - i),
        n, deg)


# Independent oracle: semistandard tableaux of a skew shape by backtracking.

def gen_ssyt(outer, inner, max_val):
    cells = []
    for i in range(1, len(outer) + 1):
        lo = inner[i - 1] if i <= len(inner) else 0
        for j in range(lo + 1, outer[i - 1] + 1):
            cells.append((i, j))

    def is_valid(filling, pos, val):
        i, j = pos
        left = filling.get((i, j - 1))
        if left is not None and left > val:
            return False
        up = filling.get((i - 1, j))
        if up is not None and up >= val:
            return False
        return True

    def backtrack(k, filling):
        if k == len(cells):
            yield dict(filling)
            return
        pos = cells[k]
        for val in range(1, max_val + 1):
            if is_valid(filling, pos, val):
                filling[pos] = val
                yield from backtrack(k + 1, filling)
                del filling[pos]

    yield from backtrack(0, {})


def ssyt_sum(outer, inner, n, deg):
    acc = TruncPoly.zero(n, deg)
    for filling in gen_ssyt(outer, inner, n):
        term = one(n, deg)
        for val in filling.values():
            term = term * xv(val, n, deg)
        acc = acc + term
    return acc


def x1_coeff(p, t):
    terms = {}
    for mono, c in p.monomials():
        xe = 0
        rest = []
        for (fam, idx), e in mono:
            if fam == X:
                xe = e
            else:
                rest.append(((fam, idx), e))
        if xe == t:
            terms[tuple(rest)] = c
    return TruncPoly.from_monomials(p.n, p.deg, terms.items())


def random_alphabet(rng, n, max_blocks=3):
    out = []
    for _ in range(rng.randint(1, max_blocks)):
        sign = rng.choice([1, -1])
        kind = rng.randrange(4)
        if kind == 0:
            # x letters beyond n are zero
            r = rng.randint(1, n)
            block = ("x", r, rng.randint(r, n + 2))
        elif kind == 1:
            block = ("ap", rng.randint(1, 3))
        elif kind == 2:
            block = ("bp", rng.randint(1, 3))
        else:
            block = ("v", rng.choice([ALPHA, BETA]), rng.randint(1, 3),
                     rng.choice([1, -1, 2]))
        out.append((sign, block))
    return tuple(out)


def random_letter(rng, n):
    fam = rng.choice([X, ALPHA, BETA])
    idx = rng.randint(1, n if fam == X else 3)
    return fam, idx


# Independent oracle: h_m and e_m of an alphabet written out as signed
# letters, h_m[P - N] = sum_k (-1)^k h_{m-k}[P] e_k[N] and e_m[P - N] =
# sum_k (-1)^k e_{m-k}[P] h_k[N], with h a sum over multisets of letters and
# e over sets.  A ("v", fam, idx, c) block is the one letter c * v.

def signed_letters(alphabet, n, deg):
    pos, negs = [], []
    for sign, block in alphabet:
        if block[0] == "x":
            letters = [(X, i, 1)
                       for i in range(block[1], min(block[2], n) + 1)]
        elif block[0] == "ap":
            letters = [(ALPHA, i, 1) for i in range(1, block[1] + 1)]
        elif block[0] == "bp":
            letters = [(BETA, i, 1) for i in range(1, block[1] + 1)]
        else:
            letters = [block[1:]]
        (pos if sign > 0 else negs).extend(
            c * TruncPoly.var(n, deg, fam, idx) for fam, idx, c in letters)
    return pos, negs


def choose_sum(letters, k, choose, n, deg):
    acc = TruncPoly.zero(n, deg)
    for picked in choose(letters, k):
        term = one(n, deg)
        for z in picked:
            term = term * z
        acc = acc + term
    return acc


def pleth_oracle(kind, m, alphabet, n, deg):
    pos, negs = signed_letters(alphabet, n, deg)
    h = itertools.combinations_with_replacement
    e = itertools.combinations
    first, second = (h, e) if kind == "h" else (e, h)
    acc = TruncPoly.zero(n, deg)
    for k in range(m + 1):
        acc = acc + (-1) ** k * choose_sum(pos, m - k, first, n, deg) \
            * choose_sum(negs, k, second, n, deg)
    return acc


ORACLE_N, ORACLE_DEG = 2, 4

ORACLE_ALPHABETS = [
    x_interval(1, ORACLE_N),
    x_interval(2, ORACLE_N + 2),
    neg(x_interval(2, ORACLE_N + 2)),
    x_interval(ORACLE_N + 1, ORACLE_N + 2),
    single(ALPHA, 2, 1),
    neg(single(BETA, 1, 1)),
    single(X, 1, 1),
    # value negation, and plethystic negation of the value-negated letter
    single(BETA, 1, -1),
    neg(single(BETA, 1, -1)),
    cat(x_interval(2, ORACLE_N + 2), neg(a_prefix(2)), b_prefix(1)),
    cat(a_prefix(1), neg(b_prefix(2)), single(X, 2, 1)),
    cat(neg(x_interval(1, ORACLE_N)), single(BETA, 3, 1),
        neg(single(ALPHA, 1, 1))),
    cat(x_interval(1, ORACLE_N + 1), single(ALPHA, 1, 2),
        neg(single(BETA, 2, -1)), single(X, 2, -1)),
]


def alphabet_id(alphabet):
    # an unscaled letter (c = 1) prints as ("v", fam, idx): short, stable ids
    return str(tuple((sign, block[:3] if block[0] == "v" and block[3] == 1
                      else block) for sign, block in alphabet))


@pytest.mark.parametrize("alphabet", ORACLE_ALPHABETS, ids=alphabet_id)
def test_pleth_matches_signed_letter_oracle(alphabet):
    n, deg = ORACLE_N, ORACLE_DEG
    # m runs past deg and past the number of letters
    for m in range(-1, deg + 3):
        assert h_pleth(m, alphabet, n, deg) == \
            pleth_oracle("h", m, alphabet, n, deg), (m, alphabet)
        assert e_pleth(m, alphabet, n, deg) == \
            pleth_oracle("e", m, alphabet, n, deg), (m, alphabet)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_pleth_matches_signed_letter_oracle_on_random_alphabets(seed):
    rng = random.Random(seed)
    n, deg = ORACLE_N, ORACLE_DEG
    z = random_alphabet(rng, n)
    m = rng.randint(0, deg + 2)
    assert h_pleth(m, z, n, deg) == pleth_oracle("h", m, z, n, deg)
    assert e_pleth(m, z, n, deg) == pleth_oracle("e", m, z, n, deg)


def test_h_of_x_interval_matches_monomial_sum():
    n, deg = 3, 4
    got = h_pleth(2, x_interval(1, 3), n, deg)
    want = TruncPoly.zero(n, deg)
    for i in range(1, 4):
        for j in range(i, 4):
            want = want + xv(i, n, deg) * xv(j, n, deg)
    assert got == want
    assert h_pleth(deg + 1, x_interval(1, 3), n, deg).is_zero()
    assert e_pleth(4, x_interval(1, 3), n, deg).is_zero()
    assert e_pleth(3, x_interval(1, 3), n, deg) == \
        xv(1, n, deg) * xv(2, n, deg) * xv(3, n, deg)


def test_h_of_parameter_prefix():
    n, deg = 1, 2
    # h_2[a_1 + a_2] and e_2[a_1 + a_2]
    a1, a2 = av(1, n, deg), av(2, n, deg)
    assert h_pleth(2, a_prefix(2), n, deg) == a1 * a1 + a1 * a2 + a2 * a2
    assert e_pleth(2, a_prefix(2), n, deg) == a1 * a2
    assert h_pleth(-1, a_prefix(2), n, deg).is_zero()


def test_negation_on_mixed_alphabet():
    n, deg = 2, 3
    z = cat(a_prefix(2), neg(b_prefix(1)))
    for m in range(5):
        assert h_pleth(m, neg(z), n, deg) == (-1) ** m * e_pleth(m, z, n, deg)
        assert e_pleth(m, neg(z), n, deg) == (-1) ** m * h_pleth(m, z, n, deg)


def test_generating_series_of_hAB():
    # sum_t h_t[A_r - B_s] x^t = prod_j (1 - b_j x) / prod_i (1 - a_i x)
    n, deg = 1, 5
    for r, s in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 3)]:
        series = one(n, deg)
        for j in range(1, s + 1):
            series = series * (one(n, deg) - bv(j, n, deg) * xv(1, n, deg))
        for i in range(1, r + 1):
            geo = TruncPoly.zero(n, deg)
            for k in range(deg + 1):
                geo = geo + (av(i, n, deg) * xv(1, n, deg)) ** k
            series = series * geo
        ab = cat(a_prefix(r), neg(b_prefix(s)))
        for t in range(deg + 1):
            assert x1_coeff(series, t) == h_pleth(t, ab, n, deg), (r, s, t)


def test_row_prefactor_matches_explicit_products():
    # rows (i, lo, hi) with hi past n, lo past n and lo > hi; x_l for l > n
    # is zero, so only l in [lo, min(hi, n)] contributes
    n, deg = 2, 4
    rows = [(1, 1, 2), (2, 2, 4), (3, 3, 1), (2, 3, 5), (1, 1, 1)]
    row_want = col_want = m_want = one(n, deg)
    for i, lo, hi in rows:
        for l in range(lo, min(hi, n) + 1):
            row_want = row_want * (one(n, deg) - bv(i, n, deg) * xv(l, n, deg))
            m_want = m_want * (one(n, deg) + bv(1, n, deg) * xv(l, n, deg))
            geo = TruncPoly.zero(n, deg)
            for k in range(deg + 1):
                geo = geo + (av(i, n, deg) * xv(l, n, deg)) ** k
            col_want = col_want * geo
    factors = [(("G", "row"), row_want), (("G", "col"), col_want),
               (("M", "row"), m_want)]
    for (kind, orientation), want in factors:
        assert _row_prefactor(kind, orientation, rows, n, deg) == want
        for i, lo, hi in rows:
            if lo > min(hi, n):
                assert _row_prefactor(kind, orientation, [(i, lo, hi)],
                                      n, deg) == one(n, deg)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_h_recurrence_strip_one_letter(seed):
    rng = random.Random(seed)
    n, deg = 2, 4
    z = random_alphabet(rng, n)
    fam, idx = random_letter(rng, n)
    zp = TruncPoly.var(n, deg, fam, idx)
    m = rng.randint(0, 4)
    lhs = h_pleth(m, z, n, deg)
    rhs = h_pleth(m, cat(z, neg(single(fam, idx, 1))), n, deg) \
        + zp * h_pleth(m - 1, z, n, deg)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_e_recurrences_strip_and_add_one_letter(seed):
    rng = random.Random(seed)
    n, deg = 2, 4
    z = random_alphabet(rng, n)
    fam, idx = random_letter(rng, n)
    zp = TruncPoly.var(n, deg, fam, idx)
    m = rng.randint(0, 4)
    minus = cat(z, neg(single(fam, idx, 1)))
    plus = cat(z, single(fam, idx, 1))
    assert e_pleth(m, z, n, deg) == \
        e_pleth(m, minus, n, deg) + zp * e_pleth(m - 1, minus, n, deg)
    assert e_pleth(m, z, n, deg) == \
        e_pleth(m, plus, n, deg) - zp * e_pleth(m - 1, z, n, deg)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_additivity_and_block_order(seed):
    rng = random.Random(seed)
    n, deg = 2, 4
    z1 = random_alphabet(rng, n, max_blocks=2)
    z2 = random_alphabet(rng, n, max_blocks=2)
    m = rng.randint(0, 4)
    conv = TruncPoly.zero(n, deg)
    for a in range(m + 1):
        conv = conv + h_pleth(a, z1, n, deg) * h_pleth(m - a, z2, n, deg)
    assert h_pleth(m, cat(z1, z2), n, deg) == conv
    both = list(cat(z1, z2))
    rng.shuffle(both)
    assert h_pleth(m, cat(z1, z2), n, deg) == h_pleth(m, tuple(both), n, deg)
    assert e_pleth(m, cat(z1, z2), n, deg) == e_pleth(m, tuple(both), n, deg)


def test_h_ominus_geometric_fixtures():
    n, deg = 1, 4
    x1, a1 = xv(1, n, deg), av(1, n, deg)
    # h_0[x1 (-) a1] is the geometric series 1/(1 - a1 x1)
    h0 = h_ominus(0, x_interval(1, 1), a_prefix(1), n, deg)
    want = TruncPoly.zero(n, deg)
    for k in range(deg + 1):
        want = want + (a1 * x1) ** k
    assert h0 == want
    assert ((one(n, deg) - a1 * x1) * h0) == one(n, deg)
    # h_{-2}[x1 (-) a1] = sum_{k>=2} x1^{k-2} a1^k
    hm2 = h_ominus(-2, x_interval(1, 1), a_prefix(1), n, deg)
    want = TruncPoly.zero(n, deg)
    for k in range(2, deg + 3):
        want = want + x1 ** (k - 2) * a1 ** k
    assert hm2 == want
    # h_1[x1 (-) a1] = x1 / (1 - a1 x1)
    h1 = h_ominus(1, x_interval(1, 1), a_prefix(1), n, deg)
    want = TruncPoly.zero(n, deg)
    for k in range(deg):
        want = want + x1 * (a1 * x1) ** k
    assert h1 == want


def test_h_ominus_with_negated_right_part():
    # h_m[x1 (-) (A_1 - B_1)]: right side h_k[a1 - b1] = a1^k - a1^{k-1} b1
    n, deg = 1, 3
    x1, a1, b1 = xv(1, n, deg), av(1, n, deg), bv(1, n, deg)
    got = h_ominus(1, x_interval(1, 1), cat(a_prefix(1), neg(b_prefix(1))),
                   n, deg)
    want = TruncPoly.zero(n, deg)
    for k in range(deg + 1):
        hk = a1 ** k - (a1 ** (k - 1) * b1 if k >= 1 else TruncPoly.zero(n, deg))
        want = want + x1 ** (k + 1) * hk
    assert got == want


def test_e_ominus_fixtures():
    n, deg = 2, 4
    x1, x2 = xv(1, n, deg), xv(2, n, deg)
    a1, b1 = av(1, n, deg), bv(1, n, deg)
    assert e_ominus(2, x_interval(1, 2), a_prefix(1), n, deg) == x1 * x2
    got = e_ominus(1, x_interval(1, 2), neg(b_prefix(1)), n, deg)
    # e_k[-b1] = (-1)^k h_k[b1] = (-b1)^k, so the sum telescopes
    want = (x1 + x2) - (x1 * x2) * b1
    assert got == want
    got = e_ominus(0, x_interval(1, 1), a_prefix(1), n, deg)
    assert got == one(n, deg) + x1 * a1
    assert e_ominus(3, x_interval(1, 2), a_prefix(2), n, deg).is_zero()


def test_ominus_argument_validation():
    # the sum stops at k = deg - m only when the left alphabet holds x
    # letters alone and the right one parameters alone: both guards refuse
    # a parameter letter on the left and an x block on the right, for h and e
    xs = x_interval(1, 1)
    for ominus in (h_ominus, e_ominus):
        for left in (a_prefix(1), single(BETA, 1, -1), cat(xs, b_prefix(1))):
            with pytest.raises(ValueError, match="left argument must be "
                               "x-blocks only"):
                ominus(0, left, a_prefix(1), 1, 2)
        for right in (xs, single(X, 1, 1), cat(a_prefix(1), xs)):
            with pytest.raises(ValueError, match="right argument must be "
                               "parameter blocks only"):
                ominus(0, xs, right, 1, 2)


def test_schur_jt_matches_tableau_sum():
    for outer, inner, n in [((2, 1), (), 3), ((2, 2), (), 2),
                            ((3,), (), 2), ((1, 1, 1), (), 3),
                            ((2, 1), (1,), 2), ((2, 2), (1,), 3),
                            ((3, 1), (2,), 2)]:
        deg = sum(outer) + 1
        assert schur_jt(outer, inner, n, deg) == \
            ssyt_sum(outer, inner, n, deg), (outer, inner, n)


def test_schur_jt_vanishes_when_shape_does_not_contain_inner():
    assert schur_jt((1,), (2,), 2, 4).is_zero()
    assert schur_jt((2, 1), (1, 1, 1), 3, 5).is_zero()


def test_schur_jt_empty_partition_is_one():
    assert schur_jt((), (), 2, 3) == one(2, 3)


def test_schur_bialternant_agrees_with_jt():
    for lam, n in [((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 2),
                   ((2, 1), 3), ((3, 1), 2), ((2, 2, 1), 3)]:
        deg = sum(lam)
        assert schur_bialternant(lam, n, deg) == \
            schur_jt(lam, (), n, deg, rows=n), (lam, n)


def test_schur_branching_matches_jt_and_bialternant():
    shapes = list(partitions_up_to(6))
    for n in range(5):
        for lam, got in zip(shapes, schur_branching(shapes, n, 6)):
            assert got == schur_jt(lam, (), n, 6), (lam, n)
            if 1 <= n and len(lam) <= n:
                assert got == schur_bialternant(lam, n, 6), (lam, n)
            # truncation below |lam| leaves nothing
            if lam:
                [low] = schur_branching([lam], n, sum(lam) - 1)
                assert low.is_zero()


def schur_flagged_check(lam, n, deg):
    """det(h_{lam_i - i + j}[X_{n-j+1}]) must also give s_lam(x_n)."""
    matrix = [[h_pleth(part(lam, i) - i + j, x_interval(1, n - j + 1), n, deg)
               for j in range(1, n + 1)] for i in range(1, n + 1)]
    return det(matrix, n=n, deg=deg) == schur_jt(lam, (), n, deg, rows=n)


def test_schur_flagged_variant():
    for lam, n in [((2, 1), 2), ((2, 1), 3), ((3, 2), 3), ((1, 1, 1), 3)]:
        assert schur_flagged_check(lam, n, sum(lam))


def test_vandermonde_alternates():
    v = vandermonde(3, 3)
    assert swap_x(v, 1, 2) == -v
    assert swap_x(v, 2, 3) == -v


def test_schur_expand_roundtrip():
    n, deg = 3, 5
    p = schur_jt((2, 1), (), n, deg)
    assert schur_expand(p) == {(2, 1): one(n, deg)}
    q = schur_jt((1,), (), n, deg) * schur_jt((1,), (), n, deg)
    assert schur_expand(q) == {(2,): one(n, deg), (1, 1): one(n, deg)}


def test_schur_expand_with_parameter_coefficients():
    n, deg = 2, 4
    a1, b1 = av(1, n, deg), bv(1, n, deg)
    p = (one(n, deg) + a1) * schur_jt((2,), (), n, deg) \
        + b1 * b1 * schur_jt((1, 1), (), n, deg) - 3 * one(n, deg)
    got = schur_expand(p)
    assert got == {(2,): one(n, deg) + a1, (1, 1): b1 * b1,
                   (): TruncPoly.const(n, deg, -3)}


def test_schur_expand_rejects_asymmetric_input():
    n, deg = 2, 3
    with pytest.raises(SymmetryError):
        schur_expand(xv(1, n, deg))


def test_schur_expand_max_degree_cut():
    n, deg = 2, 4
    p = schur_jt((1,), (), n, deg) + schur_jt((2, 1), (), n, deg)
    assert schur_expand(p, max_degree=2) == {(1,): one(n, deg)}


def circ(lam, mu, n):
    """The skew shape made by rotating lam 180 degrees and attaching mu to
    its right: (lam1+mu1, ..., lam1+mu_n)/(lam1-lam_n, ..., lam1-lam1)."""
    lam, mu = partition(lam), partition(mu)
    if n < max(len(lam), len(mu)):
        raise ShapeError(f"n={n} shorter than {lam} or {mu}")
    l1 = part(lam, 1)
    outer = tuple(l1 + part(mu, i) for i in range(1, n + 1))
    inner = tuple(l1 - part(lam, n + 1 - i) for i in range(1, n + 1))
    return partition(outer), partition(inner)


def test_circ_fixture():
    outer, inner = circ((3, 1, 0), (4, 2, 2), 3)
    assert outer == (7, 5, 5)
    assert inner == (3, 2)
    assert size(outer) - size(inner) == size((3, 1)) + size((4, 2, 2))


def test_circ_degenerate():
    outer, inner = circ((), (2, 1), 2)
    assert (outer, inner) == ((2, 1), ())
    with pytest.raises(ShapeError):
        circ((1, 1, 1), (1,), 2)


def product_circ_check(lam, mu, n, deg):
    """s_lam(x_n) s_mu(x_n) = s_{lam o mu}(x_n)."""
    outer, inner = circ(lam, mu, n)
    lhs = schur_jt(lam, (), n, deg) * schur_jt(mu, (), n, deg)
    return lhs == schur_jt(outer, inner, n, deg)


def test_product_circ():
    assert product_circ_check((3, 1), (4, 2, 2), 3, 8)
    assert product_circ_check((1,), (1,), 2, 3)
    assert product_circ_check((2, 1), (1, 1), 3, 6)

