from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from grothpoly.ring import (
    ALPHA, BETA, LIMIT, X, ContextMismatch, DivisibilityError, TruncPoly, det,
    exact_divide, pvar,
)
from schur_oracle import swap_x


# Tuple-form monomials, the form TruncPoly decodes to at its boundary: a
# sorted tuple of ((family, index), exponent) pairs.  These helpers are the
# oracles that the packed kernel is compared with.

def mono_mul(m1, m2):
    # monomials are sorted by variable, so merge instead of re-sorting
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_xdeg(mono):
    return sum(e for (fam, _), e in mono if fam == X)


def mono_deg(mono):
    return sum(e for _, e in mono)


def mono_key(mono):
    # graded lexicographic order, largest first: higher total degree, then
    # the higher exponent on the earliest variable (X < ALPHA < BETA, index
    # ascending).  At equal degree neither tuple is a prefix of the other.
    return (-mono_deg(mono), tuple((fam, idx, -e) for (fam, idx), e in mono))


def xv(n, deg, i):
    return TruncPoly.var(n, deg, X, i)


def av(n, deg, i):
    return TruncPoly.var(n, deg, ALPHA, i)


def bv(n, deg, i):
    return TruncPoly.var(n, deg, BETA, i)


def one(n, deg):
    return TruncPoly.const(n, deg, 1)


def random_poly(rng, n, deg, nterms=4, coeff_bound=5):
    p = TruncPoly.zero(n, deg)
    for _ in range(nterms):
        term = one(n, deg)
        for _ in range(rng.randrange(0, 3)):
            fam = rng.choice([X, ALPHA, BETA])
            idx = rng.randrange(1, n + 1) if fam == X else rng.randrange(1, 4)
            term = term * TruncPoly.var(n, deg, fam, idx)
        c = rng.randrange(-coeff_bound, coeff_bound + 1)
        p = p + c * term
    return p


def naive_det(matrix, n, deg):
    size = len(matrix)
    acc = TruncPoly.zero(n, deg)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = TruncPoly.const(n, deg, sign)
        for i in range(size):
            term = term * matrix[i][perm[i]]
        acc = acc + term
    return acc


def mono_cmp(m1, m2):
    # graded lexicographic: total degree first, then higher exponent on the
    # earliest variable (X < ALPHA < BETA, index ascending) wins
    d1, d2 = mono_deg(m1), mono_deg(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif v1 < v2:
            return 1
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


def product_specialize(p, image):
    """Substitution by ring products: each term becomes its coefficient
    times the product of its variables' images."""
    result = TruncPoly.zero(p.n, p.deg)
    for mono, c in p.monomials():
        term = TruncPoly.const(p.n, p.deg, c)
        for var, e in mono:
            sub = None if var[0] == X else image(var)
            if sub is None:
                val = TruncPoly.var(p.n, p.deg, *var)
            elif sub[1] is None:
                val = TruncPoly.const(p.n, p.deg, sub[0])
            else:
                val = sub[0] * TruncPoly.var(p.n, p.deg, *sub[1])
            term = term * val ** e
        result = result + term
    return result


def test_difference_of_squares():
    n, deg = 2, 4
    x1, x2 = xv(n, deg, 1), xv(n, deg, 2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_truncation_kills_high_degree():
    x1 = xv(1, 1, 1)
    assert (x1 * x1).is_zero()


def test_geometric_series_inverse():
    # (1 - b1*x1) * sum_k b1^k x1^k == 1 up to the truncation degree
    n, deg = 1, 6
    x1, b1 = xv(n, deg, 1), bv(n, deg, 1)
    geo = TruncPoly.zero(n, deg)
    for k in range(deg + 1):
        geo = geo + (b1 ** k) * (x1 ** k)
    assert (one(n, deg) - b1 * x1) * geo == one(n, deg)


def test_var_exponents():
    n, deg = 2, 3
    for fam, idx in [(X, 1), (ALPHA, 2), (BETA, 1)]:
        assert TruncPoly.var(n, deg, fam, idx, 0) == one(n, deg)
        v = TruncPoly.var(n, deg, fam, idx)
        for e in range(1, deg + 2):
            assert TruncPoly.var(n, deg, fam, idx, e) == v ** e
        with pytest.raises(ValueError):
            TruncPoly.var(n, deg, fam, idx, -1)
    # parameter degrees are not truncated, x-degrees are
    assert list(TruncPoly.var(n, deg, BETA, 1, deg + 1).monomials()) == \
        [((((BETA, 1), deg + 1),), 1)]
    assert TruncPoly.var(n, deg, X, 2, deg + 1).is_zero()


def test_pow_refuses_a_negative_exponent():
    # like var: a negative power is no polynomial, never the constant 1
    n, deg = 2, 3
    p = xv(n, deg, 1) + 1
    assert p ** 0 == one(n, deg)
    assert p ** 2 == p * p
    with pytest.raises(ValueError, match="exponent must be >= 0"):
        p ** -1


def test_pvar_vanishes_outside_the_variables():
    # alpha_m = beta_m = 0 for m <= 0, and x_l = 0 for l > n
    n, deg = 2, 3
    for fam in (X, ALPHA, BETA):
        assert pvar(n, deg, fam, 0).is_zero()
        assert pvar(n, deg, fam, 1) == TruncPoly.var(n, deg, fam, 1)
    assert pvar(n, deg, X, n) == TruncPoly.var(n, deg, X, n)
    assert pvar(n, deg, X, n + 1).is_zero()
    assert pvar(n, deg, ALPHA, n + 1) == TruncPoly.var(n, deg, ALPHA, n + 1)


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatch):
        xv(1, 2, 1) + xv(2, 2, 1)
    with pytest.raises(ContextMismatch):
        xv(1, 2, 1) * xv(1, 3, 1)
    with pytest.raises(ContextMismatch):
        TruncPoly.var(2, 4, X, 3)


small_polys = st.integers(min_value=0, max_value=2 ** 20)


def poly_from_seed(seed, n=2, deg=3):
    return random_poly(random.Random(seed), n, deg)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(sa, sb, sc):
    p, q, r = poly_from_seed(sa), poly_from_seed(sb), poly_from_seed(sc)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == TruncPoly.zero(p.n, p.deg)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_truncation_coherence(sa, sb):
    # computing at a larger bound and truncating equals computing small
    hi_p, hi_q = poly_from_seed(sa, deg=6), poly_from_seed(sb, deg=6)
    lo_p, lo_q = hi_p.truncate(3), hi_q.truncate(3)
    assert (hi_p * hi_q).truncate(3) == lo_p * lo_q
    assert (hi_p + hi_q).truncate(3) == lo_p + lo_q


def test_det_small_cases():
    n, deg = 2, 4
    assert det([], n, deg) == one(n, deg)
    x1, x2 = xv(n, deg, 1), xv(n, deg, 2)
    assert det([[x1 - av(n, deg, 1)]], n, deg) == x1 - av(n, deg, 1)
    assert det([[x1, x2], [x2, x1]], n, deg) == x1 * x1 - x2 * x2


def test_det_zero_column_gives_zero_in_context():
    # every term of the expansion along the zero column is skipped, so the
    # zero comes from the context passed in, not from an entry
    n, deg = 3, 2
    x1, x2, zero = xv(n, deg, 1), xv(n, deg, 2), TruncPoly.zero(n, deg)
    assert det([[x1, zero], [x2, zero]], n, deg) == zero
    # a proper minor on rows 0, 1, inside a nonzero determinant
    m = [[x1, zero, one(n, deg)], [x2, zero, zero], [x2, x1, one(n, deg)]]
    assert det(m, n, deg) == naive_det(m, n, deg) == x1 * x2


def test_det_refuses_entries_outside_its_context():
    # a 1x1 matrix returns its entry, so it is checked like every entry of a
    # larger one; a zero minor is skipped only after its term is checked
    n, deg = 2, 4
    other = xv(3, 2, 1)
    for entry in (other, TruncPoly.zero(3, 2), xv(n, deg + 1, 1)):
        with pytest.raises(ContextMismatch):
            det([[entry]], n, deg)
    zero, x1 = TruncPoly.zero(n, deg), xv(n, deg, 1)
    for m in ([[x1, other], [zero, x1]], [[x1, x1], [TruncPoly.zero(3, 2), x1]]):
        with pytest.raises(ContextMismatch):
            det(m, n, deg)


def _sparse_matrices(rng, n, deg):
    """Square matrices of order 1..5 with mostly zero entries: random
    patterns, a zero row or column at each position, and a zero block of k
    rows by size + 1 - k columns, which forces det = 0 (Frobenius-Konig)."""
    def entry():
        return random_poly(rng, n, deg, nterms=rng.choice([1, 1, 2]))

    zero = TruncPoly.zero(n, deg)
    for size in range(1, 6):
        for density in (0.3, 0.6):
            for _ in range(4):
                yield [[entry() if rng.random() < density else zero
                        for _ in range(size)] for _ in range(size)]
        for at in range(size):
            m = [[entry() for _ in range(size)] for _ in range(size)]
            yield [row if i != at else [zero] * size
                   for i, row in enumerate(m)]
            yield [[zero if j == at else e for j, e in enumerate(row)]
                   for row in m]
        for k in range(1, size + 1):
            rows = rng.sample(range(size), k)
            cols = set(rng.sample(range(size), size + 1 - k))
            yield [[zero if i in rows and j in cols else entry()
                    for j in range(size)] for i in range(size)]


def test_det_matches_permutation_sum_on_sparse_matrices():
    # zero entries and zero minors are skipped; with or without a caller
    # memo, and on a second call that reads the memo, the value must not move
    rng = random.Random(26)
    n, deg = 2, 4
    zeros = 0
    for m in _sparse_matrices(rng, n, deg):
        want = naive_det(m, n, deg)
        memo = {}
        assert det(m, n, deg) == want, m
        assert det(m, n, deg, memo, lambda rows: rows) == want, m
        assert det(m, n, deg, memo, lambda rows: rows) == want, m
        assert det(m, n, deg, {}) == want, m
        zeros += want.is_zero()
    assert zeros > 20


def test_det_shares_minors_through_a_caller_memo():
    # two matrices with the same leading columns: with a key on the rows
    # alone, the second call finds every proper minor in the memo
    rng = random.Random(11)
    n, deg = 2, 4
    lead = [[random_poly(rng, n, deg, nterms=2) for _ in range(3)]
            for _ in range(4)]
    a, b = ([row + [random_poly(rng, n, deg, nterms=2)] for row in lead]
            for _ in range(2))
    memo = {}
    assert det(a, n, deg, memo, lambda rows: rows) == det(a, n, deg)
    assert memo and max(len(rows) for rows in memo) == 3
    stored = dict(memo)
    assert det(b, n, deg, memo, lambda rows: rows) == det(b, n, deg)
    assert memo == stored
    assert det(b, n, deg) == naive_det(b, n, deg)


def test_det_non_square_rejected():
    n, deg = 1, 2
    with pytest.raises(ValueError):
        det([[one(n, deg), one(n, deg)]], n, deg)


def test_det_matches_permutation_sum():
    rng = random.Random(7)
    n, deg = 2, 4
    for size in range(1, 5):
        for _ in range(3):
            m = [[random_poly(rng, n, deg, nterms=2) for _ in range(size)]
                 for _ in range(size)]
            assert det(m, n, deg) == naive_det(m, n, deg)


def test_exact_divide_trivial():
    n, deg = 2, 4
    x1, x2 = xv(n, deg, 1), xv(n, deg, 2)
    assert exact_divide(x1 * x1 - x2 * x2, 1, 2) == x1 + x2
    assert exact_divide(x1 * x1 - x2 * x2, 2, 1) == -x1 - x2


def test_exact_divide_schur_base_case():
    # det(x_j^{lam_i + n - i}) / prod(x_i - x_j) for lam=(1), n=2
    n, deg = 2, 4
    x1, x2 = xv(n, deg, 1), xv(n, deg, 2)
    num = det([[x1 ** 2, x2 ** 2], [one(n, deg), one(n, deg)]], n, deg)
    q = exact_divide(num, 1, 2)
    assert q.truncate(deg - 1) == (x1 + x2).truncate(deg - 1)


def test_exact_divide_refuses_non_divisors():
    # a remainder in x, one in a parameter alone, one mixing both, and one
    # that shows only once x1^2 has carried down to x2^2
    n, deg = 2, 4
    x1, x2 = xv(n, deg, 1), xv(n, deg, 2)
    for num in (x1 + x2, av(n, deg, 1), bv(n, deg, 1) * x2, x1 * x1):
        for i, j in ((1, 2), (2, 1)):
            with pytest.raises(DivisibilityError):
                exact_divide(num, i, j)
    for i, j in ((1, 1), (1, 3), (0, 1)):
        with pytest.raises(ValueError):
            exact_divide(x1, i, j)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys,
       st.sampled_from(list(itertools.permutations((1, 2, 3), 2))))
def test_exact_divide_roundtrip(sa, sb, factor):
    # p reaches x-degree deg, so the product loses its top degrees to the
    # truncation; each x-degree divides on its own, so p comes back below deg
    n, deg = 3, 4
    p = poly_from_seed(sa, n, deg) * poly_from_seed(sb, n, deg)
    i, j = factor
    num = p * (xv(n, deg, i) - xv(n, deg, j))
    assert exact_divide(num, i, j).truncate(deg - 1) == p.truncate(deg - 1)


def test_specialize_basic():
    n, deg = 2, 4
    p = av(n, deg, 1) * xv(n, deg, 1) + bv(n, deg, 2) * xv(n, deg, 2)
    out = p.specialize({(ALPHA, 1): (0, None), (BETA, 2): (1, None)}.get)
    assert out == xv(n, deg, 2)


def test_specialize_to_parameter_and_poly():
    n, deg = 1, 3
    p = av(n, deg, 2) * xv(n, deg, 1)
    assert (p.specialize(lambda var: (1, (ALPHA, 1)))
            == av(n, deg, 1) * xv(n, deg, 1))
    assert (p.specialize(lambda var: (-1, (BETA, 1)))
            == -(bv(n, deg, 1) * xv(n, deg, 1)))


def test_specialize_asks_once_per_parameter_and_never_for_x():
    n, deg = 2, 4
    p = (av(n, deg, 1) * xv(n, deg, 1) + av(n, deg, 1) * bv(n, deg, 2)
         + bv(n, deg, 2) * xv(n, deg, 2) ** 2 + xv(n, deg, 1))
    asked = []

    def image(var):
        asked.append(var)
        return None

    assert p.specialize(image) == p
    assert sorted(asked) == [(ALPHA, 1), (BETA, 2)]


def specialize_values(rng):
    """Random rule images of every form: keep, a constant, or a multiple of
    a parameter variable."""
    target = (rng.choice([ALPHA, BETA]), rng.randrange(1, 4))
    c = rng.choice([-3, 2, 5])
    return [None, (0, None), (1, None), (-1, None), (c, None),
            (1, target), (-1, target), (c, target), (0, target)]


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_specialize_matches_ring_products(seed):
    rng = random.Random(seed)
    n, deg = 2, 3
    p = random_poly(rng, n, deg, nterms=6)
    params = [(fam, idx) for fam in (ALPHA, BETA) for idx in range(1, 4)]
    rule = {}
    for var in rng.sample(params, rng.randrange(1, len(params) + 1)):
        rule[var] = rng.choice(specialize_values(rng))
    assert p.specialize(rule.get) == product_specialize(p, rule.get)


def test_restrict_and_shift():
    n, deg = 3, 3
    p = xv(n, deg, 1) + xv(n, deg, 3)
    assert p.restrict_n(2) == xv(2, deg, 1).with_n(2)
    shifted = xv(1, deg, 1).shift_x(2, 3)
    assert shifted == xv(3, deg, 3)
    with pytest.raises(ContextMismatch):
        p.with_n(2)
    with pytest.raises(ContextMismatch):
        p.shift_x(1, 3)
    # parameter fields stay where they are
    q = xv(n, deg, 2) * av(n, deg, 12) + xv(n, deg, 3) * bv(n, deg, 1)
    assert q.shift_x(2, 5) == \
        xv(5, deg, 4) * av(5, deg, 12) + xv(5, deg, 5) * bv(5, deg, 1)
    assert q.restrict_n(2) == xv(2, deg, 2) * av(2, deg, 12)


def test_swap_x_symmetry_probe():
    n, deg = 2, 3
    sym = xv(n, deg, 1) + xv(n, deg, 2)
    asym = xv(n, deg, 1) - xv(n, deg, 2)
    assert swap_x(sym, 1, 2) == sym
    assert swap_x(asym, 1, 2) != asym


def test_mono_cmp_order():
    # graded first, then x1 beats x2, x beats alpha beats beta
    m_x1 = (((X, 1), 1),)
    m_x2 = (((X, 2), 1),)
    m_a1 = (((ALPHA, 1), 1),)
    m_b1 = (((BETA, 1), 1),)
    m_x1x1 = (((X, 1), 2),)
    assert mono_cmp(m_x1x1, m_x1) > 0
    assert mono_cmp(m_x1, m_x2) > 0
    assert mono_cmp(m_x2, m_a1) > 0
    assert mono_cmp(m_a1, m_b1) > 0
    assert mono_cmp(m_x1, m_x1) == 0


def random_mono(rng):
    exps = {}
    for _ in range(rng.randrange(0, 5)):
        var = (rng.choice([X, ALPHA, BETA]), rng.randrange(1, 4))
        exps[var] = exps.get(var, 0) + 1
    return tuple(sorted(exps.items()))


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_mono_key_orders_like_mono_cmp(seed):
    # mono_key sorts largest first, so it reverses mono_cmp
    rng = random.Random(seed)
    for _ in range(20):
        m1, m2 = random_mono(rng), random_mono(rng)
        k1, k2 = mono_key(m1), mono_key(m2)
        want = mono_cmp(m1, m2)
        assert (k1 < k2) == (want > 0)
        assert (k1 == k2) == (want == 0)


# The packed kernel against the tuple oracles.  Parameter indices past 10
# put fields far above the x-degree field.
ORACLE_VARS = [(X, 1), (X, 2), (X, 3), (ALPHA, 1), (ALPHA, 11), (BETA, 2),
               (BETA, 12)]
tuple_monos = st.dictionaries(
    st.sampled_from(ORACLE_VARS), st.integers(1, 3), max_size=3,
).map(lambda exps: tuple(sorted(exps.items())))
tuple_polys = st.dictionaries(tuple_monos, st.sampled_from([-2, -1, 1, 3]),
                              max_size=6)


def oracle_product(a, b, deg):
    """The product of two {mono: c} dicts by tuple merges, truncated at
    x-degree deg."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            if mono_xdeg(m) <= deg:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(max_examples=100, deadline=None)
@given(tuple_polys, tuple_polys)
# (x1^2 + b12)(x1^2 - b12): x-degree exactly deg, and the cross terms cancel
@example({(((X, 1), 2),): 1, (((BETA, 12), 1),): 1},
         {(((X, 1), 2),): 1, (((BETA, 12), 1),): -1})
def test_packed_product_matches_tuple_merge(a, b):
    n, deg = 3, 4
    a = {m: c for m, c in a.items() if mono_xdeg(m) <= deg}
    b = {m: c for m, c in b.items() if mono_xdeg(m) <= deg}
    p = TruncPoly.from_monomials(n, deg, a.items())
    q = TruncPoly.from_monomials(n, deg, b.items())
    assert dict(p.monomials()) == a
    want = oracle_product(a, b, deg)
    assert dict((p * q).monomials()) == want
    # the Laplace expansion adds signed products into one accumulator
    square = oracle_product(a, a, deg)
    for m, c in oracle_product(b, b, deg).items():
        square[m] = square.get(m, 0) - c
    assert dict(det([[p, q], [q, p]], n, deg).monomials()) == \
        {m: c for m, c in square.items() if c}
    rule = {(ALPHA, 11): (-1, (BETA, 12)), (BETA, 2): (2, None)}.get
    assert p.specialize(rule) == product_specialize(p, rule)


def test_product_past_the_field_width_raises():
    n, deg = 1, 3
    top = LIMIT - deg  # the largest parameter degree the context holds
    b1 = TruncPoly.var(n, deg, BETA, 1, top)
    assert list((b1 * xv(n, deg, 1)).monomials()) == \
        [((((X, 1), 1), ((BETA, 1), top)), 1)]
    half = TruncPoly.var(n, deg, BETA, 1, top // 2)
    assert list((half * half * bv(n, deg, 1) ** (top % 2)).monomials()) == \
        [((((BETA, 1), top),), 1)]
    with pytest.raises(OverflowError):
        b1 * av(n, deg, 1)
    with pytest.raises(OverflowError):
        TruncPoly.var(n, deg, ALPHA, 2, top + 1)
    with pytest.raises(OverflowError):
        det([[b1, one(n, deg)], [one(n, deg), av(n, deg, 1)]], n, deg)
    with pytest.raises(OverflowError):
        TruncPoly.const(n, LIMIT + 1, 1)


def test_monomials_round_trip_and_coeff():
    n, deg = 2, 3
    items = {(((X, 1), 2), ((ALPHA, 11), 1)): 3,
             (((X, 2), 1), ((BETA, 1), 1), ((BETA, 12), 2)): -1,
             (): 5}
    p = TruncPoly.from_monomials(n, deg, items.items())
    assert dict(p.monomials()) == items
    assert TruncPoly.from_monomials(n, deg, p.monomials()) == p
    # coeff reads a monomial given in any factor order
    assert p.coeff((((BETA, 12), 2), ((X, 2), 1), ((BETA, 1), 1))) == -1
    assert p.coeff((((ALPHA, 11), 1), ((X, 1), 2))) == 3
    assert p.coeff(()) == 5
    assert p.coeff((((X, 1), 1),)) == 0
    # the constructor truncates, and keeps x inside the context
    assert TruncPoly.from_monomials(n, deg, [((((X, 1), 4),), 1)]).is_zero()
    with pytest.raises(ContextMismatch):
        TruncPoly.from_monomials(n, deg, [((((X, 3), 1),), 1)])
