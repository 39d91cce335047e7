"""Determinantal formulas for canonical Grothendieck polynomials and duals.

Everything is computed inside TruncPoly: x-degrees are truncated at deg,
parameter degrees are exact.  G-type formulas use circle-minus entries
h_m[X (-) Y] so that all values stay polynomial.  Each series in the
parameters is such an evaluation too, with Y one (scaled) letter: the row
prefactor prod_l (1 - b_i x_l) is e_0[X (-) -b_i], the column prefactor
prod_l 1/(1 - a_i x_l) is h_0[X (-) a_i], truncated at deg.

Four flagged determinants share one direct builder (_flag_value) and one
sweep (FlagSweep), each an entry rule of _FLAG_ENTRY: G, the dual g, the
marked dual (g entries that see a mark set) and Matsumura's single-parameter
M.  G and M carry the row factor F_i = f_0[X_[r_i,s_i] (-) Y_i].

Conventions shared by all functions:
  - A_k = alpha_1 + ... + alpha_k and B_k = beta_1 + ... + beta_k as signed
    alphabets, empty for k <= 0.
  - Column ("col") determinants compute the polynomial attached to the
    conjugate shape outer'/inner'; the arguments stay unconjugated.
  - Flag hypothesis violations emit a warning but the determinant is still
    evaluated, since those values are meaningful counterexample data.
"""

import functools
import warnings

from .ring import ALPHA, BETA, X, InternalCheckError, TruncPoly, det
from .shapes import (CACHE_SIZE, ShapeError, check_orientation, contains,
                     flag_class, flag_vectors, marked_shape, minimal_cell,
                     part, partition, partitions_above, partitions_between,
                     partitions_of, read_flags, size, skew, strip)
from .symfunc import (a_prefix, alternant_quotient, b_prefix, cat, e_ominus,
                      e_pleth, h_ominus, h_pleth, neg, schur_branching,
                      schur_jt, single, x_interval)


def _one(n, deg):
    return TruncPoly.const(n, deg, 1)


def _fit(lam, n):
    """lam as a partition; it must fit in n rows."""
    lam = partition(lam)
    if len(lam) > n:
        raise ShapeError(f"shape {lam} does not fit in {n} rows")
    return lam


@functools.lru_cache(maxsize=CACHE_SIZE)
def _row_factor(kind, orientation, i, lo, hi, n, deg):
    """The row factor F_i, a product over l in [lo, min(hi, n)]: of
    (1 - b_i x_l) for row G, 1/(1 - a_i x_l) for column G, (1 + b_1 x_l) for
    M, where b_i becomes -b_1, and for kind "omega" 1/(1 + b_i x_l), the
    omega image of the row G factor.  For one letter z, e_0[X (-) -z] =
    prod_l (1 - z x_l) and h_0[X (-) z] = prod_l 1/(1 - z x_l).  Values are
    memoized in one bounded LRU per process (CACHE_SIZE)."""
    xs = x_interval(lo, hi)
    if orientation == "col":
        return h_ominus(0, xs, single(ALPHA, i, 1), n, deg)
    if kind == "omega":
        return h_ominus(0, xs, single(BETA, i, -1), n, deg)
    return e_ominus(0, xs, neg(_MINUS_B1 if kind == "M"
                               else single(BETA, i, 1)), n, deg)


def _row_prefactor(kind, orientation, rows, n, deg):
    """prod over rows (i, lo, hi) of the row factor F_i (_row_factor)."""
    out = _one(n, deg)
    for i, lo, hi in rows:
        out = out * _row_factor(kind, orientation, i, lo, hi, n, deg)
    return out


# Alphabets A_{lam_i} - B_{i-1} (G side) and -A_{lam_i-1} + B_{i-1} (g side).

def _g_right(k, i):
    return cat(a_prefix(k), neg(b_prefix(i - 1)))


def _dual_shift(k, i):
    return cat(neg(a_prefix(k - 1)), b_prefix(i - 1))


def G_bialternant(lam, n, deg):
    """det(h_{lam_i+n-i}[x_j (-) (A_{lam_i} - B_{i-1})]) over the Vandermonde
    determinant, with an n(n-1)/2 degree guard on the numerator."""
    lam = _fit(lam, n)
    return alternant_quotient(
        lambda i, j, work: h_ominus(part(lam, i) + n - i, single(X, j, 1),
                                    _g_right(part(lam, i), i), n, work),
        n, deg)


def g_bialternant(lam, n, deg):
    """det(h_{lam_i+n-i}[x_j - A_{lam_i-1} + B_{i-1}]) over the Vandermonde
    determinant."""
    lam = _fit(lam, n)
    return alternant_quotient(
        lambda i, j, work: h_pleth(part(lam, i) + n - i,
                                   cat(single(X, j, 1),
                                       _dual_shift(part(lam, i), i)),
                                   n, work),
        n, deg)


def G_jt(lam, n, deg):
    """det(h_{lam_i-i+j}[X_n (-) (A_{lam_i} - B_{i-1})]) of size n."""
    lam = _fit(lam, n)
    xs = x_interval(1, n)
    matrix = [[h_ominus(part(lam, i) - i + j, xs,
                        _g_right(part(lam, i), i), n, deg)
               for j in range(1, n + 1)] for i in range(1, n + 1)]
    return det(matrix, n=n, deg=deg)


def g_jt(lam, n, deg):
    """det(h_{lam_i-i+j}[X_n - A_{lam_i-1} + B_{i-1}]) of size n."""
    lam = _fit(lam, n)
    xs = x_interval(1, n)
    matrix = [[h_pleth(part(lam, i) - i + j,
                       cat(xs, _dual_shift(part(lam, i), i)), n, deg)
               for j in range(1, n + 1)] for i in range(1, n + 1)]
    return det(matrix, n=n, deg=deg)


def G_jt_modified(lam, n, deg):
    """prod_{i,j<=n}(1 - b_i x_j) times the determinant with column-shifted
    entries h_{lam_i-i+j}[X_n (-) (A_{lam_i} - B_{i-1} + B_j)], of size n.
    Entry for entry this is the row-flagged determinant with empty inner
    shape and flags r = (1, ..., 1), s = (n, ..., n), evaluated as such."""
    lam = _fit(lam, n)
    return G_flagged_det(lam, (), (1,) * n, (n,) * n, "row", n, deg)


def g_jt_modified(lam, n, deg):
    """det(h_{lam_i-i+j}[X_n - A_{lam_i-1} + B_{i-1} - B_{j-1}]) of size n;
    the column shift removes the need for any prefactor.  As for G, this is
    the row-flagged determinant at r = (1, ..., 1), s = (n, ..., n)."""
    lam = _fit(lam, n)
    return g_flagged_det(lam, (), (1,) * n, (n,) * n, "row", n, deg)


def C_coeff(lam, mu, n, deg):
    """Coefficient of s_mu in the Schur expansion of G_lam:
    det(h_{mu_i-lam_j-i+j}[A_{lam_j} - B_{j-1}]); zero unless lam <= mu."""
    return _coeff_det("C", partition(lam), partition(mu), n, deg)


def c_coeff(lam, mu, n, deg):
    """Coefficient of s_mu in the Schur expansion of g_lam:
    det(h_{lam_i-mu_j-i+j}[-A_{lam_i-1} + B_{i-1}]); zero unless mu <= lam."""
    return _coeff_det("c", partition(lam), partition(mu), n, deg)


def coefficient_table(coeff, keys):
    """{key: coeff(key)} over keys, called in their order, without the zero
    coefficients: the one table of the Schur expansions of G and g, their
    inverses and the skew expansion's factor families."""
    return {key: coef for key in keys if not (coef := coeff(key)).is_zero()}


def _schur_sum(coeff, lam, shapes, n, deg):
    """sum of coeff(lam, mu) s_mu(x_n) over the mu in shapes."""
    table = coefficient_table(lambda mu: coeff(lam, mu, n, deg), shapes)
    acc = TruncPoly.zero(n, deg)
    for coef, s_mu in zip(table.values(),
                          schur_branching(list(table), n, deg)):
        acc = acc + coef * s_mu
    return acc


def G_schur(lam, n, deg):
    """Schur expansion G_lam = sum_{mu >= lam} C_{lam,mu} s_mu(x_n),
    truncated at |mu| <= deg."""
    lam = _fit(lam, n)
    return _schur_sum(C_coeff, lam, partitions_above(lam, deg, max_len=n),
                      n, deg)


def g_schur(lam, n, deg):
    """Schur expansion g_lam = sum_{mu <= lam} c_{lam,mu} s_mu(x_n),
    truncated at |mu| <= deg."""
    lam = _fit(lam, n)
    return _schur_sum(c_coeff, lam, [mu for mu in partitions_between((), lam)
                                     if size(mu) <= deg], n, deg)


def hall_pairing(lam, mu, n, deg):
    """<G_lam, g_mu> computed two ways: the finite sum over lam <= nu <= mu
    of C_{lam,nu} c_{mu,nu}, and the closed determinant
    det(h_{mu_i-lam_j-i+j}[A_{lam_j} - B_{j-1} - A_{mu_i-1} + B_{i-1}]).
    Both must agree (else InternalCheckError); the value is delta_{lam,mu}."""
    lam, mu = partition(lam), partition(mu)
    total = TruncPoly.zero(n, deg)
    for nu in partitions_between(lam, mu):
        total = total + (_coeff_det("C", lam, nu, n, deg)
                         * _coeff_det("c", mu, nu, n, deg))
    m = max(len(lam), len(mu))
    matrix = [[h_pleth(part(mu, i) - part(lam, j) - i + j,
                       cat(_g_right(part(lam, j), j),
                           _dual_shift(part(mu, i), i)), n, deg)
               for j in range(1, m + 1)] for i in range(1, m + 1)]
    closed = det(matrix, n=n, deg=deg)
    if total != closed:
        raise InternalCheckError(
            f"pairing sum and determinant disagree for {lam}, {mu}")
    return total


def cauchy_check(n_x, n_y, bound):
    """prod_{i,j} 1/(1 - x_i y_j) = sum_lam G_lam(x) g_lam(y) with the
    y-alphabet realized as x_{n_x+1}..x_{n_x+n_y}, compared on all bidegrees
    (d_x, d_y) with d_x, d_y <= bound.  Every kernel term has d_x = d_y, so
    the kernel truncated at total degree 2 bound is its part in that box.
    Every term of G_lam(x) g_lam(y) has d_x >= |lam| >= d_y, so the sum
    runs over |lam| <= bound, and with G_lam truncated at x-degree bound
    each of its terms lies in the box: the two sides compare directly."""
    n = n_x + n_y
    deg = 2 * bound
    ys = x_interval(n_x + 1, n)
    lhs = _one(n, deg)
    for i in range(1, n_x + 1):
        kernel = TruncPoly.zero(n, deg)
        for k in range(bound + 1):
            kernel = kernel + (h_pleth(k, ys, n, deg)
                               * TruncPoly.var(n, deg, X, i, k))
        lhs = lhs * kernel
    rhs = TruncPoly.zero(n, deg)
    for k in range(bound + 1):
        for lam in partitions_of(k, max_len=n_x):
            gx = G_jt(lam, n_x, bound).truncate(deg).with_n(n)
            rows = max(n_y, len(lam))
            gy = g_jt(lam, rows, deg).restrict_n(n_y).shift_x(n_x, n)
            rhs = rhs + gx * gy
    return lhs == rhs


def schur_in_grothendieck(lam, basis, budget, n, deg):
    """Expansion of s_lam in the G or g basis: s_lam = sum c_{mu,lam} G_mu
    over mu >= lam (truncated to |mu| <= budget) or sum C_{mu,lam} g_mu over
    mu <= lam (finite).  Returns {mu: parameter coefficient}."""
    lam = partition(lam)
    if basis == "G":
        return coefficient_table(lambda mu: c_coeff(mu, lam, n, deg),
                                 partitions_above(lam, budget))
    if basis == "g":
        return coefficient_table(lambda mu: C_coeff(mu, lam, n, deg),
                                 partitions_between((), lam))
    raise ShapeError(f"unknown basis {basis!r}")


def row_monotone(lam, mu, r, s):
    """Row-flag hypothesis: r_i <= r_{i+1} and s_i <= s_{i+1} wherever
    mu_i < lam_{i+1}."""
    for i in range(1, len(r)):
        if part(mu, i) < part(lam, i + 1):
            if r[i - 1] > r[i] or s[i - 1] > s[i]:
                return False
    return True


def col_monotone(lam, mu, r, s, slack=0):
    """Column-flag hypothesis for G: r_i - mu_i <= r_{i+1} - mu_{i+1} and
    s_i - lam_i <= s_{i+1} - lam_{i+1} + 1 wherever mu_i < lam_{i+1}.  slack
    loosens the lower-flag condition for the weakened variant."""
    for i in range(1, len(r)):
        if part(mu, i) < part(lam, i + 1):
            if r[i - 1] - part(mu, i) > r[i] - part(mu, i + 1) + slack:
                return False
            if s[i - 1] - part(lam, i) > s[i] - part(lam, i + 1) + 1:
                return False
    return True


def _warn_hypotheses(ok, label, stacklevel=3):
    if not ok:
        warnings.warn(f"{label} flag hypotheses violated; "
                      "evaluating the determinant anyway",
                      stacklevel=stacklevel)


# The letter -b_1 of Matsumura's single-parameter series.
_MINUS_B1 = single(BETA, 1, -1)


def _binomial_shift(t):
    """Y with sum_m h_m[Y] u^m = (1 + b_1 u)^t, i.e. h_m[Y] = C(t, m) b_1^m
    for any integer t: |t| letters -b_1, negated when t >= 0."""
    letters = _MINUS_B1 * abs(t)
    return neg(letters) if t >= 0 else letters


# Flagged entry (i, j) is f_{lam_i-mu_j-i+j}, with f = h for row flags and
# f = e for column flags, of X_[r_j,s_i] (-) P for G and M and of
# X_[r_j,s_i] + P for g.  The parameter alphabet P is given by
# (lam_i, mu_j, i, j).

_FLAG_ENTRY = {
    ("G", "row"): lambda li, mj, i, j: cat(a_prefix(li), neg(a_prefix(mj)),
                                           neg(b_prefix(i - 1)),
                                           b_prefix(j)),
    ("G", "col"): lambda li, mj, i, j: cat(a_prefix(i - 1),
                                           neg(a_prefix(j)),
                                           neg(b_prefix(li)), b_prefix(mj)),
    ("g", "row"): lambda li, mj, i, j: cat(neg(a_prefix(li - 1)),
                                           a_prefix(mj), b_prefix(i - 1),
                                           neg(b_prefix(j - 1))),
    ("g", "col"): lambda li, mj, i, j: cat(neg(a_prefix(i - 1)),
                                           a_prefix(j - 1),
                                           b_prefix(li - 1),
                                           neg(b_prefix(mj))),
    ("M", "row"): lambda li, mj, i, j: _binomial_shift(i - j - 1),
}


def _flag_entry(kind, orientation, lam, mu, i, j, rj, si, n, deg, marks=None):
    """Entry (i, j) of the flagged determinant.  With a mark set I (the
    marked dual) the entry is 0 when r_j > s_i, and P sees lam_i + [i in I]
    in place of lam_i."""
    shift = 0
    if marks is not None:
        if rj > si:
            return TruncPoly.zero(n, deg)
        shift = i in marks
    m = part(lam, i) - part(mu, j) - i + j
    params = _FLAG_ENTRY[kind, orientation](part(lam, i) + shift,
                                            part(mu, j), i, j)
    xs = x_interval(rj, si)
    if kind == "g":
        pleth = h_pleth if orientation == "row" else e_pleth
        return pleth(m, cat(xs, params), n, deg)
    ominus = h_ominus if orientation == "row" else e_ominus
    return ominus(m, xs, params, n, deg)


def _flag_value(kind, orientation, lam, mu, r, s, n, deg, marks=None):
    """The flagged determinant of size len(r) on checked arguments, times
    the row prefactor prod_i F_i for G and M."""
    m = len(r)
    matrix = [[_flag_entry(kind, orientation, lam, mu, i, j, r[j - 1],
                           s[i - 1], n, deg, marks)
               for j in range(1, m + 1)] for i in range(1, m + 1)]
    value = det(matrix, n=n, deg=deg)
    if kind == "g":
        return value
    return _row_prefactor(kind, orientation, [(i, r[i - 1], s[i - 1])
                                              for i in range(1, m + 1)],
                          n, deg) * value


def _flagged_det(kind, outer, inner, r, s, orientation, n, deg):
    check_orientation(orientation)
    lam, mu = partition(outer), partition(inner)
    r, s = flag_vectors(r, s, max(len(lam), len(mu)))
    # the hypothesis reads the flags as n variables do; the value takes the
    # raw flags, the reference the flag sweeps are tested against
    monotone = col_monotone if (kind, orientation) == ("G", "col") \
        else row_monotone
    _warn_hypotheses((kind == "g" or contains(mu, lam))
                     and monotone(lam, mu, *flag_class(r, s, n)),
                     f"{orientation} {kind}", stacklevel=4)
    return _flag_value(kind, orientation, lam, mu, r, s, n, deg)


def G_flagged_det(outer, inner, r, s, orientation, n, deg):
    """Flagged Jacobi-Trudi determinant for G, size len(r).

    row: prod_i prod_{l=r_i}^{s_i}(1 - b_i x_l) times
         det(h_{lam_i-mu_j-i+j}[X_[r_j,s_i] (-) (A_lam_i - A_mu_j - B_{i-1} + B_j)]).
    col: the row-flagged value of the conjugate shape outer'/inner', namely
         prod_i prod_l geom(a_i x_l) times
         det(e_{lam_i-mu_j-i+j}[X_[r_j,s_i] (-) (A_{i-1} - A_j - B_lam_i + B_mu_j)]).
    """
    return _flagged_det("G", outer, inner, r, s, orientation, n, deg)


def g_flagged_det(outer, inner, r, s, orientation, n, deg):
    """Flagged Jacobi-Trudi determinant for g, size len(r); no prefactor.

    row: det(h_{lam_i-mu_j-i+j}[X_[r_j,s_i] - A_{lam_i-1} + A_mu_j + B_{i-1} - B_{j-1}]).
    col: det(e_{lam_i-mu_j-i+j}[X_[r_j,s_i] - A_{i-1} + A_{j-1} + B_{lam_i-1} - B_mu_j])
         for the conjugate shape outer'/inner'.

    Unlike the G version there is no containment hypothesis.
    """
    return _flagged_det("g", outer, inner, r, s, orientation, n, deg)


class FlagSweep:
    """Evaluates a flagged determinant for many flag vectors of one shape
    pair, sharing matrix rows and column-prefix minors across calls.
    Kinds G and g (row or col), the marked g (kind g, row, with a mark set)
    and M (row only): value(r, s) equals G_flagged_det / g_flagged_det for
    the same arguments, g_marked_det with a mark set, and for M, with flags
    of length len(outer), matsumura_det.  Hypothesis checking is left to
    the caller.

    Entry (i, j) depends on the flags only through (r_j, s_i), and because
    x variables beyond n vanish, only through their shapes.flag_class.
    The row prefactor of G and M is folded into the rows, det(diag(F) M) =
    prod F_i det M, with F_i = _row_factor(i, r_i, s_i), so rows are stored
    scaled.  Row i therefore depends on (i, s_i) and the whole capped
    lower-flag vector r, and a minor on the k rows R, which reads the
    columns 1..k, on r_1..r_k and the flags of R.  The rows and the minors
    are kept for the r of the last call only, keyed by (i, s_i) and by (R,
    the flags of R): a call with a new r drops the rows and every minor on
    more rows than the common prefix of the two r.  Fed its pairs with r
    outer, as the suites feed them, a sweep loses no reuse and holds the
    minors of one r-prefix at a time.  value() builds the matrix from len(r)
    cached rows and evaluates it with ring.det, passing the minor memo.  A
    row records when it is built whether every entry is zero, and a matrix
    with a zero row is zero without a call to det.  With a mark set (outer
    may be dented) the shape and the marks are checked once, by
    shapes.marked_shape, and the flags are read as g_marked_det reads them:
    uncapped, an infinite upper flag as n.

    value() reads its flags by shapes.read_flags, which checks and reads
    each vector once per process, so a suite may pass raw or capped flags
    alike.
    """

    def __init__(self, kind, outer, inner, orientation, n, deg, marks=None):
        if (kind, orientation) not in _FLAG_ENTRY:
            raise ShapeError(f"no {orientation!r} flagged determinant of "
                             f"kind {kind!r}")
        self.kind = kind
        if marks is None:
            self.lam, self.mu = partition(outer), partition(inner)
        elif (kind, orientation) != ("g", "row"):
            raise ShapeError("mark sets apply to the row-flagged dual")
        else:
            self.lam, self.mu, marks = marked_shape(outer, inner, marks)
        self.marks = marks
        self.orientation = orientation
        self.n, self.deg = n, deg
        self._entries = {}
        self._scaled = {}
        self._r = ()  # the lower flags the rows and minors were built for
        self._rows = {}
        self._minors = {}

    def _entry(self, i, j, ri, rj, si):
        key = (i, j, rj, si)
        val = self._entries.get(key)
        if val is None:
            val = self._entries[key] = _flag_entry(
                self.kind, self.orientation, self.lam, self.mu, i, j, rj, si,
                self.n, self.deg, self.marks)
        if self.kind == "g" or val.is_zero():
            return val
        key = (i, j, ri, rj, si)
        scaled = self._scaled.get(key)
        if scaled is None:
            scaled = self._scaled[key] = _row_factor(
                self.kind, self.orientation, i, ri, si, self.n, self.deg) * val
        return scaled

    def _row(self, i, r, si):
        # row i for flags (r, s_i), or None when every entry is zero
        key = (i, si)
        row = self._rows.get(key, False)
        if row is False:
            row = [self._entry(i, j, r[i - 1], rj, si)
                   for j, rj in enumerate(r, 1)]
            row = self._rows[key] = row if any(e.terms for e in row) else None
        return row

    def value(self, r, s):
        r, s = read_flags(r, s, max(len(self.lam), len(self.mu)), self.n,
                          self.marks is not None)
        if r != self._r:
            same = [a == b for a, b in zip(r, self._r)] + [False]
            p = same.index(False)  # length of the common prefix
            self._minors = {k: v for k, v in self._minors.items()
                            if len(k[0]) <= p}
            self._rows.clear()
            self._r = r
        matrix = []
        for i, si in enumerate(s, 1):
            row = self._row(i, r, si)
            if row is None:
                return TruncPoly.zero(self.n, self.deg)
            matrix.append(row)
        # a row's entries depend on s_i, and once scaled by F_i on r_i too
        flag_of = (s if self.kind == "g" else tuple(zip(r, s))).__getitem__
        return det(matrix, self.n, self.deg, self._minors,
                   lambda rows: (rows, tuple(map(flag_of, rows))))


def valid_mark_sets(outer):
    """Mark sets compatible with the boundary recursion for a dented shape:
    {1..p} and {1..p} minus the dent row k, for every p >= k whose part still
    equals the dent part.  None repeats: each {1..p} holds k."""
    lam = tuple(outer)
    k, lamk = minimal_cell(lam)
    out = []
    for p in range(k, len(lam) + 1):
        if lamk == 0 or part(lam, p) != lamk:
            break
        out += [frozenset(range(1, p + 1)), frozenset(range(1, p + 1)) - {k}]
    return out or [frozenset()]


def g_marked_det(outer, inner, r, s, mark_set, n, deg):
    """Row-flagged dual determinant with a boundary mark set, size len(r).

    entry(i,j) = 0 when r_j > s_i, else
    h_{lam_i-mu_j-i+j}[X_[r_j,s_i] - A_{lam_i-1+[i in I]} + A_mu_j
                       + B_{i-1} - B_{j-1}].

    outer may be dented; with I empty and an ordinary partition this reduces
    to the row g determinant whenever r <= s componentwise.  The shape and
    the marks, rows of outer, are checked by shapes.marked_shape, and the
    flags, one pair per row of outer at least, are read by shapes.read_flags
    with a mark set's reading: uncapped, an infinite upper flag as n.
    """
    lam, mu, mark_set = marked_shape(outer, inner, mark_set)
    r, s = read_flags(r, s, len(lam), n, marked=True)
    _warn_hypotheses(mark_set in valid_mark_sets(lam)
                     and row_monotone(lam, mu, r, s), "marked g")
    return _flag_value("g", "row", lam, mu, r, s, n, deg, mark_set)


def matsumura_det(lam, mu, r, s, n, deg):
    """Single-parameter flagged determinant: prod_{i<=l(lam)}
    prod_{l=r_i}^{s_i}(1 + b_1 x_l) times det over l(lam) rows of
    sum_m b_1^m C(i-j-1, m) h_{lam_i-mu_j-i+j+m}[X_[r_j,s_i]], which is
    h_{lam_i-mu_j-i+j}[X_[r_j,s_i] (-) _binomial_shift(i-j-1)]: the
    flagged kind M.  Matsumura's flags f and g are s and r."""
    lam, mu = skew(lam, mu)
    ell = len(lam)
    r, s = flag_vectors(r, s, ell)
    return _flag_value("M", "row", lam, mu, r[:ell], s[:ell], n, deg)


# Skew Schur expansions.  The eight coefficient determinants are named after
# their standard letters; primed letters take (rho, mu) subscripts and
# unprimed ones take (lam, nu).

_SKEW_COEFF = {
    "C": ("h", lambda lam, i, j: _g_right(part(lam, j), j)),
    "C'": ("h", lambda mu, i, j: cat(neg(a_prefix(part(mu, i))),
                                     b_prefix(i))),
    "D": ("e", lambda lam, i, j: cat(a_prefix(j - 1),
                                     neg(b_prefix(part(lam, j))))),
    "D'": ("e", lambda mu, i, j: cat(neg(a_prefix(i)),
                                     b_prefix(part(mu, i)))),
    "c": ("h", lambda lam, i, j: _dual_shift(part(lam, i), i)),
    "c'": ("h", lambda mu, i, j: _g_right(part(mu, j), j)),
    "d": ("e", lambda lam, i, j: cat(neg(a_prefix(i - 1)),
                                     b_prefix(part(lam, i) - 1))),
    "d'": ("e", lambda mu, i, j: cat(a_prefix(j - 1),
                                     neg(b_prefix(part(mu, j))))),
}


def skew_coeff(rule, first, second, n, deg):
    """Skew Schur expansion coefficient named by its rule letter, with
    subscripts in display order: C/D/c/d take (lam, nu), the primed rules
    take (rho, mu).  Capital rules index the determinant by the second
    subscript on rows (e.g. C gives h_{nu_i - lam_j - i + j}), lowercase
    rules by the first (c gives h_{lam_i - nu_j - i + j})."""
    if rule not in _SKEW_COEFF:
        raise ShapeError(f"unknown coefficient rule {rule!r}")
    return _coeff_det(rule, tuple(first), tuple(second), n, deg)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _coeff_det(rule, first, second, n, deg):
    """The determinant on max(len(first), len(second), 1) rows.  Padding it
    with rows past both shapes leaves it unchanged: their entries are
    h_0 = e_0 = 1 on the diagonal and have m < 0 below it.  A generalized
    rho with negative parts keeps every row, as its last part is nonzero.
    Values are memoized in one bounded LRU per process (CACHE_SIZE)."""
    basis, alphabet = _SKEW_COEFF[rule]
    rows = max(len(first), len(second), 1)
    if rule in ("C", "D", "C'", "D'"):
        top, bot = second, first
    else:
        top, bot = first, second
    fixed = first if rule in ("C", "D", "c", "d") else second
    fn = h_pleth if basis == "h" else e_pleth
    matrix = [[fn(part(top, i) - part(bot, j) - i + j,
                  alphabet(fixed, i, j), n, deg)
               for j in range(1, rows + 1)] for i in range(1, rows + 1)]
    return det(matrix, n=n, deg=deg)


class SchurExpansion:
    """prefactor times the sum over (nu, rho) of left[nu] * right[rho] * s,
    where s is s_{nu/rho} for h-kinds and s_{nu'/rho'} for e-kinds.  left
    and right are the nonzero factor families; the sum runs over every pair
    for G-kinds and over rho <= nu for g-kinds.  Keys are trailing-zero-free
    tuples; rho may have negative parts (G-kinds only)."""

    def __init__(self, kind, n, deg, rows, left, right, prefactor):
        self.kind = kind
        self.n = n
        self.deg = deg
        self.rows = rows
        self.left = left
        self.right = right
        self.prefactor = prefactor

    @property
    def entries(self):
        """{(nu, rho): left[nu] * right[rho]} over the summed pairs, the
        factors multiplied out."""
        every = self.kind.startswith("G")
        return {(nu, rho): lcoef * rcoef
                for nu, lcoef in self.left.items()
                for rho, rcoef in self.right.items()
                if every or contains(rho, nu)}

    def total(self):
        basis = "h" if self.kind.endswith("_h") else "e"
        acc = TruncPoly.zero(self.n, self.deg)
        for (nu, rho), coef in self.entries.items():
            acc = acc + coef * schur_jt(nu, rho, self.n, self.deg,
                                        self.rows, basis)
        return self.prefactor * acc


def _gen_rho_below(mu, budget, rows):
    """Weakly decreasing integer tuples of length rows, componentwise <= mu
    (zero padded) with total deficiency <= budget."""
    bar = [part(mu, i) for i in range(1, rows + 1)]
    out = []

    def rec(i, prev, rem, acc):
        if i == rows:
            out.append(tuple(acc))
            return
        hi = bar[i] if i == 0 else min(prev, bar[i])
        for v in range(bar[i] - rem, hi + 1):
            acc.append(v)
            rec(i + 1, v, rem - (bar[i] - v), acc)
            acc.pop()

    rec(0, 0, budget, [])
    return out


def _family(rule, keys, fixed, n, deg):
    """{key: coefficient} over keys, keeping the nonzero ones in order.  An
    unprimed rule takes (fixed, key) as (lam, nu), a primed one (key, fixed)
    as (rho, mu)."""
    if rule.endswith("'"):
        return coefficient_table(
            lambda key: _coeff_det(rule, key, fixed, n, deg), keys)
    return coefficient_table(
        lambda key: _coeff_det(rule, fixed, key, n, deg), keys)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _G_prefactor(kind, rows, n, deg):
    """The "G_h" or "G_e" prefactor on rows rows, or for "omega" the omega
    image of the "G_h" one, prod_{i<=rows} prod_{l<=n} 1/(1 + b_i x_l).
    Values are memoized in one bounded LRU per process (CACHE_SIZE)."""
    return _row_prefactor("omega" if kind == "omega" else "G",
                          "col" if kind == "G_e" else "row",
                          [(i, 1, n) for i in range(1, rows + 1)], n, deg)


def skew_schur_expansion(outer, inner, kind, budget, n, deg):
    """Skew Schur expansion of the skew polynomial of the given kind.

    kind "G_h": G_{outer/inner} = C * sum C_{lam,nu} s_{nu/rho} C'_{rho,mu}
    kind "G_e": G_{outer'/inner'} = D * sum D_{lam,nu} s_{nu'/rho'} D'_{rho,mu}
    kind "g_h": g_{outer/inner} = sum c_{lam,nu} s_{nu/rho} c'_{rho,mu}
    kind "g_e": g_{outer'/inner'} = sum d_{lam,nu} s_{nu'/rho'} d'_{rho,mu}

    The result keeps the two factor families {nu: C_{lam,nu}} and
    {rho: C'_{rho,mu}} (likewise for D, c, d) and the prefactor.  G-kinds
    run over nu >= outer with |nu/outer| <= budget and generalized rho <=
    inner with deficiency <= budget, so the multiplied-out total is exact
    to x-degree budget.  g-kinds are finite and exact.  The prefactors
    C = prod_{i<=rows}prod_{l<=n}(1 - b_i x_l) and the geometric series
    D = prod prod (1 - a_i x_l)^{-1} run over rows = max(l(outer),
    l(inner)) + budget, the row count of the Schur functions in the total.
    """
    lam, mu = partition(outer), partition(inner)
    if kind in ("G_h", "G_e"):
        rows = max(len(lam), len(mu)) + budget
        left, right = {}, {}
        if contains(mu, lam):
            left = _family("C" if kind == "G_h" else "D",
                           partitions_above(lam, size(lam) + budget,
                                            max_len=rows),
                           lam, n, deg)
            right = _family("C'" if kind == "G_h" else "D'",
                            map(strip, _gen_rho_below(mu, budget, rows)),
                            mu, n, deg)
        return SchurExpansion(kind, n, deg, rows, left, right,
                              _G_prefactor(kind, rows, n, deg))
    if kind in ("g_h", "g_e"):
        between = partitions_between(mu, lam)
        left = _family("c" if kind == "g_h" else "d", between, lam, n, deg)
        right = _family("c'" if kind == "g_h" else "d'", between, mu, n, deg)
        return SchurExpansion(kind, n, deg, max(len(lam), len(mu), 1),
                              left, right, _one(n, deg))
    raise ShapeError(f"unknown expansion kind {kind!r}")


def dual_parameters(p):
    """Substitute alpha_i -> -beta_i and beta_i -> -alpha_i."""
    return p.specialize(
        lambda var: (-1, (BETA if var[0] == ALPHA else ALPHA, var[1])))


def _duals_match(h, e):
    """h and e share their keys, and h[key] = dual_parameters(e[key])."""
    return h.keys() == e.keys() and all(
        coef == dual_parameters(e[key]) for key, coef in h.items())


def omega_check(outer, inner, kind, budget, n, deg):
    """omega involution test, factor by factor: the h-expansion of
    outer/inner at (a, b) must match the e-expansion data at (-b, -a) in
    each factor family (C_{lam,nu} = D_{lam,nu}(-b, -a), and so on), and
    the omega image of the h-prefactor (e-series to h-series swap) must
    equal the substituted e-prefactor.  dual_parameters is a ring homomorphism,
    so matching factors imply matching entries; none is multiplied out."""
    if kind not in ("G", "g"):
        raise ShapeError(f"unknown kind {kind!r}")
    h, e = (skew_schur_expansion(outer, inner, f"{kind}_{basis}", budget,
                                 n, deg) for basis in "he")
    if not (_duals_match(h.left, e.left) and _duals_match(h.right, e.right)):
        return False
    if kind == "g":
        return h.prefactor == e.prefactor
    return _G_prefactor("omega", h.rows, n, deg) == \
        dual_parameters(e.prefactor)
