"""Exact sparse polynomial arithmetic over the integers in three variable
families x_i, alpha_i, beta_i, truncated at a fixed total x-degree.

A polynomial carries its context (n, deg): x-indices stay in 1..n and every
stored monomial has total x-degree <= deg.  alpha/beta degrees are not
truncated.  Families are X=0, ALPHA=1, BETA=2.

Monomials are packed into one int of W-bit fields (Monagan and Pearce's
packed exponent vectors).  Field 0, the low W bits, holds the total
x-degree; the variable (fam, idx) sits at field 1 + 3(idx - 1) + fam.  A
product of monomials is then the sum of their ints, and m & FIELD is the
x-degree that truncation reads.  A sum carries into the next field once a
field reaches 2^W, so each polynomial keeps an O(1) bound on the parameter
degree of its monomials, the sum of its operands' bounds for a product;
every field then stays <= deg + bound, and a polynomial whose deg + bound
exceeds LIMIT = 2^(W-1) - 1 raises OverflowError.  The top bit of each field
stays clear, so even the sum of two valid monomials never carries.  The one
division, exact_divide, is by a linear factor x_i - x_j.

Outside this module a monomial is a sorted tuple of ((family, index),
exponent) pairs with positive exponents: monomials() decodes to that form
and from_monomials() encodes from it.
"""

X = 0
ALPHA = 1
BETA = 2

FAMILY_NAMES = {X: "x", ALPHA: "a", BETA: "b"}

W = 12
FIELD = (1 << W) - 1
LIMIT = (1 << (W - 1)) - 1


class ContextMismatch(ValueError):
    pass


class DivisibilityError(ArithmeticError):
    pass


class InternalCheckError(AssertionError):
    # two formulas that must agree disagreed; an implementation bug
    pass


def _field(fam, idx):
    return 1 + 3 * (idx - 1) + fam


def _encode(mono):
    m = 0
    for (fam, idx), e in mono:
        if fam not in FAMILY_NAMES or idx < 1 or e < 0:
            raise ValueError(f"bad monomial factor {((fam, idx), e)}")
        m += e << (_field(fam, idx) * W)
        if fam == X:
            m += e
    return m


def _decode(m, pairs):
    # the sorted tuple form of m; pairs shares the ((fam, idx), e) tuples
    # between the monomials of one decode
    by_fam = ([], [], [])
    k = 0
    m >>= W
    while m:
        e = m & FIELD
        if e:
            pair = pairs.get((k, e))
            if pair is None:
                pair = pairs[(k, e)] = ((k % 3, k // 3 + 1), e)
            by_fam[k % 3].append(pair)
        m >>= W
        k += 1
    return tuple(by_fam[X] + by_fam[ALPHA] + by_fam[BETA])


def _x_fields(lo, hi):
    """Mask of the fields of x_lo..x_hi."""
    mask = 0
    for idx in range(lo, hi + 1):
        mask |= FIELD << (_field(X, idx) * W)
    return mask


def _add_product(terms, deg, p, q, sign):
    """terms += sign * p * q, dropping monomials of x-degree above deg."""
    get = terms.get
    qb = q._xbuckets()
    for d1, items1 in p._xbuckets().items():
        limit = deg - d1
        for d2, items2 in qb.items():
            if d2 > limit:
                continue
            for m1, c1 in items1:
                c1 *= sign
                for m2, c2 in items2:
                    m = m1 + m2
                    s = get(m, 0) + c1 * c2
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]


class TruncPoly:
    __slots__ = ("n", "deg", "terms", "pbound", "_xb")

    def __init__(self, n, deg, terms, pbound):
        if deg + pbound > LIMIT:
            raise OverflowError(
                f"x-degree {deg} plus parameter degree {pbound} exceeds "
                f"{LIMIT}")
        self.n = n
        self.deg = deg
        self.terms = terms  # dict packed mono -> nonzero int; immutable
        self.pbound = pbound  # >= the alpha/beta degree of every monomial
        self._xb = None

    def _xbuckets(self):
        # terms grouped by total x-degree, built once per polynomial
        b = self._xb
        if b is None:
            b = {}
            for m, c in self.terms.items():
                d = m & FIELD
                pairs = b.get(d)
                if pairs is None:
                    b[d] = [(m, c)]
                else:
                    pairs.append((m, c))
            self._xb = b
        return b

    @classmethod
    def zero(cls, n, deg):
        return cls(n, deg, {}, 0)

    @classmethod
    def const(cls, n, deg, c):
        return cls(n, deg, {0: c} if c else {}, 0)

    @classmethod
    def var(cls, n, deg, fam, idx, exp=1):
        """The monomial v^exp for v = (fam, idx); the constant 1 for exp 0."""
        if idx < 1:
            raise ValueError("variable index must be >= 1")
        if exp < 0:
            raise ValueError("exponent must be >= 0")
        if fam == X:
            if idx > n:
                raise ContextMismatch(f"x{idx} exceeds context n={n}")
            if exp > deg:
                return cls.zero(n, deg)
        return cls(n, deg, {_encode((((fam, idx), exp),)): 1},
                   0 if fam == X else exp)

    @classmethod
    def from_monomials(cls, n, deg, items):
        """The sum of c * mono over (mono, c) pairs of tuple-form monomials,
        truncated at x-degree deg; the inverse of monomials()."""
        terms = {}
        pbound = 0
        for mono, c in items:
            for (fam, idx), _ in mono:
                if fam == X and idx > n:
                    raise ContextMismatch(f"x{idx} exceeds context n={n}")
            m = _encode(mono)
            if m & FIELD > deg:
                continue
            pbound = max(pbound, sum(e for (fam, _), e in mono if fam != X))
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return cls(n, deg, terms, pbound)

    def monomials(self):
        """Iterate over the terms as (mono, c) with tuple-form monomials.
        The ((family, index), exponent) pairs are shared between the
        monomials of one iteration."""
        pairs = {}
        for m, c in self.terms.items():
            yield _decode(m, pairs), c

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return (self.n, self.deg, self.terms) == (other.n, other.deg, other.terms)

    __hash__ = None

    def _check(self, other):
        if (self.n, self.deg) != (other.n, other.deg):
            raise ContextMismatch(
                f"context {(self.n, self.deg)} vs {(other.n, other.deg)}")

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncPoly.const(self.n, self.deg, other)
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return TruncPoly(self.n, self.deg, terms,
                         max(self.pbound, other.pbound))

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.n, self.deg,
                         {m: -c for m, c in self.terms.items()}, self.pbound)

    def __sub__(self, other):
        if isinstance(other, int):
            other = TruncPoly.const(self.n, self.deg, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return TruncPoly.zero(self.n, self.deg)
            return TruncPoly(self.n, self.deg,
                             {m: c * other for m, c in self.terms.items()},
                             self.pbound)
        self._check(other)
        terms = {}
        _add_product(terms, self.deg, self, other, 1)
        return TruncPoly(self.n, self.deg, terms, self.pbound + other.pbound)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("exponent must be >= 0")
        result = TruncPoly.const(self.n, self.deg, 1)
        for _ in range(k):
            result = result * self
        return result

    def truncate(self, new_deg):
        """Reinterpret in the context (n, new_deg), dropping high x-degrees."""
        terms = {m: c for m, c in self.terms.items() if m & FIELD <= new_deg}
        return TruncPoly(self.n, new_deg, terms, self.pbound)

    def _has_x_above(self, k):
        high = _x_fields(k + 1, self.n)
        return any(m & high for m in self.terms)

    def with_n(self, new_n):
        """Embed into a wider context (x-indices must already fit)."""
        if self._has_x_above(new_n):
            raise ContextMismatch(f"an x index exceeds n={new_n}")
        return TruncPoly(new_n, self.deg, dict(self.terms), self.pbound)

    def restrict_n(self, new_n):
        """Set x_i = 0 for all i > new_n."""
        high = _x_fields(new_n + 1, self.n)
        terms = {m: c for m, c in self.terms.items() if not m & high}
        return TruncPoly(new_n, self.deg, terms, self.pbound)

    def shift_x(self, offset, new_n):
        """Rename x_i -> x_{i+offset} for offset >= 0."""
        if self._has_x_above(new_n - offset):
            raise ContextMismatch("shifted index out of range")
        xmask = _x_fields(1, self.n)
        shift = 3 * offset * W
        terms = {}
        for m, c in self.terms.items():
            xm = m & xmask
            terms[m - xm + (xm << shift)] = c
        return TruncPoly(new_n, self.deg, terms, self.pbound)

    def specialize(self, image):
        """Substitute alpha/beta variables by a rule.  image((family, index))
        is called once for each parameter variable that occurs, never for an
        x variable, and returns None to keep it, or (c, target) to replace it
        by c times the parameter variable target (the constant c when target
        is None).  Each monomial maps to one monomial of the same x-degree."""
        subs = {}  # field -> None (kept) or (c, target field shift or None)
        terms = {}
        for m, c in self.terms.items():
            rest = m >> W
            k = 1
            while rest:
                e = rest & FIELD
                if e:
                    if k in subs:
                        sub = subs[k]
                    else:
                        sub = subs[k] = _field_image(image, k)
                    if sub is not None:
                        c *= sub[0] ** e
                        m -= e << (k * W)
                        if sub[1] is not None:
                            m += e << sub[1]
                rest >>= W
                k += 1
            if c:
                s = terms.get(m, 0) + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return TruncPoly(self.n, self.deg, terms, self.pbound)

    def coeff(self, mono):
        """The coefficient of a tuple-form monomial, in any factor order."""
        return self.terms.get(_encode(mono), 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        pairs = {}
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            body = "*".join(
                f"{FAMILY_NAMES[fam]}{idx}" + (f"^{e}" if e > 1 else "")
                for (fam, idx), e in _decode(m, pairs))
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _field_image(image, k):
    # a specialize rule at field k >= 1: None, or (c, shift of the target's
    # field or None)
    fam, idx = (k - 1) % 3, (k - 1) // 3 + 1
    if fam == X:
        return None
    sub = image((fam, idx))
    if sub is None:
        return None
    c, target = sub
    return c, None if target is None else _field(*target) * W


def pvar(n, deg, fam, idx):
    """The variable (fam, idx) as a polynomial; zero for idx <= 0, matching
    the convention alpha_m = beta_m = 0 for m <= 0, and for x_idx with idx
    > n, matching x_l = 0 for l > n."""
    if idx <= 0 or (fam == X and idx > n):
        return TruncPoly.zero(n, deg)
    return TruncPoly.var(n, deg, fam, idx)


def det(matrix, n, deg, memo=None, key=None):
    """Determinant by Laplace expansion along the leading columns, memoized
    over row subsets.

    Division-free: the truncated ring has zero divisors, so elimination
    methods are unavailable.  A caller that evaluates many matrices may pass
    its own memo dict and a key(rows) that determines the entries of those
    rows in the leading len(rows) columns; proper minors are then shared
    between calls.  The caller keeps the memo valid for the entries it
    passes.  Neither the full determinant nor a 1x1 minor is stored: a 1x1
    minor is read from the matrix.

    Only nonzero structure is paid for: a term with a zero entry is
    skipped, and so is a term with a zero minor once its entry and minor
    are checked to lie in the context (n, deg).  The one entry of a 1x1
    matrix is checked too.
    """
    size = len(matrix)
    for row in matrix:
        if len(row) != size:
            raise ValueError("determinant of a non-square matrix")
    if size == 0:
        return TruncPoly.const(n, deg, 1)
    return _minor(matrix, tuple(range(size)), n, deg,
                  {} if memo is None else memo, key)


def _minor(matrix, rows, n, deg, memo, key):
    # det of matrix[rows][columns 0..len(rows)-1], expanded along the last
    # of those columns into one accumulator; memo holds proper minors of
    # two or more rows under key(rows), or rows
    col = len(rows) - 1
    if col == 0:
        entry = matrix[rows[0]][0]
        if (entry.n, entry.deg) != (n, deg):
            raise ContextMismatch(f"determinant entry outside {(n, deg)}")
        return entry
    terms = {}
    pbound = 0
    for t, r in enumerate(rows):
        entry = matrix[r][col]
        if not entry.terms:
            continue
        sub = rows[:t] + rows[t + 1:]
        if col == 1:
            minor = matrix[sub[0]][0]
        else:
            k = sub if key is None else key(sub)
            minor = memo.get(k)
            if minor is None:
                minor = memo[k] = _minor(matrix, sub, n, deg, memo, key)
        if (entry.n, entry.deg, minor.n, minor.deg) != (n, deg, n, deg):
            raise ContextMismatch(f"determinant entry outside {(n, deg)}")
        if not minor.terms:
            continue
        pbound = max(pbound, entry.pbound + minor.pbound)
        _add_product(terms, deg, entry, minor, -1 if (t + col) % 2 else 1)
    return TruncPoly(n, deg, terms, pbound)


def exact_divide(num, i, j):
    """num / (x_i - x_j) by synthetic division in x_i, for i != j in num's
    context: from the highest x_i exponent down, each term c*m puts c*m/x_i
    into the quotient and adds c*m*x_j/x_i one exponent lower, and a term
    left at exponent 0 raises DivisibilityError.  The divisor is homogeneous,
    so the quotient, in num's context, is exact below x-degree num.deg."""
    if i == j or not (1 <= i <= num.n and 1 <= j <= num.n):
        raise ValueError(f"x{i} - x{j} is no divisor in context n={num.n}")
    shift = _field(X, i) * W
    xi = (1 << shift) + 1  # x_i, counted in the x-degree field too
    swap = (1 << (_field(X, j) * W)) - (1 << shift)  # m -> m * x_j / x_i
    levels = {}  # x_i exponent -> {mono: c}
    for m, c in num.terms.items():
        levels.setdefault((m >> shift) & FIELD, {})[m] = c
    quot = {}
    for e in range(max(levels, default=0), 0, -1):
        below = levels.setdefault(e - 1, {})
        for m, c in levels.pop(e, {}).items():
            quot[m - xi] = c
            m += swap
            s = below.get(m, 0) + c
            if s:
                below[m] = s
            else:
                del below[m]
    if levels.get(0):
        raise DivisibilityError(f"remainder term {_decode(min(levels[0]), {})}"
                                f" in the division by x{i} - x{j}")
    return TruncPoly(num.n, num.deg, quot, num.pbound)
