"""Exact sparse polynomial arithmetic over the integers in three variable
families x_i, alpha_i, beta_i, truncated at a fixed total x-degree.

A monomial is a sorted tuple of ((family, index), exponent) pairs with
positive exponents; families are X=0, ALPHA=1, BETA=2.  A polynomial carries
its context (n, deg): x-indices stay in 1..n and every stored monomial has
total x-degree <= deg.  alpha/beta degrees are not truncated.
"""

import heapq

X = 0
ALPHA = 1
BETA = 2

FAMILY_NAMES = {X: "x", ALPHA: "a", BETA: "b"}


class ContextMismatch(ValueError):
    pass


class DivisibilityError(ArithmeticError):
    pass


class InternalCheckError(AssertionError):
    # two formulas that must agree disagreed; an implementation bug
    pass


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


def mono_divide(m1, m2):
    """m1 / m2 as a monomial, or None if m2 does not divide m1."""
    exps = dict(m1)
    for var, e in m2:
        have = exps.get(var, 0)
        if have < e:
            return None
        if have == e:
            del exps[var]
        else:
            exps[var] = have - e
    return tuple(sorted(exps.items()))


class TruncPoly:
    __slots__ = ("n", "deg", "terms", "_xb")

    def __init__(self, n, deg, terms):
        self.n = n
        self.deg = deg
        self.terms = terms  # dict mono -> nonzero int; treat as immutable
        self._xb = None

    def _xbuckets(self):
        # terms grouped by total x-degree, built once per polynomial
        b = self._xb
        if b is None:
            b = {}
            for m, c in self.terms.items():
                d = 0
                for (fam, _), e in m:
                    if fam == X:
                        d += e
                pairs = b.get(d)
                if pairs is None:
                    b[d] = [(m, c)]
                else:
                    pairs.append((m, c))
            self._xb = b
        return b

    @classmethod
    def zero(cls, n, deg):
        return cls(n, deg, {})

    @classmethod
    def const(cls, n, deg, c):
        return cls(n, deg, {(): c} if c else {})

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
        if exp == 0:
            return cls.const(n, deg, 1)
        return cls(n, deg, {(((fam, idx), exp),): 1})

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
        return TruncPoly(self.n, self.deg, terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.n, self.deg,
                         {m: -c for m, c in self.terms.items()})

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
                             {m: c * other for m, c in self.terms.items()})
        self._check(other)
        deg = self.deg
        terms = {}
        get = terms.get
        for d1, items1 in self._xbuckets().items():
            limit = deg - d1
            for d2, items2 in other._xbuckets().items():
                if d2 > limit:
                    continue
                for m1, c1 in items1:
                    for m2, c2 in items2:
                        m = mono_mul(m1, m2)
                        s = get(m, 0) + c1 * c2
                        if s:
                            terms[m] = s
                        else:
                            del terms[m]
        return TruncPoly(self.n, self.deg, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = TruncPoly.const(self.n, self.deg, 1)
        for _ in range(k):
            result = result * self
        return result

    def truncate(self, new_deg):
        """Reinterpret in the context (n, new_deg), dropping high x-degrees."""
        terms = {m: c for m, c in self.terms.items() if mono_xdeg(m) <= new_deg}
        return TruncPoly(self.n, new_deg, terms)

    def with_n(self, new_n):
        """Embed into a wider context (x-indices must already fit)."""
        for fam, idx in self.variables():
            if fam == X and idx > new_n:
                raise ContextMismatch(f"x{idx} exceeds n={new_n}")
        return TruncPoly(new_n, self.deg, dict(self.terms))

    def restrict_n(self, new_n):
        """Set x_i = 0 for all i > new_n."""
        terms = {}
        for mono, c in self.terms.items():
            if all(not (fam == X and idx > new_n) for (fam, idx), _ in mono):
                terms[mono] = c
        return TruncPoly(new_n, self.deg, terms)

    def _rename_x(self, rename, new_n):
        terms = {}
        for mono, c in self.terms.items():
            new = [((fam, rename(idx) if fam == X else idx), e)
                   for (fam, idx), e in mono]
            terms[tuple(sorted(new))] = c
        return TruncPoly(new_n, self.deg, terms)

    def shift_x(self, offset, new_n):
        """Rename x_i -> x_{i+offset}."""
        if any(fam == X and idx + offset > new_n
               for (fam, idx) in self.variables()):
            raise ContextMismatch("shifted index out of range")
        return self._rename_x(lambda idx: idx + offset, new_n)

    def swap_x(self, i, j):
        """Exchange x_i and x_j."""
        return self._rename_x(lambda idx: {i: j, j: i}.get(idx, idx), self.n)

    def variables(self):
        """The set of (family, index) variables occurring in some term."""
        return {var for mono in self.terms for var, _ in mono}

    def specialize(self, image):
        """Substitute alpha/beta variables by a rule.  image((family, index))
        is called once for each parameter variable that occurs, never for an
        x variable, and returns None to keep it, or (c, target) to replace it
        by c times the parameter variable target (the constant c when target
        is None).  Each monomial maps to one monomial of the same x-degree."""
        subs = {}  # var -> image(var)
        terms = {}
        for mono, c in self.terms.items():
            kept = []
            moved = ()
            for var, e in mono:
                if var[0] != X:
                    if var in subs:
                        sub = subs[var]
                    else:
                        sub = subs[var] = image(var)
                    if sub is not None:
                        c *= sub[0] ** e
                        if sub[1] is not None:
                            moved = mono_mul(moved, ((sub[1], e),))
                        continue
                kept.append((var, e))
            if c:
                m = mono_mul(tuple(kept), moved)
                s = terms.get(m, 0) + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return TruncPoly(self.n, self.deg, terms)

    def coeff(self, mono):
        return self.terms.get(tuple(sorted(mono)), 0)

    def max_xdeg(self):
        return max((mono_xdeg(m) for m in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[mono]
            body = "*".join(
                f"{FAMILY_NAMES[fam]}{idx}" + (f"^{e}" if e > 1 else "")
                for (fam, idx), e in mono)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def pvar(n, deg, fam, idx):
    """The variable (fam, idx) as a polynomial; zero for idx <= 0, matching
    the convention alpha_m = beta_m = 0 for m <= 0."""
    if idx <= 0:
        return TruncPoly.zero(n, deg)
    return TruncPoly.var(n, deg, fam, idx)


def det(matrix, n, deg, memo=None, key=None):
    """Determinant by Laplace expansion along the leading columns, memoized
    over row subsets.

    Division-free: the truncated ring has zero divisors, so elimination
    methods are unavailable.  A caller that evaluates many matrices may pass
    its own memo dict and a key(rows) that determines the entries of those
    rows in the leading len(rows) columns; proper minors are then shared
    between calls, and the full determinant is not stored.
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
    # of those columns; memo holds proper minors under key(rows), or rows
    col = len(rows) - 1
    if col == 0:
        return matrix[rows[0]][0]
    acc = None
    for t, r in enumerate(rows):
        entry = matrix[r][col]
        if entry.is_zero():
            continue
        sub = rows[:t] + rows[t + 1:]
        k = sub if key is None else key(sub)
        minor = memo.get(k)
        if minor is None:
            minor = memo[k] = _minor(matrix, sub, n, deg, memo, key)
        term = entry * minor
        if (t + col) % 2:
            term = -term
        acc = term if acc is None else acc + term
    return TruncPoly.zero(n, deg) if acc is None else acc


def exact_divide(num, den, guard_degree):
    """Divide num by den by cancelling graded-lex leading terms.

    num must be exactly divisible within its context; the quotient is
    returned truncated to num.deg - guard_degree.  A nonzero remainder means
    an internal bug (the alternants are always divisible by the Vandermonde).
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    num._check(den)
    lead_den = min(den.terms, key=mono_key)
    cd = den.terms[lead_den]
    rem = dict(num.terms)
    # the remainder's monomials, leading term first; a monomial cancelled
    # after it was pushed is skipped when popped (lazy deletion)
    heap = [(mono_key(m), m) for m in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        _, lead = heapq.heappop(heap)
        c = rem.get(lead)
        if c is None:
            continue
        m = mono_divide(lead, lead_den)
        if m is None or c % cd:
            raise DivisibilityError(f"leading term {lead} not divisible")
        q = c // cd
        quot[m] = quot.get(m, 0) + q
        for mono, dc in den.terms.items():
            mm = mono_mul(m, mono)
            old = rem.get(mm)
            if old is None:
                rem[mm] = -q * dc
                heapq.heappush(heap, (mono_key(mm), mm))
            elif old == q * dc:
                del rem[mm]
            else:
                rem[mm] = old - q * dc
    result = TruncPoly(num.n, num.deg, quot)
    return result.truncate(num.deg - guard_degree)
