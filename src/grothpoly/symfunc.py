"""Complete homogeneous and elementary symmetric polynomials, plethystic
evaluation over signed alphabets, the ominus operator, and Schur functions.

An alphabet is a tuple of (sign, block) atoms.  Blocks:
    ("x", r, s)        x_r + ... + x_s
    ("ap", k)          alpha_1 + ... + alpha_k   (empty for k <= 0)
    ("bp", k)          beta_1 + ... + beta_k
    ("v", fam, idx, c) the one letter c * v for the variable v = (fam, idx)

The sign of an atom is plethystic: h_m[-Z] = (-1)^m e_m[Z].  Value negation
of a letter v is the letter -1 * v, with h_m[-1 * v] = (-1)^m h_m[v].

h_m and e_m values are memoized in one bounded LRU per process.
"""

import functools
import itertools

from .ring import ALPHA, BETA, X, TruncPoly, det, exact_divide
from .shapes import CACHE_SIZE, part, partition


def x_interval(r, s):
    return ((1, ("x", r, s)),) if r <= s else ()


def a_prefix(k):
    return ((1, ("ap", k)),) if k > 0 else ()


def b_prefix(k):
    return ((1, ("bp", k)),) if k > 0 else ()


def single(fam, idx, c):
    return ((1, ("v", fam, idx, c)),)


def neg(alphabet):
    return tuple((-sign, block) for sign, block in alphabet)


def cat(*alphabets):
    out = []
    for z in alphabets:
        out.extend(z)
    return tuple(out)


def _block_vars(block, n, deg):
    kind = block[0]
    if kind == "x":
        # x variables beyond the context evaluate to zero
        _, r, s = block
        return [TruncPoly.var(n, deg, X, i)
                for i in range(max(r, 1), min(s, n) + 1)]
    if kind == "ap":
        return [TruncPoly.var(n, deg, ALPHA, i) for i in range(1, block[1] + 1)]
    if kind == "bp":
        return [TruncPoly.var(n, deg, BETA, i) for i in range(1, block[1] + 1)]
    if kind == "v":
        _, fam, idx, c = block
        return [c * TruncPoly.var(n, deg, fam, idx)]
    raise ValueError(f"unknown block {block!r}")


def is_x_only(alphabet):
    return all(b[0] == "x" or (b[0] == "v" and b[1] == X)
               for _, b in alphabet)


def is_param_only(alphabet):
    return all(b[0] in ("ap", "bp") or (b[0] == "v" and b[1] != X)
               for _, b in alphabet)


def _pleth(kind, m, alphabet, n, deg):
    """h_m[Z] (kind "h") or e_m[Z] (kind "e") for a signed alphabet Z."""
    if m < 0:  # cheap, so kept out of the cache
        return TruncPoly.zero(n, deg)
    return _pleth_series(kind, m, alphabet, n, deg)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _pleth_series(kind, m, alphabet, n, deg):
    """_pleth for m >= 0.  The series cur[0..m] starts at 1 and takes one
    factor per letter z of H(t) = prod (1 - z t)^-1 or E(t) = prod (1 + z t),
    with z -> -z and the factor inverted for a negated letter.  A factor
    (1 - z t)^-1 (h of a letter, e of a negated one) is cur[d] += z cur[d-1]
    with d running up; a factor (1 + z t) (e of a letter, h of a negated
    one) is the same update with d running down."""
    cur = [TruncPoly.const(n, deg, 1)] + \
        [TruncPoly.zero(n, deg) for _ in range(m)]
    for sign, block in alphabet:
        degrees = range(1, m + 1) if (kind == "h") == (sign > 0) else \
            range(m, 0, -1)
        for z in _block_vars(block, n, deg):
            if sign < 0:
                z = -z
            for d in degrees:
                if not cur[d - 1].is_zero():
                    cur[d] = cur[d] + z * cur[d - 1]
    return cur[m]


def h_pleth(m, alphabet, n, deg):
    return _pleth("h", m, alphabet, n, deg)


def e_pleth(m, alphabet, n, deg):
    return _pleth("e", m, alphabet, n, deg)


def _ominus(kind, m, left, right, n, deg):
    """f_m[left (-) right] = sum_k f_{m+k}[left] f_k[right] for f = h or e;
    m may be negative.  The sum stops at k = deg - m: left holds x letters
    only, so f_{m+k}[left] is homogeneous of x-degree m + k and vanishes
    above deg."""
    if not is_x_only(left):
        raise ValueError("ominus left argument must be x-blocks only")
    if not is_param_only(right):
        raise ValueError("ominus right argument must be parameter blocks only")
    # the public names are looked up per call so that wrappers see them
    pleth = h_pleth if kind == "h" else e_pleth
    acc = TruncPoly.zero(n, deg)
    for k in range(max(0, -m), deg - m + 1):
        lhs = pleth(m + k, left, n, deg)
        if lhs.is_zero():
            continue
        rhs = pleth(k, right, n, deg)
        if rhs.is_zero():
            continue
        acc = acc + lhs * rhs
    return acc


def h_ominus(m, left, right, n, deg):
    return _ominus("h", m, left, right, n, deg)


def e_ominus(m, left, right, n, deg):
    return _ominus("e", m, left, right, n, deg)


def schur_jt(outer, inner, n, deg, rows=None, basis="h"):
    """s_{outer/inner}(x_n) = det(h_{lam_i - mu_j - i + j}[X_n]) of size rows
    (default the longer shape); basis "e" takes e_m and gives
    s_{outer'/inner'}.  Parts may be negative (generalized partitions)."""
    if rows is None:
        rows = max(len(outer), len(inner))
    xs = x_interval(1, n)
    pleth = h_pleth if basis == "h" else e_pleth
    matrix = [[pleth(part(outer, i) - part(inner, j) - i + j, xs, n, deg)
               for j in range(1, rows + 1)] for i in range(1, rows + 1)]
    return det(matrix, n=n, deg=deg)


def schur_branching(shapes, n, deg):
    """[s_mu(x_n) for mu in shapes] by the branching rule s_mu(x_1..x_m) =
    sum_nu s_nu(x_1..x_{m-1}) x_m^{|mu/nu|} over the nu with mu/nu a
    horizontal strip, i.e. mu_{i+1} <= nu_i <= mu_i (Macdonald I (5.11)).
    No term cancels.  The shapes share the values of their sub-shapes, which
    are dropped on return."""
    zero = TruncPoly.zero(n, deg)
    memo = {}

    def rec(mu, m):
        if not mu:
            return TruncPoly.const(n, deg, 1)
        if len(mu) > m or sum(mu) > deg:
            return zero
        got = memo.get((mu, m))
        if got is not None:
            return got
        acc = zero
        ranges = [range(part(mu, i + 1), part(mu, i) + 1)
                  for i in range(1, m)]
        for nu in itertools.product(*ranges):
            nu = tuple(v for v in nu if v)
            sub = rec(nu, m - 1)
            if not sub.is_zero():
                k = sum(mu) - sum(nu)
                acc = acc + sub * TruncPoly.var(n, deg, X, m, k)
        memo[(mu, m)] = acc
        return acc

    return [rec(partition(mu), n) for mu in shapes]


def alternant_quotient(entry, n, deg):
    """det(entry(i, j, work))_{i,j<=n} / prod_{i<j}(x_i - x_j), computed in
    degree work = deg + n(n-1)/2: each linear factor divided out leaves the
    quotient exact one degree lower."""
    work = deg + n * (n - 1) // 2
    matrix = [[entry(i, j, work) for j in range(1, n + 1)]
              for i in range(1, n + 1)]
    quot = det(matrix, n=n, deg=work)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            quot = exact_divide(quot, i, j)
    return quot.truncate(deg)
