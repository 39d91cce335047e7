"""Schur-basis expansion of a symmetric truncated polynomial, the oracle
that tests compare Schur coefficients against.

It peels the dominant x-monomial one at a time, subtracting its schur_jt
multiple, and shares no code with the closed coefficient formulas C_coeff and
c_coeff that tests compare it with.  Test modules import it by name: pytest
puts this directory on sys.path.
"""

from grothpoly.ring import X, TruncPoly
from grothpoly.symfunc import schur_jt


class SymmetryError(ValueError):
    pass


class ExpansionError(ValueError):
    pass


def swap_x(p, i, j):
    """p with x_i and x_j exchanged."""
    swap = {i: j, j: i}
    return TruncPoly.from_monomials(p.n, p.deg, (
        (tuple(sorted(((fam, swap.get(idx, idx) if fam == X else idx), e)
                      for (fam, idx), e in mono)), c)
        for mono, c in p.monomials()))


def _x_vector(mono, n):
    vec = [0] * n
    for (fam, idx), e in mono:
        if fam == X:
            vec[idx - 1] = e
    return tuple(vec)


def _param_part(mono):
    return tuple(v for v in mono if v[0][0] != X)


def schur_expand(p, max_degree=None):
    """Expand a symmetric truncated polynomial in Schur polynomials by
    peeling the graded-lex dominant x-monomial; returns {partition: coeff}
    with parameter-only coefficient polynomials."""
    n, deg = p.n, p.deg
    if max_degree is None:
        max_degree = deg
    for i in range(1, n):
        if swap_x(p, i, i + 1) != p:
            raise SymmetryError(f"not symmetric under x{i} <-> x{i + 1}")
    work = TruncPoly.from_monomials(
        n, deg, ((m, c) for m, c in p.monomials()
                 if sum(_x_vector(m, n)) <= max_degree))
    result = {}
    guard = 0
    while not work.is_zero():
        guard += 1
        if guard > 100000:
            raise ExpansionError("expansion did not terminate")
        work_terms = dict(work.monomials())
        dom = max(work_terms, key=lambda m: (sum(_x_vector(m, n)),
                                             _x_vector(m, n)))
        vec = _x_vector(dom, n)
        mu = tuple(v for v in vec if v)
        if any(vec[i] < vec[i + 1] for i in range(n - 1)):
            raise ExpansionError(f"dominant x-part {vec} is not a partition")
        coeff_terms = {}
        for mono, c in work_terms.items():
            if _x_vector(mono, n) == vec:
                coeff_terms[_param_part(mono)] = c
        coeff = TruncPoly.from_monomials(n, deg, coeff_terms.items())
        result[mu] = result.get(mu, TruncPoly.zero(n, deg)) + coeff
        work = work - coeff * schur_jt(mu, (), n, deg)
    return {mu: c for mu, c in result.items() if not c.is_zero()}

