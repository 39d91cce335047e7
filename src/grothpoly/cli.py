"""Command-line front end: compute polynomials, expand them in the Schur
basis, query coefficients, run verification suites, and stream tableaux.

Output is byte-stable: monomials are grouped by their parameter part
(ascending parameter degree, then variable order a1 < a2 < ... < b1 < ...),
and x-monomials inside a group are printed by ascending total degree with
lexicographic ties (x1^2 before x1*x2 before x2^2).  Signs are folded into
the leading connector when a whole group is negative.

Unflagged straight-shape `compute G`/`compute g` sum the paper's Schur
expansions G_lam = sum C_{lam,mu} s_mu and g_lam = sum c_{lam,mu} s_mu, with
s_mu(x_n) by the branching rule; flagged, marked and skew inputs evaluate
their determinants.  The other evaluations stay as independent checks:
`verify G`/`verify g` compare Jacobi-Trudi, modified Jacobi-Trudi, flagged
determinant and tableau enumeration with the bialternant, `verify cauchy`
multiplies out the Jacobi-Trudi G and g, and the tests compare the Schur
expansion with Jacobi-Trudi and tableau enumeration.  Each suite yields its
cases to one driver, which stops at the first failing case and prints its
label, then the difference got - want when the values are polynomials.

Exit codes: 0 success, 1 verification failure, 2 usage or argument error,
3 internal inconsistency (two formulas that must agree disagreed).
"""

import argparse
import functools
import itertools
import json
import sys

from .grothendieck import (C_coeff, FlagSweep, G_bialternant, G_flagged_det,
                           G_jt, G_jt_modified, G_schur, c_coeff,
                           cauchy_check, coefficient_table, col_monotone,
                           g_bialternant, g_flagged_det, g_jt,
                           g_jt_modified, g_marked_det, g_schur,
                           hall_pairing, omega_check, row_monotone,
                           schur_in_grothendieck, skew_schur_expansion,
                           valid_mark_sets)
from .lgv import nonintersecting_coeff
from .ring import (ALPHA, BETA, FAMILY_NAMES, X, DivisibilityError,
                   InternalCheckError, TruncPoly)
from .shapes import (INF, ShapeError, conjugate, contains, dent_index,
                     flag_class, part, partition, partitions_above,
                     partitions_between, partitions_of, partitions_up_to,
                     read_flags, size, skew, strip)
from .symfunc import schur_jt
from .tableaux import (TableauSweep, enum_elegant, enum_fsvt, enum_mmsvt,
                       enum_mrpp, gen_fsvt, gen_mmsvt, gen_mrpp)

SCHEMA = "grothpoly-terms-1"

FAMILY_CODES = {name: fam for fam, name in FAMILY_NAMES.items()}

LATEX_NAMES = {X: "x", ALPHA: "\\alpha", BETA: "\\beta"}


# ---------------------------------------------------------------------------
# rendering

def _mono_split(mono):
    xs = tuple(p for p in mono if p[0][0] == X)
    ps = tuple(p for p in mono if p[0][0] != X)
    return xs, ps


def _xmono_key(xs, n):
    vec = [0] * n
    for (_, idx), e in xs:
        vec[idx - 1] = e
    return (sum(vec), tuple(-e for e in vec))


def _pmono_key(ps):
    return (sum(e for _, e in ps), ps)


def _render_vars(pairs, fmt):
    if not pairs:
        return "1"
    out = []
    for (fam, idx), e in pairs:
        if fmt == "latex":
            body = f"{LATEX_NAMES[fam]}_{{{idx}}}"
            if e > 1:
                body += f"^{{{e}}}"
        else:
            body = f"{FAMILY_NAMES[fam]}{idx}"
            if e > 1:
                body += f"^{e}"
        out.append(body)
    return ("*" if fmt == "text" else " ").join(out)


def poly_records(p):
    """Structured form: terms as (coefficient, exponent-vector) records."""
    order = []
    for mono, c in p.monomials():
        xs, ps = _mono_split(mono)
        order.append((_xmono_key(xs, p.n)[0], _pmono_key(ps)[0], mono, c))
    order.sort()
    terms = [{"coeff": c,
              "powers": [[FAMILY_NAMES[fam], idx, e] for (fam, idx), e in mono]}
             for _, _, mono, c in order]
    return {"schema": SCHEMA, "n": p.n, "deg": p.deg, "terms": terms}


def render_poly(p, fmt="text"):
    if fmt == "json-like":
        return json.dumps(poly_records(p))
    if not p.terms:
        return "0"
    mult = "*" if fmt == "text" else " "
    groups = {}
    for mono, c in p.monomials():
        xs, ps = _mono_split(mono)
        groups.setdefault(ps, {})[xs] = c
    out = []
    for ps in sorted(groups, key=_pmono_key):
        terms = sorted(groups[ps].items(),
                       key=lambda item: _xmono_key(item[0], p.n))
        negative = all(c < 0 for _, c in terms)
        if negative:
            terms = [(xs, -c) for xs, c in terms]
        pstr = _render_vars(ps, fmt) if ps else ""
        if len(terms) == 1:
            xs, c = terms[0]
            body = _render_vars(xs, fmt)
            pieces = [] if c == 1 else [str(c)]
            if pstr:
                pieces.append(pstr)
            if body != "1":
                pieces.append(body)
            group = mult.join(pieces) if pieces else "1"
        else:
            rendered = []
            for xs, c in terms:
                body = _render_vars(xs, fmt)
                if body == "1":
                    rendered.append(str(c))
                elif c == 1:
                    rendered.append(body)
                elif c == -1:
                    rendered.append("-" + body)
                else:
                    rendered.append(f"{c}{mult}{body}")
            inner = "+".join(rendered).replace("+-", "-")
            group = f"{pstr}{mult}({inner})" if pstr else f"({inner})"
        sign = "-" if negative else "+"
        if not out:
            out.append(("-" if negative else "") + group)
        else:
            out.append(f" {sign} {group}")
    return "".join(out)


# ---------------------------------------------------------------------------
# argument helpers

def _parse_mark_set(text):
    text = text.strip()
    if text in ("", "0", "none"):
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError:
        raise ShapeError(f"bad mark set {text!r}") from None


def _parse_spec(text):
    """Tokens like "a=0", "b=1", "a2=-1": whole-family or single-variable
    integer substitutions for the parameter alphabets (indices from 1)."""
    rules = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, _, value = tok.partition("=")
        name = name.strip()
        try:
            value = int(value)
        except ValueError:
            raise ShapeError(f"bad substitution value in {tok!r}") from None
        if name in ("a", "b"):
            rules.append((FAMILY_CODES[name], None, value))
        elif (name[:1] in ("a", "b") and name[1:].isdigit()
              and int(name[1:]) >= 1):
            rules.append((FAMILY_CODES[name[0]], int(name[1:]), value))
        else:
            raise ShapeError(f"bad substitution target in {tok!r}")
    return rules


def _apply_spec(p, rules):
    """Substitute the --spec values; the last rule naming a variable wins."""
    def image(var):
        out = None
        for fam, idx, value in rules:
            if fam == var[0] and idx in (None, var[1]):
                out = (value, None)
        return out
    return p.specialize(image) if rules else p


def _parse_shape(text):
    """Comma-separated parts; trailing zeros dropped.  Dented near-partitions
    are accepted here so the marked determinant stays reachable; ordinary
    commands validate partition order downstream."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ShapeError(f"bad shape {text!r}") from None
    if any(v < 0 for v in parts):
        raise ShapeError(f"negative part in {text!r}")
    return strip(parts)


def _get_shapes(args):
    outer = _parse_shape(args.shape)
    inner = _parse_shape(args.inner) if args.inner else ()
    return outer, inner


def _parse_flag_list(text, length, fill):
    """Exactly length flags, one per row of the shape (per column for
    column-flagged tableaux); fill for each when the option is absent."""
    if text is None:
        return (fill,) * length
    try:
        out = [INF if tok.strip() in ("inf", "oo") else int(tok)
               for tok in text.split(",")]
    except ValueError:
        raise ShapeError(f"bad flag list {text!r}") from None
    if len(out) != length:
        raise ShapeError(f"flag list {text!r} gives {len(out)} flags, "
                         f"expected {length}")
    return tuple(out)


def _parse_flags(args, length, n):
    """The flags (r, s) of --flags-r and --flags-s, length of each: r
    defaults to 1 and s to n (to 1 at n = 0, where every upper flag reads
    the same, so that no default flag is refused), checked by
    shapes.read_flags and read as a mark set's flags are, an infinite upper
    flag as n."""
    return read_flags(_parse_flag_list(args.flags_r, length, 1),
                      _parse_flag_list(args.flags_s, length, max(n, 1)),
                      length, n, marked=True)


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _default_deg(args, outer, inner):
    if args.deg is not None:
        return args.deg
    return max(sum(outer) - sum(inner), 0)


def _require_rows(n, outer):
    if n < len(outer):
        raise ShapeError(f"n = {n} is below the {len(outer)} rows "
                         f"of {tuple(outer)}; pass a larger --n")


def _refuse(command, names):
    """Exit 2 naming the options, passed to command, that it does not read."""
    if names:
        raise ShapeError(f"{command} takes no " + ", ".join(
            "--" + name.replace("_", "-") for name in names))


def _warn_degree(deg, outer, inner):
    want = sum(outer) - sum(inner)
    if deg < want:
        print(f"warning: --deg {deg} is below the cell count {want}; "
              "top-degree terms are truncated", file=sys.stderr)


# ---------------------------------------------------------------------------
# compute / expand / coeff / enumerate

def cmd_compute(args):
    if args.target == "s":
        # a Schur polynomial has no flagged or marked form and no parameters
        refused = [name for name in ("flags_r", "flags_s", "mark_set", "spec")
                   if getattr(args, name) is not None]
        if args.orientation == "col":
            refused.append("orientation")
        _refuse("compute s", refused)
    outer, inner = _get_shapes(args)
    n = args.n
    deg = _default_deg(args, outer, inner)
    _require_rows(n, outer)
    _warn_degree(deg, outer, inner)
    # flags, marks and col (the conjugate shape) need the determinant path
    flagged = (args.flags_r is not None or args.flags_s is not None
               or args.mark_set is not None or args.orientation == "col")
    if args.target == "s":
        # both shapes are partitions; a pair without containment gives 0
        value = schur_jt(partition(outer), partition(inner), n, deg)
    elif not (flagged or inner):
        value = G_schur(outer, n, deg) if args.target == "G" \
            else g_schur(outer, n, deg)
    else:
        r, s = _parse_flags(args, max(len(outer), len(inner), 1), n)
        if args.mark_set is not None:
            if (args.target, args.orientation) != ("g", "row"):
                raise ShapeError("mark sets apply to the row-flagged dual "
                                 "family only")
            value = g_marked_det(tuple(outer), inner, r, s,
                                 _parse_mark_set(args.mark_set), n, deg)
        elif args.target == "G":
            # G_{lam/mu} needs mu inside lam; the dual determinant and
            # s_{lam/mu} of a pair without containment are 0
            outer, inner = skew(outer, inner)
            value = G_flagged_det(outer, inner, r, s,
                                  args.orientation, n, deg)
        else:
            value = g_flagged_det(outer, inner, r, s,
                                  args.orientation, n, deg)
    value = _apply_spec(value, _parse_spec(args.spec or ""))
    return render_poly(value, args.format), 0


def _shape_label(nu, rho=()):
    nu_txt = ",".join(str(v) for v in nu) or "0"
    if not rho:
        return f"s[{nu_txt}]"
    rho_txt = ",".join(str(v) for v in rho)
    return f"s[{nu_txt}/{rho_txt}]"


def cmd_expand(args):
    outer, inner = _get_shapes(args)
    # the g expansions are finite and have no x part, so they have no
    # budget and no degree
    ignored = {"s": ["inner"] if inner else [],
               "g": [name for name in ("budget", "deg")
                     if getattr(args, name) is not None]}
    _refuse(f"expand {args.target}", ignored.get(args.target, []))
    n = args.n
    deg = _default_deg(args, outer, inner)
    budget = args.budget if args.budget is not None else deg
    lines = []
    if args.target == "s":
        lam = partition(outer)
        for basis, top, title in (
                ("G", size(lam) + budget,
                 f"in G basis (sizes up to {size(lam) + budget}):"),
                ("g", size(lam), "in g basis:")):
            lines.append(title)
            table = schur_in_grothendieck(lam, basis, top, n, deg)
            for mu in sorted(table):
                lines.append(f"  {basis}[{','.join(map(str, mu)) or '0'}]: "
                             f"{render_poly(table[mu], args.format)}")
        return "\n".join(lines), 0
    if inner:
        outer, inner = skew(outer, inner)
        kind = "G_h" if args.target == "G" else "g_h"
        expansion = skew_schur_expansion(outer, inner, kind, budget, n, deg)
        lines.append(f"prefactor: {render_poly(expansion.prefactor, args.format)}")
        entries = expansion.entries
        for nu, rho in sorted(entries):
            lines.append(f"{_shape_label(nu, rho)}: "
                         f"{render_poly(entries[(nu, rho)], args.format)}")
        return "\n".join(lines), 0
    lam = partition(outer)
    if args.target == "G":
        table = coefficient_table(lambda mu: C_coeff(lam, mu, n, deg),
                                  partitions_above(lam, size(lam) + budget))
    else:
        table = coefficient_table(lambda mu: c_coeff(lam, mu, n, deg),
                                  partitions_between((), lam))
    for mu, coef in table.items():
        lines.append(f"{_shape_label(mu)}: {render_poly(coef, args.format)}")
    return "\n".join(lines), 0


def cmd_coeff(args):
    outer, inner = _get_shapes(args)
    n, deg = args.n, args.deg
    if args.target == "C":
        value = C_coeff(outer, inner, n, deg)
    elif args.target == "c":
        value = c_coeff(outer, inner, n, deg)
    else:
        value = hall_pairing(outer, inner, n, deg)
    value = _apply_spec(value, _parse_spec(args.spec or ""))
    return render_poly(value, args.format), 0


def _grid_lines(outer, cells_text):
    width = max((len(t) for t in cells_text.values()), default=1)
    lines = []
    for i in range(1, len(outer) + 1):
        row = []
        for j in range(1, part(outer, i) + 1):
            txt = cells_text.get((i, j), ".")
            row.append(txt.rjust(width))
        lines.append(" ".join(row).rstrip())
    return lines


# Options each enumerate target does not read: passing one is an error.
_ENUMERATE_IGNORES = {"G": ("variant", "mark_set"), "g": ("deg",),
                      "matsumura": ("variant", "mark_set")}


def cmd_enumerate(args):
    refused = [name for name in _ENUMERATE_IGNORES[args.target]
               if getattr(args, name) is not None]
    if args.target == "matsumura" and args.orientation == "col":
        refused.append("orientation")  # its flags are per row
    if args.format != "text":
        refused.append("format")  # grids print as text only
    _refuse(f"enumerate {args.target}", refused)
    outer, inner = _get_shapes(args)
    n = args.n
    # sum, not size: g takes a dented outer shape
    deg = args.deg if args.deg is not None else sum(outer) - sum(inner) + 2
    _require_rows(n, outer)
    _warn_degree(deg, outer, inner)
    # a column-flagged tableau bounds cell (i, j) by the flags of column j
    k = max((*outer, *inner, 1)) if args.orientation == "col" \
        else max(len(tuple(outer)), len(partition(inner)), 1)
    flags = _parse_flags(args, k, n)
    # each generator checks the shapes (a dented outer only for g)
    if args.target == "G":
        fillings = gen_mmsvt(outer, inner, n, deg, flags=flags,
                             orientation=args.orientation)
        label = lambda elems: "".join(str(v) + ("*" if marked else "")
                                      for v, marked in elems)
    elif args.target == "g":
        mark_set = _parse_mark_set(args.mark_set) \
            if args.mark_set is not None else None
        fillings = gen_mrpp(outer, inner, n, variant=args.variant or "left",
                            flags=flags, orientation=args.orientation,
                            mark_set=mark_set)
        label = lambda elem: str(elem[0]) + ("*" if elem[1] else "")
    else:
        fillings = gen_fsvt(outer, inner, n, deg, flags)
        label = lambda st: "".join(str(v) for v in st)
    blocks = [_grid_lines(tuple(outer),
                          {cell: label(v) for cell, v in filling.items()})
              for filling in fillings]
    out = []
    for block in blocks:
        out.extend(block or ["(empty shape)"])
        out.append("")
    out.append(f"total: {len(blocks)}")
    return "\n".join(out), 0


# ---------------------------------------------------------------------------
# verification suites (shared with the acceptance tests)
#
# Each suite is a generator: it yields (label, got, want) for every identity
# it asserts, with want = True for a predicate, and returns its summary
# lines.  Checks outside a theorem's hypotheses are counted in the summary,
# never yielded.  _run_suite does the comparing.

def verify_duality(max_size=4):
    """<G_lam, g_mu> = delta, both as the coefficient sum and the closed
    determinant (the two are compared inside hall_pairing)."""
    n, deg = 1, 0  # the pairing has no x part
    shapes = list(partitions_up_to(max_size))
    for lam in shapes:
        for mu in shapes:
            yield (f"duality at lam={lam}, mu={mu}",
                   hall_pairing(lam, mu, n, deg),
                   TruncPoly.const(n, deg, 1 if lam == mu else 0))
    return [f"duality: {len(shapes) ** 2} pairs equal delta"]


# verify G/g: the values of n swept
CONCORDANCE_NS = (1, 2, 3)


def verify_concordance(kind, max_size=4, deg=6):
    """Jacobi-Trudi, modified Jacobi-Trudi, flagged determinant (r=1, s=n)
    and tableau enumeration against the bialternant, for every shape with at
    most max_size cells fitting in n rows.  The modified value is the flagged
    determinant with n rows, so the flagged one, with max(len(lam), 1) rows,
    is evaluated only when that is fewer than n."""
    bialternant, jt, modified, flagged, enum = (
        (G_bialternant, G_jt, G_jt_modified, G_flagged_det, enum_mmsvt)
        if kind == "G" else
        (g_bialternant, g_jt, g_jt_modified, g_flagged_det, enum_mrpp))
    checked = 0
    for n in CONCORDANCE_NS:
        for k in range(max_size + 1):
            for lam in partitions_of(k, max_len=n):
                at = f"{kind} concordance at lam={lam}, n={n}"
                want = bialternant(lam, n, deg)
                yield f"{at}: jacobi-trudi", jt(lam, n, deg), want
                yield (f"{at}: modified jacobi-trudi", modified(lam, n, deg),
                       want)
                m = max(len(lam), 1)
                if m < n:
                    yield (f"{at}: flagged determinant",
                           flagged(lam, (), (1,) * m, (n,) * m, "row", n,
                                   deg), want)
                yield f"{at}: tableau enumeration", enum(lam, (), n, deg), want
                checked += 1
    return [f"{kind} concordance: {checked} shapes agree five ways"]


def verify_coefficients(kind, max_size=4):
    """Determinant = tableau enumeration = lattice-path sum, plus the
    nonnegativity of the sign-adjusted specialization."""
    n, deg = 1, 0  # the coefficients have no x part
    checked = 0
    for big in partitions_up_to(max_size):
        for small in partitions_between((), big):
            if kind == "C":
                det_value = C_coeff(small, big, n, deg)
                tab = enum_elegant(big, small, n, deg, "inelegant", "C")
                paths = nonintersecting_coeff(small, big, "C", n, deg)
                flip_fam = BETA
            else:
                det_value = c_coeff(big, small, n, deg)
                tab = enum_elegant(big, small, n, deg, "elegant", "c")
                paths = nonintersecting_coeff(big, small, "c", n, deg)
                flip_fam = ALPHA
            at = f"lam={small}, mu={big}"
            yield f"{kind} at {at}: tableaux", tab, det_value
            yield f"{kind} at {at}: lattice paths", paths, det_value
            signed = det_value.specialize(
                lambda var: (-1, var) if var[0] == flip_fam else None)
            yield (f"{kind} positivity at {at}",
                   all(c >= 0 for c in signed.terms.values()), True)
            checked += 1
    return [f"{kind}: {checked} pairs agree three ways and the "
            "sign-adjusted values are nonnegative"]


def verify_cauchy(budget=3):
    yield "cauchy kernel against the G*g sum", cauchy_check(2, 2, budget), True
    return [f"cauchy: kernel matches the G*g sum to bidegree {budget}"]


def verify_omega(max_size=4, budget=2):
    """omega_check for every outer shape up to max_size cells and inner
    shape up to two cells, in two x variables truncated at degree 2."""
    n = deg = 2
    checked = 0
    for lam in partitions_up_to(max_size):
        for mu in partitions_up_to(2):
            if not contains(mu, lam):
                continue
            for kind in ("G", "g"):
                yield (f"omega for {kind} at lam={lam}, mu={mu}",
                       omega_check(lam, mu, kind, budget, n, deg), True)
                checked += 1
    return [f"omega: {checked} expansion-level involution checks pass"]


# Largest flag value swept by the flagged and Matsumura suites, and how
# often they re-evaluate a raw flag vector through the direct determinant or
# enumeration that backs a sweep.
FLAG_MAX = 3
CROSSCHECK_EVERY = 97


def _flag_space(m):
    """Every flag vector of length m with entries in 1..FLAG_MAX, all-ones
    first."""
    return list(itertools.product(range(1, FLAG_MAX + 1), repeat=m))


def _flag_pairs(m):
    """Every pair of flag vectors of length m with entries in 1..FLAG_MAX."""
    return itertools.product(_flag_space(m), repeat=2)


def _split(space, holds):
    """The lower and the upper vectors of space that satisfy holds(r, s)
    with all-ones as the partner.  row_monotone and col_monotone are each a
    condition on r alone and one on s alone, both met by all-ones (for
    col_monotone when the shapes are partitions), so the pairs satisfying
    them are the product of the two lists, in raw order."""
    ones = space[0]
    return ([r for r in space if holds(r, ones)],
            [s for s in space if holds(ones, s)])


def _collapse_to_single_beta(p, sign):
    return p.specialize(
        lambda var: (0, None) if var[0] == ALPHA else (sign, (BETA, 1)))


def verify_matsumura(max_size=4):
    """Set-valued enumeration = single-beta determinant on every skew shape
    with at most 3 cells in three x variables, and exactly one sign of the
    collapsed flagged determinant reproduces it; the surviving convention is
    reported.  Only flags inside Matsumura's hypothesis (r and s weakly
    increase wherever mu_i < lam_{i+1}) are asserted; the others are
    evaluated and reported, never asserted.

    Per shape pair, FlagSweeps of kinds M and G give the determinants and
    one TableauSweep of family "fsvt", an unflagged set-valued enumeration
    filtered by the flags, gives the tableaux; every CROSSCHECK_EVERY-th
    flag pair is re-enumerated through enum_fsvt as a cross-check."""
    if max_size < 1:
        raise ShapeError("verify matsumura needs --max-size >= 1: it sweeps "
                         "skew shapes with at least one cell")
    n = 3
    checked = outside_agree = outside_differ = tick = 0
    minus_ok = plus_ok = True
    for lam in partitions_up_to(max_size):
        if len(lam) > n:
            continue
        for mu in partitions_between((), lam):
            if not 0 < size(lam) - size(mu) <= 3:
                continue
            deg = size(lam) - size(mu) + 2
            sweep = FlagSweep("G", lam, mu, "row", n, deg)
            single_sweep = FlagSweep("M", lam, mu, "row", n, deg)
            tableaux = TableauSweep("fsvt", lam, mu, n, deg)
            # r outer: each FlagSweep keeps the minors of one r-prefix
            for r, s in _flag_pairs(len(lam)):
                if any(a > b for a, b in zip(r, s)):
                    continue
                at = f"{lam}/{mu}, r={r}, s={s}"
                single = single_sweep.value(r, s)
                enum = tableaux.value(r, s)
                tick += 1
                if tick % CROSSCHECK_EVERY == 0:
                    yield (f"cross-check set-valued enumeration at {at}",
                           enum_fsvt(lam, mu, n, deg, (r, s)), enum)
                if not row_monotone(lam, mu, r, s):
                    outside_agree += single == enum
                    outside_differ += single != enum
                    continue
                yield f"matsumura at {at}", single, enum
                flagged = sweep.value(r, s)
                # a convention that failed once cannot survive: stop
                # collapsing under it
                minus_ok = minus_ok and \
                    single == _collapse_to_single_beta(flagged, -1)
                plus_ok = plus_ok and \
                    single == _collapse_to_single_beta(flagged, +1)
                checked += 1
    yield (f"matsumura: expected exactly one sign convention to survive, "
           f"got minus={minus_ok}, plus={plus_ok}", minus_ok != plus_ok, True)
    sign = "b = (-beta, -beta, ...)" if minus_ok else "b = (beta, beta, ...)"
    return [f"matsumura: {checked} flagged shapes match the set-valued "
            f"enumeration; surviving convention: {sign}",
            f"outside the flag hypothesis (reported, not asserted): "
            f"{outside_agree} flag pairs agree, {outside_differ} differ"]


def _dented_shapes(max_size, max_len):
    out = []
    for length in range(1, max_len + 1):
        for lam in itertools.product(range(1, max_size + 1), repeat=length):
            if sum(lam) <= max_size and dent_index(lam) is not None:
                out.append(lam)
    return out


# verify flagged: the values of n swept and the n of the marked duals
FLAGGED_NS = (1, 2, 3)
MARKED_N = 2

# (counter key, kind, orientation, hypothesis) in evaluation order; the G
# rows apply only when the inner shape is contained in the outer one
_FLAGGED_JOBS = (("row dual", "g", "row", "row"),
                 ("col dual", "g", "col", "row"),
                 ("row G", "G", "row", "row"),
                 ("col G", "G", "col", "col"))


def _tableau_reference(kind, orientation, lam, mu, n, deg):
    """The tableau enumeration a flagged determinant must equal, as a
    function of the flags (r, s); zero when mu is not contained in lam.
    Column flags enumerate the conjugate shape."""
    if not contains(mu, lam):
        zero = TruncPoly.zero(n, deg)
        return lambda r, s: zero
    if orientation == "col":
        lam, mu = conjugate(lam), conjugate(mu)
    return TableauSweep("mmsvt" if kind == "G" else "mrpp", lam, mu, n, deg,
                        orientation).value


def _flag_classes(lam, mu, contained):
    """Yield (n, {hypothesis: [(r, s)]}) for each n in FLAGGED_NS: the
    classes flag_class(r, s, n) of the flags satisfying the hypothesis.
    Determinant values depend on the flags only through the class, as
    shapes.read_flags reads them.  The hypotheses do not depend on n;
    "weak" is the weakened col G condition where the col one fails, which
    loosens only the condition on r.

    Each hypothesis holds on a product of lower and upper vectors (_split),
    and flag_class caps each vector alone, so the classes of a product are
    the product of the vectors' classes: the capped lower vectors, then the
    capped upper ones, each in the raw order of their first vectors."""
    space = _flag_space(max(len(lam), len(mu), 1))
    factors = {"row": _split(space, functools.partial(row_monotone, lam, mu))}
    if contained:
        col = functools.partial(col_monotone, lam, mu)
        factors["col"] = col_r, col_s = _split(space, col)
        loose_r, _ = _split(space, functools.partial(col, slack=1))
        strict = set(col_r)
        factors["weak"] = [r for r in loose_r if r not in strict], col_s
    for n in FLAGGED_NS:
        classes = {"row": [], "col": [], "weak": []}
        for hypothesis, (lower, upper) in factors.items():
            classes[hypothesis] = list(itertools.product(
                dict.fromkeys(flag_class(r, r, n)[0] for r in lower),
                dict.fromkeys(flag_class(s, s, n)[1] for s in upper)))
        yield n, classes


# Case labels, formatted by _run_suite only when a case fails.
_FLAGGED_AT = "{} at lam={}, mu={}, n={}, r={}, s={}"
_MARKED_AT = "{} at lam={}, mu={}, I={}, r={}, s={}"


def verify_flagged(max_size=4):
    """Flagged determinants against tableau enumerations on every flag pair
    satisfying the respective monotonicity hypotheses.

    One (kind, orientation) job runs at a time per shape pair, with one
    FlagSweep for the determinants and one TableauSweep, an unflagged
    enumeration filtered by the flags, for the tableaux.  Each class of
    flags with equal determinant values (the flags as shapes.read_flags
    reads them) is checked once, at its capped flags.  The classes are
    found once per (lam, mu, n) and hypothesis, from the lower and the
    upper vectors the hypothesis admits (_flag_classes), and shared by the
    jobs.  A sample of them is re-evaluated through the plain determinant
    functions as a cross-check.
    The weakened lower-flag condition for column-flagged G (one extra unit
    of slack) is evaluated and reported, never asserted.  The boundary-marked
    duals evaluate a FlagSweep with the mark set against a TableauSweep with
    the same mark set on every row-monotone flag pair, and every
    CROSSCHECK_EVERY-th of them against enum_mrpp.  Labels are format tuples
    (_run_suite).
    """
    counts = {"row G": 0, "col G": 0, "row dual": 0, "col dual": 0,
              "dual without containment": 0, "marked dual": 0,
              "marked dual on properly dented shapes": 0}
    crosschecked = weak_agree = weak_differ = tick = 0
    for lam in partitions_up_to(max_size):
        deg = size(lam) + 2
        for mu in partitions_up_to(max_size):
            contained = contains(mu, lam)
            for n, classes in _flag_classes(lam, mu, contained):
                for key, kind, orientation, hypothesis in _FLAGGED_JOBS:
                    if not (contained or kind == "g"):
                        continue
                    sweep = FlagSweep(kind, lam, mu, orientation, n, deg)
                    reference = _tableau_reference(kind, orientation, lam,
                                                   mu, n, deg)
                    if key == "col G":
                        for r, s in classes["weak"]:
                            if sweep.value(r, s) == reference(r, s):
                                weak_agree += 1
                            else:
                                weak_differ += 1
                    for r, s in classes[hypothesis]:
                        value = sweep.value(r, s)
                        yield ((_FLAGGED_AT, key, lam, mu, n, r, s), value,
                               reference(r, s))
                        counts[key if contained
                               else "dual without containment"] += 1
                        tick += 1
                        if tick % CROSSCHECK_EVERY == 0:
                            direct = (G_flagged_det if kind == "G" else
                                      g_flagged_det)(
                                lam, mu, r, s, orientation, n, deg)
                            yield ((_FLAGGED_AT, f"cross-check {key}", lam,
                                    mu, n, r, s), direct, value)
                            crosschecked += 1
    # boundary-marked duals; dented shapes included
    for lam in _dented_shapes(max_size, 3):
        deg = sum(lam) + 2
        dented = dent_index(lam) > 1
        for mu in partitions_up_to(sum(lam)):
            if len(mu) > len(lam) or not contains(mu, lam):
                continue
            lower, upper = _split(_flag_space(len(lam)),
                                  functools.partial(row_monotone, lam, mu))
            for mark_set in valid_mark_sets(lam):
                marks = sorted(mark_set)
                sweep = FlagSweep("g", lam, mu, "row", MARKED_N, deg,
                                  marks=mark_set)
                tableaux = TableauSweep("mrpp", lam, mu, MARKED_N, deg,
                                        mark_set=mark_set)
                for r, s in itertools.product(lower, upper):
                    reference = tableaux.value(r, s)
                    yield ((_MARKED_AT, "marked dual", lam, mu, marks, r, s),
                           sweep.value(r, s), reference)
                    counts["marked dual"] += 1
                    if dented:
                        counts["marked dual on properly dented shapes"] += 1
                    if counts["marked dual"] % CROSSCHECK_EVERY == 0:
                        yield ((_MARKED_AT, "cross-check marked dual", lam,
                                mu, marks, r, s),
                               enum_mrpp(lam, mu, MARKED_N, deg, flags=(r, s),
                                         mark_set=mark_set), reference)
    lines = [f"{key}: {count} flagged identities hold"
             for key, count in counts.items()]
    lines.append(f"cross-checked {crosschecked} raw flag vectors against "
                 "the direct determinants")
    lines.append(f"weakened col G condition (reported, not asserted): "
                 f"{weak_agree} extra flag pairs agree, {weak_differ} "
                 "differ")
    return lines


def _run_suite(cases):
    """(exit status, output lines) of one suite: its summary, or the label
    of the first case with got != want and, for polynomials, got - want.
    A label is a string, or a tuple (format, *args) for str.format, which
    spares a suite with many cases formatting labels that never print."""
    while True:
        try:
            label, got, want = next(cases)
        except StopIteration as done:
            return 0, done.value
        if got != want:
            if not isinstance(label, str):
                label = label[0].format(*label[1:])
            lines = [f"FAIL {label}"]
            if isinstance(got, TruncPoly):
                lines.append(f"difference: {render_poly(got - want)}")
            return 1, lines


# Each verify suite's function and the options it reads, named as its
# keyword arguments; an option not passed takes the function's default, and
# passing one the suite does not read is an error.
VERIFY_SUITES = {
    "duality": (verify_duality, ("max_size",)),
    "G": (functools.partial(verify_concordance, "G"), ("max_size", "deg")),
    "g": (functools.partial(verify_concordance, "g"), ("max_size", "deg")),
    "C": (functools.partial(verify_coefficients, "C"), ("max_size",)),
    "c": (functools.partial(verify_coefficients, "c"), ("max_size",)),
    "cauchy": (verify_cauchy, ("budget",)),
    "omega": (verify_omega, ("max_size", "budget")),
    "matsumura": (verify_matsumura, ("max_size",)),
    "flagged": (verify_flagged, ("max_size",))}


def cmd_verify(args):
    suite, reads = VERIFY_SUITES[args.target]
    passed = {name: value for name, value in vars(args).items()
              if name in ("max_size", "budget", "deg") and value is not None}
    _refuse(f"verify {args.target}",
            [name for name in passed if name not in reads])
    status, lines = _run_suite(suite(**passed))
    return "\n".join(lines), status


# ---------------------------------------------------------------------------
# parser

def _add_common(p, need_n=True):
    p.add_argument("--shape", required=True,
                   help="outer shape as comma-separated parts; 0 for empty")
    p.add_argument("--inner", default="",
                   help="inner shape for skew computations (default empty)")
    if need_n:
        p.add_argument("--n", type=_nonnegative, required=True,
                       help="number of x variables; must cover the shape rows")
    p.add_argument("--deg", type=_nonnegative, default=None,
                   help="x-degree truncation (default: cell count)")
    p.add_argument("--format", choices=["text", "latex", "json-like"],
                   default="text", help="output format (default text)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grothpoly",
        description="Exact refined Grothendieck polynomial calculator: "
                    "compute, expand, verify, and enumerate.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute",
                       help="evaluate a polynomial and print it",
                       description="Evaluate G, g or s and print it.  "
                                   "Unflagged G and g without --inner use "
                                   "the Schur expansion sum C_{lam,mu} "
                                   "s_mu (sum c_{lam,mu} s_mu for g); "
                                   "flagged, marked and skew inputs use "
                                   "their determinants.  Jacobi-Trudi, "
                                   "bialternant and tableau evaluations "
                                   "are checked by verify G / verify g.")
    p.add_argument("target", choices=["G", "g", "s"],
                   help="G, dual g, or Schur s")
    _add_common(p)
    p.add_argument("--flags-r", default=None,
                   help="lower flags, one per shape row, e.g. 1,1,2 "
                        "(default all 1)")
    p.add_argument("--flags-s", default=None,
                   help="upper flags, one per shape row, e.g. 2,3,inf "
                        "(default all n)")
    p.add_argument("--orientation", choices=["row", "col"], default="row",
                   help="flag orientation (default row); col evaluates the "
                        "conjugate shape outer'/inner'")
    p.add_argument("--mark-set", default=None,
                   help="boundary mark rows for the marked dual determinant")
    p.add_argument("--spec", default=None,
                   help="parameter substitutions, e.g. a=0,b=1")

    p = sub.add_parser("expand", help="Schur-basis expansions")
    p.add_argument("target", choices=["G", "g", "s"],
                   help="expand G or g in Schur terms, or s in the G/g bases")
    _add_common(p, need_n=False)
    p.add_argument("--n", type=_nonnegative, default=1,
                   help="variable count for coefficient contexts (default 1)")
    p.add_argument("--budget", type=_nonnegative, default=None,
                   help="extra size above |shape|, G and s (default --deg)")

    p = sub.add_parser("coeff", help="single expansion coefficients")
    p.add_argument("target", choices=["C", "c", "hall"],
                   help="Schur coefficient of G (C), of g (c), or the "
                        "pairing <G,g>")
    p.add_argument("--shape", required=True,
                   help="first index (the G/g shape)")
    p.add_argument("--inner", required=True,
                   help="second index (the Schur or pairing shape)")
    p.add_argument("--n", type=_nonnegative, default=1,
                   help="variable context; the value has no x part")
    p.add_argument("--deg", type=_nonnegative, default=0,
                   help="x-degree truncation (default 0)")
    p.add_argument("--format", choices=["text", "latex", "json-like"],
                   default="text")
    p.add_argument("--spec", default=None,
                   help="parameter substitutions, e.g. a=0,b=1")

    p = sub.add_parser("verify", help="verification suites",
                       description="Check one family of the paper's "
                                   "identities and print the suite's "
                                   "counts.  A failing suite prints its "
                                   "first failing case, then got - want "
                                   "when the values are polynomials, and "
                                   "exits 1.")
    p.add_argument("target", choices=list(VERIFY_SUITES),
                   help="which identity family to check; duality checks "
                        "the Hall pairing <G_lam, g_mu> = delta")
    p.add_argument("--max-size", type=_nonnegative, default=None,
                   help="largest shape size swept (default per suite)")
    p.add_argument("--budget", type=_nonnegative, default=None,
                   help="budget of cauchy and omega (default per suite)")
    p.add_argument("--deg", type=_nonnegative, default=None,
                   help="x-degree of verify G and g (default per suite)")

    p = sub.add_parser("enumerate",
                       help="stream tableaux as text grids, one per block; "
                            "marks print as a trailing asterisk")
    p.add_argument("target", choices=["G", "g", "matsumura"],
                   help="multiset tableaux for G, marked reverse plane "
                        "partitions for g, set-valued fillings for matsumura")
    _add_common(p)
    p.add_argument("--flags-r", default=None,
                   help="lower flags, one per shape row (per column with "
                        "--orientation col)")
    p.add_argument("--flags-s", default=None,
                   help="upper flags, one per shape row (per column with "
                        "--orientation col)")
    p.add_argument("--orientation", choices=["row", "col"], default="row",
                   help="flag orientation for G and g (default row)")
    p.add_argument("--variant", choices=["left", "right", "bottom"],
                   default=None, help="marking rule (dual family only; "
                                      "default left)")
    p.add_argument("--mark-set", default=None,
                   help="boundary mark rows (dual family only)")
    return parser


DISPATCH = {"compute": cmd_compute, "expand": cmd_expand, "coeff": cmd_coeff,
            "verify": cmd_verify, "enumerate": cmd_enumerate}


def run(argv):
    """Parse and execute; returns (exit status, output text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), ""
    try:
        out, status = DISPATCH[args.verb](args)
    except (InternalCheckError, DivisibilityError) as exc:
        return 3, f"internal inconsistency: {exc}"
    except (ShapeError, ValueError, OverflowError) as exc:
        return 2, f"error: {exc}"
    return status, out


def main() -> None:
    status, out = run(sys.argv[1:])
    if out:
        print(out)
    sys.exit(status)


if __name__ == "__main__":
    main()
