from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import pkgutil
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grothpoly
from grothpoly import cli, grothendieck, shapes, symfunc
from grothpoly.cli import render_poly
from grothpoly.grothendieck import (_SKEW_COEFF, C_coeff, FlagSweep,
                                    G_bialternant, G_flagged_det, G_jt,
                                    G_jt_modified, G_schur, _gen_rho_below,
                                    c_coeff, cauchy_check,
                                    col_monotone, dual_parameters,
                                    g_bialternant, g_flagged_det, g_jt,
                                    g_jt_modified, g_marked_det, g_schur,
                                    hall_pairing, matsumura_det, omega_check,
                                    row_monotone, schur_in_grothendieck,
                                    skew_coeff, skew_schur_expansion,
                                    valid_mark_sets)
from grothpoly.ring import ALPHA, BETA, TruncPoly, X, det
from grothpoly.shapes import (INF, ShapeError, conjugate, contains,
                              flag_class, partitions_between,
                              partitions_up_to, strip)
from grothpoly.tableaux import (TableauSweep, enum_elegant, enum_fsvt,
                                enum_mmsvt, enum_mrpp, gen_fsvt, gen_mrpp)
from schur_oracle import schur_expand


def xv(n, deg, i):
    return TruncPoly.var(n, deg, X, i)


def av(n, deg, i):
    return TruncPoly.var(n, deg, ALPHA, i)


def bv(n, deg, i):
    return TruncPoly.var(n, deg, BETA, i)


def one(n, deg):
    return TruncPoly.const(n, deg, 1)


def param_free(p):
    """Specialize every alpha and beta to zero."""
    return p.specialize(lambda var: (0, None))


def test_G_bialternant_trivial_cases():
    n, deg = 2, 3
    assert G_bialternant((), n, deg) == one(n, deg)
    for lam in [(1,), (2,), (2, 1)]:
        limit = param_free(G_bialternant(lam, n, deg))
        assert limit == symfunc.schur_jt(lam, (), n, deg)
    with pytest.raises(ShapeError):
        G_bialternant((1, 1, 1), 2, 2)


def test_G_bialternant_single_box():
    n, deg = 2, 2
    value = G_bialternant((1,), n, deg)
    x1, x2, a1, b1 = xv(n, deg, 1), xv(n, deg, 2), av(n, deg, 1), bv(n, deg, 1)
    assert value == (x1 + x2) + a1 * (x1**2 + x1 * x2 + x2**2) - b1 * x1 * x2
    assert value == enum_mmsvt((1,), (), n, deg)


def test_g_bialternant_examples():
    assert g_bialternant((), 2, 2) == one(2, 2)
    for n in (1, 2, 3):
        assert g_bialternant((1,), n, 2) == symfunc.schur_jt((1,), (), n, 2)
    value = g_bialternant((2,), 1, 2)
    assert value == xv(1, 2, 1) ** 2 - av(1, 2, 1) * xv(1, 2, 1)
    assert value == enum_mrpp((2,), (), 1, 2)


def test_jacobi_trudi_matches_bialternant():
    deg = 4
    for n in (1, 2):
        for lam in [lam for lam in partitions_up_to(3) if len(lam) <= n]:
            assert G_jt(lam, n, deg) == G_bialternant(lam, n, deg)
            assert g_jt(lam, n, deg) == g_bialternant(lam, n, deg)


def test_jacobi_trudi_matches_bialternant_in_four_variables():
    # six linear factors, divided out in turn
    n = 4
    for lam in [(), (1,), (2, 1), (1, 1, 1, 1)]:
        deg = sum(lam) + 1
        assert G_jt(lam, n, deg) == G_bialternant(lam, n, deg), lam
        assert g_jt(lam, n, deg) == g_bialternant(lam, n, deg), lam


def test_schur_expansion_matches_jacobi_trudi():
    cases = 0
    for lam in partitions_up_to(4):
        for n in range(max(len(lam), 1), 4):
            for deg in range(sum(lam) + 3):
                assert G_schur(lam, n, deg) == G_jt(lam, n, deg), \
                    (lam, n, deg)
                assert g_schur(lam, n, deg) == g_jt(lam, n, deg), \
                    (lam, n, deg)
                cases += 2
    assert cases == 276


def test_schur_expansion_rejects_shape_longer_than_n():
    with pytest.raises(ShapeError):
        G_schur((1, 1), 1, 2)
    with pytest.raises(ShapeError):
        g_schur((1, 1), 1, 2)


def test_modified_jacobi_trudi():
    assert G_jt_modified((), 1, 3) == one(1, 3)
    assert G_jt_modified((1,), 2, 3) == G_jt((1,), 2, 3)
    assert g_jt_modified((2, 1), 2, 4) == g_jt((2, 1), 2, 4)
    assert G_jt_modified((2, 1), 2, 4) == G_jt((2, 1), 2, 4)
    assert g_jt_modified((), 1, 3) == one(1, 3)


def test_five_way_concordance_sample():
    n, deg = 2, 4
    for lam in [(2,), (2, 1), (2, 2)]:
        r, s = (1,) * n, (n,) * n
        values = [G_bialternant(lam, n, deg), G_jt(lam, n, deg),
                  G_jt_modified(lam, n, deg),
                  G_flagged_det(lam, (), r, s, "row", n, deg),
                  enum_mmsvt(lam, (), n, deg)]
        assert all(v == values[0] for v in values)
        duals = [g_bialternant(lam, n, deg), g_jt(lam, n, deg),
                 g_jt_modified(lam, n, deg),
                 g_flagged_det(lam, (), r, s, "row", n, deg),
                 enum_mrpp(lam, (), n, deg)]
        assert all(v == duals[0] for v in duals)


def test_variable_stability():
    deg = 4
    for lam in [(1,), (2, 1), (3,)]:
        assert G_jt(lam, 3, deg).restrict_n(2) == G_jt(lam, 2, deg)
        assert g_jt(lam, 3, deg).restrict_n(2) == g_jt(lam, 2, deg)


def test_schur_expansion_triangularity():
    n, deg = 2, 4
    for lam in [(1,), (2,), (2, 1)]:
        expansion = schur_expand(G_jt(lam, n, deg))
        for mu, coef in expansion.items():
            assert contains(lam, mu)
            assert coef == C_coeff(lam, mu, n, deg)
        dual = schur_expand(g_jt(lam, n, deg))
        for mu, coef in dual.items():
            assert contains(mu, lam)
            assert coef == c_coeff(lam, mu, n, deg)
        assert dual[lam] == one(n, deg)


def test_coefficient_examples():
    n, deg = 1, 0
    assert C_coeff((1,), (2,), n, deg) == av(n, deg, 1)
    assert C_coeff((1,), (1, 1), n, deg) == -bv(n, deg, 1)
    assert c_coeff((2,), (1,), n, deg) == -av(n, deg, 1)
    assert c_coeff((1, 1), (1,), n, deg) == bv(n, deg, 1)
    for lam in [(), (1,), (2, 1)]:
        assert C_coeff(lam, lam, n, deg) == one(n, deg)
        assert c_coeff(lam, lam, n, deg) == one(n, deg)
    # vanishing outside the containment order
    assert C_coeff((2,), (1, 1), n, deg).is_zero()
    assert c_coeff((1, 1), (2,), n, deg).is_zero()


def test_coefficients_match_tableau_enumerations():
    n, deg = 1, 0
    for big in partitions_up_to(4):
        for small in partitions_between((), big):
            assert (C_coeff(small, big, n, deg)
                    == enum_elegant(big, small, n, deg, "inelegant", "C"))
            assert (c_coeff(big, small, n, deg)
                    == enum_elegant(big, small, n, deg, "elegant", "c"))


def test_schur_positivity_of_specialized_coefficients():
    n, deg = 1, 0
    for big in partitions_up_to(4):
        for small in partitions_between((), big):
            cval = dual_parameters(dual_parameters(
                C_coeff(small, big, n, deg)))
            # C at (a, -b): negate every beta
            flipped = C_coeff(small, big, n, deg).specialize(
                lambda var: (-1, var) if var[0] == BETA else None)
            assert all(c > 0 for c in flipped.terms.values())
            dual = c_coeff(big, small, n, deg).specialize(
                lambda var: (-1, var) if var[0] == ALPHA else None)
            assert all(c > 0 for c in dual.terms.values())
            assert cval == C_coeff(small, big, n, deg)


def test_hall_pairing_duality():
    n, deg = 1, 0
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            expected = one(n, deg) if lam == mu else TruncPoly.zero(n, deg)
            assert hall_pairing(lam, mu, n, deg) == expected


def test_hall_pairing_two_term_cancellation():
    n, deg = 1, 0
    first = C_coeff((1,), (1,), n, deg) * c_coeff((2,), (1,), n, deg)
    second = C_coeff((1,), (2,), n, deg) * c_coeff((2,), (2,), n, deg)
    assert first == -av(n, deg, 1)
    assert second == av(n, deg, 1)
    assert hall_pairing((1,), (2,), n, deg).is_zero()
    # lam not contained in mu: the sum is empty
    assert hall_pairing((2,), (1,), n, deg).is_zero()


def test_cauchy_identity(monkeypatch):
    assert cauchy_check(1, 1, 0)
    assert cauchy_check(1, 1, 2)
    assert cauchy_check(2, 1, 2)
    assert cauchy_check(1, 2, 2)
    assert cauchy_check(2, 2, 2)
    # one G_lam perturbed fails the check: doubled, or by x_1^2, which
    # times g_(1)(y) lies on the edge of the compared box at bound 2
    jt = grothendieck.G_jt
    for extra in (lambda n, deg: jt((1,), n, deg),
                  lambda n, deg: xv(n, deg, 1) ** 2):
        monkeypatch.setattr(grothendieck, "G_jt", lambda lam, n, deg: (
            jt(lam, n, deg) + extra(n, deg) if lam == (1,)
            else jt(lam, n, deg)))
        assert not cauchy_check(2, 2, 2)


def test_schur_in_grothendieck_maps():
    n, deg = 1, 0
    assert schur_in_grothendieck((), "G", 2, n, deg) == {(): one(n, deg)}
    assert schur_in_grothendieck((), "g", 0, n, deg) == {(): one(n, deg)}
    assert schur_in_grothendieck((1,), "g", 0, n, deg) == {(1,): one(n, deg)}
    expansion = schur_in_grothendieck((1,), "G", 2, n, deg)
    assert expansion == {(1,): one(n, deg), (2,): -av(n, deg, 1),
                         (1, 1): bv(n, deg, 1)}
    with pytest.raises(ShapeError):
        schur_in_grothendieck((1,), "h", 2, n, deg)


def test_schur_in_grothendieck_multiplies_out():
    n, deg = 2, 2
    acc = TruncPoly.zero(n, deg)
    for mu, coef in schur_in_grothendieck((1,), "G", deg, n, deg).items():
        acc = acc + coef.with_n(n).truncate(deg) * G_jt(mu, n, deg)
    assert acc == symfunc.schur_jt((1,), (), n, deg)
    n, deg = 2, 3
    acc = TruncPoly.zero(n, deg)
    for mu, coef in schur_in_grothendieck((2, 1), "g", 0, n, deg).items():
        acc = acc + coef * g_jt(mu, n, deg)
    assert acc == symfunc.schur_jt((2, 1), (), n, deg)


def test_flagged_containment_counterexample():
    n, deg = 3, 4
    with pytest.warns(UserWarning):
        row = G_flagged_det((1,), (2,), (1,), (1,), "row", n, deg)
    assert row == bv(n, deg, 1) - av(n, deg, 2)
    with pytest.warns(UserWarning):
        col = G_flagged_det((1,), (2,), (1,), (1,), "col", n, deg)
    assert col == bv(n, deg, 2) - av(n, deg, 1)


@pytest.mark.parametrize("kind", ["G", "g"])
@pytest.mark.parametrize("orientation", ["row", "col"])
def test_flag_sweep_matches_direct_determinants_on_raw_flags(kind,
                                                             orientation):
    # flags above the variable count: r_j > n + 1 and s_i > n, in and out
    # of the hypotheses; the sweep canonicalizes them, the direct
    # determinants use them as given
    n, deg = 2, 4
    direct = G_flagged_det if kind == "G" else g_flagged_det
    two_rows = [(1, 1), (1, 2), (2, 4), (4, 1), (5, 6), (3, 2)]
    # three rows share 2x2 minors between calls; vectors that differ only
    # in r_3 check that a minor's key holds the flags of its rows
    three_rows = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 1, 2), (1, 2, 2)]
    for lam, mu, flag_vectors in [((2, 1), (1,), two_rows),
                                  ((2, 2), (), two_rows),
                                  ((1, 1), (1,), two_rows),
                                  ((2, 1, 1), (1,), three_rows),
                                  ((3, 2, 1), (1, 1), three_rows)]:
        sweep = FlagSweep(kind, lam, mu, orientation, n, deg)
        for r in flag_vectors:
            for s in flag_vectors:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = direct(lam, mu, r, s, orientation, n, deg)
                assert sweep.value(r, s) == want, (lam, mu, r, s)


@pytest.mark.parametrize("kind", ["G", "g"])
@pytest.mark.parametrize("orientation", ["row", "col"])
def test_flag_sweep_matches_tableau_enumeration_on_raw_flags(kind,
                                                             orientation):
    # the determinant side against the enumeration side, which shares no
    # entry code with it, on flags up to n + 2 inside the hypotheses: this
    # checks the sweep's (min(r, n + 1), min(s, n)) canonicalization
    n, deg = 2, 4
    hypothesis = col_monotone if (kind, orientation) == ("G", "col") \
        else row_monotone
    flag_vectors = list(itertools.product(range(1, n + 3), repeat=2))
    for lam, mu in [((2, 1), (1,)), ((2, 2), ()), ((2, 1), (1, 1)),
                    ((3, 1), (1,))]:
        sweep = FlagSweep(kind, lam, mu, orientation, n, deg)
        shape = (lam, mu) if orientation == "row" else \
            (conjugate(lam), conjugate(mu))
        tableaux = TableauSweep("mmsvt" if kind == "G" else "mrpp", *shape,
                                n, deg, orientation)
        checked = 0
        for r in flag_vectors:
            for s in flag_vectors:
                if not hypothesis(lam, mu, r, s):
                    continue
                assert sweep.value(r, s) == tableaux.value(r, s), \
                    (lam, mu, r, s)
                checked += 1
        assert checked


def test_matsumura_sweep_matches_direct_determinant_on_raw_flags():
    # FlagSweep("M").value(r, s) against matsumura_det on flags past the
    # variable count (r_j > n + 1, s_i > n) and with r_j > s_i; three rows
    # reach the entries with i - j - 1 >= 1, and vectors that differ only
    # in their last entry share minors.  Inside Matsumura's hypothesis both
    # must equal the set-valued enumeration, which shares no code with
    # either, so a wrong row factor fails here too.
    n, deg = 3, 4
    two_rows = [(1, 1), (1, 2), (2, 3), (5, 1), (4, 5), (3, 2), (1, 3)]
    three_rows = [(1, 1, 1), (1, 2, 2), (1, 2, 3), (2, 2, 3), (1, 2, 5),
                  (5, 2, 1), (1, 1, 3)]
    enumerated = 0
    for lam, mu, flag_vectors in [((2, 1), (1,), two_rows),
                                  ((2, 2), (), two_rows),
                                  ((1, 1), (1,), two_rows),
                                  ((1, 1, 1), (), three_rows),
                                  ((2, 1, 1), (1,), three_rows),
                                  ((3, 2, 1), (1, 1), three_rows)]:
        sweep = FlagSweep("M", lam, mu, "row", n, deg)
        for s in flag_vectors:
            for r in flag_vectors:
                got = sweep.value(r, s)
                assert got == matsumura_det(lam, mu, r, s, n, deg), \
                    (lam, mu, r, s)
                if (all(a <= b for a, b in zip(r, s))
                        and row_monotone(lam, mu, r, s)):
                    assert got == enum_fsvt(lam, mu, n, deg, (r, s)), \
                        (lam, mu, r, s)
                    enumerated += 1
    assert enumerated >= 20
    with pytest.raises(ShapeError):
        matsumura_det((1,), (2,), (1,), (1,), n, deg)
    with pytest.raises(ShapeError):
        matsumura_det((2, 1), (), (1, 1), (1,), n, deg)


_DIRECT = {
    "G": lambda lam, mu, r, s, orientation, marks, n, deg: G_flagged_det(
        lam, mu, r, s, orientation, n, deg),
    "g": lambda lam, mu, r, s, orientation, marks, n, deg: (
        g_flagged_det(lam, mu, r, s, orientation, n, deg) if marks is None
        else g_marked_det(lam, mu, r, s, marks, n, deg)),
    "M": lambda lam, mu, r, s, orientation, marks, n, deg: matsumura_det(
        lam, mu, r, s, n, deg),
}


@pytest.mark.parametrize("kind, orientation, lam, mu, marks", [
    ("G", "row", (1, 1), (2,), None), ("G", "col", (1, 1), (2,), None),
    ("g", "row", (1, 1), (2,), None), ("g", "col", (1, 1), (2,), None),
    ("G", "row", (2, 1), (1,), None), ("G", "col", (2, 1), (1,), None),
    ("g", "row", (2, 1), (1,), None), ("g", "col", (2, 1), (1,), None),
    ("M", "row", (2, 1), (1,), None), ("g", "row", (1, 2), (), {1})])
def test_flag_sweep_skips_zero_rows_exactly(monkeypatch, kind, orientation,
                                            lam, mu, marks):
    # on every flag pair with entries 1..n + 2, of a pair without
    # containment, a skew pair and a marked dual, the sweep equals the
    # direct determinant, and no matrix with a zero row reaches ring.det:
    # its value is zero without one
    n, deg = 2, 4
    passed = []
    real_det = grothendieck.det

    def recording_det(matrix, *args, **kwargs):
        passed.append(matrix)
        return real_det(matrix, *args, **kwargs)

    monkeypatch.setattr(grothendieck, "det", recording_det)
    vectors = list(itertools.product(range(1, n + 3), repeat=2))
    sweep = FlagSweep(kind, lam, mu, orientation, n, deg, marks=marks)
    skipped = 0
    for r in vectors:
        for s in vectors:
            before = len(passed)
            got = sweep.value(r, s)
            if len(passed) == before:
                assert got.is_zero(), (r, s)
                skipped += 1
            else:
                assert all(any(e.terms for e in row) for row in passed[-1])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = _DIRECT[kind](lam, mu, r, s, orientation, marks, n,
                                     deg)
            assert got == want, (r, s)
    assert 0 < skipped < len(vectors) ** 2


def test_flag_sweep_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        FlagSweep("H", (1,), (), "row", 1, 1)
    with pytest.raises(ShapeError):
        FlagSweep("G", (1,), (), "diag", 1, 1)
    with pytest.raises(ShapeError):
        FlagSweep("M", (1,), (), "col", 1, 1)
    with pytest.raises(ShapeError):
        FlagSweep("M", (1, 2), (), "row", 1, 1, marks={1})
    with pytest.raises(ShapeError):
        FlagSweep("G", (1, 2), (), "row", 1, 1)
    with pytest.raises(ShapeError):
        FlagSweep("G", (1, 2), (), "row", 1, 1, marks={1})
    with pytest.raises(ShapeError):
        FlagSweep("g", (1, 2), (), "col", 1, 1, marks={1})
    with pytest.raises(ShapeError):
        FlagSweep("g", (1, 3), (), "row", 1, 1, marks={1})
    with pytest.raises(ShapeError):
        FlagSweep("g", (1, 2), (), "row", 2, 2, marks={3}).value((1, 1),
                                                                 (2, 2))


@pytest.mark.parametrize("r, s", [((1,), (2,)), ((1, 1), (2,)),
                                  ((0, 1), (2, 2))],
                         ids=["short", "ragged", "zero"])
def test_flag_sweep_rejects_bad_flags(r, s):
    sweep = FlagSweep("G", (2, 1), (), "row", 2, 4)
    with pytest.raises(ShapeError):
        sweep.value(r, s)


def test_flag_sweep_refuses_bad_flags_on_every_call():
    # value() keeps each vector it has checked; a bad pair is refused on
    # its first and on later calls, also when each of its vectors was
    # accepted before beside another partner
    sweep = FlagSweep("G", (2, 1), (), "row", 2, 4)
    assert sweep.value([1, 1], [2, 2]) == sweep.value((1, 1), (2, 2)) \
        == G_flagged_det((2, 1), (), (1, 1), (2, 2), "row", 2, 4)
    sweep.value((1, 1, 1), (2, 2, 2))
    bad = [(sweep, (1, 1), (2, 2, 2)), (sweep, (1, 1, 1), (2, 2)),
           (sweep, (1,), (2,)), (sweep, (0, 1), (2, 2)),
           (sweep, (1, 1), (2, 0))]
    for _ in range(2):
        for bad_sweep, r, s in bad:
            with pytest.raises(ShapeError):
                bad_sweep.value(r, s)
    # a mark must be a row of the outer shape, whatever the flags' length,
    # so a mark past its rows is refused when the sweep is built
    with pytest.raises(ShapeError, match="mark set out of range"):
        FlagSweep("g", (1, 2), (), "row", 2, 4, marks={3})


@pytest.mark.parametrize("kind, orientation", [("G", "row"), ("G", "col"),
                                               ("g", "row"), ("g", "col")])
def test_flag_sweep_takes_raw_flags_after_their_classes(kind, orientation):
    # the flagged suite feeds a sweep capped flag classes; raw flags of the
    # same classes afterwards must still give the direct determinants
    n, deg = 2, 4
    direct = G_flagged_det if kind == "G" else g_flagged_det
    lam, mu = (2, 2, 1), (1,)
    raw = [(1, 4, 5), (3, 3, 4), (1, 2, 6), (4, 4, 4)]
    sweep = FlagSweep(kind, lam, mu, orientation, n, deg)
    pairs = [(r, s) for r in raw for s in raw]
    for r, s in pairs:
        sweep.value(*flag_class(r, s, n))
    for r, s in pairs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = direct(lam, mu, r, s, orientation, n, deg)
        assert sweep.value(r, s) == want, (r, s)


def test_marked_flag_sweep_reads_an_infinite_upper_flag_as_n():
    # as the CLI does: r_j > s_i = inf gives a zero entry at n, and the
    # value with s = inf is the value with s = n, also after the sweep saw
    # s = n
    n, deg = 2, 4
    lam, mu, marks = (1, 2), (), {1}
    sweep = FlagSweep("g", lam, mu, "row", n, deg, marks=marks)
    for r in [(1, 1), (3, 1), (1, 3)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            at_n = g_marked_det(lam, mu, r, (n, n), marks, n, deg)
            at_inf = g_marked_det(lam, mu, r, (INF, INF), marks, n, deg)
        assert at_inf == at_n == sweep.value(r, (n, n)) \
            == sweep.value(r, (INF, n)) == sweep.value(r, (INF, INF)), r
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert g_marked_det(lam, mu, (3, 1), (INF, INF), marks, n,
                            deg).is_zero()


# (r, s) on the shape (2, 1) at n = 2: a valid pair, one fault per pair, an
# upper flag past n and an infinite upper flag.
_FLAG_INPUTS = [
    pytest.param((1, 1), (2, 2), id="valid"),
    pytest.param((1,), (2,), id="short"),
    pytest.param((0, 1), (2, 2), id="zero"),
    pytest.param((1, INF), (2, 2), id="infinite-lower"),
    pytest.param((1, 1, 1), (2, 2), id="unequal-lengths"),
    pytest.param((1, 1), (3, 3), id="upper-past-n"),
    pytest.param((1, 1), (INF, INF), id="infinite-upper"),
]


def _flag_contract(r, s, n):
    """{entry point: (family, value)} for the flags (r, s) on the shape
    (2, 1), or {entry point: ("ShapeError", message)} where one refuses.
    The set-valued family's values are counts of fillings."""
    lam, mu, marks, deg = (2, 1), (), {1}, 5
    count = lambda p: sum(p.specialize(lambda var: (1, None)).terms.values())
    calls = {
        "G_flagged_det": ("G", lambda: G_flagged_det(lam, mu, r, s, "row", n,
                                                     deg)),
        "FlagSweep": ("G", lambda: FlagSweep("G", lam, mu, "row", n,
                                             deg).value(r, s)),
        "TableauSweep": ("G", lambda: TableauSweep("mmsvt", lam, mu, n,
                                                   deg).value(r, s)),
        "enum_mmsvt": ("G", lambda: enum_mmsvt(lam, mu, n, deg,
                                               flags=(r, s))),
        "g_marked_det": ("marked", lambda: g_marked_det(lam, mu, r, s, marks,
                                                        n, deg)),
        "enum_mrpp": ("marked", lambda: enum_mrpp(lam, mu, n, deg,
                                                  flags=(r, s),
                                                  mark_set=marks)),
        "gen_fsvt": ("fsvt", lambda: len(list(gen_fsvt(lam, mu, n, deg,
                                                       (r, s))))),
        "TableauSweep fsvt": ("fsvt", lambda: count(TableauSweep(
            "fsvt", lam, mu, n, deg).value(r, s))),
    }
    got = {}
    for name, (family, call) in calls.items():
        try:
            got[name] = family, call()
        except ShapeError as err:
            got[name] = "ShapeError", str(err)
    return got


@pytest.mark.parametrize("r, s", _FLAG_INPUTS)
def test_flag_entry_points_share_one_contract(r, s):
    # every flagged entry point checks and reads the flags alike: each
    # family gives one nonzero value across its entry points, or every entry
    # point raises the same ShapeError; an infinite upper flag reads as n
    n = 2
    got = _flag_contract(r, s, n)
    refusals = {v for v in got.values() if v[0] == "ShapeError"}
    if refusals:
        assert len(refusals) == 1 and all(
            v[0] == "ShapeError" for v in got.values()), got
        return
    for family in ("G", "marked", "fsvt"):
        first, *rest = [v for f, v in got.values() if f == family]
        assert rest and all(v == first for v in rest), (family, got)
        nonzero = first != 0 if family == "fsvt" else not first.is_zero()
        assert nonzero, (family, got)
    if INF in s:
        assert got == _flag_contract(r, (n,) * len(s), n)


# (outer, inner, marks, r, s): two valid inputs, one fault per input, and an
# infinite upper flag.  Every value stays at most n = 2, so each marked
# filling has a nonzero x weight.
_MARKED_INPUTS = [
    pytest.param((1, 2), (), {1}, (1, 1), (2, 2), id="valid"),
    pytest.param((2, 2, 1), (1,), {1, 2}, (1, 1, 2), (1, 2, 2),
                 id="valid-skew"),
    pytest.param((1,), (), {2}, (1, 1), (2, 2), id="mark-past-the-rows"),
    pytest.param((1, 3), (), {1}, (1, 1), (2, 2), id="not-dented"),
    pytest.param((1, 2), (2,), {1}, (1, 1), (2, 2), id="inner-outside"),
    pytest.param((1, 2), (), {1}, (1,), (2,), id="flags-too-short"),
    pytest.param((1, 2), (), {1}, (1, 1), (INF, INF), id="infinite-upper"),
]


@pytest.mark.parametrize("outer, inner, marks, r, s", _MARKED_INPUTS)
def test_marked_entry_points_share_one_contract(outer, inner, marks, r, s):
    # the five marked entry points agree: each returns the same value (for
    # gen_mrpp, its count of marked fillings), or each raises the same
    # ShapeError
    n, deg = 2, 4
    calls = {
        "g_marked_det": lambda: g_marked_det(outer, inner, r, s, marks, n,
                                             deg),
        "FlagSweep": lambda: FlagSweep("g", outer, inner, "row", n, deg,
                                       marks=marks).value(r, s),
        "enum_mrpp": lambda: enum_mrpp(outer, inner, n, deg, flags=(r, s),
                                       mark_set=marks),
        "TableauSweep": lambda: TableauSweep("mrpp", outer, inner, n, deg,
                                             mark_set=marks).value(r, s),
        "gen_mrpp": lambda: len(list(gen_mrpp(outer, inner, n, flags=(r, s),
                                              mark_set=marks))),
    }
    got = {}
    for name, call in calls.items():
        try:
            got[name] = call()
        except ShapeError as err:
            got[name] = ("ShapeError", str(err))
    refusals = [v for v in got.values() if isinstance(v, tuple)]
    if refusals:
        assert len(refusals) == len(got) and len(set(refusals)) == 1, got
        return
    count = got.pop("gen_mrpp")
    want = got["g_marked_det"]
    assert all(v == want for v in got.values()), got
    # at x = 1, alpha = -1 and beta = 1 a summed weight counts the marked
    # fillings: each markable cell weighs 1 - (-1) = 2, marked or not
    ones = want.specialize(lambda var: (-1 if var[0] == ALPHA else 1, None))
    assert count == sum(ones.terms.values()) > 0


def test_flag_sweep_with_marks_matches_marked_determinant_on_raw_flags():
    # raw flags with r_j > s_i and s_i > n, on every valid mark set
    n = 2
    flag_values = [1, 2, 4]
    for lam, mu in [((1, 2), ()), ((1, 2), (1,)), ((2, 2, 1), (1,)),
                    ((1, 1, 2), ())]:
        deg = sum(lam) + 1
        m = len(lam)
        flag_vectors = list(itertools.product(flag_values, repeat=m))
        if m == 3:
            flag_vectors = flag_vectors[::3]
        for marks in valid_mark_sets(lam):
            sweep = FlagSweep("g", lam, mu, "row", n, deg, marks=marks)
            for r in flag_vectors:
                for s in flag_vectors:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        want = g_marked_det(lam, mu, r, s, marks, n, deg)
                    assert sweep.value(r, s) == want, (lam, mu, marks, r, s)


@pytest.mark.parametrize("kind, orientation, marks",
                         [("G", "row", None), ("G", "col", None),
                          ("g", "row", None), ("g", "col", None),
                          ("M", "row", None), ("g", "row", {1, 2})])
def test_flag_sweep_values_do_not_depend_on_call_order(kind, orientation,
                                                       marks):
    # sweeps fed the flag list forward (r outer, as verify flagged feeds
    # it), reversed, with r inner (as verify matsumura fed it) and in a
    # seeded shuffle must agree: a cached row or minor that depended on an
    # earlier call, not on its key and the current r-prefix, would differ;
    # (1, 1, 1) shows a stale minor of kinds G and M, (2, 2, 1)/(1) of g
    n, deg = 2, 4
    vectors = list(itertools.product([1, 2, 4], repeat=3))
    pairs = [(r, s) for r in vectors for s in vectors]
    m = len(vectors)
    r_inner = [i * m + j for j in range(m) for i in range(m)]
    shuffled = random.Random(25).sample(range(len(pairs)), len(pairs))
    for lam, mu in ([((1, 1, 2), ())] if marks else
                    [((2, 2, 1), (1,)), ((1, 1, 1), ())]):
        forward = FlagSweep(kind, lam, mu, orientation, n, deg, marks=marks)
        got = [forward.value(r, s) for r, s in pairs]
        for order in (range(len(pairs) - 1, -1, -1), r_inner, shuffled):
            sweep = FlagSweep(kind, lam, mu, orientation, n, deg, marks=marks)
            values = {at: sweep.value(*pairs[at]) for at in order}
            assert [values[at] for at in range(len(pairs))] == got
        assert sum(not v.is_zero() for v in got) > len(pairs) // 20


def test_flagged_weaker_condition_counterexample():
    n, deg = 2, 3
    with pytest.warns(UserWarning):
        value = g_flagged_det((1, 1), (), (1, 1), (2, 1), "col", n, deg)
    x1, x2, a1 = xv(n, deg, 1), xv(n, deg, 2), av(n, deg, 1)
    assert value == x1**2 - a1 * x1 - a1 * x2
    enumerated = enum_mrpp((2,), (), n, deg, flags=((1, 1), (2, 1)),
                           orientation="col")
    assert enumerated == x1**2 - a1 * x1
    assert value != enumerated


def test_flagged_determinants_match_enumerations():
    n, deg = 2, 4
    cases = [((2, 1), (), (1, 1), (1, 2)), ((2, 1), (1,), (1, 2), (2, 2)),
             ((2, 2), (1,), (1, 1), (2, 2)), ((3, 1), (1,), (1, 2), (1, 2))]
    for lam, mu, r, s in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det_row_G = G_flagged_det(lam, mu, r, s, "row", n, deg)
            det_row_g = g_flagged_det(lam, mu, r, s, "row", n, deg)
        assert det_row_G == enum_mmsvt(lam, mu, n, deg, flags=(r, s))
        assert det_row_g == enum_mrpp(lam, mu, n, deg, flags=(r, s))
        det_col_G = G_flagged_det(lam, mu, r, s, "col", n, deg)
        det_col_g = g_flagged_det(lam, mu, r, s, "col", n, deg)
        assert det_col_G == enum_mmsvt(conjugate(lam), conjugate(mu), n, deg,
                                       flags=(r, s), orientation="col")
        assert det_col_g == enum_mrpp(conjugate(lam), conjugate(mu), n, deg,
                                      flags=(r, s), orientation="col")


def test_marked_determinant_matches_boundary_enumeration():
    n, deg = 2, 4
    cases = [((1, 2), (), frozenset({1, 2}), (1, 1), (2, 2)),
             ((1, 2), (), frozenset({1}), (1, 1), (2, 2)),
             ((1, 2), (1,), frozenset({1, 2}), (1, 2), (2, 2)),
             ((1, 2, 1), (1,), frozenset({1}), (1, 1, 1), (2, 2, 2)),
             ((2, 2), (1,), frozenset({1, 2}), (1, 1), (2, 2)),
             ((2, 1), (), frozenset({1}), (1, 2), (1, 2)),
             ((2, 1), (), frozenset(), (1, 1), (2, 2))]
    for lam, mu, ms, r, s in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det = g_marked_det(lam, mu, r, s, ms, n, deg)
        assert det == enum_mrpp(lam, mu, n, deg, flags=(r, s), mark_set=ms)


def test_marked_determinant_reduces_and_vanishes():
    n, deg = 2, 3
    for lam, mu in [((2, 1), ()), ((2, 2), (1,)), ((1, 1), (1,))]:
        r, s = (1, 1), (n, n)
        assert g_marked_det(lam, mu, r, s, frozenset(), n, deg) == \
            g_flagged_det(lam, mu, r, s, "row", n, deg)
    assert g_marked_det((1, 2), (), (2, 2), (1, 2), frozenset({1, 2}),
                        n, deg) == TruncPoly.zero(n, deg)
    assert enum_mrpp((1, 2), (), n, deg, flags=((2, 2), (1, 2)),
                     mark_set=frozenset({1, 2})) == TruncPoly.zero(n, deg)
    assert valid_mark_sets((1, 2)) == [frozenset({1, 2}), frozenset({1})]
    assert valid_mark_sets((2, 2, 1)) == [
        frozenset({1}), frozenset(), frozenset({1, 2}), frozenset({2})]
    with pytest.raises(ShapeError):
        g_marked_det((1, 3), (), (1, 1), (2, 2), frozenset(), n, deg)
    with pytest.raises(ShapeError):
        g_marked_det((1, 2), (), (1, 1), (2, 2), frozenset({3}), n, deg)


def test_the_empty_marked_shape_is_ordinary():
    # dent row k = 1, as for every ordinary partition, so the empty shape
    # takes the empty mark set, and its determinant is the empty one
    assert shapes.dent_index(()) == 1
    assert shapes.minimal_cell(()) == (1, 0)
    assert valid_mark_sets(()) == [frozenset()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g_marked_det((), (), (), (), (), 2, 2) == \
            TruncPoly.const(2, 2, 1)


def test_valid_mark_sets_are_distinct_marked_shapes():
    # oracle: the same sets collected with a duplicate check
    def with_duplicate_check(lam):
        k, lamk = shapes.minimal_cell(lam)
        out = []
        for p in range(k, len(lam) + 1):
            if lamk == 0 or shapes.part(lam, p) != lamk:
                break
            for cand in (frozenset(range(1, p + 1)),
                         frozenset(range(1, p + 1)) - {k}):
                if cand not in out:
                    out.append(cand)
        return out or [frozenset()]

    several = 0
    for lam in cli._dented_shapes(6, 3):
        got = valid_mark_sets(lam)
        assert len(set(got)) == len(got), lam
        assert got == with_duplicate_check(lam), lam
        for marks in got:
            assert shapes.marked_shape(lam, (), marks) == (lam, (), marks)
        several += len(got) > 2
    assert several


def test_flag_hypotheses_read_the_flags_as_n_variables_do():
    # at n = 2 the upper flags (3, 2) read (2, 2) and the lower flags (5, 3)
    # read (3, 3): each pair has the value of its reading, and, as that
    # reading meets the row condition, no warning
    n, deg = 2, 2
    for r, s, read in (((1, 1), (3, 2), ((1, 1), (2, 2))),
                       ((5, 3), (2, 2), ((3, 3), (2, 2)))):
        for flagged_det in (G_flagged_det, g_flagged_det):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = flagged_det((1, 1), (), r, s, "row", n, deg)
                assert got == flagged_det((1, 1), (), *read, "row", n, deg)
    assert G_flagged_det((1, 1), (), (1, 1), (3, 2), "row", n, deg) == \
        xv(n, deg, 1) * xv(n, deg, 2)


def test_col_G_warns_on_the_column_condition():
    # on (1, 1) the upper flags (2, 1) meet col_monotone, not row_monotone
    n, deg = 2, 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G_flagged_det((1, 1), (), (1, 1), (2, 1), "col", n, deg)
    with pytest.warns(UserWarning, match="row G"):
        G_flagged_det((1, 1), (), (1, 1), (2, 1), "row", n, deg)


def test_flagged_rejects_bad_input():
    with pytest.raises(ShapeError):
        G_flagged_det((2, 1), (), (1,), (2,), "row", 2, 2)
    with pytest.raises(ShapeError):
        G_flagged_det((1,), (), (1,), (0,), "row", 2, 2)
    with pytest.raises(ShapeError):
        G_flagged_det((1,), (), (1,), (1,), "diag", 2, 2)
    with pytest.raises(ShapeError):
        g_flagged_det((1,), (), (1, 1), (1,), "row", 2, 2)


def matsumura_Gpq(m, p, q, n, deg):
    """ORACLE: one-row flagged Grothendieck series in the collapsed
    parameter b_1, prod_{l=q}^p (1 + b_1 x_l) * sum_{k>=0} (-b_1)^k
    h_{m+k}[X_[q,p]], which is the one-row determinant of kind M at
    lam = (m) (m may be negative)."""
    return grothendieck._flag_value("M", "row", (m,), (), (q,), (p,), n, deg)


def test_matsumura_series_examples():
    n, deg = 2, 3
    assert matsumura_Gpq(0, 0, 1, n, deg) == one(n, deg)
    assert matsumura_Gpq(1, 1, 1, n, deg) == xv(n, deg, 1)
    assert matsumura_Gpq(-2, 0, 1, n, deg) == bv(n, deg, 1) ** 2
    assert matsumura_Gpq(-1, 0, 1, n, deg) == -bv(n, deg, 1)
    # one cell flagged to rows [1, 2]: set-valued fillings over {1, 2}
    x1, x2, b1 = xv(n, deg, 1), xv(n, deg, 2), bv(n, deg, 1)
    assert matsumura_Gpq(1, 2, 1, n, deg) == x1 + x2 + b1 * x1 * x2
    assert matsumura_Gpq(1, 2, 1, n, deg) == enum_fsvt((1,), (), n, deg,
                                                       ((1,), (2,)))


def test_matsumura_determinant_matches_set_valued_enumeration():
    n, deg = 2, 4
    assert matsumura_det((2, 1), (2, 1), (1, 1), (1, 2), n, deg) == one(n, deg)
    assert matsumura_det((), (), (), (), n, deg) == one(n, deg)
    assert matsumura_det((1,), (), (1,), (1,), n, deg) == xv(n, deg, 1)
    cases = [((1, 1), (), (1, 1), (1, 2)), ((2,), (), (1,), (2,)),
             ((2, 1), (1,), (1, 1), (1, 2)), ((2, 2), (1,), (1, 1), (2, 2))]
    for lam, mu, r, s in cases:
        assert (matsumura_det(lam, mu, r, s, n, deg)
                == enum_fsvt(lam, mu, n, deg, (r, s)))
    # three rows reach the entries with i - j - 1 >= 1
    n = 3
    cases = [((1, 1, 1), (), (1, 1, 1), (1, 2, 2)),
             ((1, 1, 1), (), (1, 1, 1), (1, 2, 3)),
             ((2, 1, 1), (1,), (1, 1, 2), (2, 3, 3))]
    for lam, mu, r, s in cases:
        assert (matsumura_det(lam, mu, r, s, n, deg)
                == enum_fsvt(lam, mu, n, deg, (r, s)))


def collapse_parameters(p, sign):
    """a -> 0 and b -> (sign * b1, sign * b1, ...)."""
    return p.specialize(
        lambda var: (0, None) if var[0] == ALPHA else (sign, (BETA, 1)))


def test_matsumura_is_a_single_sign_specialization():
    n, deg = 2, 3
    lam, mu, r, s = (2, 1), (1,), (1, 1), (2, 2)
    single_beta = matsumura_det(lam, mu, r, s, n, deg)
    flagged = G_flagged_det(lam, mu, r, s, "row", n, deg)
    assert single_beta == collapse_parameters(flagged, -1)
    assert single_beta != collapse_parameters(flagged, +1)


def test_skew_coefficients_match_tableau_rules():
    n, deg = 1, 0
    for big in partitions_up_to(3):
        for small in partitions_between((), big):
            pairs = [("C", skew_coeff("C", small, big, n, deg), "inelegant"),
                     ("D", skew_coeff("D", small, big, n, deg), "inelegant"),
                     ("c", skew_coeff("c", big, small, n, deg), "elegant"),
                     ("d", skew_coeff("d", big, small, n, deg), "elegant"),
                     ("C'", skew_coeff("C'", small, big, n, deg), "barred"),
                     ("D'", skew_coeff("D'", small, big, n, deg), "barred"),
                     ("c'", skew_coeff("c'", big, small, n, deg),
                      "inelegant"),
                     ("d'", skew_coeff("d'", big, small, n, deg),
                      "inelegant")]
            for rule, det_value, family in pairs:
                assert det_value == enum_elegant(big, small, n, deg, family,
                                                 rule), (rule, big, small)
    with pytest.raises(ShapeError):
        skew_coeff("E", (1,), (1,), n, deg)


def test_skew_coefficient_parameter_swap():
    n, deg = 1, 0
    for big in partitions_up_to(3):
        for small in partitions_between((), big):
            assert (skew_coeff("C", small, big, n, deg)
                    == dual_parameters(skew_coeff("D", small, big, n, deg)))
            assert (skew_coeff("c'", big, small, n, deg)
                    == dual_parameters(skew_coeff("d'", big, small, n, deg)))


def test_skew_schur_expansion_dual_examples():
    expansion = skew_schur_expansion((2,), (), "g_h", 0, 1, 2)
    assert set(expansion.entries) == {((2,), ()), ((1,), ())}
    assert expansion.entries[((2,), ())] == one(1, 2)
    assert expansion.entries[((1,), ())] == -av(1, 2, 1)
    assert expansion.prefactor == one(1, 2)
    assert expansion.total() == g_jt((2,), 1, 2)


def test_skew_schur_expansion_parameter_free_limit():
    expansion = skew_schur_expansion((2, 1), (), "g_h", 0, 2, 3)
    collapsed = {key: param_free(coef)
                 for key, coef in expansion.entries.items()}
    surviving = {key for key, coef in collapsed.items() if not coef.is_zero()}
    assert surviving == {((2, 1), ())}
    assert collapsed[((2, 1), ())] == one(2, 3)


def test_skew_schur_expansion_totals():
    n, deg = 2, 3
    for lam, mu in [((2,), ()), ((2, 1), (1,)), ((2, 2), (1,))]:
        for kind, orientation in [("g_h", "row"), ("g_e", "col")]:
            expansion = skew_schur_expansion(lam, mu, kind, 0, n, deg)
            flags = ((1,) * expansion.rows, (n,) * expansion.rows)
            target = g_flagged_det(lam, mu, flags[0], flags[1], orientation,
                                   n, deg)
            assert expansion.total() == target
    budget = 3
    for lam, mu in [((1,), ()), ((2, 1), (1,))]:
        for kind, orientation in [("G_h", "row"), ("G_e", "col")]:
            expansion = skew_schur_expansion(lam, mu, kind, budget, n, deg)
            flags = ((1,) * expansion.rows, (n,) * expansion.rows)
            target = G_flagged_det(lam, mu, flags[0], flags[1], orientation,
                                   n, deg)
            assert (expansion.total().truncate(budget)
                    == target.truncate(budget))
    with pytest.raises(ShapeError):
        skew_schur_expansion((1,), (), "G", 1, n, deg)


def test_skew_schur_expansion_empty_when_not_contained():
    expansion = skew_schur_expansion((1,), (2,), "G_h", 2, 2, 2)
    assert expansion.entries == {}
    assert expansion.total().is_zero()
    dual = skew_schur_expansion((1,), (2,), "g_h", 0, 2, 2)
    assert dual.entries == {}


def test_omega_involution():
    assert omega_check((1,), (), "g", 0, 1, 0)
    assert omega_check((2,), (), "g", 0, 1, 0)
    assert omega_check((2, 1), (1,), "g", 0, 2, 2)
    assert omega_check((1,), (), "G", 2, 2, 2)
    assert omega_check((2, 1), (1,), "G", 2, 2, 2)
    with pytest.raises(ShapeError):
        omega_check((1,), (), "s", 0, 1, 0)


def test_omega_dual_entry_values():
    expansion = skew_schur_expansion((2,), (), "g_e", 0, 1, 0)
    assert expansion.entries[((1,), ())] == bv(1, 0, 1)
    assert dual_parameters(expansion.entries[((1,), ())]) == -av(1, 0, 1)


# (outer, inner, kind, budget, n, deg), the entry count and the sha256 of
# the lines "key: entry" of skew_schur_expansion(...).entries in iteration
# order, recorded when the expansion stored its entries multiplied out.
RECORDED_ENTRIES = [
    (((3, 2), (1,), "G_h", 2, 2, 2), 60,
     "62aeb1ac7cb35a66f53cfb1639427fdec14fc73c25cac754697c0c774b6bb149"),
    (((3, 2), (1,), "G_e", 2, 2, 2), 60,
     "364fd534158a11dda022328323268c6bbc5a2c2dc2f82e10d0f872087eca6d65"),
    (((2, 1), (1,), "G_h", 3, 1, 3), 198,
     "43d4f652de29ecb331439741cd40f4dc653f3d5281b63b794fd2447bb51e944d"),
    (((2, 2), (1,), "G_e", 3, 1, 3), 176,
     "44e2397a8ed333d2b82a285487d7a03f912096964dea0847ae60ee86692f75fd"),
    (((3, 2, 1), (1,), "g_h", 0, 2, 4), 61,
     "937b35781e4c493c4764a3214cf8e0364eb3619700cac18fc678d258e7a654da"),
    (((3, 2, 1), (1,), "g_e", 0, 2, 4), 61,
     "541d1013e4a0cb030e20fb26bbaaa6cbb4d43f0dfa88608d9d4402e3ae455711"),
    (((3, 3, 1), (2, 1), "g_h", 0, 3, 4), 42,
     "bf8f51afeaa135eb211961b98d3c904d5c44e8ac832d506c2b332ce82f7e7570"),
    (((2, 2, 2), (1,), "g_e", 0, 2, 3), 34,
     "af8ae12006db9d445b0e957be05b5b3030e77e8e9a2321071f608d43e32e834e"),
]


@pytest.mark.parametrize("case, count, digest", RECORDED_ENTRIES,
                         ids=[f"{c[2]}-{c[0]}/{c[1]}"
                              for c, _, _ in RECORDED_ENTRIES])
def test_factor_families_multiply_back_to_the_recorded_entries(case, count,
                                                                digest):
    expansion = skew_schur_expansion(*case)
    families = expansion.left, expansion.right
    assert all(not coef.is_zero()
               for family in families for coef in family.values())
    entries = expansion.entries
    text = "\n".join(f"{key}: {render_poly(coef)}"
                     for key, coef in entries.items())
    assert len(entries) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the G-kinds reach generalized rho with negative parts
    if case[2].startswith("G"):
        assert any(min(rho) < 0 for rho in expansion.right)


def padded_coeff(rule, first, second, n, deg, rows):
    """ORACLE: the coefficient determinant of skew_coeff on exactly `rows`
    rows.  Capital rules put the second subscript on rows, lowercase rules
    the first; the unprimed rules read their alphabet off the first
    subscript, the primed ones off the second."""
    basis, alphabet = _SKEW_COEFF[rule]
    top, bot = (second, first) if rule[0].isupper() else (first, second)
    fixed = second if rule.endswith("'") else first
    pleth = symfunc.h_pleth if basis == "h" else symfunc.e_pleth

    def at(shape, i):
        return shape[i - 1] if i <= len(shape) else 0

    matrix = [[pleth(at(top, i) - at(bot, j) - i + j, alphabet(fixed, i, j),
                     n, deg) for j in range(1, rows + 1)]
              for i in range(1, rows + 1)]
    return det(matrix, n, deg)


def test_coefficient_determinant_ignores_padding_rows():
    n, deg = 1, 0
    rules = list(_SKEW_COEFF)
    for big in partitions_up_to(3):
        for small in partitions_between((), big):
            for rule in rules:
                first, second = ((small, big) if rule[0].isupper()
                                 else (big, small))
                want = skew_coeff(rule, first, second, n, deg)
                least = max(len(first), len(second), 1)
                for rows in range(least, least + 3):
                    assert padded_coeff(rule, first, second, n, deg,
                                        rows) == want, (rule, first, second)
    # generalized rho: one with a negative part keeps all its rows
    negative = 0
    for mu in [(1,), (2, 1)]:
        rows = len(mu) + 2
        for rho in _gen_rho_below(mu, 2, rows):
            for rule in ("C'", "D'"):
                want = skew_coeff(rule, strip(rho), mu, n, deg)
                assert padded_coeff(rule, rho, mu, n, deg, rows) == want
            if min(rho) < 0:
                negative += 1
                assert len(strip(rho)) == rows
    assert negative == 9


@pytest.mark.parametrize("wrong", ["D", "D'", "d", "d'"])
def test_omega_check_compares_every_factor_family(monkeypatch, wrong):
    # doubling every coefficient of one e-side family fails the check
    coeff_det = grothendieck._coeff_det

    def doubled(rule, first, second, n, deg):
        value = coeff_det(rule, first, second, n, deg)
        return value + value if rule == wrong else value

    monkeypatch.setattr(grothendieck, "_coeff_det", doubled)
    kind = "G" if wrong.isupper() else "g"
    assert not omega_check((2, 1), (1,), kind, 1, 2, 2)


MEMOS = (symfunc._pleth_series, grothendieck._coeff_det,
         grothendieck._G_prefactor, grothendieck._row_factor,
         shapes._read_vector)


def test_cleared_caches_change_no_value(monkeypatch):
    # record every key the two argument-rich memos see, through the module
    # globals their callers look up
    keys = {memo: set() for memo in MEMOS[:2]}

    def recording(memo):
        def call(*args):
            keys[memo].add(args)
            return memo(*args)
        return call

    monkeypatch.setattr(symfunc, "_pleth_series", recording(MEMOS[0]))
    monkeypatch.setattr(grothendieck, "_coeff_det", recording(MEMOS[1]))

    def results():
        omega = [omega_check(lam, mu, kind, 2, 2, 2)
                 for lam, mu in [((2, 1), (1,)), ((3, 1), (1,)), ((2, 2), ())]
                 for kind in ("G", "g")]
        pairing = [hall_pairing(lam, mu, 1, 0)
                   for lam in partitions_up_to(3)
                   for mu in partitions_up_to(3)]
        return omega, pairing

    results()
    warm = results()
    assert all(warm[0])
    for memo in MEMOS:
        memo.cache_clear()
    assert results() == warm
    for memo, seen in keys.items():
        assert memo.cache_info().currsize == len(seen) > 0
        for key in seen:
            assert memo.__wrapped__(*key) == memo(*key), key


def test_every_memo_is_bounded():
    found = set()
    for info in pkgutil.iter_modules(grothpoly.__path__):
        module = importlib.import_module(f"grothpoly.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) \
                else (value,)
            for member in members:
                if isinstance(member, functools._lru_cache_wrapper):
                    maxsize = member.cache_parameters()["maxsize"]
                    assert isinstance(maxsize, int), member
                    assert maxsize == symfunc.CACHE_SIZE
                    found.add(member)
    assert found == set(MEMOS)
    assert skew_coeff("C", [1], [2, 1], 1, 0) == \
        skew_coeff("C", (1,), (2, 1), 1, 0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=0,
                max_size=2), st.integers(min_value=1, max_value=2))
def test_jacobi_trudi_equals_bialternant_property(parts, n):
    lam = tuple(sorted(parts, reverse=True))
    if len(lam) > n:
        lam = lam[:n]
    deg = 3
    assert G_jt(lam, n, deg) == G_bialternant(lam, n, deg)
    assert g_jt(lam, n, deg) == g_bialternant(lam, n, deg)
