from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import cli
from grothpoly.grothendieck import (G_flagged_det, G_jt, col_monotone, g_jt,
                                    row_monotone)
from grothpoly.ring import ALPHA, BETA, X, TruncPoly
from grothpoly.shapes import (ShapeError, conjugate, contains, flag_class,
                              partitions_up_to)
from grothpoly.symfunc import schur_jt
from grothpoly.tableaux import enum_mmsvt, enum_mrpp, gen_mrpp


def run(argv):
    return cli.run(argv)


def parse_records(data):
    """ORACLE: the inverse of cli.poly_records, from the JSON text or the
    parsed dict."""
    if isinstance(data, str):
        data = json.loads(data)
    if data.get("schema") != cli.SCHEMA:
        raise ShapeError(f"unknown schema {data.get('schema')!r}")
    terms = {}
    for rec in data["terms"]:
        mono = tuple(sorted(((cli.FAMILY_CODES[name], idx), e)
                            for name, idx, e in rec["powers"]))
        terms[mono] = rec["coeff"]
    return TruncPoly.from_monomials(data["n"], data["deg"], terms.items())


def test_compute_g_one_box_exact_text():
    status, out = run(["compute", "G", "--shape", "1", "--n", "2",
                       "--deg", "2"])
    assert status == 0
    assert out == "(x1+x2) + a1*(x1^2+x1*x2+x2^2) - b1*x1*x2"


def test_compute_schur_empty_shape():
    status, out = run(["compute", "s", "--shape", "0", "--n", "1"])
    assert status == 0
    assert out == "1"


def test_compute_matches_library():
    status, out = run(["compute", "g", "--shape", "2,1", "--n", "2",
                       "--deg", "4"])
    assert status == 0
    assert out == cli.render_poly(g_jt((2, 1), 2, 4))
    status, out = run(["compute", "G", "--shape", "2,1", "--inner", "1",
                       "--n", "2", "--deg", "3", "--flags-r", "1,2",
                       "--flags-s", "2,2"])
    assert status == 0
    want = G_flagged_det((2, 1), (1,), (1, 2), (2, 2), "row", 2, 3)
    assert out == cli.render_poly(want)


def test_compute_defaults_match_tableau_enumeration():
    # unflagged compute goes through the Schur expansion; the tableau sums
    # are an independent evaluation at the default degree |lam|
    status, out = run(["compute", "G", "--shape", "4,3,2,1", "--n", "4"])
    assert status == 0
    assert out == cli.render_poly(enum_mmsvt((4, 3, 2, 1), (), 4, 10))
    status, out = run(["compute", "g", "--shape", "3,2,1", "--n", "4"])
    assert status == 0
    assert out == cli.render_poly(enum_mrpp((3, 2, 1), (), 4, 6))


def test_compute_col_orientation_without_flags_is_the_conjugate_shape():
    # --orientation col takes the column-flagged determinant with or without
    # explicit default flags; at r = 1, s = n that is the conjugate shape
    for target, shape in (("G", "2"), ("g", "2"), ("G", "2,1"),
                          ("g", "3,1")):
        argv = ["compute", target, "--shape", shape, "--n", "3",
                "--deg", "4", "--orientation", "col"]
        rows = len(shape.split(","))
        implicit = run(argv)
        explicit = run(argv + ["--flags-r", ",".join(["1"] * rows),
                               "--flags-s", ",".join(["3"] * rows)])
        conjugate_shape = ",".join(
            str(v) for v in conjugate(tuple(int(v) for v in shape.split(","))))
        unflagged = run(["compute", target, "--shape", conjugate_shape,
                         "--n", "3", "--deg", "4"])
        assert implicit[0] == 0
        assert implicit == explicit == unflagged, (target, shape)


def test_compute_specialization_recovers_schur():
    plain = run(["compute", "s", "--shape", "2,1", "--n", "2", "--deg", "3"])
    subbed = run(["compute", "G", "--shape", "2,1", "--n", "2", "--deg", "3",
                  "--spec", "a=0,b=0"])
    assert plain == subbed
    status, out = run(["compute", "G", "--shape", "1", "--n", "1",
                       "--deg", "2", "--spec", "a1=1,b1=0"])
    assert status == 0
    assert out == "(x1+x1^2)"


def test_output_is_byte_stable():
    argv = ["compute", "g", "--shape", "2,2", "--n", "3", "--deg", "4"]
    first = run(argv)
    assert first == run(argv)


def test_latex_format():
    status, out = run(["compute", "G", "--shape", "1", "--n", "2",
                       "--deg", "2", "--format", "latex"])
    assert status == 0
    assert out == ("(x_{1}+x_{2}) + \\alpha_{1} "
                   "(x_{1}^{2}+x_{1} x_{2}+x_{2}^{2}) - \\beta_{1} "
                   "x_{1} x_{2}")


def test_json_round_trip():
    for p in [G_jt((2, 1), 3, 4), g_jt((2, 2), 2, 5),
              schur_jt((1,), (), 2, 3), TruncPoly.zero(2, 3)]:
        blob = cli.render_poly(p, "json-like")
        data = json.loads(blob)
        assert data["schema"] == cli.SCHEMA
        assert parse_records(blob) == p
        assert parse_records(data) == p


def test_parse_records_rejects_unknown_schema():
    with pytest.raises(ShapeError):
        parse_records({"schema": "something-else", "n": 1, "deg": 0,
                       "terms": []})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([X, ALPHA, BETA]),
                          st.integers(1, 2), st.integers(1, 2),
                          st.integers(-3, 3)),
                max_size=4))
def test_round_trip_random_polynomials(spec):
    n, deg = 2, 4
    p = TruncPoly.zero(n, deg)
    for fam, idx, exp, coeff in spec:
        p = p + coeff * TruncPoly.var(n, deg, fam, idx) ** exp
    assert parse_records(cli.render_poly(p, "json-like")) == p


def test_render_zero_and_constants():
    assert cli.render_poly(TruncPoly.zero(1, 0)) == "0"
    assert cli.render_poly(TruncPoly.const(1, 0, 1)) == "1"
    assert cli.render_poly(TruncPoly.const(1, 0, -7)) == "-7"


def test_render_folds_negative_groups():
    n, deg = 2, 3
    x1 = TruncPoly.var(n, deg, X, 1)
    x2 = TruncPoly.var(n, deg, X, 2)
    b1 = TruncPoly.var(n, deg, BETA, 1)
    assert cli.render_poly(x1 + x2 - b1 * x1 * x2) == "(x1+x2) - b1*x1*x2"
    assert cli.render_poly(-b1 * (x1 + x2)) == "-b1*(x1+x2)"


def test_enumerate_multiset_tableaux_grid():
    status, out = run(["enumerate", "G", "--shape", "2", "--n", "1",
                       "--deg", "3"])
    assert status == 0
    assert out == "1 1\n\n11  1\n\n 1 11\n\ntotal: 3"


def test_enumerate_marks_use_trailing_asterisk():
    # left variant: the left cell of an equal horizontal pair may be marked
    status, out = run(["enumerate", "g", "--shape", "2", "--n", "1"])
    assert status == 0
    assert out == "1 1\n\n1*  1\n\ntotal: 2"


def test_enumerate_respects_flags():
    unflagged = run(["enumerate", "matsumura", "--shape", "2", "--n", "2",
                     "--deg", "4"])
    flagged = run(["enumerate", "matsumura", "--shape", "2", "--n", "2",
                   "--deg", "4", "--flags-s", "1"])
    assert unflagged[0] == flagged[0] == 0
    assert unflagged[1].endswith("total: 5")
    assert flagged[1].endswith("total: 1")


def test_enumerate_g_takes_a_dented_shape_with_a_mark_set():
    # the mark set makes a dented outer shape valid for g, which reads no
    # --deg; without one the generator still refuses the shape
    for text, mark_set, count in (("1", {1}, 7), ("1,2", {1, 2}, 14)):
        status, out = run(["enumerate", "g", "--shape", "1,2", "--n", "2",
                           "--mark-set", text])
        assert status == 0
        assert len(list(gen_mrpp((1, 2), (), 2, mark_set=mark_set))) == count
        assert out.endswith(f"total: {count}")
    status, out = run(["enumerate", "g", "--shape", "1,2", "--n", "2"])
    assert status == 2
    assert out == "error: not weakly decreasing: (1, 2)"


def test_enumerate_matsumura_caps_upper_flags_at_n():
    # values past n carry a zero x weight, so an upper flag past n admits
    # exactly the fillings of the flag n, as for G and g
    base = ["enumerate", "matsumura", "--shape", "2,1", "--n", "2"]
    capped = run(base + ["--flags-s", "2,2"])
    assert capped[0] == 0
    assert capped[1].endswith("total: 3")
    assert run(base + ["--flags-s", "3,3"]) == capped


def test_enumerate_marked_g_reads_default_and_infinite_upper_flags_as_n():
    base = ["enumerate", "g", "--shape", "1,2", "--n", "2", "--mark-set", "1"]
    unflagged = run(base)
    assert unflagged[0] == 0
    assert unflagged[1].endswith("total: 7")
    assert run(base + ["--flags-r", "1,1"]) == unflagged
    assert run(base + ["--flags-s", "inf,inf"]) == unflagged


def test_flags_below_one_exit_two():
    # a lower flag of 0 would put the entry 0 into the fillings; every verb
    # that reads flags refuses it as compute always did
    for verb, target in (("enumerate", "G"), ("enumerate", "g"),
                         ("enumerate", "matsumura"), ("compute", "G"),
                         ("compute", "g")):
        for flags in (["--flags-r", "0,1", "--flags-s", "2,2"],
                      ["--flags-r", "1,1", "--flags-s", "2,0"]):
            argv = [verb, target, "--shape", "2,1", "--n", "2", *flags]
            assert run(argv) == (2, "error: flags must be positive"), argv
    status, out = run(["enumerate", "G", "--shape", "2,1", "--n", "2",
                       "--flags-r", "1,1", "--flags-s", "2,2"])
    assert status == 0
    assert out.endswith("total: 30")


def test_enumerate_at_n_zero_names_n_not_the_default_flags():
    # the default upper flag is n, so at n = 0 the error names n, as
    # compute does, and not flags the user never passed
    for target in ("G", "g", "matsumura"):
        argv = ["enumerate", target, "--shape", "1", "--n", "0"]
        assert run(argv) == (2, "error: n = 0 is below the 1 rows of (1,); "
                                "pass a larger --n"), argv
    assert run(["compute", "G", "--shape", "1", "--n", "0"]) == \
        run(["enumerate", "G", "--shape", "1", "--n", "0"])
    # a shape that does not fit is refused whatever flags are passed, and a
    # default flag never causes a flag error: the empty shape has one
    # (empty) filling and the value 1
    for target in ("G", "g", "matsumura"):
        assert run(["enumerate", target, "--shape", "1", "--n", "0",
                    "--flags-s", "1"]) == \
            run(["compute", "G", "--shape", "1", "--n", "0"])
        assert run(["enumerate", target, "--shape", "0", "--n", "0"]) == \
            (0, "(empty shape)\n\ntotal: 1")
    for extra in ([], ["--flags-r", "1"], ["--flags-s", "1"],
                  ["--orientation", "col"]):
        for target in ("G", "g"):
            argv = ["compute", target, "--shape", "0", "--n", "0", *extra]
            assert run(argv) == (0, "1"), argv


def test_the_empty_shape_takes_the_empty_mark_set():
    # the empty shape is an ordinary partition, so --mark-set 0 (no marks)
    # changes nothing and a mark on row 1 is out of range
    empty = ["--shape", "0", "--n", "2"]
    assert run(["compute", "g", *empty, "--mark-set", "0"]) == (0, "1") == \
        run(["compute", "g", *empty])
    assert run(["enumerate", "g", *empty, "--mark-set", "0"]) == \
        (0, "(empty shape)\n\ntotal: 1")
    for verb in ("compute", "enumerate"):
        assert run([verb, "g", *empty, "--mark-set", "1"]) == \
            (2, "error: mark set out of range: [1]")


def test_flags_past_n_meet_the_hypothesis_as_read(recwarn):
    # --flags-s 3,2 reads (2, 2) at n = 2, which is row monotone
    assert run(["compute", "G", "--shape", "1,1", "--n", "2",
                "--flags-s", "3,2"]) == (0, "x1*x2")
    assert not recwarn.list


def test_enumerate_refuses_options_its_target_ignores():
    for argv, option in (
            (["enumerate", "matsumura", "--shape", "2", "--n", "2",
              "--orientation", "col"], "--orientation"),
            (["enumerate", "matsumura", "--shape", "2", "--n", "2",
              "--variant", "right"], "--variant"),
            (["enumerate", "matsumura", "--shape", "2", "--n", "2",
              "--mark-set", "1"], "--mark-set"),
            (["enumerate", "G", "--shape", "2", "--n", "2", "--mark-set", "1",
              "--variant", "right"], "--variant, --mark-set"),
            (["enumerate", "G", "--shape", "2", "--n", "2",
              "--variant", "left"], "--variant"),
            (["enumerate", "g", "--shape", "2", "--n", "2", "--deg", "4"],
             "--deg"),
            (["enumerate", "g", "--shape", "2", "--n", "2",
              "--format", "latex"], "--format")):
        status, out = run(argv)
        assert status == 2, argv
        assert out == f"error: enumerate {argv[1]} takes no {option}", argv
    # the options a target reads are still accepted
    for argv in (["enumerate", "g", "--shape", "2", "--n", "2",
                  "--variant", "right"],
                 ["enumerate", "matsumura", "--shape", "2", "--n", "2",
                  "--orientation", "row", "--format", "text"]):
        status, out = run(argv)
        assert status == 0, argv
        assert out.endswith("total: 5"), argv


def test_verify_and_expand_refuse_options_they_ignore():
    for argv, option in (
            (["verify", "duality", "--budget", "3"], "--budget"),
            (["verify", "C", "--deg", "4"], "--deg"),
            (["verify", "cauchy", "--max-size", "9"], "--max-size"),
            (["verify", "matsumura", "--budget", "2"], "--budget"),
            (["verify", "omega", "--deg", "9", "--max-size", "1"], "--deg"),
            (["expand", "s", "--shape", "1", "--inner", "1"], "--inner"),
            (["expand", "g", "--shape", "2", "--budget", "3"], "--budget"),
            (["expand", "g", "--shape", "2", "--inner", "1", "--budget",
              "0"], "--budget"),
            (["expand", "g", "--shape", "2,2", "--deg", "9"], "--deg")):
        status, out = run(argv)
        assert status == 2, argv
        assert out == f"error: {argv[0]} {argv[1]} takes no {option}", argv
    # the options a suite reads are still accepted, each on its own
    for argv in (["verify", "omega", "--max-size", "1", "--budget", "1"],
                 ["verify", "G", "--deg", "2", "--max-size", "1"],
                 ["verify", "g", "--deg", "2"],
                 ["expand", "s", "--shape", "1", "--budget", "0"]):
        status, out = run(argv)
        assert status == 0, (argv, out)


def test_expand_one_box():
    status, out = run(["expand", "G", "--shape", "1", "--budget", "1"])
    assert status == 0
    assert out == "s[1]: 1\ns[2]: a1\ns[1,1]: -b1"
    status, out = run(["expand", "g", "--shape", "2"])
    assert status == 0
    assert out == "s[1]: -a1\ns[2]: 1"


def test_coeff_hall_is_delta():
    assert run(["coeff", "hall", "--shape", "2,1", "--inner", "2,1"]) \
        == (0, "1")
    assert run(["coeff", "hall", "--shape", "2,1", "--inner", "3"]) == (0, "0")
    assert run(["coeff", "C", "--shape", "1", "--inner", "2"]) == (0, "a1")
    assert run(["coeff", "c", "--shape", "2", "--inner", "1"]) == (0, "-a1")
    assert run(["coeff", "c", "--shape", "2,1", "--inner", "2"]) == (0, "b1")


def test_verify_exit_codes():
    status, out = run(["verify", "duality", "--max-size", "2"])
    assert status == 0
    assert "pairs equal delta" in out
    # hall was a second name of duality; coeff hall is the pairing value
    status, _ = run(["verify", "hall"])
    assert status == 2


@pytest.mark.parametrize("argv", [
    ["duality", "--max-size", "2"],
    ["G", "--max-size", "2", "--deg", "3"],
    ["g", "--max-size", "2", "--deg", "3"],
    ["C", "--max-size", "3"],
    ["c", "--max-size", "3"],
    ["cauchy", "--budget", "2"],
    ["omega", "--max-size", "2"],
    ["matsumura", "--max-size", "2"],
    ["flagged", "--max-size", "1"],
], ids=lambda argv: argv[0])
def test_every_verify_suite_exits_zero_at_small_size(argv):
    assert argv[0] in cli.VERIFY_SUITES
    status, out = run(["verify"] + argv)
    assert status == 0, out
    assert "FAIL" not in out


def test_verify_matsumura_reports_flags_outside_the_hypothesis():
    status, out = run(["verify", "matsumura", "--max-size", "2"])
    assert status == 0
    assert out.splitlines() == [
        "matsumura: 74 flagged shapes match the set-valued enumeration; "
        "surviving convention: b = (-beta, -beta, ...)",
        "outside the flag hypothesis (reported, not asserted): "
        "0 flag pairs agree, 16 differ"]


def test_verify_failure_exits_one(monkeypatch):
    # one extra term in the tableau side at one shape: the driver stops
    # there and prints got - want
    def enum_with_extra_term(lam, mu, n, deg):
        value = enum_mmsvt(lam, mu, n, deg)
        if (lam, n) == ((2, 1), 3):
            value = value + TruncPoly.var(n, deg, BETA, 1)
        return value

    monkeypatch.setattr(cli, "enum_mmsvt", enum_with_extra_term)
    status, out = run(["verify", "G", "--max-size", "3"])
    assert status == 1
    assert out.splitlines() == [
        "FAIL G concordance at lam=(2, 1), n=3: tableau enumeration",
        "difference: b1"]
    # a predicate case fails with its label alone
    monkeypatch.setattr(cli, "omega_check", lambda *args: False)
    status, out = run(["verify", "omega", "--max-size", "1"])
    assert status == 1
    assert out.splitlines() == ["FAIL omega for G at lam=(), mu=()"]


def brute_force_flag_classes(lam, mu, contained):
    """cli._flag_classes by testing every raw flag pair against every
    hypothesis: for each n, the first raw (r, s) of each class (R, S) =
    flag_class(r, s, n), in raw order, as (r, s, R, S)."""
    flag_pairs = []
    for r, s in cli._flag_pairs(max(len(lam), len(mu), 1)):
        col = contained and col_monotone(lam, mu, r, s)
        holds = [name for name, ok in (
            ("row", row_monotone(lam, mu, r, s)), ("col", col),
            ("weak", contained and not col
             and col_monotone(lam, mu, r, s, slack=1))) if ok]
        if holds:
            flag_pairs.append((r, s, holds))
    for n in cli.FLAGGED_NS:
        classes = {"row": [], "col": [], "weak": []}
        seen = set()
        for r, s, holds in flag_pairs:
            capped = flag_class(r, s, n)
            for hypothesis in holds:
                if (hypothesis, capped) not in seen:
                    seen.add((hypothesis, capped))
                    classes[hypothesis].append((r, s, *capped))
        yield n, classes


def test_flag_classes_match_the_brute_force_oracle(monkeypatch):
    # the same classes in the same order, for every n and hypothesis.  Under
    # row and col each class is its own first raw flags; (3, 2) is the weak
    # lower flag of (1, 1) at n = 1 whose class is (2, 2), so a first raw
    # flag differs from its class there.  FLAG_MAX = 4 also caps the upper
    # flags at n = 3 and reaches the lower flag n + 1 there; it runs on
    # shapes up to 3 cells to bound the time
    for flag_max, max_size in ((3, 4), (4, 3)):
        monkeypatch.setattr(cli, "FLAG_MAX", flag_max)
        weak_raw = 0
        for lam in partitions_up_to(max_size):
            for mu in partitions_up_to(max_size):
                contained = contains(mu, lam)
                want = list(brute_force_flag_classes(lam, mu, contained))
                assert list(cli._flag_classes(lam, mu, contained)) == [
                    (n, {hypothesis: [(R, S) for _, _, R, S in found]
                         for hypothesis, found in classes.items()})
                    for n, classes in want], (flag_max, lam, mu)
                for _, classes in want:
                    for hypothesis in ("row", "col"):
                        assert all((r, s) == (R, S) for r, s, R, S
                                   in classes[hypothesis]), \
                            (flag_max, lam, mu, hypothesis)
                    weak_raw += sum(r != R for r, _, R, _ in classes["weak"])
        assert weak_raw, flag_max


def test_marked_row_filter_matches_the_raw_pair_filter():
    # row_monotone splits into a lower and an upper condition on dented
    # outer shapes too
    checked = 0
    for lam in cli._dented_shapes(4, 3):
        for mu in partitions_up_to(sum(lam)):
            if len(mu) > len(lam) or not contains(mu, lam):
                continue
            lower, upper = cli._split(
                cli._flag_space(len(lam)),
                lambda r, s: row_monotone(lam, mu, r, s))
            assert [(r, s) for r in lower for s in upper] == [
                (r, s) for r, s in cli._flag_pairs(len(lam))
                if row_monotone(lam, mu, r, s)], (lam, mu)
            checked += 1
    assert checked > 20


def test_flagged_failure_prints_the_old_labels(monkeypatch):
    # each kind of flagged case fails once, through a wrong reference, and
    # _run_suite prints its label as the suite's f-strings did
    one = lambda n, deg: TruncPoly.const(n, deg, 1)
    reference = cli._tableau_reference

    def wrong_reference(kind, orientation, lam, mu, n, deg):
        value = reference(kind, orientation, lam, mu, n, deg)
        if (kind, orientation, lam, mu, n) != ("G", "row", (2, 1), (1,), 2):
            return value
        return lambda r, s: value(r, s) + one(n, deg)

    monkeypatch.setattr(cli, "_tableau_reference", wrong_reference)
    lam, mu, n, r, s = (2, 1), (1,), 2, (1, 1), (1, 1)
    assert run(["verify", "flagged", "--max-size", "3"]) == (
        1, f"FAIL row G at lam={lam}, mu={mu}, n={n}, r={r}, s={s}\n"
           "difference: -1")
    monkeypatch.setattr(cli, "_tableau_reference", reference)

    calls = []

    def wrong_direct(kind):
        direct = getattr(cli, f"{kind}_flagged_det")

        def wrong(lam, mu, r, s, orientation, n, deg):
            calls.append((kind, lam, mu, r, s, orientation, n))
            return direct(lam, mu, r, s, orientation, n, deg) + one(n, deg)
        return wrong

    for kind in ("G", "g"):
        monkeypatch.setattr(cli, f"{kind}_flagged_det", wrong_direct(kind))
    status, out = run(["verify", "flagged", "--max-size", "2"])
    kind, lam, mu, r, s, orientation, n = calls[-1]
    key = f"{orientation} {'G' if kind == 'G' else 'dual'}"
    assert (status, out) == (
        1, f"FAIL cross-check {key} at lam={lam}, mu={mu}, n={n}, r={r}, "
           f"s={s}\ndifference: 1")

    class WrongMarkedSweep(cli.TableauSweep):
        def value(self, r, s):
            got = super().value(r, s)
            return got if self.mark_set is None else got + one(self.n,
                                                                self.deg)

    monkeypatch.undo()
    monkeypatch.setattr(cli, "TableauSweep", WrongMarkedSweep)
    # the first marked dual: lam = (1,), mu = (), its first mark set {1}
    lam, mu, r, s = (1,), (), (1,), (1,)
    assert cli.valid_mark_sets(lam)[0] == {1}
    assert run(["verify", "flagged", "--max-size", "2"]) == (
        1, f"FAIL marked dual at lam={lam}, mu={mu}, I={sorted({1})}, "
           f"r={r}, s={s}\ndifference: -1")


def test_usage_errors_exit_two():
    status, out = run(["compute", "G", "--shape", "2,1", "--n", "1",
                       "--deg", "3"])
    assert status == 2
    assert "rows" in out
    status, _ = run(["compute", "G", "--shape", "nope", "--n", "1"])
    assert status == 2
    status, _ = run(["compute", "G", "--shape", "1", "--n", "1",
                     "--spec", "q=3"])
    assert status == 2
    # alpha_0 and beta_0 do not exist, so a rule naming one is refused
    status, out = run(["compute", "G", "--shape", "1", "--n", "1",
                       "--deg", "2", "--spec", "a0=5"])
    assert status == 2
    assert "a0=5" in out
    status, _ = run(["unknown-verb"])
    assert status == 2
    status, _ = run(["compute", "G", "--shape", "2", "--n", "2",
                     "--deg", "-1"])
    assert status == 2
    status, out = run(["expand", "G", "--shape", "2", "--inner", "3"])
    assert status == 2
    assert "contained" in out
    # a degree past the packed monomial fields is refused, not wrapped
    status, out = run(["compute", "G", "--shape", "1", "--n", "1",
                       "--deg", "5000"])
    assert status == 2
    assert "exceeds" in out
    # one flag per row of the shape: longer and shorter lists are refused
    for argv in (["compute", "G", "--shape", "2,1", "--n", "3",
                  "--flags-r", "1,1,1", "--flags-s", "3,3,3"],
                 ["compute", "g", "--shape", "2,1", "--n", "3",
                  "--flags-s", "3"],
                 ["enumerate", "G", "--shape", "2,1", "--n", "2",
                  "--flags-r", "1,1,1"],
                 ["enumerate", "g", "--shape", "2,1", "--n", "2",
                  "--flags-s", "1"],
                 ["enumerate", "matsumura", "--shape", "2,1", "--n", "3",
                  "--flags-s", "2,3,3", "--flags-r", "1,2"]):
        status, out = run(argv)
        assert status == 2, argv
        assert "expected 2" in out, argv
    # compute s has no flagged or marked form and no parameters
    for extra, option in ((["--flags-r", "2"], "--flags-r"),
                          (["--flags-s", "2"], "--flags-s"),
                          (["--mark-set", "1"], "--mark-set"),
                          (["--spec", "a=5"], "--spec"),
                          (["--orientation", "col"], "--orientation"),
                          (["--spec", "b=1", "--flags-r", "1"],
                           "--flags-r, --spec")):
        argv = ["compute", "s", "--shape", "2", "--n", "2"] + extra
        assert run(argv) == (2, f"error: compute s takes no {option}"), argv
    # mark sets belong to the row-flagged g
    status, out = run(["compute", "g", "--shape", "2,1", "--n", "2",
                       "--mark-set", "1", "--orientation", "col"])
    assert status == 2
    assert out.startswith("error:")
    # column-flagged tableaux take one flag per column of the shape
    for argv in (["enumerate", "G", "--shape", "3", "--n", "3",
                  "--orientation", "col", "--flags-r", "1"],
                 ["enumerate", "g", "--shape", "3,1", "--n", "3",
                  "--orientation", "col", "--flags-s", "2,3"]):
        status, out = run(argv)
        assert status == 2, argv
        assert "expected 3" in out, argv
    # negative sizes, budgets and variable counts are refused by the parser,
    # and verify matsumura needs a shape with a cell
    for argv in (["verify", "duality", "--max-size", "-1"],
                 ["verify", "cauchy", "--budget", "-1"],
                 ["verify", "omega", "--budget", "-1"],
                 ["expand", "G", "--shape", "2", "--budget", "-1"],
                 ["enumerate", "G", "--shape", "2", "--n", "-1"],
                 ["verify", "matsumura", "--max-size", "0"]):
        status, _ = run(argv)
        assert status == 2, argv


def test_low_degree_warning_on_stderr(capsys):
    status, _ = run(["compute", "G", "--shape", "3", "--n", "1", "--deg", "1"])
    assert status == 0
    assert "truncated" in capsys.readouterr().err


def test_enumerate_warns_on_a_degree_below_the_cell_count(capsys):
    for target in ("G", "matsumura"):
        argv = ["enumerate", target, "--shape", "2", "--n", "2"]
        assert run(argv + ["--deg", "0"]) == (0, "total: 0"), target
        assert "--deg 0 is below the cell count 2" in \
            capsys.readouterr().err, target
        run(argv + ["--deg", "2"])
        assert capsys.readouterr().err == "", target


def test_marked_verbs_refuse_an_undented_shape_alike():
    # one check of a marked shape, so one error line for both verbs
    want = (2, "error: not a dented partition: (1, 3)")
    for verb in ("compute", "enumerate"):
        assert run([verb, "g", "--shape", "1,3", "--n", "2",
                    "--mark-set", "1"]) == want, verb


def test_compute_G_refuses_an_inner_shape_outside_the_outer():
    want = (2, "error: (3,) not contained in (2,)")
    for verb in ("compute", "enumerate", "expand"):
        assert run([verb, "G", "--shape", "2", "--inner", "3",
                    "--n", "2"]) == want, verb
    assert run(["compute", "G", "--shape", "2", "--inner", "1,1",
                "--n", "2"]) == (2, "error: (1, 1) not contained in (2,)")
    # the dual determinant and the skew Schur polynomial vanish there
    for target in ("g", "s"):
        assert run(["compute", target, "--shape", "2", "--inner", "3",
                    "--n", "2"]) == (0, "0"), target


SHAPE_TARGETS = [(verb, target) for verb, targets in (
    ("compute", ("G", "g", "s")), ("expand", ("G", "g", "s")),
    ("coeff", ("C", "c", "hall")), ("enumerate", ("G", "g", "matsumura")))
    for target in targets]


@pytest.mark.parametrize("verb,target", SHAPE_TARGETS)
@pytest.mark.parametrize("shape,inner,bad", [("1,3", "0", (1, 3)),
                                             ("3", "1,2", (1, 2))])
def test_every_target_refuses_a_shape_that_is_no_partition(verb, target,
                                                           shape, inner, bad):
    # (1, 2) would be a valid dented outer shape for the marked dual, but
    # never an inner one; expand s takes no inner shape at all
    status, out = run([verb, target, "--shape", shape, "--inner", inner,
                       "--n", "3"])
    assert status == 2
    assert out in (f"error: not weakly decreasing: {bad}",
                   "error: expand s takes no --inner")


def test_a_flag_list_that_is_no_integer_list_is_named():
    for verb in ("compute", "enumerate"):
        for option in ("--flags-r", "--flags-s"):
            assert run([verb, "G", "--shape", "2,1", "--n", "2",
                        option, "1,a"]) == \
                (2, "error: bad flag list '1,a'"), (verb, option)


def test_an_infinite_lower_flag_exits_two():
    # an infinite lower flag admits no entry in its row: refused, where it
    # printed 0, total: 0 and a polynomial
    for verb, target, flags in (("compute", "G", "1,inf"),
                                ("enumerate", "G", "1,inf"),
                                ("compute", "g", "inf,1")):
        argv = [verb, target, "--shape", "2,1", "--n", "2", "--flags-r", flags]
        assert run(argv) == (2, "error: lower flags must be finite"), argv


def test_mark_set_rejected_for_G():
    status, out = run(["compute", "G", "--shape", "1,2", "--n", "2",
                       "--mark-set", "1"])
    assert status == 2
    assert "dual" in out
