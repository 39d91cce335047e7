"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run small ops only, in fresh processes, as the benchmark does.
"""

import pytest

from run import load_golden, mismatch, run_op, run_pass, parse_trace
from tracer import combine
from workloads import WORKLOADS

# one small op from each workload
SMALL_OPS = {
    "compute-jt": "compute G --shape 2,1 --inner 1 --n 4 --deg 5",
    "verify-flagged": "enumerate g --shape 3,2,1 --n 4",
    "identities": "verify C --max-size 7",
}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_covers_every_op(golden):
    ops = {op for w in WORKLOADS.values() for op in w["ops"]}
    assert set(golden) == ops
    assert all(entry["status"] == 0 for entry in golden.values())
    for op in WORKLOADS["compute-jt"]["ops"]:
        assert golden[op]["checked_by"].startswith("enum_")


@pytest.mark.parametrize("workload", sorted(SMALL_OPS))
def test_traced_stdout_is_byte_identical(workload, golden):
    op = SMALL_OPS[workload]
    assert op in WORKLOADS[workload]["ops"]
    plain = run_op(op, traced=False)
    traced = run_op(op, traced=True)
    assert plain.stdout == traced.stdout
    assert plain.status == traced.status == 0
    assert mismatch(plain, golden) is None
    assert mismatch(traced, golden) is None


def test_failed_ops_counts_tampered_output(golden):
    order = [SMALL_OPS["compute-jt"], SMALL_OPS["verify-flagged"],
             SMALL_OPS["identities"]]

    def tampered(op, traced):
        r = run_op(op, traced)
        if op == order[1]:
            return r._replace(stdout=r.stdout.replace(b"1", b"2", 1))
        if op == order[2]:
            return r._replace(status=1)
        return r

    clean = run_pass(order, golden)
    assert clean.failed == []
    bad = run_pass(order, golden, run=tampered)
    assert [op for op, _ in bad.failed] == order[1:]
    assert len(bad.failed) / len(bad.results) == pytest.approx(2 / 3)


def test_counts_repeat_across_traced_runs():
    ops = list(SMALL_OPS.values())

    def counts():
        values = combine([parse_trace(run_op(op, traced=True))
                          for op in ops], wall_s=1.0)
        return {k: v for k, v in values.items()
                if k.endswith(".calls") or k in (
                    "ring.mul.pairs", "ring.mul.out_terms",
                    "tableaux.gen.yields", "cli.render.bytes")}

    first, second = counts(), counts()
    assert first == second
    # the ops reach each layer through names imported into other modules
    for name in ("ring.mul.calls", "ring.det.calls", "ring.specialize.calls",
                 "symfunc.pleth.calls", "symfunc.ominus.calls",
                 "grothendieck.flagged.calls", "grothendieck.coeff.calls",
                 "tableaux.enum.calls", "tableaux.gen.yields",
                 "lgv.paths.calls", "cli.render.calls"):
        assert first[name] > 0, name
