"""Golden CLI outputs: exit status and stdout of fast ops that cover every
formula path (flagged, marked and modified determinants, skew expansions,
coefficients, enumerations and the verify suites), and the benchmark's ops
against the goldens in perfbench/golden.json.

The expected values were recorded from the CLI and must stay byte-identical
under refactoring.  Outputs longer than a few lines are stored as a sha256
digest of the text.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import warnings

import pytest

from grothpoly import cli

GOLDEN = [
    ('compute G --shape 2,1 --n 3 --deg 4',
     0, 'sha256:bd14f228f5646776081389f41fa4a3e7290c1e23781c690c322ee8597d53ce21'),
    ('compute g --shape 2,2 --n 3 --deg 5',
     0, 'sha256:1d7f3c5cafb74c81828c44dffb536c662a07f57141a0000b79aadbf089f2ae1d'),
    ('compute s --shape 2,1 --inner 1 --n 3',
     0, '(x1^2+2*x1*x2+2*x1*x3+x2^2+2*x2*x3+x3^2)'),
    ('compute G --shape 2,1 --inner 1 --n 3 --deg 4 --flags-r 1,2 --flags-s 2,3',
     0, 'sha256:19fa847cf8fc75353445816996331b907d64343879b65b4d8c311fc03e3213af'),
    ('compute G --shape 2,1 --inner 1 --n 2 --deg 4 --flags-r 1,4 --flags-s 5,6',
     0, '0'),
    ('compute G --shape 2,1 --inner 1,1 --n 2 --deg 4 --flags-r 1,4 --flags-s 3,5',
     0, '(x1+x2) + a2*(x1^2+x1*x2+x2^2) - b1*x1*x2 - a2*b1*(x1^2*x2+x1*x2^2) + a2^2*(x1^3+x1^2*x2+x1*x2^2+x2^3) - a2^2*b1*(x1^3*x2+x1^2*x2^2+x1*x2^3) + a2^3*(x1^4+x1^3*x2+x1^2*x2^2+x1*x2^3+x2^4)'),
    ('compute g --shape 2,1 --inner 1,1 --n 2 --deg 4 --flags-r 1,4 --flags-s 3,5 --orientation col',
     0, '(x1+x2)'),
    ('compute G --shape 2,2 --inner 1 --n 3 --deg 5 --flags-r 1,2 --flags-s 3,4 --orientation col',
     0, 'sha256:0ddf569ddf4d747f962dfafca4d076594ba358db29de1b26ab7fe4796f048f69'),
    ('compute g --shape 3,1 --inner 1 --n 3 --deg 4 --flags-r 1,2 --flags-s 2,3',
     0, '(x1^2*x2+x1^2*x3+x1*x2^2+x1*x2*x3+x2^3+x2^2*x3) - a2*(x1*x2+x1*x3+x2^2+x2*x3)'),
    ('compute g --shape 2,1 --inner 1 --n 2 --deg 4 --flags-r 2,4 --flags-s 3,5 --orientation col',
     0, '0'),
    ('compute g --shape 2,2 --inner 1 --n 3 --deg 4 --flags-s 2,inf --orientation col',
     0, '(x1^2*x2+x1^2*x3+x1*x2^2+2*x1*x2*x3+x2^2*x3) - a1*x1*x2 + b1*(x1^2+x1*x2+x1*x3+x2^2+x2*x3) - a1*b1*(x1+x2)'),
    ('compute g --shape 1,2 --n 2 --deg 4 --mark-set 1,2',
     0, '-a2*x1*x2 + b1*x1*x2 + a1*a2*(x1+x2) - a1*b1*(x1+x2) - a2*b1*(x1+x2) + b1^2*(x1+x2) + a1*a2*b1 - a1*b1^2 - a1^2*a2 + a1^2*b1'),
    ('compute g --shape 1,2 --inner 1 --n 3 --deg 4 --mark-set 1 --flags-r 1,2 --flags-s 2,3',
     0, '(x2*x3+x3^2) - a1*x3 + b1*x2 - a1*b1'),
    ('compute G --shape 2,1 --n 2 --deg 3 --spec b=0',
     0, '(x1^2*x2+x1*x2^2)'),
    ('compute G --shape 2,1 --n 2 --deg 4 --spec a2=-1,b1=0',
     0, '(x1^2*x2+x1*x2^2-x1^3*x2-x1^2*x2^2-x1*x2^3) + a1*(x1^3*x2+2*x1^2*x2^2+x1*x2^3)'),
    ('compute g --shape 3,2,1 --n 4 --format latex',
     0, 'sha256:c94f101cea6df08eed1653d072e93ddae87636bb2525aef44ab2de6acaea3cc2'),
    ('compute G --shape 3,1 --n 4 --deg 6 --format json-like',
     0, 'sha256:ad48993a32deeae8e9e2f5e4f3debfcd1dd04a8f475739ddd5b84e57298ecd3e'),
    ('compute G --shape 0 --n 2 --deg 3',
     0, '1'),
    ('compute G --shape 2,2 --n 3 --deg 6 --spec a=0',
     0, '(x1^2*x2^2+x1^2*x2*x3+x1^2*x3^2+x1*x2^2*x3+x1*x2*x3^2+x2^2*x3^2) - b1*(x1^2*x2^2*x3+x1^2*x2*x3^2+x1*x2^2*x3^2) - b2*(x1^2*x2^2*x3+x1^2*x2*x3^2+x1*x2^2*x3^2) + b1*b2*x1^2*x2^2*x3^2'),
    ('compute g --shape 3,3 --n 2',
     0, 'sha256:8915f73340224297497951283e88e9884c8f8355d39e5baff9d1d49f7953da86'),
    ('expand G --shape 2,1 --n 2 --deg 2',
     0, 's[2,1]: 1\ns[3,1]: a1 + a2\ns[2,2]: a1 - b1\ns[2,1,1]: -b1 - b2\ns[4,1]: a1*a2 + a1^2 + a2^2\ns[3,2]: a1*a2 - a1*b1 + a1^2 - a2*b1\ns[3,1,1]: -a1*b1 - a1*b2 - a2*b1 - a2*b2\ns[2,2,1]: -a1*b1 - a1*b2 + b1*b2 + b1^2\ns[2,1,1,1]: b1*b2 + b1^2 + b2^2'),
    ('expand g --shape 2,2',
     0, 's[1]: -a1*b1^2 + a1^2*b1\ns[1,1]: -a1*b1 + a1^2\ns[2]: -a1*b1 + b1^2\ns[2,1]: -a1 + b1\ns[2,2]: 1'),
    ('expand G --shape 2,1 --inner 1 --deg 2',
     0, 'sha256:7bcbaa8a2a44fa6a60a30733e0ace66fa8222b6c0cf71aa14d9ac6c95d6c210f'),
    ('expand g --shape 3,2 --inner 1 --n 2',
     0, 'sha256:983a2b87f366539e8f7bcfba8489b9da90fa6f4f36eb6b1007bd2fd4854b01b1'),
    ('expand s --shape 2,1 --deg 2',
     0, 'sha256:2180324a48803a65cee854429a3ed7dbe7e5c894acc41d9cac274d111c325530'),
    ('coeff C --shape 1 --inner 2,1',
     0, '-a1*b1'),
    ('coeff c --shape 3,1 --inner 1',
     0, 'a1*a2*b1'),
    ('coeff C --shape 1 --inner 2 --spec a=2,a1=3',
     0, '3'),
    ('coeff C --shape 1 --inner 2 --spec a1=3,a=2',
     0, '2'),
    ('coeff c --shape 3,1 --inner 1 --spec b=-1,a2=2',
     0, '-2*a1'),
    ('coeff hall --shape 2,1 --inner 2,1',
     0, '1'),
    ('enumerate G --shape 2,1 --n 2',
     0, 'sha256:408ff06a4ea09c50b66fb6d04273ff95b5efa094469fa8a0bcd4d6d2167a7bc7'),
    ('enumerate G --shape 2,1 --n 3 --flags-r 1,2 --flags-s 2,3',
     0, 'sha256:413f2aeff76ed4803ff2924c6a7b65c50afa20cf42740248e983e62a91cc57d7'),
    ('enumerate G --shape 3 --n 3 --orientation col --flags-r 1,1,2 --flags-s 3,3,3',
     0, 'sha256:38f938406140e233dbe76d1f0f608c0ed8bd52768b842b80f5df6ebbe25fb9f6'),
    ('enumerate g --shape 3,1 --n 3 --orientation col --flags-r 1,2,2 --flags-s 2,3,3',
     0, '1 2 2\n1\n\n 1 2*  2\n 1\n\n1 2 2\n2\n\n 1 2*  2\n 2\n\n2 2 2\n2\n\n2*  2  2\n 2\n\n 2 2*  2\n 2\n\n2* 2*  2\n 2\n\n1 2 3\n1\n\n1 2 3\n2\n\n2 2 3\n2\n\n2*  2  3\n 2\n\n1 3 3\n1\n\n 1 3*  3\n 1\n\n1 3 3\n2\n\n 1 3*  3\n 2\n\n2 3 3\n2\n\n 2 3*  3\n 2\n\ntotal: 18'),
    ('enumerate g --shape 2,2 --n 2',
     0, '1 1\n1 1\n\n1*  1\n 1  1\n\n 1  1\n1*  1\n\n1*  1\n1*  1\n\n1 1\n1 2\n\n1*  1\n 1  2\n\n1 1\n2 2\n\n1*  1\n 2  2\n\n 1  1\n2*  2\n\n1*  1\n2*  2\n\n1 2\n1 2\n\n1 2\n2 2\n\n 1  2\n2*  2\n\n2 2\n2 2\n\n2*  2\n 2  2\n\n 2  2\n2*  2\n\n2*  2\n2*  2\n\ntotal: 17'),
    ('enumerate g --shape 1,2 --n 2 --mark-set 1,2',
     0, '1\n1 2\n\n 1\n 1 2*\n\n1\n2 2\n\n 1\n2*  2\n\n 1\n 2 2*\n\n 1\n2* 2*\n\n2\n2 2\n\n2*\n 2  2\n\n 2\n2*  2\n\n 2\n 2 2*\n\n2*\n2*  2\n\n2*\n 2 2*\n\n 2\n2* 2*\n\n2*\n2* 2*\n\ntotal: 14'),
    ('enumerate g --shape 2,1 --n 2 --mark-set 1',
     0, '1 1\n1\n\n1*  1\n 1\n\n1 1\n2\n\n1*  1\n 2\n\n1 2\n1\n\n 1 2*\n 1\n\n1 2\n2\n\n 1 2*\n 2\n\n2 2\n2\n\n2*  2\n 2\n\n 2 2*\n 2\n\n2* 2*\n 2\n\ntotal: 12'),
    ('enumerate matsumura --shape 2,1 --n 3 --flags-s 2,3 --flags-r 1,2',
     0, '1 1\n2\n\n 1  1\n23\n\n1 1\n3\n\n 1 12\n 2\n\n 1 12\n23\n\n 1 12\n 3\n\n1 2\n2\n\n 1  2\n23\n\n1 2\n3\n\n12  2\n 3\n\n2 2\n3\n\ntotal: 11'),
    # skew and variant enumerations, one per generator and placement rule
    ('enumerate G --shape 3,2 --inner 1 --n 3',
     0, 'sha256:f5e0a4d74aea451ee9b7aeb8e008bd65bc30c87f4bdcb590f20e6d834e70447e'),
    ('enumerate G --shape 3,2 --inner 1 --n 3 --orientation col --flags-r 1,1,2 --flags-s 2,3,3',
     0, 'sha256:79df776effa02e4b51b65d8500a9e985ce2b44841d175c34532e233756837e5f'),
    ('enumerate matsumura --shape 3,2 --inner 1 --n 3 --flags-r 1,2 --flags-s 2,3',
     0, 'sha256:b1984033481df0b60889af32201c0130ad00c1a1893783568f9aac1b04d67086'),
    ('enumerate g --shape 3,2 --inner 1 --n 3 --variant right',
     0, 'sha256:ee02598c9dd46159055551907aad4ee07905a2a6bfd3d5d769da9ef9ab19133b'),
    ('enumerate g --shape 3,2 --inner 1 --n 3 --variant bottom --flags-s 2,3',
     0, 'sha256:e84ff4cd9af0373ba26f7a919945e7bacce9f501465c6758dc70631fb283acb7'),
    ('enumerate g --shape 1,2 --inner 1 --n 3 --mark-set 1 --flags-s 2,3',
     0, '.\n1 2\n\n.\n2 2\n\n .\n2*  2\n\n.\n1 3\n\n.\n2 3\n\n.\n3 3\n\n .\n3*  3\n\ntotal: 7'),
    # row 1's boundary entry lies outside the mark set, so it is infinite and
    # admits no entry in the cell below it
    ('enumerate g --shape 1,2 --n 2 --mark-set 2',
     0, 'total: 0'),
    # flag parsing: r defaults to 1 and s to n; inf reads as n, before the
    # r_j > s_i zero rule of the marked dual
    ('compute g --shape 1,2 --n 2 --deg 4 --mark-set 1 --flags-r 1,1',
     0, 'b1*x1*x2 - a1*b1*(x1+x2) + b1^2*(x1+x2) - a1*b1^2 + a1^2*b1'),
    ('compute g --shape 1,2 --n 2 --deg 4 --mark-set 1 --flags-r 3,1 --flags-s inf,inf',
     0, '0'),
    # a mark set's upper flag past n is kept, not capped: 3 > n = 2 appears
    ('compute g --shape 1,2 --n 2 --deg 4 --mark-set 1,2 --flags-r 1,3 --flags-s 1,3',
     0, 'a1*a2*x1 - a1^2*a2'),
    ('enumerate g --shape 1,2 --n 2 --mark-set 1,2 --flags-r 1,3 --flags-s 1,3',
     0, '1\n3 3\n\n1*\n 3  3\n\n 1\n3*  3\n\n 1\n 3 3*\n\n1*\n3*  3\n\n1*\n 3 3*\n\n 1\n3* 3*\n\n1*\n3* 3*\n\ntotal: 8'),
    ('enumerate matsumura --shape 2,1 --n 3 --flags-s 2,3',
     0, '1 1\n2\n\n 1  1\n23\n\n1 1\n3\n\n 1 12\n 2\n\n 1 12\n23\n\n 1 12\n 3\n\n1 2\n2\n\n 1  2\n23\n\n1 2\n3\n\n12  2\n 3\n\n2 2\n3\n\ntotal: 11'),
    # upper flags past n read as n: the 30 fillings of the unflagged call
    ('enumerate G --shape 2,1 --n 2 --flags-s 3,inf',
     0, 'sha256:408ff06a4ea09c50b66fb6d04273ff95b5efa094469fa8a0bcd4d6d2167a7bc7'),
    ('verify G --max-size 2 --deg 3',
     0, 'G concordance: 11 shapes agree five ways'),
    ('verify G',
     0, 'G concordance: 25 shapes agree five ways'),
    ('verify g',
     0, 'g concordance: 25 shapes agree five ways'),
    ('verify g --max-size 3',
     0, 'g concordance: 17 shapes agree five ways'),
    ('verify g --max-size 6',
     0, 'g concordance: 46 shapes agree five ways'),
    ('verify C --max-size 3',
     0, 'C: 22 pairs agree three ways and the sign-adjusted values are nonnegative'),
    ('verify C',
     0, 'C: 52 pairs agree three ways and the sign-adjusted values are nonnegative'),
    ('verify c',
     0, 'c: 52 pairs agree three ways and the sign-adjusted values are nonnegative'),
    ('verify c --max-size 3',
     0, 'c: 22 pairs agree three ways and the sign-adjusted values are nonnegative'),
    ('verify flagged --max-size 2',
     0, 'sha256:aadde0e93672f66a15ae74d1804258f26d3598b8b6bbe7e20792eddb2901d27e'),
    # the benchmark's op; its stdout plus the final newline hashes to
    # b511137632cd20d5...
    ('verify flagged --max-size 3',
     0, 'sha256:0f3b9fea24897712005a1fabaf5b13a7afa6b7d189918b494522548aed58be85'),
    ('verify matsumura --max-size 3',
     0, 'matsumura: 606 flagged shapes match the set-valued enumeration; surviving convention: b = (-beta, -beta, ...)\noutside the flag hypothesis (reported, not asserted): 19 flag pairs agree, 275 differ'),
    ('verify matsumura',
     0, 'matsumura: 1804 flagged shapes match the set-valued enumeration; surviving convention: b = (-beta, -beta, ...)\noutside the flag hypothesis (reported, not asserted): 19 flag pairs agree, 499 differ'),
    ('verify omega --max-size 3',
     0, 'omega: 38 expansion-level involution checks pass'),
    ('verify omega',
     0, 'omega: 74 expansion-level involution checks pass'),
    ('verify duality',
     0, 'duality: 144 pairs equal delta'),
    ('verify cauchy --budget 2',
     0, 'cauchy: kernel matches the G*g sum to bidegree 2'),
    ('verify cauchy',
     0, 'cauchy: kernel matches the G*g sum to bidegree 3'),
    # the benchmark's op; its stdout plus the final newline hashes to
    # 6bd39f06bae123b6...
    ('verify cauchy --budget 4',
     0, 'cauchy: kernel matches the G*g sum to bidegree 4'),
]


def _digest(text):
    if len(text) <= 240:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def _run(op):
    """(exit status, stdout) of one op, run once per session: both tables
    hold verify flagged --max-size 3."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.run(op.split())


@pytest.mark.parametrize("op, status, expected", GOLDEN,
                         ids=[op for op, _, _ in GOLDEN])
def test_golden_cli_output(op, status, expected):
    got_status, out = _run(op)
    assert (got_status, _digest(out)) == (status, expected)


BENCH_GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
     / "golden.json").read_text())["ops"]


@pytest.mark.parametrize("op", sorted(BENCH_GOLDEN))
def test_benchmark_op_matches_its_golden(op):
    """The benchmark runs each op as a process and hashes its stdout, which
    is the CLI's output plus the newline print adds."""
    status, out = _run(op)
    want = BENCH_GOLDEN[op]
    assert (status, hashlib.sha256((out + "\n").encode()).hexdigest()) \
        == (want["status"], want["sha256"])
