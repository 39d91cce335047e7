from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import shapes
from grothpoly.shapes import (
    INF, ShapeError, cells, conjugate, contains, dent_index, flag_class,
    flag_vectors, minimal_cell, partition, partitions_between, partitions_of,
    partitions_up_to, read_flags, size, skew, strip,
)


def test_contains_basic():
    assert contains((2, 1), (3, 2, 1))
    assert not contains((2,), (1, 1))
    for lam in [(), (1,), (3, 2), (5, 5, 1)]:
        assert contains((), lam)


def test_conjugate_fixture():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate(()) == ()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16))
def test_conjugate_involution(seed):
    rng = random.Random(seed)
    lam = partition(sorted((rng.randrange(0, 6) for _ in range(4)),
                           reverse=True))
    assert conjugate(conjugate(lam)) == lam


def test_cells_of_skew_shape():
    assert len(cells((4, 3, 1), (2, 1))) == size((4, 3, 1)) - size((2, 1))


def test_minimal_cell():
    assert minimal_cell((3, 3, 4, 4, 1)) == (3, 4)
    assert minimal_cell((4, 3, 1)) == (1, 4)
    assert minimal_cell((2, 3)) == (2, 3)
    assert dent_index((3, 1, 4)) is None
    with pytest.raises(ShapeError):
        minimal_cell((3, 1, 4))


def test_dent_index_scan_matches_definition():
    # oracle: test every k directly; k = 1 also for the empty shape, which
    # is ordinary
    def dented_at(seq, k):
        n = len(seq)
        head = all(seq[i] + 1 == seq[k - 1] for i in range(k - 1))
        tail = all(seq[i] >= seq[i + 1] for i in range(k - 1, n - 1))
        return head and tail

    seqs = [seq for length in range(5)
            for seq in itertools.product(range(4), repeat=length)]
    assert len(seqs) == 341
    for seq in seqs:
        ks = [k for k in range(1, max(len(seq), 1) + 1) if dented_at(seq, k)]
        if ks:
            assert dent_index(seq) == ks[0]
        else:
            assert dent_index(seq) is None


def test_dent_index_refuses_negative_entries():
    # each is dented but for its negative entry
    for seq in ((-1,), (1, -1), (-1, 0), (0, 1, -1)):
        assert dent_index(seq) is None, seq


def test_skew_validation():
    assert skew((3, 2), (1,)) == ((3, 2), (1,))
    with pytest.raises(ShapeError):
        skew((1, 1), (2,))


def test_gen_cells_negative_columns():
    got = cells((1, 0), (-1, -2))
    assert got == [(1, 0), (1, 1), (2, -1), (2, 0)]


def test_contains_on_generalized_partitions_of_equal_length():
    assert contains((-1, -2), (1, 0))
    assert contains((0, -2), (0, -1))
    assert not contains((1, -2), (0, 0))
    assert not contains((0, -1), (0, -2))


def test_strip_keeps_negative_parts():
    assert strip((2, -1, 0)) == (2, -1)
    assert strip([0, 0]) == ()
    assert strip((0, -1)) == (0, -1)


def test_an_infinite_lower_flag_is_refused():
    # it admits no entry in its row; an infinite upper flag stays allowed
    assert flag_vectors((1, 1), (2, INF), 2) == ((1, 1), (2, INF))
    for marked in (False, True):
        with pytest.raises(ShapeError, match="lower flags must be finite"):
            read_flags((1, INF), (2, 2), 2, 2, marked)


def test_read_flags_caps_or_reads_an_infinite_upper_flag_as_n():
    # flag_class by default; marked keeps the flags but for the infinite
    # upper ones
    assert read_flags([1, 4], [3, INF], 2, 2) == ((1, 3), (2, 2))
    assert read_flags([1, 4], [3, INF], 2, 2, marked=True) == ((1, 4), (3, 2))
    with pytest.raises(ShapeError, match="flag vectors shorter"):
        read_flags((1,), (2,), 2, 2)


def test_read_flags_keeps_its_contract_cold_and_warm():
    # the oracle reads the pair as a whole: flag_vectors checks it, and
    # flag_class or the marked mapping reads it
    def oracle(r, s, rows, n, marked):
        r, s = flag_vectors(r, s, rows)
        if marked:
            return r, tuple(n if v == INF else v for v in s)
        return flag_class(r, s, n)

    vectors = [v for k in range(3)
               for v in itertools.product((0, 1, 2, 3, INF), repeat=k)]
    for r, s, rows, n, marked in itertools.product(
            vectors, vectors, range(3), (1, 2), (False, True)):
        try:
            want = oracle(r, s, rows, n, marked)
        except ShapeError as err:
            want = err
        shapes._read_vector.cache_clear()
        for _ in ("cold", "warm"):
            try:
                got = read_flags(r, s, rows, n, marked)
            except ShapeError as err:
                got = err
            if isinstance(want, ShapeError):
                assert type(got) is ShapeError and \
                    str(got) == str(want), (r, s, rows, n, marked)
            else:
                assert got == want, (r, s, rows, n, marked)


def test_partition_enumerators():
    assert len(partitions_of(5)) == 7
    assert len(partitions_up_to(4)) == 1 + 1 + 2 + 3 + 5
    between = partitions_between((1,), (2, 1))
    assert set(between) == {(1,), (2,), (1, 1), (2, 1)}
    assert partitions_between((2,), (1, 1)) == []


def unpruned_partitions_of(k, max_len=None):
    """ORACLE: every weakly decreasing tuple of positive parts, up to
    max_len of them, built part by part; those summing to k, largest part
    first."""
    max_len = k if max_len is None else max_len
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(k, k, [])
    return out


def test_partitions_of_matches_the_unpruned_walk():
    # same lists in the same order, with and without a length cap
    for k in range(14):
        for max_len in (None, 1, 2, 3, 5):
            assert partitions_of(k, max_len) == \
                unpruned_partitions_of(k, max_len), (k, max_len)
    # the cap prunes: one part of k, for every k, stays instant
    assert all(partitions_of(k, max_len=1) == [(k,)] for k in range(1, 3000))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16))
def test_contains_partial_order(seed):
    rng = random.Random(seed)

    def rand_part():
        return partition(sorted((rng.randrange(0, 4) for _ in range(3)),
                                reverse=True))

    a, b, c = rand_part(), rand_part(), rand_part()
    assert contains(a, a)
    if contains(a, b) and contains(b, a):
        assert a == b
    if contains(a, b) and contains(b, c):
        assert contains(a, c)
