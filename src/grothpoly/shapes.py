"""Partitions, skew shapes, generalized and dented partitions.

Partitions are tuples of positive integers without trailing zeros (strip
drops them); any operation needing a fixed length takes n explicitly.
Generalized partitions are weakly decreasing integer tuples whose length is
significant; on two of equal length, cells and contains read their parts
as given, negative ones included.
"""

import functools
import math

INF = math.inf

# Bound of each lru_cache memo.  Measured peaks, none evicted: 7,311 h/e values
# at the default `verify flagged` and 13,902 (about 9 MiB, keys 5 MiB) at
# --max-size 5, 2,150 coefficient determinants, 21 G prefactors, and 502 flag
# vectors and 374 row factors at the default (1,296 and 544 at --max-size 5).
CACHE_SIZE = 1 << 14


class ShapeError(ValueError):
    pass


def strip(seq):
    """seq as a tuple without its trailing zeros; negative parts stay."""
    seq = tuple(seq)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def partition(parts):
    """Canonicalize to a trailing-zero-free weakly decreasing tuple."""
    parts = strip(parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ShapeError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ShapeError(f"negative part in partition: {parts}")
    return parts


def part(lam, i):
    """lam_i with 1-based index and implicit trailing zeros."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def size(lam):
    return sum(lam)


def contains(inner, outer):
    """inner_i <= outer_i for all i (works for generalized tuples of equal
    length; ordinary partitions are padded with zeros)."""
    k = max(len(inner), len(outer))
    return all(part(inner, i) <= part(outer, i) for i in range(1, k + 1))


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def skew(outer, inner):
    outer, inner = partition(outer), partition(inner)
    if not contains(inner, outer):
        raise ShapeError(f"{inner} not contained in {outer}")
    return outer, inner


def cells(outer, inner=()):
    """Row-major cells (i, j) with inner_i < j <= outer_i, 1-based."""
    out = []
    for i in range(1, len(outer) + 1):
        for j in range(part(inner, i) + 1, part(outer, i) + 1):
            out.append((i, j))
    return out


def dent_index(seq):
    """The k making seq a dented partition, or None.

    Dented: lam1+1 = ... = lam_{k-1}+1 = lam_k >= lam_{k+1} >= ... >= lam_n
    with nonnegative entries.  So k is the first row that rises above the
    row before it, and no later row rises; an ordinary partition, the empty
    one included, has k = 1.
    """
    seq = tuple(seq)
    rises = [i for i in range(2, len(seq) + 1) if seq[i - 1] > seq[i - 2]]
    k = rises[0] if rises else 1
    if len(rises) > 1 or min(seq, default=0) < 0 or \
       seq[:k - 1] != (part(seq, k) - 1,) * (k - 1):
        return None
    return k


def minimal_cell(seq):
    """(k, lam_k) for a dented partition; (1, lam_1) when already ordinary,
    so (1, 0) for the empty shape."""
    k = dent_index(seq)
    if k is None:
        raise ShapeError(f"not a dented partition: {tuple(seq)}")
    return k, part(tuple(seq), k)


def check_orientation(orientation):
    """Refuse any flag orientation but row and col."""
    if orientation not in ("row", "col"):
        raise ShapeError(f"orientation must be row or col: {orientation!r}")


def marked_shape(outer, inner, mark_set):
    """(outer, inner, frozenset(mark_set)) checked for the boundary-marked
    dual: outer a dented partition, inner a partition inside it, and every
    mark a row 1..len(outer), the rows with a boundary entry.  The one check
    of a marked shape, for the determinants and the tableaux alike."""
    lam, mu = tuple(outer), partition(inner)
    if dent_index(lam) is None:
        raise ShapeError(f"not a dented partition: {lam}")
    if not contains(mu, lam):
        raise ShapeError(f"{mu} not contained in {lam}")
    marks = frozenset(mark_set)
    if not all(isinstance(i, int) and 1 <= i <= len(lam) for i in marks):
        raise ShapeError(f"mark set out of range: {sorted(marks)}")
    return lam, mu, marks


def flag_vectors(r, s, rows):
    """The flag vectors (r, s) as tuples, checked: equal lengths, at least
    rows flags each, all positive, the lower ones finite."""
    r, s = tuple(r), tuple(s)
    if len(r) != len(s):
        raise ShapeError("flag vectors must have equal length")
    if len(r) < rows:
        raise ShapeError("flag vectors shorter than the shape")
    if any(v < 1 for v in r + s):
        raise ShapeError("flags must be positive")
    if INF in r:
        raise ShapeError("lower flags must be finite")
    return r, s


def flag_class(r, s, n):
    """The flags as n variables see them: x_l = 0 for l > n, so a lower flag
    past n reads n + 1 and an upper flag past n (or infinite) reads n."""
    return (tuple(min(v, n + 1) for v in r), tuple(min(v, n) for v in s))


def read_flags(r, s, rows, n, marked=False):
    """The flags (r, s) checked by flag_vectors and read by flag_class: the
    one reading of flags for every entry point.  marked keeps them as given
    but for an infinite upper flag, read as n: the reading of the CLI and of
    a mark set, whose finite upper flags stay uncapped because its boundary
    entries s_i turn values past n into parameter weights.

    Both the check and the reading act on each vector alone, so each vector
    is checked and read once per process for each (n, marked), in one
    bounded LRU shared by every caller; a refused pair goes back to
    flag_vectors, which names its first fault."""
    r, s = tuple(r), tuple(s)
    read = _read_vector(r, False, n, marked), _read_vector(s, True, n, marked)
    if None in read or len(r) != len(s) or len(r) < rows:
        flag_vectors(r, s, rows)  # raises
    return read


@functools.lru_cache(maxsize=CACHE_SIZE)
def _read_vector(v, upper, n, marked):
    # v checked and read as the upper or the lower flags, or None if refused
    if min(v, default=1) < 1 or not upper and INF in v:
        return None
    if marked:  # lower flags are finite, so this reads only upper ones
        return tuple(n if f == INF else f for f in v)
    return flag_class(v, v, n)[upper]


def partitions_of(k, max_len=None):
    """All partitions of k, largest part first."""
    if max_len is None:
        max_len = k
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(cap, remaining), 0, -1):
            if p * (max_len - len(prefix)) < remaining:
                break  # the parts left, all <= p, cannot make up remaining
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


def partitions_up_to(k):
    """All partitions of size <= k (including the empty one)."""
    return [lam for m in range(k + 1) for lam in partitions_of(m)]


def partitions_above(lam, max_size, max_len=None):
    """Partitions containing lam with at most max_size cells, by size."""
    return [nu for k in range(size(lam), max_size + 1)
            for nu in partitions_of(k, max_len=max_len) if contains(lam, nu)]


def partitions_between(lo, hi):
    """Partitions nu with lo <= nu <= hi componentwise."""
    k = max(len(lo), len(hi), 1)
    if not contains(lo, hi):
        return []
    out = []

    def rec(i, prefix):
        if i > k:
            out.append(partition(prefix))
            return
        upper = min(part(hi, i), prefix[-1] if prefix else part(hi, 1))
        for v in range(part(lo, i), upper + 1):
            prefix.append(v)
            rec(i + 1, prefix)
            prefix.pop()

    rec(1, [])
    return out
