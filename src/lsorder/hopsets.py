"""Low-hop 1-spanners for the path graph with O(1) midpoint queries.

Vertices are 1-indexed positions 1..n.  The 2-hop structure assigns every
position i a set E_i of responsible midpoints; a pair query returns an l with
i <= l <= j, {i,l} in E_i and {j,l} in E_j, so the reported path is monotone
and therefore exact on the path metric.  Non-powers of two are built by
padding to the next power and trimming.

Every structure holds its edge set as the sorted distinct keys a*(n+1) + b
of its edges {a, b}, a < b, and hands it out as the two int64 position
arrays (a, b) (edge_arrays); has_edge is one searchsorted over the keys.
One rule, level_midpoint, places the midpoint of each level's segments: the
2-hop edges and the FT middle blocks (middle_blocks, block_keys) and the
triangle NNS labels all read it.
"""

import math
from functools import cached_property

import numpy as np

from .metrics import floor_log2


def _next_pow2(n):
    return 1 << max(0, (n - 1).bit_length())


def level_midpoint(pos, m):
    """The midpoint c*2^m + 2^(m-1) of the level-m segment
    [c*2^m + 1, (c+1)*2^m] that holds position pos (m >= 1; ints or int
    arrays)."""
    return ((pos - 1) >> m << m) + (1 << (m - 1))


def middle_blocks(n, f, m):
    """(v, b): every position v in 1..n paired with each position b <= n of
    the middle block of its level-m segment, the f + 1 positions
    level_midpoint(v, m) - f/2 .. + f/2 (f even) that lie in the segment."""
    v = np.arange(1, n + 1, dtype=np.int64)
    b = level_midpoint(v, m)[:, None] + np.arange(-(f // 2), f // 2 + 1)
    v = np.broadcast_to(v[:, None], b.shape)
    keep = (b <= n) & ((b - 1) >> m == (v - 1) >> m)
    return v[keep], b[keep]


def _sorted_keys(n, pairs):
    """Sorted distinct keys min*(n+1) + max of the position pairs in pairs,
    an iterable of int64 array pairs (a, b); pairs with a == b are dropped."""
    keys = [np.empty(0, dtype=np.int64)]
    for a, b in pairs:
        keys.append((np.minimum(a, b) * (n + 1) + np.maximum(a, b))[a != b])
    keys = np.concatenate(keys)
    keys.sort()  # np.unique is many times slower on int64 here
    return keys[np.diff(keys, prepend=-1) != 0]


def block_keys(n, f):
    """The edge keys of every middle block (middle_blocks) at every level
    1..log2 of the padded n.  At f = 0 they are the 2-hop edges; above
    f = 0 a segment of at most f + 2 positions has a block that covers all
    but its last position, so it is joined whole, a clique."""
    levels = _next_pow2(n).bit_length()
    return _sorted_keys(n, (middle_blocks(n, f, m) for m in range(1, levels)))


def _monotone_path(*points):
    """The ascending points, each repeat dropped."""
    return [points[0]] + [p for p, q in zip(points[1:], points) if p != q]


def _clique(v):
    """Every pair of the positions v."""
    iu, iv = np.triu_indices(v.size, k=1)
    return v[iu], v[iv]


class _PositionEdges:
    """An edge set over positions 1..n held as its sorted keys a*(n+1) + b,
    a < b, in self.keys."""

    def edge_arrays(self):
        """(a, b): the int64 positions of every edge, a < b, in key order."""
        return np.divmod(self.keys, self.n + 1)

    def has_edge(self, a, b):
        """Whether {a, b} is an edge: one searchsorted over the keys."""
        a, b = min(a, b), max(a, b)
        if not 1 <= a < b <= self.n:
            return False
        key = a * (self.n + 1) + b
        k = int(np.searchsorted(self.keys, key))
        return k < self.keys.size and int(self.keys[k]) == key

    def num_edges(self):
        return int(self.keys.size)


class TwoHopPathSpanner(_PositionEdges):
    """Recursive-midpoint 1-spanner of the path 1..n.

    E_i is i itself plus the level-m midpoint of i for every level m with
    that midpoint at most n; everything is derivable from (n, levels) in
    O(1), so nothing is stored per vertex and the edge keys are built only
    when first read.
    """

    hops = 2

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.n_padded = _next_pow2(self.n)
        self.delta = self.n_padded.bit_length() - 1

    @cached_property
    def keys(self):
        return block_keys(self.n, 0)

    def edges_of(self, i):
        """Sorted midpoint list E_i (trimmed to [1, n])."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        mids = {i} | {level_midpoint(i, m) for m in range(1, self.delta + 1)}
        return sorted(l for l in mids if l <= self.n)

    def in_edge_set(self, i, l):
        """Membership test l in E_i, O(1) bit operations."""
        if l == i:
            return 1 <= i <= self.n
        if not (1 <= l <= self.n and 1 <= i <= self.n):
            return False
        m = (l & (-l)).bit_length()  # l = odd * 2^(m-1): only level-m mids have this form
        if m > self.delta:
            return False
        return (i - 1) >> m == l >> m

    def num_edges(self):
        """Total responsible-edge count sum |E_i| (= n log n + 1 at powers of
        two), per level in O(1): the s segments whose midpoint is at most n
        hold min(s*2^m, n) positions, and s of them are those midpoints."""
        total = self.n
        for m in range(1, self.delta + 1):
            s = (self.n + (1 << (m - 1))) >> m
            total += min(s << m, self.n) - s
        return total

    def query(self, i, j):
        """Midpoint l with i <= l <= j, {i,l} in E_i, {j,l} in E_j."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"query ({i},{j}) out of range 1..{self.n}")
        if i > j:
            i, j = j, i
        if i == j:
            return i
        x, y = i - 1, j - 1
        k = (x ^ y).bit_length() - 1
        return (y >> k) << k

    def query_batch(self, i_arr, j_arr):
        """Vectorized query over int arrays (i <= j assumed)."""
        x = np.asarray(i_arr, dtype=np.int64) - 1
        y = np.asarray(j_arr, dtype=np.int64) - 1
        xor = x ^ y
        same = xor == 0
        k = floor_log2(np.maximum(xor, 1))
        l = (y >> k) << k
        l[same] = x[same] + 1
        return l


class FtTwoHopPathSpanner(_PositionEdges):
    """Fault-tolerant variant: middle blocks of f'+1 consecutive positions.

    An odd fault budget is rounded up to the even f' (the stored value);
    segments of length <= f'+2 become cliques instead of recursing.
    """

    hops = 2

    def __init__(self, n, f):
        if n < 1:
            raise ValueError("n must be >= 1")
        if f < 0:
            raise ValueError("fault budget must be >= 0")
        self.n = int(n)
        self.f = int(f) + (int(f) & 1)
        self.n_padded = _next_pow2(self.n)
        self.delta = self.n_padded.bit_length() - 1
        # size of the segments that are cliques: the largest power of two
        # at most f' + 2, or the whole padded path
        self.clique_size = min(self.n_padded, 1 << ((self.f + 2).bit_length() - 1))
        self.keys = block_keys(self.n, self.f)

    def query(self, i, j, faults=()):
        """Surviving midpoint l with i <= l <= j and l not in faults."""
        F = set(faults)
        if len(F) > self.f:
            raise ValueError(f"fault set of size {len(F)} exceeds budget {self.f}")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"query ({i},{j}) out of range 1..{self.n}")
        if i in F or j in F:
            raise ValueError("query endpoints must not be faulted")
        if i > j:
            i, j = j, i
        k = max((i - 1) ^ (j - 1), 1).bit_length() - 1
        return self._survivor(i, j, k, sorted(F), max)

    def query_batch(self, i_arr, j_arr, faults=None, rows=None):
        """Vectorized query over int arrays, i_arr <= j_arr, no endpoint a fault.

        faults is None (no faults), a 1-D bool mask over positions shared by
        every row (faults[p] for p in 1..n), or a 2-D int array whose rows
        hold fault positions in ascending order.  With the 2-D form the pair
        i_arr[r], j_arr[r] reads row rows[r] (rows defaults to 0, 1, 2, ...),
        so pairs under different fault sets share one call without copying
        rows.  Entries outside 1..n never match, so 0 pads a short row.
        """
        i = np.asarray(i_arr, dtype=np.int64)
        k = np.asarray(j_arr, dtype=np.int64) - 1
        k ^= i - 1
        np.maximum(k, 1, out=k)
        k = floor_log2(k)
        if faults is None:
            cols = ()
        elif faults.ndim == 1:
            cols = np.flatnonzero(faults)
        elif rows is None:
            cols = faults.T
        else:
            cols = (faults[rows, t] for t in range(faults.shape[1]))
        return self._survivor(i, j_arr, k, cols)

    def _survivor(self, i, j, k, faults, maximum=np.maximum):
        """The closed form of the halving descent, shared by query (ints,
        maximum=max) and query_batch (int64 arrays): the lowest position at or
        above max(mid - f'/2, i) that is not a fault, for i <= j, k the top
        bit of (i-1) ^ (j-1) (0 when i == j) and faults in ascending order.

        For i < j bit k of x = i - 1 is 0, so mid = (x | (2^k - 1)) + 1 is x
        with bit k set and the bits below it cleared: the centre of the
        middle block of the segment of size 2^(k+1) that first separates i
        and j, with i <= mid < j.  Both lie in that segment, so its bounds
        never clamp the block.  At or below clique size, 2^(k+1) <= f' + 2
        puts mid - f'/2 at or below i, and the answer is i itself: the direct
        clique edge {i, j}.  For i == j, mid = i.  Stepping l past each fault
        it meets (l += l == p, p ascending) gives the lowest survivor; with
        live endpoints and |F| <= f' it stays in the block and at most j.
        """
        b = 1 << k
        b -= 1
        b |= i - 1
        b += 1 - self.f // 2  # the block's first position, mid - f'/2
        l = maximum(b, i)
        for p in faults:
            l += l == p
        b += self.f  # its last, mid + f'/2
        if np.count_nonzero((l > b) | (l > j)):
            raise AssertionError("no surviving midpoint; impossible for |F| <= f")
        return l


class ThreeHopPathSpanner(_PositionEdges):
    """3-hop 1-spanner: block endpoints + boundary clique, recursing in blocks."""

    hops = 3

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self._hubs = {}
        pairs = []
        self._build(1, self.n, pairs)
        self.keys = _sorted_keys(self.n, pairs)

    def _build(self, lo, hi, pairs):
        v = np.arange(lo, hi + 1, dtype=np.int64)
        if v.size <= 4:
            pairs.append(_clique(v))
            return
        b = max(2, math.isqrt(v.size))
        starts = v[::b]
        ends = np.minimum(starts + b - 1, hi)
        block = (v - lo) // b
        pairs += [(v, starts[block]), (v, ends[block]), _clique(np.union1d(starts, ends))]
        for start, end in zip(starts.tolist(), ends.tolist()):
            for p in range(start, end + 1):
                self._hubs.setdefault(p, []).append((start, end))
            self._build(start, end, pairs)

    def query(self, i, j):
        """Monotone path i .. j with at most 3 hops, all edges present."""
        if i > j:
            i, j = j, i
        if i == j:
            return [i]
        blocks_i = self._hubs.get(i, [])
        blocks_j = self._hubs.get(j, [])
        # deepest common block handles the pair recursively via cliques/hubs
        level = 0
        while (
            level < len(blocks_i)
            and level < len(blocks_j)
            and blocks_i[level] == blocks_j[level]
        ):
            level += 1
        if level < len(blocks_i) and level < len(blocks_j):
            return _monotone_path(i, blocks_i[level][1], blocks_j[level][0], j)
        return [i, j]  # same smallest block: clique edge


class FourHopPathSpanner(_PositionEdges):
    """4-hop 1-spanner: log-size blocks, 2-hop structure on block boundaries,
    full recursion inside blocks (log* levels)."""

    hops = 4

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self._bounds = {}
        self._sub = None
        v = np.arange(1, self.n + 1, dtype=np.int64)
        if self.n <= 4:
            self.keys = _sorted_keys(self.n, [_clique(v)])
            return
        size = max(2, int(math.log2(self.n)) + 1)
        starts = v[::size]
        ends = np.minimum(starts + size - 1, self.n)
        block = (v - 1) // size
        boundary = np.union1d(starts, ends)
        self._boundary = boundary.tolist()
        self._bpos = {p: idx + 1 for idx, p in enumerate(self._boundary)}
        self._top = TwoHopPathSpanner(boundary.size)
        ta, tb = self._top.edge_arrays()
        pairs = [(v, starts[block]), (v, ends[block]), (boundary[ta - 1], boundary[tb - 1])]
        self._sub = {}
        for start, end in zip(starts.tolist(), ends.tolist()):
            for p in range(start, end + 1):
                self._bounds[p] = (start, end)
            sub = FourHopPathSpanner(end - start + 1)
            self._sub[(start, end)] = sub
            a, b = sub.edge_arrays()
            pairs.append((a + start - 1, b + start - 1))
        self.keys = _sorted_keys(self.n, pairs)

    def query(self, i, j):
        """Monotone path i .. j with at most 4 hops."""
        if i > j:
            i, j = j, i
        if i == j:
            return [i]
        if self._sub is None:
            return [i, j]  # clique base
        bi, bj = self._bounds[i], self._bounds[j]
        if bi == bj:
            inner = self._sub[bi].query(i - bi[0] + 1, j - bi[0] + 1)
            return [v + bi[0] - 1 for v in inner]
        ri, lj = bi[1], bj[0]
        z = self._boundary[self._top.query(self._bpos[ri], self._bpos[lj]) - 1]
        return _monotone_path(i, ri, z, lj, j)
