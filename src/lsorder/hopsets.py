"""Low-hop 1-spanners for the path graph with O(1) midpoint queries.

Vertices are 1-indexed positions 1..n.  The 2-hop structure assigns every
position i a set E_i of responsible midpoints; a pair query returns an l with
i <= l <= j, {i,l} in E_i and {j,l} in E_j, so the reported path is monotone
and therefore exact on the path metric.  Non-powers of two are built by
padding to the next power and trimming.
"""

import math

import numpy as np

from .metrics import floor_log2


def _next_pow2(n):
    return 1 << max(0, (n - 1).bit_length())


class TwoHopPathSpanner:
    """Recursive-midpoint 1-spanner of the path 1..n.

    E_i is the set of segment midpoints over all halving levels that contain
    position i (the position itself is in E_i via its singleton segment);
    everything is derivable from (n, levels) in O(1), so nothing is stored
    per vertex.
    """

    hops = 2

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.n_padded = _next_pow2(self.n)
        self.delta = self.n_padded.bit_length() - 1

    def edges_of(self, i):
        """Sorted midpoint list E_i (trimmed to [1, n])."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        mids = {i}
        x = i - 1
        for m in range(1, self.delta + 1):
            c = x >> m
            mid = c * (1 << m) + (1 << (m - 1))
            if 1 <= mid <= self.n:
                mids.add(mid)
        return sorted(mids)

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
        """Total responsible-edge count sum |E_i| (= n log n + 1 at powers of two)."""
        return sum(len(self.edges_of(i)) for i in range(1, self.n + 1))

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


class FtTwoHopPathSpanner:
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
        # size of the segments that switch to cliques
        s = self.n_padded
        while s > self.f + 2 and s > 1:
            s >>= 1
        self.clique_size = s
        self.edges = set()
        stack = [(1, self.n_padded)]
        while stack:
            lo, hi = stack.pop()
            if lo > self.n:
                continue
            size = hi - lo + 1
            top = min(hi, self.n)
            if size <= self.clique_size:
                for a in range(lo, top + 1):
                    for b in range(a + 1, top + 1):
                        self.edges.add((a, b))
                continue
            blo, bhi = self._block(lo, hi)
            for b in range(blo, min(bhi, self.n) + 1):
                for v in range(lo, top + 1):
                    if v != b:
                        self.edges.add((min(v, b), max(v, b)))
            mid = lo - 1 + size // 2
            stack.append((lo, mid))
            stack.append((mid + 1, hi))

    def _block(self, lo, hi):
        mid = lo - 1 + (hi - lo + 1) // 2
        half = self.f // 2
        return max(lo, mid - half), min(hi, mid + half)

    def has_edge(self, a, b):
        if a > b:
            a, b = b, a
        return (a, b) in self.edges

    def num_edges(self):
        return len(self.edges)

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


class ThreeHopPathSpanner:
    """3-hop 1-spanner: block endpoints + boundary clique, recursing in blocks."""

    hops = 3

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.edges = set()
        self._hubs = {}
        self._build(1, self.n)

    def _build(self, lo, hi):
        size = hi - lo + 1
        if size <= 4:
            for a in range(lo, hi + 1):
                for b in range(a + 1, hi + 1):
                    self.edges.add((a, b))
            for v in range(lo, hi + 1):
                self._hubs[v] = self._hubs.get(v, [])
            return
        b = max(2, int(math.isqrt(size)))
        bounds = []
        start = lo
        while start <= hi:
            end = min(start + b - 1, hi)
            bounds.append((start, end))
            for v in range(start, end + 1):
                if v != start:
                    self.edges.add((min(v, start), max(v, start)))
                if v != end:
                    self.edges.add((min(v, end), max(v, end)))
                self._hubs.setdefault(v, []).append((start, end))
            start = end + 1
        ends = sorted({e for se in bounds for e in se})
        for a_i in range(len(ends)):
            for b_i in range(a_i + 1, len(ends)):
                self.edges.add((ends[a_i], ends[b_i]))
        for start, end in bounds:
            self._build(start, end)

    def num_edges(self):
        return len(self.edges)

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
            ri = blocks_i[level][1]
            lj = blocks_j[level][0]
            path = [i]
            if ri != i:
                path.append(ri)
            if lj != path[-1]:
                path.append(lj)
            if j != path[-1]:
                path.append(j)
            return path
        return [i, j]  # same smallest block: clique edge


class FourHopPathSpanner:
    """4-hop 1-spanner: log-size blocks, 2-hop structure on block boundaries,
    full recursion inside blocks (log* levels)."""

    hops = 4

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.edges = set()
        self._bounds = {}
        self._sub = None
        if self.n <= 4:
            for a in range(1, self.n + 1):
                for b in range(a + 1, self.n + 1):
                    self.edges.add((a, b))
            return
        block = max(2, int(math.log2(self.n)) + 1)
        self._ends = []
        start = 1
        while start <= self.n:
            end = min(start + block - 1, self.n)
            self._ends.append((start, end))
            for v in range(start, end + 1):
                self._bounds[v] = (start, end)
                if v != start:
                    self.edges.add((start, v))
                if v != end:
                    self.edges.add((min(v, end), max(v, end)))
            start = end + 1
        self._boundary = sorted({e for se in self._ends for e in se})
        self._bpos = {v: idx + 1 for idx, v in enumerate(self._boundary)}
        self._top = TwoHopPathSpanner(len(self._boundary))
        for idx, v in enumerate(self._boundary):
            for l in self._top.edges_of(idx + 1):
                w = self._boundary[l - 1]
                if w != v:
                    self.edges.add((min(v, w), max(v, w)))
        self._sub = {}
        for start, end in self._ends:
            sub = FourHopPathSpanner(end - start + 1)
            self._sub[(start, end)] = sub
            for a, b in sub.edges:
                self.edges.add((a + start - 1, b + start - 1))

    def num_edges(self):
        return len(self.edges)

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
        mid = self._top.query(self._bpos[ri], self._bpos[lj])
        z = self._boundary[mid - 1]
        path = [i]
        for v in (ri, z, lj, j):
            if v != path[-1]:
                path.append(v)
        return path
