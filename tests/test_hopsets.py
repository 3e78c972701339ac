import itertools

import numpy as np
import pytest

from lsorder.hopsets import (
    FourHopPathSpanner,
    FtTwoHopPathSpanner,
    ThreeHopPathSpanner,
    TwoHopPathSpanner,
)
from lsorder.metrics import floor_log2


def build_two_hop_reference(n):
    """Direct recursive construction of the E sets (oracle)."""
    n_pad = 1
    while n_pad < n:
        n_pad *= 2
    E = {i: {i} for i in range(1, n + 1)}

    def rec(lo, hi):
        if lo > n:
            return
        if lo == hi:
            return
        size = hi - lo + 1
        mid = lo - 1 + size // 2
        for i in range(lo, min(hi, n) + 1):
            if mid <= n:
                E[i].add(mid)
        rec(lo, mid)
        rec(mid + 1, hi)

    rec(1, n_pad)
    return E


def test_two_hop_small_counts():
    assert TwoHopPathSpanner(2).num_edges() == 2 * 1 + 1
    assert TwoHopPathSpanner(8).num_edges() == 8 * 3 + 1


def test_two_hop_exact_count_all_powers():
    for delta in range(1, 13):
        n = 1 << delta
        assert TwoHopPathSpanner(n).num_edges() == n * delta + 1


def test_two_hop_edge_sets_match_reference():
    for n in (2, 3, 6, 8, 13, 16, 31, 64):
        s = TwoHopPathSpanner(n)
        ref = build_two_hop_reference(n)
        for i in range(1, n + 1):
            assert s.edges_of(i) == sorted(ref[i]), (n, i)


def test_two_hop_trim_matches_padded_intersection():
    s6, s8 = TwoHopPathSpanner(6), TwoHopPathSpanner(8)
    for i in range(1, 7):
        assert s6.edges_of(i) == [l for l in s8.edges_of(i) if l <= 6]


def test_two_hop_membership_bitops_match_lists():
    for n in (5, 8, 17, 64):
        s = TwoHopPathSpanner(n)
        lists = {i: set(s.edges_of(i)) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for l in range(1, n + 1):
                assert s.in_edge_set(i, l) == (l in lists[i]), (n, i, l)


def test_two_hop_query_spec_example():
    s = TwoHopPathSpanner(8)
    l = s.query(2, 7)
    assert l == 4
    assert s.in_edge_set(2, l) and s.in_edge_set(7, l)
    assert s.query(3, 3) == 3


@pytest.mark.parametrize("n", [2, 7, 16, 100, 512])
def test_two_hop_query_all_pairs(n):
    s = TwoHopPathSpanner(n)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            l = s.query(i, j)
            assert i <= l <= j
            assert s.in_edge_set(i, l), (i, j, l)
            assert s.in_edge_set(j, l), (i, j, l)


def test_two_hop_query_batch_matches_scalar():
    n = 300
    s = TwoHopPathSpanner(n)
    rng = np.random.default_rng(0)
    i = rng.integers(1, n + 1, size=4000)
    j = rng.integers(1, n + 1, size=4000)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    batch = s.query_batch(lo, hi)
    for a, b, l in zip(lo[:500], hi[:500], batch[:500]):
        assert l == s.query(int(a), int(b))


def test_two_hop_query_batch_exact_at_huge_n():
    # boundary pairs (2^k - 1, 2^k) and (2^k, 2^k + 1): float64 log2 of their
    # xor rounds up once it reaches 2^49
    n = 1 << 62
    s = TwoHopPathSpanner(n)
    ks = range(1, 62)
    lo = [(1 << k) - 1 for k in ks] + [1 << k for k in ks] + [1]
    hi = [1 << k for k in ks] + [(1 << k) + 1 for k in ks] + [n]
    batch = s.query_batch(lo, hi)
    assert batch.tolist() == [s.query(a, b) for a, b in zip(lo, hi)]


def test_two_hop_edge_size_bound():
    for delta in (3, 6, 10):
        n = 1 << delta
        s = TwoHopPathSpanner(n)
        assert max(len(s.edges_of(i)) for i in range(1, n + 1)) <= delta + 1


def test_ft_f0_matches_two_hop_queries():
    n = 64
    ft = FtTwoHopPathSpanner(n, 0)
    th = TwoHopPathSpanner(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            l = ft.query(i, j, ())
            assert i <= l <= j
            # path (i, l, j) must be real edges (or the direct clique edge)
            if l not in (i, j):
                assert ft.has_edge(i, l) and ft.has_edge(l, j)
            else:
                assert ft.has_edge(i, j)
            assert th.query(i, j) >= i


def test_ft_edge_bound_spec_example():
    ft = FtTwoHopPathSpanner(8, 2)
    assert ft.f == 2
    assert ft.num_edges() <= 25 * 3


def test_ft_odd_budget_rounds_up():
    ft = FtTwoHopPathSpanner(32, 3)
    assert ft.f == 4


def test_ft_block_query_spec_example():
    ft = FtTwoHopPathSpanner(8, 2)
    l = ft.query(2, 7, {4})
    assert l in (3, 5)
    assert ft.has_edge(2, l) and ft.has_edge(l, 7)


def test_ft_query_exhaustive_small():
    for n in (9, 16, 32):
        for f in (1, 2):
            ft = FtTwoHopPathSpanner(n, f)
            fe = ft.f
            for faults in itertools.combinations(range(1, n + 1), fe):
                fs = set(faults)
                for i in range(1, n + 1):
                    if i in fs:
                        continue
                    for j in range(i + 1, n + 1):
                        if j in fs:
                            continue
                        l = ft.query(i, j, fs)
                        assert i <= l <= j and l not in fs
                        if l not in (i, j):
                            assert ft.has_edge(i, l) and ft.has_edge(l, j)
                        else:
                            assert ft.has_edge(i, j)


def test_ft_query_random_large():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 257))
        f = int(rng.choice([1, 2, 4]))
        ft = FtTwoHopPathSpanner(n, f)
        alive = list(range(1, n + 1))
        faults = set(rng.choice(alive, size=min(ft.f, n - 2), replace=False).tolist()) if n > 2 else set()
        rest = [v for v in alive if v not in faults]
        if len(rest) < 2:
            continue
        i, j = sorted(rng.choice(rest, size=2, replace=False).tolist())
        if i == j:
            continue
        l = ft.query(i, j, faults)
        assert i <= l <= j and l not in faults


def test_ft_batch_matches_scalar():
    n = 200
    f = 2
    ft = FtTwoHopPathSpanner(n, f)
    rng = np.random.default_rng(9)
    for _ in range(30):
        faults = set(rng.choice(np.arange(1, n + 1), size=f, replace=False).tolist())
        mask = np.zeros(n + 2, dtype=bool)
        for x in faults:
            mask[x] = True
        pairs = []
        for _ in range(200):
            i, j = sorted(rng.integers(1, n + 1, size=2).tolist())
            if i != j and i not in faults and j not in faults:
                pairs.append((i, j))
        if not pairs:
            continue
        ii = np.array([p[0] for p in pairs])
        jj = np.array([p[1] for p in pairs])
        batch = ft.query_batch(ii, jj, mask)
        for (i, j), l in zip(pairs, batch):
            assert int(l) == ft.query(i, j, faults)


def fault_rows(sets, width):
    """The per-row fault form: one row per set, its positions ascending,
    padded at the front with 0 (no position) to width columns."""
    rows = np.zeros((len(sets), width), dtype=np.int64)
    for r, faults in enumerate(sets):
        rows[r, width - len(faults) :] = sorted(faults)
    return rows


@pytest.mark.parametrize("n,f", [(40, 2), (100, 4), (512, 2)])
def test_ft_batch_row_masks_match_shared_masks(n, f):
    """Per-row fault positions (one row per query, or picked by rows)
    answer each query as the 1-D mask of its fault set does."""
    ft = FtTwoHopPathSpanner(n, f)
    rng = np.random.default_rng(n + f)
    sets = block_center_fault_sets(ft, rng, 20) + [set(), {int(rng.integers(1, n + 1))}]
    rows, ii, jj = [], [], []
    for k, faults in enumerate(sets):
        alive = [p for p in range(1, n + 1) if p not in faults]
        for _ in range(30):
            i, j = sorted(int(x) for x in rng.choice(alive, size=2, replace=False))
            rows.append(k)
            ii.append(i)
            jj.append(j)
    masks = np.zeros((len(sets), ft.n_padded + 2), dtype=bool)
    for k, faults in enumerate(sets):
        masks[k, sorted(faults)] = True
    positions = fault_rows(sets, ft.f)
    batch = ft.query_batch(np.array(ii), np.array(jj), positions[rows])
    assert batch.tolist() == ft.query_batch(np.array(ii), np.array(jj), positions, np.array(rows)).tolist()
    for t, (k, i, j) in enumerate(zip(rows, ii, jj)):
        assert batch[t] == ft.query_batch(np.array([i]), np.array([j]), masks[k])[0]
        assert batch[t] == ft.query(i, j, sets[k])


def mask_query_batch_reference(ft, i_arr, j_arr, fault_mask, rows=None):
    """The mask-based batch query the closed form replaced: segment clamps,
    a clique branch, and an offset loop over a fault mask (1-D shared, or
    2-D with one mask row per query or picked by rows)."""
    x = np.asarray(i_arr, dtype=np.int64) - 1
    y = np.asarray(j_arr, dtype=np.int64) - 1
    xor = x ^ y
    k = floor_log2(np.maximum(xor, 1))
    cbits = ft.clique_size.bit_length() - 1
    clique = (k + 1) <= cbits
    seg = np.maximum(k + 1, 1)
    c = x >> seg
    mid = (c << seg) + (1 << k)
    half = ft.f // 2
    lo_cand = np.maximum(np.maximum(mid - half, x + 1), (c << seg) + 1)
    hi_cand = np.minimum(np.minimum(mid + half, y + 1), (c + 1) << seg)
    out = np.where(clique, x + 1, lo_cand)
    shared = fault_mask.ndim == 1
    if not shared and rows is None:
        rows = np.arange(x.size)
    first = np.minimum(lo_cand, hi_cand)
    missed = (lo_cand > hi_cand) | (fault_mask[first] if shared else fault_mask[rows, first])
    todo = np.nonzero(~clique & missed)[0]
    for off in range(1, ft.f + 1):
        if not todo.size:
            break
        cand = lo_cand[todo] + off
        hi = hi_cand[todo]
        at = np.minimum(cand, hi)
        ok = (cand <= hi) & ~(fault_mask[at] if shared else fault_mask[rows[todo], at])
        out[todo[ok]] = cand[ok]
        todo = todo[~ok]
    if todo.size:
        raise AssertionError("no surviving midpoint; impossible for |F| <= f")
    return out


def block_member_set(ft, rng, size):
    """size members of the middle block of a random segment above clique
    size (random positions when there is none)."""
    half = ft.f // 2
    blocks = []
    seg = ft.clique_size * 2
    while seg <= ft.n_padded:
        for lo in range(1, ft.n_padded + 1, seg):
            mid = lo - 1 + seg // 2
            members = [p for p in range(mid - half, mid + half + 1) if p <= ft.n]
            if len(members) >= size:
                blocks.append(members)
        seg *= 2
    pool = blocks[int(rng.integers(len(blocks)))] if blocks else range(1, ft.n + 1)
    return set(int(p) for p in rng.choice(pool, size=size, replace=False))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 96, 512])
def test_ft_batch_matches_mask_reference(n):
    """The closed form equals the mask-based batch query over fault sets of
    every size up to the budget (random, and on block members), rows with
    i == j, and both fault forms: a shared 1-D mask and per-row positions."""
    rng = np.random.default_rng(n)
    moved = 0
    for f in range(6):
        ft = FtTwoHopPathSpanner(n, f)
        sets = []
        for size in range(min(ft.f, n - 1) + 1):
            sets += [set(int(p) for p in rng.choice(np.arange(1, n + 1), size=size, replace=False)),
                     block_member_set(ft, rng, size)]
        rows, ii, jj = [], [], []
        for k, faults in enumerate(sets):
            mask = np.zeros(ft.n_padded + 2, dtype=bool)
            mask[sorted(faults)] = True
            alive = np.flatnonzero(~mask[1 : n + 1]) + 1
            iu, iv = np.triu_indices(alive.size)  # i == j rows included
            if iu.size > 6000:
                pick = rng.choice(iu.size, size=6000, replace=False)
                iu, iv = iu[pick], iv[pick]
            i_arr, j_arr = alive[iu], alive[iv]
            got = ft.query_batch(i_arr, j_arr, mask)
            assert got.tolist() == mask_query_batch_reference(ft, i_arr, j_arr, mask).tolist()
            moved += int(np.sum(got != ft.query_batch(i_arr, j_arr)))
            rows += [k] * i_arr.size
            ii.append(i_arr)
            jj.append(j_arr)
        rows, ii, jj = np.array(rows), np.concatenate(ii), np.concatenate(jj)
        masks = np.zeros((len(sets), ft.n_padded + 2), dtype=bool)
        for k, faults in enumerate(sets):
            masks[k, sorted(faults)] = True
        positions = fault_rows(sets, ft.f)
        want = mask_query_batch_reference(ft, ii, jj, masks, rows).tolist()
        assert ft.query_batch(ii, jj, positions, rows).tolist() == want
        assert ft.query_batch(ii, jj, positions[rows]).tolist() == want
    if n >= 5:
        assert moved > 0


def block_center_fault_sets(ft, rng, count):
    """Fault sets at the budget: the f lowest positions of the middle block
    of a random segment above clique size, so pairs split by that segment
    need offset f in the batch answer."""
    half = ft.f // 2
    sets = []
    for _ in range(count):
        size = 1 << int(rng.integers(ft.clique_size.bit_length(), ft.delta + 1))
        starts = [lo for lo in range(1, ft.n_padded + 1, size) if lo - 1 + size // 2 + half <= ft.n]
        mid = int(rng.choice(starts)) - 1 + size // 2
        sets.append(set(range(mid - half, mid + half)))
    return sets


@pytest.mark.parametrize("n,f,count", [(64, 1, 8), (64, 2, 8), (100, 2, 6), (100, 4, 6), (512, 2, 2), (512, 4, 2)])
def test_ft_batch_matches_scalar_all_pairs_at_budget(n, f, count):
    ft = FtTwoHopPathSpanner(n, f)
    rng = np.random.default_rng(n + f)
    centered = block_center_fault_sets(ft, rng, count)
    drawn = [set(rng.choice(np.arange(1, n + 1), size=ft.f, replace=False).tolist()) for _ in range(count)]
    for faults in centered + drawn:
        assert len(faults) == ft.f
        mask = np.zeros(n + 2, dtype=bool)
        mask[list(faults)] = True
        alive = np.nonzero(~mask[1 : n + 1])[0] + 1
        iu, iv = np.triu_indices(alive.size, k=1)
        ii, jj = alive[iu], alive[iv]
        batch = ft.query_batch(ii, jj, mask)
        scalar = [ft.query(int(i), int(j), faults) for i, j in zip(ii, jj)]
        assert batch.tolist() == scalar
        if faults in centered:
            unfaulted = ft.query_batch(ii, jj, np.zeros(n + 2, dtype=bool))
            assert np.any((batch != ii) & (batch != unfaulted))


def ft_descent_reference(ft, i, j, faults):
    """The FT query as a halving descent, one segment at a time."""
    if i > j:
        i, j = j, i
    if i == j:
        return i
    lo, hi = 1, ft.n_padded
    while True:
        size = hi - lo + 1
        if size <= ft.clique_size:
            return i  # direct clique edge {i, j}
        mid = lo - 1 + size // 2
        if j <= mid:
            hi = mid
        elif i > mid:
            lo = mid + 1
        else:
            half = ft.f // 2
            for l in range(max(lo, mid - half, i), min(hi, mid + half, j) + 1):
                if l not in faults:
                    return l
            raise AssertionError("no surviving midpoint")


@pytest.mark.parametrize("f", [0, 1, 2, 3, 4, 6])
def test_ft_query_closed_form_matches_descent(f):
    rng = np.random.default_rng(f)
    for n in list(range(1, 40)) + [64, 100, 129]:
        ft = FtTwoHopPathSpanner(n, f)
        for _ in range(5):
            size = min(ft.f, max(n - 2, 0))
            faults = set(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            alive = [p for p in range(1, n + 1) if p not in faults]
            for a, i in enumerate(alive):
                for j in alive[a:]:
                    assert ft.query(i, j, faults) == ft_descent_reference(ft, i, j, faults)


def test_ft_f0_equals_two_hop():
    for n in list(range(1, 70)) + [100, 128, 129, 255]:
        ft, hop = FtTwoHopPathSpanner(n, 0), TwoHopPathSpanner(n)
        plain = {(min(i, l), max(i, l)) for i in range(1, n + 1) for l in hop.edges_of(i) if l != i}
        assert ft.edges == plain
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert ft.query(i, j) == hop.query(i, j)
        if n > 1:
            iu, iv = np.triu_indices(n, k=1)
            no_faults = np.zeros(ft.n_padded + 2, dtype=bool)
            assert ft.query_batch(iu + 1, iv + 1, no_faults).tolist() == hop.query_batch(iu + 1, iv + 1).tolist()


def test_ft_rejects_oversized_fault_set():
    ft = FtTwoHopPathSpanner(16, 2)
    with pytest.raises(ValueError):
        ft.query(1, 5, {2, 3, 4})


def test_three_hop_monotone_exact():
    for n in (2, 10, 64, 200):
        s = ThreeHopPathSpanner(n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                path = s.query(i, j)
                assert path[0] == i and path[-1] == j
                assert len(path) <= 4  # <= 3 hops
                assert all(a < b for a, b in zip(path, path[1:]))
                for a, b in zip(path, path[1:]):
                    assert (a, b) in s.edges


def test_four_hop_monotone_exact():
    for n in (2, 10, 64, 200):
        s = FourHopPathSpanner(n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                path = s.query(i, j)
                assert path[0] == i and path[-1] == j
                assert len(path) <= 5  # <= 4 hops
                assert all(a < b for a, b in zip(path, path[1:]))
                for a, b in zip(path, path[1:]):
                    assert (a, b) in s.edges


def test_hop_edge_growth():
    # 3-hop ~ n log log n, 4-hop ~ n log* n: both far below the 2-hop count
    n = 1024
    two = TwoHopPathSpanner(n).num_edges()
    three = ThreeHopPathSpanner(n).num_edges()
    four = FourHopPathSpanner(n).num_edges()
    assert three < two
    assert four < two
    assert three <= 8 * n * np.log2(np.log2(n))
    assert four <= 10 * n * 3  # log*(1024) = 4 starting from 2-exponentials
