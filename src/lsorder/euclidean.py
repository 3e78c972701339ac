"""Triangle-LSO for l2 / lp (p in [1,2]) point sets via multi-scale random
ball carving, plus the shifted-grid classic LSO and the ball-intersection
Monte Carlo used to sanity-check the clustering probabilities.

A ball-carving ordering sorts points by their cluster keys top scale down:
at scale i (width w_i = xi^i * (1+delta')^shift) every point joins the first
sampled center whose lattice-translated ball covers it, and cluster keys
(center ordinal, lattice vector) are compared lexicographically.  Centers are
sampled once per base scale j in [0, gamma) and reused at scales j + k*gamma
scaled by xi^(k*gamma).

Center sampling draws the i.i.d. uniform sequence on the torus [0, 4w)^d
restricted to the arrivals that first-cover some input point (exact
thinning: everything else can never win a point, so the assignment and
cluster order are unchanged), which keeps the stored center lists short even
in high dimension.  Given the uncovered set U, the next kept arrival is
uniform over the union of the balls around U; each batch draws it from one
of two proposals, whichever accepts more often:

- ball proposals: a uniform point of a ball around a uniform member of U,
  accepted with probability 1/(number of U-balls covering it);
- torus proposals: a uniform point of the torus, accepted iff it covers a
  member of U.  They win once |U| * Vol(ball) exceeds the torus volume, as
  at coarse scales where every effective point falls into one ball.

After an accept the batch goes on (in-batch thinning): a later proposal that
passed its test against the batch's U is kept iff it still covers an
uncovered point, which is rejection from the old union down to the new one.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .metrics import LpMetric, PointSet, floor_log2, lp_norms, min_max_pairwise
from .orderings import CLASSIC, TRIANGLE, Ordering, OrderingFamily, verify_classic, verify_triangle


class CoverageError(RuntimeError):
    """A point is not covered by the sampled centers at some needed scale."""


def sample_lp_ball(rng, count, dim, p):
    """Uniform samples in the unit lp ball (works for every p in [1, 2])."""
    if p == 2:
        g = rng.normal(size=(count, dim))
        e = rng.exponential(size=count)
        norm = np.sqrt((g * g).sum(axis=1) + 2.0 * e)
        return g / norm[:, None]
    g = rng.gamma(1.0 / p, size=(count, dim)) ** (1.0 / p)
    g *= rng.choice([-1.0, 1.0], size=(count, dim))
    e = rng.exponential(size=count)
    denom = ((np.abs(g) ** p).sum(axis=1) + e) ** (1.0 / p)
    return g / denom[:, None]


@dataclass
class BallCarvingScheme:
    """Randomness backing one ordering: per-base-scale center lists."""

    p: float
    delta: float
    xi: float
    gamma: int
    shift: int
    i_min: int
    i_max: int
    base_widths: list = field(default_factory=list)
    centers: dict = field(default_factory=dict)  # base scale j -> (l_j, d) array
    assignments: dict = field(default_factory=dict)  # (j, k) -> (ordinals, lattice)
    # sampler counters, summed over base scales
    proposals: int = 0
    ball_batches: int = 0
    torus_batches: int = 0

    def width(self, i):
        return self.xi**i * (1.0 + self.delta / 3.0) ** self.shift

    def base_of(self, i):
        j = i % self.gamma
        k = (i - j) // self.gamma
        return j, k


def ordering_scale_range(metric_or_ps, scheme, extent=None):
    """(i_min, i_max): below i_min all pairs are separated (2*w_i < min
    distance), at i_max one width covers the diameter (w_i >= max distance).

    `extent` is (min positive distance, max distance) when the caller has it;
    otherwise it is read from the metric.
    """
    if extent is None:
        metric = metric_or_ps if hasattr(metric_or_ps, "matrix") else LpMetric(metric_or_ps, scheme.p)
        extent = min_max_pairwise(metric)
    dmin, dmax = extent
    shift_factor = (1.0 + scheme.delta / 3.0) ** scheme.shift
    i_min = math.floor(math.log(dmin / (2.0 * shift_factor)) / math.log(scheme.xi))
    while 2.0 * scheme.xi**i_min * shift_factor >= dmin:
        i_min -= 1
    while 2.0 * scheme.xi ** (i_min + 1) * shift_factor < dmin:
        i_min += 1
    i_max = math.ceil(math.log(dmax / shift_factor) / math.log(scheme.xi))
    while scheme.xi**i_max * shift_factor < dmax:
        i_max += 1
    while i_max > i_min and scheme.xi ** (i_max - 1) * shift_factor >= dmax:
        i_max -= 1
    return i_min, i_max


def _effective_points(points, scheme, j):
    """Scaled copies of the input needing coverage at base scale j."""
    ks = [
        (i - j) // scheme.gamma
        for i in range(scheme.i_min, scheme.i_max + 1)
        if i % scheme.gamma == j
    ]
    blocks = [points * scheme.xi ** (-(k * scheme.gamma)) for k in ks]
    return ks, blocks


def sample_scheme(ps, p, t_internal, delta, shift, seed, extent=None):
    """Sample the assignment-relevant center sequence for one ordering.

    `extent` is the input's (min positive, max) pairwise distance; builders
    that sample many schemes of one input pass it to skip the n x n scan.
    """
    points = ps.points
    n, d = points.shape
    xi = 12.0 * math.sqrt(d) / t_internal if p == 2 else 36.0 * d / t_internal
    gamma = max(1, math.ceil(d / t_internal**p))
    scheme = BallCarvingScheme(
        p=p,
        delta=delta,
        xi=xi,
        gamma=gamma,
        shift=shift,
        i_min=0,
        i_max=0,
    )
    if n >= 2:
        try:
            scheme.i_min, scheme.i_max = ordering_scale_range(ps, scheme, extent)
        except ValueError:  # all points identical
            scheme.i_min = scheme.i_max = 0
    scheme.base_widths = [scheme.width(j) for j in range(gamma)]
    for j in range(gamma):
        ks, blocks = _effective_points(points, scheme, j)
        if not ks:
            scheme.centers[j] = np.zeros((0, d))
            continue
        eff = np.concatenate(blocks, axis=0)
        w = scheme.base_widths[j]
        rng = seeds.rng_for(seed, "centers", j)
        centers, ordinals, lattice, counts = _sample_covering_centers(eff, w, p, rng)
        scheme.centers[j] = centers
        scheme.proposals += counts["proposals"]
        scheme.ball_batches += counts["ball_batches"]
        scheme.torus_batches += counts["torus_batches"]
        for bi, k in enumerate(ks):
            lo, hi = bi * n, (bi + 1) * n
            scheme.assignments[(j, k)] = (ordinals[lo:hi].copy(), lattice[lo:hi].copy())
    return scheme


# Proposals drawn per sampler batch.  One batch costs batch x |U| x d
# distance terms; most centers are kept from the first few proposals.
CENTER_BATCH = 16


def _ball_torus_share(d, p):
    """Vol(radius-w lp ball) / Vol(torus [0, 4w)^d) = (2G(1+1/p)/4)^d / G(1+d/p)."""
    return math.exp(d * math.log(2.0 * math.gamma(1.0 + 1.0 / p) / 4.0) - math.lgamma(1.0 + d / p))


def _sample_covering_centers(eff, w, p, rng):
    """Thinned uniform center process: each accepted center is the next
    arrival that covers a still-uncovered effective point.

    Returns (centers, ordinals, lattice, counts); counts holds the number of
    proposals and of ball and torus batches.
    """
    m, d = eff.shape
    batch = CENTER_BATCH
    period = 4.0 * w
    share = _ball_torus_share(d, p)
    max_batches = 256 * m + 4096
    uncovered = np.arange(m)
    ordinals = np.full(m, -1, dtype=np.int64)
    lattice = np.zeros((m, d), dtype=np.int64)
    centers = []
    counts = {"proposals": 0, "ball_batches": 0, "torus_batches": 0}
    while uncovered.size:
        if counts["ball_batches"] + counts["torus_batches"] == max_batches:
            raise CoverageError(
                f"center sampling exhausted after {max_batches} batches "
                f"({uncovered.size} points uncovered)"
            )
        sub = eff[uncovered]
        torus = uncovered.size * share > 1.0
        if torus:
            counts["torus_batches"] += 1
            cand = rng.uniform(0.0, period, size=(batch, d))
        else:
            counts["ball_batches"] += 1
            pick = rng.integers(0, uncovered.size, size=batch)
            cand = sub[pick] - sample_lp_ball(rng, batch, d, p) * w
            cand -= period * np.floor(cand / period)
        counts["proposals"] += batch
        diff = sub[None, :, :] - cand[:, None, :]
        u = np.rint(diff / period)
        covered_mask = lp_norms(diff - period * u, p) <= w
        if torus:
            passed = covered_mask.any(axis=1)
        else:
            hits = covered_mask.sum(axis=1)
            passed = (hits > 0) & (rng.random(size=batch) < 1.0 / np.maximum(hits, 1))
        # In arrival order, a passed proposal is kept iff it still covers a
        # live point.  So a point goes to the first passed proposal covering
        # it, and the kept proposals are exactly those firsts.
        rows = np.flatnonzero(passed)
        if not rows.size:
            continue
        cover = covered_mask[rows]
        hit = cover.any(axis=0)
        first = cover.argmax(axis=0)[hit]
        kept = np.unique(first)
        cols = np.flatnonzero(hit)
        ordinals[uncovered[cols]] = len(centers) + np.searchsorted(kept, first)
        lattice[uncovered[cols]] = u[rows[first], cols]
        centers.extend(cand[rows[kept]])
        uncovered = uncovered[~hit]
    return np.asarray(centers), ordinals, lattice, counts


def _ordering_from_scheme(ps, scheme):
    """Top-down sort: cluster keys from i_max down to i_min, ties by id.

    One lexsort over the (ordinal, lattice...) columns of every scale, scale
    i_max first and the point id last.
    """
    columns = []
    for i in range(scheme.i_max, scheme.i_min - 1, -1):
        ordinals, lattice = scheme.assignments[scheme.base_of(i)]
        columns.append(ordinals)
        columns.extend(lattice.T)
    columns.append(np.arange(len(ps.points)))
    return Ordering(np.lexsort(columns[::-1]))


def internal_stretch(p, t, d):
    """The construction's internal stretch parameter (the user-facing target t
    folds in the final halving; clamped at the dimension cap)."""
    cap = d ** (1.0 / p)
    return min(t / 2.0, cap)


def build_triangle_lso(ps, p, t, delta, m=None, seed=0):
    """Structural builder: m orderings per shift, S shifts; the verifier is
    the arbiter of the (1+delta)*t stretch target."""
    if isinstance(ps, np.ndarray) or isinstance(ps, list):
        ps = PointSet(ps)
    if not (1 <= p <= 2):
        raise ValueError("carving supports p in [1, 2] (use norm transfer beyond)")
    if p == 2 and t < 4:
        raise ValueError("t must be >= 4 for p = 2")
    if p < 2 and t < 5:
        raise ValueError("t must be >= 5 for p < 2")
    if not (0 < delta <= 1):
        raise ValueError("delta must be in (0, 1]")
    n, d = ps.points.shape
    t_int = internal_stretch(p, t, d)
    delta_p = delta / 3.0
    xi = 12.0 * math.sqrt(d) / t_int if p == 2 else 36.0 * d / t_int
    shift_count = int(math.floor(math.log(xi) / math.log(1.0 + delta_p))) + 1
    if m is None:
        m = default_ordering_count(n, d, p, t)
    orderings = []
    schemes = []
    if n == 1 or np.all(ps.points == ps.points[0]):
        fam = OrderingFamily(TRIANGLE, [Ordering(range(n))], rho=(1 + delta) * t)
        fam.meta["construction"] = "ball-carving-degenerate"
        return fam
    extent = min_max_pairwise(LpMetric(ps, p))
    for s in range(shift_count):
        for q in range(m):
            scheme = sample_scheme(
                ps, p, t_int, delta, s, seeds.derive(seed, "ordering", s, q), extent
            )
            schemes.append(scheme)
            orderings.append(_ordering_from_scheme(ps, scheme))
    fam = OrderingFamily(TRIANGLE, orderings, rho=(1 + delta) * t)
    fam.meta["construction"] = "ball-carving"
    fam.meta["schemes"] = schemes
    fam.meta["sampler"] = {
        "proposals": sum(sc.proposals for sc in schemes),
        "centers": sum(len(c) for sc in schemes for c in sc.centers.values()),
        "ball_batches": sum(sc.ball_batches for sc in schemes),
        "torus_batches": sum(sc.torus_batches for sc in schemes),
    }
    fam.meta["m"] = m
    fam.meta["shift_count"] = shift_count
    return fam


def default_ordering_count(n, d, p, t):
    if p == 2:
        return max(1, math.ceil(math.sqrt(d) / t * math.exp(d / (2.0 * t * t)) * math.log(max(n, 2))))
    return max(1, math.ceil(d ** (1.0 / p) / t * math.exp(d / (2.0 * t**p)) * math.log(max(n, 2))))


# build_triangle_lso_verified doubles the ordering count at most this often
MAX_DOUBLINGS = 6


def build_triangle_lso_verified(ps, p, t, delta, seed=0):
    """Doubling loop: start at the default m, verify on the input, double m
    with fresh seeds until the verifier passes."""
    if isinstance(ps, (np.ndarray, list)):
        ps = PointSet(ps)
    metric = LpMetric(ps, p)
    m = default_ordering_count(len(ps.points), ps.dim, p, t)
    last = None
    for attempt in range(MAX_DOUBLINGS + 1):
        fam = build_triangle_lso(ps, p, t, delta, m=m, seed=seeds.derive(seed, "attempt", attempt))
        report = verify_triangle(fam, metric)
        fam.meta["attempts"] = attempt + 1
        fam.meta["verification"] = report
        if report.passed:
            return fam
        last = report
        m *= 2
    raise RuntimeError(
        f"triangle LSO failed verification after {MAX_DOUBLINGS} doublings "
        f"(max stretch {last.max_observed_stretch:.4g} vs rho {last.rho:.4g})"
    )


# ---------------------------------------------------------------------------
# classic grid LSO (shifted hierarchical grids, input-adaptive patterns)

# Grid coordinates and their xors stay below 2^GRID_BITS, so for a xor v,
# 2v + 1 fits in int64 and floor_log2(2v + 1) is v's bit length (0 at v = 0).
GRID_BITS = 60

# build_classic_grid_lso adds a random shift and rebuilds at most this often
GRID_ROUNDS = 6


class GridClassicLso:
    """Classic family over shifted hierarchical grids.

    Diagonal shifts j/(2d+1) place every pair deep in a common dyadic cell in
    some shift; levels are grouped into chunks of b bits per axis starting at
    phase r, and a cell-ordering pattern makes the pair's two chunk-children
    adjacent, confining the between-window to those two subcells.  Lookup of
    the satisfying ordering for a pair takes O(shifts * d) time, independent
    of n.
    """

    def __init__(self, family, points_int, shifts, b, pair_lookup):
        self.family = family
        self.points_int = points_int
        self.shifts = shifts
        self.b = b
        self.pair_lookup = pair_lookup

    def satisfying_ordering(self, x, y):
        """Ordering index serving each pair (point ids x[i], y[i]): an int64
        array with -1 where no pattern serves the pair; for one pair, an int
        or None.  Coincident points, x == y included, are adjacent in every
        grid ordering and get 0, as does every pair of a degenerate family
        (one ordering of identical points)."""
        xs, ys = np.broadcast_arrays(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
        out = np.zeros(xs.size, dtype=np.int64)
        if self.shifts:
            xs_flat, ys_flat = xs.ravel(), ys.ravel()
            sh, lvl = _shared_levels(self.points_int, xs_flat, ys_flat)
            split = np.flatnonzero(lvl < GRID_BITS)
            sh, lvl = sh[split], lvl[split]
            phase, a, bb = _pair_keys(self.points_int, self.b, xs_flat[split], ys_flat[split], sh, lvl)
            get = self.pair_lookup.get
            out[split] = [get(key, -1) for key in zip(sh.tolist(), phase.tolist(), a.tolist(), bb.tolist())]
        if xs.ndim:
            return out.reshape(xs.shape)
        return None if out[0] < 0 else int(out[0])


def _shared_levels(points_int, xs, ys):
    """Per pair (xs[i], ys[i]): the first shift in which the pair shares the
    deepest grid cell, and that cell's level (GRID_BITS for coincident
    points)."""
    best_sh = np.zeros(xs.shape, dtype=np.int64)
    best_lvl = np.full(xs.shape, -1, dtype=np.int64)
    for sh, pi in enumerate(points_int):
        lvl = (GRID_BITS - floor_log2(2 * (pi[xs] ^ pi[ys]) + 1)).min(axis=1)
        deeper = lvl > best_lvl
        best_sh[deeper] = sh
        best_lvl[deeper] = lvl[deeper]
    return best_sh, best_lvl


def _pair_keys(points_int, b, xs, ys, sh, lvl):
    """Columns (phase, a, bb) of each pair's pattern key (sh, phase, a, bb):
    the symbols a <= bb of the two points' b-bit chunks just below their
    shared level lvl in shift sh, and phase = lvl mod b."""
    shift_amt = GRID_BITS - lvl - b
    if np.any(shift_amt < 0):
        # the pair splits within the last b levels: no full chunk below it
        raise ValueError("negative shift count")
    coords = points_int[sh[:, None], np.stack([xs, ys], axis=1)]  # (pairs, 2, d)
    chunk = (coords >> shift_amt[:, None, None]) & ((1 << b) - 1)
    sym = np.bitwise_or.reduce(chunk << (b * np.arange(coords.shape[2])), axis=2)
    return lvl % b, sym.min(axis=1), sym.max(axis=1)


def _greedy_path_patterns(pairs):
    """Decompose needed symbol pairs into simple paths, one pattern
    {symbol: rank along the path} each.

    The pairs are scanned in the slot order of set(pairs), which never
    changes while pairs are only removed.  A path starts at the first unused
    pair and grows by the first unused pair, in that order, that joins one
    of its ends to a symbol not on it; per-symbol ascending slot lists find
    that pair without rescanning the others.
    """
    slots = list(set(pairs))
    incident = {}
    for i, (u, v) in enumerate(slots):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    unused = [True] * len(slots)
    head = dict.fromkeys(incident, 0)  # incident[s][:head[s]] are all used

    def next_slot(end, on_path, cursor):
        """First unused slot joining end to a symbol off the path, else
        None.  Within one path a slot once passed over stays unusable."""
        lst = incident[end]
        j = cursor.get(end)
        if j is None:
            j = head[end]
            while j < len(lst) and not unused[lst[j]]:
                j += 1
            head[end] = j
        while j < len(lst):
            u, v = slots[lst[j]]
            if unused[lst[j]] and (v if u == end else u) not in on_path:
                break
            j += 1
        cursor[end] = j
        return lst[j] if j < len(lst) else None

    patterns = []
    for first in range(len(slots)):
        if not unused[first]:
            continue
        unused[first] = False
        path = deque(slots[first])
        on_path = set(path)
        cursor = {}
        while True:
            at_tail = next_slot(path[-1], on_path, cursor)
            at_head = next_slot(path[0], on_path, cursor)
            if at_tail is None and at_head is None:
                break
            tail = at_head is None or (at_tail is not None and at_tail < at_head)
            i = at_tail if tail else at_head
            u, v = slots[i]
            sym = v if u in on_path else u
            if tail:
                path.append(sym)
            else:
                path.appendleft(sym)
            on_path.add(sym)
            unused[i] = False
        patterns.append({sym: rank for rank, sym in enumerate(path)})
    return patterns


def build_classic_grid_lso(ps, eps, seed=0):
    """Shifted hierarchical grid family passing verify_classic at rho = eps."""
    if isinstance(ps, (np.ndarray, list)):
        ps = PointSet(ps)
    n, d = ps.points.shape
    if d > 4:
        raise ValueError(f"grid LSO is guarded to d <= 4 (got d = {d}): pattern table blows up")
    if not (0 < eps < 0.5):
        raise ValueError("eps must be in (0, 1/2)")
    pts = ps.points
    mins = pts.min(axis=0)
    extent = float((pts - mins).max())
    if extent == 0.0:
        fam = OrderingFamily(CLASSIC, [Ordering(range(n))], rho=eps)
        fam.meta["construction"] = "grid-degenerate"
        return GridClassicLso(fam, np.zeros((0, n, d), dtype=np.int64), [], 1, {})
    norm = (pts - mins) / (extent * (1 + 1e-12))
    metric = LpMetric(ps, 2)
    mat_norm = LpMetric(PointSet(norm), 2).matrix()
    num_base_shifts = 2 * d + 1
    rng = seeds.rng_for(seed, "grid-extra-shifts")
    shifts = [np.full(d, j / num_base_shifts) for j in range(num_base_shifts)]
    for round_idx in range(GRID_ROUNDS):
        scaled = (norm[None, :, :] + np.array(shifts)[:, None, :]) / 2.0
        points_int = (scaled * (1 << GRID_BITS)).astype(np.int64)  # (shifts, n, d)
        # deepest common level per pair under its best shift
        xs, ys = np.triu_indices(n, k=1)
        sh, lvl = _shared_levels(points_int, xs, ys)
        # chunk width: window diameter sqrt(d)*2^(1-(lvl+b)) must be <= eps*d(x,y)
        dist = mat_norm[xs, ys]
        positive = dist > 0
        need = np.log2(math.sqrt(d) * 2.0 / (eps * dist[positive])) - lvl[positive]
        b = max(1, int(math.ceil(need.max()))) if positive.any() else 1
        if b * d > 58:
            raise ValueError(
                f"grid LSO needs {b} bits/axis at d={d}; symbol table too large (eps too small)"
            )
        xs, ys, sh, lvl = xs[positive], ys[positive], sh[positive], lvl[positive]
        keys = np.stack((sh, *_pair_keys(points_int, b, xs, ys, sh, lvl)), axis=1)
        keys = keys[np.lexsort(keys.T[::-1])]
        keys = keys[np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]]  # sorted needed keys
        starts = np.flatnonzero(np.r_[True, (keys[1:, :2] != keys[:-1, :2]).any(axis=1)])
        orderings = []
        perm_index = {}
        pair_lookup = {}
        groups = []
        for lo, hi in zip(starts.tolist(), np.r_[starts[1:], len(keys)].tolist()):
            sh, phase = keys[lo, :2].tolist()
            pairs = list(map(tuple, keys[lo:hi, 2:].tolist()))
            patterns = _greedy_path_patterns(pairs)
            chunks, full = _grid_chunks(points_int[sh], phase, b)
            for pattern in patterns:
                perm = _materialize_grid_ordering(chunks, full, b * d, pattern)
                idx = perm_index.setdefault(tuple(perm), len(orderings))
                if idx == len(orderings):
                    orderings.append(Ordering(perm))
                path = list(pattern)
                for u, v in zip(path, path[1:]):
                    pair_lookup[(sh, phase, min(u, v), max(u, v))] = idx
            _, degree = np.unique(keys[lo:hi, 2:], return_counts=True)
            groups.append(
                {"shift": sh, "phase": phase, "pairs": hi - lo, "patterns": len(patterns),
                 "max_degree": int(degree.max())}
            )
        if not orderings:
            orderings = [Ordering(range(n))]
        fam = OrderingFamily(CLASSIC, orderings, rho=eps)
        fam.meta["construction"] = "shifted-grid"
        fam.meta["chunk_bits"] = b
        fam.meta["num_shifts"] = len(shifts)
        fam.meta["groups"] = groups  # per (shift, phase): needed pairs, patterns, max symbol degree
        fam.meta["walecki_cap"] = (1 << (b * d)) // 2  # Hamiltonian paths covering a group's pairs
        grid = GridClassicLso(fam, points_int, shifts, b, pair_lookup)
        report = verify_classic(fam, metric, hint=grid.satisfying_ordering)
        fam.meta["verification"] = report
        if report.passed:
            return grid
        # add a fresh random diagonal shift and retry
        shifts.append(rng.uniform(0.0, 1.0, size=1).repeat(d))
    raise RuntimeError(f"grid LSO failed verification after {GRID_ROUNDS} rounds")


def _chunk_column(pi, shift_amt, width):
    """Per-point symbol of the width-bit chunk starting shift_amt bits up."""
    mask = (1 << width) - 1
    sym = np.zeros(pi.shape[0], dtype=np.int64)
    for axis in range(pi.shape[1]):
        sym |= ((pi[:, axis] >> shift_amt) & mask) << (width * axis)
    return sym


def _grid_chunks(pi, phase, b):
    """Chunk symbols of every point, one row per chunk from the top: the
    phase chunk (if phase > 0), then b-bit chunks, the last one possibly
    narrower; plus a mask of the full b-bit rows."""
    rows = []
    full = []
    if phase > 0:
        rows.append(_chunk_column(pi, GRID_BITS - phase, phase))
        full.append(False)
    level = phase
    while level < GRID_BITS:
        width = min(b, GRID_BITS - level)
        rows.append(_chunk_column(pi, GRID_BITS - level - width, width))
        full.append(width == b)
        level += width
    return np.array(rows), np.array(full)


def _materialize_grid_ordering(chunks, full, sym_bits, pattern):
    """Sort points by chunked cell symbols, full chunks mapped through the
    pattern rank (unranked symbols order after ranked ones, by raw value).

    One lexsort over an int64 key row per chunk, top chunk first and the
    point id last.  A full chunk's key is the rank of a ranked symbol, else
    2^sym_bits + symbol (ranks stay below 2^sym_bits = 2^(b*d), and
    b*d <= 58); the other rows are compared by raw symbol.
    """
    keys = chunks.copy()
    if pattern:
        ranked = np.array(sorted(pattern), dtype=np.int64)
        ranks = np.array([pattern[s] for s in ranked.tolist()], dtype=np.int64)
        sym = chunks[full]
        idx = np.minimum(np.searchsorted(ranked, sym), ranked.size - 1)
        keys[full] = np.where(ranked[idx] == sym, ranks[idx], (1 << sym_bits) + sym)
    return np.lexsort(np.vstack([np.arange(chunks.shape[1]), keys[::-1]])).tolist()
