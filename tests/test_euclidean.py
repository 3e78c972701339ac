import math
from dataclasses import dataclass

import numpy as np
import pytest

from lsorder.euclidean import (
    CENTER_BATCH,
    GRID_BITS,
    BallCarvingScheme,
    CoverageError,
    GridClassicLso,
    _ball_torus_share,
    _greedy_path_patterns,
    _grid_chunks,
    _materialize_grid_ordering,
    _ordering_from_scheme,
    _sample_covering_centers,
    build_classic_grid_lso,
    build_triangle_lso,
    build_triangle_lso_verified,
    ordering_scale_range,
    sample_lp_ball,
    sample_scheme,
)
from lsorder.metrics import LpMetric, PointSet, floor_log2, lp_distance, lp_norms
from lsorder.orderings import Ordering, OrderingFamily, VerificationReport, verify_classic, verify_triangle
from lsorder import euclidean, seeds


def test_sample_lp_ball_inside():
    rng = np.random.default_rng(0)
    for p in (1, 1.5, 2):
        pts = sample_lp_ball(rng, 2000, 6, p)
        norms = (np.abs(pts) ** p).sum(axis=1) ** (1 / p)
        assert np.all(norms <= 1 + 1e-9)
        # radial cdf sanity: P(|x|_p <= r) = r^d
        frac = np.mean(norms <= 0.9)
        assert abs(frac - 0.9**6) < 0.05


def test_xi_formula_paper_value():
    ps = PointSet(np.random.default_rng(1).uniform(size=(10, 9)))
    scheme = sample_scheme(ps, p=2, t_internal=3.0, delta=0.5, shift=0, seed=2)
    assert scheme.xi == pytest.approx(12.0)  # 12*sqrt(9)/3
    assert scheme.gamma == 1  # ceil(9/9)


def test_xi_formula_lp():
    ps = PointSet(np.random.default_rng(2).uniform(size=(8, 4)))
    scheme = sample_scheme(ps, p=1.5, t_internal=2.0, delta=0.5, shift=0, seed=3)
    assert scheme.xi == pytest.approx(36.0 * 4 / 2.0)
    assert scheme.gamma == math.ceil(4 / 2.0**1.5)


def carve_scale(ps, scheme, i):
    """Reference first-covering-center assignment at scale i: point id ->
    (center ordinal, lattice tuple).

    Scans the stored base-scale centers in order (scaled by xi^(k*gamma));
    raises CoverageError if some point is uncovered.
    """
    if not scheme.i_min <= i <= scheme.i_max:
        raise ValueError(f"scale {i} outside scheme range [{scheme.i_min}, {scheme.i_max}]")
    j, k = scheme.base_of(i)
    w = scheme.base_widths[j]
    period = 4.0 * w
    centers = scheme.centers[j]
    pts = ps.points * scheme.xi ** (-(k * scheme.gamma))
    assignment = {}
    for pid in range(len(pts)):
        z = pts[pid]
        found = None
        if centers.size:
            diff = z[None, :] - centers
            u = np.rint(diff / period)
            dist = lp_norms(diff - period * u, scheme.p)
            hits = np.nonzero(dist <= w)[0]
            if hits.size:
                first = int(hits[0])
                found = (first, tuple(int(x) for x in u[first]))
        if found is None:
            raise CoverageError(f"point {pid} uncovered at scale {i}")
        assignment[pid] = found
    return assignment


def test_carve_scale_matches_stored_assignment():
    rng = np.random.default_rng(4)
    ps = PointSet(rng.uniform(size=(50, 2)))
    scheme = sample_scheme(ps, p=2, t_internal=1.4, delta=0.5, shift=0, seed=5)
    for i in range(scheme.i_min, scheme.i_max + 1):
        clustering = carve_scale(ps, scheme, i)
        j, k = scheme.base_of(i)
        ordinals, lattice = scheme.assignments[(j, k)]
        for pid in range(50):
            assert clustering[pid][0] == int(ordinals[pid]), (i, pid)
            assert clustering[pid][1] == tuple(int(v) for v in lattice[pid])


def test_carve_scale_ball_containment():
    rng = np.random.default_rng(6)
    ps = PointSet(rng.uniform(size=(50, 2)))
    scheme = sample_scheme(ps, p=2, t_internal=1.4, delta=0.5, shift=0, seed=7)
    i = scheme.i_max
    j, k = scheme.base_of(i)
    clustering = carve_scale(ps, scheme, i)
    w = scheme.base_widths[j]
    centers = scheme.centers[j]
    pts = ps.points * scheme.xi ** (-(k * scheme.gamma))
    for pid in range(50):
        ordinal, u = clustering[pid]
        center = centers[ordinal] + 4 * w * np.asarray(u)
        assert lp_distance(pts[pid], center, 2) <= w * (1 + 1e-12)
        # first-covering-center rule: no earlier center covers the point
        for earlier in range(ordinal):
            diff = pts[pid] - centers[earlier]
            uu = np.rint(diff / (4 * w))
            assert lp_distance(diff - 4 * w * uu, np.zeros(2), 2) > w


def test_two_points_far_apart_distinct_clusters():
    ps = PointSet([[0.0, 0.0], [5.0, 0.0]])
    scheme = sample_scheme(ps, p=2, t_internal=1.4, delta=0.5, shift=0, seed=8)
    # at scales with 2*w_i < 5 the pair must split
    for i in range(scheme.i_min, scheme.i_max + 1):
        if 2 * scheme.width(i) < 5.0:
            clustering = carve_scale(ps, scheme, i)
            assert clustering[0] != clustering[1]


def test_scale_reuse_consistency():
    rng = np.random.default_rng(9)
    ps = PointSet(rng.uniform(size=(40, 4)))
    scheme = sample_scheme(ps, p=2, t_internal=1.0, delta=0.5, shift=0, seed=10)
    assert scheme.gamma >= 2  # reuse must actually kick in: gamma = ceil(4/1)
    for i in range(scheme.i_min, scheme.i_max + 1):
        j, k = scheme.base_of(i)
        if k == 0:
            continue
        clustering = carve_scale(ps, scheme, i)
        # scaled-center route: xi^(k*gamma) * centers(j) with width w_i
        w_i = scheme.width(i)
        centers = scheme.centers[j] * scheme.xi ** (k * scheme.gamma)
        for pid in range(40):
            z = ps.points[pid]
            found = None
            for ordinal in range(len(centers)):
                diff = z - centers[ordinal]
                uu = np.rint(diff / (4 * w_i))
                if lp_distance(diff - 4 * w_i * uu, np.zeros(4), 2) <= w_i:
                    found = (ordinal, tuple(int(v) for v in uu))
                    break
            assert found == clustering[pid]


def test_ordering_scale_range_two_points():
    ps = PointSet([[0.0], [1.0]])
    scheme = sample_scheme(ps, p=2, t_internal=1.0, delta=0.5, shift=0, seed=11)
    i_min, i_max = ordering_scale_range(LpMetric(ps), scheme)
    assert 2 * scheme.width(i_min) < 1.0
    assert 2 * scheme.width(i_min + 1) >= 1.0
    assert scheme.width(i_max) >= 1.0
    assert i_max == i_min + 1 or scheme.width(i_max - 1) < 1.0


def test_ordering_scale_range_equivariance():
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=(20, 2))
    ps1 = PointSet(pts)
    scheme = sample_scheme(ps1, p=2, t_internal=1.4, delta=0.5, shift=0, seed=13)
    ps2 = PointSet(pts * scheme.xi)
    r1 = ordering_scale_range(LpMetric(ps1), scheme)
    r2 = ordering_scale_range(LpMetric(ps2), scheme)
    assert r2[0] == r1[0] + 1
    assert r2[1] == r1[1] + 1


def test_ordering_scale_range_separation_and_enclosure():
    rng = np.random.default_rng(14)
    ps = PointSet(rng.uniform(size=(30, 3)))
    m = LpMetric(ps)
    scheme = sample_scheme(ps, p=2, t_internal=1.7, delta=0.5, shift=0, seed=15)
    i_min, i_max = ordering_scale_range(m, scheme)
    mat = m.matrix()
    iu = np.triu_indices(30, k=1)
    assert np.all(mat[iu] > 2 * scheme.width(i_min))
    assert mat[iu].max() <= scheme.width(i_max)


def test_build_determinism():
    rng = np.random.default_rng(16)
    ps = PointSet(rng.uniform(size=(30, 2)))
    f1 = build_triangle_lso(ps, p=2, t=4.0, delta=0.5, m=2, seed=77)
    f2 = build_triangle_lso(ps, p=2, t=4.0, delta=0.5, m=2, seed=77)
    assert [o.perm for o in f1.orderings] == [o.perm for o in f2.orderings]
    f3 = build_triangle_lso(ps, p=2, t=4.0, delta=0.5, m=2, seed=78)
    assert [o.perm for o in f1.orderings] != [o.perm for o in f3.orderings]


def test_build_two_points_trivial():
    fam = build_triangle_lso(PointSet([[0.0, 0.0], [1.0, 1.0]]), p=2, t=4.0, delta=0.5, m=1, seed=0)
    rep = verify_triangle(fam, LpMetric(PointSet([[0.0, 0.0], [1.0, 1.0]])))
    assert rep.passed


def test_build_identical_points_degenerate():
    fam = build_triangle_lso(PointSet([[1.0, 1.0]] * 4), p=2, t=4.0, delta=0.5, seed=0)
    assert len(fam.orderings) == 1


def test_verified_builder_small_euclidean():
    rng = np.random.default_rng(17)
    ps = PointSet(rng.uniform(size=(60, 4)))
    fam = build_triangle_lso_verified(ps, p=2, t=4.0, delta=0.5, seed=18)
    rep = fam.meta["verification"]
    assert rep.passed
    assert rep.rho == pytest.approx(6.0)


def test_verified_builder_lp():
    rng = np.random.default_rng(19)
    ps = PointSet(rng.uniform(size=(40, 3)))
    fam = build_triangle_lso_verified(ps, p=1.5, t=6.0, delta=0.5, seed=20)
    assert fam.meta["verification"].passed


def test_norm_transfer_property():
    rng = np.random.default_rng(21)
    d = 4
    ps = PointSet(rng.uniform(size=(50, d)))
    fam = build_triangle_lso_verified(ps, p=2, t=4.0, delta=0.5, seed=22)
    rho2 = fam.meta["verification"].max_observed_stretch
    for p in (1, 1.5):
        target = rho2 * d ** (1 / p - 0.5)
        shifted = OrderingFamily("triangle", fam.orderings, rho=target)
        rep = verify_triangle(shifted, LpMetric(ps, p))
        assert rep.passed, f"p={p}: {rep.summary()}"
    for p in (4, math.inf):
        target = rho2 * d ** (0.5 - (0.0 if p == math.inf else 1 / p))
        shifted = OrderingFamily("triangle", fam.orderings, rho=target)
        rep = verify_triangle(shifted, LpMetric(ps, p))
        assert rep.passed, f"p={p}: {rep.summary()}"


def test_sample_scheme_with_extent_matches_metric_scan():
    ps = PointSet(np.random.default_rng(31).uniform(size=(25, 3)))
    dists = LpMetric(ps).matrix()[np.triu_indices(25, 1)]
    extent = (float(dists.min()), float(dists.max()))
    a = sample_scheme(ps, p=2, t_internal=1.4, delta=0.5, shift=1, seed=9)
    b = sample_scheme(ps, p=2, t_internal=1.4, delta=0.5, shift=1, seed=9, extent=extent)
    assert (a.i_min, a.i_max) == (b.i_min, b.i_max)
    for key, (ordinals, lattice) in a.assignments.items():
        assert np.array_equal(ordinals, b.assignments[key][0])
        assert np.array_equal(lattice, b.assignments[key][1])


def test_sampler_counters_in_family_meta():
    ps = PointSet(np.random.default_rng(32).uniform(size=(40, 2)))
    fam = build_triangle_lso(ps, p=2, t=4.0, delta=0.5, m=2, seed=5)
    stats = fam.meta["sampler"]
    schemes = fam.meta["schemes"]
    assert stats["centers"] == sum(len(c) for sc in schemes for c in sc.centers.values())
    assert stats["proposals"] == sum(sc.proposals for sc in schemes) >= stats["centers"]
    assert stats["proposals"] == CENTER_BATCH * (stats["ball_batches"] + stats["torus_batches"])
    # coarse scales hold every effective point in one ball: torus proposals win there
    assert stats["torus_batches"] > 0


# --- the center sampler is exact in distribution ---------------------------


def naive_covering_centers(eff, w, p, rng):
    """Reference center process: i.i.d. uniform arrivals on the torus
    [0, 4w)^d, one at a time; an arrival covering an uncovered point becomes
    the next center and takes every uncovered point it covers."""
    m, d = eff.shape
    period = 4.0 * w
    ordinals = np.full(m, -1, dtype=np.int64)
    lattice = np.zeros((m, d), dtype=np.int64)
    count = 0
    while (ordinals < 0).any():
        z = rng.uniform(0.0, period, size=d)
        diff = eff - z
        u = np.rint(diff / period)
        r = diff - period * u
        norms = np.sqrt((r * r).sum(axis=1)) if p == 2 else (np.abs(r) ** p).sum(axis=1) ** (1.0 / p)
        hit = (norms <= w) & (ordinals < 0)
        if hit.any():
            ordinals[hit] = count
            lattice[hit] = u[hit]
            count += 1
    return ordinals, lattice


def cluster_order(ordinals, lattice):
    """Outcome as the ordering builder reads it: cluster keys per point."""
    return tuple(ordinals.tolist()), tuple(lattice.ravel().tolist())


def partition_pattern(ordinals, lattice):
    """Outcome up to the order of the clusters."""
    return frozenset(frozenset(np.flatnonzero(ordinals == o).tolist()) for o in set(ordinals.tolist()))


def homogeneity_chi2(a, b, min_count=10):
    """Two-sample chi-square statistic and degrees of freedom over the
    categories of two equal-size outcome lists; categories seen fewer than
    min_count times in both lists together are pooled."""
    ca, cb = {}, {}
    for x in a:
        ca[x] = ca.get(x, 0) + 1
    for x in b:
        cb[x] = cb.get(x, 0) + 1
    rows = []
    pooled = [0, 0]
    for key in set(ca) | set(cb):
        pair = [ca.get(key, 0), cb.get(key, 0)]
        if sum(pair) < min_count:
            pooled = [pooled[0] + pair[0], pooled[1] + pair[1]]
        else:
            rows.append(pair)
    if sum(pooled) > 0:
        rows.append(pooled)
    obs = np.asarray(rows, dtype=np.float64)
    expected = obs.sum(axis=1, keepdims=True) * obs.sum(axis=0, keepdims=True) / obs.sum()
    return float(((obs - expected) ** 2 / expected).sum()), len(rows) - 1


def chi2_critical(df, z=3.09):
    """Upper 0.001 point of chi-square(df), Wilson-Hilferty approximation."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


# w = 1, period 4; points sit near the torus middle, so every lattice vector is 0
COARSE = np.array([[2.0, 2.0], [2.1, 2.05], [1.9, 2.1], [2.05, 1.85], [1.95, 1.95], [2.12, 1.9]])
SPREAD = np.array([[1.6, 1.6], [2.4, 1.7], [2.0, 2.5], [2.3, 2.2]])


@pytest.mark.parametrize(
    "eff,p,torus",
    [(COARSE, 2, True), (COARSE, 1.5, True), (SPREAD, 2, False), (SPREAD, 1.5, False)],
    ids=["coarse-p2", "coarse-p1.5", "spread-p2", "spread-p1.5"],
)
def test_center_sampler_matches_naive_process(eff, p, torus):
    # the branch under test: torus proposals start when |U| * Vol(ball) > Vol(torus)
    assert (len(eff) * _ball_torus_share(2, p) > 1.0) == torus
    runs = 3000
    fast, slow = [], []
    torus_batches = 0
    for r in range(runs):
        _, ordinals, lattice, counts = _sample_covering_centers(eff, 1.0, p, seeds.rng_for(101, "fast", r))
        torus_batches += counts["torus_batches"]
        fast.append((ordinals, lattice))
        slow.append(naive_covering_centers(eff, 1.0, p, seeds.rng_for(101, "naive", r)))
    assert (torus_batches > 0) == torus
    for outcome in (partition_pattern, cluster_order):
        stat, df = homogeneity_chi2([outcome(*x) for x in fast], [outcome(*x) for x in slow])
        assert df >= 3, outcome.__name__
        assert stat < chi2_critical(df), (outcome.__name__, stat, df)


def test_ball_torus_share_closed_forms():
    assert _ball_torus_share(2, 2) == pytest.approx(math.pi / 16)
    assert _ball_torus_share(3, 2) == pytest.approx(4 / 3 * math.pi / 64)
    assert _ball_torus_share(2, 1) == pytest.approx(2 / 16)  # l1 ball of radius 1: area 2


# --- lexsort orderings equal the tuple-key sorts ---------------------------


def tuple_key_ordering(n, scheme):
    """Reference: per-point list of (ordinal, lattice tuple) keys from i_max
    down, sorted with the point id as the last key."""
    keys = [[] for _ in range(n)]
    for i in range(scheme.i_max, scheme.i_min - 1, -1):
        ordinals, lattice = scheme.assignments[scheme.base_of(i)]
        for pid in range(n):
            keys[pid].append((int(ordinals[pid]), tuple(int(x) for x in lattice[pid])))
    return sorted(range(n), key=lambda pid: (keys[pid], pid))


@pytest.mark.parametrize("d,gamma,seed", [(1, 1, 0), (2, 1, 1), (2, 3, 2), (3, 2, 3), (4, 1, 4)])
def test_scheme_ordering_lexsort_matches_tuple_keys(d, gamma, seed):
    rng = np.random.default_rng(seed)
    n = 60
    for _ in range(10):
        i_min = int(rng.integers(-4, 2))
        scheme = BallCarvingScheme(p=2, delta=0.5, xi=6.0, gamma=gamma, shift=0,
                                   i_min=i_min, i_max=i_min + int(rng.integers(0, 6)))
        for i in range(scheme.i_min, scheme.i_max + 1):
            # few ordinals and lattice values: many tied keys, negative vectors
            scheme.assignments[scheme.base_of(i)] = (
                rng.integers(0, 3, size=n),
                rng.integers(-2, 2, size=(n, d)),
            )
        assert _ordering_from_scheme(PointSet(np.zeros((n, d))), scheme).perm == tuple_key_ordering(n, scheme)


def tuple_key_grid_ordering(pi, phase, b, pattern):
    """Reference: per-point list of (0, phase symbol), (0, rank) or
    (1, symbol) chunk keys, sorted with the point id as the last key."""
    n, d = pi.shape
    keys = []
    for pid in range(n):
        coords = pi[pid]
        key = []
        level = 0
        if phase > 0:
            sym = 0
            for axis in range(d):
                sym |= (int(coords[axis]) >> (GRID_BITS - phase) & ((1 << phase) - 1)) << (phase * axis)
            key.append((0, sym))
            level = phase
        while level < GRID_BITS:
            width = min(b, GRID_BITS - level)
            sym = 0
            for axis in range(d):
                sym |= (int(coords[axis]) >> (GRID_BITS - level - width) & ((1 << width) - 1)) << (width * axis)
            key.append((0, pattern[sym]) if width == b and sym in pattern else (1, sym))
            level += width
        keys.append((key, pid))
    keys.sort()
    return [pid for _, pid in keys]


@pytest.mark.parametrize(
    "d,b,phase",
    [(1, 1, 0), (2, 2, 0), (2, 2, 1), (2, 7, 0), (2, 7, 3), (3, 3, 2), (4, 14, 13)],
)
def test_grid_ordering_lexsort_matches_tuple_keys(d, b, phase):
    rng = np.random.default_rng(100 * d + 10 * b + phase)
    n = 50
    # shared high bits make long runs of tied chunks; duplicates tie every chunk
    high = rng.integers(0, 4, size=(n, d)) << (GRID_BITS - 2)
    pi = high | rng.integers(0, 1 << 8, size=(n, d)) << (GRID_BITS - 12)
    pi[n // 2 :: 7] = pi[0]
    syms = sorted({int(s) for s in rng.integers(0, 1 << (b * d), size=12)})
    for ranked_share in (0.0, 0.5, 1.0):
        chosen = [s for s in syms if rng.random() < ranked_share]
        pattern = {s: rank for rank, s in enumerate(rng.permutation(chosen).tolist())}
        chunks, full = _grid_chunks(pi, phase, b)
        assert _materialize_grid_ordering(chunks, full, b * d, pattern) == tuple_key_grid_ordering(
            pi, phase, b, pattern
        )


def test_carve_scale_coverage_error_when_centers_missing():
    ps = PointSet(np.random.default_rng(23).uniform(size=(10, 2)))
    scheme = sample_scheme(ps, p=2, t_internal=1.4, delta=0.5, shift=0, seed=24)
    j, _ = scheme.base_of(scheme.i_max)
    scheme.centers[j] = scheme.centers[j][:0]
    with pytest.raises(CoverageError):
        carve_scale(ps, scheme, scheme.i_max)


# --- volume ratio ---------------------------------------------------------


# The ball-intersection Monte Carlo that these tests and criterion 4 check.
@dataclass
class VolumeRatioEstimate:
    estimate: float
    stderr: float


def estimate_volume_ratio(d, radius, separation, p=2, samples=1_000_000, seed=0):
    """Vol(B1 and B2) / Vol(B1 or B2) by Monte Carlo over the union.

    Proposals are drawn uniformly from a random one of the two balls and
    accepted with probability 1/#covering-balls, which makes the accepted
    points exactly uniform over the union at any dimension (box rejection
    dies at large d: its hit rate is Vol(ball)/2^d).  `samples` counts
    proposals; every accepted sample is a union hit.
    """
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    if separation == 0:
        return VolumeRatioEstimate(1.0, 0.0)
    if separation >= 2 * radius:
        return VolumeRatioEstimate(0.0, 0.0)
    if samples < 10_000:
        raise ValueError("at least 10^4 samples required")
    rng = seeds.rng_for(seed, "volume-ratio", d, radius, separation, p)
    inter = 0
    union = 0
    remaining = samples
    batch = 100_000
    offset = np.zeros(d)
    offset[0] = separation
    while remaining > 0:
        b = min(batch, remaining)
        remaining -= b
        pts = sample_lp_ball(rng, b, d, p) * radius
        side = rng.integers(0, 2, size=b)
        pts[side == 1, 0] += separation
        # distance to the other ball's center decides multiplicity
        other = pts.copy()
        other[side == 0] -= offset  # their other center sits at (separation, 0, ...)
        in_other = lp_norms(other, p) <= radius  # side==1 rows measure against the origin
        keep = ~in_other | (rng.random(b) < 0.5)
        inter += int(np.sum(in_other & keep))
        union += int(np.sum(keep))
    est = inter / union if union else 0.0
    stderr = math.sqrt(est * (1 - est) / union) if union else 0.0
    return VolumeRatioEstimate(est, stderr)


def lens_ratio_2d(R, s):
    lens = 2 * R * R * math.acos(s / (2 * R)) - (s / 2) * math.sqrt(4 * R * R - s * s)
    return lens / (2 * math.pi * R * R - lens)


def test_volume_ratio_trivial_cases():
    assert estimate_volume_ratio(3, 1.0, 0.0, samples=10_000).estimate == 1.0
    assert estimate_volume_ratio(3, 1.0, 2.0, samples=10_000).estimate == 0.0
    assert estimate_volume_ratio(3, 1.0, 2.5, samples=10_000).estimate == 0.0


def test_volume_ratio_lens_closed_form():
    est = estimate_volume_ratio(2, 1.0, 1.0, p=2, samples=400_000, seed=1)
    oracle = lens_ratio_2d(1.0, 1.0)
    assert abs(est.estimate - oracle) <= 3 * est.stderr


def test_volume_ratio_small_separation_bound():
    # ratio >= 1 - sqrt(d) * s / R for s <= R / sqrt(d)
    for d in (8, 16):
        for s in (0.02, 0.1, 1 / math.sqrt(d)):
            e = estimate_volume_ratio(d, 1.0, s, p=2, samples=100_000, seed=2)
            assert e.estimate + 3 * e.stderr >= 1 - math.sqrt(d) * s


def test_volume_ratio_large_separation_calibrated():
    # ratio >= c * (R/(sqrt(d)*s)) * (1-(s/2R)^2)^(d/2); measured c stays
    # above 0.34 on this grid, frozen test constant 0.25
    c = 0.25
    for d in (8, 16):
        for s in (1 / (2 * math.sqrt(d)), 0.3, 0.6, 1.0):
            e = estimate_volume_ratio(d, 1.0, s, p=2, samples=100_000, seed=3)
            bound = c * (1 / (math.sqrt(d) * s)) * (1 - (s / 2) ** 2) ** (d / 2)
            assert e.estimate + 3 * e.stderr >= bound, (d, s)


def test_volume_ratio_lp_small_separation():
    for p in (1, 1.5):
        for s in (0.005, 0.02):
            e = estimate_volume_ratio(8, 1.0, s, p=p, samples=100_000, seed=4)
            assert e.estimate + 3 * e.stderr >= 1 - 4 * 8 * s


# --- classic grid LSO -----------------------------------------------------


def test_grid_lso_two_far_points():
    grid = build_classic_grid_lso(PointSet([[0.0, 0.0], [0.9, 0.9]]), eps=0.25, seed=0)
    rep = grid.family.meta["verification"]
    assert rep.passed


def test_grid_lso_line_sorted_is_half_lso():
    # sorted order on the line certifies rho = 1/2 (midpoint split)
    vals = np.linspace(0.0, 1.0, 17)
    ps = PointSet([[v] for v in vals])
    fam = OrderingFamily("classic", [Ordering(range(17))], rho=0.5)
    assert verify_classic(fam, LpMetric(ps)).passed


def test_grid_lso_plane():
    rng = np.random.default_rng(25)
    ps = PointSet(rng.uniform(size=(80, 2)))
    grid = build_classic_grid_lso(ps, eps=0.25, seed=26)
    rep = grid.family.meta["verification"]
    assert rep.passed
    assert rep.rho == 0.25


def test_grid_lso_lookup_serves_every_pair():
    rng = np.random.default_rng(27)
    n = 40
    ps = PointSet(rng.uniform(size=(n, 2)))
    grid = build_classic_grid_lso(ps, eps=0.25, seed=28)
    fam = grid.family
    served = {}
    for x in range(n):
        for y in range(x + 1, n):
            k = grid.satisfying_ordering(x, y)
            assert k is not None
            served.setdefault(k, []).append((x, y))
    for k, pairs in served.items():  # one verification per distinct ordering
        single = OrderingFamily("classic", [fam.orderings[k]], rho=0.25)
        sub = verify_classic(single, LpMetric(ps))
        bad = {(a, b) for a, b, _ in sub.violations}
        for pair in pairs:
            assert pair not in bad


def test_grid_lso_rejects_large_dimension():
    ps = PointSet(np.random.default_rng(29).uniform(size=(10, 6)))
    with pytest.raises(ValueError, match="d <= 4"):
        build_classic_grid_lso(ps, eps=0.25)


def test_grid_lso_determinism():
    rng = np.random.default_rng(30)
    pts = rng.uniform(size=(30, 2))
    g1 = build_classic_grid_lso(PointSet(pts), eps=0.25, seed=31)
    g2 = build_classic_grid_lso(PointSet(pts), eps=0.25, seed=31)
    assert [o.perm for o in g1.family.orderings] == [o.perm for o in g2.family.orderings]


def chunk_symbol(points_int, sh, pid, level_top, b):
    """Reference: symbol of the b-bit chunk below level_top, one Python int
    shift per axis (a negative shift count raises)."""
    coords = points_int[sh][pid]
    shift_amt = GRID_BITS - level_top - b
    sym = 0
    mask = (1 << b) - 1
    for axis in range(coords.shape[0]):
        sym |= (int(coords[axis]) >> shift_amt & mask) << (b * axis)
    return sym


def pair_key(points_int, sh, lvl, b, x, y):
    a = chunk_symbol(points_int, sh, x, lvl, b)
    bb = chunk_symbol(points_int, sh, y, lvl, b)
    return (sh, lvl % b, min(a, bb), max(a, bb))


def loop_satisfying_ordering(grid, x, y):
    """Reference hint: a Python loop over the shifts, one split level per
    shift, where only a strictly deeper level replaces the best shift."""
    if x == y:
        return 0
    best_sh, best_lvl = 0, -1
    for sh in range(len(grid.shifts)):
        xor = grid.points_int[sh][x] ^ grid.points_int[sh][y]
        lvl = int((GRID_BITS - floor_log2(2 * xor + 1)).min())
        if lvl > best_lvl:
            best_sh, best_lvl = sh, lvl
    if best_lvl == GRID_BITS:
        return 0
    return grid.pair_lookup.get(pair_key(grid.points_int, best_sh, best_lvl, grid.b, x, y))


def rescan_path_patterns(pairs):
    """Reference greedy path cover: after each extension it rescans every
    remaining pair, in the set's slot order, for one that joins a path end
    to a symbol off the path."""
    remaining = set(pairs)
    patterns = []
    while remaining:
        a, bmax = next(iter(remaining))
        path = [a, bmax]
        used = {a, bmax}
        remaining.discard((a, bmax))
        grew = True
        while grew:
            grew = False
            for pair in list(remaining):
                u, v = pair
                if u == path[-1] and v not in used:
                    path.append(v)
                elif v == path[-1] and u not in used:
                    path.append(u)
                elif u == path[0] and v not in used:
                    path.insert(0, v)
                elif v == path[0] and u not in used:
                    path.insert(0, u)
                else:
                    continue
                used.update(pair)
                remaining.discard(pair)
                grew = True
                break
        patterns.append({sym: rank for rank, sym in enumerate(path)})
    return patterns


@pytest.fixture(scope="module")
def grid100():
    ps = PointSet(np.random.default_rng(1).uniform(size=(100, 2)))
    return build_classic_grid_lso(ps, 0.25, seed=1)


def needed_pairs_by_group(grid):
    """(shift, phase) -> sorted needed symbol pairs: every needed pair is
    adjacent in exactly one pattern, so pair_lookup holds each once."""
    groups = {}
    for sh, phase, a, bb in grid.pair_lookup:
        groups.setdefault((sh, phase), []).append((a, bb))
    return {key: sorted(pairs) for key, pairs in sorted(groups.items())}


def test_greedy_path_patterns_match_rescan(grid100):
    groups = needed_pairs_by_group(grid100)
    assert grid100.family.tau == 454 and len(groups) == len(grid100.family.meta["groups"])
    for pairs in groups.values():
        assert _greedy_path_patterns(pairs) == rescan_path_patterns(pairs)
    # long paths through high-degree symbols, and isolated pairs
    rng = np.random.default_rng(5)
    for size in (1, 2, 12, 60):
        syms = rng.choice(1 << 10, size=size + 1, replace=False).tolist()
        hub = rng.integers(0, size + 1, size=4 * size)
        other = rng.integers(0, size + 1, size=4 * size)
        pairs = sorted({(min(syms[u], syms[v]), max(syms[u], syms[v])) for u, v in zip(hub, other) if u != v})
        assert _greedy_path_patterns(pairs) == rescan_path_patterns(pairs)


def test_grid_meta_counts_groups(grid100):
    meta = grid100.family.meta
    groups = needed_pairs_by_group(grid100)
    assert [(g["shift"], g["phase"]) for g in meta["groups"]] == list(groups)
    assert [g["pairs"] for g in meta["groups"]] == [len(p) for p in groups.values()]
    assert sum(g["patterns"] for g in meta["groups"]) >= grid100.family.tau
    assert meta["walecki_cap"] == 2 ** (meta["chunk_bits"] * 2) // 2
    for g in meta["groups"]:
        # each path covers at most two of a symbol's pairs
        assert g["patterns"] >= -(-g["max_degree"] // 2)


def grid_with_extra_round(monkeypatch, ps, eps, seed):
    """Grid family whose first verification is reported failed, so the build
    adds one random diagonal shift and verifies again."""
    real = euclidean.verify_classic
    calls = []

    def fail_first(fam, metric, hint=None):
        rep = real(fam, metric, hint=hint)
        calls.append(rep)
        if len(calls) == 1:
            return VerificationReport(rep.kind, rep.rho, rep.pairs_checked, [(0, 1, math.inf)], math.inf)
        return rep

    monkeypatch.setattr(euclidean, "verify_classic", fail_first)
    grid = build_classic_grid_lso(ps, eps, seed=seed)
    monkeypatch.undo()
    assert len(calls) == 2
    return grid


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extra_round", [False, True])
def test_grid_hint_matches_shift_loop(monkeypatch, d, extra_round):
    pts = np.random.default_rng(40 + d).uniform(size=(24, d))
    ps = PointSet(np.vstack([pts, pts[:3]]))  # three coincident pairs
    n = ps.n
    if extra_round:
        grid = grid_with_extra_round(monkeypatch, ps, 0.25, seed=41 + d)
        assert len(grid.shifts) == 2 * d + 2
    else:
        grid = build_classic_grid_lso(ps, 0.25, seed=41 + d)
        assert len(grid.shifts) == 2 * d + 1
    assert grid.points_int.shape == (len(grid.shifts), n, d)
    expected = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            k = grid.satisfying_ordering(x, y)
            assert k is not None
            assert k == loop_satisfying_ordering(grid, x, y)
            expected[x, y] = k
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    got = grid.satisfying_ordering(xs, ys)
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert np.array_equal(grid.satisfying_ordering(np.arange(n), 5), expected[:, 5])
    assert grid.satisfying_ordering(np.arange(0), np.arange(0)).shape == (0,)
    assert expected[0, n - 3] == expected[2, n - 1] == 0


def test_grid_hint_marks_unserved_pairs():
    grid = build_classic_grid_lso(PointSet(np.random.default_rng(43).uniform(size=(12, 2))), 0.25, seed=44)
    grid.pair_lookup.pop(next(iter(grid.pair_lookup)))
    xs, ys = np.triu_indices(12, k=1)
    got = grid.satisfying_ordering(xs, ys)
    ref = [loop_satisfying_ordering(grid, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert got.tolist() == [-1 if k is None else k for k in ref]
    assert ref.count(None) >= 1
    x, y = xs[got < 0][0], ys[got < 0][0]
    assert grid.satisfying_ordering(x, y) is None


def test_grid_hint_negative_shift_count_raises():
    # points 1 apart split at level GRID_BITS - 1, above which no full
    # b-bit chunk fits; the shift must raise, not wrap
    points_int = np.array([[[1 << 40], [(1 << 40) + 1], [0]]], dtype=np.int64)
    fam = OrderingFamily("classic", [Ordering(range(3))], rho=0.25)
    grid = GridClassicLso(fam, points_int, [np.zeros(1)], 3, {})
    with pytest.raises(ValueError, match="negative shift count"):
        grid.satisfying_ordering(0, 1)
    with pytest.raises(ValueError, match="negative shift count"):
        grid.satisfying_ordering(np.array([0, 0]), np.array([2, 1]))
    with pytest.raises(ValueError, match="negative shift count"):
        pair_key(points_int, 0, GRID_BITS - 1, 3, 0, 1)
    assert grid.satisfying_ordering(0, 2) is None


def test_grid_lso_duplicate_points():
    # coincident points split at no grid level; the hint used to shift a
    # chunk by a negative bit count and raise
    pts = [[0.1, 0.2], [0.1, 0.2], [0.7, 0.3], [0.4, 0.9], [0.7, 0.3]]
    grid = build_classic_grid_lso(PointSet(pts), eps=0.25, seed=0)
    assert grid.family.meta["verification"].passed
    assert grid.satisfying_ordering(0, 1) == 0 and grid.satisfying_ordering(2, 4) == 0
    assert grid.satisfying_ordering(np.array([0, 2]), np.array([1, 4])).tolist() == [0, 0]
    assert verify_classic(grid.family, LpMetric(PointSet(pts))).passed


def test_grid_lso_degenerate_hint():
    grid = build_classic_grid_lso(PointSet([[0.5, 0.5]] * 4), eps=0.25)
    assert grid.family.meta["construction"] == "grid-degenerate"
    rep = verify_classic(grid.family, LpMetric(PointSet([[0.5, 0.5]] * 4)), hint=grid.satisfying_ordering)
    assert rep.passed
