"""Golden outputs: SHA-256 digests of fixed-seed builds and of everything
built on them -- family JSON, verifier reports, spanner edges and query
answers, all-pairs and residual weights, NNS labels and answers, oracle
edges.  A refactor that keeps every output passes unchanged.  A change
that moves an output on purpose takes the new digests from the failures
and says why in CHANGES.md."""

import hashlib
import json

import numpy as np
import pytest

from lsorder import fileio
from lsorder.doubling import build_ultrametric_cover, cover_preorder_to_triangle_lso
from lsorder.euclidean import build_classic_grid_lso, build_triangle_lso_verified
from lsorder.metrics import LpMetric, PointSet, WeightedGraph, shortest_path_metric
from lsorder.nns import (
    RootedNns,
    TriangleNns,
    assign_rooted_labels,
    assign_triangle_labels,
)
from lsorder.orderings import (
    CLASSIC,
    Ordering,
    OrderingFamily,
    build_rooted_lso_tree,
    verify_classic,
    verify_family,
)
from lsorder.spanners import (
    ft_spanner_from_family,
    pr_spanner_from_classic,
    pr_spanner_from_rooted,
    pr_spanner_from_triangle,
    spanner_oracle_classic,
    spanner_oracle_triangle,
    spd_spanner,
    tree_heavy_path_spd,
)

GOLDEN = {
    "triangle.family": "8f8bdb317e12f25136a9eda6c294eff91227040fd815dc8b166f652da69d5d68",
    "triangle.verify": "49d482e933205126cb53710cdd9de8b8925fe486db2c514bd805600f443695b9",
    "grid.family": "aa7204dd9d077ec5ed67c2390b16bc0efb1f2bf1b607632b97578d72feafb781",
    "grid.verify": "7c6b5a77bcab169e9f1962e9dbbb09f5bdb5200fcb4bad236b57d4271fc966a3",
    "cover.family": "1b1d7c8b3ff57769ed30b44b075e125351fd33e0e0d4e88857a5535714de7d6a",
    "cover.verify": "dfc2788a1deb8bd7ac04193b4f1b43f27ee6d250c71a4bc8242b73548830de9e",
    "tree.family": "08e3776213938eeb90662ce1b40148710fb528e78902b302b86217053101ce43",
    "tree.verify": "fe71317b9db87ecd26b3d3bac6f9a3d7abbb6d400058b812713cc1af09a0b350",
    "triangle.pr": "5a5c87672bfa795fa523137ec9194691a92ff6582bed8d5d62a336afd7b24148",
    "grid.pr": "a2ba69fc499ebc7adcb88039d8fa92cf7098a9655dc936fa81afe062ff21f166",
    "tree.pr": "1e1f3f8af21ffa352d51604a27406b0c7d2752c2abbad418812fca0ce5a527db",
    "triangle.ft": "edc4b432b54e4a8537bf7941b7101247c05ae4685655307c201602476d269f91",
    "grid.ft": "a982e6a040c7f5970b8aa5b93afffc346afba16dfad3dfb22e61cb6d9bd77ade",
    "cover.ft": "614f0978a92cce41490539272035d9d64c8862d7623ddc31f6b2dcab2b89713a",
    "tree.ft": "ae73cfeaab216b5172821ad45272a9da064b580530bf04b3879f7795d07f05d9",
    "triangle.labels": "7cec61f52d74069332b110b43b4c1ddce014ca21e72c9347c55b43ff3ac38c9a",
    "triangle.nns": "ebb40f3ca42d5dfb43da099790ae3ba7662d0386ff850d6c772c5487d45902e7",
    "tree.labels": "cdd66898441f833533b2cd5c54f8f21de36364cdb931efba4563ec398af75309",
    "tree.nns": "8b469fd3c900467838197491fd6262e5669bf76bc5938d75851b1e09b15a2ae4",
    "grid.oracle": "2d2988a3b5350f36ba06be89a0a0705269f091a0a7e9917377266c723f983bb8",
    "grid100.family": "87015d0a50dd5ab85191349ef036439b7ca6c53eb0da86fb50b7070b1a9d79c4",
    "grid100.verify": "6b5ff9b48bbb58ac72ae8f11fe542dfad7f04ccba11fd4e574f1eb4dd5827ea0",
    "random.verify": "9fae5ecd0e3c011e3b24803218926df57b70da33bea1633a5ccf2e576499cca0",
    "triangle.oracle": "b1199dbf266be1f76de78698c362608329b5193b5a7ba4703d585f5adf99d6ef",
    "tree.spd": "1d2213a553ca18a7239f319dfbaa53c009cce07969c1979e1ac4a47165fd5d23",
}


def _plain(x):
    """Python values in place of numpy scalars, so digests hash values."""
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(v) for v in x)
    return x


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(_plain(part)).encode())
    return h.hexdigest()


def _family(fam):
    return _digest(json.dumps(fileio.family_to_json(fam), sort_keys=True))


def _report(rep):
    return _digest(rep.kind, rep.rho, rep.pairs_checked, rep.violations, rep.max_observed_stretch)


def _edges(sp):
    return sorted(sp.edges.items())


def _pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=count)
    v = (u + rng.integers(1, n, size=count)) % n
    return list(zip(u.tolist(), v.tolist()))


def _pr(sp):
    answers = [sp.query(u, v) for u, v in _pairs(sp.n, 200, 11)]
    return _digest(_edges(sp), answers, sp.all_pairs_weights())


def _ft(ft, seed):
    rng = np.random.default_rng(seed)
    parts = [_edges(ft)]
    for _ in range(3):
        faults = tuple(rng.choice(ft.n, size=ft.f, replace=False).tolist())
        alive = [p for p in range(ft.n) if p not in faults]
        idx = rng.choice(len(alive), size=(40, 2))
        pairs = [(alive[a], alive[b]) for a, b in idx]
        parts.append([ft.query(u, v, faults) for u, v in pairs])
        parts.extend(ft.residual_all_pairs_weights(faults))
    return _digest(*parts)


def _nns_answers(index, n, key, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    stored, rest = order[: n // 2], order[n // 2 :]
    for p in stored:
        index.insert(p)
    answers = [index.query(key(q)) for q in rest]
    for p in stored[::3]:
        index.delete(p)
    answers += [index.query(key(q)) for q in rest]
    return answers


def _oracle(oracle, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for L in (0.05, 0.2, 1.0):
        terminals = rng.choice(n, size=n // 2, replace=False).tolist()
        out.append(sorted(oracle(terminals, L)))
    return out


@pytest.fixture(scope="module")
def outputs():
    out = {}
    rng = np.random.default_rng(2024)

    ps = PointSet(rng.uniform(size=(40, 2)))
    metric = LpMetric(ps)
    tri = build_triangle_lso_verified(ps, 2, 4.0, 0.5, seed=5)
    out["triangle.family"] = _family(tri)
    out["triangle.verify"] = _report(verify_family(tri, metric))
    out["triangle.pr"] = _pr(pr_spanner_from_triangle(tri, metric))
    out["triangle.ft"] = _ft(ft_spanner_from_family(tri, metric, 2), 21)
    labels, hop = assign_triangle_labels(tri, metric)
    out["triangle.labels"] = _digest(
        hop.n, *[a for p in sorted(labels) for a in (labels[p].positions, labels[p].weights)]
    )
    out["triangle.nns"] = _digest(
        _nns_answers(TriangleNns(tri, labels, hop), ps.n, labels.__getitem__, 31)
    )
    out["triangle.oracle"] = _digest(
        [_oracle(spanner_oracle_triangle(tri, metric, hops), ps.n, 41) for hops in (2, 3, 4)]
    )

    sub = PointSet(ps.points[:24])
    sub_metric = LpMetric(sub)
    grid = build_classic_grid_lso(sub, 0.2, seed=3)
    out["grid.family"] = _family(grid.family)
    out["grid.verify"] = _digest(
        _report(verify_classic(grid.family, sub_metric, hint=grid.satisfying_ordering)),
        _report(verify_classic(grid.family, sub_metric)),
    )
    out["grid.pr"] = _pr(pr_spanner_from_classic(grid.family, sub_metric))
    out["grid.ft"] = _ft(ft_spanner_from_family(grid.family, sub_metric, 1), 22)
    out["grid.oracle"] = _digest(_oracle(spanner_oracle_classic(grid.family, sub_metric), sub.n, 42))

    # a grid large enough that the greedy path cover handles long paths
    # (tau = 454), and a random classic family that fails the verifier
    big = PointSet(np.random.default_rng(1).uniform(size=(100, 2)))
    big_grid = build_classic_grid_lso(big, 0.25, seed=1)
    out["grid100.family"] = _family(big_grid.family)
    out["grid100.verify"] = _report(
        verify_classic(big_grid.family, LpMetric(big), hint=big_grid.satisfying_ordering)
    )
    rand_rng = np.random.default_rng(7)
    rand_ps = PointSet(rand_rng.uniform(size=(40, 2)))
    rand = OrderingFamily(CLASSIC, [Ordering(rand_rng.permutation(40)) for _ in range(3)], rho=0.25)
    out["random.verify"] = _report(verify_classic(rand, LpMetric(rand_ps)))

    centers = rng.uniform(size=(3, 2))
    blobs = PointSet(centers[rng.integers(0, 3, size=30)] + rng.normal(scale=0.05, size=(30, 2)))
    blob_metric = LpMetric(blobs)
    cover = cover_preorder_to_triangle_lso(build_ultrametric_cover(blob_metric, t=8.0, seed=6))
    out["cover.family"] = _family(cover)
    out["cover.verify"] = _report(verify_family(cover, blob_metric))
    out["cover.ft"] = _ft(ft_spanner_from_family(cover, blob_metric, 2), 23)

    tree = WeightedGraph(60, [(int(rng.integers(0, v)), v, float(rng.integers(1, 6))) for v in range(1, 60)])
    tree_metric = shortest_path_metric(tree)
    rooted = build_rooted_lso_tree(tree)
    out["tree.family"] = _family(rooted)
    out["tree.verify"] = _report(verify_family(rooted, tree_metric))
    out["tree.pr"] = _pr(pr_spanner_from_rooted(rooted, tree_metric))
    out["tree.ft"] = _ft(ft_spanner_from_family(rooted, tree_metric, 2), 24)
    rlabels = assign_rooted_labels(rooted, tree_metric)
    out["tree.labels"] = _digest([(p, rlabels[p].entries) for p in sorted(rlabels)])
    out["tree.nns"] = _digest(
        _nns_answers(RootedNns(rooted, rlabels), tree.n, rlabels.__getitem__, 32)
    )
    spd_tree = WeightedGraph(30, [e for e in tree.edges if e[1] < 30])
    spd = spd_spanner(tree_heavy_path_spd(spd_tree), 0.5)
    out["tree.spd"] = _digest(_edges(spd), [spd.query(u, v) for u, v in _pairs(30, 200, 12)])
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(outputs, name):
    assert outputs[name] == GOLDEN[name]
