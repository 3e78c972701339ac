import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsorder import fileio
from lsorder.cli import STRUCTURES, load_metric, main, make_parser
from lsorder.euclidean import build_triangle_lso_verified
from lsorder.metrics import LpMetric, PointSet, WeightedGraph, shortest_path_metric
from lsorder.nns import TriangleNns, assign_triangle_labels
from lsorder.orderings import Ordering, OrderingFamily, build_rooted_lso_tree
from lsorder.spanners import ft_spanner_from_family, pr_spanner_from_triangle


def run_cli(argv, stdin=""):
    """The CLI in a child process that imports the lsorder these tests import."""
    src = str(Path(fileio.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lsorder.cli"] + argv,
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def test_gen_single_point(tmp_path):
    out = tmp_path / "pts.txt"
    assert main(["gen", "uniform-cube", "--n", "1", "--d", "3", "--out", str(out), "--seed", "1"]) == 0
    ps = fileio.read_points(out)
    assert ps.n == 1 and ps.dim == 3


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "random-tree", "--n", "5", "--out", str(a), "--seed", "1"])
    main(["gen", "random-tree", "--n", "5", "--out", str(b), "--seed", "1"])
    assert a.read_text() == b.read_text()


def test_gen_random_metric_triangle_inequality(tmp_path):
    out = tmp_path / "m.txt"
    main(["gen", "random-metric", "--n", "50", "--out", str(out), "--seed", "2"])
    g = fileio.read_graph(out)
    mat = shortest_path_metric(g).matrix()
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 50, size=(5000, 3))
    a, b, c = idx[:, 0], idx[:, 1], idx[:, 2]
    assert np.all(mat[a, b] <= mat[a, c] + mat[c, b] + 1e-9)
    assert np.all(mat[a, b] == mat[b, a])


def test_points_roundtrip(tmp_path):
    ps = PointSet(np.random.default_rng(1).uniform(size=(7, 2)))
    path = tmp_path / "p.txt"
    fileio.write_points(path, ps)
    back = fileio.read_points(path)
    assert np.array_equal(back.points, ps.points)


def test_graph_roundtrip_with_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n3 2\n0 1 1.5\n1 2 2.0\n")
    g = fileio.read_graph(path)
    assert g.n == 3 and len(g.edges) == 2


def test_tree_decomposition_roundtrip(tmp_path):
    from lsorder.orderings import TreeDecomposition

    td = TreeDecomposition([[0, 1], [1, 2]], [(0, 1)])
    path = tmp_path / "td.txt"
    fileio.write_tree_decomposition(path, td, 3)
    back = fileio.read_tree_decomposition(path)
    assert back.bags == [[0, 1], [1, 2]]
    assert back.tree_edges == [(0, 1)]


def test_family_roundtrip(tmp_path):
    fam = OrderingFamily(
        "rooted", [Ordering([2, 0, 1], root=2), Ordering([1, 0], root=1)], rho=1.0
    )
    path = tmp_path / "fam.json"
    fileio.write_family(path, fam)
    back = fileio.read_family(path)
    assert back.kind == "rooted"
    assert [o.perm for o in back.orderings] == [[2, 0, 1], [1, 0]]
    assert back.orderings[0].root == 2


def test_verify_pass_and_exit_codes(tmp_path):
    rng = np.random.default_rng(3)
    g = WeightedGraph(
        12, [(int(rng.integers(0, v)), v, float(rng.integers(1, 4))) for v in range(1, 12)]
    )
    gpath = tmp_path / "tree.txt"
    fileio.write_graph(gpath, g)
    fam = build_rooted_lso_tree(g)
    fpath = tmp_path / "fam.json"
    fileio.write_family(fpath, fam)
    rpath = tmp_path / "report.json"
    proc = run_cli(
        ["verify", "--input", str(gpath), "--family", str(fpath), "--out", str(rpath)]
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(rpath.read_text())
    assert report["pass"] is True
    assert report["violations"] == []
    # corrupt one ordering: swap two non-root members to break sortedness /
    # plant a violation
    doc = fileio.family_to_json(fam)
    doc["orderings"][0]["perm"] = list(reversed(doc["orderings"][0]["perm"]))
    doc["orderings"][0]["root"] = doc["orderings"][0]["perm"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc2 = run_cli(
        ["verify", "--input", str(gpath), "--family", str(bad), "--out", str(rpath)]
    )
    assert proc2.returncode == 1
    report2 = json.loads(rpath.read_text())
    assert report2["pass"] is False
    assert report2["violations"]


def test_verify_planted_violation_pair(tmp_path):
    # classic family on the line with one corrupted ordering: the planted
    # violating pair must appear in the violations list
    vals = [0.0, 1.0, 2.0, 50.0]
    ps = PointSet([[v] for v in vals])
    ppath = tmp_path / "pts.txt"
    fileio.write_points(ppath, ps)
    fam = OrderingFamily("classic", [Ordering([0, 3, 1, 2])], rho=0.3)
    fpath = tmp_path / "fam.json"
    fileio.write_family(fpath, fam)
    rpath = tmp_path / "rep.json"
    proc = run_cli(
        ["verify", "--input", str(ppath), "--family", str(fpath), "--out", str(rpath), "--p", "1"]
    )
    assert proc.returncode == 1
    report = json.loads(rpath.read_text())
    pairs = {(v[0], v[1]) for v in report["violations"]}
    # the far point sits inside the windows of (0,1) and (0,2)
    assert (0, 1) in pairs and (0, 2) in pairs


def test_verify_point_id_outside_range_is_structural(tmp_path):
    ps = PointSet([[0.0], [1.0], [2.0]])
    ppath = tmp_path / "pts.txt"
    fileio.write_points(ppath, ps)
    fam = OrderingFamily("triangle", [Ordering([0, 1, 2]), Ordering([0, 1, 3])], rho=2.0)
    fpath = tmp_path / "fam.json"
    fileio.write_family(fpath, fam)
    rpath = tmp_path / "rep.json"
    proc = run_cli(["verify", "--input", str(ppath), "--family", str(fpath), "--out", str(rpath)])
    assert proc.returncode == 1, proc.stderr
    report = json.loads(rpath.read_text())
    assert report["pass"] is False
    [(kind, message, _)] = report["violations"]
    assert kind == "structural"
    assert "ordering 1 holds point id 3" in message


def test_nns_subcommand(tmp_path):
    rng = np.random.default_rng(4)
    g = WeightedGraph(
        10, [(int(rng.integers(0, v)), v, float(rng.integers(1, 4))) for v in range(1, 10)]
    )
    gpath = tmp_path / "tree.txt"
    fileio.write_graph(gpath, g)
    fam = build_rooted_lso_tree(g)
    fpath = tmp_path / "fam.json"
    fileio.write_family(fpath, fam)
    proc = run_cli(
        ["nns", "--input", str(gpath), "--family", str(fpath)],
        stdin="i 0\ni 3\nq 5\n",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "ok" and lines[1] == "ok"
    mat = shortest_path_metric(g).matrix()
    ans = int(lines[2].split()[0])
    assert float(lines[2].split()[1]) >= mat[5, ans] - 1e-9
    assert mat[5, ans] == min(mat[5, 0], mat[5, 3])


def test_nns_subcommand_triangle(tmp_path):
    rng = np.random.default_rng(6)
    n = 24
    ppath = tmp_path / "pts.txt"
    fileio.write_points(ppath, PointSet(rng.uniform(size=(n, 2))))
    fam = build_triangle_lso_verified(fileio.read_points(ppath), 2, 4.0, 0.5, seed=7)
    fpath = tmp_path / "fam.json"
    fileio.write_family(fpath, fam)
    argv = ["nns", "--input", str(ppath), "--family", str(fpath)]
    ops = []
    for step in range(120):
        pid = int(rng.integers(0, n))
        ops.append(("d" if step % 4 == 3 else "q" if step % 2 else "i", pid))
    proc = run_cli(argv, stdin="".join(f"{op} {pid}\n" for op, pid in ops))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == len(ops)
    metric, _, _ = load_metric(make_parser().parse_args(argv))
    labels, hop = assign_triangle_labels(fileio.read_family(fpath), metric)
    index = TriangleNns(fam, labels, hop)
    for (op, pid), line in zip(ops, lines):
        if op == "q":
            ans, est = index.query(labels[pid])
            assert line == f"{ans} {est!r}"
        else:
            (index.insert if op == "i" else index.delete)(pid)
            assert line == "ok"


def test_path_and_nns_reject_a_family_over_other_points(tmp_path):
    rng = np.random.default_rng(8)
    ppath = tmp_path / "pts.txt"
    fileio.write_points(ppath, PointSet(rng.uniform(size=(96, 2))))
    fam = OrderingFamily("triangle", [Ordering(rng.permutation(48)) for _ in range(2)], rho=2.0)
    fpath = tmp_path / "fam.json"
    fileio.write_family(fpath, fam)
    for argv, stdin in ((["path", "--f", "1"], "p 50 90\n"), (["nns"], "i 50\nq 90\n")):
        proc = run_cli(argv + ["--input", str(ppath), "--family", str(fpath)], stdin=stdin)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"{fpath}: ordering 0 covers 48 of 96 points; triangle orderings must cover all points\n"


def test_path_subcommand_with_faults(tmp_path):
    rng = np.random.default_rng(5)
    g = WeightedGraph(
        10, [(int(rng.integers(0, v)), v, float(rng.integers(1, 4))) for v in range(1, 10)]
    )
    gpath = tmp_path / "tree.txt"
    fileio.write_graph(gpath, g)
    fam = build_rooted_lso_tree(g)
    fpath = tmp_path / "fam.json"
    fileio.write_family(fpath, fam)
    proc = run_cli(
        ["path", "--input", str(gpath), "--family", str(fpath), "--f", "1"],
        stdin="p 0 9\np 0 9 4\n",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    path2 = [int(t) for t in lines[1].split("|")[0].split()]
    assert 4 not in path2


def test_unread_flags_and_bench_rejected(tmp_path, capsys):
    rpath = tmp_path / "r.json"
    fileio.write_report(rpath, fileio.make_report(structure="x", violations=[]))
    for argv in (
        ["report", "--input", str(rpath), "--t", "9"],
        ["gen", "grid", "--f", "1", "--out", str(tmp_path / "g.txt")],
        ["bench"],
        ["build", "--n", "8"],
        ["build", "--structure", "no-such-structure"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --t 9" in err
    assert "unrecognized arguments: --f 1" in err
    assert "invalid choice: 'bench'" in err
    assert "the following arguments are required: --structure" in err


def test_missing_input_flags_exit_2(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    fileio.write_points(pts, PointSet([[0.0], [1.0], [3.0]]))
    graph = tmp_path / "g.txt"
    fileio.write_graph(graph, WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    out = str(tmp_path / "out.json")
    cases = [
        (["verify", "--family", out], "the following arguments are required: --input"),
        (["nns", "--family", out], "the following arguments are required: --input"),
        (["path", "--family", out], "the following arguments are required: --input"),
        (["report"], "the following arguments are required: --input"),
        (["gen", "grid", "--n", "4"], "the following arguments are required: --out"),
        (["build", "--structure", "two-hop", "--n", "4"],
         "the following arguments are required: --out"),
        (["build", "--structure", "rooted-treewidth", "--input", str(graph), "--out", out],
         "--structure rooted-treewidth needs --td"),
    ] + [
        (["build", "--structure", s, "--out", out], f"--structure {s} needs --input")
        for s in STRUCTURES
        if s not in ("two-hop", "ft-two-hop")
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_path_subcommand_triangle_faults_match_in_process(tmp_path):
    rng = np.random.default_rng(12)
    pts = tmp_path / "pts.txt"
    fileio.write_points(pts, PointSet(rng.uniform(size=(24, 2))))
    fpath = tmp_path / "fam.json"
    fileio.write_family(
        fpath, build_triangle_lso_verified(fileio.read_points(pts), p=2, t=4.0, delta=0.5, seed=3)
    )
    metric = LpMetric(fileio.read_points(pts))
    fam = fileio.read_family(fpath)
    sp = pr_spanner_from_triangle(fam, metric)
    ft = ft_spanner_from_family(fam, metric, 2)
    lines, answers = ["p 5 5"], [sp.query(5, 5)]
    for _ in range(30):
        u, v, a, b = (int(x) for x in rng.choice(24, size=4, replace=False))
        lines += [f"p {u} {v}", f"p {u} {v} {a} {b}", f"p {v} {u} {a}"]
        answers += [sp.query(u, v), ft.query(u, v, [a, b]), ft.query(v, u, [a])]
    proc = run_cli(
        ["path", "--input", str(pts), "--family", str(fpath), "--f", "2"],
        stdin="\n".join(lines) + "\n",
    )
    assert proc.returncode == 0, proc.stderr
    expected = [" ".join(str(x) for x in path) + f" | {float(w)!r}" for path, w in answers]
    assert proc.stdout.splitlines() == expected


def test_report_subcommand(tmp_path):
    rpath = tmp_path / "r.json"
    fileio.write_report(
        rpath,
        fileio.make_report(
            structure="x", verified_pairs=1, violations=[], max_observed_stretch=1.0
        ),
    )
    proc = run_cli(["report", "--input", str(rpath)])
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_spanner_roundtrip(tmp_path):
    from lsorder.spanners import pr_spanner_from_rooted

    g = WeightedGraph(6, [(0, i, 1.0) for i in range(1, 6)])
    fam = build_rooted_lso_tree(g)
    sp = pr_spanner_from_rooted(fam, shortest_path_metric(g))
    path = tmp_path / "sp.json"
    fileio.write_spanner(path, sp)
    stretch, hops, edges = fileio.read_spanner_edges(path)
    assert stretch == sp.stretch and hops == 2
    assert len(edges) == sp.num_edges()


def test_cover_roundtrip(tmp_path):
    from lsorder.doubling import build_ultrametric_cover

    ps = PointSet(np.random.default_rng(6).uniform(size=(20, 2)))
    cover = build_ultrametric_cover(LpMetric(ps), t=4, seed=7)
    path = tmp_path / "cover.json"
    fileio.write_cover(path, cover)
    back = fileio.read_cover(path)
    assert back.rho == cover.rho
    assert len(back.hsts) == len(cover.hsts)
    assert np.allclose(back.min_distance_matrix(), cover.min_distance_matrix())


def _metric_args(path, *extra):
    return make_parser().parse_args(["verify", "--input", str(path), "--family", "-", *extra])


def test_integer_point_file_is_not_a_graph(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("# four integer points\n0 0\n1 0\n0 1\n3 4\n")
    metric, g, ps = load_metric(_metric_args(pts))
    assert g is None and ps.n == 4
    assert metric.dist(0, 3) == 5.0
    graph = tmp_path / "g.txt"
    graph.write_text("3 2\n0 1 1\n1 2 2\n")
    metric, g, ps = load_metric(_metric_args(graph))
    assert ps is None and g.n == 3
    assert metric.dist(0, 2) == 3.0
    single = tmp_path / "single.txt"
    single.write_text("1 0\n")
    _, g, ps = load_metric(_metric_args(single))
    assert ps is None and g.n == 1


def test_p_flag_passes_through(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0 0.0\n1.0 0.0\n0.0 1.0\n3.0 4.0\n")
    metric, _, _ = load_metric(_metric_args(pts, "--p", "inf"))
    assert metric.p == math.inf and metric.dist(0, 3) == 4.0
    with pytest.raises(ValueError, match="p must be >= 1 or inf"):
        load_metric(_metric_args(pts, "--p", "0"))
    with pytest.raises(ValueError, match="p must be >= 1 or inf"):
        main(["build", "--structure", "triangle-lso", "--input", str(pts), "--p", "0",
              "--out", str(tmp_path / "fam.json")])
