"""Module-boundary span recorder for the traced benchmark run.

The tracer wraps public lsorder functions and methods from outside, by
replacing module and class attributes, so no file under src/ carries any
instrumentation.  A name that a module re-imports (``lsorder.euclidean.
verify_triangle``) is a separate attribute and is wrapped where it is looked
up; every wrapper of one function records the span under the function's home
name (``orderings.verify_triangle``).

Each span records (id, name, start, end, parent id, operation id).  Spans
stay in memory, capped at MAX_SPANS, and are written out when the run ends.
Self time -- a span's duration minus the time its child spans cover -- and
call counts are accumulated per layer group as spans close, so they stay
exact when the raw span list is capped.
"""

import functools
import importlib
import json
import time

MAX_SPANS = 100_000


def _partitions(cover):
    return {"doubling.partitions": cover.tau}


# (module, attribute, layer group[, counter hook on the returned object])
# A group G yields the per-layer metrics G_s (self time) and G_calls.
TARGETS = [
    ("metrics", "LpMetric.matrix", "metrics.matrix"),
    ("metrics", "shortest_path_metric", "metrics.matrix"),
    ("metrics", "min_max_pairwise", "metrics.min_max_pairwise"),
    ("euclidean", "min_max_pairwise", "metrics.min_max_pairwise"),
    ("doubling", "min_max_pairwise", "metrics.min_max_pairwise"),
    ("spanners", "min_max_pairwise", "metrics.min_max_pairwise"),
    ("metrics", "build_epsilon_net", "metrics.net"),
    ("doubling", "build_epsilon_net", "metrics.net"),
    ("euclidean", "sample_scheme", "euclidean.sample_scheme"),
    ("euclidean", "build_triangle_lso", "euclidean.triangle_build"),
    ("euclidean", "build_triangle_lso_verified", "euclidean.triangle_build"),
    ("euclidean", "build_classic_grid_lso", "euclidean.grid_build"),
    ("orderings", "verify_triangle", "orderings.verify_triangle"),
    ("euclidean", "verify_triangle", "orderings.verify_triangle"),
    ("orderings", "window_diameter_table", "orderings.window_table"),
    ("orderings", "verify_classic", "orderings.verify_classic"),
    ("euclidean", "verify_classic", "orderings.verify_classic"),
    ("orderings", "verify_rooted", "orderings.verify_rooted"),
    ("orderings", "build_rooted_lso_tree", "orderings.rooted_build"),
    ("spanners", "build_rooted_lso_tree", "orderings.rooted_build"),
    ("doubling", "build_ultrametric_cover", "doubling.cover"),
    ("doubling", "cover_preorder_to_triangle_lso", "doubling.cover"),
    ("doubling", "build_padded_partition_cover", "doubling.padded_cover", _partitions),
    ("doubling", "carve_partition", "doubling.carve"),
    ("doubling", "laminarize", "doubling.laminarize"),
    ("doubling", "hierarchy_to_hst", "doubling.hst"),
    ("doubling", "HST.distance_matrix", "doubling.distance_matrix"),
    ("hopsets", "TwoHopPathSpanner.query", "hopsets.query"),
    ("hopsets", "FtTwoHopPathSpanner.query", "hopsets.query"),
    ("hopsets", "TwoHopPathSpanner.query_batch", "hopsets.query_batch"),
    ("hopsets", "FtTwoHopPathSpanner.query_batch", "hopsets.ft_query_batch"),
    ("hopsets", "FtTwoHopPathSpanner.__init__", "hopsets.ft_build"),
    ("nns", "assign_triangle_labels", "nns.labels"),
    ("nns", "assign_rooted_labels", "nns.labels"),
    ("nns", "build_lca_labels", "nns.labels"),
    ("nns", "TriangleNns.query", "nns.query"),
    ("nns", "RootedNns.query", "nns.query"),
    ("nns", "UltrametricNns.query", "nns.query"),
    ("nns", "TriangleNns.insert", "nns.update"),
    ("nns", "TriangleNns.delete", "nns.update"),
    ("nns", "RootedNns.insert", "nns.update"),
    ("nns", "RootedNns.delete", "nns.update"),
    ("nns", "UltrametricNns.insert", "nns.update"),
    ("nns", "UltrametricNns.delete", "nns.update"),
    ("spanners", "pr_spanner_from_triangle", "spanners.assembly"),
    ("spanners", "pr_spanner_from_rooted", "spanners.assembly"),
    ("spanners", "ft_spanner_from_family", "spanners.assembly"),
    ("spanners", "OrderingHopSpanner.query", "spanners.query"),
    ("spanners", "RootedHopSpanner.query", "spanners.query"),
    ("spanners", "FtOrderingSpanner.query", "spanners.query"),
    ("spanners", "TzSpanner.query", "spanners.query"),
    ("spanners", "SparseCoverSpanner.query", "spanners.query"),
    ("spanners", "SpdSpanner.query", "spanners.query"),
    ("spanners", "OrderingHopSpanner.all_pairs_weights", "spanners.all_pairs"),
    ("spanners", "RootedHopSpanner.all_pairs_weights", "spanners.all_pairs"),
    ("spanners", "FtOrderingSpanner.residual_all_pairs_weights", "spanners.residual"),
    ("spanners", "tree_heavy_path_spd", "spanners.spd"),
    ("spanners", "spd_spanner", "spanners.spd"),
    ("spanners", "tz_spanner", "spanners.tz"),
    ("spanners", "sparse_cover_spanner", "spanners.sparse_cover"),
    ("fileio", "write_points", "fileio.write"),
    ("fileio", "write_graph", "fileio.write"),
    ("fileio", "write_family", "fileio.write"),
    ("fileio", "write_cover", "fileio.write"),
    ("fileio", "read_points", "fileio.read"),
    ("fileio", "read_graph", "fileio.read"),
    ("fileio", "read_family", "fileio.read"),
    ("fileio", "read_cover", "fileio.read"),
]


def _resolve(module_name, attr):
    """(owner object, attribute name) for 'func' or 'Class.method'."""
    owner = importlib.import_module(f"lsorder.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _home_name(fn):
    return f"{fn.__module__.removeprefix('lsorder.')}.{fn.__qualname__}"


class Tracer:
    """Installs span-recording wrappers around TARGETS and restores them."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.ops = []
        self._op = -1
        self._next_id = 0
        self._stack = []
        self._saved = []
        self.paused = False  # set while the workload checks outputs
        self.reset_round()

    def reset_round(self):
        """Start fresh per-round aggregates (spans are kept)."""
        self.self_time = {}
        self.calls = {}
        self.counters = {}

    def operation(self, label):
        """Mark the start of a workload operation; later spans carry its id."""
        self.ops.append(label)
        self._op = len(self.ops) - 1

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, group, *hook in TARGETS:
            owner, name = _resolve(module_name, attr)
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, group, hook[0] if hook else None))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, group, hook):
        span_name = _home_name(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]  # span id, time covered by children
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.self_time[group] = self.self_time.get(group, 0.0) + duration - frame[1]
                self.calls[group] = self.calls.get(group, 0) + 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (frame[0], span_name, start, end, parent[0] if parent else None, self._op)
                    )
                else:
                    self.dropped += 1
            if hook is not None:
                for key, value in hook(result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return wrapper

    def group_metrics(self):
        """This round's G_s and G_calls for every group that ran."""
        out = {}
        for group, seconds in self.self_time.items():
            out[f"{group}_s"] = seconds
            out[f"{group}_calls"] = self.calls[group]
        out.update(self.counters)
        return out

    def write(self, path):
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "ops": self.ops,
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
