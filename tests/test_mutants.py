"""Mutant ledger: each case breaks one core rule on purpose and asserts that
an existing property check then fails.  A check that still passes under its
mutant cannot see that rule break, so a surviving mutant here is a finding
that needs a sharper check, not a weaker mutant."""

import pytest

import test_hopsets
import test_nns
import test_spanners
from lsorder import hopsets, nns

middle_blocks = hopsets.middle_blocks
level_midpoint = hopsets.level_midpoint


def blocks_one_level_up(n, f, m):
    """Each level's blocks read one level up: level 1 drops out and a level
    above the top comes in."""
    return middle_blocks(n, f, m + 1)


def blocks_one_level_down(n, f, m):
    """Each level's blocks read one level down: the top level drops out."""
    return middle_blocks(n, f, m - 1) if m > 1 else middle_blocks(0, f, 1)


def blocks_without_last_position(n, f, m):
    """Each middle block without its last position, mid + f/2."""
    v, b = middle_blocks(n, f, m)
    keep = b != level_midpoint(v, m) + f // 2
    return v[keep], b[keep]


def labels_one_level_up(pos, m):
    return level_midpoint(pos, m + 1)


def labels_one_level_down(pos, m):
    return level_midpoint(pos, m - 1) if m > 1 else pos


def test_two_hop_edges_one_level_down_break_reported_paths(monkeypatch):
    """The PR spanner reports a path with an edge it never added."""
    monkeypatch.setattr(hopsets, "middle_blocks", blocks_one_level_down)
    with pytest.raises(AssertionError, match="missing from the spanner"):
        test_spanners.test_classic_spanner_sorted_reals()


def test_two_hop_edges_one_level_up_break_the_edge_set(monkeypatch):
    """A level-1 edge {x, x+1} (x odd) is also x's edge to x+1 as the
    midpoint of a higher level, so this mutant drops no edge a query needs
    and the path check passes; it adds edges to position n_padded when n is
    a power of two, and only the exact edge set sees that."""
    monkeypatch.setattr(hopsets, "middle_blocks", blocks_one_level_up)
    test_spanners.test_classic_spanner_sorted_reals()
    with pytest.raises(AssertionError):
        test_hopsets.test_two_hop_edge_arrays_match_edges_of()


def test_ft_block_without_last_position_breaks_reported_paths(monkeypatch):
    """Under faults at the budget the FT hop query answers a midpoint that
    the structure no longer joins."""
    monkeypatch.setattr(hopsets, "middle_blocks", blocks_without_last_position)
    with pytest.raises(AssertionError):
        test_hopsets.test_ft_query_exhaustive_small()


@pytest.mark.parametrize("mutant", [labels_one_level_up, labels_one_level_down])
def test_triangle_label_at_wrong_level_breaks_nns_answers(monkeypatch, mutant):
    """TriangleNns answers differ from the scalar reference, which reads
    each midpoint's weight from edges_of."""
    monkeypatch.setattr(nns, "level_midpoint", mutant)
    with pytest.raises(AssertionError):
        test_nns.test_triangle_nns_matches_scalar_reference(16, 2)
