"""Unit tests for the load balancer's prefix tree (regional snapshots)."""

import pytest

from repro.core import PrefixTree


def seq(*values):
    return tuple(values)


def test_empty_tree_has_no_target():
    tree = PrefixTree()
    match = tree.best_target(seq(1, 2, 3), available=["a", "b"])
    assert match.target is None
    assert match.matched_tokens == 0
    assert match.hit_ratio == 0.0


def test_insert_then_best_target_returns_longest_match():
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3, 4), "replica-a")
    tree.insert(seq(1, 2, 9, 9), "replica-b")
    match = tree.best_target(seq(1, 2, 3, 4, 5), available=["replica-a", "replica-b"])
    assert match.target == "replica-a"
    assert match.matched_tokens == 4
    assert match.hit_ratio == pytest.approx(4 / 5)


def test_unavailable_targets_are_ignored():
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3, 4), "replica-a")
    tree.insert(seq(1, 2), "replica-b")
    match = tree.best_target(seq(1, 2, 3, 4), available=["replica-b"])
    assert match.target == "replica-b"
    assert match.matched_tokens == 2


def test_traversal_terminates_when_no_available_target_remains():
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3, 4, 5, 6), "replica-a")
    match = tree.best_target(seq(1, 2, 3, 4, 5, 6), available=["replica-z"])
    assert match.target is None
    assert match.matched_tokens == 0


def test_child_targets_are_subsets_of_parents():
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3, 4), "a")
    tree.insert(seq(1, 2, 3, 4, 5, 6), "b")
    tree.insert(seq(1, 2, 7), "c")
    tree.check_invariants()


def test_match_length_per_target():
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3, 4), "a")
    tree.insert(seq(1, 2), "b")
    assert tree.match_length(seq(1, 2, 3, 4)) == 4
    assert tree.match_length(seq(1, 2, 3, 4), target="b") == 2
    assert tree.match_length(seq(9, 9)) == 0


def test_capacity_evicts_earliest_inserted_paths_first():
    tree = PrefixTree(max_tokens=8)
    tree.insert(seq(1, 2, 3, 4), "a")      # oldest
    tree.insert(seq(10, 20, 30, 40), "b")  # fills capacity
    tree.insert(seq(100, 200, 300, 400), "c")  # forces eviction of the oldest
    assert tree.total_tokens <= 8
    # The earliest inserted path was evicted; the newest is present.
    assert tree.best_target(seq(100, 200, 300, 400), available=["a", "b", "c"]).target == "c"
    assert tree.best_target(seq(1, 2, 3, 4), available=["a"]).target is None
    tree.check_invariants()


def test_remove_target_erases_every_reference():
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3), "a")
    tree.insert(seq(1, 2, 3), "b")
    tree.remove_target("a")
    match = tree.best_target(seq(1, 2, 3), available=["a", "b"])
    assert match.target == "b"
    assert tree.best_target(seq(1, 2, 3), available=["a"]).target is None
    tree.check_invariants()


def test_remove_only_target_prunes_nodes():
    tree = PrefixTree()
    tree.insert(seq(5, 6, 7, 8), "solo")
    assert tree.total_tokens == 4
    tree.remove_target("solo")
    assert tree.total_tokens == 0


def test_zero_length_prompt():
    tree = PrefixTree()
    tree.insert(seq(1, 2), "a")
    match = tree.best_target(seq(), available=["a"])
    assert match.matched_tokens == 0
    assert match.prompt_tokens == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        PrefixTree(max_tokens=0)


def test_tie_break_prefers_most_recent_insert_not_repr_order():
    """Regression for the old ``min(reachable, key=repr)`` tie-break.

    Two targets recorded for the *same* prompt tie on match length; the
    documented rule picks the one recorded by the most recent insert.  The
    old rule compared ``repr`` strings, which ordered "r10" before "r9"
    lexicographically and ignored recency entirely.
    """
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3, 4), "r10")
    tree.insert(seq(1, 2, 3, 4), "r9")  # most recent insert for this path
    match = tree.best_target(seq(1, 2, 3, 4), available={"r9", "r10"})
    assert match.target == "r9"
    # Re-inserting for r10 flips the preference: recency decides, not repr.
    tree.insert(seq(1, 2, 3, 4), "r10")
    assert tree.best_target(seq(1, 2, 3, 4), available={"r9", "r10"}).target == "r10"
    # The rule is applied per node: an unavailable newer target never masks
    # an older available one.
    assert tree.best_target(seq(1, 2, 3, 4), available={"r9"}).target == "r9"


def test_node_count_tracks_structure():
    tree = PrefixTree()
    assert len(tree) == 0
    tree.insert(seq(1, 2, 3, 4), "a")
    assert len(tree) == 1
    tree.insert(seq(1, 2, 9), "b")  # splits (1,2,3,4) and adds a sibling
    assert len(tree) == 3
    tree.remove_target("b")
    tree.remove_target("a")
    assert len(tree) == 0
    tree.check_invariants()


def test_shared_prefix_tracks_both_targets():
    tree = PrefixTree()
    tree.insert(seq(1, 2, 3, 4), "a")
    tree.insert(seq(1, 2, 3, 9), "b")
    # Both targets are recorded on the shared (1,2,3) prefix.
    match_a = tree.best_target(seq(1, 2, 3), available=["a"])
    match_b = tree.best_target(seq(1, 2, 3), available=["b"])
    assert match_a.target == "a" and match_a.matched_tokens == 3
    assert match_b.target == "b" and match_b.matched_tokens == 3
