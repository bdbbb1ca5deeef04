"""Property-based tests for the prefix tree (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core import PrefixTree

token = st.integers(min_value=0, max_value=4)
sequence = st.lists(token, min_size=1, max_size=16).map(tuple)
target = st.sampled_from(["a", "b", "c", "d"])
insertion = st.tuples(sequence, target)


@given(st.lists(insertion, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_structural_invariants_always_hold(insertions):
    tree = PrefixTree()
    for tokens, tgt in insertions:
        tree.insert(tokens, tgt)
        tree.check_invariants()


@given(st.lists(insertion, min_size=1, max_size=40), sequence)
@settings(max_examples=60, deadline=None)
def test_best_target_never_overstates_the_match(insertions, probe):
    tree = PrefixTree()
    for tokens, tgt in insertions:
        tree.insert(tokens, tgt)
    targets = {tgt for _, tgt in insertions}
    match = tree.best_target(probe, available=targets)
    # Ground truth: the longest common prefix between the probe and any
    # sequence inserted for the matched target.
    if match.target is None:
        return
    best_true = 0
    for tokens, tgt in insertions:
        if tgt != match.target:
            continue
        common = 0
        for a, b in zip(tokens, probe):
            if a != b:
                break
            common += 1
        best_true = max(best_true, common)
    assert best_true >= match.matched_tokens


@given(st.lists(insertion, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_inserted_sequence_is_found_for_its_own_target(insertions):
    tree = PrefixTree()
    for tokens, tgt in insertions:
        tree.insert(tokens, tgt)
    for tokens, tgt in insertions:
        assert tree.match_length(tokens, target=tgt) == len(tokens)


@given(st.lists(insertion, min_size=1, max_size=60), st.integers(min_value=4, max_value=32))
@settings(max_examples=40, deadline=None)
def test_capacity_bound_is_respected(insertions, capacity):
    tree = PrefixTree(max_tokens=capacity)
    for tokens, tgt in insertions:
        tree.insert(tokens, tgt)
        assert tree.total_tokens <= capacity
        tree.check_invariants()


#: One random churn step: insert a sequence, shrink capacity (forces heap
#: eviction), or decommission a target.
churn_op = st.one_of(
    st.tuples(st.just("insert"), sequence, target),
    st.tuples(st.just("evict"), st.integers(min_value=4, max_value=48), st.none()),
    st.tuples(st.just("remove"), st.none(), target),
)


@given(st.lists(churn_op, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_node_count_and_tokens_survive_random_churn(ops):
    tree = PrefixTree()
    for op, payload, tgt in ops:
        if op == "insert":
            tree.insert(payload, tgt)
        elif op == "evict":
            tree.max_tokens = payload
            tree.insert((0,), "a")  # trigger capacity enforcement
        else:
            tree.remove_target(tgt)
        # check_invariants recounts tokens and nodes against the running
        # totals and verifies every leaf is visible to the eviction heap.
        tree.check_invariants()
        recounted = sum(1 for node in tree._iter_nodes() if node.parent is not None)
        assert tree.node_count == len(tree) == recounted
        assert tree.total_tokens <= tree.max_tokens


@given(st.lists(insertion, min_size=1, max_size=40), target)
@settings(max_examples=40, deadline=None)
def test_removed_target_is_never_returned(insertions, removed):
    tree = PrefixTree()
    for tokens, tgt in insertions:
        tree.insert(tokens, tgt)
    tree.remove_target(removed)
    for tokens, _ in insertions:
        match = tree.best_target(tokens, available=[removed])
        assert match.target is None
    tree.check_invariants()


# ----------------------------------------------------------------------
# whole-edge lookups against a token-by-token reference
# ----------------------------------------------------------------------
def _scalar_overlap(key, tokens, idx):
    overlap = 0
    while overlap < min(len(key), len(tokens) - idx) and key[overlap] == tokens[idx + overlap]:
        overlap += 1
    return overlap


def reference_best_target(tree, tokens, available):
    """``best_target`` walked one token at a time: ``(target, matched)``."""
    best, matched = None, 0
    node, idx = tree.root, 0
    while idx < len(tokens):
        child = node.children.get(tokens[idx])
        if child is None:
            break
        overlap = _scalar_overlap(child.key, tokens, idx)
        candidates = [(seq, tgt) for tgt, seq in child.targets.items() if tgt in available]
        if not candidates:
            break
        best, matched = max(candidates)[1], idx + overlap
        if overlap < len(child.key):
            break
        node, idx = child, idx + overlap
    return best, matched


def reference_match_length(tree, tokens, target=None):
    """``match_length`` walked one token at a time."""
    node, idx = tree.root, 0
    while idx < len(tokens):
        child = node.children.get(tokens[idx])
        if child is None:
            break
        if target is not None and target not in child.targets:
            break
        overlap = _scalar_overlap(child.key, tokens, idx)
        idx += overlap
        if overlap < len(child.key):
            break
        node = child
    return idx


def _edges_along(tree, tokens):
    """``(start, end)`` token offsets of the edges ``tokens`` fully walks."""
    edges, node, idx = [], tree.root, 0
    while idx < len(tokens):
        child = node.children.get(tokens[idx])
        if child is None or tuple(tokens[idx : idx + len(child.key)]) != child.key:
            break
        edges.append((idx, idx + len(child.key)))
        node, idx = child, idx + len(child.key)
    return edges


#: How a probe is cut from an inserted path, relative to one of its edges.
PROBE_SHAPES = ("whole", "mid-edge", "edge-end", "diverge-first", "diverge-last", "extended")


@given(
    st.lists(insertion, min_size=1, max_size=30),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_whole_edge_lookups_equal_the_scalar_walk(insertions, data):
    tree = PrefixTree()
    for tokens, tgt in insertions:
        tree.insert(tokens, tgt)
    base = data.draw(st.sampled_from([tokens for tokens, _ in insertions]))
    edges = _edges_along(tree, base)
    start, end = data.draw(st.sampled_from(edges))
    shape = data.draw(st.sampled_from(PROBE_SHAPES))
    if shape == "whole":
        probe = base
    elif shape == "mid-edge":
        probe = base[: data.draw(st.integers(start + 1, end))]
    elif shape == "edge-end":
        probe = base[:end]
    elif shape in ("diverge-first", "diverge-last"):
        at = start if shape == "diverge-first" else end - 1
        probe = base[:at] + ((base[at] + 1) % 5,) + base[at + 1 :]
    else:
        probe = base[:end] + tuple(data.draw(st.lists(token, min_size=1, max_size=6)))
    available = data.draw(st.sets(target, min_size=1))
    for tokens in (probe, list(probe)):
        match = tree.best_target(tokens, available)
        expected = reference_best_target(tree, probe, available)
        assert (match.target, match.matched_tokens) == expected
        assert match.prompt_tokens == len(probe)
        for tgt in (None, "a", "b", "c", "d"):
            assert tree.match_length(tokens, tgt) == reference_match_length(tree, probe, tgt)
