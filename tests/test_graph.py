"""Graph primitives: reach sets, redundant paths, covers, components and
disjoint paths.

Oracles here are independent brute-force implementations kept deliberately
dumb: walk enumeration with split checking for redundant paths, recursive
branch-and-bound for disjoint path packing, and direct definition scans.
"""

import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcons import (BudgetError, DiGraph, GraphFormatError,
                       InvalidArgumentError, RedundantPath, all_digraphs,
                       count_disjoint_paths, count_redundant_paths,
                       enumerate_redundant_paths, format_edge_list,
                       has_f_cover, is_redundant_path, make_redundant_path,
                       parse_edge_list, propagates, reach_set,
                       random_digraph, source_component, two_cliques)
from reachcons.graph import (count_simple_paths, enumerate_simple_paths,
                             mask_of, set_of)


def random_graph(rng, n, p=0.5):
    edges = frozenset((u, v) for u, v in permutations(range(n), 2)
                      if rng.random() < p)
    return DiGraph(n, edges)


K3 = DiGraph(3, frozenset(permutations(range(3), 2)))
K4 = DiGraph(4, frozenset(permutations(range(4), 2)))
CHAIN = DiGraph(3, frozenset({(0, 1), (1, 2)}))


# ---------------------------------------------------------------------------
# Masks and construction


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mask_set_round_trip(nodes):
    assert set_of(mask_of(nodes)) == frozenset(nodes)


def test_digraph_rejects_bad_edges():
    with pytest.raises(InvalidArgumentError):
        DiGraph(2, frozenset({(0, 0)}))
    with pytest.raises(InvalidArgumentError):
        DiGraph(2, frozenset({(0, 5)}))
    with pytest.raises(InvalidArgumentError):
        DiGraph(-1, frozenset())


def test_neighbor_views():
    g = CHAIN
    assert g.out_neighbors(0) == (1,)
    assert g.in_neighbors(2) == (1,)
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)


# ---------------------------------------------------------------------------
# Edge-list format


def test_edge_list_round_trip():
    text = format_edge_list(K4)
    assert text.splitlines()[0] == "n 4"
    g = parse_edge_list(text)
    assert g == K4


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# comment\nn 2\n0 1\n")
    assert g.edges == frozenset({(0, 1)})
    for bad in ("", "m 2\n", "n x\n", "n 2\n0\n", "n 2\n0 a\n",
                "n 2\n0 5\n"):
        with pytest.raises(GraphFormatError):
            parse_edge_list(bad)


# ---------------------------------------------------------------------------
# Reach sets


def test_reach_set_chain():
    assert reach_set(CHAIN, 2, frozenset()) == {0, 1, 2}
    assert reach_set(CHAIN, 0, frozenset()) == {0}
    assert reach_set(CHAIN, 2, frozenset({1})) == {2}
    with pytest.raises(InvalidArgumentError):
        reach_set(CHAIN, 1, frozenset({1}))


def _reach_oracle(g, v, F):
    members = {v}
    changed = True
    while changed:
        changed = False
        for u, w in g.edges:
            if u in F or w not in members or u in members:
                continue
            members.add(u)
            changed = True
    return frozenset(members)


def test_reach_set_matches_oracle_on_random_graphs():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 6))
        F = frozenset(rng.sample(range(g.n), rng.randrange(0, g.n)))
        for v in range(g.n):
            if v in F:
                continue
            assert reach_set(g, v, F) == _reach_oracle(g, v, F)


# ---------------------------------------------------------------------------
# Redundant paths


def _splits_into_two_simple(g, seq):
    """Definition-level check: some split yields two simple segments."""
    if not seq or any(not 0 <= v < g.n for v in seq):
        return False
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            return False
    for i in range(len(seq)):
        first, second = seq[:i + 1], seq[i:]
        if (len(set(first)) == len(first)
                and len(set(second)) == len(second)):
            return True
    return False


def _all_redundant_walks(g, v):
    """Every redundant node sequence ending at v, by exhaustive extension."""
    out = set()
    frontier = [(s,) for s in range(g.n)]
    while frontier:
        nxt = []
        for seq in frontier:
            if _splits_into_two_simple(g, seq):
                if seq[-1] == v:
                    out.add(seq)
                if len(seq) < 2 * g.n:
                    nxt.extend(seq + (w,) for w in range(g.n)
                               if g.has_edge(seq[-1], w))
        frontier = nxt
    return out


def test_redundant_paths_match_walk_oracle():
    rng = random.Random(7)
    graphs = [K3, CHAIN] + [random_graph(rng, 4, 0.6) for _ in range(6)]
    for g in graphs:
        for v in range(g.n):
            got = {p.nodes for p in
                   enumerate_redundant_paths(g, frozenset(), v)}
            assert got == _all_redundant_walks(g, v)


def test_redundant_path_examples():
    # Simple paths, the single-node path, and a two-segment cycle walk.
    assert is_redundant_path(K3, (0,))
    assert is_redundant_path(K3, (0, 1, 2))
    assert is_redundant_path(K3, (0, 1, 0))
    assert is_redundant_path(K3, (2, 0, 1, 0))
    # Revisits inside the second segment are not allowed.
    assert not is_redundant_path(K3, (0, 1, 0, 1))
    assert not is_redundant_path(K3, (0, 1, 2, 0, 1, 2, 0))
    # Non-edges and empty sequences fail.
    assert not is_redundant_path(CHAIN, (1, 0))
    assert not is_redundant_path(CHAIN, ())


def test_make_redundant_path_split_is_canonical():
    p = make_redundant_path(K3, (0, 1, 2))
    assert p.split == 2  # maximal simple prefix is the whole walk
    q = make_redundant_path(K3, (2, 0, 1, 0))
    assert q.split == 2  # prefix (2, 0, 1), second segment (1, 0)
    assert len(q) == 4
    with pytest.raises(InvalidArgumentError):
        make_redundant_path(CHAIN, (2, 1))


def test_redundant_exclusion_drops_paths_through_excluded_nodes():
    paths = enumerate_redundant_paths(K4, frozenset({3}), 0)
    assert all(3 not in p.nodes for p in paths)
    assert (0,) in {p.nodes for p in paths}


def test_enumeration_cap():
    big = DiGraph(13, frozenset())
    with pytest.raises(BudgetError):
        enumerate_redundant_paths(big, frozenset(), 0)
    with pytest.raises(InvalidArgumentError):
        enumerate_redundant_paths(K3, frozenset({0}), 0)


def test_count_agrees_with_enumeration():
    rng = random.Random(13)
    graphs = [K3, K4] + [random_graph(rng, rng.randrange(2, 6))
                         for _ in range(20)]
    for g in graphs:
        for excluded in (frozenset(), frozenset({0})):
            counts = count_redundant_paths(g, excluded)
            for v in range(g.n):
                if v in excluded:
                    continue
                paths = enumerate_redundant_paths(g, excluded, v)
                assert counts[v] == len(paths)


def test_k3_redundant_path_count_frozen():
    # All 17 redundant walks ending at node 0 of the 3-clique: <0>, two
    # one-hop, four two-hop, and the ten longer two-segment walks, frozen
    # from the independent walk oracle.
    counts = count_redundant_paths(K3, frozenset())
    assert counts == {0: 17, 1: 17, 2: 17}
    assert len(_all_redundant_walks(K3, 0)) == 17


def test_two_cliques_redundant_path_counts_pinned():
    counts = count_redundant_paths(two_cliques(7, 8, seed=11), frozenset())
    a, b, c = 12750480401321, 12503578813454, 11304004166283
    assert counts == {0: a, 1: a, 2: a, 3: b, 4: b, 5: c, 6: b, 7: b, 8: a,
                      9: b, 10: a, 11: a, 12: b, 13: c}
    assert sum(counts.values()) == 174_132_363_621_216


def test_clique_redundant_path_counts_pinned_for_every_excluded_mask():
    # On a clique the count per terminal depends only on how many nodes
    # remain: 724 = 4 * 181 paths on K4 and 16,005 = 5 * 3201 on K5.
    per_terminal = {1: 1, 2: 3, 3: 17, 4: 181, 5: 3201}
    for n in (4, 5):
        g = DiGraph(n, frozenset(permutations(range(n), 2)))
        for excluded in range(1 << n):
            rest = [v for v in range(n) if not excluded >> v & 1]
            expected = {v: per_terminal[len(rest)] for v in rest}
            assert count_redundant_paths(g, excluded) == expected


def test_random_redundant_path_counts_pinned_for_every_excluded_mask():
    h = hashlib.sha256()
    for seed in range(4):
        g = random_digraph(7, 0.7, seed)
        for excluded in range(1 << g.n):
            counts = count_redundant_paths(g, excluded)
            h.update(repr(sorted(counts.items())).encode())
    assert h.hexdigest() == (
        "e99e0a4adb053160c1337a3aeb7490c5f9d7eef1f6b918f8997a8040b0b3569e")


# ---------------------------------------------------------------------------
# Simple paths


def test_simple_path_count_on_cliques():
    # In a clique, (c,v)-paths choose and order intermediates freely.
    def expected(n):
        total = 0
        for j in range(n - 1):
            perm = 1
            for i in range(j):
                perm *= (n - 2 - i)
            total += perm
        return total

    for n in range(2, 6):
        g = DiGraph(n, frozenset(permutations(range(n), 2)))
        assert count_simple_paths(g, 0, n - 1, g.full_mask) == expected(n)


def test_simple_path_enumeration_matches_count():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 6))
        within = mask_of(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        for c in range(g.n):
            for v in range(g.n):
                if c == v:
                    continue
                paths = enumerate_simple_paths(g, c, v, within)
                assert len(paths) == len(set(paths))
                assert count_simple_paths(g, c, v, within) == len(paths)
                for p in paths:
                    assert mask_of(p) & ~within == 0


def _simple_paths_oracle(g, within):
    """Every node sequence with distinct nodes, an edge between each two
    consecutive ones and every node inside within, keyed by its ends."""
    out = {}
    for k in range(1, g.n + 1):
        for seq in permutations(range(g.n), k):
            if (all(within >> v & 1 for v in seq)
                    and all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))):
                out.setdefault((seq[0], seq[-1]), set()).add(seq)
    return out


def test_simple_paths_match_definition_oracle():
    cases = [(g, within) for n in range(1, 4) for g in all_digraphs(n)
             for within in range(1 << n)]
    cases += [(g, g.full_mask) for g in all_digraphs(4)]
    for g, within in cases:
        want = _simple_paths_oracle(g, within)
        for c in range(g.n):
            for v in range(g.n):
                paths = enumerate_simple_paths(g, c, v, within)
                expected = want.get((c, v), set())
                assert len(paths) == len(set(paths))
                assert set(paths) == expected, (g.edges, within, c, v)
                assert count_simple_paths(g, c, v, within) == len(expected)


# ---------------------------------------------------------------------------
# f-covers


def test_cover_basics():
    assert has_f_cover([], frozenset({0, 1}), 0) == frozenset()
    paths = [(0, 2), (1, 2)]
    # Node 2 hits both paths.
    assert has_f_cover(paths, frozenset({0, 1, 2}), 1) == frozenset({2})
    # Without node 2 in the universe, no single node covers both.
    assert has_f_cover(paths, frozenset({0, 1}), 1) is None
    assert has_f_cover(paths, frozenset({0, 1}), 2) == frozenset({0, 1})
    # A path disjoint from the universe can never be covered.
    assert has_f_cover([(3,)], frozenset({0, 1}), 2) is None


def test_cover_prefers_smallest_then_lexicographic():
    paths = [(0, 1), (1, 2), (0, 2)]
    assert has_f_cover(paths, frozenset(range(3)), 2) == frozenset({0, 1})


def _cover_oracle(paths, universe, f):
    path_sets = [set(p) for p in paths]
    for size in range(f + 1):
        for combo in combinations(sorted(universe), size):
            if all(set(combo) & p for p in path_sets):
                return frozenset(combo)
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cover_matches_oracle(data):
    n = data.draw(st.integers(2, 5))
    paths = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
        max_size=5))
    paths = [tuple(p) for p in paths]
    universe = frozenset(data.draw(
        st.sets(st.integers(0, n - 1), max_size=n)))
    f = data.draw(st.integers(0, 3))
    assert has_f_cover(paths, universe, f) == _cover_oracle(
        paths, universe, f)


# ---------------------------------------------------------------------------
# Reduced graphs and source components


def test_source_component_examples():
    # Clique minus one node's outgoing edges: the rest still reach everyone.
    assert source_component(K4, frozenset({3}), frozenset()) == {0, 1, 2}
    # A chain has a unique source.
    assert source_component(CHAIN, frozenset(), frozenset()) == {0}
    # Removing the middle node's outgoing edges strands the head.
    assert source_component(CHAIN, frozenset({1}), frozenset()) == frozenset()
    # Symmetric in the two fault sets.
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, 5)
        F1 = frozenset(rng.sample(range(5), 1))
        F2 = frozenset(rng.sample(range(5), 1))
        assert source_component(g, F1, F2) == source_component(g, F2, F1)


def test_source_component_rejects_fault_sets_over_f():
    with pytest.raises(InvalidArgumentError):
        source_component(K4, frozenset({0, 1}), frozenset(), f=1)
    with pytest.raises(InvalidArgumentError):
        source_component(K4, frozenset(), frozenset({0, 1}), f=1)
    assert source_component(K4, frozenset({0}), frozenset({1}), f=1) == {2, 3}


def _source_oracle(g, removed):
    edges = [(u, v) for u, v in g.edges if u not in removed]
    keep = set()
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for a, b in edges:
                if a == u and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) == g.n:
            keep.add(s)
    return frozenset(keep)


def test_source_component_matches_oracle():
    for n in range(1, 5):
        for g in all_digraphs(n):
            for rmask in range(1 << n):
                removed = set_of(rmask)
                assert (source_component(g, removed, frozenset())
                        == _source_oracle(g, removed))
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 6), 0.6)
        removed = frozenset(rng.sample(range(g.n), rng.randrange(0, g.n)))
        assert (source_component(g, removed, frozenset())
                == _source_oracle(g, removed))


# ---------------------------------------------------------------------------
# Disjoint paths and the propagate relation


def _disjoint_oracle(g, C, A, b):
    """Max packing of (A,b)-paths sharing only b, by exhaustive search."""
    paths = []
    for a in sorted(A):
        paths.extend(enumerate_simple_paths(g, a, b, mask_of(C)))
    bbit = 1 << b
    masks = sorted(mask_of(p) & ~bbit for p in paths)

    def best(i, used):
        top = 0
        for j in range(i, len(masks)):
            if not masks[j] & used:
                top = max(top, 1 + best(j + 1, used | masks[j]))
        return top

    return best(0, 0)


def test_disjoint_paths_on_cliques():
    # Every source gets its own direct edge to the target.
    for n in range(3, 6):
        g = DiGraph(n, frozenset(permutations(range(n), 2)))
        C = frozenset(range(n))
        for a_size in range(1, n):
            A = frozenset(range(a_size))
            assert count_disjoint_paths(g, C, A, n - 1) == a_size


def test_disjoint_paths_match_oracle():
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(3, 6), 0.6)
        C = frozenset(rng.sample(range(g.n),
                                 rng.randrange(2, g.n + 1)))
        b = rng.choice(sorted(C))
        rest = sorted(C - {b})
        if not rest:
            continue
        A = frozenset(rng.sample(rest, rng.randrange(1, len(rest) + 1)))
        assert count_disjoint_paths(g, C, A, b) == _disjoint_oracle(
            g, C, A, b)
    # Every digraph on 2 or 3 nodes with every (C, A, b): 968 cases.
    for n in (2, 3):
        subsets = [frozenset(s) for k in range(n + 1)
                   for s in combinations(range(n), k)]
        for g in all_digraphs(n):
            for C in subsets:
                for b in sorted(C):
                    for A in subsets:
                        if A and A <= C - {b}:
                            assert count_disjoint_paths(
                                g, C, A, b) == _disjoint_oracle(g, C, A, b)
    # Seeded random cases on 4 to 7 nodes, sparse to dense.
    rng = random.Random(31)
    for _ in range(1000):
        g = random_graph(rng, rng.randrange(4, 8), rng.uniform(0.2, 0.8))
        C = frozenset(rng.sample(range(g.n), rng.randrange(2, g.n + 1)))
        b = rng.choice(sorted(C))
        rest = sorted(C - {b})
        A = frozenset(rng.sample(rest, rng.randrange(1, len(rest) + 1)))
        assert count_disjoint_paths(g, C, A, b) == _disjoint_oracle(
            g, C, A, b)


def test_disjoint_paths_argument_checks():
    with pytest.raises(InvalidArgumentError):
        count_disjoint_paths(K4, frozenset({0, 1}), frozenset({2}), 0)
    with pytest.raises(InvalidArgumentError):
        count_disjoint_paths(K4, frozenset({0, 1}), frozenset({0}), 0)


def test_propagates():
    C = frozenset(range(4))
    # Empty target set is trivially propagated to.
    assert propagates(K4, frozenset({0}), frozenset(), C, 3)
    # In the 4-clique, two sources give two disjoint paths to anyone.
    assert propagates(K4, frozenset({0, 1}), frozenset({2, 3}), C, 1)
    assert not propagates(K4, frozenset({0}), frozenset({2, 3}), C, 1)
    with pytest.raises(InvalidArgumentError):
        propagates(K4, frozenset({0}), frozenset({0, 1}), C, 1)
