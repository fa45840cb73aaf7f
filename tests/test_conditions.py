"""Reachability and partition condition checkers and their cross-audit."""

import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcons import (DiGraph, InvalidArgumentError, all_digraphs,
                       check_k_reach, check_partition_condition, check_point,
                       equivalence_audit, random_digraph)
from reachcons.conditions import ConditionVerdict, PartitionViolation


def clique(n):
    return DiGraph(n, frozenset(permutations(range(n), 2)))


K3, K4, K7 = clique(3), clique(4), clique(7)


# ---------------------------------------------------------------------------
# k-reach


def test_k_reach_on_cliques_spot_checks():
    # Representative points of the n > k*f clique characterization.
    assert check_k_reach(K4, 1, 3).holds
    assert not check_k_reach(K3, 1, 3).holds
    assert check_k_reach(K7, 2, 3).holds
    assert not check_k_reach(clique(6), 2, 3).holds
    assert check_k_reach(K3, 1, 2).holds
    assert not check_k_reach(clique(2), 1, 2).holds
    assert check_k_reach(clique(2), 1, 1).holds


def test_k_reach_degenerate_boundary():
    # With n = 2 and f = 2 every admissible common fault set leaves at most
    # one node, whose reach set contains itself, so the literal quantifier
    # form of the 1-reach condition is satisfied even though the clique
    # shorthand n > f is not.  Freeze the literal behavior.
    assert check_k_reach(clique(2), 2, 1).holds


def test_k_reach_witness_reverifies():
    verdict = check_k_reach(K3, 1, 3)
    assert not verdict.holds
    w = verdict.witness
    assert w.violates(K3)
    assert len(w.F) <= 1 and len(w.F_v) <= 1 and len(w.F_u) <= 1


def test_k_reach_argument_checks():
    with pytest.raises(InvalidArgumentError):
        check_k_reach(K3, -1, 1)
    with pytest.raises(InvalidArgumentError):
        check_k_reach(K3, 1, 0)


def test_k_reach_f0_is_pairwise_reach_intersection():
    chain = DiGraph(3, frozenset({(0, 1), (1, 2)}))
    # Node 0 reaches everyone, so all reach sets share node 0.
    assert check_k_reach(chain, 0, 1).holds
    assert check_k_reach(chain, 0, 3).holds
    split = DiGraph(3, frozenset({(0, 1), (2, 1)}))
    # Nodes 0 and 2 have disjoint reach sets.
    assert not check_k_reach(split, 0, 1).holds


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 20 - 1))
def test_k_reach_monotone_in_k(n, code):
    pairs = [(u, v) for u, v in permutations(range(n), 2)]
    edges = frozenset(p for i, p in enumerate(pairs)
                      if code >> i & 1)
    g = DiGraph(n, edges)
    holds = [check_k_reach(g, 1, k).holds for k in (1, 2, 3)]
    # Larger k strengthens the requirement.
    assert holds[2] <= holds[1] <= holds[0]


# ---------------------------------------------------------------------------
# Point condition and partitions


def test_check_point():
    assert check_point(K4, frozenset({0, 1}), frozenset({2}), 2)
    assert not check_point(K4, frozenset({0}), frozenset({2}), 2)
    chain = DiGraph(3, frozenset({(0, 1), (1, 2)}))
    assert not check_point(chain, frozenset({0}), frozenset({2}), 1)
    with pytest.raises(InvalidArgumentError):
        check_point(K4, frozenset({0}), frozenset({0, 1}), 1)
    with pytest.raises(InvalidArgumentError):
        check_point(K4, frozenset({0}), frozenset(), 1)


def test_partition_conditions_on_k3():
    assert check_partition_condition(K3, 1, "ccs").holds
    assert check_partition_condition(K3, 1, "cca").holds
    verdict = check_partition_condition(K3, 1, "bcs")
    assert not verdict.holds
    assert verdict.witness.violates(K3)


def test_partition_conditions_on_k4():
    for which in ("ccs", "cca", "bcs"):
        assert check_partition_condition(K4, 1, which).holds


def test_partition_argument_checks():
    with pytest.raises(InvalidArgumentError):
        check_partition_condition(K3, 1, "nope")
    with pytest.raises(InvalidArgumentError):
        check_partition_condition(K3, -1, "ccs")


def test_verdict_requires_witness():
    with pytest.raises(InvalidArgumentError):
        ConditionVerdict(False)


# ---------------------------------------------------------------------------
# Equivalence audit


def test_audit_exhaustive_small():
    report = equivalence_audit(1, 3)
    # 1 + 4 + 64 labeled digraphs on up to three nodes.
    assert report.graphs_checked == 69
    assert report.ok
    assert not report.sampled


def test_audit_sampled_flags_and_counts():
    report = equivalence_audit(1, 5, seed=5, samples=20)
    assert report.sampled and report.seed == 5
    assert report.graphs_checked == 69 + 4096 + 20
    assert report.ok


def test_audit_budget():
    with pytest.raises(InvalidArgumentError):
        equivalence_audit(1, 7)


def test_audit_detects_a_broken_comparator():
    def broken(g, f, which):
        v = check_partition_condition(g, f, which)
        if g.n == 2 and v.holds:
            return ConditionVerdict(
                False, PartitionViolation(which, 1, frozenset(),
                                          frozenset({0}), frozenset(),
                                          frozenset({1})))
        return v

    report = equivalence_audit(1, 2, _partition_check=broken)
    assert report.mismatches


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 2))
def test_equivalence_on_random_graphs(seed, f):
    g = random_digraph(5, 0.5, seed)
    pairs = {1: "ccs", 2: "cca", 3: "bcs"}
    for k, which in pairs.items():
        assert (check_k_reach(g, f, k).holds
                == check_partition_condition(g, f, which).holds)


# ---------------------------------------------------------------------------
# Pinned verdicts and first witnesses


def _verdict_digest(cases):
    """SHA-256 over repr((holds, witness)) of every checker on every case."""
    h = hashlib.sha256()
    for g, f in cases:
        for k in (1, 2, 3):
            v = check_k_reach(g, f, k)
            h.update(repr((v.holds, v.witness)).encode())
        for which in ("ccs", "cca", "bcs"):
            v = check_partition_condition(g, f, which)
            h.update(repr((v.holds, v.witness)).encode())
    return h.hexdigest()


def test_verdicts_and_witnesses_pinned_exhaustive_n4():
    # Every labeled digraph on 1..4 nodes at f = 0, 1, 2.
    cases = [(g, f) for n in range(1, 5) for g in all_digraphs(n)
             for f in (0, 1, 2)]
    assert len(cases) == 3 * (1 + 4 + 64 + 4096)
    assert _verdict_digest(cases) == (
        "2b35de303fd04ed233f2d87b2dde72d8488d1d09b73326daa198b6ed83ba7728")


def test_verdicts_and_witnesses_pinned_random_n5_to_n7():
    rng = random.Random(7)
    cases = []
    for i in range(100):
        g = random_digraph(5 + i % 3, rng.uniform(0.3, 0.95),
                           rng.randrange(2 ** 31))
        cases.append((g, 1 + i % 2))
    assert _verdict_digest(cases) == (
        "428904b81a3731c0b3716baf860579f9e6d4ad64c618e3511e6378afd94c0a08")
