"""End-to-end acceptance checks.

These tests pin the package-level guarantees at desk scale: the clique
characterization of the reach conditions, the condition equivalences, the
structural properties of admissible graphs, and the per-round protocol
guarantees under every built-in fault plan and a spread of delay schedules.
"""

import random
import time
from itertools import combinations, permutations

import pytest

from reachcons import (DiGraph, RoundSkewDelay, TargetedSlowDelay,
                       UniformDelay, assert_round_invariants, builtin_plans,
                       check_k_reach, equivalence_audit, make_plan,
                       propagates, random_digraph, run, source_component,
                       two_cliques)
from reachcons.adversary import Crash
from reachcons.cli import metrics_csv
from test_golden import run_digest
from test_protocol import (TOL, guarantee_failures, install_history_check,
                           install_latch_check, install_oracle)

K = 1.0
EPS = 0.25


def clique(n):
    return DiGraph(n, frozenset(permutations(range(n), 2)))


# ---------------------------------------------------------------------------
# The shared run suite: every built-in fault plan crossed with five seeded
# delay policies, on each benchmark graph, at the default budgets.


def ramp(n):
    return [i / (n - 1) for i in range(n)]


GRAPHS = {
    "k4": (clique(4), 1, [0.0, 1.0, 1.0, 0.0]),
    "k7": (clique(7), 2, [i / 6.0 for i in range(7)]),
    "two-cliques-7-8": (two_cliques(7, 8, seed=11), 2, [0.0, 1.0] * 7),
    # Directed graphs that pass 3-reach at f = 1, each the seeded draw with
    # the fewest redundant paths per round (count_redundant_paths) found
    # for its n: 16 edges and 1,449 paths, 19 and 4,653, 27 and 86,551.
    "d5-698": (random_digraph(5, 0.8, 698), 1, ramp(5)),
    "d6-790": (random_digraph(6, 0.8, 790), 1, ramp(6)),
    "d8-1515": (random_digraph(8, 0.5, 1515), 1, ramp(8)),
}
DIRECTED = ("d5-698", "d6-790", "d8-1515")

GRAPH_KEYS = sorted(GRAPHS)


def delay_policies(n):
    return [
        UniformDelay(seed=3),
        UniformDelay(seed=11, lo=1, hi=7),
        TargetedSlowDelay(seed=5, factor=5,
                          victims=frozenset({(0, 1), (1, 0), (0, 2)})),
        TargetedSlowDelay(seed=13, factor=7,
                          victims=frozenset({(2, 0), (n - 1, 0)})),
        RoundSkewDelay(seed=9, offsets={0: 3, 1: 1}),
    ]


def stock_runs(graph_key, policies):
    """One run per built-in fault plan and per delay policy of
    policies(n), fresh each call: (plan, policy index) -> metrics."""
    g, f, inputs = GRAPHS[graph_key]
    results = {}
    for name, plan in sorted(builtin_plans(g, f).items()):
        for di, delay in enumerate(policies(g.n)):
            results[(name, di)] = run(g, inputs, f, plan, delay, K, EPS)
    return results


_suite_cache = {}


def suite(graph_key):
    """All (plan, delay policy) runs for one graph, plus the wall time."""
    cached = _suite_cache.get(graph_key)
    if cached is not None:
        return cached
    t0 = time.time()
    results = stock_runs(graph_key, delay_policies)
    elapsed = time.time() - t0
    _suite_cache[graph_key] = (results, elapsed)
    return results, elapsed


# ---------------------------------------------------------------------------
# 1. Clique characterization of the reach conditions


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("f", (0, 1, 2))
def test_clique_characterization(k, f):
    for n in range(2, 9):
        assert check_k_reach(clique(n), f, k).holds == (n > k * f), (
            f"clique n={n}: k-reach with k={k}, f={f} disagrees with the "
            f"n > k*f characterization")


def test_clique_characterization_is_fast():
    t0 = time.time()
    for k in (1, 2, 3):
        for f in (0, 1, 2):
            for n in range(2, 9):
                check_k_reach(clique(n), f, k)
    assert time.time() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. Equivalence of the reach and partition condition families


def test_condition_equivalence_audit():
    t0 = time.time()
    exhaustive = equivalence_audit(1, 4)
    assert not exhaustive.sampled
    assert exhaustive.graphs_checked == 69 + 4096
    assert exhaustive.ok, exhaustive.mismatches[:3]
    total_sampled = 0
    for f, seed in ((1, 101), (2, 202)):
        rep = equivalence_audit(f, 6, seed=seed, samples=500)
        assert rep.ok, rep.mismatches[:3]
        total_sampled += 500
    assert total_sampled >= 1000
    assert time.time() - t0 < 600.0


# ---------------------------------------------------------------------------
# 3. Structural properties of graphs satisfying the admission condition


def _structural_violations(g, f):
    """Propagation from and pairwise overlap of source components."""
    out = []
    nodes = frozenset(range(g.n))
    cands = [frozenset()] + [frozenset(c) for s in range(1, f + 1)
                             for c in combinations(range(g.n), s)]
    for F1 in cands:
        for F2 in cands:
            if F1 & F2:
                continue
            S = source_component(g, F1, F2)
            for Fa, Fb in ((F1, F2), (F2, F1)):
                C = nodes - Fa
                B = C - S - Fb
                if not S <= C or not propagates(g, S, B, C, f):
                    out.append(("propagation", F1, F2, Fa))
    for Fv in cands:
        others = [Fx for Fx in cands if not Fx & Fv]
        for Fu in others:
            su = source_component(g, Fv, Fu)
            for Fw in others:
                if not su & source_component(g, Fv, Fw):
                    out.append(("overlap", Fv, Fu, Fw))
    return out


def test_structural_properties_exhaustive_n5():
    f = 1
    checked = 0
    for n in range(2, 6):
        pairs = [(u, v) for u, v in permutations(range(n), 2)]
        for code in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs)
                              if code >> i & 1)
            g = DiGraph(n, edges)
            # The one-set form is much cheaper and necessary, so it screens
            # the bulk of the graphs before the full three-set check.
            if not check_k_reach(g, f, 1).holds:
                continue
            if not check_k_reach(g, f, 3).holds:
                continue
            checked += 1
            assert not _structural_violations(g, f), sorted(edges)
    assert checked > 1000  # the scan found a real population to check


def test_structural_properties_sampled_n6():
    # Sparse six-node graphs almost never satisfy the admission condition,
    # so the sample is biased toward the denser half of the space.
    rng = random.Random(2026)
    checked = 0
    for _ in range(300):
        g = random_digraph(6, rng.uniform(0.5, 0.9), rng.randrange(2 ** 31))
        if not check_k_reach(g, 1, 3).holds:
            continue
        checked += 1
        assert not _structural_violations(g, 1), sorted(g.edges)
    assert checked > 50


# ---------------------------------------------------------------------------
# 4. Convergence halving across the whole run suite


@pytest.mark.parametrize("graph_key", GRAPH_KEYS)
def test_convergence_halving(graph_key):
    results, elapsed = suite(graph_key)
    for (plan, di), m in results.items():
        for r in range(m.r_out):
            s0, s1 = m.spread(r), m.spread(r + 1)
            assert s0 is not None and s1 is not None, (plan, di, r)
            assert s1 <= s0 / 2.0 + TOL, (plan, di, r, s0, s1)
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 5. Validity across the whole run suite


@pytest.mark.parametrize("graph_key", GRAPH_KEYS)
def test_validity(graph_key):
    results, _ = suite(graph_key)
    for (plan, di), m in results.items():
        for r in range(1, m.r_out + 1):
            assert m.U[r] is not None and m.U[r] <= m.U[0] + TOL, (
                plan, di, r)
            assert m.mu[r] is not None and m.mu[r] >= m.mu[0] - TOL, (
                plan, di, r)


# ---------------------------------------------------------------------------
# 6. Termination round and output closeness


@pytest.mark.parametrize("graph_key", GRAPH_KEYS)
def test_termination_round_and_output_spread(graph_key):
    results, _ = suite(graph_key)
    for (plan, di), m in results.items():
        assert m.r_out == 3  # first round index above log2(K / eps) = 2
        assert not m.stalled, (plan, di)
        assert sorted(m.outputs) == m.honest, (plan, di)
        vals = list(m.outputs.values())
        assert max(vals) - min(vals) < EPS, (plan, di, vals)


# ---------------------------------------------------------------------------
# 7. Liveness: one filter-and-average per nonfaulty node per round


@pytest.mark.parametrize("graph_key", GRAPH_KEYS)
def test_liveness_no_stalls(graph_key):
    results, _ = suite(graph_key)
    for (plan, di), m in results.items():
        assert not m.stalled, (plan, di)
        for v in m.honest:
            for r in range(m.r_out):
                assert (v, r) in m.fa_records, (plan, di, v, r)


# ---------------------------------------------------------------------------
# 8. Pairwise overlap of the trimmed vectors


@pytest.mark.parametrize("graph_key", GRAPH_KEYS)
def test_pairwise_trimmed_vector_overlap(graph_key):
    results, _ = suite(graph_key)
    for (plan, di), m in results.items():
        for r in range(m.r_out):
            for i, v in enumerate(m.honest):
                rv = m.fa_records.get((v, r))
                for u in m.honest[i + 1:]:
                    ru = m.fa_records.get((u, r))
                    assert rv is not None and ru is not None, (plan, di, r)
                    assert rv.survivors & ru.survivors, (plan, di, r, v, u)


# ---------------------------------------------------------------------------
# 8b. The directed graphs: the invariant scan, and a digest per run


# test_golden.run_digest of each run, its first 16 hex digits:
# graph -> (plan, delay policy index) -> digest.
DIRECTED_PINS = {
    "d5-698": {
        ("crash-max", 0): "44c294c1c7050326",
        ("crash-max", 1): "2678f9ea65f26fb5",
        ("crash-max", 2): "2678f9ea65f26fb5",
        ("crash-max", 3): "2678f9ea65f26fb5",
        ("crash-max", 4): "44c294c1c7050326",
        ("crash-min", 0): "44c294c1c7050326",
        ("crash-min", 1): "2678f9ea65f26fb5",
        ("crash-min", 2): "2678f9ea65f26fb5",
        ("crash-min", 3): "2678f9ea65f26fb5",
        ("crash-min", 4): "44c294c1c7050326",
        ("equivocator", 0): "c1a484e8e9e3a060",
        ("equivocator", 1): "b852b904db6c0981",
        ("equivocator", 2): "864517202969b1b4",
        ("equivocator", 3): "864517202969b1b4",
        ("equivocator", 4): "c1a484e8e9e3a060",
        ("forger", 0): "7ea4f3491ffcc876",
        ("forger", 1): "22cfa449bbed5573",
        ("forger", 2): "953a636593acf67b",
        ("forger", 3): "4aa83bd47fe7d755",
        ("forger", 4): "39a0f964f09a446b",
        ("split-brain", 0): "854807675e31516b",
        ("split-brain", 1): "1bceb1172bec9edb",
        ("split-brain", 2): "eec985466d7d9581",
        ("split-brain", 3): "eec985466d7d9581",
        ("split-brain", 4): "854807675e31516b",
    },
    "d6-790": {
        ("crash-max", 0): "4c1087e02690db3d",
        ("crash-max", 1): "a55e5806b43514a2",
        ("crash-max", 2): "d6b5730344bd5af7",
        ("crash-max", 3): "90c0fea42a6adb36",
        ("crash-max", 4): "7bd1a3dde57f1c63",
        ("crash-min", 0): "4c1087e02690db3d",
        ("crash-min", 1): "a55e5806b43514a2",
        ("crash-min", 2): "d6b5730344bd5af7",
        ("crash-min", 3): "90c0fea42a6adb36",
        ("crash-min", 4): "7bd1a3dde57f1c63",
        ("equivocator", 0): "a26460516999f325",
        ("equivocator", 1): "b6ac62e5ad32fa95",
        ("equivocator", 2): "73276b900174315c",
        ("equivocator", 3): "27d8a8b73461ac61",
        ("equivocator", 4): "fdf97f183d38a63c",
        ("forger", 0): "aa5b018eda22ad61",
        ("forger", 1): "0bcbf9892cbc1bfc",
        ("forger", 2): "ef5b1fab40980deb",
        ("forger", 3): "66d4e60fe6f7d65e",
        ("forger", 4): "9427800fc263bdbd",
        ("split-brain", 0): "a26460516999f325",
        ("split-brain", 1): "b6ac62e5ad32fa95",
        ("split-brain", 2): "73276b900174315c",
        ("split-brain", 3): "27d8a8b73461ac61",
        ("split-brain", 4): "fdf97f183d38a63c",
    },
    "d8-1515": {
        ("crash-max", 0): "f6d2170689e3747e",
        ("crash-max", 1): "f6d2170689e3747e",
        ("crash-max", 2): "f2b64424c2a6faab",
        ("crash-max", 3): "f2b64424c2a6faab",
        ("crash-max", 4): "f2b64424c2a6faab",
        ("crash-min", 0): "f6d2170689e3747e",
        ("crash-min", 1): "f6d2170689e3747e",
        ("crash-min", 2): "f2b64424c2a6faab",
        ("crash-min", 3): "f2b64424c2a6faab",
        ("crash-min", 4): "f2b64424c2a6faab",
        ("equivocator", 0): "261abf88c5065580",
        ("equivocator", 1): "261abf88c5065580",
        ("equivocator", 2): "c694e76af498f8a1",
        ("equivocator", 3): "cf844ceaa753c427",
        ("equivocator", 4): "cf844ceaa753c427",
        ("forger", 0): "89446aab6ec0e9a6",
        ("forger", 1): "508f10c28bb2d6f3",
        ("forger", 2): "508f10c28bb2d6f3",
        ("forger", 3): "508f10c28bb2d6f3",
        ("forger", 4): "508f10c28bb2d6f3",
        ("split-brain", 0): "297af02edf2d246c",
        ("split-brain", 1): "297af02edf2d246c",
        ("split-brain", 2): "6706dfdaeb71c0d4",
        ("split-brain", 3): "ee393b6a995ba3b3",
        ("split-brain", 4): "ee393b6a995ba3b3",
    },
}


@pytest.mark.parametrize("graph_key", DIRECTED)
def test_directed_runs_keep_the_invariants_and_their_digests(graph_key):
    results, _ = suite(graph_key)
    for (plan, di), m in results.items():
        assert assert_round_invariants(m).ok, (plan, di)
    assert {k: run_digest(m)[:16] for k, m in results.items()} == (
        DIRECTED_PINS[graph_key])


# Victims that are edges of each directed graph.  The stock policies slow
# edges of the cliques: on d8-1515 the fourth slows none, on d5-698 the third
# slows only (1, 0) and on d6-790 the fourth only (2, 0).  Here node 1 sends
# slowly on every out-edge.
EDGE_VICTIMS = {
    "d5-698": frozenset({(1, 0), (1, 2), (1, 3), (1, 4)}),
    "d6-790": frozenset({(1, 0), (1, 2), (1, 3), (1, 4), (1, 5)}),
    "d8-1515": frozenset({(1, 0), (1, 2), (1, 4), (1, 6), (1, 7)}),
}
# test_golden.run_digest of each run, its first 16 hex digits:
# graph -> plan -> digest.
EDGE_VICTIM_PINS = {
    "d5-698": {"crash-max": "44c294c1c7050326",
               "crash-min": "44c294c1c7050326",
               "equivocator": "864517202969b1b4",
               "forger": "d0ac9b93b3842fad",
               "split-brain": "eec985466d7d9581"},
    "d6-790": {"crash-max": "275e597b4ae83498",
               "crash-min": "275e597b4ae83498",
               "equivocator": "5bc6659791df0068",
               "forger": "f4b8ae888d8aa60a",
               "split-brain": "5bc6659791df0068"},
    "d8-1515": {"crash-max": "f2b64424c2a6faab",
                "crash-min": "f2b64424c2a6faab",
                "equivocator": "c694e76af498f8a1",
                "forger": "508f10c28bb2d6f3",
                "split-brain": "6706dfdaeb71c0d4"},
}


def acceptance_failures(m) -> list:
    """Checks 4 to 8 and the invariant scan on one run, as failures."""
    failures = list(assert_round_invariants(m).violations)
    for r in range(m.r_out):
        s0, s1 = m.spread(r), m.spread(r + 1)
        if s0 is None or s1 is None or s1 > s0 / 2.0 + TOL:
            failures.append(("halving", r, s0, s1))
        if m.U[r + 1] is None or m.U[r + 1] > m.U[0] + TOL or (
                m.mu[r + 1] is None or m.mu[r + 1] < m.mu[0] - TOL):
            failures.append(("validity", r + 1))
        recs = [m.fa_records.get((v, r)) for v in m.honest]
        if None in recs:
            failures.append(("liveness", r))
        elif any(not a.survivors & b.survivors
                 for a, b in combinations(recs, 2)):
            failures.append(("overlap", r))
    vals = list(m.outputs.values())
    if (m.r_out != 3 or m.stalled or sorted(m.outputs) != m.honest
            or max(vals) - min(vals) >= EPS):
        failures.append(("termination", m.r_out, m.stalled, vals))
    return failures


def test_guarantee_failures_pass_exact_halving():
    # Every d6-790 stock run halves its round-2 spread exactly, up to float
    # rounding (0.15000000000000002 after 0.3), which TOL must allow.
    results, _ = suite("d6-790")
    assert {key: guarantee_failures(m) for key, m in results.items()} == (
        dict.fromkeys(results, []))


@pytest.mark.parametrize("graph_key", DIRECTED)
def test_directed_runs_slowing_edges_keep_the_guarantees(graph_key):
    g = GRAPHS[graph_key][0]
    victims = EDGE_VICTIMS[graph_key]
    assert victims <= g.edges
    results = stock_runs(graph_key, lambda n: [
        TargetedSlowDelay(seed=13, factor=7, victims=victims)])
    for (plan, _), m in results.items():
        assert acceptance_failures(m) == [], plan
    assert {plan: run_digest(m)[:16] for (plan, _), m in results.items()} == (
        EDGE_VICTIM_PINS[graph_key])


# ---------------------------------------------------------------------------
# 8c. The directed graphs under the differential oracle, the latch check
# and the history check


@pytest.mark.parametrize("graph_key", DIRECTED)
def test_directed_latches_match_their_histories(monkeypatch, graph_key):
    tally = install_latch_check(monkeypatch)
    stock_runs(graph_key, delay_policies)
    assert tally["latches"]
    assert tally["mismatches"] == []


@pytest.mark.parametrize("graph_key", DIRECTED)
def test_directed_runs_repeat_only_faulty_relays(monkeypatch, graph_key):
    tally = install_history_check(monkeypatch)
    stock_runs(graph_key, delay_policies)
    assert len(tally["extras"]) == 25
    assert tally["faults"] == []


def test_directed_engine_matches_the_reference_at_every_advance(monkeypatch):
    # On d5-698 only: the oracle takes about 13 s over d6-790's 25 runs and
    # about 54 s over d8-1515's.
    tally = install_oracle(monkeypatch)
    results = stock_runs("d5-698", delay_policies)
    assert tally["mismatches"] == []
    assert tally["advances"] >= sum(len(m.honest) * m.r_out
                                    for m in results.values())
    assert tally["verdicts"] and tally["false"]


# ---------------------------------------------------------------------------
# 9. Negative control: the checks are not vacuous


def test_negative_control_overloaded_fault_budget():
    g, f, inputs = GRAPHS["k4"]
    plan = make_plan("overload", {2: Crash(0), 3: Crash(0)})
    m = run(g, inputs, f, plan, UniformDelay(seed=3), K, EPS)
    halving_broken = any(
        m.spread(r) is None or m.spread(r + 1) is None
        or m.spread(r + 1) > m.spread(r) / 2.0 + TOL
        for r in range(m.r_out))
    validity_broken = any(
        m.U[r] is None or m.U[r] > m.U[0] + TOL
        or m.mu[r] is None or m.mu[r] < m.mu[0] - TOL
        for r in range(1, m.r_out + 1))
    termination_broken = m.stalled or sorted(m.outputs) != m.honest
    liveness_broken = any((v, r) not in m.fa_records
                          for v in m.honest for r in range(m.r_out))
    assert (halving_broken or validity_broken or termination_broken
            or liveness_broken)
    assert assert_round_invariants(m).violations  # and it is reported


# ---------------------------------------------------------------------------
# 10. Determinism: identical seeds give byte-identical metrics files


@pytest.mark.parametrize("graph_key,plan_name", [
    ("k4", "equivocator"),
    ("k4", "forger"),
    ("k7", "crash-max"),
    ("k7", "split-brain"),
    ("d8-1515", "equivocator"),
])
def test_determinism_byte_identical_metrics(tmp_path, graph_key, plan_name):
    g, f, inputs = GRAPHS[graph_key]
    plan = builtin_plans(g, f)[plan_name]

    def emit(tag):
        m = run(g, inputs, f, plan, UniformDelay(seed=17), K, EPS)
        path = tmp_path / f"{graph_key}-{plan_name}-{tag}.csv"
        path.write_text(metrics_csv(m))
        return path, m

    p1, m1 = emit("a")
    p2, m2 = emit("b")
    assert p1.read_bytes() == p2.read_bytes()
    assert (m1.outputs, m1.deliveries) == (m2.outputs, m2.deliveries)
