"""Fast tests of the benchmark itself.

    python3 -m pytest reachbench -q

They check that the per-layer split charges every profiled function of the
package to a layer, and that each output check rejects a corrupted result.
"""

import cProfile
import dataclasses
import json
import os
import pstats
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from reachcons import cli, conditions, generate, graph, simnet  # noqa: E402
from reachcons.adversary import Crash, make_plan  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

K, EPS = workloads.K, workloads.EPS
K4_INPUTS = [0.0, 1.0, 1.0, 0.0]


def k4_cfg(plan="split-brain", seed=17):
    return {"label": f"k4 {plan}", "graph": "builtin:k4", "f": 1,
            "inputs": list(K4_INPUTS), "plan": {"name": plan},
            "delay": {"kind": "uniform"}, "seed": seed}


@pytest.fixture(scope="module")
def good_run():
    return workloads.simulate(k4_cfg())


# ---------------------------------------------------------------------------
# Per-layer split


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    """One profile over every kind of call the workloads make."""
    tmp = tmp_path_factory.mktemp("trace")
    scenario = tmp / "scenario.json"
    cfg = dict(k4_cfg("forger", seed=5), out=str(tmp / "m.csv"),
               trace=str(tmp / "t.jsonl"))
    del cfg["label"]
    scenario.write_text(json.dumps(cfg))
    g = generate.random_digraph(5, 0.7, 3)
    pr = cProfile.Profile()
    pr.enable()
    for plan in ("crash-min", "crash-max", "equivocator", "split-brain"):
        for spec in workloads.DELAY_SPECS:
            workloads.simulate(dict(k4_cfg(plan), delay=spec))
    cli.main(["run", str(scenario)])
    conditions.equivalence_audit(1, 3)
    for k in (1, 2, 3):
        conditions.check_k_reach(g, 1, k)
    graph.count_redundant_paths(generate.two_cliques(3, 2, seed=1),
                                frozenset())
    pr.disable()
    return pstats.Stats(pr).stats


@pytest.fixture(scope="module")
def index():
    return layers.FunctionIndex(bench.PACKAGE)


def test_every_profiled_package_function_is_charged(profile, index):
    seen = 0
    for key in profile:
        loc = index.locate(key)
        if loc is None:
            continue
        seen += 1
        layer = layers.layer_of(*loc)
        assert layer in layers.SELF_LAYERS, (key, layer)
        assert layer != layers.UNKNOWN_MODULE, (key, loc)
    assert seen > 50
    times = layers.layer_self_times(profile, index)
    total = sum(row[2] for row in profile.values())
    assert sum(times.values()) == pytest.approx(total, rel=1e-9)


def test_layer_table_names_existing_functions(index):
    assert layers.stale_names(index) == []
    named = [f for table in (layers.CALLS, layers.CUMULATIVE)
             for funcs in table.values() for f in funcs]
    for module, qual in named:
        assert qual in index.qualnames(module), (module, qual)


def test_per_layer_metrics_are_complete(profile, index):
    out = layers.per_layer_metrics(profile, index)
    missing = set(layers.PER_LAYER) - set(out) - set(layers.TRACE_METRICS)
    assert not missing
    assert out["simnet.queue.pops"] > 0
    assert out["simnet.trace.records"] > 0
    assert 0 < out["protocol.verify.useful_ratio"] <= 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER


# ---------------------------------------------------------------------------
# Output checks reject corrupted results


def test_good_run_passes(good_run):
    m, csv, ok = good_run
    assert ok
    assert checks.check_run(m, K4_INPUTS, 1, K, EPS, ok) == []
    assert checks.check_csv(csv, m, m.honest) == []


def test_rounds_needed_is_floor_log2_plus_one():
    for K_, eps, r in ((1.0, 0.25, 3), (1.0, 0.3, 2), (1.0, 1.0, 1),
                       (5.0, 1.0, 3), (8.0, 1.0, 4)):
        assert checks.rounds_needed(K_, eps) == r


def test_overloaded_fault_budget_is_rejected():
    g = generate.clique(4)
    plan = make_plan("overload", {2: Crash(0), 3: Crash(0)})
    m = simnet.run(g, K4_INPUTS, 1, plan, simnet.UniformDelay(seed=3), K, EPS)
    ok = simnet.assert_round_invariants(m).ok
    assert checks.check_run(m, K4_INPUTS, 1, K, EPS, ok)
    # Even with the fault budget the plan needs, the guarantees fail.
    assert checks.check_run(m, K4_INPUTS, 2, K, EPS, ok)


def _with_record(m, key, **changes):
    fa = dict(m.fa_records)
    fa[key] = dataclasses.replace(fa[key], **changes)
    return dataclasses.replace(m, fa_records=fa)


def test_spread_that_fails_to_halve_is_rejected(good_run):
    m, _, ok = good_run
    a, b = m.honest[:2]
    bad = _with_record(m, (a, 0), lo_value=0.0, hi_value=0.0)
    bad = _with_record(bad, (b, 0), lo_value=1.0, hi_value=1.0)
    problems = checks.check_run(bad, K4_INPUTS, 1, K, EPS, ok)
    assert any("exceeds half" in p for p in problems), problems


def test_output_outside_input_range_is_rejected(good_run):
    m, _, ok = good_run
    v = m.honest[0]
    bad = dataclasses.replace(m, outputs={**m.outputs, v: 1.5})
    problems = checks.check_run(bad, K4_INPUTS, 1, K, EPS, ok)
    assert any("outside the honest input range" in p for p in problems)


def test_disjoint_survivors_are_rejected(good_run):
    m, _, ok = good_run
    v = m.honest[0]
    bad = _with_record(m, (v, 1), survivors=frozenset({(9.0, 9)}))
    problems = checks.check_run(bad, K4_INPUTS, 1, K, EPS, ok)
    assert any("do not overlap" in p for p in problems), problems


def test_stall_and_wrong_round_count_are_rejected(good_run):
    m, _, ok = good_run
    assert checks.check_run(dataclasses.replace(m, stalled=True),
                            K4_INPUTS, 1, K, EPS, ok)
    assert checks.check_run(dataclasses.replace(m, r_out=2),
                            K4_INPUTS, 1, K, EPS, ok)
    assert checks.check_run(m, K4_INPUTS, 1, K, EPS, False)


def test_corrupted_csv_and_short_trace_are_rejected(good_run, tmp_path):
    m, csv, _ = good_run
    assert checks.check_csv(csv.replace("\n1,", "\n1,0.123", 1), m,
                            m.honest)
    trace = tmp_path / "t.jsonl"
    trace.write_text("{}\n" * (m.deliveries - 1))
    assert checks.check_trace_file(str(trace), m.deliveries)
    trace.write_text("{}\n" * m.deliveries)
    assert checks.check_trace_file(str(trace), m.deliveries) == []


def _kreach_problems(g, f, k, verdict):
    op = workloads.Conditions._kreach_op("g", g, f, k, True, {})
    return op.finish(verdict).problems


def test_flipped_verdicts_are_rejected():
    path = graph.DiGraph(3, frozenset({(0, 1), (1, 2)}))
    truth = conditions.check_k_reach(path, 1, 1)
    assert not truth.holds
    assert _kreach_problems(path, 1, 1, truth) == []
    flipped = conditions.ConditionVerdict(True)
    assert _kreach_problems(path, 1, 1, flipped)
    k5 = generate.clique(5)
    assert conditions.check_k_reach(k5, 1, 3).holds
    bogus = conditions.ConditionVerdict(False, conditions.ReachViolation(
        3, frozenset(), frozenset({0}), frozenset({1}), 2, 3))
    assert _kreach_problems(k5, 1, 3, bogus)
    assert checks.check_clique_verdict(5, 1, 3, True) == []
    assert checks.check_clique_verdict(5, 1, 3, False)
    assert checks.check_clique_verdict(1, 2, 1, True) == []  # n <= f


def test_brute_k_reach_agrees_with_the_checker():
    for seed in range(12):
        g = generate.random_digraph(5, 0.6, seed)
        for f, k in ((1, 1), (1, 2), (1, 3), (2, 3)):
            assert checks.brute_k_reach(g.n, g.edges, f, k) == \
                conditions.check_k_reach(g, f, k).holds, (seed, f, k)


def test_audit_with_mismatches_is_rejected():
    def broken(g, f, which):
        v = conditions.check_partition_condition(g, f, which)
        return conditions.ConditionVerdict(True) if not v.holds else v

    assert checks.check_audit(conditions.equivalence_audit(1, 2), 2) == []
    report = conditions.equivalence_audit(1, 2, _partition_check=broken)
    assert checks.check_audit(report, 2)


def test_redundant_path_counts_against_enumeration():
    g = generate.random_digraph(5, 0.6, 4)
    for excluded in (frozenset(), frozenset({2})):
        expected = checks.brute_redundant_counts(g.n, g.edges, excluded)
        counts = graph.count_redundant_paths(graph.DiGraph(g.n, g.edges),
                                             excluded)
        assert checks.check_counts(counts, expected) == []
        wrong = dict(counts)
        wrong[max(wrong)] += 1
        assert checks.check_counts(wrong, expected)
