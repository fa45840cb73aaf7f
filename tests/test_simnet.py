"""Simulator: delay policies, budgets, metrics, determinism, invariants."""

import gc
import json
import math
import tracemalloc
from array import array
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcons import (BudgetError, Budgets, DiGraph, InvalidArgumentError,
                       RoundSkewDelay, TargetedSlowDelay, UniformDelay,
                       assert_round_invariants, builtin_plans, make_plan,
                       run)
from reachcons.adversary import (Crash, ForgeComplete, PlanRuntime,
                                 TamperForward)
from reachcons.graph import set_of
from reachcons.protocol import (COMP_T, VAL_T, Node, PayloadView, path_key,
                                path_of)
from reachcons.simnet import SimWorld, rounds_to_output, thread_count
from test_golden import K4_INPUTS, K4_PINS, K7_INPUTS, delay_policy
from test_protocol import listings


def clique(n):
    return DiGraph(n, frozenset(permutations(range(n), 2)))


K4 = clique(4)
INPUTS4 = [0.0, 1.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# Delay policies


def test_uniform_delay_range_and_determinism():
    d1 = UniformDelay(seed=1, lo=2, hi=5)
    d2 = UniformDelay(seed=1, lo=2, hi=5)
    draws = [d1.delay(0, 1) for _ in range(200)]
    assert all(2 <= x <= 5 for x in draws)
    assert set(draws) == {2, 3, 4, 5}
    assert draws == [d2.delay(0, 1) for _ in range(200)]


def test_targeted_slow_delay():
    d = TargetedSlowDelay(seed=1, victims=frozenset({(0, 1)}), factor=5,
                          lo=1, hi=4)
    for _ in range(100):
        assert 5 <= d.delay(0, 1) <= 20
        assert 1 <= d.delay(1, 0) <= 4


def test_round_skew_delay():
    d = RoundSkewDelay(seed=1, offsets={2: 10}, lo=1, hi=2)
    for _ in range(50):
        assert 11 <= d.delay(2, 0) <= 12
        assert 1 <= d.delay(0, 2) <= 2


def test_delay_validation():
    with pytest.raises(InvalidArgumentError):
        UniformDelay(seed=0, lo=0, hi=3)
    with pytest.raises(InvalidArgumentError):
        UniformDelay(seed=0, lo=3, hi=2)
    with pytest.raises(InvalidArgumentError):
        TargetedSlowDelay(seed=0, victims=frozenset(), factor=0)
    with pytest.raises(InvalidArgumentError):
        RoundSkewDelay(seed=0, offsets={1: -1})
    # The clock is an integer: every parameter must be an int, not a bool.
    # Unchecked, NaN and inf failed mid-run, a NaN factor or offset gave
    # NaN delivery times, and fractions gave a clock that is no integer.
    for make in (lambda: UniformDelay(0, 1, math.nan),
                 lambda: UniformDelay(0, 1, math.inf),
                 lambda: TargetedSlowDelay(0, {(0, 1)}, factor=math.nan),
                 lambda: RoundSkewDelay(0, {1: math.nan}),
                 lambda: UniformDelay(0, 1.5, 2.5),
                 lambda: TargetedSlowDelay(0, {(0, 1)}, factor=2.5),
                 lambda: UniformDelay(0, lo=True)):
        with pytest.raises(InvalidArgumentError):
            make()
    # A seed is an int: None would seed from OS entropy, so that no run
    # repeats, and a list would fail inside random with a bare TypeError.
    for seed in (None, [1], 2.5, "3", True):
        with pytest.raises(InvalidArgumentError, match="seed"):
            UniformDelay(seed)
    # Victims are pairs of node ids, and offsets are keyed by node ids;
    # unchecked, these would run and slow nothing.
    with pytest.raises(InvalidArgumentError, match="victims"):
        TargetedSlowDelay(0, {(0, 1, 2)})
    with pytest.raises(InvalidArgumentError, match="offsets"):
        RoundSkewDelay(0, {"1": 3})


# ---------------------------------------------------------------------------
# Derived quantities


def test_thread_count():
    assert thread_count(4, 1) == 4  # empty set plus three singletons
    assert thread_count(7, 2) == 1 + 6 + 15


def test_rounds_to_output():
    assert rounds_to_output(1.0, 0.25) == 3
    assert rounds_to_output(1.0, 0.5) == 2
    assert rounds_to_output(1.0, 1.0) == 1
    assert rounds_to_output(4.0, 1.0) == 3
    assert rounds_to_output(1.0, 0.3) == 2


# ---------------------------------------------------------------------------
# run() validation and budgets


def test_run_input_validation():
    plan = make_plan("none", {})
    d = UniformDelay(seed=0)
    with pytest.raises(InvalidArgumentError):
        run(K4, [0.0, 1.0], 1, plan, d, 1.0, 0.25)
    with pytest.raises(InvalidArgumentError):
        run(K4, [0.0, 1.0, 2.0, 0.0], 1, plan, d, 1.0, 0.25)
    with pytest.raises(InvalidArgumentError):
        run(K4, INPUTS4, 1, plan, d, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        run(K4, INPUTS4, 1, plan, d, 0.25, 1.0)
    # A plan may name only nodes of the graph.
    with pytest.raises(InvalidArgumentError):
        run(K4, INPUTS4, 1, make_plan("ghost", {9: Crash(0)}), d, 1.0, 0.25)
    # So may a delay policy: unchecked, node 9 would slow nothing.
    for delay in (TargetedSlowDelay(0, {(0, 9)}), RoundSkewDelay(0, {9: 3})):
        with pytest.raises(InvalidArgumentError, match="delay policy names"):
            run(K4, INPUTS4, 1, plan, delay, 1.0, 0.25)
    # A crash counts whole sends: unchecked, 2.7 would run as 3, and "3"
    # would fail with a bare TypeError.
    for after in (2.7, "3"):
        with pytest.raises(InvalidArgumentError, match="need an int"):
            run(K4, INPUTS4, 1, make_plan("c", {3: Crash(after)}), d, 1.0,
                0.25)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("inputs,f,K,eps", [
    # NaN fails every comparison, so a plain range test let it through and
    # the run produced NaN outputs.
    ([0.0, NAN, 1.0, 0.0], 1, 1.0, 0.25),
    # NaN eps and infinite K escaped as ValueError and OverflowError.
    (INPUTS4, 1, 1.0, NAN),
    (INPUTS4, 1, INF, 0.25),
    (INPUTS4, 1, NAN, 0.25),
    # K / eps overflowed to inf, and rounds_to_output raised OverflowError.
    (INPUTS4, 1, 1e308, 1e-308),
    # f >= n used to run and output values.
    (INPUTS4, 4, 1.0, 0.25),
    (INPUTS4, 5, 1.0, 0.25),
    (INPUTS4, -1, 1.0, 0.25),
], ids=["nan-input", "nan-eps", "inf-K", "nan-K", "inf-K-over-eps", "f-is-n",
        "f-above-n", "f-negative"])
def test_run_rejects_non_finite_numbers_and_f_outside_range(inputs, f, K,
                                                            eps):
    with pytest.raises(InvalidArgumentError):
        run(K4, inputs, f, make_plan("none", {}), UniformDelay(seed=0), K,
            eps)


def test_run_budget_errors():
    plan = make_plan("none", {})
    d = UniformDelay(seed=0)
    with pytest.raises(BudgetError):
        run(clique(11), [0.0] * 11, 1, plan, d, 1.0, 0.25)
    with pytest.raises(BudgetError):
        run(K4, INPUTS4, 1, plan, d, 1.0, 0.25,
            budgets=Budgets(max_threads=2))
    with pytest.raises(BudgetError):
        run(K4, INPUTS4, 1, plan, d, 1.0, 0.25,
            budgets=Budgets(max_deliveries=10))


@pytest.mark.parametrize("budget,progress", [
    (50, "node 0 in round 0, node 1 in round 0, node 2 in round 0"),
    (118, "node 0 in round 1, node 1 in round 0, node 2 in round 1"),
    (370, "node 0 done, node 1 in round 2, node 2 in round 2"),
], ids=["50", "118", "370"])
def test_delivery_budget_error_names_progress(budget, progress):
    # Node 3 is faulty (crashed), so only nodes 0..2 are named.
    with pytest.raises(BudgetError) as e:
        run(K4, INPUTS4, 1, builtin_plans(K4, 1)["crash-min"],
            UniformDelay(seed=1), 1.0, 0.25,
            budgets=Budgets(max_deliveries=budget))
    assert (f"delivery budget of {budget} exceeded after {budget} "
            f"deliveries ({progress});") in str(e.value)


@pytest.mark.parametrize("field", ["max_n", "max_threads", "max_deliveries"])
@pytest.mark.parametrize("value", [0, -1, None, 2.5, "9", True])
def test_budgets_below_one_are_input_errors(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        run(K4, INPUTS4, 1, make_plan("none", {}), UniformDelay(seed=0),
            1.0, 0.25, budgets=Budgets(**{field: value}))


# ---------------------------------------------------------------------------
# Clean runs


def test_clean_run_metrics_shape():
    metrics = run(K4, INPUTS4, 1, builtin_plans(K4, 1)["crash-min"],
                  UniformDelay(seed=7), 1.0, 0.25)
    assert metrics.r_out == 3
    assert metrics.three_reach is True
    assert len(metrics.U) == len(metrics.mu) == 4
    assert metrics.honest == [0, 1, 2]
    assert sorted(metrics.outputs) == [0, 1, 2]
    assert not metrics.stalled
    assert metrics.deliveries > 0
    spread = metrics.spread(3)
    assert spread is not None and spread < 0.25
    assert assert_round_invariants(metrics).ok


def test_all_builtin_plans_run_clean_on_k4():
    for name, plan in builtin_plans(K4, 1).items():
        metrics = run(K4, INPUTS4, 1, plan, UniformDelay(seed=3), 1.0, 0.25)
        report = assert_round_invariants(metrics)
        assert report.ok, (name, report.violations)


def test_determinism_same_seed_same_metrics():
    def go():
        m = run(K4, INPUTS4, 1, builtin_plans(K4, 1)["equivocator"],
                UniformDelay(seed=9), 1.0, 0.25)
        return (m.U, m.mu, m.outputs, m.deliveries)

    assert go() == go()


def test_different_seed_changes_the_schedule():
    def go(seed):
        m = run(K4, INPUTS4, 1, builtin_plans(K4, 1)["equivocator"],
                UniformDelay(seed=seed), 1.0, 0.25)
        return (m.U, m.mu, m.outputs, m.deliveries)

    assert any(go(s) != go(9) for s in (10, 11, 12))


def test_trace_collection():
    lines = []
    metrics = run(K4, INPUTS4, 1, make_plan("none", {}),
                  UniformDelay(seed=1), 1.0, 0.25, trace=lines.append)
    assert len(lines) == metrics.deliveries
    assert all(ln.endswith("\n") and ln.count("\n") == 1 for ln in lines)
    records = [json.loads(ln) for ln in lines]
    kinds = {rec["kind"] for rec in records}
    assert kinds == {"value", "complete"}
    for rec in records[:50]:
        assert rec["deliver_time"] > rec["send_time"]
        assert rec["path"][-1] == rec["sender"]


def test_inert_receivers_are_counted_and_traced():
    plan = builtin_plans(K4, 1)["crash-min"]
    assert plan.inert == frozenset({3})
    lines = []
    metrics = run(K4, INPUTS4, 1, plan, UniformDelay(seed=1), 1.0, 0.25,
                  trace=lines.append)
    records = [json.loads(ln) for ln in lines]
    assert len(records) == metrics.deliveries
    assert any(rec["receiver"] == 3 for rec in records)
    assert not any(rec["sender"] == 3 for rec in records)
    assert assert_round_invariants(metrics).ok


def oracle_line(g, dest, m, sent_at, t) -> str:
    """A delivery's trace line as a dict through json.dumps: the record
    format written before lines were formatted directly.  The sender is the
    path's last node."""
    tag, rnd, body, key = m[:4]
    path = list(path_of(key, g.n))
    sender = path[-1]
    if tag == VAL_T:
        rec = {"round": rnd, "kind": "value", "value": body,
               "path": path, "sender": sender,
               "receiver": dest, "send_time": sent_at, "deliver_time": t}
    else:
        k, payload = body
        rec = {"round": rnd, "kind": "complete", "init": path[0],
               "fifo_counter": k,
               "claimed": sorted(set_of(payload.claimed_mask)),
               "path": path, "sender": sender, "receiver": dest,
               "send_time": sent_at, "deliver_time": t}
    return json.dumps(rec, sort_keys=True) + "\n"


def check_trace_lines(monkeypatch, g) -> list:
    """Compare every trace line the run formats with the oracle's; returns
    the list of compared lines."""
    record = SimWorld._trace_record
    compared = []

    def checked(self, dest, m, sent_at, t):
        line = record(self, dest, m, sent_at, t)
        assert line == oracle_line(g, dest, m, sent_at, t)
        compared.append(line)
        return line

    monkeypatch.setattr(SimWorld, "_trace_record", checked)
    return compared


@pytest.mark.parametrize("plan,di", sorted(K4_PINS))
def test_trace_lines_match_json_dumps_golden_k4(monkeypatch, plan, di):
    compared = check_trace_lines(monkeypatch, K4)
    lines = []
    m = run(K4, K4_INPUTS, 1, builtin_plans(K4, 1)[plan],
            delay_policy(di, 4), 1.0, 0.25, trace=lines.append)
    assert lines == compared and len(lines) == m.deliveries


def test_trace_lines_match_json_dumps_k7_split_brain(monkeypatch):
    g = clique(7)
    compared = check_trace_lines(monkeypatch, g)
    lines = []
    m = run(g, K7_INPUTS, 2, builtin_plans(g, 2)["split-brain"],
            UniformDelay(seed=3), 1.0, 0.25, trace=lines.append)
    assert lines == compared and len(lines) == m.deliveries
    assert {json.loads(ln)["kind"] for ln in lines} == {"value",
                                                         "complete"}


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308, -0.0,
                               0.1, 1, 0])
def test_trace_line_of_a_hand_built_value(x):
    # Two TamperForward(1e308) relays overflow a value to inf, which json
    # writes as Infinity.
    world = SimWorld(K4, 1, 3, make_plan("none", {}), UniformDelay(seed=1),
                     None)
    for p in ((2,), (0, 1, 3, 0, 2)):
        wire = (VAL_T, 1, x, path_key(p, 4), 1, 1 << 2, 0)
        line = world._trace_record(3, wire, 5, 9)
        assert line == oracle_line(K4, 3, wire, 5, 9)
    payload = PayloadView(0, 0b101, ((1, x),))
    for p, m1 in (((1,), 0b10), ((1, 0, 2), 0b111)):
        wire = (COMP_T, 0, (4, payload), path_key(p, 4), 1, m1, 0)
        line = world._trace_record(3, wire, 5, 9)
        assert line == oracle_line(K4, 3, wire, 5, 9)
    # 0, 0.0 and -0.0 (and 1, 1.0) hash alike and nan equals nothing, so a
    # world that caches value texts must keep each object's own text.
    g = clique(7)
    world = SimWorld(g, 2, 3, make_plan("none", {}), UniformDelay(seed=1),
                     None)
    p13 = (0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5)
    for y in [0.0, -0.0, 0, 1, 1.0, math.nan, math.inf] * 2:
        for v in (x, y):
            for p in ((5,), (6, 5), p13):
                wire = (VAL_T, 1, v, path_key(p, 7), 1, 0, 0)
                line = world._trace_record(6, wire, 5, 9)
                assert line == oracle_line(g, 6, wire, 5, 9)
    wire = (COMP_T, 0, (4, payload), path_key(p13, 7), 1, 0, 0)
    assert (world._trace_record(6, wire, 5, 9)
            == oracle_line(g, 6, wire, 5, 9))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trace_path_text_matches_path_of(data):
    # Digits run over the whole width of a hop, so keys carry 0 digits and
    # digits above n, as junk on a faulty wire can before receivers drop
    # it; a leading 0 digit makes the key shorter.
    n = data.draw(st.integers(1, 16))
    bits = n.bit_length()
    digits = data.draw(st.lists(st.integers(0, (1 << bits) - 1),
                                min_size=1, max_size=2 * n - 1))
    key = 0
    for d in digits:
        key = key << bits | d
    world = SimWorld(DiGraph(n, frozenset()), 0, 1, make_plan("none", {}),
                     UniformDelay(seed=1), None)
    line = world._trace_record(0, (VAL_T, 0, 0.5, key, 0, 0, 0), 1, 2)
    text = line.split('"path": [', 1)[1].split("]", 1)[0]
    assert text == ", ".join(map(str, path_of(key, n)))


def _live_nodes() -> int:
    return sum(isinstance(o, Node) for o in gc.get_objects())


def test_finished_run_is_freed_by_reference_counting():
    gc.collect()
    gc.disable()
    try:
        run(K4, INPUTS4, 1, make_plan("none", {}), UniformDelay(seed=1),
            1.0, 0.25)
        after_return = _live_nodes()
        with pytest.raises(BudgetError):
            run(K4, INPUTS4, 1, make_plan("none", {}), UniformDelay(seed=1),
                1.0, 0.25, budgets=Budgets(max_deliveries=50))
        after_raise = _live_nodes()
    finally:
        gc.enable()
    assert (after_return, after_raise) == (0, 0)


def record_nodes(monkeypatch) -> list:
    """Every Node built from now on, in build order."""
    nodes = []
    init = Node.__init__

    def recording_init(self, *args):
        init(self, *args)
        nodes.append(self)

    monkeypatch.setattr(Node, "__init__", recording_init)
    return nodes


def test_path_history_memory_per_entry(monkeypatch):
    # A node keeps every path it has heard from in every round, so the
    # history is the run's memory.  Paths are packed ints, and a history
    # lists its incoming keys in 64-bit array slots under one (initiator,
    # value, node mask) record each: the whole run peaks at about 31-34 B per
    # retained history entry, against about 53 B with a list of the int
    # objects the senders share, about 91 B with a dict entry per key,
    # about 103 B with a new extended key per entry and about 220 B with
    # tuple paths and a record per path.
    nodes = record_nodes(monkeypatch)
    g = clique(6)
    tracemalloc.start()
    try:
        run(g, [i / 5 for i in range(6)], 1, builtin_plans(g, 1)["crash-min"],
            UniformDelay(seed=3), 1.0, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = sum(len(listings(rs)) for node in nodes
                  for rs in node.rounds.values())
    assert entries == 3 * 5 * 3201  # rounds x honest nodes x K5 paths
    assert peak / entries <= 40


@pytest.mark.parametrize("n,deliveries,key_list,key_bits", [
    (8, 504, array, 56), (9, 648, array, 64), (10, 810, list, 72)])
def test_directed_cycle_keys_fit_their_history(monkeypatch, n, deliveries,
                                              key_list, key_bits):
    # The longest redundant path of a directed n-cycle has 2n - 1 nodes, so
    # a history records incoming keys of 2n - 2 digits: 64 bits at n = 9,
    # all a 64-bit array slot holds, and 72 bits at n = 10, which only the
    # list fallback holds.
    nodes = record_nodes(monkeypatch)
    g = DiGraph(n, frozenset((v, (v + 1) % n) for v in range(n)))
    m = run(g, [i / (n - 1) for i in range(n)], 0, make_plan("none", {}),
            UniformDelay(seed=1), 1.0, 0.25)
    assert m.deliveries == deliveries
    assert m.outputs == dict.fromkeys(range(n), 0.5)
    histories = [keys for node in nodes for rs in node.rounds.values()
                 for masks in rs.recs.values() for keys in masks.values()]
    assert {type(keys) for keys in histories} == {key_list}
    assert max(p.bit_length() for keys in histories for p in keys) == key_bits


@pytest.mark.parametrize("n,f,plan", [(4, 1, "equivocator"), (4, 1, "forge"),
                                      (7, 2, "split-brain")])
def test_mute_senders_are_intercepted_only_for_own_values(monkeypatch, n, f,
                                                          plan):
    # Equivocators and non-forwarding forgers drop every send but their own
    # initial VALUEs, so only those reach the interceptor: one call per
    # out-neighbour per round started.
    g = clique(n)
    plans = builtin_plans(g, f)
    plans["forge"] = make_plan("forge", {3: ForgeComplete(
        claimed=frozenset({0}), omit=1, forward=False)})
    fp = plans[plan]
    assert fp.mute == fp.faulty
    calls = []
    intercept = PlanRuntime.intercept

    def spy(self, sender, dest, wire, node):
        calls.append(wire)
        return intercept(self, sender, dest, wire, node)

    monkeypatch.setattr(PlanRuntime, "intercept", spy)
    m = run(g, [i / (n - 1) for i in range(n)], f, fp, UniformDelay(seed=3),
            1.0, 0.25)
    assert assert_round_invariants(m).ok
    assert all(w[0] == VAL_T and w[3] <= n for w in calls)
    assert 0 < len(calls) <= len(fp.mute) * (n - 1) * m.r_out


# ---------------------------------------------------------------------------
# Negative control


def test_too_many_crashes_violate_invariants():
    plan = make_plan("overload", {2: Crash(0), 3: Crash(0)})
    metrics = run(K4, INPUTS4, 1, plan, UniformDelay(seed=7), 1.0, 0.25)
    report = assert_round_invariants(metrics)
    assert not report.ok
    assert metrics.stalled


# ---------------------------------------------------------------------------
# Regressions


def test_round_started_while_waking_every_round():
    # A FIFO frontier move wakes every round, and a sweep it triggers can
    # advance and start the next round in the middle of the wake-up.
    plan = builtin_plans(K4, 1)["forger"]
    metrics = run(K4, [0, 1, 1, 0], 1, plan,
                  UniformDelay(seed=3, lo=1, hi=7), 1.0, 0.25)
    assert assert_round_invariants(metrics).ok


def test_faulty_node_finishing_first_does_not_end_the_run():
    # The relaying faulty node reaches r_out before node 2 does; the run
    # ends only when every nonfaulty node has an output.
    plan = make_plan("t", {3: TamperForward(0.0)})
    metrics = run(K4, [0.75, 0.75, 0, 0.5], 1, plan,
                  UniformDelay(seed=0, lo=1, hi=7), 1.0, 0.25)
    assert not metrics.stalled
    assert all(metrics.outputs[v] is not None for v in (0, 1, 2))
    assert assert_round_invariants(metrics).ok
