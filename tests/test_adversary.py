"""Fault plans and the send interceptor."""

from itertools import permutations
from types import SimpleNamespace

import pytest

from reachcons import (Crash, DiGraph, Equivocate, ForgeComplete,
                       InvalidArgumentError, Silent, TamperForward,
                       builtin_plans, make_plan)
from reachcons.adversary import PlanRuntime
from reachcons.protocol import COMP_T, VAL_T, path_key


def clique(n):
    return DiGraph(n, frozenset(permutations(range(n), 2)))


K4 = clique(4)


def make_rt(behavior, node=3, g=K4):
    plan = make_plan("t", {node: behavior})
    return PlanRuntime(plan, g)


def init_wire(sender, x=0.5, rnd=0):
    return (VAL_T, rnd, x, path_key((sender,), 4), 1, 1 << sender, 0)


def fwd_wire(sender, prev, x=0.5, rnd=0):
    return (VAL_T, rnd, x, path_key((prev, sender), 4), 1,
            (1 << prev) | (1 << sender), 0)


def test_plan_structure():
    plan = make_plan("p", {2: Silent(), 0: Crash(1)})
    assert plan.faulty == {0, 2}
    assert isinstance(plan.behavior_of(2), Silent)
    assert plan.behavior_of(1) is None


def test_crash_counts_total_sends():
    rt = make_rt(Crash(2))
    node = SimpleNamespace(fifo_sent=0)
    w = init_wire(3)
    assert rt.intercept(3, 0, w, node) == [w]
    assert rt.intercept(3, 1, w, node) == [w]
    assert rt.intercept(3, 2, w, node) == []
    assert rt.intercept(3, 0, w, node) == []


def test_silent_drops_everything():
    rt = make_rt(Silent())
    node = SimpleNamespace(fifo_sent=0)
    assert rt.intercept(3, 0, init_wire(3), node) == []
    assert rt.intercept(3, 0, fwd_wire(3, 1), node) == []


def test_equivocate_per_destination_initiations_only():
    rt = make_rt(Equivocate(((0, 0.0), (1, 1.0))))
    node = SimpleNamespace(fifo_sent=0)
    out0 = rt.intercept(3, 0, init_wire(3, x=0.5), node)
    out1 = rt.intercept(3, 1, init_wire(3, x=0.5), node)
    assert out0[0][2] == 0.0 and out1[0][2] == 1.0
    # Unlisted destinations get the honest value; forwards are dropped.
    out2 = rt.intercept(3, 2, init_wire(3, x=0.5), node)
    assert out2[0][2] == 0.5
    assert rt.intercept(3, 0, fwd_wire(3, 1), node) == []


def test_tamper_mutates_forwards_only():
    rt = make_rt(TamperForward(0.25))
    node = SimpleNamespace(fifo_sent=0)
    w = init_wire(3, x=0.5)
    assert rt.intercept(3, 0, w, node) == [w]
    out = rt.intercept(3, 0, fwd_wire(3, 1, x=0.5), node)
    assert out[0][2] == 0.75
    # The path and walk state ride along unchanged.
    assert out[0][3:] == fwd_wire(3, 1)[3:]


def test_forge_emits_one_complete_per_round():
    b = ForgeComplete(claimed=frozenset({0}), omit=1, forged_value=0.5)
    rt = make_rt(b)
    node = SimpleNamespace(fifo_sent=0)
    out = rt.intercept(3, 0, init_wire(3), node)
    assert len(out) == 2
    forged = out[1]
    assert forged[0] == COMP_T and forged[2] == 3 and forged[5] == (3,)
    payload = forged[4]
    assert payload.claimed_mask == 1  # node 0 claimed faulty
    assert payload.value_for(1) is None  # omitted
    assert payload.value_for(2) == 0.5
    # Every destination gets the same flooded forgery: one counter, one
    # payload per round, never a second fabrication.
    again = rt.intercept(3, 1, init_wire(3), node)
    assert again[1][3] == forged[3] and again[1][4] is payload
    assert node.fifo_sent == 1
    # Non-forwarding mode drops relayed traffic.
    assert rt.intercept(3, 0, fwd_wire(3, 1), node) == []


def test_intercept_rejects_paths_not_ending_at_sender():
    rt = make_rt(Crash(5))
    node = SimpleNamespace(fifo_sent=0)
    with pytest.raises(InvalidArgumentError):
        rt.intercept(3, 0, init_wire(1), node)
    # Packed key (3, 1): the sender is on the path, but not its last hop.
    with pytest.raises(InvalidArgumentError):
        rt.intercept(3, 0, fwd_wire(1, 3), node)
    assert rt.intercept(3, 0, fwd_wire(3, 1), node) == [fwd_wire(3, 1)]


def test_builtin_plans_cover_the_named_set():
    plans = builtin_plans(K4, 1)
    assert sorted(plans) == ["crash-max", "crash-min", "equivocator",
                             "forger", "split-brain"]
    assert plans["crash-min"].faulty == {3}
    assert plans["crash-max"].faulty == {3}
    plans2 = builtin_plans(clique(7), 2)
    assert plans2["crash-max"].faulty == {5, 6}
    assert plans2["split-brain"].faulty == {5, 6}
    assert len(plans2["equivocator"].faulty) == 1


def test_mute_names_behaviors_that_emit_only_their_own_values():
    plans = builtin_plans(clique(7), 2)
    assert plans["split-brain"].mute == {5, 6}
    assert plans["equivocator"].mute == {6}
    assert plans["forger"].mute == {6}  # forwards nothing at n > 5
    assert not plans["crash-min"].mute
    assert builtin_plans(K4, 1)["forger"].mute == set()  # forwards at n <= 5
    plan = make_plan("t", {0: Crash(3), 1: TamperForward(0.1), 2: Silent()})
    assert not plan.mute


def test_builtin_plans_fault_free_when_f_zero():
    plans = builtin_plans(K4, 0)
    assert all(not p.faulty for p in plans.values())
