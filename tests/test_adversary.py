"""Fault plans and the send interceptor."""

from itertools import permutations, product
from types import SimpleNamespace

import pytest

from reachcons import (Crash, DiGraph, Equivocate, ForgeComplete,
                       InvalidArgumentError, Silent, TamperForward,
                       UniformDelay, assert_round_invariants, builtin_plans,
                       enumerate_redundant_paths, is_redundant_path,
                       make_plan, run)
from reachcons import adversary
from reachcons.adversary import PlanRuntime
from reachcons.graph import _walk_state
from reachcons.protocol import (COMP_T, VAL_T, Node, PayloadView, path_init,
                                path_key, path_of)
from reachcons.simnet import SimWorld
from test_golden import K4_INPUTS, K4_PINS, K7_INPUTS, delay_policy


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
    # The forgery's key is the one-node path (3,), with its walk state.
    assert forged[0] == COMP_T and forged[1] == 0
    assert forged[3:] == (path_key((3,), 4), 1, 1 << 3, 0)
    k, payload = forged[2]
    assert k == 1
    assert payload.claimed_mask == 1  # node 0 claimed faulty
    assert payload.value_for(1) is None  # omitted
    assert payload.value_for(2) == 0.5
    # Every destination gets the same flooded forgery: one counter, one
    # payload per round, never a second fabrication.
    again = rt.intercept(3, 1, init_wire(3), node)
    assert again[1] == forged and again[1][2][1] is payload
    assert node.fifo_sent == 1
    # Non-forwarding mode drops relayed traffic.
    assert rt.intercept(3, 0, fwd_wire(3, 1), node) == []


@pytest.mark.parametrize("behavior", [
    ForgeComplete(claimed=frozenset({0.0}), omit=1),
    ForgeComplete(claimed=frozenset({True}), omit=2),
    ForgeComplete(claimed=frozenset({0}), omit=1.0),
    Equivocate(((False, 0.5),)),
], ids=["float-claimed", "bool-claimed", "float-omit", "bool-dest"])
def test_plan_node_ids_must_be_ints(behavior):
    # Each compares equal to a node id of K4, but is not one.
    with pytest.raises(InvalidArgumentError, match="names node"):
        make_rt(behavior)


def test_intercept_rejects_paths_not_ending_at_sender():
    rt = make_rt(Crash(5))
    node = SimpleNamespace(fifo_sent=0)
    with pytest.raises(InvalidArgumentError):
        rt.intercept(3, 0, init_wire(1), node)
    # Packed key (3, 1): the sender is on the path, but not its last hop.
    with pytest.raises(InvalidArgumentError):
        rt.intercept(3, 0, fwd_wire(1, 3), node)
    assert rt.intercept(3, 0, fwd_wire(3, 1), node) == [fwd_wire(3, 1)]
    # The same rule holds for a COMPLETE.
    body = (1, PayloadView(0, 0, ()))
    with pytest.raises(InvalidArgumentError):
        rt.intercept(3, 0, (COMP_T, 0, body) + fwd_wire(1, 3)[3:], node)


def test_intercept_sets_the_walk_state_of_each_value_key(monkeypatch):
    rt = make_rt(Crash(20))
    node = SimpleNamespace(fifo_sent=0)
    key = path_key((0, 1, 3), 4)
    # A real key with an understated mask leaves with its parsed state.
    out = rt.intercept(3, 0, (VAL_T, 0, 0.5, key, 1, 1 << 3, 0), node)
    assert out == [(VAL_T, 0, 0.5, key, 1, 0b1011, 0)]
    # A key that is not a redundant path (3 -> 3 is no edge) gets phase 0.
    junk = (VAL_T, 0, 0.5, path_key((3, 3), 4), 1, 1 << 3, 0)
    assert rt.intercept(3, 0, junk, node) == [junk[:4] + (0, 0, 0)]
    # A COMPLETE gets the same check: an understated mask gets its parse,
    # and a key that is no path gets phase 0.
    body = (1, PayloadView(0, 0, ()))
    out = rt.intercept(3, 0, (COMP_T, 0, body, key, 1, 1 << 3, 0), node)
    assert out == [(COMP_T, 0, body, key, 1, 0b1011, 0)]
    assert rt.intercept(3, 0, (COMP_T, 0, body) + junk[3:], node) == [
        (COMP_T, 0, body) + junk[3:4] + (0, 0, 0)]
    # (3, 0, 3) is a redundant path but not a simple one: phase 2 as a
    # VALUE and phase 0 as a COMPLETE, also when the other kind's parse of
    # the key is reused.
    parses = []

    def counted_walk_state(g, seq):
        parses.append(seq)
        return _walk_state(g, seq)

    monkeypatch.setattr(adversary, "_walk_state", counted_walk_state)
    loop = path_key((3, 0, 3), 4)
    as_value = (VAL_T, 0, 0.5, loop, 1, 1 << 3, 0)
    as_complete = (COMP_T, 0, body, loop, 1, 1 << 3, 0)
    value_out = [(VAL_T, 0, 0.5, loop, 2, 0b1001, 0b1001)]
    complete_out = [(COMP_T, 0, body, loop, 0, 0, 0)]
    for dest in range(3):
        assert rt.intercept(3, dest, as_value, node) == value_out
        assert rt.intercept(3, dest, as_complete, node) == complete_out
    assert parses == [(3, 0, 3)]


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


# ---------------------------------------------------------------------------
# Forged VALUE prefixes, checked where they enter


def forged_keys(g, v, repro):
    """Keys a faulty node `v` adds to its own round-start VALUEs.

    Repro A: every node sequence of length 4 or 5 ending at v that is not a
    redundant path of g.  Repro B: every real redundant path of length at
    least 2 ending at v.  Either way the forger claims the walk state
    (1, {v}, 0), which understates the mask of every real key.
    """
    n = g.n
    if repro == "A":
        seqs = (s + (v,) for size in (3, 4)
                for s in product(range(n), repeat=size))
        return [path_key(s, n) for s in seqs if not is_redundant_path(g, s)]
    return [path_key(p.nodes, n)
            for p in enumerate_redundant_paths(g, frozenset(), v)
            if len(p.nodes) >= 2]


def forge_prefixes(monkeypatch, keys, forger=3):
    """Make `forger` send one extra VALUE per key with each of its own
    round-start VALUEs, carrying its own value."""
    apply = PlanRuntime._apply

    def forging(self, sender, dest, wire, node):
        out = apply(self, sender, dest, wire, node)
        if sender == forger and wire[0] == VAL_T and wire[3] <= self.g.n:
            out = out + [(VAL_T, wire[1], wire[2], k, 1, 1 << forger, 0)
                         for k in keys]
        return out

    monkeypatch.setattr(PlanRuntime, "_apply", forging)


def is_simple_path(g, p):
    return len(set(p)) == len(p) and all(
        g.has_edge(u, v) for u, v in zip(p, p[1:]))


def check_wire_states(monkeypatch, g):
    """Check every wire handed to a receiver.  A VALUE's (phase, m1, m2) is
    the walk state of its key, or (0, 0, 0) exactly when the key is not a
    redundant path of g.  A COMPLETE's is (1, node mask, 0) when its key is
    a simple path of g, and (0, 0, 0) otherwise.  Returns the checked
    wires' phases, by tag."""
    deliver = Node.on_deliver
    phases = {VAL_T: [], COMP_T: []}

    def checked(self, msg):
        p = path_of(msg[3], g.n)
        if msg[0] == VAL_T:
            state = _walk_state(g, p)
            assert msg[4:] == (state[:3] if state else (0, 0, 0))
        elif is_simple_path(g, p):
            assert msg[4:] == (1, sum(1 << v for v in p), 0)
        else:
            assert msg[4:] == (0, 0, 0)
        phases[msg[0]].append(msg[4])
        deliver(self, msg)

    monkeypatch.setattr(Node, "on_deliver", checked)
    return phases


REPRO_PLAN = make_plan("tamper", {3: TamperForward(0.0)})


def test_forged_key_counts():
    assert len(forged_keys(K4, 3, "A")) == 248
    assert len(forged_keys(K4, 3, "B")) == 180


@pytest.mark.parametrize("repro", ["A", "B"])
@pytest.mark.parametrize("seed", range(5))
def test_forged_prefixes_cannot_fill_a_thread(monkeypatch, repro, seed):
    # Forged keys that are not redundant paths, or real keys with an
    # understated node mask, used to make honest threads "full" early and
    # stall every run.  The boundary check gives them their true state.
    forge_prefixes(monkeypatch, forged_keys(K4, 3, repro))
    m = run(K4, [0.0, 1.0, 1.0, 0.0], 1, REPRO_PLAN, UniformDelay(seed=seed),
            1.0, 0.25)
    assert not m.stalled
    assert all(m.outputs[v] is not None for v in m.honest)
    assert assert_round_invariants(m).ok


WIRE_CASES = ([("golden", plan, di) for plan, di in sorted(K4_PINS)]
              + [("repro", r, seed) for r in "AB" for seed in range(5)])


@pytest.mark.parametrize("case,plan,di", WIRE_CASES)
def test_delivered_wire_states_are_walk_states(monkeypatch, case, plan, di):
    # Receivers extend the wire's state instead of parsing the key, so the
    # state an honest sender extends, and the one the boundary check sets
    # on a faulty emission, must both equal the parse.
    phases = check_wire_states(monkeypatch, K4)
    if case == "golden":
        run(K4, K4_INPUTS, 1, builtin_plans(K4, 1)[plan],
            delay_policy(di, 4), 1.0, 0.25)
    else:
        forge_prefixes(monkeypatch, forged_keys(K4, 3, plan))
        run(K4, [0.0, 1.0, 1.0, 0.0], 1, REPRO_PLAN, UniformDelay(seed=di),
            1.0, 0.25)
    assert phases[VAL_T] and phases[COMP_T]
    # Only repro A forges keys that are not redundant paths, and no
    # COMPLETE is forged.
    assert (0 in phases[VAL_T]) == (plan == "A")
    assert 0 not in phases[COMP_T]


@pytest.mark.parametrize("case,plan,di", WIRE_CASES)
def test_every_queued_wire_ends_at_its_sender(monkeypatch, case, plan, di):
    # Events and buffered wires carry no sender: the receiver and the trace
    # read it from the key's last hop.  Honest senders queue through
    # send_flood, and a faulty sender's emissions leave intercept.
    hop = (1 << K4.n.bit_length()) - 1
    checked = {"honest": 0, "faulty": 0}
    send_flood = SimWorld.send_flood
    intercept = PlanRuntime.intercept

    def honest(self, sender, dests, wire):
        if sender not in self._faulty:
            assert wire[3] & hop == sender + 1
            checked["honest"] += 1
        return send_flood(self, sender, dests, wire)

    def faulty(self, sender, dest, wire, node):
        out = intercept(self, sender, dest, wire, node)
        for m in out:
            assert m[3] & hop == sender + 1
        checked["faulty"] += len(out)
        return out

    monkeypatch.setattr(SimWorld, "send_flood", honest)
    monkeypatch.setattr(PlanRuntime, "intercept", faulty)
    if case == "golden":
        run(K4, K4_INPUTS, 1, builtin_plans(K4, 1)[plan],
            delay_policy(di, 4), 1.0, 0.25)
    else:
        forge_prefixes(monkeypatch, forged_keys(K4, 3, plan))
        run(K4, [0.0, 1.0, 1.0, 0.0], 1, REPRO_PLAN, UniformDelay(seed=di),
            1.0, 0.25)
    assert checked["honest"]
    # Crashed senders emit nothing; every other faulty sender emits.
    assert bool(checked["faulty"]) == (not plan.startswith("crash"))


def test_junk_complete_paths_are_dropped(monkeypatch):
    # Node 3 relays every COMPLETE honestly and also with junk keys, each
    # claiming the state (1, {3}, 0): one that repeats the initiator, one
    # that ends on a self-loop, and one that appends (0, 3), a redundant
    # path of K4 but never a simple one.  No receiver counts a path that is
    # not a simple path of g.
    apply = PlanRuntime._apply

    def junk(self, sender, dest, wire, node):
        out = apply(self, sender, dest, wire, node)
        if sender == 3 and wire[0] == COMP_T:
            key = wire[3]
            init = path_init(key, 4) + 1
            out = out + [wire[:3] + (k, 1, 1 << 3, 0) for k in (
                (key << 3 | init) << 3 | 4, key << 3 | 4,
                (key << 3 | 1) << 3 | 4)]
        return out

    counted = []
    receive = Node._receive_complete

    def spy(self, rstate, msg):
        counted.append(path_of(msg[3], 4) + (self.me,))
        return receive(self, rstate, msg)

    phases = check_wire_states(monkeypatch, K4)
    monkeypatch.setattr(PlanRuntime, "_apply", junk)
    monkeypatch.setattr(Node, "_receive_complete", spy)
    for seed in range(5):
        m = run(K4, [0.0, 1.0, 1.0, 0.0], 1, REPRO_PLAN,
                UniformDelay(seed=seed), 1.0, 0.25)
        assert not m.stalled
        assert assert_round_invariants(m).ok
    assert counted
    assert all(is_simple_path(K4, q) for q in counted)
    # The junk reached receivers, and each was marked as no path.
    assert 0 in phases[COMP_T]


def test_relaying_adversary_at_f2(monkeypatch):
    # K7 at f = 2 with one crashed node and one that tampers with every
    # value it relays: the boundary check runs on each relayed key.
    g = clique(7)
    plan = make_plan("relay", {5: Crash(0), 6: TamperForward(0.3)})
    phases = check_wire_states(monkeypatch, g)
    # A flood hands one wire to each out-neighbour in turn: each relayed
    # key is parsed once per kind and round, not once per destination.
    parses, emitted = [], set()
    intercept = PlanRuntime.intercept

    def counted_walk_state(g, seq):
        parses.append(seq)
        return _walk_state(g, seq)

    def recording(self, sender, dest, wire, node):
        out = intercept(self, sender, dest, wire, node)
        emitted.update((m[0], m[1], m[3]) for m in out)
        return out

    monkeypatch.setattr(adversary, "_walk_state", counted_walk_state)
    monkeypatch.setattr(PlanRuntime, "intercept", recording)
    m = run(g, K7_INPUTS, 2, plan, UniformDelay(seed=3), 1.0, 0.25)
    assert not m.stalled
    assert assert_round_invariants(m).ok
    assert m.deliveries == 1_123_003
    assert phases[VAL_T] and phases[COMP_T]
    assert 0 not in phases[VAL_T] + phases[COMP_T]
    assert 0 < len(parses) <= len(emitted)
