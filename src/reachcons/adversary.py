"""Fault plans: behaviors bound to faulty nodes, applied as send interceptors.

Faulty nodes run the honest runtime internally; every outgoing message passes
through the plan, which may drop, mutate, or multiply it.  The simulator drops
the sends of a mute node (`FaultPlan.mute`) that the plan would drop anyway
without asking it.  Wires of both kinds carry their path as a packed key
(see `protocol.path_key`).  No behavior may emit a path whose last hop is
not the sender itself; that rule is enforced structurally on every emission.

Every emission of a faulty node passes through `PlanRuntime.intercept`, so
that is where forged keys are checked, for both kinds: it replaces the walk
state a wire claims with the greedy parse of its key, or with phase 0 when
the key is not a path of its kind (a redundant path for a VALUE, a simple
path for a COMPLETE), which receivers drop.  An honest sender's state is the
parse already (it extends a state that was checked one hop upstream), so
receivers trust wire states and never reparse a key; the flood's millions of
honest deliveries pay nothing for the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .errors import InvalidArgumentError
from .graph import DiGraph, _walk_state, mask_of
from .protocol import COMP_T, VAL_T, PayloadView, path_last, path_of


@dataclass(frozen=True)
class Crash:
    """Allow the first `after` sends, then drop everything."""

    after: int = 0


@dataclass(frozen=True)
class Silent:
    """Never send anything."""


@dataclass(frozen=True)
class Equivocate:
    """Send a per-neighbor value at round start; never forward anything.

    values is a sorted tuple of (destination, value) pairs.
    """

    values: tuple


@dataclass(frozen=True)
class TamperForward:
    """Forward values mutated by a constant offset; initiate honestly."""

    value_delta: float = 0.0


@dataclass(frozen=True)
class ForgeComplete:
    """Initiate honestly and additionally flood one forged COMPLETE per round.

    The forged announcement claims the given fault set and carries a
    fabricated value map that omits one node, so receivers evaluating it see
    a missing source-component value.  When forward is true the node
    otherwise behaves honestly (needed for the forgery to reach verification
    on small graphs); when false it forwards nothing.
    """

    omit: int
    claimed: frozenset = frozenset()
    forged_value: float = 0.5
    forward: bool = False


@dataclass(frozen=True)
class FaultPlan:
    name: str
    behaviors: tuple  # sorted tuple of (node, behavior)

    @property
    def faulty(self) -> frozenset:
        return frozenset(v for v, _ in self.behaviors)

    @property
    def inert(self) -> frozenset:
        """Faulty nodes whose behavior never emits a message.  Nothing they
        receive can affect the run, so the simulator need not process it."""
        return frozenset(
            v for v, b in self.behaviors
            if isinstance(b, Silent)
            or (isinstance(b, Crash) and b.after <= 0))

    @property
    def mute(self) -> frozenset:
        """Faulty nodes whose behavior emits only their own initial VALUEs
        (with the forged COMPLETE riding on them) and drops every other
        send.  They still receive, since their round progress times those
        initial VALUEs."""
        return frozenset(
            v for v, b in self.behaviors
            if isinstance(b, Equivocate)
            or (isinstance(b, ForgeComplete) and not b.forward))

    def behavior_of(self, v: int):
        for node, b in self.behaviors:
            if node == v:
                return b
        return None


def make_plan(name: str, behaviors: Dict[int, object]) -> FaultPlan:
    return FaultPlan(name, tuple(sorted(behaviors.items(),
                                        key=lambda kv: kv[0])))


class PlanRuntime:
    """Per-run mutable adversary state (send counters, forged payloads).
    Built per run, it checks each behaviour's fields against the graph."""

    def __init__(self, plan: FaultPlan, g: DiGraph):
        for v, b in plan.behaviors:
            named, values = [v], []
            if isinstance(b, Crash) and type(b.after) is not int:
                raise InvalidArgumentError(
                    f"crash of node {v} after {b.after!r} sends: need an int")
            if isinstance(b, ForgeComplete):
                if type(b.forward) is not bool:
                    raise InvalidArgumentError(
                        f"forge of node {v} with forward={b.forward!r}: "
                        f"need a bool")
                named += [b.omit, *b.claimed]
                values.append(b.forged_value)
            elif isinstance(b, Equivocate):
                named += [w for w, _ in b.values]
                values += [x for _, x in b.values]
            elif isinstance(b, TamperForward):
                values.append(b.value_delta)
            for w in named:
                # 0.0 and True compare equal to node ids, but are not ones.
                if type(w) is not int or w not in g.nodes:
                    raise InvalidArgumentError(
                        f"plan for node {v!r} names node {w!r}, not one of "
                        f"the graph's {g.n} nodes")
            for x in values:
                if not (isinstance(x, (int, float))
                        and not isinstance(x, bool) and math.isfinite(x)):
                    raise InvalidArgumentError(
                        f"plan for node {v!r} sets a value of {x!r}, not "
                        f"a finite real")
        self.g = g
        self.sent = {v: 0 for v in plan.faulty}
        self._behaviors = dict(plan.behaviors)
        self.forged = {}  # (node, round) -> COMPLETE body (counter, payload)
        self.equiv_maps = {
            v: dict(b.values) for v, b in plan.behaviors
            if isinstance(b, Equivocate)
        }
        # A flood hands one wire to every out-neighbour in turn, so the last
        # key parsed is the next one asked for: (key, wire state).
        self._last_parse = (None, None)

    def intercept(self, sender: int, dest: int, wire: tuple, node) -> list:
        """The sender's emissions for one send.  Each leaves with the walk
        state of its key, (0, 0, 0) if the key is not a path of its kind:
        a redundant path for a VALUE, a simple path for a COMPLETE."""
        g = self.g
        out = []
        for m in self._apply(sender, dest, wire, node):
            key = m[3]
            if path_last(key, g.n) != sender:
                raise InvalidArgumentError(
                    "adversary emitted a path not ending at the sender")
            parsed, state = self._last_parse
            if parsed != key:
                state = _walk_state(g, path_of(key, g.n))
                state = state[:3] if state else (0, 0, 0)
                self._last_parse = (key, state)
            if m[0] == COMP_T and state[0] != 1:
                state = (0, 0, 0)
            out.append(m[:4] + state)
        return out

    def _apply(self, sender: int, dest: int, wire: tuple, node) -> list:
        b = self._behaviors.get(sender)
        if isinstance(b, Silent):
            return []
        if isinstance(b, Crash):
            idx = self.sent[sender]
            self.sent[sender] += 1
            return [wire] if idx < b.after else []
        # A VALUE key of at most n is a one-node path: the sender's own value.
        tag = wire[0]
        own = tag == VAL_T and wire[3] <= self.g.n
        if isinstance(b, Equivocate):
            if own:
                x = self.equiv_maps[sender].get(dest, wire[2])
                return [(VAL_T, wire[1], x) + wire[3:]]
            return []
        if isinstance(b, TamperForward):
            if tag == VAL_T and not own:
                return [(VAL_T, wire[1], wire[2] + b.value_delta)
                        + wire[3:]]
            return [wire]
        if isinstance(b, ForgeComplete):
            return self._forge(sender, dest, wire, node, b, own)
        return [wire]

    def _forge(self, sender, dest, wire, node, b: ForgeComplete,
               own: bool) -> list:
        if own:
            rnd = wire[1]
            body = self.forged.get((sender, rnd))
            if body is None:
                node.fifo_sent += 1
                excluded = set(b.claimed) | {b.omit}
                values = tuple(sorted(
                    (q, b.forged_value) for q in range(self.g.n)
                    if q not in excluded))
                payload = PayloadView(rnd, mask_of(b.claimed), values)
                body = self.forged[(sender, rnd)] = (node.fifo_sent, payload)
            # The forgery travels on the own VALUE's one-node path.
            return [wire, (COMP_T, rnd, body) + wire[3:]]
        if b.forward:
            return [wire]
        # Non-forwarding mode: keep only own honest announcements out too,
        # dropped along with forwarded traffic to bound flood volume.
        return []


def builtin_plans(g: DiGraph, f: int, K: float = 1.0) -> Dict[str, FaultPlan]:
    """The named stock fault plans, bound to a graph and fault budget.

    Faulty nodes are always the highest-id ones so plans are deterministic.
    With f = 0 every plan is fault-free.
    """
    n = g.n
    plans: Dict[str, FaultPlan] = {}
    if f <= 0 or n < 2:
        for name in ("crash-min", "crash-max", "equivocator", "forger",
                     "split-brain"):
            plans[name] = make_plan(name, {})
        return plans

    def top(k: int) -> list:
        return list(range(n - k, n))

    plans["crash-min"] = make_plan("crash-min", {n - 1: Crash(0)})
    plans["crash-max"] = make_plan(
        "crash-max", {v: Crash(0) for v in top(f)})
    even_odd = tuple(sorted(
        (w, 0.0 if w % 2 == 0 else K) for w in g.out_neighbors(n - 1)))
    plans["equivocator"] = make_plan(
        "equivocator", {n - 1: Equivocate(even_odd)})
    if n >= 3:
        plans["forger"] = make_plan("forger", {
            n - 1: ForgeComplete(claimed=frozenset({0}), omit=1,
                                 forged_value=K / 2.0, forward=n <= 5)})
    else:
        plans["forger"] = make_plan("forger", {n - 1: Crash(0)})
    split = {}
    for v in top(f):
        vals = tuple(sorted(
            (w, 0.0 if w < n / 2 else K) for w in g.out_neighbors(v)))
        split[v] = Equivocate(vals)
    plans["split-brain"] = make_plan("split-brain", split)
    return plans
