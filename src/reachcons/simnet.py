"""Deterministic discrete-event network simulator.

Logical time is an integer clock; every send is scheduled with a policy-drawn
positive delay into the FIFO bucket of its delivery time, and buckets are
drained in time order, so events arrive in (time, send order) order and runs
are bit-for-bit reproducible from (graph, inputs, plan, policy).  Links are
reliable but unordered; ordering guarantees come only from the protocol's
own counters.  A wire's sender is its key's last hop, which
`PlanRuntime.intercept` enforces on every faulty emission, so an event
holds no sender: its trace line reads it from the key.

`SimWorld.send_flood` is the one loop that draws delays and fills buckets.
An honest node floods through it; a faulty node through `SimWorld.send`,
which drops a mute sender's sends (`FaultPlan.mute`), passes the rest
through the plan and queues each emission through `send_flood`.

A bucket holds its events flat, three slots each: `dest, wire, sent_at`.
Faulty nodes whose behaviour can never emit (`FaultPlan.inert`) are not
simulated: deliveries to them are counted and traced, then discarded.  Such
a send still draws its delay, so the random stream and the delivery count
stay exact; an untraced run queues None as its wire, and a traced one the
wire its trace line is read from.

A traced run hands each delivery's JSONL line to the trace callable as the
delivery happens, so no record outlives its delivery.  A line is formatted
straight from the wire: the path's text is read from its packed key a chunk
of digits at a time through two small per-run tables, and a value's text is
made once per value object.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .adversary import FaultPlan, PlanRuntime
from .conditions import check_k_reach
from .errors import BudgetError, InvalidArgumentError
from .graph import (DiGraph, _source_component_mask, mask_of, set_of,
                    subset_masks)
from .protocol import VAL_T, Node, path_init


# ---------------------------------------------------------------------------
# Delay policies


class UniformDelay:
    """Independent uniform integer delay on every send.  The other two
    policies subclass it: its checks, and its draw (repeated inline, so one
    draw is one delay call) plus one step."""

    nodes = frozenset()  # the nodes it names: a run refuses any not in g

    def __init__(self, seed: int, lo: int = 1, hi: int = 4):
        # random.Random would seed None from OS entropy: no run repeats.
        if type(seed) is not int:
            raise InvalidArgumentError(
                f"delay seed must be an integer, got {seed!r}")
        self._require("lo", lo, 1)
        self._require("hi", hi, lo)
        self.seed, self.lo, self.hi = seed, lo, hi
        self._random = random.Random(seed).random
        self._span = hi - lo + 1

    @staticmethod
    def _require(name: str, value, least: int):
        # Not a bool, nor a float that would leave the integer clock.
        if type(value) is not int or value < least:
            raise InvalidArgumentError(
                f"delay {name} must be an integer >= {least}, "
                f"got {value!r}")

    def delay(self, sender: int, dest: int) -> int:
        return self.lo + int(self._random() * self._span)


class TargetedSlowDelay(UniformDelay):
    """Uniform base delay, multiplied on a chosen set of victim edges."""

    def __init__(self, seed: int, victims: frozenset = frozenset(),
                 factor: int = 5, lo: int = 1, hi: int = 4):
        self._require("factor", factor, 1)
        super().__init__(seed, lo, hi)
        for edge in victims:
            if not (type(edge) is tuple and len(edge) == 2
                    and all(type(v) is int for v in edge)):
                raise InvalidArgumentError(
                    f"delay victims must be pairs of node ids, "
                    f"got {edge!r}")
        self.victims, self.factor = frozenset(victims), factor
        self.nodes = frozenset(v for edge in self.victims for v in edge)

    def delay(self, sender: int, dest: int) -> int:
        base = self.lo + int(self._random() * self._span)
        if (sender, dest) in self.victims:
            return base * self.factor
        return base


class RoundSkewDelay(UniformDelay):
    """Uniform base delay plus a fixed per-sender offset."""

    def __init__(self, seed: int, offsets: Optional[Dict[int, int]] = None,
                 lo: int = 1, hi: int = 2):
        offsets = dict(offsets or {})
        for v, o in offsets.items():
            if type(v) is not int:
                raise InvalidArgumentError(
                    f"delay offsets must be keyed by node ids, got {v!r}")
            self._require(f"offset of node {v}", o, 0)
        super().__init__(seed, lo, hi)
        self.offsets, self.nodes = offsets, frozenset(offsets)

    def delay(self, sender: int, dest: int) -> int:
        return (self.lo + int(self._random() * self._span)
                + self.offsets.get(sender, 0))


# ---------------------------------------------------------------------------
# Budgets and metrics


@dataclass(frozen=True)
class Budgets:
    max_n: int = 10
    max_threads: int = 2000
    max_deliveries: int = 30_000_000


@dataclass
class RunMetrics:
    g: DiGraph
    f: int
    K: float
    eps: float
    r_out: int
    faulty: frozenset
    inputs: list
    three_reach: bool
    U: list = field(default_factory=list)
    mu: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    fa_records: dict = field(default_factory=dict)  # (node, round) -> FARecord
    latches: dict = field(default_factory=dict)  # (node, round, fv) -> payload
    stalled: bool = False
    deliveries: int = 0

    @property
    def honest(self) -> list:
        return [v for v in range(self.g.n) if v not in self.faulty]

    def spread(self, r: int) -> Optional[float]:
        if self.U[r] is None or self.mu[r] is None:
            return None
        return self.U[r] - self.mu[r]


# ---------------------------------------------------------------------------
# The event loop


class SimWorld:
    def __init__(self, g: DiGraph, f: int, r_out: int, plan: FaultPlan,
                 delay, trace: Optional[Callable[[str], object]]):
        self.g = g
        self.f = f
        self.r_out = r_out
        self.plan_rt = PlanRuntime(plan, g)
        outside = sorted(delay.nodes.difference(g.nodes))
        if outside:
            raise InvalidArgumentError(
                f"delay policy names nodes {outside} outside range({g.n})")
        self._faulty = plan.faulty
        self._delay = delay.delay
        self.time = 0
        # deliver time -> [dest, wire, sent_at, dest, wire, ...], three flat
        # slots per event in send order, and a heap of the distinct deliver
        # times.  An untraced run queues None as the wire of a send to an
        # inert node, so no wire outlives its handled deliveries.
        self.buckets: dict = {}
        self.times: list = []
        self.inert = plan.inert
        self._wireless = plan.inert if trace is None else frozenset()
        self._mute = plan.mute
        self.deliveries = 0
        self.pending_honest = 0
        self.trace = trace
        # Text caches of _trace_record, filled as traced lines need them.
        self._path_text = None
        self._hop = (1 << g.n.bit_length()) - 1  # a key's last digit
        self._value_text: dict = {}
        self._cover_cands: dict = {}
        self.all_candidate_masks = tuple(sorted(subset_masks(g.n, f)))
        self.nodes: List[Node] = []

    def cover_cands(self, universe_mask: int) -> tuple:
        # Nonempty subsets of the universe with at most f members, in
        # (size, lex) order.
        cached = self._cover_cands.get(universe_mask)
        if cached is None:
            cached = self._cover_cands[universe_mask] = tuple(
                m for m in subset_masks(self.g.n, self.f)
                if m and not m & ~universe_mask)
        return cached

    def note_done(self, v: int):
        if v not in self._faulty:
            self.pending_honest -= 1

    def send(self, sender: int, dests, wire: tuple):
        """A faulty sender's flood: drop it if the sender is mute, else
        queue, through send_flood, what the plan makes of each send."""
        # A mute sender emits its own initial VALUEs (one-node keys are at
        # most n) and nothing else.  Dropped sends draw no delay.
        if sender in self._mute and not (
                wire[0] == VAL_T and wire[3] <= self.g.n):
            return
        node = self.nodes[sender]
        for dest in dests:
            for m in self.plan_rt.intercept(sender, dest, wire, node):
                self.send_flood(sender, (dest,), m)

    def send_flood(self, sender: int, dests, wire: tuple):
        """Queue one wire to each destination.  This is the only loop that
        draws delays and fills buckets: an honest node floods through it,
        and `send` queues each faulty emission through it."""
        # Appending to the bucket of the delivery time keeps send order
        # within a time; the heap holds each distinct time once.
        now = self.time
        buckets = self.buckets
        delay = self._delay
        wireless = self._wireless
        for dest in dests:
            t = now + delay(sender, dest)
            bucket = buckets.get(t)
            if bucket is None:
                bucket = buckets[t] = []
                heapq.heappush(self.times, t)
            bucket += (dest, None if dest in wireless else wire, now)

    def run_loop(self, budget: int):
        # Deliveries to inert nodes are counted and traced, not handled.
        handlers = [None if v in self.inert else node.on_deliver
                    for v, node in enumerate(self.nodes)]
        buckets = self.buckets
        times = self.times
        pop = heapq.heappop
        delivered = 0
        trace = self.trace
        while times:
            self.time = t = pop(times)
            # A send to time t while this bucket drains would open a fresh
            # bucket for t, popped next: the order stays exact.
            events = iter(buckets.pop(t))
            for dest, m, sent_at in zip(events, events, events):
                if self.pending_honest <= 0:
                    self.deliveries = delivered
                    return
                delivered += 1
                if delivered > budget:
                    self.deliveries = delivered
                    raise self._budget_error(budget)
                if trace is not None:
                    trace(self._trace_record(dest, m, sent_at, t))
                handler = handlers[dest]
                if handler is not None:
                    handler(m)
        self.deliveries = delivered

    def _budget_error(self, budget: int) -> BudgetError:
        """The error for a run stopped at its delivery budget, naming the
        deliveries made and where each honest node stood."""
        progress = ", ".join(
            f"node {v} done" if node.output is not None
            else f"node {v} in round {node.round}"
            for v, node in enumerate(self.nodes) if v not in self._faulty)
        return BudgetError(
            f"delivery budget of {budget} exceeded after {budget} "
            f"deliveries ({progress}); the flood on this graph is too large "
            f"for explicit simulation")

    def _trace_record(self, dest, m, sent_at, t) -> str:
        """The delivery's JSONL line, byte for byte what
        `json.dumps(record, sort_keys=True) + "\\n"` writes.  The sender
        is the key's last hop."""
        # The path's text is read chunk by chunk from the bottom of its key
        # (see _path_text_tables), never decoded to nodes.
        tables = self._path_text
        if tables is None:
            tables = self._path_text = _path_text_tables(self.g.n)
        top, tail, cbits, cmask = tables
        key = m[3]
        sender = (key & self._hop) - 1
        path = ""
        while key > cmask:
            path = tail[key & cmask] + path
            key >>= cbits
        path = top[key] + path
        if m[0] == VAL_T:
            # One repr per value object: 0, 0.0 and -0.0 hash alike, so an
            # entry is reused only for the very object it was made from.
            x = m[2]
            entry = self._value_text.get(x)
            if entry is None or entry[0] is not x:
                text = repr(x)
                entry = self._value_text[x] = (
                    x, _JSON_NONFINITE.get(text, text))
            return (f'{{"deliver_time": {t}, "kind": "value", '
                    f'"path": [{path}], "receiver": {dest}, '
                    f'"round": {m[1]}, "send_time": {sent_at}, '
                    f'"sender": {sender}, "value": {entry[1]}}}\n')
        k, payload = m[2]
        claimed = ", ".join(map(str, sorted(set_of(payload.claimed_mask))))
        return (f'{{"claimed": [{claimed}], "deliver_time": {t}, '
                f'"fifo_counter": {k}, "init": {path_init(m[3], self.g.n)}, '
                f'"kind": "complete", '
                f'"path": [{path}], "receiver": {dest}, '
                f'"round": {m[1]}, "send_time": {sent_at}, '
                f'"sender": {sender}}}\n')


def _path_text_tables(n: int) -> tuple:
    """(top, tail, cbits, cmask): the trace text of every chunk of c key
    digits, c = max(1, 8 // bits), so a table has at most 256 entries for
    n < 256 (64 for K7).  A path's text is top[its top chunk] followed by tail[chunk] for each
    lower chunk; tail entries start with ", ", and top drops the chunk's
    leading zero digits, as path_of stops at the key's top digit."""
    bits = n.bit_length()
    c = max(1, 8 // bits)
    cbits = c * bits
    hop = (1 << bits) - 1
    top, tail = [], []
    for chunk in range(1 << cbits):
        digits = [chunk >> bits * i & hop for i in reversed(range(c))]
        tail.append("".join(f", {d - 1}" for d in digits))
        while digits and digits[0] == 0:
            del digits[0]
        top.append(", ".join(str(d - 1) for d in digits))
    return top, tail, cbits, (1 << cbits) - 1


# json writes the non-finite floats as these JavaScript literals.
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def thread_count(n: int, f: int) -> int:
    return sum(math.comb(n - 1, size) for size in range(f + 1))


def rounds_to_output(K: float, eps: float) -> int:
    return math.floor(math.log2(K / eps) + 1e-12) + 1


def admit(g: DiGraph, inputs: list, f: int, K: float, eps: float,
          budgets: Optional[Budgets] = None) -> int:
    """Check a run's arguments and its size budgets before anything is
    simulated; returns the output round r_out."""
    budgets = budgets or Budgets()
    if len(inputs) != g.n:
        raise InvalidArgumentError(
            f"need {g.n} inputs, got {len(inputs)}")
    if isinstance(f, bool) or not isinstance(f, int) or not 0 <= f < g.n:
        raise InvalidArgumentError(
            f"f must be an integer with 0 <= f < n = {g.n}, got {f!r}")
    # Comparisons with NaN are false, so these range tests reject NaN too.
    # A finite K / eps keeps the output round a finite integer.
    if not (_is_real(K) and _is_real(eps) and math.isfinite(K)
            and 0 < eps <= K and math.isfinite(K / eps)):
        raise InvalidArgumentError(
            f"require finite K >= eps > 0 and K / eps, got K={K!r}, "
            f"eps={eps!r}")
    if not all(_is_real(x) and 0 <= x <= K for x in inputs):
        raise InvalidArgumentError(f"inputs must lie within [0, {K}]")
    for name in ("max_n", "max_threads", "max_deliveries"):
        b = getattr(budgets, name)
        if isinstance(b, bool) or not isinstance(b, int) or b < 1:
            raise InvalidArgumentError(
                f"budget {name} must be at least 1 and an integer, "
                f"got {b!r}")
    if g.n > budgets.max_n:
        raise BudgetError(
            f"graph has {g.n} nodes, over the budget of {budgets.max_n}; "
            f"flood volume grows exponentially with n")
    tc = thread_count(g.n, f)
    if tc > budgets.max_threads:
        raise BudgetError(
            f"{tc} candidate threads per node exceed the budget of "
            f"{budgets.max_threads}")
    return rounds_to_output(K, eps)


def run(g: DiGraph, inputs: list, f: int, plan: FaultPlan, delay,
        K: float, eps: float, *, budgets: Optional[Budgets] = None,
        trace: Optional[Callable[[str], object]] = None) -> RunMetrics:
    """Execute a full multi-round consensus run and collect metrics.

    With `trace`, each delivery's JSONL line (a str ending in a newline) is
    passed to it in delivery order."""
    budgets = budgets or Budgets()
    r_out = admit(g, inputs, f, K, eps, budgets)
    metrics = RunMetrics(g=g, f=f, K=K, eps=eps, r_out=r_out,
                         faulty=plan.faulty, inputs=list(inputs),
                         three_reach=check_k_reach(g, f, 3).holds)

    world = SimWorld(g, f, r_out, plan, delay, trace)
    world.pending_honest = len(metrics.honest)
    nodes = world.nodes = [Node(world, v, float(inputs[v]))
                           for v in range(g.n)]
    try:
        for v in range(g.n):
            if v not in world.inert:
                nodes[v].start_round(0)
        world.run_loop(budgets.max_deliveries)
    finally:
        # Break the node <-> world cycle, so a finished run is freed by
        # reference counting instead of waiting for a full collection.
        world.nodes = None

    metrics.deliveries = world.deliveries
    metrics.stalled = world.pending_honest > 0
    honest = metrics.honest
    for r in range(r_out + 1):
        xs = [nodes[v].x[r] for v in honest if len(nodes[v].x) > r]
        if len(xs) == len(honest):
            metrics.U.append(max(xs))
            metrics.mu.append(min(xs))
        else:
            metrics.U.append(None)
            metrics.mu.append(None)
    for v in honest:
        node = nodes[v]
        metrics.outputs[v] = node.output
        for r, rstate in node.rounds.items():
            if rstate.fa_record is not None:
                metrics.fa_records[(v, r)] = rstate.fa_record
            for fv, payload in rstate.latch_values.items():
                metrics.latches[(v, r, fv)] = payload
    return metrics


# ---------------------------------------------------------------------------
# Invariant checking


@dataclass
class InvariantReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def assert_round_invariants(metrics: RunMetrics,
                            tol: float = 1e-12) -> InvariantReport:
    """Scan a finished run for violations of the per-round guarantees:
    advancement, range halving, validity, trimmed-vector overlap, and
    cross-node agreement on latched and advanced values."""
    rep = InvariantReport()
    honest = metrics.honest
    r_out = metrics.r_out

    if metrics.stalled:
        rep.violations.append("run stalled: event queue drained before "
                              "every nonfaulty node produced an output")
    for v in honest:
        for r in range(r_out):
            if (v, r) not in metrics.fa_records:
                rep.violations.append(
                    f"node {v} round {r}: no filter-and-average execution")

    for r in range(r_out):
        s0, s1 = metrics.spread(r), metrics.spread(r + 1)
        if s0 is not None and s1 is not None and s1 > s0 / 2.0 + tol:
            rep.violations.append(
                f"round {r + 1}: spread {s1} exceeds half of {s0}")
    u0, m0 = metrics.U[0], metrics.mu[0]
    for r in range(1, r_out + 1):
        if metrics.U[r] is not None and metrics.U[r] > u0 + tol:
            rep.violations.append(
                f"round {r}: max {metrics.U[r]} above initial max {u0}")
        if metrics.mu[r] is not None and metrics.mu[r] < m0 - tol:
            rep.violations.append(
                f"round {r}: min {metrics.mu[r]} below initial min {m0}")

    for r in range(r_out):
        for i, v in enumerate(honest):
            rv = metrics.fa_records.get((v, r))
            if rv is None:
                continue
            for u in honest[i + 1:]:
                ru = metrics.fa_records.get((u, r))
                if ru is None:
                    continue
                if not rv.survivors & ru.survivors:
                    rep.violations.append(
                        f"round {r}: trimmed vectors of nodes {v} and {u} "
                        f"share no (value, origin) entry")

    _check_latch_agreement(metrics, rep)
    _check_common_values(metrics, rep)
    return rep


def _candidate_masks(g: DiGraph, f: int) -> tuple:
    return subset_masks(g.n, f)


def _check_latch_agreement(metrics: RunMetrics, rep: InvariantReport):
    """Two nonfaulty nodes latching the same fault set must agree on every
    source-component value."""
    g, f = metrics.g, metrics.f
    honest = set(metrics.honest)
    by_key: dict = {}
    for (v, r, fv), payload in metrics.latches.items():
        if v in honest:
            by_key.setdefault((r, fv), []).append((v, payload))
    fw_masks = _candidate_masks(g, f)
    for (r, fv), entries in sorted(by_key.items(),
                                   key=lambda kv: (kv[0][0],
                                                   sorted(kv[0][1]))):
        if len(entries) < 2:
            continue
        fvmask = mask_of(fv)
        base_v, base_p = entries[0]
        for v, payload in entries[1:]:
            for fwmask in fw_masks:
                smask = _source_component_mask(g, fvmask | fwmask)
                for q in sorted(set_of(smask)):
                    a, b = base_p.value_for(q), payload.value_for(q)
                    if a is None or b is None or a != b:
                        rep.violations.append(
                            f"round {r}: nodes {base_v} and {v} latched "
                            f"{sorted(fv)} with differing values for "
                            f"node {q}")
                        return


def _check_common_values(metrics: RunMetrics, rep: InvariantReport):
    """Every advancing nonfaulty pair must share, for one of their chosen
    fault sets, a common received value on every source-component node."""
    g, f = metrics.g, metrics.f
    honest = metrics.honest
    fw_masks = _candidate_masks(g, f)

    def informed_pair_ok(rec_a, rec_b, fvmask) -> bool:
        for fwmask in fw_masks:
            if fwmask == fvmask:
                continue
            smask = _source_component_mask(g, fvmask | fwmask)
            for q in set_of(smask):
                va = rec_a.init_values.get(q, frozenset())
                vb = rec_b.init_values.get(q, frozenset())
                if not va & vb:
                    return False
        return True

    for r in range(metrics.r_out):
        for i, v in enumerate(honest):
            rv = metrics.fa_records.get((v, r))
            if rv is None:
                continue
            for u in honest[i + 1:]:
                ru = metrics.fa_records.get((u, r))
                if ru is None:
                    continue
                if not (informed_pair_ok(rv, ru, mask_of(rv.fv))
                        or informed_pair_ok(rv, ru, mask_of(ru.fv))):
                    rep.violations.append(
                        f"round {r}: nodes {v} and {u} advanced without a "
                        f"common fault set giving shared source values")
