"""Per-node consensus state machine.

Each node runs one logical thread per candidate fault set.  A thread latches
once its excluded message history is consistent and full, then floods a
COMPLETE announcement; a thread whose announcements have been FIFO-received
from its whole in-reach set and whose qualifying announcements all pass the
completeness check may advance the round through filter-and-average.

The engine works on lightweight wire tuples and bitmask indexes so floods on
six- and seven-node graphs stay tractable; the module-level completeness and
filter_and_average functions are straightforward reference implementations
over MessageSet used for unit-level cross-checks.

A path of either message kind travels and is stored as one int, its key
(`path_key`): one digit of `n.bit_length()` bits per hop, node v written as
v + 1, first node most significant.  Extending a path is a shift and an or,
and the key is its own canonical id.  A node's VALUE history for a round is
one map, from each (initiator, value) pair to its node masks and from each
mask to the keys heard with them; filter-and-average and the completeness
check read nothing else.  A history holds the incoming key p, the one the
wire brought, rather than its extension q = p << bits | (me + 1): at one
receiver the two map one to one, and p is one digit shorter.  A recorded p
has at most 2n - 2 digits, so up to n = 9 it fits a 64-bit slot of an
`array('Q')` and an entry costs 8 bytes and no int object; from n = 10 on
the keys are listed in a plain list.  A wire's sender is its key's last hop
(honest wires are built so, and `adversary.PlanRuntime.intercept` refuses
any faulty emission that is not), so queued wires carry no sender.  An
honest node starts each round once and forwards a key only when it first
records it, so by induction on path length a key whose last hop is honest
reaches a receiver at most once per round: only keys relayed by a faulty
node can repeat, and only they are looked up in the round's `relayed` map.
A repeat carrying a new value is listed under that value too.  Both kinds
carry the key's walk state, which `intercept` sets on every faulty
emission, so receivers check nothing but the phase.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .errors import ProtocolIntegrityError
from .graph import (DiGraph, count_redundant_paths, count_simple_paths,
                    has_f_cover, mask_of, set_of,
                    source_component, subset_masks, _source_component_mask,
                    _reach_mask)
from .messaging import MessageSet

# Wire tags.  Both kinds are (tag, round, body, key, phase, m1, m2): body is
# the VALUE's value or the COMPLETE's (counter, payload), key the packed path
# (its top digit the initiator) and (phase, m1, m2) its walk state: phase 1
# while the walk is still simple with visited-mask m1, phase 2 once the
# second segment is open with visited-mask m2, and phase 0 for a key that is
# not a path of its kind: a redundant path for a VALUE, a simple one for a
# COMPLETE.  Receivers extend the state by one hop instead of parsing the
# key, so the state must be exact: a faulty sender claiming an understated
# mask, or sending a key that is no path of its kind, could otherwise make
# honest threads count it as one of their paths and latch before their
# history is full.  Honest senders extend exact states, and
# `PlanRuntime.intercept` sets the parsed state on every faulty emission.
VAL_T = 0
COMP_T = 1


def path_key(p, n: int) -> int:
    """The packed key of a path over nodes 0..n-1."""
    bits = n.bit_length()
    key = 0
    for v in p:
        key = key << bits | (v + 1)
    return key


def path_of(key: int, n: int) -> tuple:
    """The path a key packs, as a tuple of nodes."""
    bits = n.bit_length()
    hop = (1 << bits) - 1
    out = []
    while key:
        out.append((key & hop) - 1)
        key >>= bits
    out.reverse()
    return tuple(out)


# The engine inlines the next three on its hot paths.

def path_init(key: int, n: int) -> int:
    """The first node of a packed path: its top digit."""
    bits = n.bit_length()
    return (key >> bits * ((key.bit_length() - 1) // bits)) - 1


def path_last(key: int, n: int) -> int:
    """The last node of a packed path: its bottom digit."""
    return (key & ((1 << n.bit_length()) - 1)) - 1


def path_order(key: int, n: int) -> int:
    """A sort key that orders packed paths as their tuples order: the key
    left-aligned to 2n digits.  Every hop digit is nonzero, so a proper
    prefix sorts first."""
    bits = n.bit_length()
    return key << bits * (2 * n - 1 - (key.bit_length() - 1) // bits)


@dataclass(frozen=True)
class PayloadView:
    """The observable content of a COMPLETE announcement's message set.

    Downstream checks read an announcement only through per-initiator
    values, so the carried copy is stored at that granularity.  values is a
    sorted tuple of (initiator, value) pairs.
    """

    round: int
    claimed_mask: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.values))

    def value_for(self, q: int):
        return self._map.get(q)


@dataclass
class FARecord:
    """Per-round filter-and-average trace record for one node."""

    fv: frozenset
    total: int
    lo_trim: int
    hi_trim: int
    lo_value: float
    hi_value: float
    survivors: frozenset  # of (value, initiator)
    init_values: dict  # initiator -> frozenset of values seen in M


class Thread:
    """One candidate-fault-set logical thread for a single round."""

    __slots__ = ("idx", "fvset", "fvmask", "reach_mask", "universe_total",
                 "missing", "consistent", "vals", "fra_counts", "fra_full",
                 "fra_ok_mask", "qual")

    def __init__(self, idx, fvset, fvmask, reach_mask, universe_total):
        self.idx = idx
        self.fvset = fvset
        self.fvmask = fvmask
        self.reach_mask = reach_mask
        self.universe_total = universe_total
        self.missing = universe_total  # F_v-avoiding paths not yet received
        self.consistent = True
        self.vals = {}  # initiator -> value, restricted to F_v-avoiding paths
        self.fra_counts = {}  # (init, counter, payload) -> paths received
        self.fra_full = {}  # init -> least counter fully covered
        self.fra_ok_mask = 0
        self.qual = set()  # (init, counter, payload) delivered inside reach


class RoundState:
    """A node's message history and threads for one round, kept alive so
    past-round traffic is still recorded and forwarded after advancing."""

    __slots__ = ("r", "recs", "relayed", "threads", "comp_paths",
                 "watched", "dirty", "fa_record", "latch_values",
                 "comp_cache", "clause_true")

    def __init__(self, r, threads):
        self.r = r
        # The history holds incoming keys p; the path itself is p extended
        # by this node, and the own value's is p = 0.  A key is listed once
        # per value heard on it, in an array of 64-bit slots, or a list
        # where keys can be longer (Node._key_list).
        self.recs = {}  # (init, value) -> {node mask: keys p}
        # Only a key whose last hop is faulty can arrive twice, so only such
        # keys are entered here.
        self.relayed = {}  # p -> set of values heard on it
        self.threads = threads
        self.comp_paths = {}  # (init, counter, payload) -> set of p keys
        self.watched = set()  # (init, value) pairs blocking some verify
        self.dirty = set()
        self.fa_record: Optional[FARecord] = None  # set once it advances
        self.latch_values = {}  # fvset -> PayloadView
        self.comp_cache = {}  # payload -> True / False (permanent only)
        self.clause_true = set()  # (source mask, q, value)


def candidate_sets(n: int, me: int, f: int) -> list:
    """Candidate fault sets for a node, in lexicographic order."""
    return sorted((set_of(m) for m in subset_masks(n, f) if not m >> me & 1),
                  key=lambda s: tuple(sorted(s)))


class Node:
    """Single-reactor node runtime driven by a delivery loop."""

    def __init__(self, world, me: int, x0: float):
        self.world = world
        self.g: DiGraph = world.g
        self.me = me
        self.x = [x0]
        self.round = -1
        self.output = None
        self.fifo_sent = 0
        self.frontier = {}  # initiator -> max contiguous counter received
        self.got = {}  # initiator -> counters received beyond the frontier
        # round -> buffered wires of rounds not yet started; a wire's
        # sender is its key's last hop, so none is kept.
        self.future = {}
        self.rounds = {}
        # A faulty node floods through its plan (see simnet).
        self._flood = (world.send if me in world._faulty
                       else world.send_flood)
        g = self.g
        self.out_list = g.out_neighbors(me)
        self._templates = []
        for idx, fv in enumerate(candidate_sets(g.n, me, world.f)):
            fvmask = mask_of(fv)
            self._templates.append(
                (idx, fv, fvmask, _reach_mask(g, me, fvmask),
                 count_redundant_paths(g, fvmask)[me]))
        self._avoid_cache = {}  # path mask -> indices of threads it avoids
        self._fwd2 = {}  # node mask -> out-neighbours outside it
        full = g.full_mask & ~(1 << me)
        self._fa_cands = world.cover_cands(full)
        self._bits = g.n.bit_length()  # bits per digit of a packed path
        self._hop = (1 << self._bits) - 1  # the last digit of a packed path
        # A recorded key p has at most 2n - 2 digits, as its extension is a
        # redundant path of at most 2n - 1 nodes.  Up to n = 9 every such key
        # fits a 64-bit array slot; past that a history lists int objects.
        self._key_list = (partial(array, "Q")
                          if (2 * g.n - 2) * self._bits <= 64 else list)
        # Last-hop digits of the keys that can repeat: those of faulty nodes.
        self._relay_digits = frozenset(v + 1 for v in world._faulty)

    # -- helpers -----------------------------------------------------------

    def _avoid_threads(self, qmask: int) -> tuple:
        cached = self._avoid_cache.get(qmask)
        if cached is None:
            cached = self._avoid_cache[qmask] = tuple(
                i for i, _, m, _, _ in self._templates if not m & qmask)
        return cached

    def _note_counter(self, init: int, k: int) -> bool:
        """Record raw receipt of a FIFO counter; True if the frontier moved."""
        fr = self.frontier.get(init, 0)
        if k <= fr:
            return False
        pend = self.got.setdefault(init, set())
        if k in pend:
            return False
        pend.add(k)
        moved = False
        while fr + 1 in pend:
            pend.discard(fr + 1)
            fr += 1
            moved = True
        if moved:
            self.frontier[init] = fr
        return moved

    def _wake_all(self):
        # A sweep can advance and start the next round; that round sweeps
        # itself in start_round, so iterate over a snapshot.
        for rstate in list(self.rounds.values()):
            if rstate.fa_record is None:
                rstate.dirty.update(range(len(rstate.threads)))
                self._sweep(rstate)

    # -- round lifecycle ---------------------------------------------------

    def start_round(self, r: int):
        assert r == self.round + 1
        self.round = r
        threads = [Thread(*tpl) for tpl in self._templates]
        rstate = RoundState(r, threads)
        self.rounds[r] = rstate
        # The own value arrives on the empty path; extended by this node it
        # is the one-node path, recorded and flooded.
        self._receive_value(rstate, (VAL_T, r, self.x[r], 0, 1, 0, 0))
        self._sweep(rstate)
        for msg in self.future.pop(r, ()):
            self.on_deliver(msg)

    # -- delivery dispatch -------------------------------------------------

    def on_deliver(self, msg: tuple):
        # Phase 0 marks a key that is not a path of its kind.
        if not msg[4]:
            return
        value = msg[0] == VAL_T
        if not value:
            # A COMPLETE's FIFO counter is noted even when this node is on
            # its path.
            if self._note_counter(path_init(msg[3], self.g.n), msg[2][0]):
                self._wake_all()
            if msg[5] >> self.me & 1:
                return
        rnd = msg[1]
        if rnd > self.round:
            self.future.setdefault(rnd, []).append(msg)
            return
        rstate = self.rounds.get(rnd)
        if rstate is None:
            return
        if value:
            self._receive_value(rstate, msg)
        else:
            self._receive_complete(rstate, msg)
        if rstate.dirty and rstate.fa_record is None:
            self._sweep(rstate)

    # -- value recording ---------------------------------------------------

    def _receive_value(self, rstate, msg):
        """Extend a VALUE wire's path and walk state by this node, record
        the path under its incoming key, forward it if new, and count it
        against its threads."""
        _, r, x, p, phase, m1, m2 = msg
        me = self.me
        bit = 1 << me
        if phase == 1:
            if m1 & bit:
                # The second segment opens at the sender: p's last hop.
                phase = 2
                m2 = (1 << (p & self._hop) - 1) | bit
            else:
                m1 |= bit
        elif m2 & bit:
            return
        else:
            m2 |= bit
        bits = self._bits
        q = p << bits | (me + 1)
        qmask = m1 | m2
        init = (q >> bits * ((q.bit_length() - 1) // bits)) - 1  # path_init
        repeat = False
        if (p & self._hop) in self._relay_digits:
            heard = rstate.relayed.get(p)
            if heard is None:
                rstate.relayed[p] = {x}
            elif x in heard:
                return
            else:
                # Listed under its new value, but forwarded and counted
                # against the threads only on its first arrival.
                heard.add(x)
                repeat = True
        masks = rstate.recs.get((init, x))
        if masks is None:
            masks = rstate.recs[init, x] = {}
        keys = masks.get(qmask)
        if keys is None:
            masks[qmask] = self._key_list((p,))
            self._mark_value(rstate, init, x, qmask)
        else:
            keys.append(p)
        if repeat:
            return
        if phase == 1:
            dests = self.out_list
        else:
            dests = self._fwd2.get(m2)
            if dests is None:
                dests = self._fwd2[m2] = [w for w in self.out_list
                                          if not m2 >> w & 1]
        self._flood(me, dests, (VAL_T, r, x, q, phase, m1, m2))
        self._latch_scan(rstate, qmask)

    def _latch_scan(self, rstate, qmask):
        """Count a new distinct path against every thread it avoids; a
        thread latches once none of its paths is missing, if consistent."""
        ids = self._avoid_cache.get(qmask)
        if ids is None:
            ids = self._avoid_threads(qmask)
        threads = rstate.threads
        for ti in ids:
            t = threads[ti]
            t.missing -= 1
            if not t.missing and t.consistent:
                self._latch(rstate, t)

    def _mark_value(self, rstate, init, x, qmask):
        """Note a new (init, x, node mask) record: it may change a watched
        completeness verdict, and it marks the threads it avoids."""
        threads = rstate.threads
        if (init, x) in rstate.watched:
            rstate.dirty.update(t.idx for t in threads if t.qual)
        # A thread already marked with (init, x) sees no change here.
        for ti in self._avoid_threads(qmask):
            t = threads[ti]
            prior = t.vals.get(init)
            if prior is None:
                t.vals[init] = x
            elif prior != x:
                t.consistent = False

    # -- announcements -----------------------------------------------------

    def _latch(self, rstate, t: Thread):
        """First-time maximal consistency: flood the COMPLETE announcement."""
        payload = PayloadView(rstate.r, t.fvmask,
                              tuple(sorted(t.vals.items())))
        rstate.latch_values[t.fvset] = payload
        self.fifo_sent += 1
        k = self.fifo_sent
        me = self.me
        if self._note_counter(me, k):
            self._wake_all()
        # As the own value does, the announcement arrives on the empty path.
        self._receive_complete(rstate,
                               (COMP_T, rstate.r, (k, payload), 0, 1, 0, 0))

    def _receive_complete(self, rstate, msg):
        """Extend a COMPLETE wire's simple path by this node, record the
        path under its incoming key, forward it if new, and count it
        against the threads whose reach holds it."""
        _, r, body, p, _, m1, _ = msg
        me = self.me
        q = p << self._bits | (me + 1)
        qmask = m1 | 1 << me
        init = path_init(q, self.g.n)
        k, payload = body
        key = (init, k, payload)
        seen = rstate.comp_paths.setdefault(key, set())
        if p in seen:
            return
        seen.add(p)
        dests = self._fwd2.get(qmask)
        if dests is None:
            dests = self._fwd2[qmask] = [w for w in self.out_list
                                         if not qmask >> w & 1]
        self._flood(me, dests, (COMP_T, r, body, q, 1, qmask, 0))
        g = self.g
        for t in rstate.threads:
            if qmask & ~t.reach_mask:
                continue
            if key not in t.qual:
                t.qual.add(key)
                rstate.dirty.add(t.idx)
            if payload.claimed_mask == t.fvmask:
                c = t.fra_counts.get(key, 0) + 1
                t.fra_counts[key] = c
                if c == count_simple_paths(g, init, me, t.reach_mask):
                    # A larger counter is FIFO-received only if this is.
                    t.fra_full[init] = min(k, t.fra_full.get(init, k))
                    rstate.dirty.add(t.idx)

    # -- verification and advancement ---------------------------------------

    def _sweep(self, rstate):
        if rstate.fa_record is not None or not rstate.dirty:
            return
        order = sorted(rstate.dirty)
        rstate.dirty.clear()
        for ti in order:
            t = rstate.threads[ti]
            if self._verify(rstate, t):
                self._advance(rstate, t)
                return

    def _verify(self, rstate, t: Thread) -> bool:
        frontier = self.frontier
        remaining = t.reach_mask & ~t.fra_ok_mask
        c = 0
        while remaining:
            if remaining & 1:
                k = t.fra_full.get(c)
                if k is None or frontier.get(c, 0) < k - 1:
                    return False
                t.fra_ok_mask |= 1 << c
            remaining >>= 1
            c += 1
        for init, k, payload in t.qual:
            if frontier.get(init, 0) < k - 1:
                continue  # not yet FIFO-received
            if not self._completeness(rstate, payload):
                return False
        return True

    def _completeness(self, rstate, payload: PayloadView) -> bool:
        cached = rstate.comp_cache.get(payload)
        if cached is not None:
            return cached
        g = self.g
        me_bit = 1 << self.me
        full = g.full_mask
        fumask = payload.claimed_mask
        clause_true = rstate.clause_true
        recs = rstate.recs
        for fwmask in self.world.all_candidate_masks:
            if fwmask == fumask:
                continue
            smask = _source_component_mask(g, fumask | fwmask)
            rest = smask
            q = 0
            while rest:
                if rest & 1:
                    val = payload.value_for(q)
                    if val is None:
                        # A genuine announcement always carries every
                        # source-component value; permanent failure.
                        rstate.comp_cache[payload] = False
                        return False
                    ck = (smask, q, val)
                    if ck not in clause_true:
                        masks = recs.get((q, val))
                        if not masks:
                            rstate.watched.add((q, val))
                            return False
                        universe = full & ~smask & ~me_bit
                        covered = False
                        for cm in self.world.cover_cands(universe):
                            if all(m & cm for m in masks):
                                covered = True
                                break
                        if covered:
                            rstate.watched.add((q, val))
                            return False
                        clause_true.add(ck)
                rest >>= 1
                q += 1
        rstate.comp_cache[payload] = True
        return True

    def _advance(self, rstate, t: Thread):
        xn, rstate.fa_record = self._filter_and_average(rstate, t)
        assert len(self.x) == rstate.r + 1
        self.x.append(xn)
        if rstate.r + 1 >= self.world.r_out:
            self.output = xn
            self.world.note_done(self.me)
        else:
            self.start_round(rstate.r + 1)

    # -- filter and average --------------------------------------------------

    def _filter_and_average(self, rstate, t: Thread):
        # Bucket the history by value as (node mask, keys) pairs, one per
        # record; within a bucket keys are unique, so only the two boundary
        # buckets ever need path order.
        groups: dict = {}  # value -> [(node mask, keys)]
        init_values: dict = {}  # initiator -> its values
        for (init, v), masks in rstate.recs.items():
            groups.setdefault(v, []).extend(masks.items())
            init_values.setdefault(init, set()).add(v)
        if not groups:
            raise ProtocolIntegrityError("empty message history at advance")
        vals = sorted(groups)
        group_masks = [frozenset(m for m, _ in groups[v]) for v in vals]
        cands = self._fa_cands
        glo, alive_lo = self._trim_scan(group_masks, cands, range(len(vals)))
        ghi, alive_hi = self._trim_scan(group_masks, cands,
                                        range(len(vals) - 1, -1, -1))
        if glo is None or ghi is None or glo > ghi:
            raise ProtocolIntegrityError(
                "filter-and-average trimmed the whole vector")
        lo_val, hi_val = vals[glo], vals[ghi]
        # Sort a boundary bucket by path_order, inlined: (aligned key, mask)
        # pairs, whose aligned keys order as the path tuples do.  The path
        # of an incoming key p is q = p << bits | (me + 1).
        bits = self._bits
        width = 2 * self.g.n - 1
        top = bits * width
        last = self.me + 1

        def aligned(bucket):
            return sorted([
                ((q := p << bits | last)
                 << bits * (width - (q.bit_length() - 1) // bits), m)
                for m, keys in bucket for p in keys])

        lo_items = aligned(groups[lo_val])
        hi_items = lo_items if glo == ghi else aligned(groups[hi_val])
        p_rel = self._prefix_cut(lo_items, alive_lo)
        s_rel = self._suffix_cut(hi_items, alive_hi)
        # The paths each boundary bucket keeps, as (value, aligned paths):
        # one slice when both boundaries are the same bucket.
        if glo == ghi:
            kept = [(lo_val, lo_items[p_rel:len(lo_items) - s_rel])]
        else:
            kept = [(lo_val, lo_items[p_rel:]),
                    (hi_val, hi_items[:len(hi_items) - s_rel])]
        if not kept[0][1]:
            raise ProtocolIntegrityError("filter-and-average trims overlap")
        # The initiator of an aligned key is its top digit.  Every path of
        # an inner bucket survives.
        inner = set(vals[glo + 1:ghi])
        survivors = {(v, (a >> top) - 1) for v, items in kept
                     for a, _ in items}
        survivors.update((v, init) for init, v in rstate.recs if v in inner)
        sizes = [sum(len(keys) for _, keys in groups[v]) for v in vals]
        return (lo_val + hi_val) / 2.0, FARecord(
            fv=t.fvset, total=sum(sizes),
            lo_trim=sum(sizes[:glo]) + p_rel,
            hi_trim=sum(sizes[ghi + 1:]) + s_rel,
            lo_value=lo_val, hi_value=hi_val,
            survivors=frozenset(survivors),
            init_values={q: frozenset(vs) for q, vs in init_values.items()})

    @staticmethod
    def _trim_scan(group_masks, cands, order):
        """First group (in scan order) not fully coverable by a surviving
        cover candidate, plus the candidates alive just before it."""
        alive = list(cands)
        for gi in order:
            ms = group_masks[gi]
            nxt = [c for c in alive if all(m & c for m in ms)]
            if not nxt:
                return gi, alive
            alive = nxt
        return None, alive

    @staticmethod
    def _prefix_cut(items, alive):
        """Messages of the path-sorted boundary group eaten by the prefix
        trim: the longest coverable prefix over the surviving candidates."""
        first = {}
        for i, (_, m) in enumerate(items):
            first.setdefault(m, i)
        best = 0
        for c in alive:
            miss = min(idx for m, idx in first.items() if not m & c)
            if miss > best:
                best = miss
        return best

    @classmethod
    def _suffix_cut(cls, items, alive):
        """The suffix trim: the prefix trim of the reversed group."""
        return cls._prefix_cut(items[::-1], alive)


# ---------------------------------------------------------------------------
# Reference implementations over MessageSet, for unit-level cross-checks.


def completeness(M_v: MessageSet, M_c: MessageSet, F_u: frozenset,
                 g: DiGraph, f: int, me: int) -> bool:
    """True iff every source-component value in M_c is confirmed by paths in
    M_v that no small cover outside the source component can explain away."""
    fumask = mask_of(F_u)
    for fwmask in subset_masks(g.n, f):
        if fwmask == fumask:
            continue
        S = source_component(g, F_u, set_of(fwmask))
        universe = frozenset(range(g.n)) - S - {me}
        for q in sorted(S):
            val = M_c.value_of(q)
            if val is None:
                return False
            paths = [m.path for m in M_v
                     if m.kind == "value" and m.init == q and m.value == val]
            if has_f_cover(paths, universe, f) is not None:
                return False
    return True


def filter_and_average(M: MessageSet, f: int, me: int, g: DiGraph) -> float:
    """Sort by (value, path), trim the longest coverable prefix and suffix,
    return the midpoint of the remaining extremes."""
    msgs = sorted(((m.value, m.path) for m in M if m.kind == "value"))
    if not msgs:
        raise ProtocolIntegrityError("empty message set")
    universe = frozenset(range(g.n)) - {me}
    lo = 0
    for k in range(len(msgs), -1, -1):
        if has_f_cover([p for _, p in msgs[:k]], universe, f) is not None:
            lo = k
            break
    hi = 0
    for k in range(len(msgs), -1, -1):
        if has_f_cover([p for _, p in msgs[len(msgs) - k:]], universe,
                       f) is not None:
            hi = k
            break
    kept = msgs[lo:len(msgs) - hi]
    if not kept:
        raise ProtocolIntegrityError("trims removed every message")
    return (kept[0][0] + kept[-1][0]) / 2.0
