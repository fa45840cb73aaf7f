"""Protocol logic: candidate threads, filter-and-average, completeness.

The engine works on wire tuples and bitmask indexes for speed; these tests
pin its behavior against the straightforward MessageSet reference
implementations and against hand-worked examples.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcons import (DiGraph, Equivocate, ProtocolIntegrityError,
                       TamperForward, UniformDelay, assert_round_invariants,
                       builtin_plans, enumerate_redundant_paths, make_plan,
                       message_set, run)
from reachcons.adversary import Crash
from reachcons.graph import has_f_cover, mask_of, set_of, subset_masks
from reachcons.protocol import (Node, PayloadView, candidate_sets,
                                completeness, filter_and_average, path_init,
                                path_key, path_last, path_of, path_order)
from reachcons.simnet import SimWorld, thread_count
from test_adversary import REPRO_PLAN, forge_prefixes, forged_keys
from test_golden import delay_policy


def clique(n):
    return DiGraph(n, frozenset(permutations(range(n), 2)))


K4, K5 = clique(4), clique(5)


# ---------------------------------------------------------------------------
# Candidate fault sets


def test_candidate_sets_shape():
    sets = candidate_sets(5, 2, 2)
    assert len(sets) == thread_count(5, 2)
    assert frozenset() in sets
    assert all(2 not in s for s in sets)
    assert all(len(s) <= 2 for s in sets)
    assert len(set(sets)) == len(sets)


def test_payload_view_lookup():
    p = PayloadView(0, 0b10, ((0, 0.5), (2, 1.0)))
    assert p.value_for(0) == 0.5
    assert p.value_for(2) == 1.0
    assert p.value_for(1) is None


# ---------------------------------------------------------------------------
# Packed VALUE paths


def paths(n):
    """Node sequences of every length a redundant path can have."""
    return st.lists(st.integers(0, n - 1), min_size=1,
                    max_size=2 * n - 1).map(tuple)


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_path_key_round_trips(n, data):
    p = data.draw(paths(n))
    key = path_key(p, n)
    assert path_of(key, n) == p
    assert path_init(key, n) == p[0]
    assert path_last(key, n) == p[-1]
    # A key of at most n is exactly a one-node path.
    assert (key <= n) == (len(p) == 1)


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_path_order_sorts_as_tuples(n, data):
    ps = data.draw(st.lists(paths(n), max_size=30, unique=True))
    keys = sorted((path_key(p, n) for p in ps),
                  key=lambda k: path_order(k, n))
    assert [path_of(k, n) for k in keys] == sorted(ps)


# ---------------------------------------------------------------------------
# Reference filter-and-average


def test_reference_fa_trims_one_each_side():
    # Four single-hop messages into node 4 of the 5-clique; with f = 1 the
    # longest coverable prefix and suffix are one message each, leaving
    # values 4 and 6 as the extremes: output (4 + 6) / 2 = 5.
    M = message_set([(0.0, (0, 4)), (4.0, (2, 4)), (6.0, (3, 4)),
                     (10.0, (1, 4))])
    assert filter_and_average(M, 1, 4, K5) == 5.0


def test_reference_fa_keeps_uncoverable_messages():
    # The receiver's own message can never be trimmed because the cover
    # universe excludes it, while the single foreign message is coverable
    # and gets trimmed away entirely.
    M = message_set([(0.0, (4,)), (9.0, (1, 4))])
    assert filter_and_average(M, 1, 4, K5) == 0.0


def test_reference_fa_empty_set():
    with pytest.raises(ProtocolIntegrityError):
        filter_and_average(message_set([]), 1, 0, K4)


# ---------------------------------------------------------------------------
# Reference completeness


def _full_history(g, me, avoid, values):
    paths = enumerate_redundant_paths(g, avoid, me)
    return message_set((values[p.nodes[0]], p.nodes) for p in paths)


def test_completeness_accepts_a_full_consistent_history():
    values = {0: 0.0, 1: 1.0, 2: 0.25, 3: 0.75}
    M_v = _full_history(K4, 3, frozenset(), values)
    M_c = message_set((x, (q,)) for q, x in values.items())
    assert completeness(M_v, M_c, frozenset(), K4, 1, 3)


def test_completeness_rejects_a_missing_source_value():
    values = {0: 0.0, 1: 1.0, 2: 0.25, 3: 0.75}
    M_v = _full_history(K4, 3, frozenset(), values)
    M_c = message_set((x, (q,)) for q, x in values.items() if q != 0)
    assert not completeness(M_v, M_c, frozenset(), K4, 1, 3)


def test_completeness_rejects_a_coverable_confirmation():
    # The only supporting path for node 0's value runs through node 1, and
    # node 1 sits outside the source component once it is suspected, so a
    # one-node cover explains the evidence away.
    values = {0: 0.0, 1: 1.0, 2: 0.25, 3: 0.75}
    M_v = message_set([(0.0, (0, 1, 3)), (1.0, (1, 3)), (0.25, (2, 3)),
                       (0.75, (3,))])
    M_c = message_set((x, (q,)) for q, x in values.items())
    assert not completeness(M_v, M_c, frozenset(), K4, 1, 3)


# ---------------------------------------------------------------------------
# Engine versus reference, on full runs


def _engine_round0_values(g, inputs, f, plan):
    metrics = run(g, inputs, f, plan, UniformDelay(seed=5), 1.0, 0.25)
    out = {}
    for v in metrics.honest:
        rec = metrics.fa_records[(v, 0)]
        out[v] = (rec.lo_value + rec.hi_value) / 2.0
    return out


def test_engine_fa_matches_reference_fault_free():
    inputs = [0.0, 1.0, 0.25, 0.75]
    got = _engine_round0_values(K4, inputs, 1, make_plan("none", {}))
    for v in range(4):
        M = _full_history(K4, v, frozenset(), dict(enumerate(inputs)))
        assert got[v] == filter_and_average(M, 1, v, K4)


def test_engine_fa_matches_reference_with_a_crash():
    # A node that crashes before sending anything contributes no paths at
    # all, so the received history is exactly the flood that avoids it.
    inputs = [0.0, 1.0, 0.25, 0.75]
    plan = make_plan("crash", {3: Crash(0)})
    got = _engine_round0_values(K4, inputs, 1, plan)
    for v in range(3):
        M = _full_history(K4, v, frozenset({3}), dict(enumerate(inputs)))
        assert got[v] == filter_and_average(M, 1, v, K4)


def test_latched_payload_carries_every_input_fault_free():
    inputs = [0.0, 1.0, 0.25, 0.75]
    metrics = run(K4, inputs, 1, make_plan("none", {}),
                  UniformDelay(seed=5), 1.0, 0.25)
    for v in range(4):
        payload = metrics.latches[(v, 0, frozenset())]
        for q, x in enumerate(inputs):
            assert payload.value_for(q) == x


def test_outputs_equal_midpoint_of_final_record():
    inputs = [0.0, 1.0, 0.25, 0.75]
    metrics = run(K4, inputs, 1, make_plan("none", {}),
                  UniformDelay(seed=5), 1.0, 0.25)
    last = metrics.r_out - 1
    for v in metrics.honest:
        rec = metrics.fa_records[(v, last)]
        assert metrics.outputs[v] == (rec.lo_value + rec.hi_value) / 2.0


# ---------------------------------------------------------------------------
# Latch timing


def first_records(rstate) -> dict:
    """A round's VALUE history as {p: (value, node mask)}: each key of
    rstate.recs mapped to the record it was first heard with."""
    return {p: rec for rec, keys in rstate.recs.items() for p in keys}


def install_latch_check(monkeypatch) -> dict:
    """Wrap Node._latch so that each latch is checked against the history
    it latches on.  Returns the tallies, with every mismatch under
    "mismatches"."""
    latch = Node._latch
    tally = {"latches": 0, "mismatches": []}

    def checked_latch(self, rstate, t):
        # A thread latches on the delivery that completes its F-avoiding
        # history: at that moment it holds exactly its redundant paths, as
        # many as it counts, and its values are exactly those that history
        # carries, one per initiator.  A history is keyed by the incoming
        # key p; its path is p extended by this node.
        n = self.g.n

        def q(p):
            return p << n.bit_length() | (self.me + 1)

        first = first_records(rstate)
        keys = {q(p) for p, (_, m) in first.items() if not m & t.fvmask}
        want = {path_key(p.nodes, n) for p in
                enumerate_redundant_paths(self.g, t.fvset, self.me)}
        history = {(path_init(q(p), n), x) for p, (x, m) in first.items()
                   if not m & t.fvmask}
        history |= {(path_init(q(p), n), x) for x, p in rstate.extras
                    if not mask_of(path_of(q(p), n)) & t.fvmask}
        tally["latches"] += 1
        if (keys != want or len(keys) != t.universe_total
                or not t.consistent or set(t.vals.items()) != history):
            tally["mismatches"].append(
                (self.me, rstate.r, sorted(t.fvset), len(keys), len(want)))
        latch(self, rstate, t)

    monkeypatch.setattr(Node, "_latch", checked_latch)
    return tally


@pytest.mark.parametrize("plan",
                         sorted(builtin_plans(K4, 1)) + ["tamper", "repro-A"])
def test_thread_latches_exactly_when_its_history_is_full(monkeypatch, plan):
    # Repro A's forger sends keys that are not redundant paths.
    plans = builtin_plans(K4, 1)
    plans["tamper"] = make_plan("tamper", {3: TamperForward(0.3)})
    plans["repro-A"] = REPRO_PLAN
    if plan == "repro-A":
        forge_prefixes(monkeypatch, forged_keys(K4, 3, "A"))
    tally = install_latch_check(monkeypatch)
    for di in range(5):
        run(K4, [0.0, 1.0, 1.0, 0.0], 1, plans[plan], delay_policy(di, 4),
            1.0, 0.25)
    assert tally["latches"]
    assert tally["mismatches"] == []


# ---------------------------------------------------------------------------
# One-sided liars: trimming is checkable


# Honest inputs strictly inside [0, K], and a liar that pushes one way only:
# an untrimmed midpoint then leaves the honest range or fails to halve.
ONE_SIDED_INPUTS = [0.5, 0.75, 0.75, 0.5]
ONE_SIDED_PLANS = {
    "low-liar": make_plan("low-liar", {3: Equivocate(tuple(
        (w, 0.0) for w in K4.out_neighbors(3)))}),
    "tamper-up": make_plan("tamper-up", {3: TamperForward(0.3)}),
}
ONE_SIDED_CASES = [(plan, di) for plan in sorted(ONE_SIDED_PLANS)
                   for di in range(5)]


TOL = 1e-12  # float rounding allowed on a guarantee's bound


def guarantee_failures(m) -> list:
    """The invariant scan's violations, plus an honest output outside the
    honest inputs' range (validity) and a round whose spread is more than
    half the last one's, past TOL (halving)."""
    failures = list(assert_round_invariants(m).violations)
    xs = [m.inputs[v] for v in m.honest]
    failures += [f"node {v} output {x} outside [{min(xs)}, {max(xs)}]"
                 for v, x in m.outputs.items()
                 if x is None or not min(xs) <= x <= max(xs)]
    for r in range(m.r_out):
        s0, s1 = m.spread(r), m.spread(r + 1)
        if s0 is None or s1 is None or s1 > s0 / 2.0 + TOL:
            failures.append(f"round {r + 1}: spread {s1} after {s0}")
    return failures


def run_one_sided(plan, di):
    return run(K4, ONE_SIDED_INPUTS, 1, ONE_SIDED_PLANS[plan],
               delay_policy(di, 4), 1.0, 0.25)


@pytest.mark.parametrize("plan,di", ONE_SIDED_CASES)
def test_one_sided_liars_keep_the_guarantees(plan, di):
    assert guarantee_failures(run_one_sided(plan, di)) == []


@pytest.mark.parametrize("plan,di", ONE_SIDED_CASES)
def test_untrimmed_midpoint_is_caught_by_one_sided_liars(monkeypatch, plan,
                                                          di):
    # The mutant adopts the midpoint of its whole round history's value
    # range and keeps the FARecord as computed, so only the guarantees on
    # the adopted values can tell that trimming is gone.
    def untrimmed_advance(self, rstate, t):
        _, record = self._filter_and_average(rstate, t)
        vals = [x for x, _ in rstate.recs] + [x for x, _ in rstate.extras]
        xn = (min(vals) + max(vals)) / 2.0
        rstate.nextround = True
        rstate.fa_record = record
        self.x.append(xn)
        if rstate.r + 1 >= self.world.r_out:
            self.output = xn
            self.world.note_done(self.me)
        else:
            self.start_round(rstate.r + 1)

    monkeypatch.setattr(Node, "_advance", untrimmed_advance)
    assert guarantee_failures(run_one_sided(plan, di))


# ---------------------------------------------------------------------------
# Differential oracle: the engine against the reference functions


def history_of(node, rstate) -> list:
    """A round's VALUE history as sorted (value, path) pairs: each key p of
    first_records and of extras extended by the node to its path q."""
    n, me = node.g.n, node.me
    bits = n.bit_length()

    def path(p):
        return path_of(p << bits | (me + 1), n)

    return sorted([(x, path(p)) for p, (x, _) in first_records(rstate).items()]
                  + [(x, path(p)) for x, p in rstate.extras])


def longest_covered(paths, universe, f) -> int:
    """The longest prefix of paths that has_f_cover can cover.  A shorter
    prefix of a covered one is covered, so a binary search finds it."""
    lo, hi = 0, len(paths)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_f_cover(paths[:mid], universe, f) is not None:
            lo = mid
        else:
            hi = mid - 1
    return lo


def install_oracle(monkeypatch) -> dict:
    """Wrap Node._advance and Node._completeness (whatever they are when
    called) so that each advance and each completeness verdict is checked
    against the reference over the node's history at that moment.  Returns
    the tallies, with every mismatch under "mismatches"."""
    advance, complete = Node._advance, Node._completeness
    tally = {"advances": 0, "verdicts": 0, "false": 0, "mismatches": []}
    sets = {}  # (rstate, history size) -> its MessageSet

    def message_set_of(node, rstate):
        key = (rstate, len(first_records(rstate)), len(rstate.extras))
        if key not in sets:
            sets[key] = message_set(history_of(node, rstate))
        return sets[key]

    def checked_advance(self, rstate, t):
        history = history_of(self, rstate)
        paths = [p for _, p in history]
        universe = frozenset(range(self.g.n)) - {self.me}
        f = self.world.f
        want = (len(history), longest_covered(paths, universe, f),
                longest_covered(paths[::-1], universe, f))
        x = filter_and_average(message_set_of(self, rstate), f, self.me,
                               self.g)
        advance(self, rstate, t)
        rec = rstate.fa_record
        got = (rec.total, rec.lo_trim, rec.hi_trim)
        tally["advances"] += 1
        if got != want or self.x[rstate.r + 1] != x:
            tally["mismatches"].append(
                ("advance", self.me, rstate.r, got, want,
                 self.x[rstate.r + 1], x))

    def checked_completeness(self, rstate, payload):
        got = complete(self, rstate, payload)
        M_c = message_set((x, (q,)) for q, x in payload.values)
        want = completeness(message_set_of(self, rstate), M_c,
                            set_of(payload.claimed_mask), self.g,
                            self.world.f, self.me)
        tally["verdicts"] += 1
        tally["false"] += not want
        if got != want:
            tally["mismatches"].append(
                ("completeness", self.me, rstate.r, got, want))
        return got

    monkeypatch.setattr(Node, "_advance", checked_advance)
    monkeypatch.setattr(Node, "_completeness", checked_completeness)
    return tally


# The 25 K4 golden runs and the 10 one-sided-liar runs.
ORACLE_CASES = ([("golden", plan, di) for plan in sorted(builtin_plans(K4, 1))
                 for di in range(5)]
                + [("one-sided", plan, di) for plan, di in ONE_SIDED_CASES])


def run_oracle_case(kind, plan, di):
    if kind == "golden":
        return run(K4, [0.0, 1.0, 1.0, 0.0], 1, builtin_plans(K4, 1)[plan],
                   delay_policy(di, 4), 1.0, 0.25)
    return run_one_sided(plan, di)


@pytest.mark.parametrize("kind,plan,di", ORACLE_CASES)
def test_engine_matches_the_reference_at_every_advance(monkeypatch, kind,
                                                       plan, di):
    tally = install_oracle(monkeypatch)
    m = run_oracle_case(kind, plan, di)
    assert tally["mismatches"] == []
    assert tally["advances"] >= len(m.honest) * m.r_out
    assert tally["verdicts"]


TRIM_SCAN, NODE_INIT = Node._trim_scan, Node.__init__


def high_trim_skipped_scan(group_masks, cands, order):
    # The descending scan stops at the top group with every candidate alive.
    if order.step < 0:
        return order[0], list(cands)
    return TRIM_SCAN(group_masks, cands, order)


def over_trim_init(self, world, me, x0):
    # Cover candidates of up to f + 1 nodes, in (size, lex) order.
    NODE_INIT(self, world, me, x0)
    full = self.g.full_mask & ~(1 << me)
    self._fa_cands = tuple(m for m in subset_masks(self.g.n, world.f + 1)
                           if m and not m & ~full)


def latch_early_scan(self, rstate, qmask):
    # A thread latches with one of its paths still missing.
    for ti in self._avoid_threads(qmask):
        t = rstate.threads[ti]
        t.missing -= 1
        if t.missing == 1 and t.consistent:
            self._latch(rstate, t)


ZERO_CUT = staticmethod(lambda items, alive: 0)

# Mutants of the code the oracle guards, each as (the check that catches
# it, the Node attributes it replaces).  The within-bucket cuts set only
# the record's trims and survivors, never the adopted value, and on these
# runs a forced completeness verdict breaks no guarantee, so only the
# oracle can catch them.  _suffix_cut is the prefix cut of the reversed
# bucket, so prefix-cut-0 zeroes both trims.  high-trim-skipped also
# zeroes the suffix cut: with every candidate alive, one may cover the whole
# top group, and the cut's min() of no uncovered path is a crash, not a
# catch.  A thread that latches early changes no advance the oracle sees,
# so the latch check catches it.
MUTANTS = {
    "prefix-cut-0": ("oracle", {"_prefix_cut": ZERO_CUT}),
    "suffix-cut-0": ("oracle", {"_suffix_cut": ZERO_CUT}),
    "completeness-true": ("oracle", {
        "_completeness": lambda self, rstate, payload: True}),
    "high-trim-skipped": ("oracle", {
        "_trim_scan": staticmethod(high_trim_skipped_scan),
        "_suffix_cut": ZERO_CUT}),
    "over-trim": ("oracle", {"__init__": over_trim_init}),
    "latch-early": ("latch", {"_latch_scan": latch_early_scan}),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_oracle_catches_each_mutant(monkeypatch, mutant):
    check, patches = MUTANTS[mutant]
    for name, value in patches.items():
        monkeypatch.setattr(Node, name, value)
    install = install_oracle if check == "oracle" else install_latch_check
    tally = install(monkeypatch)
    for case in ORACLE_CASES:
        run_oracle_case(*case)
    assert tally["mismatches"]


# ---------------------------------------------------------------------------
# History layout: only a key a faulty node relays can arrive twice


def install_history_check(monkeypatch) -> dict:
    """Wrap SimWorld.run_loop so that each run's VALUE histories are
    checked once its deliveries end: no round lists a key twice in its
    records, and every key in a round's relayed map has a faulty last hop.
    Returns the tallies: per run, the keys that landed in extras, and every
    breach under "faults"."""
    run_loop = SimWorld.run_loop
    tally = {"extras": [], "faults": []}

    def checked_run_loop(self, budget):
        run_loop(self, budget)
        n = self.g.n
        extras = []
        for node in self.nodes:
            for r, rstate in node.rounds.items():
                keys = [p for ks in rstate.recs.values() for p in ks]
                if len(keys) != len(set(keys)):
                    tally["faults"].append((node.me, r, "repeated key"))
                tally["faults"] += [(node.me, r, "honest relay", p)
                                    for p in rstate.relayed
                                    if path_last(p, n) not in self._faulty]
                extras += [p for _, p in rstate.extras]
        tally["extras"].append(extras)

    monkeypatch.setattr(SimWorld, "run_loop", checked_run_loop)
    return tally


@pytest.mark.parametrize("kind,plan,di", ORACLE_CASES)
def test_only_faulty_relays_repeat_a_key(monkeypatch, kind, plan, di):
    tally = install_history_check(monkeypatch)
    run_oracle_case(kind, plan, di)
    assert tally["faults"] == []


def run_repro_b(seed):
    # With forge_prefixes(forged_keys(K4, 3, "B")), node 3 adds every real
    # redundant path ending at it, with its own value, to its round-start
    # VALUEs: keys it also relays with their initiators' values.
    return run(K4, [0.0, 1.0, 1.0, 0.0], 1, REPRO_PLAN,
               UniformDelay(seed=seed), 1.0, 0.25)


@pytest.mark.parametrize("seed", range(5))
def test_repeated_faulty_relays_land_in_extras(monkeypatch, seed):
    forge_prefixes(monkeypatch, forged_keys(K4, 3, "B"))
    tally = install_history_check(monkeypatch)
    run_repro_b(seed)
    assert tally["faults"] == []
    [extras] = tally["extras"]
    assert len(extras) == [42, 49, 42, 42, 42][seed]
    assert {path_last(p, 4) for p in extras} == {3}


def relay_blind_init(self, world, me, x0):
    # Receivers never look a key up in relayed: every key is listed as new.
    NODE_INIT(self, world, me, x0)
    self._relay_digits = frozenset()


def test_receivers_that_skip_the_relay_lookup_are_caught(monkeypatch):
    monkeypatch.setattr(Node, "__init__", relay_blind_init)
    forge_prefixes(monkeypatch, forged_keys(K4, 3, "B"))
    tally = install_history_check(monkeypatch)
    for seed in range(5):
        run_repro_b(seed)
    assert tally["extras"] == [[]] * 5
    assert tally["faults"]
