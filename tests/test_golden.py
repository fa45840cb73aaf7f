"""Same-behaviour pins: a SHA-256 per scenario over the observable outputs.

Runs are deterministic given (graph, inputs, plan, delay policy), so a change
to the simulator's internals (queue, scheduling, hot paths) must reproduce
each digest exactly.  A digest covers the metrics CSV, the outputs, the
delivery count and every filter-and-average record.  A pin may change only
together with a change of protocol behaviour that says why.
"""

import hashlib
import json
from itertools import permutations

import pytest

from reachcons import (DiGraph, RoundSkewDelay, TargetedSlowDelay,
                       UniformDelay, builtin_plans, run)
from reachcons.cli import metrics_csv

K = 1.0
EPS = 0.25


def clique(n):
    return DiGraph(n, frozenset(permutations(range(n), 2)))


def delay_policy(di, n):
    """The five seeded delay policies of the acceptance run suite."""
    return [
        lambda: UniformDelay(seed=3),
        lambda: UniformDelay(seed=11, lo=1, hi=7),
        lambda: TargetedSlowDelay(seed=5, factor=5,
                                  victims=frozenset({(0, 1), (1, 0),
                                                     (0, 2)})),
        lambda: TargetedSlowDelay(seed=13, factor=7,
                                  victims=frozenset({(2, 0), (n - 1, 0)})),
        lambda: RoundSkewDelay(seed=9, offsets={0: 3, 1: 1}),
    ][di]()


def run_digest(m) -> str:
    h = hashlib.sha256()
    h.update(metrics_csv(m).encode())
    h.update(repr(sorted(m.outputs.items())).encode())
    h.update(str(m.deliveries).encode())
    for (v, r), rec in sorted(m.fa_records.items()):
        h.update(repr((v, r, sorted(rec.fv), rec.total, rec.lo_trim,
                       rec.hi_trim, rec.lo_value, rec.hi_value,
                       sorted(rec.survivors))).encode())
    return h.hexdigest()


K4_INPUTS = [0.0, 1.0, 1.0, 0.0]
K7_INPUTS = [i / 6.0 for i in range(7)]

K4_PINS = {
    ("crash-max", 0):
        "1a85233a09bfa030f077c898f56a5ae12c8a18b0f945c039a8afb270c8736e12",
    ("crash-max", 1):
        "653343dd42323a79694a5fea0764bb14f77d3ef72ad07fa06b627a238e0cc3e0",
    ("crash-max", 2):
        "557bfe308776f52a8953263a091f10ede4a6461a7cf03b1fd2d20ca3cb400852",
    ("crash-max", 3):
        "1a85233a09bfa030f077c898f56a5ae12c8a18b0f945c039a8afb270c8736e12",
    ("crash-max", 4):
        "653343dd42323a79694a5fea0764bb14f77d3ef72ad07fa06b627a238e0cc3e0",
    ("crash-min", 0):
        "1a85233a09bfa030f077c898f56a5ae12c8a18b0f945c039a8afb270c8736e12",
    ("crash-min", 1):
        "653343dd42323a79694a5fea0764bb14f77d3ef72ad07fa06b627a238e0cc3e0",
    ("crash-min", 2):
        "557bfe308776f52a8953263a091f10ede4a6461a7cf03b1fd2d20ca3cb400852",
    ("crash-min", 3):
        "1a85233a09bfa030f077c898f56a5ae12c8a18b0f945c039a8afb270c8736e12",
    ("crash-min", 4):
        "653343dd42323a79694a5fea0764bb14f77d3ef72ad07fa06b627a238e0cc3e0",
    ("equivocator", 0):
        "9a6e150e3daf5eb3a669a7ff8ee771b65e77e36caa581928635981547da34c6c",
    ("equivocator", 1):
        "b1a2c25ab75436d29798f483302b09ad36ecde3a57a8f52a4d89895978fb27c2",
    ("equivocator", 2):
        "5a7a1772fd37ba7cb9ce0284b72a65a4a90948759b83ee3b63ae0394dc4658cd",
    ("equivocator", 3):
        "5a7a1772fd37ba7cb9ce0284b72a65a4a90948759b83ee3b63ae0394dc4658cd",
    ("equivocator", 4):
        "64c58dcd4a269bc73cbe7ff586b3941dbd8d385fad47b2dc84d3dac788a8dbd1",
    ("forger", 0):
        "d4f8b3a47ad055e1c291b19fa3e8f29987e53491215089b06f093520d73b8167",
    ("forger", 1):
        "64de90a1d018685b02e84560ad5c491f9a1538ba95ba69cc5a6158a6e949095f",
    ("forger", 2):
        "6f19d6d0b4520d62a547aacb1818ef5fd0730536df69aede1eb7ca8247da0a6c",
    ("forger", 3):
        "cc44fe147c90caf03a43900881fb0496a57a401e3150f4da8117ce67fe103539",
    ("forger", 4):
        "e016826413143715a0246fc6c312938f11bfdfca342af06f25a28c63c605e8ca",
    ("split-brain", 0):
        "a8c1eae9e529bffd98a63e7fa6ad22e12fc3e3281907ac2d5d41fa7ee2d98ce5",
    ("split-brain", 1):
        "594bb6111faa5e258cae8cdc4113294f95f28181f9cb663bca035f4cb9e526c0",
    ("split-brain", 2):
        "5313c6917cc3e6ede8688a8e488e45ce454d216daf50ce4ac61b3e714932e32c",
    ("split-brain", 3):
        "5313c6917cc3e6ede8688a8e488e45ce454d216daf50ce4ac61b3e714932e32c",
    ("split-brain", 4):
        "e43d89ffc0c1cb77543e0a566e13bcacbbdb28086a95a655e298a36d82be3aed",
}

K7_SPLIT_BRAIN_PIN = (
    "6886e70ccd3d8143ee69782c10026845bccd6d5c6bb537d53e301d26b720844b")


@pytest.mark.parametrize("plan,di", sorted(K4_PINS))
def test_k4_digest_pinned(plan, di):
    g = clique(4)
    m = run(g, K4_INPUTS, 1, builtin_plans(g, 1)[plan], delay_policy(di, 4),
            K, EPS)
    assert run_digest(m) == K4_PINS[(plan, di)]


def test_k4_pins_cover_every_plan_and_policy():
    assert set(K4_PINS) == {(p, di) for p in builtin_plans(clique(4), 1)
                            for di in range(5)}


def test_k7_split_brain_digest_pinned_traced_and_untraced():
    g = clique(7)
    plan = builtin_plans(g, 2)["split-brain"]
    plain = run(g, K7_INPUTS, 2, plan, UniformDelay(seed=3), K, EPS)
    lines = []
    traced = run(g, K7_INPUTS, 2, plan, UniformDelay(seed=3), K, EPS,
                 trace=lines.append)
    assert len(lines) == traced.deliveries
    assert all(json.loads(ln)["deliver_time"] > 0 for ln in lines)
    assert run_digest(plain) == K7_SPLIT_BRAIN_PIN
    assert run_digest(traced) == K7_SPLIT_BRAIN_PIN


# One delivery completes two threads of node 1 at time 52 in round 0, for
# the fault sets {} and {3}.  Same-delivery latches go in thread index order
# (the lexicographic fault-set order), so {} latches and floods first; this
# digest records that order.
FORGER_TIE_PIN = (
    "5f4fa9e366c719eb3b10b99a6d073c95225ec418f0cf5912a7544f0a4de0729b")


def test_k4_forger_same_delivery_latches_in_thread_order():
    g = clique(4)
    delay = TargetedSlowDelay(seed=46, factor=4,
                              victims=frozenset({(0, 1), (2, 0)}))
    m = run(g, [0.5, 0.0, 0.0, 0.25], 1, builtin_plans(g, 1)["forger"],
            delay, K, EPS)
    assert [fv for v, r, fv in m.latches if (v, r) == (1, 0)] == [
        frozenset({0}), frozenset({2}), frozenset(), frozenset({3})]
    assert run_digest(m) == FORGER_TIE_PIN
