"""The benchmark's four workloads.

A workload turns a seed into inputs once (`setup`), then hands out rounds of
operations.  Every round repeats the same operations on fresh graph objects,
so graph memos start cold and each round's outputs must repeat exactly.  An
operation's `call` is the timed part and touches only the package's public
entry points; its `finish` checks the result, untimed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from reachcons import cli, conditions, generate, graph, simnet

import checks

K = 1.0
EPS = 0.25
INPUT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class Outcome:
    problems: list
    work: int  # deliveries, or condition verdicts
    digest: bytes
    tallies: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    finish: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# Simulation runs through the CLI's building blocks


def simulate(cfg: dict):
    """load -> build -> run -> metrics_csv -> assert_round_invariants."""
    g = cli.load_graph(cfg["graph"])
    plan = cli.build_plan(cfg["plan"], g, cfg["f"], K)
    delay = cli.build_delay(cfg["delay"], cfg["seed"])
    m = simnet.run(g, cfg["inputs"], cfg["f"], plan, delay, K, EPS)
    csv = cli.metrics_csv(m)
    report = simnet.assert_round_invariants(m)
    return m, csv, report.ok


def run_outcome(m, csv: str, cfg: dict, invariants_ok: bool,
                extra: list = ()) -> Outcome:
    problems = checks.check_run(m, cfg["inputs"], cfg["f"], K, EPS,
                                invariants_ok)
    if not problems:
        problems += checks.check_csv(csv, m, m.honest)
    problems = [f"{cfg['label']}: {p}" for p in list(problems) + list(extra)]
    return Outcome(problems, m.deliveries, checks.run_digest(m, csv),
                   {"deliveries": m.deliveries, "latches": len(m.latches),
                    "fa_records": len(m.fa_records)})


def sim_op(cfg: dict) -> Op:
    return Op(cfg["label"], lambda: simulate(cfg),
              lambda res: run_outcome(res[0], res[1], cfg, res[2]))


class FloodK7:
    """One K7 run at f = 2 under crash-min: the redundant-path flood."""

    name = "flood-k7"

    def setup(self, seed: int, tmpdir: str):
        delay_seed = random.Random(seed).randrange(2 ** 31)
        return {"label": f"k7 crash-min uniform seed={delay_seed}",
                "graph": "builtin:k7", "f": 2,
                "inputs": [i / 6.0 for i in range(7)],
                "plan": {"name": "crash-min"}, "delay": {"kind": "uniform"},
                "seed": delay_seed}

    def round_ops(self, cfg) -> list:
        return [sim_op(cfg)]


# The five delay policies of the acceptance suite, as CLI specs; the seed
# is drawn per case.
DELAY_SPECS = (
    {"kind": "uniform"},
    {"kind": "uniform", "lo": 1, "hi": 7},
    {"kind": "targeted-slow", "factor": 5,
     "victims": [[0, 1], [1, 0], [0, 2]]},
    {"kind": "targeted-slow", "factor": 7, "victims": [[2, 0], [3, 0]]},
    {"kind": "round-skew", "offsets": {"0": 3, "1": 1}},
)
SMALL_PLANS = ("crash-min", "crash-max", "equivocator", "split-brain")
SEEDS_PER_CASE = 10

# Fails on every run: Node._wake_all iterates self.rounds while a sweep it
# triggers starts the next round.  It does not depend on the workload seed.
KNOWN_FAILURE = {"label": "k4 forger uniform(1..7) seed=3 (known failure)",
                 "graph": "builtin:k4", "f": 1, "inputs": [0.0, 1.0, 1.0, 0.0],
                 "plan": {"name": "forger"},
                 "delay": {"kind": "uniform", "lo": 1, "hi": 7}, "seed": 3}


class SmallRuns:
    """Many K4 runs at f = 1: plans x delay policies x seeded delay seeds
    and inputs, plus the known failure."""

    name = "small-runs"

    def setup(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        cases = []
        for plan, (di, spec) in product(SMALL_PLANS, enumerate(DELAY_SPECS)):
            for _ in range(SEEDS_PER_CASE):
                dseed = rng.randrange(2 ** 31)
                cases.append({
                    "label": f"k4 {plan} delay#{di} seed={dseed}",
                    "graph": "builtin:k4", "f": 1,
                    "inputs": [rng.choice(INPUT_GRID) for _ in range(4)],
                    "plan": {"name": plan}, "delay": spec, "seed": dseed})
        cases.append(KNOWN_FAILURE)
        return cases

    def round_ops(self, cases) -> list:
        return [sim_op(cfg) for cfg in cases]


class TracedRun:
    """`reachcons run` on K7 at f = 2 under split-brain, writing the metrics
    CSV and the per-delivery JSONL trace."""

    name = "traced-run"

    def setup(self, seed: int, tmpdir: str):
        delay_seed = random.Random(seed).randrange(2 ** 31)
        cfg = {"label": f"k7 split-brain uniform seed={delay_seed} (cli)",
               "graph": "builtin:k7", "f": 2,
               "inputs": [i / 6.0 for i in range(7)],
               "plan": {"name": "split-brain"}, "delay": {"kind": "uniform"},
               "seed": delay_seed,
               "out": os.path.join(tmpdir, "metrics.csv"),
               "trace": os.path.join(tmpdir, "trace.jsonl")}
        path = os.path.join(tmpdir, "scenario.json")
        with open(path, "w") as fh:
            json.dump({k: v for k, v in cfg.items() if k != "label"}, fh)
        # Keep the RunMetrics the CLI builds, so the run can be checked
        # beyond what the CLI writes out.
        captured = []
        real_run = simnet.run

        def capture(*args, **kwargs):
            m = real_run(*args, **kwargs)
            captured.append(m)
            return m

        simnet.run = capture
        return cfg, path, captured

    def round_ops(self, state) -> list:
        cfg, path, captured = state

        def call():
            captured.clear()
            return cli.main(["run", path])

        def finish(rc) -> Outcome:
            m = captured.pop()
            with open(cfg["out"]) as fh:
                csv = fh.read()
            extra = [] if rc == 0 else [f"reachcons run exited {rc}"]
            extra += checks.check_trace_file(cfg["trace"], m.deliveries)
            if os.path.exists(cfg["trace"]):
                os.remove(cfg["trace"])
            return run_outcome(m, csv, cfg, rc == 0, extra)

        return [Op(cfg["label"], call, finish)]


# ---------------------------------------------------------------------------
# Condition checkers


AUDIT_F, AUDIT_N = 1, 4
RANDOM_SIZES = (5, 6, 7)
GRAPHS_PER_SIZE = 40
CHECK_FS = (1, 2)
CHECK_KS = (1, 2, 3)
CLIQUE_SIZES = range(3, 8)
BRUTE_CHECKS = 12


class Conditions:
    """The checkers and graph primitives, with no simulation: the audit,
    k-reach on seeded random digraphs and on cliques, and redundant-path
    counts on two_cliques(7, 8) and on graphs small enough to enumerate."""

    name = "conditions"

    def setup(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        randoms = []
        for n in RANDOM_SIZES:
            for i in range(GRAPHS_PER_SIZE):
                # Densities are stratified over [0.4, 0.95), so every seed
                # spans sparse and dense graphs alike.
                p = 0.4 + 0.55 * (i + rng.random()) / GRAPHS_PER_SIZE
                g = generate.random_digraph(n, p, rng.randrange(2 ** 31))
                randoms.append((g.n, g.edges))
        triples = [(gi, f, k) for gi in range(len(randoms))
                   for f in CHECK_FS for k in CHECK_KS]
        brute = set(rng.sample(triples, BRUTE_CHECKS))
        small = generate.random_digraph(5, rng.uniform(0.5, 0.8),
                                        rng.randrange(2 ** 31))
        enum_cases = [((4, generate.clique(4).edges), frozenset()),
                      ((4, generate.clique(4).edges), frozenset({3})),
                      ((5, small.edges), frozenset()),
                      ((5, small.edges), frozenset({rng.randrange(5)}))]
        bridged = generate.two_cliques(7, 8, seed=11)
        return {"randoms": randoms, "brute": brute, "enum": enum_cases,
                "two_cliques": (bridged.n, bridged.edges), "oracle": {}}

    def round_ops(self, st) -> list:
        oracle = st["oracle"]  # deterministic answers, kept across rounds
        ops = [Op("equivalence_audit(1, 4)",
                  lambda: conditions.equivalence_audit(AUDIT_F, AUDIT_N),
                  self._audit_outcome)]
        for gi, (n, edges) in enumerate(st["randoms"]):
            g = graph.DiGraph(n, edges)
            for f, k in product(CHECK_FS, CHECK_KS):
                brute = (gi, f, k) in st["brute"]
                ops.append(self._kreach_op(f"random#{gi} n={n}", g, f, k,
                                           brute, oracle))
        for n in CLIQUE_SIZES:
            g = generate.clique(n)
            for f, k in product(CHECK_FS, CHECK_KS):
                ops.append(self._kreach_op(f"clique n={n}", g, f, k, False,
                                           oracle, clique=True))
        bridged = graph.DiGraph(*st["two_cliques"])
        ops.append(Op("count_redundant_paths(two_cliques(7, 8, seed=11))",
                      lambda: graph.count_redundant_paths(bridged,
                                                          frozenset()),
                      lambda c: self._count_outcome(c, bridged.n, None)))
        for (n, edges), excluded in st["enum"]:
            g = graph.DiGraph(n, edges)
            ops.append(self._count_op(g, excluded, oracle))
        return ops

    @staticmethod
    def _audit_outcome(report) -> Outcome:
        problems = checks.check_audit(report, AUDIT_N)
        digest = repr((report.graphs_checked,
                       len(report.mismatches))).encode()
        # Six verdicts per graph: k = 1, 2, 3, in reach and partition form.
        return Outcome(problems, report.graphs_checked * 6, digest,
                       {"audit_graphs": report.graphs_checked,
                        "audit_mismatches": len(report.mismatches)})

    @staticmethod
    def _kreach_op(label, g, f, k, brute, oracle, clique=False) -> Op:
        label = f"{label} f={f} k={k}"

        def finish(verdict) -> Outcome:
            problems = checks.check_verdict(g, f, k, verdict)
            if clique:
                problems += checks.check_clique_verdict(g.n, f, k,
                                                        verdict.holds)
            if brute:
                key = ("kreach", g.n, g.edges, f, k)
                if key not in oracle:
                    oracle[key] = checks.brute_k_reach(g.n, g.edges, f, k)
                if oracle[key] != verdict.holds:
                    problems.append(f"verdict {verdict.holds}, enumeration "
                                    f"says {oracle[key]}")
            tally = "kreach_holds" if verdict.holds else "kreach_fails"
            digest = repr((label, verdict.holds, verdict.witness)).encode()
            return Outcome([f"{label}: {p}" for p in problems], 1, digest,
                           {tally: 1})

        return Op(label, lambda: conditions.check_k_reach(g, f, k), finish)

    def _count_op(self, g, excluded, oracle) -> Op:
        def finish(counts) -> Outcome:
            key = ("redcount", g.n, g.edges, excluded)
            if key not in oracle:
                oracle[key] = checks.brute_redundant_counts(g.n, g.edges,
                                                            excluded)
            return self._count_outcome(counts, g.n, oracle[key])

        return Op(f"count_redundant_paths(n={g.n}, excluded="
                  f"{sorted(excluded)})",
                  lambda: graph.count_redundant_paths(g, excluded), finish)

    @staticmethod
    def _count_outcome(counts, n, expected) -> Outcome:
        if expected is None:
            # Too large to enumerate: every terminal is reached at least by
            # its own single-node path.
            problems = ([] if sorted(counts) == list(range(n))
                        and all(c >= 1 for c in counts.values())
                        else [f"implausible counts {counts}"])
        else:
            problems = checks.check_counts(counts, expected)
        return Outcome(problems, 0,
                       hashlib.sha256(repr(sorted(counts.items())).encode())
                       .digest(),
                       {"redundant_paths": sum(counts.values())})


WORKLOADS = {w.name: w for w in (FloodK7(), SmallRuns(), TracedRun(),
                                 Conditions())}
