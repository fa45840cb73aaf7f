"""Output checks and digests for the benchmark's workloads.

Every check is computed from the benchmark's own inputs and from oracles
written here, never from a stored copy of earlier output.  Each check returns
a list of problems; an empty list means the result passed.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from itertools import combinations

TOL = 1e-12


# ---------------------------------------------------------------------------
# Simulation runs


def rounds_needed(K: float, eps: float) -> int:
    """floor(log2(K / eps)) + 1, as the first r with K / 2**r < eps."""
    r = 0
    while K / 2 ** r >= eps:
        r += 1
    return r


def rebuilt_values(m, honest: list, r_out: int):
    """Per-node round values rebuilt from the filter-and-average records:
    x_0 is the input and x_{r+1} the midpoint of round r's kept extremes.
    None if a record is missing."""
    xs = {v: [float(m.inputs[v])] for v in honest}
    for r in range(r_out):
        for v in honest:
            rec = m.fa_records.get((v, r))
            if rec is None:
                return None
            xs[v].append((rec.lo_value + rec.hi_value) / 2.0)
    return xs


def check_run(m, inputs: list, f: int, K: float, eps: float,
              invariants_ok: bool) -> list:
    """The per-run guarantees, from the benchmark's inputs and parameters."""
    problems = []
    n = len(inputs)
    faulty = set(m.faulty)
    if len(faulty) > f or not faulty <= set(range(n)):
        problems.append(f"fault set {sorted(faulty)} exceeds f={f}")
    if list(m.inputs) != list(inputs):
        problems.append("run reports other inputs than it was given")
    honest = [v for v in range(n) if v not in faulty]
    r_out = rounds_needed(K, eps)
    if m.r_out != r_out:
        problems.append(f"r_out is {m.r_out}, expected {r_out}")
    if m.stalled:
        problems.append("run stalled")
    missing = [v for v in honest if m.outputs.get(v) is None]
    if missing:
        problems.append(f"no output from honest nodes {missing}")
    if problems:
        return problems
    xs = rebuilt_values(m, honest, r_out)
    if xs is None:
        return ["an honest node has no filter-and-average record"]
    lo = min(inputs[v] for v in honest)
    hi = max(inputs[v] for v in honest)
    outs = [m.outputs[v] for v in honest]
    for v in honest:
        if not lo - TOL <= m.outputs[v] <= hi + TOL:
            problems.append(f"node {v} output {m.outputs[v]} outside the "
                            f"honest input range [{lo}, {hi}]")
        if xs[v][-1] != m.outputs[v]:
            problems.append(f"node {v} output {m.outputs[v]} is not its "
                            f"last round value {xs[v][-1]}")
    if max(outs) - min(outs) >= eps:
        problems.append(f"output spread {max(outs) - min(outs)} >= {eps}")
    U = [max(xs[v][r] for v in honest) for r in range(r_out + 1)]
    mu = [min(xs[v][r] for v in honest) for r in range(r_out + 1)]
    if U != list(m.U) or mu != list(m.mu):
        problems.append("reported per-round max/min differ from the values "
                        "rebuilt from the filter-and-average records")
    for r in range(r_out):
        s0, s1 = U[r] - mu[r], U[r + 1] - mu[r + 1]
        if s1 > s0 / 2.0 + TOL:
            problems.append(f"round {r + 1}: spread {s1} exceeds half "
                            f"of {s0}")
    for r in range(r_out):
        for i, v in enumerate(honest):
            for u in honest[i + 1:]:
                a = m.fa_records[(v, r)].survivors
                b = m.fa_records[(u, r)].survivors
                if not a & b:
                    problems.append(f"round {r}: survivor sets of nodes "
                                    f"{v} and {u} do not overlap")
    if not invariants_ok:
        problems.append("assert_round_invariants reports violations")
    return problems


def check_csv(text: str, m, honest: list) -> list:
    """The metrics CSV holds one row per round with the rebuilt max/min."""
    xs = rebuilt_values(m, honest, m.r_out)
    if xs is None:
        return ["cannot rebuild round values for the CSV check"]
    lines = text.splitlines()
    if not lines or lines[0] != "round,U,mu,spread":
        return ["metrics CSV has no header"]
    rows = lines[1:]
    if len(rows) != m.r_out + 1:
        return [f"metrics CSV has {len(rows)} rows, expected {m.r_out + 1}"]
    for r, row in enumerate(rows):
        U = max(xs[v][r] for v in honest)
        mu = min(xs[v][r] for v in honest)
        if row.split(",")[:3] != [str(r), repr(U), repr(mu)]:
            return [f"metrics CSV row {r} is {row!r}, expected U={U!r}, "
                    f"mu={mu!r}"]
    return []


def check_trace_file(path: str, deliveries: int) -> list:
    """One JSONL record per delivery."""
    if not os.path.isfile(path):
        return [f"no trace file at {path}"]
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != deliveries:
        return [f"trace has {lines} records for {deliveries} deliveries"]
    return []


def run_digest(m, csv: str) -> bytes:
    """Metrics CSV, outputs, deliveries and FA records of one run."""
    h = hashlib.sha256()
    h.update(csv.encode())
    h.update(repr(sorted(m.outputs.items())).encode())
    h.update(str(m.deliveries).encode())
    for (v, r), rec in sorted(m.fa_records.items()):
        h.update(repr((v, r, sorted(rec.fv), rec.total, rec.lo_trim,
                       rec.hi_trim, rec.lo_value, rec.hi_value,
                       sorted(rec.survivors))).encode())
    return h.digest()


# ---------------------------------------------------------------------------
# Condition checkers


def bfs_reach(n: int, edges: frozenset, v: int, avoid: frozenset) -> frozenset:
    """Nodes outside avoid with a path to v inside V minus avoid."""
    preds = {}
    for a, b in edges:
        preds.setdefault(b, []).append(a)
    seen = {v}
    todo = deque([v])
    while todo:
        w = todo.popleft()
        for u in preds.get(w, ()):
            if u not in seen and u not in avoid:
                seen.add(u)
                todo.append(u)
    return frozenset(seen)


def brute_k_reach(n: int, edges: frozenset, f: int, k: int) -> bool:
    """k-reach by enumeration: for every common set F (|F| <= f for odd k,
    empty for even k), the reach sets of every node v under F plus a private
    set of at most (k // 2) * f nodes must pairwise intersect."""
    common = f if k % 2 else 0
    private = k // 2 * f
    nodes = range(n)

    def subsets(limit):
        for size in range(limit + 1):
            yield from (frozenset(c) for c in combinations(nodes, size))

    reach = {}
    for F in subsets(common):
        sets = set()
        for Fp in subsets(private):
            avoid = F | Fp
            for v in nodes:
                if v in avoid:
                    continue
                key = (v, avoid)
                if key not in reach:
                    reach[key] = bfs_reach(n, edges, v, avoid)
                sets.add(reach[key])
        sets = list(sets)
        for i, a in enumerate(sets):
            for b in sets[i:]:
                if not a & b:
                    return False
    return True


def check_verdict(g, f: int, k: int, verdict) -> list:
    """A false verdict carries a witness that really falsifies k-reach."""
    if verdict.holds:
        return []
    w = verdict.witness
    common = f if k % 2 else 0
    private = k // 2 * f
    if (getattr(w, "k", None) != k or len(w.F) > common
            or len(w.F_v) > private or len(w.F_u) > private):
        return [f"k={k} f={f}: witness {w} is out of bounds"]
    if not w.violates(g):
        return [f"k={k} f={f}: witness {w} does not violate the condition"]
    return []


def check_clique_verdict(n: int, f: int, k: int, holds: bool) -> list:
    """On a clique with n > f, k-reach holds exactly when n > k*f."""
    if n > f and holds != (n > k * f):
        return [f"clique n={n} f={f} k={k}: verdict {holds}, expected "
                f"{n > k * f}"]
    return []


def labeled_digraphs_upto(n_max: int) -> int:
    return sum(2 ** (n * (n - 1)) for n in range(1, n_max + 1))


def check_audit(report, n_max: int) -> list:
    problems = []
    if report.mismatches:
        problems.append(f"audit reports {len(report.mismatches)} mismatches")
    expected = labeled_digraphs_upto(n_max)
    if report.graphs_checked != expected:
        problems.append(f"audit checked {report.graphs_checked} graphs, "
                        f"expected {expected}")
    return problems


def is_redundant_walk(seq: tuple) -> bool:
    """Two simple segments sharing their junction."""
    for i in range(len(seq)):
        if (len(set(seq[:i + 1])) == i + 1
                and len(set(seq[i:])) == len(seq) - i):
            return True
    return False


def brute_redundant_counts(n: int, edges: frozenset,
                           excluded: frozenset) -> dict:
    """Redundant paths per terminal, by enumerating walks.  Prefixes of a
    redundant walk are redundant, so the search stops at the first prefix
    that is not."""
    succ = {}
    for a, b in edges:
        if a not in excluded and b not in excluded:
            succ.setdefault(a, []).append(b)
    counts = {v: 0 for v in range(n) if v not in excluded}
    stack = [(v,) for v in counts]
    while stack:
        walk = stack.pop()
        counts[walk[-1]] += 1
        for w in succ.get(walk[-1], ()):
            nxt = walk + (w,)
            if is_redundant_walk(nxt):
                stack.append(nxt)
    return counts


def check_counts(counts: dict, expected: dict) -> list:
    if dict(counts) != expected:
        return [f"redundant-path counts {dict(counts)} differ from the "
                f"enumeration {expected}"]
    return []
