"""Reachability and partition conditions with violation witnesses.

The k-reach family quantifies reach-set intersections over suspected fault
sets; the CCS/CCA/BCS conditions quantify a point-to-point degree test over
vertex partitions.  Both sides are decided by brute-force enumeration, and
the audit cross-checks their equivalence on small graphs.  The
enumerations run on bitmasks: per-graph reach rows for k-reach, and a
per-graph in-neighbourhood table for the partition forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import generate
from .errors import InvalidArgumentError
from .graph import (DiGraph, _reach_row, mask_of, reach_set, set_of,
                    subset_masks)

CCS = "ccs"
CCA = "cca"
BCS = "bcs"


@dataclass(frozen=True)
class ReachViolation:
    """A quantifier assignment falsifying a k-reach predicate."""

    k: int
    F: frozenset
    F_v: frozenset
    F_u: frozenset
    v: int
    u: int

    def violates(self, g: DiGraph) -> bool:
        rv = reach_set(g, self.v, self.F | self.F_v)
        ru = reach_set(g, self.u, self.F | self.F_u)
        return not rv & ru


@dataclass(frozen=True)
class PartitionViolation:
    """A partition falsifying a CCS/CCA/BCS disjunction at threshold t."""

    which: str
    t: int
    F: frozenset
    L: frozenset
    C: frozenset
    R: frozenset

    def violates(self, g: DiGraph) -> bool:
        return (not _point(g, self.L | self.C, self.R, self.t)
                and not _point(g, self.R | self.C, self.L, self.t))


@dataclass(frozen=True)
class ConditionVerdict:
    holds: bool
    witness: Optional[object] = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise InvalidArgumentError("false verdicts need a witness")


def _kreach_bounds(k: int, f: int) -> tuple:
    """(common-set bound, private-set bound) for the k-reach predicate.

    Odd k uses one common suspected set of size at most f plus (k-1)/2
    private sets per node; even k uses k/2 private sets per node.  A node's
    private sets collapse to a single set of size at most (count * f), since
    only the union enters the reach computation.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if k % 2:
        return f, (k - 1) // 2 * f
    return 0, k // 2 * f


def check_k_reach(g: DiGraph, f: int, k: int) -> ConditionVerdict:
    """Decide the k-reach condition; k in {1,2,3} are the standard forms."""
    if f < 0:
        raise InvalidArgumentError("f must be nonnegative")
    common_bound, private_bound = _kreach_bounds(k, f)
    n = g.n

    def meet_pairwise(masks) -> bool:
        # Only inclusion-minimal masks are compared: if they meet pairwise,
        # so do their supersets.
        minimal = []
        for m in sorted(masks, key=int.bit_count):
            for low in minimal:
                if not low & m:
                    return False
                if not low & ~m:
                    break  # m contains low, so m is not minimal
            else:
                minimal.append(m)
        return True

    private = subset_masks(n, private_bound)
    for fmask in subset_masks(n, common_bound):
        # Fast path: F passes iff the reach masks of all admissible (node,
        # private set) pairs meet pairwise.  Reach shrinks as the avoided
        # set grows, so every minimal mask comes from a private set of q
        # nodes outside F, the most that still leave a node out.
        q = min(private_bound, (g.full_mask & ~fmask).bit_count() - 1)
        masks = set()
        for pmask in private:
            if not pmask & fmask and pmask.bit_count() == q:
                masks.update(_reach_row(g, fmask | pmask))
        masks.discard(0)  # the row entries of avoided nodes
        if meet_pairwise(masks):
            continue
        # Slow path, only on failure: first witness in enumeration order.
        cands = [(pmask, _reach_row(g, fmask | pmask)) for pmask in private]
        for fv, row_v in cands:
            for fu, row_u in cands:
                for v, rv in enumerate(row_v):
                    if not rv:
                        continue
                    for u, ru in enumerate(row_u):
                        if ru and not rv & ru:
                            return ConditionVerdict(
                                False,
                                ReachViolation(k, set_of(fmask), set_of(fv),
                                               set_of(fu), v, u))
        raise AssertionError("mask scan found a violation the ordered "
                             "scan did not")
    return ConditionVerdict(True)


def _point(g: DiGraph, A, B, x: int) -> bool:
    amask = A if isinstance(A, int) else mask_of(A)
    bmask = B if isinstance(B, int) else mask_of(B)
    into = 0
    for w in set_of(bmask):
        into |= g.in_masks[w]
    return (amask & into).bit_count() >= x


def check_point(g: DiGraph, A: frozenset, B: frozenset, x: int) -> bool:
    """True iff B has at least x distinct incoming neighbors inside A."""
    A = frozenset(A)
    B = frozenset(B)
    if A & B:
        raise InvalidArgumentError("A and B must be disjoint")
    if not B:
        raise InvalidArgumentError("B must be nonempty")
    return _point(g, A, B, x)


def check_partition_condition(g: DiGraph, f: int,
                              which: str) -> ConditionVerdict:
    """Decide CCS, CCA, or BCS by enumerating all admissible partitions.

    CCS/BCS partition V into F, L, C, R with |F| <= f; CCA partitions V into
    L, C, R.  L and R must be nonempty.  Each partition must satisfy
    point(L|C -> R, t) or point(R|C -> L, t) with t = 1 for CCS and t = f+1
    for CCA/BCS.
    """
    if f < 0:
        raise InvalidArgumentError("f must be nonnegative")
    which = which.lower()
    if which not in (CCS, CCA, BCS):
        raise InvalidArgumentError(f"unknown condition {which!r}")
    t = 1 if which == CCS else f + 1
    # into[B]: the nodes with an edge into B, for every B, so that
    # point(A -> B, t) is one popcount of A & into[B].
    into = g._memo.get("into")
    if into is None:
        into = [0]
        for m in g.in_masks:
            into += [x | m for x in into]
        g._memo["into"] = into

    def labelings(nodes) -> list:
        """(L mask, R mask) of every labeling, in product("LCR") order."""
        out = [(0, 0)]
        for v in nodes:
            b = 1 << v
            out = [x for lm, rm in out
                   for x in ((lm | b, rm), (lm, rm), (lm, rm | b))]
        return out

    fault_sets = subset_masks(g.n, f) if which in (CCS, BCS) else (0,)
    for fmask in fault_sets:
        rest = g.full_mask & ~fmask
        nodes = [v for v in range(g.n) if rest >> v & 1]
        # Split the labelings into a head and a tail half, so only
        # O(3^(n/2)) of them are ever held at once.
        half = len(nodes) // 2
        tail = labelings(nodes[half:])
        for lh, rh in labelings(nodes[:half]):
            for lt, rt in tail:
                lmask = lh | lt
                rmask = rh | rt
                if not lmask or not rmask:
                    continue
                if (rest & ~rmask & into[rmask]).bit_count() >= t:
                    continue
                if (rest & ~lmask & into[lmask]).bit_count() >= t:
                    continue
                return ConditionVerdict(
                    False,
                    PartitionViolation(which, t, set_of(fmask),
                                       set_of(lmask),
                                       set_of(rest & ~lmask & ~rmask),
                                       set_of(rmask)))
    return ConditionVerdict(True)


_MATCHING = {1: CCS, 2: CCA, 3: BCS}


@dataclass(frozen=True)
class Mismatch:
    n: int
    edges: frozenset
    k: int
    which: str
    k_reach_holds: bool
    partition_holds: bool


@dataclass
class AuditReport:
    f: int
    n_max: int
    graphs_checked: int = 0
    mismatches: list = field(default_factory=list)
    sampled: bool = False
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


EXHAUSTIVE_AUDIT_N = 4


def equivalence_audit(f: int, n_max: int, seed: int = 2026,
                      samples: int = 1000,
                      _partition_check=check_partition_condition
                      ) -> AuditReport:
    """Cross-check k-reach against CCS/CCA/BCS for k = 1, 2, 3.

    Exhaustive over all labeled digraphs up to EXHAUSTIVE_AUDIT_N nodes;
    above that, a seeded random sample is used and flagged in the report.
    """
    if not 1 <= n_max <= 6:
        raise InvalidArgumentError(
            f"audit needs 1 <= n_max <= 6, got {n_max}")
    if n_max > EXHAUSTIVE_AUDIT_N and samples < 1:
        raise InvalidArgumentError(
            f"audit above n = {EXHAUSTIVE_AUDIT_N} samples graphs; need "
            f"samples >= 1, got {samples}")
    report = AuditReport(f=f, n_max=n_max)

    def check(g: DiGraph):
        report.graphs_checked += 1
        for k, which in sorted(_MATCHING.items()):
            a = check_k_reach(g, f, k).holds
            b = _partition_check(g, f, which).holds
            if a != b:
                report.mismatches.append(
                    Mismatch(g.n, g.edges, k, which, a, b))

    for n in range(1, min(n_max, EXHAUSTIVE_AUDIT_N) + 1):
        for g in generate.all_digraphs(n):
            check(g)
    if n_max > EXHAUSTIVE_AUDIT_N:
        report.sampled = True
        report.seed = seed
        rng = random.Random(seed)
        sizes = list(range(EXHAUSTIVE_AUDIT_N + 1, n_max + 1))
        for _ in range(samples):
            n = rng.choice(sizes)
            p = rng.uniform(0.1, 0.9)
            g = generate.random_digraph(n, p, rng.randrange(2 ** 31))
            check(g)
    return report
