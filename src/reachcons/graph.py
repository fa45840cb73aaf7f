"""Directed-graph representation and combinatorial primitives.

Node sets are exposed as frozensets of small integers; internally most
routines work on bitmasks (bit i set means node i is a member).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

from .errors import BudgetError, GraphFormatError, InvalidArgumentError

# Redundant-path enumeration is exponential; refuse graphs above this size.
DEFAULT_ENUM_CAP = 12


def mask_of(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


@lru_cache(maxsize=32)
def subset_masks(n: int, limit: int) -> tuple:
    """Masks of the subsets of range(n) with at most limit members, ordered
    by (size, lex): the order of combinations(range(n), size) by size."""
    return tuple(mask_of(combo) for size in range(min(limit, n) + 1)
                 for combo in combinations(range(n), size))


@dataclass(frozen=True)
class DiGraph:
    """Simple directed graph on nodes 0..n-1, no self-loops."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise InvalidArgumentError("node count must be nonnegative")
        object.__setattr__(self, "edges", frozenset(self.edges))
        out_masks = [0] * self.n
        in_masks = [0] * self.n
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidArgumentError(f"edge {e} out of range")
            if u == v:
                raise InvalidArgumentError(f"self-loop {e} not allowed")
            out_masks[u] |= 1 << v
            in_masks[v] |= 1 << u
        object.__setattr__(self, "out_masks", tuple(out_masks))
        object.__setattr__(self, "in_masks", tuple(in_masks))
        object.__setattr__(self, "full_mask", (1 << self.n) - 1)
        object.__setattr__(self, "_memo", {})

    @property
    def nodes(self) -> range:
        return range(self.n)

    def out_neighbors(self, u: int) -> tuple:
        return tuple(sorted(set_of(self.out_masks[u])))

    def in_neighbors(self, v: int) -> tuple:
        return tuple(sorted(set_of(self.in_masks[v])))

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges


def parse_edge_list(text: str) -> DiGraph:
    """Parse the edge-list format: header "n <count>", then "u v" lines.

    Lines starting with '#' are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise GraphFormatError(f"bad header line: {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GraphFormatError(f"bad node count: {head[1]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    try:
        return DiGraph(n, frozenset(edges))
    except InvalidArgumentError as exc:
        raise GraphFormatError(str(exc)) from None


def format_edge_list(g: DiGraph) -> str:
    lines = [f"n {g.n}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reach sets


def _closures(adj, blocked: int) -> tuple:
    """For each node, the mask of nodes it reaches through adj (a mask of
    neighbours per node) without entering blocked, or 0 for a node in
    blocked: one BFS per node, a level at a time."""
    out = []
    for v in range(len(adj)):
        if blocked >> v & 1:
            out.append(0)
            continue
        cur = frontier = 1 << v
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~(cur | blocked)
            cur |= frontier
        out.append(cur)
    return tuple(out)


def _reach_row(g: DiGraph, avoid_mask: int) -> tuple:
    """Reach mask of every node in the subgraph avoiding avoid_mask, and 0
    for the nodes inside it: a backward BFS per node; memoised per graph."""
    key = ("reach", avoid_mask)
    row = g._memo.get(key)
    if row is None:
        row = g._memo[key] = _closures(g.in_masks, avoid_mask)
    return row


def _reach_mask(g: DiGraph, v: int, avoid_mask: int) -> int:
    """Bitmask of nodes outside avoid_mask with a path to v avoiding it;
    v must lie outside avoid_mask."""
    return _reach_row(g, avoid_mask)[v]


def reach_set(g: DiGraph, v: int, F: frozenset) -> frozenset:
    """Nodes outside F that reach v in the subgraph induced by V minus F."""
    fmask = mask_of(F)
    if fmask >> v & 1:
        raise InvalidArgumentError(f"node {v} is in the excluded set")
    return set_of(_reach_mask(g, v, fmask))


# ---------------------------------------------------------------------------
# Redundant paths
#
# A redundant path is a walk decomposing into two simple segments that share
# their junction node; either segment may be degenerate, so every simple path
# and the single-node path <v> qualify.  Every redundant walk has a unique
# canonical decomposition where the first segment is the maximal simple
# prefix; enumeration and counting both follow that canonical parse, so each
# node sequence is produced exactly once.


@dataclass(frozen=True)
class RedundantPath:
    """A redundant walk; split is the junction index of the canonical parse.

    The first simple segment is nodes[:split+1] and the second is
    nodes[split:]; split == len(nodes)-1 means the second segment is
    degenerate (the walk itself is simple).
    """

    nodes: tuple
    split: int = field(compare=False)

    def __len__(self):
        return len(self.nodes)


def _hop(state: tuple, prev: int, w: int, i: int) -> Optional[tuple]:
    """The walk state (phase, m1, m2, split) after the hop prev -> w onto
    index i of the walk, or None if the walk stops being redundant.

    In phase 1 the walk is still a simple path with visited-mask m1, and
    split is its last index; in phase 2 the second segment is open with
    visited-mask m2, from the junction at index split.
    """
    phase, m1, m2, split = state
    bit = 1 << w
    if phase == 2:
        return None if m2 & bit else (2, m1, m2 | bit, split)
    if m1 & bit:
        return 2, m1, 1 << prev | bit, i - 1
    return 1, m1 | bit, 0, i


def _walk_state(g: DiGraph, seq: tuple) -> Optional[tuple]:
    """Greedy-parse a node sequence: its walk state after the last hop, or
    None if it is not a redundant path in g."""
    if not seq:
        return None
    prev = seq[0]
    if not 0 <= prev < g.n:
        return None
    state = (1, 1 << prev, 0, 0)
    for i in range(1, len(seq)):
        w = seq[i]
        if not (0 <= w < g.n and g.out_masks[prev] >> w & 1):
            return None
        state = _hop(state, prev, w, i)
        if state is None:
            return None
        prev = w
    return state


def is_redundant_path(g: DiGraph, seq: tuple) -> bool:
    return _walk_state(g, seq) is not None


def make_redundant_path(g: DiGraph, seq: tuple) -> RedundantPath:
    state = _walk_state(g, seq)
    if state is None:
        raise InvalidArgumentError(f"{seq} is not a redundant path")
    return RedundantPath(tuple(seq), state[3])


def _redundant_by_terminal(g: DiGraph, excluded_mask: int) -> dict:
    """All redundant paths avoiding excluded_mask, grouped by terminal."""
    key = ("redundant", excluded_mask)
    memo = g._memo
    cached = memo.get(key)
    if cached is not None:
        return cached
    allowed = [v for v in range(g.n) if not excluded_mask >> v & 1]
    by_term: dict = {v: [] for v in allowed}
    out_masks = g.out_masks
    # DFS over canonical parses: (path, walk state).
    stack = [((s,), (1, 1 << s, 0, 0)) for s in reversed(allowed)]
    while stack:
        path, state = stack.pop()
        last = path[-1]
        by_term[last].append(RedundantPath(path, state[3]))
        succ = out_masks[last] & ~excluded_mask
        for w in allowed:
            if succ >> w & 1:
                nxt = _hop(state, last, w, len(path))
                if nxt is not None:
                    stack.append((path + (w,), nxt))
    result = {v: frozenset(paths) for v, paths in by_term.items()}
    memo[key] = result
    return result


def enumerate_redundant_paths(g: DiGraph, excluded: frozenset, v: int,
                              max_nodes: int = DEFAULT_ENUM_CAP) -> frozenset:
    """All redundant paths ending at v inside the subgraph avoiding excluded."""
    emask = mask_of(excluded)
    if emask >> v & 1:
        raise InvalidArgumentError(f"terminal {v} is in the excluded set")
    if g.n > max_nodes:
        raise BudgetError(
            f"redundant-path enumeration capped at {max_nodes} nodes "
            f"(graph has {g.n})")
    return _redundant_by_terminal(g, emask)[v]


def count_redundant_paths(g: DiGraph, excluded: frozenset | int) -> dict:
    """Count of redundant paths per terminal, avoiding the excluded set.

    Counts by distinct node sequence; agrees with enumeration but needs no
    per-path storage, so it scales to graphs where enumeration does not.
    """
    emask = excluded if isinstance(excluded, int) else mask_of(excluded)
    key = ("redcount", emask)
    memo = g._memo
    cached = memo.get(key)
    if cached is not None:
        return cached
    allowed = [v for v in range(g.n) if not emask >> v & 1]
    succ = {u: [(w, 1 << w) for w in allowed if g.out_masks[u] >> w & 1]
            for u in allowed}
    totals = {v: 0 for v in allowed}
    # Phase 1, one simple-path length at a time: (last, m1) -> count.  A
    # step onto a visited node opens the second segment; its seed state
    # (w, {last, w}) is the same whatever the first segment's length, so
    # all seeds are merged into one dict.
    ph1 = {(s, 1 << s): 1 for s in allowed}
    ph2: dict = {}
    while ph1:
        nxt: dict = {}
        for (last, m1), c in ph1.items():
            totals[last] += c
            lbit = 1 << last
            for w, bit in succ[last]:
                if m1 & bit:
                    k = (w, lbit | bit)
                    ph2[k] = ph2.get(k, 0) + c
                else:
                    k = (w, m1 | bit)
                    nxt[k] = nxt.get(k, 0) + c
        ph1 = nxt
    # Phase 2, run once over (last, m2): every step adds one node to m2,
    # so a level holds every state of its size before any is expanded.
    while ph2:
        nxt = {}
        for (last, m2), c in ph2.items():
            totals[last] += c
            for w, bit in succ[last]:
                if not m2 & bit:
                    k = (w, m2 | bit)
                    nxt[k] = nxt.get(k, 0) + c
        ph2 = nxt
    memo[key] = totals
    return totals


# ---------------------------------------------------------------------------
# Simple paths


def count_simple_paths(g: DiGraph, c: int, v: int, within_mask: int) -> int:
    """Number of simple (c,v)-paths whose nodes all lie inside within_mask:
    the length of their enumeration, memoised per graph."""
    key = ("spcount", c, v, within_mask)
    count = g._memo.get(key)
    if count is None:
        count = g._memo[key] = len(
            enumerate_simple_paths(g, c, v, within_mask))
    return count


def enumerate_simple_paths(g: DiGraph, c: int, v: int,
                           within_mask: int) -> list:
    """All simple (c,v)-paths inside within_mask, as node tuples."""
    if not within_mask >> c & 1 or not within_mask >> v & 1:
        return []
    out = []
    stack = [((c,), 1 << c)]
    while stack:
        path, visited = stack.pop()
        last = path[-1]
        if last == v:
            out.append(path)
            continue
        succ = g.out_masks[last] & within_mask & ~visited
        w = 0
        rest = succ
        while rest:
            if rest & 1:
                stack.append((path + (w,), visited | (1 << w)))
            rest >>= 1
            w += 1
    return out


# ---------------------------------------------------------------------------
# f-covers


def _path_nodes(p) -> tuple:
    return p.nodes if isinstance(p, RedundantPath) else tuple(p)


def has_f_cover(paths: Iterable, universe: frozenset, f: int):
    """Smallest (by size, then lexicographic) cover of the paths, or None.

    A cover is a subset of universe, size at most f, hitting every path.
    The empty path set is covered by the empty set.
    """
    masks = {mask_of(_path_nodes(p)) for p in paths}
    if not masks:
        return frozenset()
    umask = mask_of(universe)
    if any(m & umask == 0 for m in masks):
        return None
    pool_mask = 0
    for m in masks:
        pool_mask |= m
    pool = sorted(set_of(pool_mask & umask))
    for size in range(0, f + 1):
        for combo in combinations(pool, size):
            cmask = mask_of(combo)
            if all(m & cmask for m in masks):
                return frozenset(combo)
    return None


# ---------------------------------------------------------------------------
# Reduced graphs and source components


def _reduced_out_masks(g: DiGraph, removed_mask: int) -> list:
    return [0 if removed_mask >> u & 1 else g.out_masks[u]
            for u in range(g.n)]


def _source_component_mask(g: DiGraph, removed_mask: int) -> int:
    """Mask of the nodes that reach every node once the nodes in
    removed_mask lose their outgoing edges: one forward BFS per node."""
    key = ("source", removed_mask)
    result = g._memo.get(key)
    if result is None:
        row = _closures(_reduced_out_masks(g, removed_mask), 0)
        result = g._memo[key] = mask_of(
            s for s in range(g.n) if row[s] == g.full_mask)
    return result


def source_component(g: DiGraph, F1: frozenset, F2: frozenset,
                     f: int | None = None) -> frozenset:
    """Nodes of the reduced graph with directed paths to every node of V.

    Symmetric in (F1, F2) since only the union matters; may be empty.
    """
    if f is not None and (len(F1) > f or len(F2) > f):
        raise InvalidArgumentError(
            f"fault sets exceed the bound f={f}")
    removed = mask_of(F1) | mask_of(F2)
    return set_of(_source_component_mask(g, removed))


# ---------------------------------------------------------------------------
# Node-disjoint paths and the propagate relation


def count_disjoint_paths(g: DiGraph, C: frozenset, A: frozenset,
                         b: int) -> int:
    """Max internally node-disjoint (A,b)-paths inside the subgraph on C.

    Paths may share only the target b.  By Menger's theorem that is the
    size of the smallest node cut: a set of nodes of C, without b, whose
    removal leaves no node of A reaching b.  Cuts are tried in (size, lex)
    order over the reach rows, so the cost is exponential in |A|.
    """
    C = frozenset(C)
    A = frozenset(A)
    if not A <= C or b not in C or b in A:
        raise InvalidArgumentError(
            "require A within C, target in C, target not in A")
    amask = mask_of(A)
    outside = g.full_mask & ~mask_of(C)
    for cut in subset_masks(g.n, len(A)):
        if not cut & outside and not cut >> b & 1 and not (
                _reach_row(g, outside | cut)[b] & amask):
            return cut.bit_count()
    raise AssertionError("A itself cuts every (A,b)-path")


def propagates(g: DiGraph, A: frozenset, B: frozenset, C: frozenset,
               f: int) -> bool:
    """True iff B is empty or every b in B has f+1 disjoint (A,b)-paths in C."""
    A = frozenset(A)
    B = frozenset(B)
    C = frozenset(C)
    if A & B or not B <= C or not A <= C:
        raise InvalidArgumentError(
            "require A,B disjoint and both inside C")
    return all(count_disjoint_paths(g, C, A, b) >= f + 1 for b in sorted(B))
