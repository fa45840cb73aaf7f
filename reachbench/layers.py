"""Per-layer metrics from one cProfile pass.

A layer is a named group of functions of one `reachcons` module.  A layer's
self time is the sum of cProfile `tottime` over its functions.  Time spent in
functions outside `src/reachcons` (built-ins such as `heappop` and
`dict.get`, the standard library, dataclass-generated methods) is charged to
the layer of the nearest `reachcons` caller, split over callers in
proportion to the per-caller times cProfile records.  A `reachcons` function
that no layer names falls into `<module>.other`, and time with no
`reachcons` caller at all into `external.other`, so the layer self times sum
to the profile's total.
"""

from __future__ import annotations

import ast
import os

# Layer -> functions, as qualified names inside the layer's module.  A
# nested function or comprehension belongs to its enclosing function.
LAYERS = {
    "simnet.queue": ("SimWorld.run_loop", "SimWorld.send",
                     "SimWorld.send_flood", "SimWorld.note_done"),
    "simnet.delay": ("UniformDelay", "TargetedSlowDelay", "RoundSkewDelay"),
    "simnet.trace": ("SimWorld._trace_record",),
    "simnet.invariants": ("assert_round_invariants", "_check_latch_agreement",
                          "_check_common_values", "_candidate_masks",
                          "InvariantReport"),
    "protocol.dispatch": ("Node.on_deliver", "Node._note_counter",
                          "Node._wake_all"),
    "protocol.value": ("Node._receive_value", "Node._mark_value",
                       "Node._latch_scan", "Node._avoid_threads"),
    "protocol.complete": ("Node._receive_complete", "Node._latch",
                          "PayloadView"),
    "protocol.verify": ("Node._sweep", "Node._verify", "Node._completeness",
                        "Node._advance"),
    "protocol.fa": ("Node._filter_and_average", "Node._trim_scan",
                    "Node._prefix_cut", "Node._suffix_cut"),
    "protocol.node_init": ("Node.__init__", "candidate_sets"),
    "adversary.intercept": ("PlanRuntime.intercept", "PlanRuntime._apply",
                            "PlanRuntime._forge"),
    "graph.reach": ("_reach_mask", "reach_set"),
    "graph.redcount": ("count_redundant_paths",),
    "graph.simple_paths": ("count_simple_paths", "enumerate_simple_paths"),
    "graph.source": ("_source_component_mask", "_reduced_out_masks",
                     "source_component"),
    "conditions.kreach": ("check_k_reach", "_kreach_bounds"),
    "conditions.partition": ("check_partition_condition", "_point",
                             "check_point"),
    "conditions.audit": ("equivalence_audit",),
    "cli.build": ("load_graph", "build_plan", "build_delay"),
    "cli.emit": ("_emit_run", "metrics_csv"),
}

MODULES = ("adversary", "cli", "conditions", "errors", "generate", "graph",
           "messaging", "protocol", "simnet")
EXTERNAL = "external.other"
UNKNOWN_MODULE = "reachcons.other"

SELF_LAYERS = tuple(sorted(
    list(LAYERS) + [f"{m}.other" for m in MODULES]
    + [UNKNOWN_MODULE, EXTERNAL]))
MODULE_TOTALS = ("adversary", "cli", "conditions", "graph", "protocol",
                 "simnet")

# Call counts: metric -> functions whose call counts are summed.
CALLS = {
    "simnet.delay.draws": (("simnet", "UniformDelay.delay"),
                           ("simnet", "TargetedSlowDelay.delay"),
                           ("simnet", "RoundSkewDelay.delay")),
    "protocol.value.calls": (("protocol", "Node._receive_value"),),
    "protocol.complete.calls": (("protocol", "Node._receive_complete"),),
    "protocol.complete.latches": (("protocol", "Node._latch"),),
    "protocol.verify.attempts": (("protocol", "Node._verify"),),
    "protocol.verify.advances": (("protocol", "Node._advance"),),
    "protocol.fa.calls": (("protocol", "Node._filter_and_average"),),
    "graph.reach.calls": (("graph", "_reach_mask"),),
    "graph.simple_paths.calls": (("graph", "count_simple_paths"),),
    "graph.source.calls": (("graph", "_source_component_mask"),),
    "adversary.intercept.calls": (("adversary", "PlanRuntime.intercept"),),
    "simnet.trace.records": (("simnet", "SimWorld._trace_record"),),
    "conditions.kreach.calls": (("conditions", "check_k_reach"),),
    "conditions.partition.calls": (("conditions",
                                    "check_partition_condition"),),
}

# Cumulative times: metric -> functions whose cumtime is summed.
CUMULATIVE = {
    "protocol.node_init.cum_s": (("protocol", "Node.__init__"),),
    "cli.build.cum_s": (("cli", "load_graph"), ("cli", "build_plan"),
                        ("cli", "build_delay")),
    "simnet.invariants_s": (("simnet", "assert_round_invariants"),),
    "conditions.kreach.cum_s": (("conditions", "check_k_reach"),),
    "conditions.partition.cum_s": (("conditions",
                                    "check_partition_condition"),),
}

TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.layer_sum_s")

# Metric name -> unit, in the order the benchmark reports them.
PER_LAYER = dict(
    [(f"{name}.self_s", "s") for name in SELF_LAYERS]
    + [(f"{m}.self_s", "s") for m in MODULE_TOTALS]
    + [(name, "count") for name in CALLS]
    + [("simnet.queue.pops", "count"), ("adversary.intercept.emitted", "count"),
       ("adversary.intercept.emit_ratio", "ratio"),
       ("protocol.verify.useful_ratio", "ratio")]
    + [(name, "s") for name in CUMULATIVE] + [("cli.emit.cum_s", "s")]
    + [(name, "s") for name in TRACE_METRICS])


class FunctionIndex:
    """Maps cProfile keys (file, first line, name) of `reachcons` code to
    (module, qualified name) through the modules' syntax trees."""

    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir)
        self._spans = {}  # module -> [(first, last, qualname)]
        self._files = {}  # realpath -> module
        for fname in sorted(os.listdir(self.package_dir)):
            if not fname.endswith(".py"):
                continue
            module = fname[:-3]
            path = os.path.join(self.package_dir, fname)
            self._files[path] = module
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            spans = []
            self._collect(tree, "", spans)
            self._spans[module] = spans

    def _collect(self, node, prefix, spans):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                if not isinstance(child, ast.ClassDef):
                    spans.append((first, child.end_lineno, qual))
                self._collect(child, qual + ".", spans)
            else:
                self._collect(child, prefix, spans)

    def qualnames(self, module: str) -> set:
        return {q for _, _, q in self._spans.get(module, ())}

    def locate(self, key):
        """(module, qualname) of a profile key, or None outside reachcons.
        Module-level code has the qualified name '<module>'."""
        fname, line, _ = key
        module = self._files.get(os.path.realpath(fname)) if fname else None
        if module is None:
            return None
        best = None
        for first, last, qual in self._spans[module]:
            if first <= line <= last and (best is None or first >= best[0]):
                best = (first, qual)
        return module, best[1] if best else "<module>"


def _lookup():
    table = {}
    for layer, names in LAYERS.items():
        module = layer.split(".")[0]
        for name in names:
            table[(module, name)] = layer
    return table


_TABLE = _lookup()


def layer_of(module: str, qualname: str) -> str:
    """The layer charged for a function; its enclosing class or function
    decides when the function itself is not named."""
    parts = qualname.split(".")
    while parts:
        layer = _TABLE.get((module, ".".join(parts)))
        if layer is not None:
            return layer
        parts.pop()
    return f"{module}.other" if module in MODULES else UNKNOWN_MODULE


def stale_names(index: FunctionIndex) -> list:
    """Layer entries that name no function or class in the source."""
    out = []
    for (module, name) in sorted(_TABLE):
        quals = index.qualnames(module)
        if name not in quals and not any(q.startswith(name + ".")
                                         for q in quals):
            out.append(f"{module}:{name}")
    return out


def layer_self_times(stats: dict, index: FunctionIndex) -> dict:
    """Self time per layer; sums to the total tottime of the profile."""
    own = {}
    for key in stats:
        loc = index.locate(key)
        if loc is not None:
            own[key] = layer_of(*loc)
    memo = {}

    def shares(key, active):
        """Fractions of a call's time owed to each layer, by walking up the
        callers until `reachcons` code is reached."""
        if key in own:
            return {own[key]: 1.0}
        if key in memo:
            return memo[key]
        edges = {c: e for c, e in stats[key][4].items()
                 if c not in active and c in stats}
        total = sum(e[3] for e in edges.values())
        if not edges:
            return {EXTERNAL: 1.0}
        out = {}
        active = active | {key}
        for c, e in edges.items():
            w = e[3] / total if total > 0 else 1.0 / len(edges)
            for layer, frac in shares(c, active).items():
                out[layer] = out.get(layer, 0.0) + w * frac
        memo[key] = out
        return out

    times = {name: 0.0 for name in SELF_LAYERS}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if key in own:
            times[own[key]] += tt
            continue
        for layer, frac in shares(key, frozenset()).items():
            times[layer] += tt * frac
    return times


def per_layer_metrics(stats: dict, index: FunctionIndex) -> dict:
    """Every per-layer metric except the trace.* timings."""
    by_name = {}  # (module, qualname) -> profile rows of that function
    for key, row in stats.items():
        loc = index.locate(key)
        # Comprehensions and nested functions locate to their enclosing
        # function; only the function's own code object counts as a call.
        if loc is not None and key[2] == loc[1].split(".")[-1]:
            by_name.setdefault(loc, []).append((key, row))

    def calls(module, qual):
        return sum(row[1] for _, row in by_name.get((module, qual), ()))

    def cumtime(module, qual):
        return sum(row[3] for _, row in by_name.get((module, qual), ()))

    out = {}
    selfs = layer_self_times(stats, index)
    for name in SELF_LAYERS:
        out[f"{name}.self_s"] = selfs[name]
    for m in MODULE_TOTALS:
        out[f"{m}.self_s"] = sum(t for name, t in selfs.items()
                                 if name.startswith(m + "."))
    for name, funcs in CALLS.items():
        out[name] = sum(calls(*f) for f in funcs)
    pops = emitted = 0
    send_keys = {k for k, _ in by_name.get(("simnet", "SimWorld.send"), ())}
    for key, row in stats.items():
        if key[2] == "<built-in method _heapq.heappop>":
            pops += row[1]
        elif key[2] == "<built-in method _heapq.heappush>":
            # A faulty sender's messages are queued by SimWorld.send, one
            # push per message its behaviour emits.
            emitted += sum(e[1] for c, e in row[4].items() if c in send_keys)
    out["simnet.queue.pops"] = pops
    out["adversary.intercept.emitted"] = emitted
    sent = out["adversary.intercept.calls"]
    out["adversary.intercept.emit_ratio"] = emitted / sent if sent else 0.0
    tries = out["protocol.verify.attempts"]
    out["protocol.verify.useful_ratio"] = (
        out["protocol.verify.advances"] / tries if tries else 0.0)
    for name, funcs in CUMULATIVE.items():
        out[name] = sum(cumtime(*f) for f in funcs)
    # metrics_csv is charged here only when the benchmark calls it directly;
    # under _emit_run it is already inside that call's cumulative time.
    emit_keys = {k for k, _ in by_name.get(("cli", "_emit_run"), ())}
    emit = cumtime("cli", "_emit_run")
    for _, row in by_name.get(("cli", "metrics_csv"), ()):
        emit += sum(e[3] for c, e in row[4].items() if c not in emit_keys)
    out["cli.emit.cum_s"] = emit
    return out
