"""Command line entry point.

Subcommands: check (graph conditions), run (one scenario), gen (graph
generators), audit (condition cross-check), sweep (one scenario across many
seeds).  Exit codes: 0 ok, 1 invariant violation, 2 input error, 3 budget
error.  The REACHCONS_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from . import adversary, conditions, generate, simnet
from .errors import BudgetError, InvalidArgumentError, ReachconsError
from .graph import DiGraph, format_edge_list, parse_edge_list

CONDITIONS = ("1reach", "2reach", "3reach", "ccs", "cca", "bcs")

# JSON value types accepted per config key; a bool is not a number here.
_CONFIG_TYPES = {
    "graph": (str,), "f": (int,), "inputs": (list,), "K": (int, float),
    "eps": (int, float), "plan": (dict,), "delay": (dict,), "seed": (int,),
    "out": (str, type(None)), "trace": (str, type(None)),
}


@dataclass
class ScenarioConfig:
    graph: str  # path to an edge-list file, or "builtin:<name>"
    f: int
    inputs: list
    K: float = 1.0
    eps: float = 0.25
    plan: dict = field(default_factory=dict)  # {"name": ...} or explicit spec
    delay: dict = field(default_factory=lambda: {"kind": "uniform"})
    seed: int = 0
    out: Optional[str] = None
    trace: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidArgumentError(f"bad scenario config: {e}") from e
        if not isinstance(raw, dict):
            raise InvalidArgumentError("scenario config must be a JSON object")
        try:
            config = cls(**raw)  # refuses a key it lacks or misses
        except TypeError as e:
            raise InvalidArgumentError(f"bad scenario config: {e}") from e
        for key, value in raw.items():
            if type(value) not in _CONFIG_TYPES[key]:
                raise InvalidArgumentError(
                    f"config key {key!r} cannot be {value!r}")
        return config


BUILTIN_GRAPHS = {
    "k4": lambda: generate.clique(4),
    "k7": lambda: generate.clique(7),
    "two-cliques-7-8": lambda: generate.two_cliques(7, 8, seed=11),
}

BUILTIN_SCENARIOS = {
    "k4-crash": ScenarioConfig(
        graph="builtin:k4", f=1, inputs=[0.0, 1.0, 1.0, 0.0],
        plan={"name": "crash-min"}, delay={"kind": "uniform"}, seed=7),
    "two-cliques-f2": ScenarioConfig(
        graph="builtin:two-cliques-7-8", f=2,
        inputs=[0.0, 1.0] * 7,
        plan={"name": "crash-max"}, delay={"kind": "uniform"}, seed=7),
}


def load_graph(ref: str) -> DiGraph:
    if ref.startswith("builtin:"):
        name = ref[len("builtin:"):]
        maker = BUILTIN_GRAPHS.get(name)
        if maker is None:
            raise InvalidArgumentError(
                f"unknown builtin graph {name!r}; "
                f"have {sorted(BUILTIN_GRAPHS)}")
        return maker()
    try:
        with open(ref, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidArgumentError(f"cannot read graph {ref!r}: {e}") from e


@contextmanager
def _spec_errors(what: str):
    """Report a malformed spec value as InvalidArgumentError, not as the
    TypeError, ValueError, KeyError or AttributeError of parsing it."""
    try:
        yield
    except InvalidArgumentError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise InvalidArgumentError(f"bad {what} spec: {e!r}") from e


def _node_id(key: str, what: str) -> int:
    """The node a spec's object key names.  A key must be a canonical
    decimal string, so "+3", "03", " 1" and "1_0" name no node."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()
            and key == str(int(key))):
        raise InvalidArgumentError(
            f"{what} keys must be node ids written in decimal, got {key!r}")
    return int(key)


def _real(value, what: str) -> float:
    """value as a float if it is a JSON number: no string or bool is one."""
    if type(value) not in (int, float):
        raise InvalidArgumentError(
            f"{what} must be a finite real JSON number, got {value!r}")
    return float(value)


def _node_set(ws, what: str) -> frozenset:
    """The nodes a spec's list names.  Each must be a JSON integer before
    the list is frozen, or true and 1.0 would fold into node 1."""
    for w in ws:
        if type(w) is not int:
            raise InvalidArgumentError(
                f"{what} names node {w!r}, not a node id")
    return frozenset(ws)


# The class of each kind of behaviour and delay spec.  A spec's keys other
# than "kind" are its class's keyword arguments, so the class (or the run,
# for what needs the graph) refuses an unknown, missing or mistyped key and
# gives every default.
_BEHAVIORS = {"crash": adversary.Crash, "silent": adversary.Silent,
              "equivocate": adversary.Equivocate,
              "tamper": adversary.TamperForward,
              "forge": adversary.ForgeComplete}
_DELAYS = {"uniform": simnet.UniformDelay,
           "targeted-slow": simnet.TargetedSlowDelay,
           "round-skew": simnet.RoundSkewDelay}

# The spec fields whose JSON shape is not their constructor's, and the
# conversion of each.  Values are made floats, so that a value's trace text
# is the same whether a spec writes 1 or 1.0.
_FROM_JSON = {
    "values": lambda vs: tuple(sorted(
        (_node_id(w, "values"), _real(x, "values")) for w, x in vs.items())),
    "claimed": lambda ws: _node_set(ws, "claimed"),
    "value_delta": lambda x: _real(x, "value_delta"),
    "forged_value": lambda x: _real(x, "forged_value"),
    "victims": lambda edges: [tuple(edge) for edge in edges],
    "offsets": lambda m: {_node_id(v, "offsets"): o for v, o in m.items()},
}


def _build(kinds: dict, what: str, spec: dict, default, *args):
    """The class of the spec's kind, called with args and its other keys."""
    kind = spec.get("kind", default)
    if kind not in kinds:
        raise InvalidArgumentError(f"unknown {what} kind {kind!r}")
    kw = {k: _FROM_JSON[k](x) if k in _FROM_JSON else x
          for k, x in spec.items() if k != "kind"}
    return kinds[kind](*args, **kw)


def build_plan(spec: dict, g: DiGraph, f: int, K: float) -> adversary.FaultPlan:
    """A plan spec is either {"name": builtin} or an explicit behavior map:
    {"name": ..., "behaviors": {"3": {"kind": "crash", "after": 0}, ...}},
    where each behavior's keys besides "kind" are its class's arguments."""
    with _spec_errors("plan"):
        unknown = set(spec) - {"name", "behaviors"}
        if unknown:
            raise InvalidArgumentError(
                f"plan spec has unknown keys {sorted(unknown, key=repr)}")
        if "behaviors" not in spec:
            name = spec.get("name", "crash-min")
            plans = adversary.builtin_plans(g, f, K)
            if name not in plans:
                raise InvalidArgumentError(
                    f"unknown builtin plan {name!r}; have {sorted(plans)}")
            return plans[name]
        behaviors = {_node_id(v, "behaviors"):
                     _build(_BEHAVIORS, "behavior", b, None)
                     for v, b in spec["behaviors"].items()}
        return adversary.make_plan(spec.get("name", "custom"), behaviors)


def build_delay(spec: dict, seed: int):
    with _spec_errors("delay"):
        return _build(_DELAYS, "delay", spec, "uniform", seed)


def metrics_csv(metrics: simnet.RunMetrics) -> str:
    lines = ["round,U,mu,spread"]
    for r in range(len(metrics.U)):
        u, m = metrics.U[r], metrics.mu[r]
        if u is None or m is None:
            lines.append(f"{r},,,")
        else:
            lines.append(f"{r},{u!r},{m!r},{u - m!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    g = load_graph(args.graph)
    cond = args.condition
    if cond.endswith("reach"):
        verdict = conditions.check_k_reach(g, args.f, int(cond[0]))
    else:
        verdict = conditions.check_partition_condition(g, args.f, cond)
    if verdict.holds:
        print(f"{cond} holds for f={args.f}")
        return 0
    print(f"{cond} fails for f={args.f}")
    print(f"witness: {verdict.witness}")
    return 1


def _execute(config: ScenarioConfig, seed: int, force: bool,
             budgets: simnet.Budgets, out: Optional[str]):
    """Run a scenario and write its metrics CSV to out (stdout if None).
    The output files are opened after the input checks and before the
    run."""
    g = load_graph(config.graph)
    plan = build_plan(config.plan, g, config.f, config.K)
    delay = build_delay(config.delay, seed)
    # Refuse before simulating, but after the checks that the run makes
    # first, so each input keeps its exit code.
    simnet.admit(g, config.inputs, config.f, config.K, config.eps, budgets)
    if not (force or conditions.check_k_reach(g, config.f, 3).holds):
        raise InvalidArgumentError(
            "graph fails the 3-reach condition for this f; "
            "rerun with --force to proceed with guarantees void")
    with _output_file(out, "metrics") as write, \
            _output_file(config.trace, "trace") as trace:
        metrics = simnet.run(g, config.inputs, config.f, plan, delay,
                             config.K, config.eps, budgets=budgets,
                             trace=trace)
        (write or sys.stdout.write)(metrics_csv(metrics))
    return metrics


@contextmanager
def _output_file(path: Optional[str], what: str):
    """Yield the write method of the file at path, or None if path is None.
    A command that fails after opening the file leaves no file behind."""
    if path is None:
        yield None
        return
    try:
        fh = open(path, "w")
    except OSError as e:
        raise InvalidArgumentError(f"cannot write {what} {path!r}: {e}") from e
    try:
        with fh:
            yield fh.write
    except BaseException:
        # Only a regular file is removed, never a device or a symlink.
        if os.path.isfile(path) and not os.path.islink(path):
            os.unlink(path)
        raise


def _emit_run(metrics: simnet.RunMetrics) -> int:
    if not metrics.three_reach:
        print("warning: 3-reach fails; guarantees void", file=sys.stderr)
    report = simnet.assert_round_invariants(metrics)
    for v in report.violations:
        print(f"invariant violation: {v}", file=sys.stderr)
    return 0 if report.ok else 1


def _load_config(args) -> ScenarioConfig:
    if args.scenario in BUILTIN_SCENARIOS:
        return dataclasses.replace(BUILTIN_SCENARIOS[args.scenario])
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            return ScenarioConfig.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidArgumentError(
            f"no builtin scenario or readable config {args.scenario!r}: {e}"
        ) from e


def _budgets(args) -> simnet.Budgets:
    kw = {}
    if args.max_n is not None:
        kw["max_n"] = args.max_n
    if args.max_threads is not None:
        kw["max_threads"] = args.max_threads
    return simnet.Budgets(**kw)


def _seed_of(config: ScenarioConfig) -> int:
    env = os.environ.get("REACHCONS_SEED")
    if not env:
        return config.seed
    try:
        return int(env)
    except ValueError:
        raise InvalidArgumentError(
            f"REACHCONS_SEED must be an integer, got {env!r}") from None


def cmd_run(args) -> int:
    config = _load_config(args)
    if args.out:
        config.out = args.out
    # An empty out path means stdout, as no path does.
    metrics = _execute(config, _seed_of(config), args.force, _budgets(args),
                       config.out or None)
    return _emit_run(metrics)


def cmd_sweep(args) -> int:
    config = _load_config(args)
    config.trace = None  # a sweep writes metrics only; build no trace
    budgets = _budgets(args)
    base = config.out or "sweep"
    worst = 0
    for seed in args.seeds:
        path = f"{base}-{seed}.csv"
        metrics = _execute(config, seed, args.force, budgets, path)
        report = simnet.assert_round_invariants(metrics)
        status = "ok" if report.ok else "VIOLATIONS"
        print(f"seed {seed}: {status} -> {path}")
        for v in report.violations:
            print(f"  {v}", file=sys.stderr)
        if not report.ok:
            worst = 1
    return worst


def cmd_gen(args) -> int:
    if args.kind == "clique":
        g = generate.clique(args.n)
    elif args.kind == "random":
        g = generate.random_digraph(args.n, args.p, args.seed)
    else:
        g = generate.two_cliques(args.n, args.bridges, args.seed)
    with _output_file(args.out or None, "graph") as write:
        (write or sys.stdout.write)(format_edge_list(g))
    return 0


def cmd_audit(args) -> int:
    if args.selftest:
        # Inject a deliberately broken partition comparator; the audit must
        # notice, proving the cross-check is not vacuous.
        def broken(g, f, which):
            v = conditions.check_partition_condition(g, f, which)
            if g.n == 2 and v.holds:
                return conditions.ConditionVerdict(
                    False, conditions.PartitionViolation(
                        which, 1, frozenset(), frozenset({0}),
                        frozenset(), frozenset({1})))
            return v

        report = conditions.equivalence_audit(args.f, args.n_max,
                                              _partition_check=broken)
        print(f"selftest: {len(report.mismatches)} mismatches "
              f"(expected nonzero)")
        return 0 if report.mismatches else 1
    report = conditions.equivalence_audit(args.f, args.n_max,
                                          seed=args.seed,
                                          samples=args.samples)
    print(f"audit: {report.graphs_checked} graphs checked, "
          f"{len(report.mismatches)} mismatches"
          + (" (sampled)" if report.sampled else ""))
    for m in report.mismatches[:20]:
        print(f"  mismatch: {m}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="reachcons")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="decide a graph condition")
    c.add_argument("--graph", required=True)
    c.add_argument("--f", type=int, required=True)
    c.add_argument("--condition", required=True, choices=CONDITIONS)
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("run", help="execute one scenario")
    r.add_argument("scenario",
                   help="builtin scenario name or config file path")
    r.add_argument("--out", help="metrics CSV path (default stdout)")
    r.add_argument("--force", action="store_true",
                   help="run even if 3-reach fails")
    r.add_argument("--max-n", type=int, default=None)
    r.add_argument("--max-threads", type=int, default=None)
    r.set_defaults(fn=cmd_run)

    w = sub.add_parser("sweep", help="run one scenario across many seeds")
    w.add_argument("scenario")
    w.add_argument("--seeds", type=int, nargs="+", required=True)
    w.add_argument("--force", action="store_true")
    w.add_argument("--max-n", type=int, default=None)
    w.add_argument("--max-threads", type=int, default=None)
    w.set_defaults(fn=cmd_sweep)

    g = sub.add_parser("gen", help="emit a generated graph")
    g.add_argument("kind", choices=("clique", "random", "two-cliques"))
    g.add_argument("--n", type=int, required=True,
                   help="node count (clique size for two-cliques)")
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--bridges", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    a = sub.add_parser("audit", help="cross-check condition equivalences")
    a.add_argument("--f", type=int, default=1)
    a.add_argument("--n-max", type=int, default=4)
    a.add_argument("--seed", type=int, default=2026)
    a.add_argument("--samples", type=int, default=1000)
    a.add_argument("--selftest", action="store_true",
                   help="inject a broken comparator; expect mismatches")
    a.set_defaults(fn=cmd_audit)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3
    except (InvalidArgumentError, ReachconsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
