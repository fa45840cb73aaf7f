"""Command line interface: exit codes, files, formats, env override."""

import functools
import hashlib
import json
import os
import tracemalloc
from itertools import permutations

import pytest

from reachcons import DiGraph, InvalidArgumentError, format_edge_list, simnet
from reachcons.cli import ScenarioConfig, main, metrics_csv


K3_TEXT = format_edge_list(
    DiGraph(3, frozenset(permutations(range(3), 2))))


# ---------------------------------------------------------------------------
# check


def test_check_holds(capsys):
    assert main(["check", "--graph", "builtin:k4", "--f", "1",
                 "--condition", "3reach"]) == 0
    assert "3reach holds" in capsys.readouterr().out


def test_check_fails_with_witness(tmp_path, capsys):
    p = tmp_path / "k3.txt"
    p.write_text(K3_TEXT)
    assert main(["check", "--graph", str(p), "--f", "1",
                 "--condition", "3reach"]) == 1
    out = capsys.readouterr().out
    assert "fails" in out and "witness" in out


def test_check_partition_and_audit(capsys):
    assert main(["check", "--graph", "builtin:k4", "--f", "1",
                 "--condition", "bcs"]) == 0
    # The audit is its own subcommand; check only decides one graph.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--graph", "builtin:k4", "--f", "1",
              "--condition", "audit"])
    assert exc.value.code == 2
    assert main(["audit", "--f", "1", "--n-max", "3"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_check_unknown_graph():
    assert main(["check", "--graph", "builtin:nope", "--f", "1",
                 "--condition", "ccs"]) == 2


@pytest.mark.parametrize("bad", ["check-graph", "run-config", "run-graph"])
def test_input_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys,
                                                       bad):
    # A \xff byte is no UTF-8 text: exit 2 naming the file, not the exit 1
    # of a decoding traceback.
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "scenario.json"
    gpath.write_bytes(b"n 3\n0 1\n\xff\n")
    if bad == "check-graph":
        argv, named = ["check", "--graph", str(gpath), "--f", "1",
                       "--condition", "3reach"], gpath
    elif bad == "run-config":
        cpath.write_bytes(b'{"graph": "builtin:k4", "f": 1, "inputs": '
                          b'[0, 1, 1, 0], "plan": {"name": "\xff"}}')
        argv, named = ["run", str(cpath)], cpath
    else:
        cpath.write_text(ScenarioConfig(graph=str(gpath), f=1,
                                        inputs=[0.0, 1.0, 0.5]).to_json())
        argv, named = ["run", str(cpath), "--force"], gpath
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(named) in err


# ---------------------------------------------------------------------------
# run


def test_run_builtin_scenario(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["run", "k4-crash", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,U,mu,spread"
    assert len(lines) == 5  # header plus rounds 0..3
    last = lines[-1].split(",")
    assert float(last[3]) < 0.25


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "k4-crash", "--out", str(a)]) == 0
    assert main(["run", "k4-crash", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_env_seed_override(tmp_path, monkeypatch):
    base, alt = tmp_path / "base.csv", tmp_path / "alt.csv"
    assert main(["run", "k4-crash", "--out", str(base)]) == 0
    monkeypatch.setenv("REACHCONS_SEED", "1234")
    assert main(["run", "k4-crash", "--out", str(alt)]) == 0
    # The override changes the delay schedule; the run must still succeed.
    assert alt.read_text().splitlines()[0] == "round,U,mu,spread"


def test_run_env_seed_must_be_an_integer(tmp_path, monkeypatch, capsys):
    out = tmp_path / "m.csv"
    monkeypatch.setenv("REACHCONS_SEED", "abc")
    assert main(["run", "k4-crash", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "REACHCONS_SEED" in err
    assert not out.exists()


def test_run_two_cliques_scenario_hits_the_budget(capsys):
    assert main(["run", "two-cliques-f2"]) == 3
    assert "budget" in capsys.readouterr().err


def test_run_unknown_scenario():
    assert main(["run", "no-such-scenario"]) == 2


def test_run_config_file(tmp_path):
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0], seed=3)
    path = tmp_path / "scenario.json"
    path.write_text(cfg.to_json())
    out = tmp_path / "m.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert out.exists()


def test_run_refuses_non_3reach_without_force(tmp_path):
    gpath = tmp_path / "k3.txt"
    gpath.write_text(K3_TEXT)
    cfg = ScenarioConfig(graph=str(gpath), f=1, inputs=[0.0, 1.0, 0.5])
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["run", str(cpath)]) == 2


def test_run_refuses_non_3reach_before_simulating(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(simnet, "run", lambda *a, **kw: calls.append(a))
    gpath = tmp_path / "k3.txt"
    gpath.write_text(K3_TEXT)
    trace = tmp_path / "t.jsonl"
    cfg = ScenarioConfig(graph=str(gpath), f=1, inputs=[0.0, 1.0, 0.5],
                         trace=str(trace))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["run", str(cpath)]) == 2
    assert calls == []
    assert not trace.exists()


def test_run_force_proceeds_with_guarantees_void(tmp_path, capsys):
    gpath = tmp_path / "k3.txt"
    gpath.write_text(K3_TEXT)
    cfg = ScenarioConfig(graph=str(gpath), f=1, inputs=[0.0, 1.0, 0.5])
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    out = tmp_path / "m.csv"
    rc = main(["run", str(cpath), "--force", "--out", str(out)])
    assert rc in (0, 1)
    assert "guarantees void" in capsys.readouterr().err
    assert out.exists()


def test_run_writes_trace(tmp_path):
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0], seed=3,
                         trace=str(tmp_path / "trace.jsonl"))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["run", str(cpath), "--out", str(tmp_path / "m.csv")]) == 0
    records = [json.loads(ln) for ln in
               (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert records and {"kind", "sender", "receiver"} <= set(records[0])


# SHA-256 of the JSONL trace that `reachcons run` writes for K4 at f = 1,
# inputs [0, 1, 1, 0], UniformDelay(seed=3).  The trace spells every path
# out as a node list, whatever form paths take on the wire.
TRACE_PINS = {
    "equivocator":
        "5c75a3138081d1eaeef74837da98ecc38d27e654dcd280d2aa745ad670ddaca4",
    "forger":
        "39eaf07caccca16313439b57cef8313c69cee76149f484053a2b1cb6a930ded7",
    "tamper":
        "a428092a82915d8bbdd486f21e4cda93021f76dfe5380f1149838235f2b96b18",
}


@pytest.mark.parametrize("plan", sorted(TRACE_PINS))
def test_run_trace_bytes_pinned(tmp_path, plan):
    spec = {"name": plan}
    if plan == "tamper":
        spec["behaviors"] = {"3": {"kind": "tamper", "value_delta": 0.3}}
    trace = tmp_path / "trace.jsonl"
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0], plan=spec, seed=3,
                         trace=str(trace))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["run", str(cpath), "--out", str(tmp_path / "m.csv")]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_PINS[plan]


def k6_scenario(tmp_path, trace=None) -> str:
    gpath = tmp_path / "k6.txt"
    gpath.write_text(format_edge_list(
        DiGraph(6, frozenset(permutations(range(6), 2)))))
    cfg = ScenarioConfig(graph=str(gpath), f=1,
                         inputs=[i / 5 for i in range(6)],
                         plan={"name": "crash-min"}, seed=3, trace=trace)
    cpath = tmp_path / f"scenario-{trace is not None}.json"
    cpath.write_text(cfg.to_json())
    return str(cpath)


def test_traced_run_memory_stays_near_untraced(tmp_path):
    # The trace is streamed to its file, so a traced run holds no more
    # than an untraced one: a record lives only while it is written.
    out = str(tmp_path / "m.csv")
    plain = k6_scenario(tmp_path)
    traced = k6_scenario(tmp_path, str(tmp_path / "t.jsonl"))
    assert main(["run", plain, "--out", out]) == 0  # warm module caches
    peaks = []
    for path in (plain, traced):
        tracemalloc.start()
        try:
            assert main(["run", path, "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "t.jsonl").stat().st_size > 0
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("text,argv,code", [
    # An input error after the trace is opened: the plan names node 9.
    ('{%s, "plan": {"behaviors": {"9": {"kind": "crash"}}}}', [], 2),
    # An input error before it is opened.
    ('{"graph": "builtin:k4", "f": 4, "inputs": [0, 1, 1, 0]}', [], 2),
    # A budget error before the run.
    ('{%s}', ["--max-n", "3"], 3),
], ids=["plan-node-outside", "f-is-n", "max-n"])
def test_failed_run_leaves_no_trace_file(tmp_path, text, argv, code):
    trace = tmp_path / "t.jsonl"
    cfg = json.loads(text.replace("%s", K4_CONFIG))
    cfg["trace"] = str(trace)
    cpath = tmp_path / "scenario.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["run", str(cpath), *argv]) == code
    assert not trace.exists()


def test_run_over_the_delivery_budget_leaves_no_trace_file(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(simnet, "Budgets",
                        functools.partial(simnet.Budgets, max_deliveries=50))
    trace = tmp_path / "t.jsonl"
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0], trace=str(trace))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["run", str(cpath)]) == 3
    assert not trace.exists()


def test_run_trace_path_that_cannot_be_opened(tmp_path, capsys):
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0],
                         trace=str(tmp_path / "no-dir" / "t.jsonl"))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["run", str(cpath)]) == 2
    assert "cannot write trace" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "k4-crash", "--out", "{missing}/m.csv"],
    ["sweep", "{config}", "--seeds", "1", "2"],
    ["gen", "clique", "--n", "4", "--out", "{missing}/g.txt"],
], ids=["run", "sweep", "gen"])
def test_output_path_that_cannot_be_opened(tmp_path, monkeypatch, capsys,
                                           argv):
    # Each command refuses an output file it cannot open with exit 2, and a
    # run or sweep does so before it simulates anything.
    calls = []
    monkeypatch.setattr(simnet, "run", lambda *a, **kw: calls.append(a))
    missing = tmp_path / "no-such-dir"
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0], out=str(missing / "sw"))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    argv = [a.format(missing=missing, config=cpath) for a in argv]
    assert main(argv) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert calls == []
    assert not missing.exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_per_seed_files(tmp_path, capsys):
    base = tmp_path / "sw"
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0], out=str(base))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["sweep", str(cpath), "--seeds", "1", "2", "3"]) == 0
    for seed in (1, 2, 3):
        assert (tmp_path / f"sw-{seed}.csv").exists()
    assert capsys.readouterr().out.count("ok") == 3


def test_sweep_builds_no_trace(tmp_path, monkeypatch):
    traced = []
    real_run = simnet.run

    def spy(*args, **kwargs):
        traced.append(kwargs.get("trace") is None)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(simnet, "run", spy)
    base = tmp_path / "sw"
    trace = tmp_path / "t.jsonl"
    cfg = ScenarioConfig(graph="builtin:k4", f=1,
                         inputs=[0.0, 1.0, 1.0, 0.0], out=str(base),
                         trace=str(trace))
    cpath = tmp_path / "scenario.json"
    cpath.write_text(cfg.to_json())
    assert main(["sweep", str(cpath), "--seeds", "1", "2"]) == 0
    for seed in (1, 2):
        assert (tmp_path / f"sw-{seed}.csv").exists()
    assert not trace.exists()
    assert traced == [True, True]


# ---------------------------------------------------------------------------
# gen


def test_gen_clique_edge_count(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "clique", "--n", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n 4" and len(lines) == 13  # 12 directed edges


def test_gen_two_cliques_edge_count(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "two-cliques", "--n", "7", "--bridges", "8",
                 "--seed", "11", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n 14" and len(lines) == 93  # 2*42 + 8 edges


def test_gen_random_reproducible(capsys):
    assert main(["gen", "random", "--n", "5", "--p", "0.5",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "--n", "5", "--p", "0.5",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_gen_invalid_params():
    assert main(["gen", "clique", "--n", "0"]) == 2


# ---------------------------------------------------------------------------
# audit


def test_audit_command(capsys):
    assert main(["audit", "--f", "1", "--n-max", "3"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_audit_selftest(capsys):
    assert main(["audit", "--f", "1", "--n-max", "2", "--selftest"]) == 0
    assert "expected nonzero" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--n-max", "0"], ["--n-max", "-2"],
    ["--n-max", "5", "--samples", "0"], ["--n-max", "5", "--samples", "-1"],
    ["--n-max", "0", "--selftest"],
], ids=["n-max-0", "n-max-neg", "samples-0", "samples-neg", "selftest"])
def test_audit_that_would_check_nothing_is_an_input_error(argv, capsys):
    # Each of these used to report "0 mismatches", or "(sampled)" after
    # sampling no graph, and exit 0.
    assert main(["audit", "--f", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert "error: audit" in captured.err and "mismatches" not in captured.out


@pytest.mark.parametrize("cmd", ["run", "sweep"])
@pytest.mark.parametrize("argv", [["--max-n", "0"], ["--max-n", "-1"],
                                  ["--max-threads", "0"],
                                  ["--max-threads", "-1"]],
                         ids=["max-n-0", "max-n-neg", "max-threads-0",
                              "max-threads-neg"])
def test_budget_flags_below_one_are_input_errors(tmp_path, capsys, cmd,
                                                  argv):
    # These used to exit 3 with "over the budget of -1".
    cpath = tmp_path / "scenario.json"
    cpath.write_text(ScenarioConfig(graph="builtin:k4", f=1,
                                    inputs=[0.0, 1.0, 1.0, 0.0]).to_json())
    seeds = ["--seeds", "1"] if cmd == "sweep" else []
    assert main([cmd, str(cpath), *seeds, *argv]) == 2
    assert "must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Config round trip


def test_config_round_trip():
    cfg = ScenarioConfig(graph="builtin:k4", f=1, inputs=[0.0, 1.0],
                         plan={"name": "forger"}, seed=5)
    assert ScenarioConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(InvalidArgumentError):
        ScenarioConfig.from_json('{"graph": "x", "f": 1, "inputs": [],'
                                 ' "bogus": 1}')
    with pytest.raises(InvalidArgumentError):
        ScenarioConfig.from_json('{"graph": "x"}')
    with pytest.raises(InvalidArgumentError):
        ScenarioConfig.from_json("not json")


@pytest.mark.parametrize("text", [
    '{"graph": "builtin:k4", "f": 1, "inputs": [0, 1, 1, 0], "eps": NaN}',
    '{"graph": "builtin:k4", "f": 1, "inputs": [0, 1, 1, 0], '
    '"K": Infinity}',
    '{"graph": "builtin:k4", "f": 4, "inputs": [0, 1, 1, 0]}',
    '{"graph": "builtin:k4", "f": 1, "inputs": [0, NaN, 1, 0]}',
], ids=["nan-eps", "inf-K", "f-is-n", "nan-input"])
def test_run_rejects_non_finite_numbers_and_f_at_least_n(tmp_path, capsys,
                                                        text):
    cpath = tmp_path / "scenario.json"
    cpath.write_text(text)
    out = tmp_path / "m.csv"
    assert main(["run", str(cpath), "--force", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


K4_CONFIG = '"graph": "builtin:k4", "f": 1, "inputs": [0, 1, 1, 0]'


@pytest.mark.parametrize("behavior", [
    '{"kind": "tamper", "value_delta": NaN}',
    '{"kind": "tamper", "value_delta": "nan"}',
    '{"kind": "equivocate", "values": {"0": Infinity, "1": 0.5}}',
    '{"kind": "forge", "omit": 1, "forged_value": -Infinity}',
], ids=["nan-delta", "nan-string-delta", "inf-equivocate", "inf-forged"])
def test_run_rejects_non_finite_behaviour_values(tmp_path, capsys, behavior):
    trace = tmp_path / "t.jsonl"
    cpath = tmp_path / "scenario.json"
    cpath.write_text('{%s, "trace": %s, "plan": {"behaviors": {"3": %s}}}'
                     % (K4_CONFIG, json.dumps(str(trace)), behavior))
    assert main(["run", str(cpath), "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite real" in err
    assert not trace.exists()


@pytest.mark.parametrize("text", [
    '{"graph": "builtin:k4", "f": "1", "inputs": [0, 1, 1, 0]}',
    '{%s, "K": "x"}' % K4_CONFIG,
    '{%s, "delay": {"lo": "a"}}' % K4_CONFIG,
    '{%s, "plan": "crash-min"}' % K4_CONFIG,
    '{"graph": 4, "f": 1, "inputs": [0, 1, 1, 0]}',
    '5',
    # A plan may name only nodes of the graph.
    '{%s, "plan": {"behaviors": {"9": {"kind": "crash"}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"3": {"kind": "forge", "omit": 9, '
    '"claimed": [7]}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"3": {"kind": "equivocate", '
    '"values": {"9": 0.5}}}}}' % K4_CONFIG,
    # Node ids are JSON integers: 0.0 would crash the run, true is node 1.
    '{%s, "plan": {"behaviors": {"3": {"kind": "forge", "omit": 1, '
    '"claimed": [0.0]}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"3": {"kind": "forge", "omit": 1, '
    '"claimed": [true]}}}}' % K4_CONFIG,
    # Spec fields are read as their JSON type, not coerced to it.
    '{%s, "plan": {"behaviors": {"3": {"kind": "forge", "omit": 1, '
    '"forward": "false"}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"3": {"kind": "crash", "after": 2.7}}}}'
    % K4_CONFIG,
    '{%s, "delay": {"lo": "2"}}' % K4_CONFIG,
    # A key that the spec's kind does not have is not ignored.
    '{%s, "delay": {"kind": "targeted-slow", "factr": 7}}' % K4_CONFIG,
    '{%s, "plan": {"name": "crash-min", "behaviours": '
    '{"3": {"kind": "silent"}}}}' % K4_CONFIG,
    # A node id key is written in decimal: "+3", "03" and " 1" are not
    # nodes 3 and 1, and "1_0" is not node 10.
    '{%s, "plan": {"behaviors": {"+3": {"kind": "crash"}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"03": {"kind": "crash"}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"3": {"kind": "equivocate", '
    '"values": {" 1": 0.5}}}}}' % K4_CONFIG,
    '{%s, "delay": {"kind": "round-skew", "offsets": {"1_0": 3}}}'
    % K4_CONFIG,
    # A delay may name only nodes of the graph.
    '{%s, "delay": {"kind": "targeted-slow", "victims": [[0, 9]]}}'
    % K4_CONFIG,
    '{%s, "delay": {"kind": "round-skew", "offsets": {"9": 3}}}'
    % K4_CONFIG,
    # Behaviour values are JSON numbers, not strings or bools.
    '{%s, "plan": {"behaviors": {"3": {"kind": "tamper", '
    '"value_delta": "0.3"}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"3": {"kind": "forge", "omit": 1, '
    '"forged_value": "0.25"}}}}' % K4_CONFIG,
    '{%s, "plan": {"behaviors": {"3": {"kind": "equivocate", '
    '"values": {"0": true}}}}}' % K4_CONFIG,
], ids=["str-f", "str-K", "str-delay-lo", "str-plan", "int-graph",
        "not-an-object", "crash-node-outside", "forge-node-outside",
        "equivocate-dest-outside", "float-claimed", "bool-claimed",
        "str-forward", "float-after", "numeric-str-delay-lo",
        "misspelt-delay-key", "extra-plan-key", "plus-node-key",
        "zero-padded-node-key", "space-equivocate-key",
        "underscore-offsets-key", "victim-outside", "offsets-outside",
        "str-value-delta", "str-forged-value", "bool-equivocate-value"])
def test_run_rejects_mistyped_config_fields(tmp_path, capsys, text):
    cpath = tmp_path / "scenario.json"
    cpath.write_text(text)
    out = tmp_path / "m.csv"
    assert main(["run", str(cpath), "--force", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spec,key", [
    ('"delay": {"kind": "targeted-slow", "factr": 7}', "factr"),
    ('"delay": {"kind": "uniform", "offsets": {"1": 3}}', "offsets"),
    ('"plan": {"behaviors": {"3": {"kind": "crash", "afte": 1}}}', "afte"),
    ('"plan": {"behaviors": {"3": {"kind": "silent", "after": 1}}}',
     "after"),
], ids=["targeted-slow", "uniform", "crash", "silent"])
def test_unknown_spec_key_is_named_by_its_kind(tmp_path, capsys, spec, key):
    # A spec's keys are its kind's keyword arguments, so the kind's
    # constructor names a key it does not take.
    cpath = tmp_path / "scenario.json"
    cpath.write_text("{%s, %s}" % (K4_CONFIG, spec))
    assert main(["run", str(cpath)]) == 2
    assert (f"unexpected keyword argument '{key}'"
            in capsys.readouterr().err)


def test_metrics_csv_blank_cells_for_missing_rounds():
    class Stub:
        U = [1.0, None]
        mu = [0.0, None]

    assert metrics_csv(Stub()) == "round,U,mu,spread\n0,1.0,0.0,1.0\n1,,,\n"
