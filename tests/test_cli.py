"""The command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_text(self, capsys):
        code, out, _err = run_cli(capsys, "describe", "--layer", "idct")
        assert code == 0
        assert "Design space layer 'idct'" in out
        assert "IDCT" in out

    def test_markdown(self, capsys):
        code, out, _err = run_cli(capsys, "describe", "--layer", "idct",
                                  "--markdown")
        assert code == 0
        assert out.startswith("# Design space layer `idct`")


class TestFigures:
    def test_table1(self, capsys):
        code, out, _err = run_cli(capsys, "table1")
        assert code == 0
        assert "Table 1" in out
        assert "#8" in out and "Brickell" in out

    def test_fig6(self, capsys):
        code, out, _err = run_cli(capsys, "fig6", "--eol", "1024")
        assert code == 0
        assert "CIOS ASM" in out and "#5_16" in out

    def test_fig9(self, capsys):
        code, out, _err = run_cli(capsys, "fig9", "--eol", "768")
        assert code == 0
        assert "#2_64" in out and "#8_64" in out

    def test_fig12(self, capsys):
        code, out, _err = run_cli(capsys, "fig12")
        assert code == 0
        assert "#5_64" in out


class TestExplore:
    def test_case_study_walk(self, capsys):
        code, out, _err = run_cli(
            capsys, "explore", "--eol", "768",
            "--require", "EffectiveOperandLength=768",
            "--require", "ModuloIsOdd=Guaranteed",
            "--require", "LatencySingleOperation=8.0",
            "--decide", "ImplementationStyle=Hardware",
            "--decide", "Algorithm=Montgomery",
            "--options", "SliceWidth",
            "--list")
        assert code == 0
        assert "Operator.Modular.Multiplier.Hardware.Montgomery" in out
        assert "candidate cores: 30" in out
        assert "option 64: 6 candidates" in out
        assert "#5_64" in out

    def test_constraint_violation_reported(self, capsys):
        code, _out, err = run_cli(
            capsys, "explore",
            "--require", "EffectiveOperandLength=768",
            "--require", "ModuloIsOdd=notGuaranteed",
            "--decide", "ImplementationStyle=Hardware",
            "--decide", "Algorithm=Montgomery")
        assert code == 2
        assert "CC1" in err

    def test_bad_binding_syntax(self, capsys):
        code, _out, err = run_cli(capsys, "explore",
                                  "--require", "JustAName")
        assert code == 2
        assert "Name=value" in err


class TestQuery:
    def test_filtered_query(self, capsys):
        code, out, _err = run_cli(
            capsys, "query", "--under", "OMM-HM",
            "--where", "Radix=2",
            "--max-merit", "delay_us=8",
            "--order-by", "latency_ns", "--limit", "2")
        assert code == 0
        assert "(2 cores)" in out
        assert "#2_16" in out

    def test_unknown_layer(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "describe", "--layer", "nonsense")


class TestExport:
    def test_json_round_trip(self, capsys):
        code, out, _err = run_cli(capsys, "export", "--layer", "idct",
                                  "--compact")
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "idct"
        assert data["libraries"][0]["cores"]


class TestLint:
    def test_crypto_lints_clean_at_default_threshold(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--layer", "crypto")
        assert code == 0
        assert "lint report for layer 'crypto'" in out
        assert "error" not in out.splitlines()[0]

    def test_idct_json_format(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--layer", "idct",
                                  "--json")
        assert code == 0
        data = json.loads(out)
        assert data["layer"] == "idct"
        assert data["summary"]["error"] == 0

    def test_fail_on_info_flips_exit_code(self, capsys):
        # Both bundled layers carry info-level empty-shelf findings.
        code, _out, _err = run_cli(capsys, "lint", "--layer", "idct",
                                   "--fail-on", "info")
        assert code == 1

    def test_disable_silences_the_rule(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--layer", "idct",
                                  "--fail-on", "info",
                                  "--disable", "DSL023")
        assert code == 0
        assert "clean" in out

    def test_select_by_category(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--layer", "crypto",
                                  "--select", "constraints",
                                  "--fail-on", "info")
        assert code == 0
        assert "clean" in out

    def test_unknown_rule_is_an_error(self, capsys):
        code, _out, err = run_cli(capsys, "lint", "--disable", "DSL999")
        assert code == 2
        assert "unknown rule" in err

    def test_list_rules(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--list-rules")
        assert code == 0
        assert "DSL001" in out and "DSL031" in out
        assert "duplicate-sibling-names" in out


class TestVerify:
    OMM_H = "Operator.Modular.Multiplier.Hardware"

    def test_crypto_verifies_clean_at_default_threshold(self, capsys):
        code, out, _err = run_cli(capsys, "verify", "--layer", "crypto")
        assert code == 0
        assert "verify report for layer 'crypto'" in out
        assert "constraint strata" in out

    def test_fail_on_info_flips_exit_code(self, capsys):
        # The verifier proves dead branches on both bundled layers, so
        # info-level DSL100/DSL101 findings always exist.
        code, out, _err = run_cli(capsys, "verify", "--layer", "crypto",
                                  "--fail-on", "info")
        assert code == 1
        assert "DSL100" in out

    def test_infeasible_requirements_fail_with_fixit_hints(self, capsys):
        code, out, _err = run_cli(
            capsys, "verify", "--layer", "crypto",
            "--require", "ModuloIsOdd=notGuaranteed",
            "--start", self.OMM_H)
        assert code == 1
        assert "DSL103" in out
        assert f"fix-it: region {self.OMM_H}:" in out
        assert "relax or drop requirement ModuloIsOdd" in out
        assert "constraint CC1" in out

    def test_idct_json_format(self, capsys):
        code, out, _err = run_cli(capsys, "verify", "--layer", "idct",
                                  "--json")
        assert code == 0
        data = json.loads(out)
        assert data["analysis"]["layer"] == "idct"
        assert len(data["analysis"]["dead_branches"]) == 11
        assert data["diagnostics"]["summary"]["error"] == 0

    def test_output_flag_writes_json_file(self, capsys, tmp_path):
        target = tmp_path / "verify.json"
        code, out, _err = run_cli(capsys, "verify", "--layer", "idct",
                                  "--json", "--output", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        assert json.loads(target.read_text())["analysis"]["layer"] == "idct"

    def test_bad_require_binding_is_an_error(self, capsys):
        code, _out, err = run_cli(capsys, "verify", "--layer", "crypto",
                                  "--require", "oops")
        assert code == 2
        assert "expected Name=value" in err


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """One recorded crypto exploration shared by the trace tests."""
    path = tmp_path_factory.mktemp("traces") / "walk.jsonl"
    code = main(["explore",
                 "--require", "EffectiveOperandLength=768",
                 "--require", "ModuloIsOdd=Guaranteed",
                 "--decide", "ImplementationStyle=Hardware",
                 "--decide", "Algorithm=Montgomery",
                 "--trace", str(path)])
    assert code == 0
    return path


class TestTraceRecording:
    def test_explore_trace_reports_the_write(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        code, out, _err = run_cli(
            capsys, "explore",
            "--require", "EffectiveOperandLength=768",
            "--trace", str(path))
        assert code == 0
        assert f"events written to {path}" in out
        assert path.exists()

    def test_decisions_echo_their_outcome(self, capsys, trace_file):
        code, out, _err = run_cli(
            capsys, "explore",
            "--require", "EffectiveOperandLength=768",
            "--decide", "ImplementationStyle=Hardware")
        assert code == 0
        assert "decision ImplementationStyle = 'Hardware':" in out
        assert "eliminated)" in out


class TestTraceCommand:
    def test_summarize(self, capsys, trace_file):
        code, out, _err = run_cli(capsys, "trace", str(trace_file))
        assert code == 0
        assert "trace:" in out and "session(s)" in out
        assert "decide" in out

    def test_summarize_json(self, capsys, trace_file):
        code, out, _err = run_cli(capsys, "trace", str(trace_file),
                                  "--json")
        assert code == 0
        data = json.loads(out)
        assert data["sessions"] == 1
        assert data["by_kind"]["decide"] == 2

    def test_timeline(self, capsys, trace_file):
        code, out, _err = run_cli(capsys, "trace", str(trace_file),
                                  "--timeline")
        assert code == 0
        assert "session_open" in out
        assert "ms]" in out

    def test_output_flag_writes_file(self, capsys, trace_file, tmp_path):
        target = tmp_path / "summary.txt"
        code, out, _err = run_cli(capsys, "trace", str(trace_file),
                                  "--output", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        assert "trace:" in target.read_text()

    def test_replay_verifies(self, capsys, trace_file):
        code, out, _err = run_cli(capsys, "trace", str(trace_file),
                                  "--replay")
        assert code == 0
        assert "replay OK" in out
        assert "pruning checkpoints verified" in out

    def test_replay_json(self, capsys, trace_file):
        code, out, _err = run_cli(capsys, "trace", str(trace_file),
                                  "--replay", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["final_survivors"]

    def test_replay_unknown_session(self, capsys, trace_file):
        code, _out, err = run_cli(capsys, "trace", str(trace_file),
                                  "--replay", "--session", "9")
        assert code == 2
        assert "no session 9" in err

    def test_replay_against_wrong_layer(self, capsys, trace_file):
        code, _out, err = run_cli(capsys, "trace", str(trace_file),
                                  "--replay", "--layer", "idct")
        assert code == 2
        assert "cannot open session" in err

    def test_unreadable_trace(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, _out, err = run_cli(capsys, "trace", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_trace_file(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "trace",
                                  str(tmp_path / "never-written.jsonl"))
        assert code == 2
        assert "cannot read trace file" in err

    def test_summarize_unknown_session(self, capsys, trace_file):
        code, _out, err = run_cli(capsys, "trace", str(trace_file),
                                  "--session", "9")
        assert code == 2
        assert "no session 9" in err

    def test_summarize_known_session(self, capsys, trace_file):
        code, out, _err = run_cli(capsys, "trace", str(trace_file),
                                  "--session", "1")
        assert code == 0
        assert "trace:" in out


class TestStatsCommand:
    ARGS = ("stats",
            "--require", "EffectiveOperandLength=768",
            "--require", "ModuloIsOdd=Guaranteed",
            "--decide", "ImplementationStyle=Hardware")

    def test_text(self, capsys):
        code, out, _err = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "counters:" in out
        assert "dsl_events_total" in out
        assert "dsl_prune_seconds" in out

    def test_prometheus(self, capsys):
        code, out, _err = run_cli(capsys, *self.ARGS, "--prometheus")
        assert code == 0
        assert "# TYPE dsl_events_total counter" in out
        assert 'dsl_events_total{kind="session_open"} 1' in out
        assert "dsl_prune_seconds_bucket" in out

    def test_json(self, capsys):
        code, out, _err = run_cli(
            capsys, "stats",
            "--require", "EffectiveOperandLength=768", "--json")
        assert code == 0
        data = json.loads(out)
        assert 'dsl_events_total{kind="require"}' in data["counters"]


class TestLintOutputParent:
    def test_json_flag_matches_legacy_format(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--layer", "idct",
                                  "--json")
        assert code == 0
        assert json.loads(out)["layer"] == "idct"

    def test_output_flag(self, capsys, tmp_path):
        target = tmp_path / "lint.json"
        code, out, _err = run_cli(capsys, "lint", "--layer", "idct",
                                  "--json", "--output", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        assert json.loads(target.read_text())["layer"] == "idct"


class TestAutomatedExplore:
    def test_bnb_text(self, capsys):
        code, out, _err = run_cli(
            capsys, "explore", "--layer", "idct", "--strategy", "bnb",
            "--metrics", "area,latency_ns", "--top", "3")
        assert code == 0
        assert "Exploration [bnb]" in out
        assert "Pareto frontier over (area, latency_ns)" in out

    def test_json_payload(self, capsys):
        code, out, _err = run_cli(
            capsys, "explore", "--layer", "idct",
            "--strategy", "exhaustive", "--metrics", "area,latency_ns",
            "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "exhaustive"
        assert payload["frontier"]["outcomes"]
        assert len(payload["digest"]) == 16

    def test_bnb_matches_exhaustive_digest(self, capsys):
        runs = {}
        for strategy in ("exhaustive", "bnb"):
            _code, out, _err = run_cli(
                capsys, "explore", "--layer", "idct",
                "--strategy", strategy,
                "--metrics", "area,latency_ns", "--json")
            runs[strategy] = json.loads(out)
        assert runs["bnb"]["digest"] == runs["exhaustive"]["digest"]
        assert runs["bnb"]["stats"]["opened"] < \
            runs["exhaustive"]["stats"]["opened"]

    @pytest.mark.parametrize("flag", ["--jobs", "--chunk-size",
                                      "--trace-sample"])
    def test_parallel_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--layer", "idct", "--strategy", "bnb",
                  flag, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["beam", "evolutionary", "ga"])
    def test_retired_strategies_are_refused(self, capsys, strategy):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--layer", "idct", "--strategy", strategy])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{strategy}'" in err
        assert "'exhaustive', 'bnb', 'branch-and-bound'" in err

    @pytest.mark.parametrize("flag", ["--seed", "--beam-width",
                                      "--population", "--generations"])
    def test_strategy_option_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--layer", "idct", "--strategy", "bnb",
                  flag, "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_decide_prefix_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "explore.jsonl"
        code, out, _err = run_cli(
            capsys, "explore", "--layer", "idct", "--strategy", "bnb",
            "--metrics", "area,latency_ns",
            "--decide", "ImplementationStyle=Hardware",
            "--trace", str(trace))
        assert code == 0
        assert trace.exists()
        kinds = {json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()}
        assert "explore_start" in kinds
        assert "branch_open" in kinds


class TestAnalyze:
    def test_repo_package_is_clean(self, capsys):
        code, out, _err = run_cli(capsys, "analyze", "--fail-on", "warning")
        assert code == 0
        assert "clean" in out.splitlines()[0]

    def test_json_format(self, capsys):
        code, out, _err = run_cli(capsys, "analyze", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["clean"] is True
        assert data["files"] > 100

    def test_list_rules_catalogues_every_code(self, capsys):
        code, out, _err = run_cli(capsys, "analyze", "--list-rules")
        assert code == 0
        for expected in ("DSA001", "DSA002", "DSA003", "DSA004", "DSA010",
                         "DSA011", "DSA030", "DSA031", "DSA032", "DSA040",
                         "DSA041", "DSA042", "DSA043"):
            assert expected in out
        assert "DSA020" not in out and "DSA021" not in out

    def test_lock_graph_for_the_repo_is_cycle_free(self, capsys):
        code, out, _err = run_cli(capsys, "analyze", "--lock-graph")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("lock-order graph:")
        assert "acyclic" in first

    def test_lock_graph_json_round_trips(self, capsys):
        code, out, _err = run_cli(capsys, "analyze", "--lock-graph",
                                  "--json")
        assert code == 0
        data = json.loads(out)
        assert data["acyclic"] is True
        assert data["cycles"] == []
        assert any(lock["lock"] == "SessionManager._lock"
                   for lock in data["locks"])

    def test_lock_graph_exits_nonzero_on_fixture_cycle(self, capsys):
        import os
        pkg = os.path.join(os.path.dirname(__file__),
                           "analysis_fixtures", "deadlock_pkg")
        code, out, _err = run_cli(capsys, "analyze", "--lock-graph", pkg)
        assert code == 1
        assert "CYCLE:" in out

    def test_json_output_file_matches_golden(self, capsys, tmp_path):
        import os
        pkg = os.path.join(os.path.dirname(__file__),
                           "analysis_fixtures", "deadlock_pkg")
        target = tmp_path / "analyze.json"
        code, out, _err = run_cli(capsys, "analyze", pkg,
                                  "--json", "--output", str(target))
        assert code == 1  # the fixture package has unsuppressed errors
        assert f"wrote {target}" in out
        data = json.loads(target.read_text())
        data["root"] = "<fixture-root>"
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "analyze_report.json")
        with open(golden) as fh:
            assert data == json.load(fh)

    def test_explicit_racy_path_fails_the_gate(self, capsys):
        import os
        fixture = os.path.join(os.path.dirname(__file__),
                               "analysis_fixtures", "racy_mod.py")
        code, out, _err = run_cli(capsys, "analyze", fixture,
                                  "--fail-on", "error")
        assert code == 1
        assert "DSA001" in out

    def test_disable_silences_the_rule(self, capsys):
        import os
        fixture = os.path.join(os.path.dirname(__file__),
                               "analysis_fixtures", "racy_mod.py")
        code, out, _err = run_cli(capsys, "analyze", fixture,
                                  "--disable", "DSA001",
                                  "--fail-on", "error")
        assert code == 0
        assert "DSA001" not in out
