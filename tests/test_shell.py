"""The interactive exploration shell (scripted through stdin)."""

import io

import pytest

from repro.shell import ExplorationShell, run_shell

from conftest import build_widget_layer


def drive(script: str, layer=None, start: str = "Widget"):
    layer = layer if layer is not None else build_widget_layer()
    out = io.StringIO()
    shell = run_shell(layer, start,
                      stdin=io.StringIO(script), stdout=out)
    return shell, out.getvalue()


class TestBasicCommands:
    def test_require_and_decide(self):
        shell, out = drive(
            "require Width=64\ndecide Style=hw\nreport\nquit\n")
        assert shell.session.decisions == {"Style": "hw"}
        assert "now at Widget.hw" in out
        assert "candidate cores: 2" in out

    def test_options(self):
        _shell, out = drive("options Style\nquit\n")
        assert "hw: 3 candidates" in out
        assert "sw: 2 candidates" in out

    def test_options_without_argument_lists_issues(self):
        _shell, out = drive("options\nquit\n")
        assert "Style:" in out

    def test_candidates_and_explain(self):
        _shell, out = drive(
            "decide Style=hw\ncandidates\nexplain h3\nexplain s1\nquit\n")
        assert "h1" in out
        assert "survives" in out
        assert "not indexed" in out

    def test_undo_and_retract(self):
        shell, out = drive(
            "decide Style=hw\ndecide Tech=t35\nundo\nretract Style\n"
            "report\nquit\n")
        assert shell.session.decisions == {}
        assert "undone" in out
        assert "retracted Style" in out

    def test_log(self):
        _shell, out = drive("decide Style=sw\nlog\nquit\n")
        assert "- decision Style = 'sw'" in out


class TestCheckpoints:
    def test_branching_workflow(self):
        shell, out = drive(
            "decide Style=hw\ncheckpoint fork\ndecide Tech=t35\n"
            "restore fork\ndecide Tech=t70\ncandidates\nquit\n")
        assert shell.session.decisions["Tech"] == "t70"
        assert "checkpoint 'fork' saved" in out
        assert "h3" in out

    def test_checkpoints_listing(self):
        _shell, out = drive(
            "checkpoint a\ncheckpoint b\ncheckpoints\nquit\n")
        assert "a, b" in out

    def test_restore_unknown(self):
        _shell, out = drive("restore ghost\nquit\n")
        assert "error" in out and "ghost" in out


class TestErrorHandling:
    def test_errors_do_not_kill_the_loop(self):
        shell, out = drive(
            "decide Style=warpdrive\ndecide Style=hw\nquit\n")
        assert "error:" in out
        assert shell.session.decisions == {"Style": "hw"}

    def test_bad_binding_syntax(self):
        _shell, out = drive("require JustAName\nquit\n")
        assert "Name=value" in out

    def test_unknown_command(self):
        _shell, out = drive("frobnicate\nquit\n")
        assert "unknown command" in out

    def test_eof_terminates(self):
        shell, _out = drive("decide Style=hw\n")  # no quit: EOF ends it
        assert shell.session.decisions == {"Style": "hw"}


class TestSessionCheckpointApi:
    def test_checkpoint_restore_round_trip(self):
        from repro.core import ExplorationSession
        session = ExplorationSession(build_widget_layer(), "Widget")
        session.decide("Style", "hw")
        session.checkpoint("fork")
        session.decide("Tech", "t35")
        session.restore("fork")
        assert "Tech" not in session.decisions
        assert session.current_cdo.qualified_name == "Widget.hw"
        # The restore itself is undoable.
        session.undo()
        assert session.decisions["Tech"] == "t35"

    def test_checkpoint_validation(self):
        from repro.core import ExplorationSession
        from repro.errors import SessionError
        session = ExplorationSession(build_widget_layer(), "Widget")
        with pytest.raises(SessionError):
            session.checkpoint("")
        with pytest.raises(SessionError, match="no checkpoint"):
            session.restore("missing")
        assert session.checkpoints() == []


class TestAdviseCommand:
    def test_advise_lists_impacts(self):
        shell, out = drive("decide Style=hw\nadvise\nquit\n")
        assert "Tech" in out and "impact" in out

    def test_advise_with_nothing_left(self):
        _shell, out = drive(
            "decide Style=hw\ndecide Tech=t35\ndecide Pipeline=1\n"
            "advise\nquit\n")
        assert "no addressable issues" in out


class TestLintCommand:
    def test_lint_reports_layer_findings(self):
        _shell, out = drive("lint\nquit\n")
        assert "lint report for layer 'widgets'" in out

    def test_lint_with_rule_selection(self):
        _shell, out = drive("lint hierarchy\nquit\n")
        assert "clean" in out

    def test_lint_with_unknown_rule_reports_error(self):
        _shell, out = drive("lint DSL999\nquit\n")
        assert "error:" in out and "unknown rule" in out


class TestVerifyCommand:
    def test_verify_reports_from_the_root(self):
        _shell, out = drive("verify\nquit\n")
        assert "verify report for layer 'widgets'" in out

    def test_verify_is_scoped_to_the_current_position(self):
        _shell, out = drive(
            "require Width=64\ndecide Style=hw\nverify\nquit\n")
        assert "start: Widget.hw" in out
        assert "requirements: Width=64" in out
        # The sw subtree's findings are out of scope below Widget.hw.
        assert "Widget.sw" not in out.split("verify report")[1]

    def test_verify_renders_empty_region_findings(self):
        _shell, out = drive("require Width=64\nverify\nquit\n")
        assert "DSL101" in out


class TestTraceCommand:
    def test_status_off_by_default(self):
        _shell, out = drive("trace\nquit\n")
        assert "tracing is off" in out

    def test_on_records_and_summarizes(self):
        shell, out = drive(
            "trace on\nrequire Width=64\ndecide Style=hw\ntrace\nquit\n")
        assert "tracing on" in out
        assert "trace:" in out and "events" in out
        assert shell.session.layer.observer.enabled

    def test_off_stops_recording(self):
        shell, out = drive("trace on\ntrace off\ntrace\nquit\n")
        assert "tracing off" in out
        assert "tracing is off" in out
        assert not shell.session.layer.observer.enabled

    def test_save_round_trips(self, tmp_path):
        from repro.core.obs import read_jsonl
        path = tmp_path / "shell.jsonl"
        _shell, out = drive(
            f"trace on\ndecide Style=hw\ntrace save {path}\nquit\n")
        assert f"events written to {path}" in out
        events = read_jsonl(path)
        assert any(e.kind == "decide" for e in events)

    def test_save_requires_a_path_and_tracing(self, tmp_path):
        _shell, out = drive("trace save\nquit\n")
        assert "usage: trace save PATH" in out
        _shell, out = drive(f"trace save {tmp_path / 'x.jsonl'}\nquit\n")
        assert "tracing is off; nothing to save" in out

    def test_unknown_subcommand(self):
        _shell, out = drive("trace sideways\nquit\n")
        assert "error:" in out and "sideways" in out


class TestStatsCommand:
    def test_off_by_default(self):
        _shell, out = drive("stats\nquit\n")
        assert "tracing is off" in out

    def test_renders_collected_metrics(self):
        _shell, out = drive(
            "trace on\ndecide Style=hw\ncandidates\nstats\nquit\n")
        assert "counters:" in out
        assert "dsl_events_total" in out


class TestExploreCommand:
    def test_explore_from_current_position(self):
        shell, out = drive("decide Style=hw\nexplore exhaustive\nquit\n")
        assert "Exploration [exhaustive]" in out
        assert "h1" in out and "h2" in out
        # The search ran on checkpoints; the interactive position and
        # its decisions are untouched.
        assert shell.session.decisions == {"Style": "hw"}

    def test_explore_defaults_to_bnb_and_refuses_beam(self):
        _shell, out = drive("explore\nquit\n")
        assert "Exploration [bnb]" in out
        _shell, out = drive("explore beam\nquit\n")
        assert ("error: unknown exploration strategy 'beam'; known: "
                "['bnb', 'branch-and-bound', 'exhaustive']") in out
        assert "Exploration [" not in out

    def test_requirements_carry_over(self):
        _shell, out = drive(
            "require MaxDelay=100\nexplore exhaustive\nquit\n")
        assert "s1" not in out  # software cores pruned by the requirement

    def test_unknown_strategy_reports_error(self):
        _shell, out = drive("explore annealing\nquit\n")
        assert "error:" in out and "annealing" in out
