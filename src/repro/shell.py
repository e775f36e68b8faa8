"""An interactive exploration shell: ``python -m repro shell``.

The paper's workflow is a dialogue — the designer asks what the options
buy, commits, reconsiders.  This wraps an
:class:`~repro.core.session.ExplorationSession` in a line-oriented
command loop (the standard :mod:`cmd` machinery, so it scripts cleanly
through stdin for tests and demos):

::

    (dsl) require EffectiveOperandLength=768
    (dsl) options ImplementationStyle
    (dsl) decide ImplementationStyle=Hardware
    (dsl) report
    (dsl) explain #8_64
    (dsl) checkpoint before-algorithm
    (dsl) decide Algorithm=Montgomery
    (dsl) restore before-algorithm
"""

from __future__ import annotations

import cmd
from typing import IO, Optional

from repro.core.layer import DesignSpaceLayer
from repro.core.session import ExplorationSession
from repro.errors import ReproError


def _binding(arg: str):
    name, sep, raw = arg.partition("=")
    if not sep or not name or not raw:
        raise ReproError(f"expected Name=value, got {arg!r}")
    for caster in (int, float):
        try:
            return name.strip(), caster(raw)
        except ValueError:
            continue
    return name.strip(), raw.strip()


class ExplorationShell(cmd.Cmd):
    """Interactive front-end over one exploration session."""

    prompt = "(dsl) "
    intro = ("Design space exploration shell — 'help' lists commands, "
             "'report' shows the current state, 'quit' leaves.")

    def __init__(self, layer: DesignSpaceLayer, start: str,
                 merit_metrics=("area", "latency_ns", "delay_us"),
                 stdin: Optional[IO[str]] = None,
                 stdout: Optional[IO[str]] = None):
        super().__init__(stdin=stdin, stdout=stdout)
        if stdin is not None:
            self.use_rawinput = False
        self.session = ExplorationSession(layer, start,
                                          merit_metrics=merit_metrics)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _say(self, text: str) -> None:
        self.stdout.write(text + "\n")

    def _guard(self, action) -> None:
        try:
            action()
        except ReproError as exc:
            self._say(f"error: {exc}")

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def do_report(self, _arg: str) -> None:
        """report — current CDO, bindings, candidates, ranges."""
        self._say(self.session.report())

    def do_require(self, arg: str) -> None:
        """require NAME=VALUE — enter a requirement value."""
        def action():
            name, value = _binding(arg)
            self.session.set_requirement(name, value)
            self._say(f"requirement {name} = {value!r} "
                      f"({len(self.session.candidates())} candidates)")
        self._guard(action)

    def do_decide(self, arg: str) -> None:
        """decide ISSUE=OPTION — commit a design decision."""
        def action():
            name, value = _binding(arg)
            self.session.decide(name, value)
            self._say(f"decided {name} = {value!r}; now at "
                      f"{self.session.current_cdo.qualified_name} "
                      f"({len(self.session.candidates())} candidates)")
        self._guard(action)

    def do_options(self, arg: str) -> None:
        """options ISSUE — annotate the options of a design issue."""
        def action():
            if not arg.strip():
                for issue in self.session.addressable_issues():
                    self._say(f"  {issue.name}: "
                              f"{issue.domain.describe()}")
                return
            for info in self.session.available_options(arg.strip()):
                if info.eliminated:
                    self._say(f"  {info.option}: eliminated "
                              f"({info.elimination_reason})")
                else:
                    self._say(f"  {info.option}: {info.candidate_count} "
                              f"candidates {info.ranges}")
        self._guard(action)

    def do_candidates(self, _arg: str) -> None:
        """candidates — list the surviving cores."""
        for core in self.session.candidates():
            self._say(f"  {core.describe()}")

    def do_explain(self, arg: str) -> None:
        """explain CORE — why a core is in or out."""
        self._guard(lambda: self._say(self.session.explain(arg.strip())))

    def do_undo(self, _arg: str) -> None:
        """undo — revert the last mutation."""
        self._guard(lambda: (self.session.undo(), self._say("undone"))[1])

    def do_retract(self, arg: str) -> None:
        """retract NAME — withdraw a decision or requirement."""
        def action():
            self.session.retract(arg.strip())
            self._say(f"retracted {arg.strip()}; at "
                      f"{self.session.current_cdo.qualified_name}")
        self._guard(action)

    def do_checkpoint(self, arg: str) -> None:
        """checkpoint TAG — save the state for branched what-ifs."""
        def action():
            self.session.checkpoint(arg.strip())
            self._say(f"checkpoint {arg.strip()!r} saved")
        self._guard(action)

    def do_restore(self, arg: str) -> None:
        """restore TAG — return to a named checkpoint."""
        def action():
            self.session.restore(arg.strip())
            self._say(f"restored {arg.strip()!r}; at "
                      f"{self.session.current_cdo.qualified_name}")
        self._guard(action)

    def do_checkpoints(self, _arg: str) -> None:
        """checkpoints — list saved checkpoints."""
        self._say(", ".join(self.session.checkpoints()) or "(none)")

    def do_advise(self, _arg: str) -> None:
        """advise — rank the addressable issues by figure-of-merit
        impact (which decision to take next)."""
        from repro.core.advisor import advise
        def action():
            impacts = advise(self.session)
            if not impacts:
                self._say("no addressable issues")
            for impact in impacts:
                self._say(f"  {impact.describe()}")
        self._guard(action)

    def do_lint(self, arg: str) -> None:
        """lint [RULE ...] — static diagnostics for the session's layer
        (optionally restricted to rule codes/slugs/categories)."""
        from repro.core.lint import LintConfig, lint_layer
        def action():
            select = arg.split() or None
            report = lint_layer(self.session.layer,
                                config=LintConfig(select=select))
            self._say(report.render_text())
        self._guard(action)

    def do_verify(self, _arg: str) -> None:
        """verify — semantic verification from the current position:
        dead-branch proofs, unsat cores for the entered requirements,
        and the constraint stratification report."""
        def action():
            session = self.session
            report = session.layer.verify(
                requirements=tuple(session.requirement_values.items()),
                start=session.current_cdo.qualified_name)
            self._say(report.render_text())
            for core in report.analysis.unsat_cores:
                self._say(f"fix-it: region {core.region}:")
                for hint in core.hints:
                    self._say(f"  - {hint}")
        self._guard(action)

    def do_explore(self, arg: str) -> None:
        """explore [STRATEGY] [key=value ...] — automated search from the
        current position (requirements and decisions carried over).

        STRATEGY is exhaustive, bnb (default), beam or evolutionary;
        key=value pairs become strategy options (width=2, seed=7,
        population=16, ...).  The search runs serially on the shell's
        own layer."""
        from repro.core.explore import ExplorationEngine, ExplorationProblem
        from repro.core.properties import DesignIssue

        def action():
            strategy = "bnb"
            options = {}
            for word in arg.split():
                if "=" in word:
                    name, value = _binding(word)
                    options[name] = value
                else:
                    strategy = word
            session = self.session
            decisions = []
            for name, option in session.decisions.items():
                prop = session.current_cdo.find_property(name)
                if isinstance(prop, DesignIssue) and prop.generalized:
                    continue  # implied by the current position
                decisions.append((name, option))
            problem = ExplorationProblem(
                start=session.current_cdo.qualified_name,
                metrics=session.merit_metrics,
                requirements=tuple(session.requirement_values.items()),
                decisions=tuple(decisions),
                layer=session.layer)
            engine = ExplorationEngine(problem, strategy=strategy,
                                       strategy_options=options)
            self._say(engine.run().render_text())
        self._guard(action)

    def do_log(self, _arg: str) -> None:
        """log — the session's action log."""
        for line in self.session.log:
            self._say(f"  - {line}")

    def do_trace(self, arg: str) -> None:
        """trace on|off|status|save PATH — control exploration tracing.

        'on' starts recording structured events for every subsequent
        action; 'save PATH' writes them as a replayable JSONL file
        (verify later with 'repro trace PATH --replay')."""
        from repro.core.obs import summarize, write_jsonl
        layer = self.session.layer

        def action():
            word, _, rest = arg.strip().partition(" ")
            if word in ("", "status"):
                if layer.observer.enabled:
                    self._say(summarize(layer.observer.events))
                else:
                    self._say("tracing is off ('trace on' to start)")
            elif word == "on":
                layer.observe()
                self._say("tracing on")
            elif word == "off":
                layer.observe(None)
                self._say("tracing off")
            elif word == "save":
                path = rest.strip()
                if not path:
                    raise ReproError("usage: trace save PATH")
                if not layer.observer.enabled:
                    raise ReproError("tracing is off; nothing to save")
                count = write_jsonl(layer.observer.events, path)
                self._say(f"{count} events written to {path}")
            else:
                raise ReproError(
                    f"unknown trace subcommand {word!r}; "
                    f"expected on, off, status or save PATH")
        self._guard(action)

    def do_profile(self, arg: str) -> None:
        """profile [TOP] — span profile of the current trace.

        Aggregates the events recorded since 'trace on' into hot sites
        (self/cumulative time) and an indented flame tree; TOP bounds
        the table (default 10)."""
        from repro.core.obs import profile_events
        layer = self.session.layer

        def action():
            if not layer.observer.enabled:
                raise ReproError(
                    "tracing is off ('trace on' to start collecting)")
            word = arg.strip()
            top = int(word) if word else 10
            profile = profile_events(layer.observer.events)
            self._say(profile.render_table(top=top))
            self._say(profile.render_flame())
        self._guard(action)

    def do_stats(self, _arg: str) -> None:
        """stats — metrics collected while tracing was on."""
        if not self.session.layer.observer.enabled:
            self._say("tracing is off ('trace on' to start collecting)")
            return
        self._say(self.session.layer.observer.metrics.render_text())

    def do_quit(self, _arg: str) -> bool:
        """quit — leave the shell."""
        return True

    do_exit = do_quit
    do_EOF = do_quit

    def emptyline(self) -> None:  # do not repeat the last command
        pass

    def default(self, line: str) -> None:
        self._say(f"unknown command {line.split()[0]!r}; try 'help'")


def run_shell(layer: DesignSpaceLayer, start: str,
              stdin: Optional[IO[str]] = None,
              stdout: Optional[IO[str]] = None) -> ExplorationShell:
    """Create and run a shell; returns it (for inspecting the session)."""
    shell = ExplorationShell(layer, start, stdin=stdin, stdout=stdout)
    shell.cmdloop()
    return shell
