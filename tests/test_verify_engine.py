"""The semantic verifier on the bundled layers: proofs, unsat cores,
strata, caching, DSL1xx diagnostics and observability wiring."""

import json

import pytest

from repro.core import (
    ConsistencyConstraint,
    DesignObject,
    ExplorationSession,
    InconsistentOptions,
    ReuseLibrary,
)
from repro.core.lint import LintConfig
from repro.core.pruning import MissingPolicy
from repro.core.verify import VerifyReport, analyze_layer, verify_layer
from repro.domains.crypto import build_crypto_layer
from repro.domains.idct import build_idct_layer
from repro.errors import ConstraintViolation, LintError

from conftest import build_widget_layer

OMM_H = "Operator.Modular.Multiplier.Hardware"


@pytest.fixture
def crypto():
    return build_crypto_layer()


class TestCryptoProofs:
    def test_unconstrained_layer_proves_dead_options(self, crypto):
        analysis = analyze_layer(crypto)
        assert len(analysis.proofs) == 42
        assert len(analysis.prune_mask()) == 42
        assert not analysis.unsat_cores
        # CC5 statically eliminates the array multiplier wherever the
        # issue is visible -- an `eliminated-option` proof, no session.
        assert any(p.cdo == OMM_H
                   and p.issue == "MultiplierImplementation"
                   and p.option == "Array-Multiplier"
                   and p.kind == "eliminated-option"
                   and p.constraint == "CC5"
                   for p in analysis.proofs)
        # Without entered requirements nothing is a rejected decision.
        assert not [p for p in analysis.proofs
                    if p.kind == "rejected-decision"]

    def test_eol_768_rejects_slice_width_512(self, crypto):
        analysis = analyze_layer(
            crypto, requirements=(("EffectiveOperandLength", 768),))
        cc6 = [p for p in analysis.proofs if p.constraint == "CC6"]
        assert len(cc6) == 3
        assert all(p.kind == "rejected-decision"
                   and p.issue == "SliceWidth"
                   and p.option == 512 for p in cc6)
        assert any(p.cdo == OMM_H for p in cc6)

    def test_prune_mask_policy_gates_index_proofs(self, crypto):
        analysis = analyze_layer(crypto)
        exclude = analysis.prune_mask()
        include = analysis.prune_mask(MissingPolicy.INCLUDE)
        # empty-region proofs quantify over documented core properties,
        # so they drop out under the INCLUDE policy; constraint-based
        # proofs survive any policy.
        empties = {p.key() for p in analysis.proofs
                   if p.kind == "empty-region"}
        assert include == exclude - empties

    def test_proofs_at_filters_by_cdo(self, crypto):
        analysis = analyze_layer(crypto)
        local = analysis.proofs_at(OMM_H)
        assert local
        assert all(p.cdo == OMM_H for p in local)


class TestSelectorRefs:
    def test_decision_seen_through_a_selector_is_a_rejected_decision(self):
        """A session evaluates its constraints with the decision in
        force, so a selector chain over the decided issue sees it: the
        verifier proves the rejection, and the live session agrees."""
        layer = build_widget_layer()
        layer.selectors.register("half", lambda value, args: value // 2)
        layer.add_constraint(ConsistencyConstraint(
            "CC-h", "halved depth stays shallow",
            independents={"W": "Width@Widget"},
            dependents={"H": "half()@Pipeline@Widget.hw"},
            relation=InconsistentOptions(
                lambda b: b["H"] > 1, "half depth over 1",
                requires=("W", "H"))))
        analysis = analyze_layer(layer, requirements=(("Width", 16),))
        assert [(p.cdo, p.issue, p.option, p.kind, p.constraint)
                for p in analysis.proofs] == [
            ("Widget.hw", "Pipeline", 4, "rejected-decision", "CC-h")]
        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 16)
        session.decide("Style", "hw")
        with pytest.raises(ConstraintViolation, match="half depth"):
            session.decide("Pipeline", 4)
        assert session.decisions == {"Style": "hw"}


class TestUnsatCores:
    REQS = (("ModuloIsOdd", "notGuaranteed"),)

    def test_minimal_core_with_hints(self, crypto):
        analysis = analyze_layer(crypto, requirements=self.REQS, start=OMM_H)
        assert len(analysis.unsat_cores) == 1
        core = analysis.unsat_cores[0]
        assert core.region == OMM_H
        # Deletion-based shrinking must reach the minimal conflict:
        # exactly the odd-modulo requirement against CC1.
        assert core.requirements == (("ModuloIsOdd", "notGuaranteed"),)
        assert core.constraints == ("CC1",)
        assert any("ModuloIsOdd" in h for h in core.hints)
        assert any("CC1" in h for h in core.hints)
        assert OMM_H in analysis.infeasible_regions

    def test_rendered_as_dsl103_error(self, crypto):
        report = verify_layer(crypto, requirements=self.REQS, start=OMM_H)
        errors = report.lint.by_code("DSL103")
        assert len(errors) == 1
        assert "ModuloIsOdd" in errors[0].message
        assert not report.clean()

    def test_feasible_requirements_have_no_core(self, crypto):
        analysis = analyze_layer(
            crypto, requirements=(("ModuloIsOdd", "Guaranteed"),),
            start=OMM_H)
        assert not analysis.unsat_cores
        assert not analysis.infeasible_regions


class TestStratification:
    def test_crypto_strata_ordering(self, crypto):
        strata = analyze_layer(crypto).strata
        assert [s.properties for s in strata] == [
            ("BehavioralDescription", "EffectiveOperandLength",
             "ModuloIsOdd", "Radix", "SliceWidth"),
            ("Algorithm", "LatencyCycles", "MaxCombinationalDelay",
             "NumberOfSlices"),
            ("AdderImplementation", "MultiplierImplementation"),
        ]
        assert [s.fan_out for s in strata] == [9, 2, 0]
        assert not any(s.unstable for s in strata)
        assert [s.index for s in strata] == [1, 2, 3]


class TestIdct:
    def test_empty_regions_reported_as_dsl101(self):
        layer = build_idct_layer()
        analysis = analyze_layer(layer)
        assert len(analysis.proofs) == 11
        assert {p.kind for p in analysis.proofs} == {"empty-region"}
        assert any(p.cdo == "IDCT.Software"
                   and p.issue == "ProgrammablePlatform"
                   and p.option == "Embedded-RISC"
                   for p in analysis.proofs)
        report = verify_layer(layer)
        assert set(report.lint.codes()) == {"DSL101"}
        assert len(report.lint.by_code("DSL101")) == 11
        assert not report.lint.errors


class TestEpochCache:
    def test_repeat_analysis_is_the_same_object(self, crypto):
        assert analyze_layer(crypto) is analyze_layer(crypto)

    def test_distinct_keys_are_distinct_entries(self, crypto):
        plain = analyze_layer(crypto)
        scoped = analyze_layer(crypto, start=OMM_H)
        assert scoped is not plain
        assert analyze_layer(crypto, start=OMM_H) is scoped

    def test_layer_mutation_invalidates(self, crypto):
        before = analyze_layer(crypto)
        extra = ReuseLibrary("extra", "late cores")
        extra.add(DesignObject(
            "x1", f"{OMM_H}.Montgomery", {}, {"area": 1.0}))
        crypto.attach_library(extra)
        after = analyze_layer(crypto)
        assert after is not before
        assert after.epoch > before.epoch


class TestReportCache:
    """``layer.verify()`` keeps its report next to the analysis in the
    epoch cache, so a served verify and a direct one are one lookup."""

    @pytest.fixture
    def widgets(self):
        return build_widget_layer()

    def test_warm_repeat_returns_the_same_report(self, widgets):
        first = widgets.verify(requirements=(("Width", 64),))
        assert widgets.verify(requirements=(("Width", 64),)) is first

    def test_keyed_by_requirements_and_start(self, widgets):
        base = widgets.verify()
        assert widgets.verify(requirements=(("Width", 64),)) is not base
        assert widgets.verify(start="Widget.hw") is not base
        assert widgets.verify() is base

    def test_requirement_order_does_not_split_the_cache(self, widgets):
        a = widgets.verify(requirements=(("Width", 64), ("MaxDelay", 50)))
        b = widgets.verify(requirements=(("MaxDelay", 50), ("Width", 64)))
        assert a is b

    def test_one_library_mutation_yields_a_fresh_report(self, widgets):
        before = widgets.verify(requirements=(("Width", 64),))
        widgets.libraries.library("lib-a").add(DesignObject(
            "h4", "Widget.hw", {"Tech": "t35", "Pipeline": 4, "Width": 128},
            {"area": 90.0, "latency_ns": 3.0, "MaxDelay": 3.0}))
        after = widgets.verify(requirements=(("Width", 64),))
        assert after is not before
        assert after.analysis.epoch > before.analysis.epoch
        assert widgets.verify(requirements=(("Width", 64),)) is after

    def test_unhashable_requirement_values_skip_the_cache(self, widgets):
        first = widgets.verify(requirements=(("Width", [64]),))
        again = widgets.verify(requirements=(("Width", [64]),))
        assert again is not first
        assert again.to_json() == first.to_json()

    def test_a_configured_verify_is_not_cached(self, widgets):
        config = LintConfig(select=("verify",))
        assert widgets.verify(config=config) is not \
            widgets.verify(config=config)


class TestDiagnosticsOptIn:
    def test_plain_lint_is_unchanged(self, crypto):
        assert tuple(crypto.lint().codes()) == ("DSL023",)

    def test_verify_adds_dsl1xx_on_top(self, crypto):
        report = verify_layer(crypto)
        codes = set(report.lint.codes())
        assert codes == {"DSL100", "DSL101"}

    def test_existing_config_is_merged(self, crypto):
        config = LintConfig(select=("verify",),
                            disable=("DSL101",))
        report = verify_layer(crypto, config=config)
        assert set(report.lint.codes()) == {"DSL100"}

    def test_bad_config_type_rejected(self, crypto):
        with pytest.raises(TypeError, match="LintConfig"):
            verify_layer(crypto, config="nope")


class TestVerifyReport:
    def test_summary_and_text(self, crypto):
        report = verify_layer(crypto)
        assert "dead-branch proof(s)" in report.summary()
        text = report.render_text()
        assert text.startswith("verify report for layer 'crypto'")
        assert "constraint strata (independent -> dependent)" in text
        assert "feasible regions:" in text

    def test_json_round_trip(self, crypto):
        report = verify_layer(crypto)
        payload = json.loads(report.to_json())
        assert payload["analysis"]["layer"] == report.layer_name
        assert len(payload["analysis"]["dead_branches"]) == 42
        assert payload["diagnostics"]["layer"] == report.layer_name
        assert payload["summary"] == report.summary()


class TestLayerVerify:
    def test_returns_a_verify_report(self, crypto):
        report = crypto.verify()
        assert isinstance(report, VerifyReport)
        assert report.analysis is analyze_layer(crypto)

    def test_strict_raises_on_infeasible_requirements(self, crypto):
        with pytest.raises(LintError, match="strict verify"):
            crypto.verify(
                requirements=[("ModuloIsOdd", "notGuaranteed")],
                start=OMM_H, strict=True)

    def test_config_type_checked(self, crypto):
        with pytest.raises(LintError, match="LintConfig"):
            crypto.verify(config=42)


class TestObservability:
    def test_events_and_metrics(self, crypto):
        recorder = crypto.observe()
        report = crypto.verify(
            requirements=[("ModuloIsOdd", "notGuaranteed")], start=OMM_H)
        analysis = report.analysis
        by_kind = {}
        for event in recorder.events:
            by_kind.setdefault(event.kind, []).append(event)
        assert len(by_kind["verify_run"]) == 1
        assert len(by_kind["dead_branch_proved"]) == len(analysis.proofs)
        assert len(by_kind["unsat_core_found"]) == len(analysis.unsat_cores) == 1
        proof_event = by_kind["dead_branch_proved"][0].payload
        assert {"cdo", "issue", "option", "proof_kind", "constraint"} \
            <= set(proof_event)
        core_event = by_kind["unsat_core_found"][0].payload
        assert core_event["region"] == OMM_H
        assert core_event["constraints"] == ["CC1"]
        rendered = recorder.metrics.render_prometheus()
        assert "dsl_verify_seconds" in rendered
        assert "dsl_dead_branches_total" in rendered
        assert "dsl_unsat_cores_total" in rendered

    def test_unobserved_verify_emits_nothing(self, crypto):
        crypto.verify()
        assert crypto.observer.events == ()
