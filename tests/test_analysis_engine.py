"""Analyzer unit suite over synthetic fixture modules.

``tests/analysis_fixtures/`` holds a known-racy module (every construct
earns a finding), a known-clean twin (the false-positive budget: zero
findings), a fully suppressed variant, and a bad-suppressions module
(allows that are themselves findings).  A custom contract maps the
fixture class names into the passes.
"""

import json
import os

import pytest

from repro.analysis import (
    AnalysisConfig,
    ConcurrencyContract,
    EpochContract,
    analyze_paths,
)
from repro.analysis.registry import DEFAULT_REGISTRY, AnalysisRegistry
from repro.core.lint.diagnostics import Severity
from repro.errors import AnalysisError

FIXTURES = os.path.join(os.path.dirname(__file__), "analysis_fixtures")

FIXTURE_CONTRACT = ConcurrencyContract(
    shared_classes=frozenset({"SharedBox"}),
    owned_mutators={"SharedBox": frozenset({"owned_setup"})},
    epoch_contracts=(
        EpochContract("Epochal", stores=("_data",),
                      bump_methods=("_bump",), epoch_attrs=("_epoch",)),
    ),
)


def analyze_fixture(name, config=None):
    return analyze_paths([os.path.join(FIXTURES, name)], root=FIXTURES,
                         config=config, contract=FIXTURE_CONTRACT)


class TestRacyFixture:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_fixture("racy_mod.py")

    def test_every_expected_code_fires(self, report):
        assert set(report.codes()) == {"DSA001", "DSA002", "DSA010", "DSA011"}

    def test_race_sites(self, report):
        by_symbol = {(f.code, f.symbol) for f in report.by_code("DSA001")}
        assert ("DSA001", "racy_mod:SharedBox.count") in by_symbol
        assert ("DSA001", "racy_mod:SharedBox.wipe") in by_symbol
        assert ("DSA001", "racy_mod:append_worker") in by_symbol
        # the owned mutator is exempt
        assert not any(f.symbol == "racy_mod:SharedBox.owned_setup"
                       for f in report.active)

    def test_cache_publish_downgraded_to_warning(self, report):
        publishes = report.by_code("DSA002")
        assert [f.symbol for f in publishes] == ["racy_mod:SharedBox.publish"]
        assert publishes[0].severity is Severity.WARNING

    def test_epoch_sites(self, report):
        assert [f.symbol for f in report.by_code("DSA010")] == \
            ["racy_mod:Epochal.bad_add"]
        assert [f.symbol for f in report.by_code("DSA011")] == \
            ["racy_mod:Epochal.reset"]
        # the bumping method stays silent
        assert not any(f.symbol == "racy_mod:Epochal.good_add"
                       for f in report.active)

    def test_gate_fails_at_error_and_warning(self, report):
        assert report.has_at_least(Severity.ERROR)
        assert report.has_at_least(Severity.WARNING)
        assert not report.clean


class TestCleanFixture:
    def test_zero_findings(self):
        report = analyze_fixture("clean_mod.py")
        assert report.active == []
        assert report.clean
        assert not report.has_at_least(Severity.INFO)


class TestSuppressedFixture:
    def test_suppressions_silence_the_gate_but_keep_the_audit_trail(self):
        report = analyze_fixture("suppressed_mod.py")
        assert report.active == []
        assert not report.has_at_least(Severity.WARNING)
        suppressed = report.suppressed
        assert {f.code for f in suppressed} == {"DSA001", "DSA002"}
        assert all(f.justification for f in suppressed)

    def test_suppressed_findings_survive_into_json(self):
        report = analyze_fixture("suppressed_mod.py")
        payload = json.loads(report.to_json())
        dumped = [f for f in payload["findings"] if f["suppressed"]]
        assert {f["code"] for f in dumped} == {"DSA001", "DSA002"}


class TestBadSuppressions:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_fixture("bad_suppressions_mod.py")

    def test_missing_justification_is_an_error(self, report):
        dsa003 = report.by_code("DSA003")
        assert len(dsa003) == 1
        assert dsa003[0].severity is Severity.ERROR

    def test_stale_and_unknown_allows_flagged(self, report):
        dsa004 = report.by_code("DSA004")
        messages = sorted(f.message for f in dsa004)
        assert len(dsa004) == 2
        assert any("matches no finding" in m for m in messages)
        assert any("unknown rule code" in m for m in messages)

    def test_unknown_code_does_not_mask_the_real_finding(self, report):
        assert any(f.symbol == "bad_suppressions_mod:typo_worker"
                   for f in report.by_code("DSA001"))


class TestConfig:
    def test_disable_drops_a_rule(self):
        config = AnalysisConfig(disable=("DSA002",))
        report = analyze_fixture("racy_mod.py", config=config)
        assert "DSA002" not in report.codes()
        assert "DSA001" in report.codes()

    def test_select_narrows_to_named_rules(self):
        config = AnalysisConfig(select=("DSA010", "DSA011"))
        report = analyze_fixture("racy_mod.py", config=config)
        assert set(report.codes()) == {"DSA010", "DSA011"}

    def test_severity_override_changes_the_gate(self):
        config = AnalysisConfig(select=("DSA002",),
                                severity_overrides={"DSA002": "error"})
        report = analyze_fixture("racy_mod.py", config=config)
        assert report.has_at_least(Severity.ERROR)

    def test_unknown_rule_in_config_raises(self):
        with pytest.raises(AnalysisError):
            analyze_fixture("racy_mod.py",
                            config=AnalysisConfig(select=("DSA999",)))

    def test_registry_rejects_malformed_codes(self):
        registry = AnalysisRegistry()
        rule = DEFAULT_REGISTRY.get("DSA001")
        registry.register(rule)
        with pytest.raises(AnalysisError):
            registry.register(rule)  # duplicate


class TestReportSurface:
    def test_text_rendering_names_every_active_site(self):
        report = analyze_fixture("racy_mod.py")
        text = report.render_text()
        for finding in report.active:
            assert finding.code in text
        assert "racy_mod.py" in text

    def test_clean_summary_reads_clean(self):
        report = analyze_fixture("clean_mod.py")
        assert "clean" in report.summary()


class TestDeterministicOrder:
    """Satellite: finding order is pinned to (path, line, code) so the
    CI gate and the golden files are byte-stable across runs."""

    def _finding(self, path, line, code):
        from repro.analysis.model import Finding
        return Finding(code=code, rule="unguarded-shared-write",
                       severity=Severity.ERROR, path=path, line=line,
                       symbol="m:f", message=f"{path}:{line}:{code}")

    def test_constructor_sorts_shuffled_findings(self):
        from repro.analysis.model import AnalysisReport
        shuffled = [self._finding("b.py", 9, "DSA001"),
                    self._finding("a.py", 5, "DSA010"),
                    self._finding("a.py", 5, "DSA001"),
                    self._finding("a.py", 2, "DSA030")]
        report = AnalysisReport(root="/r", findings=shuffled, files=2)
        assert [f.sort_key()[:3] for f in report.findings] == \
            [("a.py", 2, "DSA030"), ("a.py", 5, "DSA001"),
             ("a.py", 5, "DSA010"), ("b.py", 9, "DSA001")]

    def test_render_and_json_resort_post_init_appends(self):
        from repro.analysis.model import AnalysisReport
        report = AnalysisReport(root="/r", files=1,
                                findings=[self._finding("z.py", 7, "DSA001")])
        report.findings.append(self._finding("a.py", 1, "DSA001"))
        text = report.render_text()
        assert text.index("a.py:1") < text.index("z.py:7")
        dumped = report.to_dict()["findings"]
        assert [(f["path"], f["line"]) for f in dumped] == \
            [("a.py", 1), ("z.py", 7)]

    def test_two_analysis_runs_serialize_identically(self):
        first = analyze_fixture("racy_mod.py")
        second = analyze_fixture("racy_mod.py")
        assert first.to_json() == second.to_json()
