"""Consistency constraints: construction, applicability, gating."""

import pytest

from repro.core.cdo import ClassOfDesignObjects
from repro.core.layer import DesignSpaceLayer
from repro.core.session import ExplorationSession
from repro.core.constraints import (
    UNBOUND,
    ConsistencyConstraint,
    ConstraintSet,
    SessionBinding,
)
from repro.core.properties import DesignIssue, Requirement
from repro.core.relations import InconsistentOptions
from repro.core.values import EnumDomain, IntRange
from repro.errors import ConstraintError


def make_tree():
    root = ClassOfDesignObjects("Op", "root")
    root.add_property(Requirement("EOL", IntRange(1), "eol"))
    root.add_property(DesignIssue("Kind", EnumDomain(["HW", "SW"]), "k",
                                  generalized=True))
    hw = root.specialize("HW")
    hw.add_property(DesignIssue("Radix", EnumDomain([2, 4]), "r"))
    sw = root.specialize("SW")
    return root, hw, sw


def make_cc(**kwargs):
    defaults = dict(
        name="CC-t", doc="test constraint",
        independents={"E": "EOL@Op"},
        dependents={"R": "Radix@*.HW"},
        relation=InconsistentOptions(lambda b: False, "never"),
    )
    defaults.update(kwargs)
    return ConsistencyConstraint(**defaults)


class TestConstruction:
    def test_requires_name_and_doc(self):
        with pytest.raises(ConstraintError):
            make_cc(name="")
        with pytest.raises(ConstraintError):
            make_cc(doc="")

    def test_string_refs_parsed(self):
        cc = make_cc()
        assert cc.independents["E"].property_name == "EOL"

    def test_overlapping_aliases_rejected(self):
        with pytest.raises(ConstraintError, match="both"):
            make_cc(independents={"X": "EOL@Op"},
                    dependents={"X": "Radix@*.HW"})

    def test_bad_ref_type(self):
        with pytest.raises(ConstraintError):
            make_cc(independents={"E": 42})

    def test_session_binding_accepted(self):
        cc = make_cc(independents={
            "E": SessionBinding(lambda s: 1, "one")})
        assert isinstance(cc.independents["E"], SessionBinding)

    def test_describe_contains_sets(self):
        text = make_cc().describe()
        assert "Indep_Set" in text and "Dep_Set" in text

    def test_shorts_rendered(self):
        cc = make_cc(shorts={"S": "EOL@Op"})
        assert "Shorts" in cc.describe()


class TestApplicability:
    def test_applies_when_all_patterns_visible(self):
        root, hw, sw = make_tree()
        cc = make_cc()
        assert cc.applies_to(hw)
        assert not cc.applies_to(sw)   # Radix@*.HW invisible from SW
        assert not cc.applies_to(root)

    def test_session_binding_with_pattern(self):
        root, hw, sw = make_tree()
        cc = make_cc(independents={
            "E": SessionBinding(lambda s: 1, "one", pattern="*.HW")})
        assert cc.applies_to(hw)
        assert not cc.applies_to(sw)

    def test_session_binding_without_pattern_applies_anywhere(self):
        root, hw, _ = make_tree()
        cc = make_cc(independents={"E": SessionBinding(lambda s: 1, "one")})
        assert cc.applies_to(hw)

    def test_alias_expansion_in_applicability(self):
        root, hw, _ = make_tree()
        cc = make_cc(independents={"E": "EOL@TheRoot"})
        assert cc.applies_to(hw, {"TheRoot": "Op"})
        assert not cc.applies_to(hw)


class TestPropertyNameExtraction:
    def test_dependent_names(self):
        cc = make_cc()
        assert cc.dependent_property_names() == ["Radix"]
        assert cc.independent_property_names() == ["EOL"]

    def test_session_bindings_excluded_from_names(self):
        cc = make_cc(independents={"E": SessionBinding(lambda s: 1, "d")})
        assert cc.independent_property_names() == []


class TestConstraintSet:
    def test_add_get_iterate(self):
        cs = ConstraintSet([make_cc()])
        assert len(cs) == 1
        assert "CC-t" in cs
        assert cs.get("CC-t").name == "CC-t"
        assert [c.name for c in cs] == ["CC-t"]

    def test_duplicate_name(self):
        cs = ConstraintSet([make_cc()])
        with pytest.raises(ConstraintError, match="duplicate"):
            cs.add(make_cc())

    def test_get_missing(self):
        with pytest.raises(ConstraintError):
            ConstraintSet().get("nope")

    def test_iteration_is_sorted_by_name(self):
        # Stable, insertion-order-independent iteration: verifier and
        # linter output depend on it being deterministic.
        shuffled = ConstraintSet([make_cc(name="CC-z"), make_cc(name="CC-a"),
                                  make_cc(name="CC-m")])
        ordered = ConstraintSet([make_cc(name="CC-a"), make_cc(name="CC-m"),
                                 make_cc(name="CC-z")])
        assert [c.name for c in shuffled] == ["CC-a", "CC-m", "CC-z"]
        assert [c.name for c in shuffled] == [c.name for c in ordered]

    def test_applicable_filter(self):
        root, hw, sw = make_tree()
        cs = ConstraintSet([make_cc()])
        assert len(cs.applicable(hw)) == 1
        assert cs.applicable(sw) == []

    def test_blocking_constraints(self):
        root, _, _ = make_tree()
        layer = DesignSpaceLayer("t", "test layer")
        layer.add_root(root)
        layer.add_constraint(make_cc())
        session = ExplorationSession(layer, "Op.HW")
        assert [c.name for c in session.blocking_constraints("Radix")] \
            == ["CC-t"]
        assert session.blocking_constraints("EOL") == []
        session.set_requirement("EOL", 768)
        assert session.blocking_constraints("Radix") == []

    def test_one_walk_matches_each_constraint_once_per_position(
            self, monkeypatch):
        """The layer memoizes each CDO's applicable constraints per
        epoch, so ``applies_to`` runs once per (constraint, CDO) pair:
        an exhaustive crypto walk opens 4 CDOs x 6 constraints (24
        calls); a second walk at the same epoch, with the estimator,
        adds only the one CDO the first never opened (6); and a
        ``verify`` followed by a lint matches each of the 21 x 6 pairs
        once between them (126)."""
        from repro.core.explore import explore
        from repro.core.lint import lint_layer
        from repro.domains.crypto import (build_crypto_layer,
                                          crypto_exploration_problem)

        calls = []
        applies_to = ConsistencyConstraint.applies_to
        monkeypatch.setattr(
            ConsistencyConstraint, "applies_to",
            lambda cc, *args: calls.append(cc.name) or applies_to(cc, *args))
        layer = build_crypto_layer(768)
        for with_estimator, bound in ((False, 24), (True, 6)):
            calls.clear()
            result = explore(crypto_exploration_problem(
                layer=layer, with_estimator=with_estimator))
            assert result.frontier.digest() == "33ed4f1eafb30813"
            assert 0 < len(calls) <= bound
        fresh = build_crypto_layer(768)
        calls.clear()
        fresh.verify()
        lint_layer(fresh)
        assert 0 < len(calls) <= 126


@pytest.mark.parametrize("strategy, with_estimator, evaluations", [
    ("exhaustive", False, 95),
    ("bnb", False, 60),
    ("exhaustive", True, 190),
    ("bnb", True, 190),
])
def test_one_walk_evaluates_the_constraints_once_per_step(
        monkeypatch, crypto_layer, strategy, with_estimator, evaluations):
    """Each session step evaluates the applicable constraints once: a
    decision commits and rolls back on a violation (no tentative pass
    first), and undo puts the saved results back (no pass on the way
    back up).  The walks' results are unchanged."""
    from repro.core.explore import explore
    from repro.domains.crypto import crypto_exploration_problem

    calls = []
    for cc in crypto_layer.constraints:
        monkeypatch.setattr(
            cc.relation, "evaluate",
            lambda *args, _evaluate=cc.relation.evaluate:
                calls.append(1) or _evaluate(*args))
    result = explore(crypto_exploration_problem(
        layer=crypto_layer, with_estimator=with_estimator),
        strategy=strategy)
    assert result.frontier.digest() == "33ed4f1eafb30813"
    assert len(calls) == evaluations
