"""The layer memo: one epoch-keyed cache for facts derived from a layer.

``DesignSpaceLayer.memo`` holds CDO resolution, the CDO list, each
CDO's applicable constraints and the verifier's results, and drops them
all when ``layer.epoch`` moves.  The property suite checks the memoized
applicable constraints against the uncached oracle,
``ConstraintSet.applicable``, at every CDO of random layers, before and
after each kind of mutation that can change the answer.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdo import ClassOfDesignObjects
from repro.core.constraints import (UNBOUND, ConsistencyConstraint,
                                    SessionBinding)
from repro.core.layer import DesignSpaceLayer
from repro.core.properties import DesignIssue, Requirement
from repro.core.relations import InconsistentOptions
from repro.core.values import EnumDomain, IntRange

KINDS = ("A", "B", "C")
SUBS = ("X", "Y")
ALIASES = ("Al0", "Al1", "Al2")
PROPERTIES = ("R", "Kind", "PA", "PB", "PC", "Sub", "Q")
#: Class patterns over the ``Op`` root, the ``Alt`` root a mutation may
#: add, and alias names that exist only once ``add_alias`` registers them.
PATTERNS = ("Op", "*", "Op.*", "*.A", "*.B", "*.X", "*.A.Y", "Op.C",
            "Alt", "Alt.*", "*.Z") + ALIASES + tuple(f"{a}.*" for a in ALIASES)


def issue(name, options, generalized=False):
    return DesignIssue(name, EnumDomain(list(options)), name.lower(),
                       generalized=generalized)


def references():
    paths = st.builds(lambda prop, pattern: f"{prop}@{pattern}",
                      st.sampled_from(PROPERTIES), st.sampled_from(PATTERNS))
    bindings = st.builds(
        lambda pattern: SessionBinding(lambda session: UNBOUND, "unbound",
                                       pattern=pattern),
        st.sampled_from(("",) + PATTERNS))
    return st.one_of(paths, paths, bindings)


def constraints(name):
    return st.builds(
        lambda ind, dep, shorts: ConsistencyConstraint(
            name, f"random constraint {name}", independents=ind,
            dependents=dep, shorts=shorts,
            relation=InconsistentOptions(lambda b: False, "never")),
        st.dictionaries(st.sampled_from(("i0", "i1")), references(),
                        max_size=2),
        st.dictionaries(st.sampled_from(("d0", "d1")), references(),
                        min_size=1, max_size=2),
        st.dictionaries(st.sampled_from(("s0",)), references(), max_size=1))


@st.composite
def layers(draw):
    layer = DesignSpaceLayer("random", "a random layer")
    root = ClassOfDesignObjects("Op", "root")
    root.add_property(Requirement("R", IntRange(1, 9), "r"))
    root.add_property(issue("Kind", KINDS, generalized=True))
    for kind in draw(st.lists(st.sampled_from(KINDS), unique=True)):
        child = root.specialize(kind)
        child.add_property(issue(f"P{kind}", (1, 2)))
        if draw(st.booleans()):
            child.add_property(issue("Sub", SUBS, generalized=True))
            for sub in draw(st.lists(st.sampled_from(SUBS), unique=True)):
                child.specialize(sub)
    layer.add_root(root)
    cdos = layer.all_cdos()
    for alias in draw(st.lists(st.sampled_from(ALIASES[:2]), unique=True)):
        layer.add_alias(alias, draw(st.sampled_from(cdos)).qualified_name)
    for i in range(draw(st.integers(0, 4))):
        layer.constraints.add(draw(constraints(f"CC{i}")))
    return layer


def assert_matches_oracle(layer):
    walked = [node for root in layer.roots for node in root.walk()]
    assert layer.all_cdos() == walked
    aliases = layer.aliases
    for cdo in walked:
        assert layer.cdo(cdo.qualified_name) is cdo
        expected = layer.constraints.applicable(cdo, aliases)
        assert layer.applicable_constraints(cdo) == expected
    for alias, target in aliases.items():
        assert layer.cdo(alias) is layer.cdo(target)


def mutations():
    return st.lists(st.sampled_from(
        ("constraint", "alias", "root", "property", "specialize")),
        max_size=5)


@settings(max_examples=60, deadline=None)
@given(layer=layers(), steps=mutations(), data=st.data())
def test_memoized_applicable_constraints_match_the_oracle(layer, steps,
                                                          data):
    assert_matches_oracle(layer)
    for step in steps:
        epoch = layer.epoch
        if step == "constraint":
            layer.constraints.add(data.draw(
                constraints(f"CC-added-{len(layer.constraints)}")))
        elif step == "alias":
            free = [a for a in ALIASES if a not in layer.aliases]
            if not free:
                continue
            target = data.draw(st.sampled_from(layer.all_cdos()))
            layer.add_alias(free[0], target.qualified_name)
        elif step == "root":
            if any(root.name == "Alt" for root in layer.roots):
                continue
            alt = ClassOfDesignObjects("Alt", "a second root")
            alt.add_property(issue("Kind", ("Z",), generalized=True))
            alt.specialize("Z")
            layer.add_root(alt)
        elif step == "property":
            target = data.draw(st.sampled_from(layer.all_cdos()))
            if any(p.name == "Q" for p in target.all_properties()):
                continue
            target.add_property(issue("Q", (0, 1)))
        else:
            open_slots = [
                (cdo, option) for cdo in layer.all_cdos()
                if cdo.generalized_issue is not None
                for option in cdo.generalized_issue.domain.options
                if option not in {c.option_of_parent for c in cdo.children}]
            if not open_slots:
                continue
            cdo, option = data.draw(st.sampled_from(open_slots))
            cdo.specialize(option)
        assert layer.epoch > epoch
        assert_matches_oracle(layer)


# ----------------------------------------------------------------------
# memo mechanics
# ----------------------------------------------------------------------

@pytest.fixture
def layer():
    layer = DesignSpaceLayer("memo", "memo mechanics")
    layer.add_root(ClassOfDesignObjects("Op", "root"))
    return layer


def test_a_key_is_computed_once_per_epoch(layer):
    calls = []
    compute = lambda: calls.append(1) or object()  # noqa: E731
    first = layer.memo("k", compute)
    assert layer.memo("k", compute) is first
    layer.add_alias("O", "Op")
    assert layer.memo("k", compute) is not first
    assert len(calls) == 2


def test_a_memoized_none_is_a_hit(layer):
    calls = []
    assert layer.memo("k", lambda: calls.append(1)) is None
    assert layer.memo("k", lambda: calls.append(1)) is None
    assert calls == [1]


def test_a_value_computed_while_the_epoch_moved_is_not_kept(layer):
    def moving():
        layer.add_alias("O", "Op")
        return "stale"

    assert layer.memo("k", moving) == "stale"
    assert layer.memo("k", lambda: "fresh") == "fresh"


def test_an_unhashable_key_skips_the_memo(layer):
    calls = []
    for _ in range(2):
        layer.memo(("k", [1]), lambda: calls.append(1))
    assert calls == [1, 1]


def test_sessions_and_lint_read_the_layer_answer():
    from repro.core.explore import explore
    from repro.core.lint.engine import LintContext
    from repro.core.session import ExplorationSession
    from repro.domains.crypto import (build_crypto_layer,
                                      crypto_exploration_problem)

    layer = build_crypto_layer(768)
    explore(crypto_exploration_problem(layer=layer))
    session = ExplorationSession(layer, "Operator.Modular.Multiplier")
    assert session.applicable_constraints() is \
        layer.applicable_constraints(session.current_cdo)
    context = LintContext(layer)
    for constraint in layer.constraints:
        assert context.applicable_cdos(constraint) == [
            cdo for cdo in layer.all_cdos()
            if constraint.applies_to(cdo, layer.aliases)]


def test_racing_computes_publish_one_object(layer):
    # Every reader misses: none publishes before all eight are computing.
    computing = threading.Barrier(8)
    seen = []

    def compute():
        computing.wait(10)
        return [object()]

    threads = [threading.Thread(target=lambda: seen.append(
        layer.memo("k", compute))) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    assert len({id(value) for value in seen}) == 1
