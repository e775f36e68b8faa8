"""Shared fixtures.

The crypto and IDCT layers are session-scoped: they are immutable once
built (sessions carry all exploration state), and building the crypto
layer synthesizes 40 hardware cores plus 10 characterized software
routines, which is worth doing once.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ClassOfDesignObjects,
    DesignIssue,
    DesignObject,
    DesignSpaceLayer,
    EnumDomain,
    IntRange,
    Requirement,
    RequirementSense,
    ReuseLibrary,
)


@pytest.fixture(scope="session")
def crypto_layer():
    from repro.domains.crypto import build_crypto_layer
    return build_crypto_layer(eol=768)

@pytest.fixture(scope="session")
def idct_layer():
    from repro.domains.idct import build_idct_layer
    return build_idct_layer()


def build_widget_layer() -> DesignSpaceLayer:
    """A small, fully hand-built layer used across core-level tests."""
    layer = DesignSpaceLayer("widgets", "test layer")
    root = ClassOfDesignObjects("Widget", "all widgets")
    root.add_property(Requirement(
        "Width", IntRange(lo=1, hi=256), "required width",
        sense=RequirementSense.AT_LEAST_SUPPORT))
    root.add_property(Requirement(
        "MaxDelay", IntRange(lo=0), "max delay", sense=RequirementSense.MAX))
    root.add_property(DesignIssue(
        "Style", EnumDomain(["hw", "sw"]), "impl style", generalized=True))
    layer.add_root(root)
    hw = root.specialize("hw")
    hw.add_property(DesignIssue(
        "Tech", EnumDomain(["t35", "t70"]), "technology"))
    hw.add_property(DesignIssue(
        "Pipeline", EnumDomain([1, 2, 4]), "pipeline depth", default=1))
    sw = root.specialize("sw")
    sw.add_property(DesignIssue(
        "Lang", EnumDomain(["asm", "c"]), "language"))
    library = ReuseLibrary("lib-a", "test library")
    library.add_all([
        DesignObject("h1", "Widget.hw",
                     {"Tech": "t35", "Pipeline": 1, "Width": 64},
                     {"area": 100.0, "latency_ns": 10.0, "MaxDelay": 10.0}),
        DesignObject("h2", "Widget.hw",
                     {"Tech": "t35", "Pipeline": 2, "Width": 64},
                     {"area": 140.0, "latency_ns": 6.0, "MaxDelay": 6.0}),
        DesignObject("h3", "Widget.hw",
                     {"Tech": "t70", "Pipeline": 1, "Width": 32},
                     {"area": 260.0, "latency_ns": 22.0, "MaxDelay": 22.0}),
        DesignObject("s1", "Widget.sw",
                     {"Lang": "asm", "Width": 64},
                     {"latency_ns": 900.0, "MaxDelay": 900.0}),
        DesignObject("s2", "Widget.sw",
                     {"Lang": "c", "Width": 64},
                     {"latency_ns": 4000.0, "MaxDelay": 4000.0}),
    ])
    layer.attach_library(library)
    layer.validate()
    return layer


@pytest.fixture()
def widget_layer() -> DesignSpaceLayer:
    return build_widget_layer()


#: Frontier digest of an exhaustive walk of the explore layer from
#: ``Design`` with ``Width`` 16 required (the explore benchmark's).
EXPLORE_DIGEST = "730389f4139eff59"


@pytest.fixture(scope="session")
def explore_layer() -> DesignSpaceLayer:
    """The explore benchmark's 50k-core layer."""
    from repro.testing import dominance_gradient_layer
    return dominance_gradient_layer(50000)
