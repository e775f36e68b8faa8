"""DesignSpaceLayer: registration, lookup, aliases, validation."""

import pytest

from repro.core import (
    ClassOfDesignObjects,
    ConsistencyConstraint,
    DesignIssue,
    DesignObject,
    DesignSpaceLayer,
    EnumDomain,
    InconsistentOptions,
    IntRange,
    Requirement,
    ReuseLibrary,
)
from repro.errors import HierarchyError, LibraryError, PathError


def make_layer():
    layer = DesignSpaceLayer("t", "test layer")
    root = ClassOfDesignObjects("Root", "root")
    root.add_property(Requirement("W", IntRange(1), "width"))
    root.add_property(DesignIssue("S", EnumDomain(["a", "b"]), "split",
                                  generalized=True))
    layer.add_root(root)
    root.specialize_all()
    return layer


class TestHierarchy:
    def test_root_must_be_root(self):
        layer = make_layer()
        child = layer.cdo("Root.a")
        with pytest.raises(HierarchyError, match="not a root"):
            layer.add_root(child)

    def test_duplicate_root(self):
        layer = make_layer()
        with pytest.raises(HierarchyError, match="duplicate"):
            layer.add_root(ClassOfDesignObjects("Root", "again"))

    def test_lookup_by_qualified_name(self):
        layer = make_layer()
        assert layer.cdo("Root.b").qualified_name == "Root.b"

    def test_lookup_unknown_root(self):
        with pytest.raises(HierarchyError, match="no root"):
            make_layer().cdo("Ghost")

    def test_lookup_unknown_child(self):
        with pytest.raises(HierarchyError, match="no\\s+child"):
            make_layer().cdo("Root.z")

    def test_all_cdos(self):
        names = {c.qualified_name for c in make_layer().all_cdos()}
        assert names == {"Root", "Root.a", "Root.b"}

    def test_has_cdo(self):
        layer = make_layer()
        assert layer.has_cdo("Root.a")
        assert not layer.has_cdo("Root.z")


class TestAliases:
    def test_alias_lookup(self):
        layer = make_layer()
        layer.add_alias("RA", "Root.a")
        assert layer.cdo("RA").qualified_name == "Root.a"

    def test_alias_target_must_exist(self):
        with pytest.raises(HierarchyError):
            make_layer().add_alias("X", "Root.z")

    def test_duplicate_alias(self):
        layer = make_layer()
        layer.add_alias("RA", "Root.a")
        with pytest.raises(HierarchyError, match="duplicate alias"):
            layer.add_alias("RA", "Root.b")


class TestLibraries:
    def test_attach_checks_core_cdos(self):
        layer = make_layer()
        library = ReuseLibrary("L")
        library.add(DesignObject("bad", "Ghost.Path", {}, {"area": 1}))
        with pytest.raises(LibraryError, match="unknown CDO"):
            layer.attach_library(library)

    def test_each_cdo_name_is_checked_once(self, monkeypatch):
        layer = make_layer()
        library = ReuseLibrary("L")
        for i in range(10):
            library.add(DesignObject(f"c{i}", ("Root.a", "Root.b")[i % 2],
                                     {}, {"area": i}))
        checked = []
        has_cdo = DesignSpaceLayer.has_cdo
        monkeypatch.setattr(DesignSpaceLayer, "has_cdo",
                            lambda self, name: checked.append(name)
                            or has_cdo(self, name))
        layer.attach_library(library)
        assert checked == ["Root.a", "Root.b"]
        checked.clear()
        layer.validate()
        assert checked == ["Root.a", "Root.b"]

    def test_unknown_cdo_error_names_the_first_offending_core(self):
        def library_with_ghosts():
            library = ReuseLibrary("L")
            library.add(DesignObject("ok", "Root.a", {}, {"area": 1}))
            library.add(DesignObject("g1", "Ghost.X", {}, {"area": 1}))
            library.add(DesignObject("g2", "Ghost.Y", {}, {"area": 1}))
            library.add(DesignObject("g3", "Ghost.X", {}, {"area": 1}))
            return library

        message = "core 'g1' indexes under unknown CDO 'Ghost.X'"
        with pytest.raises(LibraryError) as excinfo:
            make_layer().attach_library(library_with_ghosts())
        assert str(excinfo.value) == message
        layer = make_layer()
        library = ReuseLibrary("L")
        layer.attach_library(library)
        for core in library_with_ghosts():
            library.add(core)
        with pytest.raises(LibraryError) as excinfo:
            layer.validate()
        assert str(excinfo.value) == message

    def test_cores_under(self):
        layer = make_layer()
        library = ReuseLibrary("L")
        library.add(DesignObject("c", "Root.a", {}, {"area": 1}))
        layer.attach_library(library)
        assert len(layer.cores_under("Root")) == 1
        assert len(layer.cores_under("Root.b")) == 0


class TestTools:
    def test_register_tool_once(self):
        layer = make_layer()
        layer.register_tool("est", lambda b: 1)
        assert "est" in layer.tools
        with pytest.raises(HierarchyError, match="already registered"):
            layer.register_tool("est", lambda b: 2)


class TestPathResolution:
    def test_resolve_single(self):
        layer = make_layer()
        cdo, prop = layer.resolve_single("W@Root")
        assert prop.name == "W" and cdo.name == "Root"

    def test_resolve_uses_aliases(self):
        layer = make_layer()
        layer.add_alias("R", "Root")
        cdo, prop = layer.resolve_single("W@R")
        assert cdo.name == "Root"

    def test_inherited_property_not_ambiguous(self):
        layer = make_layer()
        # W resolves on both children, but it is the same declaration.
        cdo, prop = layer.resolve_single("W@Root.*")
        assert prop.name == "W"


class TestValidation:
    def test_validate_catches_bad_constraint_paths(self):
        layer = make_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC", "references a ghost property",
            independents={"X": "Ghost@Root"},
            dependents={"S": "S@Root"},
            relation=InconsistentOptions(lambda b: False, "never")))
        with pytest.raises(PathError, match="CC"):
            layer.validate()

    def test_describe_is_self_documenting(self):
        layer = make_layer()
        text = layer.describe()
        assert "Root" in text
        assert "width" in text  # the property doc

    def test_layer_requires_doc(self):
        with pytest.raises(HierarchyError):
            DesignSpaceLayer("x", "")
