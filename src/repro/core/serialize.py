"""Layer persistence: design space layers to/from plain dictionaries.

The paper's layer is "self-documented" and meant to be maintained per
design environment — which implies it must outlive the process that
built it.  This module serializes the *representation*: hierarchies,
properties (with their value domains), aliases, and the indexed cores
of every attached library.

Two things intentionally do not round-trip as code:

* **consistency-constraint relations and estimation tools** are Python
  callables; they are exported descriptively (name, doc, reference
  sets, relation description) so the serialized layer stays
  self-documented, and must be re-registered by the loading
  environment (``attach_constraints``/``register_tool``);
* **predicate domains and behavioral payloads** other than
  :class:`~repro.behavior.ir.Behavior` export their description; by
  default loading such a property raises, or — with ``lenient=True`` —
  degrades it to a documented permissive domain.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.behavior.ir import Behavior
from repro.behavior.serialize import behavior_from_dict, behavior_to_dict
from repro.core.cdo import ClassOfDesignObjects
from repro.core.designobject import DesignObject
from repro.core.layer import DesignSpaceLayer
from repro.core.library import ReuseLibrary
from repro.core.properties import (
    BehavioralDecomposition,
    BehavioralDescription,
    DesignIssue,
    Property,
    Requirement,
    RequirementSense,
)
from repro.core.values import (
    AnyDomain,
    BoolDomain,
    DivisorDomain,
    Domain,
    EnumDomain,
    IntRange,
    PowerOfTwoDomain,
    PredicateDomain,
    RealRange,
)
from repro.errors import ReproError


class SerializationError(ReproError):
    """A layer element cannot be (de)serialized."""


# ----------------------------------------------------------------------
# domains
# ----------------------------------------------------------------------
def domain_to_dict(domain: Domain) -> Dict[str, Any]:
    if isinstance(domain, BoolDomain):
        return {"type": "bool"}
    if isinstance(domain, EnumDomain):
        return {"type": "enum", "options": list(domain.options)}
    if isinstance(domain, RealRange):
        return {"type": "real", "lo": domain.lo, "hi": domain.hi,
                "unit": domain.unit}
    if isinstance(domain, IntRange):
        return {"type": "int", "lo": domain.lo, "hi": domain.hi}
    if isinstance(domain, PowerOfTwoDomain):
        return {"type": "pow2", "max_value": domain.max_value,
                "min_value": domain.min_value}
    if isinstance(domain, DivisorDomain):
        return {"type": "divisor", "of": domain.of}
    if isinstance(domain, PredicateDomain):
        return {"type": "predicate", "description": domain.description,
                "samples": list(domain.samples)}
    if isinstance(domain, AnyDomain):
        return {"type": "any"}
    raise SerializationError(
        f"cannot serialize domain {type(domain).__name__}")


def domain_from_dict(data: Dict[str, Any], lenient: bool = False) -> Domain:
    kind = data.get("type")
    if kind == "bool":
        return BoolDomain()
    if kind == "enum":
        return EnumDomain(data["options"])
    if kind == "real":
        return RealRange(data.get("lo"), data.get("hi"),
                         data.get("unit", ""))
    if kind == "int":
        return IntRange(data.get("lo"), data.get("hi"))
    if kind == "pow2":
        return PowerOfTwoDomain(data.get("max_value"),
                                data.get("min_value", 2))
    if kind == "divisor":
        return DivisorDomain(data["of"])
    if kind == "any":
        return AnyDomain()
    if kind == "predicate":
        if not lenient:
            raise SerializationError(
                f"predicate domain {data.get('description')!r} has no "
                f"code representation; load with lenient=True to degrade "
                f"it to a documented permissive domain")
        return PredicateDomain(lambda value, _ctx: True,
                               data.get("description", "{any}"),
                               samples=tuple(data.get("samples", ())))
    raise SerializationError(f"unknown domain type {kind!r}")


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
def property_to_dict(prop: Property) -> Dict[str, Any]:
    base: Dict[str, Any] = {"name": prop.name, "doc": prop.doc}
    if isinstance(prop, Requirement):
        base["kind"] = "requirement"
        base["domain"] = domain_to_dict(prop.domain)
        base["sense"] = prop.sense.value
        base["unit"] = prop.unit
    elif isinstance(prop, DesignIssue):
        base["kind"] = "design_issue"
        base["domain"] = domain_to_dict(prop.domain)
        base["generalized"] = prop.generalized
        base["default"] = prop.default
    elif isinstance(prop, BehavioralDecomposition):
        base["kind"] = "decomposition"
        base["source"] = prop.source
        base["restrict_pattern"] = prop.restrict_pattern
    elif isinstance(prop, BehavioralDescription):
        base["kind"] = "description"
        base["level"] = prop.level
        if isinstance(prop.description, Behavior):
            base["behavior"] = behavior_to_dict(prop.description)
        elif prop.description is not None:
            base["payload_repr"] = repr(prop.description)
    else:
        raise SerializationError(
            f"cannot serialize property {type(prop).__name__}")
    return base


def property_from_dict(data: Dict[str, Any],
                       lenient: bool = False) -> Property:
    kind = data.get("kind")
    if kind == "requirement":
        return Requirement(data["name"],
                           domain_from_dict(data["domain"], lenient),
                           data["doc"],
                           sense=RequirementSense(data["sense"]),
                           unit=data.get("unit", ""))
    if kind == "design_issue":
        return DesignIssue(data["name"],
                           domain_from_dict(data["domain"], lenient),
                           data["doc"],
                           generalized=data.get("generalized", False),
                           default=data.get("default"))
    if kind == "decomposition":
        return BehavioralDecomposition(
            data["name"], data["doc"], source=data["source"],
            restrict_pattern=data.get("restrict_pattern", ""))
    if kind == "description":
        payload = None
        if "behavior" in data:
            payload = behavior_from_dict(data["behavior"])
        elif "payload_repr" in data and not lenient:
            raise SerializationError(
                f"description {data['name']!r} carried an opaque payload "
                f"({data['payload_repr']}); load with lenient=True to "
                f"drop it")
        return BehavioralDescription(data["name"], data["doc"],
                                     description=payload,
                                     level=data.get("level", "algorithm"))
    raise SerializationError(f"unknown property kind {kind!r}")


# ----------------------------------------------------------------------
# CDOs
# ----------------------------------------------------------------------
def cdo_to_dict(cdo: ClassOfDesignObjects) -> Dict[str, Any]:
    return {
        "name": cdo.name,
        "doc": cdo.doc,
        "properties": [property_to_dict(p) for p in cdo.own_properties],
        "children": [
            {"option": child.option_of_parent, **cdo_to_dict(child)}
            for child in cdo.children
        ],
    }


def cdo_from_dict(data: Dict[str, Any],
                  parent: Optional[ClassOfDesignObjects] = None,
                  lenient: bool = False) -> ClassOfDesignObjects:
    if parent is None:
        node = ClassOfDesignObjects(data["name"], data["doc"])
    else:
        node = parent.specialize(data["__option"], name=data["name"],
                                 doc=data["doc"])
    for prop_data in data.get("properties", []):
        node.add_property(property_from_dict(prop_data, lenient))
    for child_data in data.get("children", []):
        child_data = dict(child_data)
        child_data["__option"] = child_data.pop("option")
        cdo_from_dict(child_data, parent=node, lenient=lenient)
    return node


# ----------------------------------------------------------------------
# cores / libraries
# ----------------------------------------------------------------------
def core_to_dict(core: DesignObject) -> Dict[str, Any]:
    return {
        "name": core.name,
        "cdo": core.cdo_name,
        "doc": core.doc,
        "provenance": core.provenance,
        "properties": dict(core.properties),
        "merits": dict(core.merits),
        # Views are payload references (simulators, HDL); they do not
        # serialize — the loading environment re-attaches them.
    }


def core_from_dict(data: Dict[str, Any]) -> DesignObject:
    return DesignObject(data["name"], data["cdo"],
                        data.get("properties", {}),
                        data.get("merits", {}),
                        doc=data.get("doc", ""),
                        provenance=data.get("provenance", ""))


# ----------------------------------------------------------------------
# the layer
# ----------------------------------------------------------------------
def layer_to_dict(layer: DesignSpaceLayer) -> Dict[str, Any]:
    return {
        "name": layer.name,
        "doc": layer.doc,
        "roots": [cdo_to_dict(root) for root in layer.roots],
        "aliases": dict(layer.aliases),
        "libraries": [
            {"name": library.name, "doc": library.doc,
             "cores": [core_to_dict(core) for core in library]}
            for library in layer.libraries.libraries
        ],
        # Self-documentation of the parts that are code:
        "constraints_doc": [c.describe() for c in layer.constraints],
        "tools_doc": sorted(layer.tools),
        "selectors_doc": list(layer.selectors.names()),
    }


def layer_from_dict(data: Dict[str, Any],
                    lenient: bool = False) -> DesignSpaceLayer:
    """Rebuild a layer's representation from its serialized form.

    Constraints, estimation tools and selectors must be re-registered
    by the caller (their documentation survives under
    ``constraints_doc``/``tools_doc``/``selectors_doc``).
    """
    layer = DesignSpaceLayer(data["name"], data["doc"])
    for root_data in data.get("roots", []):
        layer.add_root(cdo_from_dict(root_data, lenient=lenient))
    for alias, target in data.get("aliases", {}).items():
        layer.add_alias(alias, target)
    for library_data in data.get("libraries", []):
        library = ReuseLibrary(library_data["name"],
                               library_data.get("doc", ""))
        for core_data in library_data.get("cores", []):
            library.add(core_from_dict(core_data))
        layer.attach_library(library)
    return layer
