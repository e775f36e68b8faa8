"""Opt-in runtime mutation sanitizer (``DSL_SANITIZE=1``).

The static passes are lexical; an alias that escapes a function, or a
mutation reached through dynamic dispatch, can slip past them.  The
sanitizer is the dynamic backstop: when active, :func:`seal` marks a
layer read-only, and every owned mutator (``add_root``,
``set_property``, ``attach``, ...) calls :func:`check_write` first — a
write to a sealed object raises :class:`~repro.errors.SanitizerError`
immediately, at the faulty call site, and :func:`assert_unchanged`
catches a direct poke that went round the hooks.  No production code
seals a layer at present; the tests seal layers directly (whether the
serving stack should seal the layer it publishes is an open question
in ``ROADMAP.md``).

Activation is process-wide and cheap: ``check_write`` is a single bool
test when inactive, so the hooks stay in production code (the measured
overhead budget lives in ``benchmarks/record.py``).  Enable with the
``DSL_SANITIZE=1`` environment variable (read at import), or
programmatically via :func:`activate` / the :func:`sanitized` context
manager in tests.

This module is imported by ``repro.core`` itself, so it must stay
import-light: stdlib plus :mod:`repro.errors` only.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator, List, Tuple

from repro.errors import SanitizerError

#: Environment variable that arms the sanitizer at import time.
ENV_VAR = "DSL_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

_ACTIVE = os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY
_STATE_LOCK = threading.Lock()

#: Attribute set on sealed objects; absent means writable.
SEAL_ATTR = "_dsl_sealed"
#: Layer epoch and store sizes recorded at seal time, for
#: :func:`assert_unchanged`.
SEAL_STATE_ATTR = "_dsl_sealed_state"

#: The stores whose sizes :func:`seal` records on each :func:`_targets`
#: object that has them.
_STORES = ("_roots", "_aliases", "_tools", "_constraints", "_libraries",
           "_cores", "_properties", "_merits", "_views")


def enabled() -> bool:
    """Whether the sanitizer is currently armed."""
    return _ACTIVE


def activate() -> None:
    global _ACTIVE
    with _STATE_LOCK:
        _ACTIVE = True


def deactivate() -> None:
    global _ACTIVE
    with _STATE_LOCK:
        _ACTIVE = False


@contextmanager
def sanitized() -> Iterator[None]:
    """Arm the sanitizer for a ``with`` block (test helper)."""
    previous = _ACTIVE
    activate()
    try:
        yield
    finally:
        if not previous:
            deactivate()


def check_write(owner: Any, site: str) -> None:
    """Owned-mutator entry hook: reject writes to sealed objects.

    The inactive fast path is one global bool test, so this is safe to
    leave on every mutator in production code.
    """
    if not _ACTIVE:
        return
    if getattr(owner, SEAL_ATTR, False):
        raise SanitizerError(
            f"{site}: write to sealed {type(owner).__name__} — a sealed "
            f"layer is read-only by contract; build a fresh layer before "
            f"mutating")


def _targets(layer: Any) -> Iterator[Any]:
    """The layer plus every mutable structure it shares with tasks."""
    yield layer
    constraints = getattr(layer, "constraints", None)
    if constraints is not None:
        yield constraints
    federation = getattr(layer, "libraries", None)
    if federation is not None:
        yield federation
        libraries = getattr(federation, "_libraries", None)
        if isinstance(libraries, dict):
            for library in libraries.values():
                yield library
                cores = getattr(library, "_cores", None)
                if isinstance(cores, dict):
                    for core in cores.values():
                        yield core


def _state(layer: Any) -> Tuple[Any, List[int]]:
    """The layer's epoch plus the size of every store :func:`_targets`
    reaches.  Epochs are pushed by the owned mutators, so a direct poke
    (``layer._aliases[k] = v``) leaves the epoch alone; the sizes catch
    it."""
    sizes: List[int] = []
    for obj in _targets(layer):
        for attr in _STORES:
            store = getattr(obj, attr, None)
            if isinstance(store, dict):
                sizes.append(len(store))
    return getattr(layer, "epoch", None), sizes


def seal(layer: Any) -> Any:
    """Mark a layer (and its reachable structures) read-only.

    No-op unless the sanitizer is active.  Returns the layer for
    call-through convenience."""
    if not _ACTIVE:
        return layer
    for obj in _targets(layer):
        try:
            setattr(obj, SEAL_ATTR, True)
        except (AttributeError, TypeError):  # __slots__ / frozen objects
            continue
    try:
        setattr(layer, SEAL_STATE_ATTR, _state(layer))
    except (AttributeError, TypeError):
        pass
    return layer


def unseal(layer: Any) -> Any:
    """Lift a seal (single-owner code reclaiming a layer)."""
    for obj in _targets(layer):
        try:
            setattr(obj, SEAL_ATTR, False)
        except (AttributeError, TypeError):
            continue
    return layer


def is_sealed(obj: Any) -> bool:
    return bool(getattr(obj, SEAL_ATTR, False))


def assert_unchanged(layer: Any) -> None:
    """Raise if a sealed layer's epoch or store sizes moved since
    :func:`seal`.

    Catches mutations that bypassed the hooks entirely (direct attribute
    pokes), which move no epoch but do change a store's size."""
    if not _ACTIVE:
        return
    sealed = getattr(layer, SEAL_STATE_ATTR, None)
    if sealed is None:
        return
    current = _state(layer)
    if current != sealed:
        raise SanitizerError(
            f"sealed {type(layer).__name__} changed since seal (epoch "
            f"{sealed[0]} -> {current[0]}): something mutated a sealed "
            f"layer behind the sanitizer's hooks")
