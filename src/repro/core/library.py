"""Reuse libraries and the multi-library federation of Fig 1.

The design space layer does not own design data: cores live in reuse
libraries — possibly maintained by different IP providers — and the layer
*references* them.  :class:`ReuseLibrary` is one such library;
:class:`LibraryFederation` presents any number of libraries as a single
queryable collection, which is how the layer "transparently indexes
designs residing in different libraries".

The federation answers subtree queries through a lazily (re)built
:class:`~repro.core.index.CoreIndex` instead of scanning: every mutation
(add/remove/attach/detach, and characterization changes on the cores
themselves) bumps its epoch counter, and the index rebuilds on the next
query whenever its epoch is behind.  Correctness therefore never depends
on callers remembering to flush anything.  A single library keeps no
index of its own; its queries scan its cores.

Epochs are *pushed*: a core bumps the libraries holding it, a library
pushes the bump on to the federations it is attached to, and a
federation bumps the layers it serves, so reading an epoch is a plain
attribute read.  Every counting ``_bump`` keeps two ordering rules:

* the caller writes the store first and bumps after, so a reader that
  keyed a cache on the epoch it read before the bump only rebuilds once
  more; it is never left stale;
* the increment runs under the owner's own lock (unlocked, concurrent
  writers can move a counter backwards: read 5, ..., write 6 over 7),
  and the push to the watchers runs after that lock is released, so no
  federation -> layer edge runs against the contract's ``lock_order``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, List, Sequence

from repro.core.cdo import QNAME_SEP
from repro.core.designobject import DesignObject
from repro.core.obs import events as _ev
from repro.core.obs.recorder import NULL_RECORDER
from repro.errors import LibraryError


def _is_same_or_descendant(cdo_name: str, ancestor_name: str) -> bool:
    """Whether ``cdo_name`` equals or lies under ``ancestor_name``."""
    return cdo_name == ancestor_name or cdo_name.startswith(
        ancestor_name + QNAME_SEP)


class ReuseLibrary:
    """A named collection of design objects (one IP provider's library)."""

    def __init__(self, name: str, doc: str = ""):
        if not name:
            raise LibraryError("library name must be non-empty")
        self.name = name
        self.doc = doc
        self._cores: Dict[str, DesignObject] = {}
        #: Federations this library is attached to; every mutation of
        #: the library or of a core it holds is pushed to them.
        self._watchers: list = []

    def _bump(self) -> None:
        for watcher in self._watchers:
            watcher._bump()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, core: DesignObject) -> DesignObject:
        """Register a core; names are unique within a library."""
        if core.name in self._cores:
            raise LibraryError(
                f"library {self.name!r}: duplicate core name {core.name!r}")
        if not core.provenance:
            core.provenance = self.name
        self._cores[core.name] = core
        core._watchers.append(self)
        self._bump()
        return core

    def add_all(self, cores: Iterable[DesignObject]) -> None:
        for core in cores:
            self.add(core)

    def remove(self, name: str) -> DesignObject:
        try:
            core = self._cores.pop(name)
        except KeyError:
            raise LibraryError(
                f"library {self.name!r}: no core named {name!r}") from None
        try:
            core._watchers.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass
        self._bump()
        return core

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, name: str) -> DesignObject:
        try:
            return self._cores[name]
        except KeyError:
            raise LibraryError(
                f"library {self.name!r}: no core named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cores

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self) -> Iterator[DesignObject]:
        return iter(self._cores.values())

    def cores_under(self, cdo_name: str,
                    include_descendants: bool = True) -> List[DesignObject]:
        """Cores indexed at ``cdo_name`` (and, by default, below it —
        "all available IDCT cores are indexed through the top IDCT
        node")."""
        if include_descendants:
            return [c for c in self._cores.values()
                    if _is_same_or_descendant(c.cdo_name, cdo_name)]
        return [c for c in self._cores.values() if c.cdo_name == cdo_name]

    def select(self, predicate: Callable[[DesignObject], bool]
               ) -> List[DesignObject]:
        return [c for c in self._cores.values() if predicate(c)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReuseLibrary {self.name} ({len(self)} cores)>"


class LibraryFederation:
    """Any number of reuse libraries behind one query surface (Fig 1).

    Core names must be unique across the federation *as qualified names*
    (``library/core``); bare-name lookup is provided when unambiguous.
    """

    def __init__(self, libraries: Sequence[ReuseLibrary] = ()):
        self._libraries: Dict[str, ReuseLibrary] = {}
        self._epoch = 0
        #: Layers this federation serves; every bump is pushed to them.
        self._watchers: list = []
        self._index = None
        self._index_epoch = -1
        #: Guards the epoch increment and the lazy index rebuild:
        #: concurrent readers must agree on one index object instead of
        #: each building their own.
        self._lock = threading.RLock()
        #: Trace recorder index rebuilds report to; installed by
        #: :meth:`repro.core.layer.DesignSpaceLayer.observe`.
        self.observer = NULL_RECORDER
        for library in libraries:
            self.attach(library)

    # ------------------------------------------------------------------
    # epoch / index machinery
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        with self._lock:
            self._epoch += 1
        for watcher in self._watchers:
            watcher._bump()

    @property
    def epoch(self) -> int:
        """Monotonic generation counter covering attach/detach and every
        mutation inside any attached library."""
        return self._epoch

    def index(self):
        """The federation-wide :class:`~repro.core.index.CoreIndex`,
        rebuilt lazily when the epoch has moved."""
        from repro.core.index import CoreIndex
        with self._lock:
            epoch = self._epoch
            if self._index is None or self._index_epoch != epoch:
                with self.observer.span(_ev.INDEX_REBUILD,
                                        owner="federation") as span:
                    self._index = CoreIndex(self)
                    self._index_epoch = epoch
                    span.note(cores=len(self), epoch=epoch)
            return self._index

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def attach(self, library: ReuseLibrary) -> ReuseLibrary:
        if library.name in self._libraries:
            raise LibraryError(f"library {library.name!r} already attached")
        self._libraries[library.name] = library
        library._watchers.append(self)
        self._bump()
        return library

    def detach(self, name: str) -> ReuseLibrary:
        try:
            library = self._libraries.pop(name)
        except KeyError:
            raise LibraryError(f"no attached library named {name!r}") from None
        library._watchers.remove(self)
        self._bump()
        return library

    @property
    def libraries(self) -> Sequence[ReuseLibrary]:
        return tuple(self._libraries.values())

    def library(self, name: str) -> ReuseLibrary:
        try:
            return self._libraries[name]
        except KeyError:
            raise LibraryError(f"no attached library named {name!r}") from None

    def __len__(self) -> int:
        return sum(len(lib) for lib in self._libraries.values())

    def __iter__(self) -> Iterator[DesignObject]:
        for library in self._libraries.values():
            yield from library

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cores_under(self, cdo_name: str,
                    include_descendants: bool = True) -> List[DesignObject]:
        return self.index().cores_under(cdo_name, include_descendants)

    def get(self, name: str) -> DesignObject:
        """Look up ``library/core`` or a bare core name (must be unique
        across attached libraries)."""
        if "/" in name:
            library_name, _, core_name = name.partition("/")
            return self.library(library_name).get(core_name)
        owners = [lib for lib in self._libraries.values() if name in lib]
        if not owners:
            raise LibraryError(f"no core named {name!r} in any attached library")
        if len(owners) > 1:
            provenances = [lib.get(name).provenance for lib in owners]
            raise LibraryError(
                f"core name {name!r} is ambiguous across libraries "
                f"{provenances}; use 'library/core'")
        return owners[0].get(name)

    def select(self, predicate: Callable[[DesignObject], bool]
               ) -> List[DesignObject]:
        return [core for core in self if predicate(core)]
