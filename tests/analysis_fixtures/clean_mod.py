"""Known-clean fixture: the same shapes as racy_mod, properly guarded.

Under FIXTURE_CONTRACT this module must produce zero findings — it is
the analyzer's false-positive budget.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

RESULTS = []
_LOCK = threading.Lock()


class SharedBox:
    """Every write sits under the instance lock."""

    def __init__(self):
        self._items = {}
        self._total = 0
        self._lock = threading.Lock()

    def count(self):
        with self._lock:
            self._total += 1

    def wipe(self):
        with self._lock:
            self._items.clear()

    def publish(self, key):
        value = len(key)
        with self._lock:
            self._items[key] = value

    def peek(self, key):
        return self._items.get(key)   # reads need no lock


class Epochal:
    def __init__(self):
        self._data = {}
        self._epoch = 0

    def _bump(self):
        self._epoch += 1

    def add_via_bump(self, key, value):
        self._data[key] = value
        self._bump()

    def add_via_counter(self, key, value):
        self._data[key] = value
        self._epoch += 1


class DerivedStore:
    def __init__(self):
        self._things = {}

    def insert_only(self, key, value):
        if key in self._things:
            raise ValueError(key)
        self._things[key] = value

    def remove(self, key):
        self._things.pop(key)


def locked_append_worker(item):
    with _LOCK:
        RESULTS.append(item)


def run_all():
    with ThreadPoolExecutor() as pool:
        pool.submit(locked_append_worker, 1)
