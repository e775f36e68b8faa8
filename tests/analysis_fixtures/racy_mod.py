"""Known-racy fixture: every construct here must earn a finding.

Analyzed with the test suite's FIXTURE_CONTRACT (SharedBox is a shared
class; Epochal carries an epoch contract).  Keep line structure stable — tests assert on codes
and symbols, not line numbers, but each defect is one distinct site.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

RESULTS = []
_LOCK = threading.Lock()


class SharedBox:
    """Contract-shared, so every method must hold the instance lock."""

    def __init__(self):
        self._items = {}
        self._total = 0
        self._lock = threading.Lock()

    def count(self):
        self._total += 1              # DSA001: augassign outside the lock

    def wipe(self):
        self._items.clear()           # DSA001: in-place mutator, no lock

    def publish(self, key):
        value = len(key)
        self._items[key] = value      # DSA002: unlocked cache publish

    def owned_setup(self, key):
        self._items[key] = None       # exempt: owned mutator


class Epochal:
    """Counter epoch: stores pair with _bump() / self._epoch += 1."""

    def __init__(self):
        self._data = {}
        self._epoch = 0

    def _bump(self):
        self._epoch += 1

    def good_add(self, key, value):
        self._data[key] = value
        self._bump()

    def bad_add(self, key, value):
        self._data[key] = value       # DSA010: store without a bump

    def reset(self):
        self._epoch = 0               # DSA011: counter rebound


def append_worker(item):
    RESULTS.append(item)              # DSA001: unguarded global write


def run_all():
    with ThreadPoolExecutor() as pool:
        pool.submit(append_worker, 1)
