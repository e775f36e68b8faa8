"""Multithreaded service stress: interleaved session walks vs serial replay.

Each thread drives its own session through a seeded random walk of
decide/require/undo/checkpoint/goto while every other thread hammers the
same shared service (same snapshots, same prune batcher).  The oracle is
serial replay: the byte-identical response sequence each script produces
on a private service over an identically-seeded layer.  Any cross-session
bleed — a shared ExplorationSession, a batcher entry keyed too loosely, a
snapshot invalidated by another session's work — shows up as a diverging
response byte.
"""

import random
import sys
import threading

import pytest

from repro.core.explore import ExplorationProblem, explore
from repro.serve import DesignSpaceService, canonical_json
from repro.testing import random_core_population_layer, random_hierarchy_layer

THREADS = 8
STEPS = 24
SEED = 11
NUM_CORES = 300

FAMILIES = ("f0", "f1", "f2")
VARIANTS = ("v0", "v1", "v2", "v3")
TECHS = ("t35", "t70")
OPTIONS = {"Variant": VARIANTS, "Tech": TECHS}


@pytest.fixture()
def tight_gil():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def build_script(rng, steps=STEPS):
    """A valid-by-construction walk for the random_core_population shape.

    Tracks a shadow of the session (current depth/decided set, undo
    history, checkpoint tags) so decides stay addressable; the walk still
    mixes undo and goto so replay exercises the restore paths.
    """
    script = []
    cur = (0, frozenset())  # (family decided?, sub-issues decided)
    hist = []
    checkpoints = {"origin": cur}
    for step in range(steps):
        ops = ["require", "goto"]
        depth, decided = cur
        if depth == 0:
            ops += ["decide-family"] * 3
        else:
            if [i for i in OPTIONS if i not in decided]:
                ops += ["decide-sub"] * 3
            ops += ["checkpoint"]
        if hist:
            ops += ["undo", "undo"]
        op = rng.choice(ops)
        if op == "require":
            hist.append(cur)
            script.append(("session/require", {
                "name": "Width", "value": rng.choice([8, 16, 32, 64])}))
        elif op == "decide-family":
            hist.append(cur)
            cur = (1, frozenset())
            script.append(("session/decide", {
                "issue": "Family", "option": rng.choice(FAMILIES)}))
        elif op == "decide-sub":
            issue = rng.choice([i for i in OPTIONS if i not in decided])
            hist.append(cur)
            cur = (1, decided | {issue})
            script.append(("session/decide", {
                "issue": issue, "option": rng.choice(OPTIONS[issue])}))
        elif op == "checkpoint":
            tag = f"cp{step}"
            checkpoints[tag] = cur
            script.append(("session/checkpoint", {"tag": tag}))
        elif op == "goto":
            tag = rng.choice(sorted(checkpoints))
            cur = checkpoints[tag]
            hist = []  # conservatively never undo across a goto
            script.append(("session/goto", {"tag": tag}))
        else:  # undo
            cur = hist.pop()
            script.append(("session/undo", {}))
    script.append(("session/report", {}))
    script.append(("session/state", {}))
    return script


def run_script(service, script):
    """Open a session, run the script, return the response byte-stream."""
    status, opened = service.handle(
        "session/open", {"layer": "rand", "start": "Block"})
    assert status == 200, opened
    token = opened["token"]
    transcript = []
    for verb, params in script:
        status, payload = service.handle(verb, dict(params, token=token))
        payload = dict(payload)
        payload.pop("token", None)  # the one per-run value in a response
        transcript.append((verb, status, canonical_json(payload)))
    status, closed = service.handle("session/close", {"token": token})
    assert status == 200 and closed["closed"] is True
    return transcript


class TestInterleavedSessions:
    def test_concurrent_walks_match_their_serial_replay(self, tight_gil):
        scripts = [build_script(random.Random(100 + i))
                   for i in range(THREADS)]
        concurrent = [None] * THREADS
        errors = []
        barrier = threading.Barrier(THREADS)

        with DesignSpaceService(layers={
                "rand": random_core_population_layer(
                    seed=SEED, num_cores=NUM_CORES)}) as service:

            def body(i):
                barrier.wait()
                try:
                    concurrent[i] = run_script(service, scripts[i])
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=body, args=(i,))
                       for i in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(service.sessions) == 0  # every walk closed its own

        for i in range(THREADS):
            with DesignSpaceService(layers={
                    "rand": random_core_population_layer(
                        seed=SEED, num_cores=NUM_CORES)}) as private:
                serial = run_script(private, scripts[i])
            assert concurrent[i] == serial, f"thread {i} walk diverged"

    def test_batched_prunes_do_not_bleed_between_sessions(self, tight_gil):
        """Two groups of sessions at *different* states hammer report
        concurrently; each group must keep seeing its own digest."""
        layer = random_core_population_layer(seed=7, num_cores=NUM_CORES)
        with DesignSpaceService(layers={"rand": layer}) as service:
            def open_at(family):
                _, opened = service.handle(
                    "session/open", {"layer": "rand", "start": "Block"})
                token = opened["token"]
                if family is not None:
                    status, payload = service.handle("session/decide", {
                        "token": token, "issue": "Family", "option": family})
                    assert status == 200, payload
                return token

            groups = {"f0": [open_at("f0") for _ in range(4)],
                      None: [open_at(None) for _ in range(4)]}
            expected = {}
            for family, tokens in groups.items():
                _, payload = service.handle("session/report",
                                            {"token": tokens[0]})
                expected[family] = payload["digest"]
            assert expected["f0"] != expected[None]

            mismatches = []
            barrier = threading.Barrier(8)

            def body(family, token):
                barrier.wait()
                for _ in range(20):
                    status, payload = service.handle("session/report",
                                                     {"token": token})
                    if status != 200 or payload["digest"] != expected[family]:
                        mismatches.append((family, payload))

            threads = [threading.Thread(target=body, args=(family, token))
                       for family, tokens in groups.items()
                       for token in tokens]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not mismatches


class TestSharedStatelessVerbs:
    def test_threaded_explores_match_direct_library_calls(self, tight_gil):
        seeds = (0, 1, 2, 3)
        layers = {f"rand-{s}": random_hierarchy_layer(seed=s)
                  for s in seeds}
        expected = {}
        for s in seeds:
            problem = ExplorationProblem(
                start="R", metrics=("area", "latency_ns"),
                layer=random_hierarchy_layer(seed=s))
            direct = explore(problem, strategy="exhaustive").to_dict()
            expected[f"rand-{s}"] = canonical_json(
                {"layer": f"rand-{s}", "result": direct})

        mismatches = []
        barrier = threading.Barrier(THREADS)
        with DesignSpaceService(layers=layers) as service:
            def body(i):
                rng = random.Random(i)
                barrier.wait()
                for _ in range(6):
                    name = f"rand-{rng.choice(seeds)}"
                    status, payload = service.handle(
                        "explore", {"layer": name, "start": "R",
                                    "strategy": "exhaustive"})
                    if status != 200 or \
                            canonical_json(payload) != expected[name]:
                        mismatches.append((name, status))

            threads = [threading.Thread(target=body, args=(i,))
                       for i in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not mismatches
