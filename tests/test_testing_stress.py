"""The public stress library: deterministic, valid, ready to explore.

``repro.testing`` promotes the randomized-layer generators from private
test helpers to a public surface (ROADMAP), so these tests pin the
contract other subsystems now rely on: determinism in the seed, layers
that pass ``validate()``, and problems that run.
"""

import json

import pytest

from repro.core.serialize import layer_to_dict
from repro.testing import (
    random_core_population_layer,
    random_exploration_problem,
    random_hierarchy_layer,
)


def layer_bytes(layer):
    """The layer's serialized representation, canonically rendered."""
    return json.dumps(layer_to_dict(layer), sort_keys=True, default=repr)


class TestRandomHierarchyLayer:
    def test_deterministic_in_seed(self):
        a = random_hierarchy_layer(11)
        b = random_hierarchy_layer(11)
        assert layer_bytes(a) == layer_bytes(b)

    def test_distinct_seeds_differ(self):
        digests = {layer_bytes(random_hierarchy_layer(seed))
                   for seed in range(8)}
        assert len(digests) > 1

    @pytest.mark.parametrize("seed", [0, 1, 7, 4242])
    def test_layers_validate_and_populate(self, seed):
        layer = random_hierarchy_layer(seed)
        layer.validate()
        # 2-3 families, each with 2-5 cores: never fewer than 4 cores.
        assert len(layer.libraries) >= 4
        assert layer.cdo("R") is not None


class TestRandomCorePopulationLayer:
    def test_core_count_respected(self):
        layer = random_core_population_layer(3, 40)
        assert len(layer.libraries) == 40

    def test_deterministic_in_seed(self):
        a = random_core_population_layer(9, 25)
        b = random_core_population_layer(9, 25)
        assert layer_bytes(a) == layer_bytes(b)

    def test_population_is_underdocumented(self):
        """The generator must produce holes — cores missing properties
        or merits — or it stops stressing the missing-value policies."""
        layer = random_core_population_layer(5, 60)
        cores = list(layer.libraries)
        assert any("Variant" not in c._properties for c in cores)
        assert any("latency_ns" not in c._merits for c in cores)


class TestRandomExplorationProblem:
    def test_problem_carries_its_layer(self):
        problem = random_exploration_problem(4)
        assert problem.layer is not None
        assert problem.resolve_layer() is problem.layer
