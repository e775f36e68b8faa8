"""E-VF — the semantic verifier's cost and its epoch cache.

Two numbers gate the ``repro verify`` workflow:

* the cold analysis of a 5k-core synthetic layer — abstract
  interpretation over every CDO, dead-branch proofs, stratification —
  must stay in interactive territory (recorded; the absolute number is
  machine-dependent and not asserted);
* a warm re-verify of the unchanged layer is an epoch-cache hit and
  must cost under 5% of the cold analysis (asserted; CI fails the job
  on regression).

The measurement helper lives in ``record.py`` so this gate and the
committed ``BENCH_pruning.json`` record cannot drift apart.
"""

from conftest import emit
from record import VERIFY_WARM_BUDGET, verify_measurements
from test_bench_scaling import synthetic_layer

from repro.core.verify import analyze_layer


def test_bench_verify_cold_5k(benchmark):
    """Full cold analysis of the 5k-core synthetic layer."""
    layer = synthetic_layer(5000)
    analyze_layer(layer)  # warm-up (index build)

    def cold():
        layer._bump()  # a fresh epoch: the memo starts empty
        return analyze_layer(layer)

    analysis = benchmark(cold)
    emit("Semantic verify — cold analysis, 5000 cores",
         f"regions: {len(analysis.regions)}, "
         f"dead-branch proofs: {len(analysis.proofs)}, "
         f"strata: {len(analysis.strata)}")
    assert analysis.regions
    assert analysis.proofs  # the synthetic layer has provably dead options


def test_bench_verify_warm_epoch_cache():
    """Warm re-verify must be served by the epoch cache (< 5% of cold)."""
    measured = verify_measurements(num_cores=5000, repeat=3)
    ratio = measured["ratio"]
    emit("Semantic verify — warm epoch-cached re-verify, 5000 cores",
         f"cold min: {min(measured['cold']) * 1e3:.2f} ms\n"
         f"warm min: {min(measured['warm']) * 1e6:.2f} us\n"
         f"warm/cold ratio: {ratio:.5f} (budget {VERIFY_WARM_BUDGET})")
    assert ratio < VERIFY_WARM_BUDGET


def test_bench_verify_cache_identity():
    """Two verifies of an unchanged layer return the same object; any
    mutation bumps the epoch and invalidates the entry."""
    layer = synthetic_layer(1000)
    first = analyze_layer(layer)
    assert analyze_layer(layer) is first
