#!/usr/bin/env python3
"""Automated design space exploration over the Sec 5 crypto layer.

Where ``crypto_coprocessor.py`` walks the decision tree by hand (the
paper's interactive dialogue), this script lets the exploration engine
drive: branch-and-bound search over the case-study issues, a Pareto
frontier of the terminal outcomes, multi-criteria rankings, and a
cross-check that the engine reproduces the manual walk's surviving
cores exactly.

Run:  PYTHONPATH=src python examples/automated_exploration.py
"""

from repro.core.explore import explore
from repro.domains.crypto import (
    build_crypto_layer,
    case_study_session,
    crypto_exploration_problem,
)
from repro.domains.crypto import vocab as v


def main() -> None:
    print("Building the cryptography design space layer (EOL 768)...")
    layer = build_crypto_layer(eol=768)
    problem = crypto_exploration_problem(layer=layer)

    # ------------------------------------------------------------------
    # Exhaustive vs branch-and-bound: same frontier, fewer branches.
    # ------------------------------------------------------------------
    print("\nExhaustive enumeration:")
    full = explore(problem, strategy="exhaustive")
    print(f"  {full.stats.describe()}")

    print("Branch-and-bound (pruned by frontier dominance):")
    bnb = explore(problem, strategy="bnb")
    print(f"  {bnb.stats.describe()}")

    assert bnb.frontier.digest() == full.frontier.digest()
    saved = full.stats.opened - bnb.stats.opened
    print(f"  -> identical frontier (digest {bnb.frontier.digest()}), "
          f"{saved} fewer branches opened\n")

    # ------------------------------------------------------------------
    # The frontier and its rankings.
    # ------------------------------------------------------------------
    print(bnb.frontier.render_text(limit=5))

    print("\nWeighted ranking (area discounted 1000x):")
    for score, outcome in bnb.frontier.weighted_ranking(
            {"area": 0.001})[:3]:
        print(f"  {score:10.2f}  {outcome.describe()}")

    print("\nLexicographic ranking (latency first):")
    for outcome in bnb.frontier.lexicographic_ranking(
            ["latency_ns", "area"])[:3]:
        print(f"  {outcome.describe()}")

    # ------------------------------------------------------------------
    # Cross-check against the manual Sec 5 walk.
    # ------------------------------------------------------------------
    walk = ((v.IMPLEMENTATION_STYLE, v.HARDWARE),
            (v.ALGORITHM, v.MONTGOMERY),
            (v.ADDER_IMPL, "Carry-Save"),
            (v.SLICE_WIDTH, 64))
    session = case_study_session(layer)
    for name, option in walk:
        session.decide(name, option)
    manual = {core.name for core in session.candidates()}

    terminal = explore(problem.with_prefix(*walk), strategy="bnb")
    automated = {o.core for o in terminal.frontier.outcomes()}
    print(f"\nManual walk survivors:    {sorted(manual)}")
    print(f"Engine frontier (same path): {sorted(automated)}")
    assert automated <= manual
    assert terminal.stats.outcomes == len(manual)
    print("-> the engine saw every manual survivor and kept the "
          "non-dominated ones")

    # ------------------------------------------------------------------
    # Parallel evaluation: same digest, one branch per worker process.
    # The factory-carrying problem (no live layer) ships to the workers.
    # ------------------------------------------------------------------
    parallel = explore(crypto_exploration_problem(), strategy="exhaustive",
                       jobs=2)
    assert parallel.frontier.digest() == full.frontier.digest()
    print(f"\njobs=2 reproduces the frontier: "
          f"digest {parallel.frontier.digest()}")

    # ------------------------------------------------------------------
    # Conceptual design: an estimator stands in for missing cores.
    # ------------------------------------------------------------------
    estimated = explore(
        crypto_exploration_problem(layer=layer, with_estimator=True),
        strategy="exhaustive")
    n_estimated = sum(1 for o in estimated.frontier.outcomes()
                      if o.estimated)
    print(f"\nWith the estimation-tool fallback: "
          f"{estimated.stats.evaluations} conceptual evaluations, "
          f"{n_estimated} estimated outcome(s) on the frontier")


if __name__ == "__main__":
    main()
