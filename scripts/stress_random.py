#!/usr/bin/env python3
"""Seed sweep across models and degree caps; reports failures and worst times.

Example:
    python scripts/stress_random.py --instances 200 --max-n 120
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from brookscolor import (  # noqa: E402
    GeneratorConfig,
    HypothesisViolation,
    MODELS,
    SplitMix64,
    brooks_list_color,
    generate,
    verify_coloring,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--max-n", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    draw = SplitMix64(args.seed)
    solved = rejected = failed = 0
    worst = (0.0, None)
    t_start = time.perf_counter()
    seed = args.seed
    for _ in range(args.instances):
        n = 5 + draw.below(max(1, args.max_n - 4))
        delta = 3 + draw.below(4)
        model = MODELS[draw.below(len(MODELS))]
        config = GeneratorConfig(n=n, delta=delta, model=model, seed=seed,
                                 palette=2 * delta, list_size=delta)
        seed += 1
        g, lists = generate(config)
        t0 = time.perf_counter()
        try:
            phi = brooks_list_color(g, lists)  # screens the hypotheses first
            ok = verify_coloring(g, lists, phi) is None
        except HypothesisViolation:
            rejected += 1
            continue
        except Exception as exc:  # any escape is a failure worth printing
            print(f"FAIL {config}: {type(exc).__name__}: {exc}")
            ok = False
        elapsed = time.perf_counter() - t0
        if elapsed > worst[0]:
            worst = (elapsed, config)
        if ok:
            solved += 1
        else:
            failed += 1
    total = time.perf_counter() - t_start
    print(f"solved {solved}, failed {failed}, hypothesis-rejected {rejected} "
          f"in {total:.2f}s")
    if worst[1] is not None:
        print(f"slowest instance: {worst[0]:.3f}s for {worst[1]}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
