"""CI perf-regression gate over the benchmark JSON artifacts.

Each CI benchmark smoke writes a ``BENCH_<name>.json`` file (see
``benchmarks/_artifacts.py``). This gate compares every metric floor
committed in ``benchmarks/baselines.json`` against the corresponding
artifact and fails the build when a measured value falls below its
floor — a speedup that quietly decays from 7x to 2x now breaks CI
instead of a release.

Floors are deliberately the *contractual* minima (the same numbers the
benchmarks assert), not the best observed values: CI runners are noisy
shared machines, and a gate that flakes gets deleted.

A baseline value is either a bare number (a floor: fail when the
measured value drops below it) or an object with ``min``/``max``
bounds — ``{"max": 2.0}`` gates an overhead metric that must stay
*under* its ceiling (e.g. ``obs_overhead.disabled_overhead_pct``, or
the wall-time ceiling ``open_system.wall_d64_s`` of the exact D = 64
Lindblad run).
An object may also carry ``"optional": true`` for metrics the
benchmark only emits when the runner qualifies (e.g. the multi-process
``cluster_speedup`` needs >= 4 cores): a missing optional metric is
skipped, but when present its bounds apply in full.

Usage:

    python benchmarks/check_regression.py [--artifacts-dir DIR]
        [--baselines benchmarks/baselines.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def check(baselines_path: str, artifacts_dir: str) -> int:
    with open(baselines_path) as fh:
        baselines = json.load(fh)
    failures: list[str] = []
    for bench, floors in sorted(baselines.items()):
        path = os.path.join(artifacts_dir, f"BENCH_{bench}.json")
        if not os.path.exists(path):
            failures.append(f"{bench}: missing artifact {path}")
            continue
        with open(path) as fh:
            artifact = json.load(fh)
        for metric, spec in sorted(floors.items()):
            value = artifact.get(metric)
            optional = isinstance(spec, dict) and spec.get("optional")
            if value is None:
                if optional:
                    print(
                        f"{bench:<24} {metric:<18} "
                        f"{'—':>10}  (optional, not emitted)  skipped"
                    )
                else:
                    failures.append(f"{bench}.{metric}: not in artifact")
                continue
            if isinstance(spec, dict):
                floor = spec.get("min")
                ceiling = spec.get("max")
            else:
                floor, ceiling = spec, None
            bounds = []
            violations = []
            if floor is not None:
                bounds.append(f"floor {floor:g}")
                if value < floor:
                    violations.append(f"{value:.3f} below floor {floor:g}")
            if ceiling is not None:
                bounds.append(f"ceiling {ceiling:g}")
                if value > ceiling:
                    violations.append(
                        f"{value:.3f} above ceiling {ceiling:g}"
                    )
            status = "ok" if not violations else "REGRESSION"
            print(
                f"{bench:<24} {metric:<18} {value:10.3f}  "
                f"({', '.join(bounds)})  {status}"
            )
            for violation in violations:
                failures.append(f"{bench}.{metric}: {violation}")
    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPASS: all benchmark metrics at or above their floors")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts-dir", default=".")
    parser.add_argument(
        "--baselines",
        default=os.path.join(os.path.dirname(__file__), "baselines.json"),
    )
    args = parser.parse_args(argv)
    return check(args.baselines, args.artifacts_dir)


if __name__ == "__main__":
    sys.exit(main())
