"""One benchmark process: set up a workload, time it, check it.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py --workload job_loop --seed 1 --proc 0 \\
        --seconds 5 --trace 0 --t-spawn <CLOCK_MONOTONIC at spawn>

``setup_s`` runs from the parent's spawn of this process, before
``repro`` is imported, to the first timed request. An untraced window
runs in blocks of :data:`BLOCK_S`, each followed by a
:func:`reference_speed` probe of the machine. The last line of
standard output is one JSON object with the raw results.

With ``--trace 1`` the timed window alternates untraced and traced
blocks: the untraced blocks give the reference p50 for
``ledger.tracing_overhead``, the traced ones the per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

#: Untraced/traced block pairs of a ``--trace 1`` window.
TRACE_BLOCK_PAIRS = 4
#: Shortest block of closed-loop steps between two speed probes.
BLOCK_S = 1.0
#: How long one :func:`reference_speed` probe runs.
PROBE_S = 0.05


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _reference_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def reference_speed() -> float:
    """Passes per second of a fixed pure-Python loop, run for PROBE_S.

    The loop is the benchmark's own code, never the program's, so its
    speed moves only with the machine: a shared host slows it by the
    same share, to first order, as the requests timed next to it.
    """
    start = clock()
    passes = 0
    while clock() - start < PROBE_S:
        _reference_loop()
        passes += 1
    return passes / (clock() - start)


def run_window(wl, seconds: float, samples: list, checked: list, state: dict):
    """Closed-loop steps until *seconds* have passed."""
    deadline = clock() + seconds
    while clock() < deadline:
        try:
            batch = wl.step()
        except Exception as exc:  # a failed request is counted, not fatal
            state["failed"] += wl.requests_per_step
            state["attempted"] += wl.requests_per_step
            state["errors"].append(f"{type(exc).__name__}: {exc}")
            continue
        state["attempted"] += len(batch)
        for sample in batch:
            samples.append(sample)
            if wl.wants_check(len(checked)):
                checked.append(sample)


def run_blocks(wl, seconds: float, checked: list, state: dict) -> list[dict]:
    """:func:`run_window` in blocks, each between two speed probes.

    A block's ``speed`` is the mean of the probes before and after it.
    """
    deadline = clock() + seconds
    blocks = []
    before = reference_speed()
    while clock() < deadline:
        samples: list = []
        start = clock()
        run_window(wl, min(BLOCK_S, deadline - start), samples, checked, state)
        span = clock() - start
        after = reference_speed()
        blocks.append(
            {
                "latencies_s": [s.latency_s for s in samples],
                "units": sum(s.units for s in samples),
                "span_s": span,
                "speed": (before + after) / 2,
            }
        )
        before = after
    return blocks


def cache_counts(caches) -> np.ndarray:
    return np.array(
        [sum(c.stats["hits"] for c in caches), sum(c.stats["misses"] for c in caches)],
        dtype=float,
    )


def ratio(hits_misses: np.ndarray) -> float:
    total = hits_misses.sum()
    return float(hits_misses[0] / total) if total else 0.0


def traced_window(wl, seconds: float, checked: list, state: dict) -> dict:
    """Alternating untraced/traced blocks; the per-layer ledger."""
    from ledger import COUNTS, LAYERS, ROOT, Ledger, installed_wrappers
    from workloads import TICKET_METRICS

    ledger = Ledger()
    untraced: list = []
    traced: list = []
    block = seconds / (2 * TRACE_BLOCK_PAIRS)
    prop = np.zeros(2)
    comp = np.zeros(2)
    compile_cache = wl.compile_cache()
    for _ in range(TRACE_BLOCK_PAIRS):
        run_window(wl, block, untraced, checked, state)
        prop_before = cache_counts(wl.propagator_caches())
        comp_before = cache_counts([compile_cache] if compile_cache else [])
        root = wl.root_name
        setattr(wl, root, ledger.root(getattr(wl, root)))
        ledger.install()
        try:
            run_window(wl, block, traced, checked, state)
        finally:
            ledger.uninstall()
            delattr(wl, root)
        prop += cache_counts(wl.propagator_caches()) - prop_before
        comp += cache_counts([compile_cache] if compile_cache else []) - comp_before
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"ledger wrappers left installed: {leftover}")

    n = max(len(traced), 1)
    latency_total = sum(s.latency_s for s in traced)
    out = {f"{layer}_ms": ledger.self_s.get(layer, 0.0) / n * 1e3 for layer in LAYERS}
    out.update({name: ledger.calls.get(name, 0) / n for name in COUNTS})
    out["sim.propagator_cache.hit_ratio"] = ratio(prop)
    out["serving.compile_cache.hit_ratio"] = ratio(comp)
    out.update(dict.fromkeys(TICKET_METRICS, 0.0))
    out.update(wl.ticket_metrics(traced))
    root_s = ledger.self_s.get(ROOT, 0.0)
    out["ledger.coverage"] = 1.0 - root_s / latency_total if latency_total else 0.0
    traced_p50 = float(np.median([s.latency_s for s in traced]))
    untraced_p50 = float(np.median([s.latency_s for s in untraced]))
    out["ledger.tracing_overhead"] = traced_p50 / untraced_p50 - 1.0
    out["ledger.requests"] = len(traced)
    out["ledger.units_per_request"] = sum(s.units for s in traced) / n
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--proc", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, proc=args.proc)
    wl.setup()
    setup_s = clock() - args.t_spawn

    checked: list = []
    state = {"attempted": 0, "failed": 0, "errors": []}
    try:
        if args.trace:
            result = {"ledger": traced_window(wl, args.seconds, checked, state)}
        else:
            setup_speed = reference_speed()
            result = {
                "setup_s": setup_s,
                "setup_speed": setup_speed,
                "blocks": run_blocks(wl, args.seconds, checked, state),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
            }
        for sample in checked:
            try:
                wl.check(sample.inp, sample.out)
            except Exception as exc:  # a mismatch is a failed request
                state["failed"] += 1
                state["errors"].append(f"{type(exc).__name__}: {exc}")
    finally:
        wl.close()
    result.update(
        attempted=state["attempted"],
        failed=state["failed"],
        checked=len(checked),
        errors=state["errors"][:5],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
