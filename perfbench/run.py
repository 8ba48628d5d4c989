"""The repo benchmark: end-to-end metrics and the per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload job_loop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` by
name and unit; ``--trace 1`` prints the per-layer ledger (absolute time
per request and per point, with the end-to-end metric each layer
should move). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(for ``--workload all``, one such line per workload). The exit code
is 0 only when every request succeeded and every checked output
matched its exact reference.

The program is built (its sources compiled to bytecode) before the
first process starts. Each workload then runs in fresh processes with
BLAS/OpenMP pinned to :data:`BLAS_THREADS` threads. An untraced run
uses :data:`PROCESSES` processes that each set up and measure
``seconds / PROCESSES``; their latencies and work are pooled, and
``setup_s`` and ``peak_rss_mb`` are the medians over the processes.
Every reported time is scaled to the reference machine speed
:data:`REF_SPEED` by a probe of the machine taken next to it (see
:func:`end_to_end`); the table also prints the wall-clock values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
from child import reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
#: Processes per untraced run: each one is a set-up sample.
PROCESSES = 3
#: BLAS/OpenMP threads in every benchmark process (at most nproc).
BLAS_THREADS = 1
#: Speed (reference-loop passes per second, see
#: :func:`child.reference_speed`) that every reported time is scaled
#: to: about one quiet core of a 2.1 GHz x86-64 VM under CPython 3.11.
REF_SPEED = 900.0
#: A child that has not exited by then is killed and the run fails.
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("job_loop", "sweep_cold", "lindblad_d27", "serve_mixed")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, failed child)."""


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_program(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError(
            "no program to measure: run from the repository root "
            "(src/repro is missing)"
        )


def build(root: str) -> None:
    """Compile the program's sources to bytecode next to them.

    Every benchmark process imports the program; with bytecode present
    import time is what an installed package pays, not a recompile of
    the whole source tree on each start.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join("src", "repro")],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stdout}{proc.stderr}")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def run_child(
    root: str, workload: str, seed: int, proc: int, seconds: float, trace: int
) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--proc", str(proc), "--trace", str(trace)]
    cmd += ["--seconds", repr(seconds)]
    spawn_speed = reference_speed()
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        done = subprocess.run(
            cmd,
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} process {proc} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} process {proc} exited {done.returncode}:\n"
            f"{done.stderr[-3000:]}"
        )
    result = json.loads(lines[-1])
    result["spawn_speed"] = spawn_speed
    return result


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "loadavg_1m": os.getloadavg()[0],
    }


def end_to_end(workload: str, children: list[dict]) -> dict:
    """The end-to-end metrics at :data:`REF_SPEED`, and at wall clock.

    Every time measured is scaled by the machine's speed around it over
    :data:`REF_SPEED`: a block's request latencies and span by the
    block's probes, a process's set-up by the probes at its spawn and
    after its set-up. A request that took 2 ms while the shared host ran
    the reference loop at half of :data:`REF_SPEED` counts 1 ms.
    """
    blks = [b for c in children for b in c["blocks"]]
    lat_s = np.concatenate([b["latencies_s"] for b in blks])
    if lat_s.size == 0:
        raise BenchError(f"{workload}: no request completed in the window")
    scale = np.concatenate(
        [np.full(len(b["latencies_s"]), b["speed"] / REF_SPEED) for b in blks]
    )
    units = sum(b["units"] for b in blks)
    span_s = np.array([b["span_s"] for b in blks])
    span_scale = np.array([b["speed"] / REF_SPEED for b in blks])
    setup_s = [c["setup_s"] for c in children]
    setup_scale = [
        (c["spawn_speed"] + c["setup_speed"]) / 2 / REF_SPEED for c in children
    ]

    def metrics(lat, spans, setups):
        return {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": float(np.median(lat)) * 1e3,
            "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3,
            "points_per_s": units / float(np.sum(spans)),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        }

    values = metrics(
        lat_s * scale,
        span_s * span_scale,
        [s * k for s, k in zip(setup_s, setup_scale)],
    )
    values["wall"] = metrics(lat_s, span_s, setup_s)
    values["requests"] = int(lat_s.size)
    values["speed"] = float(np.median([b["speed"] for b in blks]))
    return values


def measure(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        children = [run_child(root, workload, seed, 0, seconds, 1)]
        values = dict(children[0]["ledger"])
    else:
        children = [
            run_child(root, workload, seed, proc, seconds / PROCESSES, 0)
            for proc in range(PROCESSES)
        ]
        values = end_to_end(workload, children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "checked": sum(c["checked"] for c in children),
        "errors": [e for c in children for e in c["errors"]],
    }


def report(spec: dict, workload: str, trace: int, m: dict) -> dict:
    """Print the human-readable table; return the result object."""
    values = m["values"]
    metrics_spec = spec["per_layer" if trace else "end_to_end"]
    attempted, failed = m["attempted"], m["failed"]
    print(f"== {workload} ({'traced' if trace else 'untraced'}) ==")
    if trace:
        with open(os.path.join(HERE, "layer_map.json")) as fh:
            moves = json.load(fh)
        units = values.get("ledger.units_per_request", 1.0)
        print(
            f"  {values.get('ledger.requests', 0)} traced requests, "
            f"{units:g} points per request"
        )
        print(f"  {'metric':34} {'per request':>14} {'per point':>12}  should move")
    for item in metrics_spec:
        name, unit = item["name"], item["unit"]
        value = values[name]
        if trace and unit == "ms":
            print(
                f"  {name:34} {value * 1e3:11.1f} us {value * 1e3 / units:9.2f} us"
                f"  {moves.get(name, '')}"
            )
        elif trace:
            print(f"  {name:34} {value:11.4g} {unit:>5}{'':13}{moves.get(name, '')}")
        else:
            wall = values["wall"][name]
            print(f"  {name:16} {value:12.4f} {unit:5} (wall clock {wall:.4f})")
    if not trace:
        print(f"  requests timed   {values['requests']}")
        print(f"  machine speed    {values['speed']:.0f} (reference {REF_SPEED:g})")
    error_rate = failed / attempted if attempted else 1.0
    print(
        f"  attempted {attempted}, failed {failed} "
        f"(error_rate {error_rate:.4f}), outputs checked {m['checked']}"
    )
    for err in m["errors"][:5]:
        print(f"  error: {err}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
            for item in metrics_spec
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    root = os.getcwd()
    try:
        check_program(root)
        spec = load_spec(root)
        env = environment()
        build(root)
        print("environment: " + json.dumps(env, sort_keys=True))
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            m = measure(root, name, args.seed, args.seconds, args.trace)
            results.append(report(spec, name, args.trace, m))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
