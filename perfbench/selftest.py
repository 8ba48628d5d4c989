"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

They show that inputs depend on the seed alone, that the layer
wrappers are fully removed after a traced window, and that every
workload's correctness check fails on a deliberately wrong reference.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger as ledger_mod  # noqa: E402
import run as run_mod  # noqa: E402
import workloads as wl_mod  # noqa: E402
from repro.devices import SuperconductingDevice  # noqa: E402


def canonical(obj) -> str:
    """A comparable text form of generated inputs (arrays, programs)."""

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        return repr(o)

    return json.dumps(obj, default=default, sort_keys=True)


@pytest.mark.parametrize("name", sorted(wl_mod.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = wl_mod.WORKLOADS[name]
    first = canonical(cls(7).inputs(5))
    assert canonical(cls(7).inputs(5)) == first
    assert canonical(cls(8).inputs(5)) != first
    # Each process of a run draws its own stream from the same seed.
    assert canonical(cls(7, proc=1).inputs(5)) != first


def test_benchmark_json_lists_what_the_traced_run_reports():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    reported = (
        {f"{layer}_ms" for layer in ledger_mod.LAYERS}
        | set(ledger_mod.COUNTS)
        | set(wl_mod.TICKET_METRICS)
        | {
            "sim.propagator_cache.hit_ratio",
            "serving.compile_cache.hit_ratio",
            "ledger.coverage",
            "ledger.tracing_overhead",
        }
    )
    names = {m["name"] for m in spec["per_layer"]}
    assert names == reported
    assert set(layer_map) == names
    assert [w["name"] for w in spec["workloads"]] == list(run_mod.WORKLOAD_NAMES)


def _patched_objects():
    out = {}
    for _, owner, attr in ledger_mod.PATCHES:
        target = ledger_mod._resolve(owner)
        if isinstance(target, type):
            out[(owner, attr)] = target.__dict__[attr]
        else:
            out[(owner, attr)] = getattr(target, attr)
    return out


def test_ledger_wrappers_fully_removed():
    wl = wl_mod.JobLoop(3)
    wl.setup()
    before = _patched_objects()
    assert ledger_mod.installed_wrappers() == []
    ledger = ledger_mod.Ledger()
    with pytest.raises(ZeroDivisionError):
        with ledger:
            assert len(ledger_mod.installed_wrappers()) >= len(before)
            wl.request(wl.make_input(wl.rng))
            1 / 0  # the wrappers must come off on the error path too
    after = _patched_objects()
    assert all(after[k] is before[k] for k in before)
    assert ledger_mod.installed_wrappers() == []
    assert ledger.self_s["sim.execute"] > 0
    assert ledger.calls["sim.fingerprint_calls"] > 0


def test_ledger_self_times_add_up_to_the_request():
    wl = wl_mod.SweepCold(3)
    wl.setup()
    ledger = ledger_mod.Ledger()
    request = ledger.root(wl.request)
    inp = wl.make_input(wl.rng)
    with ledger:
        t0 = time.perf_counter()
        request(inp)
        latency = time.perf_counter() - t0
    total = sum(ledger.self_s.values())
    assert total == pytest.approx(latency, rel=0.05)
    assert ledger.self_s[ledger_mod.ROOT] < 0.05 * total


def _request(wl):
    inp = wl.make_input(wl.rng)
    return inp, wl.request(inp)


def test_job_loop_check_fails_on_wrong_reference():
    wl = wl_mod.JobLoop(4)
    wl.setup()
    inp, out = _request(wl)
    wl.check(inp, out)
    wl.reference = wl_mod.reference_executor(
        SuperconductingDevice(num_qubits=1, drift_rate=0.0, rabi_rate=51e6)
    )
    with pytest.raises(wl_mod.CheckFailed):
        wl.check(inp, out)


def test_sweep_check_fails_on_wrong_reference():
    wl = wl_mod.SweepCold(4)
    wl.setup()
    inp, out = _request(wl)
    wl.check(inp, out)
    wl.reference = wl_mod.reference_executor(
        SuperconductingDevice(num_qubits=1, drift_rate=0.0, rabi_rate=50.0001e6)
    )
    with pytest.raises(wl_mod.CheckFailed):
        wl.check(inp, out)


def test_lindblad_check_fails_on_wrong_reference():
    wl = wl_mod.LindbladD27(4)
    wl.build()
    inp, out = _request(wl)
    wl.check(inp, out)
    # The noiseless twin differs from the T1/T2 model far beyond 1e-8.
    from repro.sim import ground_truth

    wl.reference = ground_truth.noiseless_twin(wl.device.executor)
    with pytest.raises(wl_mod.CheckFailed):
        wl.check(inp, out)


def test_serve_check_fails_on_wrong_reference():
    wl = wl_mod.ServeMixed(4)
    wl.setup()
    try:
        samples = wl.step()
        for s in samples:
            wl.check(s.inp, s.out)
        device = SuperconductingDevice(num_qubits=2, drift_rate=0.0, rabi_rate=45e6)
        wl.references = {name: wl_mod.reference_executor(device) for name in wl.devices}
        with pytest.raises(wl_mod.CheckFailed):
            for s in samples:
                wl.check(s.inp, s.out)
    finally:
        wl.close()


def test_count_check_bounds():
    exact = {"0": 0.75, "1": 0.25}
    wl_mod.check_counts({"0": 192, "1": 64}, 256, exact)
    with pytest.raises(wl_mod.CheckFailed):
        wl_mod.check_counts({"0": 192, "1": 63}, 256, exact)  # total
    with pytest.raises(wl_mod.CheckFailed):
        wl_mod.check_counts({"0": 128, "1": 128}, 256, exact)  # 9 sigma


def test_times_are_scaled_to_the_reference_speed():
    ref = run_mod.REF_SPEED
    child = {
        "setup_s": 0.4,
        "spawn_speed": ref / 2,
        "setup_speed": ref / 2,
        "peak_rss_mb": 50.0,
        "blocks": [
            {"latencies_s": [0.002, 0.002], "units": 2, "span_s": 1.0, "speed": ref},
            {"latencies_s": [0.004], "units": 1, "span_s": 1.0, "speed": ref / 2},
        ],
    }
    values = run_mod.end_to_end("job_loop", [child])
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["latency_p50_ms"] == pytest.approx(2.0)
    assert values["points_per_s"] == pytest.approx(3 / 1.5)
    assert values["wall"]["latency_p90_ms"] == pytest.approx(3.6)
    assert values["wall"]["points_per_s"] == pytest.approx(1.5)


def test_failed_check_makes_result_incorrect():
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s"}]}
    m = {
        "values": {
            "setup_s": 0.5,
            "wall": {"setup_s": 0.6},
            "requests": 10,
            "speed": 750.0,
        },
        "attempted": 10,
        "failed": 1,
        "checked": 2,
        "errors": ["CheckFailed: x"],
    }
    result = run_mod.report(spec, "job_loop", 0, m)
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "job_loop"]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
