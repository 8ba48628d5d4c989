"""Batched open-system (Lindblad) engine vs. the per-slice loop.

The tentpole gate for the open-system PR, on a two-transmon (D = 9)
driven schedule with finite T1/T2 — the workload every noisy scenario
(readout-mitigation validation, noise-aware control, T1/T2 sweeps)
funnels through:

* **batched engine** — the runs' Lindblad superoperators are stacked
  and exponentiated together (scaling-and-squaring Paterson-Stockmeyer,
  pure batched matmuls), with the fingerprint-keyed cache deduplicating
  the echo train's repeated amplitudes. Gated: required >= 5x over the
  per-slice loop, cold cache, final states identical to 1e-8.
* **per-slice loop** — the pre-batching shape: one dense ``expm`` per
  constant-drive run, in Python (the same master equation, so the two
  must agree to rounding).
* **Kraus interleave** — the legacy *physics* (unitary + per-site Kraus
  splitting): reported for context with its splitting error against
  the exact Lindblad result; not gated on agreement.
* **trajectories** — the quantum-jump sampler; reported for context.
* **D = 27 fresh pulse run** — three 3-level transmons with T1/T2 and
  one fresh 16-sample drive run (the shape of perfbench's
  ``lindblad_d27`` request): the Taylor action of the Lindblad
  generator on the ``(D, D)`` state against one dense ``(D^2, D^2)``
  superpropagator build. Gated: action >= 10x faster, states
  identical to 1e-10.
* **D = 64 exact run** — three 4-level transmons, one fresh pulse
  through ``ScheduleExecutor.execute`` (the action path; a single
  superoperator would be 268 MB). Gated under a wall-time ceiling.

Run directly (the CI smoke mode):

    PYTHONPATH=src python benchmarks/bench_open_system.py --quick

This file is intentionally named ``bench_*`` so tier-1 pytest does not
collect it; the speedup and equivalence assertions live in :func:`main`.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from _artifacts import write_artifact
from repro.core import Delay, Frame, Play, Port, PulseSchedule, constant_waveform
from repro.sim.executor import ScheduleExecutor
from repro.sim.model import DecoherenceSpec, transmon_model
from repro.sim.open_system import lindblad_superoperators
from repro.xp import use_backend

RABI = 50e6
DT = 1e-9
#: Wall-time ceiling of the exact D = 64 run (also in baselines.json);
#: ~0.3-1 s measured on a 2-vCPU VM.
D64_CEILING_S = 5.0


def make_model():
    """Two coupled three-level transmons (D = 9) with finite T1/T2."""
    return transmon_model(
        2,
        qubit_frequencies=[5.0e9, 5.1e9],
        anharmonicities=[-300e6, -280e6],
        rabi_rates=[RABI, RABI],
        couplings={(0, 1): 3e6},
        dt=DT,
        levels=3,
        decoherence=[
            DecoherenceSpec(t1=40e-6, t2=30e-6),
            DecoherenceSpec(t1=60e-6, t2=80e-6),
        ],
    )


def echo_schedule(blocks: int, pulse_samples: int, delay_samples: int):
    """A driven echo train: repeated pulse/delay blocks on both qubits.

    Repetition is deliberate — this is the shape real schedules have
    (flat-tops, echo delays), and it exercises the engine's
    fingerprint dedup on top of pure batching.
    """
    s = PulseSchedule("echo-train")
    amp = 0.5 / (RABI * pulse_samples * DT)
    f0, f1 = Frame("q0-drive-frame", 5.0e9), Frame("q1-drive-frame", 5.1e9)
    p0, p1 = Port.drive(0), Port.drive(1)
    for i in range(blocks):
        fraction = 0.5 if i % 2 else 1.0
        s.append(Play(p0, f0, constant_waveform(pulse_samples, amp * fraction)))
        s.append(Play(p1, f1, constant_waveform(pulse_samples, amp * 0.7)))
        s.append(Delay(p0, delay_samples))
        s.append(Delay(p1, delay_samples))
    return s


def three_transmons(levels: int):
    """Three coupled transmons with T1/T2 (D = levels^3)."""
    return transmon_model(
        3,
        qubit_frequencies=[5.0e9, 5.1e9, 5.2e9],
        anharmonicities=[-300e6, -280e6, -260e6],
        rabi_rates=[RABI] * 3,
        couplings={(0, 1): 3e6, (1, 2): 3e6},
        dt=DT,
        levels=levels,
        decoherence=[DecoherenceSpec(t1=20e-6, t2=15e-6)] * 3,
    )


def fresh_pulse(rng, samples: int = 16):
    """One square pulse per drive at random phases: a single fresh run."""
    s = PulseSchedule("fresh-pulse")
    for q in range(3):
        amp = (0.2 + 0.05 * q) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        frame = Frame(f"q{q}-drive-frame", 5.0e9 + 0.1e9 * q)
        s.append(Play(Port.drive(q), frame, constant_waveform(samples, amp)))
    return s


def run_stack(executor, schedule):
    """The schedule's constant-drive runs as ``(hs, steps)`` stacks."""
    from repro.sim.evolve import segment_runs

    drives, channel_names = executor._synthesize_drives(schedule)
    runs = segment_runs(drives)
    hs = np.stack(
        [
            executor._run_hamiltonian(drives[start], channel_names)
            for start, _ in runs
        ]
    )
    steps = np.asarray([length for _, length in runs], dtype=np.int64)
    return hs, steps


def loop_evolve(hs, steps, collapse_ops, rho):
    """Pre-batching open-system path: one dense expm per run, in Python."""
    from scipy.linalg import expm

    dim = rho.shape[0]
    vec = rho.reshape(-1)
    for k in range(hs.shape[0]):
        ls = lindblad_superoperators(hs[k : k + 1], collapse_ops)[0]
        vec = expm(ls * DT * int(steps[k])) @ vec
    return vec.reshape(dim, dim)


def best_of(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode (smaller workload)"
    )
    args = parser.parse_args()
    if args.quick:
        blocks, pulse_samples, delay_samples, repeats, n_traj = 8, 16, 48, 3, 64
    else:
        blocks, pulse_samples, delay_samples, repeats, n_traj = 16, 16, 96, 5, 256

    model = make_model()
    schedule = echo_schedule(blocks, pulse_samples, delay_samples)
    executor = ScheduleExecutor(model)
    engine = executor.open_system
    hs, steps = run_stack(executor, schedule)
    dim = model.dimension
    psi0 = np.zeros(dim, dtype=np.complex128)
    psi0[1] = 1.0  # |01>: both decay and dephasing act
    rho0 = np.outer(psi0, psi0.conj())
    print(
        f"workload: {hs.shape[0]} constant-drive runs "
        f"({schedule.duration} samples), D={dim} (superoperators "
        f"{dim * dim}x{dim * dim}), {len(engine.collapse_ops)} collapse operators"
    )

    # 1. Per-slice density-matrix loop (the pre-batching shape).
    t_loop, rho_loop = best_of(
        lambda: loop_evolve(hs, steps, engine.collapse_ops, rho0.copy()),
        repeats,
    )

    # 2. Batched engine, cold cache each repeat (the gated path).
    def engine_cold():
        engine.cache.clear()
        return engine.evolve_density_matrix(hs, steps, rho0)

    t_engine, rho_engine = best_of(engine_cold, repeats)
    err = float(np.abs(rho_engine - rho_loop).max())
    speedup = t_loop / t_engine
    print(
        f"lindblad loop    {t_loop * 1e3:8.2f} ms   "
        f"engine {t_engine * 1e3:8.2f} ms   {speedup:5.1f}x   "
        f"max|drho|={err:.2e}"
    )

    # 3. Warm cache: the sweep/serving re-visit path.
    t_warm, rho_warm = best_of(
        lambda: engine.evolve_density_matrix(hs, steps, rho0), repeats
    )
    err_warm = float(np.abs(rho_warm - rho_loop).max())
    print(
        f"warm cache            {t_warm * 1e3:8.2f} ms   "
        f"({t_loop / t_warm:5.1f}x vs loop, hit rate "
        f"{engine.cache.hit_rate:.2f})   max|drho|={err_warm:.2e}"
    )

    # 4. Legacy Kraus interleave: the old physics, for context.
    kraus_executor = ScheduleExecutor(make_model(), open_system_method="kraus")
    t_kraus, rho_kraus = best_of(
        lambda: kraus_executor.execute(
            schedule, shots=0, initial_state=psi0
        ).final_state,
        repeats,
    )
    err_kraus = float(np.abs(rho_kraus - rho_loop).max())
    print(
        f"kraus interleave      {t_kraus * 1e3:8.2f} ms   "
        f"(legacy splitting; max|drho|={err_kraus:.2e} vs exact)"
    )

    # 5. Trajectory sampler: the large-D path, for context.
    rng = np.random.default_rng(0)
    t_traj, rho_traj = best_of(
        lambda: engine.evolve_trajectories(
            hs, steps, psi0, n_trajectories=n_traj, rng=rng
        ),
        1,
    )
    err_traj = float(np.abs(rho_traj - rho_loop).max())
    print(
        f"trajectories x{n_traj:<5d}  {t_traj * 1e3:8.2f} ms   "
        f"(shot-noise max|drho|={err_traj:.2e})"
    )

    # 6. Backend/dtype axis: the batched engine under the repro.xp
    #    complex64 policy. Single precision through a D^2 = 81
    #    superpropagator chain accumulates ~1e-4, so the parity gate
    #    here is 1e-3 (the per-propagator 1e-5 contract lives in the
    #    unitary bench and the test suite).
    def engine_c64():
        with use_backend(dtype="complex64"):
            engine.cache.clear()
            return engine.evolve_density_matrix(hs, steps, rho0)

    t_c64, rho_c64 = best_of(engine_c64, repeats)
    err_c64 = float(np.abs(rho_c64 - rho_loop).max())
    c64_vs_c128 = t_engine / t_c64
    print(
        f"c64 policy            {t_c64 * 1e3:8.2f} ms   "
        f"({c64_vs_c128:5.1f}x vs c128 engine)   max|drho|={err_c64:.2e}"
    )

    # 7. D = 27: one fresh 16-sample drive run, action vs dense build.
    rng = np.random.default_rng(27)
    executor27 = ScheduleExecutor(three_transmons(3))
    engine27 = executor27.open_system
    hs27, steps27 = run_stack(executor27, fresh_pulse(rng))
    psi27 = np.zeros(27, dtype=np.complex128)
    psi27[0] = 1.0

    def dense27():
        engine27.cache.clear()
        return engine27.evolve_density_matrix(
            hs27, steps27, psi27, method="superoperator"
        )

    t_dense27, rho_dense27 = best_of(dense27, 1 if args.quick else 2)
    t_action27, rho_action27 = best_of(
        lambda: engine27.evolve_density_matrix(
            hs27, steps27, psi27, method="action"
        ),
        repeats,
    )
    err27 = float(np.abs(rho_action27 - rho_dense27).max())
    speedup27 = t_dense27 / t_action27
    print(
        f"D=27 fresh run   dense {t_dense27 * 1e3:8.2f} ms   action "
        f"{t_action27 * 1e3:8.2f} ms   {speedup27:5.1f}x   "
        f"max|drho|={err27:.2e}"
    )

    # 8. D = 64: an exact run through the executor (auto -> action),
    #    next to the quantum-jump estimate it replaces.
    executor64 = ScheduleExecutor(three_transmons(4))
    schedule64 = fresh_pulse(rng)
    t0 = time.perf_counter()
    rho64 = executor64.execute(schedule64, shots=0).final_state
    t_d64 = time.perf_counter() - t0
    trace_err64 = float(abs(np.trace(rho64) - 1.0))
    hs64, steps64 = run_stack(executor64, schedule64)
    psi64 = np.zeros(64, dtype=np.complex128)
    psi64[0] = 1.0
    t0 = time.perf_counter()
    traj64 = executor64.open_system.evolve_trajectories(
        hs64, steps64, psi64, n_trajectories=n_traj, rng=rng
    )
    t_traj64 = time.perf_counter() - t0
    print(
        f"D=64 exact run   {t_d64 * 1e3:8.2f} ms   (|tr - 1|={trace_err64:.1e}, "
        f"superpropagators cached: {len(executor64.propagator_cache)}); "
        f"trajectories x{n_traj} {t_traj64 * 1e3:.2f} ms, "
        f"max|drho|={np.abs(traj64 - rho64).max():.2e}"
    )

    write_artifact(
        "open_system",
        {
            "quick": args.quick,
            "dim": dim,
            "n_runs": int(hs.shape[0]),
            "duration_samples": int(schedule.duration),
            "wall_loop_s": t_loop,
            "wall_engine_s": t_engine,
            "wall_warm_s": t_warm,
            "wall_kraus_s": t_kraus,
            "wall_engine_c64_s": t_c64,
            "speedup": speedup,
            "speedup_warm": t_loop / t_warm,
            "c64_vs_c128": c64_vs_c128,
            "max_err": err,
            "max_err_warm": err_warm,
            "max_err_c64": err_c64,
            "kraus_splitting_err": err_kraus,
            "wall_dense_d27_s": t_dense27,
            "wall_action_d27_s": t_action27,
            "speedup_d27": speedup27,
            "max_err_d27": err27,
            "wall_d64_s": t_d64,
        },
    )

    assert err <= 1e-8, f"engine mismatch: {err:.2e} > 1e-8"
    assert err_warm <= 1e-8, f"warm-cache mismatch: {err_warm:.2e} > 1e-8"
    assert abs(np.trace(rho_engine) - 1.0) < 1e-10, "trace not preserved"
    assert speedup >= 5.0, (
        f"engine only {speedup:.1f}x over the per-slice density-matrix "
        f"loop (required >= 5x)"
    )
    assert err_c64 <= 1e-3, (
        f"complex64-policy mismatch: {err_c64:.2e} > 1e-3 (single-"
        f"precision Lindblad parity contract)"
    )
    assert c64_vs_c128 >= 0.5, (
        f"complex64 engine only {c64_vs_c128:.2f}x the c128 engine "
        f"(required >= 0.5x)"
    )
    assert err27 <= 1e-10, f"D=27 action vs dense: {err27:.2e} > 1e-10"
    assert speedup27 >= 10.0, (
        f"D=27 action only {speedup27:.1f}x over the dense superpropagator "
        f"(required >= 10x)"
    )
    assert trace_err64 < 1e-10, f"D=64 trace off by {trace_err64:.1e}"
    assert t_d64 <= D64_CEILING_S, (
        f"D=64 exact run took {t_d64:.2f} s (ceiling {D64_CEILING_S:g} s)"
    )
    print(
        f"OK: batched Lindblad engine {speedup:.1f}x (gate >= 5x) over the "
        f"per-slice loop on a D={dim} driven schedule, states identical "
        f"within 1e-8; D=27 action {speedup27:.1f}x (gate >= 10x) over "
        f"the dense build; D=64 exact run {t_d64:.2f} s (ceiling "
        f"{D64_CEILING_S:g} s)"
    )


if __name__ == "__main__":
    main()
