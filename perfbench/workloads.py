"""The benchmark's workloads: seeded inputs, set-up, requests, checks.

Every workload drives the public API from outside the program
(``repro.compile``, ``Executable.bind``/``run``/``run_async``,
``Estimator.run`` and ``PulseService``) from one single-threaded
client in a closed loop: the next request (or burst, for
``serve_mixed``) is sent only after the previous one completed.

A workload's inputs come from ``--seed`` alone. Three independent
streams are spawned from it: the timed requests, the warm-up requests
of set-up, and the sample of requests whose outputs are checked after
the timed region. The program only ever sees the generated inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro
from repro.core.waveform import ParametricWaveform, SampledWaveform
from repro.devices import SuperconductingDevice
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.primitives import Estimator, Observable
from repro.sim import ground_truth
from repro.sim.executor import ScheduleExecutor

#: Shots per sampled job (job_loop, serve_mixed).
SHOTS = 256
#: A count is consistent with the exact distribution when it lies
#: within this many binomial standard deviations (plus one count) of
#: ``shots * p``; a false alarm has probability below 1e-8 per outcome.
COUNT_SIGMAS = 6.0
#: Ticket-derived ledger entries; 0 on workloads without a service.
TICKET_METRICS = ("serving.queue_wait_ms", "serving.service_ms", "serving.group_size")
#: Estimator values against the exact closed-system reference.
CLOSED_TOL = 1e-10
#: Lindblad values against the exact dense per-point reference.
LINDBLAD_TOL = 1e-8

# The bench_c1 / bench_primitives ctrl-VQE kernel: raw-sample prep
# segments plus a phase-parametric tail, so every point changes every
# tail segment's drive.
N_PREP_SEGMENTS = 12
PREP_SAMPLES = 32
N_SEGMENTS = 8
SEGMENT_SAMPLES = 8


@dataclass
class Sample:
    """One completed request: its latency, work units, input and output."""

    latency_s: float
    units: int
    inp: Any
    out: Any


class CheckFailed(AssertionError):
    """An output disagreed with its exact reference."""


def ansatz_text(device) -> str:
    """The 1-qubit phase-parametric ansatz as pulse-MLIR text."""
    sb = SequenceBuilder("perfbench_ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{i}") for i in range(N_SEGMENTS)]
    for p in range(N_PREP_SEGMENTS):
        samples = np.full(PREP_SAMPLES, 0.05 + 0.01 * p)
        sb.play(drive, sb.waveform(SampledWaveform(samples)))
    for k, theta in enumerate(thetas):
        wave = ParametricWaveform("square", SEGMENT_SAMPLES, {"amp": 0.10 + 0.005 * k})
        sb.shift_phase(drive, theta)
        sb.play(drive, sb.waveform(wave))
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, SEGMENT_SAMPLES)
    sb.ret()
    return print_module(sb.module)


def reference_executor(device) -> ScheduleExecutor:
    """A fresh executor over *device*'s model: no shared cache entries."""
    executor = device.executor
    return ScheduleExecutor(executor.model, readout=executor.readout)


def check_counts(counts: dict, shots: int, exact: dict) -> None:
    """Totals equal *shots*; each outcome within the binomial bound."""
    total = sum(counts.values())
    if total != shots:
        raise CheckFailed(f"counts total {total} != shots {shots}")
    for key in set(counts) | set(exact):
        p = float(exact.get(key, 0.0))
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) * shots)
        if abs(counts.get(key, 0) - shots * p) > COUNT_SIGMAS * sigma + 1.0:
            raise CheckFailed(
                f"outcome {key!r}: {counts.get(key, 0)} counts, "
                f"expected {shots * p:.1f} +- {sigma:.1f}"
            )


def check_close(value: float, reference: float, tol: float, what: str) -> None:
    if not abs(value - reference) <= tol:
        raise CheckFailed(
            f"{what}: {value!r} vs exact {reference!r} "
            f"(|diff| {abs(value - reference):.3e} > {tol:g})"
        )


class Workload:
    """Base class; subclasses set ``name`` and the request methods.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name = ""
    #: Share of timed requests whose outputs are checked, and a cap.
    check_share = 1.0 / 16.0
    max_checks = 16
    #: Warm-up requests run during set-up.
    warmups = 3
    #: Requests one :meth:`step` sends, and the method whose self time
    #: a traced run leaves unattributed (the client's own request call).
    requests_per_step = 1
    root_name = "request"

    def __init__(self, seed: int, proc: int = 0) -> None:
        self.seed = int(seed)
        self.proc = int(proc)
        streams = self._streams()
        self.rng = np.random.default_rng(streams[0])
        self.warm_rng = np.random.default_rng(streams[1])
        self.check_rng = np.random.default_rng(streams[2])

    def _streams(self) -> list[np.random.SeedSequence]:
        """Request, warm-up and check streams of this seed and process."""
        return np.random.SeedSequence(self.seed, spawn_key=(self.proc,)).spawn(3)

    # -- to override ------------------------------------------------------

    def make_input(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def build(self) -> None:
        """Devices, target and compiled program (part of set-up)."""
        raise NotImplementedError

    def step(self) -> list[Sample]:
        """One closed-loop step: one request (or one burst)."""
        inp = self.make_input(self.rng)
        out, latency = self.timed_request(inp)
        return [Sample(latency, self.units(inp), inp, out)]

    def request(self, inp: Any) -> Any:
        raise NotImplementedError

    def units(self, inp: Any) -> int:
        return 1

    def check(self, inp: Any, out: Any) -> None:
        """Raise :class:`CheckFailed` when *out* disagrees with exact."""
        raise NotImplementedError

    def propagator_caches(self) -> list:
        return []

    def compile_cache(self):
        return None

    def ticket_metrics(self, samples: list[Sample]) -> dict[str, float]:
        """Per-request serving wall-time split (service workloads only)."""
        return {}

    def close(self) -> None:
        pass

    # -- shared -----------------------------------------------------------

    def timed_request(self, inp: Any) -> tuple[Any, float]:
        t0 = time.perf_counter()
        out = self.request(inp)
        return out, time.perf_counter() - t0

    def setup(self) -> None:
        self.build()
        for _ in range(self.warmups):
            self.request(self.make_input(self.warm_rng))

    def wants_check(self, n_checked: int) -> bool:
        """Is the next request sampled? The first always is; later ones
        are drawn from the check stream, up to :attr:`max_checks`."""
        draw = self.check_rng.random() < self.check_share
        return n_checked == 0 or (draw and n_checked < self.max_checks)

    def inputs(self, n: int) -> list:
        """The first *n* timed inputs of this seed (for tests)."""
        rng = np.random.default_rng(self._streams()[0])
        return [self.make_input(rng) for _ in range(n)]


def _theta_point(rng: np.random.Generator) -> dict[str, float]:
    return {
        f"theta{i}": float(v)
        for i, v in enumerate(rng.uniform(-np.pi, np.pi, N_SEGMENTS))
    }


class _AnsatzWorkload(Workload):
    """Shared set-up: the 1-qubit closed transmon and the ansatz."""

    def build(self) -> None:
        self.device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        self.target = repro.Target.from_device(self.device)
        self.program = repro.Program.from_mlir(ansatz_text(self.device))
        self.executable = repro.compile(self.program, self.target)
        self.reference = reference_executor(self.device)

    def reference_schedule(self, point: dict[str, float]):
        """The point's schedule through the full JIT, not the template."""
        return repro.compile(self.program, self.target, params=point).schedule

    def propagator_caches(self) -> list:
        return [self.device.executor.propagator_cache]


class JobLoop(_AnsatzWorkload):
    """``exe.bind(fresh point).run(shots=SHOTS)``: one job per request."""

    name = "job_loop"

    def make_input(self, rng):
        return {"point": _theta_point(rng), "seed": int(rng.integers(2**31))}

    def request(self, inp):
        bound = self.executable.bind(inp["point"])
        return bound.run(shots=SHOTS, seed=inp["seed"])

    def check(self, inp, out):
        schedule = self.reference_schedule(inp["point"])
        exact = self.reference.execute(schedule, shots=0)
        for key in set(out.probabilities) | set(exact.ideal_probabilities):
            check_close(
                out.probabilities.get(key, 0.0),
                exact.ideal_probabilities.get(key, 0.0),
                CLOSED_TOL,
                f"probability of {key!r}",
            )
        check_counts(out.counts, SHOTS, exact.probabilities)


class SweepCold(_AnsatzWorkload):
    """One Estimator PUB of :attr:`points` fresh points per request."""

    name = "sweep_cold"
    points = 256
    check_share = 1.0 / 4.0
    max_checks = 4
    #: Points of each checked PUB compared against the exact reference.
    points_checked = 4
    warmups = 2

    def build(self) -> None:
        super().build()
        self.estimator = Estimator(self.target)
        self.observable = Observable.z(0)

    def make_input(self, rng):
        return {
            f"theta{i}": rng.uniform(-np.pi, np.pi, self.points)
            for i in range(N_SEGMENTS)
        }

    def units(self, inp):
        return self.points

    def request(self, inp):
        return self.estimator.run([(self.program, "Z", inp)])[0].data.evs

    def check(self, inp, out):
        picks = self.check_rng.choice(
            self.points, size=self.points_checked, replace=False
        )
        for i in picks:
            point = {k: float(v[i]) for k, v in inp.items()}
            exact = ground_truth.exact_expectation(
                self.reference, self.reference_schedule(point), self.observable
            )
            check_close(float(out[i]), exact, CLOSED_TOL, f"<Z> at point {i}")


class LindbladD27(Workload):
    """A noisy Estimator PUB of one fresh point on three 3-level
    transmons with T1/T2 (D=27): one dense (D^2, D^2) expm per point."""

    name = "lindblad_d27"
    qubits = 3
    pulse_samples = 16
    # Each check pays two dense expm on a fresh executor: check only the
    # first request of each process.
    max_checks = 1
    warmups = 1

    def build(self) -> None:
        self.device = SuperconductingDevice(
            num_qubits=self.qubits,
            drift_rate=0.0,
            with_decoherence=True,
            t1=20e-6,
            t2=15e-6,
        )
        sb = SequenceBuilder("perfbench_lindblad")
        drives = [
            sb.add_mixed_frame_arg(f"f{q}", self.device.drive_port(q).name)
            for q in range(self.qubits)
        ]
        acquires = [
            sb.add_mixed_frame_arg(f"a{q}", self.device.acquire_port(q).name)
            for q in range(self.qubits)
        ]
        thetas = [sb.add_scalar_arg(f"theta{q}") for q in range(self.qubits)]
        for q in range(self.qubits):
            sb.shift_phase(drives[q], thetas[q])
            wave = ParametricWaveform(
                "square", self.pulse_samples, {"amp": 0.2 + 0.05 * q}
            )
            sb.play(drives[q], sb.waveform(wave))
        sb.barrier(*drives, *acquires)
        for q in range(self.qubits):
            sb.capture(acquires[q], q, SEGMENT_SAMPLES)
        sb.ret()
        self.target = repro.Target.from_device(self.device)
        self.program = repro.Program.from_mlir(print_module(sb.module))
        self.estimator = Estimator(self.target)
        self.observable = Observable.from_pauli("Z" * self.qubits)
        self.reference = None

    def make_input(self, rng):
        return {f"theta{q}": rng.uniform(-np.pi, np.pi, 1) for q in range(self.qubits)}

    def request(self, inp):
        label = "Z" * self.qubits
        return self.estimator.run([(self.program, label, inp)])[0].data.evs

    def check(self, inp, out):
        # One fresh executor per run, built lazily: its first point also
        # pays the drift-segment superpropagator, shared by later checks.
        if self.reference is None:
            self.reference = reference_executor(self.device)
        point = {k: float(v[0]) for k, v in inp.items()}
        schedule = repro.compile(self.program, self.target, params=point).schedule
        exact = ground_truth.exact_expectation(
            self.reference, schedule, self.observable
        )
        check_close(float(out[0]), exact, LINDBLAD_TOL, "<ZZZ>")

    def propagator_caches(self) -> list:
        return [self.device.executor.propagator_cache]


def qasm3_program(amp: float, phase: float) -> str:
    """An OpenQASM-3 program with a ``cal`` block."""
    return (
        "OPENQASM 3; qubit[2] q; bit[2] c;\n"
        f"rz({phase!r}) q[0]; sx q[0]; x q[1];\n"
        f'cal {{ play("q0-drive-port", gaussian(32, {amp!r}, 8.0)); }}\n'
        "c[0] = measure q[0]; c[1] = measure q[1];\n"
    )


def qpi_program(amp: float, phase: float):
    """A QPI (paper Listing 1) kernel with one raw-sample waveform."""
    from repro.qpi import (
        QCircuit,
        qCircuitBegin,
        qCircuitEnd,
        qFrameChange,
        qInitClassicalRegisters,
        qMeasure,
        qPlayWaveform,
        qWaveform,
        qX,
    )

    circuit = QCircuit()
    qCircuitBegin(circuit)
    qInitClassicalRegisters(2)
    qX(1)
    qPlayWaveform("q0-drive-port", qWaveform(np.full(32, amp)))
    qFrameChange("q0-drive-port", 5.0e9, phase)
    qPlayWaveform("q0-drive-port", qWaveform(np.full(16, amp / 2)))
    qMeasure(0, 0)
    qMeasure(1, 1)
    qCircuitEnd()
    return circuit


def mlir_program(amp: float, phase: float) -> str:
    """A non-parametric 2-qubit pulse-MLIR program."""
    sb = SequenceBuilder("perfbench_serve")
    d0 = sb.add_mixed_frame_arg("f0", "q0-drive-port")
    d1 = sb.add_mixed_frame_arg("f1", "q1-drive-port")
    a0 = sb.add_mixed_frame_arg("a0", "q0-acquire-port")
    a1 = sb.add_mixed_frame_arg("a1", "q1-acquire-port")
    sb.play(d0, sb.waveform(ParametricWaveform("square", 24, {"amp": amp})))
    sb.shift_phase(d1, phase)
    sb.play(d1, sb.waveform(ParametricWaveform("square", 16, {"amp": amp / 2})))
    sb.barrier(d0, d1, a0, a1)
    sb.capture(a0, 0, SEGMENT_SAMPLES)
    sb.capture(a1, 1, SEGMENT_SAMPLES)
    sb.ret()
    return print_module(sb.module)


#: Program builders by front end, and the fixed pool's (amp, phase).
FRONT_ENDS = {"qasm3": qasm3_program, "qpi": qpi_program, "mlir": mlir_program}
POOL = [
    ("qasm3", 0.20, 0.3),
    ("qasm3", 0.35, 1.1),
    ("qasm3", 0.50, -0.7),
    ("qpi", 0.15, 0.4),
    ("qpi", 0.25, -1.2),
    ("mlir", 0.12, 0.3),
    ("mlir", 0.22, 2.0),
    ("mlir", 0.30, -0.9),
]


class ServeMixed(Workload):
    """Bursts of :attr:`burst` ``run_async`` submissions to a
    ``PulseService`` over two devices, then a wait on every ticket."""

    name = "serve_mixed"
    devices = ("sc-a", "sc-b")
    burst = 16
    requests_per_step = burst
    root_name = "_submit"
    fresh_per_burst = 2
    check_share = 1.0 / 32.0
    max_checks = 24
    warmups = 2

    def build(self) -> None:
        from repro.client import MQSSClient
        from repro.qdmi import QDMIDriver
        from repro.serving import PulseService

        driver = QDMIDriver()
        self.device_objs = {}
        for name in self.devices:
            device = SuperconductingDevice(name, num_qubits=2, drift_rate=0.0)
            driver.register_device(device)
            self.device_objs[name] = device
        self.client = MQSSClient(driver, persistent_sessions=True)
        self.service = PulseService(self.client)
        self.targets = {
            name: repro.Target.from_service(self.service, name)
            for name in self.devices
        }
        self.pool = {
            (i, name): repro.compile(
                FRONT_ENDS[kind](amp, phase), self.targets[name]
            )
            for i, (kind, amp, phase) in enumerate(POOL)
            for name in self.devices
        }
        self.references = {
            name: reference_executor(device)
            for name, device in self.device_objs.items()
        }

    def make_input(self, rng):
        """One burst: pool requests plus fresh programs at random slots."""
        fresh_slots = set(
            rng.choice(self.burst, self.fresh_per_burst, replace=False).tolist()
        )
        burst = []
        for slot in range(self.burst):
            device = self.devices[int(rng.integers(len(self.devices)))]
            seed = int(rng.integers(2**31))
            if slot in fresh_slots:
                kind = list(FRONT_ENDS)[int(rng.integers(len(FRONT_ENDS)))]
                amp = float(rng.uniform(0.1, 0.3))
                phase = float(rng.uniform(-np.pi, np.pi))
                burst.append(
                    {"fresh": (kind, amp, phase), "device": device, "seed": seed}
                )
            else:
                pool = int(rng.integers(len(POOL)))
                burst.append({"pool": pool, "device": device, "seed": seed})
        return burst

    def units(self, inp):
        return len(inp)

    def _submit(self, req):
        t0 = time.perf_counter()
        if "pool" in req:
            executable = self.pool[(req["pool"], req["device"])]
        else:
            kind, amp, phase = req["fresh"]
            executable = repro.compile(
                FRONT_ENDS[kind](amp, phase), self.targets[req["device"]]
            )
        ticket = executable.run_async(shots=SHOTS, seed=req["seed"])
        return t0, executable, ticket

    def request(self, inp):
        submitted = [self._submit(req) for req in inp]
        return [
            (t0, executable, ticket, ticket.result(timeout=60))
            for t0, executable, ticket in submitted
        ]

    def step(self) -> list[Sample]:
        inp = self.make_input(self.rng)
        return [
            Sample(ticket.completed_at - t0, 1, req, (executable, ticket, result))
            for req, (t0, executable, ticket, result) in zip(inp, self.request(inp))
        ]

    def check(self, inp, out):
        executable, _, result = out
        reference = self.references[inp["device"]]
        exact = reference.execute(executable.schedule, shots=0)
        for key in set(result.probabilities) | set(exact.ideal_probabilities):
            check_close(
                result.probabilities.get(key, 0.0),
                exact.ideal_probabilities.get(key, 0.0),
                CLOSED_TOL,
                f"probability of {key!r}",
            )
        check_counts(result.counts, SHOTS, exact.probabilities)

    def propagator_caches(self) -> list:
        return [d.executor.propagator_cache for d in self.device_objs.values()]

    def compile_cache(self):
        return self.service.cache

    def ticket_metrics(self, samples: list[Sample]) -> dict[str, float]:
        tickets = [s.out[1] for s in samples]
        if not tickets:
            return {}
        queue_wait = np.mean([t.dispatched_at - t.enqueued_at for t in tickets])
        service = np.mean([t.completed_at - t.dispatched_at for t in tickets])
        return {
            "serving.queue_wait_ms": float(queue_wait) * 1e3,
            "serving.service_ms": float(service) * 1e3,
            "serving.group_size": float(np.mean([t.group_size for t in tickets])),
        }

    def close(self) -> None:
        self.service.stop()
        self.client.close()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (JobLoop, SweepCold, LindbladD27, ServeMixed)
}
