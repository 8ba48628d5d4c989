"""Schedule execution: pulse schedules -> quantum dynamics -> shots.

The :class:`ScheduleExecutor` is what a simulated QDMI device calls when
a pulse job reaches it. It interprets a
:class:`~repro.core.schedule.PulseSchedule` against a
:class:`~repro.sim.model.SystemModel`:

1. Frame timelines — for every (port, frame) pair the executor builds
   per-sample carrier frequency and static-phase arrays from the
   schedule's frame instructions, with phase-continuous frequency
   updates (matching :class:`~repro.core.frame.FrameState` semantics).
2. Drive synthesis — every :class:`Play` adds its envelope samples,
   modulated by the frame's accumulated detuning phase, onto its port's
   complex drive array (fully vectorized).
3. Evolution — the per-sample drive matrix is split into runs of
   constant value (:func:`~repro.sim.evolve.segment_runs`); the runs'
   Hamiltonians are stacked and diagonalized in one batched call
   (:func:`~repro.sim.evolve.batched_propagators`), with a
   :class:`~repro.sim.evolve.PropagatorCache` short-circuiting runs
   whose amplitudes were seen before (flat-tops, parameter sweeps) and
   drift-only runs reusing the model's precomputed eigendecomposition.
4. Decoherence — with finite T1/T2 the state is a density matrix and
   the constant runs evolve through the open-system engine
   (:class:`~repro.sim.open_system.OpenSystemEngine`), scalar and batch
   paths alike through its one exact entry point
   (:meth:`~repro.sim.open_system.OpenSystemEngine.evolve_runs`). Each
   run applies its cached ``(D^2, D^2)`` superpropagator when there is
   one; otherwise a cost model picks the cheaper exact method — a
   dense superpropagator build (cached) or the Taylor action of the
   Lindblad generator on the ``(D, D)`` state — and runs that recur
   are promoted to cached superpropagators once their action time
   exceeds one build. ``open_system_method`` forces one method
   (``"superoperator"``, ``"action"``); the stochastic quantum-jump
   path runs only as ``"trajectories"``. The legacy unitary+Kraus
   Trotter interleave is kept behind ``open_system_method="kraus"``
   (first-order splitting during drive, no inter-level cascade within
   a run).
5. Measurement — :class:`Capture` instructions define the measured
   sites and classical slots; outcomes include exact probabilities,
   seeded shot counts, and per-site leakage.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.frame import Frame
from repro.core.instructions import (
    Capture,
    FrameChange,
    Play,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
)
from repro.core.port import Port
from repro.core.schedule import PulseSchedule
from repro.errors import CancelledError, ExecutionError, ValidationError
from repro.obs import profile as _profile
from repro.obs.tracing import span
from repro.sim.evolve import (
    PropagatorCache,
    free_propagator,
    segment_runs,
)
from repro.sim.measurement import (
    ReadoutModel,
    apply_readout_error,
    leakage_populations,
    measured_bit_distribution,
    sample_counts,
)
from repro.sim.model import SystemModel
from repro.sim.open_system import (
    _RATE_FLOOR,
    OpenSystemEngine,
    dephasing_rate,
)
from repro.sim.operators import basis_state, identity
from repro.xp import active, use_backend


def _check_cancel(should_cancel) -> None:
    """Raise at a chunk boundary when cooperative cancel is requested.

    ``should_cancel`` is the zero-arg callable the serving layer plumbs
    down (ticket cancel flags); None means cancellation is disabled.
    """
    if should_cancel is not None and should_cancel():
        raise CancelledError(
            "execution cancelled cooperatively at a chunk boundary"
        )

_TWO_PI = 2.0 * math.pi


@dataclass
class ExecutionResult:
    """Outcome of executing one pulse schedule.

    Attributes
    ----------
    counts:
        Sampled shot counts keyed by bitstring (slot 0 leftmost).
    probabilities:
        Exact outcome distribution *after* readout error.
    ideal_probabilities:
        Exact outcome distribution *before* readout error.
    final_state:
        Final ket (no decoherence) or density matrix.
    measured_sites:
        Site index per classical slot, ascending slot order.
    leakage:
        Per-site population of levels >= 2 at the end.
    duration_samples / duration_seconds:
        Schedule length.
    shots:
        Number of samples drawn.
    """

    counts: dict[str, int]
    probabilities: dict[str, float]
    ideal_probabilities: dict[str, float]
    final_state: np.ndarray
    measured_sites: tuple[int, ...]
    leakage: dict[int, float]
    duration_samples: int
    duration_seconds: float
    shots: int
    metadata: dict = field(default_factory=dict)

    def expectation_z(self, slot: int = 0) -> float:
        """``<Z>`` of the bit in *slot* from the exact probabilities.

        .. deprecated::
            Thin view over the Observable engine; use
            ``repro.primitives.Observable.z(slot).expectation(...)``
            (or an :class:`~repro.primitives.Estimator` PUB) directly.
        """
        warnings.warn(
            "ExecutionResult.expectation_z is deprecated; evaluate "
            "repro.primitives.Observable.z(slot) (or run an Estimator "
            "PUB) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        if not self.measured_sites:
            raise ValidationError(
                "expectation_z is undefined: the schedule captured no "
                "measurement (no Capture instructions, empty distribution)"
            )
        from repro.primitives.observables import expectation_z

        return expectation_z(
            self.probabilities, slot, n_slots=len(self.measured_sites)
        )


class _FrameTimeline:
    """Per-sample frequency/static-phase arrays for one mixed frame."""

    __slots__ = ("frequency", "static_phase")

    def __init__(self, frame: Frame, duration: int) -> None:
        self.frequency = np.full(duration, frame.frequency, dtype=np.float64)
        self.static_phase = np.full(duration, frame.phase, dtype=np.float64)

    def set_frequency(self, t0: int, value: float) -> None:
        self.frequency[t0:] = value

    def shift_frequency(self, t0: int, delta: float) -> None:
        self.frequency[t0:] += delta

    def set_phase(self, t0: int, value: float) -> None:
        self.static_phase[t0:] = value

    def shift_phase(self, t0: int, delta: float) -> None:
        self.static_phase[t0:] += delta

    def detuning_phase(self, reference_frequency: float, dt: float) -> np.ndarray:
        """Accumulated carrier phase of the detuning, exclusive cumsum."""
        detuning = self.frequency - reference_frequency
        psi = np.empty_like(detuning)
        np.cumsum(detuning, out=psi)
        psi -= detuning  # exclusive: phase accumulated *before* sample t
        psi *= _TWO_PI * dt
        return psi


class ScheduleExecutor:
    """Executes pulse schedules against one :class:`SystemModel`."""

    #: Largest number of (site, tau) Kraus-operator sets kept warm.
    _MAX_KRAUS_ENTRIES = 1024

    def __init__(
        self,
        model: SystemModel,
        readout: Mapping[int, ReadoutModel] | None = None,
        *,
        propagator_cache: PropagatorCache | None = None,
        open_system_method: str = "auto",
    ) -> None:
        methods = OpenSystemEngine.METHODS + ("kraus",)
        if open_system_method not in methods:
            raise ValidationError(
                f"open_system_method must be one of {methods}, got "
                f"{open_system_method!r}"
            )
        self.model = model
        self.readout = dict(readout or {})
        self._drift_eig = np.linalg.eigh(model.drift)
        #: Shared slice-propagator cache: repeated drive amplitudes
        #: (flat-tops, parameter sweeps) skip the eigendecomposition.
        self.propagator_cache = (
            propagator_cache if propagator_cache is not None else PropagatorCache()
        )
        #: How density-matrix evolution runs (see module docstring);
        #: "kraus" selects the legacy unitary+Kraus interleave.
        self.open_system_method = open_system_method
        self._open_engine: "OpenSystemEngine | None" = None
        # Kraus operators depend only on (site, tau): cache them so
        # repeated executions (sweeps, serving traffic) skip the
        # per-run rebuild including the full-space embed calls.
        # LRU-bounded: delay sweeps mint a fresh tau per scan point.
        self._kraus_cache: OrderedDict[
            tuple[int, float], list[np.ndarray]
        ] = OrderedDict()

    @property
    def open_system(self) -> "OpenSystemEngine":
        """The lazily built open-system engine for this model."""
        if self._open_engine is None:
            method = self.open_system_method
            engine_method = "auto" if method in ("auto", "kraus") else method
            # Share the executor's propagator cache: the engine's
            # namespace tag keeps superpropagators and unitaries from
            # colliding, and sweeps/serving then hold one bounded
            # cache instead of one per engine.
            self._open_engine = OpenSystemEngine.from_model(
                self.model,
                method=engine_method,
                cache=self.propagator_cache,
            )
        return self._open_engine

    # ---- public API ---------------------------------------------------------

    def execute(
        self,
        schedule: PulseSchedule,
        *,
        shots: int = 1024,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        initial_state: np.ndarray | None = None,
        backend: str | None = None,
        should_cancel=None,
    ) -> ExecutionResult:
        """Run *schedule* and sample *shots* measurement outcomes.

        *backend* scopes the evolution to an array backend/dtype spec
        (``"numpy/complex64"``, ``"cupy"``, ...; see
        :func:`repro.xp.use_backend`); ``None`` keeps the ambient
        scope. Measurement always runs on the host.

        *should_cancel* (zero-arg callable) enables cooperative
        cancellation: it is polled at chunk boundaries — before the
        evolution and before the measurement tail — and a True return
        raises :class:`~repro.errors.CancelledError`.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        use_dm = self.model.has_decoherence()
        _check_cancel(should_cancel)
        with use_backend(backend):
            state = self._initial_state(initial_state, use_dm)
            if schedule.duration > 0:
                state = self._evolve(schedule, state, use_dm, rng)
        _check_cancel(should_cancel)
        return self._finalize(schedule, state, shots, rng)

    def execute_batch(
        self,
        schedules: Sequence[PulseSchedule],
        *,
        shots: int = 1024,
        seed: int | None = None,
        initial_state: np.ndarray | None = None,
        backend: str | None = None,
        should_cancel=None,
    ) -> list[ExecutionResult]:
        """Run many schedules through one batched evolution pass.

        The whole batch's constant-drive runs are evolved together —
        one :meth:`PropagatorCache.propagators` call for every driven
        run of every schedule (closed system) or one
        :meth:`OpenSystemEngine.evolve_runs
        <repro.sim.open_system.OpenSystemEngine.evolve_runs>` call
        (Lindblad: cached superpropagators, one batched dense build for
        the runs the cost model sends there, and Taylor actions stacked
        across schedules) — instead of one small call per schedule.
        This is the execution kernel the primitives tier
        (:mod:`repro.primitives`) dispatches PUBs through: a 64-point
        parameter scan costs one propagator batch, not 64.

        Results are identical to ``[execute(s, shots=shots, seed=seed)
        for s in schedules]``: each schedule's measurement tail draws
        from a fresh ``default_rng(seed)``, so seeded runs reproduce
        the per-point loop exactly. Paths the batch cannot help —
        quantum-jump trajectories and the legacy ``"kraus"`` interleave
        (both consume per-schedule RNG state during evolution) — fall
        back to that loop.

        With profiling enabled (:func:`repro.obs.enable_profiling`)
        every result carries a shared ``metadata["profile"]`` summary
        of the batch: stack sizes, Hilbert dimension, squaring levels,
        cache dedup ratio, and GEMM wall-time.

        *backend* scopes every evolution kernel of the batch to an
        array backend/dtype spec (see :func:`repro.xp.use_backend`);
        the batch's stacks then stay on that backend until the
        measurement tail pulls the final states to the host.

        *should_cancel* enables cooperative cancellation, polled at
        the batch's chunk boundaries: between schedules on the
        per-schedule fallback path, at every open-system flush (every
        ``_MAX_OPEN_BATCH_SLICES`` runs), and before
        the closed-system stacked call and the measurement tail.
        """
        schedules = list(schedules)
        if not schedules:
            return []
        profiling = _profile.profiling_enabled()
        with span(
            "execute_batch", schedules=len(schedules), shots=shots
        ):
            prev = _profile.begin_collect() if profiling else None
            try:
                with use_backend(backend):
                    results = self._execute_batch_inner(
                        schedules, shots, seed, initial_state, should_cancel
                    )
            finally:
                records = _profile.end_collect(prev) if profiling else None
        if records is not None:
            summary = _profile.summarize(records, batch=len(schedules))
            for result in results:
                result.metadata["profile"] = summary
        return results

    def _execute_batch_inner(
        self,
        schedules: list[PulseSchedule],
        shots: int,
        seed: int | None,
        initial_state: np.ndarray | None,
        should_cancel=None,
    ) -> list[ExecutionResult]:
        use_dm = self.model.has_decoherence()
        _check_cancel(should_cancel)
        if use_dm:
            if self.open_system_method in ("trajectories", "kraus"):
                # Per-schedule fallback: every schedule is a chunk
                # boundary of its own.
                return [
                    self.execute(
                        s,
                        shots=shots,
                        seed=seed,
                        initial_state=initial_state,
                        should_cancel=should_cancel,
                    )
                    for s in schedules
                ]
            states = self._batch_evolve_open(
                schedules, initial_state, should_cancel=should_cancel
            )
        else:
            states = None
            if len(schedules) > 1 and schedules[0].duration > 0:
                if self._is_template_family(schedules):
                    states = self._family_evolve_closed(
                        schedules, initial_state
                    )
                    _check_cancel(should_cancel)
                    with span("measurement", points=len(schedules)):
                        return self._finalize_family(
                            schedules[0], states, shots, seed
                        )
            states = self._batch_evolve_closed(schedules, initial_state)
        _check_cancel(should_cancel)
        with span("measurement", points=len(schedules)):
            return [
                self._finalize(s, state, shots, np.random.default_rng(seed))
                for s, state in zip(schedules, states)
            ]

    # A schedule *family*: structural clones differing only in scalar
    # fields of virtual frame instructions — exactly what the execution
    # API's schedule-template bind produces for a parameter sweep.
    _FAMILY_EVENT_TYPES = (
        SetFrequency,
        ShiftFrequency,
        SetPhase,
        ShiftPhase,
        FrameChange,
    )

    def _is_template_family(self, schedules: Sequence[PulseSchedule]) -> bool:
        """Whether the batch shares one schedule structure.

        Members must have identical item counts, placements and
        instruction types; items may differ only by being distinct
        frame-event instances on the same (port, frame) — i.e. the
        clone-and-swap output of the schedule-template fast path. Play
        items must be the *same object* (templates share them), so
        waveforms and timings are guaranteed equal without comparing
        samples.
        """
        items0 = schedules[0]._items
        n = len(items0)
        for s in schedules[1:]:
            items = s._items
            if items is items0:
                continue
            if len(items) != n:
                return False
            for a, b in zip(items0, items):
                if a is b:
                    continue
                ia, ib = a.instruction, b.instruction
                if (
                    a.t0 != b.t0
                    or a.seq != b.seq
                    or type(ia) is not type(ib)
                    or not isinstance(ia, self._FAMILY_EVENT_TYPES)
                    or ia.port.name != ib.port.name
                    or ia.frame.name != ib.frame.name
                ):
                    return False
        return True

    def _synthesize_drives_family(
        self, schedules: Sequence[PulseSchedule]
    ) -> tuple[np.ndarray, list[str]]:
        """The ``(K, duration, n_channels)`` drive stack of a family.

        One vectorized pass over the *shared* item structure: frame
        timelines are ``(K, duration)`` arrays whose events apply to
        all members at once (gathering the per-member scalar values),
        detuning phases are one exclusive cumsum per (port, frame)
        instead of one per play per member, and every play lands on
        the whole stack with one broadcast multiply. Per-sample
        arithmetic is element-for-element the scalar path's, so the
        stack is bitwise what per-member :meth:`_synthesize_drives`
        calls would produce.
        """
        base = schedules[0]
        k_members = len(schedules)
        duration = base.duration
        model = self.model
        timelines: dict[tuple[str, str], list[np.ndarray]] = {}

        def timeline(port: Port, frame: Frame) -> list[np.ndarray]:
            key = (port.name, frame.name)
            tl = timelines.get(key)
            if tl is None:
                # float64 pinned explicitly (as _FrameTimeline does):
                # an integer frame frequency/phase would otherwise set
                # an integer dtype and truncate every later event.
                tl = [
                    np.full(
                        (k_members, duration),
                        frame.frequency,
                        dtype=np.float64,
                    ),
                    np.full(
                        (k_members, duration), frame.phase, dtype=np.float64
                    ),
                ]
                timelines[key] = tl
            return tl

        def values(pos: int, fld: str) -> np.ndarray:
            item0 = base._items[pos]
            column = np.empty(k_members, dtype=np.float64)
            for k, s in enumerate(schedules):
                item = s._items[pos]
                column[k] = (
                    getattr(item0.instruction, fld)
                    if item is item0
                    else getattr(item.instruction, fld)
                )
            return column[:, None]

        order = sorted(
            range(len(base._items)),
            key=lambda i: (base._items[i].t0, base._items[i].seq),
        )
        for pos in order:
            item = base._items[pos]
            ins = item.instruction
            t0 = item.t0
            if isinstance(ins, SetFrequency):
                timeline(ins.port, ins.frame)[0][:, t0:] = values(
                    pos, "frequency"
                )
            elif isinstance(ins, ShiftFrequency):
                timeline(ins.port, ins.frame)[0][:, t0:] += values(pos, "delta")
            elif isinstance(ins, SetPhase):
                timeline(ins.port, ins.frame)[1][:, t0:] = values(pos, "phase")
            elif isinstance(ins, ShiftPhase):
                timeline(ins.port, ins.frame)[1][:, t0:] += values(pos, "delta")
            elif isinstance(ins, FrameChange):
                tl = timeline(ins.port, ins.frame)
                tl[0][:, t0:] = values(pos, "frequency")
                tl[1][:, t0:] = values(pos, "phase")

        channel_names = sorted(model.channels)
        col = {name: j for j, name in enumerate(channel_names)}
        drives = np.zeros(
            (k_members, duration, len(channel_names)), dtype=np.complex128
        )
        psis: dict[tuple[str, str, float], np.ndarray] = {}
        from repro.core.port import PortKind

        for item in base.instructions_of(Play):
            ins = item.instruction
            if ins.port.name not in model.channels:
                if ins.port.kind is PortKind.READOUT:
                    continue
                raise ExecutionError(
                    f"schedule plays on port {ins.port.name!r} which has no "
                    f"channel coupling in the system model"
                )
            ch = model.channels[ins.port.name]
            tl = timeline(ins.port, ins.frame)
            psi_key = (ins.port.name, ins.frame.name, ch.reference_frequency)
            psi = psis.get(psi_key)
            if psi is None:
                detuning = tl[0] - ch.reference_frequency
                psi = np.cumsum(detuning, axis=1)
                psi -= detuning  # exclusive, as _FrameTimeline does
                psi *= _TWO_PI * model.dt
                psis[psi_key] = psi
            t0, t1 = item.t0, item.t1
            phase = psi[:, t0:t1] + tl[1][:, t0:t1]
            drives[:, t0:t1, col[ins.port.name]] += ins.waveform.samples()[
                None, :
            ] * np.exp(1j * phase)
        return drives, channel_names

    def _run_hamiltonians_stack(
        self, rows: np.ndarray, channel_names: list[str]
    ) -> np.ndarray:
        """Vectorized :meth:`_run_hamiltonian` over a ``(N, C)`` stack.

        Channel terms apply through masked broadcast multiplies in the
        same channel order and with the same scalar factorization as
        the per-run method, so each slice is bitwise identical to its
        scalar counterpart.
        """
        model = self.model
        n = rows.shape[0]
        hs = np.repeat(model.drift[None, :, :], n, axis=0)
        for j, name in enumerate(channel_names):
            a = rows[:, j]
            nz = a != 0
            if not np.any(nz):
                continue
            ch = model.channels[name]
            if ch.hermitian:
                hs[nz] += (ch.rabi_rate * a[nz].real)[:, None, None] * (
                    ch.operator
                )
            else:
                half = 0.5 * ch.rabi_rate
                hs[nz] += half * (
                    np.conj(a[nz])[:, None, None] * ch.operator
                    + a[nz][:, None, None] * ch.adjoint_operator()
                )
        return hs

    def _family_evolve_closed(
        self,
        schedules: Sequence[PulseSchedule],
        initial_state: np.ndarray | None,
    ) -> np.ndarray:
        """Final states of a closed-system family, fully vectorized.

        Run boundaries are the *union* of every member's constant-drive
        boundaries (splitting a constant run is exact), propagators
        stack position-major — so runs the members share (state prep,
        fixed segments) sit consecutively and collapse to one cache
        entry — and the states advance with one batched matmul per run
        position on the active array backend; only the final state
        stack comes back to the host for measurement.
        """
        with span("synthesize", family=True, points=len(schedules)):
            drives, channel_names = self._synthesize_drives_family(schedules)
        xp = active()
        k_members, duration, _ = drives.shape
        changed = np.any(drives[:, 1:, :] != drives[:, :-1, :], axis=(0, 2))
        starts = np.concatenate(([0], np.nonzero(changed)[0] + 1))
        lengths = np.diff(np.concatenate((starts, [duration])))
        rows = drives[:, starts, :]  # (K, R, C)
        n_runs = len(starts)
        dim = self.model.dimension
        # Position-major flattening: run r of every member, then r+1.
        rows_t = np.ascontiguousarray(rows.transpose(1, 0, 2)).reshape(
            n_runs * k_members, -1
        )
        steps_t = np.repeat(lengths.astype(np.int64), k_members)
        zero_t = ~np.any(rows_t != 0, axis=1)
        us = xp.empty((n_runs * k_members, dim, dim), dtype=xp.cdtype)
        driven = ~zero_t
        if np.any(driven):
            hs = self._run_hamiltonians_stack(rows_t[driven], channel_names)
            us[driven] = self.propagator_cache.propagators(
                hs, self.model.dt, steps_t[driven]
            )
        if np.any(zero_t):
            for length in np.unique(steps_t[zero_t]):
                sel = zero_t & (steps_t == length)
                us[sel] = free_propagator(
                    self._drift_eig, self.model.dt, int(length)
                )
        us = us.reshape(n_runs, k_members, dim, dim)
        psi0 = self._initial_state(initial_state, use_dm=False)
        states = xp.asarray(
            np.repeat(psi0[None, ...], k_members, axis=0), dtype=xp.cdtype
        )
        for r in range(n_runs):
            if states.ndim == 2:  # stacked kets
                states = xp.einsum("kij,kj->ki", us[r], states)
            else:  # stacked matrices (operator-valued initial state)
                states = xp.matmul(us[r], states)
        return xp.to_host(states)

    def _batch_evolve_closed(
        self,
        schedules: Sequence[PulseSchedule],
        initial_state: np.ndarray | None,
    ) -> list[np.ndarray]:
        """Final kets for a heterogeneous batch: one stacked call."""
        plans: list[list[tuple[int, int]]] = []  # (length, slot) per run
        drift_props: list[np.ndarray] = []
        drift_by_length: dict[int, int] = {}
        driven_rows: list[np.ndarray] = []
        driven_names: list[tuple[str, ...]] = []
        driven_steps: list[int] = []
        with span("synthesize", points=len(schedules)):
            for schedule in schedules:
                plan: list[tuple[int, int]] = []
                if schedule.duration > 0:
                    drives, channel_names = self._synthesize_drives(schedule)
                    for start, length in segment_runs(drives):
                        row = drives[start]
                        if np.all(row == 0):
                            # Negative slots index the drift list
                            # (offset by 1 so slot 0 stays unambiguous);
                            # drift propagators dedup per unique run
                            # length.
                            slot = drift_by_length.get(length)
                            if slot is None:
                                slot = len(drift_props)
                                drift_by_length[length] = slot
                                drift_props.append(
                                    free_propagator(
                                        self._drift_eig,
                                        self.model.dt,
                                        length,
                                    )
                                )
                            plan.append((length, -slot - 1))
                        else:
                            plan.append((length, len(driven_rows)))
                            driven_rows.append(row)
                            driven_names.append(tuple(channel_names))
                            driven_steps.append(length)
                plans.append(plan)
        xp = active()
        if driven_rows:
            # Assemble all driven-run Hamiltonians through the
            # vectorized stack builder (grouped by channel layout, which
            # is uniform for same-model schedules) instead of one
            # Python-level assembly per run; slices are bitwise
            # identical to the scalar path.
            dim = self.model.drift.shape[0]
            hs = np.empty((len(driven_rows), dim, dim), dtype=np.complex128)
            groups: dict[tuple[str, ...], list[int]] = {}
            for i, names in enumerate(driven_names):
                groups.setdefault(names, []).append(i)
            for names, idx in groups.items():
                rows = np.stack([driven_rows[i] for i in idx])
                hs[idx] = self._run_hamiltonians_stack(rows, list(names))
            us = self.propagator_cache.propagators(
                hs,
                self.model.dt,
                np.asarray(driven_steps, dtype=np.int64),
            )
        else:
            us = np.empty((0,))
        states: list[np.ndarray] = []
        for plan in plans:
            state = xp.asarray(
                self._initial_state(initial_state, use_dm=False),
                dtype=xp.cdtype,
            )
            for _, slot in plan:
                u = drift_props[-slot - 1] if slot < 0 else us[slot]
                state = xp.matmul(u, state)
            states.append(xp.to_host(state))
        return states

    #: Runs evolved per engine call on a batched open run: bounds the
    #: dense superpropagators a flush may build (a (D^2, D^2) slice is
    #: D^2 times a unitary's footprint).
    _MAX_OPEN_BATCH_SLICES = 512

    def _batch_evolve_open(
        self,
        schedules: Sequence[PulseSchedule],
        initial_state: np.ndarray | None,
        should_cancel=None,
    ) -> list[np.ndarray]:
        """Final density matrices through the engine's exact path.

        Chunked over schedules so the dense superpropagators built at
        once stay bounded for large batches; the shared propagator
        cache still dedups runs across chunks — and each flush is a
        cooperative-cancellation chunk boundary.
        """
        engine = self.open_system
        rho0 = self._initial_state(initial_state, use_dm=True)
        states: list[np.ndarray] = []
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        pending_slices = 0

        def flush() -> None:
            nonlocal pending, pending_slices
            if not pending:
                return
            _check_cancel(should_cancel)
            states.extend(engine.evolve_runs(pending, rho0))
            pending, pending_slices = [], 0

        for schedule in schedules:
            if schedule.duration == 0:
                flush()
                states.append(rho0.copy())
                continue
            hs, steps = self._open_runs(*self._synthesize_drives(schedule))
            pending.append((hs, steps))
            pending_slices += len(steps)
            if pending_slices >= self._MAX_OPEN_BATCH_SLICES:
                flush()
        flush()
        return states

    def _open_runs(
        self, drives: np.ndarray, channel_names: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hamiltonians, steps)`` of a drive matrix's constant runs."""
        runs = segment_runs(drives)
        hs = np.stack(
            [
                self._run_hamiltonian(drives[start], channel_names)
                for start, _ in runs
            ]
        )
        return hs, np.asarray([length for _, length in runs], dtype=np.int64)

    def _finalize_family(
        self,
        base: PulseSchedule,
        states: np.ndarray,
        shots: int,
        seed: int | None,
    ) -> list[ExecutionResult]:
        """Measurement tails for a family, sharing the vector work.

        The family members share capture structure, so site resolution
        and the level-to-bit outcome mapping happen once; the exact
        probabilities of all members marginalize in one pass. Readout
        corruption and shot sampling stay per-member through the same
        functions :meth:`_finalize` uses (with a fresh
        ``default_rng(seed)`` each), keeping results bit-for-bit equal
        to the per-schedule path.
        """
        model = self.model
        dims = model.dims
        k_members = states.shape[0]
        duration = base.duration
        captures = base.instructions_of(Capture)
        slots = sorted(
            (it.instruction.memory_slot, it.instruction) for it in captures
        )
        measured_sites = tuple(self._capture_site(ins) for _, ins in slots)
        if len(set(measured_sites)) != len(measured_sites):
            # Same guard measured_bit_distribution applies on the
            # per-schedule path.
            raise ValidationError("measured sites must be distinct")
        if states.ndim == 2:  # kets
            probs = np.abs(states) ** 2
        else:  # density matrices
            probs = np.real(np.diagonal(states, axis1=1, axis2=2)).copy()
        probs = np.clip(probs, 0.0, None)
        norms = probs.sum(axis=1)
        if np.any(norms <= 0):
            raise ValidationError("state has zero norm")
        probs /= norms[:, None]
        full = probs.reshape((k_members,) + tuple(dims))

        # Per-member exact distributions over the measured sites, with
        # the same marginalization/key construction as
        # measured_bit_distribution (one vector pass for the family).
        ideals: list[dict[str, float]] = [dict() for _ in range(k_members)]
        if measured_sites:
            keep = list(measured_sites)
            others = [s + 1 for s in range(len(dims)) if s not in keep]
            marg = full.sum(axis=tuple(others)) if others else full
            sorted_keep = sorted(keep)
            for labels in np.ndindex(*[dims[s] for s in sorted_keep]):
                bits = {
                    site: ("1" if lbl >= 1 else "0")
                    for site, lbl in zip(sorted_keep, labels)
                }
                key = "".join(bits[s] for s in keep)
                column = marg[(slice(None),) + labels]
                for k in range(k_members):
                    p = float(column[k])
                    if p != 0.0:
                        ideals[k][key] = ideals[k].get(key, 0.0) + p
        # Per-site leakage, one marginal per site for the whole family.
        site_leakage: list[np.ndarray] = []
        for site, d in enumerate(dims):
            if d <= 2:
                site_leakage.append(np.zeros(k_members))
                continue
            axes = tuple(a + 1 for a in range(len(dims)) if a != site)
            marginal = full.sum(axis=axes)
            site_leakage.append(marginal[:, 2:].sum(axis=1))

        models = [
            self.readout.get(site, ReadoutModel()) for site in measured_sites
        ]
        results: list[ExecutionResult] = []
        for k in range(k_members):
            ideal = ideals[k]
            if measured_sites:
                noisy = apply_readout_error(ideal, models)
                counts = sample_counts(
                    noisy, shots, np.random.default_rng(seed)
                )
            else:
                noisy, counts = {}, {}
            results.append(
                ExecutionResult(
                    counts=counts,
                    probabilities=noisy,
                    ideal_probabilities=ideal,
                    final_state=states[k],
                    measured_sites=measured_sites,
                    leakage={
                        site: float(site_leakage[site][k])
                        for site in range(len(dims))
                    },
                    duration_samples=duration,
                    duration_seconds=duration * model.dt,
                    shots=shots if measured_sites else 0,
                )
            )
        return results

    def _finalize(
        self,
        schedule: PulseSchedule,
        state: np.ndarray,
        shots: int,
        rng: np.random.Generator,
    ) -> ExecutionResult:
        """Measurement tail: distributions, readout error, sampling."""
        model = self.model
        duration = schedule.duration
        captures = schedule.instructions_of(Capture)
        slots = sorted(
            (it.instruction.memory_slot, it.instruction) for it in captures
        )
        measured_sites = tuple(self._capture_site(ins) for _, ins in slots)
        if measured_sites:
            ideal = measured_bit_distribution(state, model.dims, measured_sites)
            models = [
                self.readout.get(site, ReadoutModel()) for site in measured_sites
            ]
            noisy = apply_readout_error(ideal, models)
            counts = sample_counts(noisy, shots, rng)
        else:
            ideal, noisy, counts = {}, {}, {}

        return ExecutionResult(
            counts=counts,
            probabilities=noisy,
            ideal_probabilities=ideal,
            final_state=state,
            measured_sites=measured_sites,
            leakage=leakage_populations(state, model.dims),
            duration_samples=duration,
            duration_seconds=duration * model.dt,
            shots=shots if measured_sites else 0,
        )

    def unitary(self, schedule: PulseSchedule) -> np.ndarray:
        """Total propagator of *schedule* (requires no decoherence)."""
        if self.model.has_decoherence():
            raise ExecutionError("unitary() is undefined with decoherence enabled")
        duration = schedule.duration
        dim = self.model.dimension
        if duration == 0:
            return identity(dim)
        drives, channel_names = self._synthesize_drives(schedule)
        xp = active()
        total = xp.asarray(identity(dim), dtype=xp.cdtype)
        for _, u in self._run_propagators(drives, channel_names):
            total = xp.matmul(u, total)
        return xp.to_host(total)

    # ---- internals -------------------------------------------------------------

    def _initial_state(
        self, initial_state: np.ndarray | None, use_dm: bool
    ) -> np.ndarray:
        model = self.model
        if initial_state is None:
            psi = basis_state([0] * model.n_sites, model.dims)
        else:
            psi = np.asarray(initial_state, dtype=np.complex128)
        if use_dm and psi.ndim == 1:
            return np.outer(psi, psi.conj())
        return psi.copy()

    def _capture_site(self, capture: Capture) -> int:
        targets = capture.port.targets
        if len(targets) != 1:
            raise ExecutionError(
                f"capture port {capture.port.name!r} must target exactly one site"
            )
        site = targets[0]
        if site >= self.model.n_sites:
            raise ExecutionError(
                f"capture site {site} out of range for {self.model.n_sites} sites"
            )
        return site

    def _synthesize_drives(
        self, schedule: PulseSchedule
    ) -> tuple[np.ndarray, list[str]]:
        """Build the (duration, n_channels) complex drive matrix."""
        model = self.model
        duration = schedule.duration
        timelines: dict[tuple[str, str], _FrameTimeline] = {}

        def timeline(port: Port, frame: Frame) -> _FrameTimeline:
            key = (port.name, frame.name)
            if key not in timelines:
                timelines[key] = _FrameTimeline(frame, duration)
            return timelines[key]

        # Pass 1: frame events, in time order.
        for item in schedule.ordered():
            ins = item.instruction
            if isinstance(ins, SetFrequency):
                timeline(ins.port, ins.frame).set_frequency(item.t0, ins.frequency)
            elif isinstance(ins, ShiftFrequency):
                timeline(ins.port, ins.frame).shift_frequency(item.t0, ins.delta)
            elif isinstance(ins, SetPhase):
                timeline(ins.port, ins.frame).set_phase(item.t0, ins.phase)
            elif isinstance(ins, ShiftPhase):
                timeline(ins.port, ins.frame).shift_phase(item.t0, ins.delta)
            elif isinstance(ins, FrameChange):
                tl = timeline(ins.port, ins.frame)
                tl.set_frequency(item.t0, ins.frequency)
                tl.set_phase(item.t0, ins.phase)

        # Pass 2: plays, modulated by their frame timeline.
        channel_names = sorted(model.channels)
        col = {name: j for j, name in enumerate(channel_names)}
        drives = np.zeros((duration, len(channel_names)), dtype=np.complex128)
        from repro.core.port import PortKind

        for item in schedule.instructions_of(Play):
            ins = item.instruction
            if ins.port.name not in model.channels:
                if ins.port.kind is PortKind.READOUT:
                    # Readout stimulus tones do not enter the qubit
                    # Hamiltonian; their effect is the measurement model.
                    continue
                raise ExecutionError(
                    f"schedule plays on port {ins.port.name!r} which has no "
                    f"channel coupling in the system model"
                )
            ch = model.channels[ins.port.name]
            tl = timeline(ins.port, ins.frame)
            t0, t1 = item.t0, item.t1
            psi = tl.detuning_phase(ch.reference_frequency, model.dt)[t0:t1]
            phase = psi + tl.static_phase[t0:t1]
            drives[t0:t1, col[ins.port.name]] += ins.waveform.samples() * np.exp(
                1j * phase
            )
        return drives, channel_names

    def _run_hamiltonian(
        self, drive_row: np.ndarray, channel_names: list[str]
    ) -> np.ndarray:
        """Total Hamiltonian (Hz units) for one constant-drive run."""
        model = self.model
        h = model.drift.copy()
        for j, name in enumerate(channel_names):
            a = drive_row[j]
            if a == 0:
                continue
            ch = model.channels[name]
            if ch.hermitian:
                h += ch.rabi_rate * a.real * ch.operator
            else:
                half = 0.5 * ch.rabi_rate
                h += half * (
                    np.conj(a) * ch.operator + a * ch.adjoint_operator()
                )
        return h

    def _run_propagators(
        self, drives: np.ndarray, channel_names: list[str]
    ) -> list[tuple[int, np.ndarray]]:
        """``(length, U)`` per constant-drive run, via the batched engine.

        Drift-only runs (all channels zero) reuse the precomputed drift
        eigendecomposition through :func:`~repro.sim.evolve.free_propagator`;
        driven runs are stacked and diagonalized in one batched call,
        with the propagator cache short-circuiting repeated amplitudes.
        """
        runs = segment_runs(drives)
        out: list[tuple[int, np.ndarray] | None] = [None] * len(runs)
        driven_idx: list[int] = []
        driven_hs: list[np.ndarray] = []
        driven_steps: list[int] = []
        for i, (start, length) in enumerate(runs):
            row = drives[start]
            if np.all(row == 0):
                out[i] = (
                    length,
                    free_propagator(self._drift_eig, self.model.dt, length),
                )
            else:
                driven_idx.append(i)
                driven_hs.append(self._run_hamiltonian(row, channel_names))
                driven_steps.append(length)
        if driven_idx:
            hs = np.stack(driven_hs)
            steps = np.asarray(driven_steps, dtype=np.int64)
            us = self.propagator_cache.propagators(hs, self.model.dt, steps)
            for i, u in zip(driven_idx, us):
                out[i] = (runs[i][1], u)
        return out  # type: ignore[return-value]

    def _evolve(
        self,
        schedule: PulseSchedule,
        state: np.ndarray,
        use_dm: bool,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        drives, channel_names = self._synthesize_drives(schedule)
        if use_dm and self.open_system_method != "kraus":
            hs, steps = self._open_runs(drives, channel_names)
            return self.open_system.evolve(hs, steps, state, rng=rng)
        xp = active()
        if not use_dm:
            state = xp.asarray(state, dtype=xp.cdtype)
        for length, u in self._run_propagators(drives, channel_names):
            if use_dm:
                # Legacy Kraus interleave: host-resident per-run channel
                # application, so pull each propagator to the host.
                u = xp.to_host(u)
                state = u @ state @ u.conj().T
                state = self._apply_decoherence(state, length)
            else:
                state = xp.matmul(u, state)
        if not use_dm:
            state = xp.to_host(state)
        return state

    def _apply_decoherence(self, rho: np.ndarray, steps: int) -> np.ndarray:
        """Apply per-site T1/T2 Kraus channels for ``steps * dt``."""
        model = self.model
        tau = steps * model.dt
        for site, spec in enumerate(model.decoherence):
            if not spec.has_decoherence:
                continue
            kraus = self._kraus_ops(site, spec, tau)
            rho = sum(k @ rho @ k.conj().T for k in kraus)
        return rho

    def _kraus_ops(self, site: int, spec, tau: float) -> list[np.ndarray]:
        """Full-space Kraus operators for one site over time *tau*.

        Memoized on ``(site, tau)``: the operators depend on nothing
        else, and rebuilding them — including the full-space ``embed``
        calls — for every run of every execution dominated the legacy
        decoherence path. Schedules revisit the same run lengths
        constantly (flat-tops, echo delays, repeated shots), so the
        cache hits almost always after the first execution.
        """
        key = (site, float(tau))
        cached = self._kraus_cache.get(key)
        if cached is not None:
            self._kraus_cache.move_to_end(key)
            return cached
        ops = self._build_kraus_ops(site, spec, tau)
        for op in ops:
            op.flags.writeable = False  # cached: mutation would poison reuse
        self._kraus_cache[key] = ops
        while len(self._kraus_cache) > self._MAX_KRAUS_ENTRIES:
            self._kraus_cache.popitem(last=False)
        return ops

    def _build_kraus_ops(self, site: int, spec, tau: float) -> list[np.ndarray]:
        from repro.sim.operators import embed

        d = self.model.dims[site]
        ops: list[np.ndarray] = []
        # Amplitude damping: decay n -> n-1 at rate n / T1.
        if np.isfinite(spec.t1):
            gammas = [1.0 - math.exp(-n * tau / spec.t1) for n in range(1, d)]
            k0 = np.diag(
                [1.0] + [math.sqrt(1.0 - g) for g in gammas]
            ).astype(np.complex128)
            ops.append(k0)
            for n, g in enumerate(gammas, start=1):
                k = np.zeros((d, d), dtype=np.complex128)
                k[n - 1, n] = math.sqrt(g)
                ops.append(k)
        else:
            ops.append(np.eye(d, dtype=np.complex128))
        # Pure dephasing from T2 (remove the T1 contribution) — the
        # same gamma_phi convention the Lindblad engine integrates.
        rate_phi = dephasing_rate(spec)
        if rate_phi > _RATE_FLOOR:
            # 1 - 2p = exp(-rate_phi * tau): ground-state coherences
            # then decay at exactly rate_phi, so the total (with the
            # sqrt(1-gamma) factor from K0) is 1/T2 — the standard
            # convention, and the one the Lindblad engine integrates.
            p = 0.5 * (1.0 - math.exp(-rate_phi * tau))
            z = np.eye(d, dtype=np.complex128)
            z[1, 1] = -1.0
            if d > 2:
                z[2, 2] = -1.0
            damp_ops = ops
            ops = []
            for k in damp_ops:
                ops.append(math.sqrt(1.0 - p) * k)
                ops.append(math.sqrt(p) * (z @ k))
        return [embed(k, site, self.model.dims) for k in ops]
