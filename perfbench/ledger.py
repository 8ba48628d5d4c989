"""Per-layer ledger: timing wrappers installed from outside the program.

For a traced run, :class:`Ledger` replaces each layer's public entry
points with a wrapper that records the call's *self time* (its
duration minus the time spent in nested wrapped calls on the same
thread) under the layer's name. A name is patched where callers look
it up: methods on their defining class, module functions in every
loaded ``repro`` module that holds the function under that name.
:meth:`Ledger.uninstall` puts every original object back, so untraced
runs never carry a wrapper.

The benchmark's own request call is the root span; its self time is
the part of the request that no layer claims, which gives
``ledger.coverage``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, owner, attribute). An owner is ``"module"`` or
#: ``"module:Class"``; the attribute is a function or method.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("api.bind", "repro.api.executable:Executable", "bind"),
    ("api.dispatch", "repro.api.executable:Executable", "run"),
    ("api.dispatch", "repro.api.executable:Executable", "run_async"),
    ("api.compile", "repro.api", "compile"),
    ("api.compile", "repro.api.executable:Executable", "compile"),
    ("api.compile", "repro.api.executable:Executable", "prepare"),
    ("api.compile", "repro.api.core", "compile_payload"),
    ("api.specialize", "repro.api.executable:Executable", "specialize"),
    ("api.specialize", "repro.api.executable:_ScheduleTemplate", "specialize"),
    ("client.adapter", "repro.api.core", "adapter_payload"),
    ("client.adapter", "repro.client.adapters:QPIAdapter", "to_payload"),
    ("client.adapter", "repro.client.adapters:CircuitAdapter", "to_payload"),
    ("client.adapter", "repro.client.adapters:QASM3Adapter", "to_payload"),
    ("client.adapter", "repro.client.adapters:QIRAdapter", "to_payload"),
    ("client.adapter", "repro.client.adapters:PulseIRAdapter", "to_payload"),
    ("client.dispatch", "repro.client.client:MQSSClient", "execute_compiled"),
    ("compiler.cache_key", "repro.compiler.jit:JITCompiler", "compose_cache_key"),
    ("compiler.cache_key", "repro.compiler.jit:JITCompiler", "payload_fingerprint"),
    ("compiler.cache_key", "repro.compiler.jit:JITCompiler", "cache_key"),
    ("compiler.jit", "repro.compiler.jit:JITCompiler", "_compile_cold"),
    ("qdmi.submit", "repro.devices.base:SimulatedDevice", "submit_job"),
    ("sim.execute", "repro.sim.executor:ScheduleExecutor", "execute"),
    ("sim.execute_batch", "repro.sim.executor:ScheduleExecutor", "execute_batch"),
    ("sim.measurement", "repro.sim.executor:ScheduleExecutor", "_finalize"),
    ("sim.measurement", "repro.sim.executor:ScheduleExecutor", "_finalize_family"),
    ("sim.propagator_cache", "repro.sim.evolve:PropagatorCache", "propagators"),
    ("sim.propagator_cache", "repro.sim.evolve", "hamiltonian_fingerprint"),
    ("sim.propagators", "repro.sim.evolve", "batched_propagators"),
    ("sim.propagators", "repro.sim.evolve", "free_propagator"),
    ("sim.superop", "repro.sim.open_system:OpenSystemEngine", "superpropagators"),
    ("sim.superop", "repro.sim.open_system", "batched_superpropagators"),
    ("sim.superop", "repro.sim.open_system", "lindblad_superoperators"),
    ("primitives.estimator", "repro.primitives.estimator:Estimator", "run"),
    ("serving.admit", "repro.serving.service:PulseService", "_admit_request"),
    ("serving.execute", "repro.serving.service:PulseService", "_execute_group"),
)

#: Patched names whose call count is reported, under this metric name.
COUNTED = {
    ("repro.compiler.jit:JITCompiler", "_compile_cold"): "compiler.jit_calls",
    ("repro.sim.evolve", "hamiltonian_fingerprint"): "sim.fingerprint_calls",
}

ROOT = "request"
#: Every layer name, and every counter name, a traced run reports.
LAYERS = tuple(sorted({layer for layer, _, _ in PATCHES}))
COUNTS = tuple(sorted(COUNTED.values()))


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


class Ledger:
    """Self time and call counts per layer, across threads."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, counter: str | None = None):
        """*fn* wrapped to record its self time under *layer*."""
        stack_of = self._stack
        lock = self._lock
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    self_s[layer] += elapsed - frame[0]
                    if counter is not None:
                        calls[counter] += 1

        traced.__perfbench_original__ = fn
        return traced

    def root(self, fn):
        """*fn* as the request root: its self time is unattributed."""
        return self.wrap(ROOT, fn)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every entry of :data:`PATCHES` (idempotent per ledger)."""
        if self._saved:
            raise RuntimeError("ledger already installed")
        for layer, owner, attr in PATCHES:
            target = _resolve(owner)
            counter = COUNTED.get((owner, attr))
            if isinstance(target, type):
                self._patch_method(layer, target, attr, counter)
            else:
                self._patch_function(layer, target, attr, counter)

    def _patch_method(
        self, layer: str, cls: type, attr: str, counter: str | None
    ) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__, counter))
        else:
            new = self.wrap(layer, raw, counter)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_function(
        self, layer: str, module, attr: str, counter: str | None
    ) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(layer, original, counter)
        # Every module that imported the function by name looks it up
        # in its own namespace.
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def installed_wrappers() -> list[str]:
    """Names in ``repro`` that still hold a ledger wrapper (for tests)."""
    found = []
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    fn = getattr(cvalue, "__func__", cvalue)
                    if hasattr(fn, "__perfbench_original__"):
                        found.append(f"{name}.{attr}.{cattr}")
    return found
