"""Batched open-system (Lindblad) evolution — the noisy-workload engine.

With finite T1/T2 the state is a density matrix and the exact dynamics
of one constant-drive run is the Lindblad master equation

``drho/dt = -2*pi*i [H, rho] + sum_j ( C_j rho C_j^dag
- 1/2 {C_j^dag C_j, rho} )``

with *H* in Hz and the collapse operators ``C_j`` carrying their rates
(units ``1/sqrt(s)``). :class:`OpenSystemEngine` evaluates
``exp(t L) rho`` for every run exactly, by one of two methods:

* **superoperator** — vectorize the density matrix row-major
  (``vec(A rho B) = (A kron B^T) vec(rho)``), so each run is one matrix
  exponential of the ``(D^2, D^2)`` superoperator

  ``L = -2*pi*i (H kron I - I kron H^T) + sum_j ( C_j kron conj(C_j)
  - 1/2 (C_j^dag C_j kron I + I kron (C_j^dag C_j)^T) )``

  and a schedule a stack of them, exponentiated by the batched
  scaling-and-squaring Paterson-Stockmeyer
  :func:`~repro.sim.evolve.batched_expm` and memoized in the shared
  :class:`~repro.sim.evolve.PropagatorCache` (keyed on the
  *Hamiltonian* fingerprint under a dissipator-specific namespace tag).
  Building one costs ``O(D^6)``; applying a cached one ``O(D^4)``.
* **action** — never form ``L``. Keep ``rho`` a ``(D, D)`` matrix and
  apply ``L(rho) = G rho + rho G^dag + sum_j C_j rho C_j^dag`` with
  ``G = -2*pi*i (H - c I) - 1/2 sum_j C_j^dag C_j``; the shift *c*
  (midpoint of ``diag(H)``) drops out of the commutator and roughly
  halves ``||t L||``. ``exp(t L) rho`` is then a truncated Taylor
  series with scaling (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
  2011): the degree *m* and step count *s* come from their
  ``theta_m`` table and the bound ``||t L||_1 <= t (2 ||G||_1 +
  sum_j ||C_j||_1^2)``, and each step stops early once a term falls
  below rounding. Cost ``O(m s k D^3)`` for *k* collapse operators, no
  ``D^4`` memory.

With ``method="auto"`` every run whose superpropagator is cached
applies it; every other run takes whichever exact method
:meth:`OpenSystemEngine.route_costs` prices cheaper (long constant runs
at small D go dense, fresh pulse runs at D >= ~9 go to the action).
A run that keeps coming back (the drift window behind every capture,
an echo delay) is promoted to a cached superpropagator once the
action time it has cost exceeds one dense build — ski-rental, so a
recurring run never costs more than about twice its best method.

:meth:`OpenSystemEngine.evolve_trajectories` is the quantum-jump
(Monte-Carlo wave function) unraveling: kets evolve under the
non-Hermitian effective Hamiltonian ``H - i/(4*pi) * sum_j C_j^dag C_j``
and jump when the squared norm crosses a pre-drawn uniform threshold.
Its result is stochastic (error ``~1/sqrt(n_traj)``), so it runs only
when asked for by name — ``"auto"`` always returns the exact result.

Backend split: superoperator assembly, the Taylor action and the
evolution loops run on the active array backend (:mod:`repro.xp`).
Trajectory sampling, collapse-operator construction, cost-model
arithmetic and density-matrix plumbing are host-resident
(:data:`repro.xp.hostnp`).
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Sequence

from repro.errors import ValidationError
from repro.sim import evolve
from repro.sim.evolve import PropagatorCache, batched_expm
from repro.sim.model import DecoherenceSpec, SystemModel
from repro.sim.operators import annihilation, embed
from repro.xp import active
from repro.xp import hostnp as hnp

_TWO_PI = 2.0 * hnp.pi

#: Pure-dephasing rates below this (1/s) are treated as zero — matching
#: the physicality tolerance of :class:`DecoherenceSpec` (T2 = 2*T1).
_RATE_FLOOR = 1e-15

#: Al-Mohy & Higham (2011), Table 3.1 (degrees <= 30 from Higham,
#: "Functions of Matrices", Table A.3): the largest ``||A||_1`` for
#: which the degree-``m`` Taylor polynomial of ``exp(A)`` has a backward
#: error below the double-precision unit roundoff.
# fmt: off
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# fmt: on

# Cost model of the two exact methods, in seconds. Fitted on one core
# of a 2-vCPU x86-64 VM (OpenBLAS 0.3, numpy 2.4, one BLAS thread) by
# timing single runs of transmon-like generators at D = 2..27 and
# ||t L||_1 = 1..800:
#   dense build per run  ~ _DENSE_GEMM_S * (6 + squarings) * (D^2)^3
#                          + _DENSE_RUN_S
#   dense apply per use  ~ _APPLY_S * (D^2)^2 + _APPLY_STEP_S
#   action per use       ~ m * s * (_ACTION_GEMM_S * (2 k + 1) * D^3
#                          + _GATHER_S * g * D^2 + _STEP_S)
# with k the collapse operators applied by matmul and g the gathered
# index maps (see OpenSystemEngine.__init__). The model is within ~2x
# of the measurements; it only has to rank methods whose costs differ
# by more (the crossover sits near D = 8-12 for pulse-length runs,
# and D=27 fresh pulse runs differ by ~25x).
_DENSE_GEMM_S = 1.4e-10
_DENSE_RUN_S = 2.0e-5
_APPLY_S = 3.0e-10
_APPLY_STEP_S = 3.0e-6
_ACTION_GEMM_S = 1.0e-10
_GATHER_S = 1.0e-8
_STEP_S = 1.5e-5

#: Recurring-run ledger size: action cost spent per missing cache key.
_RENTAL_ENTRIES = 4096

#: Largest Taylor degree under complex64. A step's terms peak near
#: ``e^theta / sqrt(2 pi theta)`` before they decay, and that hump
#: times the unit roundoff is the step's rounding error: ~2500 u at
#: theta_55 (3e-13 in double, 3e-5 measured over 2000 complex64 steps)
#: against ~7 u at theta_30 (4e-6 in complex64).
_C64_MAX_DEGREE = 30


def taylor_parameters(norm: float, max_degree: int = 55) -> tuple[int, int]:
    """``(m, s)``: Taylor degree and step count for ``exp(A) b``.

    Minimizes the matrix-application count ``m * s`` subject to
    ``norm / s <= theta_m`` and ``m <= max_degree`` (Al-Mohy & Higham
    2011, eq. 3.11 with the plain 1-norm bound), where *norm* bounds
    ``||A||_1``.
    """
    if norm <= 0.0:
        return 0, 1
    best_m, best_s = 0, 0
    for m, theta in _THETA.items():
        if m > max_degree:
            break
        s = max(1, math.ceil(norm / theta))
        if best_m == 0 or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


def dephasing_rate(spec: DecoherenceSpec) -> float:
    """Pure-dephasing rate ``gamma_phi = 1/T2 - 1/(2*T1)`` in 1/s."""
    rate = 0.0
    if hnp.isfinite(spec.t2):
        rate = 1.0 / spec.t2 - (
            0.5 / spec.t1 if hnp.isfinite(spec.t1) else 0.0
        )
    return max(0.0, rate)


def collapse_operators(
    dims: Sequence[int], decoherence: Sequence[DecoherenceSpec]
) -> list[hnp.ndarray]:
    """Per-site T1/T2 collapse operators, embedded in the full space.

    Amplitude damping enters as ``sqrt(1/T1) * a`` (the ladder
    operator's ``sqrt(n)`` matrix elements give level *n* the decay
    rate ``n/T1``); pure dephasing as ``sqrt(gamma_phi/2) * Z`` with
    ``Z = diag(1, -1, ..., -1)`` — levels >= 1 pick up the phase flip,
    matching the discriminator convention of the legacy Kraus path —
    so coherences to the ground state decay at exactly ``1/T2``.
    """
    if decoherence and len(decoherence) != len(dims):
        raise ValidationError(
            "decoherence must list one spec per site when provided"
        )
    ops: list[hnp.ndarray] = []
    for site, spec in enumerate(decoherence):
        if not spec.has_decoherence:
            continue
        d = dims[site]
        if hnp.isfinite(spec.t1):
            ops.append(
                embed(annihilation(d) / hnp.sqrt(spec.t1), site, dims)
            )
        rate_phi = dephasing_rate(spec)
        if rate_phi > _RATE_FLOOR:
            z = -hnp.eye(d, dtype=hnp.complex128)
            z[0, 0] = 1.0
            ops.append(embed(hnp.sqrt(0.5 * rate_phi) * z, site, dims))
    return ops


def as_density(state: hnp.ndarray, dim: int) -> hnp.ndarray:
    """Coerce a ket or density matrix to a ``(dim, dim)`` density matrix.

    Kets are normalized first, so unnormalized initial states behave
    the same on every open-system entry point.
    """
    state = hnp.asarray(state, dtype=hnp.complex128)
    if state.ndim == 1:
        if state.shape != (dim,):
            raise ValidationError(
                f"ket length {state.shape[0]} does not match D={dim}"
            )
        norm = hnp.linalg.norm(state)
        if norm == 0:
            raise ValidationError("cannot evolve a zero state")
        psi = state / norm
        return hnp.outer(psi, psi.conj())
    if state.ndim != 2 or state.shape != (dim, dim):
        raise ValidationError(
            f"state shape {state.shape} does not match D={dim}"
        )
    return state


def vectorize_density(rho: hnp.ndarray) -> hnp.ndarray:
    """Row-major ``vec(rho)`` of a ``(D, D)`` density matrix."""
    rho = hnp.asarray(rho, dtype=hnp.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(
            f"density matrix must be square, got shape {rho.shape}"
        )
    return rho.reshape(-1)


def unvectorize_density(vec: hnp.ndarray, dim: int) -> hnp.ndarray:
    """Inverse of :func:`vectorize_density`."""
    vec = hnp.asarray(vec, dtype=hnp.complex128)
    if vec.shape != (dim * dim,):
        raise ValidationError(
            f"vectorized state has shape {vec.shape}, want ({dim * dim},)"
        )
    return vec.reshape(dim, dim)


def dissipator_superoperator(
    collapse_ops: Sequence[hnp.ndarray], dim: int
) -> hnp.ndarray:
    """The drive-independent dissipator ``sum_j D[C_j]`` as a matrix.

    Row-major vectorization: ``D[C] = C kron conj(C)
    - 1/2 (C^dag C kron I + I kron (C^dag C)^T)``. Rates are carried by
    the operators themselves (1/s), so the result is in 1/s — no
    ``2*pi``. Built once per noise model on the host (a small
    per-operator kron loop, not a batched hot path).
    """
    eye = hnp.eye(dim, dtype=hnp.complex128)
    out = hnp.zeros((dim * dim, dim * dim), dtype=hnp.complex128)
    for c in collapse_ops:
        c = hnp.asarray(c, dtype=hnp.complex128)
        if c.shape != (dim, dim):
            raise ValidationError(
                f"collapse operator shape {c.shape} does not match D={dim}"
            )
        cdc = c.conj().T @ c
        out += hnp.kron(c, c.conj())
        out -= 0.5 * (hnp.kron(cdc, eye) + hnp.kron(eye, cdc.T))
    return out


def hamiltonian_superoperators(hamiltonians) -> hnp.ndarray:
    """``-2*pi*i (H kron I - I kron H^T)`` for a ``(n, D, D)`` stack."""
    xp = active()
    hs = xp.asarray(hamiltonians, dtype=xp.cdtype)
    if hs.ndim != 3 or hs.shape[1] != hs.shape[2]:
        raise ValidationError(
            f"Hamiltonian stack must have shape (n, D, D), got {hs.shape}"
        )
    n, dim = hs.shape[0], hs.shape[1]
    eye = xp.eye(dim, dtype=xp.cdtype)
    # Row-major composite index (i, j), (k, l):
    #   (H kron I)[ij, kl]   = H[i, k] * I[j, l]
    #   (I kron H^T)[ij, kl] = I[i, k] * H[l, j]
    left = xp.einsum("nik,jl->nijkl", hs, eye)
    right = xp.einsum("ik,nlj->nijkl", eye, hs)
    return (-1j * _TWO_PI) * (left - right).reshape(n, dim * dim, dim * dim)


def lindblad_superoperators(
    hamiltonians,
    collapse_ops: Sequence[hnp.ndarray],
    *,
    dissipator: hnp.ndarray | None = None,
) -> hnp.ndarray:
    """Full Lindblad generator stack ``(n, D^2, D^2)`` in 1/s.

    *dissipator* short-circuits the (drive-independent) dissipator
    assembly when the caller has it precomputed.
    """
    xp = active()
    ls = hamiltonian_superoperators(hamiltonians)
    if dissipator is None:
        dissipator = dissipator_superoperator(
            collapse_ops, hnp.asarray(hamiltonians).shape[1]
        )
    ls += xp.asarray(dissipator, dtype=xp.cdtype)
    return ls


def batched_superpropagators(
    hamiltonians,
    collapse_ops: Sequence[hnp.ndarray],
    dt: float,
    steps=1,
    *,
    method: str = "auto",
    dissipator: hnp.ndarray | None = None,
) -> hnp.ndarray:
    """``exp(L_k * dt * steps_k)`` for a stack of constant-drive runs.

    The open-system analogue of
    :func:`~repro.sim.evolve.batched_propagators`: one
    ``(n, D^2, D^2)`` stack of completely positive trace-preserving
    maps, evaluated with batched matmuls (*method* as in
    :func:`~repro.sim.evolve.batched_expm`) on the active backend.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    steps_arr = hnp.asarray(steps)
    if hnp.any(steps_arr < 1):
        raise ValidationError("steps must be >= 1")
    ls = lindblad_superoperators(
        hamiltonians, collapse_ops, dissipator=dissipator
    )
    return batched_expm(
        ls, scale=dt * steps_arr.astype(hnp.float64), method=method
    )


class OpenSystemEngine:
    """Batched density-matrix evolution for one decoherence model.

    Owns the collapse operators, the dissipator (built on the first
    dense build), a
    :class:`~repro.sim.evolve.PropagatorCache` whose entries are the
    run superpropagators (keyed on the run-Hamiltonian fingerprint
    under a dissipator-specific namespace), and the ski-rental ledger
    of recurring runs. One engine instance serves every schedule
    executed against the same :class:`~repro.sim.model.SystemModel`.

    Parameters
    ----------
    dims, decoherence, dt:
        The system geometry, per-site T1/T2, and sample period.
    cache:
        Optional shared propagator cache (a private one is created
        otherwise).
    method:
        ``"auto"`` (default) — exact: cached superpropagators where
        present, otherwise the cheaper of the two exact methods by
        :meth:`route_costs`, with recurring runs promoted to cached
        superpropagators; ``"superoperator"`` — always the dense
        ``(D^2, D^2)`` propagators (cached); ``"action"`` — always the
        Taylor action, never a ``D^4`` array; ``"trajectories"`` —
        quantum-jump sampling (stochastic, memory ``O(D)``).
    trajectories:
        Trajectory count for the sampling path.
    collapse_ops:
        Explicit collapse operators overriding the per-site T1/T2
        construction — for engines over hand-built noise models (e.g.
        the GRAPE noisy objective).
    """

    METHODS = ("auto", "superoperator", "action", "trajectories")

    def __init__(
        self,
        dims: Sequence[int],
        decoherence: Sequence[DecoherenceSpec],
        dt: float,
        *,
        cache: PropagatorCache | None = None,
        method: str = "auto",
        trajectories: int = 512,
        collapse_ops: Sequence[hnp.ndarray] | None = None,
    ) -> None:
        if method not in self.METHODS:
            raise ValidationError(
                f"method must be one of {self.METHODS}, got {method!r}"
            )
        if dt <= 0:
            raise ValidationError(f"dt must be > 0, got {dt}")
        if trajectories < 1:
            raise ValidationError(
                f"trajectories must be >= 1, got {trajectories}"
            )
        self.dims = tuple(int(d) for d in dims)
        self.dim = int(hnp.prod(self.dims))
        self.dt = float(dt)
        self.method = method
        self.trajectories = int(trajectories)
        if collapse_ops is not None:
            self.collapse_ops = [
                hnp.asarray(c, dtype=hnp.complex128) for c in collapse_ops
            ]
        else:
            self.collapse_ops = collapse_operators(self.dims, decoherence)
        # The (D^2, D^2) dissipator is built on the first dense build:
        # an engine that only ever takes the action path (D=64: 268 MB
        # per superoperator) never materializes it.
        self._dissipator: hnp.ndarray | None = None
        # sum_j C_j^dag C_j: the anti-Hermitian part of the effective
        # Hamiltonian on the trajectory path and of G on the action
        # path, and the jump weights.
        self._jump_rates = sum(
            (c.conj().T @ c for c in self.collapse_ops),
            hnp.zeros((self.dim, self.dim), dtype=hnp.complex128),
        )
        # The action path applies every collapse operator with at most
        # one nonzero per row (ladder and diagonal operators: all the
        # per-site T1/T2 channels) as a gather, (C rho C^dag)[i, j] =
        # c_i conj(c_j) rho[p_i, p_j] with C[i, p_i] = c_i; operators
        # sharing the index map p merge into one weight. Any other
        # operator stays a pair of matmuls.
        gathers: dict[bytes, tuple] = {}
        dense: list[hnp.ndarray] = []
        for c in self.collapse_ops:
            nonzero = c != 0
            if nonzero.sum(axis=1).max(initial=0) > 1:
                dense.append(c)
                continue
            cols = nonzero.argmax(axis=1)
            coef = c[hnp.arange(self.dim), cols]
            weight = hnp.outer(coef, coef.conj())
            key = cols.tobytes()
            if key in gathers:
                weight = weight + gathers[key][1]
            gathers[key] = (cols, weight)
        self._gather_index = hnp.array(
            [cols for cols, _ in gathers.values()], dtype=hnp.int64
        ).reshape(-1, self.dim)
        self._gather_weight = hnp.array(
            [w for _, w in gathers.values()], dtype=hnp.complex128
        ).reshape(-1, self.dim, self.dim)
        self._jump_ops = hnp.array(dense, dtype=hnp.complex128).reshape(
            -1, self.dim, self.dim
        )
        # sum_j ||C_j kron conj(C_j)||_1 = sum_j ||C_j||_1^2: the
        # collapse part of the ||L||_1 bound.
        self._collapse_norm = float(
            sum(hnp.abs(c).sum(axis=0).max() ** 2 for c in self.collapse_ops)
        )
        # Cache namespace: same Hamiltonian, different T1/T2 must not
        # share superpropagators. The collapse operators determine the
        # dissipator, so their bytes key it.
        digest = hashlib.blake2b(str(self.dim).encode(), digest_size=8)
        for c in self.collapse_ops:
            digest.update(hnp.ascontiguousarray(c).tobytes())
        self._tag = "lindblad:" + digest.hexdigest()
        self.cache = cache if cache is not None else PropagatorCache()
        # Ski-rental ledger: modeled action seconds each uncached run
        # has cost so far, LRU-bounded.
        self._rented: OrderedDict[tuple, float] = OrderedDict()
        self._rented_lock = threading.Lock()

    @classmethod
    def from_model(cls, model: SystemModel, **kwargs) -> "OpenSystemEngine":
        """Engine for *model*'s dims / decoherence / sample period."""
        return cls(model.dims, model.decoherence, model.dt, **kwargs)

    # ---- superoperator path ------------------------------------------------------

    def superpropagators(self, hamiltonians, steps=1):
        """Cached ``exp(L_k * dt * steps_k)`` stack for the runs."""
        return self.cache.propagators(
            hamiltonians,
            self.dt,
            steps,
            compute=self._build_superpropagators,
            tag=self._tag,
        )

    def _build_superpropagators(self, hs, dt, steps):
        if self._dissipator is None:
            self._dissipator = dissipator_superoperator(
                self.collapse_ops, self.dim
            )
        return batched_superpropagators(
            hs, self.collapse_ops, dt, steps, dissipator=self._dissipator
        )

    # ---- action path -------------------------------------------------------------

    def _generators(self, hs):
        """``G_k`` for a Hamiltonian stack, and ``||L_k||_1`` bounds.

        ``G = -2*pi*i (H - c I) - 1/2 sum_j C_j^dag C_j`` with *c* the
        midpoint of ``diag(H)``; returns the backend ``(n, D, D)`` stack
        and the host ``(n,)`` bounds ``2 ||G||_1 + sum_j ||C_j||_1^2``
        (in 1/s) on the superoperator 1-norm.
        """
        xp = active()
        diag = xp.to_host(xp.real(xp.einsum("kii->ki", hs)))
        mid = 0.5 * (diag.max(axis=1) + diag.min(axis=1))
        gs = (-1j * _TWO_PI) * hs
        gs -= xp.asarray(0.5 * self._jump_rates, dtype=xp.cdtype)
        idx = hnp.arange(self.dim)
        gs[:, idx, idx] += xp.asarray((1j * _TWO_PI) * mid, dtype=xp.cdtype)[
            :, None
        ]
        g_norm = xp.to_host(xp.amax(xp.sum(xp.abs(gs), axis=1), axis=1))
        return gs, 2.0 * g_norm + self._collapse_norm

    @staticmethod
    def _max_degree() -> int:
        return _C64_MAX_DEGREE if active().policy.cname == "complex64" else 55

    def _expmv(self, gs, durations, rhos, m: int, s: int):
        """``exp(t_k L_k) rho_k`` by truncated Taylor with *s* steps.

        *gs* holds the unscaled generators from :meth:`_generators`,
        *durations* the host ``(n,)`` run lengths in seconds, and every
        ``||t_k L_k||_1 / s`` must lie within ``theta_m``. A step ends
        early once two consecutive terms fall below the working
        precision's unit roundoff relative to the partial sum.
        """
        xp = active()
        tol = 2.0**-24 if xp.policy.cname == "complex64" else 2.0**-53
        # Split rho into Hermitian parts (rho = A + iB; L is linear and
        # maps Hermitian to Hermitian) so every term stays Hermitian:
        # then b G^dag = (G b)^dag and the commutator and
        # anticommutator parts of L cost one matmul.
        herm = 0.5 * (rhos + xp.adjoint(rhos))
        anti = (-0.5j) * (rhos - xp.adjoint(rhos))
        n = rhos.shape[0]
        size = float(xp.to_host(xp.amax(xp.abs(herm))))
        split = float(xp.to_host(xp.amax(xp.abs(anti)))) > tol * size
        h = durations / s
        if split:
            b = xp.stack([herm, anti]).reshape((2 * n,) + tuple(rhos.shape[1:]))
            gs = xp.stack([gs, gs]).reshape(b.shape)
            h = hnp.concatenate([h, h])
        else:
            b = herm
        rates = xp.asarray(h, dtype=xp.cdtype)[:, None, None]
        gs = gs * rates
        rows = self._gather_index[:, :, None]
        cols = self._gather_index[:, None, :]
        weights = rates[:, None] * xp.asarray(self._gather_weight, dtype=xp.cdtype)
        if self._jump_ops.shape[0]:
            ops = xp.asarray(self._jump_ops, dtype=xp.cdtype)[:, None]
            ops_adj = xp.ascontiguousarray(xp.adjoint(ops))

        def generator(b):
            x = xp.matmul(gs, b)
            out = x + xp.adjoint(x)
            out += xp.sum(weights * b[:, rows, cols], axis=1)
            if self._jump_ops.shape[0]:
                jumps = xp.matmul(xp.matmul(ops, b), ops_adj)
                out += rates * xp.sum(jumps, axis=0)
            return out

        def inf_norm(a):
            return xp.to_host(xp.amax(xp.abs(a), axis=(1, 2)))

        f = b  # fresh arrays: safe to accumulate in place
        for _ in range(s):
            c1 = inf_norm(b)
            # ||f|| <= bound: the stopping test needs ||f|| itself only
            # once the terms are small enough to pass against the bound.
            bound = c1
            for j in range(1, m + 1):
                b = generator(b)
                b *= 1.0 / j
                c2 = inf_norm(b)
                f += b
                bound = bound + c2
                small = c1 + c2 <= tol * bound
                if hnp.all(small) and hnp.all(c1 + c2 <= tol * inf_norm(f)):
                    break
                c1 = c2
            b = f
        if split:
            return f[:n] + 1j * f[n:]
        return f

    # ---- routing -----------------------------------------------------------------

    def route_costs(self, norm: float, uses: int = 1) -> tuple[float, float, float]:
        """Modeled seconds ``(build, apply, action)`` for one run.

        *norm* bounds ``||t L||_1`` for the run and *uses* is how often
        it is applied. ``build`` is one dense superpropagator
        (Paterson-Stockmeyer plus squarings at ``D^6`` per matmul),
        ``apply`` is *uses* dense ``D^4`` matrix-vector products, and
        ``action`` is *uses* Taylor actions of ``m * s`` generator
        applications each. Constants: see the module's cost-model
        comment.
        """
        d2 = self.dim * self.dim
        squarings = max(0, math.ceil(math.log2(max(norm, 1e-300) / 0.7)))
        build = _DENSE_GEMM_S * (6 + squarings) * d2**3 + _DENSE_RUN_S
        apply = uses * (_APPLY_S * d2 * d2 + _APPLY_STEP_S)
        m, s = taylor_parameters(norm, self._max_degree())
        per_step = (
            _ACTION_GEMM_S * (2 * self._jump_ops.shape[0] + 1) * self.dim**3
            + _GATHER_S * self._gather_index.shape[0] * self.dim**2
            + _STEP_S
        )
        action = uses * m * s * per_step
        return build, apply, action

    def _route(self, hs, steps, method: str):
        """``(props, plan)``: how each run of a flat run stack evolves.

        ``props[k]`` is run *k*'s dense superpropagator (cached or
        built here) or ``None``; ``plan[k]`` is ``(G_k, t_k, m, s)``
        for every ``None`` run, which takes the Taylor action.
        """
        n = hs.shape[0]
        if method == "superoperator":
            return list(self.superpropagators(hs, steps)), {}
        props: list = [None] * n
        if method == "action":
            groups = [[k] for k in range(n)]
        else:
            keys = self.cache.keys(hs, self.dt, steps, tag=self._tag)
            props = self.cache.lookup(keys)
            misses: OrderedDict[tuple, list[int]] = OrderedDict()
            for k, (key, u) in enumerate(zip(keys, props)):
                if u is None:
                    misses.setdefault(key, []).append(k)
            groups = list(misses.values())
        if not groups:
            return props, {}
        firsts = [runs[0] for runs in groups]
        gs, bounds = self._generators(hs[firsts])
        durations = self.dt * steps[firsts].astype(hnp.float64)
        norms = bounds * durations
        built: list[int] = []
        if method == "auto":
            built = self._promotions(
                [keys[k] for k in firsts], norms, [len(r) for r in groups]
            )
        if built:
            fresh = self._build_superpropagators(
                hs[[firsts[g] for g in built]],
                self.dt,
                steps[[firsts[g] for g in built]],
            )
            for u, g in zip(fresh, built):
                u = self.cache.insert(keys[firsts[g]], u)
                for k in groups[g]:
                    props[k] = u
        plan = {}
        max_degree = self._max_degree()
        for g, runs in enumerate(groups):
            if props[runs[0]] is None:
                m, s = taylor_parameters(float(norms[g]), max_degree)
                for k in runs:
                    plan[k] = (gs[g], float(durations[g]), m, s)
        return props, plan

    def _promotions(self, keys, norms, uses) -> list[int]:
        """Indices of the uncached runs to build dense superpropagators for.

        A run is built when the model prices a dense build plus its
        *uses* applications below its Taylor actions, or — ski-rental —
        when the action time it has already cost plus this call's would
        reach one build. Entries too large for the cache budget are
        never built: they would be evicted at once.
        """
        entry_bytes = self.dim**4 * hnp.dtype(active().policy.cname).itemsize
        if entry_bytes > evolve.CACHE_BUDGET_BYTES:
            return []
        built = []
        with self._rented_lock:
            for g, (key, norm, count) in enumerate(zip(keys, norms, uses)):
                build, apply, action = self.route_costs(float(norm), count)
                spent = self._rented.pop(key, 0.0)
                if build + apply <= action or spent + action >= build:
                    built.append(g)
                    continue
                self._rented[key] = spent + action
                while len(self._rented) > _RENTAL_ENTRIES:
                    self._rented.popitem(last=False)
        return built

    # ---- exact evolution ---------------------------------------------------------

    def evolve_runs(
        self, runs, rho, *, method: str | None = None
    ) -> list[hnp.ndarray]:
        """Exact Lindblad evolution of *rho* through each run list.

        *runs* is a sequence of ``(hamiltonians, steps)`` pairs — one
        schedule's ``(n_i, D, D)`` run Hamiltonians (Hz) and their
        lengths in samples — and every schedule starts from the same
        *rho* (ket or density matrix). Returns one host ``(D, D)``
        complex128 density matrix per schedule.

        All runs of all schedules are routed together (cache lookups,
        the cost model, ski-rental promotion, dense builds in one
        batched call), then the states advance run position by run
        position: cached/dense runs as ``D^4`` matrix-vector products,
        action runs stacked across schedules by step count.
        *method* overrides the engine default (``"auto"``,
        ``"superoperator"`` or ``"action"``).
        """
        method = method or self.method
        if method not in ("auto", "superoperator", "action"):
            raise ValidationError(
                f"exact evolution takes 'auto', 'superoperator' or "
                f"'action', got {method!r}"
            )
        xp = active()
        dim = self.dim
        rho = self._as_density(rho)
        lengths, hs_list, steps_list = [], [], []
        for hamiltonians, steps in runs:
            hs = hnp.asarray(xp.to_host(hamiltonians), dtype=hnp.complex128)
            if hs.ndim != 3 or hs.shape[1:] != (dim, dim):
                raise ValidationError(
                    f"Hamiltonian stack shape {hs.shape} does not match "
                    f"(n, {dim}, {dim})"
                )
            steps_in = hnp.asarray(steps)
            if hnp.any(steps_in != hnp.round(steps_in)):
                raise ValidationError(f"steps must be integral, got {steps}")
            steps_arr = hnp.broadcast_to(
                steps_in.astype(hnp.int64), (hs.shape[0],)
            )
            if hnp.any(steps_arr < 1):
                raise ValidationError("steps must be >= 1")
            lengths.append(hs.shape[0])
            hs_list.append(hs)
            steps_list.append(steps_arr)
        if not lengths:
            return []
        offsets = hnp.concatenate(([0], hnp.cumsum(lengths)))
        flat_hs = xp.asarray(hnp.concatenate(hs_list), dtype=xp.cdtype)
        flat_steps = hnp.concatenate(steps_list)
        props, plan = (
            self._route(flat_hs, flat_steps, method)
            if flat_steps.size
            else ([], None)
        )
        states = xp.asarray(
            hnp.broadcast_to(rho, (len(lengths), dim, dim)), dtype=xp.cdtype
        )
        states = xp.copy(states)
        for r in range(max(lengths)):
            groups: dict[int, list[tuple[int, int]]] = {}
            for i, length in enumerate(lengths):
                if r >= length:
                    continue
                k = int(offsets[i]) + r
                if props[k] is not None:
                    vec = xp.matmul(props[k], states[i].reshape(dim * dim))
                    states[i] = vec.reshape(dim, dim)
                else:
                    groups.setdefault(plan[k][3], []).append((i, k))
            for s, members in groups.items():
                rows = [i for i, _ in members]
                entries = [plan[k] for _, k in members]
                states[rows] = self._expmv(
                    xp.stack([e[0] for e in entries]),
                    hnp.array([e[1] for e in entries]),
                    states[rows],
                    max(e[2] for e in entries),
                    s,
                )
        host = hnp.asarray(xp.to_host(states), dtype=hnp.complex128)
        return list(host)

    def evolve_density_matrix(
        self, hamiltonians, steps, rho, *, method: str | None = None
    ) -> hnp.ndarray:
        """Exact Lindblad evolution of *rho* through one run stack.

        One-schedule form of :meth:`evolve_runs`.
        """
        return self.evolve_runs([(hamiltonians, steps)], rho, method=method)[0]

    # ---- trajectory path ---------------------------------------------------------

    def evolve_trajectories(
        self,
        hamiltonians,
        steps,
        state,
        *,
        n_trajectories: int | None = None,
        rng: hnp.random.Generator | None = None,
    ) -> hnp.ndarray:
        """Quantum-jump estimate of the final density matrix.

        Every trajectory evolves under the per-run non-unitary
        no-jump propagators ``exp((-2*pi*i*H - 1/2 sum_j C_j^dag C_j)
        * dt)`` (one batched exponential for the whole run stack,
        shared by all trajectories) and jumps — channel drawn
        proportionally to ``||C_j psi||^2`` — whenever its squared
        norm falls below a pre-drawn uniform threshold. Jump timing is
        resolved to one sample, so the estimate carries an ``O(dt)``
        bias on top of the ``1/sqrt(n_traj)`` statistical error.

        Host-resident except the batched no-jump exponential: the
        per-sample threshold checks and RNG-driven jumps are scalar
        control flow, the opposite of the backend's batched-GEMM sweet
        spot, so the ket ensemble stays on the host.
        """
        hs = hnp.asarray(hamiltonians, dtype=hnp.complex128)
        if hs.ndim != 3 or hs.shape[1:] != (self.dim, self.dim):
            raise ValidationError(
                f"Hamiltonian stack shape {hs.shape} does not match "
                f"(n, {self.dim}, {self.dim})"
            )
        steps_arr = hnp.broadcast_to(
            hnp.asarray(steps, dtype=hnp.int64), (hs.shape[0],)
        )
        if hnp.any(steps_arr < 1):
            raise ValidationError("steps must be >= 1")
        m = int(n_trajectories or self.trajectories)
        if m < 1:
            raise ValidationError(f"n_trajectories must be >= 1, got {m}")
        if rng is None:
            rng = hnp.random.default_rng()
        # One no-jump propagator per run, one dt substep each — the
        # only batched kernel on this path, so it runs on the backend
        # and the resulting small (n, D, D) stack moves to the host.
        generators = -1j * _TWO_PI * hs - 0.5 * self._jump_rates[None]
        no_jump = active().to_host(batched_expm(generators, scale=self.dt))
        psis = self._initial_trajectories(state, m, rng)
        thresholds = rng.uniform(size=m)
        for k in range(hs.shape[0]):
            u_t = no_jump[k].T.copy()
            for _ in range(int(steps_arr[k])):
                psis = psis @ u_t
                norms2 = hnp.einsum("ti,ti->t", psis.conj(), psis).real
                jumped = hnp.nonzero(norms2 <= thresholds)[0]
                for t in jumped:
                    psis[t] = self._apply_jump(psis[t], rng)
                    thresholds[t] = rng.uniform()
        norms2 = hnp.einsum("ti,ti->t", psis.conj(), psis).real
        weighted = psis / hnp.sqrt(hnp.maximum(norms2, 1e-300))[:, None]
        return hnp.einsum("ti,tj->ij", weighted, weighted.conj()) / m

    def _apply_jump(
        self, psi: hnp.ndarray, rng: hnp.random.Generator
    ) -> hnp.ndarray:
        """Collapse *psi* through one jump channel; returns unit norm."""
        weights = hnp.array(
            [hnp.linalg.norm(c @ psi) ** 2 for c in self.collapse_ops]
        )
        total = weights.sum()
        if total <= 0:
            # Numerically no channel applies (norm decayed through the
            # threshold by rounding alone): keep the renormalized state.
            return psi / hnp.linalg.norm(psi)
        choice = rng.choice(len(self.collapse_ops), p=weights / total)
        jumped = self.collapse_ops[choice] @ psi
        return jumped / hnp.linalg.norm(jumped)

    def _initial_trajectories(
        self, state: hnp.ndarray, m: int, rng: hnp.random.Generator
    ) -> hnp.ndarray:
        """``(m, D)`` start kets; mixed states sample their eigenbasis."""
        state = hnp.asarray(state, dtype=hnp.complex128)
        if state.ndim == 1:
            if state.shape != (self.dim,):
                raise ValidationError(
                    f"ket length {state.shape[0]} does not match D={self.dim}"
                )
            psi = state / hnp.linalg.norm(state)
            return hnp.tile(psi, (m, 1))
        rho = self._as_density(state)
        evals, evecs = hnp.linalg.eigh(rho)
        evals = hnp.clip(evals.real, 0.0, None)
        evals /= evals.sum()
        picks = rng.choice(self.dim, size=m, p=evals)
        return evecs.T[picks].astype(hnp.complex128)

    # ---- dispatch ----------------------------------------------------------------

    def evolve(
        self,
        hamiltonians,
        steps,
        state,
        *,
        rng: hnp.random.Generator | None = None,
        method: str | None = None,
    ) -> hnp.ndarray:
        """Evolve *state* (ket or density matrix) through the runs.

        Returns a density matrix either way. *method* overrides the
        engine default for this call; only ``"trajectories"`` samples
        (with *rng*), every other method is exact.
        """
        method = method or self.method
        if method == "trajectories":
            return self.evolve_trajectories(
                hamiltonians, steps, state, rng=rng
            )
        if method not in self.METHODS:
            raise ValidationError(f"unknown open-system method {method!r}")
        return self.evolve_density_matrix(
            hamiltonians, steps, state, method=method
        )

    def _as_density(self, state: hnp.ndarray) -> hnp.ndarray:
        return as_density(state, self.dim)
