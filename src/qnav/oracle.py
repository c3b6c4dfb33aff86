"""Brute-force verification by direct time evolution.

Samples the transfer fidelity f(t) = |<psi_f| e^{-i h t} |psi_i>|^2 on a
uniform grid, brackets the first lobe that clears a coarse detection
threshold, and refines the lobe peak by golden-section search. Nothing
here touches the trigonometric navigator formulas; this module exists
to check them from the outside. Solvers run checked_control; the CLI's
oracle block runs passage_check, and `verify` result_checks.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    HermitianOperator,
    _as_square_complex,
    expm_unitary,
    hs_trace_product,
    spectral_span,
)
from .minimize import golden_min

# coarse bracketing threshold; confirmation is also the solution fidelity bound
DETECT_THRESHOLD = 1.0 - 1e-6
CONFIRM_THRESHOLD = 1.0 - 1e-9
REFINE_XTOL = 1e-12
# largest sampled grid (t_max/dt + 1 points); a bigger one is refused before allocation
MAX_ORACLE_SAMPLES = 10**7

ORACLE_TIME_TOL = 1e-6  # largest |t_first - tau| at which passage_check agrees
HERMITIAN_TOL = 1e-10  # anti-Hermitian drift of a result read back by `verify`
BUDGET_TOL = 1e-9
TRACELESS_TOL = 1e-10
DECOMP_TOL = 1e-10
GATE_RELATION_TOL = 1e-9

__all__ = [
    "MAX_ORACLE_SAMPLES",
    "PassageResult",
    "Check",
    "first_passage",
    "passage_check",
    "fidelity_curve",
    "gate_mismatch",
    "solution_checks",
    "result_checks",
    "checked_control",
]


@dataclass(frozen=True)
class PassageResult:
    """First-passage detection outcome.

    t_first is the refined peak time of the first confirming lobe, or
    infinity when no lobe confirms within t_max. peak_fidelity is the
    best refined fidelity seen either way.
    """

    t_first: float
    peak_fidelity: float
    reached: bool


def _sample_step(span):
    """The oracle's grid step for the eigenvalue spread span; None for a flat spectrum."""
    return math.pi * 1e-3 / span if span > 1e-12 else None


def _default_steps(h, t_max, dt):
    """Resolve grid defaults from the spectral spread of the generator.

    The fastest fidelity oscillation runs at the eigenvalue spread, so
    a fixed small fraction of its period guarantees samples inside any
    lobe that clears the detection threshold. The spread is computed only
    when one of the two is left to it.
    """
    if t_max is not None and dt is not None:
        return float(t_max), float(dt)
    span = spectral_span(h)
    step = _sample_step(span)
    if dt is None:
        dt = step if step is not None else (t_max or 1.0) / 1000.0
    if t_max is None:
        t_max = 1.05 * 2.0 * math.pi / span if step is not None else 1.0
    return float(t_max), float(dt)


def _amplitude_table(h, psi_i, psi_f):
    """Eigenbasis weights so that amp(t) = sum table * exp(-i w t), from h._eigh."""
    w, v = h._eigh
    c_i = v.conj().T @ psi_i.amplitudes
    c_f = v.conj().T @ psi_f.amplitudes
    return w, np.conj(c_f) * c_i


def _curve(h, psi_i, psi_f, t_max, dt):
    """Grid t, sampled fidelity f and the (w, table) of h's one decomposition.

    The amplitude is summed eigencomponent by eigencomponent, each term an
    elementwise product of arrays of len(t), so no BLAS matrix-vector call
    (and none of its worker threads) is involved. Each e^{-i w_k t} is
    written as np.cos and -np.sin into the real and imaginary views of one
    complex buffer: the bits of np.exp(-1j * (t * w_k)) without the complex
    exponential. A grid of more than MAX_ORACLE_SAMPLES points raises
    ValueError before anything is allocated.
    """
    t_max, dt = _default_steps(h, t_max, dt)
    if not dt > 0.0 or not t_max > 0.0:
        raise ValueError("t_max and dt must be positive")
    steps = t_max / dt
    # n = floor(steps) + 1 exceeds the cap exactly when steps reaches it
    if not steps < MAX_ORACLE_SAMPLES:
        raise ValueError(
            f"oracle grid needs n = {steps + 1:.6g} samples (t_max {t_max:.6g}, dt {dt:.6g}), "
            f"above MAX_ORACLE_SAMPLES = {MAX_ORACLE_SAMPLES}"
        )
    n = int(math.floor(steps)) + 1
    t = dt * np.arange(n)
    w, table = _amplitude_table(h, psi_i, psi_f)
    phase = np.empty(n, dtype=complex)
    amp = np.zeros(n, dtype=complex)
    for wk, ck in zip(w, table):
        wt = t * wk
        np.cos(wt, out=phase.real)
        np.negative(np.sin(wt, out=wt), out=phase.imag)
        amp += ck * phase
    return t, np.abs(amp) ** 2, w, table


def fidelity_curve(h, psi_i, psi_f, t_max=None, dt=None):
    """Sampled transfer fidelity on the grid t = 0, dt, ..., t_max.

    One eigendecomposition of h; the samples are sums of elementwise
    products over its eigencomponents, with no BLAS call.
    """
    t, f, _, _ = _curve(h, psi_i, psi_f, t_max, dt)
    return t, f


def _refine_peak(w, table, lo, hi):
    """Golden-section maximum of the fidelity on [lo, hi].

    Each step writes cmath.exp(m * t) for every rate m of -1j * w into one
    preallocated buffer and sums it against table with the bound table.dot,
    the BLAS call np.dot makes: the bits of np.dot(table, np.exp(-1j * w * t))
    without building two arrays per step.
    """
    rates = (-1j * w).tolist()
    phases = np.empty(len(rates), dtype=complex)
    dot = table.dot

    def neg_f(t):
        for k, m in enumerate(rates):
            phases[k] = cmath.exp(m * t)
        return -abs(dot(phases)) ** 2

    span = hi - lo
    xtol = REFINE_XTOL if span > REFINE_XTOL else span / 4.0
    t_peak, neg = golden_min(neg_f, lo, hi, xtol)
    return float(t_peak), float(-neg)


def first_passage(h, psi_i, psi_f, t_max=None, dt=None):
    """First time the evolution under h carries psi_i onto psi_f.

    Walks the sampled fidelity to the top of each lobe clearing the
    detection threshold, refines the peak, and confirms against the
    tighter threshold. The refined peak time is reported because the
    analytic voyage time is the tangency point of the lobe.
    """
    t, f, w, table = _curve(h, psi_i, psi_f, t_max, dt)
    n = t.size
    if n == 1:
        reached = f[0] >= CONFIRM_THRESHOLD
        return PassageResult(
            t_first=0.0 if reached else math.inf,
            peak_fidelity=float(f[0]),
            reached=bool(reached),
        )
    best_peak = -1.0
    i = 0
    while True:
        above = np.flatnonzero(f[i:] > DETECT_THRESHOLD)
        if above.size == 0:
            break
        i += int(above[0])
        # climb to the top of this lobe; the coarse grid can cross the
        # detection threshold many cells before the actual peak
        j = i
        while j + 1 < n and f[j + 1] >= f[j]:
            j += 1
        t_peak, f_peak = _refine_peak(w, table, t[max(j - 1, 0)], t[min(j + 1, n - 1)])
        if f_peak > best_peak:
            best_peak = f_peak
        if f_peak >= CONFIRM_THRESHOLD:
            return PassageResult(t_first=t_peak, peak_fidelity=f_peak, reached=True)
        # skip the remainder of this lobe before searching again
        i = j
        while i < n and f[i] > DETECT_THRESHOLD:
            i += 1
        if i >= n:
            break
    # nothing confirmed: report the best refined peak for diagnostics
    j = int(np.argmax(f))
    t_peak, f_peak = _refine_peak(w, table, t[max(j - 1, 0)], t[min(j + 1, n - 1)])
    if f_peak > best_peak:
        best_peak = f_peak
    return PassageResult(t_first=math.inf, peak_fidelity=float(best_peak), reached=False)


def passage_check(h, psi_i, psi_f, tau):
    """first_passage from psi_i to psi_f under h, checked against a solver's time tau.

    The window is 1.5 tau plus ten sampling steps, or plus 1 with no step
    for a flat spectrum. Returns (result, gap, agrees): gap = |t_first - tau|,
    None when no lobe confirms, and agrees when one does within ORACLE_TIME_TOL.
    """
    dt = _sample_step(spectral_span(h))
    t_max = 1.5 * tau + (10.0 * dt if dt else 1.0)
    result = first_passage(h, psi_i, psi_f, t_max=t_max, dt=dt)
    gap = abs(result.t_first - tau) if result.reached else None
    return result, gap, bool(result.reached and gap <= ORACLE_TIME_TOL)


def gate_mismatch(h, u_initial, u_final, t, global_phase=0.0):
    """Largest entry of e^{i phase} e^{-i h t} u_initial - u_final."""
    prop = expm_unitary(h, t)
    delta = np.exp(1j * float(global_phase)) * (prop @ np.asarray(u_initial, dtype=complex))
    return float(np.max(np.abs(delta - np.asarray(u_final, dtype=complex))))


class Check(NamedTuple):
    """Value and verdict of one solution condition; fmt is applied only by detail."""

    value: float
    passed: bool
    fmt: str

    @property
    def detail(self):
        return self.fmt.format(self.value)


def solution_checks(h_total, h_control, h0, t, *, states=None, gate=None):
    """Checks keyed by name, in order: control_budget, control_traceless,
    decomposition, then fidelity for states=(psi_initial, psi_final) or
    gate_relation for gate=(u_initial, u_final, global_phase) at time t."""
    budget = abs(hs_trace_product(h_control, h_control) - 1.0)
    leak = abs(float(np.real(np.trace(h_control.matrix))))
    decomp = float(np.max(np.abs((h_total.matrix - h_control.matrix) - h0.matrix)))
    checks = {
        "control_budget": Check(budget, budget <= BUDGET_TOL, "|tr(Hc^2)-1| = {:.3e}"),
        "control_traceless": Check(leak, leak <= TRACELESS_TOL, "|tr Hc| = {:.3e}"),
        "decomposition": Check(decomp, decomp <= DECOMP_TOL, "|(Ht - Hc) - h0|_max = {:.3e}"),
    }
    if states is not None:
        psi_i, psi_f = states
        final = expm_unitary(h_total, t) @ psi_i.amplitudes
        fid = float(np.abs(np.vdot(psi_f.amplitudes, final)) ** 2)
        checks["fidelity"] = Check(fid, fid >= CONFIRM_THRESHOLD, "fidelity {:.12f}")
    else:
        u_i, u_f, phase = gate
        res = gate_mismatch(h_total, u_i, u_f, t, phase)
        checks["gate_relation"] = Check(res, res <= GATE_RELATION_TOL, "residual {:.3e}")
    return checks


def result_checks(h_total, h_control, h0, t, *, states=None, gate=None):
    """Checks of raw matrices read back from a result document, keyed by name:
    hermitian first, their largest anti-Hermitian drift against HERMITIAN_TOL,
    then solution_checks on their Hermitian parts 0.5 (m + m^H). A non-finite
    entry raises ValueError before any arithmetic on it."""
    h_total, h_control = (_as_square_complex(m, "Hermitian operator") for m in (h_total, h_control))
    drift = max(float(np.max(np.abs(m - m.conj().T))) for m in (h_total, h_control))
    checks = {"hermitian": Check(drift, drift <= HERMITIAN_TOL, "drift {:.3e}")}
    h_total, h_control = (HermitianOperator(0.5 * (m + m.conj().T)) for m in (h_total, h_control))
    checks.update(solution_checks(h_total, h_control, h0, t, states=states, gate=gate))
    return checks


def checked_control(h_total, h0, t, what, *, states=None, gate=None):
    """(h_total - h0, solution_checks at time t) of a solver's answer h_total;
    one ArithmeticError, prefixed by what, names every failed check."""
    h_control = HermitianOperator(h_total.matrix - h0.matrix)
    checks = solution_checks(h_total, h_control, h0, t, states=states, gate=gate)
    failed = [f"{name} ({c.detail})" for name, c in checks.items() if not c.passed]
    if failed:
        raise ArithmeticError(f"{what} verification failed: {', '.join(failed)}")
    return h_control, checks
