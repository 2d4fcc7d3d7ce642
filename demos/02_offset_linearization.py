"""Show why the protocol adds a deliberate offset force.

The raw response <X>(delta) oscillates, so tiny forces around delta = 0 sit
at a stationary point of the fringe and produce almost no first-order
signal. Shifting the working point by pi/(8*alpha) parks the measurement on
the steepest part of the fringe: the response becomes linear in delta with
a slope that grows like 4*alpha^2, and a simple two-outcome (coin) readout
inherits that gain.
"""

import math

from kerrcat import (
    PhysicalForce,
    ProtocolParams,
    SignalEstimate,
    force_to_delta,
    mean_X_ideal,
    mean_X_linearized,
    mean_quadrature,
    offset_delta,
    run_ideal,
    shot_errors,
)

ALPHA = 2.0

print("=" * 72)
print("Without the offset the response is flat at delta = 0")
print("=" * 72)
print(f"{'delta':>9} {'<X> exact':>14} {'<X> - <X>(0)':>14}")
for delta in (0.0, 0.002, 0.005, 0.01):
    value = mean_X_ideal(ALPHA, delta)
    print(f"{delta:>9.4f} {value:>14.8f} {value - ALPHA:>14.2e}")
print()

offset = offset_delta(ALPHA)
print("=" * 72)
print(f"With the offset delta_t = pi/(8*alpha) = {offset:.6f} the response is linear")
print("=" * 72)
print(f"{'delta':>9} {'<X> at offset':>14} {'finite-diff slope':>18}")
previous = None
for delta in (-0.01, -0.005, 0.0, 0.005, 0.01):
    value = mean_X_ideal(ALPHA, offset + delta)
    slope = "" if previous is None else f"{(value - previous) / 0.005:>18.4f}"
    print(f"{delta:>9.4f} {value:>14.8f} {slope}")
    previous = value
exact_slope = -(4.0 * ALPHA**2 + 1.0) * math.exp(-2.0 * offset**2)
print(f"\nexpected slope -(4*alpha^2 + 1)*exp(-2*delta_t^2) = {exact_slope:.4f}")
print(f"small-kick linearized model at delta = 0.01: {mean_X_linearized(ALPHA, 0.01):+.6f}")
print()

print("=" * 72)
print("The pipeline agrees with the closed form at the shifted working point")
print("=" * 72)
params = ProtocolParams(alpha0=ALPHA, delta=0.004, apply_offset=True)
closed = mean_X_ideal(ALPHA, params.effective_delta)
brute = mean_quadrature(run_ideal(params))
print(f"effective kick = {params.effective_delta:.6f}")
print(f"closed form <X> = {closed:+.10f}   number basis <X> = {brute:+.10f}")
print()

print("=" * 72)
print("Coin readout and the single-shot error budget")
print("=" * 72)
m, M = 5200, 10_000
est = SignalEstimate(m_counts=m, M=M)
print(f"counts m/M = {m}/{M}  ->  S = {est.S:+.4f} +/- {est.sigma_S:.4f}")
impulse = PhysicalForce(F=1e-18, dt=1e-6, mass=1e-12, omega_m=2.0 * math.pi * 10e6)
delta = force_to_delta(impulse)
eps_classical, eps_quantum = shot_errors(impulse, ALPHA)
print(f"a {impulse.F:.1e} N impulse over {impulse.dt:.0e} s on a {impulse.mass:.0e} kg oscillator")
print(f"gives a dimensionless kick delta = {delta:.3e}")
print(f"single-shot fractional error, coherent-state strategy: {eps_classical:.3e}")
print(f"single-shot fractional error, superposition strategy:  {eps_quantum:.3e}")
print(f"gain = {eps_classical / eps_quantum:.1f}  (equals 2*alpha = {2 * ALPHA:.1f})")
