"""Follow the state through the realistic lossy measurement chain.

The force acts on a mechanical oscillator; a swap interaction moves the
state into the electrical mode where the Kerr stages run. Each leg pays a
loss toll: the swap survives with amplitude xi, each Kerr stage with eta,
and a photon emitted mid-stage scrambles the phase. Conditioned on no
emission, everything stays in closed form and matches a brute-force
two-mode simulation.
"""

import math

import numpy as np

from kerrcat import (
    OverdampedTransferError,
    emission_probability,
    lossy_offset,
    mean_X_lossy,
    quadrature_distribution,
    reference_loss_params,
    run_lossy_trajectory,
    swap_parameters,
)

TWO_PI = 2.0 * math.pi
lp = reference_loss_params()
ALPHA = 1.5

print("=" * 72)
print("Derived loss budget at the reference hardware rates")
print("=" * 72)
print(f"swap frequency        nu/2pi   = {lp.nu / TWO_PI:.6g} Hz")
print(f"swap duration         T_swap   = {lp.T_swap:.6g} s")
print(f"transfer survival     xi       = {lp.xi:.6f}")
print(f"Kerr-stage survival   eta      = {lp.eta:.6f}")
print(f"Kerr-stage duration   tau      = {lp.tau_kerr:.6g} s")
print(f"emission probability  P(1.5)   = {emission_probability(ALPHA, lp):.4f}")
print()

print("An overdamped transfer (g too small for the losses) is rejected:")
try:
    swap_parameters(kappa=TWO_PI * 500e3, gamma=TWO_PI * 10.0, g=TWO_PI * 100e3)
except OverdampedTransferError as exc:
    print(f"  OverdampedTransferError: {exc}")
print()

print("=" * 72)
print("No-emission trajectory: the peak contracts to xi*eta^2*alpha")
print("=" * 72)
target = lp.xi * lp.eta**2 * ALPHA
psi = run_lossy_trajectory(ALPHA, 0.0, lp)
dist = quadrature_distribution(psi)
x, density = dist.density[:, 0], dist.density[:, 1]
peak = x[np.argmax(density)]
print(f"contracted amplitude xi*eta^2*alpha = {target:.6f}")
print(f"density peak found at x = {peak:+.4f}   mean X = {dist.mean_X:+.6f}")
print(f"closed-form mean_X_lossy(alpha, 0)  = {mean_X_lossy(ALPHA, 0.0, lp):+.6f}")
print("(the two forward Kerr stages compose to an amplitude flip, hence the sign)")
print()

print("=" * 72)
print("A photon emission at time t' rotates the surviving amplitude")
print("=" * 72)
header_time = "t_emit/tau"
header_law = "-target*cos(2*lambda*t_emit)"
print(f"{header_time:>10} {'mean X':>12} {header_law:>30}")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    psi_e = run_lossy_trajectory(ALPHA, 0.0, lp, t_emit=frac * lp.tau_kerr)
    mean = quadrature_distribution(psi_e).mean_X
    law = -target * math.cos(math.pi * frac)
    print(f"{frac:>10.2f} {mean:>+12.6f} {law:>+30.6f}")
print("Averaged over a uniform emission time these rotations wash the")
print("signal out, which is why emission shots count as fair coins.")
print()

print("=" * 72)
print("The biased working point stays fair under loss")
print("=" * 72)
offset = lossy_offset(ALPHA, lp)
psi_off = run_lossy_trajectory(ALPHA, offset, lp)
p_plus = quadrature_distribution(psi_off).prob_X_positive
print(f"lossy offset kick = {offset:+.6f}")
print(f"Prob(X > 0) at the offset = {p_plus:.4f}  (a fair coin splits at 0.5)")
