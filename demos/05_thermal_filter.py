"""The swap stage acts as a matched filter for the force.

During the transfer window the mechanical mode only accepts force
components near its own frequency: a resonant drive integrates
coherently while a constant (DC) push averages away over full
mechanical periods. Thermal motion of the mechanics adds Gaussian
noise to the kick with variance proportional to 2*n_bar + 1, and the
shot engine folds both effects into the measured signal.
"""

import dataclasses
import math

from kerrcat import (
    ExperimentConfig,
    ForceSpec,
    LossParams,
    ProtocolParams,
    momentum_kick_stats,
    reference_loss_params,
    run_experiment,
    thermal_occupation,
)

TWO_PI = 2.0 * math.pi

print("=" * 72)
print("Resonant force vs constant force of equal amplitude")
print("=" * 72)
# Lossless transfer tuned so exactly 10 mechanical periods fit in the window.
g = TWO_PI * 500e3
filter_lp = LossParams(kappa=0.0, gamma=0.0, g=g, omega_m=20.0 * g, lambda_kerr=TWO_PI * 7e6)
periods = filter_lp.omega_m * filter_lp.T_swap / TWO_PI
f0 = 1000.0
resonant = momentum_kick_stats(ForceSpec(shape="resonant-cosine", amplitude=f0), filter_lp)
constant = momentum_kick_stats(ForceSpec(shape="constant", amplitude=f0), filter_lp)
print(f"transfer window spans {periods:.1f} mechanical periods")
print(f"resonant drive:  mean kick = {resonant.mean:+.6e}")
print(f"constant drive:  mean kick = {constant.mean:+.6e}")
print(f"rejection ratio |constant/resonant| = {abs(constant.mean / resonant.mean):.4f}")
print()

print("=" * 72)
print("Thermal occupation of the mechanical bath")
print("=" * 72)
omega_m = TWO_PI * 10e6
print(f"{'temperature':>14} {'n_bar':>10}")
for temp in (0.001, 0.01, 0.0242, 0.1, 0.3):
    print(f"{temp:>12.4f} K {thermal_occupation(omega_m, temp):>10.2f}")
print("(a 10 MHz oscillator reaches n_bar = 50 near 24 mK)")
print()

print("=" * 72)
print("Kick noise grows with 2*n_bar + 1")
print("=" * 72)
lp_cold = reference_loss_params()
lp_warm = dataclasses.replace(lp_cold, temp=0.0242)
cold = momentum_kick_stats(None, lp_cold)
warm = momentum_kick_stats(None, lp_warm)
ratio = warm.variance / cold.variance
print(f"vacuum kick noise:            std = {cold.std:.3e}")
print(f"thermal kick noise (~24 mK):  std = {warm.std:.3e}")
print(f"variance ratio = {ratio:.2f}   2*n_bar + 1 = {2 * lp_warm.n_bar + 1:.2f}")
print()

print("=" * 72)
print("End to end: a resonant force shows up in the coin signal")
print("=" * 72)
base = ExperimentConfig(
    protocol=ProtocolParams(alpha0=1.0, delta=0.0, apply_offset=True),
    loss=lp_cold,
    shots=100_000,
    seed=0,
)
drive = ForceSpec(shape="resonant-cosine", amplitude=0.05 * lp_cold.nu)
driven = dataclasses.replace(base, force_spec=drive)
kick = momentum_kick_stats(drive, lp_cold)
est_plain = run_experiment(base)
est_driven = run_experiment(driven)
print(f"filtered kick from the drive: mean = {kick.mean:.5f}, std = {kick.std:.1e}")
print(f"signal without drive: S = {est_plain.S:+.5f} +/- {est_plain.sigma_S:.5f}")
print(f"signal with drive:    S = {est_driven.S:+.5f} +/- {est_driven.sigma_S:.5f}")
print(f"shift = {est_driven.S - est_plain.S:+.5f}")
