"""Desk-scale simulator for cat-state force measurement with Kerr nonlinearities.

The package is organized in six layers:

- :mod:`kerrcat.fock` — truncated-Fock-space linear algebra: states, ladder
  operators, Kerr and displacement propagators, quadrature statistics.
- :mod:`kerrcat.protocol` — the ideal (lossless) measurement pipeline and its
  closed-form expectations, offset linearization, and coin-estimation signal.
- :mod:`kerrcat.loss` — the lossy/thermal model: swap-transfer parameters,
  force waveforms and momentum-kick statistics, two-mode loss channel,
  no-emission propagators, emission trajectories, and closed-form lossy
  signals.
- :mod:`kerrcat.montecarlo` — shot-level simulation: thermal kick sampling,
  outcome probabilities (analytic or brute-force engines), experiments,
  and parameter sweeps.
- :mod:`kerrcat.validation` — the analytic-vs-numeric check suite: each
  closed form against the number-basis brute force, with its tolerance.
- :mod:`kerrcat.cli` — the ``kerrcat`` command, I/O only: scenario files,
  command-line overrides, exit codes, and table output.
"""

from kerrcat import fock, loss, montecarlo, protocol
from kerrcat.fock import *  # noqa: F401,F403
from kerrcat.protocol import *  # noqa: F401,F403
from kerrcat.loss import *  # noqa: F401,F403
from kerrcat.montecarlo import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*fock.__all__, *protocol.__all__, *loss.__all__, *montecarlo.__all__, "__version__"]
