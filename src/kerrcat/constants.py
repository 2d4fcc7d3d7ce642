"""Exact SI values of the physical constants the package uses.

Both are defining constants of the 2019 SI, so these literals are exact and
equal ``scipy.constants.hbar`` and ``scipy.constants.k`` bit for bit; writing
them out keeps ``scipy.constants`` out of the import of ``kerrcat``.
"""

from __future__ import annotations

import math

#: Reduced Planck constant in J s.
hbar = 6.62607015e-34 / (2 * math.pi)
#: Boltzmann constant in J/K.
k_boltzmann = 1.380649e-23
