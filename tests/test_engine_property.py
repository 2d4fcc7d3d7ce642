"""Property test: the analytic outcome engine against the brute-force engine.

The brute-force engine builds the final state in the truncated number basis
and reads ``Prob(X > 0)`` off its amplitudes through the half-line Hermite
overlaps; the analytic engine evaluates the closed form. On the box below
their measured gap is below 1e-15.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from _support import params_for
from kerrcat.montecarlo import ExperimentConfig, outcome_probability
from kerrcat.protocol import ProtocolParams

TOL = 1e-13

alpha0s = st.builds(
    complex,
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=-1.5, max_value=1.5),
)
kicks = st.floats(min_value=-0.05, max_value=0.05)
losses = st.one_of(
    st.none(),
    st.builds(
        params_for,
        xi_target=st.floats(min_value=0.6, max_value=0.99),
        kappa_tau=st.floats(min_value=1e-3, max_value=0.1),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha0=alpha0s, delta=kicks, loss=losses)
def test_analytic_matches_brute_force(alpha0, delta, loss):
    config = ExperimentConfig(protocol=ProtocolParams(alpha0=alpha0), loss=loss)
    analytic = outcome_probability(delta, config)
    brute = outcome_probability(delta, dataclasses.replace(config, engine="brute-force"))
    assert abs(analytic - brute) < TOL
