"""The shared MM driver under every design: update bookkeeping and properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risce.channel import CorrelationSpec, cascaded_correlation, kronecker_factors
from risce.lmmse_design import design_lmmse
from risce.ls_design import design_ls
from risce.numerics import trace_of_inverse
from risce.phase_model import ReflectionModel
from risce.system import mse_lmmse
from risce.types import SystemConfig

DESK = SystemConfig(k=2, m=8, l=4)
DESK_R = cascaded_correlation(CorrelationSpec(), DESK.m, DESK.k, DESK.l)


def _design(criterion, config, model, r_gamma, accelerate, **kwargs):
    if criterion == "ls":
        return design_ls(config, model, accelerate=accelerate, **kwargs)[1]
    return design_lmmse(config, model, r_gamma, accelerate=accelerate, **kwargs)[2]


@pytest.mark.parametrize("criterion, accelerate, per_iteration", [
    ("ls", False, 1), ("lmmse", False, 1), ("ls", True, 2), ("lmmse", True, 4),
])
def test_update_calls_per_iteration(model, criterion, accelerate, per_iteration):
    # Plain MM does one update per iteration; SQUAREM two per block step, and
    # the LMMSE round has a training block and a pattern block.
    trace = _design(criterion, DESK, model, DESK_R, accelerate,
                    eps=1e-12, max_iter=6)
    assert trace.iterations == 6
    assert trace.update_calls[0] == 0
    assert np.all(np.diff(trace.update_calls) == per_iteration)


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    b = m + draw(st.integers(1, 2))
    tau = k + draw(st.integers(0, 2))
    model = ReflectionModel(
        beta_min=draw(st.floats(0.0, 1.0)),
        alpha=draw(st.floats(0.5, 3.0)),
        delta=draw(st.floats(0.0, 2.0 * np.pi)),
    )
    return SystemConfig(k=k, m=m, l=2, b=b, tau=tau), model


@settings(max_examples=8, deadline=None)
@given(instance=instances())
def test_traces_descend_and_reproduce(instance):
    config, model = instance
    r_gamma = cascaded_correlation(CorrelationSpec(), config.m, config.k, config.l)
    for criterion in ("ls", "lmmse"):
        for accelerate in (False, True):
            first, second = (
                _design(criterion, config, model, r_gamma, accelerate, max_iter=15)
                for _ in range(2)
            )
            obj = np.asarray(first.objectives)
            assert np.all(np.diff(obj) <= 1e-10 * np.abs(obj[:-1]))
            assert first.objectives == second.objectives
            assert first.update_calls == second.update_calls
            assert first.converged == second.converged


@st.composite
def plain_problems(draw):
    """An instance with tau >= K and B >= M + 1, an SNR up to 300 dB or sigma2 = 0, a budget."""
    k, m, l = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    power = np.full(k, 10.0 ** (draw(st.floats(-10.0, 300.0)) / 10.0))
    config = SystemConfig(k=k, m=m, l=l, b=m + 1 + draw(st.integers(0, 2)),
                          tau=k + draw(st.integers(0, 2)), power=power,
                          sigma2=draw(st.sampled_from([1.0, 0.0])))
    model = ReflectionModel(
        beta_min=draw(st.floats(0.0, 1.0)),
        alpha=draw(st.floats(0.5, 3.0)),
        delta=draw(st.floats(0.0, 2.0 * np.pi)),
    )
    psi = st.floats(0.0, 0.95, exclude_max=True)
    r_gamma = cascaded_correlation(CorrelationSpec(*draw(st.tuples(psi, psi, psi))), m, k, l)
    return config, model, r_gamma, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(problem=plain_problems())
def test_plain_trace_ends_on_the_returned_objective(problem):
    # Plain MM and SQUAREM read an iterate's objective off the decomposition
    # its next update is anchored on; the last recorded value is still that of
    # the result.  SQUAREM LS scores by eigh, the oracle by eigvalsh.
    config, model, r_gamma, max_iter = problem
    factors = kronecker_factors(r_gamma, config.k)
    for accelerate in (False, True):
        x, v, trace = design_lmmse(config, model, r_gamma, max_iter=max_iter,
                                   accelerate=accelerate)
        assert trace.objectives[-1] == mse_lmmse(v.v, x.x, factors, config.sigma2, config.l)
        pattern, trace = design_ls(config, model, max_iter=max_iter, accelerate=accelerate)
        assert trace.objectives[-1] == pytest.approx(
            trace_of_inverse(pattern.v @ pattern.v.conj().T), rel=1e-14)
