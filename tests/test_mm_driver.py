"""The shared MM driver under every design: update bookkeeping and properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risce.channel import CorrelationSpec, cascaded_correlation
from risce.lmmse_design import design_lmmse
from risce.ls_design import design_ls
from risce.phase_model import ReflectionModel
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
