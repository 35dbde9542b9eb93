"""The shared MM driver under every design: update bookkeeping and properties."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risce.baselines import naive_pattern
from risce.channel import CorrelationSpec, cascaded_correlation, kronecker_factors
from risce.errors import DimensionMismatch
from risce.lmmse_design import design_lmmse
from risce.ls_design import design_ls, ls_score
from risce.numerics import trace_of_inverse
from risce.phase_model import ReflectionModel
from risce.system import ReflectionPattern, mse_lmmse
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


@pytest.mark.parametrize("criterion", ["ls", "lmmse"])
def test_both_designs_share_the_start_and_its_check(model, criterion):
    # No init starts at the naive pattern, and a misshapen init fails with
    # the one message, whichever design is asked.
    naive = naive_pattern(DESK.m, DESK.b, model)
    default, given = (_design(criterion, DESK, model, DESK_R, False, init=init, max_iter=1)
                      for init in (None, naive))
    assert default.objectives[0] == given.objectives[0]
    message = "init pattern (9, 8) is not the config's (M+1) x B"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        _design(criterion, DESK, model, DESK_R, False, init=ReflectionPattern(naive.v[:, :-1]))


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
# Plain LS ends 1.54e-14 relative off trace_of_inverse here, at cond(V V^H) = 337.
@example(problem=(SystemConfig(k=1, m=3, l=1, b=4, tau=1),
                  ReflectionModel(0.0, 2.92578125, 0.00390625), np.eye(4), 3))
def test_plain_trace_ends_on_the_returned_objective(problem):
    # Plain MM and SQUAREM read an iterate's objective off the decomposition
    # its next update is anchored on; the last recorded value is exactly that
    # of the result.  The LS designs score by eigh, trace_of_inverse by
    # eigvalsh: two backward-stable solvers of V V^H, whose sums of 1 / lam
    # differ by up to about n eps cond(V V^H).
    config, model, r_gamma, max_iter = problem
    factors = kronecker_factors(r_gamma, config.k)
    for accelerate in (False, True):
        x, v, trace = design_lmmse(config, model, r_gamma, max_iter=max_iter,
                                   accelerate=accelerate)
        assert trace.objectives[-1] == mse_lmmse(v.v, x.x, factors, config.sigma2, config.l)
        pattern, trace = design_ls(config, model, max_iter=max_iter, accelerate=accelerate)
        assert trace.objectives[-1] == ls_score(pattern.v)[0]
        gram = pattern.v @ pattern.v.conj().T
        rel = 16 * (config.m + 1) * np.finfo(float).eps * np.linalg.cond(gram)
        assert trace.objectives[-1] == pytest.approx(trace_of_inverse(gram), rel=rel)


def _turned_designs(config, model, r_gamma, phi):
    """Final J and rounds of plain LS and plain LMMSE, with the problem turned by phi.

    Turning means the law's delta + phi and the RIS rows of the naive start
    times e^{j phi}.  Neither objective sees a phase common to the RIS rows,
    and A is block diagonal between the RIS and the direct link.
    """
    law = ReflectionModel(beta_min=model.beta_min, alpha=model.alpha, delta=model.delta + phi)
    v = naive_pattern(config.m, config.b, model).v
    init = ReflectionPattern(np.vstack([v[:-1] * np.exp(1j * phi), v[-1:]]))
    ls = design_ls(config, law, init=init)[1]
    lmmse = design_lmmse(config, law, r_gamma, init=init)[2]
    return [(trace.objectives[-1], trace.iterations) for trace in (ls, lmmse)]


@pytest.mark.parametrize("snr_db", [0.0, 20.0])
@pytest.mark.parametrize("model", [ReflectionModel(), ReflectionModel(0.0, 1.3, 1.0),
                                   ReflectionModel(0.4378, 1.8806, 2.7526)],
                         ids=["default", "flat", "desk-law-1"])
def test_turned_designs_keep_their_objectives(model, snr_db):
    # Rotation equivariance of whole designs, with no oracle: the grid and
    # the sector edges sit at fixed phases, the costs do not.
    config = SystemConfig(k=2, m=8, l=4, power=np.full(2, 10.0 ** (snr_db / 10)))
    unturned = _turned_designs(config, model, DESK_R, 0.0)
    for phi in (1.0, 2.5, -37.15997967497706):
        turned = _turned_designs(config, model, DESK_R, phi)
        for (j, rounds), (j0, rounds0) in zip(turned, unturned):
            assert rounds == rounds0
            assert j == pytest.approx(j0, rel=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known limit: the global search's grid can pick the higher of two "
                          "near-tied basins, which moves a whole plain design (CHANGES.md FOUND)")
def test_turned_design_with_an_uncertified_first_step_keeps_its_objective():
    # The first pattern step leaves one entry (|z| = 0.0605) to the global
    # search, whose cost has mirror basins at theta - theta_d = +-0.4533.
    # Unturned it returns the higher one; turned, the lower.  Plain LS then
    # ends at 1.31806930675241 and 1.31846752377143, 14 rounds each.
    config = SystemConfig(k=1, m=1, l=1, b=3)
    model = ReflectionModel(0.0, 1.0144732001868666, 1.5669060773183343)
    r_gamma = cascaded_correlation(CorrelationSpec(), config.m, config.k, config.l)
    (j0, _), _ = _turned_designs(config, model, r_gamma, 0.0)
    (j, _), _ = _turned_designs(config, model, r_gamma, -37.15997967497706)
    assert j == pytest.approx(j0, rel=1e-10)
