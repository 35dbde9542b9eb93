"""Tests for the SQUAREM step and the MM driver."""

import numpy as np
import pytest

from conftest import ls_objective, random_feasible_pattern
from risce.accel import mm_loop, plain_step, squarem_step
from risce.ls_design import ls_score, mm_update_ls, project_pattern


def _contraction(target, rate):
    """Affine MM toy: (v, spectrum) -> target + rate * (v - target); the spectrum is unused."""
    return lambda v, _spectrum=None: target + rate * (v - target)


def _distance_score(target):
    """score(v) = (||v - target||^2, no spectrum)."""
    return lambda v: (float(np.linalg.norm(v - target) ** 2), None)


def _identity(v, _spectrum=None):
    return v


class TestSquaremStep:
    def test_scalar_contraction_solved_in_one_step(self, rng):
        # For v -> t + c (v - t) the CBB extrapolation lands exactly on t.
        target = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v0 = target + rng.standard_normal((4, 4))
        score = _distance_score(target)
        out, obj, _, calls = squarem_step(
            v0, score(v0)[0], None, _contraction(target, 0.5), _identity, score)
        assert calls == 2
        assert np.allclose(out, target, atol=1e-12)
        assert obj == pytest.approx(0.0, abs=1e-20)

    def test_step_minus_one_recovers_plain_mm(self, rng):
        # algebraic identity: V0 + 2 L1 + L2 == V2
        v0 = rng.standard_normal((3, 5))
        mm = _contraction(np.zeros((3, 5)), 0.8)
        v1, v2 = mm(v0), mm(mm(v0))
        l1 = v1 - v0
        l2 = v2 - v1 - l1
        step = -1.0
        assert np.allclose(v0 - 2 * step * l1 + step**2 * l2, v2)

    def test_fixed_point_degenerates_to_plain(self, rng):
        v0 = rng.standard_normal((2, 2))
        out, obj, _, calls = squarem_step(v0, 0.0, None, _identity, _identity,
                                          _distance_score(v0))
        assert calls == 2
        assert np.allclose(out, v0)
        assert obj == pytest.approx(0.0)

    def test_backtrack_cap_falls_back_to_mm_point(self, rng):
        target = np.zeros((2, 2))
        v0 = np.ones((2, 2))
        mm = _contraction(target, 0.5)
        v2 = mm(mm(v0))
        score = _distance_score(target)
        # projection that wrecks every extrapolated candidate
        out, obj, _, _ = squarem_step(v0, score(v0)[0], None, mm, lambda v: v + 100.0, score)
        assert np.allclose(out, v2)
        assert obj <= score(v0)[0]

    def test_monotone_on_ls_instances(self, model, rng):
        for seed in range(20):
            init = random_feasible_pattern(np.random.default_rng(seed), 3, 4, model)
            obj0, eig0 = ls_score(init.v)
            out, obj, _, _ = squarem_step(
                init.v, obj0, eig0,
                lambda v, eig: mm_update_ls(v, model, eig),
                lambda v: project_pattern(v, model),
                ls_score,
            )
            assert obj <= obj0 + 1e-12
            assert obj == pytest.approx(ls_objective(out), rel=1e-13)
            assert ls_objective(out) <= ls_objective(init.v) * (1.0 + 1e-13)


class _Spectrum:
    """Sentinel spectrum: a copy of the iterate it was scored at."""

    def __init__(self, v):
        self.v = v.copy()


class TestStepProtocol:
    """Every update gets the spectrum of its own iterate; a step returns its iterate's."""

    def _run(self, v0, mm, project, objective):
        updates, scored = [], []

        def mm_update(v, spectrum):
            updates.append((v.copy(), spectrum))
            return mm(v)

        def score(v):
            scored.append(_Spectrum(v))
            return objective(v), scored[-1]

        spectrum0 = _Spectrum(v0)
        out, obj, spectrum, calls = squarem_step(v0, objective(v0), spectrum0,
                                                 mm_update, project, score)
        assert calls == 2 and len(updates) == 2
        # the first update is anchored on v0, the second on v1 = the first's output
        assert updates[0][1] is spectrum0
        v1 = mm(v0)
        assert np.array_equal(updates[1][0], v1)
        assert updates[1][1] is scored[0] and np.array_equal(scored[0].v, v1)
        # the accepted iterate comes back with the spectrum it was scored with
        assert np.array_equal(spectrum.v, out)
        assert spectrum is scored[-1]
        assert obj == objective(out)
        return out

    def test_accepted_candidate_carries_its_spectrum(self, rng):
        target = rng.standard_normal((3, 3))
        mm = _contraction(target, 0.5)
        v0 = target + rng.standard_normal((3, 3))
        out = self._run(v0, mm, _identity, lambda v: _distance_score(target)(v)[0])
        assert np.allclose(out, target, atol=1e-12)

    def test_degenerate_step_carries_the_mm_point_spectrum(self, rng):
        v0 = rng.standard_normal((2, 2))
        out = self._run(v0, _identity, _identity, lambda v: _distance_score(v0)(v)[0])
        assert np.array_equal(out, v0)

    def test_backtrack_cap_carries_the_mm_point_spectrum(self):
        target, v0 = np.zeros((2, 2)), np.ones((2, 2))
        mm = _contraction(target, 0.5)
        out = self._run(v0, mm, lambda v: v + 100.0, lambda v: _distance_score(target)(v)[0])
        assert np.array_equal(out, mm(mm(v0)))


def _squarem(mm, project, score):
    """SQUAREM driver step around one MM update."""
    return lambda v, obj, spectrum: squarem_step(v, obj, spectrum, mm, project, score)


class TestMmLoop:
    def test_monotone_trace_and_convergence(self, rng):
        target = rng.standard_normal((3, 3))
        score = _distance_score(target)
        final, trace = mm_loop(
            target + rng.standard_normal((3, 3)),
            _squarem(_contraction(target, 0.9), _identity, score),
            score,
            eps=1e-10,
            max_iter=200,
        )
        assert trace.converged
        assert np.all(np.diff(trace.objectives) <= 1e-12)
        assert np.allclose(final, target, atol=1e-4)

    def test_budget_exhaustion_flags_no_convergence(self, rng):
        target = rng.standard_normal((2, 2))
        score = _distance_score(target)
        _, trace = mm_loop(
            target + 1.0,
            _squarem(_contraction(target, 0.999999), _identity, score),
            score,
            eps=1e-16,
            max_iter=3,
        )
        assert not trace.converged
        assert trace.iterations == 3

    def test_plain_loop_scores_each_iterate_once(self, rng):
        # The initial point is scored once, then every new iterate once, and each
        # update is anchored on the spectrum of the iterate it receives.
        target = rng.standard_normal((2, 2))
        mm = _contraction(target, 0.5)
        scored = []

        def score(v):
            scored.append(_Spectrum(v))
            return _distance_score(target)(v)[0], scored[-1]

        def mm_update(v, spectrum):
            assert spectrum is scored[-1] and np.array_equal(spectrum.v, v)
            return mm(v)

        _, trace = mm_loop(target + 1.0, plain_step(mm_update, score), score,
                           eps=1e-16, max_iter=5)
        assert trace.iterations == 5
        assert len(scored) == 1 + trace.iterations
