"""Tests for the SQUAREM step and the MM driver."""

import numpy as np
import pytest

from conftest import random_feasible_pattern
from risce.accel import mm_loop, squarem_step
from risce.ls_design import ls_objective, mm_update_ls, project_pattern
from risce.numerics import trace_of_inverse
from risce.system import ReflectionPattern


def _contraction(target, rate):
    """Affine MM toy: v -> target + rate * (v - target)."""
    return lambda v: target + rate * (v - target)


def _distance_obj(target):
    return lambda v: float(np.linalg.norm(v - target) ** 2)


class TestSquaremStep:
    def test_scalar_contraction_solved_in_one_step(self, rng):
        # For v -> t + c (v - t) the CBB extrapolation lands exactly on t.
        target = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v0 = target + rng.standard_normal((4, 4))
        out, obj, calls = squarem_step(
            v0, _contraction(target, 0.5), lambda v: v, _distance_obj(target)
        )
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
        out, obj, calls = squarem_step(
            v0, lambda v: v, lambda v: v, _distance_obj(v0)
        )
        assert calls == 2
        assert np.allclose(out, v0)
        assert obj == pytest.approx(0.0)

    def test_backtrack_cap_falls_back_to_mm_point(self, rng):
        target = np.zeros((2, 2))
        v0 = np.ones((2, 2))
        mm = _contraction(target, 0.5)
        v2 = mm(mm(v0))
        # projection that wrecks every extrapolated candidate
        out, obj, calls = squarem_step(
            v0, mm, lambda v: v + 100.0, _distance_obj(target)
        )
        assert np.allclose(out, v2)
        assert obj <= _distance_obj(target)(v0)

    def test_monotone_on_ls_instances(self, model, rng):
        for seed in range(20):
            init = random_feasible_pattern(np.random.default_rng(seed), 3, 4, model)
            obj0 = ls_objective(init)
            _, obj, _ = squarem_step(
                init.v,
                lambda v: mm_update_ls(ReflectionPattern(v=v), model).v,
                lambda v: project_pattern(v, model),
                lambda v: trace_of_inverse(v @ v.conj().T),
            )
            assert obj <= obj0 + 1e-12


def _squarem(mm, project, objective):
    """SQUAREM driver step around one MM update."""
    return lambda v, obj: squarem_step(v, mm, project, objective, obj)


class TestMmLoop:
    def test_monotone_trace_and_convergence(self, rng):
        target = rng.standard_normal((3, 3))
        objective = _distance_obj(target)
        final, trace = mm_loop(
            target + rng.standard_normal((3, 3)),
            _squarem(_contraction(target, 0.9), lambda v: v, objective),
            objective,
            eps=1e-10,
            max_iter=200,
        )
        assert trace.converged
        assert np.all(np.diff(trace.objectives) <= 1e-12)
        assert np.allclose(final, target, atol=1e-4)

    def test_budget_exhaustion_flags_no_convergence(self, rng):
        target = rng.standard_normal((2, 2))
        objective = _distance_obj(target)
        _, trace = mm_loop(
            target + 1.0,
            _squarem(_contraction(target, 0.999999), lambda v: v, objective),
            objective,
            eps=1e-16,
            max_iter=3,
        )
        assert not trace.converged
        assert trace.iterations == 3
