"""Tests for the baseline schemes and element grouping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ideal_update_lmmse, ideal_update_ls, ls_objective, random_feasible_pattern
from risce.baselines import (
    SchemeId,
    group_reduce,
    naive_pattern,
    onoff_pattern,
)
from risce.channel import CorrelationSpec, cascaded_correlation, grouped_cascaded_correlation
from risce.errors import InvalidDims, InvalidGrouping
from risce.ls_design import design_ls, dft_training
from risce.phase_model import (
    amplitude_of_phase,
    ideal_model,
    project_to_feasible,
)
from risce.system import ReflectionPattern, build_S, mse_ls
from risce.types import SystemConfig

TWO_PI = 2.0 * np.pi


class TestIdealUpdates:
    def test_ls_real_coefficient(self):
        a0 = np.ones((3, 3), dtype=complex)  # (B, M+1) with M = 2
        v = ideal_update_ls(a0)
        # e^{-j arg(-1)} = e^{-j pi} = -1
        assert np.allclose(v.v[:2], -1.0)
        assert np.allclose(v.v[2], 1.0)

    def test_ls_imaginary_coefficient(self):
        a0 = np.full((2, 2), -1j)
        v = ideal_update_ls(a0)
        # arg(j) = pi/2 so the entry is e^{-j pi/2}
        assert np.allclose(v.v[0], np.exp(-1j * np.pi / 2))

    def test_ls_is_grid_optimal(self, rng):
        a0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = ideal_update_ls(a0)
        grid = np.exp(1j * np.linspace(0, TWO_PI, 100_000, endpoint=False))
        lam = 2.0
        for n, m in itertools.product(range(4), range(3)):
            achieved = lam + 2 * np.real(a0[n, m] * v.v[m, n])
            best = np.min(lam + 2 * np.real(a0[n, m] * grid))
            assert achieved <= best + 1e-8

    def test_lmmse_sign_convention(self, rng):
        c_map = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        v = ideal_update_lmmse(c_map)
        assert np.allclose(v.v[:2], np.exp(-1j * np.angle(c_map[:2])))
        assert np.allclose(v.v[2], 1.0)
        # maximizes Re{c v} over the unit circle
        grid = np.exp(1j * np.linspace(0, TWO_PI, 100_000, endpoint=False))
        for m, n in itertools.product(range(2), range(4)):
            achieved = np.real(c_map[m, n] * v.v[m, n])
            assert achieved >= np.max(np.real(c_map[m, n] * grid)) - 1e-8


class TestNaivePattern:
    def test_ideal_rows_are_dft(self):
        m, b = 3, 4
        v = naive_pattern(m, b, ideal_model())
        idx = np.arange(b)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(b), idx) / b)
        # RIS rows take DFT rows 1..M; the all-ones DFT row is the direct link
        assert np.allclose(v.v, np.vstack([dft[1 : m + 1], dft[:1]]))
        assert np.allclose(v.v @ v.v.conj().T, b * np.eye(m + 1), atol=1e-12)

    def test_two_subframe_phases(self, model):
        # B = 2 DFT phases are {0, pi}, so the amplitudes are beta(0), beta(pi)
        v = naive_pattern(1, 2, model)
        assert abs(v.v[0, 0]) == pytest.approx(amplitude_of_phase(0.0, model))
        assert abs(v.v[0, 1]) == pytest.approx(amplitude_of_phase(np.pi, model))

    def test_entries_projection_fixed_points(self, model):
        v = naive_pattern(4, 6, model)
        assert np.allclose(project_to_feasible(v.v[:-1], model), v.v[:-1], atol=1e-12)

    def test_gram_nonsingular_for_defaults(self, model):
        v = naive_pattern(8, 9, model)
        assert np.linalg.cond(v.v @ v.v.conj().T) < 1e6

    def test_requires_enough_subframes(self, model):
        with pytest.raises(InvalidDims):
            naive_pattern(4, 4, model)


class TestOnOffPattern:
    def test_m2_matrix(self):
        v = onoff_pattern(2, 3)
        assert np.allclose(v.v, [[1, 0, 0], [0, 1, 0], [1, 1, 1]])

    def test_nonsingular_finite_mse(self):
        v = onoff_pattern(4, 5)
        assert abs(np.linalg.det(v.v)) > 0
        x = dft_training(2, 2, np.ones(2))
        assert np.isfinite(mse_ls(build_S(v, x), 1.0, 4))

    def test_column_permutation_invariance(self, rng):
        # any subframe ordering gives the same Gram, hence the same MSE
        v = onoff_pattern(3, 4)
        x = dft_training(2, 2, np.ones(2))
        base = mse_ls(build_S(v, x), 1.0, 4)
        for perm in itertools.permutations(range(4)):
            vp = ReflectionPattern(v=v.v[:, list(perm)])
            assert mse_ls(build_S(vp, x), 1.0, 4) == pytest.approx(base, rel=1e-10)

    def test_requires_square_layout(self):
        with pytest.raises(InvalidDims):
            onoff_pattern(3, 5)

    def test_worse_than_proposed_ls(self, model):
        cfg = SystemConfig(k=2, m=4, l=4, b=5, tau=2)
        designed, _ = design_ls(cfg, model, accelerate=True)
        x = dft_training(2, 2, cfg.power)
        j_onoff = mse_ls(build_S(onoff_pattern(4, 5), x), 1.0, 4)
        j_prop = mse_ls(build_S(designed, x), 1.0, 4)
        assert j_prop < j_onoff


class TestIdealProjectionStructure:
    def test_projection_is_entrywise(self, model, rng):
        from risce.ls_design import project_pattern

        ideal = random_feasible_pattern(rng, 3, 4, ideal_model())
        projected = project_pattern(ideal.v, model)
        for m in range(3):
            for n in range(4):
                assert projected[m, n] == pytest.approx(
                    project_to_feasible(ideal.v[m, n], model)
                )
        assert np.allclose(projected[-1], 1.0)

    def test_naive_matches_ideal_optimum_for_ls(self, model):
        # under the ideal model the DFT pattern is already LS-optimal, so the
        # naive scheme ties the ideal-optimized one within 1%
        cfg = SystemConfig(k=2, m=4, l=4, b=5, tau=2)
        optimized, _ = design_ls(cfg, ideal_model(), accelerate=False)
        naive = naive_pattern(4, 5, ideal_model())
        assert ls_objective(naive.v) == pytest.approx(
            ls_objective(optimized.v), rel=0.01
        )


class TestGrouping:
    def test_identity_grouping(self):
        g = group_reduce(6, 1)
        assert g.m_grouped == 6
        assert np.allclose(g.indicator(), np.eye(6))

    def test_combine_gamma_sums_blocks(self, rng):
        g = group_reduce(4, 2)
        k, l = 2, 3
        gamma = rng.standard_normal((l, 5 * k)) + 1j * rng.standard_normal((l, 5 * k))
        combined = g.combine_gamma(gamma, k)
        assert combined.shape == (l, 3 * k)
        assert np.allclose(combined[:, :k], gamma[:, :k] + gamma[:, k : 2 * k])
        assert np.allclose(combined[:, 2 * k :], gamma[:, 4 * k :])

    def test_combine_gamma_broadcasts_over_trials(self, rng):
        g = group_reduce(6, 3)
        k, l = 2, 3
        shape = (4, l, 7 * k)
        gamma = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        combined = g.combine_gamma(gamma, k)
        assert combined.shape == (4, l, 3 * k)
        for t in range(4):
            assert np.array_equal(combined[t], g.combine_gamma(gamma[t], k))

    def test_invalid_grouping(self):
        with pytest.raises(InvalidGrouping):
            group_reduce(8, 3)
        with pytest.raises(InvalidGrouping):
            group_reduce(8, 0)


_psi = st.floats(0.0, 0.95, exclude_max=True)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), m_g=st.integers(1, 4), rho=st.integers(1, 3),
       l=st.integers(1, 3), psi=st.tuples(_psi, _psi, _psi),
       seed=st.integers(0, 2**32 - 1))
def test_grouping_is_the_block_expansion_map(k, m_g, rho, l, psi, seed):
    # Grouping is Gamma -> Gamma P with P = blockdiag(kron(indicator, I_K), I_K):
    # the simulated sweep applies combine_gamma, the grouped LMMSE design
    # reads the grouped correlation, and both must be this one map.
    m = m_g * rho
    grouping = group_reduce(m, rho)
    indicator = grouping.indicator()
    p = np.zeros(((m + 1) * k, (m_g + 1) * k))
    p[: m * k, : m_g * k] = np.kron(indicator, np.eye(k))
    p[m * k :, m_g * k :] = np.eye(k)
    rng = np.random.default_rng(seed)
    shape = (l, (m + 1) * k)
    gamma = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = gamma @ p
    got = grouping.combine_gamma(gamma, k)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    corr = CorrelationSpec(*psi)
    expected = p.T @ cascaded_correlation(corr, m, k, l) @ p
    got = grouped_cascaded_correlation(corr, indicator, k, l)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestSchemeId:
    def test_scheme_names_are_stable(self):
        assert {s.value for s in SchemeId} == {
            "proposed", "ideal", "ideal-projection", "naive", "onoff",
            "proposed-grouped",
        }
