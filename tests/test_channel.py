"""Tests for correlated channel sampling and the cascaded correlation matrix."""

import numpy as np
import pytest

from risce.channel import (
    ChannelRealization,
    CorrelationSpec,
    cascaded_channel,
    cascaded_correlation,
    coloring_factor,
    complex_gaussian,
    complex_gaussians,
    exp_correlation,
    grouped_cascaded_correlation,
    sample_channels,
    sqrt_psd,
)
from risce.errors import DimensionMismatch, InvalidPsi
from risce.types import SystemConfig


class TestExpCorrelation:
    def test_two_by_two(self):
        assert np.allclose(exp_correlation(2, 0.5), [[1.0, 0.5], [0.5, 1.0]])

    def test_zero_psi_identity(self):
        assert np.allclose(exp_correlation(3, 0.0), np.eye(3))

    def test_positive_definite(self):
        assert np.linalg.eigvalsh(exp_correlation(4, 0.4))[0] > 0.0

    def test_invalid_psi(self):
        with pytest.raises(InvalidPsi):
            exp_correlation(3, 1.0)
        with pytest.raises(InvalidPsi):
            exp_correlation(3, -0.2)
        with pytest.raises(InvalidPsi):
            CorrelationSpec(psi_ue=1.0)


def _two_draws(rng, shape):
    """CN(0, 1) samples as two real normal draws, the form the sweep's streams fix."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestComplexGaussian:
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 5), (16, 84), (4, 3, 2)])
    def test_one_draw_matches_two_draws_bit_for_bit(self, shape):
        for seed in (0, 7, np.random.SeedSequence([3, 1, 4, 1])):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = complex_gaussian(rng, shape)
            assert got.shape == shape and got.dtype == complex
            assert np.array_equal(got, _two_draws(twin, shape))
            # Both generators end in the same state, so later draws agree.
            assert rng.bit_generator.state == twin.bit_generator.state
            assert np.array_equal(rng.standard_normal(5), twin.standard_normal(5))

    def test_block_rows_match_a_draw_per_shape(self):
        shapes = ((4, 3), (2, 4), (2, 3))
        seeds = [np.random.SeedSequence([5, t]) for t in range(3)]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        blocks = complex_gaussians(rngs, shapes)
        for t, (seed, rng) in enumerate(zip(seeds, rngs)):
            twin = np.random.default_rng(seed)
            for block, shape in zip(blocks, shapes):
                assert block.shape == (len(seeds), *shape)
                assert np.array_equal(block[t], _two_draws(twin, shape))
            assert rng.bit_generator.state == twin.bit_generator.state


class TestSampleChannels:
    CFG = SystemConfig(k=3, m=4, l=2, b=5, tau=3)

    def test_deterministic(self):
        corr = CorrelationSpec()
        a = sample_channels(42, self.CFG, corr)
        b = sample_channels(42, self.CFG, corr)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.h_r, b.h_r)
        assert np.array_equal(a.h_d, b.h_d)

    @pytest.mark.parametrize("k, m, l, psi", [
        (3, 4, 2, (0.2, 0.4, 0.6)), (1, 5, 3, (0.0, 0.9, 0.3)), (4, 20, 16, (0.2, 0.4, 0.6)),
    ])
    def test_cached_coloring_matches_explicit(self, k, m, l, psi):
        cfg = SystemConfig(k=k, m=m, l=l)
        corr = CorrelationSpec(*psi)
        s_ue, s_ris, s_bs = (sqrt_psd(exp_correlation(n, p)) for n, p in zip((k, m, l), psi))
        for seed in (0, 7, np.random.SeedSequence([3, 1, 4, 0])):
            ch = sample_channels(seed, cfg, corr)
            rng = np.random.default_rng(seed)
            bar = [complex_gaussian(rng, shape) for shape in ((m, k), (l, m), (l, k))]
            assert np.array_equal(ch.h_r, s_ris @ bar[0] @ s_ue.T)
            assert np.array_equal(ch.g, s_bs @ bar[1] @ s_ris.T)
            assert np.array_equal(ch.h_d, s_bs @ bar[2] @ s_ue.T)

    def test_seed_list_stacks_the_per_seed_draws(self):
        cfg = SystemConfig(k=2, m=5, l=3)
        corr = CorrelationSpec()
        seeds = [np.random.SeedSequence([8, t, 0]) for t in range(5)]
        block = sample_channels(seeds, cfg, corr)
        assert block.g.shape == (5, 3, 5) and block.h_r.shape == (5, 5, 2)
        for t, seed in enumerate(seeds):
            one = sample_channels(seed, cfg, corr)
            assert np.array_equal(block.g[t], one.g)
            assert np.array_equal(block.h_r[t], one.h_r)
            assert np.array_equal(block.h_d[t], one.h_d)
        # A list of ints is still the entropy of one seed.
        one = sample_channels([8, 0], cfg, corr)
        assert np.array_equal(one.g, sample_channels(np.random.SeedSequence([8, 0]), cfg, corr).g)

    def test_cached_factor_is_read_only(self):
        factor = coloring_factor(4, 0.4)
        assert coloring_factor(4, 0.4) is factor
        with pytest.raises(ValueError):
            factor[0, 0] = 2.0
        with pytest.raises(ValueError):
            factor.T[1, 0] = 2.0

    def test_white_case_unit_variance(self):
        corr = CorrelationSpec(psi_ue=0.0, psi_ris=0.0, psi_bs=0.0)
        samples = [sample_channels(s, self.CFG, corr) for s in range(1500)]
        h = np.stack([s.h_r for s in samples])  # ~1.8e4 scalar samples
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.05)
        # distinct entries uncorrelated
        prod = np.mean(h[:, 0, 0] * np.conj(h[:, 1, 1]))
        assert abs(prod) < 0.05

    def test_adjacent_ris_rows_correlation(self):
        corr = CorrelationSpec(psi_ue=0.0, psi_ris=0.4, psi_bs=0.0)
        acc = 0.0
        n = 30_000  # x K entries each, ~1e5 scalar samples
        for s in range(n):
            h = sample_channels(s, self.CFG, corr).h_r
            acc += np.mean(h[0] * np.conj(h[1])).real
        assert acc / n == pytest.approx(0.4, abs=0.05)

    def test_coloring_covariance_spot_check(self, rng):
        corr = CorrelationSpec(psi_ue=0.3, psi_ris=0.5, psi_bs=0.0)
        target = np.kron(exp_correlation(self.CFG.k, 0.3), exp_correlation(self.CFG.m, 0.5))
        n = 8000
        vecs = np.stack([
            sample_channels(s, self.CFG, corr).h_r.reshape(-1, order="F")
            for s in range(n)
        ])
        dim = vecs.shape[1]
        for _ in range(10):
            i, j = rng.integers(0, dim, 2)
            est = np.mean(vecs[:, i] * np.conj(vecs[:, j])).real
            assert est == pytest.approx(target[i, j], abs=0.05)


class TestCascadedChannel:
    def test_scalar_case(self):
        g = np.array([[2.0 + 1j]])
        h_r = np.array([[1.0 - 1j]])
        h_d = np.array([[0.5j]])
        gamma = cascaded_channel(ChannelRealization(g=g, h_r=h_r, h_d=h_d))
        # block m uses the raw row of H_r (it already is h_{r,m}^H)
        assert np.allclose(gamma, [[(2.0 + 1j) * (1.0 - 1j), 0.5j]])

    def test_blocks_are_rank_one(self, rng):
        cfg = SystemConfig(k=3, m=4, l=5, b=5, tau=3)
        ch = sample_channels(0, cfg, CorrelationSpec())
        gamma = cascaded_channel(ch)
        for m in range(4):
            block = gamma[:, m * 3 : (m + 1) * 3]
            assert np.linalg.matrix_rank(block, tol=1e-10) <= 1

    def test_matches_loop_oracle(self):
        cfg = SystemConfig(k=2, m=2, l=2, b=3, tau=2)
        ch = sample_channels(3, cfg, CorrelationSpec())
        gamma = cascaded_channel(ch)
        oracle = np.zeros((2, 6), dtype=complex)
        for m in range(2):
            for l in range(2):
                for k in range(2):
                    oracle[l, m * 2 + k] = ch.g[l, m] * ch.h_r[m, k]
        oracle[:, 4:] = ch.h_d
        assert np.allclose(gamma, oracle)

    def test_dimension_mismatch(self):
        bad = ChannelRealization(
            g=np.zeros((2, 3)), h_r=np.zeros((4, 2)), h_d=np.zeros((2, 2))
        )
        with pytest.raises(DimensionMismatch):
            cascaded_channel(bad)
        stacks = ChannelRealization(
            g=np.zeros((3, 2, 3)), h_r=np.zeros((2, 3, 2)), h_d=np.zeros((3, 2, 2))
        )
        with pytest.raises(DimensionMismatch):
            cascaded_channel(stacks)

    def test_trial_axis_broadcasts(self):
        cfg = SystemConfig(k=3, m=4, l=2)
        seeds = [np.random.SeedSequence([6, t]) for t in range(4)]
        block = cascaded_channel(sample_channels(seeds, cfg, CorrelationSpec()))
        assert block.shape == (4, 2, 5 * 3)
        for t, seed in enumerate(seeds):
            one = cascaded_channel(sample_channels(seed, cfg, CorrelationSpec()))
            assert np.array_equal(block[t], one)


class TestCascadedCorrelation:
    def test_white_case(self):
        r = cascaded_correlation(CorrelationSpec(0.0, 0.0, 0.0), m=3, k=2, l=4)
        assert np.allclose(r, 4.0 * np.eye(8))

    def test_hand_evaluated_hadamard_square(self):
        r = cascaded_correlation(CorrelationSpec(psi_ue=0.0, psi_ris=0.4, psi_bs=0.6),
                                 m=2, k=1, l=4)
        # adjacent-element block entry is L * psi_ris^2
        assert r[0, 1] == pytest.approx(4.0 * 0.16)
        assert r[1, 0] == pytest.approx(4.0 * 0.16)

    def test_trace_and_psd(self):
        r = cascaded_correlation(CorrelationSpec(), m=5, k=3, l=4)
        assert np.trace(r) == pytest.approx(4 * 3 * 6, rel=1e-12)
        assert np.linalg.eigvalsh(r)[0] > -1e-12
        assert np.allclose(r, r.conj().T)

    def test_cross_blocks_zero(self):
        r = cascaded_correlation(CorrelationSpec(), m=3, k=2, l=4)
        assert np.allclose(r[: 3 * 2, 3 * 2 :], 0.0)

    def test_monte_carlo_covariance(self):
        corr = CorrelationSpec(psi_ue=0.2, psi_ris=0.4, psi_bs=0.6)
        cfg = SystemConfig(k=2, m=3, l=4, b=4, tau=2)
        analytic = cascaded_correlation(corr, m=3, k=2, l=4)
        acc = np.zeros_like(analytic, dtype=complex)
        n = 30_000
        for s in range(n):
            gamma = cascaded_channel(sample_channels(s, cfg, corr))
            acc += gamma.conj().T @ gamma
        est = acc / n
        # entrywise within +-5% of L
        assert np.max(np.abs(est - analytic)) < 0.05 * 4

    def test_grouped_correlation_consistency(self):
        # rho = 1 grouping reproduces the ungrouped matrix
        corr = CorrelationSpec()
        full = cascaded_correlation(corr, m=4, k=2, l=3)
        grouped = grouped_cascaded_correlation(corr, np.eye(4), k=2, l=3)
        assert np.allclose(full, grouped)
