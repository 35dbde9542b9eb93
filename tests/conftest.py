import numpy as np
import pytest

from risce.phase_model import ReflectionModel, reflection_coefficient
from risce.system import ReflectionPattern, TrainingMatrix


def random_feasible_pattern(rng, m, b, model) -> ReflectionPattern:
    """Random law-feasible pattern with the mandatory all-ones last row."""
    thetas = rng.uniform(0.0, 2.0 * np.pi, (m, b))
    v = np.ones((m + 1, b), dtype=complex)
    v[:m] = reflection_coefficient(thetas, model)
    return ReflectionPattern(v=v)


def phase_cost(q, c, theta, model: ReflectionModel):
    """q |r|^2 + 2 Re{c r} with r = reflection_coefficient(theta, model) (test oracle).

    The per-entry cost of both pattern steps, written from the complex
    coefficient rather than from the amplitude and the cosine/sine split.
    """
    r = reflection_coefficient(theta, model)
    return q * np.abs(r) ** 2 + 2.0 * np.real(c * r)


def _unit_phasor(z: np.ndarray) -> np.ndarray:
    """exp(-j arg(z)) entrywise, with arg(0) = 0 (also for a signed zero)."""
    return np.where(z == 0, 1.0, np.exp(-1j * np.angle(z)))


def ideal_update_ls(a0: np.ndarray) -> ReflectionPattern:
    """Closed-form ideal-RIS MM step for the LS surrogate (test oracle).

    a0 is the (B, M+1) linear-coefficient block; entry (m, n) of the result
    is e^{-j arg(-[A0]_{n,m})}, the unit-modulus minimizer of
    lambda1 + 2 Re{[A0]_{n,m} v}.
    """
    b, m_plus_1 = a0.shape
    v = np.ones((m_plus_1, b), dtype=complex)
    v[:-1] = _unit_phasor(-a0[:, :-1].T)
    return ReflectionPattern(v=v)


def ideal_update_lmmse(c_map: np.ndarray) -> ReflectionPattern:
    """Closed-form ideal-RIS MM step for the LMMSE surrogate (test oracle).

    c_map is the (M+1, B) matrix of summed diagonal C0 entries; entry (m, n)
    becomes e^{-j arg(c_{m,n})}, maximizing Re{c_{m,n} v} over |v| = 1.
    """
    v = np.ones(c_map.shape, dtype=complex)
    v[:-1] = _unit_phasor(c_map[:-1])
    return ReflectionPattern(v=v)


def random_training(rng, k, tau, power) -> TrainingMatrix:
    """Random training rows scaled exactly to their power budgets."""
    power = np.asarray(power, dtype=float)
    x = rng.standard_normal((k, tau)) + 1j * rng.standard_normal((k, tau))
    x *= (np.sqrt(power) / np.linalg.norm(x, axis=1))[:, None]
    return TrainingMatrix(x=x, power=power)


def random_hpd(rng, n, jitter=0.1) -> np.ndarray:
    """Random Hermitian positive definite matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + jitter * np.eye(n)


@pytest.fixture
def model():
    return ReflectionModel()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
