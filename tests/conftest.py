import numpy as np
import pytest

from risce import numerics
from risce.channel import kronecker_factors
from risce.ls_design import ls_surrogate
from risce.phase_model import ReflectionModel, reflection_coefficient
from risce.system import ReflectionPattern, TrainingMatrix


def random_feasible_pattern(rng, m, b, model) -> ReflectionPattern:
    """Random law-feasible pattern with the mandatory all-ones last row."""
    thetas = rng.uniform(0.0, 2.0 * np.pi, (m, b))
    v = np.ones((m + 1, b), dtype=complex)
    v[:m] = reflection_coefficient(thetas, model)
    return ReflectionPattern(v=v)


def ls_objective(v: np.ndarray) -> float:
    """LS pattern objective Tr[(V V^H)^{-1}] of the (M+1, B) v, by eigvalsh (test oracle)."""
    return numerics.trace_of_inverse(v @ v.conj().T)


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


def ls_majorizer(v0: np.ndarray):
    """The LS MM surrogate f(V; V0) at the (M+1, B) anchor v0, as a function of V (test oracle).

    f(V; V0) = lambda1 ||V||^2 + 2 Re{Tr[A0 V]} + const(V0), with lambda1 and
    A0 from :func:`risce.ls_design.ls_surrogate` and const(V0) = Tr[G0^-1] +
    lambda1 ||V0||^2 + 2 Re{Tr[V0^H W]}, G0 = V0 V0^H, W = G0^-2 V0, from the
    step's own checked eigh(G0); 2 Re{Tr[V0^H W]} equals 2 Tr[G0^-1].
    """
    [(lam, u)] = numerics.conditioned_eigh(v0 @ v0.conj().T)
    lambda1, a0 = ls_surrogate(v0, (lam, u))
    w = (u / lam**2) @ (u.conj().T @ v0)
    const = (float(np.sum(1.0 / lam)) + lambda1 * float(np.sum(np.abs(v0) ** 2))
             + 2.0 * float(np.real(np.sum(np.conj(v0) * w))))

    def value(v: np.ndarray) -> float:
        quad = lambda1 * float(np.sum(np.abs(v) ** 2))
        lin = 2.0 * float(np.real(np.sum(a0 * v.T)))
        return quad + lin + const

    return value


def ls_filter(s) -> np.ndarray:
    """Dense LS filter W = S^H (S S^H)^{-1}, by Cholesky of the checked S S^H (test oracle)."""
    gram = s @ s.conj().T
    numerics.trace_of_inverse(gram)
    return numerics.solve_hpd(gram, s).conj().T


def ls_mse(s, sigma2, l) -> float:
    """Dense LS MSE sigma^2 L Tr[(S S^H)^{-1}], by eigvalsh of S S^H (test oracle)."""
    return sigma2 * l * numerics.trace_of_inverse(s @ s.conj().T)


def lmmse_filter(s, r_gamma, sigma2, l) -> np.ndarray:
    """Dense LMMSE filter W = (S^H R S + sigma^2 L I)^{-1} S^H R, by Cholesky (test oracle)."""
    f = s.conj().T @ r_gamma
    return numerics.solve_hpd(f @ s + sigma2 * l * np.eye(s.shape[1]), f)


def lmmse_objective(s, r_gamma, sigma2, l) -> float:
    """Dense design objective g(S) = -Tr[R S (S^H R S + sigma^2 L I)^{-1} S^H R] (test oracle).

    J_LMMSE = Tr[R] + g(S).
    """
    f = s.conj().T @ r_gamma
    return -float(np.real(np.sum(lmmse_filter(s, r_gamma, sigma2, l) * f.conj())))


def lmmse_surrogate_value(x0, v0, r_gamma, s, sigma2, l) -> float:
    """g(S; S0) of the LMMSE first majorization at the anchor S0 = kron(V0, X0) (test oracle).

    g(S; S0) = Tr[Xi0^H S^H R S Xi0] - 2 Re{Tr[Xi0 R S]} + sigma^2 L Tr[Xi0 Xi0^H],
    with the dense Xi0 = :func:`lmmse_filter` at S0, built from the inputs alone.
    """
    xi0 = lmmse_filter(np.kron(v0, x0), r_gamma, sigma2, l)
    quad = float(np.real(np.trace(xi0.conj().T @ s.conj().T @ r_gamma @ s @ xi0)))
    lin = -2.0 * float(np.real(np.trace(xi0 @ r_gamma @ s)))
    return quad + lin + sigma2 * l * float(np.sum(np.abs(xi0) ** 2))


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


def random_factors(rng, n_a, k):
    """Factors of R = kron(A, P) for random HPD A (n_a x n_a) and P (k x k)."""
    return kronecker_factors(np.kron(random_hpd(rng, n_a), random_hpd(rng, k)), k)


@pytest.fixture
def model():
    return ReflectionModel()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
