"""Dense Hermitian kernels: largest eigenvalue, trace of inverse, HPD solves.

One LAPACK call each, exact to rounding: ``eigvalsh`` for ``largest_eigenvalue``,
``conditioned_spectrum`` and ``trace_of_inverse``; ``eigh`` for ``conditioned_eigh``
(the LS surrogate); Cholesky for ``solve_hpd``.  Sizes stay small ((M+1)K below ~100
at paper scale), so all is dense; explicit inverses are reserved for test oracles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import SingularGram

CONDITION_LIMIT = 1e12
_HERMITIAN_TOL = 1e-10


class PowerIterationResult(NamedTuple):
    """Result of :func:`largest_eigenvalue`: always converged, 0 iterations.

    The type outlives the power iteration it was named for because the
    benchmark tracer (``perfbench/tracing.py``) reads ``iterations``.
    """

    value: float
    converged: bool
    iterations: int


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate Hermitian symmetry (relative Frobenius deviation < _HERMITIAN_TOL).

    Raises SingularGram when A holds a NaN or an infinite entry.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if not np.isfinite(scale):
        raise SingularGram(f"matrix is not finite (Frobenius norm {scale})")
    if scale > 0 and np.linalg.norm(a - a.conj().T) >= _HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def largest_eigenvalue(a: np.ndarray) -> PowerIterationResult:
    """Largest eigenvalue of a Hermitian matrix (LAPACK eigvalsh)."""
    a = require_hermitian(a)
    return PowerIterationResult(float(np.linalg.eigvalsh(a)[-1]), True, 0)


def _conditioned(decompose, a: np.ndarray):
    """decompose(A), ``eigvalsh`` or ``eigh``, of Hermitian PD A.

    Raises SingularGram when A is not PD, its condition number exceeds
    CONDITION_LIMIT, or LAPACK fails to converge.
    """
    a = require_hermitian(a)
    try:
        out = decompose(a)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("eigenvalue decomposition failed") from exc
    lam = out if decompose is np.linalg.eigvalsh else out[0]
    if not (lam[0] > 0.0 and lam[-1] <= CONDITION_LIMIT * lam[0]):
        raise SingularGram(
            f"eigenvalues in [{lam[0]:.3e}, {lam[-1]:.3e}]: not PD within "
            f"condition number {CONDITION_LIMIT:.0e}"
        )
    return out


def conditioned_spectrum(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian PD A (eigvalsh), checked by :func:`_conditioned`."""
    return _conditioned(np.linalg.eigvalsh, a)


def conditioned_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending (eigenvalues, eigenvectors) of Hermitian PD A (eigh), checked likewise."""
    return _conditioned(np.linalg.eigh, a)


def trace_of_inverse(a: np.ndarray) -> float:
    """Tr[A^{-1}] = sum(1 / lambda) for Hermitian PD A.

    Raises SingularGram as :func:`conditioned_spectrum` does.
    """
    return float(np.sum(1.0 / conditioned_spectrum(a)))


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian PD A via Cholesky; SingularGram unless PD."""
    try:
        low = scipy.linalg.cholesky(require_hermitian(a), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram("matrix is not positive definite") from exc
    y = scipy.linalg.solve_triangular(low, b, lower=True)
    return scipy.linalg.solve_triangular(low.conj().T, y, lower=False)
