"""Dense Hermitian kernels: largest eigenvalue, trace of inverse, HPD solves.

One LAPACK call each, exact to rounding: ``eigvalsh`` for ``largest_eigenvalue`` and
``trace_of_inverse``, ``eigh`` for ``conditioned_eigh``, Cholesky for ``solve_hpd``.
``trace_of_inverse`` and ``conditioned_eigh`` take the Kronecker factors of A, one call
per factor, so S S^H = kron(V V^H, X X^H) is never formed.  Explicit inverses are
reserved for test oracles.
"""

from __future__ import annotations

import math
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


def _conditioned(decompose, *factors) -> list:
    """decompose(F), ``eigvalsh`` or ``eigh``, of each Hermitian factor F of A = kron(*factors).

    A's eigenvalues are the products of the factors', so A is never formed.
    Raises SingularGram when a factor is not PD, A's condition number (the
    product of the factors') exceeds CONDITION_LIMIT, or LAPACK fails to
    converge.
    """
    try:
        outs = [decompose(require_hermitian(f)) for f in factors]
    except np.linalg.LinAlgError as exc:
        raise SingularGram("eigenvalue decomposition failed") from exc
    spectra = [out if decompose is np.linalg.eigvalsh else out[0] for out in outs]
    lo = math.prod(float(lam[0]) for lam in spectra)    # A's extreme eigenvalues
    hi = math.prod(float(lam[-1]) for lam in spectra)
    if not (all(lam[0] > 0.0 for lam in spectra) and hi <= CONDITION_LIMIT * lo):
        raise SingularGram(
            f"eigenvalues in [{lo:.3e}, {hi:.3e}]: not PD within "
            f"condition number {CONDITION_LIMIT:.0e}"
        )
    return outs


def conditioned_eigh(*factors) -> list[tuple[np.ndarray, np.ndarray]]:
    """eigh of each factor of Hermitian PD A = kron(*factors), checked by :func:`_conditioned`."""
    return _conditioned(np.linalg.eigh, *factors)


def trace_of_inverse(*factors) -> float:
    """Tr[A^{-1}] of Hermitian PD A = kron(*factors): the product of the factors' sum(1 / lambda).

    Raises SingularGram as :func:`_conditioned` does.
    """
    spectra = _conditioned(np.linalg.eigvalsh, *factors)
    return float(np.prod([np.sum(1.0 / lam) for lam in spectra]))


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian PD A via Cholesky; SingularGram unless PD."""
    try:
        low = scipy.linalg.cholesky(require_hermitian(a), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram("matrix is not positive definite") from exc
    y = scipy.linalg.solve_triangular(low, b, lower=True)
    return scipy.linalg.solve_triangular(low.conj().T, y, lower=False)
