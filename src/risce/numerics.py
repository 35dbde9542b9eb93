"""Dense Hermitian kernels: largest eigenvalue, trace of inverse, HPD solves.

numpy's LAPACK calls, exact to rounding: ``eigvalsh`` for ``largest_eigenvalue`` and
``trace_of_inverse``, ``eigh`` for ``conditioned_eigh``, ``cholesky`` for ``solve_hpd``.
``trace_of_inverse`` and ``conditioned_eigh`` take the Kronecker factors of A, one call
per factor, so S S^H = kron(V V^H, X X^H) is never formed.  Explicit inverses and
``solve_hpd`` serve only the dense test oracles (``solve_hpd`` stays: the benchmark
tracer wraps it by name).  No kernel checks symmetry (LAPACK reads A's lower triangle):
risce's Gram products are Hermitian by construction, and a caller's R is checked where
it enters, in :func:`~risce.channel.kronecker_factors`.  LinAlgError, a non-finite
eigenvalue (:func:`checked_eigh`) and a non-finite A (:func:`solve_hpd`) raise SingularGram.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SingularGram

CONDITION_LIMIT = 1e12


class PowerIterationResult(NamedTuple):
    """Result of :func:`largest_eigenvalue`: always converged, 0 iterations.

    The type outlives the power iteration it was named for because the
    benchmark tracer (``perfbench/tracing.py``) reads ``iterations``.
    """

    value: float
    converged: bool
    iterations: int


def checked_eigh(a: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(lam, U) = eigh(A) or (eigvalsh(A), None); SingularGram on LinAlgError or a non-finite lam."""
    try:
        lam, u = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("eigenvalue decomposition failed") from exc
    if not np.all(np.isfinite(lam)):   # NaN entries can leave the top eigenvalue finite
        raise SingularGram("matrix has a non-finite eigenvalue")
    return lam, u


def largest_eigenvalue(a: np.ndarray) -> PowerIterationResult:
    """Largest eigenvalue of a Hermitian matrix (LAPACK eigvalsh)."""
    return PowerIterationResult(float(checked_eigh(a, vectors=False)[0][-1]), True, 0)


def _conditioned(vectors: bool, *factors) -> list:
    """:func:`checked_eigh` of each Hermitian factor F of A = kron(*factors).

    A's eigenvalues are the products of the factors', so A is never formed.
    Raises SingularGram when a factor is not PD or A's condition number (the
    product of the factors') exceeds CONDITION_LIMIT, and as checked_eigh does.
    """
    outs = [checked_eigh(f, vectors) for f in factors]
    lo = math.prod(float(lam[0]) for lam, _ in outs)    # A's extreme eigenvalues
    hi = math.prod(float(lam[-1]) for lam, _ in outs)
    if not (all(lam[0] > 0.0 for lam, _ in outs) and hi <= CONDITION_LIMIT * lo):
        raise SingularGram(
            f"eigenvalues in [{lo:.3e}, {hi:.3e}]: not PD within "
            f"condition number {CONDITION_LIMIT:.0e}"
        )
    return outs


def conditioned_eigh(*factors) -> list[tuple[np.ndarray, np.ndarray]]:
    """eigh of each factor of Hermitian PD A = kron(*factors), checked by :func:`_conditioned`."""
    return _conditioned(True, *factors)


def trace_of_inverse(*factors) -> float:
    """Tr[A^{-1}] of Hermitian PD A = kron(*factors): the product of the factors' sum(1 / lambda).

    Raises SingularGram as :func:`_conditioned` does.
    """
    return float(np.prod([np.sum(1.0 / lam) for lam, _ in _conditioned(False, *factors)]))


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian PD A by numpy's Cholesky; SingularGram unless A is finite and PD."""
    if not np.all(np.isfinite(a)):   # numpy's Cholesky turns NaN or inf into NaNs, unraised
        raise SingularGram("matrix is not finite and positive definite")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("matrix is not finite and positive definite") from exc
    return np.linalg.solve(low.conj().T, np.linalg.solve(low, b))
