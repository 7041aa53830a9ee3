"""Construction and verification of mutually unbiased basis pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Basis, _integer, _require_type, _unit_rows
from .tolerances import TOL


def unbiasedness_defect(first: Basis, second: Basis) -> float:
    """Worst deviation of the squared overlaps from the unbiased value 1/d."""
    if not isinstance(first, Basis) or not isinstance(second, Basis):
        raise TypeError(f"first and second must be Bases, got {type(first).__name__}, {type(second).__name__}")
    if first.dim != second.dim:
        raise ValueError("bases must share one dimension")
    overlaps = np.abs(first.vectors.conj() @ second.vectors.T) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / first.dim)))


@dataclass(frozen=True, eq=False)
class MubPair:
    """Two orthonormal bases whose squared overlaps all equal 1/d."""

    first: Basis
    second: Basis

    def __post_init__(self):
        defect = unbiasedness_defect(self.first, self.second)  # checks the types and dimensions too
        if defect > TOL.mub_defect:
            raise ValueError(f"bases are not mutually unbiased: defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.first.dim


def pauli_mub_pair() -> MubPair:
    """The qubit pair: computational basis and its conjugate (X) basis."""
    return MubPair(Basis(np.eye(2)), Basis(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)))


def _product_basis(base: Basis, n: int) -> Basis:
    # row-wise Kronecker power, the last factor fastest, so big-endian; each
    # product is normalised and phase-fixed by ``_unit_rows``, the last by Basis
    if n == 1:
        return base
    rows = base.vectors
    for factor in range(2, n + 1):
        rows = (rows[:, None, :, None] * base.vectors[None, :, None, :]).reshape(base.dim**factor, -1)
        rows = _unit_rows(rows) if factor < n else rows
    return Basis(rows)


def product_mub_pair(base: MubPair, n: int) -> MubPair:
    """Tensor-power pair on n qudits; vector I is the product over the
    big-endian base-d digits of I."""
    _require_type(base, MubPair, "base")
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    if base.dim**n > TOL.dim_cap:
        raise ValueError(
            f"dimension {base.dim ** n} exceeds the exact-solver cap {TOL.dim_cap}"
        )
    return MubPair(_product_basis(base.first, n), _product_basis(base.second, n))


def fourier_mub_pair(d: int) -> MubPair:
    """Computational basis paired with the discrete Fourier basis in dimension d."""
    d = _integer(d, "d")
    if d < 2 or d > TOL.dim_cap:
        raise ValueError(f"dimension must be in 2..{TOL.dim_cap}")
    omega = np.exp(2j * np.pi / d)
    return MubPair(Basis(np.eye(d)), Basis(omega ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d)))
