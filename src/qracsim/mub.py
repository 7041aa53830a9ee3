"""Construction and verification of mutually unbiased basis pairs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .linalg import Basis, PureState, tensor
from .tolerances import TOL


def unbiasedness_defect(first: Basis, second: Basis) -> float:
    """Worst deviation of the squared overlaps from the unbiased value 1/d."""
    if first.dim != second.dim:
        raise ValueError("bases must share one dimension")
    d = first.dim
    a = np.stack([v.amplitudes for v in first.vectors])
    b = np.stack([v.amplitudes for v in second.vectors])
    overlaps = np.abs(a.conj() @ b.T) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / d)))


@dataclass(frozen=True, eq=False)
class MubPair:
    """Two orthonormal bases whose squared overlaps all equal 1/d."""

    first: Basis
    second: Basis

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise ValueError("bases must share one dimension")
        defect = unbiasedness_defect(self.first, self.second)
        if defect > TOL.mub_defect:
            raise ValueError(f"bases are not mutually unbiased: defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.first.dim


def pauli_mub_pair() -> MubPair:
    """The qubit pair: computational basis and its conjugate (X) basis."""
    zero = PureState(np.array([1.0, 0.0]))
    one = PureState(np.array([0.0, 1.0]))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = PureState(np.array([1.0, -1.0]) / np.sqrt(2.0))
    return MubPair(Basis((zero, one)), Basis((plus, minus)))


def _product_basis(base: Basis, n: int) -> Basis:
    # product() runs its last factor fastest, so the order is big-endian
    return Basis(tuple(reduce(tensor, states) for states in product(base.vectors, repeat=n)))


def product_mub_pair(base: MubPair, n: int) -> MubPair:
    """Tensor-power pair on n qudits; vector I is the product over the
    big-endian base-d digits of I."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if base.dim**n > TOL.dim_cap:
        raise ValueError(
            f"dimension {base.dim ** n} exceeds the exact-solver cap {TOL.dim_cap}"
        )
    return MubPair(_product_basis(base.first, n), _product_basis(base.second, n))


def fourier_mub_pair(d: int) -> MubPair:
    """Computational basis paired with the discrete Fourier basis in dimension d."""
    if d < 2 or d > TOL.dim_cap:
        raise ValueError(f"dimension must be in 2..{TOL.dim_cap}")
    eye = np.eye(d)
    first = Basis(tuple(PureState(eye[k]) for k in range(d)))
    omega = np.exp(2j * np.pi / d)
    second = Basis(
        tuple(
            PureState(omega ** (j * np.arange(d)) / np.sqrt(d))
            for j in range(d)
        )
    )
    return MubPair(first, second)
