"""Exact dense complex linear algebra for small quantum systems.

States, operators and measurements are thin immutable wrappers around
``numpy`` arrays, validated on construction.  Spectra come from LAPACK
(``numpy.linalg.eigh`` and ``eigvalsh``).  The one place a vector is picked
out of a degenerate eigenspace, ``Spectrum.top_eigenvector``, uses a
convention that depends on the eigenspace alone, so optimal encodings do
not depend on the basis LAPACK returns: reruns on one build are
bit-identical, and LAPACK builds differ only by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tolerances import TOL

_SOLVER_NOT_HERMITIAN = "matrix is not Hermitian: max |H - H^dag| = {defect:.3e} exceeds {tol:.1e}"


def _as_square_matrix(value, name: str = "matrix") -> np.ndarray:
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _checked_hermitian(
    value, name: str, not_hermitian: str = "{name} is not Hermitian: deviation {defect:.3e}"
) -> np.ndarray:
    """Square, Hermitian within ``TOL.hermitian`` and inside the exact-solver
    cap: the checks shared by everything that takes a spectrum."""
    m = _as_square_matrix(value, name)
    defect = _hermiticity_defect(m)
    if defect > TOL.hermitian:
        raise ValueError(not_hermitian.format(name=name, defect=defect, tol=TOL.hermitian))
    if m.shape[0] > TOL.dim_cap:
        raise ValueError(f"dimension {m.shape[0]} exceeds the exact-solver cap {TOL.dim_cap}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector with a fixed global phase.

    The phase convention makes the first component of modulus above
    ``TOL.phase_pivot`` real and nonnegative, so equal rays compare equal
    entrywise.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-d vector")
        norm_sq = float(np.sum(np.abs(v) ** 2))
        if abs(norm_sq - 1.0) > TOL.norm:
            raise ValueError(f"state is not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
        v = v / np.sqrt(norm_sq)
        pivots = np.flatnonzero(np.abs(v) > TOL.phase_pivot)
        pivot = v[pivots[0]]
        v = v * (pivot.conjugate() / abs(pivot))
        object.__setattr__(self, "amplitudes", _frozen(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def inner(self, other: "PureState") -> complex:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in inner product")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive semidefinite operator of unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _checked_hermitian(self.matrix, "density matrix")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TOL.trace:
            raise ValueError(f"density matrix trace {trace:.12g} is not 1")
        low = np.linalg.eigvalsh(m)[0]
        if low < -TOL.psd:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", _frozen(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        return cls(state.projector())


@dataclass(frozen=True, eq=False)
class Effect:
    """Measurement effect: Hermitian with spectrum inside [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _checked_hermitian(self.matrix, "effect")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -TOL.psd or eigs[-1] > 1.0 + TOL.effect_upper:
            raise ValueError(f"effect spectrum [{eigs[0]:.3e}, {eigs[-1]:.12g}] leaves [0, 1]")
        object.__setattr__(self, "matrix", _frozen(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered collection of effects resolving the identity."""

    effects: tuple

    def __post_init__(self):
        effects = tuple(e if isinstance(e, Effect) else Effect(e) for e in self.effects)
        if len(effects) < 2:
            raise ValueError("a POVM needs at least two outcomes")
        dim = effects[0].dim
        if any(e.dim != dim for e in effects):
            raise ValueError("all effects must share one dimension")
        total = sum(e.matrix for e in effects)
        if np.max(np.abs(total - np.eye(dim))) > TOL.completeness:
            raise ValueError("effects do not resolve the identity")
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    @property
    def outcomes(self) -> int:
        return len(self.effects)

    def __getitem__(self, outcome: int) -> Effect:
        return self.effects[outcome]


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal basis given as a tuple of pure states."""

    vectors: tuple

    def __post_init__(self):
        vecs = tuple(v if isinstance(v, PureState) else PureState(np.asarray(v)) for v in self.vectors)
        dim = vecs[0].dim
        if len(vecs) != dim or any(v.dim != dim for v in vecs):
            raise ValueError("a basis needs exactly dim vectors of matching dimension")
        stack = np.stack([v.amplitudes for v in vecs])
        gram = stack @ stack.conj().T
        off = np.max(np.abs(gram - np.eye(dim)))
        if off > TOL.orthonormal:
            raise ValueError(f"basis is not orthonormal: overlap defect {off:.3e}")
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    def __getitem__(self, index: int) -> PureState:
        return self.vectors[index]

    def to_povm(self) -> Povm:
        return Povm(tuple(Effect(v.projector()) for v in self.vectors))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order with matching orthonormal eigenvectors,
    given as raw vectors or ``PureState``s and kept once, as the columns of
    the read-only ``eigenvector_matrix``."""

    eigenvalues: np.ndarray
    eigenvector_matrix: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        given = tuple(self.eigenvector_matrix)
        m = np.array([v.amplitudes if isinstance(v, PureState) else v for v in given], dtype=complex).T
        if w.ndim != 1 or m.shape != (w.size, w.size):
            raise ValueError("eigenvalue/eigenvector count mismatch")
        if np.any(np.diff(w) < -TOL.cluster_gap):
            raise ValueError("eigenvalues are not ascending")
        if np.max(np.abs(m.conj().T @ m - np.eye(w.size))) > TOL.orthonormal:
            raise ValueError("eigenvectors are not orthonormal")
        object.__setattr__(self, "eigenvalues", _frozen(w))
        object.__setattr__(self, "eigenvector_matrix", _frozen(m))
        if all(isinstance(v, PureState) for v in given):
            # wrapping is not idempotent to the last bit, so keep the states
            object.__setattr__(self, "eigenvectors", given)

    @cached_property
    def eigenvectors(self) -> tuple:
        """Every column as a phase-fixed ``PureState``, wrapped on first read
        unless the spectrum was built from states."""
        return tuple(PureState(v) for v in self.eigenvector_matrix.T)

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def top_eigenvector(self) -> PureState:
        """Canonical unit vector of the maximal-eigenvalue eigenspace.

        The eigenspace is spanned by the top cluster (consecutive gaps below
        ``TOL.cluster_gap``).  Its unit vector with the most leading zeros is
        unique up to phase; phase-fixed, it is the lexicographically smallest
        one.  It depends on the eigenspace alone, not on the basis of it that
        the solver returned.
        """
        w = self.eigenvalues
        start = w.size - 1
        while start > 0 and w[start] - w[start - 1] < TOL.cluster_gap:
            start -= 1
        if start == w.size - 1 and "eigenvectors" in vars(self):
            return self.eigenvectors[start]
        basis = self.eigenvector_matrix[:, start:]
        for i in range(basis.shape[0]):
            if basis.shape[1] == 1:
                break
            if np.linalg.norm(basis[i]) > TOL.phase_pivot:
                # keep the orthonormal combinations that vanish on component i
                basis = basis @ np.linalg.svd(basis[i : i + 1])[2][1:].conj().T
        return PureState(basis[:, 0])


def hermitian_eig(h) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come out ascending, and no eigenvector column is wrapped.
    Inside a degenerate cluster the basis is whichever one LAPACK returns;
    ``Spectrum.top_eigenvector`` picks its vector from the eigenspace alone.
    Reruns on one build are bit-identical.
    """
    m = _checked_hermitian(h, "input", _SOLVER_NOT_HERMITIAN)
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    if np.max(np.abs((v * w) @ v.conj().T - m)) > TOL.reconstruction:
        raise RuntimeError("eigendecomposition failed the reconstruction check")
    return Spectrum(w, v.T)


def operator_norm(h) -> float:
    """Operator norm of a Hermitian positive semidefinite matrix."""
    eigs = np.linalg.eigvalsh(_checked_hermitian(h, "input", _SOLVER_NOT_HERMITIAN))
    if eigs[0] < -TOL.psd:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {eigs[0]:.3e}")
    return max(float(eigs[-1]), 0.0)


def tensor(a, b):
    """Tensor product of two states or two operators, big-endian.

    The left factor is the most significant digit: component ``I`` of a
    product state carries the base-d digits of ``I`` left to right.  Mixing a
    state with an operator is rejected.
    """
    a_state = isinstance(a, PureState)
    b_state = isinstance(b, PureState)
    if a_state and b_state:
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    if a_state or b_state:
        raise TypeError("cannot tensor a state with an operator")
    return np.kron(_as_square_matrix(a, "left factor"), _as_square_matrix(b, "right factor"))


def partial_trace(operator, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    ``dims`` is ``(d1, d2)`` with the first factor most significant;
    ``keep`` is 1 or 2 and names the subsystem that survives.
    """
    m = _as_square_matrix(operator, "operator")
    d1, d2 = dims
    if d1 < 1 or d2 < 1 or d1 * d2 != m.shape[0]:
        raise ValueError(f"dims {dims} do not factor dimension {m.shape[0]}")
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def born_probability(state, effect) -> float:
    """Born-rule probability of one effect on a pure state or density matrix."""
    e = effect.matrix if isinstance(effect, Effect) else _as_square_matrix(effect, "effect")
    if isinstance(state, PureState):
        if state.dim != e.shape[0]:
            raise ValueError("state and effect dimensions differ")
        value = float(np.real(np.vdot(state.amplitudes, e @ state.amplitudes)))
    elif isinstance(state, DensityMatrix):
        if state.dim != e.shape[0]:
            raise ValueError("state and effect dimensions differ")
        value = float(np.real(np.trace(state.matrix @ e)))
    else:
        raise TypeError("state must be a PureState or DensityMatrix")
    if value < -TOL.probability_slack or value > 1.0 + TOL.probability_slack:
        raise ValueError(f"Born probability {value:.12g} is outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)
