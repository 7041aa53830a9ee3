"""Shared helpers for building random states and measurements, and the
one-at-a-time oracles that the stacked library code is checked against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from qracsim import MeasurementPair, Povm, linalg
from qracsim.tolerances import TOL

TRACE_TOL = 1e-10  # unit-trace deviation a DensityMatrix accepts


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_pvm(rng: np.random.Generator, d: int) -> Povm:
    u = haar_unitary(rng, d)
    return Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d)))


def random_povm(rng: np.random.Generator, d: int) -> Povm:
    """d-outcome POVM from normalized random positive operators."""
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(d)]
    raw = [b @ b.conj().T for b in blocks]
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(inv_sqrt @ e @ inv_sqrt for e in raw))


def smeared_pvm(rng: np.random.Generator, d: int) -> Povm:
    """Projective measurement mixed with white noise, still d outcomes."""
    lam = rng.uniform(0.2, 0.95)
    u = haar_unitary(rng, d)
    eye = np.eye(d)
    return Povm(
        tuple(lam * np.outer(u[:, k], u[:, k].conj()) + (1 - lam) * eye / d for k in range(d))
    )


def random_measurement_pair(rng: np.random.Generator, d: int, kind: int) -> MeasurementPair:
    builders = {
        0: (random_pvm, random_pvm),
        1: (random_pvm, smeared_pvm),
        2: (random_povm, random_povm),
    }
    first, second = builders[kind % 3]
    return MeasurementPair(first(rng, d), second(rng, d))


def random_density_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def unit_vector_oracle(v) -> np.ndarray:
    """One vector normalised and phase-fixed as the library's one-vector state
    class did before ``linalg._unit_rows`` took over, with a scalar
    ``abs`` of the pivot: the oracle that every row of ``_unit_rows`` must
    equal bytewise."""
    v = np.asarray(v, dtype=complex)
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if not abs(norm_sq - 1.0) <= TOL.norm:
        raise ValueError(f"state is not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
    v = v / np.sqrt(norm_sq)
    pivot = v[np.flatnonzero(np.abs(v) > TOL.phase_pivot)[0]]
    return v * (pivot.conjugate() / abs(pivot))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive semidefinite operator of unit trace, one matrix,
    checked as the library's state class checked it before noise became a
    map on measurements: the state side of ``qrac.depolarize``'s oracle."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg._as_square_matrix(self.matrix, "density matrix")
        m = linalg._checked_hermitian(m, "density matrix", "{name} is not Hermitian: deviation {defect:.3e}")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace:.12g} is not 1")
        low = np.linalg.eigvalsh(m)[0]
        if low < -TOL.psd:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", linalg._frozen(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def depolarize_state(rho: DensityMatrix, visibility: float) -> DensityMatrix:
    """Mix a state with the maximally mixed state, v*rho + (1-v)*I/d: the
    channel on states whose adjoint ``qrac.depolarize`` applies to effects."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    d = rho.dim
    return DensityMatrix(visibility * rho.matrix + (1.0 - visibility) * np.eye(d) / d)


def born_probability(state, effect) -> float:
    """Born-rule probability of one effect matrix on a pure state (a 1-d
    amplitude row) or a mixed one (a 2-d density matrix), one ``vdot`` or
    trace at a time: the oracle that ``linalg._born_probabilities`` is
    checked against."""
    e = np.asarray(effect, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != e.shape[0]:
        raise ValueError("state and effect dimensions differ")
    if state.ndim == 1:
        value = float(np.real(np.vdot(state, e @ state)))
    elif state.ndim == 2:
        value = float(np.real(np.trace(state @ e)))
    else:
        raise ValueError(f"state must be an amplitude row or a density matrix, got shape {state.shape}")
    if not -TOL.probability_slack <= value <= 1.0 + TOL.probability_slack:
        raise ValueError(f"Born probability {value:.12g} is outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240611)
