"""Exact dense complex linear algebra for small quantum systems.

A state is an amplitude row, or a row of a stack, normalised and phase-fixed
by the one rule ``_unit_rows``.  A basis is one read-only stack of unit rows,
a measurement one of effects; each check on them is one reduction over the
stack, and the first failing entry, in C order, is located only on the error
path.  Spectra come from LAPACK, one call per matrix or (..., d, d) stack,
through the one checked ``eigh``, ``hermitian_eig``, except for sums of two
rank-one projectors, solved in closed form (``qrac.MeasurementPair.spectra``).
The top vector picked from a degenerate eigenspace depends on the eigenspace
alone, so optimal encodings do not depend on the basis LAPACK returns: reruns
on one build are bit-identical, and LAPACK builds differ only by rounding.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .tolerances import TOL

_SOLVER_NOT_HERMITIAN = "matrix is not Hermitian: max |H - H^dag| = {defect:.3e} exceeds {tol:.1e}"
_NOT_RECONSTRUCTED = "eigendecomposition failed the reconstruction check"


def _require_type(value, kind: type, name: str) -> None:
    """A TypeError naming argument ``name`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def _integer(value, name: str) -> int:
    """``value`` as an int by ``operator.index``, or a TypeError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _first_failing(bad: np.ndarray) -> int | None:
    """Flat C-order index of the first True in ``bad``, or None; ``flatnonzero`` runs on failure only."""
    return int(np.flatnonzero(bad)[0]) if np.count_nonzero(bad) else None


def _as_square_matrix(value, name: str, stack: bool = False) -> np.ndarray:
    m = np.asarray(value, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _checked_hermitian(value, name: str, not_hermitian: str) -> np.ndarray:
    """Square, Hermitian within ``TOL.hermitian`` and inside the exact-solver
    cap: the checks shared by everything that takes a spectrum.  The value is
    one matrix or a (..., d, d) stack, checked in C order; the first failing
    matrix's defect is reported (its index only by a template with ``{index}``)."""
    m = _as_square_matrix(value, name, stack=True)
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN, which is rejected
        defects = np.abs(m - _adjoint(m)).max(axis=(-2, -1)).ravel()
    if (index := _first_failing(~(defects <= TOL.hermitian))) is not None:  # NaN and inf fail too
        raise ValueError(not_hermitian.format(name=name, index=index, defect=defects[index], tol=TOL.hermitian))
    if m.shape[-1] > TOL.dim_cap:
        raise ValueError(f"dimension {m.shape[-1]} exceeds the exact-solver cap {TOL.dim_cap}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _norms_sq(v: np.ndarray) -> np.ndarray:
    """Squared norms of the rows (last axis) of ``v``, keeping that axis, once
    each is within ``TOL.norm`` of 1; the first that is not, in C order, is named."""
    norm_sq = (np.abs(v) ** 2).sum(axis=-1, keepdims=True)
    defects = np.abs(norm_sq - 1.0).ravel()
    if (index := _first_failing(~(defects <= TOL.norm))) is not None:  # NaN and inf fail too
        raise ValueError(f"state is not normalized: |norm^2 - 1| = {defects[index]:.3e}")
    return norm_sq


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows (last axis) of ``v`` normalised, each first component of modulus above
    ``TOL.phase_pivot`` (the pivot, read by one flat index into the rows) made real
    and nonnegative; its modulus is ``hypot``, which rounds as one vector's ``abs``."""
    v = v / np.sqrt(_norms_sq(v))
    first = np.argmax(np.abs(v) > TOL.phase_pivot, axis=-1)
    pivot = v.reshape(-1)[np.arange(0, v.size, v.shape[-1]) + first.ravel()].reshape(*first.shape, 1)
    return v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement as one read-only (outcome, d, d) stack ``matrices`` of
    effects resolving the identity, indexed by outcome.  Takes d x d matrices
    or their stack and checks all at once, every spectrum by one ``eigvalsh``.

    ``rows`` is not a constructor argument.  It is None, except on the Povm
    that ``Basis.to_povm`` returns, where it is the basis's read-only unit
    rows, effect k being |row k><row k|: a projective measurement whose pairs
    ``MeasurementPair.spectra`` solves from their overlaps."""

    matrices: np.ndarray
    rows: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.matrices, (list, tuple)) and len({np.shape(e) for e in self.matrices}) > 1:
            raise ValueError("all effects must share one dimension")
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] == 0:
            raise ValueError(f"effect must be a square matrix, got shape {m.shape[1:]}")
        not_hermitian = "effect {index} is not Hermitian: deviation {defect:.3e}"
        m = _checked_hermitian(m, "effect", not_hermitian)
        if len(m) < 2:
            raise ValueError("a POVM needs at least two outcomes")
        eigs = np.linalg.eigvalsh(m)
        if (k := _first_failing((eigs[:, 0] < -TOL.psd) | (eigs[:, -1] > 1.0 + TOL.effect_upper))) is not None:
            raise ValueError(f"effect {k} spectrum [{eigs[k, 0]:.3e}, {eigs[k, -1]:.12g}] leaves [0, 1]")
        if np.abs(m.sum(axis=0) - np.eye(m.shape[-1])).max() > TOL.completeness:
            raise ValueError("effects do not resolve the identity")
        object.__setattr__(self, "matrices", _frozen(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def outcomes(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, outcome: int) -> np.ndarray:
        return self.matrices[outcome]


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal basis as one read-only (d, d) stack ``vectors`` of unit
    rows.  Takes d vectors of dimension d, or their stack, each normalised and
    phase-fixed by ``_unit_rows``."""

    vectors: np.ndarray

    def __post_init__(self):
        try:
            rows = _as_square_matrix(self.vectors, "basis")
        except ValueError:  # ragged, empty or scalar input, or d rows not of dimension d
            raise ValueError("a basis needs exactly dim vectors of matching dimension") from None
        stack = _unit_rows(rows)
        off = np.abs(stack @ stack.conj().T - np.eye(len(stack))).max()
        if off > TOL.orthonormal:
            raise ValueError(f"basis is not orthonormal: overlap defect {off:.3e}")
        object.__setattr__(self, "vectors", _frozen(stack))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def __getitem__(self, index: int) -> np.ndarray:
        return self.vectors[index]

    def to_povm(self) -> Povm:
        """The projective measurement onto the rows, effect k = |row k><row k|,
        with ``rows`` set to this basis's read-only ``vectors``."""
        povm = Povm(self.vectors[:, :, None] * self.vectors[:, None, :].conj())
        object.__setattr__(povm, "rows", self.vectors)
        return povm


def _canonical_tops(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Canonical unit vector of each maximal-eigenvalue eigenspace, as a
    read-only (n, d) stack of rows, for rows of the top k ascending
    eigenvalues ``w`` (n, k) with their orthonormal eigenvector columns ``v``
    (n, d, k): all d of an ``eigh``, or the two of a rank-one projector pair.

    A row is tied when its top gap w[-1] - w[-2] is below ``TOL.cluster_gap``
    (k >= 2); only a tied row's top cluster (consecutive gaps below it) is
    found, and narrowed, one SVD per component, to the eigenspace's unit vector
    with the most leading zeros: unique up to phase and, phase-fixed, the
    lexicographically smallest.  It depends on the eigenspace alone, not on
    the basis of it the solver returned; an untied row keeps its top column.
    """
    tops = v[..., -1].copy()
    tied = w[:, -1] - w[:, -2] < TOL.cluster_gap
    if np.count_nonzero(tied):
        tied = np.flatnonzero(tied)
        close = np.diff(w[tied], axis=-1) < TOL.cluster_gap
        starts = w.shape[-1] - 1 - np.cumprod(close[:, ::-1], axis=-1).sum(axis=-1)
        for row, start in zip(tied.tolist(), starts.tolist()):
            # Fortran order: the SVD rule's products round differently in C
            # order, which would move the encodings' last bits
            basis = np.asfortranarray(v[row, :, start:])
            for i in range(v.shape[1]):
                if basis.shape[1] == 1:
                    break
                if np.linalg.norm(basis[i]) > TOL.phase_pivot:
                    # keep the orthonormal combinations that vanish on component i
                    basis = basis @ np.linalg.svd(basis[i : i + 1])[2][1:].conj().T
            tops[row] = basis[:, 0]
    return _frozen(_unit_rows(tops))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of every matrix of a
    (..., d, d) stack, by one LAPACK ``numpy.linalg.eigh`` call.

    Returns read-only ``(eigenvalues, eigenvectors)`` as ``eigh`` does:
    eigenvalues ascending, eigenvectors as columns, none wrapped as a
    state.  Each matrix is checked Hermitian and inside the exact-solver
    cap, symmetrised, and held to the reconstruction and orthonormality
    checks; a failing stack reports its first failing matrix's defect in C
    order, not its index.  Inside a degenerate cluster the basis is whichever
    one LAPACK returns.  Reruns on one build are bit-identical.
    """
    m = _checked_hermitian(h, "input", _SOLVER_NOT_HERMITIAN)
    m = (m + _adjoint(m)) / 2.0
    w, v = np.linalg.eigh(m)
    if not np.abs((v * w[..., None, :]) @ _adjoint(v) - m).max(initial=0.0) <= TOL.reconstruction:
        raise RuntimeError(_NOT_RECONSTRUCTED)
    if np.abs(_adjoint(v) @ v - np.eye(m.shape[-1])).max(initial=0.0) > TOL.orthonormal:
        raise ValueError("eigenvectors are not orthonormal")
    return _frozen(w), _frozen(v)


def _psd_norms(eigs: np.ndarray) -> np.ndarray:
    """Top eigenvalues of ascending rows ``eigs``, clamped at 0; names the first row below -TOL.psd."""
    if (index := _first_failing(eigs[..., 0] < -TOL.psd)) is not None:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {eigs[..., 0].flat[index]:.3e}")
    return np.maximum(eigs[..., -1], 0.0)


def operator_norm(h):
    """Operator norm of a Hermitian positive semidefinite matrix, or an
    array of them for a (..., d, d) stack, by one ``eigvalsh`` call.  A failing
    stack reports its first failing matrix's defect in C order, not its index."""
    eigs = np.linalg.eigvalsh(_checked_hermitian(h, "input", _SOLVER_NOT_HERMITIAN))
    norms = _psd_norms(eigs)
    return float(norms) if norms.ndim == 0 else norms


def _checked_split(dims, keep) -> tuple[tuple[int, int], int]:
    """A bipartite split ``dims`` = (d1, d2) and the factor ``keep`` that
    survives it, as Python ints, with ``keep`` 1 or 2."""
    try:
        d1, d2 = (operator.index(x) for x in dims)
        kept = operator.index(keep)
    except (TypeError, ValueError):  # ValueError: dims is not a pair
        raise TypeError(f"dims {dims} must be two integers and keep {keep!r} an integer") from None
    if kept not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    return (d1, d2), kept


def partial_trace(operator, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    ``dims`` is ``(d1, d2)`` with the first factor most significant;
    ``keep`` is 1 or 2 and names the subsystem that survives.
    """
    m = _as_square_matrix(operator, "operator")
    (d1, d2), keep = _checked_split(dims, keep)
    if d1 < 1 or d2 < 1 or d1 * d2 != m.shape[0]:
        raise ValueError(f"dims {dims} do not factor dimension {m.shape[0]}")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def _clipped_probabilities(values):
    """Born values clipped into [0, 1], once none strays outside it by more
    than ``TOL.probability_slack``; the first stray one, in C order, is named."""
    outside = (values < -TOL.probability_slack) | (values > 1.0 + TOL.probability_slack)
    if (index := _first_failing(outside)) is not None:
        raise ValueError(f"Born probability {values.flat[index]:.12g} is outside [0, 1] beyond tolerance")
    return values.clip(0.0, 1.0)


def _born_probabilities(amplitudes: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Born-rule probabilities of pure-state amplitude rows (..., d) against
    effect matrices (..., d, d), broadcast over the leading axes, each
    checked to lie in [0, 1] within ``TOL.probability_slack`` and clipped
    into it.  The rows must already be checked finite unit rows, such as an
    ``EncodingMap``'s or ``hermitian_eig``'s eigenvectors: they are not
    checked here, so an unnormalised or NaN row gives a wrong value or NaN.
    Each value is a row-times-column product, which rounds as one state's
    ``vdot`` does; a sum of elementwise products would not."""
    if amplitudes.shape[-1] != effects.shape[-1]:
        raise ValueError("state and effect dimensions differ")
    values = np.real((amplitudes.conj()[..., None, :] @ (effects @ amplitudes[..., None]))[..., 0, 0])
    return _clipped_probabilities(values)
