"""The (2,d) random access code engine.

Encodes pairs of base-d digits into single qudits against a fixed pair of
d-outcome measurements: optimal encodings, exact success probabilities,
classical and quantum bounds, the incompatibility advantage monotone, the
proportional-fairness allocation figure, measurement reduction to
subsystems, and depolarizing noise as a map on the measurements.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    _NOT_RECONSTRUCTED,
    _born_probabilities,
    _canonical_tops,
    _checked_split,
    _frozen,
    _integer,
    _norms_sq,
    _psd_norms,
    _require_type,
)
from .linalg import (  # hermitian_eig, operator_norm: names bench/spans.py traces here
    Povm,
    hermitian_eig,
    operator_norm,
    partial_trace,
)
from .mub import MubPair
from .tolerances import TOL

# Complex entries in one ``spectra`` call to ``hermitian_eig``: 64 KiB, one d = 16
# first digit's (16, 16, 16) stack.  Solving fewer, larger stacks saves the checks'
# fixed cost per call; solving all d^2 sums at d = 16 in one call traced eleven times
# the memory and raised the exact benchmark's peak RSS by 15%.
_EIGH_STACK_ENTRIES = 4096


@dataclass(frozen=True)
class Message:
    """Two base-d digits, the input string of the (2,d) protocol."""

    digits: tuple[int, int]
    alphabet: int

    def __post_init__(self):
        alphabet = _integer(self.alphabet, "alphabet")
        if alphabet < 2:
            raise ValueError("alphabet must be at least 2")
        digits = tuple(_integer(x, "digits") for x in self.digits)
        if len(digits) != 2:
            raise ValueError("the protocol encodes exactly two digits")
        if any(x < 0 or x >= alphabet for x in digits):
            raise ValueError(f"digits {digits} outside alphabet of size {alphabet}")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "alphabet", alphabet)

    @property
    def label(self) -> str:
        return "".join(str(x) for x in self.digits)


def all_messages(alphabet: int) -> tuple[Message, ...]:
    """Every message (x1, x2), ordered with x1 most significant."""
    alphabet = _integer(alphabet, "alphabet")
    return tuple(
        Message((x1, x2), alphabet) for x1 in range(alphabet) for x2 in range(alphabet)
    )


@dataclass(frozen=True, eq=False)
class MeasurementPair:
    """The two decoding measurements, each with d outcomes on a d-level system,
    and ``spectra``, their effect sums solved once for the encodings and bounds."""

    m1: Povm
    m2: Povm

    def __post_init__(self):
        if not isinstance(self.m1, Povm) or not isinstance(self.m2, Povm):
            raise TypeError(f"m1 and m2 must be Povms, got {type(self.m1).__name__}, {type(self.m2).__name__}")
        if self.m1.dim != self.m2.dim:
            raise ValueError("measurements must act on the same dimension")
        d = self.m1.dim
        if self.m1.outcomes != d or self.m2.outcomes != d:
            raise ValueError("each measurement needs exactly d outcomes")

    @property
    def dim(self) -> int:
        return self.m1.dim

    def measurement(self, k: int) -> Povm:
        k = _integer(k, "k")
        if k not in (1, 2):
            raise ValueError("measurement index must be 1 or 2")
        return self.m1 if k == 1 else self.m2

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (x1, x2, k) stacks: ascending eigenvalues of each sum M1(x1) +
        M2(x2) and its canonical top state, eigenvectors dropped.

        When both measurements carry basis ``rows`` (``Basis.to_povm``), every
        sum is solved in closed form from the d x d overlap matrix of the rows,
        with no ``eigh`` (``_overlap_spectra``).  Otherwise the sums are solved
        in C order by checked ``hermitian_eig`` stacks of at most
        ``_EIGH_STACK_ENTRIES`` entries: one (d^2, d, d) stack up to d = 8, 16
        of (16, 16, 16) at d = 16.  A failure caches nothing."""
        d = self.dim
        x1, x2 = np.divmod(np.arange(d * d), d)
        if self.m1.rows is not None and self.m2.rows is not None:
            stacks = _overlap_spectra(self.m1, self.m2, x1, x2)
            return tuple(_frozen(stack.reshape(d, d, d)) for stack in stacks)
        step = _EIGH_STACK_ENTRIES // d**2  # sums per call, d^2 of them up to d = 8
        eigenvalues, tops = [], []
        for start in range(0, d * d, step):
            part = slice(start, start + step)
            w, v = hermitian_eig(self.m1.matrices[x1[part]] + self.m2.matrices[x2[part]])
            eigenvalues.append(w)
            tops.append(_canonical_tops(w, v))
        return tuple(_frozen(np.concatenate(stack).reshape(d, d, d)) for stack in (eigenvalues, tops))


def _overlap_spectra(m1: Povm, m2: Povm, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d^2, d) eigenvalue and canonical top rows of the sums M1(x1) + M2(x2)
    of two rank-one projective measurements, from the overlaps C = E* F^T of
    their rows.  The sum |e><e| + |f><f| has eigenvalues 1 -/+ |c|, c = <e|f>,
    with eigenvectors (e -/+ w f) / sqrt(2 (1 -/+ |c|)), w = c*/|c| (1 at
    c = 0), and d - 2 zeros.  A degenerate top (e orthogonal to f) goes to
    ``_canonical_tops``' narrowing.  Every top state is then held to
    max |M1(x1) psi + M2(x2) psi - (1 + |c|) psi| <= ``TOL.reconstruction``."""
    d = m1.dim
    e, f = m1.rows, m2.rows
    c = (e.conj() @ f.T).ravel()  # c[x1 * d + x2] = <e_x1|f_x2>
    size = np.abs(c)
    eigenvalues = np.zeros((d * d, d))
    eigenvalues[:, -2], eigenvalues[:, -1] = 1.0 - size, 1.0 + size
    phase = np.divide(c.conj(), size, out=np.ones_like(c), where=size > 0.0)
    pairs = np.zeros((d * d, d, 2), dtype=complex)  # (lower, upper) columns
    pairs[..., 1] = (e[x1] + phase[:, None] * f[x2]) / np.sqrt(2.0 * (1.0 + size))[:, None]
    # the top gap as ``_canonical_tops`` computes it
    tied = np.flatnonzero(eigenvalues[:, -1] - eigenvalues[:, -2] < TOL.cluster_gap)
    if tied.size:
        lower = e[x1[tied]] - phase[tied, None] * f[x2[tied]]
        pairs[tied, :, 0] = lower / np.sqrt(2.0 * (1.0 - size[tied]))[:, None]
    tops = _canonical_tops(eigenvalues[:, -2:], pairs)
    # M(x) psi for each measurement, one (d, d, d) matmul each, never a
    # (d^2, d, d) stack of sums
    grid = tops.reshape(d, d, d)  # (x1, x2, i)
    first = np.matmul(m1.matrices, grid.transpose(0, 2, 1)).transpose(0, 2, 1)
    second = np.matmul(m2.matrices, grid.transpose(1, 2, 0)).transpose(2, 0, 1)
    residual = first + second - eigenvalues[:, -1].reshape(d, d, 1) * grid
    if not np.abs(residual).max() <= TOL.reconstruction:
        raise RuntimeError(_NOT_RECONSTRUCTED)
    return eigenvalues, tops


def measurement_pair_from_mub(pair: MubPair) -> MeasurementPair:
    """Projective decoding pair read off a pair of mutually unbiased bases."""
    _require_type(pair, MubPair, "pair")
    return MeasurementPair(pair.first.to_povm(), pair.second.to_povm())


@dataclass(frozen=True, eq=False)
class EncodingMap:
    """Encoding states of all d^2 messages as one read-only (x1, x2, k) stack
    ``amplitudes``; rows are checked normalised but kept as given, not re-phased."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise ValueError(f"encoding table must cover all d^2 messages: amplitudes of shape {a.shape}")
        _norms_sq(a)
        object.__setattr__(self, "amplitudes", _frozen(a))

    @property
    def alphabet(self) -> int:
        return self.amplitudes.shape[0]

    def __getitem__(self, message) -> np.ndarray:  # a Message or digits (x1, x2)
        if not isinstance(message, Message):
            message = Message(tuple(message), self.alphabet)
        elif message.alphabet != self.alphabet:
            raise ValueError(f"message alphabet {message.alphabet} is not the encoding's {self.alphabet}")
        return self.amplitudes[message.digits]


@dataclass(frozen=True)
class AdvantageValue:
    """Excess success probability over the classical bound, floored at zero."""

    classical_bound_used: float
    raw_excess: float

    @property
    def value(self) -> float:
        return max(self.raw_excess, 0.0)


@dataclass(frozen=True)
class AllocationValue:
    """Sum of natural logs of three advantage terms, or undefined.

    ``phi`` is None exactly when one of the terms vanishes, in which case
    the log-sum leaves its domain.
    """

    phi: float | None
    terms: tuple[float, float, float]


def encoding_table(pair: MeasurementPair) -> EncodingMap:
    """Optimal encodings: row (x1, x2) is the phase-fixed top eigenvector of
    M1(x1) + M2(x2) (of a degenerate top, the eigenspace's unit vector with the most
    leading zeros), read off ``pair.spectra``: for basis measurements, (e + (c*/|c|) f)
    normalised, c = <e|f>.  Positivity is not checked."""
    _require_type(pair, MeasurementPair, "pair")
    return EncodingMap(pair.spectra[1])


def average_success_probability(encoding: EncodingMap, pair: MeasurementPair) -> float:
    """Exact average success probability of an encoding against a pair,
    uniform over messages and over which digit is decoded."""
    _require_type(encoding, EncodingMap, "encoding")
    _require_type(pair, MeasurementPair, "pair")
    d = pair.dim
    if encoding.alphabet != d:
        raise ValueError("encoding and measurements have mismatched alphabets")
    first = _born_probabilities(encoding.amplitudes, pair.m1.matrices[:, None])
    second = _born_probabilities(encoding.amplitudes, pair.m2.matrices[None])
    return float(first.sum() + second.sum()) / (2.0 * d * d)


def max_success_probability(pair: MeasurementPair) -> float:
    """Best achievable average success probability for a measurement pair, the
    mean operator norm of its effect sums in ``pair.spectra``.  All sums are
    checked Hermitian, then all positive semidefinite, first failure named."""
    _require_type(pair, MeasurementPair, "pair")
    d = pair.dim
    norms = _psd_norms(pair.spectra[0])
    return sum(norms.sum(axis=-1).tolist()) / (2.0 * d * d)


def classical_bound(d: int) -> float:
    """Optimal average success probability when a single classical dit is sent."""
    d = _integer(d, "d")
    if d < 2:
        raise ValueError("alphabet must be at least 2")
    return 0.5 * (1.0 + 1.0 / d)


def quantum_bound(d: int) -> float:
    """Best achievable average success probability with a single qudit."""
    d = _integer(d, "d")
    if d < 2:
        raise ValueError("alphabet must be at least 2")
    return 0.5 * (1.0 + 1.0 / math.sqrt(d))


def advantage(pair: MeasurementPair) -> AdvantageValue:
    """Incompatibility monotone of a measurement pair.

    Scores the total excess success probability over the classical strategy,
    summed over the two decoding tasks, so a mutually unbiased pair in
    dimension d reaches (sqrt(d) - 1) / d.  Compatible pairs score zero.  It
    reads ``pair.spectra`` through ``max_success_probability``.
    """
    _require_type(pair, MeasurementPair, "pair")
    bound = classical_bound(pair.dim)
    return AdvantageValue(bound, 2.0 * (max_success_probability(pair) - bound))


def _require_real(value, name: str) -> None:
    """A TypeError naming argument ``name`` unless ``value`` is a real number.
    ``float`` is tested first: a float skips the ``numbers.Real`` ABC lookup."""
    if not isinstance(value, (float, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


def empirical_advantage(p: float, bound: float) -> AdvantageValue:
    """Advantage of a measured success probability over a classical bound."""
    _require_real(p, "p")
    _require_real(bound, "bound")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {p}")
    if not 0.0 <= bound <= 1.0:
        raise ValueError(f"bound must lie in [0, 1], got {bound}")
    return AdvantageValue(bound, p - bound)


def coarse_grain(povm: Povm, bit: int) -> Povm:
    """Two-outcome restriction of a four-outcome measurement to one bit.

    Bit 0 groups outcomes {0, 1} against {2, 3}; bit 1 groups {0, 2}
    against {1, 3}.
    """
    _require_type(povm, Povm, "povm")
    if povm.outcomes != 4:
        raise ValueError("coarse graining is defined for four-outcome measurements")
    bit = _integer(bit, "bit")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    d = povm.dim
    return Povm(povm.matrices.reshape(2, 2, d, d).sum(axis=1 - bit))


def _reduce_povm(povm: Povm, dims: tuple[int, int], keep: int) -> Povm:
    """Outcome (a, b), numbered a * d2 + b, summed over the discarded
    subsystem's digit, then each kept digit's sum traced down to its factor."""
    d = povm.dim
    totals = povm.matrices.reshape(*dims, d, d).sum(axis=2 - keep)
    return Povm(np.stack([partial_trace(total, dims, keep) / dims[2 - keep] for total in totals]))


def reduce_pair(pair: MeasurementPair, dims: tuple[int, int], keep: int) -> MeasurementPair:
    """Reduction of a bipartite measurement pair to one subsystem.

    Outcomes are grouped by the kept subsystem's digit and the discarded
    subsystem is contracted against its maximally mixed state, which maps
    product measurements to their single-system factors and maximally
    entangled ones to trivial POVMs.
    """
    _require_type(pair, MeasurementPair, "pair")
    dims, keep = _checked_split(dims, keep)
    d1, d2 = dims
    if min(d1, d2) < 1 or d1 * d2 != pair.dim or dims[keep - 1] < 2:
        raise ValueError(
            f"dims {dims} with keep {keep} must factor dimension {pair.dim} "
            "into factors of at least 1, the kept one at least 2"
        )
    return MeasurementPair(
        _reduce_povm(pair.m1, dims, keep), _reduce_povm(pair.m2, dims, keep)
    )


def _is_projective(povm: Povm) -> bool:
    m = povm.matrices
    return bool(np.all(np.linalg.norm(m @ m - m, axis=(-2, -1)) < TOL.projective))


def pvm_pair_compatible(pair: MeasurementPair) -> bool:
    """Whether two projective measurements admit a parent measurement.

    For projective pairs this holds exactly when every pair of effects
    commutes (the parent is then the product measurement); general POVM
    joint measurability is out of scope and rejected.
    """
    _require_type(pair, MeasurementPair, "pair")
    if not _is_projective(pair.m1) or not _is_projective(pair.m2):
        raise ValueError("compatibility test requires projective measurements")
    second = pair.m2.matrices
    # one (d, d, d) stack of commutators per M1 effect, never all d^2 at once
    return all(
        np.all(np.linalg.norm(first @ second - second @ first, axis=(-2, -1)) < TOL.commutator)
        for first in pair.m1.matrices
    )


def allocation_figure(global_adv, s1_adv, s2_adv) -> AllocationValue:
    """Proportional-fairness figure: the sum of natural logs of the advantage
    of the joint pair and of each subsystem reduction.

    Accepts AdvantageValue instances or bare nonnegative floats.  Undefined
    (phi None) whenever any term is zero.
    """
    terms = tuple(
        float(a.value) if isinstance(a, AdvantageValue) else float(a)
        for a in (global_adv, s1_adv, s2_adv)
    )
    if not all(0.0 <= t < math.inf for t in terms):
        raise ValueError(f"advantage terms must be nonnegative and finite, got {terms}")
    if any(t == 0.0 for t in terms):
        return AllocationValue(None, terms)
    return AllocationValue(sum(math.log(t) for t in terms), terms)


def depolarize(povm: Povm, visibility: float, dims: tuple[int, ...] | None = None) -> Povm:
    """The measurement with each effect mapped by the depolarizing channel
    D_v(M) = v*M + (1-v)*tr(M)*I/d.  It is self-adjoint, tr(D_v(M) rho) =
    tr(M D_v(rho)), so noisy effects give the statistics of noisy states.
    With ``dims``, the factor dimensions of d, the first most significant as in
    ``partial_trace``, D_v acts on each factor in turn: per-qubit noise.

    Fourier pairs under global noise: fixed noiseless encodings and
    ``max_success_probability`` both give v*P_q + (1-v)/d.  Pauli x 2 under
    per-qubit noise: fixed encodings give 1/4 + v/3 + v^2/6, under
    ``classical_bound(4)`` below v = sqrt(13)/2 - 1; re-optimised ones do better."""
    _require_type(povm, Povm, "povm")
    _require_real(visibility, "visibility")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    try:
        factors = (povm.dim,) if dims is None else tuple(operator.index(f) for f in dims)
    except TypeError:
        raise TypeError(f"dims {dims!r} must be a sequence of integers") from None
    if min(factors, default=0) < 1 or math.prod(factors) != povm.dim:
        raise ValueError(f"dims {dims} do not factor dimension {povm.dim}")
    m = povm.matrices
    for axis, f in enumerate(factors):  # split rows and columns (left, f, right), big-endian
        left, right = math.prod(factors[:axis]), math.prod(factors[axis + 1 :])
        t = m.reshape(-1, left, f, right, left, f, right)
        mixed = np.einsum("klrms,ab->klarmbs", np.trace(t, axis1=2, axis2=5), np.eye(f) / f)
        m = (visibility * t + (1.0 - visibility) * mixed).reshape(m.shape)
    return Povm(m)


def one_bit_success_probabilities(pair: MeasurementPair) -> dict[str, float]:
    """Ideal first-bit success probabilities of the four-dimensional protocol.

    Returns the 2-bit figure (exact symbol) and the two 1-bit figures
    conditioned on the halves of the encoded alphabet, the exact
    counterparts of the simulator's estimates.
    """
    _require_type(pair, MeasurementPair, "pair")
    if pair.dim != 4:
        raise ValueError("defined for the four-dimensional protocol")
    # the encodings of messages (q, 0), read off the pair's shared spectra
    amplitudes = pair.spectra[1][:, 0]
    exact = _born_probabilities(amplitudes, pair.m1.matrices)
    # states q < 2 are scored against the first-bit effect 0, the rest against 1
    halves = _born_probabilities(amplitudes, coarse_grain(pair.m1, 0).matrices[[0, 0, 1, 1]])
    return {
        "two_bit": sum(exact.tolist()) / 4.0,
        "first_half": sum(halves[:2].tolist()) / 2.0,
        "second_half": sum(halves[2:].tolist()) / 2.0,
    }
