"""The (2,d) random access code engine.

Encodes pairs of base-d digits into single qudits against a fixed pair of
d-outcome measurements: optimal encodings, exact success probabilities,
classical and quantum bounds, the incompatibility advantage monotone, the
proportional-fairness allocation figure, measurement reduction to
subsystems, and depolarizing noise.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _canonical_tops, _checked_split, _frozen, _psd_norms
from .linalg import (  # hermitian_eig, operator_norm: names bench/spans.py traces here
    DensityMatrix,
    Povm,
    PureState,
    born_probabilities,
    hermitian_eig,
    operator_norm,
    partial_trace,
    top_eigenvectors,
)
from .mub import MubPair
from .tolerances import TOL


@dataclass(frozen=True)
class Message:
    """Two base-d digits, the input string of the (2,d) protocol."""

    digits: tuple[int, int]
    alphabet: int

    def __post_init__(self):
        alphabet = operator.index(self.alphabet)
        if alphabet < 2:
            raise ValueError("alphabet must be at least 2")
        digits = tuple(operator.index(x) for x in self.digits)
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
        if self.m1.dim != self.m2.dim:
            raise ValueError("measurements must act on the same dimension")
        d = self.m1.dim
        if self.m1.outcomes != d or self.m2.outcomes != d:
            raise ValueError("each measurement needs exactly d outcomes")

    @property
    def dim(self) -> int:
        return self.m1.dim

    def measurement(self, k: int) -> Povm:
        if k not in (1, 2):
            raise ValueError("measurement index must be 1 or 2")
        return self.m1 if k == 1 else self.m2

    @cached_property
    def spectra(self) -> tuple[np.ndarray, tuple]:
        """Read-only ascending eigenvalues (x1, x2, k) of each sum M1(x1) + M2(x2)
        and its canonical top state, by one checked (d, d, d) ``hermitian_eig``
        per x1, eigenvectors dropped.  A failed check caches nothing."""
        second = self.m2.matrices
        eigenvalues, states = [], []
        for first in self.m1.matrices:
            w, v = hermitian_eig(first + second)
            eigenvalues.append(w)
            states += _canonical_tops(w, v)
        return _frozen(np.stack(eigenvalues)), tuple(states)


def measurement_pair_from_mub(pair: MubPair) -> MeasurementPair:
    """Projective decoding pair read off a pair of mutually unbiased bases."""
    return MeasurementPair(pair.first.to_povm(), pair.second.to_povm())


@dataclass(frozen=True, eq=False)
class EncodingMap:
    """Complete table of encoding states, one per message."""

    table: dict

    def __post_init__(self):
        if not self.table:
            raise ValueError("encoding table is empty")
        d = next(iter(self.table)).alphabet
        digits = {m.digits for m in self.table}
        if len(self.table) != d * d or digits != set(itertools.product(range(d), repeat=2)):
            raise ValueError("encoding table must cover all d^2 messages")
        if any(not isinstance(s, PureState) for s in self.table.values()):
            raise ValueError("encoding table values must be pure states")
        object.__setattr__(self, "table", dict(self.table))

    @property
    def alphabet(self) -> int:
        return next(iter(self.table)).alphabet

    def __getitem__(self, message) -> PureState:
        if isinstance(message, Message):
            return self.table[message]
        return self.table[Message(tuple(message), self.alphabet)]


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


def optimal_encoding(pair: MeasurementPair, message: Message) -> PureState:
    """Best encoding state for one message: the top eigenvector of
    M1(x1) + M2(x2), phase-fixed, and for a degenerate top eigenvalue the
    eigenspace's unit vector with the most leading zeros
    (``linalg.top_eigenvectors``), solved alone and bit-identical to
    ``encoding_table``'s."""
    x1, x2 = message.digits
    if message.alphabet != pair.dim:
        raise ValueError("message alphabet must match the measurement dimension")
    return top_eigenvectors(pair.m1[x1] + pair.m2[x2])[0]


def encoding_table(pair: MeasurementPair) -> EncodingMap:
    """Optimal encoding states for all d^2 messages: the top states of the
    effect sums in ``pair.spectra``, shared with ``max_success_probability``,
    each bit-identical to ``optimal_encoding``'s.  Positivity is not checked."""
    return EncodingMap(dict(zip(all_messages(pair.dim), pair.spectra[1])))


def average_success_probability(encoding: EncodingMap, pair: MeasurementPair) -> float:
    """Exact average success probability of an encoding against a pair,
    uniform over messages and over which digit is decoded."""
    d = pair.dim
    if encoding.alphabet != d:
        raise ValueError("encoding and measurements have mismatched alphabets")
    states = [state for _, state in sorted(encoding.table.items(), key=lambda item: item[0].digits)]
    if any(s.dim != d for s in states):
        raise ValueError("state and effect dimensions differ")
    amplitudes = np.stack([s.amplitudes for s in states]).reshape(d, d, d)
    first = born_probabilities(amplitudes, pair.m1.matrices[:, None])
    second = born_probabilities(amplitudes, pair.m2.matrices[None])
    return float(first.sum() + second.sum()) / (2.0 * d * d)


def max_success_probability(pair: MeasurementPair) -> float:
    """Best achievable average success probability for a measurement pair, the
    mean operator norm of its effect sums in ``pair.spectra``.  All sums are
    checked Hermitian, then all positive semidefinite, first failure named."""
    d = pair.dim
    norms = _psd_norms(pair.spectra[0])
    return sum(float(row.sum()) for row in norms) / (2.0 * d * d)


def classical_bound(d: int) -> float:
    """Optimal average success probability when a single classical dit is sent."""
    if operator.index(d) < 2:
        raise ValueError("alphabet must be at least 2")
    return 0.5 * (1.0 + 1.0 / d)


def quantum_bound(d: int) -> float:
    """Best achievable average success probability with a single qudit."""
    if operator.index(d) < 2:
        raise ValueError("alphabet must be at least 2")
    return 0.5 * (1.0 + 1.0 / math.sqrt(d))


def advantage(pair: MeasurementPair) -> AdvantageValue:
    """Incompatibility monotone of a measurement pair.

    Scores the total excess success probability over the classical strategy,
    summed over the two decoding tasks, so a mutually unbiased pair in
    dimension d reaches (sqrt(d) - 1) / d.  Compatible pairs score zero.  It
    reads ``pair.spectra`` through ``max_success_probability``.
    """
    bound = classical_bound(pair.dim)
    return AdvantageValue(bound, 2.0 * (max_success_probability(pair) - bound))


def empirical_advantage(p: float, bound: float) -> AdvantageValue:
    """Advantage of a measured success probability over a classical bound."""
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
    if povm.outcomes != 4:
        raise ValueError("coarse graining is defined for four-outcome measurements")
    if operator.index(bit) not in (0, 1):
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
    if not all(t >= 0.0 for t in terms):
        raise ValueError("advantage terms must be nonnegative")
    if any(t == 0.0 for t in terms):
        return AllocationValue(None, terms)
    return AllocationValue(sum(math.log(t) for t in terms), terms)


def depolarize(rho: DensityMatrix, visibility: float) -> DensityMatrix:
    """Mix a state with the maximally mixed state: v*rho + (1-v)*I/d."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    d = rho.dim
    mixed = visibility * rho.matrix + (1.0 - visibility) * np.eye(d) / d
    return DensityMatrix(mixed)


def one_bit_success_probabilities(pair: MeasurementPair) -> dict[str, float]:
    """Ideal first-bit success probabilities of the four-dimensional protocol.

    Returns the 2-bit figure (exact symbol) and the two 1-bit figures
    conditioned on the halves of the encoded alphabet, the exact
    counterparts of the simulator's estimates.
    """
    if pair.dim != 4:
        raise ValueError("defined for the four-dimensional protocol")
    # the encodings of messages (q, 0), read off the pair's shared spectra
    amplitudes = np.stack([s.amplitudes for s in pair.spectra[1][::4]])
    exact = born_probabilities(amplitudes, pair.m1.matrices)
    # states q < 2 are scored against the first-bit effect 0, the rest against 1
    halves = born_probabilities(amplitudes, coarse_grain(pair.m1, 0).matrices[[0, 0, 1, 1]])
    return {
        "two_bit": sum(exact.tolist()) / 4.0,
        "first_half": sum(halves[:2].tolist()) / 2.0,
        "second_half": sum(halves[2:].tolist()) / 2.0,
    }
