"""The (2,d) random access code engine.

Encodes pairs of base-d digits into single qudits against a fixed pair of
d-outcome measurements: optimal encodings, exact success probabilities,
classical and quantum bounds, the incompatibility advantage monotone, the
proportional-fairness allocation figure, measurement reduction to
subsystems, and depolarizing noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    Effect,
    Povm,
    PureState,
    born_probability,
    hermitian_eig,
    operator_norm,
    partial_trace,
)
from .mub import MubPair
from .tolerances import TOL


@dataclass(frozen=True)
class Message:
    """Two base-d digits, the input string of the (2,d) protocol."""

    digits: tuple[int, int]
    alphabet: int

    def __post_init__(self):
        digits = tuple(int(x) for x in self.digits)
        if len(digits) != 2:
            raise ValueError("the protocol encodes exactly two digits")
        if self.alphabet < 2:
            raise ValueError("alphabet must be at least 2")
        if any(x < 0 or x >= self.alphabet for x in digits):
            raise ValueError(f"digits {digits} outside alphabet of size {self.alphabet}")
        object.__setattr__(self, "digits", digits)

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
    """The two decoding measurements, each with d outcomes on a d-level system."""

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
        some = next(iter(self.table))
        d = some.alphabet
        expected = {m.digits for m in all_messages(d)}
        got = {m.digits for m in self.table}
        if got != expected:
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

    value: float
    classical_bound_used: float
    raw_excess: float

    def __post_init__(self):
        if abs(self.value - max(self.raw_excess, 0.0)) > 1e-15:
            raise ValueError("value must equal max(raw_excess, 0)")


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
    (``Spectrum.top_eigenvector``)."""
    x1, x2 = message.digits
    if message.alphabet != pair.dim:
        raise ValueError("message alphabet must match the measurement dimension")
    total = pair.m1[x1].matrix + pair.m2[x2].matrix
    return hermitian_eig(total).top_eigenvector()


def encoding_table(pair: MeasurementPair) -> EncodingMap:
    """Optimal encoding states for all d^2 messages."""
    return EncodingMap(
        {m: optimal_encoding(pair, m) for m in all_messages(pair.dim)}
    )


def average_success_probability(encoding: EncodingMap, pair: MeasurementPair) -> float:
    """Exact average success probability of an encoding against a pair,
    uniform over messages and over which digit is decoded."""
    d = pair.dim
    if encoding.alphabet != d:
        raise ValueError("encoding and measurements have mismatched alphabets")
    total = 0.0
    for message in all_messages(d):
        state = encoding[message]
        for k in (1, 2):
            total += born_probability(state, pair.measurement(k)[message.digits[k - 1]])
    return total / (2.0 * d * d)


def max_success_probability(pair: MeasurementPair) -> float:
    """Best achievable average success probability for a measurement pair,
    via the operator norm of each effect sum."""
    d = pair.dim
    total = 0.0
    for message in all_messages(d):
        x1, x2 = message.digits
        total += operator_norm(pair.m1[x1].matrix + pair.m2[x2].matrix)
    return total / (2.0 * d * d)


def classical_bound(d: int) -> float:
    """Optimal average success probability when a single classical dit is sent."""
    if d < 2:
        raise ValueError("alphabet must be at least 2")
    return 0.5 * (1.0 + 1.0 / d)


def quantum_bound(d: int) -> float:
    """Best achievable average success probability with a single qudit."""
    if d < 2:
        raise ValueError("alphabet must be at least 2")
    return 0.5 * (1.0 + 1.0 / math.sqrt(d))


def advantage(pair: MeasurementPair) -> AdvantageValue:
    """Incompatibility monotone of a measurement pair.

    Scores the total excess success probability over the classical strategy,
    summed over the two decoding tasks, so a mutually unbiased pair in
    dimension d reaches (sqrt(d) - 1) / d.  Compatible pairs score zero.
    """
    bound = classical_bound(pair.dim)
    excess = 2.0 * (max_success_probability(pair) - bound)
    return AdvantageValue(max(excess, 0.0), bound, excess)


def empirical_advantage(p: float, bound: float) -> AdvantageValue:
    """Advantage of a measured success probability over a classical bound."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")
    excess = p - bound
    return AdvantageValue(max(excess, 0.0), bound, excess)


def coarse_grain(povm: Povm, bit: int) -> Povm:
    """Two-outcome restriction of a four-outcome measurement to one bit.

    Bit 0 groups outcomes {0, 1} against {2, 3}; bit 1 groups {0, 2}
    against {1, 3}.
    """
    if povm.outcomes != 4:
        raise ValueError("coarse graining is defined for four-outcome measurements")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    groups = ((0, 1), (2, 3)) if bit == 0 else ((0, 2), (1, 3))
    effects = tuple(
        Effect(sum(povm[i].matrix for i in group)) for group in groups
    )
    return Povm(effects)


def _reduce_povm(povm: Povm, dims: tuple[int, int], keep: int) -> Povm:
    d1, d2 = dims
    if d1 * d2 != povm.dim or povm.outcomes != povm.dim:
        raise ValueError(f"dims {dims} do not factor a {povm.dim}-outcome measurement")
    kept_dim, other_dim = (d1, d2) if keep == 1 else (d2, d1)
    effects = []
    for a in range(kept_dim):
        total = np.zeros((povm.dim, povm.dim), dtype=complex)
        for b in range(other_dim):
            outcome = a * d2 + b if keep == 1 else b * d2 + a
            total = total + povm[outcome].matrix
        effects.append(Effect(partial_trace(total, dims, keep) / other_dim))
    return Povm(tuple(effects))


def reduce_pair(pair: MeasurementPair, dims: tuple[int, int], keep: int) -> MeasurementPair:
    """Reduction of a bipartite measurement pair to one subsystem.

    Outcomes are grouped by the kept subsystem's digit and the discarded
    subsystem is contracted against its maximally mixed state, which maps
    product measurements to their single-system factors and maximally
    entangled ones to trivial POVMs.
    """
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    return MeasurementPair(
        _reduce_povm(pair.m1, dims, keep), _reduce_povm(pair.m2, dims, keep)
    )


def _is_projective(povm: Povm) -> bool:
    return all(
        np.linalg.norm(e.matrix @ e.matrix - e.matrix) < TOL.projective
        for e in povm.effects
    )


def pvm_pair_compatible(pair: MeasurementPair) -> bool:
    """Whether two projective measurements admit a parent measurement.

    For projective pairs this holds exactly when every pair of effects
    commutes (the parent is then the product measurement); general POVM
    joint measurability is out of scope and rejected.
    """
    if not _is_projective(pair.m1) or not _is_projective(pair.m2):
        raise ValueError("compatibility test requires projective measurements")
    for e1 in pair.m1.effects:
        for e2 in pair.m2.effects:
            commutator = e1.matrix @ e2.matrix - e2.matrix @ e1.matrix
            if np.linalg.norm(commutator) >= TOL.commutator:
                return False
    return True


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
    if visibility < 0.0 or visibility > 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    d = rho.dim
    mixed = visibility * rho.matrix + (1.0 - visibility) * np.eye(d) / d
    return DensityMatrix(mixed)


def one_bit_success_probabilities(pair: MeasurementPair) -> dict[str, float]:
    """Ideal first-bit success probabilities of the four-dimensional protocol.

    Returns the 2-bit figure (exact symbol) and the two 1-bit figures
    conditioned on the halves of the encoded alphabet, the exact
    counterparts of the simulator's estimates.
    """
    d = pair.dim
    if d != 4:
        raise ValueError("defined for the four-dimensional protocol")
    table = encoding_table(pair)
    first_bit = coarse_grain(pair.m1, 0)
    exact = 0.0
    low = 0.0
    high = 0.0
    for q in range(4):
        state = table[(q, 0)]
        exact += born_probability(state, pair.m1[q]) / 4.0
        group = 0 if q < 2 else 1
        if q < 2:
            low += born_probability(state, first_bit[group]) / 2.0
        else:
            high += born_probability(state, first_bit[group]) / 2.0
    return {"two_bit": exact, "first_half": low, "second_half": high}
