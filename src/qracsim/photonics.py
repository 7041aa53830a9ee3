"""Monte Carlo model of the time-bin implementation of the (2,d) protocol.

A message is carved onto a weak coherent pulse train (two or four bins,
800 ps apart).  After a lossy fiber that may carry a strong co-propagating
classical channel, a 50:50 splitter makes the passive basis choice: one arm
time-tags arrivals (the computational basis), the other interferes adjacent
bins in a delay-line interferometer (the conjugate basis).  Dark counts,
scattering noise from the classical channel, detector efficiency and timing
jitter are all folded into exact per-round click distributions which the
sampler then draws from.

Success probabilities are defined on sifted data: rounds whose detector
never fired are excluded from the estimates, exactly as heralded
probabilities are tabulated in practice, so each simulated round yields one
conclusive-or-discarded detection event and the no-click mass is reported
analytically.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .mub import pauli_mub_pair, product_mub_pair
from .qrac import Message, classical_bound, encoding_table, measurement_pair_from_mub

PROTOCOLS = ("2,2", "2,4")
_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
_MAX_ROUNDS = 2**63 - 1
BIN_SPACING_PS = 800.0   # time between adjacent bins of a train

# calibrate_raman_coefficient(), stored as a literal so that importing the
# package runs no calibration; a test recomputes it.
DEFAULT_RAMAN_COEFFICIENT = 325879974610.5981


def _require(valid: bool, key: str, domain: str, value) -> None:
    """Reject a value outside its domain, naming its config key or argument."""
    if not valid:
        raise ValueError(f"{key} must be {domain}, got {value}")


@dataclass(frozen=True)
class SourceModel:
    """Weak coherent pulse source."""

    mu: float = 0.2                 # mean photon number per train

    def __post_init__(self):
        _require(0.0 < self.mu < math.inf, "source.mu", "positive and finite", self.mu)


@dataclass(frozen=True)
class ChannelModel:
    """Fiber channel with optional co-propagating classical light.

    ``raman_coefficient`` converts classical optical power into a broadband
    noise click rate at the receiver input; it is a calibration constant,
    fixed so the mean time-basis success probability crosses the classical
    bound at -25 dBm.  The default is the value ``calibrate_raman_coefficient()``
    returns, stored as a full-precision literal.
    """

    loss_db: float = 10.0
    raman_coefficient: float = DEFAULT_RAMAN_COEFFICIENT
    classical_power_dbm: float | None = None   # None means the classical laser is off

    def __post_init__(self):
        for attr in ("loss_db", "raman_coefficient"):
            value = getattr(self, attr)
            _require(0.0 <= value < math.inf, f"channel.{attr}", "nonnegative and finite", value)
        power = self.classical_power_dbm
        _require(
            power is None or -math.inf <= power < math.inf,
            "channel.classical_power_dbm",
            "finite, or None or -inf for off",
            power,
        )

    @property
    def transmission(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon avalanche detector.

    ``jitter_fwhm_ps`` is the full-width-half-maximum timing-response figure
    quoted for such detectors; the Gaussian sigma of ``_jitter_window`` is
    fwhm / 2.3548.  Each arrival-time cell is one ``BIN_SPACING_PS`` wide,
    for the signal and the noise alike.
    """

    efficiency: float = 0.20
    dark_rate_hz: float = 2500.0
    jitter_fwhm_ps: float = 200.0

    def __post_init__(self):
        _require(0.0 < self.efficiency <= 1.0, "detector.efficiency", "in (0, 1]", self.efficiency)
        for attr in ("dark_rate_hz", "jitter_fwhm_ps"):
            value = getattr(self, attr)
            _require(0.0 <= value < math.inf, f"detector.{attr}", "nonnegative and finite", value)

    @property
    def jitter_sigma_ps(self) -> float:
        return self.jitter_fwhm_ps / _FWHM_TO_SIGMA


@dataclass(frozen=True)
class DliModel:
    """Delay-line interferometer reading the relative phase of adjacent bins:
    its delay is the ``BIN_SPACING_PS`` of the train, so each of its time
    slots is one spacing wide."""

    visibility: float = 0.90

    def __post_init__(self):
        _require(0.0 <= self.visibility <= 1.0, "dli.visibility", "in [0, 1]", self.visibility)


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """Amplitudes and relative phases of one encoded train, its bins
    ``BIN_SPACING_PS`` apart.

    The click models take the mean photon number from the SourceModel they
    are given.
    """

    bins: tuple

    def __post_init__(self):
        bins = tuple((float(a), float(p)) for a, p in self.bins)
        if len(bins) not in (2, 4):
            raise ValueError("a train carries two or four bins")
        for a, p in bins:
            _require(0.0 <= a < math.inf, "bins amplitude", "nonnegative and finite", a)
            _require(min(abs(p), abs(p - math.pi)) <= 1e-9, "bins relative phase", "0 or pi", p)
        total = sum(a * a for a, _ in bins)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"bin intensities must sum to 1, got {total:.12g}")
        object.__setattr__(self, "bins", bins)

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def fields(self) -> np.ndarray:   # signed bin amplitudes a cos(phase)
        return np.array([a * math.cos(p) for a, p in self.bins])


# A receiver arm is a linear-optics map T[path, port, slot, bin] from a
# train's bins to its detection cells, one (slot, port) pair each.  The
# arrival-time arm is the identity: one path, one port.  The delay-line
# interferometer sends each bin down a short path and a long one that is one
# slot late, and recombines them on two ports, in phase on port 0.
def _arrival_time_map(n_bins: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n_bins), (1, 1, n_bins, n_bins))


_SHORT, _LONG = np.eye(3, 2), np.eye(3, 2, -1)   # (slot, bin)
_DLI_MAP = 0.5 * np.array([[_SHORT, _SHORT], [_LONG, -_LONG]])
_DLI_MAP.flags.writeable = False


# A round's outcome is a cell of a (message, cell) table.  A message row
# holds each arm's cells in turn, time-major (slot, port): the arrival-time
# bins, then the interferometer's three slots of two ports, if any.  Only
# cells that can occur are listed, so the multinomial draw's last cell,
# which takes any rounding remainder, is a real outcome.
@dataclass(frozen=True, eq=False)
class _Protocol:
    """Everything a protocol fixes, built once by ``_protocol``; its arrays
    are read-only.  Every estimate is its correct mass over its conclusive
    mass: ``masks`` applied to the count table give the estimators, applied
    to the cell probabilities the closed forms they converge to, and
    restricted to one message row the per-state estimates.
    """

    messages: tuple[Message, ...]
    labels: tuple[str, ...]
    trains: tuple[PulseTrain, ...]
    fields: np.ndarray       # (message, bin)
    transfers: tuple[np.ndarray, ...]   # each arm's T[path, port, slot, bin]
    estimands: tuple[str, ...]
    masks: np.ndarray        # (estimand, correct|conclusive, message, cell)

    @property
    def n_bins(self) -> int:
        return self.fields.shape[1]

    @property
    def phase_arm(self) -> bool:   # interferometer cells follow the bins
        return len(self.transfers) > 1


@lru_cache(maxsize=None)
def _protocol(name: str) -> _Protocol:
    """The messages a protocol run exercises, their pulse trains realizing
    the exact optimal encoding, its receiver arms' transfer maps, and the
    estimands' masks.

    A negative encoding component becomes a pi relative phase on that bin.
    Every optimal encoding of both protocols is real, so every message could
    be sent.  The four-dimensional receiver records arrival times only, which
    read the first digit alone, so that protocol sends the messages with
    second digit 0, the ones whose trains carry no relative phase.
    """
    if name == "2,2":
        pair = pauli_mub_pair()
        messages = tuple(Message((x1, x2), 2) for x1 in range(2) for x2 in range(2))
        transfers = (_arrival_time_map(2), _DLI_MAP)
    elif name == "2,4":
        pair = product_mub_pair(pauli_mub_pair(), 2)
        messages = tuple(Message((q, 0), 4) for q in range(4))
        transfers = (_arrival_time_map(4),)
    else:
        raise ValueError(f"unknown protocol {name!r}")
    table = encoding_table(measurement_pair_from_mub(pair))
    encoded = np.array([table[m] for m in messages])
    if np.max(np.abs(encoded.imag)) > 1e-12:
        raise ValueError("optimal encoding is not realizable with 0/pi phases")
    trains = tuple(
        PulseTrain(tuple((abs(float(a.real)), 0.0 if a.real >= 0.0 else math.pi) for a in row))
        for row in encoded
    )
    fields = np.array([t.fields for t in trains])
    fields.flags.writeable = False

    # The arm, slot and port of each cell, and whether every path of its arm
    # reaches it: only there can paths interfere, so only there is a phase read.
    layout = []
    for k, transfer in enumerate(transfers):
        reached = (transfer != 0).any(axis=-1).all(axis=0).T   # (slot, port)
        layout.append(np.stack([np.full(reached.shape, k), *np.indices(reached.shape), reached]).reshape(4, -1))
    arm, slot, port, conclusive = np.concatenate(layout, axis=1)
    digits = np.array([m.digits for m in messages])
    first = digits[:, :1]
    z_conclusive = np.broadcast_to((arm == 0) & (conclusive == 1), (len(messages), arm.size))
    masks = {"p_z": (z_conclusive & (slot == first), z_conclusive)}
    if len(transfers) > 1:
        x_conclusive = np.broadcast_to((arm == 1) & (conclusive == 1), z_conclusive.shape)
        masks["p_x"] = (x_conclusive & (port == digits[:, 1:]), x_conclusive)
    else:
        # The first bit names the half of the alphabet; p_m1 and p_m2 score
        # it on the messages from the lower and the upper half.
        half = fields.shape[1] // 2
        first_bit = z_conclusive & (slot // half == first // half)
        lower = first < half
        masks["p_m1"] = (first_bit & lower, z_conclusive & lower)
        masks["p_m2"] = (first_bit & ~lower, z_conclusive & ~lower)
        masks["p_m12"] = masks["p_z"]
    stacked = np.array(list(masks.values()), dtype=np.int64)
    stacked.flags.writeable = False
    return _Protocol(messages, tuple(m.label for m in messages), trains, fields, transfers, tuple(masks), stacked)


def protocol_messages(protocol: str) -> tuple[Message, ...]:
    """Messages exercised by a protocol run."""
    return _protocol(protocol).messages


def build_pulse_train(message: Message, protocol: str) -> PulseTrain:
    """Pulse train realizing the optimal encoding of one message.

    The four-dimensional protocol sends only messages with second digit 0.
    """
    record = _protocol(protocol)
    if message.alphabet != record.n_bins:
        raise ValueError("message alphabet does not match the protocol")
    if message not in record.messages:
        raise ValueError("the four-dimensional transmitter only prepares messages with second digit 0")
    return record.trains[record.messages.index(message)]


@lru_cache(maxsize=64)
def _jitter_window(sigma_ps: float, n_bins: int) -> np.ndarray:
    """Read-only (slot, slot) matrix of Gaussian timing jitter: window[i, j] =
    Phi((j - i + 1/2) s / sigma) - Phi((j - i - 1/2) s / sigma), the chance
    that a photon of slot i is timed in slot j, with s = ``BIN_SPACING_PS``.
    It is the identity at sigma = 0.  Mass timed past the outer edges
    leaves the gate, so a row sums to at most 1."""
    scale = BIN_SPACING_PS / (sigma_ps * math.sqrt(2.0)) if sigma_ps > 0.0 else math.inf
    tail = [math.erfc((k + 0.5) * scale) for k in range(n_bins)]   # P(|timing error| > (k + 1/2) s)
    by_offset = np.array([1.0 - tail[0]] + [(tail[k - 1] - tail[k]) / 2.0 for k in range(1, n_bins)])
    window = by_offset[np.abs(np.subtract.outer(range(n_bins), range(n_bins)))]
    window.flags.writeable = False
    return window


def _arm_intensities(transfer: np.ndarray, fields: np.ndarray, visibility: float, sigma_ps: float) -> np.ndarray:
    """Read-only signal share of each (slot, port) cell, the last two axes,
    of an arm with transfer map ``transfer``, for trains given by their
    signed bin amplitudes (last axis of ``fields``).

    The paths interfere with visibility V: I = incoherent + V (coherent -
    incoherent), coherent being |sum_p T_p a|^2 and incoherent sum_p
    |T_p a|^2, so a one-path arm is its intensity exactly.  Then
    ``_jitter_window`` spreads each port's slots."""
    paths = np.einsum("aksb,...b->...ask", transfer, fields)   # (..., path, slot, port)
    incoherent = (paths * paths).sum(axis=-3)
    coherent = paths.sum(axis=-3) ** 2
    intensity = incoherent + visibility * (coherent - incoherent)
    window = _jitter_window(sigma_ps, transfer.shape[2])
    intensities = (intensity[..., :, None, :] * window[:, :, None]).sum(axis=-3)
    intensities.flags.writeable = False
    return intensities


def _first_click_probabilities(mean: float, intensities: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of the earliest click over an arm's (slot, port)
    cells, the last two axes of ``intensities``.

    Coherent light puts an independent Poisson number of photons in each
    cell: cell k stays silent with probability exp(-noise - mean I_k),
    ``noise`` being a cell's mean noise count; a padding cell, with neither,
    adds 0 to every sum.  Slots are read in time order; the ports of one
    slot click at once, and a double click is split evenly, so port p takes
    f_p (1 - f_other / 2), with f = -expm1(log of the silence), which keeps
    the digits of a small mean.  Returns the time-major cell probabilities
    and the no-click probability of every row (a scalar for one row).
    """
    log_silent = -noise - mean * intensities
    fire = -np.expm1(log_silent)
    split = fire * (1.0 - (np.add.reduce(fire, axis=-1, keepdims=True) - fire) / 2.0)
    log_reached = np.zeros((*log_silent.shape[:-2], log_silent.shape[-2] + 1))
    np.add.accumulate(np.add.reduce(log_silent, axis=-1), axis=-1, out=log_reached[..., 1:])
    reached = np.exp(log_reached)   # P(no click before slot s), then P(no click at all)
    return (reached[..., :-1, None] * split).reshape(*reached.shape[:-1], -1), reached[..., -1][()]


def _click_rates(source: SourceModel, channel: ChannelModel, detector: DetectorModel, transfers) -> tuple:
    """Mean detected signal of a train in one arm, and the mean noise count
    of a cell of each arm with one of ``transfers``: dark counts plus its
    port's share of the arm's half of the channel's scattering noise,
    collected over one ``BIN_SPACING_PS``."""
    # Factor 1/2 from the passive 50:50 basis-choice splitter.
    mean = source.mu * channel.transmission * detector.efficiency * 0.5
    # Scattering noise is linear in the classical power; 0 when the laser is off.
    power, raman_hz = channel.classical_power_dbm, 0.0
    if power is not None and power > -math.inf and channel.raman_coefficient > 0.0:
        try:
            raman_hz = channel.raman_coefficient * 10.0 ** ((power - 30.0) / 10.0)
        except OverflowError:   # the power alone passes float range: take the product in logs
            log_hz = math.log(channel.raman_coefficient) + (power - 30.0) / 10.0 * math.log(10.0)
            raman_hz = math.exp(log_hz) if log_hz < math.log(sys.float_info.max) else math.inf
    return mean, [(detector.dark_rate_hz + 0.5 / t.shape[1] * raman_hz) * BIN_SPACING_PS * 1e-12 for t in transfers]


def _conditional(probabilities: np.ndarray, *arms: str) -> np.ndarray:
    """Outcome distribution given that the arm clicked at all, per row;
    ``probabilities`` holds the rows of each of the named ``arms`` in turn."""
    total = np.add.reduce(probabilities, axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError(
            f"the {arms[(total <= 0.0).reshape(len(arms), -1).any(axis=1).argmax()]} arm can never click "
            "(total click probability 0): lower channel.loss_db or raise detector.dark_rate_hz"
        )
    return probabilities / total


@dataclass(frozen=True)
class ZClickDistribution:
    """Arrival-time outcome distribution for one train, one round."""

    bin_probabilities: np.ndarray   # P(earliest click in bin b)
    no_click_probability: float

    def conditional(self) -> np.ndarray:
        return _conditional(self.bin_probabilities, "arrival-time")


def z_click_distribution(
    train: PulseTrain,
    source: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
) -> ZClickDistribution:
    """Exact per-bin click distribution in the arrival-time arm.

    Each bin's photons are spread over every bin by Gaussian timing jitter
    (``_jitter_window``); every bin additionally sees dark counts plus half
    the channel's scattering noise (the other half goes to the phase arm).
    """
    transfer = _arrival_time_map(train.n_bins)
    mean, (noise,) = _click_rates(source, channel, detector, [transfer])
    intensities = _arm_intensities(transfer, train.fields, 1.0, detector.jitter_sigma_ps)
    return ZClickDistribution(*_first_click_probabilities(mean, intensities, noise))


@dataclass(frozen=True)
class XClickDistribution:
    """Interferometer outcome distribution: three time slots, two ports."""

    cell_probabilities: np.ndarray   # time-major: (slot, port) flattened
    no_click_probability: float

    def conditional(self) -> np.ndarray:
        return _conditional(self.cell_probabilities, "phase")


def x_click_distribution(
    train: PulseTrain,
    dli: DliModel,
    source: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
) -> XClickDistribution:
    """Exact outcome distribution in the phase arm for a two-bin train.

    In the interfering middle slot the constructive port takes (1 + 2 a b V
    cos dphi) / 2 of the conclusive mass as mu goes to 0; the outer slots are
    inconclusive.  Every slot is timed with jitter, and noise enters every
    slot of both ports with the dark rate plus a quarter of the channel's
    scattering noise.
    """
    if train.n_bins != 2:
        raise ValueError("the phase measurement reads two-bin trains only")
    intensities = _arm_intensities(_DLI_MAP, train.fields, dli.visibility, detector.jitter_sigma_ps)
    mean, (noise,) = _click_rates(source, channel, detector, [_DLI_MAP])
    return XClickDistribution(*_first_click_probabilities(mean, intensities, noise))


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one trial needs: protocol, device models, rounds, seed.

    The checks of ``protocol``, ``rounds``, ``seed`` and ``workers`` name the
    ``run.*`` configuration key that sets each of them.
    """

    protocol: str = "2,2"
    source: SourceModel = field(default_factory=SourceModel)
    channel: ChannelModel = field(default_factory=ChannelModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    dli: DliModel = field(default_factory=DliModel)
    rounds: int = 100_000
    seed: int = 1
    workers: int = 1        # stream partitions, run one after another

    def __post_init__(self):
        _require(self.protocol in PROTOCOLS, "run.protocol", " or ".join(PROTOCOLS), repr(self.protocol))
        for attr, least in (("rounds", 1), ("seed", 0), ("workers", 1)):
            value = operator.index(getattr(self, attr))
            _require(value >= least, f"run.{attr}", f"at least {least}", value)
            object.__setattr__(self, attr, value)
        # the counts are drawn by Generator.multinomial, which takes a C long
        _require(self.rounds <= _MAX_ROUNDS, "run.rounds", f"at most {_MAX_ROUNDS}", self.rounds)


@dataclass(frozen=True)
class BasisTally:
    correct: int
    wrong: int
    inconclusive: int = 0

    @property
    def conclusive(self) -> int:
        return self.correct + self.wrong

    @property
    def total(self) -> int:
        return self.conclusive + self.inconclusive


def _require_conclusive_mass(name: str, conclusive: float, reachable: bool) -> None:
    """Reject an estimand whose conclusive cells are not ``reachable``: noise
    fires before them in (nearly) every round, so no count of rounds will do."""
    if not reachable:
        raise ValueError(
            f"{name} can never be conclusive (conclusive probability {conclusive:.3g} per round): noise clicks "
            "first in (nearly) every round; lower detector.dark_rate_hz or channel.classical_power_dbm"
        )


def _estimate(correct: float, conclusive: float) -> tuple[float, float]:
    if conclusive == 0:
        return float("nan"), float("nan")
    p = correct / conclusive
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / conclusive)


@dataclass(frozen=True)
class TrialResult:
    """Counts and sifted success-probability estimates of one trial.

    ``counts`` is the one stored record of the draw: the (message, cell)
    count table, one int tuple per entry of ``state_labels`` holding the
    arrival-time bins and then, on 2,2, the interferometer cells.  Every
    round contributes exactly one event, so the table sums to ``rounds``.
    The per-state ``z_tallies``, ``x_tallies`` and ``z_bin_counts`` are
    derived from it on first read.  The probability that a physical train
    produces no click at all is reported analytically per arm.  Estimates a
    protocol does not measure are None.
    """

    protocol: str
    rounds: int
    seed: int
    workers: int
    state_labels: tuple
    counts: tuple
    no_click_probability_z: float
    no_click_probability_x: float | None
    p_z: float
    p_z_err: float
    p_x: float | None = None
    p_x_err: float | None = None
    p_m1: float | None = None
    p_m1_err: float | None = None
    p_m2: float | None = None
    p_m2_err: float | None = None
    p_m12: float | None = None
    p_m12_err: float | None = None

    def __post_init__(self):
        if sum(map(sum, self.counts)) != self.rounds:
            raise ValueError("counts do not sum to the number of rounds")

    @property
    def _n_bins(self) -> int:
        return _protocol(self.protocol).n_bins

    def _tallies(self, name: str, arm: slice) -> dict:
        record = _protocol(self.protocol)
        table = np.array(self.counts)
        correct, conclusive = (table * record.masks[record.estimands.index(name)]).sum(axis=-1)
        return {
            label: BasisTally(int(c), int(k - c), int(a - k))
            for label, c, k, a in zip(self.state_labels, correct, conclusive, table[:, arm].sum(axis=1))
        }

    @cached_property
    def z_tallies(self) -> dict:
        """Arrival-time tally of each state."""
        return self._tallies("p_z", slice(None, self._n_bins))

    @cached_property
    def x_tallies(self) -> dict | None:
        """Phase-arm tally of each state; None for the z-only 2,4 receiver."""
        if not _protocol(self.protocol).phase_arm:
            return None
        return self._tallies("p_x", slice(self._n_bins, None))

    @cached_property
    def z_bin_counts(self) -> dict:
        """Counts of each arrival-time bin, per state."""
        return {label: row[: self._n_bins] for label, row in zip(self.state_labels, self.counts)}

    def _state_estimate(self, tallies: dict, label: str) -> float:
        if label not in tallies:
            raise ValueError(f"unknown state {label!r}: the {self.protocol} states are {', '.join(tallies)}")
        return _estimate(tallies[label].correct, tallies[label].conclusive)[0]

    def state_p_z(self, label: str) -> float:
        return self._state_estimate(self.z_tallies, label)

    def state_p_x(self, label: str) -> float:
        if self.x_tallies is None:
            raise ValueError(f"the {self.protocol} receiver has no phase arm, so no state has a p_x")
        return self._state_estimate(self.x_tallies, label)


@lru_cache(maxsize=64)
def _trial_intensities(protocol: str, visibility: float, sigma_ps: float) -> tuple[np.ndarray, ...]:
    """What of a trial neither the source nor the channel enters, so a power
    sweep builds it once, read-only: every arm's and message's intensities,
    zero-padded to one (arm, message, slot, port) stack; each padded cell's
    arm from 1, 0 on padding; the real cells' flat index as (message, cell)."""
    record = _protocol(protocol)
    arms = [_arm_intensities(t, record.fields, visibility, sigma_ps) for t in record.transfers]
    stack = np.zeros((len(arms), *np.max([a.shape for a in arms], axis=0)))
    owner = np.zeros((len(arms), 1, *stack.shape[2:]), dtype=np.intp)
    for k, arm in enumerate(arms):
        stack[k, :, : arm.shape[1], : arm.shape[2]], owner[k, :, : arm.shape[1], : arm.shape[2]] = arm, k + 1
    flat = np.arange(stack.size).reshape(stack.shape).swapaxes(0, 1)
    real = flat[np.broadcast_to(owner, stack.shape).swapaxes(0, 1) > 0].reshape(len(record.messages), -1)
    for array in (stack, owner, real):
        array.flags.writeable = False
    return stack, owner, real


def _trial_distribution(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probability of each (message, cell) outcome of one sifted round.

    ``p[message, cell] = (1/n_msg) * P(arm) * conditional[cell]``: a uniform
    message, the passive 50:50 arm choice (P(arm) = 1 for the z-only 2,4
    receiver), then the arm's conditional-on-click distribution: one pass
    over ``_trial_intensities``, each arm's noise placed by index so padding
    stays 0.  Also returns the per-message no-click probabilities of each
    arm (none for the absent x arm of 2,4).
    """
    record = _protocol(config.protocol)
    stack, owner, real = _trial_intensities(config.protocol, config.dli.visibility, config.detector.jitter_sigma_ps)
    mean, noise = _click_rates(config.source, config.channel, config.detector, record.transfers)
    probs, no_click = _first_click_probabilities(mean, stack, np.array([0.0, *noise])[owner])
    p = (1.0 / len(noise)) * _conditional(probs, *("arrival-time", "phase")[: len(noise)]).take(real)
    return p / len(p), *no_click, *[np.empty(0)] * (2 - len(noise))


class _StreamKey:
    """The Philox key of a partition's stream, handed to ``Philox`` as a seed
    sequence that returns it: ``Philox(key=...)`` would also build a
    ``SeedSequence()`` from OS entropy that it never uses.  It is registered
    as an ``ISeedSequence`` on first use, not subclassed, so that importing
    the package leaves numpy.random unloaded.  ``state`` is a new Philox's on
    this key (counter 0, empty buffer): setting it re-keys one to the stream."""

    def __init__(self, key: np.ndarray):
        self.key, zeros = key, np.zeros(4, np.uint64)
        self.state = dict(bit_generator="Philox", state=dict(counter=zeros, key=key), buffer=zeros, buffer_pos=4,
                          has_uint32=0, uinteger=0)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.key


@lru_cache(maxsize=256)
def _stream_keys(seed: int, partitions: int) -> tuple[_StreamKey, ...]:
    """The key that ``Philox(SeedSequence(entropy=seed, spawn_key=(w,)))``
    takes, for each partition w; one cache entry serves a whole trial."""
    np.random.bit_generator.ISeedSequence.register(_StreamKey)
    return tuple(_StreamKey(np.random.SeedSequence(entropy=seed, spawn_key=(w,)).generate_state(2, np.uint64))
                 for w in range(partitions))


def simulate_trial(config: SimulationConfig) -> TrialResult:
    """Run one sifted Monte Carlo trial.

    A round is a uniform message, a passive 50:50 arm choice (two-bin
    protocol only; the four-bin receiver records arrival times only), and a
    detection outcome from the exact conditional-on-click distribution of
    that arm, so the rounds' outcomes are one multinomial draw over a
    (message, cell) table of outcome probabilities.  The rounds are split
    into ``workers`` stream partitions, run one after another: each draws
    its share of the counts from its own Philox stream keyed by
    (seed, worker), one Philox re-keyed, so a rerun with the same seed and
    worker count is bit-identical.  Every estimate is the correct-cell count
    over the conclusive-cell count of its masks, all taken in one product of
    the flattened masks with the counts, as ``expected_estimates`` does with
    the cell probabilities; it raises if 2**63 - 1 rounds expect none.
    """
    record = _protocol(config.protocol)
    p, no_click_z, no_click_x = _trial_distribution(config)
    cells = p.ravel()
    base, extra = divmod(config.rounds, config.workers)
    # a partition past the rounds draws none, so it needs no key
    first, *rest = _stream_keys(config.seed, min(config.workers, config.rounds))
    generator = np.random.Generator(np.random.Philox(first))
    counts = generator.multinomial(base + (0 < extra), cells)
    for w, key in enumerate(rest, start=1):
        generator.bit_generator.state = key.state
        counts += generator.multinomial(base + (w < extra), cells)
    totals = record.masks.reshape(-1, cells.size) @ counts
    estimates = {}
    for name, (correct, conclusive) in zip(record.estimands, totals.reshape(-1, 2).tolist()):
        if conclusive == 0:
            mass = (p * record.masks[record.estimands.index(name), 1]).sum()
            _require_conclusive_mass(name, mass, mass * _MAX_ROUNDS >= 1.0)
        estimates[name], estimates[name + "_err"] = _estimate(correct, conclusive)
    return TrialResult(
        protocol=config.protocol,
        rounds=config.rounds,
        seed=config.seed,
        workers=config.workers,
        state_labels=record.labels,
        counts=tuple(map(tuple, counts.reshape(p.shape).tolist())),
        no_click_probability_z=float(no_click_z.sum()) / no_click_z.size,
        no_click_probability_x=float(no_click_x.sum()) / no_click_x.size if record.phase_arm else None,
        **estimates,
    )


def _closed_form(name: str, correct: np.ndarray, conclusive: np.ndarray) -> float:
    """Pooled closed form of one estimand from its per-message correct and
    conclusive probabilities; raises if it can never be conclusive."""
    _require_conclusive_mass(name, conclusive.sum(), conclusive.any())
    return float(correct.sum() / conclusive.sum())   # p alone: its sigma may overflow


def expected_estimates(config: SimulationConfig) -> dict:
    """Closed forms of the estimates ``simulate_trial(config)`` reports.

    Each is the correct-cell over the conclusive-cell probability of the
    masks the estimator applies to the counts: the value the estimate
    converges to.  Keys are the measured estimate names (``p_z``, ``p_x``, or
    ``p_m1``, ``p_m2``, ``p_m12``), plus ``state_p_z`` (and ``state_p_x``)
    mapping each state label to its per-state closed form.  An estimand
    whose conclusive probability is 0 raises a ValueError, as the trial
    does; a state with none reads NaN.  Rounds, seed and workers are ignored.
    """
    record = _protocol(config.protocol)
    p, _, _ = _trial_distribution(config)
    result: dict = {}
    for name, (correct, conclusive) in zip(record.estimands, (p * record.masks).sum(axis=-1)):
        result[name] = _closed_form(name, correct, conclusive)
        if name in ("p_z", "p_x"):
            result["state_" + name] = {
                label: float(c / k) if k else math.nan for label, c, k in zip(record.labels, correct, conclusive)
            }
    return result


def expected_p_z(
    protocol: str,
    source: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
) -> float:
    """Closed-form pooled time-basis success probability over the protocol's
    message set, conditioned on a click.  Unlike ``expected_estimates`` it
    checks p_z alone, so it stays defined where noise saturates the phase arm."""
    config = SimulationConfig(protocol=protocol, source=source, channel=channel, detector=detector)
    masks = _protocol(protocol).masks[0]   # p_z is every protocol's first estimand
    correct, conclusive = (_trial_distribution(config)[0] * masks).sum(axis=-1)
    return _closed_form("p_z", correct, conclusive)


def expected_p_x(
    source: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
    dli: DliModel,
) -> float:
    """Closed-form pooled phase-basis success probability, conditioned on a
    click in the interfering slot."""
    config = SimulationConfig(source=source, channel=channel, detector=detector, dli=dli)
    return expected_estimates(config)["p_x"]


def calibrate_raman_coefficient() -> float:
    """Noise coefficient placing the classical-bound crossing of the mean
    time-basis success probability at -25 dBm, by bisection on its closed form."""
    threshold = classical_bound(2)

    def mean_p_z(coefficient: float) -> float:
        channel = ChannelModel(raman_coefficient=coefficient, classical_power_dbm=-25.0)
        return expected_p_z("2,2", SourceModel(), channel, DetectorModel())

    low, high = 1e6, 1e18
    if not (mean_p_z(low) > threshold > mean_p_z(high)):
        raise RuntimeError("calibration bracket does not straddle the threshold")
    while high / low > 1.0 + 1e-13:
        mid = math.sqrt(low * high)
        if mean_p_z(mid) > threshold:
            low = mid
        else:
            high = mid
    return math.sqrt(low * high)
