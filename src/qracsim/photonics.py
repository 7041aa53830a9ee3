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
DEFAULT_RAMAN_COEFFICIENT = 325880067373.3531


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
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.bins])


# A round's outcome is a cell of a (message, cell) table.  Each message row
# holds its train's arrival-time bins, one per symbol of the alphabet, then,
# when the receiver has a phase arm, the X_CELLS interferometer cells.  Only
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
    amplitudes: np.ndarray   # (message, bin)
    phases: np.ndarray       # (message, bin)
    estimands: tuple[str, ...]
    masks: np.ndarray        # (estimand, correct|conclusive, message, cell)

    @property
    def n_bins(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def phase_arm(self) -> bool:   # interferometer cells follow the bins
        return self.masks.shape[-1] > self.n_bins


@lru_cache(maxsize=None)
def _protocol(name: str) -> _Protocol:
    """The messages a protocol run exercises, their pulse trains realizing
    the exact optimal encoding, and the estimands' masks.

    A negative encoding component becomes a pi relative phase on that bin.
    The four-dimensional protocol encodes the zero-relative-phase subset,
    i.e. second digit fixed to 0 (all other encodings need nonzero relative
    phases between every pulse); its receiver records arrival times only.
    """
    if name == "2,2":
        pair = pauli_mub_pair()
        messages = tuple(Message((x1, x2), 2) for x1 in range(2) for x2 in range(2))
    elif name == "2,4":
        pair = product_mub_pair(pauli_mub_pair(), 2)
        messages = tuple(Message((q, 0), 4) for q in range(4))
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
    bins = np.array([t.bins for t in trains])
    bins.flags.writeable = False

    n_bins = bins.shape[1]
    phase_arm = n_bins == 2   # the interferometer reads two-bin trains only
    cells = np.arange(n_bins + X_CELLS * phase_arm)
    first = np.array([m.digits[0] for m in messages])[:, None]
    z_conclusive = np.broadcast_to(cells < n_bins, (len(messages), len(cells)))
    masks = {"p_z": (cells == first, z_conclusive)}
    if phase_arm:
        second = np.array([m.digits[1] for m in messages])[:, None]
        x_conclusive = (cells >= n_bins + 2) & (cells < n_bins + 4)
        masks["p_x"] = (cells == n_bins + 2 + second, np.broadcast_to(x_conclusive, z_conclusive.shape))
    else:
        # The first bit names the half of the alphabet; p_m1 and p_m2 score
        # it on the messages from the lower and the upper half.
        half = n_bins // 2
        first_bit = z_conclusive & (cells // half == first // half)
        lower = first < half
        masks["p_m1"] = (first_bit & lower, z_conclusive & lower)
        masks["p_m2"] = (first_bit & ~lower, z_conclusive & ~lower)
        masks["p_m12"] = masks["p_z"]
    stacked = np.array(list(masks.values()), dtype=np.int64)
    stacked.flags.writeable = False
    return _Protocol(
        messages, tuple(m.label for m in messages), trains, bins[..., 0], bins[..., 1], tuple(masks), stacked
    )


def protocol_messages(protocol: str) -> tuple[Message, ...]:
    """Messages exercised by a protocol run."""
    return _protocol(protocol).messages


def build_pulse_train(message: Message, protocol: str) -> PulseTrain:
    """Pulse train realizing the optimal encoding of one message.

    For the four-dimensional protocol only messages with second digit 0 are
    implementable.
    """
    record = _protocol(protocol)
    if message.alphabet != record.n_bins:
        raise ValueError("message alphabet does not match the protocol")
    if message not in record.messages:
        raise ValueError("the four-dimensional transmitter only prepares messages with second digit 0")
    return record.trains[record.messages.index(message)]


@lru_cache(maxsize=64)
def _jitter_window(sigma_ps: float, n_bins: int) -> np.ndarray:
    """Read-only (bin, bin) matrix of Gaussian timing jitter: window[i, j] =
    Phi((j - i + 1/2) s / sigma) - Phi((j - i - 1/2) s / sigma), the chance
    that a photon of bin i is timed in bin j, with s = ``BIN_SPACING_PS``.
    It is the identity at sigma = 0.  Mass timed past the outer edges
    leaves the gate, so a row sums to at most 1."""
    scale = BIN_SPACING_PS / (sigma_ps * math.sqrt(2.0)) if sigma_ps > 0.0 else math.inf
    tail = [math.erfc((k + 0.5) * scale) for k in range(n_bins)]   # P(|timing error| > (k + 1/2) s)
    by_offset = np.array([1.0 - tail[0]] + [(tail[k - 1] - tail[k]) / 2.0 for k in range(1, n_bins)])
    window = by_offset[np.abs(np.subtract.outer(range(n_bins), range(n_bins)))]
    window.flags.writeable = False
    return window


def _first_click_probabilities(
    signal_prob: float, cumulative: np.ndarray, noise_probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of the earliest click over time-ordered cells.

    One signal photon lands in cell k with probability signal_prob *
    weights[..., k], given as the running sum ``cumulative`` of the weights
    along the last axis (they may sum below 1 when some mass leaves the
    gate); cell k independently fires on noise with probability
    noise_probs[k].  The earliest firing cell wins.  Returns per-cell
    probabilities and the no-click probability of every row of weights;
    together they sum to 1 exactly.
    """
    # P(no signal photon in cells 0..k), and the same before cell k.
    through = 1.0 - signal_prob * cumulative
    before = np.empty_like(through)
    before[..., 0] = 1.0
    before[..., 1:] = through[..., :-1]
    # P(no noise click before cell k), as a running product.
    keep = 1.0 - noise_probs
    prefix = np.concatenate(([1.0], np.cumprod(keep)))
    probs = prefix[:-1] * (before - keep * through)
    return probs, prefix[-1] * through[..., -1]


def _arm_click_probabilities(
    cumulative: np.ndarray,
    noise_share: float,
    source: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
) -> tuple[np.ndarray, np.ndarray]:
    """First-click distributions of an arm whose cells take the signal by
    weights with running sum ``cumulative`` (last axis) and, each, dark
    counts plus ``noise_share`` of the channel's scattering noise, collected
    over one ``BIN_SPACING_PS``."""
    # Factor 1/2 from the passive 50:50 basis-choice splitter.
    mean_detected = source.mu * channel.transmission * detector.efficiency * 0.5
    # Scattering noise is linear in the classical power; 0 when the laser is off.
    power, raman_hz = channel.classical_power_dbm, 0.0
    if power is not None and power > -math.inf and channel.raman_coefficient > 0.0:
        try:
            raman_hz = channel.raman_coefficient * 10.0 ** ((power - 30.0) / 10.0)
        except OverflowError:   # more power than a float holds: noise in every cell
            raman_hz = math.inf
    rate_hz = detector.dark_rate_hz + noise_share * raman_hz
    # Poisson window statistics; equals rate * spacing to first order.
    noise = 1.0 - math.exp(-rate_hz * BIN_SPACING_PS * 1e-12)
    return _first_click_probabilities(
        1.0 - math.exp(-mean_detected), cumulative, np.full(cumulative.shape[-1], noise)
    )


def _conditional(probabilities: np.ndarray, arm: str) -> np.ndarray:
    """Outcome distribution given that the arm clicked at all, per row."""
    total = probabilities.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError(
            f"the {arm} arm can never click (total click probability 0): "
            "lower channel.loss_db or raise detector.dark_rate_hz"
        )
    return probabilities / total


def _z_cumulative(amplitudes: np.ndarray, sigma_ps: float) -> np.ndarray:
    """Running sums of the arrival-time arm's signal weights for trains
    given by their bin amplitudes (last axis): the bin intensities times
    ``_jitter_window``, summed bin by bin so that one train and a batch of
    them give the same bits."""
    window = _jitter_window(sigma_ps, amplitudes.shape[-1])
    return np.cumsum((amplitudes[..., None] ** 2 * window).sum(axis=-2), axis=-1)


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

    Signal clicks land in a bin proportionally to its intensity, spread over
    every bin by Gaussian timing jitter (``_jitter_window``); every bin
    additionally sees dark counts plus half the channel's scattering noise
    (the other half goes to the phase arm).
    """
    cumulative = _z_cumulative(train.amplitudes, detector.jitter_sigma_ps)
    return ZClickDistribution(*_arm_click_probabilities(cumulative, 0.5, source, channel, detector))


# Cell layout of the interferometer output, in time order: the early and
# late slots carry no phase information, the middle slot interferes, so
# cells 2 and 3 (middle slot, ports 0 and 1) are the conclusive ones.
X_CELLS = 6


def _x_cumulative(amplitudes: np.ndarray, phases: np.ndarray, dli: DliModel) -> np.ndarray:
    """Running sums of the phase arm's signal weights for two-bin trains
    given by their bin amplitudes and relative phases (last axis).

    The phase arm applies no timing jitter.  At the default 200 ps FWHM a
    ``_jitter_window`` over its three slots would move p_x by -3.9e-7, far
    below the sampling error of a default run, yet change the fig4
    artifacts.  At wider jitter this p_x reads high (by 0.066 at 1000 ps)."""
    a, b = amplitudes[..., 0], amplitudes[..., 1]
    fringe = 2.0 * a * b * dli.visibility * np.cos(phases[..., 1] - phases[..., 0])
    weights = np.stack(
        [
            a * a / 4.0,            # early slot, port 0
            a * a / 4.0,            # early slot, port 1
            (1.0 + fringe) / 4.0,   # middle slot, port 0 (constructive for dphi = 0)
            (1.0 - fringe) / 4.0,   # middle slot, port 1
            b * b / 4.0,            # late slot, port 0
            b * b / 4.0,            # late slot, port 1
        ],
        axis=-1,
    )
    return np.cumsum(weights, axis=-1)


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

    In the interfering middle slot the constructive port fires with
    probability (1 + 2 a b V cos dphi) / 2 of the conclusive mass; the outer
    slots are inconclusive.  Noise enters every slot of both ports with the
    dark rate plus a quarter of the channel's scattering noise.
    """
    if train.n_bins != 2:
        raise ValueError("the phase measurement reads two-bin trains only")
    amplitudes, phases = np.array(train.bins).T
    cumulative = _x_cumulative(amplitudes, phases, dli)
    return XClickDistribution(*_arm_click_probabilities(cumulative, 0.25, source, channel, detector))


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


def _require_conclusive_mass(name: str, conclusive: float) -> None:
    """Reject an estimand whose conclusive cells have probability 0: noise
    fires before them in every round, so no count of rounds estimates it."""
    if conclusive == 0.0:
        raise ValueError(
            f"{name} can never be conclusive (conclusive probability 0): noise clicks first in every "
            "round; lower detector.dark_rate_hz or channel.classical_power_dbm"
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
def _trial_z_cumulative(protocol: str, sigma_ps: float) -> np.ndarray:
    """Read-only running sums of the arrival-time weights of every message
    of the protocol: the part of a trial's z arm that neither the source
    nor the channel enters, so a sweep over classical power builds it once."""
    cumulative = _z_cumulative(_protocol(protocol).amplitudes, sigma_ps)
    cumulative.flags.writeable = False
    return cumulative


@lru_cache(maxsize=64)
def _trial_x_cumulative(dli: DliModel) -> np.ndarray:
    """Read-only running sums of the phase-arm weights of every 2,2 message,
    which depend on the interferometer alone."""
    record = _protocol("2,2")
    cumulative = _x_cumulative(record.amplitudes, record.phases, dli)
    cumulative.flags.writeable = False
    return cumulative


def _trial_distribution(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probability of each (message, cell) outcome of one sifted round.

    ``p[message, cell] = (1/n_msg) * P(arm) * conditional[cell]``: a uniform
    message, the passive 50:50 arm choice (P(arm) = 1 for the z-only 2,4
    receiver), then the arm's conditional-on-click distribution.  Every
    message row is built at once, one pass per arm, from the cached running
    weights of that arm.  Also returns the per-message no-click
    probabilities of each arm (none for the absent x arm of 2,4).
    """
    models = (config.source, config.channel, config.detector)
    z_cumulative = _trial_z_cumulative(config.protocol, config.detector.jitter_sigma_ps)
    z, no_click_z = _arm_click_probabilities(z_cumulative, 0.5, *models)
    arms = [_conditional(z, "arrival-time")]
    no_click_x = np.empty(0)
    if _protocol(config.protocol).phase_arm:
        x, no_click_x = _arm_click_probabilities(_trial_x_cumulative(config.dli), 0.25, *models)
        arms.append(_conditional(x, "phase"))
    p = (1.0 / len(arms)) * np.concatenate(arms, axis=-1)
    return p / len(z), no_click_z, no_click_x


class _StreamKey:
    """The Philox key of a partition's stream, handed to ``Philox`` as a seed
    sequence that returns it: ``Philox(key=...)`` would also build a
    ``SeedSequence()`` from OS entropy that it never uses.  It is registered
    as an ``ISeedSequence`` on first use, not subclassed, so that importing
    the package leaves numpy.random unloaded."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.key


@lru_cache(maxsize=256)
def _stream_key(seed: int, worker: int) -> _StreamKey:
    """The key that ``Philox(SeedSequence(entropy=seed, spawn_key=(worker,)))`` takes."""
    np.random.bit_generator.ISeedSequence.register(_StreamKey)
    return _StreamKey(np.random.SeedSequence(entropy=seed, spawn_key=(worker,)).generate_state(2, np.uint64))


def simulate_trial(config: SimulationConfig) -> TrialResult:
    """Run one sifted Monte Carlo trial.

    A round is a uniform message, a passive 50:50 arm choice (two-bin
    protocol only; the four-bin receiver records arrival times only), and a
    detection outcome from the exact conditional-on-click distribution of
    that arm, so the rounds' outcomes are one multinomial draw over a
    (message, cell) table of outcome probabilities.  The rounds are split
    into ``workers`` stream partitions, run one after another: each draws
    its share of the counts from its own Philox stream keyed by
    (seed, worker), so a rerun with the same seed and worker count is
    bit-identical.  Every estimate is the correct-cell count over the
    conclusive-cell count of its masks, all taken in one product of the
    flattened masks with the counts; ``expected_estimates`` applies the
    same masks to the cell probabilities.
    """
    record = _protocol(config.protocol)
    p, no_click_z, no_click_x = _trial_distribution(config)
    cells = p.ravel()
    base, extra = divmod(config.rounds, config.workers)
    counts = sum(   # a partition past the rounds draws none, so it is skipped
        np.random.Generator(np.random.Philox(_stream_key(config.seed, w))).multinomial(base + (w < extra), cells)
        for w in range(min(config.workers, config.rounds))
    )
    totals = record.masks.reshape(-1, cells.size) @ counts
    estimates = {}
    for name, (correct, conclusive) in zip(record.estimands, totals.reshape(-1, 2).tolist()):
        if conclusive == 0:
            _require_conclusive_mass(name, (p * record.masks[record.estimands.index(name), 1]).sum())
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
    _require_conclusive_mass(name, conclusive.sum())
    return float(_estimate(correct.sum(), conclusive.sum())[0])


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
                label: float(_estimate(c, k)[0]) for label, c, k in zip(record.labels, correct, conclusive)
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
