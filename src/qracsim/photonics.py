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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mub import pauli_mub_pair, product_mub_pair
from .qrac import Message, encoding_table, measurement_pair_from_mub

PROTOCOLS = ("2,2", "2,4")
_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class SourceModel:
    """Weak coherent pulse source."""

    mu: float = 0.2                 # mean photon number per train
    rep_period_ns: float = 1.6      # time between successive trains

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mean photon number must be positive")


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
    raman_coefficient: float | None = None   # None picks the calibrated default
    classical_power_dbm: float | None = None   # None means the classical laser is off

    def __post_init__(self):
        if self.loss_db < 0.0:
            raise ValueError("loss must be nonnegative")
        if self.raman_coefficient is None:
            object.__setattr__(self, "raman_coefficient", DEFAULT_RAMAN_COEFFICIENT)
        if self.raman_coefficient < 0.0:
            raise ValueError("raman coefficient must be nonnegative")

    @property
    def transmission(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon avalanche detector.

    ``jitter_fwhm_ps`` is the full-width-half-maximum timing-response figure
    quoted for such detectors; the Gaussian sigma used for cross-bin leakage
    is fwhm / 2.3548.
    """

    efficiency: float = 0.20
    dark_rate_hz: float = 2500.0
    jitter_fwhm_ps: float = 200.0
    gate_width_ps: float = 800.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if min(self.dark_rate_hz, self.jitter_fwhm_ps, self.gate_width_ps) < 0.0:
            raise ValueError("rates and widths must be nonnegative")

    @property
    def jitter_sigma_ps(self) -> float:
        return self.jitter_fwhm_ps / _FWHM_TO_SIGMA


@dataclass(frozen=True)
class DliModel:
    """Delay-line interferometer reading the relative phase of adjacent bins."""

    delay_ps: float = 800.0
    visibility: float = 0.90

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if self.delay_ps <= 0.0:
            raise ValueError("delay must be positive")


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """Amplitudes and relative phases of one encoded train.

    The click models take the mean photon number from the SourceModel they
    are given.
    """

    bins: tuple
    bin_spacing_ps: float = 800.0

    def __post_init__(self):
        bins = tuple((float(a), float(p)) for a, p in self.bins)
        if len(bins) not in (2, 4):
            raise ValueError("a train carries two or four bins")
        if any(a < 0.0 for a, _ in bins):
            raise ValueError("amplitudes must be nonnegative")
        if any(min(abs(p), abs(p - math.pi)) > 1e-9 for _, p in bins):
            raise ValueError("relative phases must be 0 or pi")
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

    @property
    def phases(self) -> np.ndarray:
        return np.array([p for _, p in self.bins])


@lru_cache(maxsize=None)
def _encoding_amplitudes(protocol: str) -> dict:
    if protocol == "2,2":
        pair = measurement_pair_from_mub(pauli_mub_pair())
    else:
        pair = measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2))
    table = encoding_table(pair)
    return {m.digits: table[m].amplitudes for m in table.table}


def protocol_messages(protocol: str) -> tuple[Message, ...]:
    """Messages exercised by a protocol run.

    The four-dimensional protocol encodes the zero-relative-phase subset,
    i.e. second digit fixed to 0.
    """
    if protocol == "2,2":
        return tuple(Message((x1, x2), 2) for x1 in range(2) for x2 in range(2))
    if protocol == "2,4":
        return tuple(Message((q, 0), 4) for q in range(4))
    raise ValueError(f"unknown protocol {protocol!r}")


def build_pulse_train(message: Message, protocol: str) -> PulseTrain:
    """Pulse train realizing the optimal encoding of one message.

    Amplitudes follow the exact optimal-encoding table; a negative component
    becomes a pi relative phase on that bin.  For the four-dimensional
    protocol only messages with second digit 0 are implementable (all other
    encodings need nonzero relative phases between every pulse).
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    expected_alphabet = 2 if protocol == "2,2" else 4
    if message.alphabet != expected_alphabet:
        raise ValueError("message alphabet does not match the protocol")
    if protocol == "2,4" and message.digits[1] != 0:
        raise ValueError(
            "the four-dimensional transmitter only prepares messages with second digit 0"
        )
    amplitudes = _encoding_amplitudes(protocol)[message.digits]
    if np.max(np.abs(amplitudes.imag)) > 1e-12:
        raise ValueError("optimal encoding is not realizable with 0/pi phases")
    bins = tuple(
        (abs(float(a.real)), 0.0 if a.real >= 0.0 else math.pi) for a in amplitudes
    )
    return PulseTrain(bins)


def raman_rate(power_dbm: float | None, coefficient: float) -> float:
    """Noise click rate induced by a classical channel at the given power.

    Linear in optical power: ``coefficient * 10**((power_dbm - 30) / 10)``
    clicks per second.  ``None`` or -inf power means the channel is off.
    """
    if coefficient < 0.0:
        raise ValueError("coefficient must be nonnegative")
    if power_dbm is None or power_dbm == -math.inf:
        return 0.0
    return coefficient * 10.0 ** ((power_dbm - 30.0) / 10.0)


def cross_bin_leak_fraction(sigma_ps: float, spacing_ps: float) -> float:
    """Probability of Gaussian timing noise carrying a click past the
    half-spacing edge of its bin (per side)."""
    if sigma_ps < 0.0 or spacing_ps <= 0.0:
        raise ValueError("sigma must be nonnegative and spacing positive")
    if sigma_ps == 0.0:
        return 0.0
    return 0.5 * math.erfc((spacing_ps / 2.0) / (sigma_ps * math.sqrt(2.0)))


def _jitter_weights(intensities: np.ndarray, spacing_ps: float, sigma_ps: float) -> np.ndarray:
    """Redistribute bin intensities by cross-bin leakage.

    Leakage only reaches adjacent bins (further tails are negligible at
    these spacings); mass leaked past the outer edges leaves the analysis
    gate and is lost.
    """
    leak = cross_bin_leak_fraction(sigma_ps, spacing_ps)
    if leak == 0.0:
        return intensities.copy()
    weights = intensities * (1.0 - 2.0 * leak)
    weights[1:] += intensities[:-1] * leak
    weights[:-1] += intensities[1:] * leak
    return weights


def _noise_probability(rate_hz: float, gate_width_ps: float) -> float:
    # Poisson window statistics; equals rate * gate to first order.
    return 1.0 - math.exp(-rate_hz * gate_width_ps * 1e-12)


def _first_click_probabilities(
    signal_prob: float, weights: np.ndarray, noise_probs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Exact distribution of the earliest click over time-ordered cells.

    One signal photon lands in cell k with probability signal_prob *
    weights[k] (weights may sum below 1 when some mass leaves the gate);
    each cell independently fires on noise with its own probability.  The
    earliest firing cell wins.  Returns per-cell probabilities and the
    no-click probability; together they sum to 1 exactly.
    """
    cumulative = np.concatenate(([0.0], np.cumsum(weights)))
    probs = np.empty(weights.size)
    prefix = 1.0
    for k in range(weights.size):
        before = 1.0 - signal_prob * cumulative[k]
        through = 1.0 - signal_prob * cumulative[k + 1]
        probs[k] = prefix * (before - (1.0 - noise_probs[k]) * through)
        prefix *= 1.0 - noise_probs[k]
    no_click = prefix * (1.0 - signal_prob * cumulative[-1])
    return probs, no_click


def _signal_click_probability(source: SourceModel, channel: ChannelModel, detector: DetectorModel) -> float:
    # Factor 1/2 from the passive 50:50 basis-choice splitter.
    mean_detected = source.mu * channel.transmission * detector.efficiency * 0.5
    return 1.0 - math.exp(-mean_detected)


def _receiver_noise_rate(channel: ChannelModel) -> float:
    return raman_rate(channel.classical_power_dbm, channel.raman_coefficient)


def _conditional(probabilities: np.ndarray, arm: str) -> np.ndarray:
    """Outcome distribution given that the arm clicked at all."""
    total = probabilities.sum()
    if total <= 0.0:
        raise ValueError(
            f"the {arm} arm can never click (total click probability 0): "
            "lower channel.loss_db or raise detector.dark_rate_hz"
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

    Signal clicks land in a bin proportionally to its intensity, smeared by
    Gaussian jitter leakage across the half-spacing bin edges; every bin
    additionally sees dark counts plus half the channel's scattering noise
    (the other half goes to the phase arm).
    """
    weights = _jitter_weights(
        train.amplitudes**2, train.bin_spacing_ps, detector.jitter_sigma_ps
    )
    signal = _signal_click_probability(source, channel, detector)
    noise = _noise_probability(
        detector.dark_rate_hz + 0.5 * _receiver_noise_rate(channel),
        detector.gate_width_ps,
    )
    probs, no_click = _first_click_probabilities(
        signal, weights, np.full(train.n_bins, noise)
    )
    return ZClickDistribution(probs, no_click)


# Cell layout of the interferometer output, in time order: the early and
# late slots carry no phase information, the middle slot interferes, so
# cells 2 and 3 (middle slot, ports 0 and 1) are the conclusive ones.
X_CELLS = 6


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
    if abs(dli.delay_ps - train.bin_spacing_ps) > 1e-9:
        raise ValueError("interferometer delay must equal the bin spacing")
    a, b = (train.bins[0][0], train.bins[1][0])
    dphi = train.bins[1][1] - train.bins[0][1]
    fringe = 2.0 * a * b * dli.visibility * math.cos(dphi)
    weights = np.array(
        [
            a * a / 4.0,            # early slot, port 0
            a * a / 4.0,            # early slot, port 1
            (1.0 + fringe) / 4.0,   # middle slot, port 0 (constructive for dphi = 0)
            (1.0 - fringe) / 4.0,   # middle slot, port 1
            b * b / 4.0,            # late slot, port 0
            b * b / 4.0,            # late slot, port 1
        ]
    )
    signal = _signal_click_probability(source, channel, detector)
    noise = _noise_probability(
        detector.dark_rate_hz + 0.25 * _receiver_noise_rate(channel),
        detector.gate_width_ps,
    )
    probs, no_click = _first_click_probabilities(signal, weights, np.full(X_CELLS, noise))
    return XClickDistribution(probs, no_click)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one trial needs: protocol, device models, rounds, seed."""

    protocol: str = "2,2"
    source: SourceModel = field(default_factory=SourceModel)
    channel: ChannelModel = field(default_factory=ChannelModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    dli: DliModel = field(default_factory=DliModel)
    rounds: int = 100_000
    seed: int = 1
    workers: int = 1
    bin_intensity_scale: tuple | None = None   # optional per-bin preparation imbalance

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.bin_intensity_scale is not None:
            scale = tuple(float(s) for s in self.bin_intensity_scale)
            if any(s <= 0.0 for s in scale):
                raise ValueError("bin intensity scales must be positive")
            object.__setattr__(self, "bin_intensity_scale", scale)


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


def _estimate(correct: int, conclusive: int) -> tuple[float, float]:
    if conclusive == 0:
        return float("nan"), float("nan")
    p = correct / conclusive
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / conclusive)


@dataclass(frozen=True)
class TrialResult:
    """Counts and sifted success-probability estimates of one trial.

    Every round contributes exactly one event (the tallies sum to
    ``rounds``); the probability that a physical train produces no click at
    all is reported analytically per arm.
    """

    protocol: str
    rounds: int
    seed: int
    workers: int
    state_labels: tuple
    z_tallies: dict
    x_tallies: dict | None
    z_bin_counts: dict
    p_z: float
    p_z_err: float
    p_x: float | None
    p_x_err: float | None
    p_m1: float | None
    p_m1_err: float | None
    p_m2: float | None
    p_m2_err: float | None
    p_m12: float | None
    p_m12_err: float | None
    no_click_probability_z: float
    no_click_probability_x: float | None

    def __post_init__(self):
        total = sum(t.total for t in self.z_tallies.values())
        if self.x_tallies is not None:
            total += sum(t.total for t in self.x_tallies.values())
        if total != self.rounds:
            raise ValueError("tallies do not sum to the number of rounds")

    def state_p_z(self, label: str) -> float:
        tally = self.z_tallies[label]
        return _estimate(tally.correct, tally.conclusive)[0]

    def state_p_x(self, label: str) -> float:
        tally = self.x_tallies[label]
        return _estimate(tally.correct, tally.conclusive)[0]


def _scaled_weights(train: PulseTrain, scale: tuple | None) -> np.ndarray:
    intensities = train.amplitudes**2
    if scale is None:
        return intensities
    if len(scale) != intensities.size:
        raise ValueError("bin intensity scale length must match the train")
    scaled = intensities * np.asarray(scale)
    return scaled / scaled.sum()


def _z_distribution_for(config: SimulationConfig, message: Message) -> ZClickDistribution:
    train = build_pulse_train(message, config.protocol)
    if config.bin_intensity_scale is None:
        return z_click_distribution(train, config.source, config.channel, config.detector)
    weights = _jitter_weights(
        _scaled_weights(train, config.bin_intensity_scale),
        train.bin_spacing_ps,
        config.detector.jitter_sigma_ps,
    )
    signal = _signal_click_probability(config.source, config.channel, config.detector)
    noise = _noise_probability(
        config.detector.dark_rate_hz + 0.5 * _receiver_noise_rate(config.channel),
        config.detector.gate_width_ps,
    )
    probs, no_click = _first_click_probabilities(
        signal, weights, np.full(train.n_bins, noise)
    )
    return ZClickDistribution(probs, no_click)


def _worker_rng(seed: int, worker: int) -> np.random.Generator:
    # Counter-based Philox stream, derived per worker from (seed, worker).
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(worker,))
    return np.random.Generator(np.random.Philox(sequence))


def _chunk_sizes(rounds: int, workers: int) -> list[int]:
    base, extra = divmod(rounds, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def simulate_trial(config: SimulationConfig) -> TrialResult:
    """Run one sifted Monte Carlo trial.

    Per round: a uniform message, a passive 50:50 arm choice (two-bin
    protocol only; the four-bin receiver records arrival times only), and a
    detection outcome drawn from the exact conditional-on-click distribution
    of that arm.  Rounds are partitioned across ``workers`` independent
    Philox streams keyed by (seed, worker) and merged in worker order, so a
    rerun with the same seed and worker count is bit-identical.
    """
    messages = protocol_messages(config.protocol)
    n_msg = len(messages)
    two_basis = config.protocol == "2,2"

    z_dists = [_z_distribution_for(config, m) for m in messages]
    z_cond = [d.conditional() for d in z_dists]
    z_cum = [np.cumsum(c) for c in z_cond]
    for c in z_cum:
        c[-1] = 1.0

    if two_basis:
        x_dists = [
            x_click_distribution(
                build_pulse_train(m, config.protocol),
                config.dli,
                config.source,
                config.channel,
                config.detector,
            )
            for m in messages
        ]
        x_cum = [np.cumsum(d.conditional()) for d in x_dists]
        for c in x_cum:
            c[-1] = 1.0

    n_bins = z_cond[0].size
    z_counts = np.zeros((n_msg, n_bins), dtype=np.int64)
    x_counts = np.zeros((n_msg, X_CELLS), dtype=np.int64)

    for worker, size in enumerate(_chunk_sizes(config.rounds, config.workers)):
        if size == 0:
            continue
        rng = _worker_rng(config.seed, worker)
        msg = rng.integers(0, n_msg, size=size)
        arm_x = rng.random(size) < 0.5 if two_basis else np.zeros(size, dtype=bool)
        u = rng.random(size)
        for m in range(n_msg):
            in_z = (msg == m) & ~arm_x
            if in_z.any():
                outcome = np.searchsorted(z_cum[m], u[in_z], side="right")
                z_counts[m] += np.bincount(outcome, minlength=n_bins)
            if two_basis:
                in_x = (msg == m) & arm_x
                if in_x.any():
                    cells = np.searchsorted(x_cum[m], u[in_x], side="right")
                    x_counts[m] += np.bincount(cells, minlength=X_CELLS)

    labels = tuple(m.label for m in messages)
    z_tallies = {}
    z_bin_counts = {}
    for i, message in enumerate(messages):
        correct = int(z_counts[i, message.digits[0]])
        z_tallies[labels[i]] = BasisTally(correct, int(z_counts[i].sum()) - correct)
        z_bin_counts[labels[i]] = tuple(int(c) for c in z_counts[i])

    z_correct = sum(t.correct for t in z_tallies.values())
    z_total = sum(t.conclusive for t in z_tallies.values())
    p_z, p_z_err = _estimate(z_correct, z_total)

    x_tallies = None
    p_x = p_x_err = None
    no_click_x = None
    p_m1 = p_m1_err = p_m2 = p_m2_err = p_m12 = p_m12_err = None

    if two_basis:
        x_tallies = {}
        for i, message in enumerate(messages):
            port = message.digits[1]
            correct = int(x_counts[i, 2 + port])
            wrong = int(x_counts[i, 2 + (1 - port)])
            inconclusive = int(x_counts[i].sum()) - correct - wrong
            x_tallies[labels[i]] = BasisTally(correct, wrong, inconclusive)
        x_correct = sum(t.correct for t in x_tallies.values())
        x_total = sum(t.conclusive for t in x_tallies.values())
        p_x, p_x_err = _estimate(x_correct, x_total)
        no_click_x = float(np.mean([d.no_click_probability for d in x_dists]))
    else:
        p_m12, p_m12_err = p_z, p_z_err
        low = [i for i, m in enumerate(messages) if m.digits[0] < 2]
        high = [i for i, m in enumerate(messages) if m.digits[0] >= 2]
        low_correct = int(z_counts[low][:, :2].sum())
        low_total = int(z_counts[low].sum())
        high_correct = int(z_counts[high][:, 2:].sum())
        high_total = int(z_counts[high].sum())
        p_m1, p_m1_err = _estimate(low_correct, low_total)
        p_m2, p_m2_err = _estimate(high_correct, high_total)

    return TrialResult(
        protocol=config.protocol,
        rounds=config.rounds,
        seed=config.seed,
        workers=config.workers,
        state_labels=labels,
        z_tallies=z_tallies,
        x_tallies=x_tallies,
        z_bin_counts=z_bin_counts,
        p_z=p_z,
        p_z_err=p_z_err,
        p_x=p_x,
        p_x_err=p_x_err,
        p_m1=p_m1,
        p_m1_err=p_m1_err,
        p_m2=p_m2,
        p_m2_err=p_m2_err,
        p_m12=p_m12,
        p_m12_err=p_m12_err,
        no_click_probability_z=float(np.mean([d.no_click_probability for d in z_dists])),
        no_click_probability_x=no_click_x,
    )


def expected_p_z(
    protocol: str,
    source: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
) -> float:
    """Closed-form mean time-basis success probability over the protocol's
    message set, conditioned on a click."""
    total = 0.0
    messages = protocol_messages(protocol)
    for message in messages:
        train = build_pulse_train(message, protocol)
        cond = z_click_distribution(train, source, channel, detector).conditional()
        total += float(cond[message.digits[0]])
    return total / len(messages)


def expected_p_x(
    source: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
    dli: DliModel,
) -> float:
    """Closed-form mean phase-basis success probability, conditioned on a
    click in the interfering slot."""
    total = 0.0
    messages = protocol_messages("2,2")
    for message in messages:
        train = build_pulse_train(message, "2,2")
        cond = x_click_distribution(train, dli, source, channel, detector).conditional()
        conclusive = cond[2] + cond[3]
        total += float(cond[2 + message.digits[1]] / conclusive)
    return total / len(messages)


def calibrate_raman_coefficient(
    crossing_power_dbm: float = -25.0,
    threshold: float = 0.75,
    source: SourceModel | None = None,
    loss_db: float = 10.0,
    detector: DetectorModel | None = None,
) -> float:
    """Noise coefficient placing the time-basis classical-bound crossing at
    the given classical power, by bisection on the closed-form mean."""
    source = source or SourceModel()
    detector = detector or DetectorModel()

    def mean_p_z(coefficient: float) -> float:
        channel = ChannelModel(
            loss_db=loss_db,
            raman_coefficient=coefficient,
            classical_power_dbm=crossing_power_dbm,
        )
        return expected_p_z("2,2", source, channel, detector)

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


# calibrate_raman_coefficient() at its defaults, stored as a literal so that
# importing the package runs no calibration; a test recomputes it.
DEFAULT_RAMAN_COEFFICIENT = 325880067373.3531
