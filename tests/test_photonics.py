import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim import (
    ChannelModel,
    DetectorModel,
    DliModel,
    Message,
    PulseTrain,
    SimulationConfig,
    SourceModel,
    build_pulse_train,
    calibrate_raman_coefficient,
    depolarize,
    empirical_advantage,
    expected_estimates,
    expected_p_x,
    expected_p_z,
    measurement_pair_from_mub,
    one_bit_success_probabilities,
    pauli_mub_pair,
    product_mub_pair,
    quantum_bound,
    simulate_trial,
    x_click_distribution,
    z_click_distribution,
    DEFAULT_RAMAN_COEFFICIENT,
)
from qracsim.photonics import BIN_SPACING_PS, _jitter_window, protocol_messages

SQRT2 = math.sqrt(2.0)
A1 = math.sqrt(2 + SQRT2) / 2
B1 = math.sqrt(2 - SQRT2) / 2

QUIET = ChannelModel()  # classical laser off
IDEAL_DETECTOR = DetectorModel(dark_rate_hz=0.0, jitter_fwhm_ps=0.0)
SOURCE = SourceModel()
# A faint source: the first click then reads single photons, and the closed
# forms reach their one-photon limits.
FAINT = SourceModel(mu=1e-6)


class TestPulseTrain:
    def test_rejects_bad_intensity_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PulseTrain(((1.0, 0.0), (1.0, 0.0)))

    def test_rejects_arbitrary_phase(self):
        with pytest.raises(ValueError, match="0 or pi"):
            PulseTrain(((A1, 0.3), (B1, 0.0)))

    def test_bin_count(self):
        with pytest.raises(ValueError, match="two or four"):
            PulseTrain(((1.0, 0.0),))


class TestBuildPulseTrain:
    def test_qubit_message_00(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        assert train.bins[0] == pytest.approx((A1, 0.0), abs=1e-9)
        assert train.bins[1] == pytest.approx((B1, 0.0), abs=1e-9)

    def test_qubit_message_01_carries_pi_phase(self):
        train = build_pulse_train(Message((0, 1), 2), "2,2")
        assert train.bins[1] == pytest.approx((B1, math.pi), abs=1e-9)

    def test_ququart_row(self):
        train = build_pulse_train(Message((1, 0), 4), "2,4")
        amplitudes = [b[0] for b in train.bins]
        expected = [1 / (2 * math.sqrt(3))] * 4
        expected[1] = math.sqrt(3) / 2
        assert np.allclose(amplitudes, expected, atol=1e-9)
        assert all(b[1] == 0.0 for b in train.bins)

    def test_unsupported_ququart_message(self):
        with pytest.raises(ValueError, match="second digit 0"):
            build_pulse_train(Message((1, 2), 4), "2,4")

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            build_pulse_train(Message((0, 1), 2), "2,4")

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match=r"^unknown protocol '2,3'$"):
            protocol_messages("2,3")

    def test_matches_engine_encoding(self):
        from qracsim import encoding_table, measurement_pair_from_mub, pauli_mub_pair

        table = encoding_table(measurement_pair_from_mub(pauli_mub_pair()))
        for digits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            train = build_pulse_train(Message(digits, 2), "2,2")
            signed = [a if p == 0.0 else -a for a, p in train.bins]
            assert np.allclose(signed, table[digits].real, atol=1e-9)


def raman_rate(power_dbm, coefficient):
    """The scattering-noise rate the click model applies, read back from the
    no-click mass of a two-bin train lost in the fiber with no dark counts:
    each bin takes half the rate over one spacing, so the arm stays silent
    with probability exp(-rate * BIN_SPACING_PS)."""
    channel = ChannelModel(loss_db=400.0, raman_coefficient=coefficient, classical_power_dbm=power_dbm)
    train = build_pulse_train(Message((0, 0), 2), "2,2")
    no_click = z_click_distribution(train, SOURCE, channel, IDEAL_DETECTOR).no_click_probability
    return -math.log(no_click) / (BIN_SPACING_PS * 1e-12)


class TestRamanRate:
    def test_off_channel(self):
        assert raman_rate(None, 1e11) == 0.0
        assert raman_rate(-math.inf, 1e11) == 0.0
        # a zero coefficient is off at any power, even one past float range
        assert raman_rate(3200.0, 0.0) == 0.0

    def test_linear_in_power(self):
        assert raman_rate(-22.0, 1e11) == pytest.approx(2 * raman_rate(-25.01, 1e11), rel=1e-3)

    def test_calibrated_rate_at_threshold_power(self):
        rate = raman_rate(-25.0, DEFAULT_RAMAN_COEFFICIENT)
        assert rate == pytest.approx(1.0e6, rel=0.1)

    def test_power_past_float_range_is_saturating_noise(self):
        """A power whose rate overflows a float fires noise in every cell,
        as 3000 dBm does: the phase arm can never be conclusive, and p_z,
        whose first bin is conclusive, reads its saturated 0.5."""
        loud = ChannelModel(classical_power_dbm=3200.0)
        with pytest.raises(ValueError, match="p_x can never be conclusive"):
            expected_estimates(SimulationConfig(channel=loud))
        saturated = ChannelModel(classical_power_dbm=3000.0)
        assert expected_p_z("2,2", SOURCE, loud, DetectorModel()) == 0.5
        assert expected_p_z("2,2", SOURCE, saturated, DetectorModel()) == 0.5

    def test_tiny_coefficient_brings_huge_power_back_into_range(self):
        """10 ** 317 overflows a float, but 1e-310 times it is about 1e7 Hz:
        a rate, not noise in every cell."""
        exact = float(Fraction(1e-310) * 10**317)
        assert raman_rate(3200.0, 1e-310) == pytest.approx(exact, rel=1e-9)
        channel = ChannelModel(loss_db=400.0, raman_coefficient=1e-310, classical_power_dbm=3200.0)
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        no_click = z_click_distribution(train, SOURCE, channel, IDEAL_DETECTOR).no_click_probability
        assert no_click == pytest.approx(math.exp(-exact * BIN_SPACING_PS * 1e-12), rel=1e-9)
        assert 0.99 < no_click < 0.995


class TestJitterWindow:
    @pytest.mark.parametrize("n_bins", [2, 4])
    @pytest.mark.parametrize("sigma", [0.0, 200.0, 3000.0, 1e12])
    def test_matches_normal_cdf(self, sigma, n_bins):
        window = _jitter_window(sigma, n_bins)
        if sigma == 0.0:
            oracle = np.eye(n_bins)
        else:
            # independent oracle: the bin-j window of a photon of bin i
            offset = np.arange(n_bins)[None, :] - np.arange(n_bins)[:, None]
            upper, lower = (offset + 0.5) * BIN_SPACING_PS / sigma, (offset - 0.5) * BIN_SPACING_PS / sigma
            oracle = scipy.stats.norm.cdf(upper) - scipy.stats.norm.cdf(lower)
        assert np.abs(window - oracle).max() <= 1e-15
        assert (window.sum(axis=1) <= 1.0).all()
        assert not window.flags.writeable

    def test_default_detector_leak_negligible(self):
        window = _jitter_window(DetectorModel().jitter_sigma_ps, 4)
        assert window[~np.eye(4, dtype=bool)].max() < 1e-5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    protocol=st.sampled_from(["2,2", "2,4"]),
    jitter=st.floats(0.0, 1e12),
    power=st.none() | st.floats(-80.0, 10.0),
    loss=st.floats(0.0, 60.0),
)
def test_jitter_never_pushes_p_z_below_guessing(protocol, jitter, power, loss):
    """However wide the jitter, neither arm is ever worse than a guess over
    its alphabet: jitter can only spread a slot's mass, not reverse it."""
    cfg = SimulationConfig(
        protocol=protocol,
        channel=ChannelModel(loss_db=loss, classical_power_dbm=power),
        detector=DetectorModel(jitter_fwhm_ps=jitter),
    )
    expected = expected_estimates(cfg)
    assert expected["p_z"] >= (0.5 if protocol == "2,2" else 0.25) - 1e-9
    if protocol == "2,2":
        assert expected["p_x"] >= 0.5 - 1e-9


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: PulseTrain(((math.nan, 0.0), (1.0, 0.0))), "bins amplitude"),
        (lambda: PulseTrain(((A1, 0.0), (B1, math.nan))), "bins relative phase"),
        # the Raman power and coefficient, checked where they enter the model
        (lambda: ChannelModel(classical_power_dbm=math.nan), "channel.classical_power_dbm"),
        (lambda: ChannelModel(classical_power_dbm=math.inf), "channel.classical_power_dbm"),
        (lambda: ChannelModel(raman_coefficient=math.nan), "channel.raman_coefficient"),
        (lambda: empirical_advantage(0.8, math.nan), "bound"),
        (lambda: depolarize(pauli_mub_pair().first.to_povm(), math.nan), "visibility"),
    ],
    ids=[
        "train-amplitude", "train-phase", "raman-power-nan", "raman-power-inf", "raman-coefficient",
        "advantage-bound", "depolarize-visibility",
    ],
)
def test_public_helpers_reject_nan(call, argument):
    """Each of these returned NaN or inf, or failed later, instead of naming
    the argument at fault."""
    with pytest.raises(ValueError, match=f"^{argument} must"):
        call()


class TestZClickDistribution:
    def test_noiseless_conditional_matches_encoding(self):
        # the earlier bin wins a two-bin round, which lifts one message's
        # conditional by about A B m / 2 for a detected mean m; mu = 1e-10
        # makes that 6e-14 (at mu = 1e-6 it is 6e-10)
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = z_click_distribution(train, SourceModel(mu=1e-10), QUIET, IDEAL_DETECTOR)
        assert dist.conditional()[0] == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_dark_counts_only_are_uniformish(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        src = SourceModel(mu=1e-12)
        det = DetectorModel(dark_rate_hz=2500.0, jitter_fwhm_ps=0.0)
        cond = z_click_distribution(train, src, QUIET, det).conditional()
        # uniform up to the tiny first-click ordering bias
        assert cond[0] == pytest.approx(0.5, abs=1e-5)

    def test_energy_bookkeeping_exact(self):
        train = build_pulse_train(Message((1, 0), 2), "2,2")
        for power in (None, -40.0, -25.0, -15.0, 0.0):
            channel = ChannelModel(classical_power_dbm=power)
            dist = z_click_distribution(train, SOURCE, channel, DetectorModel())
            total = float(dist.bin_probabilities.sum()) + dist.no_click_probability
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_explicit_jitter_redistribution(self):
        # oracle: tridiagonal leak of the intensity vector with edge loss
        sigma = 200.0 * 2.0 * math.sqrt(2.0 * math.log(2.0))  # fwhm giving sigma 200
        det = DetectorModel(dark_rate_hz=0.0, jitter_fwhm_ps=sigma)
        assert det.jitter_sigma_ps == pytest.approx(200.0, abs=1e-9)
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        leak = float(scipy.stats.norm.sf(2.0))
        w = np.array([A1**2, B1**2])
        expected = np.array(
            [w[0] * (1 - 2 * leak) + w[1] * leak, w[1] * (1 - 2 * leak) + w[0] * leak]
        )
        dist = z_click_distribution(train, FAINT, QUIET, det)
        assert np.allclose(dist.conditional(), expected / expected.sum(), atol=1e-12)


class TestXClickDistribution:
    def test_perfect_visibility(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = x_click_distribution(train, DliModel(visibility=1.0), FAINT, QUIET, IDEAL_DETECTOR)
        cond = dist.conditional()
        conclusive = cond[2] + cond[3]
        assert cond[2] / conclusive == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_default_visibility(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = x_click_distribution(train, DliModel(), FAINT, QUIET, IDEAL_DETECTOR)
        cond = dist.conditional()
        expected = 0.5 + 0.45 / SQRT2  # (1 + 2 a b V) / 2 with 2 a b = 1/sqrt(2)
        assert cond[2] / (cond[2] + cond[3]) == pytest.approx(expected, abs=1e-12)

    def test_pi_phase_swaps_ports(self):
        zero = build_pulse_train(Message((0, 0), 2), "2,2")
        pi = build_pulse_train(Message((0, 1), 2), "2,2")
        d0 = x_click_distribution(zero, DliModel(), SOURCE, QUIET, IDEAL_DETECTOR).conditional()
        d1 = x_click_distribution(pi, DliModel(), SOURCE, QUIET, IDEAL_DETECTOR).conditional()
        assert d0[2] == pytest.approx(d1[3], abs=1e-12)
        assert d0[3] == pytest.approx(d1[2], abs=1e-12)

    def test_rejects_four_bin_train(self):
        train = build_pulse_train(Message((0, 0), 4), "2,4")
        with pytest.raises(ValueError, match="two-bin"):
            x_click_distribution(train, DliModel(), SOURCE, QUIET, IDEAL_DETECTOR)

    def test_energy_bookkeeping_exact(self):
        train = build_pulse_train(Message((1, 1), 2), "2,2")
        channel = ChannelModel(classical_power_dbm=-20.0)
        dist = x_click_distribution(train, DliModel(), SOURCE, channel, DetectorModel())
        total = float(dist.cell_probabilities.sum()) + dist.no_click_probability
        assert total == pytest.approx(1.0, abs=1e-14)


def sample_first_clicks(rng, rounds, mean, field, interferometer, sigma_ps, noise):
    """Cell of the first click of each of ``rounds`` rounds of one train in
    one arm, or -1 for no click, photon by photon.

    Each bin sends a Poisson number of photons, mean ``mean`` times its
    intensity.  In the interferometer, at visibility 0, each photon takes
    the short path or the one-slot-late long path and either port at random.
    Its arrival time is off by a Gaussian error, and it clicks in the slot
    whose spacing-wide window holds that time, if any.  Each cell also
    fires on a Poisson count of noise.  The earliest slot wins; when both of
    its ports fired, a fair coin picks one.
    """
    n_bins = len(field)
    slots, ports = n_bins + interferometer, 1 + interferometer
    photons = rng.poisson(mean * np.square(field), size=(rounds, n_bins)).ravel()
    which_round = np.repeat(np.arange(rounds).repeat(n_bins), photons)
    slot = np.repeat(np.tile(np.arange(n_bins), rounds), photons).astype(float)
    if interferometer:
        slot += rng.integers(0, 2, slot.size)
    port = rng.integers(0, ports, slot.size)
    slot = np.floor(slot + rng.normal(0.0, sigma_ps / BIN_SPACING_PS, slot.size) + 0.5)
    inside = (slot >= 0) & (slot < slots)
    fired = rng.poisson(noise, size=(rounds, slots, ports)) > 0
    fired[which_round[inside], slot[inside].astype(int), port[inside]] = True
    any_port = fired.any(axis=2)
    first = any_port.argmax(axis=1)
    in_first = fired[np.arange(rounds), first]
    coin = rng.integers(0, ports, rounds)
    chosen = np.where(in_first.all(axis=1), coin, in_first.argmax(axis=1))
    return np.where(any_port.any(axis=1), first * ports + chosen, -1)


class TestFirstClickModel:
    """Independent oracles for the per-round click distributions: the raw
    event model, cell by cell against ``_first_click_probabilities`` and
    photon by photon (``sample_first_clicks``) against the (message, cell)
    table the sampler draws from."""

    @pytest.mark.parametrize(
        "mean,weights,noise",
        [
            # one port, three slots
            (0.3, [[0.5], [0.3], [0.15]], [[0.1], [0.2], [0.05]]),
            # two ports: same-slot double clicks are common
            (0.9, [[0.2, 0.2], [0.2, 0.2]], [[0.3, 0.3], [0.3, 0.3]]),
            (0.002, [[0.8535], [0.1465]], [[4e-4], [4e-4]]),
        ],
    )
    def test_against_event_level_simulation(self, mean, weights, noise):
        """Cell by cell: each (slot, port) cell fires on a Poisson count of
        mean ``mean * weight + noise``; the earliest slot wins and a fair
        coin splits a same-slot double click."""
        from qracsim.photonics import _first_click_probabilities

        weights = np.asarray(weights, dtype=float)
        noise = np.asarray(noise, dtype=float)
        slots, ports = weights.shape
        closed, closed_no_click = _first_click_probabilities(mean, weights, noise)

        rng = np.random.default_rng(2718)
        n = 400_000
        fired = rng.poisson(mean * weights + noise, size=(n, slots, ports)) > 0
        any_port = fired.any(axis=2)
        first = any_port.argmax(axis=1)
        in_first = fired[np.arange(n), first]
        coin = rng.integers(0, ports, n)
        chosen = np.where(in_first.all(axis=1), coin, in_first.argmax(axis=1))
        cells = (first * ports + chosen)[any_port.any(axis=1)]

        counts = np.bincount(cells, minlength=slots * ports)
        observed_no_click = n - counts.sum()
        for k in range(slots * ports):
            sigma = math.sqrt(max(closed[k] * (1 - closed[k]), 1e-12) / n)
            assert counts[k] / n == pytest.approx(closed[k], abs=5 * sigma + 1e-9)
        sigma = math.sqrt(max(closed_no_click * (1 - closed_no_click), 1e-12) / n)
        assert observed_no_click / n == pytest.approx(closed_no_click, abs=5 * sigma + 1e-9)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        protocol=st.sampled_from(["2,2", "2,4"]),
        mu=st.floats(1e-3, 50.0),
        jitter=st.floats(0.0, 10_000.0),
        dark=st.floats(0.0, 1e9),
        power=st.none() | st.floats(-40.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trial_table_against_photon_sampler(self, protocol, mu, jitter, dark, power, seed):
        """Each message's cell and no-click frequencies in each arm, from
        photons placed one by one, sit within 5 sigma of the exact (message,
        cell) table at loss 0, efficiency 1 and visibility 0."""
        from qracsim.photonics import _trial_distribution

        cfg = SimulationConfig(
            protocol=protocol,
            source=SourceModel(mu=mu),
            channel=ChannelModel(loss_db=0.0, classical_power_dbm=power),
            detector=DetectorModel(efficiency=1.0, dark_rate_hz=dark, jitter_fwhm_ps=jitter),
            dli=DliModel(visibility=0.0),
        )
        p, no_click_z, no_click_x = _trial_distribution(cfg)
        raman_hz = 0.0 if power is None else cfg.channel.raman_coefficient * 10.0 ** ((power - 30.0) / 10.0)
        arms = (False, True) if protocol == "2,2" else (False,)
        rng = np.random.default_rng(seed)
        rounds = 8_000
        for row, message in enumerate(protocol_messages(protocol)):
            field = [a * math.cos(phase) for a, phase in build_pulse_train(message, protocol).bins]
            start = 0
            for interferometer, no_click in zip(arms, (no_click_z, no_click_x)):
                noise = (dark + 0.5 / (1 + interferometer) * raman_hz) * BIN_SPACING_PS * 1e-12
                sigma = cfg.detector.jitter_sigma_ps
                cells = sample_first_clicks(rng, rounds, mu / 2.0, field, interferometer, sigma, noise)
                clicked = cells[cells >= 0]
                assert_binomial(rounds - clicked.size, rounds, no_click[row], f"no click of {message.label}")
                conditional = p[row, start : start + (len(field) + interferometer) * (1 + interferometer)]
                conditional = conditional / conditional.sum()
                counts = np.bincount(clicked, minlength=conditional.size)
                for cell, (count, q) in enumerate(zip(counts, conditional)):
                    assert_binomial(int(count), clicked.size, min(float(q), 1.0), f"cell {cell} of {message.label}")
                start += conditional.size


class TestSimulateTrial:
    def test_deterministic_for_fixed_seed(self):
        cfg = SimulationConfig(rounds=20_000, seed=13, workers=3)
        assert simulate_trial(cfg) == simulate_trial(cfg)

    def test_worker_count_changes_stream(self):
        one = simulate_trial(SimulationConfig(rounds=20_000, seed=13, workers=1))
        four = simulate_trial(SimulationConfig(rounds=20_000, seed=13, workers=4))
        assert one != four

    def test_counts_sum_to_rounds(self):
        res = simulate_trial(SimulationConfig(rounds=9_999, seed=2, workers=2))
        total = sum(t.total for t in res.z_tallies.values())
        total += sum(t.total for t in res.x_tallies.values())
        assert total == 9_999

    def test_more_workers_than_rounds(self, monkeypatch):
        res = simulate_trial(SimulationConfig(rounds=3, seed=1, workers=8))
        total = sum(t.total for t in res.z_tallies.values())
        total += sum(t.total for t in res.x_tallies.values())
        assert total == 3
        # only the partitions that draw a round build a stream
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda key: built.append(key) or philox(key))
        many = simulate_trial(SimulationConfig(rounds=10, seed=1, workers=1_000_000))
        assert len(built) <= 10
        # each of the first ten streams draws one round, as with ten workers
        assert many.counts == simulate_trial(SimulationConfig(rounds=10, seed=1, workers=10)).counts

    def test_one_philox_per_trial(self, monkeypatch):
        """Every partition's stream comes from one Philox, re-keyed, and the
        counts are still the sum of the partitions' own streams (the
        stream contract, as ``per_arm_trial`` draws it)."""
        cfg = SimulationConfig(channel=ChannelModel(classical_power_dbm=-25.0), rounds=100_003, seed=7, workers=8)
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda key: built.append(key) or philox(key))
        counts = simulate_trial(cfg).counts
        assert len(built) == 1
        monkeypatch.undo()
        assert counts == per_arm_trial(cfg).counts

    def test_phase_arm_inconclusive_fraction(self):
        # half of the interferometer output lands in the outer slots
        res = simulate_trial(SimulationConfig(rounds=200_000, seed=6))
        conclusive = sum(t.conclusive for t in res.x_tallies.values())
        inconclusive = sum(t.inconclusive for t in res.x_tallies.values())
        fraction = conclusive / (conclusive + inconclusive)
        assert fraction == pytest.approx(0.5, abs=0.01)

    def test_no_click_probability_matches_closed_form(self):
        res = simulate_trial(SimulationConfig(rounds=1_000, seed=1))
        from qracsim import Message, build_pulse_train

        dists = [
            z_click_distribution(
                build_pulse_train(Message((x1, x2), 2), "2,2"), SOURCE, QUIET, DetectorModel()
            )
            for x1 in range(2)
            for x2 in range(2)
        ]
        mean_no_click = sum(d.no_click_probability for d in dists) / 4
        assert res.no_click_probability_z == pytest.approx(mean_no_click, abs=1e-12)

    def test_ideal_limit_matches_exact_values(self):
        cfg = SimulationConfig(
            detector=IDEAL_DETECTOR,
            dli=DliModel(visibility=1.0),
            rounds=1_000_000,
            seed=5,
        )
        res = simulate_trial(cfg)
        assert res.p_z == pytest.approx(quantum_bound(2), abs=4 * res.p_z_err)
        assert res.p_x == pytest.approx(quantum_bound(2), abs=4 * res.p_x_err)

    def test_error_scaling(self):
        closed = expected_p_z("2,2", SOURCE, QUIET, DetectorModel())
        errs = {}
        for n in (10_000, 100_000, 1_000_000):
            res = simulate_trial(SimulationConfig(rounds=n, seed=31))
            assert res.p_z == pytest.approx(closed, abs=4 * res.p_z_err)
            errs[n] = res.p_z_err
        ratio = errs[10_000] / errs[1_000_000]
        assert 8.0 < ratio < 12.5

    def test_ququart_ideal(self):
        cfg = SimulationConfig(
            protocol="2,4", detector=IDEAL_DETECTOR, rounds=400_000, seed=8
        )
        res = simulate_trial(cfg)
        assert res.p_x is None
        assert res.p_m12 == pytest.approx(0.75, abs=4 * res.p_m12_err)
        assert res.p_m1 == pytest.approx(5 / 6, abs=4 * res.p_m1_err)
        assert res.p_m2 == pytest.approx(5 / 6, abs=4 * res.p_m2_err)

    @pytest.mark.parametrize("protocol", ["2,2", "2,4"])
    def test_ideal_closed_forms_meet_exact_engine(self, protocol):
        """Without noise, jitter or fringe loss the closed forms tend to the
        exact engine's optimal success probabilities as mu goes to 0, not
        only within sampling error.  p_m1 and p_m2 approach theirs linearly
        in mu (7e-10 off at mu = 1e-6), so the source is fainter still."""
        cfg = SimulationConfig(
            protocol=protocol,
            source=SourceModel(mu=1e-10),
            channel=QUIET,
            detector=IDEAL_DETECTOR,
            dli=DliModel(visibility=1.0),
        )
        closed = expected_estimates(cfg)
        if protocol == "2,2":
            exact = {"p_z": quantum_bound(2), "p_x": quantum_bound(2)}
        else:
            ideal = one_bit_success_probabilities(
                measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2))
            )
            exact = {"p_m12": ideal["two_bit"], "p_m1": ideal["first_half"], "p_m2": ideal["second_half"]}
        for name, value in exact.items():
            assert abs(closed[name] - value) < 1e-12, name

    def test_ququart_bin_counts_recorded(self):
        res = simulate_trial(SimulationConfig(protocol="2,4", rounds=10_000, seed=3))
        assert set(res.z_bin_counts) == {"00", "10", "20", "30"}
        assert all(len(v) == 4 for v in res.z_bin_counts.values())

    def test_classical_power_degrades_success(self):
        noisy = simulate_trial(
            SimulationConfig(
                channel=ChannelModel(classical_power_dbm=-20.0), rounds=200_000, seed=4
            )
        )
        assert noisy.p_z < 0.75
        assert noisy.p_x < 0.75


# Two-sided tail mass of a normal beyond 5 sigma: the exact binomial tests
# below accept what a 5-sigma band would, without its small-count failures.
FIVE_SIGMA_TAIL = 2.0 * float(scipy.stats.norm.sf(5.0))


def assert_binomial(successes, trials, q, what):
    if trials == 0:
        return
    pvalue = scipy.stats.binomtest(successes, trials, q).pvalue
    assert pvalue >= FIVE_SIGMA_TAIL, f"{what}: {successes}/{trials} against {q!r}"


def distribution_oracle(cfg):
    """Closed forms straight from the per-arm conditionals, without the
    (message, cell) table or its masks."""
    messages = protocol_messages(cfg.protocol)
    trains = [build_pulse_train(m, cfg.protocol) for m in messages]
    z = [
        z_click_distribution(t, cfg.source, cfg.channel, cfg.detector).conditional() for t in trains
    ]
    state_z = {m.label: c[m.digits[0]] for m, c in zip(messages, z)}
    oracle = {"p_z": np.mean(list(state_z.values())), "state_p_z": state_z}
    if cfg.protocol == "2,2":
        x = [x_click_distribution(t, cfg.dli, cfg.source, cfg.channel, cfg.detector).conditional() for t in trains]
        correct = [c[2 + m.digits[1]] for m, c in zip(messages, x)]
        conclusive = [c[2] + c[3] for c in x]
        oracle["p_x"] = sum(correct) / sum(conclusive)
        oracle["state_p_x"] = {m.label: a / b for m, a, b in zip(messages, correct, conclusive)}
    else:
        oracle["p_m12"] = oracle["p_z"]
        oracle["p_m1"] = np.mean([c[0] + c[1] for m, c in zip(messages, z) if m.digits[0] < 2])
        oracle["p_m2"] = np.mean([c[2] + c[3] for m, c in zip(messages, z) if m.digits[0] >= 2])
    return oracle


@st.composite
def trial_configs(draw):
    return SimulationConfig(
        protocol=draw(st.sampled_from(["2,2", "2,4"])),
        source=SourceModel(mu=draw(st.floats(0.01, 5.0))),
        channel=ChannelModel(
            loss_db=draw(st.floats(0.0, 30.0)),
            classical_power_dbm=draw(st.none() | st.floats(-45.0, -10.0)),
        ),
        dli=DliModel(visibility=draw(st.floats(0.0, 1.0))),
        rounds=draw(st.integers(1, 1_000_000)),
        seed=draw(st.integers(0, 2**32 - 1)),
        workers=draw(st.integers(1, 8)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=trial_configs())
def test_trial_estimates_match_closed_forms(cfg):
    """Every estimate sits within 5 sigma of its closed form, the closed forms
    match the per-arm conditionals, and messages and arms split as drawn."""
    res = simulate_trial(cfg)
    expected = expected_estimates(cfg)
    oracle = distribution_oracle(cfg)
    assert set(expected) == set(oracle)
    for name, value in oracle.items():
        if isinstance(value, dict):
            for label in value:
                assert expected[name][label] == pytest.approx(value[label], abs=1e-12)
        else:
            assert expected[name] == pytest.approx(value, abs=1e-12)

    two_basis = cfg.protocol == "2,2"
    labels = res.state_labels
    z, x = res.z_tallies, res.x_tallies
    per_message = {label: z[label].total + (x[label].total if two_basis else 0) for label in labels}
    assert sum(per_message.values()) == cfg.rounds
    for label in labels:
        assert_binomial(per_message[label], cfg.rounds, 1 / len(labels), f"rounds of {label}")
        bins = res.z_bin_counts[label]
        assert sum(bins) == z[label].total == z[label].conclusive
        assert bins[int(label[0])] == z[label].correct
    if two_basis:
        assert_binomial(sum(z[label].total for label in labels), cfg.rounds, 0.5, "z/x arm split")

    def check(name, correct, conclusive):
        if conclusive == 0:
            assert math.isnan(getattr(res, name))
            return
        assert getattr(res, name) == correct / conclusive
        assert_binomial(correct, conclusive, expected[name], name)

    tallies = {"p_z": z, "p_x": x} if two_basis else {"p_z": z, "p_m12": z}
    for name, by_state in tallies.items():
        check(name, sum(t.correct for t in by_state.values()), sum(t.conclusive for t in by_state.values()))
    for name, by_state in ((("p_z", z), ("p_x", x)) if two_basis else (("p_z", z),)):
        for label, t in by_state.items():
            assert_binomial(t.correct, t.conclusive, expected["state_" + name][label], f"{name} of {label}")
    if two_basis:
        assert res.p_m1 is res.p_m2 is res.p_m12 is None
    else:
        assert res.p_x is None
        for name, half in (("p_m1", 0), ("p_m2", 1)):
            rows = [res.z_bin_counts[label] for label in labels if int(label[0]) // 2 == half]
            check(name, sum(sum(r[2 * half : 2 * half + 2]) for r in rows), sum(sum(r) for r in rows))


class TestClosedFormCurves:
    def test_calibration_places_crossing(self):
        channel = ChannelModel(classical_power_dbm=-25.0)
        assert expected_p_z("2,2", SOURCE, channel, DetectorModel()) == pytest.approx(
            0.75, abs=1e-9
        )

    def test_quiet_limit_near_minus_forty(self):
        quiet = expected_p_z("2,2", SOURCE, QUIET, DetectorModel())
        at_forty = expected_p_z(
            "2,2", SOURCE, ChannelModel(classical_power_dbm=-40.0), DetectorModel()
        )
        assert abs(at_forty - quiet) < 0.01

    def test_below_bound_at_minus_twenty(self):
        at_twenty = expected_p_z(
            "2,2", SOURCE, ChannelModel(classical_power_dbm=-20.0), DetectorModel()
        )
        assert at_twenty < 0.75

    def test_monotone_in_classical_power(self):
        powers = np.arange(-40.0, -14.0, 1.0)
        values_z = [
            expected_p_z("2,2", SOURCE, ChannelModel(classical_power_dbm=p), DetectorModel())
            for p in powers
        ]
        values_x = [
            expected_p_x(SOURCE, ChannelModel(classical_power_dbm=p), DetectorModel(), DliModel())
            for p in powers
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values_z, values_z[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(values_x, values_x[1:]))

    @pytest.mark.parametrize("power", [None, *range(-40, -14)])
    def test_pooled_closed_forms_match_message_averages(self, power):
        # p_z pools messages of equal conclusive mass, so it is their average;
        # p_x pools middle-slot masses that differ slightly between messages
        channel = ChannelModel(classical_power_dbm=power)
        for protocol in ("2,2", "2,4"):
            average = np.mean([
                z_click_distribution(build_pulse_train(m, protocol), SOURCE, channel, DetectorModel())
                .conditional()[m.digits[0]]
                for m in protocol_messages(protocol)
            ])
            assert expected_p_z(protocol, SOURCE, channel, DetectorModel()) == pytest.approx(average, abs=1e-15)
        ratios = []
        for m in protocol_messages("2,2"):
            cond = x_click_distribution(
                build_pulse_train(m, "2,2"), DliModel(), SOURCE, channel, DetectorModel()
            ).conditional()
            ratios.append(cond[2 + m.digits[1]] / (cond[2] + cond[3]))
        assert expected_p_x(SOURCE, channel, DetectorModel(), DliModel()) == pytest.approx(
            np.mean(ratios), abs=1e-8
        )

    def test_p_z_stays_defined_where_phase_arm_saturates(self):
        # noise fires in the first bin and the first phase-arm slot of every
        # round: p_z is a coin flip, p_x has no conclusive mass (the chance
        # of a silent first slot, exp(-1304), is 0 in floating point)
        channel = ChannelModel(classical_power_dbm=40.0)
        assert expected_p_z("2,2", SOURCE, channel, DetectorModel()) == 0.5
        with pytest.raises(ValueError, match=r"^p_x can never be conclusive"):
            expected_p_x(SOURCE, channel, DetectorModel(), DliModel())

    def test_phase_arm_nearly_saturated_at_thirty_dbm(self):
        """At 30 dBm the first phase-arm slot stays silent with probability
        about 1e-57: p_x has a closed form, a coin flip, but no trial of any
        allowed length (at most 2**63 - 1 rounds) expects a conclusive
        round, so the trial blames the noise, as at exactly 0."""
        cfg = SimulationConfig(channel=ChannelModel(classical_power_dbm=30.0))
        expected = expected_estimates(cfg)
        assert expected["p_z"] == 0.5
        assert expected["p_x"] == pytest.approx(0.5, abs=1e-12)
        from qracsim.photonics import _protocol, _trial_distribution

        conclusive = (_trial_distribution(cfg)[0] * _protocol("2,2").masks[1, 1]).sum()
        assert 0.0 < conclusive < 1e-50
        for rounds in (1, 1_000):
            with pytest.raises(ValueError, match=r"^p_x can never be conclusive \(conclusive probability 1\.22e-57 "):
                simulate_trial(replace(cfg, rounds=rounds))

    def test_multi_photon_closed_form(self):
        """With every photon detected and no noise or jitter, the earlier bin
        wins a round whenever it holds a photon: at mean m = mu / 2 per arm,
        p_z = (1 - e^{-mA}) (1 + e^{-mB}) / (2 (1 - e^{-m}))."""
        mu, a, b = 5.0, A1**2, B1**2
        m = mu / 2.0
        closed = (1 - math.exp(-m * a)) * (1 + math.exp(-m * b)) / (2 * (1 - math.exp(-m)))
        p_z = expected_p_z("2,2", SourceModel(mu=mu), ChannelModel(loss_db=0.0), DetectorModel(
            efficiency=1.0, dark_rate_hz=0.0, jitter_fwhm_ps=0.0
        ))
        assert p_z == pytest.approx(closed, abs=1e-12)
        assert p_z == pytest.approx(0.81323, abs=1e-5)

    def test_calibrator_is_reproducible(self):
        assert calibrate_raman_coefficient() == DEFAULT_RAMAN_COEFFICIENT


class TestModelValidation:
    def test_source_positive_mu(self):
        with pytest.raises(ValueError):
            SourceModel(mu=0.0)

    def test_detector_efficiency_range(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.0)

    def test_dli_visibility_range(self):
        with pytest.raises(ValueError):
            DliModel(visibility=1.2)

    def test_config_protocol(self):
        with pytest.raises(ValueError, match="protocol"):
            SimulationConfig(protocol="3,3")

    def test_config_rounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(rounds=0)

    UNCLICKABLE = r"channel\.loss_db.*detector\.dark_rate_hz"
    SATURATED = r"^p_x can never be conclusive .*detector\.dark_rate_hz or channel\.classical_power_dbm$"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "protocol, channel, detector, entry, message",
        [
            # no signal survives 4000 dB and nothing else fires: no estimate exists
            ("2,2", ChannelModel(loss_db=4000), DetectorModel(dark_rate_hz=0), simulate_trial, UNCLICKABLE),
            ("2,4", ChannelModel(loss_db=4000), DetectorModel(dark_rate_hz=0), simulate_trial, UNCLICKABLE),
            # noise fires in the first phase-arm slot of every round, so the
            # interfering slot is never reached: p_x has no conclusive mass
            ("2,2", ChannelModel(classical_power_dbm=40.0), DetectorModel(), simulate_trial, SATURATED),
            ("2,2", ChannelModel(), DetectorModel(dark_rate_hz=1e12), expected_estimates, SATURATED),
        ],
        ids=["2,2", "2,4", "saturated-simulate_trial", "saturated-expected_estimates"],
    )
    def test_unclickable_receiver_rejected(self, protocol, channel, detector, entry, message):
        cfg = SimulationConfig(protocol=protocol, channel=channel, detector=detector, rounds=1_000)
        with pytest.raises(ValueError, match=message):
            entry(cfg)

    @pytest.mark.filterwarnings("error")
    def test_unclickable_phase_arm_rejected(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = x_click_distribution(
            train, DliModel(), SOURCE, ChannelModel(loss_db=4000), IDEAL_DETECTOR
        )
        with pytest.raises(ValueError, match=r"phase arm.*channel\.loss_db"):
            dist.conditional()


@pytest.mark.parametrize(
    "changes, error, message",
    [
        ({"rounds": 10.5}, TypeError, "integer"),
        ({"workers": 2.0}, TypeError, "integer"),
        ({"seed": -1}, ValueError, "seed must be at least 0, got -1"),
        ({"rounds": 0}, ValueError, "rounds must be at least 1, got 0"),
    ],
)
def test_simulation_config_integers(changes, error, message):
    with pytest.raises(error, match=message):
        SimulationConfig(**changes)


# The per-message loop that builds the trial table, kept as an oracle: each
# message's cell intensities written out from its arm's optics, then the
# first-click rule slot by slot.  It takes exp and expm1 from numpy, whose
# scalar calls round as its array calls do; math's may round otherwise.
def _looped_intensities(field, interferometer, cfg):
    if interferometer:   # a short path and a long one a slot late, on two ports
        short, late = [0.5 * a for a in field] + [0.0], [0.0] + [0.5 * a for a in field]
        raw = []
        for s, l in zip(short, late):
            row = []
            for ps, pl in ((s, l), (s, -l)):
                incoherent = ps * ps + pl * pl
                row.append(incoherent + cfg.dli.visibility * ((ps + pl) * (ps + pl) - incoherent))
            raw.append(row)
    else:
        raw = [[a * a] for a in field]
    window = _jitter_window(cfg.detector.jitter_sigma_ps, len(raw))
    slots, ports = range(len(raw)), range(len(raw[0]))
    return [[sum(raw[i][k] * window[i, j] for i in slots) for k in ports] for j in slots]


def _looped_first_click(mean, intensities, noise):
    probs, silent = [], 0.0   # log P(no click before the slot)
    for slot in intensities:
        logs = [-noise - mean * i for i in slot]
        fires = [-np.expm1(v) for v in logs]
        both = sum(fires)
        probs += [np.exp(silent) * (f * (1.0 - (both - f) / 2.0)) for f in fires]
        silent += sum(logs)
    return np.array(probs), np.exp(silent)


def _looped_arm(intensities, cfg):
    mean_detected = cfg.source.mu * cfg.channel.transmission * cfg.detector.efficiency * 0.5
    power = cfg.channel.classical_power_dbm
    raman_hz = 0.0 if power in (None, -math.inf) else cfg.channel.raman_coefficient * 10.0 ** ((power - 30.0) / 10.0)
    rate_hz = cfg.detector.dark_rate_hz + 0.5 / len(intensities[0]) * raman_hz
    probs, no_click = _looped_first_click(mean_detected, intensities, rate_hz * BIN_SPACING_PS * 1e-12)
    return probs / probs.sum(), no_click


def looped_trial_distribution(cfg):
    messages = protocol_messages(cfg.protocol)
    arms = (False, True) if cfg.protocol == "2,2" else (False,)
    rows, no_clicks = [], ([], [])
    for message in messages:
        field = [a * math.cos(p) for a, p in build_pulse_train(message, cfg.protocol).bins]
        row = []
        for interferometer, no_click_of_arm in zip(arms, no_clicks):
            probs, no_click = _looped_arm(_looped_intensities(field, interferometer, cfg), cfg)
            row.append((1.0 / len(arms)) * probs)
            no_click_of_arm.append(no_click)
        rows.append(np.concatenate(row))
    return np.array(rows) / len(messages), np.array(no_clicks[0]), np.array(no_clicks[1])


@st.composite
def table_configs(draw):
    return SimulationConfig(
        protocol=draw(st.sampled_from(["2,2", "2,4"])),
        source=SourceModel(mu=draw(st.floats(0.0, 50.0, exclude_min=True))),
        channel=ChannelModel(
            loss_db=draw(st.floats(0.0, 30.0)),
            classical_power_dbm=draw(st.none() | st.just(-math.inf) | st.floats(-80.0, 10.0)),
        ),
        detector=DetectorModel(
            efficiency=draw(st.floats(0.0, 1.0, exclude_min=True)),
            jitter_fwhm_ps=draw(st.floats(0.0, 1000.0)),
        ),
        dli=DliModel(visibility=draw(st.floats(0.0, 1.0))),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cfg=table_configs())
def test_trial_table_matches_per_message_loop(cfg):
    """The batched (message, cell) table and no-click probabilities are bit
    for bit those of the per-message loop, and each row is bit for bit what
    the public one-train functions give."""
    from qracsim.photonics import _trial_distribution

    p, no_click_z, no_click_x = _trial_distribution(cfg)
    looped, looped_z, looped_x = looped_trial_distribution(cfg)
    assert np.array_equal(p, looped)
    assert np.array_equal(no_click_z, looped_z)
    assert np.array_equal(no_click_x, looped_x)

    two_basis = cfg.protocol == "2,2"
    arm = 0.5 if two_basis else 1.0
    n_msg, n_bins = len(p), (2 if two_basis else 4)
    for row, message in zip(p, protocol_messages(cfg.protocol)):
        train = build_pulse_train(message, cfg.protocol)
        z = z_click_distribution(train, cfg.source, cfg.channel, cfg.detector)
        assert np.array_equal(row[:n_bins], arm * z.conditional() / n_msg)
        if two_basis:
            x = x_click_distribution(train, cfg.dli, cfg.source, cfg.channel, cfg.detector)
            assert np.array_equal(row[n_bins:], arm * x.conditional() / n_msg)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=table_configs())
def test_cell_and_no_click_mass_sum_to_one(cfg):
    """Over the padded (arm, message, slot, port) stack, each arm's real
    cells and its no-click mass sum to 1, and every padding cell is 0."""
    from qracsim.photonics import _click_rates, _first_click_probabilities, _protocol, _trial_intensities

    intensities, owner, real = _trial_intensities(cfg.protocol, cfg.dli.visibility, cfg.detector.jitter_sigma_ps)
    mean, noise = _click_rates(cfg.source, cfg.channel, cfg.detector, _protocol(cfg.protocol).transfers)
    probs, no_click = _first_click_probabilities(mean, intensities, np.array([0.0, *noise])[owner])
    padding = np.broadcast_to(owner == 0, intensities.shape).reshape(probs.shape)
    assert np.count_nonzero(~padding) == real.size
    assert (probs[padding] == 0.0).all() and (intensities.reshape(probs.shape)[padding] == 0.0).all()
    assert np.abs(probs.sum(axis=-1) + no_click - 1.0).max() <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=table_configs(), rate=st.floats(1.0, 1e9), more=st.floats(0.0, 1e9))
def test_success_never_rises_with_noise(cfg, rate, more):
    """More dark counts in every cell never raise p_z or p_x (some dark
    counts keep a receiver that no signal reaches clickable)."""
    def estimates(dark_rate_hz):
        return expected_estimates(replace(cfg, detector=replace(cfg.detector, dark_rate_hz=dark_rate_hz)))

    quiet, noisy = estimates(rate), estimates(rate + more)
    for name in ("p_z", "p_x") if cfg.protocol == "2,2" else ("p_z",):
        assert noisy[name] <= quiet[name] + 1e-12, name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=table_configs())
def test_pi_phase_is_a_port_swap(cfg):
    """A pi phase on the second bin swaps the interferometer's ports cell for
    cell, so a state and its partner have the same p_x; with the same-slot
    split the states that swap the bins agree too (up to the rounding of
    each row's normalisation)."""
    cfg = replace(cfg, protocol="2,2")
    models = (cfg.dli, cfg.source, cfg.channel, cfg.detector)
    for x1 in range(2):
        zero, pi = (build_pulse_train(Message((x1, x2), 2), "2,2") for x2 in range(2))
        cells = x_click_distribution(zero, *models).cell_probabilities.reshape(3, 2)
        assert np.array_equal(cells[:, ::-1], x_click_distribution(pi, *models).cell_probabilities.reshape(3, 2))
    state_p_x = expected_estimates(cfg)["state_p_x"]
    for label in ("01", "10", "11"):
        assert state_p_x[label] == pytest.approx(state_p_x["00"], rel=1e-14)


@pytest.mark.parametrize("protocol", ["2,2", "2,4"])
def test_trains_built_once_per_protocol(protocol, monkeypatch):
    simulate_trial(SimulationConfig(protocol=protocol, rounds=10))
    built = []
    original = PulseTrain.__post_init__
    monkeypatch.setattr(PulseTrain, "__post_init__", lambda self: built.append(original(self)))
    for power in (None, -30.0, -20.0):
        cfg = SimulationConfig(protocol=protocol, channel=ChannelModel(classical_power_dbm=power), rounds=10)
        simulate_trial(cfg)
        expected_estimates(cfg)
    assert built == []


def test_state_p_x_of_ququart_trial_names_missing_arm():
    res = simulate_trial(SimulationConfig(protocol="2,4", rounds=100))
    with pytest.raises(ValueError, match="2,4 receiver has no phase arm"):
        res.state_p_x("00")


@pytest.mark.parametrize("protocol", ["2,2", "2,4"])
def test_unknown_state_label_names_valid_labels(protocol):
    res = simulate_trial(SimulationConfig(protocol=protocol, rounds=100))
    valid = ", ".join(m.label for m in protocol_messages(protocol))
    with pytest.raises(ValueError, match=f"unknown state '99': the {protocol} states are {valid}$"):
        res.state_p_z("99")
    if protocol == "2,2":
        with pytest.raises(ValueError, match=f"unknown state '99': the {protocol} states are {valid}$"):
            res.state_p_x("99")


@pytest.mark.parametrize("workers", range(1, 9))
def test_counts_follow_stream_contract(workers):
    """Partition w draws its divmod share of the rounds from
    Generator(Philox(SeedSequence(entropy=seed, spawn_key=(w,)))), and the
    count table is the sum of the partitions' draws."""
    from qracsim.photonics import _trial_distribution

    for seed in (0, 1, 7, 2**32 - 1, 12345678901):
        for protocol, rounds in (("2,2", 100_003), ("2,4", 250_001), ("2,2", 5), ("2,4", 3)):
            cfg = SimulationConfig(
                protocol=protocol,
                channel=ChannelModel(classical_power_dbm=-25.0),
                rounds=rounds,
                seed=seed,
                workers=workers,
            )
            p = _trial_distribution(cfg)[0]
            base, extra = divmod(rounds, workers)
            expected = sum(
                np.random.Generator(
                    np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(w,)))
                ).multinomial(base + (w < extra), p.ravel())
                for w in range(workers)
            )
            assert simulate_trial(cfg).counts == tuple(map(tuple, expected.reshape(p.shape).tolist()))


def _per_arm_first_click(mean, intensities, noise):
    log_silent = -noise - mean * intensities
    fire = -np.expm1(log_silent)
    split = fire * (1.0 - (fire.sum(axis=-1, keepdims=True) - fire) / 2.0)
    silent_through = np.cumsum(log_silent.sum(axis=-1), axis=-1)
    reached = np.exp(np.concatenate((np.zeros_like(silent_through[..., :1]), silent_through[..., :-1]), axis=-1))
    probs = reached[..., None] * split
    return probs.reshape(*probs.shape[:-2], -1), np.exp(silent_through[..., -1])


def per_arm_trial(cfg):
    """simulate_trial built arm by arm, as an oracle: each arm's table of
    every message in its own pass, then a Philox built per partition."""
    from qracsim.photonics import TrialResult, _arm_intensities, _protocol

    record = _protocol(cfg.protocol)
    mean = cfg.source.mu * cfg.channel.transmission * cfg.detector.efficiency * 0.5
    power = cfg.channel.classical_power_dbm
    raman_hz = 0.0 if power is None else cfg.channel.raman_coefficient * 10.0 ** ((power - 30.0) / 10.0)
    arms, no_clicks = [], []
    for transfer in record.transfers:
        intensities = _arm_intensities(transfer, record.fields, cfg.dli.visibility, cfg.detector.jitter_sigma_ps)
        rate_hz = cfg.detector.dark_rate_hz + 0.5 / intensities.shape[-1] * raman_hz
        probs, no_click = _per_arm_first_click(mean, intensities, rate_hz * BIN_SPACING_PS * 1e-12)
        arms.append(probs / probs.sum(axis=-1, keepdims=True))
        no_clicks.append(float(no_click.sum()) / no_click.size)
    p = (1.0 / len(arms)) * np.concatenate(arms, axis=-1)
    p = p / len(p)
    base, extra = divmod(cfg.rounds, cfg.workers)
    counts = sum(
        np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(w,))))
        .multinomial(base + (w < extra), p.ravel())
        for w in range(min(cfg.workers, cfg.rounds))
    )
    estimates = {}
    totals = (record.masks.reshape(-1, p.size) @ counts).reshape(-1, 2).tolist()
    for name, (correct, conclusive) in zip(record.estimands, totals):
        q = correct / conclusive
        estimates[name], estimates[name + "_err"] = q, math.sqrt(max(q * (1.0 - q), 0.0) / conclusive)
    return TrialResult(
        protocol=cfg.protocol,
        rounds=cfg.rounds,
        seed=cfg.seed,
        workers=cfg.workers,
        state_labels=record.labels,
        counts=tuple(map(tuple, counts.reshape(p.shape).tolist())),
        no_click_probability_z=no_clicks[0],
        no_click_probability_x=no_clicks[1] if len(no_clicks) > 1 else None,
        **estimates,
    )


@pytest.mark.parametrize("power", [None, -25.0])
@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
@pytest.mark.parametrize("protocol", ["2,2", "2,4"])
def test_trial_matches_per_arm_oracle(protocol, seed, workers, power):
    """Every TrialResult field, by repr, is what the arm-by-arm path gives."""
    cfg = SimulationConfig(
        protocol=protocol, channel=ChannelModel(classical_power_dbm=power), rounds=100_003, seed=seed, workers=workers
    )
    assert repr(simulate_trial(cfg)) == repr(per_arm_trial(cfg))


def test_one_train_no_click_probability_is_a_float():
    train = build_pulse_train(Message((0, 1), 2), "2,2")
    z = z_click_distribution(train, SOURCE, QUIET, DetectorModel())
    x = x_click_distribution(train, DliModel(), SOURCE, QUIET, DetectorModel())
    for dist in (z, x):
        assert isinstance(dist.no_click_probability, np.float64)


def test_conditional_names_the_arm_that_cannot_click():
    from qracsim.photonics import _conditional

    probs = np.array([[[0.2, 0.1], [0.3, 0.0]], [[0.1, 0.1], [0.0, 0.0]]])   # (arm, message, cell)
    with pytest.raises(ValueError, match="^the phase arm can never click"):
        _conditional(probs, "arrival-time", "phase")
    assert np.array_equal(_conditional(probs[:1], "arrival-time"), [[[2 / 3, 1 / 3], [1.0, 0.0]]])


def test_cached_weights_follow_every_weight_field():
    """A trial's table after other configs have filled the weight caches is
    bit for bit the table built cold, for configs one weight field apart."""
    from qracsim.photonics import _trial_distribution, _trial_intensities

    def cold(cfg):
        _trial_intensities.cache_clear()
        return _trial_distribution(cfg)

    base = SimulationConfig(channel=ChannelModel(classical_power_dbm=-25.0))
    variants = [
        base,
        replace(base, detector=DetectorModel(jitter_fwhm_ps=1000.0)),
        replace(base, dli=DliModel(visibility=0.5)),
        replace(base, protocol="2,4"),
        replace(base, protocol="2,4", detector=DetectorModel(jitter_fwhm_ps=0.0)),
        base,
    ]
    cold_tables = [cold(cfg) for cfg in variants]
    for cfg in variants:
        _trial_distribution(cfg)
    for cfg, expected in zip(variants, cold_tables):
        for warm, built in zip(_trial_distribution(cfg), expected):
            assert np.array_equal(warm, built)
    distinct = {cold_tables[i][0].tobytes() for i in range(len(variants) - 1)}
    assert len(distinct) == len(variants) - 1
