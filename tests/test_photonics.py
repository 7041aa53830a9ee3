import math

import numpy as np
import pytest
import scipy.stats

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
    cross_bin_leak_fraction,
    expected_p_x,
    expected_p_z,
    quantum_bound,
    raman_rate,
    simulate_trial,
    x_click_distribution,
    z_click_distribution,
    DEFAULT_RAMAN_COEFFICIENT,
)

SQRT2 = math.sqrt(2.0)
A1 = math.sqrt(2 + SQRT2) / 2
B1 = math.sqrt(2 - SQRT2) / 2

QUIET = ChannelModel()  # classical laser off
IDEAL_DETECTOR = DetectorModel(dark_rate_hz=0.0, jitter_fwhm_ps=0.0)
SOURCE = SourceModel()


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

    def test_matches_engine_encoding(self):
        from qracsim import encoding_table, measurement_pair_from_mub, pauli_mub_pair

        table = encoding_table(measurement_pair_from_mub(pauli_mub_pair()))
        for digits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            train = build_pulse_train(Message(digits, 2), "2,2")
            signed = [a if p == 0.0 else -a for a, p in train.bins]
            assert np.allclose(signed, table[digits].amplitudes.real, atol=1e-9)


class TestRamanRate:
    def test_off_channel(self):
        assert raman_rate(None, 1e11) == 0.0
        assert raman_rate(-math.inf, 1e11) == 0.0

    def test_linear_in_power(self):
        assert raman_rate(-22.0, 1e11) == pytest.approx(2 * raman_rate(-25.01, 1e11), rel=1e-3)

    def test_calibrated_rate_at_threshold_power(self):
        rate = raman_rate(-25.0, DEFAULT_RAMAN_COEFFICIENT)
        assert rate == pytest.approx(1.0e6, rel=0.1)


class TestLeakFraction:
    def test_reference_point(self):
        # independent oracle: standard normal tail at two sigma
        oracle = float(scipy.stats.norm.sf(2.0))
        assert cross_bin_leak_fraction(200.0, 800.0) == pytest.approx(oracle, abs=1e-12)

    def test_zero_jitter(self):
        assert cross_bin_leak_fraction(0.0, 800.0) == 0.0

    def test_default_detector_leak_negligible(self):
        det = DetectorModel()
        assert cross_bin_leak_fraction(det.jitter_sigma_ps, 800.0) < 1e-5


class TestZClickDistribution:
    def test_noiseless_conditional_matches_encoding(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = z_click_distribution(train, SOURCE, QUIET, IDEAL_DETECTOR)
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
        dist = z_click_distribution(train, SOURCE, QUIET, det)
        assert np.allclose(dist.conditional(), expected / expected.sum(), atol=1e-12)


class TestXClickDistribution:
    def test_perfect_visibility(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = x_click_distribution(train, DliModel(visibility=1.0), SOURCE, QUIET, IDEAL_DETECTOR)
        cond = dist.conditional()
        conclusive = cond[2] + cond[3]
        assert cond[2] / conclusive == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_default_visibility(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = x_click_distribution(train, DliModel(), SOURCE, QUIET, IDEAL_DETECTOR)
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

    def test_delay_must_match_spacing(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        with pytest.raises(ValueError, match="delay"):
            x_click_distribution(train, DliModel(delay_ps=400.0), SOURCE, QUIET, IDEAL_DETECTOR)

    def test_energy_bookkeeping_exact(self):
        train = build_pulse_train(Message((1, 1), 2), "2,2")
        channel = ChannelModel(classical_power_dbm=-20.0)
        dist = x_click_distribution(train, DliModel(), SOURCE, channel, DetectorModel())
        total = float(dist.cell_probabilities.sum()) + dist.no_click_probability
        assert total == pytest.approx(1.0, abs=1e-14)


class TestFirstClickModel:
    """Independent oracle for the per-round click distributions.

    Simulates the raw event model directly (one signal photon placed by
    weight, independent noise per cell, earliest click wins) and compares
    the frequencies with the closed form used by the sampler, at noise
    levels high enough that coincidences are common.
    """

    @pytest.mark.parametrize(
        "signal_p,weights,noise",
        [
            (0.3, [0.5, 0.3, 0.15], [0.1, 0.2, 0.05]),
            (0.9, [0.2, 0.2, 0.2, 0.2], [0.3, 0.3, 0.3, 0.3]),
            (0.002, [0.8535, 0.1465], [4e-4, 4e-4]),
        ],
    )
    def test_against_event_level_simulation(self, signal_p, weights, noise):
        from qracsim.photonics import _first_click_probabilities

        weights = np.asarray(weights, dtype=float)
        noise = np.asarray(noise, dtype=float)
        cells = weights.size
        closed, closed_no_click = _first_click_probabilities(signal_p, weights, noise)

        rng = np.random.default_rng(2718)
        n = 400_000
        thresholds = signal_p * np.cumsum(weights)
        signal_cell = np.searchsorted(thresholds, rng.random(n), side="right")
        fired = rng.random((n, cells)) < noise
        has_noise = fired.any(axis=1)
        first_noise = np.where(has_noise, fired.argmax(axis=1), cells)
        earliest = np.minimum(signal_cell, first_noise)

        counts = np.bincount(earliest[earliest < cells], minlength=cells)
        observed_no_click = n - counts.sum()
        for k in range(cells):
            sigma = math.sqrt(max(closed[k] * (1 - closed[k]), 1e-12) / n)
            assert counts[k] / n == pytest.approx(closed[k], abs=5 * sigma + 1e-9)
        sigma = math.sqrt(max(closed_no_click * (1 - closed_no_click), 1e-12) / n)
        assert observed_no_click / n == pytest.approx(closed_no_click, abs=5 * sigma + 1e-9)


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

    def test_more_workers_than_rounds(self):
        res = simulate_trial(SimulationConfig(rounds=3, seed=1, workers=8))
        total = sum(t.total for t in res.z_tallies.values())
        total += sum(t.total for t in res.x_tallies.values())
        assert total == 3

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

    def test_ququart_bin_counts_recorded(self):
        res = simulate_trial(SimulationConfig(protocol="2,4", rounds=10_000, seed=3))
        assert set(res.z_bin_counts) == {"00", "10", "20", "30"}
        assert all(len(v) == 4 for v in res.z_bin_counts.values())

    def test_bin_intensity_scale_shifts_clicks(self):
        # reproduce a measured bin imbalance: target conditional weights
        target = np.array([0.75, 0.040, 0.077, 0.131])
        ideal = np.array([0.75, 1 / 12, 1 / 12, 1 / 12])
        scale = tuple(target / ideal)
        cfg = SimulationConfig(
            protocol="2,4",
            detector=IDEAL_DETECTOR,
            rounds=400_000,
            seed=17,
            bin_intensity_scale=scale,
        )
        res = simulate_trial(cfg)
        counts = np.array(res.z_bin_counts["00"], dtype=float)
        observed = counts / counts.sum()
        assert np.allclose(observed, target / target.sum(), atol=0.01)

    def test_classical_power_degrades_success(self):
        noisy = simulate_trial(
            SimulationConfig(
                channel=ChannelModel(classical_power_dbm=-20.0), rounds=200_000, seed=4
            )
        )
        assert noisy.p_z < 0.75
        assert noisy.p_x < 0.75


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

    def test_calibrator_is_reproducible(self):
        again = calibrate_raman_coefficient()
        assert again == pytest.approx(DEFAULT_RAMAN_COEFFICIENT, rel=1e-9)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("protocol", ["2,2", "2,4"])
    def test_unclickable_receiver_rejected(self, protocol):
        # no signal survives 4000 dB and nothing else fires: no estimate exists
        cfg = SimulationConfig(
            protocol=protocol,
            channel=ChannelModel(loss_db=4000),
            detector=DetectorModel(dark_rate_hz=0),
            rounds=1_000,
        )
        with pytest.raises(ValueError, match=r"channel\.loss_db.*detector\.dark_rate_hz"):
            simulate_trial(cfg)

    @pytest.mark.filterwarnings("error")
    def test_unclickable_phase_arm_rejected(self):
        train = build_pulse_train(Message((0, 0), 2), "2,2")
        dist = x_click_distribution(
            train, DliModel(), SOURCE, ChannelModel(loss_db=4000), IDEAL_DETECTOR
        )
        with pytest.raises(ValueError, match=r"phase arm.*channel\.loss_db"):
            dist.conditional()
