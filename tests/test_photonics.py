import math
from dataclasses import replace

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
    cross_bin_leak_fraction,
    expected_estimates,
    expected_p_x,
    expected_p_z,
    measurement_pair_from_mub,
    one_bit_success_probabilities,
    pauli_mub_pair,
    product_mub_pair,
    quantum_bound,
    raman_rate,
    simulate_trial,
    x_click_distribution,
    z_click_distribution,
    DEFAULT_RAMAN_COEFFICIENT,
)
from qracsim.photonics import protocol_messages

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
        closed, closed_no_click = _first_click_probabilities(signal_p, np.cumsum(weights), noise)

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

    @pytest.mark.parametrize("protocol", ["2,2", "2,4"])
    def test_ideal_closed_forms_meet_exact_engine(self, protocol):
        """Without noise, jitter or fringe loss the closed forms are the exact
        engine's optimal success probabilities, not only within sampling error."""
        cfg = SimulationConfig(
            protocol=protocol, channel=QUIET, detector=IDEAL_DETECTOR, dli=DliModel(visibility=1.0)
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
        z_click_distribution(t, cfg.source, cfg.channel, cfg.detector, cfg.bin_intensity_scale).conditional()
        for t in trains
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
    protocol = draw(st.sampled_from(["2,2", "2,4"]))
    scale = None
    if protocol == "2,4":
        scale = draw(st.none() | st.tuples(*[st.floats(0.2, 5.0)] * 4))
    return SimulationConfig(
        protocol=protocol,
        source=SourceModel(mu=draw(st.floats(0.01, 5.0))),
        channel=ChannelModel(
            loss_db=draw(st.floats(0.0, 30.0)),
            classical_power_dbm=draw(st.none() | st.floats(-45.0, -10.0)),
        ),
        dli=DliModel(visibility=draw(st.floats(0.0, 1.0))),
        rounds=draw(st.integers(1, 1_000_000)),
        seed=draw(st.integers(0, 2**32 - 1)),
        workers=draw(st.integers(1, 8)),
        bin_intensity_scale=scale,
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


@pytest.mark.parametrize(
    "protocol, scale",
    [
        ("2,2", (math.nan, 1.0)),
        ("2,2", (math.inf, 1.0)),
        ("2,2", (1.0, -math.inf)),
        ("2,2", (0.0, 1.0)),
        ("2,2", (1.0,)),
        ("2,2", (1.0, 1.0, 1.0, 1.0)),
        ("2,4", (1.0, 1.0)),
        ("2,4", (1.0, 1.0, 1.0, math.nan)),
    ],
)
def test_bin_intensity_scale_checked_up_front(protocol, scale):
    n_bins = 2 if protocol == "2,2" else 4
    with pytest.raises(ValueError, match=rf"bin_intensity_scale must be {n_bins} finite positive entries, got \("):
        SimulationConfig(protocol=protocol, bin_intensity_scale=scale)


# The per-message loop that built the trial table before it was batched,
# kept as an oracle: one train per message, its jitter weights, then the
# scalar first-click loop of each arm.
def _looped_first_click(signal_prob, weights, noise):
    cumulative = np.concatenate(([0.0], np.cumsum(weights)))
    probs = np.empty(weights.size)
    prefix = 1.0
    for k in range(weights.size):
        before = 1.0 - signal_prob * cumulative[k]
        through = 1.0 - signal_prob * cumulative[k + 1]
        probs[k] = prefix * (before - (1.0 - noise) * through)
        prefix *= 1.0 - noise
    return probs, prefix * (1.0 - signal_prob * cumulative[-1])


def _looped_arm(weights, noise_share, cfg):
    mean_detected = cfg.source.mu * cfg.channel.transmission * cfg.detector.efficiency * 0.5
    rate_hz = cfg.detector.dark_rate_hz + noise_share * raman_rate(
        cfg.channel.classical_power_dbm, cfg.channel.raman_coefficient
    )
    noise = 1.0 - math.exp(-rate_hz * cfg.detector.gate_width_ps * 1e-12)
    probs, no_click = _looped_first_click(1.0 - math.exp(-mean_detected), weights, noise)
    return probs / probs.sum(), no_click


def looped_trial_distribution(cfg):
    messages = protocol_messages(cfg.protocol)
    two_basis = cfg.protocol == "2,2"
    arm = 0.5 if two_basis else 1.0
    rows, no_click_z, no_click_x = [], [], []
    for message in messages:
        train = build_pulse_train(message, cfg.protocol)
        intensities = train.amplitudes**2
        if cfg.bin_intensity_scale is not None:
            intensities = intensities * np.asarray(cfg.bin_intensity_scale)
            intensities /= intensities.sum()
        leak = cross_bin_leak_fraction(cfg.detector.jitter_sigma_ps, train.bin_spacing_ps)
        weights = intensities.copy()
        if leak != 0.0:
            weights = intensities * (1.0 - 2.0 * leak)
            weights[1:] += intensities[:-1] * leak
            weights[:-1] += intensities[1:] * leak
        z, no_click = _looped_arm(weights, 0.5, cfg)
        rows.append(arm * z)
        no_click_z.append(no_click)
        if two_basis:
            (a, phase_a), (b, phase_b) = train.bins
            fringe = 2.0 * a * b * cfg.dli.visibility * math.cos(phase_b - phase_a)
            weights = np.array(
                [a * a / 4.0, a * a / 4.0, (1.0 + fringe) / 4.0, (1.0 - fringe) / 4.0, b * b / 4.0, b * b / 4.0]
            )
            x, no_click = _looped_arm(weights, 0.25, cfg)
            rows[-1] = np.concatenate((rows[-1], arm * x))
            no_click_x.append(no_click)
    return np.array(rows) / len(messages), no_click_z, no_click_x


@st.composite
def table_configs(draw):
    protocol = draw(st.sampled_from(["2,2", "2,4"]))
    n_bins = 2 if protocol == "2,2" else 4
    return SimulationConfig(
        protocol=protocol,
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
        bin_intensity_scale=draw(st.none() | st.tuples(*[st.floats(0.05, 20.0)] * n_bins)),
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
        z = z_click_distribution(train, cfg.source, cfg.channel, cfg.detector, cfg.bin_intensity_scale)
        assert np.array_equal(row[:n_bins], arm * z.conditional() / n_msg)
        if two_basis:
            x = x_click_distribution(train, cfg.dli, cfg.source, cfg.channel, cfg.detector)
            assert np.array_equal(row[n_bins:], arm * x.conditional() / n_msg)


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


def test_cached_weights_follow_every_weight_field():
    """A trial's table after other configs have filled the weight caches is
    bit for bit the table built cold, for configs one weight field apart."""
    from qracsim.photonics import _trial_distribution, _trial_x_cumulative, _trial_z_cumulative

    def cold(cfg):
        _trial_z_cumulative.cache_clear()
        _trial_x_cumulative.cache_clear()
        return _trial_distribution(cfg)

    base = SimulationConfig(channel=ChannelModel(classical_power_dbm=-25.0))
    variants = [
        base,
        replace(base, detector=DetectorModel(jitter_fwhm_ps=1000.0)),
        replace(base, dli=DliModel(visibility=0.5)),
        replace(base, bin_intensity_scale=(1.3, 0.7)),
        replace(base, protocol="2,4"),
        replace(base, protocol="2,4", bin_intensity_scale=(1.0, 0.4, 0.9, 1.7)),
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

    mismatched = replace(base, dli=DliModel(delay_ps=700.0))
    for _ in range(3):
        with pytest.raises(ValueError, match=r"dli\.delay_ps must equal the bin spacing"):
            simulate_trial(mismatched)
