"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte Carlo criteria run at fixed seeds; their tolerance margins are
far wider than the sampling error at the mandated round counts.
"""

import io
import math
import time

import numpy as np
import pytest

from qracsim import (
    ChannelModel,
    DetectorModel,
    MeasurementPair,
    Povm,
    SimulationConfig,
    advantage,
    allocation_figure,
    average_success_probability,
    classical_bound,
    empirical_advantage,
    encoding_table,
    fourier_mub_pair,
    max_success_probability,
    measurement_pair_from_mub,
    one_bit_success_probabilities,
    pauli_mub_pair,
    prbs_align,
    prbs_generate,
    product_mub_pair,
    pvm_pair_compatible,
    quantum_bound,
    reduce_pair,
    simulate_trial,
)
from qracsim.cli import main as cli_main
from conftest import random_measurement_pair

SQRT2 = math.sqrt(2.0)


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def best_runtime(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_exact_bounds():
    runtime = best_runtime(lambda: (quantum_bound(2), classical_bound(2), quantum_bound(4), classical_bound(4)))
    assert abs(quantum_bound(2) - 0.5 * (1 + 1 / SQRT2)) < 1e-9
    assert abs(quantum_bound(2) - 0.8535534) < 5e-8
    assert abs(classical_bound(2) - 0.75) < 1e-9
    assert abs(quantum_bound(4) - 0.75) < 1e-9
    assert abs(classical_bound(4) - 0.625) < 1e-9
    assert runtime < 1e-3
    report(1, f"bounds exact to 1e-9, runtime {runtime * 1e6:.0f} us")


def test_criterion_2_encoding_reproduction():
    a1, b1 = 0.923880, 0.382683
    a2, b2 = 0.866025, 0.288675
    qubit_pair = measurement_pair_from_mub(pauli_mub_pair())
    ququart_pair = measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2))
    encoding_table(qubit_pair)  # warm caches before timing
    runtime = best_runtime(lambda: (encoding_table(qubit_pair), encoding_table(ququart_pair)))

    table = encoding_table(qubit_pair)
    expected_qubit = {
        (0, 0): (a1, b1),
        (0, 1): (a1, -b1),
        (1, 0): (b1, a1),
        (1, 1): (b1, -a1),
    }
    for digits, amplitudes in expected_qubit.items():
        assert np.allclose(table[digits].real, amplitudes, atol=1e-6)

    table4 = encoding_table(ququart_pair)
    for q in range(4):
        expected = np.full(4, b2)
        expected[q] = a2
        assert np.allclose(table4[(q, 0)].real, expected, atol=1e-6)

    assert runtime < 10e-3
    report(2, f"both encoding tables match to 1e-6, runtime {runtime * 1e3:.2f} ms")


def test_criterion_3_advantage_saturation():
    pairs = {
        2: [measurement_pair_from_mub(pauli_mub_pair())],
        3: [measurement_pair_from_mub(fourier_mub_pair(3))],
        4: [
            measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2)),
            measurement_pair_from_mub(fourier_mub_pair(4)),
        ],
        8: [measurement_pair_from_mub(fourier_mub_pair(8))],
    }
    for d, candidates in pairs.items():
        for pair in candidates:
            assert abs(advantage(pair).value - (math.sqrt(d) - 1) / d) < 1e-9
    ideal = one_bit_success_probabilities(pairs[4][0])
    assert abs(empirical_advantage(ideal["two_bit"], classical_bound(4)).value - 0.125) < 1e-9
    assert abs(empirical_advantage(ideal["first_half"], 0.75).value - 1.0 / 12.0) < 1e-9
    assert abs(empirical_advantage(ideal["second_half"], 0.75).value - 1.0 / 12.0) < 1e-9
    report(3, "advantage saturates (sqrt(d)-1)/d for d in {2,3,4,8}; ideal one- and two-bit excesses 1/12 and 0.125")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(200):
        d = (2, 3, 4)[trial % 3]
        pair = random_measurement_pair(rng, d, trial % 3)
        direct = max_success_probability(pair)
        explicit = average_success_probability(encoding_table(pair), pair)
        worst = max(worst, abs(direct - explicit))
    runtime = time.perf_counter() - start
    assert worst < 1e-9
    assert runtime < 30.0
    report(4, f"operator-norm vs explicit-encoding agreement on 200 pairs, worst gap {worst:.2e}, {runtime:.1f} s")


def test_criterion_5_allocation_figure():
    measured = allocation_figure(0.126, 0.041, 0.079)
    assert measured.phi == pytest.approx(-7.80, abs=0.01)
    assert allocation_figure(0.126, 0.0, 0.079).phi is None
    assert allocation_figure(0.0, 0.041, 0.079).phi is None
    report(5, f"log-sum of measured advantages {measured.phi:.4f} within -7.80 +/- 0.01; zero advantage undefined")


def test_criterion_6_measurement_reduction():
    ququart_pair = measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2))
    qubit_pair = measurement_pair_from_mub(pauli_mub_pair())
    for keep in (1, 2):
        reduced = reduce_pair(ququart_pair, (2, 2), keep)
        for k in (1, 2):
            for outcome in range(2):
                gap = np.max(
                    np.abs(
                        reduced.measurement(k)[outcome]
                        - qubit_pair.measurement(k)[outcome]
                    )
                )
                assert gap < 1e-10

    bell = np.array(
        [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
    ) / SQRT2
    twisted = bell.copy()
    twisted[:, 2:] *= 1j
    entangled = MeasurementPair(
        Povm(tuple(np.outer(r, r.conj()) for r in bell)),
        Povm(tuple(np.outer(r, r.conj()) for r in twisted)),
    )
    for keep in (1, 2):
        reduced = reduce_pair(entangled, (2, 2), keep)
        for k in (1, 2):
            for outcome in range(2):
                effect = reduced.measurement(k)[outcome]
                assert np.max(np.abs(effect - np.eye(2) / 2)) < 1e-10
        for e1 in reduced.m1.matrices:
            for e2 in reduced.m2.matrices:
                comm = e1 @ e2 - e2 @ e1
                assert np.linalg.norm(comm) < 1e-9

    assert pvm_pair_compatible(ququart_pair) is False
    z = pauli_mub_pair().first.to_povm()
    assert pvm_pair_compatible(MeasurementPair(z, z)) is True
    report(6, "product pair reduces to the qubit pair (1e-10); entangled pair reduces to commuting trivial effects")


def test_criterion_7_noiseless_simulator_fidelity():
    start = time.perf_counter()
    result = simulate_trial(SimulationConfig(rounds=1_000_000, seed=20240607))
    runtime = time.perf_counter() - start
    assert abs(result.p_z - 0.8536) <= 0.005
    assert 0.79 <= result.p_x <= 0.86
    assert runtime < 60.0
    report(
        7,
        f"defaults at 1e6 rounds: p_z={result.p_z:.4f} (|dev|={abs(result.p_z - 0.8536):.4f} <= 0.005), "
        f"p_x={result.p_x:.4f} in [0.79, 0.86], {runtime:.1f} s",
    )


def _crossing(powers, means):
    for (p1, m1), (p2, m2) in zip(zip(powers, means), zip(powers[1:], means[1:])):
        if m1 >= 0.75 >= m2:
            return p1 + (m1 - 0.75) / (m1 - m2) * (p2 - p1)
    return None


def test_criterion_8_noise_threshold_and_monotonicity():
    powers = list(range(-40, -14))
    results = [
        simulate_trial(
            SimulationConfig(
                rounds=150_000,
                seed=777,
                channel=ChannelModel(classical_power_dbm=float(p)),
            )
        )
        for p in powers
    ]
    p_z = [r.p_z for r in results]
    p_x = [r.p_x for r in results]
    crossing = _crossing(powers, p_z)
    assert crossing is not None
    assert abs(crossing - (-25.0)) <= 1.0

    for series, errs in ((p_z, [r.p_z_err for r in results]), (p_x, [r.p_x_err for r in results])):
        for i in range(len(series) - 1):
            slack = 3.0 * math.hypot(errs[i], errs[i + 1])
            assert series[i + 1] <= series[i] + slack
    report(8, f"classical-bound crossing at {crossing:.2f} dBm (target -25 +/- 1); p_z and p_x monotone within 3 sigma")


def test_criterion_9_ququart_ideal_simulation():
    config = SimulationConfig(
        protocol="2,4",
        detector=DetectorModel(dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        rounds=1_000_000,
        seed=4242,
    )
    result = simulate_trial(config)
    assert abs(result.p_m12 - 0.75) <= 0.005
    assert abs(result.p_m1 - 5.0 / 6.0) <= 0.005
    assert abs(result.p_m2 - 5.0 / 6.0) <= 0.005
    report(
        9,
        f"ideal four-level run: p(M12)={result.p_m12:.4f}, p(M1)={result.p_m1:.4f}, "
        f"p(M2)={result.p_m2:.4f} within 0.005 of 0.75 / 0.8333",
    )


def test_criterion_10_prbs_alignment():
    start = time.perf_counter()
    reference = prbs_generate(7)
    period = reference.period
    positions = np.arange(period)
    successes = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        offset = int(rng.integers(0, period))
        observed = np.array(reference.bits[(positions + offset) % period])
        flips = (rng.random(period) < 0.05).astype(np.uint8)
        observed ^= flips
        if prbs_align(observed, reference) == offset:
            successes += 1
    runtime = time.perf_counter() - start
    assert successes / 1000 > 0.999
    assert runtime < 5.0
    report(10, f"planted offset recovered in {successes}/1000 trials at 5% flips, {runtime:.1f} s")


def test_criterion_11_determinism(tmp_path):
    config = SimulationConfig(rounds=50_000, seed=31337, workers=4)
    assert simulate_trial(config) == simulate_trial(config)

    argv = ["sweep", "--power", "-30", "--power", "-24", "--rounds", "30000", "--seed", "5"]
    first_csv = tmp_path / "one.csv"
    second_csv = tmp_path / "two.csv"
    for path in (first_csv, second_csv):
        code = cli_main(argv + ["--out", str(path)], stdout=io.StringIO(), stderr=io.StringIO())
        assert code == 0
    assert first_csv.read_bytes() == second_csv.read_bytes()
    assert first_csv.with_suffix(".json").read_text() != ""
    assert (
        first_csv.with_suffix(".json").read_bytes()
        == second_csv.with_suffix(".json").read_bytes()
    )
    report(11, "identical seeds give bit-identical trial results and byte-identical CLI artifacts")
