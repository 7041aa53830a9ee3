"""The four benchmark workloads, each a fixed list of steps built from a seed.

A workload is run as a closed loop by one client: the same pass of steps is
repeated, each step starting when the previous one returns.  Every input is
derived from the workload seed before timing starts.  A step's ``run`` is
the timed call into qracsim; its ``check`` runs after the pass, untimed,
returns why the step's output is wrong (or None) and adds the step's
counters to ``counts``.
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from qracsim import cli, linalg, mub, photonics, prbs, qrac

ORACLE_TOLERANCE = 1e-9
SIGMAS = 5.0


@dataclass
class Step:
    label: str
    run: Callable[[], object]
    check: Callable[[object, Counter], str | None]
    is_op: bool = True           # counted in throughput and latency
    size: int | None = None      # dimension d (exact) or register order k (prbs)


@dataclass
class Workload:
    steps: list[Step]
    # In-process replay for the traced run, when the timed steps run in child
    # processes that spans cannot follow.
    traced_steps: list[Step] | None = None

    @property
    def in_children(self) -> bool:
        return self.traced_steps is not None


def _derived_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# --- sweep: photonics sampling, exact engine idle ---------------------------

SWEEP_POWERS_DBM = tuple(float(p) for p in range(-40, -14))
CROSSING_DBM = -25.0
CROSSING_TOLERANCE_DBM = 1.0


def _sweep_row(config):
    trial = photonics.simulate_trial(config)
    if config.protocol == "2,2":
        bound = qrac.classical_bound(2)
        row = (
            qrac.empirical_advantage(trial.p_z, bound),
            qrac.empirical_advantage(trial.p_x, bound),
        )
    else:
        row = qrac.allocation_figure(
            qrac.empirical_advantage(trial.p_m12, qrac.classical_bound(4)),
            qrac.empirical_advantage(trial.p_m1, 0.75),
            qrac.empirical_advantage(trial.p_m2, 0.75),
        )
    return trial, row


def _crossing(powers, p_z, threshold):
    # Linear interpolation at the first downward crossing, written here rather
    # than taken from the CLI so that the check does not share its code.
    for i in range(len(powers) - 1):
        if p_z[i] >= threshold >= p_z[i + 1]:
            if p_z[i] == p_z[i + 1]:
                return powers[i]
            t = (p_z[i] - threshold) / (p_z[i] - p_z[i + 1])
            return powers[i] + t * (powers[i + 1] - powers[i])
    return None


def _check_sweep_row(expected_z, expected_x, curve, index, result, counts):
    trial, _ = result
    if abs(trial.p_z - expected_z) > SIGMAS * trial.p_z_err:
        return f"p_z {trial.p_z:.6f} is more than {SIGMAS:g} sigma from {expected_z:.6f}"
    if expected_x is not None and abs(trial.p_x - expected_x) > SIGMAS * trial.p_x_err:
        return f"p_x {trial.p_x:.6f} is more than {SIGMAS:g} sigma from {expected_x:.6f}"
    if curve is None:
        return None
    curve[index] = trial.p_z
    if index < len(SWEEP_POWERS_DBM) - 1:
        return None
    crossing = _crossing(SWEEP_POWERS_DBM, curve, qrac.classical_bound(2))
    if crossing is None or abs(crossing - CROSSING_DBM) > CROSSING_TOLERANCE_DBM:
        return f"sweep crosses 0.75 at {crossing} dBm, not {CROSSING_DBM:g} +/- {CROSSING_TOLERANCE_DBM:g}"
    return None


def sweep(seed: int, tiny: bool, tracer, scratch: Path, env) -> Workload:
    """Both protocols over 26 classical powers, for two trial seeds (one split
    into four worker streams); each op is one trial and its sweep row."""
    rounds = 20_000 if tiny else 500_000
    steps = []
    for trial_seed, workers in zip(_derived_seeds(seed, 2), (1, 4)):
        for protocol in photonics.PROTOCOLS:
            curve = [None] * len(SWEEP_POWERS_DBM) if protocol == "2,2" else None
            for index, power in enumerate(SWEEP_POWERS_DBM):
                channel = photonics.ChannelModel(classical_power_dbm=power)
                config = photonics.SimulationConfig(
                    protocol=protocol, channel=channel, rounds=rounds,
                    seed=trial_seed, workers=workers,
                )
                expected_z = photonics.expected_p_z(protocol, config.source, channel, config.detector)
                expected_x = (
                    photonics.expected_p_x(config.source, channel, config.detector, config.dli)
                    if protocol == "2,2" else None
                )
                steps.append(Step(
                    f"{protocol} at {power:g} dBm, seed {trial_seed}, {workers} workers",
                    partial(_sweep_row, config),
                    partial(_check_sweep_row, expected_z, expected_x, curve, index),
                ))
    return Workload(steps)


# --- exact: pure-Python eigensolver and state wrapping, photonics idle ------

def _haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _projective(rng, d):
    u = _haar_unitary(rng, d)
    return "basis", [u[:, k] for k in range(d)]


def _smeared(rng, d):
    mix = rng.uniform(0.2, 0.95)
    u = _haar_unitary(rng, d)
    return "povm", [mix * np.outer(u[:, k], u[:, k].conj()) + (1 - mix) * np.eye(d) / d for k in range(d)]


def _random_povm(rng, d):
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(d)]
    raw = [b @ b.conj().T for b in blocks]
    w, v = np.linalg.eigh(sum(raw))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return "povm", [inv_sqrt @ e @ inv_sqrt for e in raw]


# The three pair kinds of the oracle-equivalence acceptance criterion.
PAIR_KINDS = (
    ("projective", _projective, _projective),
    ("projective/smeared", _projective, _smeared),
    ("povm", _random_povm, _random_povm),
)


def _evaluate(pair):
    explicit = qrac.average_success_probability(qrac.encoding_table(pair), pair)
    direct = qrac.max_success_probability(pair)
    return explicit, direct, qrac.advantage(pair).value


def _random_pair_op(tracer, measurements):
    with tracer.span("linalg.construct"):
        povms = [
            linalg.Basis(tuple(arrays)).to_povm() if kind == "basis" else linalg.Povm(tuple(arrays))
            for kind, arrays in measurements
        ]
    return _evaluate(qrac.MeasurementPair(*povms))


def _fourier_op(d):
    return _evaluate(qrac.measurement_pair_from_mub(mub.fourier_mub_pair(d)))


def _product_op(n):
    pair = qrac.measurement_pair_from_mub(mub.product_mub_pair(mub.pauli_mub_pair(), n))
    half = 2 ** (n // 2)
    reduced = [qrac.advantage(qrac.reduce_pair(pair, (half, half), keep)).value for keep in (1, 2)]
    evaluated = _evaluate(pair)
    figure = qrac.allocation_figure(evaluated[2], *reduced)
    return evaluated, reduced, figure, qrac.pvm_pair_compatible(pair)


def _mub_advantage(d):
    return (math.sqrt(d) - 1.0) / d


def _check_oracle(result, counts):
    explicit, direct, _ = result
    gap = abs(explicit - direct)
    counts["qrac.oracle_gap_max"] = max(counts["qrac.oracle_gap_max"], gap)
    if gap >= ORACLE_TOLERANCE:
        return f"explicit {explicit!r} and operator-norm {direct!r} differ by {gap:.3e}"
    return None


def _check_mub(d, result, counts):
    error = _check_oracle(result, counts)
    if error is None and abs(result[2] - _mub_advantage(d)) >= ORACLE_TOLERANCE:
        error = f"advantage {result[2]!r} is not (sqrt(d)-1)/d = {_mub_advantage(d)!r}"
    return error


def _check_product(n, result, counts):
    evaluated, reduced, figure, compatible = result
    error = _check_mub(2**n, evaluated, counts)
    half = 2 ** (n // 2)
    if error is None and any(abs(a - _mub_advantage(half)) >= ORACLE_TOLERANCE for a in reduced):
        error = f"reduced advantages {reduced} are not {_mub_advantage(half)!r}"
    if error is None and figure.phi is None:
        error = "allocation figure undefined for an unbiased product pair"
    if error is None and compatible:
        error = "unbiased pair reported compatible"
    return error


def exact(seed: int, tiny: bool, tracer, scratch: Path, env) -> Workload:
    """Random pairs at d = 2..4 (the oracle-equivalence traffic), Fourier
    pairs at d = 5, 8 and 16, and the Pauli product pair at d = 16."""
    rng = np.random.default_rng(seed)
    steps = []
    for i in range(12 if tiny else 96):
        d = (2, 3, 4)[i % 3]
        name, first, second = PAIR_KINDS[(i // 3) % 3]
        measurements = (first(rng, d), second(rng, d))
        steps.append(Step(f"random {name} pair, d={d}", partial(_random_pair_op, tracer, measurements),
                          _check_oracle, size=d))
    for d in (5,) if tiny else (5, 5, 8, 8, 16):
        steps.append(Step(f"Fourier pair, d={d}", partial(_fourier_op, d), partial(_check_mub, d), size=d))
    n = 2 if tiny else 4
    steps.append(Step(f"Pauli product pair, d={2**n}", partial(_product_op, n),
                      partial(_check_product, n), size=2**n))
    return Workload(steps)


# --- prbs: the O(period x length) aligner ------------------------------------

FLIP_PROBABILITY = 0.05
MAX_ERASURE = 0.5
GENERATED_ORDERS = (7, 10, 12, 20)
# order -> (aligns per pass, stream lengths in periods, cycled).  Sorted by
# cost, the 126 ops fall into groups of equal work; the median lands mid-way
# through the 3-period k=7 group and the 90th percentile mid-way through the
# k=10 group, so neither flips between groups from run to run.
ALIGN_MIX = {7: (100, (1, 2, 3, 4)), 10: (22, (2,)), 12: (4, (1, 2))}
ALIGN_MIX_TINY = {7: (8, (1, 2, 3, 4)), 10: (2, (1, 2)), 12: (1, (1,))}


def _generate(references, order):
    references[order] = prbs.prbs_generate(order)
    return references[order]


def _check_generate(expected, sequence, counts):
    if not np.array_equal(sequence.bits, expected.bits):
        return f"order {expected.order} sequence differs from the one generated before timing"
    return None


def _align(references, order, stream):
    return prbs.prbs_align(stream, references[order])


def _check_align(offset, result, counts):
    counts["prbs.recovered"] += result == offset
    if result != offset:
        return f"recovered offset {result}, planted {offset}"
    return None


def _planted_stream(rng, reference, periods):
    period = reference.period
    offset = int(rng.integers(period))
    stream = reference.bits[(np.arange(periods * period) + offset) % period].astype(np.int8)
    stream ^= (rng.random(stream.size) < FLIP_PROBABILITY).astype(np.int8)
    stream[rng.random(stream.size) < rng.uniform(0.0, MAX_ERASURE)] = -1
    return offset, stream


def prbs_workload(seed: int, tiny: bool, tracer, scratch: Path, env) -> Workload:
    """Each pass regenerates the references (orders 7, 10, 12, and 20 without
    aligning it), then aligns noisy streams with planted offsets."""
    rng = np.random.default_rng(seed)
    expected = {k: prbs.prbs_generate(k) for k in GENERATED_ORDERS}
    references: dict = {}
    steps = [
        Step(f"generate order {k}", partial(_generate, references, k),
             partial(_check_generate, expected[k]), is_op=False, size=k)
        for k in GENERATED_ORDERS
    ]
    for order, (count, lengths) in (ALIGN_MIX_TINY if tiny else ALIGN_MIX).items():
        for i in range(count):
            periods = lengths[i % len(lengths)]
            offset, stream = _planted_stream(rng, expected[order], periods)
            steps.append(Step(f"align order {order}, {periods} periods",
                              partial(_align, references, order, stream),
                              partial(_check_align, offset), size=order))
    return Workload(steps)


# --- reproduce: cold CLI invocations -----------------------------------------

TARGETS = ("table1", "table2", "table3", "table4", "fig4", "fig5")
# table2/table4 check the simulator against fixed bands; at the CLI's default
# 2e5 rounds table4's band (0.005 around an ideal the model misses by about
# 0.002) is missed by a few seeds in a thousand, at 1e6 rounds by none.
BAND_ROUNDS = {"table2": 1_000_000, "table4": 1_000_000}
TINY_POWERS_DBM = (-27.0, -26.0, -25.0, -24.0, -23.0)


def _cli_child(argv, env, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "qracsim.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _cli_in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def _written(out: Path) -> list[Path]:
    return [p for p in (out, out.with_suffix(".json")) if p.exists()]


def _check_cli(out: Path, same_as: Path | None, result, counts):
    code, stdout, stderr = result
    counts["cli.bytes_written"] += len(stdout.encode()) + sum(p.stat().st_size for p in _written(out))
    if code != 0:
        return f"exit {code}: {' '.join(stderr.strip().splitlines()[-1:])}"
    if same_as is not None:
        for suffix in (".csv", ".json"):
            mine, theirs = out.with_suffix(suffix), same_as.with_suffix(suffix)
            if mine.read_bytes() != theirs.read_bytes():
                return f"{mine.name} differs from {theirs.name}"
    return None


def reproduce(seed: int, tiny: bool, tracer, scratch: Path, env) -> Workload:
    """Every `reproduce` target, then a `sweep --config` re-ingest of fig4's
    JSON mirror, each as one cold `python -m qracsim.cli` process."""
    commands = []
    for target, target_seed in zip(TARGETS, _derived_seeds(seed, len(TARGETS))):
        out = scratch / f"{target}.csv"
        argv = ["reproduce", target, "--seed", str(target_seed), "--out", str(out)]
        if target in BAND_ROUNDS:
            argv += ["--rounds", str(BAND_ROUNDS[target])]
        if tiny and target.startswith("fig"):
            argv += [arg for p in TINY_POWERS_DBM for arg in ("--power", str(p))]
        commands.append((target, argv, out, None))
    rerun = scratch / "fig4_rerun.csv"
    commands.append(("sweep --config fig4.json",
                     ["sweep", "--config", str(scratch / "fig4.json"), "--out", str(rerun)],
                     rerun, scratch / "fig4.csv"))

    def steps(runner):
        return [Step(label, partial(runner, argv), partial(_check_cli, out, same_as))
                for label, argv, out, same_as in commands]

    return Workload(steps(partial(_cli_child, env=env, cwd=scratch)), traced_steps=steps(_cli_in_process))


WORKLOADS = {
    "sweep": sweep,
    "exact": exact,
    "prbs": prbs_workload,
    "reproduce": reproduce,
}
