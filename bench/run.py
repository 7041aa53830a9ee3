"""Benchmark of the qracsim checkout this file sits in.

    python3 bench/run.py --workload {sweep,exact,prbs,reproduce} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Imports qracsim from the checkout's ``src/`` and runs the CLI as
``python -m qracsim.cli``; nothing needs installing.  One client runs the
workload's pass of steps in a closed loop: an untimed warm-up pass, then
whole passes until ``--seconds`` of pass time has been measured.  Each step's
output is checked after its pass, untimed.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced passes with passes that record spans around calls into
each module, for half the time each, and reports per-module metrics per
traced pass.  It prints context, check results and every metric with its
unit; the last line is one JSON object with keys correct, attempted, failed
and metrics.
Artifacts and spans go under ``.bench_tmp/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
IMPORT = [sys.executable, "-c", "import qracsim"]
SETUP_REPEATS = 8


@dataclass
class Stats:
    """Outcome of consecutive passes of one workload."""

    pass_walls: list = field(default_factory=list)  # seconds per pass, checks excluded
    latencies: list = field(default_factory=list)   # seconds, one per op
    attempted: int = 0
    failures: list = field(default_factory=list)    # (step label, reason)

    @property
    def passes(self) -> int:
        return len(self.pass_walls)

    @property
    def wall(self) -> float:
        return sum(self.pass_walls)


def one_pass(steps, tracer, stats: Stats, counts: Counter, traced: bool = False) -> None:
    """Run every step once, timing each, then check the outputs untimed.

    A step that raises or fails its check is recorded and the loop goes on.
    """
    results = []
    with tracer.patched() if traced else contextlib.nullcontext():
        start = time.perf_counter()
        for index, step in enumerate(steps):
            tracer.op = stats.passes * len(steps) + index
            begun = time.perf_counter()
            try:
                with tracer.span("op" if step.is_op else "step"):
                    result, error = step.run(), None
            except Exception as exc:  # a raising op counts as failed
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            results.append((step, time.perf_counter() - begun, result, error))
        stats.pass_walls.append(time.perf_counter() - start)
    tracer.op = None
    for step, latency, result, error in results:
        if error is None:
            try:
                error = step.check(result, counts)
            except Exception as exc:  # an output the check cannot read fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        stats.attempted += 1
        if error is not None:
            stats.failures.append((step.label, error))
        if step.is_op:
            stats.latencies.append(latency)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds(env, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing qracsim."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(IMPORT, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def measure_imports(env, repeats: int) -> dict:
    """Medians of `python -X importtime` figures, in seconds."""
    wanted = {
        "import.qracsim_s": ("qracsim", 1),
        "import.numpy_s": ("numpy", 1),
        "import.photonics_self_s": ("qracsim.photonics", 0),
        "import.linalg_self_s": ("qracsim.linalg", 0),
    }
    samples = {name: [] for name in wanted}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", *IMPORT[1:]],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        rows = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                rows[parts[2].strip()] = (int(parts[0]) * 1e-6, int(parts[1]) * 1e-6)
        for name, (module, column) in wanted.items():
            samples[name].append(rows[module][column])
    return {name: statistics.median(values) for name, values in samples.items()}


def percentile_ms(latencies, q: float) -> float:
    ordered = sorted(latencies)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return 1e3 * (ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


def context(qracsim) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "qracsim").glob("*.py")))
    return {
        "qracsim_file": qracsim.__file__,
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
        "src_lines": src_lines,
    }


def end_to_end(workload, tracer, args, env) -> tuple[dict, list[Stats]]:
    # Set-up is sampled before and after the passes, so that its median
    # spans the machine's state over the whole run.
    subprocess.run(IMPORT, env=env, cwd=ROOT, check=True)                # compile bytecode
    setups = import_seconds(env, SETUP_REPEATS // 2)
    warm_up, timed = Stats(), Stats()
    one_pass(workload.steps, tracer, warm_up, Counter())
    while timed.wall < args.seconds:
        one_pass(workload.steps, tracer, timed, Counter())
    setups += import_seconds(env, SETUP_REPEATS - len(setups))
    print(f"# timed: {len(timed.latencies)} ops in {timed.passes} passes, {timed.wall:.3f} s; "
          f"set-up sampled {len(setups)} times")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(timed.latencies) / timed.wall, "ops/s"),
        "op_p50_ms": (percentile_ms(timed.latencies, 0.5), "ms"),
        "op_p90_ms": (percentile_ms(timed.latencies, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(workload.in_children), "MB"),
    }
    return metrics, [warm_up, timed]


def per_module(workload, tracer, args, env, spans_path) -> tuple[dict, list[Stats]]:
    from qracsim import photonics

    imports = measure_imports(env, 3)
    calibrations = []
    for _ in range(3):
        start = time.perf_counter()
        photonics.calibrate_raman_coefficient()
        calibrations.append(time.perf_counter() - start)

    steps = workload.traced_steps or workload.steps
    warm_up, untraced, traced = Stats(), Stats(), Stats()
    one_pass(steps, tracer, warm_up, Counter())
    # Untraced and traced passes alternate, so a drift in the machine's speed
    # does not show up as tracing overhead.
    while untraced.wall < args.seconds / 2:
        one_pass(steps, tracer, untraced, Counter())
        one_pass(steps, tracer, traced, tracer.counts, traced=True)
    tracer.write(spans_path)
    print(f"# traced: {traced.passes} passes in {traced.wall:.3f} s, untraced {untraced.wall:.3f} s; "
          f"{len(tracer.spans)} spans written to {spans_path}")

    counts = tracer.counts
    passes = traced.passes
    by_name, module_self = summarize(tracer.spans)

    def total(*names):
        return sum(by_name[n].total for n in names if n in by_name) / passes

    def calls(*names):
        return sum(by_name[n].calls for n in names if n in by_name) / passes

    def sized(name, size):
        return sum(s.end - s.start for s in tracer.spans
                   if s.name == name and steps[s.op % len(steps)].size == size) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    sampling = by_name["photonics.simulate_trial"].self_time / passes
    click_dist = ("photonics.z_click_distribution", "photonics.x_click_distribution")
    ops = by_name["op"]
    metrics = {
        "photonics.simulate_trial.calls": (calls("photonics.simulate_trial"), "count"),
        "photonics.simulate_trial.self_s": (sampling, "s"),
        "photonics.rounds_per_s": (ratio(counts["photonics.rounds"] / passes, sampling), "1/s"),
        "photonics.click_dist.calls": (calls(*click_dist), "count"),
        "photonics.click_dist.s": (total(*click_dist), "s"),
        "photonics.conclusive_frac": (ratio(counts["photonics.conclusive"], counts["photonics.rounds"]), "fraction"),
        "photonics.no_click_prob_z": (ratio(counts["photonics.no_click_z"], counts["photonics.trials"]), "probability"),
        "photonics.calibrate_raman.s": (statistics.median(calibrations), "s"),
        "qrac.encoding_table.calls": (calls("qrac.encoding_table"), "count"),
        "qrac.encoding_table.s": (total("qrac.encoding_table"), "s"),
        "qrac.encoding_table.d16_s": (sized("qrac.encoding_table", 16), "s"),
        "qrac.max_success_probability.s": (total("qrac.max_success_probability"), "s"),
        "qrac.advantage.s": (total("qrac.advantage"), "s"),
        "qrac.average_success_probability.s": (total("qrac.average_success_probability"), "s"),
        "qrac.reduce_pair.s": (total("qrac.reduce_pair"), "s"),
        "qrac.oracle_gap_max": (counts["qrac.oracle_gap_max"], "probability"),
        "linalg.hermitian_eig.calls": (calls("linalg.hermitian_eig"), "count"),
        "linalg.hermitian_eig.s": (total("linalg.hermitian_eig"), "s"),
        "linalg.construct.s": (total("linalg.construct"), "s"),
        "mub.pair.s": (total("mub.fourier_mub_pair", "mub.product_mub_pair", "mub.pauli_mub_pair",
                             "qrac.measurement_pair_from_mub"), "s"),
        **{f"prbs.generate.k{k}_s": (sized("prbs.prbs_generate", k), "s") for k in (7, 10, 12, 20)},
        "prbs.align.calls": (calls("prbs.prbs_align"), "count"),
        "prbs.align.s": (total("prbs.prbs_align"), "s"),
        "prbs.align.bits": (counts["prbs.bits"] / passes, "count"),
        "prbs.align.valid_frac": (ratio(counts["prbs.valid_bits"], counts["prbs.bits"]), "fraction"),
        "prbs.align.recovered_frac": (ratio(counts["prbs.recovered"], passes * calls("prbs.prbs_align")), "fraction"),
        "config.load_config.calls": (calls("config.load_config"), "count"),
        "config.load_config.s": (total("config.load_config"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.bytes_written": (counts["cli.bytes_written"] / passes, "bytes"),
        **{f"{module}.self_s": (module_self[module] / passes, "s")
           for module in ("photonics", "qrac", "linalg", "mub", "prbs", "config", "cli")},
        **{name: (value, "s") for name, value in imports.items()},
        "trace.overhead_frac": ((traced.wall - untraced.wall) / untraced.wall, "fraction"),
        "trace.coverage_frac": (1.0 - ops.self_time / ops.total, "fraction"),
    }
    return metrics, [warm_up, untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the qracsim checkout.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "qracsim" / "__init__.py").is_file():
        print(f"error: no qracsim sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qracsim
    from workloads import WORKLOADS

    if not Path(qracsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qracsim from {qracsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}{', tiny' if args.tiny else ''}")
    for key, value in context(qracsim).items():
        print(f"# context {key} = {value}")

    env = child_env()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        tracer = Tracer()
        workload = WORKLOADS[args.workload](args.seed, args.tiny, tracer, scratch, env)
        if args.trace:
            spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, ledger = per_module(workload, tracer, args, env, spans_path)
        else:
            metrics, ledger = end_to_end(workload, tracer, args, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(s.attempted for s in ledger)
    failures = [f for s in ledger for f in s.failures]
    print(f"# checks: {attempted - len(failures)} of {attempted} steps passed (warm-up included)")
    for label, reason in failures[:20]:
        print(f"# FAILED {label}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {len(failures) / attempted:.6g} fraction")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
