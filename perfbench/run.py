"""firewatch benchmark: one workload per run, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload random-dense --seed 7 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Every run checks the outputs against the
closed-form laws. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON report with each timing's median, quartiles and sample
count, the checks and the machine facts. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import firewatch
    import firewatch.cli
except ImportError as exc:  # not run from a checkout of the repository
    sys.exit(f"perfbench: cannot import firewatch from {ROOT / 'src'}: {exc}")

from tracer import REQUIRES, Tracer, layer_samples  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# The gate must almost never trip on an exact engine, whatever its random
# streams: each run makes two statistical checks, so with these levels a
# false alarm comes about once in 10^5 runs.
GATE_KS_ALPHA = 1e-6
GATE_MEAN_Z = 5.0
MIN_ROUNDS = 5
# The host's speed drifts by up to a third within minutes, as co-tenants
# load the shared cores, and it moves every timing with it. Each timed call
# of an end-to-end run is therefore bracketed by a fixed reference task that
# firewatch never runs, and the timing is scaled to a host on which that task
# takes REFERENCE_S: its median on the reference machine (README.md).
REFERENCE_S = 0.043
_REFERENCE_ARRAY = np.random.default_rng(0).random(50_000)
_REFERENCE_OUT = np.empty((2, 50_000))
LAYOUT_REPEATS = 7
# Chunk indices of the seeds that are not timed-loop chunks.
WARMUP_CHUNK = 2**32 - 1
SETUP_CHUNK = 2**31

# Metric name -> unit, in the order BENCHMARK.json declares them.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    kind: {m["name"]: m["unit"] for m in DECLARED[kind]} for kind in ("end_to_end", "per_layer")
}


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


class Run:
    """What one benchmark run measured, checked and called."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.checks: list[Check] = []
        self.attempted = 0
        self.failed = 0
        self.absent: list[str] = []

    def simulate(self, argv: list[str], main=None) -> float:
        """Call ``firewatch simulate`` in this process; return its seconds.

        ``main`` replaces ``firewatch.cli.main``, as the traced run does.
        """
        main = main or firewatch.cli.main
        out = io.StringIO()  # the summary JSON must not reach our stdout
        self.attempted += 1
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            code = main(["simulate", *argv])
            elapsed = perf_counter() - start
        if code != 0:
            self.failed += 1
        self.checks.append(Check("simulate exit code", code == 0, f"exit {code}"))
        return elapsed

    def run_trials(self, config, workers: int) -> tuple[float, object]:
        self.attempted += 1
        start = perf_counter()
        outcomes = firewatch.run_trials(config, workers=workers)
        return perf_counter() - start, outcomes


def reference_seconds() -> float:
    """Time the fixed reference task: a pure-Python loop that allocates
    tuples, then numpy sorts and ufuncs, like the two kinds of work in a
    trial. The numpy half writes into a preallocated buffer, so that its time
    does not depend on how the allocator was left by the call before it."""
    start = perf_counter()
    ring, total = [None] * 1024, 0  # allocation churn, no growth in memory
    for i in range(100_000):
        total += i * i % 7
        ring[i & 1023] = (i, total * 0.5)
    roots, ordered = _REFERENCE_OUT
    for _ in range(56):
        ordered[:] = _REFERENCE_ARRAY
        ordered.sort()
        np.sqrt(_REFERENCE_ARRAY, out=roots)
        np.add(roots, ordered, out=roots)
    return perf_counter() - start


class HostSpeed:
    """Scales timings to the reference host speed.

    ``scale(seconds)`` takes the time of a call made since the last
    reference measurement, measures the reference task again and returns the
    time multiplied by REFERENCE_S over the mean of the two reference times
    around the call.
    """

    def __init__(self):
        self.reference = [reference_seconds()]

    def scale(self, seconds: float) -> float:
        self.reference.append(reference_seconds())
        return seconds * REFERENCE_S / statistics.fmean(self.reference[-2:])


def chunk_seed(seed: int, chunk: int) -> int:
    """Master seed of one ``run_trials`` call, derived from the workload seed."""
    return seed * 2**32 + chunk


def column(outcomes, name: str) -> np.ndarray:
    """One outcome column, from a list of per-trial tuples or an array struct."""
    col = getattr(outcomes, name, None)
    if col is None:
        col = [getattr(o, name) for o in outcomes]
    return np.asarray(col, dtype=float)


def write_csv(outcomes, path: Path) -> Path:
    """Write the outcome CSV as ``firewatch simulate --out`` does."""
    with open(path, "w") as fh:
        firewatch.montecarlo.outcomes_to_csv(outcomes, fh)
    return path


def same_bytes(a: Path, b: Path) -> bool:
    """Whether two files exist and hold the same bytes (read in blocks)."""
    filecmp.clear_cache()  # files are rewritten each round
    return a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)


def gate(workload: Workload, sample: np.ndarray) -> list[Check]:
    """Compare a sample of the workload's gated statistic with its law.

    KS distance at significance GATE_KS_ALPHA and the mean within
    GATE_MEAN_Z standard errors of the law's mean (SE from the law's own
    variance, so a corrupted sample cannot widen its band).
    """
    x = np.sort(np.asarray(sample, dtype=float))
    law = workload.law()
    n = x.size
    cdf = 1.0 - np.asarray(law.survival(x), dtype=float)
    i = np.arange(1, n + 1)
    ks = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    ks_crit = math.sqrt(-math.log(GATE_KS_ALPHA / 2.0) / (2.0 * n))
    z = abs(float(x.mean()) - law.mean) / math.sqrt(law.variance / n)
    stat = workload.statistic
    return [
        Check(f"KS {stat} vs {law.name}", ks <= ks_crit, f"D={ks!r} crit={ks_crit!r} n={n}"),
        Check(f"mean {stat} vs {law.name}", z <= GATE_MEAN_Z, f"z={z!r} limit={GATE_MEAN_Z} n={n}"),
    ]


def setup_seconds(run: Run, workload: Workload, seed: int) -> float:
    """Time one cold start in a fresh interpreter (import to a 2-trial run at 2 workers)."""
    run.attempted += 1
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Run, workload: Workload, seed: int, seconds: float, tmp: Path):
    chunk = workload.chunk
    run.run_trials(workload.config(max(2, chunk // 10), chunk_seed(seed, WARMUP_CHUNK)), 1)

    # Rounds until `seconds` have passed. Each round times one cold start,
    # one chunk at one worker and the same chunk through the CLI at two
    # workers, so that every metric samples the machine over the whole run.
    # Each timing is kept as measured (raw.*) and scaled to the reference
    # host speed; the metrics are the scaled medians.
    raw = {"setup_s": [], "trials_per_s": [], "simulate_s": []}
    setup, rates, sim, gated = [], [], [], []
    out, reference = tmp / "simulate.csv", tmp / "workers1.csv"
    host = HostSpeed()
    begin = perf_counter()
    c = 0
    while c < MIN_ROUNDS or perf_counter() - begin < seconds:
        elapsed = setup_seconds(run, workload, chunk_seed(seed, SETUP_CHUNK + c))
        raw["setup_s"].append(elapsed)
        setup.append(host.scale(elapsed))
        config_seed = chunk_seed(seed, c)
        elapsed, outcomes = run.run_trials(workload.config(chunk, config_seed), 1)
        raw["trials_per_s"].append(chunk / elapsed)
        rates.append(chunk / host.scale(elapsed))
        gated.append(column(outcomes, workload.statistic))
        argv = [*workload.argv, "--trials", str(chunk), "--seed", str(config_seed),
                "--workers", "2", "--out", str(out)]
        out.unlink(missing_ok=True)
        elapsed = run.simulate(argv)
        raw["simulate_s"].append(elapsed)
        sim.append(host.scale(elapsed))
        same = same_bytes(out, write_csv(outcomes, reference))
        run.checks.append(Check("outcome bytes, workers=1 vs 2", same, f"chunk {c}"))
        c += 1
        if c == MIN_ROUNDS:
            # Read after a fixed amount of work, so that a faster program,
            # which fits more rounds into the run, is not charged for them.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.samples.update(setup_s=setup, trials_per_s=rates, simulate_s=sim)
    run.samples.update({f"raw.{name}": v for name, v in raw.items()})
    run.samples["reference_s"] = host.reference
    run.values["peak_rss_mb"] = peak_kib / 1024.0

    run.checks.extend(gate(workload, np.concatenate(gated)))
    passed = sum(ch.ok for ch in run.checks)
    run.values["check_pass_rate"] = passed / len(run.checks)


def traced(run: Run, workload: Workload, seed: int, tmp: Path):
    trials = workload.trace_trials
    config = workload.config(trials, chunk_seed(seed, 0))
    run.run_trials(workload.config(max(2, trials // 20), chunk_seed(seed, WARMUP_CHUNK)), 1)
    t1, outcomes = run.run_trials(config, 1)
    t2, outcomes2 = run.run_trials(config, 2)
    reference = write_csv(outcomes, tmp / "workers1.csv")
    same = same_bytes(write_csv(outcomes2, tmp / "workers2.csv"), reference)
    run.checks.append(Check("outcome bytes, workers=1 vs 2", same, ""))
    run.values["montecarlo.w1_trials_per_s"] = trials / t1
    run.values["montecarlo.w2_trials_per_s"] = trials / t2
    run.values["montecarlo.w2_speedup"] = t1 / t2

    out = tmp / "traced.csv"
    argv = [*workload.argv, "--trials", str(trials), "--seed", str(chunk_seed(seed, 0)),
            "--workers", "1", "--out", str(out)]
    with Tracer() as tracer:
        run.simulate(argv, main=tracer.wrap("cli.simulate", firewatch.cli.main))
    # More layout samples, from small runs at other seeds. They get their
    # own tracer so that no other metric counts their trials.
    with Tracer() as layout_tracer:
        for r in range(LAYOUT_REPEATS):
            run.run_trials(workload.config(2, chunk_seed(seed, r + 1)), 1)
    same = same_bytes(out, reference)
    run.checks.append(Check("outcome bytes, traced vs untraced", same, ""))
    run.checks.extend(gate(workload, column(outcomes, workload.statistic)))

    spans = tracer.spans
    main_run = max(
        (s for s in spans if s.name == "montecarlo.run_trials"),
        key=lambda s: s.duration,
        default=None,
    )
    if main_run is not None:
        run.values["trace.overhead"] = main_run.duration / t1
    else:
        run.absent.append("trace.overhead")
    layers = layer_samples(spans)
    layers["placement.build_layout_ms"] = layer_samples(layout_tracer.spans)[
        "placement.build_layout_ms"
    ]
    for name, value in layers.items():
        if any(req in tracer.missing for req in REQUIRES[name]):
            run.absent.append(name)
        elif isinstance(value, list):
            run.samples[name] = value
        else:
            run.values[name] = value


def spread(samples: list[float]) -> dict:
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0] if samples else 0.0
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "firewatch": firewatch.__version__,
        "commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must lie in [0, 2^31)")

    workload = WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    run = Run()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
        if args.trace:
            traced(run, workload, args.seed, Path(tmp))
        else:
            end_to_end(run, workload, args.seed, args.seconds, Path(tmp))
    units = UNITS["per_layer" if args.trace else "end_to_end"]

    timings = {name: spread(s) for name, s in run.samples.items()}
    metrics = {}
    for name, unit in units.items():
        if name in run.absent:
            continue
        value = timings[name]["median"] if name in timings else run.values[name]
        metrics[name] = {"value": value, "unit": unit}
        t = timings.get(name)
        extra = f"  median of {t['n']}, quartiles {t['q1']:.6g}..{t['q3']:.6g}" if t else ""
        print(f"{name:42s} {value:14.6g} {unit}{extra}")
    for check in run.checks:
        print(f"check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    correct = run.failed == 0 and all(ch.ok for ch in run.checks)
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "machine": facts,
        "timings": timings,
        "checks": [ch._asdict() for ch in run.checks],
        "absent": run.absent,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
