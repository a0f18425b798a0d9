#!/usr/bin/env python3
"""Run one hopfdiag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spin_critical --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: hopfdiag is imported from ./src,
with one process and one numerical thread.  The workload is repeated on the
same seeded inputs until --seconds have passed; every repetition is checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: norm_wall_s,
the median wall time of one repetition normalized by machine_probe(), a
fixed kernel timed before and after each repetition (see normalized());
setup_s, the median wall time of a fresh process that imports hopfdiag and
builds the inputs (7 of them); peak_rss_mb, the peak resident memory.  The
raw median wall time is wall_s in the results file.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of BENCHMARK.json from the spans (see tracer.py);
tracing.overhead_s is the median, over pairs of an untraced repetition and
the traced one right after it, of their normalized difference.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A human-readable summary goes to standard error, and the
metrics with provenance go to perfbench/out/, traced runs adding every
value the spans give (calls, busy_s, self_s, warnings, ... of each wrapped
function, listed in BENCHMARK.json or not) and every span.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one numerical thread, also for the set-up processes, which inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
# About the time machine_probe() took on the shared 2-vCPU x86-64 container
# of perfbench/baseline.json when it was quiet; normalized times read as
# seconds on that machine.  A fixed constant, so runs stay comparable.
PROBE_NOMINAL_S = 0.18


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def setup_times(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall times of fresh processes that import hopfdiag and build the
    workload's inputs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                        str(seed)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def machine_probe() -> float:
    """Seconds for a fixed kernel that shares no code with hopfdiag (an
    interpreter loop and small-array numpy arithmetic), timed between
    repetitions to follow the machine's speed."""
    t0 = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(400_000):
        x = i * 0.5
        acc += x * x % 7.0
        slots[i & 1023] = x
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(800):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - t0


def normalized(times: list[float], probes: list[float]) -> list[float]:
    """Each time rescaled by the probes timed just before and after it:
    t_i * PROBE_NOMINAL_S / ((p_i + p_i+1) / 2).

    Other tenants of a shared machine slow the program and the probe alike
    (by up to a third within a minute), so these values move far less from
    run to run than raw times do; a change in hopfdiag moves t_i and not the
    probe.
    """
    return [t * 2.0 * PROBE_NOMINAL_S / (a + b)
            for t, a, b in zip(times, probes, probes[1:])]


def build_tracer(seen_critical: list):
    """A Tracer over every layer boundary the per-layer metrics name."""
    from hopfdiag import acceptance, cli, hopf, models, oracle, spectrum

    tracer = Tracer()

    def critical(counter, args, rows):
        counter["rows"] += len(rows)
        seen_critical.append((args[0].gamma, args[1], rows))

    def points(counter, args, cloud):
        counter["points"] += cloud.count

    def written(counter, args, result):
        counter["bytes"] += os.path.getsize(args[1])

    def read(counter, args, result):
        counter["bytes"] += os.path.getsize(args[0])

    def passed(counter, args, result):
        tracer.counts["acceptance"]["passed"] += 1

    tracer.wrap(models, "jc_reduced_critical_values", critical, ["rows"])
    tracer.wrap(models, "jc_spectrum_sample", points, ["points"])
    for name in ("rasterize", "boundary", "assemble_hopf_diagram",
                 "read_curve_csv", "read_diagram_json", "read_jc_critical_csv"):
        tracer.wrap(spectrum, name)
    for name in ("write_cloud_csv", "write_raster_csv", "write_curve_csv",
                 "write_diagram_json", "write_jc_critical_csv"):
        tracer.wrap(spectrum, name, written, ["bytes"])
    tracer.wrap(spectrum, "read_cloud_csv", read, ["bytes"])
    tracer.wrap(hopf, "critical_curve_point")
    tracer.wrap(hopf, "torus_count")
    tracer.wrap(oracle, "cubic_roots")
    tracer.wrap(cli, "main")
    tracer.counts["acceptance"]["passed"] = 0
    # run_all reads its criteria from this list, not from module attributes
    tracer.patch(acceptance, "CRITERIA", [
        (n, name, tracer.traced(f"acceptance.criterion_{n:02d}", fn, passed))
        for n, name, fn in acceptance.CRITERIA])
    return tracer


def layer_values(tracer, n_traced: int, seen_critical: list, refs: dict,
                 overhead_s: float) -> dict:
    """Every per-layer value, per traced repetition unless it is a max."""
    import workloads

    values = {"tracing.overhead_s": overhead_s}
    for name, s in tracer.summary().items():
        values[f"{name}.calls"] = s["calls"] / n_traced
        values[f"{name}.busy_s"] = s["busy_s"] / n_traced
        values[f"{name}.self_s"] = s["self_s"] / n_traced
        durations = s["durations"] if s["calls"] else np.zeros(1)
        values[f"{name}.p50_ms"] = float(np.percentile(durations, 50)) * 1e3
        values[f"{name}.p99_ms"] = float(np.percentile(durations, 99)) * 1e3
        values[f"{name}.warnings"] = tracer.warnings[name] / n_traced
    for name, counter in tracer.counts.items():
        for key, count in counter.items():
            values[f"{name}.{key}"] = count / n_traced

    worst, mismatched = 0.0, 0
    for gamma, j, rows in seen_critical:
        key = (gamma, j)
        if key not in refs:
            refs[key] = workloads.reference_critical_points(gamma, j)
        why, err = workloads.critical_mismatch(gamma, j, rows, refs[key])
        mismatched += why is not None
        worst = max(worst, err)
    prefix = "models.jc_reduced_critical_values"
    values[f"{prefix}.max_residual"] = worst
    values[f"{prefix}.ref_mismatch"] = mismatched / n_traced
    return values


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: dict | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the result object that main prints,
    plus provenance and per-repetition times."""
    import workloads

    spec = load_spec()
    make_inputs, run_once, check = workloads.WORKLOADS[workload]
    setup = None if trace else setup_times(workload, seed, setup_repeats)
    inputs = make_inputs(seed, size or workloads.SIZES[workload])
    refs: dict = {}
    seen_critical: list = []
    tracer = build_tracer(seen_critical) if trace else None

    reps, probes = [], [machine_probe()]  # (traced?, seconds) per repetition
    tally = workloads.Tally()
    work_dir = OUT / f"work-{os.getpid()}"
    empty_dir(work_dir)
    try:
        deadline = time.perf_counter() + seconds
        while True:
            use_trace = trace and 2 * sum(t for t, _ in reps) < len(reps)
            gc.collect()
            with tracer.active() if use_trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                outputs = run_once(inputs, work_dir)
                elapsed = time.perf_counter() - t0
            reps.append((use_trace, elapsed))
            probes.append(machine_probe())
            tally.add(check(inputs, outputs, refs))
            del outputs
            empty_dir(work_dir)  # a failed write must not find old files
            if time.perf_counter() >= deadline and (use_trace or not trace):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [e for t, e in reps if not t]
    traced = [e for t, e in reps if t]
    norm = normalized([e for _, e in reps], probes)
    if trace:
        # repetitions alternate untraced, traced: pair each with its neighbour
        overhead = statistics.median(
            t - u for u, t in zip(norm[::2], norm[1::2]))
        values = layer_values(tracer, len(traced), seen_critical, refs,
                              overhead)
        specs = spec["per_layer"]
    else:
        values = {
            "norm_wall_s": statistics.median(norm),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {
        **result,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.messages,
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "wall_s": statistics.median(plain),
        "repetitions_s": {"untraced": plain, "traced": traced},
        "normalized_s": norm,
        "probe_s": probes,
        "setup_processes_s": setup,
        "all_values": values,
        "provenance": {**workloads.versions(), "nproc": nproc(),
                       "git_commit": git_commit(ROOT),
                       "inputs": workloads.input_sizes(workload, inputs)},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.write_spans(OUT / f"{workload}-seed{seed}-spans.csv")
    return record


def empty_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def nproc() -> int:
    with contextlib.suppress(AttributeError):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "hopfdiag" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} has no src/hopfdiag or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))

    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'raw wall_s':48s} {record['wall_s']:14.6g} s", file=sys.stderr)
    print(f"attempted {record['attempted']}, failed {record['failed']}, "
          f"error_rate {record['error_rate']:.3g}", file=sys.stderr)
    for msg in record["failures"]:
        print(f"  failed: {msg}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
