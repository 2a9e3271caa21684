"""Closed-loop benchmark of the pglb command line.

One client in one process calls ``pglb.cli.main`` in-process, as the ``pglb``
entry point does, and sends each op only after the previous one returned.
Every op's exit code and stdout are checked against an independent reference
(see workloads.py).

    python3 perfbench/run.py --workload sat_decide --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run measures half its time untraced and half with spans
around the calls into each pglb module (tracing.py), then runs the layer size
sweep (sweep.py), and the last line holds the per-layer metrics. Each run also
writes a record with the machine, commit, seed and input digest to
``perfbench/results/``.

Times are calibrated: right before and right after every op (outside its
timed region) the loop times a fixed pure-Python job, and each op's wall time
is scaled by ``CALIBRATION_REF_S`` over the median job time of the 15 ops
around it. The figures read as milliseconds on a machine where the job takes 2 ms,
and they hold still when the host's speed drifts. Raw wall times go into the
record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 7
TAIL_CAP = 90.0  # percent; the tail percentile never exceeds this, so it stays comparable across op rates
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
CALIBRATION_ITERATIONS = 2000
CALIBRATION_TABLE = 300_000
CALIBRATION_REF_S = 0.002
CALIBRATION_WINDOW = 15  # ops whose calibrations are pooled into one op's scale

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Calibrator:
    """Times a fixed job shaped like pglb's hot loops, to scale op times by the host's current speed.

    The job builds a small dict with tuple and string keys, which is bound by
    the interpreter, and reads random keys of a large dict, which is bound by
    memory latency. Contention on the host slows both kinds of work, and the
    ops with large products mostly the second.
    """

    def __init__(self) -> None:
        self.table = {i: i for i in range(CALIBRATION_TABLE)}
        rng = random.Random(0)
        self.probes = [rng.randrange(CALIBRATION_TABLE) for _ in range(CALIBRATION_ITERATIONS)]

    def __call__(self) -> float:
        start = perf_counter()
        index, labels = {}, []
        for i in range(CALIBRATION_ITERATIONS):
            key = (i % 997, ";".join(("a", str(i % 13), "b")))
            if key not in index:
                index[key] = len(labels)
                labels.append((i, key))
        table, total = self.table, 0
        for probe in self.probes:
            total += table[probe]
        return perf_counter() - start


def calibrated(samples: list[float], calibrations: list[float]) -> list[float]:
    """Each sample scaled by CALIBRATION_REF_S over the median calibration of the ops around it."""
    half = CALIBRATION_WINDOW // 2
    return [
        sample * CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - half) : i + half + 1])
        for i, sample in enumerate(samples)
    ]


def cli_call(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one ``pglb`` command; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to TAIL_CAP with TAIL_BEYOND samples beyond it.

    Nearest rank: the value at rank r has len - r samples beyond it.
    """
    n = len(samples)
    rank = max(1, min(math.ceil(TAIL_CAP / 100 * n), n - TAIL_BEYOND))
    return 100 * rank / n, sorted(samples)[rank - 1]


def set_up(workload: str, seed: int, workdir: Path):
    """Import pglb, write the inputs and, for sat_decide, generate the decider via the CLI."""
    start = perf_counter()
    pglb = env.load_pglb()
    ops = workloads.generate(workload, seed, workdir)
    if workload == "sat_decide":
        code, program = cli_call(pglb.cli.main, ["gen", "3sat", "-k", str(workloads.SAT_K)])
        if code != 0:
            raise RuntimeError(f"pglb gen 3sat exited {code}")
        (workdir / "sat4.pga").write_text(program, encoding="utf-8")
    return perf_counter() - start, pglb, ops


def measure(workload, ops, workdir, pglb, seconds, calibrate, tracer=None):
    """Closed loop over the op pool, from its first op, until ``seconds`` pass.

    Returns each op's wall time, the mean of the calibrations timed right
    before and after it, and the failed ops. With a tracer, each op is one
    "op" span whose children are the layer spans.
    """
    samples, calibrations, failures = [], [], []
    call = lambda argv: cli_call(pglb.cli.main, argv)  # noqa: E731
    deadline = perf_counter() + seconds
    while not samples or perf_counter() < deadline:
        op = ops[len(samples) % len(ops)]
        before = calibrate()
        if tracer:
            tracer.op = len(samples)
            span = tracer.open("op")
        start = perf_counter()
        try:
            results, reason = workloads.run_op(workload, op, workdir, call), None
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            results, reason = None, f"raised {exc!r}"
        samples.append(perf_counter() - start)
        if tracer:
            tracer.close("op", *span)
        calibrations.append((before + calibrate()) / 2)
        if results is not None:
            reason = workloads.check_op(workload, op, results, pglb)
        if reason:
            failures.append({"op": op.index, "reason": reason})
    return samples, calibrations, failures


def end_to_end(samples, calibrations, failures, setups) -> tuple[dict, dict]:
    """End-to-end metric values, and the raw figures that go with them into the record."""
    scaled = calibrated(samples, calibrations)
    percentile, tail = tail_percentile(scaled)
    completed = len(samples) - len(failures)
    values = {
        "latency_p50_ms": statistics.median(scaled) * 1000,
        "latency_tail_ms": tail * 1000,
        "throughput_ops_s": completed / sum(scaled),
        "setup_s": statistics.median(s * CALIBRATION_REF_S / c for s, c in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "fail_ratio": len(failures) / len(samples),
        "tail_percentile": percentile,
        "samples": len(samples),
        "raw": {
            "latency_p50_ms": statistics.median(samples) * 1000,
            "latency_tail_ms": tail_percentile(samples)[1] * 1000,
            "throughput_ops_s": completed / sum(samples),
            "setup_s": statistics.median(s for s, _ in setups),
            "calibration_ms": statistics.median(calibrations) * 1000,
        },
        "setup_runs": [{"seconds": s, "calibration_s": c} for s, c in setups],
    }
    return values, details


def per_layer(tracer: tracing.Tracer, traced, untraced, steps: int) -> dict:
    """Per-op means of each layer's self time (raw ms) and counts over the traced ops.

    ``traced`` and ``untraced`` are (samples, calibrations) of the two halves.
    ``cli.overhead_ms`` is the part of an op's wall time that no layer span
    covers; ``trace.overhead_ms`` compares the halves' calibrated medians.
    """
    n = len(traced[0])
    seconds, calls = tracer.self_times()

    def per_op(table, key) -> float:
        return sum(table[op].get(key, 0) for op in range(n)) / n

    metrics = {f"{layer}_ms": (per_op(seconds, layer) * 1000, "ms") for layer in tracing.LAYERS}
    metrics.update({name: (per_op(tracer.counts, name), "count") for name in tracing.COUNTS})
    metrics.update({name: (per_op(calls, span), "count") for span, name in tracing.CALL_COUNTS.items()})
    metrics["cli.overhead_ms"] = (per_op(seconds, "op") * 1000, "ms")
    configs = per_op(tracer.counts, "interaction.use_configs") * n
    metrics["interaction.useful_ratio"] = (steps / configs if configs else 0.0, "ratio")
    metrics["interaction.useful_base_configs"] = (configs, "count")
    metrics["sat3.gen_3sat_ms"] = (seconds["setup"].get("sat3.gen_3sat", 0.0) * 1000, "ms")
    metrics["setup.render_ms"] = (seconds["setup"].get("isa.render", 0.0) * 1000, "ms")
    untraced_p50 = statistics.median(calibrated(*untraced)) * 1000
    traced_p50 = statistics.median(calibrated(*traced)) * 1000
    metrics["trace.untraced_p50_ms"] = (untraced_p50, "ms")
    metrics["trace.traced_p50_ms"] = (traced_p50, "ms")
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    metrics["trace.ops"] = (n, "count")
    metrics["calibration_ms"] = (statistics.median(untraced[1] + traced[1]) * 1000, "ms")
    return metrics


def run(args, workdir: Path) -> int:
    calibrate = Calibrator()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = [calibrate() for _ in range(3)]
        elapsed, pglb, ops = set_up(args.workload, args.seed, workdir)
        setups.append((elapsed, statistics.median(before + [calibrate() for _ in range(3)])))
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env.environment(),
        "inputs_digest": workloads.inputs_digest(workdir),
        "pool": len(ops),
    }
    if not args.trace:
        samples, calibrations, failures = measure(args.workload, ops, workdir, pglb, args.seconds, calibrate)
        values, details = end_to_end(samples, calibrations, failures, setups)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        record.update(details)
        if args.workload == "tt_verify":
            record["planted_ops"] = sum(bool(ops[i % len(ops)].data.get("flips")) for i in range(len(samples)))
    else:
        *untraced, failures = measure(args.workload, ops, workdir, pglb, args.seconds / 2, calibrate)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = "setup"
            if args.workload == "sat_decide":
                cli_call(pglb.cli.main, ["gen", "3sat", "-k", str(workloads.SAT_K)])
            *traced, traced_failures = measure(args.workload, ops, workdir, pglb, args.seconds / 2, calibrate, tracer)
        finally:
            tracer.uninstall()
        failures += traced_failures
        samples = untraced[0] + traced[0]
        ran = [ops[i % len(ops)] for i in range(len(traced[0]))]
        steps = workloads.run_steps(args.workload, ran, workdir, pglb)
        table = sweep.run_sweep(pglb, args.seed)
        metrics = per_layer(tracer, traced, untraced, steps) | sweep.sweep_metrics(table)
        record["sweep"] = table
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    record.update(
        attempted=len(samples),
        failed=len(failures),
        pool_wrapped=len(samples) > len(ops),
        failures=failures[:20],
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}")
    for failure in failures[:5]:
        print(f"FAILED op {failure['op']}: {failure['reason']}")
    print(f"record: {record_path.relative_to(env.ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workdir)
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
