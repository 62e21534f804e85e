"""apnspectra benchmark: one workload per fresh process, closed loop.

    python3 perfbench/run.py --workload spectrum-m6 --seed 1 --seconds 25 --trace 0

One caller sends the workload's instances back to back, with no think time,
for ``--seconds``; every output is then checked by an independent route.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each instance runs once untraced
and once traced, in alternating order, and the object holds the per-layer
metrics of ``layers.PER_LAYER``.  The earlier lines print every metric by
name with its unit.  Descriptors, machine conditions and every metric are
also written to ``.bench_results/`` at the repository root, and the spans of
a traced run beside them.

Run it from a checkout that holds ``src/apnspectra``; without the package
it exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import warmup  # noqa: E402  (imports nothing from the package)

# Fresh processes timed for setup_s before the timed loop and again after
# the checks, so that one slow spell of the machine does not set the median.
SETUP_PROBES = 8
INSTANCES_PER_SECOND = 30  # instances generated per second of --seconds
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {
    "instances_per_s": "1/s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _setup_samples(workload: str, probes: int) -> list[float]:
    """Set-up seconds of ``probes`` fresh processes, one after another."""
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "warmup.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 11, 0) if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def _timed(workload, inst, tracer=None):
    """(seconds, output, error) of one instance's call."""
    import workloads

    start = time.perf_counter()
    try:
        if tracer is None:
            output = workloads.call(workload, inst)
        else:
            with tracer.installed():
                start = time.perf_counter()
                output = workloads.call(workload, inst)
    except Exception as exc:  # an instance that raises counts as failed
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, output, None


def closed_loop(workload, instances, seconds: float, tracer=None) -> dict:
    """Run instances back to back until ``seconds`` have passed.

    Without a tracer each instance runs once.  With one, each runs
    untraced and traced, the order alternating, and the spans of the
    traced call carry the instance's index.
    """
    untraced, traced, outputs = [], [], []
    start = time.perf_counter()
    for i, inst in enumerate(instances):
        if time.perf_counter() - start >= seconds:
            break
        if tracer is None:
            t, out, err = _timed(workload, inst)
            untraced.append(t)
            outputs.append([(out, err)])
            continue
        tracer.instance_id = i
        order = (False, True) if i % 2 == 0 else (True, False)
        runs = {on: _timed(workload, inst, tracer if on else None)
                for on in order}
        tracer.instance_id = -1
        untraced.append(runs[False][0])
        traced.append(runs[True][0])
        outputs.append([runs[False][1:], runs[True][1:]])
    else:
        print(f"warning: all {len(instances)} generated instances ran "
              f"before {seconds} s", file=sys.stderr)
    return {"wall_s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "untraced_s": untraced, "traced_s": traced, "outputs": outputs}


def check_all(workload, instances, outputs) -> list[str | None]:
    """Per instance: None when every output of it checks, else a reason."""
    import workloads

    reasons = []
    for inst, outs in zip(instances, outputs):
        reason = None
        for out, err in outs:
            reason = reason or err or workloads.check(workload, inst, out)
        reasons.append(reason)
    return reasons


def conditions() -> dict:
    import numpy

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "thread_pins": {v: os.environ.get(v) for v in THREAD_POOLS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(warmup.SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apnspectra" / "__init__.py").is_file():
        print(f"error: no apnspectra package under {SRC}", file=sys.stderr)
        return 2
    # BLAS and OpenMP pools stay at one thread, here and in the set-up
    # probes; numpy is not imported yet
    for var in THREAD_POOLS:
        os.environ[var] = "1"
    load_start = os.getloadavg()

    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        with tracer.installed():
            warmup.warm_caches(*warmup.SETUP[args.workload])
    else:
        tracer = None
        # the first probe pays for bytecode compilation and a cold file
        # cache, which only the first run in a checkout sees: discard it
        setup_samples = _setup_samples(args.workload, SETUP_PROBES + 1)[1:]
        setup_samples.append(warmup.timed_setup(args.workload))

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    count = max(16, int(INSTANCES_PER_SECOND * args.seconds))
    instances = workloads.generate(workload, args.seed, count)
    run = closed_loop(workload, instances, args.seconds, tracer)
    attempted = instances[:len(run["outputs"])]
    reasons = check_all(workload, attempted, run["outputs"])
    failed = sum(r is not None for r in reasons)
    for inst, reason in zip(attempted, reasons):
        if reason:
            print(f"failed: {inst.params}: {reason}", file=sys.stderr)

    if not args.trace:
        setup_samples += _setup_samples(args.workload, SETUP_PROBES)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "descriptors": workloads.descriptors(workload, args.seed,
                                                   attempted),
              "failed_share": failed / len(attempted),
              "instance_s": run["untraced_s"]}
    if args.trace:
        from layers import PER_LAYER
        overhead = ((sum(run["traced_s"]) - sum(run["untraced_s"]))
                    / sum(run["untraced_s"]))
        values = tracer.layer_metrics(len(attempted), overhead)
        units = PER_LAYER
        record["spans"] = tracer.totals()
    else:
        value, pct, n = tail(run["untraced_s"])
        values = {"instances_per_s": (len(attempted) - failed) / run["wall_s"],
                  "instance_p50_s": statistics.median(run["untraced_s"]),
                  "instance_tail_s": value,
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": run["peak_rss_mb"]}
        units = END_TO_END
        record.update(tail_percentile=pct, tail_samples=n,
                      setup_samples_s=setup_samples)
    record["conditions"] = conditions()
    record["conditions"]["loadavg_start"] = load_start
    record["conditions"]["loadavg_end"] = os.getloadavg()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record["metrics"] = metrics

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.save(out_dir / f"{stem}-spans.npz")

    for name, m in metrics.items():
        note = ""
        if name == "instance_tail_s":
            note = (f"  (p{record['tail_percentile']:.0f} of "
                    f"{record['tail_samples']} samples)")
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{args.workload} failed_share = {record['failed_share']:.6g} "
          f"share  ({failed} of {len(attempted)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
