"""keyhole benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; keyhole is imported from its
``src/`` and nothing is installed. With ``--trace 0`` the end-to-end metrics
are measured with tracing off; with ``--trace 1`` the per-layer metrics come
from wrappers installed at run time (see ``tracer.py`` and ``layers.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record of the
run, with how it was made, is written to ``perfbench/out/``.

Set-up is timed in fresh processes, several times, and reported as a median.
The workload's fixed work (a round) then repeats, whole rounds and at least
one, for about ``--seconds``, and round times are reported as medians.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before NumPy loads; the
# set-up probes inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("analytic_sweep", "mc_joint2d", "mc_isolated3d", "transport_average")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_keyhole():
    """Import keyhole from this checkout's src/, and nowhere else."""
    if not (SRC / "keyhole" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no keyhole sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import keyhole
    if Path(keyhole.__file__).resolve().parent != (SRC / "keyhole").resolve():
        raise SystemExit(f"perfbench: keyhole was imported from {keyhole.__file__}")
    return keyhole


def setup_probe(name: str) -> None:
    """Time importing keyhole and the workload's set-up in this fresh process."""
    t0 = time.perf_counter()
    import_keyhole()
    import workloads
    workloads.WORKLOADS[name](0, False, OUT / "csv", {}).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_samples(name: str) -> list:
    """One untimed warm-up probe (byte-code and file caches), then the samples."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--setup-probe"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if i:
            samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "keyhole").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    from keyhole import _kernels
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _kernels.backend(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(args) -> dict:
    keyhole = import_keyhole()
    samples = [] if args.trace else setup_samples(args.workload)

    import layers
    import workloads
    from tracer import Tracer

    reference = workloads.load_reference()
    csv_dir = OUT / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, csv_dir, reference)
    tally = workloads.Tally()

    # the traced run traces the set-up and one round, not the untraced rounds
    tracer = Tracer(layers.TARGETS)
    if args.trace:
        tracer.install()
    t0 = time.perf_counter()
    workload.setup()
    own_setup_s = time.perf_counter() - t0
    tracer.uninstall()
    workload.pre_run(tally)

    # whole rounds, stopping where the measured time comes closest to --seconds
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + 0.5 * statistics.fmean(rounds) < args.seconds):
        t0 = time.perf_counter()
        workload.run_round(tally)
        rounds.append(time.perf_counter() - t0)
    wall_s = statistics.median(rounds)
    ops_per_round = tally.ops / len(rounds)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "provenance": provenance(args.seed),
              "keyhole_version": keyhole.__version__,
              "setup_samples_s": samples, "process_setup_s": own_setup_s,
              "rounds_s": rounds, "ops_per_round": ops_per_round,
              # preset rows per second inside run_experiment; MC trials per
              # second of the timed rounds
              "rows_per_s": tally.rows / tally.experiment_s if tally.rows else None,
              "mc_trials_per_s": tally.trials / sum(rounds) if tally.trials else None}

    if args.trace:
        tracer.install()
        t0 = time.perf_counter()
        workload.run_round(tally)
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
        metrics = layers.layer_values(tracer.reduce(), tracer.notes, traced_s - wall_s)
        units = layers.PER_LAYER
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        record["traced_round_s"] = traced_s
    else:
        metrics = {
            "setup_s": statistics.median(samples),
            "wall_s": wall_s,
            "ops_per_s": ops_per_round / wall_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    record.update(attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / max(tally.attempted, 1),
                  flagged=tally.flagged, wrong=tally.wrong,
                  trials=tally.trials, metrics=metrics,
                  reference_points=reference.get("reference_points"))
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name][0]}")
    print(f"{args.workload}: {tally.failed}/{tally.attempted} operations failed, "
          f"{len(tally.wrong)} failed checks; record in {record_path.relative_to(ROOT)}")
    for line in tally.flagged + tally.wrong:
        print(f"  {line}")
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name][0]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
