"""The system benchmark: one command, three workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table3-planned --seed 1 --seconds 12 --trace 0

Workloads (reasons in ``perfbench/settings.json``): ``table3-planned``,
``medical-real`` and ``serve-fleet``.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` the functions each layer exposes are
wrapped from outside (``tracer.py``) and the object carries the per-layer
metrics instead, while the spans go to ``.perfbench_out/``.  The lines before
it record the run's environment and inputs, and the diagnostics: every
timed interval, its wall time and the reference runs it is read against.

Times and rates are reported normalised to a fixed reference workload timed
around them (``hostspeed.py``), so that the figures follow the program and
not the shared host's speed of the moment.

Every workload checks its answers against a reference before it trusts any
timing; a mismatch is a failed operation, makes ``correct`` false and the
exit code 1.

``medical-real`` is not among the workloads ``BENCHMARK.json`` lists: its
live and restored sessions give approximate answers that differ in the last
bit (the restore re-inserts a summary's cells in another order), so its gate
fails on most seeds.  It stays runnable here, gate and all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import sys
import tempfile
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table3-planned", "medical-real", "serve-fleet")


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def sqlite_policy(store: str) -> Dict[str, Any]:
    """Journal mode and synchronous level a fresh connection to the store gets."""
    connection = sqlite3.connect(store)
    try:
        journal = connection.execute("PRAGMA journal_mode").fetchone()[0]
        synchronous = connection.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        connection.close()
    return {
        "backend": "sqlite",
        "sqlite_version": sqlite3.sqlite_version,
        "journal_mode": journal,
        "synchronous": {0: "off", 1: "normal", 2: "full", 3: "extra"}.get(synchronous, synchronous),
        "commit": "one transaction per put",
    }


def environment(args: argparse.Namespace, settings: Dict[str, Any]) -> Dict[str, Any]:
    import networkx
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "git_sha": git_sha(),
        "open_loop_rate_per_s": settings["serve"]["open_loop_rate_per_s"],
        "slo_limit_ms": settings["slo_limit_ms"][args.workload],
        "reference_nominal_s": settings["reference_nominal_s"],
        "why": settings["workloads"][args.workload],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # String hashing follows the seed: a seed then lays out every dict and
        # set the same way in this process, the fleet and the load generator.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *argv])
    sys.path.insert(0, src)

    with open(os.path.join(HERE, "settings.json"), encoding="utf-8") as handle:
        settings = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    per_layer = [entry["name"] for entry in declared["per_layer"]]
    mapped = [name for layer in settings["layers"].values() for name in layer]
    if sorted(mapped) != sorted(per_layer):
        raise RuntimeError(
            "settings.json maps other per-layer metrics than BENCHMARK.json declares: "
            f"{sorted(set(mapped) ^ set(per_layer))}"
        )

    from hostspeed import HostSpeed, median_reference
    from pipeline import Run, run_in_process
    from tracer import Tracer

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    run = Run(
        settings=settings,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        workdir=workdir,
        host=HostSpeed(settings["reference_nominal_s"], settings["reference_window_s"]),
        tracer=Tracer() if args.trace else None,
        per_layer=per_layer,
    )
    env = environment(args, settings)
    # The host's speed at both ends of the run: the reference workload's
    # time, against which every timing is normalised (hostspeed.py).
    env["reference_s_start"] = median_reference()
    try:
        if args.workload == "serve-fleet":
            from fleet import run_fleet

            run_fleet(run)
        else:
            run_in_process(run)
        env["store"] = sqlite_policy(os.path.join(workdir, "store-0-0.sqlite"))
        env["reference_s_end"] = median_reference()
    finally:
        if run.tracer is not None:
            run.tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    source = run.layers if args.trace else run.metrics
    missing = [entry["name"] for entry in wanted if entry["name"] not in source]
    if missing:
        raise RuntimeError(f"the run did not measure {missing}")
    metrics = {
        entry["name"]: {"value": source[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        run.tracer.write(trace_path)
        env["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps({"env": env}))
    bounded = {entry["name"] for entry in declared["end_to_end"]}
    diagnostics = {
        "notes": run.notes,
        "samples": run.samples,
        "wall_medians": run.walls,
        "timings": run.timings,
        "references": run.host.references,
        **run.extra,
        "layers": run.layers,
        # Measured but not in BENCHMARK.json: too unsteady over seeds to bound.
        "unbounded": {name: value for name, value in run.metrics.items() if name not in bounded},
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
