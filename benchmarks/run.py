"""survbench benchmark: one workload per process, closed loop.

    python3 benchmarks/run.py --workload fidelity --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` next
to this directory, never from an installed copy. Inputs are generated
from ``--seed`` under ``.bench_work/`` and removed afterwards; results and
trace spans are kept under ``.bench_out/``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: set-up time (median of several set-ups),
operations per second (median time of each distinct chunk of work),
peak RSS and the share of operations that passed their checks. With
``--trace 1`` every chunk runs once untraced and once traced and the
metrics are the per-layer ones (see ``workloads.layer_metrics``). The
exit code is 0 only if every output check passed. ``--workload all`` runs
every workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("fidelity", "all-engines", "reconstruct")
CHILD_TIMEOUT_S = 900


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha is not None:
        return sha
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def host_info(root: str) -> dict:
    import numpy
    import scipy
    import survbench

    cpu_model = platform.processor() or "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "survbench": survbench.__version__,
    }


def import_package(root: str) -> bool:
    """Put the checkout's src/ first on the path and import survbench from it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "survbench", "__init__.py")):
        print(f"error: no survbench package under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    import survbench

    if os.path.dirname(os.path.dirname(os.path.abspath(survbench.__file__))) != src:
        print(f"error: survbench imported from {survbench.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def run_one(args: argparse.Namespace) -> int:
    if not import_package(ROOT):
        return 2
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        if args.trace:
            spans_path = os.path.join(outdir, f"spans-{tag}.jsonl")
            outcome = workloads.run_traced(spec, workdir, args.seed, args.seconds, spans_path)
        else:
            outcome = workloads.run_untraced(spec, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host = host_info(ROOT)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    with open(os.path.join(outdir, f"result-{tag}.json"), "w") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "host": host,
             "result": result, "problems": outcome.problems, "detail": outcome.detail},
            fh,
            indent=2,
        )
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; non-zero if any of them failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        status = status or child.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
