"""Benchmark runner for gsaformer.

    python3 perfbench/run.py --workload train_long --seed 0 --seconds 50 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it
sits in.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (and writes every span to ``.perfbench-out/``).  The last
line of standard output is one JSON object; the lines above it are the
same numbers as a table, with the sample count of each, and an
environment stamp.  See NOTES.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train_long", "train_small", "infer_long")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(limit: int) -> None:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = limit
        os.environ[var] = str(min(max(current, 1), limit))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "git_commit": git_commit(),
    }


def _number(v: float):
    return v if math.isfinite(v) else None


def report(args, result, env: dict) -> dict:
    """Print the table and return the contract's result object."""
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    print(f"{'metric':34s} {'value':>16s} {'unit':10s} {'samples':>8s}")
    for name, (value, unit, n) in result.metrics.items():
        print(f"{name:34s} {value:16.6g} {unit:10s} {n:8d}")
    if result.self_ms:
        print("self time per span name, ms over the traced rounds:")
        for name, ms in sorted(result.self_ms.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {ms:12.3f}")
    for message in result.messages:
        print(f"FAILED CHECK: {message}")
    # error_rate is always printed above; it is 0 on a sound program, so it
    # is carried by attempted/failed below instead of as a declared metric
    hidden = {"error_rate"}
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()
                    if name not in hidden},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None, tiny: bool = False, out_dir: Path | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "gsaformer" / "__init__.py").is_file():
        print(f"perfbench: no gsaformer sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    cap_blas_threads(nproc())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads    # imports numpy and gsaformer, after the thread cap

    env = environment()
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), tiny,
                           out_dir or ROOT / ".perfbench-out", extra={"env": env})
    print(json.dumps(report(args, result, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
