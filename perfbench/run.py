"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment and the details behind the metrics.  ``--trace 1`` measures
the per-layer metrics instead of the end-to-end ones and writes its spans
to ``perfbench/out/``.  See README.md.
"""

import os
import sys

# BLAS is pinned to one thread before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def import_package():
    """Import pedorient from this checkout's src/, or explain why not."""
    if not (SRC / "pedorient" / "__init__.py").is_file():
        raise ImportError(f"no pedorient package under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import pedorient

    if not Path(pedorient.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pedorient was imported from {pedorient.__file__}, not {SRC}")


def write_trace(path: Path, tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    payload = {
        "fields": ["name", "start_ns", "end_ns", "parent", "trace_id"],
        "spans": [[s.name, s.start_ns, s.end_ns, s.parent, s.trace_id]
                  for s in tracer.spans],
        "counts": {f"{phase}/{key}": v for (phase, key), v in tracer.counts.items()},
    }
    path.write_text(json.dumps(payload) + "\n")


def main(argv=None, scale=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_package()
    except ImportError as e:
        print(f"perfbench: cannot import the package: {e}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(workloads.WORKLOADS)}")
    out = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), scale or workloads.FULL)

    bad = [k for k, (v, _) in out.metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment(), "details": out.details}
    if out.tracer is not None:
        path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, out.tracer)
        details["trace_file"] = str(path.relative_to(HERE.parent))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
