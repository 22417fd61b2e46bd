"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload beltrami --seed 1 --seconds 40 --trace 0

The package is imported from the src/ directory beside this one and the
meshes from tests/fixtures.py, never from an installed copy. Metric names and
units are those declared in BENCHMARK.json: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The run exits 1 when any
map's output fails the correctness gate, and 2 when the sources are missing.

Every workload in workloads.WORKLOADS can be run; BENCHMARK.json declares the
ones whose timings are steady enough to hold its regression bounds (see
README.md for the corpus workload, which is run by hand).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _use_checkout():
    src = os.path.join(ROOT, "src")
    tests = os.path.join(ROOT, "tests")
    if not (
        os.path.isfile(os.path.join(src, "weldmap", "__init__.py"))
        and os.path.isfile(os.path.join(tests, "fixtures.py"))
    ):
        print(f"perfbench: no weldmap sources under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, tests]


def _pin_blas_threads():
    """One BLAS thread, so the process computes on at most the pipeline's two
    pool threads. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    # Accepted for the benchmark protocol; the inputs do not depend on it
    # (see README.md, "The seed").
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _use_checkout()
    _pin_blas_threads()
    import workloads  # needs the checkout on sys.path

    declared = _declared(args.trace)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        metrics, session, outcomes, q = workloads.measure(
            args.workload, args.seconds, bool(args.trace), workdir
        )

    for case, outcome in outcomes.items():
        print(f"ledger {case}: {outcome}")
    if q is not None:
        print(f"flipped faces over successful maps: {q['flipped_faces']}")
    for problem in session.problems:
        print(f"INCORRECT {problem}", file=sys.stderr)

    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        print(
            f"perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(metrics))}, extra {sorted(set(metrics) - set(want))}",
            file=sys.stderr,
        )
        return 2
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.unexpected,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in want.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
