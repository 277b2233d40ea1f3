#!/usr/bin/env python3
"""Closed-loop benchmark of the smoothent library.

    python3 benchmarks/run.py --workload entropy-lowdim --seed 1 --seconds 25 --trace 0

Run it from the root of a smoothent checkout; it imports the library from
``src/`` there and fails if that is missing.  One client runs operations
back to back (a closed loop) in this single process for ``--seconds``
seconds, and always at least a few operations.  The workloads, their layers
and the metrics are described in ``NOTES.md`` next to this file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations and reports the per-layer metrics; the
difference between the two kinds of operation is ``trace.overhead_s``.
The metric names and units printed are those listed in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record --
machine, per-operation times, every layer figure, failures -- is written to
``benchmarks/results/<workload>-seed<seed>-trace<trace>.json``.
"""

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_OPS = 3  # untraced run: enough for a median
MIN_TRACED_OPS = 2  # traced run: at least this many traced and untraced each
# Per-operation self times of the layers; with the shares of the traced
# operation time they take, they show which layer dominates a workload.
LAYER_TIMES = (
    "mixture.lowd_s",
    "mixture.highd_s",
    "pca.cov_s",
    "pca.eigh_s",
    "pca.fit_self_s",
    "pca.project_s",
    "io.read_s",
    "rng.substream_s",
    "estimator.self_s",
    "mi.self_s",
    "experiments.self_s",
    "synthetic.gen_s",
)


def import_library() -> float:
    """Import smoothent from this checkout's ``src/``; return the seconds taken."""
    package = SRC / "smoothent"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a smoothent checkout")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import smoothent

    elapsed = time.perf_counter() - started
    if Path(smoothent.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported smoothent from {smoothent.__file__}, not {package}")
    return elapsed


def unit_of(name: str) -> str:
    """Unit of a figure, from the suffix of its name."""
    for suffix, unit in (
        ("_mb_per_s", "MB/s"),
        ("_per_s", "1/s"),
        ("_s", "s"),
        ("_mb", "MiB"),
        ("_nats", "nats"),
        ("_flops", "flop"),
        ("bytes", "B"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_ops(workload, reference: bytes, seconds: float, tracer):
    """Closed loop; returns ``[(seconds, traced)]`` and the failure messages."""
    ops, failures = [], []
    min_ops = 2 * MIN_TRACED_OPS if tracer else MIN_OPS
    started = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - started < seconds:
        traced = tracer is not None and len(ops) % 2 == 0
        if traced:
            tracer.install()
        result = None
        t0 = time.perf_counter()
        try:
            result = workload.run()
        except Exception:  # a failing operation is counted; the loop goes on
            failures.append(traceback.format_exc(limit=4))
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.remove()
        ops.append((elapsed, traced))
        if result is not None:
            problems = workload.check(result)
            if workload.signature(result) != reference:
                problems.append("result differs bitwise from the untraced warm-up call")
            if problems:
                failures.append(f"operation {len(ops)}: " + "; ".join(problems))
    return ops, failures


def layer_figures(tracer, n_traced: int, traced_s, untraced_s) -> dict:
    """Per-operation layer figures from the spans of ``n_traced`` operations."""
    self_s, calls, mi_terms = tracer.summary()
    work = tracer.work
    lowd, highd = self_s["mixture.lowd"], self_s["mixture.highd"]
    read = self_s["io.read"]
    totals = {
        "mixture.self_s": lowd + highd,
        "mixture.lowd_s": lowd,
        "mixture.highd_s": highd,
        "mixture.calls": calls["mixture.lowd"] + calls["mixture.highd"],
        "mixture.pair_terms": work["mixture.lowd.pair_terms"] + work["mixture.highd.pair_terms"],
        "mixture.highd_pair_terms": work["mixture.highd.pair_terms"],
        "pca.cov_s": self_s["pca.cov"],
        "pca.eigh_s": self_s["pca.eigh"],
        "pca.fit_self_s": self_s["pca.fit"],
        "pca.project_s": self_s["pca.project"],
        "pca.fit_calls": calls["pca.fit"],
        "pca.cov_flops": work["pca.cov_flops"],
        "io.read_s": read,
        "io.bytes": work["io.bytes"],
        "rng.substream_s": self_s["rng.substream"],
        "rng.substream_calls": calls["rng.substream"],
        "estimator.self_s": self_s["estimator"],
        "estimator.calls": calls["estimator"],
        "mi.self_s": self_s["mi"],
        "mi.terms": mi_terms,
        "experiments.self_s": self_s["experiments"],
        "synthetic.gen_s": self_s["synthetic.gen"],
    }
    figures = {k: v / n_traced for k, v in totals.items()}
    figures["mixture.lowd_pair_terms_per_s"] = work["mixture.lowd.pair_terms"] / lowd if lowd else 0.0
    figures["mixture.highd_pair_terms_per_s"] = (
        work["mixture.highd.pair_terms"] / highd if highd else 0.0
    )
    figures["io.read_mb_per_s"] = work["io.bytes"] / 1e6 / read if read else 0.0
    figures["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    figures["trace.spans"] = len(tracer.spans) / n_traced
    return figures


def main() -> int:
    import_s = import_library()
    from machine import machine_record
    from tracing import Tracer
    from workloads import WORKLOADS

    args = parse_args(sorted(WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        generate_s = []
        for _ in range(workload.setup_repeats):
            t0 = time.perf_counter()
            workload.generate()
            generate_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        first = workload.run()
        warmup_s = time.perf_counter() - t0
        setup_problems = workload.setup_problems + workload.check(first)
        reference = workload.signature(first)
        tracer = Tracer() if args.trace else None
        ops, failures = run_ops(workload, reference, args.seconds, tracer)

    all_s = [s for s, _ in ops]
    traced_s = [s for s, traced in ops if traced]
    untraced_s = [s for s, traced in ops if not traced]
    figures = {
        "op_s": statistics.median(all_s if tracer is None else untraced_s),
        "setup_s": import_s + statistics.median(generate_s) + warmup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "abs_error_nats": workload.abs_error(first),
    }
    if tracer is not None:
        figures.update(layer_figures(tracer, len(traced_s), traced_s, untraced_s))
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec[section]}

    correct = not setup_problems and not failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "correct": correct,
        "setup_problems": setup_problems,
        "failures": failures,
        "setup": {"import_s": import_s, "generate_s": generate_s, "warmup_s": warmup_s},
        "op_s": {"all": all_s, "traced": traced_s, "untraced": untraced_s},
        "reference_nats": workload.reference,
        "quality": workload.quality(first),
        "figures": figures,
        "units": {name: unit_of(name) for name in figures},
    }
    if tracer is not None:
        busy = sum(traced_s) / len(traced_s)
        record["layer_share"] = {k: figures[k] / busy for k in LAYER_TIMES}
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    machine = record["machine"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops, "
        f"median {figures['op_s']:.3f} s; nproc={machine['nproc']} "
        f"blas={machine['blas']['name']} {machine['blas']['version']} "
        f"threads={machine['blas']['threads']}; record in {out.relative_to(ROOT)}"
    )
    for message in setup_problems + failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
