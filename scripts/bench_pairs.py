"""Alternating benchmark pairs of a parent revision and this checkout, into one BENCH file.

Checks the parent revision out with ``git worktree`` into a temporary
directory (or uses ``--parent-tree``, an existing checkout of it) and runs
``benchmarks/run.py`` in both trees, one pair of runs a seed: the parent
first on even pair indices, this checkout first on odd ones.  Seeds are
taken from ``--first-seed`` on, skipping any that a ``BENCH_*.json`` file
here lists under ``seeds`` or that either tree has a results file for.
Each tree runs its own ``benchmarks/run.py`` and imports its own ``src``.

Writes ``BENCH_<tag>.json`` here: the machine (from this checkout's first
results record), the parent revision and this checkout's, and for each
workload its seeds and, per metric, both sides' runs, medians and quartiles,
and the number of pairs in which this checkout's value is lower and higher.
``--traced-pairs`` adds pairs of ``--trace 1`` runs with their per-layer
figures.  A run that fails or reports ``correct: false`` stops the script.

Usage::

    python3 scripts/bench_pairs.py --parent HEAD~1 --tag kernel_blocks \\
        --workload entropy-lowdim:10 --workload wide-csv:4 --traced-pairs 1
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def used_seeds(trees) -> set:
    """Seeds listed under ``seeds`` in this checkout's BENCH files, or named by a results file."""
    seeds = set()

    def collect(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seeds" and isinstance(value, list):
                    seeds.update(v for v in value if isinstance(v, int))
                else:
                    collect(value)
        elif isinstance(node, list):
            for value in node:
                collect(value)

    for path in ROOT.glob("BENCH_*.json"):
        collect(json.loads(path.read_text()))
    for tree in trees:
        for path in (tree / "benchmarks" / "results").glob("*-seed*-trace*.json"):
            seeds.add(int(path.stem.split("-seed")[1].split("-trace")[0]))
    return seeds


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``benchmarks/run.py`` run in ``tree``; its results record."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    record = json.loads((tree / "benchmarks" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if not record["correct"]:
        sys.exit(f"error: {workload} seed {seed} in {tree} is not correct: {record['failures']}")
    return record


def summary(parent_runs, change_runs) -> dict:
    """Both sides' runs of one metric, their medians and quartiles, and the pairs' win counts."""
    out = {"parent_runs": parent_runs, "change_runs": change_runs}
    if len(parent_runs) > 1:
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            out.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3,
                        f"{side}_iqr": q3 - q1})
    out["change_lower_in"] = sum(c < p for p, c in zip(parent_runs, change_runs))
    out["change_higher_in"] = sum(c > p for p, c in zip(parent_runs, change_runs))
    out["pairs"] = len(parent_runs)
    return out


def pairs(parent: Path, workload: str, seeds, seconds: float, trace: int):
    """Alternating runs of both trees on ``seeds``; returns the machine and per-metric summaries."""
    runs = {"parent": [], "change": []}
    machine = None
    for i, seed in enumerate(seeds):
        order = [("parent", parent), ("change", ROOT)]
        for side, tree in order if i % 2 == 0 else order[::-1]:
            record = run(tree, workload, seed, seconds, trace)
            runs[side].append(record["figures"])
            if side == "change" and machine is None:
                machine = record["machine"]
            print(f"{workload} seed {seed} {side}: op_s {record['figures']['op_s']:.4f}",
                  file=sys.stderr)
    metrics = {name: summary([f[name] for f in runs["parent"]], [f[name] for f in runs["change"]])
               for name in runs["change"][0]}
    return machine, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision, e.g. HEAD~1")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS, repeatable")
    parser.add_argument("--traced-pairs", type=int, default=0,
                        help="pairs of --trace 1 runs of the first workload")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=28001)
    parser.add_argument("--parent-tree", type=Path,
                        help="an existing checkout of --parent, used instead of a worktree")
    args = parser.parse_args()

    parent_rev = git("rev-parse", args.parent)
    change_rev = git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = args.parent_tree.resolve() if args.parent_tree else Path(tmp) / "tree"
        if not args.parent_tree:
            git("worktree", "add", "--detach", str(parent), parent_rev)
        try:
            taken = used_seeds([ROOT, parent])
            seed = args.first_seed
            bench = {"tag": args.tag, "command": [Path(sys.argv[0]).name, *sys.argv[1:]],
                     "parent_rev": parent_rev, "change_rev": change_rev,
                     "method": "benchmarks/run.py --seconds S per run; one pair a seed, the "
                               "parent first on even pair indices and this checkout first on "
                               "odd ones; quartiles by statistics.quantiles (inclusive)",
                     "seconds": args.seconds, "workloads": {}}
            specs = [(name, int(count)) for name, count in (w.split(":") for w in args.workload)]
            if args.traced_pairs:
                specs.append((specs[0][0] + ":traced", args.traced_pairs))
            for name, count in specs:
                seeds = []
                while len(seeds) < count:
                    if seed not in taken:
                        seeds.append(seed)
                    seed += 1
                workload, _, traced = name.partition(":")
                machine, metrics = pairs(parent, workload, seeds, args.seconds, int(bool(traced)))
                bench.setdefault("machine", machine)
                bench["workloads"][name] = {"seeds": seeds, "metrics": metrics}
        finally:
            if not args.parent_tree:
                git("worktree", "remove", "--force", str(parent))
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
