"""Steadiness of the benchmark on one commit.

    python3 bench/steady.py [--workloads a,b] [--runs 10] [--seed0 1] [--label NAME]
    python3 bench/steady.py --compare FIRST.json SECOND.json

The first form runs ``run.py`` ``--runs`` times per workload for the
``run_seconds`` of ``BENCHMARK.json``, each run with its own seed and the
workloads interleaved so that machine drift reaches all of them alike. It
prints each end-to-end metric's median and spread (interquartile range
over median) next to the bound in ``BENCHMARK.json``, checks that two
``--digest`` runs with one seed agree, and saves everything to
``bench/results/steady-NAME.json``.

The second form compares two such files as a regression check would:
for every workload and metric, how much worse the second median is than
the first, against the bound; and whether the share of failed operations
is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RESULTS = HERE / "results"


def run(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"steady: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(args) -> None:
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    seconds = str(SPEC["run_seconds"])
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            result = run(w, args.seed0 + i, "--seconds", seconds, "--trace", "0")
            missing = {m["name"] for m in SPEC["end_to_end"]} - set(result["metrics"])
            if missing or not result["correct"]:
                sys.exit(f"steady: {w} seed {args.seed0 + i}: correct={result['correct']}, missing {missing}")
            runs[w].append(result)
            print(f"steady: {w} seed {args.seed0 + i} done", file=sys.stderr)
    digests = {w: [run(w, args.seed0, "--digest")["digest"] for _ in range(2)] for w in names}
    summary = summarize(runs)
    out = {"seconds": seconds, "seed0": args.seed0, "runs": runs, "digests": digests, "summary": summary}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"steady-{args.label}.json"
    path.write_text(json.dumps(out, indent=1))
    print_summary(summary, digests)
    print(f"\nsaved {path}")


def summarize(runs: dict[str, list[dict]]) -> dict:
    summary = {}
    for w, results in runs.items():
        rows = {}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            rows[m["name"]] = {"median": statistics.median(values), "spread": spread(values),
                               "bound": m["bound"], "unit": m["unit"]}
        summary[w] = {"metrics": rows, "failed_shares": sorted({r["failed"] / r["attempted"] for r in results})}
    return summary


def print_summary(summary: dict, digests: dict) -> None:
    print("| workload | metric | median | IQR/median | bound | within bound/3 |")
    print("|---|---|---|---|---|---|")
    for w, s in summary.items():
        for name, row in s["metrics"].items():
            ok = "yes" if row["spread"] <= row["bound"] / 3 else "NO"
            print(f"| {w} | {name} | {row['median']:.4g} {row['unit']} | {row['spread']:.3f} "
                  f"| {row['bound']} | {ok} |")
    for w, s in summary.items():
        print(f"{w}: failed share(s) {s['failed_shares']}; digests agree: {digests[w][0] == digests[w][1]}")


def compare(first_path: str, second_path: str) -> None:
    first = json.loads(Path(first_path).read_text())["summary"]
    second = json.loads(Path(second_path).read_text())["summary"]
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    print("| workload | metric | first median | second median | worse by | bound | ok |")
    print("|---|---|---|---|---|---|---|")
    for w in first:
        for name, a in first[w]["metrics"].items():
            b = second[w]["metrics"][name]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if better[name] == "lower" else -change
            print(f"| {w} | {name} | {a['median']:.4g} | {b['median']:.4g} | {worse:+.3f} "
                  f"| {a['bound']} | {'yes' if worse <= a['bound'] else 'NO'} |")
        print(f"{w}: failed shares {first[w]['failed_shares']} vs {second[w]['failed_shares']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        measure(args)


if __name__ == "__main__":
    main()
