"""Benchmark of the boxworld command line, end to end or layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --digest

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, so each commit measures its own code. Every workload
is a closed loop: one client, one thread, and the next operation starts
when the previous one returns. Whole rounds of operations run until the
nearest round boundary to ``--seconds``. Every time is corrected for the
machine's speed at the moment it was taken (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs rounds in
pairs, the first untraced and the second with every public function of
the layers wrapped (see ``tracer.py``), and prints the per-layer metrics
of the traced rounds plus the tracing overhead against the untraced
ones. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--digest`` runs the
first round once and prints a hash of its inputs and outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
IMPORT_SAMPLES = 5
# The tail percentile is fixed per workload, so that a slower or faster
# program reports the same quantity. p90 was picked for steadiness: it
# leaves 28 or more of the 280 to 4300 ops an in-process run times beyond
# it. cli_cold times only 18 to 36 subprocesses in a run; p90 of those rests on
# two to four values, so there the tail is p75.
TAIL_PERCENTILE = {"cli_cold": 75, "angle_sweep": 90, "repetition": 90, "user_inputs": 90}
CALL_TIMEOUT_S = 120
IN_PROCESS = ("angle_sweep", "repetition", "user_inputs")

import speed  # noqa: E402  (bench/ is on sys.path as the script's directory)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class OpFailed(Exception):
    """The CLI did not return: an exception escaped it."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------- callers


class InProcess:
    """``cli.main`` in this interpreter, stdout and stderr captured."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from boxworld import cli

        self.cli = cli
        self.tracer: tracing.Tracer | None = None

    def __call__(self, argv: list[str]) -> tuple[str, str, int]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)  # looked up per call, so the tracer's wrapper is seen
        return out.getvalue(), err.getvalue(), code

    def start_trace(self) -> None:
        self.tracer = self.tracer or tracing.Tracer()
        self.tracer.install()

    def stop_trace(self) -> None:
        self.tracer.uninstall()

    def totals(self) -> dict:
        return self.tracer.snapshot() if self.tracer else {}


class Subprocess:
    """A fresh ``python -m boxworld`` per call; traced calls go through ``child.py``."""

    def __init__(self, scratch: Path) -> None:
        self.env = child_env()
        self.snapshot_path = scratch / "child-trace.json"
        self.traced = False
        self.merged: dict = {}

    def __call__(self, argv: list[str]) -> tuple[str, str, int]:
        if self.traced:
            cmd = [sys.executable, str(HERE / "child.py"), str(self.snapshot_path), *argv]
        else:
            cmd = [sys.executable, "-m", "boxworld", *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        if "Traceback (most recent call last)" in proc.stderr:
            raise OpFailed(proc.stderr.strip().splitlines()[-1])
        if self.traced:
            tracing.merge(self.merged, json.loads(self.snapshot_path.read_text()))
        return proc.stdout, proc.stderr, proc.returncode

    def start_trace(self) -> None:
        self.traced = True

    def stop_trace(self) -> None:
        self.traced = False

    def totals(self) -> dict:
        return self.merged


# ---------------------------------------------------------------- set-up


def import_split(stderr: str) -> dict[str, float]:
    """Self time in ms per top-level package, from ``-X importtime`` lines."""
    split: Counter = Counter()
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line.split(":", 1)[1].split("|")
        split[name.strip().split(".")[0]] += int(self_us) / 1e3
    return split


def fresh_interpreters(code: str, importtime: bool = False) -> tuple[float, list[dict]]:
    """Median corrected wall seconds of ``python -c code`` over several fresh
    interpreters, and with ``importtime`` the corrected split of each."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]
    walls, splits = [], []
    before = speed.factor()
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        wall = time.perf_counter() - start
        after = speed.factor()
        f = 0.5 * (before + after)
        before = after
        walls.append(wall / f)
        if proc.returncode != 0:
            sys.exit(f"bench: `{code}` failed in a fresh interpreter:\n{proc.stderr[-2000:]}")
        if importtime:
            splits.append({pkg: ms / f for pkg, ms in import_split(proc.stderr).items()})
    return statistics.median(walls), splits


# ---------------------------------------------------------------- measuring


class Tally:
    """Everything one phase measured, plus the checks of every output."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # corrected for machine speed, as all times below
        self.op_seconds = 0.0
        self.raw_op_seconds = 0.0
        self.factors: list[float] = []  # machine speed around each op, see speed.py
        self.speed: float | None = None  # the kernel's last reading
        self.round_seconds: list[float] = []
        self.attempted = 0
        self.failed: Counter = Counter()
        self.problems: list[str] = []
        self.output_bytes = 0
        self.rows = 0
        self.pr_extend_in_rows = 0
        self.digest = hashlib.sha256()


def run_op(op: workloads.Op, call, tally: Tally) -> None:
    for path, text in op.files.items():
        # A new file, not a truncated one: ext4 starts writeback when a file
        # with data is truncated, so rewriting it in place blocks on the disk
        # once per op. A file unlinked while young never reaches the disk.
        Path(path).unlink(missing_ok=True)
        Path(path).write_text(text)
    before = call.totals().get("calls", {}).get("hybrid.pr_extend", 0)
    if getattr(call, "tracer", None):
        call.tracer.op = tally.attempted
    tally.attempted += 1
    if tally.speed is None:
        tally.speed = speed.factor()
    start = time.perf_counter()
    try:
        result = op.run(call)
    except Exception as exc:  # an exception escaping the CLI is a failed op
        elapsed = time.perf_counter() - start
        tally.op_seconds += elapsed / machine_speed(tally, elapsed)
        tally.failed[f"{op.kind}: {type(exc).__name__}"] += 1
        tally.digest.update(f"{op.kind} failed {type(exc).__name__}\n".encode())
        return
    elapsed = time.perf_counter() - start
    elapsed /= machine_speed(tally, elapsed)
    tally.latencies.append(elapsed)
    tally.op_seconds += elapsed
    rows = 0
    for argv, out, err, code in result:
        tally.output_bytes += len(out.encode())
        tally.digest.update(json.dumps([argv, out, err, code]).encode())
        if argv[0] in ("scan", "audit") and code == 0:
            rows += max(out.count("\n") - 1, 0)
    if rows:
        tally.rows += rows
        tally.pr_extend_in_rows += call.totals().get("calls", {}).get("hybrid.pr_extend", 0) - before
    try:
        problems = op.check(result)
    except Exception as exc:  # an output the check cannot even read
        problems = [f"{op.kind}: unreadable output ({exc!r})"]
    tally.problems.extend(problems)


def machine_speed(tally: Tally, raw_seconds: float) -> float:
    """The kernel's mean reading just before and just after an op."""
    after = speed.factor()
    f = 0.5 * (tally.speed + after)
    tally.speed = after
    tally.factors.append(f)
    tally.raw_op_seconds += raw_seconds
    return f


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_rounds(rounds, seconds: float, call, max_rounds: int | None = None,
               traced: bool = False) -> tuple[Tally, Tally, int]:
    """Whole rounds until the round boundary nearest to ``seconds``.

    Returns the untraced and the traced tally. With ``traced``, rounds run
    in pairs, the second of each under the tracer, so that machine drift
    falls on both tallies alike; otherwise the traced tally stays empty.
    """
    plain, under_trace = Tally(), Tally()
    step = 2 if traced else 1
    start = time.perf_counter()
    r = 0

    def one_round(tally: Tally) -> None:
        before = tally.op_seconds
        for op in rounds(r):
            run_op(op, call, tally)
        tally.round_seconds.append(tally.op_seconds - before)

    while True:
        one_round(plain)
        r += 1
        if traced:
            call.start_trace()
            try:
                one_round(under_trace)
            finally:
                call.stop_trace()
            r += 1
        elapsed = time.perf_counter() - start
        if r == max_rounds or (max_rounds is None and elapsed + 0.5 * elapsed / (r / step) >= seconds):
            return plain, under_trace, r


def end_to_end(tally: Tally, setup_s: float, workload: str) -> dict:
    q = statistics.quantiles(tally.latencies, n=100, method="inclusive")
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return {
        "ops_per_s": (len(tally.latencies) / tally.op_seconds, "ops/s"),
        "op_latency_p50_ms": (1e3 * q[49], "ms"),
        "op_latency_tail_ms": (1e3 * q[TAIL_PERCENTILE[workload] - 1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(totals: dict, tally: Tally, imports: dict, overhead_pct: float) -> dict:
    calls = totals.get("calls", {})
    work = totals.get("work", {})
    # Span times are corrected by the median machine speed of the traced ops.
    scale = 1.0 / statistics.median(tally.factors)
    secs = {k: v * scale for k, v in totals.get("seconds", {}).items()}
    self_s = {k: v * scale for k, v in totals.get("self_seconds", {}).items()}
    ops = tally.attempted

    def count(name):
        return (calls.get(name, 0) / ops, "calls/op")

    def ms(name):
        return (1e3 * secs.get(name, 0.0) / ops, "ms/op")

    shots_s = secs.get("protocol.simulate", 0.0)
    m = {
        "import.python_start_ms": (imports["python"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
        "import.boxworld_ms": (imports["boxworld"], "ms"),
        "cli.main_calls": count("cli.main"),
        "cli.main_self_ms": (1e3 * self_s.get("cli", 0.0) / ops, "ms/op"),
        "cli.output_bytes": (tally.output_bytes / ops, "bytes/op"),
        "dsl.parse_calls": count("dsl.parse"),
        "dsl.parse_ms": ms("dsl.parse"),
        "dsl.format_ms": ms("dsl.format"),
        "dsl.input_bytes": (work.get("dsl.parse.bytes", 0) / ops, "bytes/op"),
        "hybrid.pr_extend_calls": count("hybrid.pr_extend"),
        "hybrid.pr_extend_branches": (work.get("hybrid.pr_extend.branches", 0) / ops, "branches/op"),
        "hybrid.pr_extend_ms": ms("hybrid.pr_extend"),
        "hybrid.to_density_ms": ms("hybrid.HybridState.to_density"),
        "hybrid.signaling_witness_ms": ms("hybrid.signaling_witness"),
        "hybrid.distribute_ms": ms("hybrid.distribute"),
        "hybrid.pr_extend_per_row": (tally.pr_extend_in_rows / tally.rows if tally.rows else 0.0, "calls/row"),
        "quantum.density_constructed": count("quantum.DensityOperator.__post_init__"),
        "quantum.density_validate_ms": ms("quantum.DensityOperator.__post_init__"),
        "quantum.unitary_constructed": count("quantum.Unitary.__post_init__"),
        "quantum.tensor_calls": count("quantum.tensor"),
        "quantum.tensor_ms": ms("quantum.tensor"),
        "quantum.measure_probs_ms": ms("quantum.measure_probs"),
        "quantum.partial_trace_ms": ms("quantum.partial_trace"),
        "quantum.trace_distance_ms": ms("quantum.trace_distance"),
        "boxes.box_constructed": count("boxes.ConditionalBox.__post_init__"),
        "boxes.box_construct_ms": ms("boxes.ConditionalBox.__post_init__"),
        "boxes.check_no_signaling_ms": ms("boxes.check_no_signaling"),
        "boxes.chsh_value_ms": ms("boxes.chsh_value"),
        "boxes.loads_csv_ms": ms("boxes.loads_csv"),
        "boxes.is_local_calls": count("boxes.is_local"),
        "boxes.is_local_ms": ms("boxes.is_local"),
        "protocol.min_rounds_calls": count("protocol.min_rounds"),
        "protocol.min_rounds_ms": ms("protocol.min_rounds"),
        "protocol.copy_distance_calls": count("protocol.copy_distance"),
        "protocol.copy_distance_terms": (work.get("protocol.copy_distance.terms", 0) / ops, "terms/op"),
        "protocol.simulate_ms": ms("protocol.simulate"),
        "protocol.simulate_shots_per_s": (work.get("protocol.simulate.shots", 0) / shots_s if shots_s else 0.0, "shots/s"),
        "audit.audit_dynamics_calls": count("audit.audit_dynamics"),
        "audit.audit_dynamics_ms": ms("audit.audit_dynamics"),
        "audit.effective_box_ms": ms("audit.effective_box"),
    }
    for layer in tracing.LAYERS[1:]:
        m[f"{layer}.self_ms"] = (1e3 * self_s.get(layer, 0.0) / ops, "ms/op")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


# ---------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true", help="hash one round's outputs and exit")
    args = parser.parse_args()
    if not (SRC / "boxworld" / "__init__.py").is_file():
        print(f"bench: no boxworld package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2

    # One CPU for this process and every interpreter it starts, so that the
    # speed kernel reads the vCPU the measured work ran on: the vCPUs of a
    # shared host change speed independently, within a second.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # CSV inputs go under a fixed path relative to the checkout root, so the
    # arguments and error messages they appear in repeat from run to run.
    os.chdir(ROOT)
    scratch = RESULTS.relative_to(ROOT) / f"scratch-{args.workload}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    traced = bool(args.trace)
    if args.digest:
        import_s, splits = 0.0, []
    else:
        import_s, splits = fresh_interpreters("import boxworld", importtime=traced)
    gen_start = time.perf_counter()
    first = workloads.make_round(args.workload, args.seed, 0, scratch)
    setup_s = import_s + (time.perf_counter() - gen_start)

    def rounds(r: int):
        return first if r == 0 else workloads.make_round(args.workload, args.seed, r, scratch)

    call = InProcess() if args.workload in IN_PROCESS else Subprocess(scratch)

    if args.digest:
        tally, _, _ = run_rounds(rounds, 0.0, call, max_rounds=1)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "digest": tally.digest.hexdigest(), "ops": tally.attempted}))
        return 0

    plain, tally, n_rounds = run_rounds(rounds, args.seconds, call, traced=traced)
    phases = [plain, tally]
    if not traced:
        tally = plain
        metrics = end_to_end(tally, setup_s, args.workload)
    else:
        # Every round holds the same ops, so a traced round is compared with
        # the untraced round just before it; the median drops round 0's warm-up.
        overhead = 100.0 * (statistics.median(
            t / p for p, t in zip(plain.round_seconds, tally.round_seconds)) - 1.0)
        python_s, _ = fresh_interpreters("pass")
        imports = {"python": 1e3 * python_s}
        for pkg in ("numpy", "scipy", "boxworld"):
            imports[pkg] = statistics.median(s.get(pkg, 0.0) for s in splits)
        metrics = per_layer(call.totals(), tally, imports, overhead)
        write_trace(args, call, tally, metrics)

    attempted = sum(p.attempted for p in phases)
    failed = sum(sum(p.failed.values()) for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    n = len(tally.latencies)
    tail = TAIL_PERCENTILE[args.workload]
    print(f"bench: {args.workload} seed {args.seed}: {n_rounds} rounds, {tally.attempted} ops, "
          f"{n} timed, {n - int(n * tail / 100)} beyond p{tail}; failed {dict(tally.failed)}; "
          f"machine speed factor median {statistics.median(tally.factors):.3f} "
          f"(IQR/median {spread(tally.factors):.3f}); time in ops {tally.raw_op_seconds:.3f} s "
          f"as measured, {tally.op_seconds:.3f} s corrected", file=sys.stderr)
    for msg in problems[:10]:
        print(f"bench: WRONG {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_trace(args, call, tally: Tally, metrics: dict) -> None:
    """Counters, per-layer metrics and the first spans, for reading after the run."""
    spans = call.tracer.spans if isinstance(call, InProcess) else []
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops": tally.attempted,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "totals": call.totals(),
        "spans": [dict(zip(("op", "id", "parent", "name", "start", "end"), s)) for s in spans],
    }, indent=1))


if __name__ == "__main__":
    sys.exit(main())
