"""Command-line front end: verification, sweeps, simulation, CSV output.

Exit codes: 0 success (including an audit that *finds* signaling, since
the finding is the product), 2 when a verification fails (a box breaks
its invariants or signals, or an angle carries no signal to repeat), 1
for usage errors (bad flags, malformed box CSV, unparseable expressions,
out-of-range values) and for a locality LP the solver could not finish.

Angles are radians unless --degrees is given. Numeric output uses 17
significant digits unless --digits asks for fewer. The default Monte Carlo
seed comes from the BOXWORLD_SEED environment variable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import boxes, dsl, hybrid, protocol, quantum

SEED_ENV_VAR = "BOXWORLD_SEED"
BUILTIN_BOXES = ("pr", "uniform")
# Largest --steps: 8 MB of angles and about 30 s of sweep.
MAX_STEPS = 10**6
# Largest --digits: 17 significant digits identify any float64.
MAX_DIGITS = 17


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this CLI reserves 2 for
    # verification failures, so remap.
    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _load_box(source: str, tol: float) -> boxes.ConditionalBox:
    if source == "pr":
        return boxes.pr_box()
    if source == "uniform":
        return boxes.uniform_box()
    path = Path(source)
    if not path.exists():
        raise _UsageError(f"unknown box {source!r}: not a builtin {BUILTIN_BOXES} or a file")
    try:
        # O_NONBLOCK: a named pipe with no writer opens at once and reads as
        # empty, instead of waiting in open for a writer.
        with open(
            path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)
        ) as handle:
            os.set_blocking(handle.fileno(), True)
            data = handle.read(boxes.MAX_CSV_BYTES + 1)  # bounded, even for /dev/zero
    except OSError as exc:
        raise _UsageError(f"cannot read box file {source!r}: {exc}") from exc
    if len(data) > boxes.MAX_CSV_BYTES:
        raise _UsageError(f"box file {source!r} is longer than {boxes.MAX_CSV_BYTES} bytes")
    return boxes.loads_csv(data.decode(), tol=tol)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _theta_grid(args) -> np.ndarray:
    """``np.linspace(theta_min, theta_max, steps)``, after checking the flags.

    --steps must lie in [1, MAX_STEPS], so the grid is at most 8 MB. One
    step is ``[theta_min]``, without linspace's arithmetic, which would
    overflow on a span that does not fit a float; a longer grid needs a
    finite span.
    """
    if args.steps < 1:
        raise _UsageError("--steps must be at least 1")
    if args.steps > MAX_STEPS:
        raise _UsageError(f"--steps must be at most {MAX_STEPS}")
    lo = _angle(args.theta_min, args.degrees)
    hi = _angle(args.theta_max, args.degrees)
    if args.steps == 1:
        return np.array([lo])
    if not math.isfinite(hi - lo):
        raise _UsageError("--theta-max minus --theta-min overflows a float")
    return np.linspace(lo, hi, args.steps)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_DIGITS} digits, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a tolerance >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no state in it."""
    parser = _ArgumentParser(prog="boxworld", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--digits", type=_digits, default=MAX_DIGITS, help="significant digits in output"
    )
    parser.add_argument("--output", type=Path, default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_theta(p, required=True):
        p.add_argument("--theta", type=_finite_float, required=required, help="angle (radians)")
        p.add_argument("--degrees", action="store_true", help="interpret angles as degrees")

    p = sub.add_parser("verify", help="box invariants and the marginal-independence check")
    p.add_argument("--box", default="pr", help="builtin name (pr, uniform) or CSV path")
    p.add_argument("--tol", type=_tolerance, default=None)

    p = sub.add_parser("chsh", help="CHSH functional of a binary box")
    p.add_argument("--box", default="pr")
    p.add_argument("--tol", type=_tolerance, default=None)

    p = sub.add_parser("local", help="local-polytope membership by LP")
    p.add_argument("--box", default="pr")
    p.add_argument("--tol", type=_tolerance, default=None)

    p = sub.add_parser("signal", help="marginal shift and witness basis at one angle")
    add_theta(p)

    p = sub.add_parser("scan", help="sweep angles; CSV of signaling magnitudes")
    p.add_argument("--theta-min", type=_finite_float, required=True)
    p.add_argument("--theta-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--degrees", action="store_true")

    p = sub.add_parser("repeat", help="rounds needed to reach a target success")
    add_theta(p)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the repetition protocol")
    add_theta(p)
    p.add_argument("--n", type=int, required=True, help="channel uses per shot")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or 0")

    p = sub.add_parser("audit", help="positivity/normalization/signaling of the effective box")
    p.add_argument("--theta", type=_finite_float, default=None)
    p.add_argument("--theta-min", type=_finite_float, default=None)
    p.add_argument("--theta-max", type=_finite_float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--degrees", action="store_true")

    p = sub.add_parser("parse", help="parse a state expression and evaluate it")
    p.add_argument("--expr", required=True)
    p.add_argument("--theta", type=_finite_float, default=None)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--dump-rho", action="store_true", help="emit the density operator as CSV")

    return parser


def _tol(args) -> float:
    # --tol defaults to None, so building the parser reads nothing from boxes.
    return boxes.DEFAULT_TOL if args.tol is None else args.tol


def cmd_verify(args, out) -> int:
    tol = _tol(args)
    box = _load_box(args.box, tol)
    report = boxes.check_no_signaling(box, tol=tol)
    ok = not report.signaling
    chsh_text = ""
    if box.table.shape == (2, 2, 2, 2):
        chsh_text = f"; CHSH = {_fmt(boxes.chsh_value(box), args.digits)}"
    status = "OK" if ok else "VIOLATED"
    print(f"no-signaling: {status}{chsh_text}", file=out)
    print(
        f"a->b violation = {_fmt(report.a_to_b_violation, args.digits)}; "
        f"b->a violation = {_fmt(report.b_to_a_violation, args.digits)}",
        file=out,
    )
    if not ok:
        direction, receiver, senders = report.worst_settings
        print(f"worst: {direction} at receiver input {receiver}, sender pair {senders}", file=out)
    return 0 if ok else 2


def cmd_chsh(args, out) -> int:
    box = _load_box(args.box, _tol(args))
    print(_fmt(boxes.chsh_value(box), args.digits), file=out)
    return 0


def cmd_local(args, out) -> int:
    tol = _tol(args)
    box = _load_box(args.box, tol)
    local, weights = boxes.is_local(box, tol=tol)
    print(f"local: {'true' if local else 'false'}", file=out)
    if local:
        print("weights: " + ",".join(_fmt(w, args.digits) for w in weights), file=out)
    return 0


def cmd_signal(args, out) -> int:
    theta = _angle(args.theta, args.degrees)
    report = hybrid.signaling_witness(theta)
    print(f"theta = {_fmt(theta, args.digits)}", file=out)
    print(f"a->b violation = {_fmt(report.a_to_b_violation, args.digits)}", file=out)
    for name, ket in zip(("witness[0]", "witness[1]"), report.witness_basis):
        amps = " ".join(
            f"{z.real:.{args.digits}g}{z.imag:+.{args.digits}g}j" for z in ket.amplitudes
        )
        print(f"{name} = {amps}", file=out)
    return 0


def cmd_scan(args, out) -> int:
    thetas = _theta_grid(args)
    print("theta,ab_violation,ba_violation", file=out)
    for rep in audit_mod.audit_sweep(thetas):
        print(
            f"{_fmt(rep.theta, args.digits)},{_fmt(rep.marginal_shift, args.digits)},"
            f"{_fmt(rep.b_to_a_violation, args.digits)}",
            file=out,
        )
    return 0


def cmd_repeat(args, out) -> int:
    theta = _angle(args.theta, args.degrees)
    max_n = protocol.MIN_ROUNDS_MAX_COPIES if args.max_n is None else args.max_n
    n = protocol.min_rounds(theta, args.target, max_n=max_n)
    print(f"n = {n}", file=out)
    return 0


def cmd_simulate(args, out) -> int:
    theta = _angle(args.theta, args.degrees)
    seed = args.seed if args.seed is not None else _default_seed()
    result = protocol.simulate(theta, args.n, args.shots, seed)
    print("theta,n,exact,empirical,shots,seed", file=out)
    print(
        f"{_fmt(result.theta, args.digits)},{result.n},"
        f"{_fmt(result.exact_success, args.digits)},"
        f"{_fmt(result.empirical_success, args.digits)},{result.shots},{result.seed}",
        file=out,
    )
    return 0


def cmd_audit(args, out) -> int:
    if args.theta is not None:
        thetas = [_angle(args.theta, args.degrees)]
    elif args.theta_min is not None and args.theta_max is not None and args.steps is not None:
        thetas = _theta_grid(args)
    else:
        raise _UsageError("audit needs --theta or all of --theta-min/--theta-max/--steps")
    print("theta,pos_ok,norm_ok,ab_violation,ba_violation", file=out)
    for rep in audit_mod.audit_sweep(thetas):
        print(
            f"{_fmt(rep.theta, args.digits)},"
            f"{'true' if rep.positivity_ok else 'false'},"
            f"{'true' if rep.normalization_ok else 'false'},"
            f"{_fmt(rep.a_to_b_violation, args.digits)},"
            f"{_fmt(rep.b_to_a_violation, args.digits)}",
            file=out,
        )
    return 0


def cmd_parse(args, out) -> int:
    expr = dsl.parse(args.expr)
    theta = _angle(args.theta, args.degrees) if args.theta is not None else None
    state = hybrid.distribute(expr, theta)
    rho = state.to_density() if args.dump_rho else None
    print(f"canonical: {dsl.format(expr)}", file=out)
    print(f"branches ({len(state.branches)}):", file=out)
    out.write(hybrid.dumps(state, digits=args.digits))
    if rho is not None:
        print("rho:", file=out)
        out.write(quantum.dumps_density_csv(rho, digits=args.digits))
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "chsh": cmd_chsh,
    "local": cmd_local,
    "signal": cmd_signal,
    "scan": cmd_scan,
    "repeat": cmd_repeat,
    "simulate": cmd_simulate,
    "audit": cmd_audit,
    "parse": cmd_parse,
}


def _exit_code(exc: Exception) -> int | None:
    """Exit code of an error a command may raise, or None for any other error.

    The first match wins, so the exit-2 verification errors come before
    ValueError, their base class. The layers' classes are read only here,
    once an error has happened, so a successful run loads no layer it
    does not use.
    """
    exit_codes = (
        (boxes.BoxValidationError, 2),
        (protocol.ZeroSignalError, 2),
        (_UsageError, 1),
        (boxes.LocalityLPError, 1),
        (ValueError, 1),  # BoxFormatError, ParseError, ExpressionError, bad values
    )
    return next((code for kind, code in exit_codes if isinstance(exc, kind)), None)


def main(argv=None) -> int:
    handle = None
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)
        out = sys.stdout
        if args.output is not None:
            try:
                handle = open(args.output, "w")
            except OSError as exc:
                raise _UsageError(f"cannot open output file: {exc}") from exc
            out = handle
        return _COMMANDS[args.command](args, out)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:  # a defect, not an input error: keep its traceback
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    finally:
        if handle is not None:
            handle.close()


if __name__ == "__main__":
    sys.exit(main())
