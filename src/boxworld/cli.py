"""Command-line front end: verification, sweeps, simulation, CSV output.

Exit codes: 0 success (including an audit that *finds* signaling, since
the finding is the product), 2 when a verification fails (a box breaks
its invariants or signals, or an angle carries no signal to repeat), 1
for usage errors (bad flags, malformed box CSV, unparseable expressions,
out-of-range values), for output that cannot be written, and for a
reader that closed the pipe early, which ends the run without a message.

Angles are radians unless --degrees is given. Numeric output uses 17
significant digits unless --digits asks for fewer. This module is the
only one that formats a printed figure: every one goes through the ``%``
pattern of ``_floats``, built once per command, and each line of figures
is one ``%``. The default Monte Carlo seed comes from the BOXWORLD_SEED
environment variable.

An argv that starts with a subcommand is parsed by that subcommand's
parser alone, in one argparse pass; any other argv by the top-level one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
from pathlib import Path

from . import audit as audit_mod
from . import boxes, dsl, hybrid, protocol
from .tolerance import DEFAULT_TOL

SEED_ENV_VAR = "BOXWORLD_SEED"
BUILTIN_BOXES = ("pr", "uniform")
# Largest --steps: the grid is formed one angle at a time, and a 10**6-angle
# scan or audit took 3.4-3.6 s, cold, writing to /dev/null, on a shared
# 2-vCPU VM.
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


def _floats(digits: int, n: int = 1, sep: str = ",") -> str:
    """The ``%`` pattern of ``n`` floats at ``digits`` significant digits,
    joined by ``sep``: the one form of every figure the commands print."""
    return sep.join([f"%.{digits}g"] * n)


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


# Why --output may not name the file --box reads, by the kind of that file.
# Opening a regular file for writing would empty it before it is read, and
# opening a named pipe would wait for a reader, which only this command
# could become; a device such as /dev/null does neither.
_BOX_CLASHES = {
    stat.S_IFREG: "file; writing would empty it",
    stat.S_IFIFO: "named pipe; opening it would wait for a reader",
}


def _box_clash(args) -> str | None:
    """The reason --output may not name the --box file, or None when it may."""
    box = getattr(args, "box", None)
    if box in (None, *BUILTIN_BOXES):
        return None
    try:
        same = os.path.samefile(box, args.output)
        kind = stat.S_IFMT(os.stat(box).st_mode)
    except OSError:  # one of them does not exist
        return None
    return _BOX_CLASHES.get(kind) if same else None


@contextlib.contextmanager
def _output_file(path: Path):
    """A handle that writes --output, whose file is replaced only once the
    command has returned, with 0 or 2: exit 2 is a report too.

    A regular file, or a path that does not exist, is written through a new
    file in the same directory as the file ``path`` names after its
    symlinks, which is moved over that file with ``os.replace`` on return
    and removed on an error: so a failed command leaves the file as it was.
    The new file takes the target's permission bits, or those a new file
    gets. Anything else, such as /dev/null, a pipe or a terminal, is written
    directly, and so is a path whose directory takes no new file, where
    ``open`` then reports any error.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None  # a new file
    except OSError:
        mode = 0  # which open reports
    temp = None
    if mode is None or stat.S_ISREG(mode):
        target = os.path.realpath(path)
        head, tail = os.path.split(target)
        name = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        try:
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass
        else:
            temp = name
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            handle = open(fd, "w")
    if temp is None:
        try:
            handle = open(path, "w")
        except OSError as exc:
            raise _UsageError(f"cannot open output file: {exc}") from exc
    try:
        with handle:  # closed here, so that a failed last write is reported
            yield handle
        if temp is not None:
            os.replace(temp, target)
            temp = None
    finally:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _protocol_angle(args) -> float:
    """--theta in radians for ``repeat`` and ``simulate``, whose protocol reads sin 2 theta."""
    theta = _angle(args.theta, args.degrees)
    if not math.isfinite(2.0 * theta):
        raise _UsageError(f"--theta {args.theta:g} is too large: twice it overflows a float")
    return theta


def _theta_grid(args):
    """The angles of ``np.linspace(theta_min, theta_max, steps)``, bit for
    bit, after checking the flags; each is formed when it is read.

    --steps must lie in [1, MAX_STEPS]. One step is ``[theta_min]``,
    without linspace's arithmetic, which would overflow on a span that does
    not fit a float; a longer grid needs a finite span.
    """
    if args.steps < 1:
        raise _UsageError("--steps must be at least 1")
    if args.steps > MAX_STEPS:
        raise _UsageError(f"--steps must be at most {MAX_STEPS}")
    lo = _angle(args.theta_min, args.degrees)
    hi = _angle(args.theta_max, args.degrees)
    if args.steps == 1:
        return [lo]
    if not math.isfinite(hi - lo):
        raise _UsageError("--theta-max minus --theta-min overflows a float")
    return _linspace(lo, hi, args.steps - 1)


def _linspace(lo: float, hi: float, div: int):
    """numpy's linspace of div intervals, one angle at a time: i * step + lo
    with step = (hi - lo)/div, or (i/div)(hi - lo) + lo where that step
    underflows to 0, and hi last."""
    span = hi - lo
    step = span / div
    for i in range(div):
        yield i * step + lo if step else (i / div) * span + lo
    yield hi


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
    """The CLI's parser, built once per process: ``parse_args`` keeps no state
    in it. Its ``commands`` maps each subcommand to that command's parser."""
    parser = _ArgumentParser(prog="boxworld", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--digits", type=_digits, default=MAX_DIGITS, help="significant digits in output"
    )
    parser.add_argument("--output", type=Path, default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    theta = [("--theta", _finite_float, "angle (radians)")]
    grid = [
        ("--theta-min", _finite_float, "first angle of the grid (radians)"),
        ("--theta-max", _finite_float, "last angle of the grid (radians)"),
        ("--steps", int, "angles in the grid"),
    ]

    def add_angles(p, flags, required=True):
        """The angle flags ``flags`` of one command, then its --degrees."""
        for flag, kind, text in flags:
            p.add_argument(flag, type=kind, required=required, help=text)
        p.add_argument("--degrees", action="store_true", help="interpret angles as degrees")

    for name, text in (
        ("verify", "box invariants and the marginal-independence check"),
        ("chsh", "CHSH functional of a binary box"),
        ("local", "local-polytope membership by LP"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--box", default="pr", help="builtin name (pr, uniform) or CSV path")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = sub.add_parser("signal", help="marginal shift and witness basis at one angle")
    add_angles(p, theta)

    p = sub.add_parser("scan", help="sweep angles; CSV of signaling magnitudes")
    add_angles(p, grid)

    p = sub.add_parser("repeat", help="rounds needed to reach a target success")
    add_angles(p, theta)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the repetition protocol")
    add_angles(p, theta)
    p.add_argument("--n", type=int, required=True, help="channel uses per shot")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or 0")

    p = sub.add_parser("audit", help="positivity/normalization/signaling of the effective box")
    add_angles(p, theta + grid, required=False)

    p = sub.add_parser("parse", help="parse a state expression and evaluate it")
    p.add_argument("--expr", required=True)
    add_angles(p, theta, required=False)
    p.add_argument("--dump-rho", action="store_true", help="emit the density operator as CSV")

    return parser


def cmd_verify(args, out) -> int:
    g = _floats(args.digits)
    report = boxes.check_no_signaling(args.box, tol=args.tol)
    ok = not report.signaling
    status = "no-signaling: " + ("OK" if ok else "VIOLATED")
    if args.box.shape == (2, 2, 2, 2):
        status += f"; CHSH = {g}" % boxes.chsh_value(args.box)
    print(status, file=out)
    violations = (report.a_to_b_violation, report.b_to_a_violation)
    print(f"a->b violation = {g}; b->a violation = {g}" % violations, file=out)
    if not ok:
        direction, receiver, senders = report.worst_settings
        print(f"worst: {direction} at receiver input {receiver}, sender pair {senders}", file=out)
    return 0 if ok else 2


def cmd_chsh(args, out) -> int:
    print(_floats(args.digits) % boxes.chsh_value(args.box), file=out)
    return 0


def cmd_local(args, out) -> int:
    local, weights = boxes.is_local(args.box, tol=args.tol)
    print(f"local: {'true' if local else 'false'}", file=out)
    if local:
        print("weights: " + _floats(args.digits, len(weights)) % tuple(weights), file=out)
    return 0


def cmd_signal(args, out) -> int:
    g = _floats(args.digits)
    theta = _angle(args.theta, args.degrees)
    row = next(audit_mod.audit_sweep([theta]))
    print(f"theta = {g}" % theta, file=out)
    print(f"a->b violation = {g}" % row.a_to_b_violation, file=out)
    for k, vector in enumerate(row.witness):
        print(f"witness[%d] = {g}+0j {g}+0j" % (k, *vector), file=out)
    return 0


def cmd_scan(args, out) -> int:
    thetas = _theta_grid(args)
    row = _floats(args.digits, 3) + "\n"
    out.write("theta,ab_violation,ba_violation\n")
    out.writelines(
        row % (r.theta, r.a_to_b_violation, r.b_to_a_violation)
        for r in audit_mod.audit_sweep(thetas)
    )
    return 0


def cmd_repeat(args, out) -> int:
    theta = _protocol_angle(args)
    max_n = protocol.MIN_ROUNDS_MAX_COPIES if args.max_n is None else args.max_n
    n = protocol.min_rounds(theta, args.target, max_n=max_n)
    print(f"n = {n}", file=out)
    return 0


def cmd_simulate(args, out) -> int:
    theta = _protocol_angle(args)
    seed = args.seed if args.seed is not None else _default_seed()
    r = protocol.simulate(theta, args.n, args.shots, seed)
    g = _floats(args.digits)
    print("theta,n,exact,empirical,shots,seed", file=out)
    row = (r.theta, r.n, r.exact_success, r.empirical_success, r.shots, r.seed)
    print(f"{g},%s,{g},{g},%s,%s" % row, file=out)
    return 0


def cmd_audit(args, out) -> int:
    grid = (args.theta_min, args.theta_max, args.steps)
    if args.theta is not None and grid == (None, None, None):
        thetas = [_angle(args.theta, args.degrees)]
    elif args.theta is None and None not in grid:
        thetas = _theta_grid(args)
    else:
        raise _UsageError("audit needs --theta alone or all of --theta-min/--theta-max/--steps")
    g = _floats(args.digits)
    row = f"{g},%s,%s,{g},{g}\n"
    verdict = ("false", "true")
    out.write("theta,pos_ok,norm_ok,ab_violation,ba_violation\n")
    out.writelines(
        row
        % (
            r.theta,
            verdict[r.positivity_ok],
            verdict[r.normalization_ok],
            r.a_to_b_violation,
            r.b_to_a_violation,
        )
        for r in audit_mod.audit_sweep(thetas)
    )
    return 0


def _re_im(values) -> list[float]:
    """The real and imaginary parts of complex ``values``, in order."""
    return [x for z in values for x in (z.real, z.imag)]


def cmd_parse(args, out) -> int:
    expr = dsl.parse(args.expr)
    theta = _angle(args.theta, args.degrees) if args.theta is not None else None
    state = hybrid.distribute(expr, theta)
    rho = state.to_density() if args.dump_rho else None
    print(f"canonical: {dsl.format(expr)}", file=out)
    print(f"branches ({len(state.branches)}):", file=out)
    # a branch line is "weight; re im re im ...", a rho row "re,im,re,im,..."
    parts = 2 << state.width
    branch = _floats(args.digits) + "; " + _floats(args.digits, parts, " ") + "\n"
    out.writelines(branch % (w, *_re_im(ket.amplitudes)) for w, ket in state.branches)
    if rho is not None:
        print("rho:", file=out)
        row = _floats(args.digits, parts) + "\n"
        out.writelines(row % tuple(_re_im(entries)) for entries in rho.matrix)
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


# The verification errors, which exit 2, by module and name: reading them off
# their layers would run a layer, protocol and numpy with it, that the
# failed command may not have used.
_VERIFICATION_ERRORS = {
    (f"{__package__}.boxes", "BoxValidationError"),
    (f"{__package__}.protocol", "ZeroSignalError"),
}


def _exit_code(exc: Exception) -> int | None:
    """Exit code of an error a command may raise, or None for any other error.

    The exit-2 verification errors are checked before ValueError, their
    base class, which exits 1 like the usage errors: BoxFormatError,
    ParseError, ExpressionError and out-of-range values are ValueErrors.
    """
    if {(k.__module__, k.__qualname__) for k in type(exc).__mro__} & _VERIFICATION_ERRORS:
        return 2
    return 1 if isinstance(exc, (_UsageError, ValueError)) else None


def _discard_stdout() -> None:
    """Point stdout's descriptor at /dev/null, so that the interpreter's
    last flush of what a failed write left in it cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # a replaced stdout, as under a test's capture
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one pass where argv starts
    with a subcommand.

    Then argparse's top-level pass would only classify every token before
    handing all of argv[1:] to that command's parser, so that parser reads
    them itself, into a namespace holding the command and the top-level
    defaults. Any other argv, such as one with --digits first, goes through
    the top-level parser. The one difference is the message for a token
    ``--=...`` after the subcommand: it is ambiguous among the command's
    options, where the top-level pass listed its own.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    namespace = argparse.Namespace(
        command=argv[0], digits=parser.get_default("digits"), output=parser.get_default("output")
    )
    return command.parse_args(argv[1:], namespace)


def main(argv=None) -> int:
    args = None
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        except SystemExit as exc:  # --help and friends
            sys.stdout.flush()
            return int(exc.code or 0)
        if args.output is not None and (clash := _box_clash(args)) is not None:
            raise _UsageError(f"--output {str(args.output)!r} is the --box {clash}")
        if getattr(args, "box", None) is not None:
            # read before --output is opened, so that a bad box leaves no file behind
            args.box = _load_box(args.box, args.tol)
        if args.output is None:
            code = _COMMANDS[args.command](args, sys.stdout)
            sys.stdout.flush()  # here, so that a failed write is reported below
            return code
        with _output_file(args.output) as handle:
            return _COMMANDS[args.command](args, handle)
    except OSError as exc:  # writing the output failed; reading a box is a usage error
        if args is None or args.output is None:
            _discard_stdout()
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        # else the reader left early, as `| head` does: stop quietly
        return 1
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:  # a defect, not an input error: keep its traceback
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
