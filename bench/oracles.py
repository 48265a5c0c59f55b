"""Expected values for every output the benchmark checks.

Nothing here imports ``boxworld``. Each expected value comes from a closed
form of the construction, exact rational arithmetic, or a theorem:

* the extended box's output and Bob's marginal, derived by hand from the
  a XOR b = A AND B relation (Popescu and Rohrlich, Found. Phys. 24, 379,
  1994) applied to (cos t |0> + sin t |1>) |1>;
* the n-copy distance D_n as an exact ``Fraction`` sum for small n, and as
  the binomial-tail difference P_p(K > k*) - P_1/2(K > k*) for large n;
* Fine's theorem (PRL 48, 291, 1982): a no-signaling binary box is local
  exactly when all 8 CHSH variants are at most 2;
* the density of an expression tree, expanded by the documented rules of
  the notation (coherent sums pair branches and add amplitudes, mixtures
  concatenate branches with equal shares).

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import bdtrc

SIGNAL_ATOL = 1e-12  # |sin 2t|/4 and the b->a residue, at double precision
BOX_ATOL = 1e-12  # CHSH and violation figures of a box read from CSV
SUCCESS_ATOL = 1e-9  # exact success column; the tail form loses ~1e-10
STEP_MARGIN = 1e-9  # generated targets stay this far from every success(n)
REBUILD_ATOL = 1e-6  # LP weights, which HiGHS meets to its 1e-7 feasibility
RHO_ATOL = 1e-12
WITNESS_ATOL = 1e-9
SIGMAS = 5.0
EXACT_MAX_N = 64  # D_n by Fraction arithmetic up to here, tail form beyond
NO_SIGNALING_TOL = 1e-9  # the CLI's default --tol


# ---------------------------------------------------------------- signal


def signal_violation(theta: float) -> float:
    """Trace distance of Bob's marginal from I/2: |sin 2t| / 4."""
    return abs(math.sin(2.0 * theta)) / 4.0


def bob_state(theta: float) -> np.ndarray:
    """Bob's reduced state 1/2 [[1, cs], [cs, 1]] with cs = cos t sin t."""
    cs = math.cos(theta) * math.sin(theta)
    return 0.5 * np.array([[1.0, cs], [cs, 1.0]])


def construction_table(theta: float) -> np.ndarray:
    """The audited effective box P(a, b | x, y) as an array ``[a, b, x, y]``.

    Input x = 1 rotates Alice's register by theta, x = 0 leaves it. The
    extended box maps c|01> + s|11> to the density (1/4) M with
    M = diag(2c^2, 2s^2, 2s^2, 2c^2) plus cs on the (00,01), (00,10),
    (11,01), (11,10) entries. Alice reads Z; Bob reads Z (y = 0) or
    X (y = 1), which gives the closed forms below.
    """
    t = np.zeros((2, 2, 2, 2))
    for x, angle in ((0, 0.0), (1, theta)):
        c, s = math.cos(angle), math.sin(angle)
        cs = c * s
        t[:, :, x, 0] = [[c * c / 2, s * s / 2], [s * s / 2, c * c / 2]]
        t[:, :, x, 1] = [[0.25 + cs / 4, 0.25 - cs / 4], [0.25 + cs / 4, 0.25 - cs / 4]]
    return t


def check_scan_rows(rows: list[list[str]], thetas: list[float]) -> list[str]:
    """``scan`` CSV rows against the expected grid and |sin 2t|/4."""
    problems = []
    if len(rows) != len(thetas):
        return [f"scan: {len(rows)} rows for {len(thetas)} angles"]
    for row, expected in zip(rows, thetas):
        if len(row) != 3:
            problems.append(f"scan: malformed row {row}")
            continue
        theta, ab, ba = (float(v) for v in row)
        if abs(theta - expected) > 1e-12 * max(1.0, abs(expected)):
            problems.append(f"scan: theta {theta!r} != {expected!r}")
        if abs(ab - signal_violation(theta)) > SIGNAL_ATOL:
            problems.append(f"scan: a->b {ab!r} at theta {theta!r}")
        if not 0.0 <= ba <= SIGNAL_ATOL:
            problems.append(f"scan: b->a {ba!r} at theta {theta!r}")
    return problems


def check_audit_rows(rows: list[list[str]], thetas: list[float]) -> list[str]:
    """``audit`` CSV rows: positive, normalized, a->b = |sin 2t|/4, b->a ~ 0."""
    problems = []
    if len(rows) != len(thetas):
        return [f"audit: {len(rows)} rows for {len(thetas)} angles"]
    for row, expected in zip(rows, thetas):
        if len(row) != 5:
            problems.append(f"audit: malformed row {row}")
            continue
        theta = float(row[0])
        if abs(theta - expected) > 1e-12 * max(1.0, abs(expected)):
            problems.append(f"audit: theta {theta!r} != {expected!r}")
        if row[1] != "true" or row[2] != "true":
            problems.append(f"audit: pos_ok/norm_ok {row[1]}/{row[2]} at theta {theta!r}")
        if abs(float(row[3]) - signal_violation(theta)) > SIGNAL_ATOL:
            problems.append(f"audit: a->b {row[3]} at theta {theta!r}")
        if not 0.0 <= float(row[4]) <= SIGNAL_ATOL:
            problems.append(f"audit: b->a {row[4]} at theta {theta!r}")
    return problems


def check_witness(theta: float, ab: float, witness: list[np.ndarray]) -> list[str]:
    """``signal``: the violation, and the witness basis as the eigenbasis of
    Bob's marginal shift bob_state(t) - bob_state(0), largest eigenvalue first."""
    problems = []
    if abs(ab - signal_violation(theta)) > SIGNAL_ATOL:
        problems.append(f"signal: a->b {ab!r} at theta {theta!r}")
    evals, evecs = np.linalg.eigh(bob_state(theta) - bob_state(0.0))
    if abs(evals[1] - evals[0]) > 1e-6:  # the basis is defined only where the marginal moves
        for k, idx in enumerate((1, 0)):
            if abs(abs(np.vdot(evecs[:, idx], witness[k])) - 1.0) > WITNESS_ATOL:
                problems.append(f"signal: witness[{k}] {witness[k]} is not {evecs[:, idx]} up to phase")
    return problems


# ---------------------------------------------------------------- repetition


def coherence(theta: float) -> float:
    """cs = sin(2t)/2, computed as the protocol does so both see one float."""
    return 0.5 * math.sin(2.0 * theta)


def copy_distance_exact(cs: Fraction, n: int) -> Fraction:
    """D_n = 1/2 sum_k C(n, k) |p^k q^(n-k) - 2^-n| in exact arithmetic."""
    p = (1 + Fraction(cs)) / 2
    q = 1 - p
    flat = Fraction(1, 2**n)
    return sum(
        (math.comb(n, k) * abs(p**k * q ** (n - k) - flat) for k in range(n + 1)), Fraction(0)
    ) / 2


def copy_distance_tail(cs: float, n: int) -> float:
    """D_n as P_p(K > k*) - P_1/2(K > k*) with the likelihood threshold k*.

    With p = (1 + |cs|)/2 the rotated likelihood beats the flat one exactly
    when k > k* = -n ln(2q) / (ln 2p - ln 2q); the sign of cs only swaps
    which outcome is counted.
    """
    a = abs(cs)
    p = 0.5 * (1.0 + a)
    kstar = math.floor(-n * math.log1p(-a) / (math.log1p(a) - math.log1p(-a)))
    return float(bdtrc(kstar, n, p) - bdtrc(kstar, n, 0.5))


def success(cs: float, n: int) -> float:
    """Optimal n-copy success 1/2 + D_n/2 for the float coherence ``cs``."""
    if n <= EXACT_MAX_N:
        return float(Fraction(1, 2) + copy_distance_exact(Fraction(cs), n) / 2)
    return 0.5 + 0.5 * copy_distance_tail(cs, n)


def check_repeat(theta: float, target: float, n: int) -> list[str]:
    """``repeat``: success(n) >= target > success(n - 1)."""
    cs = coherence(theta)
    problems = []
    if n < 1:
        return [f"repeat: n = {n}"]
    if success(cs, n) < target:
        problems.append(f"repeat: success({n}) = {success(cs, n)!r} < target {target!r}")
    if n > 1 and success(cs, n - 1) >= target:
        problems.append(f"repeat: success({n - 1}) already reaches {target!r}")
    return problems


def check_simulate(theta: float, n: int, shots: int, exact: float, empirical: float) -> list[str]:
    """``simulate``: exact column matches the oracle, empirical within 5 sigma."""
    want = success(coherence(theta), n)
    problems = []
    if abs(exact - want) > SUCCESS_ATOL:
        problems.append(f"simulate: exact {exact!r} != {want!r} (theta {theta!r}, n {n})")
    sigma = math.sqrt(max(want * (1.0 - want), 1e-12) / shots)
    if abs(empirical - want) > SIGMAS * sigma:
        problems.append(f"simulate: empirical {empirical!r} is {abs(empirical - want) / sigma:.1f} sigma off")
    return problems


# ---------------------------------------------------------------- boxes


def deterministic_vertices() -> np.ndarray:
    """Vertex v = 8 a(0) + 4 a(1) + 2 b(0) + b(1), as documented by ``is_local``."""
    verts = np.zeros((16, 2, 2, 2, 2))
    for v in range(16):
        a_of = ((v >> 3) & 1, (v >> 2) & 1)
        b_of = ((v >> 1) & 1, v & 1)
        for x in (0, 1):
            for y in (0, 1):
                verts[v, a_of[x], b_of[y], x, y] = 1.0
    return verts


def correlators(table: np.ndarray) -> np.ndarray:
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return np.einsum("ab,abxy->xy", sign, table)


def chsh(table: np.ndarray) -> float:
    e = correlators(table)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def chsh_variants(table: np.ndarray) -> list[float]:
    """The 8 CHSH expressions: the minus sign on any of 4 terms, either overall sign."""
    e = correlators(table)
    total = e.sum()
    out = []
    for x in (0, 1):
        for y in (0, 1):
            s = float(total - 2.0 * e[x, y])
            out.extend((s, -s))
    return out


def violations(table: np.ndarray) -> tuple[float, float]:
    """(a->b, b->a) as the largest total-variation shift of the other side's marginal."""
    bob = table.sum(axis=0)  # [b, x, y]
    alice = table.sum(axis=1)  # [a, x, y]
    ab = max(0.5 * float(np.abs(bob[:, 0, y] - bob[:, 1, y]).sum()) for y in (0, 1))
    ba = max(0.5 * float(np.abs(alice[:, x, 0] - alice[:, x, 1]).sum()) for x in (0, 1))
    return ab, ba


def is_local(table: np.ndarray) -> bool:
    """Fine's theorem, with signaling boxes outside the local polytope."""
    if max(violations(table)) > NO_SIGNALING_TOL:
        return False
    return max(chsh_variants(table)) <= 2.0 + 1e-12


def check_verify(table: np.ndarray, out: str, code: int) -> list[str]:
    ab, ba = violations(table)
    ok = max(ab, ba) <= NO_SIGNALING_TOL
    lines = out.splitlines()
    problems = []
    want_code = 0 if ok else 2
    if code != want_code:
        problems.append(f"verify: exit {code}, expected {want_code}")
    if not lines or not lines[0].startswith(f"no-signaling: {'OK' if ok else 'VIOLATED'}; CHSH = "):
        return problems + [f"verify: status line {lines[:1]}"]
    got_chsh = float(lines[0].rsplit("= ", 1)[1])
    if abs(got_chsh - chsh(table)) > BOX_ATOL:
        problems.append(f"verify: CHSH {got_chsh!r} != {chsh(table)!r}")
    fields = lines[1].replace("a->b violation = ", "").replace(" b->a violation = ", "").split(";")
    got_ab, got_ba = float(fields[0]), float(fields[1])
    if abs(got_ab - ab) > BOX_ATOL or abs(got_ba - ba) > BOX_ATOL:
        problems.append(f"verify: violations {got_ab!r}, {got_ba!r} != {ab!r}, {ba!r}")
    if ok != (len(lines) == 2):
        problems.append(f"verify: {len(lines)} lines for a box that is {'' if ok else 'not '}no-signaling")
    return problems


def check_chsh(table: np.ndarray, out: str, code: int) -> list[str]:
    if code != 0:
        return [f"chsh: exit {code}"]
    got = float(out.strip())
    return [] if abs(got - chsh(table)) <= BOX_ATOL else [f"chsh: {got!r} != {chsh(table)!r}"]


def check_local(table: np.ndarray, out: str, code: int) -> list[str]:
    """``local``: the verdict by Fine's theorem; certifying weights rebuild the box."""
    if code != 0:
        return [f"local: exit {code}"]
    lines = out.splitlines()
    local = is_local(table)
    if lines[0] != f"local: {'true' if local else 'false'}":
        return [f"local: {lines[0]!r}, Fine's theorem says {local}"]
    if not local:
        return [] if len(lines) == 1 else ["local: weights printed for a non-local box"]
    return check_weights(table, [float(w) for w in lines[1].removeprefix("weights: ").split(",")])


def check_weights(table: np.ndarray, weights: list[float]) -> list[str]:
    w = np.array(weights)
    if w.shape != (16,):
        return [f"local: {w.size} weights"]
    problems = []
    if w.min() < -REBUILD_ATOL or abs(w.sum() - 1.0) > REBUILD_ATOL:
        problems.append(f"local: weights not a distribution (min {w.min()!r}, sum {w.sum()!r})")
    rebuilt = np.einsum("v,vabxy->abxy", w, deterministic_vertices())
    if np.max(np.abs(rebuilt - table)) > REBUILD_ATOL:
        problems.append(f"local: weights rebuild the box only to {np.max(np.abs(rebuilt - table)):.3g}")
    return problems


def box_csv(table: np.ndarray) -> str:
    """``A,B,a,b,p`` text for a table indexed ``[a, b, A, B]``."""
    rows = ["A,B,a,b,p"]
    for x in range(table.shape[2]):
        for y in range(table.shape[3]):
            for a in range(table.shape[0]):
                for b in range(table.shape[1]):
                    rows.append(f"{x},{y},{a},{b},{float(table[a, b, x, y])!r}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------- expressions


def branches(tree, theta: float | None) -> tuple[int, list[tuple[float, np.ndarray]]]:
    """Expand a generator tree into (width, [(weight, amplitudes)]).

    Trees are ``("ket", label)``, ``("scaled", text, child)``,
    ``("coh", children)`` and ``("inc", children)``.
    """
    kind = tree[0]
    if kind == "ket":
        amps = np.zeros(2 ** len(tree[1]), dtype=complex)
        amps[int(tree[1], 2)] = 1.0
        return len(tree[1]), [(1.0, amps)]
    if kind == "scaled":
        width, inner = branches(tree[2], theta)
        f = scalar_value(tree[1], theta)
        return width, [(w, f * a) for w, a in inner]
    parts = [branches(child, theta) for child in tree[1]]
    width = parts[0][0]
    if kind == "inc":
        share = 1.0 / len(parts)
        return width, [(share * w, a) for _, bs in parts for w, a in bs]
    acc = parts[0][1]
    for _, bs in parts[1:]:
        acc = [(wl * wr, al + ar) for wl, al in acc for wr, ar in bs]
    return width, acc


def scalar_value(text: str, theta: float | None) -> complex:
    if text == "c":
        return complex(math.cos(theta))
    if text == "s":
        return complex(math.sin(theta))
    if text.startswith("1/sqrt("):
        return complex(1.0 / math.sqrt(float(text[7:-1])))
    if text.startswith("sqrt("):
        return complex(math.sqrt(float(text[5:-1])))
    if "/" in text:
        num, den = text.split("/")
        return complex(float(num) / float(den))
    return complex(float(text))


def density(tree, theta: float | None) -> np.ndarray:
    _, bs = branches(tree, theta)
    rho = sum(w * np.outer(a, a.conj()) for w, a in bs)
    return rho / rho.trace().real


def check_parse(tree, theta: float | None, out: str, code: int) -> list[str]:
    """``parse --dump-rho``: branch count and density match the tree's expansion."""
    if code != 0:
        return [f"parse: exit {code}"]
    lines = out.splitlines()
    _, bs = branches(tree, theta)
    head = f"branches ({len(bs)}):"
    if not lines[0].startswith("canonical: ") or lines[1] != head:
        return [f"parse: header {lines[:2]}, expected {head!r}"]
    rho_at = lines.index("rho:")
    got = np.array(
        [[complex(float(r), float(i)) for r, i in zip(f[0::2], f[1::2])]
         for f in (line.split(",") for line in lines[rho_at + 1:])]
    )
    want = density(tree, theta)
    if got.shape != want.shape or np.max(np.abs(got - want)) > RHO_ATOL:
        return [f"parse: rho differs from the tree's density by "
                f"{np.max(np.abs(got - want)) if got.shape == want.shape else got.shape}"]
    return []


def check_error(out_err: str, code: int, want_code: int) -> list[str]:
    """A rejected input: the documented exit code and one ``error:`` line on stderr."""
    lines = out_err.splitlines()
    if code != want_code or len(lines) != 1 or not lines[0].startswith("error: "):
        return [f"expected exit {want_code} with one error line, got exit {code}: {lines[:3]}"]
    return []
