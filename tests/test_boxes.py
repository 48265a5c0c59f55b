import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxworld import boxes
from boxworld.audit import effective_box
from boxworld.boxes import (
    DEFAULT_TOL,
    MAX_PAIR_ENTRIES,
    BoxFormatError,
    BoxValidationError,
    ConditionalBox,
    check_no_signaling,
    chsh_value,
    deterministic_vertices,
    is_local,
    loads_csv,
    pr_box,
    uniform_box,
)
from reference import (
    Relabeling,
    _a_to_b_gaps,
    _b_to_a_gaps,
    array_simplex,
    dumps_csv,
    relabel,
    table_deviations,
)
from reference import _lp_data as array_lp_data

# The deterministic boxes as a (16, 16) array, rows flattened in (a, b, A, B) order.
VERTS = np.array(deterministic_vertices())


def _random_relabeling(rng) -> Relabeling:
    def perm(k):
        return tuple(rng.permutation(k))

    return Relabeling(
        a_in=perm(2),
        b_in=perm(2),
        a_out=(perm(2), perm(2)),
        b_out=(perm(2), perm(2)),
    )


def _random_local_box(rng) -> tuple[ConditionalBox, np.ndarray]:
    w = rng.random(16)
    w /= w.sum()
    table = (w @ VERTS).reshape(2, 2, 2, 2)
    return ConditionalBox(table), w


def _all_chsh_values(box) -> np.ndarray:
    """All 8 sign variants of the CHSH functional."""
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    corr = np.einsum("ab,abAB->AB", sign, np.array(box.table))
    values = []
    for flipped in range(4):
        s = 0.0
        for idx, (A, B) in enumerate(itertools.product(range(2), repeat=2)):
            s += (-1 if idx == flipped else 1) * corr[A, B]
        values.extend([s, -s])
    return np.array(values)


def _pr_variant(k: int) -> np.ndarray:
    """Relabeled PR box k = 4 alpha + 2 beta + gamma: a XOR b = AB ^ alpha A ^ beta B ^ gamma."""
    alpha, beta, gamma = k >> 2 & 1, k >> 1 & 1, k & 1
    t = np.zeros((2, 2, 2, 2))
    for a, b, A, B in itertools.product(range(2), repeat=4):
        if a ^ b == (A & B) ^ (alpha & A) ^ (beta & B) ^ gamma:
            t[a, b, A, B] = 0.5
    return t


def _correlators(t: np.ndarray) -> np.ndarray:
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return np.einsum("ab,abAB->AB", sign, t)


def _chsh_variant(t: np.ndarray, k: int) -> float:
    """The CHSH variant that relabeled PR box k takes to 4; the 8 of them are all variants.

    Its signs are the PR box's own correlators, each +-1.
    """
    return float((_correlators(_pr_variant(k)) * _correlators(t)).sum())


def _violations(t: np.ndarray) -> tuple[float, float]:
    """(a->b, b->a): the largest total-variation shift of the other side's marginal."""
    bob, alice = t.sum(axis=0), t.sum(axis=1)
    ab = max(0.5 * float(np.abs(bob[:, 0, B] - bob[:, 1, B]).sum()) for B in (0, 1))
    ba = max(0.5 * float(np.abs(alice[:, A, 0] - alice[:, A, 1]).sum()) for A in (0, 1))
    return ab, ba


def _lp_distance(t: np.ndarray) -> float:
    """The L-infinity distance to the local polytope, by a direct HiGHS solve.

    At HiGHS's default primal feasibility tolerance, 1e-7, a table at
    distance 1e-8 may come out at 0; 1e-10 is the smallest it accepts.
    """
    from scipy.optimize import linprog

    p = t.reshape(16)
    c = np.r_[np.zeros(16), 1.0]
    a_ub = np.block([[VERTS.T, -np.ones((16, 1))], [-VERTS.T, -np.ones((16, 1))]])
    a_eq = np.r_[np.ones(16), 0.0][None, :]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.r_[p, -p],
        A_eq=a_eq,
        b_eq=[1.0],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(res.x[16])


def locality_distance(t: np.ndarray) -> Fraction:
    """The table's exact distance to the local polytope: the optimum of the
    simplex run in Fractions."""
    return boxes._simplex(np.ravel(t).tolist(), exact=True)[1]


def _rebuild_error(weights: np.ndarray, t: np.ndarray) -> Fraction:
    """max |sum_v w_v V_v - p| over the entries, in exact arithmetic."""
    return max(
        abs(sum(Fraction(w) for w, v in zip(weights, VERTS[:, e]) if v) - Fraction(p))
        for e, p in enumerate(np.ravel(t).tolist())
    )


class _SimplexRuns:
    """Records whether each run of ``boxes._simplex`` was exact."""

    def __init__(self, monkeypatch):
        self.exact: list[bool] = []
        real = boxes._simplex

        def recording(p, exact):
            self.exact.append(exact)
            return real(p, exact)

        monkeypatch.setattr(boxes, "_simplex", recording)


def _local_table(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    w = w / w.sum() if w.sum() > 0 else np.full(16, 1 / 16)
    return (w @ VERTS).reshape(2, 2, 2, 2)


def _move_bob_outcome(t: np.ndarray, delta: float) -> np.ndarray:
    """Move delta of P(0, 0 | 1, 0) to P(0, 1 | 1, 0): a->b violation exactly delta, Alice's marginal kept."""
    t = t.copy()
    t[0, 0, 1, 0] -= delta
    t[0, 1, 1, 0] += delta
    return t


# Half PR box, half vertex 0, with a quarter of P(0, 0 | 1, 0) moved: its
# distance to the local polytope is 1/12, and its best CHSH variant and
# no-signaling gap bound it only by 1/16.
_SIGNALING_PAST_ITS_BOUNDS = _move_bob_outcome(
    0.5 * _pr_variant(0) + 0.5 * VERTS[0].reshape(2, 2, 2, 2), 0.25
)


class TestPrBox:
    def test_defining_relation_entries(self):
        box = pr_box()
        assert box.table[0][0][1][1] == 0.0
        assert box.table[0][1][1][1] == 0.5
        assert box.table[0][0][0][0] == 0.5
        assert box.table[0][1][0][0] == 0.0

    def test_full_table_against_relation(self):
        box = pr_box()
        for a, b, A, B in itertools.product(range(2), repeat=4):
            expected = 0.5 if a ^ b == A & B else 0.0
            assert box.table[a][b][A][B] == expected

    def test_uniform_marginals(self):
        table = np.array(pr_box().table)
        for A in range(2):
            for B in range(2):
                assert table[0, :, A, B].sum() == 0.5
                assert table[:, 0, A, B].sum() == 0.5

    def test_settings_sum_exactly(self):
        sums = np.array(pr_box().table).sum(axis=(0, 1))
        assert np.array_equal(sums, np.ones((2, 2)))


class TestValidation:
    def test_negative_entry_rejected(self):
        t = np.array(pr_box().table)
        t[0, 0, 0, 0] = -0.1
        t[1, 1, 0, 0] = 0.6
        with pytest.raises(BoxValidationError):
            ConditionalBox(t)

    def test_broken_normalization_rejected(self):
        t = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(BoxValidationError):
            ConditionalBox(t)

    def test_loose_tolerance_admits_then_check_rejects(self):
        t = np.full((2, 2, 2, 2), 0.3)
        box = ConditionalBox(t, tol=1.0)
        with pytest.raises(BoxValidationError):
            check_no_signaling(box, tol=1e-9)

    def test_table_is_read_only(self):
        box = pr_box()
        with pytest.raises(TypeError):
            box.table[0][0][0][0] = 1.0
        # An array argument is copied: writing to it later leaves the box as it was.
        t = np.full((2, 2, 2, 2), 0.25)
        box = ConditionalBox(t)
        t[0, 0, 0, 0] = 1.0
        assert box == uniform_box() and box.shape == (2, 2, 2, 2)

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((2, 2, 2)),
            np.zeros((1, 1, 1, 1, 1)),
            np.zeros((2, 0, 2, 2)),
            [[[[1.0]], [[1.0], [0.0]]]],
        ],
        ids=["3-d", "5-d", "empty axis", "ragged"],
    )
    def test_table_must_be_four_dimensional(self, table):
        with pytest.raises(BoxValidationError, match="^box table must be 4-dimensional"):
            ConditionalBox(table)

    def test_non_finite_entry_rejected(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[1, 0, 1, 0] = np.nan
        with pytest.raises(BoxValidationError, match="^box table contains non-finite entries$"):
            ConditionalBox(t)


class TestNoSignaling:
    def test_pr_box_exactly_zero(self):
        rep = check_no_signaling(pr_box())
        assert rep.a_to_b_violation == 0.0
        assert rep.b_to_a_violation == 0.0
        assert not rep.signaling

    def test_uniform_box_zero(self):
        rep = check_no_signaling(uniform_box())
        assert rep.a_to_b_violation == 0.0
        assert rep.b_to_a_violation == 0.0

    def test_maximal_one_way_signal(self):
        # Bob's output copies Alice's input; Alice's output stays uniform.
        t = np.zeros((2, 2, 2, 2))
        for a, A, B in itertools.product(range(2), repeat=3):
            t[a, A, A, B] = 0.5
        rep = check_no_signaling(ConditionalBox(t))
        assert rep.a_to_b_violation == 1.0
        assert rep.b_to_a_violation == 0.0
        direction, receiver, senders = rep.worst_settings
        assert direction == "a_to_b"
        assert senders == (0, 1)

    def test_nonbinary_alphabet(self):
        # 3 Bob outputs, deterministic and input-independent: still no signal.
        t = np.zeros((2, 3, 2, 2))
        t[0, 2, :, :] = 0.5
        t[1, 2, :, :] = 0.5
        rep = check_no_signaling(ConditionalBox(t))
        assert rep.a_to_b_violation == 0.0
        assert rep.b_to_a_violation == 0.0


def _reference_no_signaling(t):
    """The per-pair loops that computed no-signaling one box at a time, each
    gap summed one outcome at a time in outcome order."""

    def tv(p, q):
        total = 0.0
        for d in np.abs(p - q).tolist():
            total += d
        return 0.5 * total

    marg_b = t.sum(axis=0)
    marg_a = t.sum(axis=1)
    a_to_b, worst_ab = 0.0, (0, (0, 0))
    for B in range(t.shape[3]):
        for A1, A2 in itertools.combinations(range(t.shape[2]), 2):
            d = tv(marg_b[:, A1, B], marg_b[:, A2, B])
            if d > a_to_b:
                a_to_b, worst_ab = d, (B, (A1, A2))
    b_to_a, worst_ba = 0.0, (0, (0, 0))
    for A in range(t.shape[2]):
        for B1, B2 in itertools.combinations(range(t.shape[3]), 2):
            d = tv(marg_a[:, A, B1], marg_a[:, A, B2])
            if d > b_to_a:
                b_to_a, worst_ba = d, (A, (B1, B2))
    if a_to_b >= b_to_a:
        return a_to_b, b_to_a, ("a_to_b", *worst_ab)
    return a_to_b, b_to_a, ("b_to_a", *worst_ba)


def _table_stacks():
    """Per shape, a stack of random, tied (two distinct entries) and constant tables."""
    rng = np.random.default_rng(11)
    shapes = list(itertools.product(range(1, 4), repeat=4))
    # Nine outcomes: past the eight-element block of numpy's pairwise sum.
    shapes += [(9, 2, 2, 3), (2, 9, 3, 2), (9, 9, 2, 2), (9, 1, 3, 3)]
    for shape in shapes:
        t = np.concatenate(
            [
                rng.random((4, *shape)),
                rng.integers(1, 3, size=(4, *shape)).astype(float),
                np.ones((2, *shape)),
            ]
        )
        yield t / t.sum(axis=(1, 2), keepdims=True)


def no_signaling_violations(t):
    """The a-to-b and b-to-a violations of each table of ``t``, from the
    numpy gap arrays of :mod:`reference`."""
    return _a_to_b_gaps(t).max(axis=(-3, -2, -1)), _b_to_a_gaps(t).max(axis=(-3, -2, -1))


def _bits(values) -> list[int]:
    """The float64 bit patterns of ``values``."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# Gaps and normalization sums of fewer terms than this are summed one term at
# a time by numpy, as by the box check; from eight terms on numpy adds them
# pairwise, so the two forms may differ in the last bits.
_PAIRWISE_TERMS = 8


def _fsum_gaps(marginals: np.ndarray, n_senders: int, n_receivers: int) -> list[float]:
    """Every gap of the marginals [outcome, sender, receiver], each summed by math.fsum."""
    return [
        0.5 * math.fsum(np.abs(marginals[:, i, r] - marginals[:, j, r]).tolist())
        for r in range(n_receivers)
        for i, j in itertools.combinations(range(n_senders), 2)
    ] or [0.0]

class TestArrayChecks:
    """The numpy ``table_deviations`` and no-signaling gap arrays of
    :mod:`reference` on one table and on stacks, the oracles of the
    plain-Python box check on one table."""

    def test_match_the_reference_loops_exactly(self):
        for stack in _table_stacks():
            a_to_b, b_to_a = no_signaling_violations(stack)
            assert a_to_b.shape == b_to_a.shape == (len(stack),)
            n_a, n_b = stack.shape[1:3]
            for i, t in enumerate(stack):
                expected = _reference_no_signaling(t)
                rep = check_no_signaling(ConditionalBox(t))
                assert (rep.a_to_b_violation, rep.b_to_a_violation, rep.worst_settings) == expected
                if n_b < _PAIRWISE_TERMS:
                    assert a_to_b[i] == expected[0]
                if n_a < _PAIRWISE_TERMS:
                    assert b_to_a[i] == expected[1]
                assert no_signaling_violations(t) == (a_to_b[i], b_to_a[i])
                _, receiver, senders = rep.worst_settings
                assert all(type(k) is int for k in (receiver, *senders))

    def test_one_table_forms_equal_the_stacked_ones(self):
        # Bit for bit, but where numpy sums eight or more terms pairwise:
        # there both forms are within one ulp of 1 of the sum math.fsum gives
        # (the worst seen on these tables is 1 ulp, in the normalization
        # error of 3x3-outcome tables).
        eps = np.finfo(float).eps
        shapes = set()
        for stack in _table_stacks():
            lowest, normalization = table_deviations(stack)
            a_to_b, b_to_a = no_signaling_violations(stack)
            n_a, n_b, n_x, n_y = stack.shape[1:]
            for i, t in enumerate(stack):
                box = ConditionalBox(t)
                got_lowest, got_normalization = boxes._deviations(box.table)
                report = check_no_signaling(box)
                assert _bits(got_lowest) == _bits(lowest[i])
                cells = itertools.product(range(n_x), range(n_y))
                sums = [math.fsum(t[:, :, x, y].ravel().tolist()) for x, y in cells]
                alice = t.sum(axis=1).swapaxes(1, 2)  # [a, B, A]: senders B
                pairs = [
                    (got_normalization, normalization[i], n_a * n_b, [abs(s - 1.0) for s in sums]),
                    (report.a_to_b_violation, a_to_b[i], n_b, _fsum_gaps(t.sum(axis=0), n_x, n_y)),
                    (report.b_to_a_violation, b_to_a[i], n_a, _fsum_gaps(alice, n_y, n_x)),
                ]
                for one, stacked, terms, exact in pairs:
                    if _bits(one) != _bits(stacked):
                        assert terms >= _PAIRWISE_TERMS, stack.shape[1:]
                        shapes.add(stack.shape[1:])
                        assert abs(one - max(exact)) <= eps and abs(stacked - max(exact)) <= eps
        assert shapes  # the pairwise sums were met

    def test_tables_reach_every_kind_of_worst_setting(self):
        worst = [
            check_no_signaling(ConditionalBox(t)).worst_settings
            for stack in _table_stacks()
            for t in stack
        ]
        assert {w[0] for w in worst} == {"a_to_b", "b_to_a"}
        assert ("a_to_b", 0, (0, 0)) in worst  # the no-signal sentinel
        assert any(w[1] > 0 and w[2] != (0, 1) for w in worst)

    def test_deviations_are_the_per_table_reductions(self):
        for stack in _table_stacks():
            stack = stack - 0.01 * np.arange(len(stack)).reshape(-1, 1, 1, 1, 1)
            lowest, worst = table_deviations(stack)
            for i, t in enumerate(stack):
                assert lowest[i] == t.min()
                assert worst[i] == np.max(np.abs(t.sum(axis=(0, 1)) - 1.0))
                assert table_deviations(t) == (lowest[i], worst[i])

    def test_leading_axes(self):
        stack = next(s for s in _table_stacks() if s.shape[1:] == (9, 2, 2, 3))
        flat = no_signaling_violations(stack)
        grid = no_signaling_violations(stack.reshape(2, -1, 9, 2, 2, 3))
        assert grid[0].shape == (2, len(stack) // 2)
        assert grid[0].ravel().tolist() == flat[0].tolist()
        assert grid[1].ravel().tolist() == flat[1].tolist()

    def test_memory_layout_does_not_change_the_figures(self):
        # Layouts in which numpy would order the sums differently: the
        # stack axis innermost, or Alice's outcome axis innermost.
        for stack in _table_stacks():
            expected = no_signaling_violations(stack)
            outcome_inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 1, -1)), -1, 1)
            for view in (np.asfortranarray(stack), outcome_inner):
                for x, y in zip(table_deviations(view), table_deviations(stack)):
                    assert np.array_equal(x, y)
                a_to_b, b_to_a = no_signaling_violations(view)
                assert np.array_equal(a_to_b, expected[0]) and np.array_equal(b_to_a, expected[1])
                for t, u in zip(view, stack):
                    report = check_no_signaling(ConditionalBox(t))
                    assert report == check_no_signaling(ConditionalBox(u))


class TestRelabel:
    def test_identity(self):
        box = pr_box()
        out = relabel(box, Relabeling.identity(2, 2, 2, 2))
        assert np.array_equal(out.table, box.table)

    def test_flip_alice_output_realizes_anti_relation(self):
        flip = (1, 0)
        r = Relabeling(a_in=(0, 1), b_in=(0, 1), a_out=(flip, flip), b_out=((0, 1), (0, 1)))
        out = relabel(pr_box(), r)
        expected = np.zeros((2, 2, 2, 2))
        for a, b, A, B in itertools.product(range(2), repeat=4):
            if a ^ b == (A & B) ^ 1:
                expected[a, b, A, B] = 0.5
        assert np.array_equal(out.table, expected)

    def test_roundtrip_through_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            box, _ = _random_local_box(rng)
            r = _random_relabeling(rng)
            back = relabel(relabel(box, r), r.inverse())
            assert np.array_equal(back.table, box.table)

    def test_preserves_no_signaling_violations(self):
        rng = np.random.default_rng(11)
        t = np.zeros((2, 2, 2, 2))
        for a, A, B in itertools.product(range(2), repeat=3):
            t[a, A, A, B] = 0.5
        signaling_box = ConditionalBox(t)
        for box in (pr_box(), signaling_box):
            base = check_no_signaling(box)
            for _ in range(10):
                r = _random_relabeling(rng)
                rep = check_no_signaling(relabel(box, r))
                assert rep.a_to_b_violation == pytest.approx(base.a_to_b_violation, abs=1e-12)
                assert rep.b_to_a_violation == pytest.approx(base.b_to_a_violation, abs=1e-12)

    def test_pr_orbit_entries_stay_dyadic(self):
        rng = np.random.default_rng(3)
        box = pr_box()
        for _ in range(10):
            box = relabel(box, _random_relabeling(rng))
            assert set(np.unique(box.table)) <= {0.0, 0.5, 1.0}

    def test_chsh_orbit_invariant(self):
        rng = np.random.default_rng(5)
        box = pr_box()
        reference = np.max(np.abs(_all_chsh_values(box)))
        for _ in range(10):
            box = relabel(box, _random_relabeling(rng))
            assert np.max(np.abs(_all_chsh_values(box))) == pytest.approx(reference, abs=1e-12)

    def test_dimension_mismatch(self):
        t = np.zeros((2, 3, 2, 2))
        t[0, 0, :, :] = 1.0
        box = ConditionalBox(t)
        with pytest.raises(ValueError):
            relabel(box, Relabeling.identity(2, 2, 2, 2))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            Relabeling(a_in=(0, 0), b_in=(0, 1), a_out=((0, 1), (0, 1)), b_out=((0, 1), (0, 1)))


class TestChsh:
    def test_pr_box_reaches_four(self):
        assert chsh_value(pr_box()) == 4.0

    def test_uniform_box_zero(self):
        assert chsh_value(uniform_box()) == 0.0

    def test_deterministic_constant_outputs(self):
        # a = b = 0 always: every correlator is +1, so the value is 2.
        t = np.zeros((2, 2, 2, 2))
        t[0, 0, :, :] = 1.0
        assert chsh_value(ConditionalBox(t)) == 2.0

    def test_local_boxes_respect_two(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            box, _ = _random_local_box(rng)
            assert abs(chsh_value(box)) <= 2.0 + 1e-12

    def test_is_local_verdict_implies_chsh_bound(self):
        # mixtures of a random local box with the extremal one straddle the boundary
        rng = np.random.default_rng(21)
        seen_local = seen_nonlocal = 0
        for _ in range(60):
            base, _ = _random_local_box(rng)
            lam = rng.uniform(0.0, 0.8)
            mixed = ConditionalBox(lam * _pr_variant(0) + (1 - lam) * np.array(base.table))
            local, _ = is_local(mixed)
            if local:
                seen_local += 1
                assert abs(chsh_value(mixed)) <= 2.0 + 1e-8
            else:
                seen_nonlocal += 1
        assert seen_local and seen_nonlocal

    def test_wrong_shape_rejected(self):
        t = np.zeros((2, 3, 2, 2))
        t[0, 0, :, :] = 1.0
        with pytest.raises(ValueError):
            chsh_value(ConditionalBox(t))


class TestIsLocal:
    def test_pr_box_is_not_local(self):
        local, weights = is_local(pr_box())
        assert not local
        assert weights is None

    def test_uniform_box_is_local_with_valid_weights(self):
        local, weights = is_local(uniform_box())
        assert local
        assert len(weights) == 16 and all(type(w) is float for w in weights)
        assert min(weights) >= -1e-12
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        recon = (np.array(weights) @ VERTS).reshape(2, 2, 2, 2)
        np.testing.assert_allclose(recon, uniform_box().table, atol=1e-9)

    def test_half_pr_half_uniform_on_facet(self):
        mix = ConditionalBox(0.5 * np.array(pr_box().table) + 0.5 * np.array(uniform_box().table))
        assert chsh_value(mix) == pytest.approx(2.0, abs=1e-12)
        local, weights = is_local(mix)
        assert local
        recon = (np.array(weights) @ VERTS).reshape(2, 2, 2, 2)
        np.testing.assert_allclose(recon, mix.table, atol=1e-9)

    def test_random_mixtures_recognized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            box, _ = _random_local_box(rng)
            local, weights = is_local(box)
            assert local
            recon = (np.array(weights) @ VERTS).reshape(2, 2, 2, 2)
            np.testing.assert_allclose(recon, box.table, atol=1e-9)

    def test_sparse_table_near_the_facet_is_rebuilt_within_tol(self):
        # A local table with two entries of 8.2e-9, mixed toward a relabeled
        # PR box to just short of its CHSH facet. At HiGHS's default
        # feasibility tolerance (1e-7) its weights missed it by 8.2e-9.
        t = np.array(
            [
                0.7871612670614466, 0.680821233467147, 0.8623769718943933, 0.7871612631152897,
                0.03128298630864138, 0.13762301990294107, 0.03128298630864138,
                0.10649869508774504, 0.07521571303561236, 0.10634003785080838,
                8.202665603347044e-09, 8.202665603347044e-09, 0.10634003359429968,
                0.07521570877910365, 0.10634003359429968, 0.10634003359429968,
            ]
        ).reshape(2, 2, 2, 2)  # fmt: skip
        local, weights = is_local(ConditionalBox(t))
        assert local
        recon = (np.array(weights) @ VERTS).reshape(2, 2, 2, 2)
        assert np.abs(recon - t).max() <= DEFAULT_TOL

    def test_deterministic_weights(self):
        _, w1 = is_local(uniform_box())
        _, w2 = is_local(uniform_box())
        assert np.array_equal(w1, w2)

    def test_failed_float_run_falls_back_to_fractions(self, monkeypatch):
        # With no float pivots allowed, the float run gives no certificate.
        cases = [
            (np.array(uniform_box().table), DEFAULT_TOL, True),
            (0.5 * np.array(pr_box().table) + 0.125, DEFAULT_TOL, True),
            # t = 1/12, past the best CHSH or no-signaling bound, 1/16.
            (_SIGNALING_PAST_ITS_BOUNDS, 0.07, False),
        ]
        runs = _SimplexRuns(monkeypatch)
        for t, tol, local in cases:
            assert is_local(ConditionalBox(t), tol=tol)[0] is local
        assert runs.exact == [False] * 3
        runs.exact.clear()
        monkeypatch.setattr(boxes, "_FLOAT_PIVOTS", 0)
        for t, tol, local in cases:
            verdict, weights = is_local(ConditionalBox(t), tol=tol)
            assert verdict is local
            if local:
                assert _rebuild_error(weights, t) <= DEFAULT_TOL
        assert runs.exact == [False, True] * 3

    def test_bound_settles_nonlocal_boxes_without_the_lp(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(boxes, "_simplex", failing)
        for box in (pr_box(), effective_box(0.3), ConditionalBox(_pr_variant(5))):
            assert is_local(box) == (False, None)

    def test_weights_rebuild_the_box_within_tol_in_fractions(self):
        rng = np.random.default_rng(41)
        tables = [np.array(uniform_box().table), 0.5 * np.array(pr_box().table) + 0.125]
        for _ in range(40):
            local = _local_table(rng.random(16) ** 3)
            k = int(rng.integers(8))
            s = _chsh_variant(local, k)
            lam = (2.0 - s) / (4.0 - s) - 10.0 ** rng.uniform(-9, -2)  # short of the CHSH facet
            tables.append(local)
            tables.append(lam * _pr_variant(k) + (1 - lam) * local)
        seen = 0
        for t in tables:
            local, weights = is_local(ConditionalBox(t))
            if local:
                seen += 1
                assert min(weights) >= 0.0
                assert abs(sum(map(Fraction, weights)) - 1) <= Fraction(2) ** -50
                assert _rebuild_error(weights, t) <= DEFAULT_TOL
        assert seen >= 60

    def test_exact_rerun_decides_only_within_rounding_of_tol(self, monkeypatch):
        rng = np.random.default_rng(43)
        tables = [0.5 * np.array(pr_box().table) + 0.125]
        for _ in range(8):
            local = _local_table(rng.random(16) ** 3)
            lam = rng.uniform(0, 1)
            tables.append(lam * _pr_variant(int(rng.integers(8))) + (1 - lam) * local)
        distances = [locality_distance(t) for t in tables]
        runs = _SimplexRuns(monkeypatch)
        for t, exact_t in zip(tables, distances):
            # tol at the float nearest t and one ulp either side: only rounding separates them.
            near = float(exact_t)
            for tol in (np.nextafter(near, -1.0), near, np.nextafter(near, 2.0)):
                if tol >= 0.0:
                    assert is_local(ConditionalBox(t), tol=float(tol))[0] == (exact_t <= tol)
        assert True in runs.exact
        runs.exact.clear()
        for t, exact_t in zip(tables, distances):
            # Far from tol, on either side, the float certificates decide alone.
            for tol in (float(exact_t) - 1e-12, float(exact_t) + DEFAULT_TOL):
                if tol >= 0.0:
                    assert is_local(ConditionalBox(t), tol=tol)[0] == (exact_t <= tol)
        assert True not in runs.exact

    def test_locality_distance_is_the_lp_optimum(self):
        assert locality_distance(pr_box().table) == Fraction(1, 8)  # (4 - 2) / 16, all 16 entries off
        assert locality_distance(uniform_box().table) == 0
        assert locality_distance(_SIGNALING_PAST_ITS_BOUNDS) == Fraction(1, 12)
        assert boxes._distance_lower_bound(_SIGNALING_PAST_ITS_BOUNDS.ravel().tolist())[0] == 1 / 16
        rng = np.random.default_rng(47)
        for _ in range(15):
            local = _local_table(rng.random(16) ** 3)
            lam = rng.uniform(0, 1)
            t = lam * _pr_variant(int(rng.integers(8))) + (1 - lam) * local
            exact_t = locality_distance(t)
            assert isinstance(exact_t, Fraction)
            assert abs(float(exact_t) - _lp_distance(t)) <= 1e-12
            signaling = _move_bob_outcome(t, rng.uniform(0, 1) * t[0, 0, 1, 0])
            assert abs(float(locality_distance(signaling)) - _lp_distance(signaling)) <= 1e-12

    def test_lp_data_is_built_once_and_read_only(self):
        assert boxes._lp_data() is boxes._lp_data()
        for table, shape in zip(boxes._lp_data(), [(34, 50), (16, 4), (16, 4), (24, 16)]):
            assert type(table) is tuple and all(type(row) is tuple for row in table)
            assert np.shape(table) == shape

    def test_vertex_ordering(self):
        # Vertex 0: all outputs 0. Vertex 15: all outputs 1.
        v0 = VERTS[0].reshape(2, 2, 2, 2)
        assert v0[0, 0, 1, 1] == 1.0 and v0[1, 1, 0, 0] == 0.0
        v15 = VERTS[15].reshape(2, 2, 2, 2)
        assert v15[1, 1, 0, 1] == 1.0
        # Vertex 4 = strategy a(0)=0, a(1)=1, b(0)=0, b(1)=0.
        v4 = VERTS[4].reshape(2, 2, 2, 2)
        assert v4[1, 0, 1, 1] == 1.0 and v4[0, 0, 0, 0] == 1.0


def _simplex_corpus() -> list[np.ndarray]:
    """Seeded binary tables for the simplex oracle: the uniform box, local
    mixtures, noisy PR boxes across the CHSH facet (v = 1/2) and at it
    within 1e-12, and relabelings of both kinds."""
    rng = np.random.default_rng(59)
    tables = [np.array(uniform_box().table)]
    for _ in range(200):
        w = rng.random(16) ** rng.integers(1, 6)
        w[rng.random(16) < 0.3] = 0.0
        tables.append(_local_table(w))
    noise = [*np.linspace(0.0, 1.0, 101), 0.5 - 1e-12, 0.5 + 1e-12, 0.5 - 1e-9, 0.5 + 1e-9]
    tables += [v * _pr_variant(int(rng.integers(8))) + (1 - v) * 0.25 for v in noise]
    for t in rng.choice(len(tables), 200, replace=False).tolist():
        box = relabel(ConditionalBox(tables[t]), _random_relabeling(rng))
        tables.append(np.array(box.table))
    return tables


class TestSimplexOracle:
    """The plain-Python simplex against the same pivots on numpy arrays."""

    def test_float_runs_are_bit_identical(self):
        corpus = _simplex_corpus()
        assert len(corpus) >= 500
        solved = 0
        for t in corpus:
            p = t.ravel().tolist()
            got, want = boxes._simplex(p, exact=False), array_simplex(np.array(p), exact=False)
            assert (got is None) == (want is None)
            if got is None:
                continue
            solved += 1
            w, t_opt, g = got
            assert all(type(v) is float for v in (*w, t_opt, *g))
            for x, y in zip(got, want):
                assert _bits(x) == _bits(y)
            # The weights `local` prints, clipped and normalized as numpy did.
            clipped = np.maximum(want[0], 0.0)
            assert _bits(boxes._normalized([max(v, 0.0) for v in got[0]])) == _bits(
                clipped / clipped.sum() + 0.0
            )
        assert solved == len(corpus)

    def test_exact_runs_are_equal(self):
        for t in _simplex_corpus()[::8]:
            p = t.ravel().tolist()
            got, want = boxes._simplex(p, exact=True), array_simplex(np.array(p), exact=True)
            assert got[1] == want[1] and isinstance(got[1], Fraction)
            assert list(got[0]) == list(want[0]) and list(got[2]) == list(want[2])
            assert all(type(v) is Fraction for v in (*got[0], *got[2]))

    def test_tableau_is_the_array_one(self):
        assert _bits(boxes._lp_data()[0]) == _bits(array_lp_data()[0])


# Fine's theorem decides binary no-signaling boxes exactly; the LP verdict
# may differ from it only where the best CHSH variant is within this band of
# 2. Past it the bound (variant - 2) / 16 alone exceeds tol; the 1e-12 covers
# the rounding of the variant and the tables' no-signaling residue.
FINE_BAND = 16 * DEFAULT_TOL + 1e-12


@st.composite
def _facet_straddling_boxes(draw) -> np.ndarray:
    """A relabeled PR box mixed into a local box, near where its CHSH variant crosses 2."""
    local = _local_table(draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16)))
    k = draw(st.integers(0, 7))
    s = _chsh_variant(local, k)  # in [-2, 2]; the PR box scores 4
    crossing = (2.0 - s) / (4.0 - s)
    # Log-uniform distances 1e-9 .. 0.1 from the crossing, on either side.
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, -1.0))
    lam = min(max(crossing + offset, 0.0), 1.0)
    return lam * _pr_variant(k) + (1.0 - lam) * local


class TestFineTheorem:
    @settings(max_examples=300, deadline=None)
    @given(_facet_straddling_boxes())
    def test_is_local_agrees_with_the_chsh_criterion(self, t):
        # Mirrors the benchmark's oracle: no-signaling and every variant <= 2.
        box = ConditionalBox(t)
        assert max(_violations(t)) <= 1e-12
        best = _all_chsh_values(box).max()
        assume(abs(best - 2.0) > FINE_BAND)
        local, weights = is_local(box)
        assert local == (best <= 2.0)
        if local:
            recon = (np.array(weights) @ VERTS).reshape(2, 2, 2, 2)
            np.testing.assert_allclose(recon, t, atol=1e-9)


class TestDistanceBound:
    """The lower bound on the LP's t never overshoots it, and skips the LP only when safe."""

    @staticmethod
    def _tables():
        rng = np.random.default_rng(29)
        for _ in range(60):
            local = _local_table(rng.random(16) ** 3)
            k = int(rng.integers(8))
            yield local
            lam = rng.uniform(0, 1)
            yield lam * _pr_variant(k) + (1 - lam) * 0.25
            lam = rng.uniform(0, 1)
            yield lam * _pr_variant(k) + (1 - lam) * local
            yield _move_bob_outcome(local, rng.uniform(0, 1) * local[0, 0, 1, 0])
            # Bounds from 0 to 11 tol, from either kind of excess.
            target = rng.uniform(0, 11) * DEFAULT_TOL
            s = _chsh_variant(local, k)
            facet = (2.0 - s) / (4.0 - s) * _pr_variant(k) + 2.0 / (4.0 - s) * local
            yield (1 - 8 * target) * facet + 8 * target * _pr_variant(k)  # variant 2 + 16 target
            interior = 0.5 * local + 0.125  # half local, half uniform: every P >= 1/8
            yield _move_bob_outcome(interior, 4 * target)

    def test_never_exceeds_the_lp_optimum(self):
        near = 0
        for t in self._tables():
            bound, lp = boxes._distance_lower_bound(t.ravel().tolist())[0], _lp_distance(t)
            assert bound <= lp + 1e-7
            near += abs(bound - DEFAULT_TOL) <= 10 * DEFAULT_TOL
        assert near >= 120

    def test_fsum_decides_each_bell_bound_as_fractions_do(self):
        bell = boxes._lp_data()[3]
        for t in itertools.islice(self._tables(), 60):
            p = t.ravel().tolist()
            exact = [boxes._bell_bound([*map(Fraction, g)], [*map(Fraction, p)]) for g in bell]
            for g, bound in zip(bell, exact):
                # tol at the float nearest the bound and one ulp either side
                for tol in (np.nextafter(float(bound), -1.0), float(bound), np.nextafter(float(bound), 1.0)):
                    if tol >= 0.0:
                        assert boxes._bell_clears(g, p, float(tol)) == (bound > tol)

    def test_skips_the_lp_only_where_it_would_say_not_local(self, monkeypatch):
        calls = _SimplexRuns(monkeypatch).exact
        skipped = solved = 0
        for t in self._tables():
            before = len(calls)
            local, _ = is_local(ConditionalBox(t))
            if len(calls) == before:
                skipped += 1
                assert not local
                assert _lp_distance(t) > DEFAULT_TOL
            else:
                solved += 1
        assert skipped and solved


class TestCsv:
    def test_roundtrip_exact(self):
        for box in (pr_box(), uniform_box()):
            again = loads_csv(dumps_csv(box))
            assert np.array_equal(again.table, box.table)

    def test_header_and_order(self):
        lines = dumps_csv(pr_box()).splitlines()
        assert lines[0] == "A,B,a,b,p"
        assert lines[1] == "0,0,0,0,0.5"
        assert lines[2] == "0,0,0,1,0"

    def test_bad_header(self):
        with pytest.raises(BoxFormatError):
            loads_csv("a,b,A,B,p\n0,0,0,0,1\n")

    def test_missing_rows(self):
        text = "\n".join(dumps_csv(pr_box()).splitlines()[:-1]) + "\n"
        with pytest.raises(BoxFormatError):
            loads_csv(text)

    def test_duplicate_rows(self):
        text = dumps_csv(pr_box())
        text += "0,0,0,0,0.5\n"
        with pytest.raises(BoxFormatError):
            loads_csv(text)

    def test_non_numeric_field(self):
        with pytest.raises(BoxFormatError):
            loads_csv("A,B,a,b,p\n0,0,0,0,x\n")

    def test_any_line_ending(self):
        text = dumps_csv(pr_box())
        for ending in ("\r\n", "\r"):
            assert np.array_equal(loads_csv(text.replace("\n", ending)).table, pr_box().table)

    @pytest.mark.parametrize(
        "shape", [(2048, 1, 1, 1), (1, 2048, 1, 1), (1024, 1, 1, 4), (1, 1024, 4, 1)]
    )
    def test_no_signaling_pairs_are_bounded(self, shape, monkeypatch):
        # (A inputs, B inputs, a outputs, b outputs) with exactly MAX_PAIR_ENTRIES
        # receiver inputs x sender inputs^2 x receiver outputs; one more sender is refused.
        def text(nA_in, nB_in, nA_out, nB_out):
            p = 1 / (nA_out * nB_out)
            cells = itertools.product(range(nA_in), range(nB_in), range(nA_out), range(nB_out))
            return "A,B,a,b,p\n" + "".join(f"{A},{B},{a},{b},{p}\n" for A, B, a, b in cells)

        nA_in, nB_in, nA_out, nB_out = shape
        box = loads_csv(text(*shape))
        assert box.shape == (nA_out, nB_out, nA_in, nB_in)
        # The check's work is its pair comparisons, one per outcome of each
        # sender pair at each receiver input, in each direction.
        compared = [0]
        gap = boxes._gap

        def counting(p, q):
            compared[0] += len(p)
            return gap(p, q)

        monkeypatch.setattr(boxes, "_gap", counting)
        report = check_no_signaling(box)
        assert (report.a_to_b_violation, report.b_to_a_violation) == (0.0, 0.0)
        a_to_b = nB_in * nA_in * (nA_in - 1) // 2 * nB_out
        b_to_a = nA_in * nB_in * (nB_in - 1) // 2 * nA_out
        assert compared[0] == a_to_b + b_to_a <= MAX_PAIR_ENTRIES
        wider = (nA_in + (nA_in > 1), nB_in + (nB_in > 1), nA_out, nB_out)
        with pytest.raises(BoxFormatError, match=f"compares more than {MAX_PAIR_ENTRIES} entries$"):
            loads_csv(text(*wider))

    def test_overlong_field_is_a_format_error(self):
        with pytest.raises(BoxFormatError, match="field larger than field limit"):
            loads_csv("A,B,a,b,p\n" + "1" * 200_000)

    def test_invalid_probabilities_fail_validation(self):
        rows = ["A,B,a,b,p"]
        for A, B, a, b in itertools.product(range(2), repeat=4):
            rows.append(f"{A},{B},{a},{b},{0.3}")
        with pytest.raises(BoxValidationError):
            loads_csv("\n".join(rows))
