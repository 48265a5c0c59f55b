import itertools

import numpy as np
import pytest

from boxworld.boxes import (
    BoxFormatError,
    BoxValidationError,
    ConditionalBox,
    LocalityLPError,
    Relabeling,
    check_no_signaling,
    chsh_value,
    deterministic_vertices,
    dumps_csv,
    is_local,
    loads_csv,
    no_signaling_violations,
    pr_box,
    relabel,
    table_deviations,
    uniform_box,
)


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
    table = (w @ deterministic_vertices()).reshape(2, 2, 2, 2)
    return ConditionalBox(table), w


def _all_chsh_values(box) -> np.ndarray:
    """All 8 sign variants of the CHSH functional."""
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    corr = np.einsum("ab,abAB->AB", sign, box.table)
    values = []
    for flipped in range(4):
        s = 0.0
        for idx, (A, B) in enumerate(itertools.product(range(2), repeat=2)):
            s += (-1 if idx == flipped else 1) * corr[A, B]
        values.extend([s, -s])
    return np.array(values)


class TestPrBox:
    def test_defining_relation_entries(self):
        box = pr_box()
        assert box.table[0, 0, 1, 1] == 0.0
        assert box.table[0, 1, 1, 1] == 0.5
        assert box.table[0, 0, 0, 0] == 0.5
        assert box.table[0, 1, 0, 0] == 0.0

    def test_full_table_against_relation(self):
        box = pr_box()
        for a, b, A, B in itertools.product(range(2), repeat=4):
            expected = 0.5 if a ^ b == A & B else 0.0
            assert box.table[a, b, A, B] == expected

    def test_uniform_marginals(self):
        box = pr_box()
        for A in range(2):
            for B in range(2):
                assert box.table[0, :, A, B].sum() == 0.5
                assert box.table[:, 0, A, B].sum() == 0.5

    def test_settings_sum_exactly(self):
        sums = pr_box().table.sum(axis=(0, 1))
        assert np.array_equal(sums, np.ones((2, 2)))


class TestValidation:
    def test_negative_entry_rejected(self):
        t = pr_box().table.copy()
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
        with pytest.raises(ValueError):
            box.table[0, 0, 0, 0] = 1.0


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
    """The per-pair loops that computed no-signaling one box at a time."""

    def tv(p, q):
        return 0.5 * float(np.abs(p - q).sum())

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


class TestArrayChecks:
    """``table_deviations`` and ``no_signaling_violations`` on one table and on stacks."""

    def test_match_the_reference_loops_exactly(self):
        for stack in _table_stacks():
            a_to_b, b_to_a, worst = no_signaling_violations(stack)
            assert a_to_b.shape == b_to_a.shape == (len(stack),) and len(worst) == len(stack)
            for i, t in enumerate(stack):
                expected = _reference_no_signaling(t)
                rep = check_no_signaling(ConditionalBox(t))
                assert (rep.a_to_b_violation, rep.b_to_a_violation, rep.worst_settings) == expected
                assert (a_to_b[i], b_to_a[i], worst[i]) == expected
                assert no_signaling_violations(t)[2] == [expected[2]]
                _, receiver, senders = worst[i]
                assert all(type(k) is int for k in (receiver, *senders))

    def test_tables_reach_every_kind_of_worst_setting(self):
        worst = [w for stack in _table_stacks() for w in no_signaling_violations(stack)[2]]
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
        assert grid[2] == flat[2]

    def test_memory_layout_does_not_change_the_figures(self):
        # Layouts in which numpy would order the sums differently: the
        # stack axis innermost, or Alice's outcome axis innermost.
        for stack in _table_stacks():
            expected = no_signaling_violations(stack)
            outcome_inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 1, -1)), -1, 1)
            for view in (np.asfortranarray(stack), outcome_inner):
                for x, y in zip(table_deviations(view), table_deviations(stack)):
                    assert np.array_equal(x, y)
                a_to_b, b_to_a, worst = no_signaling_violations(view)
                assert np.array_equal(a_to_b, expected[0]) and np.array_equal(b_to_a, expected[1])
                assert worst == expected[2]


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
            mixed = ConditionalBox(lam * pr_box().table + (1 - lam) * base.table)
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
        assert weights.shape == (16,)
        assert np.all(weights >= -1e-12)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        recon = (weights @ deterministic_vertices()).reshape(2, 2, 2, 2)
        np.testing.assert_allclose(recon, uniform_box().table, atol=1e-9)

    def test_half_pr_half_uniform_on_facet(self):
        mix = ConditionalBox(0.5 * pr_box().table + 0.5 * uniform_box().table)
        assert chsh_value(mix) == pytest.approx(2.0, abs=1e-12)
        local, weights = is_local(mix)
        assert local
        recon = (weights @ deterministic_vertices()).reshape(2, 2, 2, 2)
        np.testing.assert_allclose(recon, mix.table, atol=1e-9)

    def test_random_mixtures_recognized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            box, _ = _random_local_box(rng)
            local, weights = is_local(box)
            assert local
            recon = (weights @ deterministic_vertices()).reshape(2, 2, 2, 2)
            np.testing.assert_allclose(recon, box.table, atol=1e-9)

    def test_deterministic_weights(self):
        _, w1 = is_local(uniform_box())
        _, w2 = is_local(uniform_box())
        assert np.array_equal(w1, w2)

    def test_solver_failure_raises(self, monkeypatch):
        import scipy.optimize

        def failing(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                success=False, status=4, message="Numerical difficulties encountered", x=None
            )

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        with pytest.raises(LocalityLPError, match="status 4.*Numerical difficulties"):
            is_local(uniform_box())

    def test_vertex_ordering(self):
        # Vertex 0: all outputs 0. Vertex 15: all outputs 1.
        verts = deterministic_vertices()
        v0 = verts[0].reshape(2, 2, 2, 2)
        assert v0[0, 0, 1, 1] == 1.0 and v0[1, 1, 0, 0] == 0.0
        v15 = verts[15].reshape(2, 2, 2, 2)
        assert v15[1, 1, 0, 1] == 1.0
        # Vertex 4 = strategy a(0)=0, a(1)=1, b(0)=0, b(1)=0.
        v4 = verts[4].reshape(2, 2, 2, 2)
        assert v4[1, 0, 1, 1] == 1.0 and v4[0, 0, 0, 0] == 1.0


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

    def test_invalid_probabilities_fail_validation(self):
        rows = ["A,B,a,b,p"]
        for A, B, a, b in itertools.product(range(2), repeat=4):
            rows.append(f"{A},{B},{a},{b},{0.3}")
        with pytest.raises(BoxValidationError):
            loads_csv("\n".join(rows))
