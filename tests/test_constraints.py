"""Sign gates, hinge penalties, determinant penalty, MonoSpec round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtnn import constraints as con
from mtnn import graph as g
from test_graph import check_grads
import oracles

RNG = np.random.default_rng(314)


def det_by_cofactor_expansion(A):
    """Independent determinant oracle: first-row cofactor expansion."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * A[0, j] * det_by_cofactor_expansion(minor)
    return total


finite_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


class TestSignGate:
    def test_definition_on_mixed_row(self):
        raw = np.array([-2.0, 3.0, -1.0])
        tags = np.array([con.INCREASING, con.DECREASING, con.FREE])
        np.testing.assert_array_equal(oracles.apply_sign_gate(raw, tags), [0.0, -3.0, -1.0])

    def test_nonnegative_raw_all_increasing_unchanged(self):
        raw = np.abs(RNG.normal(size=6))
        tags = np.full(6, con.INCREASING)
        np.testing.assert_array_equal(oracles.apply_sign_gate(raw, tags), raw)

    def test_all_free_unchanged(self):
        raw = RNG.normal(size=8)
        tags = np.zeros(8, dtype=np.int8)
        np.testing.assert_array_equal(oracles.apply_sign_gate(raw, tags), raw)

    def test_batched_broadcast(self):
        raw = RNG.normal(size=(5, 3))
        tags = np.array([con.INCREASING, con.DECREASING, con.FREE])
        out = oracles.apply_sign_gate(raw, tags)
        for k in range(5):
            np.testing.assert_array_equal(out[k], oracles.apply_sign_gate(raw[k], tags))

    @given(st.lists(finite_floats, min_size=1, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_regating_behavior(self, raw, data):
        # -ReLU is not idempotent on its own range (a second pass zeroes
        # negative entries), so idempotence only holds for + and . tags;
        # what always holds is sign conformance of the gated vector.
        raw = np.array(raw)
        tags = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([con.INCREASING, con.DECREASING, con.FREE]),
                    min_size=len(raw),
                    max_size=len(raw),
                )
            ),
            dtype=np.int8,
        )
        once = oracles.apply_sign_gate(raw, tags)
        assert (once[tags == con.INCREASING] >= 0).all()
        assert (once[tags == con.DECREASING] <= 0).all()
        twice = oracles.apply_sign_gate(once, tags)
        keep = tags != con.DECREASING
        np.testing.assert_array_equal(once[keep], twice[keep])
        np.testing.assert_array_equal(twice[tags == con.DECREASING], 0.0)

    def test_gate_signs_always_conform(self):
        raw = RNG.normal(size=(100, 4))
        tags = np.array([con.INCREASING, con.INCREASING, con.DECREASING, con.FREE])
        out = oracles.apply_sign_gate(raw, tags)
        assert (out[:, :2] >= 0).all()
        assert (out[:, 2] <= 0).all()

    def test_graph_twin_matches_and_differentiates(self):
        raw = RNG.normal(size=(6, 4))
        raw[np.abs(raw) < 0.05] = 0.2  # stay off the kink for the FD check
        tags = np.array([con.INCREASING, con.DECREASING, con.FREE, con.INCREASING])
        v = g.Var(raw.copy())
        gated = con.apply_sign_gate_graph(v, tags)
        np.testing.assert_allclose(gated.value, oracles.apply_sign_gate(raw, tags))
        w = np.random.default_rng(5).normal(size=(6, 4))
        g.backward(g.sum_all(gated * w))
        eps = 1e-6
        fd = np.zeros_like(raw)
        for idx in np.ndindex(raw.shape):
            rp, rm = raw.copy(), raw.copy()
            rp[idx] += eps
            rm[idx] -= eps
            fd[idx] = (
                (oracles.apply_sign_gate(rp, tags) * w).sum()
                - (oracles.apply_sign_gate(rm, tags) * w).sum()
            ) / (2 * eps)
        np.testing.assert_allclose(v.grad, fd, atol=1e-7)

    def test_derivative_mask(self):
        raw = np.array([0.5, -0.5, 0.5, -0.5, 0.7, 0.0])
        tags = np.array([1, 1, -1, -1, 0, 1], dtype=np.int8)
        np.testing.assert_array_equal(
            con.gate_mask_of(tags)(raw), [1.0, 0.0, -1.0, 0.0, 1.0, 0.0]
        )


def maximum_gate(raw, tags):
    """The ReLU / -ReLU gate written with np.maximum: the oracle for raw * mask."""
    rect = np.maximum(raw, 0.0)
    return np.where(tags == con.INCREASING, rect,
                    np.where(tags == con.DECREASING, -rect, raw))


def graph_nodes(root, stop):
    """Nodes reachable from root without passing through `stop` (root included)."""
    seen, todo = set(), [root]
    while todo:
        v = todo.pop()
        if v is stop or id(v) in seen:
            continue
        seen.add(id(v))
        todo.extend(v.parents)
    return len(seen)


tag_codes = st.sampled_from([con.INCREASING, con.DECREASING, con.FREE])
raw_or_zero = st.one_of(st.just(0.0), st.just(-0.0), finite_floats)


class TestOneMaskGate:
    """The gate is raw * gate_mask_of(tags)(raw), in numpy and on the graph."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_relu_gate_and_differentiates(self, data):
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        B = data.draw(st.integers(1, 3), label="batch")
        tags = np.array(data.draw(st.lists(tag_codes, min_size=rows * cols,
                                           max_size=rows * cols)),
                        dtype=np.int8).reshape(rows, cols)
        raw = np.array(data.draw(st.lists(raw_or_zero, min_size=B * rows * cols,
                                          max_size=B * rows * cols))).reshape(B, rows, cols)
        want = maximum_gate(raw, tags)
        assert np.array_equal(oracles.apply_sign_gate(raw, tags), want)
        assert np.array_equal(con.apply_sign_gate_graph(g.Var(raw), tags).value, want)

        off_kink = np.where(np.abs(raw) < 1e-3, 0.5, raw)
        w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=raw.shape)
        check_grads(lambda x: g.sum_all(con.apply_sign_gate_graph(x, tags) * w), [off_kink])

    def test_mask_bytes_equal_the_where_form(self):
        tags = np.array([[con.INCREASING, con.DECREASING, con.FREE]], dtype=np.int8)
        edge = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.5, -2.5]
        raw = np.array([edge, edge[::-1], edge[3:] + edge[:3]]).T.copy()  # (9, 3)
        raw = np.concatenate([raw, RNG.normal(size=(40, 3))])
        for r in (raw, raw[:, None, :], raw.T[None].swapaxes(1, 2)):  # with a strided view
            got = con.gate_mask_of(tags)(r)
            assert got.tobytes() == oracles.gate_mask_of(tags)(r).tobytes()
        assert set(np.unique(got)) == {-1.0, 0.0, 1.0}

    def test_graph_gate_is_one_node(self):
        raw = g.Var(RNG.normal(size=(2, 5, 3)))
        tags = np.array([[con.INCREASING, con.DECREASING, con.FREE],
                         [con.DECREASING, con.INCREASING, con.INCREASING]], dtype=np.int8)
        gated = con.apply_sign_gate_graph(raw, tags[:, None, :])
        assert gated.parents == (raw,)
        assert graph_nodes(gated, raw) == 1

    def test_hinge_matches_numpy_penalty(self):
        spec = con.MonoSpec.from_symbols(["+-.", "-.+"])
        rows = RNG.normal(size=(2, 6, 3))
        rows[0, 0, 0] = 0.0  # exact kink on a tagged entry
        rows_var = g.Var(np.moveaxis(rows, 1, -1))  # batch-last (2, 3, 6)
        pen = con.mono_penalty_rows_graph(rows_var, spec)
        expect = sum(oracles.mono_penalty(rows[:, b], spec) for b in range(6))
        assert pen.value == pytest.approx(expect, rel=1e-12)
        assert expect > 0.0
        assert graph_nodes(pen, rows_var) == 4


class TestMonoPenalty:
    def spec(self):
        return con.MonoSpec.from_symbols(["++-", ".+."])

    def test_conforming_jacobian_zero(self):
        jac = np.array([[0.4, 0.0, -0.2], [9.0, 0.3, -5.0]])
        assert oracles.mono_penalty(jac, self.spec()) == 0.0

    def test_single_violation_hand_value(self):
        spec = con.MonoSpec.from_symbols(["+"])
        assert oracles.mono_penalty(np.array([[-0.5]]), spec, lam_inc=2.0) == pytest.approx(1.0)

    def test_brute_force_oracle(self):
        spec_tags = RNG.integers(-1, 2, size=(3, 5)).astype(np.int8)
        spec = con.MonoSpec(spec_tags)
        jac = RNG.normal(size=(3, 5))
        expect = 0.0
        for j in range(3):
            for i in range(5):
                if spec_tags[j, i] == con.INCREASING:
                    expect += 1.7 * max(-jac[j, i], 0.0)
                elif spec_tags[j, i] == con.DECREASING:
                    expect += 0.6 * max(jac[j, i], 0.0)
        assert oracles.mono_penalty(jac, spec, lam_inc=1.7, lam_dec=0.6) == pytest.approx(
            expect, rel=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_iff_conforming(self, data):
        tags = np.array(
            data.draw(
                st.lists(
                    st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
                    min_size=2,
                    max_size=2,
                )
            ),
            dtype=np.int8,
        )
        jac = np.array(
            data.draw(
                st.lists(
                    st.lists(finite_floats, min_size=3, max_size=3),
                    min_size=2,
                    max_size=2,
                )
            )
        )
        spec = con.MonoSpec(tags)
        pen = oracles.mono_penalty(jac, spec)
        conforming = True
        for j in range(2):
            for i in range(3):
                if tags[j, i] == 1 and jac[j, i] < 0:
                    conforming = False
                if tags[j, i] == -1 and jac[j, i] > 0:
                    conforming = False
        assert (pen == 0.0) == conforming

    def test_graph_twin_matches_numpy(self):
        spec = con.MonoSpec.from_symbols(["+-.", ".++"])
        rows_np = [RNG.normal(size=(4, 3)) for _ in range(2)]
        pen = con.mono_penalty_rows_graph(g.Var(np.moveaxis(np.stack(rows_np), 1, -1)), spec)
        expect = sum(
            oracles.mono_penalty(np.stack([rows_np[0][b], rows_np[1][b]]), spec)
            for b in range(4)
        )
        assert pen.value == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oracles.mono_penalty(np.zeros((2, 2)), self.spec())


class TestConvexPenalty:
    def test_identity_block_unpenalized(self):
        assert oracles.convex_penalty(np.eye(3), gamma=2.0) == 0.0

    def test_negative_det_hand_value(self):
        assert oracles.convex_penalty(np.diag([1.0, -1.0]), gamma=3.0) == pytest.approx(3.0)

    def test_cofactor_expansion_oracle(self):
        blocks = RNG.normal(size=(4, 3, 3))
        gamma = 0.8
        expect = sum(
            gamma * max(-det_by_cofactor_expansion(B), 0.0) for B in blocks
        )
        assert oracles.convex_penalty(blocks, gamma) == pytest.approx(expect, rel=1e-10)

    def test_graph_twin_matches(self):
        blocks_np = [RNG.normal(size=(5, 3, 3)) for _ in range(2)]
        pen = con.convex_penalty_blocks_graph(g.Var(np.moveaxis(np.stack(blocks_np), 1, -1)))
        expect = sum(
            oracles.convex_penalty(b[k], con.CURVATURE_WEIGHT)
            for b in blocks_np for k in range(5)
        )
        assert pen.value == pytest.approx(expect, rel=1e-10)

    def test_graph_gradient_matches_fd_away_from_kinks(self):
        rng = np.random.default_rng(12)
        blk = rng.normal(size=(3, 2, 2)) + np.array([[-2.0, 0], [0, -2.0]])  # dets well negative
        v = g.Var(np.moveaxis(blk, 0, -1).copy())  # one state, batch-last (2, 2, 3)
        # at gamma 1.5: the graph's CURVATURE_WEIGHT rescaled
        g.backward(con.convex_penalty_blocks_graph(v) * (1.5 / con.CURVATURE_WEIGHT))
        eps = 1e-6
        fd = np.zeros_like(blk)
        for idx in np.ndindex(blk.shape):
            bp, bm = blk.copy(), blk.copy()
            bp[idx] += eps
            bm[idx] -= eps
            fd[idx] = (oracles.convex_penalty(bp, 1.5)
                       - oracles.convex_penalty(bm, 1.5)) / (2 * eps)
        np.testing.assert_allclose(np.moveaxis(v.grad, -1, 0), fd, atol=1e-5, rtol=1e-5)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            oracles.convex_penalty(np.eye(2), gamma=-0.1)


class TestPrincipalMinorMode:
    def test_psd_block_zero(self):
        A = RNG.normal(size=(3, 3))
        psd = A @ A.T + 0.1 * np.eye(3)
        assert oracles.principal_minor_penalty(psd, gamma=1.0) == 0.0

    def test_positive_det_negative_minor_caught(self):
        blk = np.diag([-1.0, -1.0])  # det = +1, but not PSD
        assert oracles.convex_penalty(blk, 1.0) == 0.0
        assert oracles.principal_minor_penalty(blk, 1.0) == pytest.approx(1.0)

    def test_graph_twin_matches(self):
        blocks_np = [RNG.normal(size=(4, 3, 3))]
        blocks = np.moveaxis(np.stack(blocks_np), 1, -1)  # batch-last (1, 3, 3, 4)
        got = con.principal_minor_penalty_blocks_graph(g.Var(blocks))
        expect = sum(oracles.principal_minor_penalty(blocks_np[0][k], con.CURVATURE_WEIGHT)
                     for k in range(4))
        assert got.value == pytest.approx(expect, rel=1e-10)


    def test_graph_gradient_matches_fd(self):
        # minors of both signs, each well away from the hinge's kink at 0
        blocks = np.random.default_rng(0).normal(size=(2, 5, 3, 3))
        for m in (1, 2, 3):
            assert np.abs(np.linalg.det(blocks[..., :m, :m])).min() > 1e-2
        check_grads(con.principal_minor_penalty_blocks_graph, [np.moveaxis(blocks, 1, -1)],
                    atol=1e-6, rtol=1e-4)


class TestMonoSpec:
    def test_symbol_round_trip(self):
        spec = con.MonoSpec.from_symbols(["+-.", "..+"])
        assert spec.to_symbols() == ["+-.", "..+"]
        np.testing.assert_array_equal(spec.tags, [[1, -1, 0], [0, 0, 1]])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            con.MonoSpec.from_symbols(["+?-"])

    @pytest.mark.parametrize("rows", [[], ""])
    def test_no_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="^a sign spec needs at least one row of symbols$"):
            con.MonoSpec.from_symbols(rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            con.MonoSpec.from_symbols(["++", "+"])

    def test_bad_codes_rejected(self):
        with pytest.raises(ValueError):
            con.MonoSpec(np.array([[2, 0]]))

    def test_spaces_ignored(self):
        spec = con.MonoSpec.from_symbols(["+ + -"])
        assert spec.to_symbols() == ["++-"]

    def test_tags_are_a_read_only_copy_so_the_cached_mask_cannot_go_stale(self):
        given = np.array([[1, -1, 0]], dtype=np.int8)
        spec = con.MonoSpec(given)
        raw = np.array([[0.5, 0.5, 0.5]])
        mask = spec.gate_mask(raw)
        with pytest.raises(ValueError, match="read-only"):
            spec.tags[0, 0] = con.DECREASING
        given[0, 0] = con.DECREASING  # the caller's array stays its own and writeable
        assert given.flags.writeable and spec.tags[0, 0] == con.INCREASING
        np.testing.assert_array_equal(spec.gate_mask(raw), mask)
        np.testing.assert_array_equal(mask, con.gate_mask_of(spec.tags)(raw))
        with pytest.raises(AttributeError):
            spec.tags = given
