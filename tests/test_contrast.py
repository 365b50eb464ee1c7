"""Stochastic neighbor masking, the pair discriminators, and the three loss
estimators against naive double-loop oracles and the dense tape losses."""

import tracemalloc
import weakref

import numpy as np
import pytest

import signa.contrast as contrast
import signa.diffcore as dc
from signa.diffcore import Parameter, RngStream, Tensor, backward
from signa.contrast import (
    ContrastDraw,
    EstimatorSpec,
    draw_masks,
    estimator_loss,
)
from signa.errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DegenerateGraphError,
    NumericError,
    ShapeError,
)
from signa.graphdata import Graph

from conftest import random_labeled_graph
from oracles import (
    dense_loss_info_nce_ablation,
    dense_loss_jsd_ablation,
    dense_loss_norm_jsd,
    estimator_loss_strips_oracle,
    info_nce_loss_oracle,
    jsd_style_loss_oracle,
)
import tape_ops as kit
from tape_ops import discriminator_norm, membership, neighbors, positives, validate_draw

KINDS = ("norm_jsd", "jsd", "info_nce")
DENSE_LOSSES = {
    "norm_jsd": dense_loss_norm_jsd,
    "jsd": dense_loss_jsd_ablation,
    "info_nce": dense_loss_info_nce_ablation,
}


def _loss(z, draw, kind):
    return estimator_loss(z, draw, EstimatorSpec(kind=kind))


def _ring(n: int):
    edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return Graph(edges, np.zeros((n, 1)))


# ---------------------------------------------------------------------------
# mask draws


def test_alpha_zero_keeps_every_neighbor(path4_graph):
    draw = draw_masks(path4_graph, 0.0, RngStream(0, "mask"))
    for u in range(4):
        expected = np.sort(np.append(neighbors(path4_graph, u), u))
        np.testing.assert_array_equal(positives(draw, u), expected)
    validate_draw(draw, path4_graph)


def test_alpha_one_keeps_only_self(path4_graph):
    draw = draw_masks(path4_graph, 1.0, RngStream(0, "mask"))
    for u in range(4):
        np.testing.assert_array_equal(positives(draw, u), [u])


def test_draw_invariants_on_random_graphs():
    rng = np.random.default_rng(5)
    for i in range(20):
        g = random_labeled_graph(rng, max_nodes=30)
        draw = draw_masks(g, 0.5, RngStream(i, "mask"))
        validate_draw(draw, g)
        # each P_u is listed in increasing order, without repeats
        for u in range(g.num_nodes):
            assert np.all(np.diff(positives(draw, u)) > 0)


def test_per_pair_keep_frequency():
    g = _ring(6)
    alpha = 0.3
    rng = RngStream(1, "mask")
    trials = 20000
    kept = np.zeros((6, 6))
    for epoch in range(trials):
        kept += membership(draw_masks(g, alpha, rng, epoch=epoch))
    for u in range(6):
        for v in neighbors(g, u):
            assert abs(kept[u, v] / trials - (1 - alpha)) < 0.01
    # non-neighbors never appear
    non = ~np.eye(6, dtype=bool)
    for u in range(6):
        non[u, neighbors(g, u)] = False
    assert kept[non].sum() == 0


def test_directions_masked_independently():
    g = _ring(6)
    alpha = 0.5
    rng = RngStream(2, "mask")
    both = fwd = 0
    trials = 20000
    for epoch in range(trials):
        m = membership(draw_masks(g, alpha, rng, epoch=epoch))
        fwd += m[0, 1]
        both += m[0, 1] and m[1, 0]
    # joint keep rate must look like the product, not the marginal
    assert abs(both / trials - (1 - alpha) ** 2) < 0.02
    assert abs(fwd / trials - (1 - alpha)) < 0.02


def test_draws_are_reproducible():
    g = _ring(8)
    a = draw_masks(g, 0.4, RngStream(9, "mask")).pos_targets
    b = draw_masks(g, 0.4, RngStream(9, "mask")).pos_targets
    np.testing.assert_array_equal(a, b)


def test_bad_alpha_rejected(path4_graph):
    with pytest.raises(ConfigError):
        draw_masks(path4_graph, 1.5, RngStream(0, "mask"))


# ---------------------------------------------------------------------------
# discriminators


def test_discriminator_norm_endpoints():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(16)
    assert abs(discriminator_norm(z, z) - 1.0) < 1e-12
    assert abs(discriminator_norm(z, -z) - 0.0) < 1e-12


def test_discriminator_norm_bounds():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = rng.standard_normal((2, 8))
        d = discriminator_norm(a, b)
        assert 0.0 <= d <= 1.0


def test_discriminator_norm_rejects_zero_vector():
    with pytest.raises(DegenerateEmbeddingError):
        discriminator_norm(np.zeros(4), np.ones(4))


# ---------------------------------------------------------------------------
# loss values


def _self_only_draw(n: int) -> ContrastDraw:
    return ContrastDraw(n, np.arange(n + 1), np.arange(n))


def test_two_isolated_orthogonal_nodes_give_log2():
    # P_u = {u}: positive term ~ 0 (clamped), negative: -log(1 - 1/2)
    z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = _loss(z, _self_only_draw(2), "norm_jsd")
    assert abs(float(loss.data) - np.log(2.0)) < 1e-6


def test_norm_jsd_prefers_aligned_positives():
    g = Graph(np.array([[0, 1]]), np.zeros((3, 1)))
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    aligned = Tensor(np.array([[1.0, 0.01], [1.0, -0.01], [0.0, 1.0]]))
    opposed = Tensor(np.array([[1.0, 0.0], [-1.0, 0.1], [0.0, 1.0]]))
    assert float(_loss(aligned, draw, "norm_jsd").data) < float(_loss(opposed, draw, "norm_jsd").data)


def test_empty_negative_set_rejected():
    g = Graph(np.array([[0, 1]]), np.zeros((2, 1)))
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateGraphError):
        _loss(z, draw, "norm_jsd")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, 1])
def test_loss_on_fewer_than_two_nodes_is_refused(kind, n):
    # n = 0 yields no strip; no anchor of n < 2 has a negative
    draw = draw_masks(Graph([], np.zeros((n, 1))), 0.0, RngStream(0, "mask"))
    with pytest.raises(DegenerateGraphError, match=f"the {kind} loss needs at least two nodes, got {n}"):
        estimator_loss(Tensor(np.ones((n, 3))), draw, EstimatorSpec(kind=kind))


def test_pair_strips_tile_the_rows(monkeypatch):
    assert list(contrast.pair_strips(0)) == []
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", 3 * 7)  # read at call time
    assert list(contrast.pair_strips(7)) == [(0, 3), (3, 6), (6, 7)]  # the one-row tail stays


def test_losses_match_double_loop_oracles():
    rng = np.random.default_rng(6)
    for i in range(30):
        g = random_labeled_graph(rng, max_nodes=24)
        draw = draw_masks(g, float(rng.uniform(0.1, 0.9)), RngStream(i, "mask"))
        if np.any(draw.pos_counts >= g.num_nodes):
            continue
        z = rng.standard_normal((g.num_nodes, 6))
        zt = Tensor(z)
        assert float(_loss(zt, draw, "norm_jsd").data) == pytest.approx(
            jsd_style_loss_oracle(z, draw, "norm_jsd"), abs=1e-9
        )
        assert float(_loss(Tensor(z), draw, "jsd").data) == pytest.approx(
            jsd_style_loss_oracle(z, draw, "jsd"), abs=1e-9
        )
        assert float(_loss(Tensor(z), draw, "info_nce").data) == pytest.approx(
            info_nce_loss_oracle(z, draw), abs=1e-9
        )


def test_estimator_spec_validation():
    with pytest.raises(ConfigError):
        EstimatorSpec(kind="nce")
    with pytest.raises(ConfigError):
        EstimatorSpec(temperature=0.0)
    with pytest.raises(ConfigError):
        EstimatorSpec(clamp_eps=0.6)


def test_info_nce_two_nodes_is_zero():
    # the only off-diagonal node is also the only positive: -log(1) = 0
    g = Graph(np.array([[0, 1]]), np.zeros((2, 1)))
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    z = np.array([[1.0, 0.2], [0.3, -1.0]])
    assert abs(float(_loss(Tensor(z), draw, "info_nce").data)) < 1e-12


def test_info_nce_equal_similarities_give_log_n_minus_1():
    # identical rows: every similarity is 1, each positive term is
    # -log(1/(n-1))
    n = 7
    g = _ring(n)
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    z = np.tile([[1.0, 2.0, 3.0]], (n, 1))
    loss = _loss(Tensor(z), draw, "info_nce")
    assert float(loss.data) == pytest.approx(np.log(n - 1), abs=1e-9)


def test_info_nce_anchor_without_positives_contributes_zero():
    # node 2 is isolated; with alpha=0 its P_u = {u} so it adds nothing
    g = Graph(np.array([[0, 1]]), np.zeros((3, 1)))
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    z = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    full = float(_loss(Tensor(z), draw, "info_nce").data)
    oracle = info_nce_loss_oracle(z, draw)
    assert full == pytest.approx(oracle, abs=1e-12)


def test_clamp_keeps_antipodal_positive_finite():
    # a fully opposed positive pair hits the clamp floor, not -inf
    g = Graph(np.array([[0, 1]]), np.zeros((3, 1)))
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    z = Parameter(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), name="z")
    loss = _loss(z, draw, "norm_jsd")
    assert np.isfinite(float(loss.data))
    assert float(loss.data) > 5.0  # log(eps)/|P| dominates
    backward(loss)
    assert np.all(np.isfinite(z.grad))


def test_losses_are_differentiable():
    g = _ring(5)
    draw = draw_masks(g, 0.4, RngStream(3, "mask"))
    rng = np.random.default_rng(8)
    for kind in KINDS:
        z = Parameter(rng.standard_normal((5, 4)), name="z")
        report = kit.gradcheck(lambda: _loss(z, draw, kind), [z], tol=1e-5)
        assert report.passed, (kind, report.max_rel_err)


# ---------------------------------------------------------------------------
# the row-blocked loss op against the dense tape losses


def _value_and_grad(fn, z: np.ndarray, draw):
    p = Parameter(z.copy(), name="z")
    loss = fn(p, draw)
    backward(loss)
    return float(loss.data), p.grad.copy()


def _assert_matches_dense(kind: str, z: np.ndarray, draw, tol: float = 1e-12):
    spec = EstimatorSpec(kind=kind)
    value, grad = _value_and_grad(lambda p, d: estimator_loss(p, d, spec), z, draw)
    ref_value, ref_grad = _value_and_grad(DENSE_LOSSES[kind], z, draw)
    assert abs(value - ref_value) <= tol * max(1.0, abs(ref_value)), (kind, value, ref_value)
    scale = max(1.0, float(np.abs(ref_grad).max()))
    assert float(np.abs(grad - ref_grad).max()) <= tol * scale, kind


# rows per block as a function of n: one row, a ragged last block, one block
BLOCK_ROWS = {
    "B=1": lambda n: 1,
    "ragged": lambda n: 3 if n % 3 else 4 if n % 4 else 5,
    "n<B": lambda n: 10 * n,
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows", BLOCK_ROWS.values(), ids=BLOCK_ROWS.keys())
def test_blocked_loss_matches_dense_on_random_graphs(kind, rows, monkeypatch):
    rng = np.random.default_rng(11)
    checked = 0
    for i in range(12):
        g = random_labeled_graph(rng, max_nodes=30)
        draw = draw_masks(g, float(rng.uniform(0.1, 0.9)), RngStream(i, "mask"))
        if np.any(draw.pos_counts >= g.num_nodes):
            continue
        n = g.num_nodes
        monkeypatch.setattr(contrast, "_BLOCK_ELEMS", rows(n) * n)
        _assert_matches_dense(kind, rng.standard_normal((n, 5)), draw)
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("kind", KINDS)
def test_blocked_loss_antipodal_positive(kind, monkeypatch):
    # 0 and 1 are neighbors pointing opposite ways: D hits the clamp floor
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", 2 * 4)
    g = Graph(np.array([[0, 1], [2, 3]]), np.zeros((4, 1)))
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [0.5, -0.2]])
    _assert_matches_dense(kind, z, draw)


@pytest.mark.parametrize("kind", KINDS)
def test_blocked_loss_duplicate_rows(kind, monkeypatch):
    # identical rows give D at or past the clamp ceiling, where the gradient stops
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", 2 * 6)
    draw = draw_masks(_ring(6), 0.3, RngStream(1, "mask"))
    z = np.tile([[0.2, -1.0, 3.0]], (6, 1)) * 40.0
    z[4] = [1.0, 0.5, -0.5]
    _assert_matches_dense(kind, z, draw)


def test_blocked_info_nce_anchor_without_other_positive(monkeypatch):
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", 2 * 5)
    g = Graph(np.array([[0, 1], [1, 2]]), np.zeros((5, 1)))
    draw = draw_masks(g, 0.0, RngStream(0, "mask"))
    z = np.random.default_rng(12).standard_normal((5, 3))
    _assert_matches_dense("info_nce", z, draw)  # nodes 3 and 4 have no other positive
    # with no anchor holding another positive, nothing contributes
    only_self = _self_only_draw(5)
    value, grad = _value_and_grad(lambda p, d: _loss(p, d, "info_nce"), z, only_self)
    assert value == 0.0
    assert not grad.any()


@pytest.mark.parametrize("kind", KINDS)
def test_blocked_loss_f32_close_to_dense(kind, monkeypatch):
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", 7 * 60)
    dc.set_precision("f32")
    rng = np.random.default_rng(13)
    g = random_labeled_graph(rng, max_nodes=60)
    draw = draw_masks(g, 0.4, RngStream(2, "mask"))
    z = rng.standard_normal((g.num_nodes, 8))
    spec = EstimatorSpec(kind=kind)
    value, grad = _value_and_grad(lambda p, d: estimator_loss(p, d, spec), z, draw)
    ref_value, ref_grad = _value_and_grad(DENSE_LOSSES[kind], z, draw)
    assert grad.dtype == np.float32
    assert abs(value - ref_value) <= 1e-5 * abs(ref_value)
    assert np.linalg.norm(grad - ref_grad) <= 1e-5 * np.linalg.norm(ref_grad)


@pytest.mark.parametrize("kind", KINDS)
def test_blocked_loss_gradcheck_across_blocks(kind, monkeypatch):
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", 2 * 7)  # blocks of 2, 2, 2, 1 rows
    draw = draw_masks(_ring(7), 0.4, RngStream(3, "mask"))
    z = Parameter(np.random.default_rng(14).standard_normal((7, 4)), name="z")
    spec = EstimatorSpec(kind=kind)
    report = kit.gradcheck(lambda: estimator_loss(z, draw, spec), [z], tol=1e-5)
    assert report.passed, (kind, report.max_rel_err)


@pytest.mark.parametrize("kind", KINDS)
def test_blocked_loss_memory_is_not_quadratic(kind):
    # a dense n x n f64 matrix here is 32 MB, and the dense tape held ~15 of them
    n, d = 2000, 64
    rng = np.random.default_rng(15)
    src = rng.integers(0, n, 5 * n)
    dst = (src + rng.integers(1, n, 5 * n)) % n
    edges = np.unique(np.sort(np.stack([src, dst], axis=1), axis=1), axis=0)
    g = Graph(edges, np.zeros((n, 1)))
    draw = draw_masks(g, 0.3, RngStream(4, "mask"))
    z = Parameter(rng.standard_normal((n, d)), name="z")
    tracemalloc.start()
    try:
        backward(estimator_loss(z, draw, EstimatorSpec(kind=kind)))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 128.0, peak_mb
    assert np.all(np.isfinite(z.grad))


def _memory_case(n: int, d: int):
    rng = np.random.default_rng(15)
    src = rng.integers(0, n, 5 * n)
    dst = (src + rng.integers(1, n, 5 * n)) % n
    edges = np.unique(np.sort(np.stack([src, dst], axis=1), axis=1), axis=0)
    draw = draw_masks(Graph(edges, np.zeros((n, 1))), 0.3, RngStream(4, "mask"))
    return draw, rng.standard_normal((n, d))


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("kind", KINDS)
def test_loss_working_set_is_two_strips(kind, precision):
    # Above its inputs, the loss and its backward hold two strips (three
    # for jsd, whose sigmoid slope D(1-D) is a strip of its own) and three
    # n x d arrays: zn, dzn and one scratch.  The slack is the strip's two
    # boolean masks (the clamp's `inside` and one transient) and 1 MiB of
    # O(n + |P|) index and weight arrays.  The earlier strip ops held five
    # strips at once.
    dc.set_precision(precision)
    n, d = 2000, 64
    draw, z0 = _memory_case(n, d)
    z = Parameter(z0, name="z")
    item = z.data.itemsize
    rows = contrast._BLOCK_ELEMS // n
    strips = 3 if kind == "jsd" else 2
    bound = strips * rows * n * item + 3 * n * d * item + 2 * rows * n + 2**20
    tracemalloc.start()
    try:
        backward(estimator_loss(z, draw, EstimatorSpec(kind=kind)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak / 2**20, bound / 2**20)
    assert z.grad.dtype == z.data.dtype


@pytest.mark.parametrize("kind", KINDS)
def test_z_dies_before_the_first_strip(kind, monkeypatch):
    # with the caller holding no reference, z's array goes once its unit rows
    # are formed; jsd scores z itself, as zn.  dL/dW is the same either way.
    draw, x = _memory_case(300, 8)
    refs, alive, grads = [], [], []
    strips = contrast.pair_strips

    def spy(n):
        alive.append(refs[-1]() is not None)
        return strips(n)

    monkeypatch.setattr(contrast, "pair_strips", spy)

    def projected(w):
        z = dc.matmul(Tensor(x), w)
        refs.append(weakref.ref(z.data))
        return z

    for caller_holds in (False, True):
        w = Parameter(np.random.default_rng(16).normal(size=(8, 4)), name="w")
        if caller_holds:
            z = projected(w)
            loss = estimator_loss(z, draw, EstimatorSpec(kind=kind))
        else:
            loss = estimator_loss(projected(w), draw, EstimatorSpec(kind=kind))
        backward(loss)
        grads.append(w.grad.tobytes())
    assert alive == [kind == "jsd", True]
    assert grads[0] == grads[1]


def _bitwise_cases(large: bool) -> list:
    """(draw, z) pairs: random graphs, the antipodal, duplicate-rows and
    anchor-without-other-positive fixtures that reach the clamp's ends,
    and, when `large`, a graph that the default strip height cuts in two."""
    rng = np.random.default_rng(21)
    cases = []
    for i in range(8):
        g = random_labeled_graph(rng, max_nodes=30)
        draw = draw_masks(g, float(rng.uniform(0.1, 0.9)), RngStream(i, "mask"))
        if not np.any(draw.pos_counts >= g.num_nodes):
            cases.append((draw, 3.0 * rng.standard_normal((g.num_nodes, 5))))
    antipodal = draw_masks(Graph(np.array([[0, 1], [2, 3]]), np.zeros((4, 1))), 0.0, RngStream(0, "mask"))
    cases.append((antipodal, np.array([[1.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [0.5, -0.2]])))
    duplicate = np.tile([[0.2, -1.0, 3.0]], (6, 1)) * 40.0
    duplicate[4] = [1.0, 0.5, -0.5]
    cases.append((draw_masks(_ring(6), 0.3, RngStream(1, "mask")), duplicate))
    lonely = draw_masks(Graph(np.array([[0, 1], [1, 2]]), np.zeros((5, 1))), 0.0, RngStream(0, "mask"))
    cases.append((lonely, np.random.default_rng(12).standard_normal((5, 3))))
    if large:
        n = contrast._BLOCK_ELEMS // 1000 + 100  # two strips of the default height
        cases.append(_memory_case(n, 6))
    return cases


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("rows", [1, 2, 7, None], ids=["B=1", "B=2", "B=7", "default"])
@pytest.mark.parametrize("kind", KINDS)
def test_in_place_strips_equal_the_earlier_op_bit_for_bit(kind, rows, precision, monkeypatch):
    dc.set_precision(precision)
    spec = EstimatorSpec(kind=kind)
    for draw, z in _bitwise_cases(large=rows is None):
        if rows is not None:
            monkeypatch.setattr(contrast, "_BLOCK_ELEMS", rows * draw.num_nodes)
        value, grad = _value_and_grad(lambda p, d: estimator_loss(p, d, spec), z, draw)
        ref_value, ref_grad = _value_and_grad(lambda p, d: estimator_loss_strips_oracle(p, d, spec), z, draw)
        assert value == ref_value, (draw.num_nodes, value, ref_value)
        assert grad.dtype == ref_grad.dtype == dc.active_dtype()
        assert grad.tobytes() == ref_grad.tobytes(), draw.num_nodes  # bytes: -0.0 == 0.0


def test_blocked_loss_keeps_input_checks():
    draw = draw_masks(_ring(4), 0.0, RngStream(0, "mask"))
    with pytest.raises(NumericError):
        _loss(Tensor(np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]])), draw, "jsd")
    with pytest.raises(ShapeError):
        _loss(Tensor(np.ones((3, 2))), draw, "info_nce")


def test_unit_rows_divide_a_zero_row_by_the_floor():
    # as torch.nn.functional.normalize: the row stays zero, and the loss's
    # backward divides its gradient by the same floor
    zn, norms = contrast.unit_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert zn.tolist() == [[0.6, 0.8], [0.0, 0.0]]
    assert norms.tolist() == [[5.0], [contrast.NORM_FLOOR]]
