"""Splits, probe, k-means, partition metrics, histograms, timing."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_drew, edge_list, random_labeled_graph, split_generator
from oracles import (
    canonical_partitions,
    homogeneity_oracle,
    kmeans_oracle,
    kmeans_serial_oracle,
    linear_probe_oracle,
    micro_f1_oracle,
    nmi_oracle,
    partition_metrics_one_table_oracle,
    partition_metrics_oracle,
    probe_gradients_oracle,
    similarity_histograms_oracle,
)
import tape_ops as kit

import signa.evaluate as evaluate
import signa.diffcore.ops as ops
from signa import contrast
from signa import diffcore as dc
from signa.diffcore import RngStream
from signa.encoder import EncoderState, ModelSpec, inference_embeddings
from signa.errors import AnalysisError, ConfigError, DegenerateEmbeddingError, NumericError, ShapeError
from signa.evaluate import (
    KMeansResult,
    ProbeConfig,
    Split,
    accuracy,
    homogeneity,
    kmeans,
    linear_probe,
    make_splits,
    micro_f1,
    nmi,
    partition_metrics,
    similarity_histograms,
    timing_harness,
)
from signa.graphdata import Graph, sbm_generate


# ---------------------------------------------------------------------------
# splits


def test_make_splits_sizes_and_cover():
    labels = np.zeros(200, dtype=np.int64)
    (split,) = make_splits(labels, rng=RngStream(0, "split"))
    assert split.train.size == 20
    assert split.val.size == 20
    assert split.test.size == 160
    merged = np.concatenate([split.train, split.val, split.test])
    assert np.array_equal(np.sort(merged), np.arange(200))


def test_make_splits_indices_sorted():
    splits = make_splits(np.zeros(57, dtype=np.int64), num_runs=3, rng=RngStream(4, "split"))
    for s in splits:
        for part in (s.train, s.val, s.test):
            assert np.array_equal(part, np.sort(part))


def test_make_splits_reproducible_and_runs_distinct():
    labels = np.zeros(80, dtype=np.int64)
    a = make_splits(labels, num_runs=3, rng=RngStream(7, "split"))
    b = make_splits(labels, num_runs=3, rng=RngStream(7, "split"))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.train, sb.train)
        assert np.array_equal(sa.test, sb.test)
    assert not np.array_equal(a[0].train, a[1].train)


def test_make_splits_rounds_the_protocol_shares():
    # train and val take round(n * 0.1) nodes each, half to even, and test the rest
    for n, sizes in ((15, (2, 2, 11)), (25, (2, 2, 21)), (57, (6, 6, 45)), (104, (10, 10, 84))):
        (split,) = make_splits(np.zeros(n, dtype=np.int64), RngStream(0, "split"))
        assert (split.train.size, split.val.size, split.test.size) == sizes


def test_make_splits_too_few_nodes():
    with pytest.raises(AnalysisError, match=r"4 labeled nodes are too few for ratios \(0.1, 0.1, 0.8\)"):
        make_splits(np.zeros(4, dtype=np.int64), RngStream(0, "split"))


# ---------------------------------------------------------------------------
# micro-F1 / accuracy


def test_micro_f1_equals_accuracy_single_label():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 5))
        y = rng.integers(0, k, size=n)
        p = rng.integers(0, k, size=n)
        assert micro_f1(y, p) == pytest.approx(accuracy(y, p), abs=0.0)


def test_micro_f1_equals_the_per_class_counts():
    # one comparison in place of three passes per class, with the same division
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        y = rng.integers(-2, 5, size=n)
        p = rng.integers(-2, 5, size=n)
        assert micro_f1(y, p) == micro_f1_oracle(y, p)
        assert micro_f1(y, y) == micro_f1_oracle(y, y) == 1.0


def test_micro_f1_extremes_and_validation():
    y = np.array([0, 1, 2])
    assert micro_f1(y, y) == 1.0
    assert micro_f1(y, (y + 1) % 3) == 0.0
    with pytest.raises(AnalysisError):
        micro_f1(np.array([0, 1]), np.array([0]))
    with pytest.raises(AnalysisError):
        micro_f1(np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# linear probe


def _split_all(n, rng, ratios=(0.5, 0.2, 0.3)):
    """A split drawn as `make_splits` draws its first run, cut at `ratios`."""
    perm = rng.child(0).permutation(n)
    n_train, n_val = round(n * ratios[0]), round(n * ratios[1])
    cuts = np.split(perm, [n_train, n_train + n_val])
    return Split(*(np.sort(part) for part in cuts))


def test_probe_learns_separable_data():
    rng = np.random.default_rng(1)
    labels = np.repeat([0, 1], 30)
    x = rng.normal(size=(60, 4)) * 0.1
    x[labels == 1, 0] += 4.0
    split = _split_all(60, RngStream(1, "probe"))
    f1, acc = linear_probe(x, labels, split, ProbeConfig(num_epochs=150))
    assert f1 == 1.0 and acc == 1.0


def test_probe_chance_on_shuffled_labels():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 3))
    labels = rng.integers(0, 2, size=200)
    split = _split_all(200, RngStream(2, "probe"))
    f1, acc = linear_probe(x, labels, split, ProbeConfig(num_epochs=60))
    assert 0.2 <= acc <= 0.8
    assert f1 == pytest.approx(acc)


def test_probe_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 5))
    labels = rng.integers(0, 3, size=40)
    split = _split_all(40, RngStream(3, "probe"))
    assert linear_probe(x, labels, split, ProbeConfig()) == linear_probe(x, labels, split, ProbeConfig())


def test_probe_warns_on_missing_train_class():
    from signa.evaluate import Split

    x = np.eye(6)
    labels = np.array([0, 0, 0, 0, 1, 1])
    split = Split(np.array([0, 1]), np.array([2, 3]), np.array([4, 5]))
    with pytest.warns(UserWarning, match="absent from the training split"):
        linear_probe(x, labels, split, ProbeConfig(num_epochs=2))


def _probe_data(seed, n=240, num_features=12, num_classes=4):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    means = rng.normal(size=(num_classes, num_features))
    return means[labels] + 1.5 * rng.normal(size=(n, num_features)), labels


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_probe_matches_oracle(precision):
    dc.set_precision(precision)
    # the last embeddings are in the active dtype, as eval passes them; their
    # 1537 test rows are scored in 512-row blocks, the last taking the
    # one-row tail
    wide, wide_labels = _probe_data(3, n=1921, num_features=256)
    cases = [_probe_data(seed) for seed in range(3)] + [(wide.astype(dc.active_dtype()), wide_labels)]
    for seed, (x, labels) in enumerate(cases):
        for split in make_splits(labels, num_runs=4, rng=RngStream(seed, "split")):
            config = ProbeConfig(num_epochs=80)
            assert linear_probe(x, labels, split, config) == linear_probe_oracle(x, labels, split, config)


def _probe_trajectory(monkeypatch, probe, *args):
    """probe(*args) and its parameters after every Adam step, the weight
    rows stacked over the bias row."""
    steps = []
    adam_step = dc.adam_step

    def recording(state):
        adam_step(state)
        steps.append(np.vstack([p.data for p in state.params]))

    with monkeypatch.context() as m:
        m.setattr(dc, "adam_step", recording)
        return probe(*args), steps


@pytest.mark.parametrize(
    "precision, n, dim",
    [("f64", 4000, 256), ("f32", 1000, 1024)],
    ids=["dense-n4k-shape", "wide-gconv-n1k-shape"],
)
def test_probe_matches_oracle_at_benchmark_shapes(precision, n, dim, monkeypatch):
    # the shapes `eval --mode classify` probes on the benchmark workloads:
    # 5 classes, embeddings in the active dtype, full 300-epoch runs.  Every
    # epoch's parameters match, not only the scores.
    dc.set_precision(precision)
    x, labels = _probe_data(4, n=n, num_features=dim, num_classes=5)
    x = x.astype(dc.active_dtype())
    for split in make_splits(labels, num_runs=3, rng=RngStream(4, "split")):
        args = (x, labels, split, ProbeConfig())
        got, got_steps = _probe_trajectory(monkeypatch, linear_probe, *args)
        want, want_steps = _probe_trajectory(monkeypatch, linear_probe_oracle, *args)
        assert got == want
        assert len(got_steps) == len(want_steps) == 300
        for a, b in zip(got_steps, want_steps):
            assert a.dtype == b.dtype == dc.active_dtype() and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("num_classes", [1, 2, 8, 13])
def test_probe_matches_oracle_for_any_class_count(num_classes, monkeypatch):
    # from 8 classes on, numpy sums a row's entries in another order than
    # a chain of column adds would
    x, labels = _probe_data(6, n=300, num_classes=num_classes)
    for split in make_splits(labels, num_runs=2, rng=RngStream(6, "split")):
        args = (x, labels, split, ProbeConfig(num_epochs=60))
        got, got_steps = _probe_trajectory(monkeypatch, linear_probe, *args)
        want, want_steps = _probe_trajectory(monkeypatch, linear_probe_oracle, *args)
        assert got == want
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got_steps, want_steps))
        if num_classes == 1:
            assert got == (1.0, 1.0)


def test_probe_first_of_tied_logits_wins():
    # all-zero embeddings leave the weights at zero, so every logit is the
    # bias; classes 0 and 1 have equally many training rows, so their bias
    # entries stay bitwise equal and tie above class 2's on every row
    labels = np.r_[np.repeat([0, 1], 10), [2] * 5, np.tile([0, 1, 2], 20)]
    x = np.zeros((labels.size, 8))
    idx = np.arange(labels.size)
    split = Split(idx[:25], idx[25:45], idx[45:])
    got = linear_probe(x, labels, split, ProbeConfig(num_epochs=50))
    assert got == linear_probe_oracle(x, labels, split, ProbeConfig(num_epochs=50))
    assert got[1] == np.mean(labels[split.test] == 0)


def test_probe_first_of_tied_validation_logits_wins(monkeypatch):
    # classes 3 and 4 are absent from the training split, so their columns
    # stay bitwise equal and their logits tie; on validation rows far from
    # the training rows the tie is the maximum.  Half of those rows are
    # labeled 3, half 4: only the first maximum picks the oracle's epoch.
    rng = np.random.default_rng(3)
    means = np.array([[3.0, 0.0], [0.0, 3.0], [3.0, 3.0]])
    y_train = rng.integers(0, 3, 30)
    x_train = means[y_train] + 1.5 * rng.normal(size=(30, 2))
    y_val = rng.integers(0, 5, 20)
    far = rng.normal(size=(20, 2)) * 2 - 2
    x_val = np.where(y_val[:, None] >= 3, far, means[np.minimum(y_val, 2)] + 1.5 * rng.normal(size=(20, 2)))
    y_test = rng.integers(0, 3, 40)
    x_test = means[y_test] + 2.5 * rng.normal(size=(40, 2))
    x, labels = np.r_[x_train, x_val, x_test], np.r_[y_train, y_val, y_test]
    idx = np.arange(labels.size)
    split = Split(idx[:30], idx[30:50], idx[50:])
    config = ProbeConfig()
    with pytest.warns(UserWarning, match=r"classes \[3, 4\] absent"):
        want, steps = _probe_trajectory(monkeypatch, linear_probe_oracle, x, labels, split, config)
    with pytest.warns(UserWarning, match=r"classes \[3, 4\] absent"):
        assert linear_probe(x, labels, split, config) == want

    # the case is one where the tie decides: taking the last maximum on the
    # validation rows keeps another epoch, with another test accuracy
    def kept(first):
        correct = []
        for theta in steps:
            logits = x_val @ theta[:2] + theta[2]
            assert np.all(logits[:, 3] == logits[:, 4])
            pred = np.argmax(logits, axis=1) if first else 4 - np.argmax(logits[:, ::-1], axis=1)
            correct.append(np.count_nonzero(pred == y_val))
        theta = steps[int(np.argmax(correct))]
        return np.mean(np.argmax(x_test @ theta[:2] + theta[2], axis=1) == y_test)

    assert kept(first=True) == want[1] != kept(first=False)


def test_probe_first_of_tied_validation_epochs_wins():
    # validation points sit far from the boundary, so every epoch from the
    # first on gets all of them right; the test points sit near it, so the
    # test score moves after epoch 1.  The first epoch must be the one kept.
    rng = np.random.default_rng(0)
    y_train = np.repeat([0, 1], 10)
    x_train = np.c_[np.where(y_train == 1, 1.0, -1.0) + 0.8 * rng.normal(size=20), rng.normal(size=20)]
    y_val = np.repeat([0, 1], 3)
    x_val = np.c_[np.where(y_val == 1, 5.0, -5.0), np.zeros(6)]
    y_test = rng.integers(0, 2, size=40)
    x_test = np.c_[np.where(y_test == 1, 0.3, -0.3) + 0.5 * rng.normal(size=40), rng.normal(size=40)]
    x = np.r_[x_train, x_val, x_test]
    labels = np.r_[y_train, y_val, y_test]
    idx = np.arange(labels.size)
    split = Split(idx[:20], idx[20:26], idx[26:])
    config = ProbeConfig(num_epochs=300)

    first_epoch = linear_probe(x, labels, split, ProbeConfig(num_epochs=1))
    assert linear_probe(x, labels, split, config) == first_epoch
    assert linear_probe_oracle(x, labels, split, config) == first_epoch
    # choosing by test score instead shows that later epochs score differently
    by_test = Split(split.train, split.test, split.test)
    assert linear_probe(x, labels, by_test, config)[1] > first_epoch[1]


def test_probe_matches_oracle_with_missing_train_class():
    x, labels = _probe_data(5, n=60, num_classes=3)
    idx = np.arange(60)
    train = idx[labels != 2][:20]
    rest = np.setdiff1d(idx, train)
    split = Split(train, rest[:10], rest[10:])
    config = ProbeConfig(num_epochs=50)
    with pytest.warns(UserWarning, match=r"classes \[2\] absent"):
        got = linear_probe(x, labels, split, config)
    with pytest.warns(UserWarning, match=r"classes \[2\] absent"):
        want = linear_probe_oracle(x, labels, split, config)
    assert got == want


def test_probe_scores_micro_f1_once(monkeypatch):
    import signa.evaluate as evaluate

    calls = []

    def counting_micro_f1(y_true, y_pred):
        calls.append(len(y_true))
        return micro_f1(y_true, y_pred)

    monkeypatch.setattr(evaluate, "micro_f1", counting_micro_f1)
    x, labels = _probe_data(1)
    (split,) = make_splits(labels, rng=RngStream(1, "split"))
    linear_probe(x, labels, split, ProbeConfig(num_epochs=40))
    assert calls == [split.test.size]


def _tape_probe_gradients(x, onehot, w0, b0):
    """The autodiff form of the probe's gradient, kept as the closed form's oracle."""
    w = dc.Parameter(w0.copy(), name="probe.weight")
    b = dc.Parameter(b0.copy(), name="probe.bias")
    logits = kit.add(dc.matmul(dc.Tensor(x), w), b)
    row_max = np.max(logits.data, axis=1, keepdims=True)
    shifted = kit.sub(logits, dc.Tensor(row_max))
    log_denom = kit.log(kit.tsum(kit.exp(shifted), axis=1, keepdims=True))
    log_prob = kit.sub(shifted, log_denom)
    loss = kit.scalar_mul(kit.tsum(kit.hadamard(dc.Tensor(onehot), log_prob)), -1.0 / x.shape[0])
    dc.backward(loss)
    return w.grad, b.grad


def test_probe_closed_form_gradient_matches_tape():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(50, 6))
    onehot = np.eye(4)[rng.integers(0, 4, size=50)]
    w0, b0 = rng.normal(size=(6, 4)), rng.normal(size=4)
    for got, want in zip(probe_gradients_oracle(x, onehot, w0, b0), _tape_probe_gradients(x, onehot, w0, b0)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_probe_shape_mismatch():
    split = _split_all(10, RngStream(0, "probe"))
    with pytest.raises(ShapeError):
        linear_probe(np.zeros((10, 2)), np.zeros(9, dtype=np.int64), split, ProbeConfig())


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_recovers_separated_clouds():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 2)) * 0.1
    b = rng.normal(size=(30, 2)) * 0.1 + 10.0
    x = np.vstack([a, b])
    result = kmeans(x, 2, rng=RngStream(5, "kmeans"))
    truth = np.repeat([0, 1], 30)
    assert nmi(result.assignments, truth) == 1.0
    assert result.inertia < 5.0


def test_kmeans_k1_centroid_is_mean():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(25, 3))
    result = kmeans(x, 1, restarts=1, rng=RngStream(6, "kmeans"))
    assert result.inertia == pytest.approx(np.sum((x - x.mean(axis=0)) ** 2))


def test_kmeans_inertia_trace_non_increasing():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 4))
    result = kmeans(x, 3, restarts=1, rng=RngStream(7, "kmeans"))
    trace = np.array(result.inertia_trace)
    assert trace.size >= 1
    assert np.all(np.diff(trace) <= 1e-9)
    assert result.inertia == pytest.approx(trace[-1])


def test_kmeans_deterministic_and_restarts_no_worse():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 3))
    one = kmeans(x, 4, restarts=1, rng=RngStream(8, "kmeans"))
    many = kmeans(x, 4, restarts=8, rng=RngStream(8, "kmeans"))
    again = kmeans(x, 4, restarts=8, rng=RngStream(8, "kmeans"))
    assert many.inertia <= one.inertia + 1e-12
    assert np.array_equal(many.assignments, again.assignments)
    assert isinstance(many, KMeansResult)


def test_kmeans_validation():
    x = np.zeros((5, 2))
    rng = RngStream(0, "kmeans")
    with pytest.raises(AnalysisError):
        kmeans(x, 0, rng)
    with pytest.raises(AnalysisError):
        kmeans(x, 6, rng)
    with pytest.raises(ShapeError):
        kmeans(np.zeros(5), 2, rng)
    with pytest.raises(AnalysisError):
        kmeans(x, 2, rng, restarts=0)


def _assert_matches_oracle(x, k, restarts, seed, max_iters=300):
    """Lockstep k-means against the restart-by-restart oracle: the same
    assignments, the same number of Lloyd iterations in the kept restart,
    and inertia equal up to the reassociated cluster sums."""
    new = kmeans(x, k, restarts=restarts, max_iters=max_iters, rng=RngStream(seed, "kmeans"))
    old = kmeans_serial_oracle(x, k, restarts=restarts, max_iters=max_iters, rng=RngStream(seed, "kmeans"))
    np.testing.assert_array_equal(new.assignments, old.assignments)
    assert new.assignments.dtype == old.assignments.dtype
    assert len(new.inertia_trace) == len(old.inertia_trace)
    assert abs(new.inertia - old.inertia) <= 1e-12 * abs(old.inertia)
    np.testing.assert_allclose(new.inertia_trace, old.inertia_trace, rtol=1e-12, atol=0.0)
    return new


@pytest.mark.parametrize(
    "n,d,k,restarts",
    [(40, 2, 3, 1), (120, 5, 4, 10), (300, 16, 6, 3), (500, 32, 5, 10), (64, 3, 10, 7)],
)
def test_kmeans_matches_oracle_on_random_clouds(n, d, k, restarts):
    for seed in range(4):
        rng = np.random.default_rng([n, d, k, seed])
        centers = 3.0 * rng.normal(size=(k, d))
        x = centers[rng.integers(0, k, size=n)] + rng.normal(size=(n, d))
        _assert_matches_oracle(x, k, restarts, seed)


def test_kmeans_matches_oracle_when_max_iters_stops_it():
    x = np.random.default_rng(21).normal(size=(200, 4))
    result = _assert_matches_oracle(x, 5, restarts=4, seed=2, max_iters=2)
    assert len(result.inertia_trace) == 3


def test_kmeans_reseeds_an_empty_cluster_like_the_oracle(monkeypatch):
    # three distinct points, each repeated, and k = 4: seeding runs out of
    # distinct points (a duplicate of a chosen one weighs exactly zero), a
    # centroid repeats, and its cluster comes out empty
    calls = []
    update = evaluate._update_one_by_one
    monkeypatch.setattr(
        evaluate, "_update_one_by_one", lambda *args: calls.append(1) or update(*args)
    )
    for trial in range(8):
        rng = np.random.default_rng(trial)
        x = rng.normal(size=(3, 5))[rng.integers(0, 3, size=30)]
        for seed in range(3):
            _assert_matches_oracle(x, 4, restarts=3, seed=seed)
    assert calls


def test_kmeans_converges_on_duplicate_rows():
    # three distinct rows and k > 3: once every point sits on its centroid,
    # the farthest point's distance is rounding noise, and re-seeding an empty
    # cluster there would move a point back and forth every iteration
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 5))[rng.integers(0, 3, size=30)]
        for k in (4, 5):
            for restarts in (1, 10):
                result = kmeans(x, k, restarts=restarts, rng=RngStream(seed, "kmeans"))
                assert len(result.inertia_trace) < 301, (seed, k, restarts)
                assert result.inertia < 1e-12


def test_kmeans_identical_points_take_the_zero_weight_seeding_branch():
    for trial in range(12):
        x = np.tile(np.random.default_rng(trial).normal(size=(1, 4)), (12, 1))
        rng = RngStream(3, "kmeans").child(0)
        seeds = evaluate._kmeans_pp(x, evaluate._row_sq_norms(x), 3, [rng])
        # the first centroid only: every later weight is zero
        assert_drew(rng, lambda r: r.integers(0, 12))
        np.testing.assert_array_equal(seeds[0], np.tile(x[0], (3, 1)))
        assert _assert_matches_oracle(x, 3, restarts=2, seed=3).inertia == 0.0


def test_kmeans_with_k_equal_to_n_matches_oracle():
    x = np.random.default_rng(24).normal(size=(9, 3))
    result = _assert_matches_oracle(x, 9, restarts=3, seed=4)
    assert sorted(result.assignments.tolist()) == list(range(9))
    assert result.inertia == 0.0


def test_kmeans_temporaries_scale_with_points_restarts_and_k():
    # the lockstep iteration's arrays are of size n x restarts x k; nothing
    # of size n x d beyond the input (the serial oracle makes several)
    n, d, k, restarts = 4000, 1000, 4, 3
    x = np.random.default_rng(25).normal(size=(n, d))
    tracemalloc.start()
    try:
        kmeans(x, k, restarts=restarts, rng=RngStream(9, "kmeans"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * restarts * k * 8
    assert peak < n * d * 8 / 8


# eight points on a line on which Lloyd empties a cluster at its third
# iteration: in seed 67's one restart, and in one of seed 7's ten
EMPTIES_MID_RUN = np.array([8.662, 7.192, 4.464, 4.556, 4.049, 3.987, 1.398, 7.304])[:, None]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("restarts", [1, 10])
def test_kmeans_equals_the_earlier_lockstep_kmeans_bitwise(monkeypatch, dtype, restarts):
    # each `_update_one_by_one` call records how many distance products came
    # before it in this k-means run
    products, reseeds = [], []
    assign, update = evaluate._assign, evaluate._update_one_by_one
    monkeypatch.setattr(evaluate, "_assign", lambda *a: products.append(1) or assign(*a))
    monkeypatch.setattr(evaluate, "_update_one_by_one", lambda *a: reseeds.append(len(products)) or update(*a))
    rng = np.random.default_rng(restarts)
    cases = [(EMPTIES_MID_RUN, 3, 67 if restarts == 1 else 7)]
    for n, d, k, seed in ((300, 16, 6, 0), (30000, 4, 5, 1)):  # the second spans several row blocks
        x = 3.0 * rng.normal(size=(k, d))[rng.integers(0, k, size=n)] + rng.normal(size=(n, d))
        cases.append((x, k, seed))
    for x, k, seed in cases:
        products.clear()
        reseeds.clear()
        emb = x.astype(dtype)
        new = kmeans(emb, k, RngStream(seed, "kmeans"), restarts=restarts)
        old = kmeans_oracle(emb, k, RngStream(seed, "kmeans"), restarts=restarts)
        assert new.assignments.dtype == old.assignments.dtype
        assert new.assignments.tobytes() == old.assignments.tobytes()
        assert np.float64(new.inertia).tobytes() == np.float64(old.inertia).tobytes()
        assert np.array(new.inertia_trace).tobytes() == np.array(old.inertia_trace).tobytes()
        if x is EMPTIES_MID_RUN:  # its empty cluster comes after the first iteration
            assert reseeds and min(reseeds) > 1


def test_kmeans_holds_one_distance_sized_array():
    # above its input: one (n, restarts * k) f64 array (the distances, later
    # the one-hot), four n x restarts columns and one row block; the earlier
    # k-means held about 4.5 such arrays
    n, d, k, restarts = 8000, 4, 8, 10
    x = np.random.default_rng(26).normal(size=(n, d))
    tracemalloc.start()
    try:
        kmeans(x, k, restarts=restarts, rng=RngStream(9, "kmeans"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * restarts * k * 8 + 4 * n * restarts * 8 + ops._BLOCK_ENTRIES * 8


# ---------------------------------------------------------------------------
# partition metrics


def test_identical_nontrivial_partitions_score_one():
    y = np.array([0, 0, 1, 1, 2])
    assert nmi(y, y) == 1.0
    assert homogeneity(y, y) == 1.0


def test_metrics_invariant_to_relabeling():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.integers(0, 3, size=30)
        b = rng.integers(0, 3, size=30)
        perm = rng.permutation(3)
        assert nmi(perm[a], b) == pytest.approx(nmi(a, b), abs=1e-12)
        assert homogeneity(perm[a], b) == pytest.approx(homogeneity(a, b), abs=1e-12)


def test_metrics_match_oracles_on_random_pairs():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        a = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        assert nmi(a, b) == pytest.approx(nmi_oracle(a, b), abs=1e-12)
        assert homogeneity(a, b) == pytest.approx(homogeneity_oracle(a, b), abs=1e-12)


def test_partition_metrics_equal_the_earlier_pair_bit_for_bit():
    # value-indexed tables, and ranked ones for negative or large labels
    rng = np.random.default_rng(12)
    for _ in range(400):
        n = int(rng.integers(1, 60))
        a = rng.integers(0, int(rng.integers(1, 12)), size=n)
        b = rng.integers(0, int(rng.integers(1, 12)), size=n)
        if rng.uniform() < 0.3:
            a = a - int(rng.integers(1, 4))
        if rng.uniform() < 0.3:
            b = b * 1000
        want = partition_metrics_oracle(a, b)
        assert partition_metrics(a, b) == want == partition_metrics_one_table_oracle(a, b), (a, b)
        assert (nmi(a, b), homogeneity(a, b)) == want


def test_partition_metrics_equal_the_first_one_table_function_on_the_exhaustive_pairs():
    # acceptance 06's pairs: every two partitions of n <= 8 items into at
    # most 3 cells.  Their cells are numbered 0, 1, ... by first appearance,
    # so both functions read the values as the table's indices, and a pair
    # gives what any pair with its contingency table gives: one pair per
    # table is checked, as acceptance 06 computes its references.
    tables = 0
    for n in range(1, 9):
        seen = set()
        parts = [np.asarray(p, dtype=np.int64) for p in canonical_partitions(n, max_cells=3)]
        for a in parts:
            for b in parts:
                key = np.bincount(a * 3 + b, minlength=9).tobytes()
                if key not in seen:
                    seen.add(key)
                    assert partition_metrics(a, b) == partition_metrics_one_table_oracle(a, b), (a, b)
        tables += len(seen)
    assert tables == 8052


def test_metric_degenerate_conventions():
    flat = np.zeros(6, dtype=np.int64)
    varied = np.array([0, 0, 1, 1, 2, 2])
    # both trivial: agreement
    assert nmi(flat, flat) == 1.0
    assert homogeneity(flat, flat) == 1.0
    # one trivial: no information
    assert nmi(flat, varied) == 0.0
    # single cluster cannot split classes but conveys nothing
    assert homogeneity(flat, varied) == 0.0
    # classes constant: vacuously homogeneous
    assert homogeneity(varied, flat) == 1.0


def test_metrics_bounded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.integers(0, 4, size=20)
        b = rng.integers(0, 4, size=20)
        for value in (nmi(a, b), homogeneity(a, b)):
            assert 0.0 <= value <= 1.0


def test_metric_input_validation():
    with pytest.raises(AnalysisError):
        nmi(np.array([0, 1]), np.array([0]))
    with pytest.raises(AnalysisError):
        homogeneity(np.array([]), np.array([]))


def test_metrics_match_scikit_learn():
    sk = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        if len(set(a)) > 1 or len(set(b)) > 1:  # sklearn NMI defines 1-vs-1 cells as 0
            assert nmi(a, b) == pytest.approx(
                sk.normalized_mutual_info_score(b, a, average_method="arithmetic"), abs=1e-9
            )
        assert homogeneity(a, b) == pytest.approx(sk.homogeneity_score(b, a), abs=1e-9)
        assert micro_f1(b, a) == pytest.approx(sk.f1_score(b, a, average="micro"), abs=1e-12)


# ---------------------------------------------------------------------------
# similarity histograms


def _labeled_path4():
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    feats = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 0.0]])
    return Graph(edges, feats, np.array([0, 0, 1, 1]))


def _histograms_match_oracle(emb, g, bins, subsample_pairs=None, seed=0):
    """similarity_histograms on (emb, g), after checking that its counts, its
    other fields and its draws from the stream are the oracle's."""
    rng, ref_rng = RngStream(seed, "split"), RngStream(seed, "split")
    h = similarity_histograms(emb, g, rng, bins=bins, subsample_pairs=subsample_pairs)
    ref = similarity_histograms_oracle(emb, g, ref_rng, bins=bins, subsample_pairs=subsample_pairs)
    np.testing.assert_array_equal(h.bin_edges, ref.bin_edges)
    for name in ("neighbor", "non_neighbor", "same_label", "diff_label"):
        got, want = getattr(h, name), getattr(ref, name)
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
    assert (h.num_pairs, h.subsampled) == (ref.num_pairs, ref.subsampled)
    assert rng._gen.bit_generator.state == ref_rng._gen.bit_generator.state
    return h


def test_histograms_partition_all_pairs():
    g = _labeled_path4()
    rng = np.random.default_rng(12)
    emb = rng.normal(size=(4, 3))
    h = _histograms_match_oracle(emb, g, bins=10)
    assert h.num_pairs == 6
    assert not h.subsampled
    assert h.neighbor.sum() + h.non_neighbor.sum() == 6
    assert h.neighbor.sum() == 3  # path edges
    assert h.same_label.sum() + h.diff_label.sum() == 6
    assert h.same_label.sum() == 2
    assert h.bin_edges[0] == -1.0 and h.bin_edges[-1] == 1.0
    assert h.bin_edges.size == 11


def test_histograms_no_labels_and_zero_row():
    g = _labeled_path4()
    unlabeled = Graph(edge_list(g), g.features)
    h = _histograms_match_oracle(np.eye(4), unlabeled, bins=4)
    assert h.same_label is None and h.diff_label is None
    with pytest.raises(DegenerateEmbeddingError):
        similarity_histograms(np.zeros((4, 2)), unlabeled, RngStream(0, "split"))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="embeddings"):
            similarity_histograms(np.array([[1.0], [bad], [1.0], [2.0]]), unlabeled, RngStream(0, "split"))


def test_histograms_match_oracle_on_random_graphs():
    rng = np.random.default_rng(14)
    for trial in range(30):
        g = random_labeled_graph(rng, max_nodes=60)
        n = g.num_nodes
        gaussian = rng.normal(size=(n, int(rng.integers(1, 9))))
        # rows +-e_k: every similarity is -1, 0 or 1, on a bin edge when bins is even
        axes = np.eye(3)[rng.integers(0, 3, size=n)] * rng.choice([-1.0, 1.0], size=(n, 1))
        bins = int(rng.integers(1, 30))
        unlabeled = Graph(edge_list(g), g.features)
        edgeless = Graph([], g.features, g.labels)
        for graph in (g, unlabeled, edgeless):
            for emb in (gaussian, axes):
                _histograms_match_oracle(emb, graph, bins)
                _histograms_match_oracle(emb, graph, bins, subsample_pairs=int(rng.integers(1, 200)), seed=trial)


def test_histograms_of_two_nodes_match_oracle():
    g = Graph(np.array([[0, 1]]), np.ones((2, 1)), labels=np.array([0, 1]))
    for emb in (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 2.0], [-3.0, 0.5]])):
        h = _histograms_match_oracle(emb, g, bins=7)
        assert h.num_pairs == 1 and h.neighbor.sum() == 1 and h.diff_label.sum() == 1
        edgeless = Graph([], g.features)
        assert _histograms_match_oracle(emb, edgeless, bins=7).non_neighbor.sum() == 1


def test_subsampled_histograms_of_one_node_fail_before_drawing():
    g = Graph([], np.ones((1, 1)))
    rng = RngStream(0, "split")
    with pytest.raises(AnalysisError, match="at least 2 nodes, got 1"):
        similarity_histograms(np.ones((1, 2)), g, rng, subsample_pairs=10)
    assert_drew(rng)
    assert similarity_histograms(np.ones((1, 2)), g, rng).num_pairs == 0


@pytest.mark.parametrize("rows", [1, 5, 36])
def test_histograms_with_small_strips_match_oracle(monkeypatch, rows):
    # n = 37 in strips of 1 row, or of 5 or 36 rows with a ragged last strip
    n = 37
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", rows * n)
    rng = np.random.default_rng(15)
    for _ in range(5):
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < 0.2
        labels = rng.integers(0, 3, size=n)
        g = Graph(np.stack([iu[keep], iv[keep]], axis=1), np.ones((n, 1)), labels=labels)
        _histograms_match_oracle(rng.normal(size=(n, 4)), g, bins=13)


@pytest.mark.parametrize("labeled", [False, True])
def test_histograms_of_an_empty_graph_count_nothing(labeled):
    # pair_strips(0) yields no strip, as n = 1 yields one with no pair i < j
    g = Graph([], np.ones((0, 1)), labels=np.zeros(0, dtype=np.int64) if labeled else None)
    h = similarity_histograms(np.ones((0, 3)), g, RngStream(0, "split"), bins=5)
    assert h.num_pairs == 0 and not h.subsampled
    assert not h.neighbor.any() and not h.non_neighbor.any()
    assert (h.same_label is None) == (not labeled)


def test_histograms_name_the_near_zero_row_and_its_norm():
    g = Graph([], np.ones((3, 1)))
    emb = np.array([[1.0, 0.0], [1e-14, 0.0], [0.0, 2.0]])
    with pytest.raises(DegenerateEmbeddingError, match=r"row 1 has near-zero norm \(1\.000e-14\)"):
        similarity_histograms(emb, g, RngStream(0, "split"))


def test_histograms_large_graph_runs_full_pairs():
    n = 5001
    g = Graph([], np.ones((n, 1)))
    h = similarity_histograms(np.ones((n, 2)), g, RngStream(0, "split"))
    assert not h.subsampled and h.num_pairs == n * (n - 1) // 2
    assert h.neighbor.sum() == 0 and h.non_neighbor[-1] == h.num_pairs
    h = similarity_histograms(np.ones((n, 2)), g, RngStream(0, "split"), subsample_pairs=500)
    assert h.subsampled and h.num_pairs == 500
    assert h.neighbor.sum() == 0 and h.non_neighbor.sum() == 500


def test_full_pair_histograms_need_no_pair_by_dim_arrays():
    # strips of B = 2^20 // n rows: O(B*n + n*d) memory, where the n x n Gram
    # matrix and the n(n-1)/2 index pairs took ~330 MB
    n, d = 4000, 256
    g = Graph([], np.ones((n, 1)))
    emb = np.random.default_rng(13).normal(size=(n, d))
    tracemalloc.start()
    try:
        h = similarity_histograms(emb, g, RngStream(0, "split"), bins=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.num_pairs == n * (n - 1) // 2
    assert h.non_neighbor.sum() == h.num_pairs
    assert peak <= 64 * 2**20


def test_histograms_shape_mismatch():
    g = _labeled_path4()
    with pytest.raises(ShapeError):
        similarity_histograms(np.ones((3, 2)), g, RngStream(0, "split"))


# ---------------------------------------------------------------------------
# timing harness


_TIMING_SPEC = ModelSpec(num_layers=1, hidden_dim=8, dropout_p=0.0)


def test_timing_harness_reports_medians():
    rng = np.random.default_rng(13)
    g = random_labeled_graph(rng, max_nodes=30)
    report = timing_harness(g, _TIMING_SPEC, repeats=5)
    kinds = {e.encoder_kind for e in report.entries}
    assert kinds == {"linear", "gconv"}
    assert all(e.wall_millis > 0 for e in report.entries)
    assert report.ratio_gconv_over_linear > 0
    assert report.repeats == 5


def test_timing_harness_interleaves_the_repeats(monkeypatch):
    # each encoder warms up as before, then the timed passes alternate,
    # with the encoder that goes first swapping every repeat; the two specs
    # differ only in base_encoder
    order = []
    encode_rows = evaluate.encode_rows

    def spy(state, spec, feats, **kw):
        order.append(spec.base_encoder[0])
        assert replace(spec, base_encoder="linear") == _TIMING_SPEC
        return encode_rows(state, spec, feats, **kw)

    monkeypatch.setattr(evaluate, "encode_rows", spy)
    g = random_labeled_graph(np.random.default_rng(16), max_nodes=20)
    timing_harness(g, _TIMING_SPEC, repeats=5)
    assert "".join(order) == "lllggg" + "lg" + "gl" + "lg" + "gl" + "lg"


def test_timing_harness_validates_specs():
    rng = np.random.default_rng(14)
    g = random_labeled_graph(rng, max_nodes=20)
    with pytest.raises(ConfigError, match="repeats must be >= 1"):
        timing_harness(g, _TIMING_SPEC, repeats=0)


# ---------------------------------------------------------------------------
# embedding pipeline smoke test: train-free probe on raw SBM features


def test_probe_beats_chance_on_informative_features():
    means = np.zeros((2, 8))
    means[1, 0] = 3.0
    g = sbm_generate([40, 40], 0.1, 0.02, means, 0.5, split_generator(16))
    split = _split_all(g.labels.size, RngStream(16, "split"), ratios=(0.3, 0.2, 0.5))
    f1, acc = linear_probe(g.features, g.labels, split, ProbeConfig(num_epochs=100))
    assert acc > 0.9


# ---------------------------------------------------------------------------
# row blocks


def _row_block_passes(monkeypatch, rows):
    """The bytes of each `dc.row_blocks` pass, its budget set to
    blocks of `rows` rows of that pass's width (None: one block)."""

    def budget(width):
        monkeypatch.setattr(ops, "_BLOCK_ENTRIES", width * (rows or 10**6))

    rng = np.random.default_rng(41)
    n, num_features, hidden = 203, 9, 24
    spec = ModelSpec(hidden_dim=hidden, projector_dim=4)
    state = EncoderState(spec, num_features, RngStream(3, "init"))
    graph = Graph(np.zeros((0, 2)), rng.normal(size=(n, num_features)))
    x, labels = _probe_data(4, n=n, num_features=hidden)
    split = make_splits(labels, RngStream(0, "split"))[0]
    out = []
    budget(hidden)
    out.append(inference_embeddings(state, spec, graph).data.tobytes())
    out.append(evaluate._row_sq_norms(x).tobytes())
    out.append(linear_probe(x, labels, split, ProbeConfig(num_epochs=30)))
    sizes = [40, 51, 30]
    budget(sum(sizes))
    g = sbm_generate(sizes, 0.3, 0.05, rng.normal(size=(3, 4)), 0.5, np.random.default_rng(5))
    out.append((g.csr_offsets.tobytes(), g.csr_targets.tobytes(), g.features.tobytes()))
    return out


@pytest.mark.parametrize("rows", [2, 3, 64])
def test_row_block_passes_do_not_depend_on_the_block_height(rows, monkeypatch):
    # linear inference, the probe's test scoring, k-means' row norms and the
    # SBM's pair rows, each in blocks of `rows` rows against one block
    assert _row_block_passes(monkeypatch, rows) == _row_block_passes(monkeypatch, None)
