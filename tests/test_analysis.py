from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taccompress import analysis as A
from taccompress.analysis import ClassifierKind, FeatureMatrix
from taccompress.imaging import TactileImage


def brute_force_ari(labels_a, labels_b):
    """Pair-counting ARI: O(n^2) over all point pairs, independent of the
    contingency-table formulation in the library."""
    n = len(labels_a)
    s11 = s10 = s01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            if same_a and same_b:
                s11 += 1
            elif same_a:
                s10 += 1
            elif same_b:
                s01 += 1
    total = n * (n - 1) // 2
    sum_rows = s11 + s10
    sum_cols = s11 + s01
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2
    if maximum == expected:
        return 1.0
    return (s11 - expected) / (maximum - expected)


def blob_features(rng, centers, per_cluster, sigma):
    rows, labels = [], []
    for ci, center in enumerate(centers):
        rows.append(center + sigma * rng.standard_normal((per_cluster, len(center))))
        labels += [f"cls{ci}"] * per_cluster
    return np.vstack(rows), labels


class TestFeaturize:
    def test_identity_height_is_pure_flatten(self):
        rng = np.random.default_rng(0)
        image = TactileImage(rng.integers(0, 256, (16, 10, 3), dtype=np.uint8))
        vec = A.featurize(image, target_height=16)
        assert np.array_equal(vec, image.pixels.reshape(-1) / np.float32(255))

    def test_all_255_gives_all_ones(self):
        image = TactileImage(np.full((8, 4, 3), 255, dtype=np.uint8))
        vec = A.featurize(image, 8)
        assert vec.min() == vec.max() == 1.0

    def test_nearest_neighbor_row_selection(self):
        # floor((i + 0.5) * 128 / 64) = 2i + 1
        idx = A.resample_rows(128, 64)
        assert np.array_equal(idx, np.arange(64) * 2 + 1)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(1)
        image = TactileImage(rng.integers(0, 256, (33, 7, 3), dtype=np.uint8))
        vec = A.featurize(image, 50)
        assert vec.min() >= 0.0 and vec.max() <= 1.0

    def test_bad_target_height(self):
        image = TactileImage(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            A.featurize(image, 0)


class TestSplit:
    def make(self, rows_per_class=10, classes=("a", "b", "c")):
        rng = np.random.default_rng(5)
        labels = [c for c in classes for _ in range(rows_per_class)]
        return FeatureMatrix(
            rng.random((len(labels), 6), dtype=np.float32), labels
        )

    def test_70_30_split(self):
        train, test = A.split(self.make(), 0.7, seed=3)
        assert Counter(train.labels) == {"a": 7, "b": 7, "c": 7}
        assert Counter(test.labels) == {"a": 3, "b": 3, "c": 3}

    def test_deterministic(self):
        fm = self.make()
        a1, b1 = A.split(fm, 0.7, seed=11)
        a2, b2 = A.split(fm, 0.7, seed=11)
        assert a1.labels == a2.labels
        assert np.array_equal(a1.rows, a2.rows)
        a3, _ = A.split(fm, 0.7, seed=12)
        assert not np.array_equal(a1.rows, a3.rows)

    def test_extreme_fraction_keeps_one_test_row(self):
        train, test = A.split(self.make(), 0.999, seed=0)
        assert Counter(train.labels) == {"a": 9, "b": 9, "c": 9}
        assert Counter(test.labels) == {"a": 1, "b": 1, "c": 1}

    def test_tiny_class_rejected(self):
        fm = FeatureMatrix(
            np.zeros((3, 2), dtype=np.float32), ["a", "a", "b"]
        )
        with pytest.raises(ValueError, match="fewer than 2"):
            A.split(fm, 0.7, seed=0)


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(7)
    centers = np.clip(rng.random((4, 16)) * 0.4 + np.arange(4)[:, None] * 0.15, 0, 1)
    rows, labels = blob_features(rng, centers, 30, 0.004)
    fm = FeatureMatrix(np.clip(rows, 0, 1).astype(np.float32), labels)
    return A.split(fm, 0.7, seed=1)


class TestClassifiers:

    @pytest.mark.parametrize("kind", list(ClassifierKind))
    def test_separable_case_is_perfect(self, separable, kind):
        train, test = separable
        clf = A.train_classifier(kind, train, seed=3)
        assert A.accuracy(A.predict(clf, test.rows), test.labels) == 1.0

    def test_knn_k1_returns_own_label_on_train_rows(self, separable):
        train, _ = separable
        clf = A.train_classifier(ClassifierKind.KNN, train, k=1)
        assert A.predict(clf, train.rows) == list(train.labels)

    def test_knn_requires_odd_k(self, separable):
        train, _ = separable
        with pytest.raises(ValueError, match="odd"):
            A.train_classifier(ClassifierKind.KNN, train, k=4)

    def test_empty_training_set_rejected(self):
        fm = FeatureMatrix(np.zeros((0, 3), dtype=np.float32), [])
        with pytest.raises(ValueError, match="empty"):
            A.train_classifier(ClassifierKind.KNN, fm)

    def test_predict_dim_mismatch(self, separable):
        train, _ = separable
        clf = A.train_classifier(ClassifierKind.KNN, train)
        with pytest.raises(ValueError, match="dim"):
            A.predict(clf, np.zeros((2, train.dim + 1)))

    def test_reproducible_under_seed(self, separable):
        train, test = separable
        for kind in (ClassifierKind.RANDOM_FOREST, ClassifierKind.LINEAR_SVM):
            a = A.train_classifier(kind, train, seed=9)
            b = A.train_classifier(kind, train, seed=9)
            assert A.predict(a, test.rows) == A.predict(b, test.rows)


class TestKMeans:
    def test_k1_inertia_is_total_variance(self):
        rng = np.random.default_rng(2)
        x = rng.random((40, 5))
        result = A.kmeans(x, 1, seed=0)
        assert np.all(result.assignments == 0)
        total = float(((x - x.mean(axis=0)) ** 2).sum())
        assert abs(result.inertia - total) < 1e-9

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(3)
        centers = rng.random((8, 6)) * 6
        x, labels = blob_features(rng, centers, 20, 0.02)
        result = A.kmeans(x, 8, seed=4)
        ari = A.adjusted_rand_index(labels, result.assignments)
        assert abs(ari - brute_force_ari(labels, list(result.assignments))) < 1e-12
        assert ari >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.random((50, 4))
        a = A.kmeans(x, 5, seed=8)
        b = A.kmeans(x, 5, seed=8)
        assert np.array_equal(a.assignments, b.assignments)

    def test_k_larger_than_rows_rejected(self):
        with pytest.raises(ValueError):
            A.kmeans(np.zeros((3, 2)), 4, seed=0)


def rank_correlation(a, b):
    """Spearman's rho of tie-free samples: Pearson's r of their ranks."""
    assert len(np.unique(a)) == len(a) and len(np.unique(b)) == len(b)
    return np.corrcoef(np.argsort(np.argsort(a)), np.argsort(np.argsort(b)))[0, 1]


class TestTsne:
    def test_rank_correlation_on_line_blobs(self):
        rng = np.random.default_rng(42)
        centers = np.zeros((5, 6))
        centers[:, 0] = 3.0 * np.arange(5)
        x, _ = blob_features(rng, centers, 18, 0.6)
        embedding = A.tsne_2d(x, perplexity=15, seed=0)
        d_in = A._pairwise_sq_dists(x, x)[np.triu_indices(len(x), 1)]
        d_out = A._pairwise_sq_dists(embedding, embedding)[np.triu_indices(len(x), 1)]
        rho = rank_correlation(d_in, d_out)
        assert rho >= 0.5

    def test_duplicated_points_embed_symmetrically(self):
        rng = np.random.default_rng(5)
        base = rng.random((20, 4))
        doubled = np.vstack([base, base])
        embedding = A.tsne_2d(doubled, perplexity=10, seed=1)
        assert embedding.shape == (40, 2)
        assert np.all(np.isfinite(embedding))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.random((30, 5))
        a = A.tsne_2d(x, perplexity=8, seed=3, iterations=120)
        b = A.tsne_2d(x, perplexity=8, seed=3, iterations=120)
        assert np.array_equal(a, b)

    def test_perplexity_bound(self):
        with pytest.raises(ValueError, match="perplexity"):
            A.tsne_2d(np.zeros((30, 3)), perplexity=10.5, seed=0)

    @pytest.mark.parametrize("perplexity", [float("nan"), 0.0, -1.0])
    def test_perplexity_outside_the_open_bound_rejected(self, perplexity):
        with pytest.raises(ValueError, match="perplexity"):
            A.tsne_2d(np.random.default_rng(0).random((30, 3)), perplexity=perplexity, seed=0)

    def test_all_identical_rows_rejected(self):
        x = np.ones((12, 3))
        with pytest.raises(ValueError, match="identical"):
            A.tsne_2d(x, perplexity=3, seed=0)


class TestAri:
    def test_matches_brute_force_on_random_labelings(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = list(rng.integers(0, 4, 30))
            b = list(rng.integers(0, 5, 30))
            assert abs(
                A.adjusted_rand_index(a, b) - brute_force_ari(a, b)
            ) < 1e-12

    def test_perfect_and_permuted_agreement(self):
        labels = ["x"] * 5 + ["y"] * 5 + ["z"] * 5
        renamed = [{"x": 2, "y": 0, "z": 1}[v] for v in labels]
        assert A.adjusted_rand_index(labels, renamed) == 1.0


class TestFeatureMatrixRange:
    @pytest.mark.parametrize("rows", [
        [[np.nan, 0.5], [0.2, np.inf]],
        [[np.nan, 0.5], [0.2, 0.3]],
        [[0.1, -np.inf], [0.2, 0.3]],
        [[0.1, 1.5], [0.2, 0.3]],
    ], ids=["nan-and-inf", "nan", "minus-inf", "above-one"])
    def test_values_outside_the_unit_interval_rejected(self, rows):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FeatureMatrix(rows=rows, labels=("a", "b"))


# Reference fits kept from before the vectorized ones: the Gini split scans
# one position at a time, and softmax and the SVM step the d-dimensional
# weights themselves (one SVM class at a time).
def reference_gini_best_split(x, y, feat_ids, n_classes):
    best = (None, None, 1e18)
    for f in feat_ids:
        vals = x[:, f]
        order = np.argsort(vals, kind="stable")
        sv, sy = vals[order], y[order]
        left = np.zeros(n_classes)
        right = np.bincount(sy, minlength=n_classes).astype(np.float64)
        n = len(sy)
        for i in range(n - 1):
            left[sy[i]] += 1
            right[sy[i]] -= 1
            if sv[i] == sv[i + 1]:
                continue
            nl, nr = i + 1.0, n - i - 1.0
            gini = (nl - (left @ left) / nl) + (nr - (right @ right) / nr)
            if gini < best[2]:
                best = (f, (sv[i] + sv[i + 1]) / 2.0, gini)
    return best


def reference_softmax(x, labels, epochs=1000, learning_rate=2.0, l2=1e-4):
    classes = sorted(set(labels))
    y = np.array([classes.index(l) for l in labels])
    n, d = x.shape
    onehot = np.zeros((n, len(classes)))
    onehot[np.arange(n), y] = 1.0
    w, b = np.zeros((d, len(classes))), np.zeros(len(classes))
    for _ in range(epochs):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        w -= learning_rate * (x.T @ (p - onehot) / n + l2 * w)
        b -= learning_rate * (p - onehot).mean(axis=0)
    return w, b


def reference_svm(x, labels, epochs=200, learning_rate=1.0, l2=1e-4):
    classes = sorted(set(labels))
    n, d = x.shape
    w_all, b_all = np.zeros((d, len(classes))), np.zeros(len(classes))
    for ci, cls in enumerate(classes):
        y = np.where(np.array(labels) == cls, 1.0, -1.0)
        w, b = np.zeros(d), 0.0
        for epoch in range(epochs):
            lr = learning_rate / (1.0 + 0.1 * epoch)
            viol = y * (x @ w + b) < 1.0
            w -= lr * (l2 * w - (x[viol] * y[viol, None]).sum(axis=0) / n)
            b -= lr * (-y[viol].sum() / n)
        w_all[:, ci], b_all[ci] = w, b
    return w_all, b_all


@st.composite
def split_cases(draw):
    """Tie-heavy columns on a grid of at most five values, n from 1."""
    n, d, k = draw(st.integers(1, 30)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    levels = draw(st.integers(0, 4))
    x = draw(arrays(np.int64, (n, d), elements=st.integers(0, levels))) / 4.0
    y = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    feat_ids = np.array(draw(st.permutations(range(d)))[:draw(st.integers(1, d))])
    return x, y, feat_ids, k


@settings(max_examples=300, deadline=None)
@given(split_cases())
@example((np.zeros((1, 3)), np.zeros(1, np.int64), np.array([2, 0]), 2))
@example((np.ones((6, 2)), np.array([0, 1, 0, 1, 1, 0]), np.array([1, 0]), 2))
def test_gini_split_matches_the_positional_scan(case):
    x, y, feat_ids, k = case
    want = reference_gini_best_split(x, y, feat_ids, k)
    got = A._gini_best_split(x[:, feat_ids], y, k)
    if want[0] is None:
        assert got is None
    else:
        col, threshold, gini = got
        assert (feat_ids[col], threshold, gini) == want


@st.composite
def wide_rows(draw):
    """n << d rows scaled to |x| <= 1, so that softmax's step of 2.0 stays
    below its stability bound.  Above it the iteration amplifies rounding,
    and two orderings of the same primal sums disagree in their weights as
    well (they do on 40 perfbench feature rows), so no form can be compared
    there."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n, d, k = draw(st.integers(2, 12)), draw(st.integers(40, 200)), draw(st.integers(2, 4))
    labels = [f"c{i % k}" for i in range(n)]
    centres = rng.random((k, d))
    x = np.clip(centres[np.arange(n) % k] + 0.3 * rng.standard_normal((n, d)), 0, 1)
    return x / np.sqrt(d), labels, rng.random((5, d)) / np.sqrt(d)


@pytest.mark.parametrize("kind, reference", [
    (ClassifierKind.SOFTMAX_REGRESSION, reference_softmax),
    (ClassifierKind.LINEAR_SVM, reference_svm),
], ids=["softmax", "svm"])
@settings(max_examples=25, deadline=None)
@given(case=wide_rows())
def test_gram_fits_match_the_weight_space_loops(kind, reference, case):
    x, labels, test_rows = case
    clf = A.train_classifier(kind, FeatureMatrix(x, labels))
    w, b = reference(x.astype(np.float32).astype(np.float64), labels)
    assert np.allclose(clf.w, w, rtol=1e-9) and np.allclose(clf.b, b, rtol=1e-9)
    scores = test_rows @ w + b
    assert A.predict(clf, test_rows) == [clf.classes[i] for i in np.argmax(scores, axis=1)]


def test_forest_predict_equals_a_row_by_row_walk():
    # training values on quarters, test values on eighths: test rows also
    # land exactly on the midpoint thresholds
    rng = np.random.default_rng(11)
    labels = [f"c{i % 3}" for i in range(30)]
    train = FeatureMatrix(rng.integers(0, 5, (30, 16)) / 4.0, labels)
    rows = rng.integers(0, 9, (50, 16)) / 8.0
    clf = A.train_classifier(ClassifierKind.RANDOM_FOREST, train, seed=4, trees=20)

    def walk(tree, row):
        feature, threshold, left, right, label = tree
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] <= threshold[node] else right[node]
        return label[node]

    want = []
    for row in rows:
        votes = np.bincount([walk(tree, row) for tree in clf.forest], minlength=3)
        want.append(clf.classes[int(np.argmax(votes))])
    assert A.predict(clf, rows) == want
    assert any(len(tree[0]) > 3 for tree in clf.forest)
