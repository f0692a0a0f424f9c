from collections import Counter

import numpy as np
import pytest
from scipy.stats import spearmanr

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


class TestTsne:
    def test_rank_correlation_on_line_blobs(self):
        rng = np.random.default_rng(42)
        centers = np.zeros((5, 6))
        centers[:, 0] = 3.0 * np.arange(5)
        x, _ = blob_features(rng, centers, 18, 0.6)
        embedding = A.tsne_2d(x, perplexity=15, seed=0)
        d_in = A._pairwise_sq_dists(x, x)[np.triu_indices(len(x), 1)]
        d_out = A._pairwise_sq_dists(embedding, embedding)[np.triu_indices(len(x), 1)]
        rho = spearmanr(d_in, d_out).statistic
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
