"""Downstream-task validation: features, classifiers, clustering.

Tactile images become fixed-length vectors by nearest-neighbor resampling of
their rows to a fixed height, flattening row-major, and scaling into [0, 1].
The four classifiers and both clustering tools are implemented natively on
numpy with explicit seeds, so every result is reproducible to the byte with
no ML runtime behind it.

No fit loops per sample, threshold or feature:

- Softmax regression and the linear SVM start at ``w = 0``, and every
  gradient step adds ``x.T @ g`` for some n-row ``g``, so ``w = x.T @ a``
  throughout.  They iterate on ``a`` with the n x n Gram matrix
  ``x @ x.T`` (``x @ w = gram @ a``), which costs n*n*k a step instead of
  n*d*k when n << d, and form ``w`` once at the end.  This rounds
  differently from stepping ``w`` itself: the SVM's weights agree to about
  1e-15.  Softmax's step size (2.0) is far above its stability bound on
  image features, so its weights depend on rounding in either form; its
  predictions are what the golden report digests pin.
- The random forest's Gini split sorts all candidate columns at once and
  takes the left class counts at every position from a cumulative sum of
  one-hot labels.  The counts are integers, so each Gini value is the same
  float as a running scan computes, and ``argmin`` over the column-major
  array returns the first minimum, the one a strict ``<`` scan keeps.
  Trees are flat arrays, and prediction moves all rows one level a step.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .imaging import TactileImage

KMEANS_MAX_ITER, KMEANS_TOL = 300, 1e-6
TSNE_EARLY_EXAGGERATION, TSNE_EXAGGERATION_ITERS, TSNE_LEARNING_RATE = 12.0, 250, 200.0


class ClassifierKind(Enum):
    KNN = "knn"
    LINEAR_SVM = "svm"
    SOFTMAX_REGRESSION = "softmax"
    RANDOM_FOREST = "rf"


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature rows with one object label per row."""

    rows: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        if rows.shape[0] != len(self.labels):
            raise ValueError("one label per row required")
        if not np.all((rows >= 0) & (rows <= 1)):  # NaN fails both tests
            raise ValueError("feature values must lie in [0, 1]")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]


def resample_rows(height: int, target_height: int) -> np.ndarray:
    """Nearest-neighbor source row for each target row: floor((i+0.5)*H/T)."""
    if target_height <= 0:
        raise ValueError("target_height must be positive")
    idx = np.floor((np.arange(target_height) + 0.5) * height / target_height)
    return np.minimum(idx.astype(np.int64), height - 1)


def featurize(image: TactileImage, target_height: int) -> np.ndarray:
    """Resample to a fixed height, flatten row-major, scale by 1/255."""
    rows = resample_rows(image.height, target_height)
    return (image.pixels[rows].astype(np.float32) / np.float32(255.0)).reshape(-1)


def split(features: FeatureMatrix, train_fraction: float, seed: int
          ) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Stratified train/test split, floor(train_fraction * n) per class with
    at least one row kept for test."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    order = split_indices(features.labels, train_fraction, seed)
    train_idx, test_idx = order

    def take(idx):
        return FeatureMatrix(
            rows=features.rows[idx],
            labels=tuple(features.labels[i] for i in idx),
        )

    return take(train_idx), take(test_idx)


def split_indices(labels, train_fraction: float, seed: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the stratified split; reusable across feature variants
    so that raw and compressed features share the exact same split."""
    labels = list(labels)
    rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
    train, test = [], []
    for cls in sorted(set(labels)):
        members = np.array([i for i, l in enumerate(labels) if l == cls])
        if members.size < 2:
            raise ValueError(f"class {cls!r} has fewer than 2 rows")
        members = members[rng.permutation(members.size)]
        n_train = min(int(train_fraction * members.size), members.size - 1)
        n_train = max(n_train, 1)
        train.extend(members[:n_train])
        test.extend(members[n_train:])
    return np.array(sorted(train)), np.array(sorted(test))


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    d = aa + bb - 2.0 * (a @ b.T)
    np.maximum(d, 0.0, out=d)
    return d


class _KNNClassifier:
    def __init__(self, k: int):
        self.k = k
        self.train_rows = None
        self.train_labels = None

    def fit(self, rows, labels, seed):
        self.train_rows = rows.astype(np.float64)
        self.train_labels = list(labels)
        return self

    def predict(self, rows):
        d = _pairwise_sq_dists(np.asarray(rows, np.float64), self.train_rows)
        k = min(self.k, len(self.train_labels))
        # stable argsort keeps ties deterministic
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
        out = []
        for row_idx, neigh in enumerate(nearest):
            votes = {}
            for rank, j in enumerate(neigh):
                lab = self.train_labels[j]
                count, best_rank = votes.get(lab, (0, rank))
                votes[lab] = (count + 1, min(best_rank, rank))
            # most votes, then the closest member, then label order
            out.append(min(votes, key=lambda l: (-votes[l][0], votes[l][1], l)))
        return out


class _LinearClassifier:
    """Scores ``rows @ w + b``.  The fits run full-batch gradient steps from
    ``w = 0`` on the training rows' Gram matrix and form ``w`` once at the end
    (see the module docstring)."""

    def predict(self, rows):
        scores = np.asarray(rows, np.float64) @ self.w + self.b
        return [self.classes[i] for i in np.argmax(scores, axis=1)]


class _SoftmaxClassifier(_LinearClassifier):
    epochs, learning_rate, l2 = 1000, 2.0, 1e-4

    def fit(self, rows, labels, seed):
        x = rows.astype(np.float64)
        self.classes = sorted(set(labels))
        index = {c: i for i, c in enumerate(self.classes)}
        n = x.shape[0]
        onehot = np.zeros((n, len(self.classes)))
        onehot[np.arange(n), [index[l] for l in labels]] = 1.0
        gram = x @ x.T
        a = np.zeros_like(onehot)  # w = x.T @ a
        self.b = np.zeros(len(self.classes))
        for _ in range(self.epochs):
            logits = gram @ a + self.b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            residual = p - onehot
            a -= self.learning_rate * (residual / n + self.l2 * a)
            self.b -= self.learning_rate * residual.mean(axis=0)
        self.w = x.T @ a
        return self


class _LinearSVMClassifier(_LinearClassifier):
    """One-vs-rest hinge loss trained by full-batch subgradient descent, all
    classes at once."""

    epochs, learning_rate, l2 = 200, 1.0, 1e-4

    def fit(self, rows, labels, seed):
        x = rows.astype(np.float64)
        self.classes = sorted(set(labels))
        n = x.shape[0]
        y = np.where(np.array(labels)[:, None] == np.array(self.classes), 1.0, -1.0)
        gram = x @ x.T
        a = np.zeros_like(y)  # w = x.T @ a
        self.b = np.zeros(len(self.classes))
        for epoch in range(self.epochs):
            lr = self.learning_rate / (1.0 + 0.1 * epoch)
            pull = np.where(y * (gram @ a + self.b) < 1.0, y, 0.0)  # margin violators
            a -= lr * (self.l2 * a - pull / n)
            self.b += lr * (pull.sum(axis=0) / n)
        self.w = x.T @ a
        return self


def _gini_best_split(vals, y, n_classes):
    """(column, threshold, gini) of the best split over the columns of
    ``vals``, or None when every column is constant."""
    n = len(y)
    order = np.argsort(vals, axis=0, kind="stable")
    sv = np.take_along_axis(vals, order, axis=0)
    left = np.cumsum(np.eye(n_classes)[y[order]], axis=0)[:-1]  # (n-1, columns, classes)
    right = np.bincount(y, minlength=n_classes) - left
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    gini = (nl - (left * left).sum(axis=2) / nl) + (nr - (right * right).sum(axis=2) / nr)
    gini[sv[:-1] == sv[1:]] = np.inf
    if np.isinf(gini).all():
        return None
    # column-major argmin: the first minimum in (column, position) order
    col, pos = np.unravel_index(np.argmin(gini.T), gini.T.shape)
    return col, (sv[pos, col] + sv[pos + 1, col]) / 2.0, gini[pos, col]


class _RandomForestClassifier:
    def __init__(self, trees=100):
        self.trees = trees

    def fit(self, rows, labels, seed):
        x = rows.astype(np.float64)
        self.classes = sorted(set(labels))
        index = {c: i for i, c in enumerate(self.classes)}
        y = np.array([index[l] for l in labels])
        rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
        n, d = x.shape
        m = max(1, int(math.isqrt(d)))
        self.forest = []
        for _ in range(self.trees):
            nodes = []
            self._grow(x, y, rng.integers(0, n, size=n), rng, m, nodes)
            self.forest.append(tuple(np.array(column) for column in zip(*nodes)))
        return self

    def _grow(self, x, y, rows, rng, m, nodes):
        """Append the subtree of the training rows ``rows`` to ``nodes`` depth
        first, one [feature, threshold, left, right, label] row a node
        (feature -1 on a leaf, label -1 inside); return its root's index."""
        at = len(nodes)
        nodes.append([-1, 0.0, -1, -1, -1])
        counts = np.bincount(y[rows], minlength=len(self.classes))
        best = None
        if counts.max() < len(rows):  # mixed classes, so two rows or more: split
            feat_ids = rng.choice(x.shape[1], size=m, replace=False)
            best = _gini_best_split(x[np.ix_(rows, feat_ids)], y[rows], len(self.classes))
        if best is None:
            nodes[at][4] = int(np.argmax(counts))
            return at
        f, thr = int(feat_ids[best[0]]), float(best[1])
        mask = x[rows, f] <= thr
        left = self._grow(x, y, rows[mask], rng, m, nodes)
        right = self._grow(x, y, rows[~mask], rng, m, nodes)
        nodes[at][:4] = [f, thr, left, right]
        return at

    def predict(self, rows):
        x = np.asarray(rows, np.float64)
        every = np.arange(x.shape[0])
        votes = np.zeros((x.shape[0], len(self.classes)))
        for feature, threshold, left, right, label in self.forest:
            node = np.zeros(x.shape[0], np.intp)
            inner = feature[node] >= 0
            while inner.any():  # one level down for every row not yet at a leaf
                # a leaf's feature -1 reads the last column; np.where drops it
                go_left = x[every, feature[node]] <= threshold[node]
                node = np.where(inner, np.where(go_left, left[node], right[node]), node)
                inner = feature[node] >= 0
            votes[every, label[node]] += 1
        return [self.classes[i] for i in np.argmax(votes, axis=1)]


def train_classifier(kind: ClassifierKind, train: FeatureMatrix, seed: int = 0,
                     **params):
    """Fit one of the four native classifiers on a training matrix."""
    if len(train) == 0:
        raise ValueError("empty training set")
    if kind is ClassifierKind.KNN:
        k = params.pop("k", 5)
        if k < 1 or k % 2 == 0:
            raise ValueError("KNN needs an odd positive k")
        model = _KNNClassifier(k)
    elif kind is ClassifierKind.SOFTMAX_REGRESSION:
        model = _SoftmaxClassifier(**params)
    elif kind is ClassifierKind.LINEAR_SVM:
        model = _LinearSVMClassifier(**params)
    elif kind is ClassifierKind.RANDOM_FOREST:
        model = _RandomForestClassifier(**params)
    else:
        raise ValueError(f"unknown classifier kind {kind}")
    model.train_dim = train.dim
    return model.fit(train.rows, train.labels, seed)


def predict(classifier, rows: np.ndarray):
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != classifier.train_dim:
        raise ValueError(
            f"feature dim {rows.shape[1]} != training dim {classifier.train_dim}"
        )
    return classifier.predict(rows)


def accuracy(predicted, truth) -> float:
    predicted = list(predicted)
    truth = list(truth)
    if len(predicted) != len(truth):
        raise ValueError("prediction/truth length mismatch")
    if not truth:
        raise ValueError("empty evaluation set")
    return sum(p == t for p, t in zip(predicted, truth)) / len(truth)


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centers: np.ndarray
    inertia: float


def kmeans(rows: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding, deterministic under seed."""
    x = np.asarray(rows, np.float64)
    n = x.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} invalid for {n} rows")
    rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = _pairwise_sq_dists(x, centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[i] = x[rng.integers(n)]
        else:
            centers[i] = x[np.searchsorted(np.cumsum(closest / total), rng.random())]
        closest = np.minimum(closest, _pairwise_sq_dists(x, centers[i : i + 1]).ravel())

    prev_inertia = math.inf
    for _ in range(KMEANS_MAX_ITER):
        d = _pairwise_sq_dists(x, centers)
        assign = np.argmin(d, axis=1)
        inertia = float(d[np.arange(n), assign].sum())
        for ci in range(k):
            members = x[assign == ci]
            if len(members):
                centers[ci] = members.mean(axis=0)
            else:  # re-seed an empty cluster on the farthest point
                centers[ci] = x[np.argmax(d.min(axis=1))]
        if prev_inertia - inertia <= KMEANS_TOL * max(inertia, 1e-30):
            break
        prev_inertia = inertia
    d = _pairwise_sq_dists(x, centers)
    assign = np.argmin(d, axis=1)
    inertia = float(d[np.arange(n), assign].sum())
    return KMeansResult(assignments=assign, centers=centers, inertia=inertia)


def _perplexity_probabilities(dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-wise conditional probabilities with per-point bandwidth found by
    bisecting to the target entropy log(perplexity)."""
    n = dists.shape[0]
    target = math.log(perplexity)
    p = np.zeros((n, n))
    for i in range(n):
        row = np.delete(dists[i], i)
        if row.max() <= 0:
            raise ValueError(
                "t-SNE cannot reach the requested perplexity: all points identical"
            )
        beta = 1.0
        lo, hi = 0.0, math.inf
        for _ in range(64):
            w = np.exp(-row * beta)
            s = w.sum()
            if s <= 0:
                entropy = 0.0
            else:
                q = w / s
                nz = q > 0
                entropy = float(-(q[nz] * np.log(q[nz])).sum())
            if abs(entropy - target) < 1e-7:
                break
            if entropy > target:
                lo = beta
                beta = beta * 2 if hi is math.inf else (beta + hi) / 2
            else:
                hi = beta
                beta = beta / 2 if lo == 0.0 else (beta + lo) / 2
        w = np.exp(-row * beta)
        q = w / max(w.sum(), 1e-300)
        p[i, :i] = q[:i]
        p[i, i + 1 :] = q[i:]
    return p


def tsne_2d(rows: np.ndarray, perplexity: float = 30.0, seed: int = 0,
            iterations: int = 1000) -> np.ndarray:
    """Exact (quadratic) t-SNE to 2 dimensions, deterministic under seed."""
    x = np.asarray(rows, np.float64)
    n = x.shape[0]
    if n < 4:
        raise ValueError("t-SNE needs at least 4 rows")
    if not 0 < perplexity < n / 3:
        raise ValueError(f"perplexity {perplexity} must lie in (0, n/3) for {n} rows")

    dists = _pairwise_sq_dists(x, x)
    cond = _perplexity_probabilities(dists, perplexity)
    p = (cond + cond.T) / (2.0 * n)
    np.maximum(p, 1e-12, out=p)

    rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
    y = rng.standard_normal((n, 2)) * 1e-4
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)

    for it in range(iterations):
        exaggeration = TSNE_EARLY_EXAGGERATION if it < TSNE_EXAGGERATION_ITERS else 1.0
        momentum = 0.5 if it < TSNE_EXAGGERATION_ITERS else 0.8

        dy = _pairwise_sq_dists(y, y)
        num = 1.0 / (1.0 + dy)
        np.fill_diagonal(num, 0.0)
        q = num / max(num.sum(), 1e-300)
        np.maximum(q, 1e-12, out=q)

        pq = (exaggeration * p - q) * num
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)

        flips = np.sign(grad) != np.sign(velocity)
        gains = np.where(flips, gains + 0.2, gains * 0.8)
        np.maximum(gains, 0.01, out=gains)
        velocity = momentum * velocity - TSNE_LEARNING_RATE * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI from the contingency table (pair-counting formulation)."""
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b):
        raise ValueError("label sequences differ in length")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 points")
    classes_a = {c: i for i, c in enumerate(sorted(set(map(str, a))))}
    classes_b = {c: i for i, c in enumerate(sorted(set(map(str, b))))}
    table = np.zeros((len(classes_a), len(classes_b)), dtype=np.int64)
    for xa, xb in zip(a, b):
        table[classes_a[str(xa)], classes_b[str(xb)]] += 1

    def comb2(v):
        return v * (v - 1) // 2

    sum_cells = int(sum(comb2(int(v)) for v in table.ravel()))
    sum_rows = int(sum(comb2(int(v)) for v in table.sum(axis=1)))
    sum_cols = int(sum(comb2(int(v)) for v in table.sum(axis=0)))
    total = comb2(n)
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)
