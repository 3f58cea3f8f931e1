"""From-scratch binary classifiers and recursive feature elimination.

All four trainers are deterministic given (data, hyperparameters, seed).
Labels are {0, 1}; linear solvers work internally with {-1, +1}.
Standardization is fitted inside the linear trainers (hinge and likelihood
solvers are scale-sensitive); the tree ensembles consume raw features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

MODEL_FORMAT = "chatterdetect-model-v1"


# ---------------------------------------------------------------------------
# standardization

@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring with population statistics.

    Zero-variance features map to zero after transform.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X):
        X = np.asarray(X, dtype=float)
        if X.size == 0:
            raise DomainError("cannot standardize an empty matrix")
        return cls(X.mean(axis=0), X.std(axis=0, ddof=0))

    def transform(self, X):
        X = np.asarray(X, dtype=float)
        safe = np.where(self.std > 0, self.std, 1.0)
        Z = (X - self.mean) / safe
        return np.where(self.std > 0, Z, 0.0)

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["mean"]), np.asarray(d["std"]))


# ---------------------------------------------------------------------------
# linear models

@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float
    kind: str  # "svm" or "logistic"
    standardizer: Standardizer | None = None
    # solver health numbers (duality gap etc.); not serialized
    diagnostics: dict | None = field(default=None, repr=False)

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        return X @ self.weights + self.intercept

    def predict(self, X):
        return (self.decision_function(X) >= 0).astype(int)

    def predict_proba(self, X):
        if self.kind != "logistic":
            raise DomainError("probabilities are defined for logistic models only")
        return _sigmoid(self.decision_function(X))

    def feature_importances(self):
        return self.weights**2

    def to_dict(self):
        return {
            "format": MODEL_FORMAT,
            "type": "linear",
            "kind": self.kind,
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
            "standardizer": None
            if self.standardizer is None
            else self.standardizer.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        std = d.get("standardizer")
        return cls(
            np.asarray(d["weights"], dtype=float),
            float(d["intercept"]),
            d["kind"],
            None if std is None else Standardizer.from_dict(std),
        )


def _check_two_classes(y):
    y = np.asarray(y, dtype=int)
    classes = np.unique(y)
    if classes.size != 2 or not np.array_equal(classes, [0, 1]):
        raise DomainError("training labels must contain both classes 0 and 1")
    return y


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_svm(X, y, C=1.0, tol=1e-4, max_passes=20000, standardize=True):
    """Soft-margin linear SVM via dual coordinate descent.

    Minimizes 0.5*||w||^2 + C * sum of hinge losses.  The bias is carried as
    an augmented constant feature, and the solver runs until the duality gap
    drops below tol (relative to max(1, primal)).
    """
    y = _check_two_classes(y)
    X = np.asarray(X, dtype=float)
    std = Standardizer.fit(X) if standardize else None
    Z = std.transform(X) if std is not None else X
    n, d = Z.shape
    A = np.column_stack([Z, np.ones(n)])  # augmented bias column
    s = np.where(y == 1, 1.0, -1.0)
    q = np.einsum("ij,ij->i", A, A)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    gap = np.inf
    for _ in range(max_passes):
        for i in range(n):
            if q[i] == 0.0:
                continue
            g = s[i] * (A[i] @ w) - 1.0
            a_new = min(max(alpha[i] - g / q[i], 0.0), C)
            delta = a_new - alpha[i]
            if delta != 0.0:
                w += delta * s[i] * A[i]
                alpha[i] = a_new
        margins = s * (A @ w)
        hinge = np.maximum(0.0, 1.0 - margins)
        primal = 0.5 * (w @ w) + C * hinge.sum()
        dual = alpha.sum() - 0.5 * (w @ w)
        gap = primal - dual
        if gap <= tol * max(1.0, abs(primal)):
            break
    return LinearModel(
        w[:-1].copy(), float(w[-1]), "svm", std,
        diagnostics={"duality_gap": float(gap), "primal": float(primal)},
    )


def train_logistic(X, y, l2=1e-4, tol=1e-6, max_iter=10000, standardize=True):
    """Logistic regression by damped Newton iteration on the penalized
    Bernoulli log-likelihood.

    The small L2 penalty (intercept unpenalized) keeps the optimum finite
    under perfect separation; convergence is gradient inf-norm <= tol.
    """
    y = _check_two_classes(y)
    X = np.asarray(X, dtype=float)
    std = Standardizer.fit(X) if standardize else None
    Z = std.transform(X) if std is not None else X
    n, d = Z.shape
    A = np.column_stack([Z, np.ones(n)])
    beta = np.zeros(d + 1)
    penalty = np.concatenate([np.full(d, l2), [0.0]])

    def objective(b):
        z = A @ b
        # -loglik + 0.5*l2*||w||^2, numerically stable log(1+e^z)
        nll = np.sum(np.logaddexp(0.0, z) - y * z)
        return nll + 0.5 * np.sum(penalty * b**2)

    obj = objective(beta)
    for _ in range(max_iter):
        p = _sigmoid(A @ beta)
        grad = A.T @ (p - y) + penalty * beta
        if np.max(np.abs(grad)) <= tol:
            break
        wdiag = np.maximum(p * (1.0 - p), 1e-12)
        H = (A * wdiag[:, None]).T @ A + np.diag(penalty)
        step = np.linalg.solve(H, grad)
        t = 1.0
        while t > 1e-8:
            candidate = beta - t * step
            cand_obj = objective(candidate)
            if cand_obj <= obj:
                beta, obj = candidate, cand_obj
                break
            t /= 2.0
        else:
            break
    return LinearModel(beta[:-1].copy(), float(beta[-1]), "logistic", std)


# ---------------------------------------------------------------------------
# decision trees

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0
    leaf_id: int = -1

    @property
    def is_leaf(self):
        return self.left is None

    def to_dict(self):
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        if "value" in d:
            return cls(value=float(d["value"]))
        return cls(
            feature=int(d["feature"]),
            threshold=float(d["threshold"]),
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


def _gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p**2))


def _best_split_classification(X, y, idx, feat_candidates):
    """Best (feature, threshold, gain) by Gini impurity decrease."""
    best = None
    n = idx.size
    parent_counts = np.bincount(y[idx], minlength=2).astype(float)
    parent_imp = _gini(parent_counts)
    for f in feat_candidates:
        xs = X[idx, f]
        order = np.argsort(xs, kind="mergesort")
        xs_sorted = xs[order]
        ys_sorted = y[idx][order]
        ones = np.cumsum(ys_sorted)
        for cut in range(1, n):
            if xs_sorted[cut] == xs_sorted[cut - 1]:
                continue
            left_n = cut
            left_ones = ones[cut - 1]
            left = np.array([left_n - left_ones, left_ones], dtype=float)
            right = parent_counts - left
            imp = (left_n * _gini(left) + (n - left_n) * _gini(right)) / n
            gain = parent_imp - imp
            thr = 0.5 * (xs_sorted[cut] + xs_sorted[cut - 1])
            if best is None or gain > best[2] + 1e-15:
                best = (f, thr, gain)
    return best


def _best_split_regression(X, r, idx, feat_candidates):
    """Best (feature, threshold, gain) by squared-error reduction."""
    best = None
    n = idx.size
    rv = r[idx]
    total = rv.sum()
    parent_sse = float(np.sum(rv**2) - total**2 / n)
    for f in feat_candidates:
        xs = X[idx, f]
        order = np.argsort(xs, kind="mergesort")
        xs_sorted = xs[order]
        rs = rv[order]
        csum = np.cumsum(rs)
        csq = np.cumsum(rs**2)
        for cut in range(1, n):
            if xs_sorted[cut] == xs_sorted[cut - 1]:
                continue
            ls, lq = csum[cut - 1], csq[cut - 1]
            rs_, rq = total - ls, csq[-1] - lq
            sse = (lq - ls**2 / cut) + (rq - rs_**2 / (n - cut))
            gain = parent_sse - sse
            thr = 0.5 * (xs_sorted[cut] + xs_sorted[cut - 1])
            if best is None or gain > best[2] + 1e-15:
                best = (f, thr, gain)
    return best


def _grow_tree(X, target, idx, depth, max_depth, splitter, leaf_value, rng,
               n_feat_candidates, importances, n_total, state):
    node = TreeNode()
    homogeneous = np.all(target[idx] == target[idx[0]])
    if depth >= max_depth or idx.size < 2 or homogeneous:
        node.value = leaf_value(idx)
        node.leaf_id = state["next_leaf"]
        state["next_leaf"] += 1
        return node
    d = X.shape[1]
    if n_feat_candidates is None or n_feat_candidates >= d:
        feats = np.arange(d)
    else:
        feats = rng.choice(d, size=n_feat_candidates, replace=False)
        feats.sort()
    best = splitter(X, target, idx, feats)
    if best is None or best[2] <= 0.0:
        node.value = leaf_value(idx)
        node.leaf_id = state["next_leaf"]
        state["next_leaf"] += 1
        return node
    f, thr, gain = best
    importances[f] += gain * idx.size / n_total
    mask = X[idx, f] <= thr
    node.feature, node.threshold = int(f), float(thr)
    node.left = _grow_tree(X, target, idx[mask], depth + 1, max_depth, splitter,
                           leaf_value, rng, n_feat_candidates, importances,
                           n_total, state)
    node.right = _grow_tree(X, target, idx[~mask], depth + 1, max_depth, splitter,
                            leaf_value, rng, n_feat_candidates, importances,
                            n_total, state)
    return node


def _tree_apply(node, X):
    """Leaf value and leaf id per row."""
    n = X.shape[0]
    values = np.empty(n)
    leaf_ids = np.empty(n, dtype=int)
    stack = [(node, np.arange(n))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if nd.is_leaf:
            values[idx] = nd.value
            leaf_ids[idx] = nd.leaf_id
            continue
        mask = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))
    return values, leaf_ids


# ---------------------------------------------------------------------------
# ensembles

@dataclass(frozen=True)
class TreeEnsembleModel:
    trees: list
    mode: str  # "forest-vote" or "boosted-sum"
    learning_rate: float = 0.0
    base_score: float = 0.0
    importances: np.ndarray = field(default=None, repr=False)
    oob_accuracy: float | None = None
    train_deviances: list | None = field(default=None, repr=False)

    def votes(self, X):
        if self.mode != "forest-vote":
            raise DomainError("votes are defined for forests only")
        X = np.asarray(X, dtype=float)
        tally = np.zeros(X.shape[0])
        for t in self.trees:
            tally += _tree_apply(t, X)[0] >= 0.5
        return tally.astype(int)

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        if self.mode == "forest-vote":
            return self.votes(X) / len(self.trees) - 0.5
        score = np.full(X.shape[0], self.base_score)
        for t in self.trees:
            score += self.learning_rate * _tree_apply(t, X)[0]
        return score

    def predict(self, X):
        return (self.decision_function(X) >= 0).astype(int)

    def feature_importances(self):
        return self.importances

    def to_dict(self):
        return {
            "format": MODEL_FORMAT,
            "type": "ensemble",
            "mode": self.mode,
            "learning_rate": self.learning_rate,
            "base_score": self.base_score,
            "importances": self.importances.tolist(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            trees=[TreeNode.from_dict(t) for t in d["trees"]],
            mode=d["mode"],
            learning_rate=float(d["learning_rate"]),
            base_score=float(d["base_score"]),
            importances=np.asarray(d["importances"], dtype=float),
        )


def train_forest(X, y, n_trees=100, max_depth=2, seed=0):
    """Random forest: bootstrap resamples, Gini splits over sqrt(d) random
    candidate features, majority vote.  Per-tree streams derive from
    (seed, tree index), so results are schedule-independent."""
    y = _check_two_classes(y)
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    n_candidates = max(1, int(np.sqrt(d)))
    importances = np.zeros(d)
    trees = []
    oob_votes = np.zeros(n)
    oob_counts = np.zeros(n)
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        sample = rng.integers(0, n, size=n)
        in_bag = np.zeros(n, dtype=bool)
        in_bag[sample] = True
        state = {"next_leaf": 0}

        def leaf_value(idx, sample=sample):
            labels = y[sample][idx]
            return float(np.mean(labels) >= 0.5) if idx.size else 0.0

        tree = _grow_tree(
            X[sample], y[sample], np.arange(n), 0, max_depth,
            _best_split_classification, leaf_value, rng, n_candidates,
            importances, n, state,
        )
        trees.append(tree)
        oob = ~in_bag
        if np.any(oob):
            vals, _ = _tree_apply(tree, X[oob])
            oob_votes[oob] += vals >= 0.5
            oob_counts[oob] += 1
    seen = oob_counts > 0
    oob_accuracy = None
    if np.any(seen):
        oob_pred = (oob_votes[seen] / oob_counts[seen]) >= 0.5
        oob_accuracy = float(np.mean(oob_pred == (y[seen] == 1)))
    return TreeEnsembleModel(
        trees=trees,
        mode="forest-vote",
        importances=importances / n_trees,
        oob_accuracy=oob_accuracy,
    )


def train_boosting(X, y, n_stages=100, learning_rate=0.1, tree_depth=3, seed=0):
    """Gradient boosting under binomial deviance.

    The score starts at the training log-odds; each stage fits a regression
    tree to the negative gradient (residual y - p) and applies a per-leaf
    Newton step scaled by the learning rate.
    """
    y = _check_two_classes(y)
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    p0 = y.mean()
    base = float(np.log(p0 / (1.0 - p0)))
    score = np.full(n, base)
    importances = np.zeros(d)
    trees = []
    deviances = []
    rng = np.random.default_rng([seed])
    for _ in range(n_stages):
        p = _sigmoid(score)
        residual = y - p
        state = {"next_leaf": 0}
        tree = _grow_tree(
            X, residual, np.arange(n), 0, tree_depth,
            _best_split_regression, lambda idx: 0.0, rng, None,
            importances, n, state,
        )
        # Newton leaf values: sum(residual) / sum(p*(1-p)) over leaf samples
        _, leaf_ids = _tree_apply(tree, X)
        hess = np.maximum(p * (1.0 - p), 1e-12)
        for lid in np.unique(leaf_ids):
            mask = leaf_ids == lid
            update = residual[mask].sum() / hess[mask].sum()
            _set_leaf_value(tree, int(lid), update)
        vals, _ = _tree_apply(tree, X)
        score = score + learning_rate * vals
        trees.append(tree)
        deviances.append(float(np.sum(np.logaddexp(0.0, score) - y * score)))
    return TreeEnsembleModel(
        trees=trees,
        mode="boosted-sum",
        learning_rate=learning_rate,
        base_score=base,
        importances=importances / max(1, n_stages),
        train_deviances=deviances,
    )


def _set_leaf_value(node, leaf_id, value):
    if node.is_leaf:
        if node.leaf_id == leaf_id:
            node.value = value
        return
    _set_leaf_value(node.left, leaf_id, value)
    _set_leaf_value(node.right, leaf_id, value)


# ---------------------------------------------------------------------------
# feature ranking

@dataclass(frozen=True)
class FeatureRanking:
    """Feature indices (0-based), best first."""

    order: tuple

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise DomainError("ranking must be a permutation of the feature indices")

    @property
    def n_features(self):
        return len(self.order)


def rfe_rank(X, y, trainer):
    """Recursive feature elimination.

    Each iteration trains on the surviving features and removes the one with
    the smallest importance (linear models: squared weight; ensembles: total
    impurity decrease).  Ties remove the higher original index first.  The
    number of iterations equals the number of features; the ranking is the
    removal order reversed.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    if d < 1:
        raise DomainError("need at least one feature")
    surviving = list(range(d))
    removed = []
    while surviving:
        model = trainer(X[:, surviving], y)
        imp = np.asarray(model.feature_importances(), dtype=float)
        min_val = imp.min()
        ties = [surviving[i] for i in range(len(surviving)) if imp[i] == min_val]
        victim = max(ties)
        surviving.remove(victim)
        removed.append(victim)
    return FeatureRanking(tuple(reversed(removed)))


def nested_feature_accuracies(X_train, y_train, X_test, y_test, ranking, trainer):
    """Accuracy of models refit on the top-k ranked features, k = 1..d."""
    X_train = np.asarray(X_train, dtype=float)
    X_test = np.asarray(X_test, dtype=float)
    results = []
    for k in range(1, ranking.n_features + 1):
        cols = list(ranking.order[:k])
        model = trainer(X_train[:, cols], y_train)
        train_acc = float(np.mean(model.predict(X_train[:, cols]) == y_train))
        test_acc = float(np.mean(model.predict(X_test[:, cols]) == y_test))
        results.append((k, train_acc, test_acc))
    return results


# ---------------------------------------------------------------------------
# trainer factory

CLASSIFIER_NAMES = ("svm", "logistic", "forest", "boosting")


def make_trainer(classifier, seed=0, **overrides):
    """A (X, y) -> fitted-model callable for the named classifier."""
    if classifier == "svm":
        return lambda X, y: train_svm(X, y, **overrides)
    if classifier in ("logistic", "logreg"):
        return lambda X, y: train_logistic(X, y, **overrides)
    if classifier == "forest":
        return lambda X, y: train_forest(X, y, seed=seed, **overrides)
    if classifier in ("boosting", "boost"):
        return lambda X, y: train_boosting(X, y, seed=seed, **overrides)
    raise DomainError(f"unknown classifier {classifier!r}")


def model_from_dict(d):
    if d.get("format") != MODEL_FORMAT:
        raise DomainError(f"unsupported model format {d.get('format')!r}")
    if d["type"] == "linear":
        return LinearModel.from_dict(d)
    return TreeEnsembleModel.from_dict(d)
