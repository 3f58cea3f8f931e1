"""From-scratch binary classifiers and recursive feature elimination.

All four trainers are deterministic given (data, hyperparameters, seed).
Labels are {0, 1}; linear solvers work internally with {-1, +1}.
Standardization is fitted inside the linear trainers (hinge and likelihood
solvers are scale-sensitive); the tree ensembles consume raw features.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ValidationError

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


def _check_two_classes(y):
    y = np.asarray(y, dtype=int)
    classes = np.unique(y)
    if classes.size != 2 or not np.array_equal(classes, [0, 1]):
        raise DomainError("training labels must contain both classes 0 and 1")
    return y


def _check_finite(X):
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValidationError(
            f"feature matrix holds {X[row, col]} at row {row}, column {col}"
        )
    return X


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_svm(X, y, tol=1e-4, max_passes=20000, standardize=True):
    """Soft-margin linear SVM via dual coordinate descent.

    Minimizes 0.5*||w||^2 + sum of hinge losses (C = 1).  The bias is carried as
    an augmented constant feature, and the solver runs until the duality gap
    drops below tol (relative to max(1, primal)).
    """
    if max_passes < 1:
        raise DomainError(f"the SVM needs at least one pass, got max_passes={max_passes}")
    y = _check_two_classes(y)
    X = _check_finite(X)
    std = Standardizer.fit(X) if standardize else None
    Z = std.transform(X) if std is not None else X
    n, d = Z.shape
    A = np.column_stack([Z, np.ones(n)])  # augmented bias column
    s = np.where(y == 1, 1.0, -1.0)
    q = np.einsum("ij,ij->i", A, A)  # >= 1 through the bias column
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    for passes in range(1, max_passes + 1):
        for i in range(n):
            g = s[i] * (A[i] @ w) - 1.0
            a_new = min(max(alpha[i] - g / q[i], 0.0), 1.0)
            delta = a_new - alpha[i]
            if delta != 0.0:
                w += delta * s[i] * A[i]
                alpha[i] = a_new
        margins = s * (A @ w)
        hinge = np.maximum(0.0, 1.0 - margins)
        primal = 0.5 * (w @ w) + hinge.sum()
        dual = alpha.sum() - 0.5 * (w @ w)
        gap = primal - dual
        converged = bool(gap <= tol * max(1.0, abs(primal)))
        if converged:
            break
    return LinearModel(
        w[:-1].copy(), float(w[-1]), "svm", std,
        diagnostics={"duality_gap": float(gap), "primal": float(primal),
                     "passes": passes, "converged": converged},
    )


def train_logistic(X, y, tol=1e-6, standardize=True):
    """Logistic regression by damped Newton iteration on the penalized
    Bernoulli log-likelihood.

    The small L2 penalty of 1e-4 (intercept unpenalized) keeps the optimum finite
    under perfect separation; convergence is gradient inf-norm <= tol.
    """
    y = _check_two_classes(y)
    X = _check_finite(X)
    std = Standardizer.fit(X) if standardize else None
    Z = std.transform(X) if std is not None else X
    n, d = Z.shape
    A = np.column_stack([Z, np.ones(n)])
    beta = np.zeros(d + 1)
    penalty = np.concatenate([np.full(d, 1e-4), [0.0]])

    def objective(b):
        z = A @ b
        # -loglik + 0.5*l2*||w||^2, numerically stable log(1+e^z)
        nll = np.sum(np.logaddexp(0.0, z) - y * z)
        return nll + 0.5 * np.sum(penalty * b**2)

    obj = objective(beta)
    for _ in range(10000):
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

def _impurity_gains(t, ts):
    """Gini impurity decrease of every cut: t holds the node's 0/1 labels,
    column j of ts the same labels sorted by candidate feature j; row c-1
    of the result scores the cut that sends the first c sorted rows left."""
    n = t.size
    counts = np.bincount(t, minlength=2)
    parent_imp = 1.0 - float(np.sum((counts / n) ** 2))
    left_n = np.arange(1, n)[:, None]
    ones = np.cumsum(ts, axis=0)[:-1]
    right_n = n - left_n
    right_ones = counts[1] - ones
    gini_left = 1.0 - (((left_n - ones) / left_n) ** 2 + (ones / left_n) ** 2)
    gini_right = 1.0 - (
        ((right_n - right_ones) / right_n) ** 2 + (right_ones / right_n) ** 2
    )
    return parent_imp - (left_n * gini_left + right_n * gini_right) / n


def _sse_gains(t, ts):
    """Squared-error reduction of every cut, laid out as in _impurity_gains."""
    n = t.size
    total = t.sum()
    parent_sse = float(np.sum(t**2) - total**2 / n)
    left_n = np.arange(1, n)[:, None]
    csum = np.cumsum(ts, axis=0)
    csq = np.cumsum(ts**2, axis=0)
    ls, lq = csum[:-1], csq[:-1]
    rs, rq = total - ls, csq[-1] - lq
    # float_power squares with libm pow(), as ** does on a numpy scalar; it
    # differs from x*x in the last bit for some x, and the golden models
    # were grown with pow()
    sse = (lq - np.float_power(ls, 2) / left_n) + (
        rq - np.float_power(rs, 2) / (n - left_n)
    )
    return parent_sse - sse


def _best_split(X, target, idx, feats, gains):
    """Best (feature, threshold, gain) over the cuts between distinct sorted
    values of the candidate features, or None when none of them varies.

    Candidates are scanned in feature order, then cut order, and a later cut
    wins only by more than 1e-15.  The threshold is the midpoint of the two
    values around the cut, or the lower one when the midpoint rounds onto
    (or overflows past) the upper one, so both sides keep their rows.
    """
    t = target[idx]
    xs = X[np.ix_(idx, feats)]
    order = np.argsort(xs, axis=0, kind="mergesort")
    xs = np.take_along_axis(xs, order, axis=0)
    distinct = (xs[1:] != xs[:-1]).T
    if not distinct.any():
        return None
    g = gains(t, t[order]).T[distinct]
    col, cut = np.nonzero(distinct)
    best = 0
    # only a new running maximum can beat the best so far by more than 1e-15
    for j in np.flatnonzero(g[1:] > np.maximum.accumulate(g)[:-1]) + 1:
        if g[j] > g[best] + 1e-15:
            best = j
    f, c = col[best], cut[best]
    a, b = xs[c, f].item(), xs[c + 1, f].item()
    thr = 0.5 * (a + b)
    return int(feats[f]), (thr if thr < b else a), g[best]


def _fit_tree(X, target, max_depth, gains, leaf_value, importances, nodes,
              n_feats=None, rng=None):
    """Grow a tree on all rows of X: append its [feature, threshold, left,
    right, value] rows to nodes in pre-order, add each split's weighted gain
    to importances, and return each row's leaf value.  When n_feats is below
    the feature count, each split draws that many candidate features from
    rng; leaf_value(idx) sets a leaf from the indices of its rows."""
    n, d = X.shape
    fitted = np.empty(n)

    def grow(idx, depth):
        node = len(nodes)
        nodes.append([-1, 0.0, node, node, 0.0])
        t = target[idx]
        if depth < max_depth and idx.size >= 2 and not np.all(t == t[0]):
            if n_feats is None or n_feats >= d:
                feats = np.arange(d)
            else:
                feats = np.sort(rng.choice(d, size=n_feats, replace=False))
            best = _best_split(X, target, idx, feats, gains)
            if best is not None and best[2] > 0.0:
                f, thr, gain = best
                importances[f] += gain * idx.size / n
                left = X[idx, f] <= thr
                nodes[node][:4] = (f, thr, grow(idx[left], depth + 1),
                                   grow(idx[~left], depth + 1))
                return node
        nodes[node][4] = fitted[idx] = leaf_value(idx)
        return node

    grow(np.arange(n), 0)
    return fitted


# ---------------------------------------------------------------------------
# ensembles

@dataclass(frozen=True)
class TreeEnsembleModel:
    """All trees of an ensemble in one node table; tree t's nodes follow
    roots[t] in pre-order.  Node i sends a row to left[i] when its feature[i]
    is at most threshold[i], else to right[i]; a leaf has feature -1, is its
    own left and right child, and holds value[i]."""

    feature: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)
    mode: str  # "forest-vote" or "boosted-sum"
    learning_rate: float = 0.0
    base_score: float = 0.0
    importances: np.ndarray = field(default=None, repr=False)
    oob_accuracy: float | None = None
    train_deviances: list | None = field(default=None, repr=False)

    @classmethod
    def from_nodes(cls, nodes, roots, **kwargs):
        """A model from [feature, threshold, left, right, value] rows."""
        table = np.array(nodes, dtype=float).reshape(-1, 5)
        feature, left, right = table[:, [0, 2, 3]].astype(np.intp).T
        return cls(feature, table[:, 1], left, right, table[:, 4],
                   np.asarray(roots, dtype=np.intp), **kwargs)

    def leaf_values(self, X):
        """(trees x rows) array of the leaf value each tree gives each row."""
        X = np.asarray(X, dtype=float)
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        rows = np.arange(X.shape[0])
        # a row that reached a leaf stays there, so step all rows until all have
        while (self.feature[node] >= 0).any():
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]

    def votes(self, X):
        if self.mode != "forest-vote":
            raise DomainError("votes are defined for forests only")
        return np.count_nonzero(self.leaf_values(X) >= 0.5, axis=0)

    def decision_function(self, X):
        if self.mode == "forest-vote":
            return self.votes(X) / self.roots.size - 0.5
        leaves = self.leaf_values(X)
        score = np.full(leaves.shape[1], self.base_score)
        # tree by tree, in order: a sum over the tree axis rounds differently
        for values in leaves:
            score += self.learning_rate * values
        return score

    def predict(self, X):
        return (self.decision_function(X) >= 0).astype(int)

    def feature_importances(self):
        return self.importances

    def _tree_dict(self, node):
        if self.feature[node] < 0:
            return {"value": float(self.value[node])}
        return {
            "feature": int(self.feature[node]),
            "threshold": float(self.threshold[node]),
            "left": self._tree_dict(self.left[node]),
            "right": self._tree_dict(self.right[node]),
        }

    def to_dict(self):
        return {
            "format": MODEL_FORMAT,
            "type": "ensemble",
            "mode": self.mode,
            "learning_rate": self.learning_rate,
            "base_score": self.base_score,
            "importances": self.importances.tolist(),
            "trees": [self._tree_dict(root) for root in self.roots],
        }


def train_forest(X, y, n_trees=100, max_depth=2, seed=0):
    """Random forest: bootstrap resamples, Gini splits over sqrt(d) random
    candidate features, majority vote.  Per-tree streams derive from
    (seed, tree index), so results are schedule-independent."""
    if n_trees < 1:
        raise DomainError(f"a forest needs at least one tree, got n_trees={n_trees}")
    y = _check_two_classes(y)
    X = _check_finite(X)
    n, d = X.shape
    n_candidates = max(1, int(np.sqrt(d)))
    importances = np.zeros(d)
    nodes, roots = [], []
    oob = np.ones((n_trees, n), dtype=bool)  # rows each tree's bootstrap left out
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        sample = rng.integers(0, n, size=n)
        oob[t, sample] = False
        target = y[sample]
        roots.append(len(nodes))
        _fit_tree(
            X[sample], target, max_depth, _impurity_gains,
            lambda idx: float(np.mean(target[idx]) >= 0.5), importances, nodes,
            n_candidates, rng,
        )
    model = TreeEnsembleModel.from_nodes(
        nodes, roots, mode="forest-vote", importances=importances / n_trees)
    oob_votes = np.count_nonzero((model.leaf_values(X) >= 0.5) & oob, axis=0)
    oob_counts = np.count_nonzero(oob, axis=0)
    seen = oob_counts > 0
    if not np.any(seen):
        return model
    oob_pred = (oob_votes[seen] / oob_counts[seen]) >= 0.5
    return replace(model, oob_accuracy=float(np.mean(oob_pred == (y[seen] == 1))))


def train_boosting(X, y, n_stages=100, tree_depth=3):
    """Gradient boosting under binomial deviance.

    The score starts at the training log-odds; each stage fits a regression
    tree to the negative gradient (residual y - p) and applies a per-leaf
    Newton step scaled by the learning rate of 0.1.  Every stage uses all
    rows and features, so nothing is drawn at random.
    """
    y = _check_two_classes(y)
    X = _check_finite(X)
    learning_rate = 0.1
    n, d = X.shape
    p0 = y.mean()
    base = float(np.log(p0 / (1.0 - p0)))
    score = np.full(n, base)
    importances = np.zeros(d)
    nodes, roots = [], []
    deviances = []
    for _ in range(n_stages):
        p = _sigmoid(score)
        residual = y - p
        hess = np.maximum(p * (1.0 - p), 1e-12)
        # Newton leaf values: sum(residual) / sum(p*(1-p)) over leaf samples
        roots.append(len(nodes))
        fitted = _fit_tree(
            X, residual, tree_depth, _sse_gains,
            lambda idx: residual[idx].sum() / hess[idx].sum(), importances, nodes,
        )
        score = score + learning_rate * fitted
        deviances.append(float(np.sum(np.logaddexp(0.0, score) - y * score)))
    return TreeEnsembleModel.from_nodes(
        nodes, roots, mode="boosted-sum", learning_rate=learning_rate, base_score=base,
        importances=importances / max(1, n_stages), train_deviances=deviances)


# ---------------------------------------------------------------------------
# feature ranking

@dataclass(frozen=True)
class FeatureRanking:
    """Feature indices (0-based), best first; models[k-1] is fit on sorted(order[:k])."""

    order: tuple
    models: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise DomainError("ranking must be a permutation of the feature indices")

    @property
    def n_features(self):
        return len(self.order)


def rfe_rank(X, y, trainer):
    """Recursive feature elimination.

    Each iteration trains on the surviving features (in original index
    order) and removes the one with the smallest importance (linear models:
    squared weight; ensembles: total impurity decrease).  Ties remove the
    higher original index first.  The ranking is the removal order reversed
    and keeps every iteration's model.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    if d < 1:
        raise DomainError("need at least one feature")
    surviving = list(range(d))
    removed, models = [], []
    while surviving:
        models.append(trainer(X[:, surviving], y))
        imp = np.asarray(models[-1].feature_importances(), dtype=float)
        victim = surviving[np.flatnonzero(imp == imp.min())[-1]]
        surviving.remove(victim)
        removed.append(victim)
    return FeatureRanking(tuple(reversed(removed)), tuple(reversed(models)))


def nested_feature_accuracies(X_train, y_train, X_test, y_test, ranking):
    """Rows [k, train acc, test acc] of RFE's own model on the top-k features."""
    if len(ranking.models) != ranking.n_features:
        raise DomainError("ranking lacks a model per feature count; rank with rfe_rank")
    X_train = np.asarray(X_train, dtype=float)
    X_test = _check_finite(X_test)  # a NaN row would silently predict 0
    results = []
    for k, model in enumerate(ranking.models, start=1):
        cols = sorted(ranking.order[:k])
        train_acc = float(np.mean(model.predict(X_train[:, cols]) == y_train))
        test_acc = float(np.mean(model.predict(X_test[:, cols]) == y_test))
        results.append([k, train_acc, test_acc])
    return results


# ---------------------------------------------------------------------------
# trainer factory

# every accepted spelling, mapped to the name reports carry
CLASSIFIERS = {"svm": "svm", "logistic": "logistic", "logreg": "logistic",
               "forest": "forest", "boosting": "boosting", "boost": "boosting"}


def make_trainer(classifier, seed=0):
    """A (X, y) -> fitted-model callable for the named classifier or alias."""
    # each lambda looks train_* up when called, so a tracer that wraps them sees every fit
    classifier = CLASSIFIERS.get(classifier, classifier)
    if classifier == "svm":
        return lambda X, y: train_svm(X, y)
    if classifier == "logistic":
        return lambda X, y: train_logistic(X, y)
    if classifier == "forest":
        return lambda X, y: train_forest(X, y, seed=seed)
    if classifier == "boosting":
        return lambda X, y: train_boosting(X, y)
    raise DomainError(f"unknown classifier {classifier!r}")
