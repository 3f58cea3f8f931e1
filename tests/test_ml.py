import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatterdetect import (
    DomainError,
    FeatureRanking,
    Standardizer,
    ValidationError,
    make_trainer,
    nested_feature_accuracies,
    rfe_rank,
    train_boosting,
    train_forest,
    train_logistic,
    train_svm,
)
from chatterdetect.ml import CLASSIFIERS, _best_split, _impurity_gains, _sse_gains


def blobs(seed=0, n_per=50, d=4, gap=4.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, d))
    b = rng.standard_normal((n_per, d)) + gap
    X = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_per, dtype=int), np.ones(n_per, dtype=int)])
    return X, y


def xor_data(seed=0, n_per=40):
    rng = np.random.default_rng(seed)
    centers = [((0, 0), 0), ((1, 1), 0), ((0, 1), 1), ((1, 0), 1)]
    X, y = [], []
    for (cx, cy), label in centers:
        pts = rng.standard_normal((n_per, 2)) * 0.08 + (cx, cy)
        X.append(pts)
        y.extend([label] * n_per)
    return np.vstack(X), np.asarray(y, dtype=int)


class TestStandardizer:
    def test_reference_value(self):
        # population statistics: std([1,2,3]) = 0.8165, so (4-2)/0.8165
        s = Standardizer.fit(np.array([[1.0], [2.0], [3.0]]))
        z = s.transform(np.array([[4.0]]))
        assert abs(z[0, 0] - 2.449) < 0.001

    def test_transform_centers_and_scales(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-5, 9, size=(200, 3))
        Z = Standardizer.fit(X).transform(X)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        Z = Standardizer.fit(X).transform(X)
        assert np.all(Z[:, 0] == 0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Standardizer.fit(np.empty((0, 3)))


class TestSvm:
    def test_separable_blobs(self):
        X, y = blobs()
        model = train_svm(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_symmetric_pair_midpoint_boundary(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_svm(X, y, standardize=False)
        assert abs(model.intercept) < 1e-6
        assert abs(model.decision_function(np.array([[0.0]]))[0]) < 1e-6
        # unit margins at the two support points
        assert abs(model.decision_function(X)[1] - 1.0) < 1e-3

    def test_duality_gap_certificate(self):
        X, y = blobs(seed=3, gap=2.0)
        model = train_svm(X, y, tol=1e-4)
        gap = model.diagnostics["duality_gap"]
        assert gap <= 1e-4 * max(1.0, abs(model.diagnostics["primal"]))

    def test_xor_linear_fails(self):
        X, y = xor_data()
        model = train_svm(X, y)
        assert np.mean(model.predict(X) == y) <= 0.75

    def test_deterministic(self):
        X, y = blobs(seed=5)
        a, b = train_svm(X, y), train_svm(X, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            train_svm(np.ones((4, 2)), np.zeros(4, dtype=int))

    def test_diagnostics_count_passes(self):
        X, y = blobs(seed=3, gap=2.0)
        done = train_svm(X, y).diagnostics
        assert done["converged"] and 1 <= done["passes"] < 20000
        cut = train_svm(X, y, tol=0.0, max_passes=2).diagnostics
        assert cut["passes"] == 2 and not cut["converged"]

    @pytest.mark.parametrize("passes", [0, -1])
    def test_no_passes_rejected(self, passes):
        X, y = blobs()
        with pytest.raises(DomainError, match="max_passes"):
            train_svm(X, y, max_passes=passes)


class TestLogistic:
    def test_separable_blobs(self):
        X, y = blobs(seed=1)
        model = train_logistic(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_symmetric_pair_zero_intercept(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_logistic(X, y, standardize=False)
        assert abs(model.intercept) < 1e-8

    def test_boundary_probability_half(self):
        X, y = blobs(seed=4, d=2)
        model = train_logistic(X, y)
        # a point where the decision function crosses zero gets p = 0.5
        lo, hi = X[0], X[-1]
        f = lambda t: model.decision_function(((1 - t) * lo + t * hi)[None, :])[0]
        a, b = 0.0, 1.0
        for _ in range(80):
            mid = (a + b) / 2
            if np.sign(f(mid)) == np.sign(f(a)):
                a = mid
            else:
                b = mid
        crossing = ((1 - a) * lo + a * hi)[None, :]
        assert abs(model.predict_proba(crossing)[0] - 0.5) < 1e-6

    def test_probabilities_in_unit_interval(self):
        X, y = blobs(seed=6)
        p = train_logistic(X, y).predict_proba(X)
        assert np.all((p > 0) & (p < 1))

    def test_xor_linear_fails(self):
        X, y = xor_data(seed=1)
        model = train_logistic(X, y)
        assert np.mean(model.predict(X) == y) <= 0.75

    def test_deterministic(self):
        X, y = blobs(seed=7)
        a, b = train_logistic(X, y), train_logistic(X, y)
        assert np.array_equal(a.weights, b.weights)

    def test_svm_has_no_probabilities(self):
        X, y = blobs()
        with pytest.raises(DomainError):
            train_svm(X, y).predict_proba(X)


class TestForest:
    def test_separable_blobs(self):
        X, y = blobs(seed=8)
        model = train_forest(X, y, seed=0)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_xor_beats_chance_and_depth_three_solves(self):
        # depth-2 trees over one random candidate feature per split only
        # partially capture the interaction; deeper trees capture it fully
        X, y = xor_data(seed=2)
        shallow = train_forest(X, y, seed=1)
        assert np.mean(shallow.predict(X) == y) >= 0.8
        deep = train_forest(X, y, seed=1, max_depth=3)
        assert np.mean(deep.predict(X) == y) >= 0.95

    def test_deterministic_given_seed(self):
        X, y = blobs(seed=9)
        a = train_forest(X, y, seed=3)
        b = train_forest(X, y, seed=3)
        assert np.array_equal(a.decision_function(X), b.decision_function(X))
        assert a.oob_accuracy == b.oob_accuracy

    def test_seed_changes_model(self):
        X, y = xor_data(seed=3)
        a = train_forest(X, y, seed=0, n_trees=5)
        b = train_forest(X, y, seed=1, n_trees=5)
        assert not np.array_equal(a.decision_function(X), b.decision_function(X))

    def test_oob_accuracy_reasonable(self):
        X, y = blobs(seed=10)
        model = train_forest(X, y, seed=0)
        assert model.oob_accuracy is not None
        assert model.oob_accuracy > 0.9

    def test_votes_bounded(self):
        X, y = blobs(seed=11)
        votes = train_forest(X, y, n_trees=20, seed=0).votes(X)
        assert np.all((votes >= 0) & (votes <= 20))

    def test_importances_nonnegative_and_informative(self):
        # only feature 0 carries signal
        rng = np.random.default_rng(12)
        X = rng.standard_normal((80, 3))
        y = (X[:, 0] > 0).astype(int)
        imp = train_forest(X, y, seed=0).feature_importances()
        assert np.all(imp >= 0)
        assert imp[0] == imp.max()

    @pytest.mark.parametrize("n_trees", [0, -3])
    def test_no_trees_rejected(self, n_trees):
        X, y = blobs()
        with pytest.raises(DomainError, match="n_trees"):
            train_forest(X, y, n_trees=n_trees)


class TestBoosting:
    def test_separable_blobs(self):
        X, y = blobs(seed=13)
        model = train_boosting(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_xor_solved(self):
        X, y = xor_data(seed=5)
        model = train_boosting(X, y)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_training_deviance_non_increasing(self):
        X, y = blobs(seed=14, gap=1.5)
        dev = train_boosting(X, y).train_deviances
        assert len(dev) == 100
        assert all(b <= a + 1e-9 for a, b in zip(dev, dev[1:]))

    def test_base_score_is_log_odds(self):
        X, y = blobs(seed=15, n_per=30)
        model = train_boosting(X, y, n_stages=1)
        assert abs(model.base_score - np.log(0.5 / 0.5)) < 1e-12

    def test_deterministic(self):
        X, y = blobs(seed=16)
        a = train_boosting(X, y)
        b = train_boosting(X, y)
        assert np.array_equal(a.decision_function(X), b.decision_function(X))


# The per-cut split loops the vectorized search replaced, kept as its oracle.
# The one deliberate change is the threshold (see _reference_threshold).

def _reference_threshold(a, b):
    mid = 0.5 * (float(a) + float(b))
    return mid if mid < b else float(a)


def _reference_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p**2))


def _reference_split_classification(X, y, idx, feat_candidates):
    best = None
    n = idx.size
    parent_counts = np.bincount(y[idx], minlength=2).astype(float)
    parent_imp = _reference_gini(parent_counts)
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
            imp = (left_n * _reference_gini(left)
                   + (n - left_n) * _reference_gini(right)) / n
            gain = parent_imp - imp
            thr = _reference_threshold(xs_sorted[cut - 1], xs_sorted[cut])
            if best is None or gain > best[2] + 1e-15:
                best = (f, thr, gain)
    return best


def _reference_split_regression(X, r, idx, feat_candidates):
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
            thr = _reference_threshold(xs_sorted[cut - 1], xs_sorted[cut])
            if best is None or gain > best[2] + 1e-15:
                best = (f, thr, gain)
    return best


@st.composite
def split_problems(draw):
    """A feature matrix, 0/1 labels, residual-like targets, and a node's
    sorted row and candidate-feature subsets."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["continuous", "rounded", "levels", "near-tie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d))
    if kind == "rounded":
        X = np.round(X, 1)
    elif kind in ("levels", "near-tie"):
        X = rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == "near-tie" and d > 1:
        # the same level cuts on a column ordered differently within each
        # level: equal partitions whose gains differ only by rounding
        X[:, 1] = X[:, 0] + 1e-3 * rng.random(n)
    labels = rng.integers(0, 2, size=n)
    residuals = labels - 1.0 / (1.0 + np.exp(-np.round(rng.standard_normal(n), 1)))
    idx = np.flatnonzero(rng.random(n) < 0.8)
    if idx.size < 2:
        idx = np.arange(n)
    feats = np.flatnonzero(rng.random(d) < 0.7)
    if feats.size == 0:
        feats = np.arange(d)
    return X, labels, residuals, idx, feats


def _same_split(got, want):
    if want is None:
        return got is None
    return got == (int(want[0]), want[1], want[2])


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_gini_matches_reference_loop(self, problem):
        X, labels, _, idx, feats = problem
        got = _best_split(X, labels, idx, feats, _impurity_gains)
        assert _same_split(got, _reference_split_classification(X, labels, idx, feats))

    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_squared_error_matches_reference_loop(self, problem):
        X, _, residuals, idx, feats = problem
        got = _best_split(X, residuals, idx, feats, _sse_gains)
        assert _same_split(got, _reference_split_regression(X, residuals, idx, feats))

    # adjacent doubles whose midpoint rounds onto the upper one, and large
    # values whose sum overflows
    @pytest.mark.parametrize("a, b", [(1 + 2**-52, 1 + 2**-51), (1.7e308, 1.79e308)])
    @pytest.mark.parametrize("trainer", [train_forest, train_boosting])
    def test_threshold_keeps_both_sides(self, trainer, a, b):
        X = np.array([[a]] * 5 + [[b]] * 5)
        y = np.array([0] * 5 + [1] * 5)
        model = trainer(X, y)
        assert np.array_equal(model.predict(X), y)


def golden_data():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((90, 5))
    X[:, 3] = np.round(X[:, 3], 1)
    X[:, 4] = rng.integers(0, 3, size=90)
    y = (X[:, 0] + 0.5 * X[:, 4] + rng.standard_normal(90) > 0.5).astype(int)
    return X, y


# SHA-256 of the model JSON as the per-cut loops built it; a faster split
# search must reproduce every tree bit for bit
@pytest.mark.parametrize("trainer, digest", [
    pytest.param(lambda X, y: train_forest(X, y, seed=5),
                 "024ab536d76453357a633fd108caf867de7c02802ae1cbec702b79e77f53980f",
                 id="forest"),
    pytest.param(train_boosting,
                 "87f145f062a4c2b6a890aba65ee9c9065c3600f14c884409a9db6853cf1300ef",
                 id="boosting"),
])
def test_tree_models_golden_digest(trainer, digest):
    model = trainer(*golden_data())
    assert hashlib.sha256(json.dumps(model.to_dict()).encode()).hexdigest() == digest


# SHA-256 of the forest's OOB accuracy, the boosting deviances and both
# models' decision values on held-out rows, as linked tree nodes walked one
# tree at a time gave them; the node table must keep every bit
@pytest.mark.parametrize("trainer, digest", [
    pytest.param(lambda X, y: train_forest(X, y, seed=5),
                 "c99498718065a293a7dda48d456408d342ad4416bf9029d72809d297d2f35d50",
                 id="forest"),
    pytest.param(train_boosting,
                 "79a462cbff87a54f1c459f78c3aff65c5a67b552dd8220b9d7d4f0e0b55181f7",
                 id="boosting"),
])
def test_tree_predictions_golden_digest(trainer, digest):
    X, y = golden_data()
    model = trainer(X[:60], y[:60])
    record = {"oob_accuracy": model.oob_accuracy, "train_deviances": model.train_deviances,
              "decision": model.decision_function(X[60:]).tolist()}
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest


# A walker over the nested JSON trees, kept as the oracle of the node table.

def _oracle_leaf(tree, x):
    if "value" in tree:
        return tree["value"]
    side = "left" if x[tree["feature"]] <= tree["threshold"] else "right"
    return _oracle_leaf(tree[side], x)


def _oracle_predictions(doc, X):
    """(votes or None, decision values) computed from model JSON."""
    leaves = np.array([[_oracle_leaf(t, x) for x in X] for t in doc["trees"]])
    if doc["mode"] == "forest-vote":
        votes = np.sum(leaves >= 0.5, axis=0)
        return votes, votes / len(doc["trees"]) - 0.5
    score = np.full(len(X), doc["base_score"])
    for values in leaves:
        score = score + doc["learning_rate"] * values
    return None, score


@st.composite
def tree_problems(draw):
    """Training rows with both classes, held-out rows from the same
    distribution (rounded grids make rows land on thresholds), and a
    tree ensemble to fit."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.sampled_from([0, 1, 8]))
    X = np.round(rng.standard_normal((n + 20, d)), decimals)
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    depth, count, seed = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(0, 99))
    if draw(st.booleans()):
        model = train_forest(X[:n], y, n_trees=count, max_depth=depth, seed=seed)
    else:
        model = train_boosting(X[:n], y, n_stages=count, tree_depth=depth)
    return model, X[n:]


@settings(max_examples=150, deadline=None)
@given(tree_problems())
def test_node_table_matches_json_walker(problem):
    model, X = problem
    doc = json.loads(json.dumps(model.to_dict()))
    votes, decision = _oracle_predictions(doc, X)
    assert np.array_equal(model.decision_function(X), decision)
    if votes is not None:
        assert np.array_equal(model.votes(X), votes)
    assert json.dumps(model.to_dict()) == json.dumps(doc)


@pytest.mark.parametrize("trainer", [train_svm, train_logistic, train_forest,
                                     train_boosting])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_feature_rejected(trainer, bad):
    X, y = blobs()
    X[17, 2] = bad
    with pytest.raises(ValidationError, match="row 17, column 2"):
        trainer(X, y)


class TestRfe:
    def planted(self, seed=0, n=120, d=10, informative=(2, 7)):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        score = sum(X[:, i] for i in informative)
        y = (score > 0).astype(int)
        return X, y

    def test_ranking_is_permutation(self):
        X, y = self.planted()
        ranking = rfe_rank(X, y, make_trainer("svm"))
        assert sorted(ranking.order) == list(range(10))

    @pytest.mark.parametrize("classifier", ["svm", "logistic", "forest", "boosting"])
    def test_informative_features_rank_top(self, classifier):
        X, y = self.planted(seed=3)
        ranking = rfe_rank(X, y, make_trainer(classifier, seed=0))
        assert set(ranking.order[:2]) == {2, 7}

    def test_deterministic(self):
        X, y = self.planted(seed=1)
        a = rfe_rank(X, y, make_trainer("forest", seed=0))
        b = rfe_rank(X, y, make_trainer("forest", seed=0))
        assert a.order == b.order

    def test_single_feature(self):
        X, y = blobs(d=1)
        assert rfe_rank(X, y, make_trainer("logistic")).order == (0,)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(DomainError):
            FeatureRanking((0, 0, 1))

    def test_nested_accuracies_shape_and_range(self):
        X, y = self.planted(seed=2)
        ranking = rfe_rank(X, y, make_trainer("logistic"))
        Xt, yt = self.planted(seed=99)
        rows = nested_feature_accuracies(X, y, Xt, yt, ranking)
        assert [k for k, _, _ in rows] == list(range(1, 11))
        assert all(0.0 <= tr <= 1.0 and 0.0 <= te <= 1.0 for _, tr, te in rows)
        # the two planted features alone should generalize well
        assert rows[1][2] > 0.9

    @pytest.mark.parametrize("classifier", ["svm", "logistic", "forest", "boosting"])
    def test_nested_accuracies_equal_refit_oracle(self, classifier):
        # RFE's step with k survivors fits the columns sorted(order[:k]);
        # refitting them with the same trainer must score the same
        X, y = self.planted(seed=4, n=60, d=5, informative=(1, 3))
        Xt, yt = self.planted(seed=98, n=60, d=5, informative=(1, 3))
        trainer = make_trainer(classifier, seed=3)
        ranking = rfe_rank(X, y, trainer)
        want = []
        for k in range(1, 6):
            cols = sorted(ranking.order[:k])
            model = trainer(X[:, cols], y)
            want.append([k, float(np.mean(model.predict(X[:, cols]) == y)),
                         float(np.mean(model.predict(Xt[:, cols]) == yt))])
        assert nested_feature_accuracies(X, y, Xt, yt, ranking) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nested_accuracies_reject_non_finite_test_rows(self, bad):
        # an unchecked NaN row fails every `>= 0` test and counts as class 0
        X, y = self.planted(seed=2, d=3, informative=(0, 1))
        ranking = rfe_rank(X, y, make_trainer("logistic"))
        Xt = X.copy()
        Xt[5, 1] = bad
        with pytest.raises(ValidationError, match="row 5, column 1"):
            nested_feature_accuracies(X, y, Xt, y, ranking)

    def test_nested_accuracies_need_the_step_models(self):
        X, y = blobs(d=2)
        with pytest.raises(DomainError, match="rfe_rank"):
            nested_feature_accuracies(X, y, X, y, FeatureRanking((1, 0)))


class TestMakeTrainer:
    def test_aliases(self):
        X, y = blobs(n_per=10)
        for name in CLASSIFIERS:
            model = make_trainer(name, seed=0)(X, y)
            assert model.predict(X).shape == y.shape

    def test_aliases_name_the_same_trainer(self):
        X, y = blobs(n_per=10)
        for alias, name in CLASSIFIERS.items():
            a, b = make_trainer(alias, seed=1)(X, y), make_trainer(name, seed=1)(X, y)
            assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            make_trainer("perceptron")
