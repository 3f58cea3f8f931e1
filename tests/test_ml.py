import numpy as np
import pytest

from chatterdetect import (
    DomainError,
    FeatureRanking,
    Standardizer,
    ValidationError,
    make_trainer,
    model_from_dict,
    nested_feature_accuracies,
    rfe_rank,
    train_boosting,
    train_forest,
    train_logistic,
    train_svm,
)


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

    def test_round_trip_dict(self):
        s = Standardizer.fit(np.random.default_rng(1).random((10, 4)))
        s2 = Standardizer.from_dict(s.to_dict())
        assert np.array_equal(s.mean, s2.mean) and np.array_equal(s.std, s2.std)

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

    def test_serialization_round_trip(self):
        X, y = blobs(seed=2)
        model = train_svm(X, y)
        clone = model_from_dict(model.to_dict())
        assert np.array_equal(clone.decision_function(X), model.decision_function(X))


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

    def test_serialization_round_trip(self):
        X, y = xor_data(seed=4, n_per=15)
        model = train_forest(X, y, n_trees=10, seed=0)
        clone = model_from_dict(model.to_dict())
        assert np.array_equal(clone.predict(X), model.predict(X))


class TestBoosting:
    def test_separable_blobs(self):
        X, y = blobs(seed=13)
        model = train_boosting(X, y, seed=0)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_xor_solved(self):
        X, y = xor_data(seed=5)
        model = train_boosting(X, y, seed=0)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_training_deviance_non_increasing(self):
        X, y = blobs(seed=14, gap=1.5)
        dev = train_boosting(X, y, seed=0).train_deviances
        assert len(dev) == 100
        assert all(b <= a + 1e-9 for a, b in zip(dev, dev[1:]))

    def test_base_score_is_log_odds(self):
        X, y = blobs(seed=15, n_per=30)
        model = train_boosting(X, y, n_stages=1, seed=0)
        assert abs(model.base_score - np.log(0.5 / 0.5)) < 1e-12

    def test_deterministic(self):
        X, y = blobs(seed=16)
        a = train_boosting(X, y, seed=2)
        b = train_boosting(X, y, seed=2)
        assert np.array_equal(a.decision_function(X), b.decision_function(X))

    def test_serialization_round_trip(self):
        X, y = xor_data(seed=6, n_per=15)
        model = train_boosting(X, y, n_stages=20, seed=0)
        clone = model_from_dict(model.to_dict())
        assert np.allclose(clone.decision_function(X), model.decision_function(X))


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
        trainer = make_trainer("logistic")
        ranking = rfe_rank(X, y, trainer)
        Xt, yt = self.planted(seed=99)
        rows = nested_feature_accuracies(X, y, Xt, yt, ranking, trainer)
        assert [k for k, _, _ in rows] == list(range(1, 11))
        assert all(0.0 <= tr <= 1.0 and 0.0 <= te <= 1.0 for _, tr, te in rows)
        # the two planted features alone should generalize well
        assert rows[1][2] > 0.9


class TestMakeTrainer:
    def test_aliases(self):
        X, y = blobs(n_per=10)
        for name in ("svm", "logistic", "logreg", "forest", "boosting", "boost"):
            model = make_trainer(name, seed=0)(X, y)
            assert model.predict(X).shape == y.shape

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            make_trainer("perceptron")

    def test_overrides_forwarded(self):
        X, y = blobs(n_per=10)
        model = make_trainer("forest", seed=0, n_trees=7)(X, y)
        assert len(model.trees) == 7

    def test_bad_format_rejected(self):
        with pytest.raises(DomainError):
            model_from_dict({"format": "something-else"})
