import numpy as np
import pytest
from conftest import (MALFORMED_TREES, brute_force_best_split, tree_doc,
                      write_model_doc)

from magspy.forest import (FeatureVector, ForestConfig, cross_validate_grid,
                           extract_features, load_model, predict, predict_many,
                           save_model, split_dataset, train_forest)
from magspy.traces import Dataset, Trace1D


def feature_dataset(rows, class_names=None):
    pairs = [(FeatureVector(values, label), label) for values, label in rows]
    return Dataset.from_pairs(pairs, class_names)


class TestExtractFeatures:
    def test_two_bins_hand_case(self):
        trace = Trace1D([0.0, 0.0, 1.0, 1.0], 1.0, normalized=True)
        fv = extract_features(trace, 2)
        assert np.allclose(fv.values, [0.5, 1.0])

    def test_three_bins_hand_case(self):
        trace = Trace1D([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 1.0, normalized=True)
        fv = extract_features(trace, 3)
        assert np.allclose(fv.values, [0.5, 0.5, 0.5])

    def test_constant_trace(self):
        trace = Trace1D([0.25] * 10, 1.0, normalized=True)
        assert np.allclose(extract_features(trace, 4).values, 0.25)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            extract_features(Trace1D([0.0, 2.0], 1.0), 1)

    def test_too_short(self):
        trace = Trace1D([0.0, 1.0], 1.0, normalized=True)
        with pytest.raises(ValueError, match="shorter than bin_count"):
            extract_features(trace, 3)

    def test_feature_count(self):
        trace = Trace1D(np.linspace(0, 1, 137), 1.0, normalized=True)
        assert len(extract_features(trace, 50)) == 50


class TestTrainAndPredict:
    def test_single_class_purity(self):
        data = feature_dataset([([0.1, 0.2], "only"), ([0.3, 0.4], "only")])
        model = train_forest(data, ForestConfig(n_estimators=5, seed=1))
        label, probs = predict(model, FeatureVector([0.9, 0.9]))
        assert label == "only"
        assert probs["only"] == pytest.approx(1.0)

    def test_separable_stump(self):
        data = feature_dataset([([0.0], "A"), ([1.0], "B")])
        config = ForestConfig(n_estimators=1, max_features="all", max_depth=1,
                              min_impurity_decrease=0.0, bootstrap=False, seed=0)
        model = train_forest(data, config)
        tree = model.trees[0]
        assert tree.n_nodes == 3
        assert tree.threshold[0] == pytest.approx(0.5)
        assert predict(model, FeatureVector([0.9]))[0] == "B"
        assert predict(model, FeatureVector([0.1]))[0] == "A"

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 5))
            n_classes = int(rng.integers(2, 4))
            # Integer grids force exact threshold ties, exercising tie-breaking.
            x = rng.integers(0, 4, (n, d)).astype(float)
            y = rng.integers(0, n_classes, n)
            if len(set(y.tolist())) < 2:
                continue
            names = tuple(f"c{i}" for i in range(n_classes))
            rows = [(x[i], names[y[i]]) for i in range(n)]
            data = Dataset.from_pairs(
                [(FeatureVector(v, l), l) for v, l in rows], names)
            config = ForestConfig(n_estimators=1, max_features="all", max_depth=1,
                                  min_impurity_decrease=0.0, bootstrap=False,
                                  seed=trial)
            model = train_forest(data, config)
            tree = model.trees[0]
            # Canonical order inside training sorts by (label, features);
            # recompute the oracle on that same ordering.
            order = sorted(range(n), key=lambda i: (names[y[i]], tuple(x[i])))
            xs = x[order]
            ys = np.asarray([names.index(names[y[i]]) for i in order])
            oracle = brute_force_best_split(xs, ys, n_classes)
            assert oracle is not None
            assert tree.feature[0] == oracle[0]
            assert tree.threshold[0] == pytest.approx(oracle[1], abs=0.0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (40, 3))
        labels = ["A" if v[0] + v[1] > 0 else "B" for v in x]
        data = feature_dataset(list(zip(x, labels)), ("A", "B"))
        model = train_forest(data, ForestConfig(n_estimators=30, seed=2))
        _, probs = predict_many(model, rng.normal(0, 1, (200, 3)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (30, 4))
        labels = ["A" if v[0] > 0 else "B" for v in x]
        data = feature_dataset(list(zip(x, labels)), ("A", "B"))
        config = ForestConfig(n_estimators=16, seed=5)
        models = [train_forest(data, config) for _ in range(3)]
        ref = models[0]
        for other in models[1:]:
            for ta, tb in zip(ref.trees, other.trees):
                assert np.array_equal(ta.feature, tb.feature)
                assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
                assert np.array_equal(ta.left, tb.left)
                assert np.array_equal(ta.right, tb.right)
                assert np.array_equal(ta.counts, tb.counts)

    def test_permutation_invariant_without_bootstrap(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (20, 3))
        labels = ["A" if v[2] > 0 else "B" for v in x]
        rows = list(zip(x, labels))
        config = ForestConfig(n_estimators=4, bootstrap=False, seed=9)
        model_a = train_forest(feature_dataset(rows, ("A", "B")), config)
        rng.shuffle(rows)
        model_b = train_forest(feature_dataset(rows, ("A", "B")), config)
        for ta, tb in zip(model_a.trees, model_b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.counts, tb.counts)

    def test_monotone_capacity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (60, 4))
        labels = ["A" if v[0] * v[1] > 0 else "B" for v in x]
        data = feature_dataset(list(zip(x, labels)), ("A", "B"))
        accs = {}
        for depth in (1, 50):
            config = ForestConfig(n_estimators=20, max_depth=depth,
                                  min_impurity_decrease=0.0, seed=4)
            model = train_forest(data, config)
            codes, _ = predict_many(model, x)
            truth = np.asarray([("A", "B").index(l) for l in labels])
            accs[depth] = float(np.mean(codes == truth))
        assert accs[50] >= accs[1]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_forest(Dataset((), ("A",)), ForestConfig(n_estimators=1))

    def test_inconsistent_lengths_rejected(self):
        data = Dataset.from_pairs([(FeatureVector([1.0]), "A"),
                                   (FeatureVector([1.0, 2.0]), "A")], ("A",))
        with pytest.raises(ValueError, match="inconsistent"):
            train_forest(data, ForestConfig(n_estimators=1))

    def test_dimension_mismatch_rejected(self):
        data = feature_dataset([([0.0, 1.0], "A"), ([1.0, 0.0], "B")])
        model = train_forest(data, ForestConfig(n_estimators=2, seed=0))
        with pytest.raises(ValueError, match="dimension"):
            predict(model, FeatureVector([0.0]))


class TestSplitDataset:
    def test_per_class_counts(self):
        rows = [([float(i), float(c)], f"c{c}") for c in range(3) for i in range(10)]
        data = feature_dataset(rows)
        train, test = split_dataset(data, 0.8, seed=0)
        for name in data.class_names:
            assert sum(1 for _, l in train.items if l == name) == 8
            assert sum(1 for _, l in test.items if l == name) == 2

    def test_deterministic(self):
        rows = [([float(i)], "a") for i in range(10)]
        data = feature_dataset(rows)
        a = split_dataset(data, 0.7, seed=3)
        b = split_dataset(data, 0.7, seed=3)
        key = lambda ds: [fv.values[0] for fv, _ in ds.items]
        assert key(a[0]) == key(b[0])
        assert key(a[1]) == key(b[1])

    def test_partition(self):
        rows = [([float(i)], "a" if i % 2 else "b") for i in range(20)]
        data = feature_dataset(rows)
        train, test = split_dataset(data, 0.6, seed=1)
        seen = sorted(fv.values[0] for fv, _ in train.items + test.items)
        assert seen == sorted(float(i) for i in range(20))
        assert not (set(id(fv) for fv, _ in train.items)
                    & set(id(fv) for fv, _ in test.items))

    def test_small_class_rejected(self):
        data = feature_dataset([([0.0], "a"), ([1.0], "a"), ([2.0], "b")])
        with pytest.raises(ValueError, match="fewer than 2"):
            split_dataset(data, 0.5, seed=0)

    def test_bad_fraction(self):
        data = feature_dataset([([0.0], "a"), ([1.0], "a")])
        with pytest.raises(ValueError):
            split_dataset(data, 1.0, seed=0)


class TestCrossValidateGrid:
    def xor_dataset(self, per_corner=8):
        rng = np.random.default_rng(11)
        rows = []
        for cx in (0.0, 1.0):
            for cy in (0.0, 1.0):
                label = "A" if cx == cy else "B"
                for _ in range(per_corner):
                    rows.append(([cx + rng.normal(0, 0.02),
                                  cy + rng.normal(0, 0.02)], label))
        return feature_dataset(rows, ("A", "B"))

    def test_singleton_grid(self):
        data = self.xor_dataset()
        config = ForestConfig(n_estimators=5, seed=0)
        best, means = cross_validate_grid(data, [config], folds=2)
        assert best is config
        assert len(means) == 1

    def test_depth_two_beats_stump_on_xor(self):
        data = self.xor_dataset()
        shallow = ForestConfig(n_estimators=20, max_features="all", max_depth=1,
                               min_impurity_decrease=0.0, bootstrap=False, seed=0)
        deep = ForestConfig(n_estimators=20, max_features="all", max_depth=4,
                            min_impurity_decrease=0.0, bootstrap=False, seed=0)
        best, means = cross_validate_grid(data, [shallow, deep], folds=4)
        assert best is deep
        assert means[1] > means[0]

    def test_fold_accuracies_bounded(self):
        data = self.xor_dataset(per_corner=4)
        _, means = cross_validate_grid(
            data, [ForestConfig(n_estimators=3, seed=1)], folds=2)
        assert 0.0 <= means[0] <= 1.0

    def test_class_too_small(self):
        data = feature_dataset([([0.0], "a"), ([1.0], "a"), ([0.1], "b"),
                                ([0.9], "b")])
        with pytest.raises(ValueError, match="fewer than"):
            cross_validate_grid(data, [ForestConfig(n_estimators=1)], folds=3)


class TestModelSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (30, 5))
        labels = ["A" if v[0] > 0 else ("B" if v[1] > 0 else "C") for v in x]
        data = feature_dataset(list(zip(x, labels)), ("A", "B", "C"))
        model = train_forest(data, ForestConfig(n_estimators=12, seed=8))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.class_names == model.class_names
        assert back.n_features == model.n_features
        assert back.config == model.config
        queries = rng.normal(0, 1, (50, 5))
        codes_a, probs_a = predict_many(model, queries)
        codes_b, probs_b = predict_many(back, queries)
        assert np.array_equal(codes_a, codes_b)
        assert np.array_equal(probs_a, probs_b)

    def test_rejects_other_documents(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)


class TestModelValidation:
    @pytest.mark.parametrize("name", sorted(MALFORMED_TREES))
    def test_malformed_tree_rejected(self, tmp_path, name):
        path = write_model_doc(tmp_path / "model.json", MALFORMED_TREES[name])
        with pytest.raises(ValueError):
            load_model(path)

    def test_well_formed_document_loads(self, tmp_path):
        tree = tree_doc([0, -1, -1], [0.5, None, None], [1, -1, -1],
                         [2, -1, -1], [None, [1, 0], [0, 1]])
        model = load_model(write_model_doc(tmp_path / "model.json", tree))
        codes, _ = predict_many(model, [[0.0], [1.0]])
        assert codes.tolist() == [0, 1]

    def test_trained_forest_passes_validation(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (40, 4))
        labels = ["A" if v[0] > 0 else "B" for v in x]
        model = train_forest(feature_dataset(list(zip(x, labels))),
                             ForestConfig(n_estimators=8, seed=2))
        save_model(model, tmp_path / "model.json")
        assert len(load_model(tmp_path / "model.json").trees) == 8
