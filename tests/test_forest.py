import contextlib
import dataclasses
import itertools
import json
import math
import signal

import numpy as np
import pytest
import conftest
from conftest import (MALFORMED_TREES, _best_split, brute_force_best_split,
                      reference_best_split, reference_features,
                      reference_predict_many, reference_train_forest, tree_doc,
                      write_model_doc)
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from magspy import forest
from magspy.experiments import (ExperimentConfig, _render_class_traces,
                                _training_features)
from magspy.forest import (_BATCH_ELEMENTS, FeatureVector, ForestConfig,
                           _featurize, _SplitSearch, cross_validate_grid, extract_features, load_model,
                           predict, predict_many, save_model, split_dataset,
                           train_forest)
from magspy.preprocess import augment_with_inverse
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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), bins=st.integers(1, 60))
    def test_matrix_featurizer_matches_per_trace_loop(self, data, bins):
        # Ragged lists: a few lengths, repeated in any order, with ties and
        # exact 0/1 values among the samples.
        lengths = data.draw(st.lists(st.integers(bins, bins + 300), min_size=1,
                                     max_size=3, unique=True))
        sizes = data.draw(st.lists(st.sampled_from(lengths), min_size=1, max_size=8))
        elements = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                             st.floats(0.0, 1.0))
        traces = [Trace1D(data.draw(hnp.arrays(np.float64, n, elements=elements)),
                          100.0, normalized=True) for n in sizes]
        inverses = [augment_with_inverse(t)[1] for t in traces]
        for views, x in ((traces, _featurize(traces, bins)),
                         (inverses, _featurize(traces, bins, inverse=True))):
            want = np.stack([reference_features(t.values, bins) for t in views])
            assert np.array_equal(x, want)
            assert np.array_equal(
                np.stack([extract_features(t, bins).values for t in views]), want)


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
        assert tree.feature.size == 3
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

    def test_model_is_one_node_table(self):
        # No per-tree objects, no second copy of the node arrays, no per-node
        # float table: counts and probabilities have one row per leaf.
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (40, 4))
        labels = ["A" if v[0] > 0 else ("B" if v[1] > 0 else "C") for v in x]
        model = train_forest(feature_dataset(list(zip(x, labels)), ("A", "B", "C")),
                             ForestConfig(n_estimators=6, seed=3))
        n = model.feature.size
        leaf = model.feature < 0
        assert set(vars(model)) == {f.name for f in dataclasses.fields(model)} | {"_walk"}
        assert model.sizes.sum() == n and len(model.trees) == 6
        assert model.counts.shape == (np.count_nonzero(leaf), 3)
        assert model.counts.dtype.kind == "i"
        arrays = [*(getattr(model, name) for name in ("sizes", "feature", "threshold",
                                                       "left", "right", "counts")),
                  *model._walk]
        assert all(isinstance(a, np.ndarray) for a in arrays)
        per_node = [a for a in arrays if a.shape[0] == n]
        assert len(per_node) == 5 and all(a.ndim == 1 for a in per_node)
        floats = [a.shape for a in arrays if a.dtype.kind == "f"]
        assert floats == [(n,), model.counts.shape]
        # The per-tree views: tree-local links, a counts row per node.
        counts = np.concatenate([tree.counts for tree in model.trees])
        assert np.array_equal(counts[leaf], model.counts) and not counts[~leaf].any()
        for tree in model.trees:
            internal = tree.feature >= 0
            assert np.array_equal(tree.left[internal], np.flatnonzero(internal) + 1)
            assert tree.right[internal].max(initial=0) < tree.feature.size

    def test_dimension_mismatch_rejected(self):
        data = feature_dataset([([0.0, 1.0], "A"), ([1.0, 0.0], "B")])
        model = train_forest(data, ForestConfig(n_estimators=2, seed=0))
        with pytest.raises(ValueError, match="dimension"):
            predict(model, FeatureVector([0.0]))


@st.composite
def split_nodes(draw, width=None):
    """A node's (n, k) feature block, class codes and class count.

    Values come from small integer grids or from normals rounded to 0-2
    decimals, so exact ties are common; some columns are made constant.
    ``width`` fixes k; by default it is drawn from 1-6.
    """
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 6)) if width is None else width
    n_classes = draw(st.integers(1, 20))
    if draw(st.booleans()):
        top = draw(st.integers(0, 5))
        x = draw(hnp.arrays(np.float64, (n, k),
                            elements=st.integers(0, top).map(float)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = np.round(rng.normal(0.0, 1.0, (n, k)), draw(st.integers(0, 2)))
    constant = draw(hnp.arrays(bool, k))
    x[:, constant] = x[0, constant]
    y = draw(hnp.arrays(np.intp, n, elements=st.integers(0, n_classes - 1)))
    return x, y, n_classes


def rendered_world(class_count, traces_per_class, seed):
    """Training rows (each trace and its inverse) of a rendered 6 s closed world."""
    cfg = ExperimentConfig(class_count=class_count, traces_per_class=traces_per_class,
                           duration_s=6.0, seed=seed)
    class_ids = [f"class-{i:03d}" for i in range(cfg.class_count)]
    traces, labels, _ = _render_class_traces(
        cfg, class_ids, cfg.traces_per_class, cfg.resolved_profiles(), "cw")
    return Dataset.from_pairs(_training_features(traces, labels, 50))


class TestSplitSearch:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(node=split_nodes(), data=st.data())
    def test_matches_brute_force_oracle_exactly(self, node, data):
        x, y, n_classes = node
        k = x.shape[1]
        cand = np.flatnonzero(data.draw(hnp.arrays(bool, k)))
        if cand.size == 0:
            cand = np.arange(k)
        hist = np.bincount(y, minlength=n_classes)
        block = x[:, cand]
        want = brute_force_best_split(block, y, n_classes)
        if want is not None:
            want = (int(cand[want[0]]), want[1], want[2])
        assert _best_split(block, y, hist, cand) == want
        assert reference_best_split(block, y, hist, cand) == want

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_segmented_search_matches_brute_force_per_node(self, data):
        # A batch of nodes whose rows lie shuffled in one shared matrix, each
        # with its own ascending candidate subset of the same size. Each row
        # stands for 1-3 copies of its sample, as a bootstrap draws them, and
        # the oracle scans the rows repeated that often; all-ones weights are
        # the search without a bootstrap.
        d = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, d))
        nodes = data.draw(st.lists(split_nodes(width=d), min_size=1, max_size=12))
        n_classes = max(c for _, _, c in nodes)
        sizes = np.array([y.size for _, y, _ in nodes])
        where = np.array(data.draw(st.permutations(range(sizes.sum()))))
        x = np.empty((sizes.sum(), d))
        y = np.empty(sizes.sum(), dtype=np.intp)
        x[where] = np.concatenate([block for block, _, _ in nodes])
        y[where] = np.concatenate([codes for _, codes, _ in nodes])
        cand = np.array([sorted(data.draw(st.lists(st.integers(0, d - 1), min_size=k,
                                                   max_size=k, unique=True)))
                         for _ in nodes])
        if data.draw(st.booleans()):
            copies = [np.ones(size, dtype=np.int64) for size in sizes]
        else:
            copies = [data.draw(hnp.arrays(np.int64, size, elements=st.integers(1, 3)))
                      for size in sizes.tolist()]
        weight = np.empty(sizes.sum(), dtype=np.int64)
        weight[where] = np.concatenate(copies)
        hist = np.array([np.bincount(codes, w, minlength=n_classes)
                         for (_, codes, _), w in zip(nodes, copies)], dtype=np.int64)
        found, feature, threshold, decrease = _SplitSearch(x, y, n_classes)(
            where, weight[where], sizes, cand, hist)
        got = [None] * len(nodes)
        for j, f, t, g in zip(found.tolist(), feature.tolist(), threshold.tolist(),
                              decrease.tolist()):
            got[j] = (f, t, g)
        for (block, codes, _), w, cols, result in zip(nodes, copies, cand, got):
            want = brute_force_best_split(np.repeat(block[:, cols], w, axis=0),
                                          np.repeat(codes, w), n_classes)
            if want is not None:
                want = (int(cols[want[0]]), want[1], want[2])
            assert result == want

    @pytest.fixture(scope="class")
    def closed_world(self):
        return rendered_world(5, 8, seed=3)

    @pytest.fixture(scope="class")
    def large_closed_world(self):
        data = rendered_world(6, 60, seed=5)
        assert len(data) * 50 > _BATCH_ELEMENTS  # the root alone exceeds a batch
        return data

    @pytest.fixture(scope="class")
    def unordered_world(self, closed_world):
        # Class codes out of string order, names that differ by trailing NULs
        # (equal as numpy strings), and every third row twice.
        names = dict(zip(closed_world.class_names, ("b", "a\0", "a", "c", "a\0\0")))
        items = closed_world.items + closed_world.items[::3]
        return Dataset.from_pairs([(fv, names[label]) for fv, label in items],
                                  tuple(names.values()))

    @pytest.mark.parametrize("config, world", [
        (ForestConfig(n_estimators=10, seed=1), "closed_world"),
        (ForestConfig(n_estimators=10, max_features="sqrt", max_depth=10,
                      min_impurity_decrease=0.0, seed=2), "closed_world"),
        (ForestConfig(n_estimators=2, max_features="all", bootstrap=False, seed=3),
         "closed_world"),
        (ForestConfig(n_estimators=1, seed=6), "closed_world"),
        (ForestConfig(n_estimators=2, max_features="all", seed=4),
         "large_closed_world"),
        (ForestConfig(n_estimators=6, max_features="sqrt", seed=7), "unordered_world"),
    ], ids=["log2-bootstrap", "sqrt-depth10-no-min-decrease", "all-no-bootstrap",
            "one-tree", "root-above-batch-budget", "unordered-repeated-rows"])
    def test_model_bytes_match_per_feature_reference(self, tmp_path, monkeypatch,
                                                     request, config, world):
        # The whole-forest grower against the tree-by-tree grower, run with
        # its per-node vectorized search and with the per-feature scan.
        data = request.getfixturevalue(world)
        save_model(train_forest(data, config), tmp_path / "forest.json")
        save_model(reference_train_forest(data, config), tmp_path / "per-tree.json")
        calls = []

        def reference(*args):
            calls.append(1)
            return reference_best_split(*args)

        monkeypatch.setattr(conftest, "_best_split", reference)
        save_model(reference_train_forest(data, config), tmp_path / "per-feature.json")
        assert calls
        assert ((tmp_path / "forest.json").read_bytes()
                == (tmp_path / "per-tree.json").read_bytes()
                == (tmp_path / "per-feature.json").read_bytes())


def generator_words(rng, count):
    """The next 32-bit draws of ``rng``, read from a copy of its state: the
    half it holds buffered, if any, then each raw word's low and high half."""
    state = rng.bit_generator.state
    copy = np.random.PCG64()
    copy.state = state
    raw = copy.random_raw(count).tolist()
    words = [state["uinteger"]] if state["has_uint32"] else []
    for word in raw:
        words += [word & 0xFFFFFFFF, word >> 32]
    return words


class TestCandidateDraws:
    """Block-drawn candidate sets against ``Generator.choice`` and the
    scalar replica. ``choice``'s tail shuffle (d > 10000 and k > d // 50)
    is reached by neither the "log2" nor the "sqrt" rule, so only its
    Floyd branch is replicated."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40),
           d=st.integers(2, 10_000), rule=st.sampled_from(["log2", "sqrt"]),
           steps=st.integers(1, 2 * forest._DRAW_BLOCK + 10),
           pattern=st.integers(0, 2**32 - 1))
    def test_block_draws_match_generator_choice(self, seed, n, d, rule, steps, pattern):
        # Three trees, each after its bootstrap draw of n rows (an odd n
        # leaves a half word buffered), ask for sets in an interleaved
        # pattern, as growth steps do, across draw blocks.
        k = forest._subset_size(rule, d)
        assume(k < d)
        streams = np.random.SeedSequence(seed).spawn(3)
        want, mine = ([np.random.default_rng(s) for s in streams] for _ in range(2))
        for rng in want + mine:
            rng.integers(0, n, size=n)
        words = generator_words(want[0], 2 * steps * k)
        draws = forest._CandidateDraws(mine, d, k)
        asks = np.random.default_rng(pattern).random((steps, 3)) < 0.7
        for trees in map(np.flatnonzero, asks):
            if trees.size:
                got = draws(trees)
                for t, row in zip(trees.tolist(), got.tolist()):
                    assert row == sorted(want[t].choice(d, k, replace=False).tolist())
        # The replica reads the same words as tree 0's choice calls.
        first = np.random.default_rng(streams[0])
        first.integers(0, n, size=n)
        calls = int(asks[:, 0].sum())
        sets, _ = conftest.reference_choice_sets(words, d, k, calls)
        assert sets == [sorted(first.choice(d, k, replace=False).tolist())
                        for _ in range(calls)]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), d=st.integers(2, 300),
           rule=st.sampled_from(["log2", "sqrt"]), calls=st.integers(0, 8),
           zeros=st.lists(st.integers(0, 2**16), max_size=8),
           margin=st.integers(-4, 4))
    def test_rejected_words_match_scalar_replica(self, seed, d, rule, calls, zeros,
                                                 margin):
        # Real seeds almost never reject a word, so the stream is crafted:
        # u = 0 is rejected under every bound that is not a power of two,
        # and the first bound, d - k + 1, is not one.
        k = forest._subset_size(rule, d)
        assume(k < d and (d - k + 1) & (d - k))
        period = 2 * k - 1
        size = max(1, calls * period + len(zeros) + margin)
        words = np.random.default_rng(seed).integers(0, 2**32, size, dtype=np.uint64)
        words[0] = 0
        for at in zeros:
            words = np.insert(words, at % (words.size + 1), 0)
        want, used = conftest.reference_choice_sets(words.tolist(), d, k, calls)
        got, got_used = forest._choice_sets(words, d, k, calls)
        assert got.tolist() == want
        assert got_used == used
        assert not want or used > len(want) * period  # a word was rejected


# Hand-written one-feature trees for the walk. In "left-child-not-next" the
# root's left child is node 2 and node 1's is node 4: no child is its
# parent's next node.
HAND_TREES = {
    "single-leaf": tree_doc([-1], [None], [-1], [-1], [[2, 1]]),
    "left-child-not-next": tree_doc([0, 0, -1, -1, -1], [0.5, 0.7, None, None, None],
                                    [2, 4, -1, -1, -1], [1, 3, -1, -1, -1],
                                    [None, None, [1, 0], [0, 1], [1, 1]]),
}

_LOG2 = ForestConfig(n_estimators=10, seed=1)


def assert_same_prediction(model, x):
    codes, probs = predict_many(model, x)
    want_codes, want_probs = reference_predict_many(model, x)
    assert np.array_equal(codes, want_codes)
    assert probs.tobytes() == want_probs.tobytes()


class TestPredictMany:
    """The forest-wide walk against the tree-by-tree walk it replaced."""

    @pytest.fixture(scope="class")
    def closed_world(self):
        return rendered_world(5, 8, seed=3)

    @pytest.mark.parametrize("model, rows, block", [
        (_LOG2, [100], None),
        (ForestConfig(n_estimators=10, max_features="sqrt", max_depth=10,
                      min_impurity_decrease=0.0, seed=2), [100], None),
        (ForestConfig(n_estimators=2, max_features="all", bootstrap=False, seed=3),
         [100], None),
        (ForestConfig(n_estimators=1, seed=6), [100], None),
        (ForestConfig(n_estimators=10, max_depth=2, seed=5), [100], None),
        ("single-leaf", [20], None),
        ("left-child-not-next", [20], None),
        (_LOG2, [1], None),
        (_LOG2, [1, 2, 3], 1),
        (_LOG2, [1, 2, 3, 4, 5], 2),
        (_LOG2, [2, 3, 4, 6, 7], 3),
    ], ids=["log2-bootstrap", "sqrt-depth10-no-min-decrease", "all-no-bootstrap",
            "one-tree", "depth2-mixed-leaves", "single-leaf", "left-child-not-next",
            "single-row", "blocks-of-1-row", "blocks-of-2-rows", "blocks-of-3-rows"])
    def test_matches_tree_by_tree_walk(self, tmp_path, monkeypatch, closed_world,
                                       model, rows, block):
        rng = np.random.default_rng(4)
        if isinstance(model, str):
            model = load_model(write_model_doc(tmp_path / "model.json",
                                               HAND_TREES[model]))
            # Uniform values and both thresholds exactly, for the <= side.
            x = np.concatenate([[0.5, 0.7], rng.uniform(0, 1, max(rows))])[:, None]
        else:
            model = train_forest(closed_world, model)
            x = np.stack([fv.values for fv, _ in closed_world.items])
            x = np.concatenate([x, rng.uniform(0, 1, x.shape)])
            # Put some rows exactly on their first tree's root threshold.
            root = model.trees[0]
            if root.feature[0] >= 0:
                x[::3, root.feature[0]] = root.threshold[0]
        if block is not None:
            n_trees = len(model.trees)
            monkeypatch.setattr(forest, "_BATCH_ELEMENTS",
                                block * n_trees + n_trees - 1)
        for n in rows:
            assert_same_prediction(model, x[:n])


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

    def test_means_match_train_forest_on_each_fold(self):
        # Class codes out of string order; each fold fitted on a Dataset of
        # its training items and scored item by item.
        data = feature_dataset([(fv.values, label) for fv, label in
                                self.xor_dataset(per_corner=5).items], ("B", "A"))
        grid = [ForestConfig(n_estimators=3, seed=1),
                ForestConfig(n_estimators=4, max_features="all", max_depth=2, seed=2)]
        _, means = cross_validate_grid(data, grid, folds=3, seed=5)
        fold_of = np.empty(len(data), dtype=int)
        for perm in forest._stratify(data.labels, data.class_names, 3, 5):
            fold_of[perm] = np.arange(len(perm)) % 3
        want = []
        for config in grid:
            accs = []
            for fold in range(3):
                fit = tuple(item for item, f in zip(data.items, fold_of) if f != fold)
                model = train_forest(Dataset(fit, data.class_names), config)
                accs.append(np.mean([predict(model, fv)[0] == label for fv, label
                                     in itertools.compress(data.items, fold_of == fold)]))
            want.append(float(np.mean(accs)))
        assert means == tuple(want)

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


@st.composite
def model_documents(draw):
    """A small ``magspy-forest`` document of random trees, often broken.

    Each tree is drawn valid: random splits, children numbered in either
    order after their parent, finite thresholds and non-negative counts.
    Then up to three random edits set a child link, feature, threshold or
    counts row of some node to any value: a link may point back, to itself,
    to a shared or missing node, a threshold may be missing or non-finite
    and a counts row missing, negative or of the wrong width. One kind of
    edit in six puts a value of the wrong JSON type instead: a bool or a
    float where an integer belongs, or a bool threshold.
    """
    n_classes = draw(st.integers(1, 3))
    n_features = draw(st.integers(1, 3))
    counts_row = st.lists(st.integers(0, 3), min_size=n_classes,
                          max_size=n_classes).map(lambda row: [row[0] or 1, *row[1:]])
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        tree = tree_doc([], [], [], [], [])
        pending = [(None, None, 0)]  # (parent, link, depth), popped in node order
        while pending:
            parent, link, depth = pending.pop()
            node = len(tree["feature"])
            if parent is not None:
                tree[link][parent] = node
            split = depth < 3 and draw(st.booleans())
            tree["feature"].append(draw(st.integers(0, n_features - 1)) if split else -1)
            tree["threshold"].append(draw(st.floats(-2.0, 2.0)) if split else None)
            tree["left"].append(-1)
            tree["right"].append(-1)
            tree["counts"].append(None if split else draw(counts_row))
            if split:
                links = ["left", "right"]
                if draw(st.booleans()):
                    links.reverse()  # the right child gets the next node
                pending += [(node, link, depth + 1) for link in reversed(links)]
        trees.append(tree)
    not_integer = st.one_of(st.booleans(), st.floats(-2.0, 4.0))
    for _ in range(draw(st.integers(0, 3))):
        tree = draw(st.sampled_from(trees))
        n = len(tree["feature"])
        node = draw(st.integers(0, n - 1))
        key, values = draw(st.sampled_from([
            (None, None),
            ("left", st.integers(-1, n)),
            ("right", st.integers(-1, n)),
            ("feature", st.integers(-2, n_features)),
            ("threshold", st.one_of(st.none(), st.floats(-2.0, 2.0),
                                    st.sampled_from([math.nan, math.inf]))),
            ("counts", st.one_of(st.none(), st.lists(st.integers(-1, 3),
                                                     min_size=n_classes - 1,
                                                     max_size=n_classes + 1))),
        ]))
        if key is None:
            key, values = draw(st.sampled_from([
                ("left", not_integer),
                ("right", not_integer),
                ("feature", not_integer),
                ("threshold", st.booleans()),
                ("counts", st.lists(st.one_of(st.integers(0, 3), not_integer),
                                    min_size=n_classes, max_size=n_classes)),
            ]))
        tree[key][node] = draw(values)
    return {"format": "magspy-forest", "config": {"n_estimators": len(trees)},
            "class_names": [f"c{i}" for i in range(n_classes)],
            "n_features": n_features, "trees": trees}


def mistyped(doc):
    """Whether an entry the loader reads has the wrong JSON type: an integer
    array entry that is not an int, a bool threshold, or a leaf counts entry
    that is not an int."""
    for tree in doc["trees"]:
        if any(type(v) is not int for key in ("feature", "left", "right")
               for v in tree[key]):
            return True
        if any(type(v) is bool for v in tree["threshold"]):
            return True
        if any(f < 0 and type(row) is list and any(type(c) is not int for c in row)
               for f, row in zip(tree["feature"], tree["counts"])):
            return True
    return False


@contextlib.contextmanager
def time_budget(seconds):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestModelValidation:
    @pytest.mark.parametrize("name", sorted(MALFORMED_TREES))
    def test_malformed_tree_rejected(self, tmp_path, name):
        path = write_model_doc(tmp_path / "model.json", MALFORMED_TREES[name])
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("link", [2, -1], ids=["into-next-tree", "negative"])
    def test_link_outside_its_tree_rejected(self, tmp_path, link):
        # Tree-local links become table indices on load; no link may leave
        # its tree, whichever way it points.
        # The stump's right link points past its end, at the next tree's
        # root, or is -1 in the second tree, one node after the first.
        stump = tree_doc([0, -1], [0.5, None], [1, -1], [link, -1], [None, [1, 0]])
        leaf = tree_doc([-1], [None], [-1], [-1], [[0, 1]])
        doc = json.loads(write_model_doc(tmp_path / "model.json", stump).read_text())
        doc["trees"] = [stump, leaf] if link == 2 else [leaf, stump]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing child"):
            load_model(tmp_path / "model.json")

    @pytest.mark.parametrize("field", ["config", "class_names", "n_features", "trees"])
    def test_missing_field_rejected(self, tmp_path, field):
        path = write_model_doc(tmp_path / "model.json",
                               tree_doc([-1], [None], [-1], [-1], [[1, 0]]))
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field.replace("config", "forest config")):
            load_model(path)

    def test_well_formed_document_loads(self, tmp_path):
        tree = tree_doc([0, -1, -1], [0.5, None, None], [1, -1, -1],
                         [2, -1, -1], [None, [1, 0], [0, 1]])
        model = load_model(write_model_doc(tmp_path / "model.json", tree))
        codes, _ = predict_many(model, [[0.0], [1.0]])
        assert codes.tolist() == [0, 1]

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(doc=model_documents(), data=st.data())
    def test_random_document_is_rejected_or_walks_like_the_reference(
            self, tmp_path, doc, data):
        # The forest-wide walk ends only because load_model rejects every
        # node table that is not a forest: fuzz the loader with small random
        # tables, links, thresholds and counts. The reference walks the
        # loaded arrays too, so a mistyped entry must be rejected outright.
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        if mistyped(doc):
            with pytest.raises(ValueError):
                load_model(path)
            return
        try:
            model = load_model(path)
        except ValueError:
            return
        values = [t for tree in doc["trees"] for t in tree["threshold"]
                  if t is not None and np.isfinite(t)]
        element = st.floats(-2.0, 2.0)
        if values:
            element = st.one_of(element, st.sampled_from(values))
        x = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6)),
                                              model.n_features), elements=element))
        with time_budget(5.0):
            assert_same_prediction(model, x)

    def test_trained_forest_passes_validation(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (40, 4))
        labels = ["A" if v[0] > 0 else "B" for v in x]
        model = train_forest(feature_dataset(list(zip(x, labels))),
                             ForestConfig(n_estimators=8, seed=2))
        save_model(model, tmp_path / "model.json")
        assert len(load_model(tmp_path / "model.json").trees) == 8
