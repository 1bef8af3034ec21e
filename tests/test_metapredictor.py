import math
from itertools import combinations

import numpy as np
import pytest

from lossgate.data import pack
from lossgate.metapredictor import (
    NaiveBayesModel,
    PredictorLossWindow,
    load_predictor,
    make_label,
    save_predictor,
)
from lossgate.threshold import ThresholdState


def bow(*buckets):
    """One example's buckets."""
    return list(buckets)


def oracle_posterior(class_counts, bucket_counts, alpha, query):
    """Plain-arithmetic smoothed Bernoulli Bayes over the observed vocabulary.

    Kept deliberately free of logs and vectorization so it shares nothing
    with the implementation under test.
    """
    vocab = sorted({b for c in (0, 1) for b in bucket_counts[c]})
    total = class_counts[0] + class_counts[1]
    joint = []
    for c in (0, 1):
        prior = (class_counts[c] + alpha) / (total + 2 * alpha)
        likelihood = 1.0
        for b in vocab:
            theta = (bucket_counts[c].get(b, 0) + alpha) / (class_counts[c] + 2 * alpha)
            likelihood *= theta if b in query else (1.0 - theta)
        joint.append(prior * likelihood)
    return joint[1] / (joint[0] + joint[1])


def random_instance(rng, max_vocab=4, max_examples=20):
    """A random tiny training set, returned as (model, recount dicts)."""
    vocab = [int(b) for b in rng.choice(100, size=rng.integers(1, max_vocab + 1), replace=False)]
    model = NaiveBayesModel(smoothing_alpha=float(rng.choice([0.5, 1.0, 2.0])))
    class_counts = [0, 0]
    bucket_counts = [{}, {}]
    for _ in range(int(rng.integers(1, max_examples + 1))):
        label = int(rng.integers(0, 2))
        present = frozenset(b for b in vocab if rng.random() < 0.5)
        model.update(pack([present]), label)
        class_counts[label] += 1
        for b in present:
            bucket_counts[label][b] = bucket_counts[label].get(b, 0) + 1
    return model, class_counts, bucket_counts, vocab


# -- make_label ---------------------------------------------------------------


def test_make_label_comparisons():
    assert make_label(0.9, 0.4) == 1
    assert make_label(0.1, 0.4) == 0
    assert make_label(0.4, 0.4) == 1  # boundary is train-worthy


def test_make_label_complements_skip_decision():
    state = ThresholdState(2)
    state.observe(0.4)
    state.observe(0.4)
    for loss in (0.0, 0.1, 0.39999, 0.4, 0.40001, 1.0):
        assert (make_label(loss, state.skip_boundary) == 0) == state.should_skip_backward(loss)


# -- update ---------------------------------------------------------------------


def test_update_empty_feature_list_is_noop():
    model = NaiveBayesModel()
    model.update(pack([]), 1)
    assert model.total_examples == 0


def test_update_counts_one_example():
    model = NaiveBayesModel()
    model.update(pack([bow(3, 7)]), 1)
    assert list(model.class_counts) == [0, 1]
    assert model.bucket_count(1, 3) == 1
    assert model.bucket_count(1, 7) == 1
    assert model.bucket_count(0, 3) == 0


def test_update_order_does_not_matter():
    batches = [(pack([bow(1, 2), bow(2)]), 1), (pack([bow(3)]), 0), (pack([bow(1)]), 1)]
    a = NaiveBayesModel()
    for feats, label in batches:
        a.update(feats, label)
    b = NaiveBayesModel()
    for feats, label in reversed(batches):
        b.update(feats, label)
    assert list(a.class_counts) == list(b.class_counts)
    assert np.array_equal(a._bucket_counts, b._bucket_counts)


def test_counts_never_decrease():
    rng = np.random.default_rng(0)
    model = NaiveBayesModel()
    prev_class = model.class_counts.copy()
    prev_buckets = model._bucket_counts[:, :100].copy()
    for _ in range(30):
        feats = pack([rng.choice(100, size=3, replace=False)])
        model.update(feats, int(rng.integers(0, 2)))
        assert np.all(model.class_counts >= prev_class)
        assert np.all(model._bucket_counts[:, :100] >= prev_buckets)
        prev_class = model.class_counts.copy()
        prev_buckets = model._bucket_counts[:, :100].copy()


def test_bucket_count_never_exceeds_class_count():
    rng = np.random.default_rng(1)
    model = NaiveBayesModel()
    for _ in range(40):
        feats = pack([rng.choice(20, size=rng.integers(1, 5), replace=False)])
        model.update(feats, int(rng.integers(0, 2)))
    for c in (0, 1):
        assert model._bucket_counts[c, :20].max(initial=0) <= model.class_counts[c]


# -- posterior ---------------------------------------------------------------------


def test_posterior_symmetric_model_is_half():
    model = NaiveBayesModel()
    model.update(pack([bow(5)]), 0)
    model.update(pack([bow(5)]), 1)
    assert model.posterior(bow(5)) == 0.5


def test_posterior_single_bucket_hand_case():
    # counts (1, 1); bucket seen once under class 1 only; alpha = 1
    model = NaiveBayesModel(smoothing_alpha=1.0)
    model.update(pack([bow()]), 0)
    model.update(pack([bow(9)]), 1)
    expected = oracle_posterior([1, 1], [{}, {9: 1}], 1.0, {9})
    assert expected == pytest.approx(2 / 3, abs=1e-12)
    assert model.posterior(bow(9)) == pytest.approx(expected, abs=1e-10)


def test_posterior_all_subsets_match_exhaustive_joint():
    model = NaiveBayesModel(smoothing_alpha=1.0)
    training = [
        (pack([bow(1, 2)]), 1), (pack([bow(2, 3)]), 1), (pack([bow(3)]), 0), (pack([bow(1, 3)]), 0), (pack([bow(2)]), 1)
    ]
    class_counts = [0, 0]
    bucket_counts = [{}, {}]
    for feats, label in training:
        model.update(feats, label)
        class_counts[label] += len(feats)
        for b in feats.indices.tolist():
            bucket_counts[label][b] = bucket_counts[label].get(b, 0) + 1

    # full joint over every (class, outcome) cell, then normalize one slice
    vocab = [1, 2, 3]
    alpha = 1.0
    joint = {}
    for c in (0, 1):
        prior = (class_counts[c] + alpha) / (sum(class_counts) + 2 * alpha)
        for r in range(4):
            for outcome in combinations(vocab, r):
                p = prior
                for b in vocab:
                    theta = (bucket_counts[c].get(b, 0) + alpha) / (class_counts[c] + 2 * alpha)
                    p *= theta if b in outcome else (1.0 - theta)
                joint[(c, outcome)] = p
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)

    for r in range(4):
        for outcome in combinations(vocab, r):
            expected = joint[(1, outcome)] / (joint[(0, outcome)] + joint[(1, outcome)])
            assert model.posterior(bow(*outcome)) == pytest.approx(expected, abs=1e-10)


def test_posterior_matches_oracle_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(40):
        model, class_counts, bucket_counts, vocab = random_instance(rng)
        for _ in range(3):
            query = {b for b in vocab if rng.random() < 0.5}
            if rng.random() < 0.3:
                query.add(12345)  # never observed: must cancel out
            expected = oracle_posterior(class_counts, bucket_counts, model.smoothing_alpha, query)
            assert model.posterior(query) == pytest.approx(expected, abs=1e-10)


def test_posterior_strictly_inside_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(30):
        model, _, _, vocab = random_instance(rng, max_examples=6)
        p = model.posterior(vocab)
        assert 0.0 < p < 1.0


def test_posterior_defined_for_single_class_model():
    model = NaiveBayesModel()
    model.update(pack([bow(4)]), 1)
    assert 0.0 < model.posterior(bow(4)) < 1.0


def test_posterior_empty_model_raises():
    with pytest.raises(ValueError, match="untrained"):
        NaiveBayesModel().posterior(bow(1))


# -- batch prediction ----------------------------------------------------------------


def _biased_model(toward: int) -> NaiveBayesModel:
    model = NaiveBayesModel()
    for _ in range(20):
        model.update(pack([bow(1)]), toward)
    model.update(pack([bow(2)]), 1 - toward)
    return model


def test_predict_batch_high_posteriors_say_train():
    model = _biased_model(toward=1)
    decision, mean_p1 = model.predict_batch(pack([bow(1), bow(1)]))
    assert decision == 1
    assert mean_p1 > 0.5


def test_predict_batch_low_posteriors_say_skip():
    model = _biased_model(toward=0)
    decision, mean_p1 = model.predict_batch(pack([bow(1), bow(1)]))
    assert decision == 0
    assert mean_p1 < 0.5


def test_predict_batch_boundary_goes_to_train():
    model = NaiveBayesModel()
    model.update(pack([bow(5)]), 0)
    model.update(pack([bow(5)]), 1)
    decision, mean_p1 = model.predict_batch(pack([bow(5)]))
    assert mean_p1 == 0.5
    assert decision == 1


def test_predict_batch_fails_open_without_both_classes():
    model = NaiveBayesModel()
    model.update(pack([bow(1)]), 1)
    assert model.predict_batch(pack([bow(1)])) == (1, None)
    assert NaiveBayesModel().predict_batch(pack([bow(1)])) == (1, None)


def test_predict_batch_vote_policy():
    model = _biased_model(toward=1)
    decision, _ = model.predict_batch(pack([bow(1), bow(1), bow(2)]), policy="vote")
    assert decision == 1
    with pytest.raises(ValueError):
        model.predict_batch(pack([bow(1)]), policy="median")


def test_zero_bucket_example_last_in_batch():
    # an example with no buckets at the end of a batch gets its own row,
    # exactly as when it is queried alone
    model = NaiveBayesModel()
    model.update(pack([bow(1, 2), bow(2)]), 1)
    model.update(pack([bow(3), bow(1, 3)]), 0)
    rows = [bow(1, 2), bow(3), bow()]
    batch = pack(rows)
    p1 = np.array([model.posterior(r) for r in rows])
    labels = [1, 0, 1]
    expected = -np.mean(np.log([p1[0], 1.0 - p1[1], p1[2]]))
    assert model.loss(batch, labels) == pytest.approx(expected, abs=1e-12)
    decision, mean_p1 = model.predict_batch(batch)
    assert mean_p1 == pytest.approx(p1.mean(), abs=1e-12)
    assert decision == int(p1.mean() >= 0.5)
    vote, _ = model.predict_batch(batch, policy="vote")
    assert vote == int(2 * (p1 >= 0.5).sum() >= 3)


# -- predictor loss -------------------------------------------------------------------


def test_loss_uniform_predictor_is_ln2():
    model = NaiveBayesModel()
    model.update(pack([bow(5)]), 0)
    model.update(pack([bow(5)]), 1)
    assert model.loss(pack([bow(5), bow(5)]), [1, 0]) == pytest.approx(math.log(2), abs=1e-12)


def test_loss_matches_negative_log_oracle():
    model = NaiveBayesModel(smoothing_alpha=1.0)
    model.update(pack([bow()]), 0)
    model.update(pack([bow(9)]), 1)
    p1 = oracle_posterior([1, 1], [{}, {9: 1}], 1.0, {9})
    assert model.loss(pack([bow(9)]), [1]) == pytest.approx(-math.log(p1), abs=1e-10)
    assert model.loss(pack([bow(9)]), [0]) == pytest.approx(-math.log(1 - p1), abs=1e-10)


def test_loss_small_when_predictor_is_confident_and_right():
    model = _biased_model(toward=1)
    assert model.loss(pack([bow(1)]), [1]) < 0.2


def test_loss_length_mismatch():
    model = _biased_model(toward=1)
    with pytest.raises(ValueError, match="length"):
        model.loss(pack([bow(1)]), [1, 0])


# -- window ----------------------------------------------------------------------------


def test_window_mean_only_when_full():
    window = PredictorLossWindow(3)
    window.push(0.3)
    window.push(0.6)
    assert window.mean() is None
    window.push(0.9)
    assert window.mean() == pytest.approx(0.6, abs=1e-15)


def test_window_slides():
    window = PredictorLossWindow(2)
    for v in (1.0, 2.0, 3.0):
        window.push(v)
    assert window.mean() == pytest.approx(2.5, abs=1e-15)


def test_window_size_validation():
    with pytest.raises(ValueError):
        PredictorLossWindow(0)


# -- checkpoint --------------------------------------------------------------------------


def test_predictor_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    model, _, _, vocab = random_instance(rng, max_examples=15)
    path = tmp_path / "predictor.json"
    save_predictor(model, str(path))
    loaded = load_predictor(str(path))
    assert list(loaded.class_counts) == list(model.class_counts)
    assert loaded.posterior(vocab) == model.posterior(vocab)
