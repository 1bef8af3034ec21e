import json
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.special import logsumexp

from lossgate.data import HASH_BUCKETS, pack
from lossgate.metapredictor import (
    NaiveBayesModel,
    PredictorLossWindow,
    _log_normalize,
    load_predictor,
    save_predictor,
)
from lossgate.threshold import ThresholdState, make_label


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


# -- incremental state -------------------------------------------------------------------


def test_incremental_state_matches_reload(tmp_path):
    # buckets from both ends of the hash space, so a new bucket lands before,
    # between and after the ones already seen
    pool = np.concatenate([np.arange(40), HASH_BUCKETS - 1 - np.arange(40)])
    rng = np.random.default_rng(5)
    model = NaiveBayesModel(smoothing_alpha=0.5)
    path = tmp_path / "predictor.json"
    for _ in range(60):
        rows = [rng.choice(pool, size=rng.integers(0, 6), replace=False) for _ in range(rng.integers(1, 5))]
        batch = pack(rows)
        op = rng.integers(0, 3)
        if op == 0 or not model.queryable:
            model.update(batch, int(rng.integers(0, 2)))
        elif op == 1:
            model.loss(batch, rng.integers(0, 2, size=len(batch)))
        else:
            model.predict_batch(batch)
        assert np.array_equal(model._vocab, np.flatnonzero(model._bucket_counts.sum(axis=0)))
        assert np.all(np.diff(model._vocab) > 0)
        if model.queryable:
            save_predictor(model, str(path))
            query = pack([rng.choice(pool, size=4, replace=False), [], [12345]])
            assert np.array_equal(
                model._batch_log_posteriors(query), load_predictor(str(path))._batch_log_posteriors(query)
            )


def test_log_normalize_matches_scipy_logsumexp_bitwise():
    rng = np.random.default_rng(6)
    joints = [np.array([[-3.5, -1.25]])]  # a single row
    for scale in (1.0, 50.0, 1e4):
        joint = rng.normal(-scale, scale, size=(500, 2))
        joint[:50, 1] = joint[:50, 0]  # tied columns
        gap = rng.uniform(700.0, 800.0, size=100)
        joint[50:100, 1] = joint[50:100, 0] - gap[:50]  # gaps above 700, either way round
        joint[100:150, 0] = joint[100:150, 1] - gap[50:]
        joints.append(joint)
    for joint in joints:
        assert np.array_equal(_log_normalize(joint), joint - logsumexp(joint, axis=1, keepdims=True))


# -- checkpoint --------------------------------------------------------------------------


def test_predictor_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    model, _, _, vocab = random_instance(rng, max_examples=15)
    path = tmp_path / "predictor.json"
    save_predictor(model, str(path))
    loaded = load_predictor(str(path))
    assert list(loaded.class_counts) == list(model.class_counts)
    assert loaded.posterior(vocab) == model.posterior(vocab)
    batch = pack([vocab, vocab[:1], [], [12345]])
    assert loaded.predict_batch(batch) == model.predict_batch(batch)
    assert np.array_equal(loaded._batch_log_posteriors(batch), model._batch_log_posteriors(batch))
    for m in (model, loaded):
        m.update(pack([vocab[:1], [77]]), 1)
    assert loaded.posterior(vocab + [77]) == model.posterior(vocab + [77])
    assert np.array_equal(loaded._batch_log_posteriors(batch), model._batch_log_posteriors(batch))


def _checkpoint(tmp_path, **changes):
    """Path of a small valid checkpoint with ``changes`` applied to its fields."""
    payload = {
        "alpha": 1.0,
        "dimension": 8,
        "class_counts": [3, 3],
        "token_counts": {"0": [[1, 2]], "1": [[1, 3], [7, 1]]},
    }
    payload.update(changes)
    path = tmp_path / "predictor.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_load_predictor_accepts_valid_checkpoint(tmp_path):
    model = load_predictor(_checkpoint(tmp_path))
    assert model.bucket_count(1, 7) == 1
    assert list(model._vocab) == [1, 7]


def test_load_predictor_rejects_negative_bucket(tmp_path):
    # negative indexing would otherwise write bucket -1 into the last bucket
    with pytest.raises(ValueError, match="bucket -1 outside"):
        load_predictor(_checkpoint(tmp_path, token_counts={"0": [], "1": [[-1, 1]]}))


def test_load_predictor_rejects_bucket_at_dimension(tmp_path):
    with pytest.raises(ValueError, match="bucket 8 outside"):
        load_predictor(_checkpoint(tmp_path, token_counts={"0": [[8, 1]], "1": []}))


def test_load_predictor_rejects_negative_count(tmp_path):
    with pytest.raises(ValueError, match="count -1"):
        load_predictor(_checkpoint(tmp_path, token_counts={"0": [[1, -1]], "1": []}))


def test_load_predictor_rejects_count_above_class_total(tmp_path):
    with pytest.raises(ValueError, match="count 9"):
        load_predictor(_checkpoint(tmp_path, token_counts={"0": [], "1": [[1, 9]]}))


@pytest.mark.parametrize("class_counts", [[3], [3, 3, 3], [3, -1], [3.0, 3], [True, 3], "33"])
def test_load_predictor_rejects_bad_class_counts(tmp_path, class_counts):
    with pytest.raises(ValueError, match="class_counts"):
        load_predictor(_checkpoint(tmp_path, class_counts=class_counts))


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), "1.0"])
def test_load_predictor_rejects_non_positive_alpha(tmp_path, alpha):
    with pytest.raises(ValueError, match="alpha"):
        load_predictor(_checkpoint(tmp_path, alpha=alpha))
    if not isinstance(alpha, str):  # a string is TrainerConfig.validate's type error
        with pytest.raises(ValueError, match="alpha"):
            NaiveBayesModel(smoothing_alpha=alpha)


@pytest.mark.parametrize("entry", [[1], [1, 1, 1], [1.0, 1], ["1", 1], [1, True]])
def test_load_predictor_rejects_malformed_entry(tmp_path, entry):
    with pytest.raises(ValueError, match="pair"):
        load_predictor(_checkpoint(tmp_path, token_counts={"0": [entry], "1": []}))


@pytest.mark.parametrize("dimension", [0, 8.0, True])
def test_load_predictor_rejects_bad_dimension(tmp_path, dimension):
    with pytest.raises(ValueError, match="dimension"):
        load_predictor(_checkpoint(tmp_path, dimension=dimension))
