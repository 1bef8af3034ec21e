import math
from itertools import combinations

import numpy as np
import pytest

from lossgate.data import HASH_BUCKETS, pack
from lossgate.metapredictor import _LOG_TABLE_SIZE, NaiveBayesModel
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


def log_posteriors_of(model, batch):
    """(n, 2) array of log P(class | x), one row per example of ``batch``."""
    return -np.stack([model._neg_log_posteriors(batch, 0), model._neg_log_posteriors(batch, 1)], axis=1)


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
        assert (make_label(loss, state.skip_boundary) == 0) == (loss < state.skip_boundary)


# -- update ---------------------------------------------------------------------


def test_update_empty_feature_list_is_noop():
    model = NaiveBayesModel()
    model.update(pack([]), 1)
    assert model.class_counts == [0, 0]


def test_update_counts_one_example():
    model = NaiveBayesModel()
    model.update(pack([bow(3, 7)]), 1)
    assert model.class_counts == [0, 1]
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
    assert a.class_counts == b.class_counts
    assert np.array_equal(a._bucket_counts, b._bucket_counts)


LABEL_REFUSAL = r"^label (must be an integer, got .+|out of range: -?\d+)$"


@pytest.mark.parametrize("label", [True, False, np.True_, 1.0, 0.0, np.float64(1.0), 2, -1, "1", None])
def test_update_rejects_a_non_integer_label_before_counting(label):
    model = NaiveBayesModel()
    model.update(pack([bow(3, 7), bow(7)]), 0)
    before = (list(model.class_counts), model._bucket_counts.copy(), model._hist.copy(), list(model._top))
    # data.checked_label's refusal, which load_dataset gives after the line number
    with pytest.raises(ValueError, match=LABEL_REFUSAL):
        model.update(pack([bow(3, 9), bow(9)]), label)
    assert model.class_counts == before[0]
    assert np.array_equal(model._bucket_counts, before[1])
    assert np.array_equal(model._hist, before[2])
    assert model._top == before[3]


@pytest.mark.parametrize("label", [np.int64(0), np.int64(1), np.int8(1), np.uint8(0)])
def test_update_accepts_a_numpy_integer_label(label):
    model = NaiveBayesModel()
    model.update(pack([bow(3, 7)]), label)
    assert model.class_counts[int(label)] == 1
    assert model.bucket_count(int(label), 3) == 1
    assert model.bucket_count(1 - int(label), 3) == 0


def test_counts_never_decrease():
    rng = np.random.default_rng(0)
    model = NaiveBayesModel()
    prev_class = list(model.class_counts)
    prev_buckets = model._bucket_counts[:, :100].copy()
    for _ in range(30):
        feats = pack([rng.choice(100, size=3, replace=False)])
        model.update(feats, int(rng.integers(0, 2)))
        # element by element: ``list >= list`` compares lexicographically
        assert all(now >= prev for now, prev in zip(model.class_counts, prev_class))
        assert np.all(model._bucket_counts[:, :100] >= prev_buckets)
        prev_class = list(model.class_counts)
        prev_buckets = model._bucket_counts[:, :100].copy()


def test_bucket_count_never_exceeds_class_count():
    rng = np.random.default_rng(1)
    model = NaiveBayesModel()
    for _ in range(40):
        feats = pack([rng.choice(20, size=rng.integers(1, 5), replace=False)])
        model.update(feats, int(rng.integers(0, 2)))
    for c in (0, 1):
        assert max(model.bucket_count(c, b) for b in range(20)) <= model.class_counts[c]


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


def test_posterior_reads_the_last_bucket_of_the_hash_space():
    last = HASH_BUCKETS - 1
    model = NaiveBayesModel(smoothing_alpha=1.0)
    model.update(pack([bow()]), 0)
    model.update(pack([bow(last)]), 1)
    expected = oracle_posterior([1, 1], [{}, {last: 1}], 1.0, {last})
    assert model.posterior(bow(last)) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("bucket", [-1, HASH_BUCKETS])
def test_posterior_rejects_a_bucket_outside_the_hash_space(bucket):
    model = NaiveBayesModel()
    model.update(pack([bow(3)]), 1)
    with pytest.raises(ValueError, match="out of range"):
        model.posterior(bow(3, bucket))


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


@pytest.mark.parametrize("trained", [0, 1, 2], ids=["untrained", "one-class", "both-classes"])
def test_predict_batch_empty_batch_raises_in_every_state(trained):
    # an empty batch is refused whether or not the predictor would fail open
    model = NaiveBayesModel()
    for label in range(trained):
        model.update(pack([bow(1)]), label)
    with pytest.raises(ValueError, match="empty batch"):
        model.predict_batch(pack([]))


def test_zero_bucket_example_last_in_batch():
    # an example with no buckets at the end of a batch gets its own row,
    # exactly as when it is queried alone
    model = NaiveBayesModel()
    model.update(pack([bow(1, 2), bow(2)]), 1)
    model.update(pack([bow(3), bow(1, 3)]), 0)
    rows = [bow(1, 2), bow(3), bow()]
    batch = pack(rows)
    p1 = np.array([model.posterior(r) for r in rows])
    assert model.loss(batch, 1) == pytest.approx(-np.mean(np.log(p1)), abs=1e-12)
    assert model.loss(batch, 0) == pytest.approx(-np.mean(np.log(1.0 - p1)), abs=1e-12)
    decision, mean_p1 = model.predict_batch(batch)
    assert mean_p1 == float(np.add.reduce(p1)) / len(rows)
    assert decision == int(p1.mean() >= 0.5)


def test_screen_matches_posterior_bit_for_bit():
    # the screen's decision and mean follow from the per-example
    # ``posterior`` exactly, on states that have seen both classes and on
    # batches that hold an empty row and a bucket no update has counted
    rng = np.random.default_rng(13)
    states = 0
    while states < 50:
        model, _, _, vocab = random_instance(rng)
        if not model.has_both_classes:
            continue
        states += 1
        rows = [[b for b in vocab if rng.random() < 0.5] for _ in range(int(rng.integers(0, 6)))]
        rows += [bow(), bow(12345, *vocab[:1])]
        batch = pack(rows)
        p1 = np.array([model.posterior(r) for r in rows])
        mean_p1 = float(np.add.reduce(p1)) / len(rows)
        assert model.predict_batch(batch) == (int(mean_p1 >= 0.5), mean_p1)


# -- predictor loss -------------------------------------------------------------------


def test_loss_uniform_predictor_is_ln2():
    model = NaiveBayesModel()
    model.update(pack([bow(5)]), 0)
    model.update(pack([bow(5)]), 1)
    for label in (0, 1):
        assert model.loss(pack([bow(5), bow(5)]), label) == pytest.approx(math.log(2), abs=1e-12)


def test_loss_matches_negative_log_oracle():
    model = NaiveBayesModel(smoothing_alpha=1.0)
    model.update(pack([bow()]), 0)
    model.update(pack([bow(9)]), 1)
    p1 = oracle_posterior([1, 1], [{}, {9: 1}], 1.0, {9})
    assert model.loss(pack([bow(9)]), 1) == pytest.approx(-math.log(p1), abs=1e-10)
    assert model.loss(pack([bow(9)]), 0) == pytest.approx(-math.log(1 - p1), abs=1e-10)


def test_loss_small_when_predictor_is_confident_and_right():
    model = _biased_model(toward=1)
    assert model.loss(pack([bow(1)]), 1) < 0.2


def test_loss_length_mismatch():
    # a batch has one label: a list of per-example labels is refused
    model = _biased_model(toward=1)
    with pytest.raises(ValueError, match="label"):
        model.loss(pack([bow(1)]), [1, 0])


@pytest.mark.parametrize(
    "label", [True, False, np.True_, 1.0, 0.0, np.float64(1.0), 2, -1, "1", None, [5, 5], [0.5, 0.5]]
)
def test_loss_rejects_a_label_update_rejects(label):
    # the label is checked before any scoring: on a trained model, on an
    # untrained one (which cannot score) and on an empty batch
    model = NaiveBayesModel()
    model.update(pack([bow(1, 2)]), 0)
    model.update(pack([bow(1)]), 1)
    for m, batch in ((model, pack([bow(1), bow(2)])), (NaiveBayesModel(), pack([bow(1)])), (model, pack([]))):
        with pytest.raises(ValueError, match=LABEL_REFUSAL):
            m.loss(batch, label)


@pytest.mark.parametrize("label", [np.int64(0), np.int64(1), np.uint8(1)])
def test_loss_accepts_a_numpy_integer_label(label):
    model = _biased_model(toward=1)
    batch = pack([bow(1), bow(2)])
    assert model.loss(batch, label) == model.loss(batch, int(label))


def test_loss_empty_batch_raises():
    with pytest.raises(ValueError, match="empty batch"):
        _biased_model(toward=1).loss(pack([]), 1)


# -- incremental state -------------------------------------------------------------------


def trimmed(row):
    """A histogram row without its trailing zeros."""
    return row[: np.flatnonzero(row)[-1] + 1] if row.any() else row[:0]


def assert_counted_state(model, pool, recount):
    """The model's stored counts and histograms agree with ``recount``, the
    per-class count of each bucket of ``pool`` (every bucket it has seen)."""
    observed = recount.any(axis=0)
    # count + 1 in both classes for a bucket either class has counted, 0 elsewhere
    expected = np.where(observed, recount + 1, 0)
    assert np.array_equal(model._bucket_counts[:, pool], expected)
    assert np.count_nonzero(model._bucket_counts) == 2 * np.count_nonzero(observed)
    for c in (0, 1):
        assert [model.bucket_count(c, b) for b in pool] == recount[c].tolist()
        # H_c[k + 1] = observed buckets counted k times under class c
        counts = recount[c, observed]
        assert np.array_equal(trimmed(model._hist[c]), trimmed(np.bincount(counts + 1, minlength=1)))
        assert model._hist[c, 0] == 0
        assert model._top[c] == counts.max(initial=0)


def rebuilt_by_updates(pool, class_counts, recount, alpha):
    """A fresh model given one update per class: class c's batch has
    ``class_counts[c]`` rows, and row i holds every bucket of ``pool`` counted
    more than i times under c, so its counts are ``recount``."""
    model = NaiveBayesModel(smoothing_alpha=alpha)
    for c in (0, 1):
        model.update(pack([pool[recount[c] > i] for i in range(class_counts[c])]), c)
    return model


def test_incremental_state_matches_a_model_rebuilt_by_other_updates():
    # buckets from both ends of the hash space, so a new bucket lands before,
    # between and after the ones already seen; batches large enough that both
    # class totals outgrow the log table the model starts with. The reference
    # is a model built from the same counts by other updates: the state does
    # not depend on how they were batched
    pool = np.concatenate([np.arange(40), HASH_BUCKETS - 1 - np.arange(40)])
    rng = np.random.default_rng(5)
    model = NaiveBayesModel(smoothing_alpha=0.5)
    class_counts = [0, 0]
    recount = np.zeros((2, pool.size), dtype=np.int64)
    for _ in range(160):
        rows = [rng.choice(pool, size=rng.integers(0, 6), replace=False) for _ in range(rng.integers(1, 25))]
        batch = pack(rows)
        op = rng.integers(0, 3)
        if op == 0 or class_counts == [0, 0]:
            label = int(rng.integers(0, 2))
            model.update(batch, label)
            class_counts[label] += len(rows)
            for row in rows:
                recount[label] += np.isin(pool, row)
        elif op == 1:
            model.loss(batch, int(rng.integers(0, 2)))
        else:
            model.predict_batch(batch)
        assert model.class_counts == class_counts
        assert_counted_state(model, pool, recount)
        if class_counts != [0, 0]:
            other = rebuilt_by_updates(pool, class_counts, recount, 0.5)
            assert other.class_counts == class_counts
            # the histograms kept update by update equal the reference's
            for c in (0, 1):
                assert other._top[c] == model._top[c]
                assert np.array_equal(trimmed(other._hist[c]), trimmed(model._hist[c]))
            query = pack([rng.choice(pool, size=4, replace=False), [], [12345]])
            assert np.array_equal(log_posteriors_of(model, query), log_posteriors_of(other, query))
            # the table grown update by update equals the one built for the reference's totals
            size = min(model._log.size, other._log.size)
            assert size > max(class_counts)
            assert np.array_equal(model._log[:size], other._log[:size])
    assert min(class_counts) > _LOG_TABLE_SIZE


def reference_log_posteriors(class_counts, bucket_counts, alpha, query):
    """log P(class | query) summed with math.fsum over math.log / math.log1p
    terms, restricted to the observed vocabulary like the model."""
    vocab = sorted(set(bucket_counts[0]) | set(bucket_counts[1]))
    total = class_counts[0] + class_counts[1]
    joint = []
    for c in (0, 1):
        terms = [math.log((class_counts[c] + alpha) / (total + 2 * alpha))]
        for b in vocab:
            theta = (bucket_counts[c].get(b, 0) + alpha) / (class_counts[c] + 2 * alpha)
            terms.append(math.log(theta) if b in query else math.log1p(-theta))
        joint.append(math.fsum(terms))
    hi, lo = max(joint), min(joint)
    norm = hi + math.log1p(math.exp(lo - hi))
    return [j - norm for j in joint]


def test_log_posteriors_match_reference_at_realistic_scale():
    # a predictor the size a benchmark run trains: thousands of observed
    # buckets spread over the hash space and thousands of examples per class
    rng = np.random.default_rng(7)
    vocab = rng.choice(HASH_BUCKETS, size=2500, replace=False)
    probs = [0.5 / vocab.size + 0.5 * rng.dirichlet(np.ones(vocab.size)) for _ in (0, 1)]
    model = NaiveBayesModel(smoothing_alpha=1.0)
    class_counts = [0, 0]
    bucket_counts = [{}, {}]

    def sample(label, n):
        tokens = rng.choice(vocab, size=(n, 10), p=probs[label])
        return [t[:k] for t, k in zip(tokens, rng.integers(1, 11, size=n))]

    for _ in range(800):
        label = int(rng.integers(0, 2))
        rows = sample(label, 16)
        model.update(pack(rows), label)
        class_counts[label] += len(rows)
        for row in rows:
            for b in set(row.tolist()):
                bucket_counts[label][b] = bucket_counts[label].get(b, 0) + 1
    vocab_size = len(set(bucket_counts[0]) | set(bucket_counts[1]))
    assert vocab_size >= 2000
    # each class histogram holds every observed bucket once
    assert model._hist.sum(axis=1).tolist() == [vocab_size, vocab_size]
    assert min(class_counts) >= 5000

    queries = sample(0, 15) + sample(1, 15) + [np.array([], dtype=np.int64), np.array([12345]), vocab[:300]]
    got = log_posteriors_of(model, pack(queries))
    for row, query in zip(got, queries):
        expected = reference_log_posteriors(class_counts, bucket_counts, 1.0, set(query.tolist()))
        assert np.max(np.abs(row - expected)) <= 1e-10


def test_log_posteriors_match_reference_with_repeats_within_a_batch():
    # each batch holds one example with no buckets and 29 that all contain
    # bucket 9, so an update moves bucket 9 by 29 at once; its count and both
    # class totals outgrow the log table and histogram the model starts with
    rng = np.random.default_rng(11)
    pool = np.arange(20, 60)
    tracked = np.append(9, pool)
    model = NaiveBayesModel(smoothing_alpha=0.5)
    class_counts = [0, 0]
    bucket_counts = [{}, {}]
    recount = np.zeros((2, tracked.size), dtype=np.int64)
    queries = [np.array([], dtype=np.int64), np.array([9]), np.array([9, 12345]), pool[:7], np.array([12345])]
    for step in range(24):
        label = step % 2 if step < 20 else 1
        rows = [np.array([], dtype=np.int64)]
        rows += [np.append(9, rng.choice(pool, size=rng.integers(0, 4), replace=False)) for _ in range(29)]
        model.update(pack(rows), label)
        class_counts[label] += len(rows)
        for row in rows:
            for b in row.tolist():
                bucket_counts[label][b] = bucket_counts[label].get(b, 0) + 1
            recount[label] += np.isin(tracked, row)
        assert_counted_state(model, tracked, recount)
        got = log_posteriors_of(model, pack(queries))
        for row, query in zip(got, queries):
            expected = reference_log_posteriors(class_counts, bucket_counts, 0.5, set(query.tolist()))
            assert np.max(np.abs(row - expected)) <= 1e-10
    assert model.bucket_count(1, 9) == 14 * 29
    assert model._top[1] > _LOG_TABLE_SIZE
    assert model._hist.shape[1] > _LOG_TABLE_SIZE
    assert model._log.size > max(class_counts)


# -- constructor --------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [True, "1", 0.0, -1.0, float("nan"), float("inf")])
def test_constructor_rejects_smoothing_alpha_that_is_not_a_positive_finite_number(alpha):
    with pytest.raises(ValueError, match="smoothing_alpha"):
        NaiveBayesModel(smoothing_alpha=alpha)


def test_constructor_accepts_numpy_numbers_and_keeps_python_ones():
    model = NaiveBayesModel(smoothing_alpha=np.float64(0.5))
    assert type(model.smoothing_alpha) is float and model.smoothing_alpha == 0.5


# -- bit-exact floats ---------------------------------------------------------------------


def plain_scores(alpha, log_table, totals, counts, rows):
    """The model's log-odds of each row, one bucket and one term at a time,
    in the model's order of operations. ``log_table[k]`` is ``log(k + alpha)``
    and ``counts[c]`` maps each vocabulary bucket to its count under class c."""
    vocab = set(counts[0]) | set(counts[1])
    absent = []
    for c in (0, 1):
        n = totals[c]
        top = max((counts[c].get(j, 0) for j in vocab), default=0)
        hist = [0] * (top + 1)  # hist[k] = vocabulary buckets counted k times
        for j in vocab:
            hist[counts[c].get(j, 0)] += 1
        norm = math.log(n + 2.0 * alpha)
        terms = [(log_table[n - k] - norm) * hist[k] for k in range(top + 1)]
        absent.append(float(np.add.reduce(np.array(terms))))  # numpy's pairwise sum
    bias = float(log_table[totals[1]] - log_table[totals[0]] + absent[1] - absent[0])
    scores = []
    for row in rows:
        acc = 0.0
        for j in sorted(set(row)):
            if j in vocab:
                n1, n0 = counts[1].get(j, 0), counts[0].get(j, 0)
                acc += (log_table[n1] - log_table[totals[1] - n1]) - (log_table[n0] - log_table[totals[0] - n0])
            else:
                acc += 0.0  # an unseen bucket's weight
        scores.append(bias + acc)
    return scores


def test_seeded_sequence_matches_plain_formulas_bit_for_bit():
    # updates, losses and batch decisions in a seeded order, over batches of
    # 1 to 40 rows with empty rows and buckets new to the vocabulary; bucket 0
    # is in most rows, so its count and both class totals outgrow the
    # 256-entry tables the model starts with. Every returned float must be
    # equal to the plain formulas, not merely close.
    rng = np.random.default_rng(19)
    alpha = 0.5
    model = NaiveBayesModel(smoothing_alpha=alpha)
    log_table = np.log(np.arange(4096) + alpha)
    totals = [0, 0]
    counts = [{}, {}]
    checked = {"update": 0, "loss": 0, "predict_batch": 0}
    for step in range(150):
        # the pool grows, so new buckets keep arriving; bucket j is drawn with
        # weight 1 / (j + 1), so counts spread over many values
        pool = np.arange(10 + 8 * step)
        weights = 1.0 / (pool + 1.0)
        rows = []
        for _ in range(int(rng.integers(1, 41))):
            size = min(int(rng.integers(0, 12)), pool.size)
            rows.append(rng.choice(pool, size=size, replace=False, p=weights / weights.sum()).tolist())
        batch = pack(rows)
        op = ("update", "loss", "predict_batch")[int(rng.integers(0, 3))]
        if op == "update" or totals == [0, 0]:
            label = int(rng.integers(0, 2))
            model.update(batch, label)
            totals[label] += len(rows)
            for row in rows:
                for j in set(row):
                    counts[label][j] = counts[label].get(j, 0) + 1
            for j in {j for row in rows for j in row}:
                counts[1 - label].setdefault(j, 0)
            checked["update"] += 1
            assert model.class_counts == totals
            continue
        scores = plain_scores(alpha, log_table, totals, counts, rows)
        assert model._scores(batch).tolist() == scores
        if op == "loss":
            label = int(rng.integers(0, 2))
            terms = [np.logaddexp(0.0, -s if label == 1 else s) for s in scores]
            assert model.loss(batch, label) == float(np.add.reduce(np.array(terms))) / len(rows)
        else:
            if 0 in totals:
                expected = (1, None)
            else:
                p1 = [np.exp(-np.logaddexp(0.0, -s)) for s in scores]
                mean_p1 = float(np.add.reduce(np.array(p1))) / len(rows)
                expected = (int(mean_p1 >= 0.5), mean_p1)
            assert model.predict_batch(batch) == expected
        checked[op] += 1
    # rows that hold no bucket at all score the bias alone
    assert model._scores(pack([[], []])).tolist() == plain_scores(alpha, log_table, totals, counts, [[], []])
    assert min(checked.values()) >= 40
    assert min(totals) > _LOG_TABLE_SIZE
    assert max(counts[1][0], counts[0][0]) > _LOG_TABLE_SIZE
    assert max(totals) < log_table.size
