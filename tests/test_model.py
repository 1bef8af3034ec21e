import math

import numpy as np
import pytest

from scipy.special import expit

from lossgate.data import HASH_BUCKETS, Example, MiniBatch, pack, pack_examples, tokenize, vectorize
from lossgate.metapredictor import NaiveBayesModel
from lossgate.model import ForwardResult, TargetModel, _score_gradients


def ex(tokens, label):
    return Example(" ".join(tokens), list(tokens), label)


def batch(pairs):
    return pack_examples([ex(tokens, label) for tokens, label in pairs])


def random_case(rng, n_examples=6, vocab=30):
    """A model with random sparse weights plus a random batch over a small vocab."""
    model = TargetModel(learning_rate=0.1)
    tokens = [f"tok{i}" for i in range(vocab)]
    for t in tokens:
        b = vectorize([t])[0]
        model.weights[b] = rng.normal(scale=0.8)
    model.bias = rng.normal(scale=0.3)
    pairs = []
    for _ in range(n_examples):
        k = int(rng.integers(1, 6))
        chosen = list(rng.choice(tokens, size=k, replace=False))
        pairs.append((chosen, int(rng.integers(0, 2))))
    return model, batch(pairs)


def two_branch_losses(scores, labels):
    """The reference loss: ``logaddexp`` on both ``s`` and ``-s``, one kept per label."""
    return np.where(labels == 1, np.logaddexp(0.0, -scores), np.logaddexp(0.0, scores))


def probabilities(result):
    """The sigmoid of each score, as the backward computes it: ``(p - 0) / 1`` is ``p``."""
    return _score_gradients(result.scores, np.zeros(result.scores.size, dtype=np.int64), 1)


# -- forward ---------------------------------------------------------------------


def test_forward_zero_model_loss_is_ln2():
    model = TargetModel()
    result = model.forward(batch([(["a"], 1), (["b"], 0)]))
    assert result.batch_loss == pytest.approx(math.log(2), abs=1e-12)
    assert result.scores.tolist() == [0.0, 0.0]
    assert np.array_equal(probabilities(result), [0.5, 0.5])


def test_forward_perfect_prediction_zero_loss():
    model = TargetModel()
    b = batch([(["hooray"], 1)])
    # large enough that exp(-score) underflows: probability is exactly 1.0
    model.weights[b.indices[0]] = 800.0
    result = model.forward(b)
    assert model.batch_gradient(result).bias_grad == 0.0  # (1.0 - 1) / 1
    assert result.batch_loss == 0.0


def test_forward_probability_is_zero_where_exp_overflows():
    # -score above about 709.78 overflows math.exp; expit gives 0.0 there
    model = TargetModel()
    b = batch([(["doom"], 0), (["doom", "gloom"], 1), (["meh"], 0)])
    model.bias = -700.0
    for token, weight in (("doom", -10.5), ("gloom", -300.0), ("meh", -9.0)):
        model.weights[vectorize([token])[0]] = weight
    scores = model.bias + np.bincount(b.rows, weights=model.weights[b.indices], minlength=3)
    assert scores.tolist() == [-710.5, -1010.5, -709.0]
    result = model.forward(b)
    assert np.array_equal(result.scores, scores)
    probs = probabilities(result)
    with np.errstate(over="ignore"):
        assert np.array_equal(probs.view(np.int64), expit(scores).view(np.int64))
    assert np.count_nonzero(probs == 0.0) == 2
    assert probs[2] > 0.0  # -709 does not overflow


def test_sigmoid_is_expit_bit_for_bit():
    # a bit pattern comparison, so that -0.0 and 0.0 differ; the grid over
    # [-720, -700] crosses where math.exp(-s) starts to overflow
    rng = np.random.default_rng(12)
    scores = np.concatenate([
        *(rng.normal(scale=scale, size=200_000) for scale in (0.01, 1.0, 10.0, 100.0, 1000.0)),
        np.linspace(-720.0, -700.0, 100_001),
        [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308],
    ])
    with np.errstate(over="ignore"):
        reference = expit(scores)
    probs = _score_gradients(scores, np.zeros(scores.size, dtype=np.int64), 1)
    assert scores.size > 1_000_000
    assert probs.dtype == np.float64
    assert np.array_equal(probs.view(np.int64), reference.view(np.int64))
    assert 0 < np.count_nonzero(probs == 0.0) < np.count_nonzero(scores < -700.0)


def test_forward_quarter_probability_loss():
    model = TargetModel()
    b = batch([(["tok"], 1)])
    model.weights[b.indices[0]] = math.log(0.25 / 0.75)
    result = model.forward(b)
    assert result.batch_loss == pytest.approx(-math.log(0.25), rel=1e-12)


def test_forward_batch_loss_is_mean_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        model, b = random_case(rng)
        result = model.forward(b)
        assert result.batch_loss == pytest.approx(result.per_example_losses.mean(), rel=1e-12)
        assert np.all(result.per_example_losses >= 0)
        probs = probabilities(result)
        assert np.all((probs > 0) & (probs < 1))


def test_forward_does_not_touch_model():
    rng = np.random.default_rng(1)
    model, b = random_case(rng)
    before_w = model.weights.copy()
    before_bias = model.bias
    model.forward(b)
    assert np.array_equal(model.weights, before_w)
    assert model.bias == before_bias
    assert model.step_count == 0


def test_forward_rejects_diverged_model():
    model = TargetModel()
    b = batch([(["boom"], 1)])
    model.weights[b.indices[0]] = np.inf
    with pytest.raises(RuntimeError, match="diverged"):
        model.forward(b)


def test_forward_rejects_empty_batch():
    with pytest.raises(ValueError):
        TargetModel().forward(pack_examples([]))


def test_forward_matches_per_example_sums():
    # reference: one plain sum per example; only the summation order differs
    rng = np.random.default_rng(9)
    for _ in range(20):
        model = TargetModel()
        model.weights[:] = rng.normal(scale=0.5, size=model.weights.size)
        model.bias = rng.normal()
        examples = [ex([f"w{rng.integers(40)}" for _ in range(rng.integers(0, 15))], 1) for _ in range(6)]
        scores = [model.bias + sum(model.weights[e.features()].tolist()) for e in examples]
        result = model.forward(pack_examples(examples))
        assert np.allclose(probabilities(result), expit(scores), rtol=1e-12, atol=0.0)


def test_forward_matches_two_branch_loss_bit_for_bit():
    # reference: logaddexp on both s and -s, one kept per label, and .mean();
    # scores reach +-700, where exp(-|s|) is near the bottom of float64
    rng = np.random.default_rng(10)
    for scale in (1.0, 30.0, 700.0):
        for _ in range(30):
            model = TargetModel()
            model.weights[:64] = rng.uniform(-scale, scale, size=64) / 4
            model.bias = rng.uniform(-scale, scale) / 4
            n = int(rng.integers(1, 10))
            buckets = [rng.choice(64, size=rng.integers(0, 4), replace=False) for _ in range(n - 1)] + [[]]
            labels = rng.integers(0, 2, size=n)
            b = pack(buckets)
            b = MiniBatch(b.indices, b.rows, labels, b.positions)
            scores = model.bias + np.bincount(b.rows, weights=model.weights[b.indices], minlength=n)
            assert np.abs(scores).max() <= scale
            old = two_branch_losses(scores, b.labels)
            result = model.forward(b)
            assert np.array_equal(result.per_example_losses, old)
            assert result.batch_loss == float(old.mean())
            assert np.array_equal(result.scores, scores)
            assert np.array_equal(probabilities(result), expit(scores))


@pytest.mark.parametrize("first_read", ["batch_loss", "per_example_losses"])
def test_a_late_loss_read_gives_the_bits_of_an_immediate_one(first_read):
    """A result computes its losses from its own scores and labels alone: read
    first after its backward and after a later forward, they are the bits an
    immediate read gives, and the two-branch reference's. So the backward
    never writes ``result.scores``, and the loss reads no model state."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        model, b = random_case(rng)
        immediate = model.forward(b)
        losses, loss = immediate.per_example_losses, immediate.batch_loss
        late = model.forward(b)
        scores = late.scores.copy()
        model.backward(late)
        later = model.forward(b)
        assert not np.array_equal(later.scores, scores)  # the model moved
        getattr(late, first_read)
        assert np.array_equal(late.scores, scores)
        assert np.array_equal(late.per_example_losses, losses)
        assert late.batch_loss == loss
        old = two_branch_losses(scores, b.labels)
        assert np.array_equal(late.per_example_losses, old)
        assert late.batch_loss == float(old.mean())


def test_zero_bucket_example_last_in_batch():
    # "!!!" tokenizes to nothing: its score is the bias alone and only the
    # bias sees its gradient, also as the last row of a packed batch
    rng = np.random.default_rng(8)
    model, _ = random_case(rng)
    empty = Example("!!!", tokenize("!!!"), 1)
    assert empty.features().size == 0
    examples = [ex(["tok1", "tok2"], 0), ex(["tok3"], 1), empty]
    b = pack_examples(examples)
    result = model.forward(b)
    assert result.scores[-1] == model.bias
    assert probabilities(result)[-1] == expit(model.bias)
    assert result.per_example_losses[-1] == np.logaddexp(0.0, -model.bias)
    grad = model.batch_gradient(result)
    assert np.array_equal(grad.indices, np.concatenate([e.features() for e in examples[:2]]))
    coef = (expit(result.scores) - [0, 1, 1]) / 3
    assert np.array_equal(grad.values, np.repeat(coef[:2], [2, 1]))
    assert grad.bias_grad == pytest.approx(coef.sum(), abs=1e-15)

    alone = pack_examples([empty])
    before_w, before_bias = model.weights.copy(), model.bias
    model.backward(model.forward(alone))
    assert np.array_equal(model.weights, before_w)
    assert model.bias == before_bias - model.learning_rate * (expit(before_bias) - 1.0)


# -- backward --------------------------------------------------------------------


def test_backward_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    model, b = random_case(rng)
    result = model.forward(b)
    grad = model.batch_gradient(result)
    touched = np.unique(grad.indices)
    coords = rng.choice(touched, size=min(20, touched.size), replace=False)
    dense = np.zeros_like(model.weights)
    np.add.at(dense, grad.indices, grad.values)
    h = 1e-4
    for c in coords:
        orig = model.weights[c]
        model.weights[c] = orig + h
        up = model.forward(b).batch_loss
        model.weights[c] = orig - h
        down = model.forward(b).batch_loss
        model.weights[c] = orig
        fd = (up - down) / (2 * h)
        assert abs(fd - dense[c]) / max(abs(dense[c]), 1e-12) < 1e-5


def test_backward_takes_the_step_batch_gradient_describes_bit_for_bit():
    # backward scales and scatters its coefficients without building a
    # BatchGradient; its weights and bias must still be the gradient's step
    rng = np.random.default_rng(12)
    cases = [random_case(rng) for _ in range(20)]
    model, _ = random_case(rng)
    empty = Example("!!!", tokenize("!!!"), 1)
    zero_bucket = pack_examples([ex(["tok1", "tok2"], 0), empty, ex(["tok3"], 1)])
    shared = batch([(["tok1", "tok2"], 0), (["tok1", "tok3"], 1), (["tok1", "tok4"], 1)])
    assert np.unique(shared.indices).size < shared.indices.size
    cases += [(model, zero_bucket), (model, shared)]
    for model, b in cases:
        for learning_rate in (0.1, 0.37, 50.0):
            model.learning_rate = learning_rate
            result = model.forward(b)
            grad = model.batch_gradient(result)
            weights = model.weights.copy()
            np.add.at(weights, grad.indices, -learning_rate * grad.values)
            bias = model.bias - learning_rate * grad.bias_grad
            model.backward(result)
            assert np.array_equal(model.weights, weights)
            assert model.bias == bias


def test_backward_zero_gradient_leaves_weights_bit_identical():
    model = TargetModel()
    b = batch([(["sure"], 1)])
    model.weights[b.indices[0]] = 40.0
    before = model.weights.copy()
    model.backward(model.forward(b))
    assert np.array_equal(model.weights, before)
    assert model.step_count == 1


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("row", [0, 1], ids=["with-buckets", "zero-buckets"])
def test_backward_rejects_non_finite_gradient(score, row):
    # a NaN score makes a NaN coefficient, which the backward refuses; an
    # infinite one makes the limit coefficient, with p 1.0 or 0.0, and trains
    rng = np.random.default_rng(11)
    model, _ = random_case(rng)
    empty = Example("!!!", tokenize("!!!"), 1)
    b = pack_examples([ex(["tok1", "tok2"], 0), empty])
    result = model.forward(b)
    scores = result.scores.copy()
    scores[row] = score
    bad = ForwardResult(scores, b, model.step_count)
    before_w, before_bias = model.weights.copy(), model.bias
    if math.isnan(score):
        with pytest.raises(RuntimeError, match="non-finite gradient"):
            model.backward(bad)
        assert np.array_equal(model.weights, before_w)
        assert model.bias == before_bias
        assert model.step_count == 0
    else:
        coef = (expit(scores) - [0, 1]) / 2
        model.backward(bad)
        assert model.bias == before_bias - model.learning_rate * (coef[0] + coef[1])
        assert np.isfinite(model.weights).all()
        assert model.step_count == 1


def test_backward_descent_on_repeated_batch():
    rng = np.random.default_rng(3)
    for _ in range(5):
        model, b = random_case(rng)
        first = model.forward(b)
        model.backward(first)
        second = model.forward(b)
        assert second.batch_loss < first.batch_loss


def test_backward_rejects_stale_result():
    rng = np.random.default_rng(4)
    model, b = random_case(rng)
    result = model.forward(b)
    model.backward(result)
    with pytest.raises(RuntimeError, match="stale"):
        model.backward(result)


def test_skipping_backward_leaves_weights_bit_identical():
    rng = np.random.default_rng(5)
    model, b = random_case(rng)
    snapshot = model.weights.copy()
    for _ in range(10):
        model.forward(b)
    assert np.array_equal(model.weights, snapshot)


def test_training_is_deterministic():
    def train():
        rng = np.random.default_rng(6)
        model = TargetModel(learning_rate=0.3)
        for _ in range(30):
            tokens = [f"w{rng.integers(20)}" for _ in range(4)]
            model.backward(model.forward(batch([(tokens, int(rng.integers(0, 2)))])))
        return model

    a, b_ = train(), train()
    assert np.array_equal(a.weights, b_.weights)
    assert a.bias == b_.bias


# -- evaluate --------------------------------------------------------------------


def test_evaluate_zero_model_predicts_class_zero():
    examples = [ex(["a"], 0), ex(["b"], 0), ex(["c"], 1)]
    assert TargetModel().evaluate(pack_examples(examples)) == pytest.approx(2 / 3)


def test_evaluate_separable_set_reaches_perfect_accuracy():
    model = TargetModel(learning_rate=1.0)
    train = [ex(["up"], 1), ex(["down"], 0)]
    b = pack_examples(train)
    for _ in range(50):
        model.backward(model.forward(b))
    assert model.evaluate(pack_examples(train)) == 1.0


def test_evaluate_rejects_empty():
    with pytest.raises(ValueError):
        TargetModel().evaluate(pack_examples([]))


@pytest.mark.parametrize("learning_rate", [0.0, -0.5, float("nan"), float("inf")])
def test_model_rejects_bad_learning_rate(learning_rate):
    with pytest.raises(ValueError, match="learning_rate"):
        TargetModel(learning_rate=learning_rate)


def test_both_models_span_the_hash_space_to_its_last_bucket():
    # the hash space is the one size of the model's weights and the predictor's counts
    assert TargetModel().weights.size == HASH_BUCKETS
    assert NaiveBayesModel()._bucket_counts.shape == (2, HASH_BUCKETS)
    last = HASH_BUCKETS - 1
    b = pack([[last], [last]])
    model = TargetModel()
    model.backward(model.forward(b))
    assert np.flatnonzero(model.weights).tolist() == [last]
    predictor = NaiveBayesModel()
    predictor.update(b, 1)
    assert predictor.bucket_count(1, last) == 2 and predictor.bucket_count(0, last) == 0
