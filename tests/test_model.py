import math

import numpy as np
import pytest

from scipy.special import expit

from lossgate.data import Example, pack_examples, tokenize, vectorize
from lossgate.model import TargetModel, load_checkpoint, save_checkpoint


def ex(tokens, label):
    return Example(" ".join(tokens), list(tokens), label)


def batch(pairs, index=0):
    return pack_examples([ex(tokens, label) for tokens, label in pairs], index=index)


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


# -- forward ---------------------------------------------------------------------


def test_forward_zero_model_loss_is_ln2():
    model = TargetModel()
    result = model.forward(batch([(["a"], 1), (["b"], 0)]))
    assert result.batch_loss == pytest.approx(math.log(2), abs=1e-12)
    assert np.allclose(result.per_example_probs, 0.5)


def test_forward_perfect_prediction_zero_loss():
    model = TargetModel()
    b = batch([(["hooray"], 1)])
    # large enough that exp(-score) underflows: probability is exactly 1.0
    model.weights[b.indices[0]] = 800.0
    result = model.forward(b)
    assert result.per_example_probs[0] == 1.0
    assert result.batch_loss == 0.0


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
        assert np.all((result.per_example_probs > 0) & (result.per_example_probs < 1))


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
        model.weights[:] = rng.normal(scale=0.5, size=model.dimension)
        model.bias = rng.normal()
        examples = [ex([f"w{rng.integers(40)}" for _ in range(rng.integers(0, 15))], 1) for _ in range(6)]
        scores = [model.bias + sum(model.weights[e.features()].tolist()) for e in examples]
        result = model.forward(pack_examples(examples))
        assert np.allclose(result.per_example_probs, expit(scores), rtol=1e-12, atol=0.0)


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
    assert result.per_example_probs[-1] == expit(model.bias)
    assert result.per_example_losses[-1] == np.logaddexp(0.0, -model.bias)
    grad = model.batch_gradient(result, b)
    assert np.array_equal(grad.indices, np.concatenate([e.features() for e in examples[:2]]))
    coef = (result.per_example_probs - [0, 1, 1]) / 3
    assert np.array_equal(grad.values, np.repeat(coef[:2], [2, 1]))
    assert grad.bias_grad == pytest.approx(coef.sum(), abs=1e-15)

    alone = pack_examples([empty])
    before_w, before_bias = model.weights.copy(), model.bias
    model.backward(model.forward(alone), alone)
    assert np.array_equal(model.weights, before_w)
    assert model.bias == before_bias - model.learning_rate * (expit(before_bias) - 1.0)


# -- backward --------------------------------------------------------------------


def test_backward_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    model, b = random_case(rng)
    result = model.forward(b)
    grad = model.batch_gradient(result, b)
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


def test_backward_zero_gradient_leaves_weights_bit_identical():
    model = TargetModel()
    b = batch([(["sure"], 1)])
    model.weights[b.indices[0]] = 40.0
    before = model.weights.copy()
    result = model.forward(b)
    model.backward(result, b)
    assert np.array_equal(model.weights, before)
    assert model.step_count == 1


def test_backward_descent_on_repeated_batch():
    rng = np.random.default_rng(3)
    for _ in range(5):
        model, b = random_case(rng)
        first = model.forward(b)
        model.backward(first, b)
        second = model.forward(b)
        assert second.batch_loss < first.batch_loss


def test_backward_rejects_stale_result():
    rng = np.random.default_rng(4)
    model, b = random_case(rng)
    result = model.forward(b)
    model.backward(result, b)
    with pytest.raises(RuntimeError, match="stale"):
        model.backward(result, b)


def test_backward_rejects_wrong_batch():
    model = TargetModel()
    b1 = batch([(["a"], 1)], index=0)
    b2 = batch([(["b"], 0)], index=1)
    result = model.forward(b1)
    with pytest.raises(RuntimeError):
        model.backward(result, b2)


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
        for i in range(30):
            tokens = [f"w{rng.integers(20)}" for _ in range(4)]
            b = batch([(tokens, int(rng.integers(0, 2)))], index=i)
            model.backward(model.forward(b), b)
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
    for i in range(50):
        b = pack_examples(train, index=i)
        model.backward(model.forward(b), b)
    assert model.evaluate(pack_examples(train)) == 1.0


def test_evaluate_rejects_empty():
    with pytest.raises(ValueError):
        TargetModel().evaluate(pack_examples([]))


# -- checkpoint ------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    model, b = random_case(rng)
    model.backward(model.forward(b), b)
    path = tmp_path / "model.json"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.step_count == model.step_count
    assert loaded.learning_rate == model.learning_rate
    assert loaded.forward(b).batch_loss == model.forward(b).batch_loss
