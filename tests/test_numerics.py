"""Solvers, networks, training loop and gradient checking.

Oracles here are deliberately independent implementations: a pseudo-inverse
solver for the least squares fit and scalar-loop evaluators for both network
forward passes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rollingquant.errors import TrainingError, ValidationError
from rollingquant.numerics import (
    LstmLayer,
    LstmModel,
    MlpModel,
    TrainConfig,
    gradient_check,
    least_squares_fit,
    model_from_json,
    model_to_json,
    mse,
    train,
)


class TestMse:
    def test_identity(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_forced_arithmetic(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_sum(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == pytest.approx(5.0 / 3.0, abs=1e-12)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    def test_nonnegative_and_zero_on_self(self, xs):
        assert mse(xs, xs) == 0.0
        assert mse(xs, [0.0] * len(xs)) >= 0.0


def pinv_oracle(X, y):
    """Independent solver: SVD pseudo-inverse, no normal equations."""
    return np.linalg.pinv(np.asarray(X, dtype=float)) @ np.asarray(y, dtype=float)


class TestLeastSquares:
    def test_single_column(self):
        w = least_squares_fit(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert w == pytest.approx([2.0], abs=1e-6)

    def test_identity_system(self):
        w = least_squares_fit(np.eye(3), np.array([4.0, -1.0, 2.5]))
        assert w == pytest.approx([4.0, -1.0, 2.5], abs=1e-6)

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.normal(0.0, 1.0, size=(50, 5))
            y = rng.normal(0.0, 1.0, size=50)
            got = least_squares_fit(X, y)
            want = pinv_oracle(X, y)
            assert np.abs(got - want).max() < 1e-8


def scalar_mlp_oracle(model, sample):
    """One sample through the dense network with explicit python loops."""
    h = list(sample)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for j in range(w.shape[1]):
            z = b[j] + sum(h[k] * w[k, j] for k in range(w.shape[0]))
            out.append(z if i == last else max(z, 0.0))
        h = out
    return h[0]


def scalar_lstm_oracle(model, sequence):
    """One 3-step sequence through the stacked recurrence, scalar loops."""
    seq = [list(step) for step in sequence]
    for layer in model.layers:
        h = layer.hidden_dim
        a = [0.0] * h
        c = [0.0] * h
        outputs = []
        for x in seq:
            def affine(gate, j):
                z = layer.b[gate][j]
                z += sum(a[k] * layer.w_a[gate][k, j] for k in range(h))
                z += sum(x[k] * layer.w_x[gate][k, j] for k in range(len(x)))
                return z
            new_a, new_c = [], []
            for j in range(h):
                c_tilde = math.tanh(affine("c", j))
                g_u = 1.0 / (1.0 + math.exp(-affine("u", j)))
                g_f = 1.0 / (1.0 + math.exp(-affine("f", j)))
                g_o = 1.0 / (1.0 + math.exp(-affine("o", j)))
                c_j = g_u * c_tilde + g_f * c[j]
                new_c.append(c_j)
                new_a.append(g_o * math.tanh(c_j))
            a, c = new_a, new_c
            outputs.append(list(a))
        seq = outputs
    final = seq[-1]
    return model.readout_b[0] + sum(v * model.readout_w[k, 0]
                                    for k, v in enumerate(final))


class TestMlpForward:
    def test_zero_parameters_zero_output(self):
        model = MlpModel.create(seed=0)
        for w in model.weights:
            w[:] = 0.0
        batch = np.random.default_rng(0).normal(size=(4, 47))
        assert np.array_equal(model.forward(batch), np.zeros(4))

    def test_relu_clamps_negative_preactivation(self):
        model = MlpModel(weights=[np.array([[1.0]]), np.array([[1.0]])],
                         biases=[np.zeros(1), np.zeros(1)], input_dim=1)
        assert model.forward(np.array([[-3.0]]))[0] == 0.0
        assert model.forward(np.array([[3.0]]))[0] == 3.0

    def test_matches_scalar_oracle(self):
        model = MlpModel.create(seed=11)
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(3, 47))
        got = model.forward(batch)
        for i in range(3):
            assert got[i] == pytest.approx(scalar_mlp_oracle(model, batch[i]), abs=1e-12)

    def test_wrong_width_rejected(self):
        model = MlpModel.create(seed=0)
        with pytest.raises(ValidationError):
            model.forward(np.zeros((2, 46)))


def zeroed_lstm(seed=0):
    model = LstmModel.create(seed=seed)
    for layer in model.layers:
        for g in LstmLayer.GATE_NAMES:
            layer.w_a[g][:] = 0.0
            layer.w_x[g][:] = 0.0
            layer.b[g][:] = 0.0
    model.readout_w[:] = 0.0
    return model


class TestLstmForward:
    def test_zero_parameters_yield_readout_bias(self):
        model = zeroed_lstm()
        model.readout_b[0] = 0.75
        batch = np.random.default_rng(0).normal(size=(5, 3, 47))
        assert np.allclose(model.forward(batch), 0.75, atol=1e-15)

    def test_gate_saturation(self):
        # update gate pinned open, forget gate pinned shut: c_1 = c-tilde_1
        rng = np.random.default_rng(4)
        layer = LstmLayer.create(rng, 47, 8)
        for g in LstmLayer.GATE_NAMES:
            layer.w_a[g][:] = 0.0
        layer.w_x["u"][:] = 0.0
        layer.w_x["f"][:] = 0.0
        layer.b["u"][:] = 50.0
        layer.b["f"][:] = -50.0
        x_seq = rng.normal(size=(1, 2, 47))
        _, cache = layer.forward(x_seq)
        _, _, _, c_tilde, _, _, _, c_new, _ = cache[0]
        assert np.abs(c_new - c_tilde).max() < 1e-12

    def test_matches_scalar_oracle(self):
        model = LstmModel.create(seed=9)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(2, 3, 47))
        got = model.forward(batch)
        for i in range(2):
            assert got[i] == pytest.approx(scalar_lstm_oracle(model, batch[i]), abs=1e-12)

    def test_wrong_shape_rejected(self):
        model = LstmModel.create(seed=0)
        with pytest.raises(ValidationError):
            model.forward(np.zeros((2, 4, 47)))


class TestTrain:
    def test_already_at_minimum(self):
        model = MlpModel.create(seed=0)
        for w in model.weights:
            w[:] = 0.0
        samples = np.random.default_rng(0).normal(size=(20, 47))
        labels = np.zeros(20)
        _, losses = train(model, samples, labels, TrainConfig(epochs=3))
        assert losses == [0.0, 0.0, 0.0]

    def test_learns_linear_target(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(200, 47))
        w_star = rng.normal(size=47) / math.sqrt(47)
        labels = samples @ w_star
        model = MlpModel.create(seed=1)
        _, losses = train(model, samples, labels,
                          TrainConfig(epochs=200, batch_size=20, seed=1))
        assert losses[-1] < 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(50, 47))
        labels = rng.normal(size=50)
        runs = []
        for _ in range(2):
            model = MlpModel.create(seed=2)
            model, losses = train(model, samples, labels, TrainConfig(seed=3))
            runs.append((losses, [p.copy() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)

    def test_rejects_non_finite_labels(self):
        model = MlpModel.create(seed=0)
        with pytest.raises(ValidationError):
            train(model, np.zeros((2, 47)), np.array([1.0, math.nan]), TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(10, 47))
        labels = rng.normal(size=10) * 1e150
        model = MlpModel.create(seed=0)
        with pytest.raises(TrainingError):
            train(model, samples, labels,
                  TrainConfig(epochs=50, learning_rate=1e100))


class TestGradientCheck:
    def test_mlp_gradients(self):
        rng = np.random.default_rng(10)
        model = MlpModel.create(seed=10)
        err = gradient_check(model, rng.normal(size=(5, 47)), rng.normal(size=5))
        assert err <= 1e-6

    def test_lstm_gradients(self):
        rng = np.random.default_rng(11)
        model = LstmModel.create(seed=11)
        err = gradient_check(model, rng.normal(size=(5, 3, 47)), rng.normal(size=5))
        assert err <= 1e-5

    def test_detects_corruption(self):
        rng = np.random.default_rng(12)
        model = MlpModel.create(seed=12)
        batch, labels = rng.normal(size=(5, 47)), rng.normal(size=5)
        assert gradient_check(model, batch, labels, corruption=0.5) > 1e-3

    @pytest.mark.parametrize("create,shape", [
        (lambda: MlpModel.create(seed=13), (20, 47)),
        (lambda: LstmModel.create(seed=13, hidden_sizes=(6, 5, 4)), (20, 3, 47)),
    ], ids=["mlp", "lstm"])
    def test_restores_parameter_objects(self, create, shape):
        # train's Adam state and in-place writes such as zeroed_lstm's hold
        # the parameter arrays themselves, so the check must put back the
        # same objects with the same bytes
        rng = np.random.default_rng(13)
        samples, labels = rng.normal(size=shape), rng.normal(size=20)
        model = create()
        before = model.parameters()
        saved = [p.copy() for p in before]
        gradient_check(model, samples[:5], labels[:5])
        after = model.parameters()
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after, before))
        assert all(a.tobytes() == s.tobytes() for a, s in zip(after, saved))
        config = TrainConfig(epochs=2, batch_size=5, seed=3)
        _, losses = train(model, samples, labels, config)
        _, fresh_losses = train(create(), samples, labels, config)
        assert losses == fresh_losses

    def test_non_finite_error_fails(self):
        # weights of 1e200 overflow the loss; a NaN error must not pass as 0.0
        model = MlpModel.create(seed=14, input_dim=3, hidden_sizes=(2,))
        for w in model.weights:
            w[...] = 1e200
        rng = np.random.default_rng(14)
        with np.errstate(over="ignore", invalid="ignore"):
            err = gradient_check(model, rng.normal(size=(4, 3)), rng.normal(size=4))
        assert err == math.inf

    def test_single_weight_closed_form(self):
        # loss (wx - y)^2 has derivative 2wx^2 - 2xy
        w, x, y = 1.5, 2.0, 0.5
        model = MlpModel(weights=[np.array([[w]])], biases=[np.zeros(1)], input_dim=1)
        _, grads = model.loss_and_gradients(np.array([[x]]), np.array([y]))
        assert grads[0][0, 0] == pytest.approx(2 * w * x * x - 2 * x * y, abs=1e-15)


class TestSerialization:
    def test_mlp_round_trip(self):
        model = MlpModel.create(seed=20)
        clone = model_from_json(model_to_json(model))
        batch = np.random.default_rng(0).normal(size=(4, 47))
        assert np.array_equal(model.forward(batch), clone.forward(batch))

    def test_lstm_round_trip(self):
        model = LstmModel.create(seed=21)
        clone = model_from_json(model_to_json(model))
        batch = np.random.default_rng(1).normal(size=(4, 3, 47))
        assert np.array_equal(model.forward(batch), clone.forward(batch))

    def test_json_is_deterministic(self):
        assert model_to_json(MlpModel.create(seed=5)) == model_to_json(MlpModel.create(seed=5))
