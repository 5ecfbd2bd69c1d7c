"""Solvers, networks, training loop and gradient checking.

Oracles here are deliberately independent implementations: a pseudo-inverse
solver for the least squares fit, scalar-loop evaluators for both network
forward passes, the per-gate LSTM backpropagation the fused gates replaced,
and Adam run per parameter array.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import broken_backward
from rollingquant.errors import TrainingError, ValidationError
from rollingquant.numerics import (
    LstmLayer,
    LstmModel,
    MlpModel,
    TrainConfig,
    gradient_check,
    least_squares_fit,
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


@pytest.mark.parametrize("model, batch_shape", [
    (MlpModel.create(seed=0), (5, 47)),
    (LstmModel.create(seed=0), (5, 3, 47)),
], ids=["mlp", "lstm"])
class TestModelLoss:
    def test_loss_is_mse_of_the_predictions(self, model, batch_shape):
        rng = np.random.default_rng(1)
        batch, labels = rng.normal(size=batch_shape), rng.normal(size=5)
        loss, _ = model.loss_and_gradients(batch, labels)
        assert loss == mse(model.forward(batch), labels)

    @pytest.mark.parametrize("labels_shape", [(5, 1), (4,)])
    def test_labels_of_another_shape_rejected(self, model, batch_shape, labels_shape):
        batch = np.zeros(batch_shape)
        with pytest.raises(ValidationError, match="mse: shape mismatch"):
            model.loss_and_gradients(batch, np.zeros(labels_shape))


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


GATES = LstmLayer.GATE_NAMES


def gate(layer, fused, name):
    """Writable view of gate name's columns of one of layer's fused arrays."""
    h = layer.hidden_dim
    i = GATES.index(name)
    return fused[..., i * h:(i + 1) * h]


def scalar_lstm_oracle(model, sequence):
    """One 3-step sequence through the stacked recurrence, scalar loops."""
    seq = [list(step) for step in sequence]
    for layer in model.layers:
        h = layer.hidden_dim
        a = [0.0] * h
        c = [0.0] * h
        outputs = []
        for x in seq:
            def affine(g, j):
                w_a, w_x = gate(layer, layer.W_a, g), gate(layer, layer.W_x, g)
                z = gate(layer, layer.B, g)[j]
                z += sum(a[k] * w_a[k, j] for k in range(h))
                z += sum(x[k] * w_x[k, j] for k in range(len(x)))
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
        layer.W_a[:] = 0.0
        layer.W_x[:] = 0.0
        layer.B[:] = 0.0
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
        layer.W_a[:] = 0.0
        gate(layer, layer.W_x, "u")[:] = 0.0
        gate(layer, layer.W_x, "f")[:] = 0.0
        gate(layer, layer.B, "u")[:] = 50.0
        gate(layer, layer.B, "f")[:] = -50.0
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


def per_gate_loss_and_gradients(model, batch, labels):
    """The LSTM pass with one matmul per gate, as before the gates were fused.

    Returns (predictions, loss, grads): grads per layer as the W_a, W_x and B
    columns of each gate in GATE_NAMES order, then the read-out's two.
    """
    x_seq = np.transpose(np.asarray(batch, dtype=float), (1, 0, 2))
    params, caches = [], []
    for layer in model.layers:
        w_a = {g: np.ascontiguousarray(gate(layer, layer.W_a, g)) for g in GATES}
        w_x = {g: np.ascontiguousarray(gate(layer, layer.W_x, g)) for g in GATES}
        b = {g: gate(layer, layer.B, g).copy() for g in GATES}
        params.append((w_a, w_x, b))
        a = np.zeros(x_seq.shape[1:-1] + (layer.hidden_dim,))
        c = np.zeros_like(a)
        cache, a_steps = [], []
        for x in x_seq:
            c_tilde = np.tanh(a @ w_a["c"] + x @ w_x["c"] + b["c"])
            g_u = 1.0 / (1.0 + np.exp(-(a @ w_a["u"] + x @ w_x["u"] + b["u"])))
            g_f = 1.0 / (1.0 + np.exp(-(a @ w_a["f"] + x @ w_x["f"] + b["f"])))
            g_o = 1.0 / (1.0 + np.exp(-(a @ w_a["o"] + x @ w_x["o"] + b["o"])))
            c_new = g_u * c_tilde + g_f * c
            tanh_c = np.tanh(c_new)
            cache.append((x, a, c, c_tilde, g_u, g_f, g_o, tanh_c))
            a, c = g_o * tanh_c, c_new
            a_steps.append(a)
        caches.append(cache)
        x_seq = np.stack(a_steps)
    final = x_seq[-1]
    preds = (final @ model.readout_w + model.readout_b)[:, 0]
    labels = np.asarray(labels, dtype=float)
    loss = float(np.mean((preds - labels) ** 2))

    dpred = (2.0 / len(labels)) * (preds - labels)[:, None]
    da_seq = np.zeros_like(x_seq)
    da_seq[-1] = dpred @ model.readout_w.T
    layer_grads = []
    for (w_a, w_x, b), cache in zip(reversed(params), reversed(caches)):
        gw_a = {g: np.zeros_like(w_a[g]) for g in GATES}
        gw_x = {g: np.zeros_like(w_x[g]) for g in GATES}
        gb = {g: np.zeros_like(b[g]) for g in GATES}
        dx_seq = np.empty((len(cache),) + cache[0][0].shape)
        da_next = np.zeros_like(da_seq[0])
        dc_next = np.zeros_like(da_seq[0])
        for t in range(len(cache) - 1, -1, -1):
            x, a_prev, c_prev, c_tilde, g_u, g_f, g_o, tanh_c = cache[t]
            da = da_seq[t] + da_next
            dc = da * g_o * (1.0 - tanh_c * tanh_c) + dc_next
            dz = {
                "o": da * tanh_c * g_o * (1.0 - g_o),
                "c": dc * g_u * (1.0 - c_tilde * c_tilde),
                "u": dc * c_tilde * g_u * (1.0 - g_u),
                "f": dc * c_prev * g_f * (1.0 - g_f),
            }
            dc_next = dc * g_f
            da_next = np.zeros_like(da)
            dx = np.zeros_like(x)
            for g in GATES:
                gw_a[g] += a_prev.T @ dz[g]
                gw_x[g] += x.T @ dz[g]
                gb[g] += dz[g].sum(axis=0)
                da_next += dz[g] @ w_a[g].T
                dx += dz[g] @ w_x[g].T
            dx_seq[t] = dx
        layer_grads.append([t for g in GATES for t in (gw_a[g], gw_x[g], gb[g])])
        da_seq = dx_seq
    grads = [t for layer in reversed(layer_grads) for t in layer]
    return preds, loss, grads + [final.T @ dpred, dpred.sum(axis=0)]


def per_gate_split(model, grads):
    """Fused gradients re-cut into per_gate_loss_and_gradients' order."""
    out = []
    for i, layer in enumerate(model.layers):
        fused = grads[3 * i:3 * i + 3]
        for g in GATES:
            out.extend(gate(layer, f, g) for f in fused)
    return out + list(grads[3 * len(model.layers):])


def randomized_lstm(seed):
    """A default-size LSTM whose biases are not zero."""
    model = LstmModel.create(seed=seed)
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        layer.B[:] = rng.normal(0.0, 0.3, size=layer.B.shape)
    model.readout_b[:] = 0.1
    return model


class TestFusedGates:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_gate_oracle(self, seed):
        # Only the sums over gates in the backward pass changed order, so
        # the loss and the predictions are the oracle's bits and every
        # gradient tensor agrees to 1e-12 of its largest entry.
        model = randomized_lstm(seed)
        rng = np.random.default_rng(100 + seed)
        batch, labels = rng.normal(size=(10, 3, 47)), rng.normal(size=10) * 0.1
        want_preds, want_loss, want_grads = per_gate_loss_and_gradients(model, batch, labels)
        assert np.array_equal(model.forward(batch), want_preds)
        loss, grads = model.loss_and_gradients(batch, labels)
        assert loss == want_loss
        got = per_gate_split(model, grads)
        assert len(got) == len(want_grads) == 12 * len(model.layers) + 2
        for g, w in zip(got, want_grads):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("b", [1, 2, 7, 300])
    def test_forward_bits_match_per_gate_oracle(self, b):
        model = randomized_lstm(3)
        batch = np.random.default_rng(b).normal(size=(b, 3, 47))
        assert np.array_equal(model.forward(batch),
                              per_gate_loss_and_gradients(model, batch, np.zeros(b))[0])


def per_tensor_adam(model, samples, labels, config):
    """train's loop before the flat vector: Adam state per parameter array."""
    params = model.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(config.seed)
    eps = 1e-8
    step = 0
    losses = []
    n = len(samples)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            _, grads = model.loss_and_gradients(samples[batch_idx], labels[batch_idx])
            step += 1
            bc1 = 1.0 - config.beta1 ** step
            bc2 = 1.0 - config.beta2 ** step
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= config.beta1
                mi += (1.0 - config.beta1) * g
                vi *= config.beta2
                vi += (1.0 - config.beta2) * g * g
                p -= config.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
        losses.append(mse(model.forward(samples), labels))
    return losses


class TestFlatAdam:
    @pytest.mark.parametrize("create,shape", [
        (lambda: MlpModel.create(seed=15), (60, 47)),
        (lambda: LstmModel.create(seed=15, hidden_sizes=(6, 5, 4)), (60, 3, 47)),
    ], ids=["mlp", "lstm"])
    def test_bits_equal_per_tensor_adam(self, create, shape):
        # Adam is elementwise: one update of the flat vector is the same
        # arithmetic, entry by entry, as one update per parameter array
        rng = np.random.default_rng(15)
        samples, labels = rng.normal(size=shape), rng.normal(size=shape[0]) * 0.1
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2, seed=4)
        model, losses = train(create(), samples, labels, config)
        oracle = create()
        assert losses == per_tensor_adam(oracle, samples, labels, config)
        for p, q in zip(model.parameters(), oracle.parameters()):
            assert np.array_equal(p, q)


def views_of_vector(model):
    """True if every parameter array shares the flat vector."""
    arrays = model.parameters()
    return (sum(p.size for p in arrays) == model.vector.size
            and all(np.shares_memory(p, model.vector) for p in arrays))


class TestFlatVector:
    @pytest.mark.parametrize("create,shape", [
        (lambda: MlpModel.create(seed=16), (20, 47)),
        (lambda: LstmModel.create(seed=16, hidden_sizes=(6, 5, 4)), (20, 3, 47)),
    ], ids=["mlp", "lstm"])
    def test_parameters_stay_views(self, create, shape):
        rng = np.random.default_rng(16)
        samples, labels = rng.normal(size=shape), rng.normal(size=20)
        model = create()
        assert views_of_vector(model)
        train(model, samples, labels, TrainConfig(epochs=1, batch_size=5))
        assert views_of_vector(model)
        gradient_check(model, samples[:5], labels[:5])
        assert views_of_vector(model)


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

    def test_detects_corruption(self, monkeypatch):
        monkeypatch.setattr(MlpModel, "loss_and_gradients",
                            broken_backward(MlpModel.loss_and_gradients, 0.5))
        rng = np.random.default_rng(12)
        model = MlpModel.create(seed=12)
        batch, labels = rng.normal(size=(5, 47)), rng.normal(size=5)
        assert gradient_check(model, batch, labels) > 1e-3

    @pytest.mark.parametrize("create,shape", [
        (lambda: MlpModel.create(seed=13), (20, 47)),
        (lambda: LstmModel.create(seed=13, hidden_sizes=(6, 5, 4)), (20, 3, 47)),
    ], ids=["mlp", "lstm"])
    def test_restores_parameter_objects(self, create, shape):
        # train's Adam updates the flat vector, and in-place writes such as
        # zeroed_lstm's go through the parameter arrays, so the check must put
        # back the same objects, still views of the vector, with the same bytes
        rng = np.random.default_rng(13)
        samples, labels = rng.normal(size=shape), rng.normal(size=20)
        model = create()
        before = model.parameters()
        saved = [p.copy() for p in before]
        gradient_check(model, samples[:5], labels[:5])
        after = model.parameters()
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after, before))
        assert all(np.shares_memory(a, model.vector) for a in after)
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

