"""Solvers, networks, training loop and gradient checking.

Oracles here are deliberately independent implementations: a pseudo-inverse
solver for the least squares fit, scalar-loop evaluators for both network
forward passes, the per-gate LSTM backpropagation the fused gates replaced,
Adam run per parameter array, and the gradient check that ran the whole
forward for every chunk of perturbed entries.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import broken_backward
from rollingquant.errors import TrainingError, ValidationError
from rollingquant.numerics import (
    GRADCHECK_CHUNK,
    LstmLayer,
    LstmModel,
    MlpModel,
    TrainConfig,
    gradient_check,
    least_squares_fit,
    mse,
    stack,
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

    def test_weights_do_not_depend_on_the_layout_of_x(self):
        """A C-ordered, a Fortran-ordered and a strided X give the same bits:
        linreg's 75-by-47 shape, where the layout changed them before."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.normal(0.0, 1.0, size=(75, 47))
            y = rng.normal(0.0, 1.0, size=75)
            strided = np.zeros((75, 94))
            strided[:, ::2] = X
            want = least_squares_fit(X, y).tobytes()
            for layout in (np.asfortranarray(X), strided[:, ::2]):
                assert not layout.flags.c_contiguous
                assert least_squares_fit(layout, y).tobytes() == want


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


def zero_initialised_backward(layer, da_seq, cache):
    """LstmLayer.backward as it was: every sum, and the gradients flowing
    into the last step, start from zero-filled arrays."""
    h = layer.hidden_dim
    gW_a = np.zeros_like(layer.W_a)
    gW_x = np.zeros_like(layer.W_x)
    gB = np.zeros_like(layer.B)
    dz_seq = np.empty(da_seq.shape[:-1] + (4 * h,))
    da_next = np.zeros_like(da_seq[0])
    dc_next = np.zeros_like(da_seq[0])
    W_a_T = layer.W_a.swapaxes(-1, -2)
    for t in range(len(cache) - 1, -1, -1):
        x, a_prev, c_prev, c_tilde, g_u, g_f, g_o, c_new, tanh_c = cache[t]
        da = da_seq[t] + da_next
        dc = da * g_o * (1.0 - tanh_c * tanh_c) + dc_next
        dz = dz_seq[t]
        dz[..., :h] = dc * g_u * (1.0 - c_tilde * c_tilde)
        dz[..., h:2 * h] = dc * c_tilde * g_u * (1.0 - g_u)
        dz[..., 2 * h:3 * h] = dc * c_prev * g_f * (1.0 - g_f)
        dz[..., 3 * h:] = da * tanh_c * g_o * (1.0 - g_o)
        dc_next = dc * g_f
        gW_a += a_prev.swapaxes(-1, -2) @ dz
        gW_x += x.swapaxes(-1, -2) @ dz
        gB += dz.sum(axis=-2)
        if t:
            da_next = dz @ W_a_T
    return dz_seq, [gW_a, gW_x, gB]


def zero_signed_batch(rng, shape):
    """Normal samples whose first two factors are 0.0 and -0.0, so some
    gradient entries are exactly zero."""
    batch = rng.normal(size=shape)
    batch[..., 0], batch[..., 1] = 0.0, -0.0
    return batch


class TestBackwardSums:
    """LstmLayer.backward starts each sum from the last step's terms; only
    the sign of an exactly-zero entry may differ from zero-initialised sums."""

    @pytest.mark.parametrize("k", [None, 6])
    def test_gradients_equal_zero_initialised_sums(self, k, monkeypatch):
        rng = np.random.default_rng(7)
        models = [randomized_lstm(seed) for seed in SEEDS[:k or 1]]
        model = stack(models) if k else models[0]
        lead = (k,) if k else ()
        batch = zero_signed_batch(rng, lead + (10, 3, 47))
        labels = rng.normal(size=lead + (10,)) * 0.1
        loss, grads = model.loss_and_gradients(batch, labels)
        monkeypatch.setattr(LstmLayer, "backward", zero_initialised_backward)
        want_loss, want_grads = model.loss_and_gradients(batch, labels)
        assert np.array_equal(loss, want_loss)
        for g, w in zip(grads, want_grads, strict=True):
            assert g.shape == w.shape and np.array_equal(g, w)
            differ = g.view(np.uint64) != w.view(np.uint64)
            assert (g[differ] == 0.0).all()

    def test_training_is_bit_identical(self, monkeypatch):
        # Adam's first moment starts at +0.0 and its second takes g * g, so
        # the sign of a zero gradient never reaches the parameters
        rng = np.random.default_rng(8)
        samples = zero_signed_batch(rng, (6, 23, 3, 47))
        labels = rng.normal(size=(6, 23)) * 0.1
        config = TrainConfig(epochs=2, batch_size=10, learning_rate=1e-2)

        def trained():
            model = stack([LstmModel.create(seed) for seed in SEEDS[:6]])
            return train(model, samples, labels, config, SEEDS[:6])

        model, losses = trained()
        monkeypatch.setattr(LstmLayer, "backward", zero_initialised_backward)
        want_model, want_losses = trained()
        assert losses == want_losses
        assert model.vector.tobytes() == want_model.vector.tobytes()


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

    def test_divergence_raises(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(10, 47))
        labels = rng.normal(size=10) * 1e150
        model = MlpModel.create(seed=0)
        with pytest.raises(TrainingError, match=r"^training diverged at epoch 1$"):
            train(model, samples, labels,
                  TrainConfig(epochs=50, learning_rate=1e100))


SEEDS = [3 + 10_007 * k for k in range(6)]
STACKABLE = [
    pytest.param(lambda seed: MlpModel.create(seed=seed), (47,), id="mlp"),
    pytest.param(lambda seed: LstmModel.create(seed=seed), (3, 47), id="lstm"),
]


class TestStack:
    """A stack of K models computes, member by member, the bits of K
    separate single models."""

    @pytest.mark.parametrize("k", [1, 2, 6])
    @pytest.mark.parametrize("create,shape", STACKABLE)
    def test_forward_and_gradients_equal_single_models(self, create, shape, k):
        rng = np.random.default_rng(k)
        batches = rng.normal(size=(k, 7) + shape)
        labels = rng.normal(size=(k, 7)) * 0.1
        model = stack([create(seed) for seed in SEEDS[:k]])
        assert model.vector.shape[0] == k
        assert views_of_vector(model)
        predictions = model.forward(batches)
        losses, grads = model.loss_and_gradients(batches, labels)
        for i, seed in enumerate(SEEDS[:k]):
            single = create(seed)
            assert np.array_equal(predictions[i], single.forward(batches[i]))
            loss, single_grads = single.loss_and_gradients(batches[i], labels[i])
            assert losses[i] == loss
            for g, single_g in zip(grads, single_grads, strict=True):
                assert np.array_equal(g[i], single_g)
            assert np.array_equal(model.member(i).vector, single.vector)

    @pytest.mark.parametrize("k", [1, 2, 6])
    @pytest.mark.parametrize("create,shape", STACKABLE)
    def test_train_equals_single_trainings(self, create, shape, k):
        # 23 samples at batch 10: two full batches and a tail of 3 per epoch
        rng = np.random.default_rng(10 + k)
        samples = rng.normal(size=(k, 23) + shape)
        labels = rng.normal(size=(k, 23)) * 0.1
        config = TrainConfig(epochs=3, batch_size=10, learning_rate=1e-2)
        model, losses = train(stack([create(seed) for seed in SEEDS[:k]]), samples, labels,
                              config, SEEDS[:k])
        assert views_of_vector(model)
        for i, seed in enumerate(SEEDS[:k]):
            single, single_losses = train(create(seed), samples[i], labels[i],
                                          dataclasses.replace(config, seed=seed))
            assert losses[i] == single_losses
            assert np.array_equal(model.vector[i], single.vector)
            assert np.array_equal(model.member(i).forward(samples[i]), single.forward(samples[i]))

    def test_needs_one_seed_per_member(self):
        model = stack([MlpModel.create(seed=s) for s in SEEDS[:2]])
        with pytest.raises(ValidationError):
            train(model, np.zeros((2, 5, 47)), np.zeros((2, 5)), TrainConfig(), SEEDS[:3])

    def test_diverging_member_fails_as_alone(self):
        # member 1's inputs are large enough that lr 1e30 overflows its loss;
        # members 0 and 2 train to the end as they do alone, and no
        # RuntimeWarning escapes
        rng = np.random.default_rng(20)
        samples = rng.normal(size=(3, 23, 47)) * np.array([1.0, 1e32, 1.0])[:, None, None]
        labels = rng.normal(size=(3, 23))
        config = TrainConfig(epochs=3, learning_rate=1e30)
        with pytest.raises(TrainingError) as alone:
            train(MlpModel.create(seed=SEEDS[1]), samples[1], labels[1],
                  dataclasses.replace(config, seed=SEEDS[1]))
        model = stack([MlpModel.create(seed=s) for s in SEEDS[:3]])
        with pytest.raises(TrainingError) as stacked:
            train(model, samples, labels, config, SEEDS[:3])
        assert (stacked.value.member, str(stacked.value)) == (1, str(alone.value))
        for i in (0, 2):
            single, _ = train(MlpModel.create(seed=SEEDS[i]), samples[i], labels[i],
                              dataclasses.replace(config, seed=SEEDS[i]))
            assert np.array_equal(model.vector[i], single.vector)

    def test_lowest_failing_member_wins(self, monkeypatch):
        # member 2 fails from step 2 (epoch 1), member 1 from step 8 (epoch 3
        # at three steps an epoch): one by one, member 1 fails first
        loss_and_gradients = MlpModel.loss_and_gradients
        calls = []

        def failing(self, batch, labels):
            loss, grads = loss_and_gradients(self, batch, labels)
            calls.append(None)
            marker = np.asarray(batch)[..., 0, 0]
            fails = (marker == 2.0) & (len(calls) >= 2) | (marker == 1.0) & (len(calls) >= 8)
            return np.where(fails, np.nan, loss), grads

        monkeypatch.setattr(MlpModel, "loss_and_gradients", failing)
        rng = np.random.default_rng(21)
        samples = rng.normal(size=(4, 23, 47))
        samples[1:3, :, 0] = [[1.0], [2.0]]
        labels = rng.normal(size=(4, 23)) * 0.1
        config = TrainConfig(epochs=4)
        alone = []
        for i in (1, 2):
            calls.clear()
            with pytest.raises(TrainingError) as caught:
                train(MlpModel.create(seed=SEEDS[i]), samples[i], labels[i],
                      dataclasses.replace(config, seed=SEEDS[i]))
            alone.append(str(caught.value))
        assert alone == ["training diverged at epoch 3", "training diverged at epoch 1"]
        calls.clear()
        with pytest.raises(TrainingError) as stacked:
            train(stack([MlpModel.create(seed=s) for s in SEEDS[:4]]), samples, labels,
                  config, SEEDS[:4])
        assert (stacked.value.member, str(stacked.value)) == (1, alone[0])

    def test_member_with_non_finite_labels_fails_as_alone(self):
        labels = np.zeros((3, 4))
        labels[2, 1] = math.inf
        model = stack([MlpModel.create(seed=s) for s in SEEDS[:3]])
        with pytest.raises(ValidationError, match="non-finite labels") as caught:
            train(model, np.zeros((3, 4, 47)), labels, TrainConfig(epochs=1), SEEDS[:3])
        assert caught.value.member == 2


FORWARD_MODELS = [
    pytest.param(lambda seed: MlpModel.create(seed=seed), (47,), id="mlp"),
    *(pytest.param(lambda seed, t=t: LstmModel.create(seed=seed, sequence_length=t), (t, 47),
                   id=f"lstm-T{t}") for t in (1, 2, 3)),
]


class TestForwardEqualsTrainingPass:
    """forward, which keeps nothing for a backward, gives the predictions of
    the pass loss_and_gradients records, bit for bit."""

    @pytest.mark.parametrize("rows", [0, 7])
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("create,shape", FORWARD_MODELS)
    def test_forward_bits_equal_recorded_pass(self, create, shape, k, rows):
        lead = (k,) if k else ()
        model = stack([create(seed) for seed in SEEDS[:k]]) if k else create(SEEDS[0])
        batch = np.random.default_rng(rows).normal(size=lead + (rows,) + shape)
        got = model.forward(batch)
        assert got.shape == lead + (rows,)
        assert got.tobytes() == model._forward_pass(batch)[2].tobytes()


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.0), ("beta2", 1.0), ("beta1", -0.5), ("beta2", -0.5), ("beta1", math.nan),
    ])
    def test_moment_decay_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValidationError, match="invalid training configuration"):
            TrainConfig(**{field: value}).validate()

    def test_zero_moment_decay_accepted(self):
        TrainConfig(beta1=0.0, beta2=0.0).validate()


def oracle_gradient_check(model, batch, labels, step=1e-5):
    """gradient_check as it was before it was staged: model.forward, every
    stage of it, for each chunk of perturbed entries, and the errors chunk
    by chunk."""
    batch = np.asarray(batch, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _, grads = model.loss_and_gradients(batch, labels)
    worst = 0.0
    for (slot, key), g in zip(model._parameter_slots(), grads):
        p = slot[key]
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for start in range(0, flat_p.size, GRADCHECK_CHUNK):
            idx = np.arange(start, min(start + GRADCHECK_CHUNK, flat_p.size))
            k = len(idx)
            copies = np.tile(flat_p, (2 * k, 1))
            copies[np.arange(k), idx] = flat_p[idx] + step
            copies[np.arange(k, 2 * k), idx] = flat_p[idx] - step
            slot[key] = copies.reshape((2 * k,) + p.shape)
            try:
                diff = model.forward(batch) - labels
            finally:
                slot[key] = p
            losses = np.mean(diff * diff, axis=-1)
            numeric = (losses[:k] - losses[k:]) / (2.0 * step)
            analytic = flat_g[idx]
            err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
            if not np.isfinite(err).all():
                return math.inf
            worst = max(worst, float(err.max()))
    return worst


class TestStagedCheckEqualsOracle:
    """The staged check returns the oracle's float, by ==: each perturbed
    copy runs the operations forward runs, in the same order. (The overflow
    and corruption cases are in TestGradientCheck.)"""

    @pytest.mark.parametrize("seed", range(10))
    def test_criterion_1_seeds(self, seed):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(5, 47))
        labels = rng.normal(size=5) * 0.05
        seq = rng.normal(size=(5, 3, 47))
        for create, x in ((lambda: MlpModel.create(seed=seed), batch),
                          (lambda: LstmModel.create(seed=seed, hidden_sizes=(6, 5, 4)), seq)):
            assert gradient_check(create(), x, labels) \
                == oracle_gradient_check(create(), x, labels)

    @pytest.mark.parametrize("create,shape", [
        (lambda: LstmModel.create(seed=11), (5, 3, 47)),
        (lambda: MlpModel.create(seed=14, input_dim=3, hidden_sizes=(2,)), (4, 3)),
    ], ids=["full-lstm", "mlp-3-2-1"])
    def test_models(self, create, shape):
        rng = np.random.default_rng(11)
        batch, labels = rng.normal(size=shape), rng.normal(size=shape[0])
        assert gradient_check(create(), batch, labels) \
            == oracle_gradient_check(create(), batch, labels)


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
        err = gradient_check(model, batch, labels)
        assert err > 1e-3
        assert err == oracle_gradient_check(model, batch, labels)

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

    @pytest.mark.parametrize("create,shape", [
        (lambda: MlpModel.create(seed=13), (5, 47)),
        (lambda: LstmModel.create(seed=13, hidden_sizes=(6, 5, 4)), (5, 3, 47)),
    ], ids=["mlp", "lstm"])
    def test_restores_parameters_when_a_stage_raises(self, create, shape, monkeypatch):
        rng = np.random.default_rng(13)
        batch, labels = rng.normal(size=shape), rng.normal(size=shape[0])
        model = create()
        before = model.parameters()
        saved = [p.copy() for p in before]
        stage = type(model)._stage
        perturbed_calls = []

        def failing(self, i, x, keep):
            # the sixth stage run with a perturbed tensor in place: the second
            # stage of the second chunk
            if any(a is not b for a, b in zip(self.parameters(), before)):
                perturbed_calls.append(i)
                if len(perturbed_calls) == 6:
                    raise RuntimeError("stage failed")
            return stage(self, i, x, keep)

        monkeypatch.setattr(type(model), "_stage", failing)
        with pytest.raises(RuntimeError, match="stage failed"):
            gradient_check(model, batch, labels)
        assert perturbed_calls[-1] == 1
        after = model.parameters()
        assert all(a is b for a, b in zip(after, before, strict=True))
        assert all(np.shares_memory(a, model.vector) for a in after)
        assert all(a.tobytes() == s.tobytes() for a, s in zip(after, saved))

    def test_non_finite_error_fails(self):
        # weights of 1e200 overflow the loss; a NaN error must not pass as 0.0
        model = MlpModel.create(seed=14, input_dim=3, hidden_sizes=(2,))
        for w in model.weights:
            w[...] = 1e200
        rng = np.random.default_rng(14)
        batch, labels = rng.normal(size=(4, 3)), rng.normal(size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            err = gradient_check(model, batch, labels)
            assert oracle_gradient_check(model, batch, labels) == err
        assert err == math.inf

    @pytest.mark.parametrize("step", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_zero_or_non_finite_step_rejected(self, step):
        # a step of 0 would divide 0 by 0 and report every gradient wrong
        rng = np.random.default_rng(15)
        model = MlpModel.create(seed=15, input_dim=3, hidden_sizes=(2,))
        with pytest.raises(ValidationError, match="step must be finite and non-zero"):
            gradient_check(model, rng.normal(size=(4, 3)), rng.normal(size=4), step=step)

    def test_single_weight_closed_form(self):
        # loss (wx - y)^2 has derivative 2wx^2 - 2xy
        w, x, y = 1.5, 2.0, 0.5
        model = MlpModel(weights=[np.array([[w]])], biases=[np.zeros(1)], input_dim=1)
        _, grads = model.loss_and_gradients(np.array([[x]]), np.array([y]))
        assert grads[0][0, 0] == pytest.approx(2 * w * x * x - 2 * x * y, abs=1e-15)

