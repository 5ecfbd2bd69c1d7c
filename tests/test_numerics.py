"""Solvers, networks, training loop and gradient checking.

Oracles here are deliberately independent implementations: a pseudo-inverse
solver for the least squares fit, scalar-loop evaluators for both network
forward passes, the per-gate LSTM backpropagation the fused gates replaced,
both models' backward passes as they were before they were staged,
Adam run per parameter array, and the gradient check that ran the whole
forward for every chunk of perturbed entries.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import broken_backward
from rollingquant import numerics
from rollingquant.errors import ConfigError, TrainingError, ValidationError
from rollingquant.numerics import (
    GATE_NAMES,
    GRADCHECK_CHUNK,
    LstmModel,
    MlpModel,
    TrainConfig,
    _lstm_backward,
    _lstm_forward,
    _lstm_layer,
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

    def test_empty_batch_rejected(self, model, batch_shape):
        with pytest.raises(ValidationError, match="mse: empty input"):
            model.loss_and_gradients(np.zeros((0,) + batch_shape[1:]), np.zeros(0))

    def test_stack_losses_are_each_members_mse(self, model, batch_shape):
        rng = np.random.default_rng(2)
        batches, labels = rng.normal(size=(3,) + batch_shape), rng.normal(size=(3, 5))
        stacked = stack([type(model).create(seed) for seed in range(3)])
        losses, _ = stacked.loss_and_gradients(batches, labels)
        predictions = stacked.forward(batches)
        assert losses.shape == (3,)
        for k in range(3):
            assert losses[k] == mse(predictions[k], labels[k])


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
    last = len(model.stages) - 1
    for i, (w, b) in enumerate(model.stages):
        out = []
        for j in range(w.shape[1]):
            z = b[j] + sum(h[k] * w[k, j] for k in range(w.shape[0]))
            out.append(z if i == last else max(z, 0.0))
        h = out
    return h[0]


def gate(fused, name):
    """Writable view of gate name's columns of one of a layer's fused arrays
    (W_a, W_x or B), each 4 hidden wide."""
    h = fused.shape[-1] // len(GATE_NAMES)
    i = GATE_NAMES.index(name)
    return fused[..., i * h:(i + 1) * h]


def scalar_lstm_oracle(model, sequence):
    """One 3-step sequence through the stacked recurrence, scalar loops."""
    seq = [list(step) for step in sequence]
    for W_a, W_x, B in model.stages[:-1]:
        h = W_a.shape[-2]
        a = [0.0] * h
        c = [0.0] * h
        outputs = []
        for x in seq:
            def affine(g, j):
                w_a, w_x = gate(W_a, g), gate(W_x, g)
                z = gate(B, g)[j]
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
    readout_w, readout_b = model.stages[-1]
    return readout_b[0] + sum(v * readout_w[k, 0] for k, v in enumerate(final))


class TestMlpForward:
    def test_zero_parameters_zero_output(self):
        model = MlpModel.create(seed=0)
        for w, _ in model.stages:
            w[:] = 0.0
        batch = np.random.default_rng(0).normal(size=(4, 47))
        assert np.array_equal(model.forward(batch), np.zeros(4))

    def test_relu_clamps_negative_preactivation(self):
        model = MlpModel([[np.array([[1.0]]), np.zeros(1)], [np.array([[1.0]]), np.zeros(1)]])
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
    for W_a, W_x, B in model.stages[:-1]:
        W_a[:] = 0.0
        W_x[:] = 0.0
        B[:] = 0.0
    model.stages[-1][0][:] = 0.0
    return model


class TestLstmForward:
    def test_zero_parameters_yield_readout_bias(self):
        model = zeroed_lstm()
        model.stages[-1][1][0] = 0.75
        batch = np.random.default_rng(0).normal(size=(5, 3, 47))
        assert np.allclose(model.forward(batch), 0.75, atol=1e-15)

    def test_gate_saturation(self):
        # update gate pinned open, forget gate pinned shut: c_1 = c-tilde_1
        rng = np.random.default_rng(4)
        W_a, W_x, B = _lstm_layer(rng, 47, 8)
        W_a[:] = 0.0
        gate(W_x, "u")[:] = 0.0
        gate(W_x, "f")[:] = 0.0
        gate(B, "u")[:] = 50.0
        gate(B, "f")[:] = -50.0
        x_seq = rng.normal(size=(1, 2, 47))
        _, cache = _lstm_forward(W_a, W_x, B, x_seq, True)
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
        for shape in [(2, 3, 46), (2, 47), (2, 0, 47)]:  # width 46, 2-D, T = 0
            with pytest.raises(ValidationError, match=r"expected \(batch, T >= 1, 47\)"):
                model.forward(np.zeros(shape))
        # no parameter depends on T, so T = 4 runs as T = 3 does
        assert model.forward(np.zeros((2, 4, 47))).shape == (2,)

    def test_one_model_forwards_each_length(self):
        model = LstmModel.create(seed=SEEDS[0])
        stacked = stack([LstmModel.create(seed=s) for s in SEEDS[:3]])
        for t in (1, 2, 3, 5):
            batch = np.random.default_rng(t).normal(size=(4, t, 47))
            got = model.forward(batch)
            assert got.tobytes() == model._forward_pass(batch)[2].tobytes()
            for k, seed in enumerate(SEEDS[:3]):
                assert stacked.member(k).forward(batch).tobytes() \
                    == LstmModel.create(seed=seed).forward(batch).tobytes()


def per_gate_loss_and_gradients(model, batch, labels):
    """The LSTM pass with one matmul per gate, as before the gates were fused.

    Returns (predictions, loss, grads): grads per layer as the W_a, W_x and B
    columns of each gate in GATE_NAMES order, then the read-out's two.
    """
    x_seq = np.transpose(np.asarray(batch, dtype=float), (1, 0, 2))
    params, caches = [], []
    for W_a, W_x, B in model.stages[:-1]:
        w_a = {g: np.ascontiguousarray(gate(W_a, g)) for g in GATE_NAMES}
        w_x = {g: np.ascontiguousarray(gate(W_x, g)) for g in GATE_NAMES}
        b = {g: gate(B, g).copy() for g in GATE_NAMES}
        params.append((w_a, w_x, b))
        a = np.zeros(x_seq.shape[1:-1] + (W_a.shape[-2],))
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
    readout_w, readout_b = model.stages[-1]
    preds = (final @ readout_w + readout_b)[:, 0]
    labels = np.asarray(labels, dtype=float)
    loss = float(np.mean((preds - labels) ** 2))

    dpred = (2.0 / len(labels)) * (preds - labels)[:, None]
    da_seq = np.zeros_like(x_seq)
    da_seq[-1] = dpred @ readout_w.T
    layer_grads = []
    for (w_a, w_x, b), cache in zip(reversed(params), reversed(caches)):
        gw_a = {g: np.zeros_like(w_a[g]) for g in GATE_NAMES}
        gw_x = {g: np.zeros_like(w_x[g]) for g in GATE_NAMES}
        gb = {g: np.zeros_like(b[g]) for g in GATE_NAMES}
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
            for g in GATE_NAMES:
                gw_a[g] += a_prev.T @ dz[g]
                gw_x[g] += x.T @ dz[g]
                gb[g] += dz[g].sum(axis=0)
                da_next += dz[g] @ w_a[g].T
                dx += dz[g] @ w_x[g].T
            dx_seq[t] = dx
        layer_grads.append([t for g in GATE_NAMES for t in (gw_a[g], gw_x[g], gb[g])])
        da_seq = dx_seq
    grads = [t for layer in reversed(layer_grads) for t in layer]
    return preds, loss, grads + [final.T @ dpred, dpred.sum(axis=0)]


def per_gate_split(model, grads):
    """Fused gradients re-cut into per_gate_loss_and_gradients' order."""
    out = []
    layers = len(model.stages) - 1
    for i in range(layers):
        fused = grads[3 * i:3 * i + 3]
        for g in GATE_NAMES:
            out.extend(gate(f, g) for f in fused)
    return out + list(grads[3 * layers:])


def randomized_lstm(seed):
    """A default-size LSTM whose biases are not zero."""
    model = LstmModel.create(seed=seed)
    rng = np.random.default_rng(seed)
    for _, _, B in model.stages[:-1]:
        B[:] = rng.normal(0.0, 0.3, size=B.shape)
    model.stages[-1][1][:] = 0.1
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
        assert len(got) == len(want_grads) == 12 * (len(model.stages) - 1) + 2
        for g, w in zip(got, want_grads):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("b", [1, 2, 7, 300])
    def test_forward_bits_match_per_gate_oracle(self, b):
        model = randomized_lstm(3)
        batch = np.random.default_rng(b).normal(size=(b, 3, 47))
        assert np.array_equal(model.forward(batch),
                              per_gate_loss_and_gradients(model, batch, np.zeros(b))[0])


def zero_initialised_backward(W_a, da_seq, cache, out):
    """_lstm_backward as it was: every sum, and the gradients flowing into
    the last step, start from zero-filled arrays, here out's, shaped as W_a,
    W_x and B."""
    h = W_a.shape[-2]
    gW_a, gW_x, gB = out
    for g in out:
        g[...] = 0.0
    dz_seq = np.empty(da_seq.shape[:-1] + (4 * h,))
    da_next = np.zeros_like(da_seq[0])
    dc_next = np.zeros_like(da_seq[0])
    W_a_T = W_a.swapaxes(-1, -2)
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
    """_lstm_backward starts each sum from the last step's terms; only
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
        monkeypatch.setattr(numerics, "_lstm_backward", zero_initialised_backward)
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
        monkeypatch.setattr(numerics, "_lstm_backward", zero_initialised_backward)
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


ADAM_MODELS = [
    pytest.param(lambda seed: MlpModel.create(seed=seed), (60, 47), id="mlp"),
    pytest.param(lambda seed: LstmModel.create(seed=seed, hidden_sizes=(6, 5, 4)), (60, 3, 47),
                 id="lstm"),
]


class TestFlatAdam:
    @pytest.mark.parametrize("create,shape", ADAM_MODELS)
    def test_bits_equal_per_tensor_adam(self, create, shape):
        # Adam is elementwise: one update of the flat vector is the same
        # arithmetic, entry by entry, as one update per parameter array
        rng = np.random.default_rng(15)
        samples, labels = rng.normal(size=shape), rng.normal(size=shape[0]) * 0.1
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2, seed=4)
        model, losses = train(create(15), samples, labels, config)
        oracle = create(15)
        assert losses == per_tensor_adam(oracle, samples, labels, config)
        for p, q in zip(model.parameters(), oracle.parameters()):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("create,shape", ADAM_MODELS)
    def test_stack_bits_equal_per_tensor_adam_per_member(self, create, shape):
        # the stack's Adam walks its parameter-major vector a member's length
        # at a time, so each chunk mixes members; each member still ends with
        # the bits of per-array Adam on it alone
        rng = np.random.default_rng(18)
        samples, labels = rng.normal(size=(3,) + shape), rng.normal(size=(3, shape[0])) * 0.1
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2)
        seeds = SEEDS[:3]
        model, losses = train(stack([create(seed) for seed in seeds]), samples, labels,
                              config, seeds)
        for k, seed in enumerate(seeds):
            oracle = create(seed)
            assert losses[k] == per_tensor_adam(oracle, samples[k], labels[k],
                                                 dataclasses.replace(config, seed=seed))
            for p, q in zip(model.parameters(), oracle.parameters(), strict=True):
                assert np.array_equal(p[k], q)


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
        for w, _ in model.stages:
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
        # the one model is member 0, whichever of its labels is not finite
        model = MlpModel.create(seed=0)
        with pytest.raises(ValidationError, match="non-finite labels") as caught:
            train(model, np.zeros((3, 47)), np.array([1.0, 2.0, math.nan]), TrainConfig())
        assert caught.value.member == 0
        assert model.lead == ()

    def test_one_model_trains_on_batches_without_a_stack_axis(self, monkeypatch):
        calls = []
        loss_and_gradients, forward = MlpModel.loss_and_gradients, MlpModel.forward

        def recording_loss(self, batch, labels, out=None):
            calls.append((self.lead, batch.shape, labels.shape))
            return loss_and_gradients(self, batch, labels, out)

        def recording_forward(self, batch):
            calls.append((self.lead, batch.shape))
            return forward(self, batch)

        monkeypatch.setattr(MlpModel, "loss_and_gradients", recording_loss)
        monkeypatch.setattr(MlpModel, "forward", recording_forward)
        train(MlpModel.create(seed=0), np.zeros((7, 47)), np.zeros(7),
              TrainConfig(epochs=1, batch_size=4))
        assert calls == [((), (4, 47), (4,)), ((), (3, 47), (3,)), ((), (7, 47))]

    def test_divergence_raises(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(10, 47))
        labels = rng.normal(size=10) * 1e150
        model = MlpModel.create(seed=0)
        with pytest.raises(TrainingError, match=r"^training diverged at epoch 1$") as caught:
            train(model, samples, labels,
                  TrainConfig(epochs=50, learning_rate=1e100))
        assert caught.value.member == 0
        assert model.lead == ()


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
        assert model.lead == (k,) and model.vector.shape == (k * create(SEEDS[0]).vector.size,)
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
            assert np.array_equal(model.member(i).vector, single.vector)
            assert np.array_equal(model.member(i).forward(samples[i]), single.forward(samples[i]))

    @pytest.mark.parametrize("create,shape", STACKABLE)
    def test_member_is_a_model_of_its_own(self, create, shape):
        model = stack([create(seed) for seed in SEEDS[:3]])
        stacked = model.vector.copy()
        for k, seed in enumerate(SEEDS[:3]):
            member = model.member(k)
            assert type(member) is type(model)
            assert views_of_vector(member)
            assert not np.shares_memory(member.vector, model.vector)
            assert member.vector.tobytes() == create(seed).vector.tobytes()
            assert [p.shape for p in member.parameters()] \
                == [p.shape for p in create(seed).parameters()]
            for p in member.parameters():
                p[...] = 7.0
            assert (member.vector == 7.0).all()
            assert model.vector.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 6])
    @pytest.mark.parametrize("create,shape", STACKABLE)
    def test_stacked_arrays_are_contiguous(self, create, shape, k):
        # parameter-major: each array's K member copies lie back to back, so
        # every (K, ...) parameter and gradient is one C-contiguous block
        rng = np.random.default_rng(40 + k)
        batches, labels = rng.normal(size=(k, 7) + shape), rng.normal(size=(k, 7)) * 0.1
        model = stack([create(seed) for seed in SEEDS[:k]])
        given = np.empty_like(model.vector)
        grads_into_given = model.loss_and_gradients(
            batches, labels, numerics._layout(model.stages, given))[1]
        fresh = model.loss_and_gradients(batches, labels)[1]
        shapes = [(k,) + p.shape for p in create(SEEDS[0]).parameters()]
        for arrays, vector in [(model.parameters(), model.vector),
                               (grads_into_given, given), (fresh, fresh[0].base)]:
            assert [a.shape for a in arrays] == shapes
            assert all(a.flags.c_contiguous for a in arrays)
            # numbered entries come back in vector order from the arrays in turn
            vector[...] = np.arange(vector.size)
            assert np.array_equal(np.concatenate([a.reshape(-1) for a in arrays]), vector)

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
            assert np.array_equal(model.member(i).vector, single.vector)

    def test_lowest_failing_member_wins(self, monkeypatch):
        # member 2 fails from step 2 (epoch 1), member 1 from step 8 (epoch 3
        # at three steps an epoch): one by one, member 1 fails first
        loss_and_gradients = MlpModel.loss_and_gradients
        calls = []

        def failing(self, batch, labels, out=None):
            loss, grads = loss_and_gradients(self, batch, labels, out)
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


class TestGradientLayout:
    """loss_and_gradients writes the gradients into one vector shaped like
    model.vector and laid out as parameters() lays out the parameters."""

    @staticmethod
    def task(create, shape, k):
        lead = (k,) if k else ()
        model = stack([create(seed) for seed in SEEDS[:k]]) if k else create(SEEDS[0])
        rng = np.random.default_rng(30)
        return model, rng.normal(size=lead + (7,) + shape), rng.normal(size=lead + (7,)) * 0.1

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("create,shape", STACKABLE)
    def test_gradients_are_views_of_one_vector(self, create, shape, k):
        model, batch, labels = self.task(create, shape, k)
        grads = model.loss_and_gradients(batch, labels)[1]
        vector = grads[0].base
        assert vector.shape == model.vector.shape
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
        assert all(np.shares_memory(g, vector) for g in grads)
        # numbered entries come back in vector order from the views in turn
        vector[...] = np.arange(vector.size)
        assert np.array_equal(np.concatenate([g.reshape(-1) for g in grads]), vector)

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("create,shape", STACKABLE)
    def test_calls_without_out_share_no_memory(self, create, shape, k):
        model, batch, labels = self.task(create, shape, k)
        first = model.loss_and_gradients(batch, labels)[1]
        second = model.loss_and_gradients(batch, labels)[1]
        assert not any(np.shares_memory(g, h) for g in first for h in second)
        assert not any(np.shares_memory(g, p) for g in first for p in model.parameters())

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("create,shape", STACKABLE)
    def test_call_with_out_writes_into_it(self, create, shape, k):
        model, batch, labels = self.task(create, shape, k)
        vector = np.full_like(model.vector, np.nan)
        out = numerics._layout(model.stages, vector)
        loss, grads = model.loss_and_gradients(batch, labels, out)
        want_loss, want_grads = model.loss_and_gradients(batch, labels)
        assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
        assert all(g is o for g, o in zip(grads, [o for stage in out for o in stage],
                                          strict=True))
        assert not np.isnan(vector).any()
        for g, w in zip(grads, want_grads, strict=True):
            assert g.tobytes() == w.tobytes()


FORWARD_MODELS = [
    pytest.param(lambda seed: MlpModel.create(seed=seed), (47,), id="mlp"),
    *(pytest.param(lambda seed: LstmModel.create(seed=seed), (t, 47), id=f"lstm-T{t}")
      for t in (1, 2, 3)),
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


def oracle_loss_and_gradients(model, batch, labels):
    """loss_and_gradients as each model wrote it before the backward pass
    was staged: the MLP's delta loop and the LSTM's read-out then layers,
    each building its gradient list by hand."""
    inputs, kept, preds = model._forward_pass(batch)
    labels = np.asarray(labels, dtype=float)
    loss = mse(preds, labels)
    if isinstance(model, MlpModel):
        activations, pre_relu = inputs, kept
        grads = [None] * (2 * len(model.stages))
        delta = (2.0 / labels.shape[-1]) * (preds - labels)[..., None]
        for i in range(len(model.stages) - 1, -1, -1):
            grads[2 * i] = activations[i].swapaxes(-1, -2) @ delta
            grads[2 * i + 1] = delta.sum(axis=-2)
            if i > 0:
                delta = (delta @ model.stages[i][0].swapaxes(-1, -2)) * (pre_relu[i - 1] > 0)
        return loss, grads

    x_seq = inputs[-1]  # the last layer's output sequence
    dpred = (2.0 / labels.shape[-1]) * (preds - labels)[..., None]
    g_readout_w = x_seq[-1].swapaxes(-1, -2) @ dpred
    g_readout_b = dpred.sum(axis=-2)
    da_seq = np.zeros_like(x_seq)
    da_seq[-1] = dpred @ model.stages[-1][0].swapaxes(-1, -2)
    layer_grads = []
    for i in range(len(model.stages) - 2, -1, -1):
        W_a, W_x, _ = model.stages[i]
        dz_seq, grads = _lstm_backward(W_a, da_seq, kept[i])
        layer_grads.append(grads)
        if i:  # the model's input needs no gradient
            da_seq = dz_seq @ W_x.swapaxes(-1, -2)
    grads = []
    for g in reversed(layer_grads):
        grads.extend(g)
    grads.extend((g_readout_w, g_readout_b))
    return loss, grads


class TestStagedBackwardEqualsOracle:
    """The staged backward gives the oracle's loss and gradients, bit for bit."""

    @pytest.mark.parametrize("rows,signed_zeros", [(1, False), (10, False), (10, True)])
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("create,shape", FORWARD_MODELS)
    def test_bits_equal_oracle(self, create, shape, k, rows, signed_zeros):
        lead = (k,) if k else ()
        model = stack([create(seed) for seed in SEEDS[:k]]) if k else create(SEEDS[0])
        rng = np.random.default_rng(rows)
        size = lead + (rows,) + shape
        batch = zero_signed_batch(rng, size) if signed_zeros else rng.normal(size=size)
        labels = rng.normal(size=lead + (rows,)) * 0.1
        loss, grads = model.loss_and_gradients(batch, labels)
        want_loss, want_grads = oracle_loss_and_gradients(model, batch, labels)
        assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
        assert len(grads) == len(want_grads) == len(model.parameters())
        for g, w, p in zip(grads, want_grads, model.parameters(), strict=True):
            assert g.shape == w.shape == p.shape
            assert g.tobytes() == w.tobytes()


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.0), ("beta2", 1.0), ("beta1", -0.5), ("beta2", -0.5), ("beta1", math.nan),
    ])
    def test_moment_decay_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field}: must be >= 0 and < 1$"):
            TrainConfig(**{field: value})

    def test_zero_moment_decay_accepted(self):
        config = TrainConfig(beta1=0.0, beta2=0.0)
        assert (config.beta1, config.beta2) == (0.0, 0.0)


def oracle_gradient_check(model, batch, labels, step=1e-5):
    """gradient_check as it was before it was staged: model.forward, every
    stage of it, for each chunk of perturbed entries, and the errors chunk
    by chunk."""
    batch = np.asarray(batch, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _, grads = model.loss_and_gradients(batch, labels)
    worst = 0.0
    slots = [(arrays, j) for arrays in model.stages for j in range(len(arrays))]
    for (slot, key), g in zip(slots, grads):
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
        for w, _ in model.stages:
            w[...] = 1e200
        rng = np.random.default_rng(14)
        batch, labels = rng.normal(size=(4, 3)), rng.normal(size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            err = gradient_check(model, batch, labels)
            assert oracle_gradient_check(model, batch, labels) == err
        assert err == math.inf

    def test_single_weight_closed_form(self):
        # loss (wx - y)^2 has derivative 2wx^2 - 2xy
        w, x, y = 1.5, 2.0, 0.5
        model = MlpModel([[np.array([[w]]), np.zeros(1)]])
        _, grads = model.loss_and_gradients(np.array([[x]]), np.array([y]))
        assert grads[0][0, 0] == pytest.approx(2 * w * x * x - 2 * x * y, abs=1e-15)

