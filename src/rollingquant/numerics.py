"""From-scratch numerical core.

Hand-written dense feedforward network and stacked LSTM with full analytic
backpropagation, a normal-equations least-squares solver, mini-batch Adam
training, and a central-finite-difference gradient checker. Everything is
float64 and deterministic given seeds.

Each model keeps all its parameters in one flat float64 vector (`vector`),
and every array parameters() returns is a reshaped view into it, so Adam
updates the whole model with one set of elementwise operations per step.
An LSTM layer fuses its four gates: W_a (hidden, 4 hidden), W_x (input,
4 hidden) and B (4 hidden,) hold the gates' columns in c, u, f, o order, so
a time step takes two matmuls forward and three backward, plus one matmul
per layer for the gradient its inputs get.

stack() turns K models of one shape into one stacked model: its vector is
(K, P), row k being model k's, and each parameter is a (K, ...) view. The
forward and backward passes broadcast over that leading axis (a transpose
swaps the last two axes, as numpy 1.24 has no .mT), batches are (K, b, ...),
and member k's numbers are bit for bit those of model k alone, so train()
fits K models in one loop of K-wide steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError, ValidationError

MLP_HIDDEN_SIZES = (32, 20, 10)
LSTM_HIDDEN_SIZES = (32, 16, 8)
SEQUENCE_LENGTH = 3
RIDGE_LAMBDA = 1e-8
# Entries of one parameter tensor perturbed per staged pass in
# gradient_check. A pass keeps no cache, so its memory is the 2 * CHUNK
# perturbed copies and their activations; larger chunks add little speed.
GRADCHECK_CHUNK = 32


def mse(predictions, labels):
    """Mean squared error along the last axis: a float for (b,) inputs, one
    per member for a stack's (K, b)."""
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape:
        raise ValidationError("mse: shape mismatch")
    if predictions.size == 0:
        raise ValidationError("mse: empty input")
    diff = predictions - labels
    loss = np.mean(diff * diff, axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def least_squares_fit(X, y):
    """argmin_w ||Xw - y||^2 via normal equations with a tiny ridge term."""
    # C order: the products' bits depend on X's memory layout
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError("least_squares_fit: shape mismatch")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValidationError("least_squares_fit: non-finite input")
    gram = X.T @ X + RIDGE_LAMBDA * np.eye(X.shape[1])
    return np.linalg.solve(gram, X.T @ y)


def _glorot_uniform(rng, fan_in, fan_out, copies=()):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=copies + (fan_in, fan_out))


def _sigmoid(x):
    """1 / (1 + exp(-x)), computed in one buffer."""
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _flatten(model):
    """Copy the model's parameters into one flat float64 vector and make it
    the model's vector."""
    _bind(model, np.concatenate([slot[key] for slot, key in model._parameter_slots()],
                                axis=None, dtype=float))


def _bind(model, vector):
    """Make vector, (P,) or a stack's (K, P), the model's vector, with a
    reshaped view of it in each parameter slot, in slot order."""
    offset = 0
    for slot, key in model._parameter_slots():
        p = slot[key]
        slot[key] = vector[..., offset:offset + p.size].reshape(vector.shape[:-1] + p.shape)
        offset += p.size
    model.vector = vector


def stack(models):
    """The K models, all of one shape, as one stacked model.

    Its vector is (K, P) with row k a copy of models[k].vector, and each
    parameter a (K, ...) view of it; member k computes what models[k] does.
    The first model becomes the stack; the others are left as they were.
    """
    _bind(models[0], np.stack([m.vector for m in models]))
    return models[0]


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 10
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0

    def validate(self):
        # written so that a NaN fails too
        if not (self.epochs >= 1 and self.batch_size >= 1 and self.learning_rate > 0
                and 0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError("invalid training configuration")


class _StagedModel:
    """The forward pass as a sequence of stages, shared by both models.

    Stage i maps its input to the next stage's input, the last stage's output
    being the predictions, and reads only the parameters in
    _stage_slots()[i]; so gradient_check, which perturbs one stage's
    parameters at a time, can start from that stage's unperturbed input.
    forward composes the stages and _forward_pass records them; each stage
    keeps what its backward reads only when asked to.
    """

    def _parameter_slots(self):
        """(container, key) holding each parameter, in parameters() order."""
        for slots in self._stage_slots():
            yield from slots

    def parameters(self):
        return [slot[key] for slot, key in self._parameter_slots()]

    # each model defines _stage_count(), _stage_slots() (one list per stage),
    # _stage_input(batch) (stage 0's input) and _stage(i, x, keep), which
    # returns (stage i's output, what its backward reads when keep, else None)

    def _run(self, x, first=0):
        """Predictions from stage first's input x, keeping nothing for a backward."""
        for i in range(first, self._stage_count()):
            x = self._stage(i, x, False)[0]
        return x

    def forward(self, batch):
        """Predictions for batch: an MLP's (b, input_dim) or an LSTM's
        (b, T, input_dim) -> (b,); a stack's (K, b, input_dim) or
        (K, b, T, input_dim) -> (K, b)."""
        return self._run(self._stage_input(batch))

    def _forward_pass(self, batch, keep=True):
        """Validate batch; return (each stage's input, what each stage keeps
        for its backward when keep, else Nones, predictions)."""
        x = self._stage_input(batch)
        inputs, kept = [], []
        for i in range(self._stage_count()):
            inputs.append(x)
            x, saved = self._stage(i, x, keep)
            kept.append(saved)
        return inputs, kept, x


class MlpModel(_StagedModel):
    """Dense network, ReLU hidden layers, linear scalar output; one stage per layer."""

    def __init__(self, weights, biases, input_dim):
        self.weights = list(weights)  # (d_in, d_out) views into vector, (K, ...) stacked
        self.biases = list(biases)    # (d_out,) views into vector
        self.input_dim = input_dim
        _flatten(self)

    @classmethod
    def create(cls, seed: int, input_dim: int = 47, hidden_sizes=MLP_HIDDEN_SIZES):
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden_sizes, 1]
        weights = [_glorot_uniform(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
        return cls(weights, biases, input_dim)

    def _stage_count(self):
        return len(self.weights)

    def _stage_slots(self):
        """Per layer, the (container, key) of its weights and biases."""
        return [[(self.weights, i), (self.biases, i)] for i in range(len(self.weights))]

    def member(self, k):
        """Member k of a stacked model, as a model of its own."""
        return MlpModel([w[k] for w in self.weights], [b[k] for b in self.biases],
                        self.input_dim)

    def _stage_input(self, batch):
        """batch, validated: (b, d), or (K, b, d) for a stack."""
        h = np.asarray(batch, dtype=float)
        if h.ndim not in (2, 3) or h.shape[-1] != self.input_dim:
            raise ValidationError(f"MlpModel.forward: expected batch of width {self.input_dim}")
        return h

    def _stage(self, i, h, keep):
        """Layer i on its input h: (its output, its pre-ReLU values when keep).
        The last layer's output is the predictions."""
        h = h @ self.weights[i] + self.biases[i][..., None, :]  # broadcast over the batch
        if i == len(self.weights) - 1:
            return h[..., 0], None
        return np.maximum(h, 0.0), h if keep else None

    def loss_and_gradients(self, batch, labels):
        """(MSE loss, gradients aligned with parameters())."""
        activations, pre_relu, preds = self._forward_pass(batch)
        labels = np.asarray(labels, dtype=float)
        loss = mse(preds, labels)

        grads = [None] * (2 * len(self.weights))
        delta = (2.0 / labels.shape[-1]) * (preds - labels)[..., None]
        for i in range(len(self.weights) - 1, -1, -1):
            grads[2 * i] = activations[i].swapaxes(-1, -2) @ delta
            grads[2 * i + 1] = delta.sum(axis=-2)
            if i > 0:
                delta = (delta @ self.weights[i].swapaxes(-1, -2)) * (pre_relu[i - 1] > 0)
        return loss, grads


class LstmLayer:
    """One recurrent layer: candidate + update/forget/output gates, fused.

    W_a (hidden, 4 hidden), W_x (input, 4 hidden) and B (4 hidden,) are its
    only parameters; gate g's columns start at GATE_NAMES.index(g) * hidden.
    """

    GATE_NAMES = ("c", "u", "f", "o")

    def __init__(self, W_a, W_x, B, input_dim, hidden_dim):
        self.W_a = W_a
        self.W_x = W_x
        self.B = B
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    @classmethod
    def create(cls, rng, input_dim, hidden_dim):
        # one draw per gate in GATE_NAMES order, W_a's before W_x's, so a
        # seed gives the weights it always has
        def fused(fan_in):
            draws = _glorot_uniform(rng, fan_in, hidden_dim, (len(cls.GATE_NAMES),))
            return draws.transpose(1, 0, 2).reshape(fan_in, -1)

        W_a = fused(hidden_dim)
        W_x = fused(input_dim)
        return cls(W_a, W_x, np.zeros(4 * hidden_dim), input_dim, hidden_dim)

    def _parameter_slots(self):
        """(container, key) holding W_a, W_x and B, in that order."""
        yield vars(self), "W_a"
        yield vars(self), "W_x"
        yield vars(self), "B"

    def forward(self, x_seq, keep_cache=True):
        """x_seq: (T, b, input_dim) -> (a_seq (T, b, hidden), cache); the
        cache, which backward reads, is None unless keep_cache.

        Leading axes of stacked parameters broadcast and land between T and b,
        and a later layer accepts such a (T, ..., b, input_dim) sequence.
        """
        h = self.hidden_dim
        a = c = np.zeros(x_seq.shape[1:-1] + (h,))
        B = self.B[..., None, :]  # broadcast over the batch
        cache = [] if keep_cache else None
        for t, x in enumerate(x_seq):
            z = a @ self.W_a + x @ self.W_x + B
            c_tilde = np.tanh(z[..., :h])
            gates = _sigmoid(z[..., h:])
            g_u, g_f, g_o = gates[..., :h], gates[..., h:2 * h], gates[..., 2 * h:]
            c_new = g_u * c_tilde + g_f * c
            tanh_c = np.tanh(c_new)
            if not t:  # the first step's shape has any axes the parameters broadcast
                a_seq = np.empty((len(x_seq),) + tanh_c.shape)
            a_new = np.multiply(g_o, tanh_c, out=a_seq[t])
            if keep_cache:
                cache.append((x, a, c, c_tilde, g_u, g_f, g_o, c_new, tanh_c))
            a, c = a_new, c_new
        return a_seq, cache

    def backward(self, da_seq, cache):
        """da_seq: gradient w.r.t. each step's output a_t, (T, b, hidden) or
        a stack's (T, K, b, hidden).

        Returns (dz_seq, [gW_a, gW_x, gB]): dz_seq[t] is the
        gradient w.r.t. step t's fused pre-activations, so the gradient
        w.r.t. the layer's inputs is dz_seq @ W_x.T.
        """
        h = self.hidden_dim
        dz_seq = np.empty(da_seq.shape[:-1] + (4 * h,))
        W_a_T = self.W_a.swapaxes(-1, -2)
        last = len(cache) - 1
        # the last step starts each sum: nothing flows back into it, and
        # adding zeros would only turn its -0.0 entries into +0.0
        for t in range(last, -1, -1):
            x, a_prev, c_prev, c_tilde, g_u, g_f, g_o, c_new, tanh_c = cache[t]
            da = da_seq[t] if t == last else da_seq[t] + da_next
            dc = da * g_o * (1.0 - tanh_c * tanh_c)
            if t < last:
                dc += dc_next
            dz = dz_seq[t]
            dz[..., :h] = dc * g_u * (1.0 - c_tilde * c_tilde)
            dz[..., h:2 * h] = dc * c_tilde * g_u * (1.0 - g_u)
            dz[..., 2 * h:3 * h] = dc * c_prev * g_f * (1.0 - g_f)
            dz[..., 3 * h:] = da * tanh_c * g_o * (1.0 - g_o)
            dc_next = dc * g_f
            if t == last:
                gW_a = a_prev.swapaxes(-1, -2) @ dz
                gW_x = x.swapaxes(-1, -2) @ dz
                gB = dz.sum(axis=-2)
            else:
                gW_a += a_prev.swapaxes(-1, -2) @ dz
                gW_x += x.swapaxes(-1, -2) @ dz
                gB += dz.sum(axis=-2)
            if t:  # step 0's previous output is the zero initial state
                da_next = dz @ W_a_T
        return dz_seq, [gW_a, gW_x, gB]


class LstmModel(_StagedModel):
    """Three stacked recurrent layers plus an affine scalar read-out.

    The first two layers pass full sequences downstream; the read-out sees
    only the final step of the last layer. Each layer is a stage, and the
    read-out is the last.
    """

    def __init__(self, layers, readout_w, readout_b, input_dim, sequence_length):
        self.layers = layers
        self.readout_w = readout_w  # (hidden_last, 1)
        self.readout_b = readout_b  # (1,)
        self.input_dim = input_dim
        self.sequence_length = sequence_length
        _flatten(self)

    @classmethod
    def create(cls, seed: int, input_dim: int = 47,
               hidden_sizes=LSTM_HIDDEN_SIZES, sequence_length: int = SEQUENCE_LENGTH):
        rng = np.random.default_rng(seed)
        layers = []
        d = input_dim
        for h in hidden_sizes:
            layers.append(LstmLayer.create(rng, d, h))
            d = h
        readout_w = _glorot_uniform(rng, d, 1)
        readout_b = np.zeros(1)
        return cls(layers, readout_w, readout_b, input_dim, sequence_length)

    def _stage_count(self):
        return len(self.layers) + 1

    def _stage_slots(self):
        """Per layer, then for the read-out, the (container, key) of each parameter."""
        return [list(layer._parameter_slots()) for layer in self.layers] \
            + [[(vars(self), "readout_w"), (vars(self), "readout_b")]]

    def member(self, k):
        """Member k of a stacked model, as a model of its own."""
        layers = [LstmLayer(layer.W_a[k], layer.W_x[k], layer.B[k], layer.input_dim,
                            layer.hidden_dim) for layer in self.layers]
        return LstmModel(layers, self.readout_w[k], self.readout_b[k], self.input_dim,
                         self.sequence_length)

    def _stage_input(self, batch):
        """batch ((b, T, d), or (K, b, T, d) for a stack), validated, as the
        first layer's (T, b, d) or (T, K, b, d) sequence."""
        x_seq = np.asarray(batch, dtype=float)
        if x_seq.ndim not in (3, 4) \
                or x_seq.shape[-2:] != (self.sequence_length, self.input_dim):
            raise ValidationError(
                f"LstmModel.forward: expected (batch, {self.sequence_length}, "
                f"{self.input_dim}) input"
            )
        return x_seq.transpose(x_seq.ndim - 2, *range(x_seq.ndim - 2), x_seq.ndim - 1)

    def _stage(self, i, x_seq, keep):
        """Layer i, or the read-out after the last layer, on its input
        sequence: (its output, the layer's cache when keep)."""
        if i < len(self.layers):
            return self.layers[i].forward(x_seq, keep)
        return (x_seq[-1] @ self.readout_w + self.readout_b[..., None, :])[..., 0], None

    def loss_and_gradients(self, batch, labels):
        inputs, caches, preds = self._forward_pass(batch)
        x_seq = inputs[-1]  # the last layer's output sequence
        labels = np.asarray(labels, dtype=float)
        loss = mse(preds, labels)

        dpred = (2.0 / labels.shape[-1]) * (preds - labels)[..., None]
        g_readout_w = x_seq[-1].swapaxes(-1, -2) @ dpred
        g_readout_b = dpred.sum(axis=-2)
        da_seq = np.zeros_like(x_seq)
        da_seq[-1] = dpred @ self.readout_w.swapaxes(-1, -2)
        layer_grads = []
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            dz_seq, grads = layer.backward(da_seq, caches[i])
            layer_grads.append(grads)
            if i:  # the model's input needs no gradient
                da_seq = dz_seq @ layer.W_x.swapaxes(-1, -2)
        grads = []
        for g in reversed(layer_grads):
            grads.extend(g)
        grads.extend((g_readout_w, g_readout_b))
        return loss, grads


def _adam_step(rows, m, v, g_rows, step, config):
    """Adam update number step of each member row of the flat vector from
    that member's flat gradient row.

    Adam is elementwise, so one update of a row gives the same bits as one
    update per parameter array; a row at a time keeps its temporaries small.
    """
    bc1 = 1.0 - config.beta1 ** step
    bc2 = 1.0 - config.beta2 ** step
    for row, m_k, v_k, g in zip(rows, m, v, g_rows):
        m_k *= config.beta1
        m_k += (1.0 - config.beta1) * g
        v_k *= config.beta2
        v_k += (1.0 - config.beta2) * g * g
        row -= config.learning_rate * (m_k / bc1) / (np.sqrt(v_k / bc2) + 1e-8)


def train(model, samples, labels, config: TrainConfig, seeds=None):
    """Mini-batch Adam on the MSE loss; returns (model, per-epoch losses).

    A stacked model trains its K members in lockstep on samples (K, n, ...)
    and labels (K, n), member k drawing its batch order from seeds[k] in
    place of config.seed; losses[k] are its losses. Each member ends with the
    parameters and losses it gets when trained alone, bit for bit. A member
    fails on non-finite labels or on its first non-finite loss (divergence);
    every member still trains to the end, and then the lowest failing
    member's error is raised with its index as `member` (0 for one model).

    Divergence is detected from the losses, so numpy's floating-point
    warnings are silenced here.
    """
    config.validate()
    samples = np.asarray(samples, dtype=float)
    labels = np.asarray(labels, dtype=float)
    lead = model.vector.shape[:-1]  # (K,) for a stack, () for one model
    if seeds is None:
        seeds = () if lead else (config.seed,)
    if labels.shape[:-1] != lead or len(seeds) != math.prod(lead) \
            or samples.shape[:labels.ndim] != labels.shape or labels.shape[-1] == 0:
        raise ValidationError("train: empty or mismatched training set")

    # one model is handled as a stack of one, and given its batches without
    # the stack axis; its loss is the one member's
    def unstacked(a):
        return a if lead else a[0]

    def batch(a, idx):
        """Rows idx[k] of each member k of a."""
        return a[np.arange(len(idx))[:, None], idx] if lead else a[0][idx[0]]

    def per_member(loss):
        return loss if lead else [loss]

    n = labels.shape[-1]
    samples = samples.reshape((len(seeds), n) + samples.shape[labels.ndim:])
    labels = labels.reshape(len(seeds), n)
    rows = model.vector.reshape(len(seeds), -1)
    # each member's first error, the one it raises when trained alone
    errors = [None if np.isfinite(member_labels).all()
              else ValidationError("train: non-finite labels") for member_labels in labels]

    def check(loss, epoch):
        for k, x in enumerate(per_member(loss)):
            if not math.isfinite(x) and errors[k] is None:
                errors[k] = TrainingError(f"training diverged at epoch {epoch + 1}")

    m = np.zeros_like(rows)
    v = np.zeros_like(rows)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    step = 0
    losses = [[] for _ in seeds]
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            orders = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, config.batch_size):
                idx = orders[:, start:start + config.batch_size]
                loss, grads = model.loss_and_gradients(batch(samples, idx), batch(labels, idx))
                check(loss, epoch)
                step += 1
                # a stack's flat gradient rows are made one at a time, as
                # Adam takes them
                g_rows = (np.concatenate([x[k] for x in grads], axis=None)
                          for k in range(len(grads[0]))) if lead \
                    else [np.concatenate(grads, axis=None)]
                _adam_step(rows, m, v, g_rows, step, config)
                del grads, g_rows  # so that the next step's gradients do not coexist with these
            epoch_loss = mse(model.forward(unstacked(samples)), unstacked(labels))
            check(epoch_loss, epoch)
            for member_losses, x in zip(losses, per_member(epoch_loss)):
                member_losses.append(float(x))
    for k, exc in enumerate(errors):
        if exc is not None:
            exc.member = k
            raise exc
    return model, losses if lead else losses[0]


def gradient_check(model, batch, labels, step: float = 1e-5):
    """Max relative error of analytic vs central finite-difference gradients.

    For every entry of every tensor in parameters(), the numeric derivative
    n = (L(+step) - L(-step)) / (2 * step) is the central difference of the
    MSE loss L of model.forward(batch) against labels, with that one entry
    moved by +-step. Its error against the analytic entry a from
    loss_and_gradients is |a - n| / max(1, |a| + |n|); the largest is returned,
    or math.inf if any error is NaN or infinite (an overflowed loss or
    gradient), so that no tolerance passes it. step must be finite and
    non-zero.

    Entries are evaluated a chunk of up to GRADCHECK_CHUNK at a time: a stack
    of 2k perturbed copies of the tensor (+step copies, then -step copies)
    takes the tensor's place, and only the forward's stages from the
    tensor's own onward run, from that stage's unperturbed input (computed
    once per check), broadcasting over the leading copy axis. Each copy thus
    runs the operations forward runs, in the same order, and gets forward's
    predictions bit for bit. The original array object, a view of the
    model's flat vector, is then put back, so every parameter is restored
    exactly: same objects, same contents, even when a stage raises.
    """
    if not (math.isfinite(step) and step != 0.0):
        raise ValidationError("gradient_check: step must be finite and non-zero")
    batch = np.asarray(batch, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if labels.shape != batch.shape[:1]:
        raise ValidationError("gradient_check: labels do not match the batch")
    _, grads = model.loss_and_gradients(batch, labels)
    inputs = model._forward_pass(batch, keep=False)[0]
    tensors = [(stage, slot) for stage, slots in enumerate(model._stage_slots())
               for slot in slots]
    worst = 0.0
    for (stage, (slot, key)), g in zip(tensors, grads, strict=True):
        p = slot[key]
        flat_p = p.reshape(-1)
        n = flat_p.size
        # rows of copies of the tensor, the first 2k of them a chunk's stack
        copies = np.empty((2 * min(n, GRADCHECK_CHUNK), n))
        copies[...] = flat_p
        flat_copies = copies.reshape(-1)
        preds = np.empty((2, n) + labels.shape)  # each entry's +step, then -step predictions
        for start in range(0, n, GRADCHECK_CHUNK):
            k = min(GRADCHECK_CHUNK, n - start)
            # entry start + r, moved up in row r and down in row k + r, and
            # put back after the chunk
            up = flat_copies[start::n + 1][:k]
            down = flat_copies[k * n + start::n + 1][:k]
            up += step
            down -= step
            slot[key] = copies[:2 * k].reshape((2 * k,) + p.shape)
            try:
                preds[:, start:start + k] = model._run(inputs[stage], stage).reshape(2, k, -1)
            finally:
                slot[key] = p
            up[...] = down[...] = flat_p[start:start + k]
        diff = preds - labels
        losses = np.mean(diff * diff, axis=-1)
        numeric = (losses[0] - losses[1]) / (2.0 * step)
        analytic = g.reshape(-1)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
        if not np.isfinite(err).all():
            return math.inf
        worst = float(err.max(initial=worst))
    return worst
