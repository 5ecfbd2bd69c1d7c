"""From-scratch numerical core.

Hand-written dense feedforward network and stacked LSTM with full analytic
backpropagation, a normal-equations least-squares solver, mini-batch Adam
training, and a central-finite-difference gradient checker. Everything is
float64 and deterministic given seeds.

Both models lay out their parameters one way: `stages` holds one list per
stage (an MLP layer's [W, b], an LSTM layer's [W_a, W_x, B], the LSTM
read-out's [w, b]), and each array in it is a reshaped view of the model's
one flat float64 vector (`vector`). The gradients share that layout: a
backward writes them into views of one vector shaped like `vector`, so Adam
updates the whole model from it with one set of elementwise operations per
step. An LSTM layer fuses its four gates: W_a (hidden, 4 hidden), W_x
(input, 4 hidden) and B (4 hidden,) hold the gates' columns in GATE_NAMES
order, so a time step takes two matmuls forward and three backward, plus one
matmul per layer for the gradient its inputs get.

stack() turns K models of one shape into one stacked model, laid out
parameter-major: its flat (K * P,) vector holds each array of parameters()
as its K members' copies back to back, so each parameter and gradient is a
C-contiguous (K, ...) view. The forward and backward passes broadcast over
that leading axis (a transpose swaps the last two axes, as numpy 1.24 has
no .mT), batches are (K, b, ...), and member k's numbers are bit for bit
those of model k alone, so train() fits K models in one loop of K-wide steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError, ValidationError, require

MLP_HIDDEN_SIZES = (32, 20, 10)
LSTM_HIDDEN_SIZES = (32, 16, 8)
RIDGE_LAMBDA = 1e-8
# gradient_check's central-difference step, and the entries of one parameter
# tensor it perturbs per staged pass. A pass keeps no cache, so its memory is
# the 2 * CHUNK perturbed copies and their activations; larger chunks add
# little speed.
GRADCHECK_STEP = 1e-5
GRADCHECK_CHUNK = 32


def mse(predictions, labels):
    """Mean squared error along the last axis: a float for (b,) inputs, one
    per member for a stack's (K, b)."""
    return _mse_and_residual(predictions, labels)[0]


def _mse_and_residual(predictions, labels):
    """(mse(predictions, labels), the residual predictions - labels it is
    taken from); np.add.reduce(...) / n is what np.mean computes, without
    its Python wrapper."""
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape:
        raise ValidationError("mse: shape mismatch")
    if predictions.size == 0:
        raise ValidationError("mse: empty input")
    diff = predictions - labels
    loss = np.add.reduce(diff * diff, axis=-1) / diff.shape[-1]
    return (float(loss) if loss.ndim == 0 else loss), diff


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


def _layout(stages, vector, lead=()):
    """Per stage, consecutive C-contiguous views of the flat vector, one per
    array p of stages in order, shaped lead + p.shape."""
    views, end = [], 0
    for arrays in stages:
        views.append([])
        for p in arrays:
            start, end = end, end + math.prod(lead) * p.size
            views[-1].append(vector[start:end].reshape(lead + p.shape))
    return views


def _bind(model, vector, lead=()):
    """Make the flat vector the model's, its arrays views of it (_layout);
    lead is a stack's (K,), () for one model."""
    model.stages = _layout(model.stages, vector, lead)
    model.vector = vector
    model.lead = lead


def stack(models):
    """The K models, all of one shape, as one stacked model.

    Its flat (K * P,) vector holds, for each array of parameters() in order,
    the K models' copies back to back, and each parameter is a (K, ...) view
    of it; member k computes what models[k] does. The first model becomes
    the stack; the others are left as they were.
    """
    copies = [p for member_copies in zip(*(m.parameters() for m in models)) for p in member_copies]
    _bind(models[0], np.concatenate(copies, axis=None), (len(models),))
    return models[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 10
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0

    def __post_init__(self):
        require(epochs=(self.epochs >= 1, ">= 1"), batch_size=(self.batch_size >= 1, ">= 1"),
                learning_rate=(self.learning_rate > 0, "> 0"),
                beta1=(0 <= self.beta1 < 1, ">= 0 and < 1"),
                beta2=(0 <= self.beta2 < 1, ">= 0 and < 1"))


class _StagedModel:
    """A model as a sequence of stages, its parameters laid out once for both models.

    stages[i] lists stage i's parameter arrays, each a view of the flat
    vector, copied from the given arrays. Stage i maps its input to the next
    stage's input, the last stage's output being the predictions, and reads
    only stages[i]; so gradient_check, which perturbs one stage's parameters
    at a time, can start from that stage's unperturbed input. forward
    composes the stages and _forward_pass records them, with what each
    stage's backward reads when asked; loss_and_gradients runs those.
    """

    def __init__(self, stages):
        self.stages = stages
        _bind(self, np.concatenate(self.parameters(), axis=None, dtype=float))

    def parameters(self):
        return [p for arrays in self.stages for p in arrays]

    def member(self, k):
        """Member k of a stacked model, as a model of its own."""
        return type(self)([[p[k] for p in arrays] for arrays in self.stages])

    # each model defines create, _stage_input(batch) (stage 0's input),
    # _stage(i, x, keep) -> (stage i's output, what its backward reads when
    # keep, else None), and _stage_backward(i, x, kept, grad, out) -> the
    # gradient w.r.t. x (None for stage 0), writing stages[i]'s into out

    def _run(self, x, first=0):
        """Predictions from stage first's input x, keeping nothing for a backward."""
        for i in range(first, len(self.stages)):
            x = self._stage(i, x, False)[0]
        return x

    def forward(self, batch):
        """Predictions for batch: an MLP's (b, d) or an LSTM's (b, T, d) ->
        (b,); a stack's (K, b, d) or (K, b, T, d) -> (K, b)."""
        return self._run(self._stage_input(batch))

    def _forward_pass(self, batch, keep=True):
        """Validate batch; return (each stage's input, what each stage keeps
        for its backward when keep, else Nones, predictions)."""
        x = self._stage_input(batch)
        inputs, kept = [], []
        for i in range(len(self.stages)):
            inputs.append(x)
            x, saved = self._stage(i, x, keep)
            kept.append(saved)
        return inputs, kept, x

    def loss_and_gradients(self, batch, labels, out=None):
        """(MSE loss, gradients aligned with parameters()), written into out's
        per-stage views of a vector laid out as the parameters (_layout), or a
        fresh one's; grad is w.r.t. the output of the next stage back."""
        inputs, kept, preds = self._forward_pass(batch)
        loss, diff = _mse_and_residual(preds, labels)
        if out is None:
            out = _layout(self.stages, np.empty_like(self.vector))
        grad = (2.0 / diff.shape[-1]) * diff[..., None]
        for i in reversed(range(len(inputs))):
            grad = self._stage_backward(i, inputs[i], kept[i], grad, out[i])
        return loss, [g for stage_grads in out for g in stage_grads]


class MlpModel(_StagedModel):
    """Dense network, ReLU hidden layers, linear scalar output; one stage per
    layer, [W (d_in, d_out), b (d_out,)]."""

    @classmethod
    def create(cls, seed: int, input_dim: int = 47, hidden_sizes=MLP_HIDDEN_SIZES):
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden_sizes, 1]
        return cls([[_glorot_uniform(rng, d_in, d_out), np.zeros(d_out)]
                    for d_in, d_out in zip(dims, dims[1:])])

    def _stage_input(self, batch):
        """batch, validated: (b, d), or (K, b, d) for a stack."""
        h = np.asarray(batch, dtype=float)
        d = self.stages[0][0].shape[-2]
        if h.ndim not in (2, 3) or h.shape[-1] != d:
            raise ValidationError(f"MlpModel.forward: expected batch of width {d}")
        return h

    def _stage(self, i, h, keep):
        """Layer i on its input h: (its output, its pre-ReLU values when keep).
        The last layer's output is the predictions."""
        W, b = self.stages[i]
        h = h @ W + b[..., None, :]  # broadcast over the batch
        if i == len(self.stages) - 1:
            return h[..., 0], None
        return np.maximum(h, 0.0), h if keep else None

    def _stage_backward(self, i, h, pre_relu, grad, out):
        """Layer i's backward; grad, w.r.t. its output, is not yet masked by
        the ReLU, and is (..., b, 1) for the last layer."""
        if pre_relu is not None:
            grad = grad * (pre_relu > 0)
        np.matmul(h.swapaxes(-1, -2), grad, out=out[0])
        np.add.reduce(grad, axis=-2, out=out[1])
        return grad @ self.stages[i][0].swapaxes(-1, -2) if i else None


# the fused gates: gate g's columns of an LSTM layer's W_a, W_x and B start
# at GATE_NAMES.index(g) * hidden
GATE_NAMES = ("c", "u", "f", "o")


def _lstm_layer(rng, input_dim, hidden):
    """A new recurrent layer's [W_a (hidden, 4 hidden), W_x (input_dim,
    4 hidden), B (4 hidden,)]: candidate + update/forget/output gates, fused."""
    # one draw per gate in GATE_NAMES order, W_a's before W_x's, so a seed
    # gives the weights it always has
    def fused(fan_in):
        draws = _glorot_uniform(rng, fan_in, hidden, (len(GATE_NAMES),))
        return draws.transpose(1, 0, 2).reshape(fan_in, -1)

    W_a = fused(hidden)
    W_x = fused(input_dim)
    return [W_a, W_x, np.zeros(4 * hidden)]


def _lstm_forward(W_a, W_x, B, x_seq, keep):
    """x_seq: (T, b, input_dim) -> (a_seq (T, b, hidden), cache); the cache,
    which _lstm_backward reads, is None unless keep.

    Leading axes of stacked parameters broadcast and land between T and b,
    and a later layer accepts such a (T, ..., b, input_dim) sequence.
    """
    h = W_a.shape[-2]
    # the state has every lead axis from the start, so z can be summed in place
    lead = np.broadcast_shapes(x_seq.shape[1:-2], W_a.shape[:-2], W_x.shape[:-2], B.shape[:-1])
    a = c = np.zeros(lead + x_seq.shape[-2:-1] + (h,))
    B = B[..., None, :]  # broadcast over the batch
    cache = [] if keep else None
    for t, x in enumerate(x_seq):
        z = a @ W_a
        z += x @ W_x
        z += B
        c_tilde = np.tanh(z[..., :h])
        gates = _sigmoid(z[..., h:])
        g_u, g_f, g_o = gates[..., :h], gates[..., h:2 * h], gates[..., 2 * h:]
        c_new = g_u * c_tilde + g_f * c
        tanh_c = np.tanh(c_new)
        if not t:  # the first step's shape has any axes the parameters broadcast
            a_seq = np.empty((len(x_seq),) + tanh_c.shape)
        a_new = np.multiply(g_o, tanh_c, out=a_seq[t])
        if keep:
            cache.append((x, a, c, c_tilde, g_u, g_f, g_o, c_new, tanh_c))
        a, c = a_new, c_new
    return a_seq, cache


def _lstm_backward(W_a, da_seq, cache, out=(None, None, None)):
    """da_seq: gradient w.r.t. each step's output a_t, (T, b, hidden) or a
    stack's (T, K, b, hidden); cache: the layer's from _lstm_forward.

    Returns (dz_seq, [gW_a, gW_x, gB]): dz_seq[t] is the gradient w.r.t.
    step t's fused pre-activations, so the gradient w.r.t. the layer's
    inputs is dz_seq @ W_x.T. Given out, the gradients are written into it.
    """
    h = W_a.shape[-2]
    dz_seq = np.empty(da_seq.shape[:-1] + (4 * h,))
    W_a_T = W_a.swapaxes(-1, -2)
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
            gW_a = np.matmul(a_prev.swapaxes(-1, -2), dz, out=out[0])
            gW_x = np.matmul(x.swapaxes(-1, -2), dz, out=out[1])
            gB = np.add.reduce(dz, axis=-2, out=out[2])
        else:
            gW_a += a_prev.swapaxes(-1, -2) @ dz
            gW_x += x.swapaxes(-1, -2) @ dz
            gB += np.add.reduce(dz, axis=-2)
        if t:  # step 0's previous output is the zero initial state
            da_next = dz @ W_a_T
    return dz_seq, [gW_a, gW_x, gB]


class LstmModel(_StagedModel):
    """Three stacked recurrent layers plus an affine scalar read-out.

    The first two layers pass full sequences downstream; the read-out sees
    only the final step of the last layer. Each layer is a stage,
    [W_a, W_x, B], and the read-out is the last, [w (hidden_last, 1), b (1,)].
    """

    @classmethod
    def create(cls, seed: int, input_dim: int = 47, hidden_sizes=LSTM_HIDDEN_SIZES):
        rng = np.random.default_rng(seed)
        stages = []
        d = input_dim
        for h in hidden_sizes:
            stages.append(_lstm_layer(rng, d, h))
            d = h
        return cls(stages + [[_glorot_uniform(rng, d, 1), np.zeros(1)]])

    def _stage_input(self, batch):
        """batch ((b, T, d), or (K, b, T, d) for a stack), validated, as the
        first layer's (T, b, d) or (T, K, b, d) sequence."""
        x_seq = np.asarray(batch, dtype=float)
        d = self.stages[0][1].shape[-2]
        if x_seq.ndim not in (3, 4) or x_seq.shape[-1] != d or x_seq.shape[-2] == 0:
            raise ValidationError(f"LstmModel.forward: expected (batch, T >= 1, {d}) input")
        return x_seq.transpose(x_seq.ndim - 2, *range(x_seq.ndim - 2), x_seq.ndim - 1)

    def _stage(self, i, x_seq, keep):
        """Layer i, or the read-out after the last layer, on its input
        sequence: (its output, the layer's cache when keep)."""
        if i < len(self.stages) - 1:
            return _lstm_forward(*self.stages[i], x_seq, keep)
        w, b = self.stages[i]
        return (x_seq[-1] @ w + b[..., None, :])[..., 0], None

    def _stage_backward(self, i, x_seq, cache, grad, out):
        """Layer i's backward on its cache, or the read-out's; grad is
        (T, ..., b, hidden) for a layer, (..., b, 1) for the read-out."""
        if i == len(self.stages) - 1:  # only the last step reaches the read-out
            da_seq = np.zeros_like(x_seq)
            da_seq[-1] = grad @ self.stages[i][0].swapaxes(-1, -2)
            np.matmul(x_seq[-1].swapaxes(-1, -2), grad, out=out[0])
            np.add.reduce(grad, axis=-2, out=out[1])
            return da_seq
        W_a, W_x, _ = self.stages[i]
        dz_seq = _lstm_backward(W_a, grad, cache, out)[0]
        return dz_seq @ W_x.swapaxes(-1, -2) if i else None


def _adam_step(vector, m, v, g, step, config, scratch):
    """Adam update number step of the flat vector from the flat gradient
    vector g, read in place, a chunk as long as scratch at a time.

    Adam is elementwise, so one update of a chunk gives the same bits as one
    update per parameter array. A chunk at a time keeps its temporaries
    small, and they are written into scratch and into each gradient chunk
    once Adam has read it, so an update allocates nothing and overwrites g:
    the next backward writes it anew.
    """
    bc1 = 1.0 - config.beta1 ** step
    bc2 = 1.0 - config.beta2 ** step
    a = scratch
    for start in range(0, len(vector), len(a)):
        chunk = slice(start, start + len(a))
        p, m_k, v_k, g_k = vector[chunk], m[chunk], v[chunk], g[chunk]
        m_k *= config.beta1
        m_k += np.multiply(1.0 - config.beta1, g_k, out=a)
        v_k *= config.beta2
        np.multiply(1.0 - config.beta2, g_k, out=a)
        v_k += np.multiply(a, g_k, out=a)
        # p -= lr * (m_k / bc1) / (sqrt(v_k / bc2) + 1e-8)
        np.multiply(config.learning_rate, np.divide(m_k, bc1, out=a), out=a)
        np.sqrt(np.divide(v_k, bc2, out=g_k), out=g_k)  # g_k is read no more
        g_k += 1e-8
        p -= np.divide(a, g_k, out=a)


def train(model, samples, labels, config: TrainConfig, seeds=None):
    """Mini-batch Adam on the MSE loss; returns (model, per-epoch losses).

    A stacked model trains its K members in lockstep on samples (K, n, ...)
    and labels (K, n), member k drawing its batch order from seeds[k] in
    place of config.seed; losses[k] are its losses. Each member ends with the
    parameters and losses it gets when trained alone, bit for bit. One model
    takes samples (n, ...) and labels (n,), and its batches keep that shape,
    so no matmul of its gets a stack axis. A member fails on non-finite
    labels or on its first non-finite loss (divergence); every member still
    trains to the end, and then the lowest failing member's error is raised
    with its index as `member` (0 for one model). model is trained in place,
    so it holds the trained members either way. Each step's backward writes
    into one flat gradient vector, made per call and laid out as
    model.vector, which Adam then reads and overwrites a member's length at
    a time.

    Divergence is detected from the losses, so numpy's floating-point
    warnings are silenced here.
    """
    samples = np.asarray(samples, dtype=float)
    labels = np.asarray(labels, dtype=float)
    lead = model.lead  # (K,) for a stack, () for one model
    if seeds is None:
        seeds = () if lead else (config.seed,)
    if labels.shape[:-1] != lead or len(seeds) != math.prod(lead) \
            or samples.shape[:labels.ndim] != labels.shape or labels.shape[-1] == 0:
        raise ValidationError("train: empty or mismatched training set")

    n = labels.shape[-1]
    # each member's first error, the one it raises when trained alone
    errors = [None if np.isfinite(member_labels).all()
              else ValidationError("train: non-finite labels")
              for member_labels in labels.reshape(-1, n)]
    members = np.arange(len(seeds))[:, None]

    def check(loss, epoch):
        """loss as one value per member, each member's first non-finite one
        recorded as its error."""
        values = loss if lead else (loss,)
        for k, x in enumerate(values):
            if not math.isfinite(x) and errors[k] is None:
                errors[k] = TrainingError(f"training diverged at epoch {epoch + 1}")
        return values

    m = np.zeros_like(model.vector)
    v = np.zeros_like(model.vector)
    g = np.empty_like(model.vector)
    scratch = np.empty(len(g) // len(seeds))  # one member's length
    out = _layout(model.stages, g)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    step = 0
    losses = [[] for _ in seeds]
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            orders = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, config.batch_size):
                idx = orders[:, start:start + config.batch_size]
                rows = (members, idx) if lead else idx[0]  # rows idx[k] of member k
                check(model.loss_and_gradients(samples[rows], labels[rows], out)[0], epoch)
                step += 1
                _adam_step(model.vector, m, v, g, step, config, scratch)
            epoch_loss = check(mse(model.forward(samples), labels), epoch)
            for member_losses, x in zip(losses, epoch_loss):
                member_losses.append(float(x))
    for k, exc in enumerate(errors):
        if exc is not None:
            exc.member = k
            raise exc
    return model, losses if lead else losses[0]


def gradient_check(model, batch, labels):
    """Max relative error of analytic vs central finite-difference gradients.

    For every entry of every tensor in parameters(), the numeric derivative
    n = (L(+step) - L(-step)) / (2 * step), step being GRADCHECK_STEP, is the
    central difference of the MSE loss L of model.forward(batch) against
    labels, with that one entry moved by +-step. Its error against the
    analytic entry a from loss_and_gradients is |a - n| / max(1, |a| + |n|);
    the largest is returned, or math.inf if any error is NaN or infinite (an
    overflowed loss or gradient), so that no tolerance passes it.

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
    batch = np.asarray(batch, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if labels.shape != batch.shape[:1]:
        raise ValidationError("gradient_check: labels do not match the batch")
    _, grads = model.loss_and_gradients(batch, labels)
    inputs = model._forward_pass(batch, keep=False)[0]
    tensors = [(stage, arrays, j) for stage, arrays in enumerate(model.stages)
               for j in range(len(arrays))]
    worst = 0.0
    for (stage, arrays, j), g in zip(tensors, grads, strict=True):
        p = arrays[j]
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
            up += GRADCHECK_STEP
            down -= GRADCHECK_STEP
            arrays[j] = copies[:2 * k].reshape((2 * k,) + p.shape)
            try:
                preds[:, start:start + k] = model._run(inputs[stage], stage).reshape(2, k, -1)
            finally:
                arrays[j] = p
            up[...] = down[...] = flat_p[start:start + k]
        losses = mse(preds, np.broadcast_to(labels, preds.shape))
        numeric = (losses[0] - losses[1]) / (2.0 * GRADCHECK_STEP)
        analytic = g.reshape(-1)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
        if not np.isfinite(err).all():
            return math.inf
        worst = float(err.max(initial=worst))
    return worst
