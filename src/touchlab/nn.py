"""Dense-network engine: forward, cross-entropy backprop and Adam.

One engine serves every classifier: a trunk of activated dense layers
read out by one softmax layer or by named softmax heads.  A model's weights
and biases are views into one contiguous float64 vector, and so are their
gradients, so Adam is a few in-place ufunc calls over the whole vector.
``replicas`` stacks copies along a leading axis that start from the same
draws and train side by side, one learning rate each.  Everything is
deterministic: one (dataset, spec, config) tuple reproduces bit-identical
weights, and replica r of a stacked fit equals the same fit run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors

RELU = "relu"
TANH = "tanh"

#: Adam's moment decay rates and denominator guard (Kingma & Ba's
#: defaults), and the central-difference step of ``grad_check``.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
GRAD_CHECK_H = 1e-5


@dataclass(frozen=True)
class MlpSpec:
    """Network shape: layer sizes from input to output, hidden activation,
    and named heads.  With ``heads`` (head name -> width, e.g.
    ``{"action": 3, "material": 3}``) ``layer_sizes`` ends at the last
    activated trunk layer and each head is a softmax read-out drawn at
    N(0, 1/fan_in); without, the last size is the one softmax output
    layer, drawn at the trunk activation's scale."""

    layer_sizes: tuple
    activation: str = RELU
    heads: tuple = ()

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        heads = tuple((str(k), int(v)) for k, v in dict(self.heads).items())
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "heads", heads)
        if len(sizes) < (1 if heads else 2):
            raise errors.ConfigError("need at least input and output sizes")
        if any(s < 1 for s in sizes + tuple(w for _, w in heads)):
            raise errors.ConfigError("layer sizes must be >= 1")
        if self.activation not in (RELU, TANH):
            raise errors.ConfigError(f"unknown activation {self.activation!r}")

    @property
    def n_trunk(self) -> int:
        """Number of activated layers."""
        return len(self.layer_sizes) - (1 if self.heads else 2)

    @property
    def shapes(self) -> list:
        """(fan_in, fan_out) of every layer, trunk first, then the heads."""
        sizes = self.layer_sizes
        return list(zip(sizes[:-1], sizes[1:])) + [(sizes[-1], w)
                                                   for _, w in self.heads]

    def per_head(self, value) -> list:
        """``value`` as a list in head order: a mapping by head name for
        named heads, else the one head's value."""
        return [value[name] for name, _ in self.heads] if self.heads else [value]


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis into one new array, ``z`` left as it is."""
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


class _Views(list):
    """Views of a flat buffer; assigning an item writes into the buffer."""

    def __setitem__(self, i, value):
        self[i][...] = value


def _views(flat: np.ndarray, shapes) -> tuple:
    weights, biases, off = _Views(), _Views(), 0
    for n_in, n_out in shapes:
        n_w = n_in * n_out
        weights.append(flat[..., off:off + n_w]
                       .reshape(flat.shape[:-1] + (n_in, n_out)))
        biases.append(flat[..., off + n_w:off + n_w + n_out])
        off += n_w + n_out
    return weights, biases


class MlpModel:
    """Dense network on one flat parameter vector ``params``: each layer's
    row-major weight matrix, then its bias, trunk first.  ``weights`` and
    ``biases`` view it, ``grad_weights``/``grad_biases`` view ``grads``;
    with ``replicas`` > 1 all gain a leading replica axis."""

    def __init__(self, spec: MlpSpec, seed: int = 0, replicas: int = 1):
        if replicas < 1:
            raise errors.ConfigError("replicas must be >= 1")
        self.spec, self.replicas = spec, replicas
        shapes = spec.shapes
        lead = (replicas,) if replicas > 1 else ()
        self.params = np.zeros(lead + (sum(a * b + b for a, b in shapes),))
        self.grads = np.zeros_like(self.params)
        self.weights, self.biases = _views(self.params, shapes)
        self.grad_weights, self.grad_biases = _views(self.grads, shapes)
        rng = np.random.default_rng(seed)
        for i, (n_in, n_out) in enumerate(shapes):
            head = spec.heads and i >= spec.n_trunk
            gain = 1.0 if spec.activation == TANH or head else 2.0
            self.weights[i] = rng.normal(0.0, np.sqrt(gain / n_in),
                                         size=(n_in, n_out))

    @property
    def input_size(self) -> int:
        return self.spec.layer_sizes[0]

    def parameters(self):
        return list(self.weights) + list(self.biases)

    def _forward(self, x: np.ndarray, cache: list | None = None) -> list:
        """Logits of every head; ``cache`` collects each trunk layer's
        input and then the trunk's output."""
        if x.shape[-1] != self.input_size:
            raise errors.ShapeMismatch(
                f"input width {x.shape[-1]} != {self.input_size}")
        k = self.spec.n_trunk
        h = x
        for w, b in zip(self.weights[:k], self.biases[:k]):
            if cache is not None:
                cache.append(h)
            h = np.matmul(h, w)
            h += b[..., None, :]
            if self.spec.activation == RELU:
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
        if cache is not None:
            cache.append(h)
        outs = [np.matmul(h, w) for w in self.weights[k:]]
        for z, b in zip(outs, self.biases[k:]):
            z += b[..., None, :]
        return outs

    def _by_head(self, outs: list):
        return dict(zip((n for n, _ in self.spec.heads), outs)) \
            if self.spec.heads else outs[0]

    def forward_logits(self, x: np.ndarray):
        """Pre-softmax output; a dict by head name for named heads."""
        return self._by_head(self._forward(
            np.atleast_2d(np.asarray(x, dtype=np.float64))))

    def forward(self, x: np.ndarray):
        """Full forward pass: each head's probabilities, summing to 1."""
        single = np.asarray(x).ndim == 1
        outs = [softmax(z) for z in
                self._forward(np.atleast_2d(np.asarray(x, dtype=np.float64)))]
        return self._by_head([z[..., 0, :] if single else z for z in outs])

    def backward(self, cache: list, dlogits: list):
        """Write into ``grads`` the gradients of a scalar loss, given each
        head's d(loss)/d(logits).  Stops at the first layer's weights:
        nothing reads d(loss)/d(input)."""
        k, w = self.spec.n_trunk, self.weights
        grad = None
        for j, d in enumerate(dlogits):
            self._layer_grads(k + j, cache[k], d)
            if k:
                back = d @ w[k + j].swapaxes(-1, -2)
                grad = back if grad is None else np.add(grad, back, out=grad)
        for i in range(k - 1, -1, -1):
            if self.spec.activation == RELU:
                grad *= cache[i + 1] > 0.0
            else:
                grad *= 1.0 - cache[i + 1] ** 2
            self._layer_grads(i, cache[i], grad)
            if i:
                grad = grad @ w[i].swapaxes(-1, -2)

    def _layer_grads(self, i: int, h_in: np.ndarray, grad: np.ndarray):
        np.matmul(h_in.swapaxes(-1, -2), grad, out=self.grad_weights[i])
        np.add.reduce(grad, axis=-2, out=self.grad_biases[i])


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over a batch, per replica; returns (loss,
    d(loss)/d(logits))."""
    logits = np.ascontiguousarray(logits)
    return _cross_entropy(logits, _gather_index(labels, logits.shape))


def _gather_index(labels: np.ndarray, shape: tuple) -> np.ndarray:
    """Flat index of each row's label logit in a C-contiguous array of
    ``shape`` (..., n, width): one row of n indices per replica."""
    *lead, n, width = shape
    rows = np.arange(0, n * width, width) + labels
    if lead:
        rows = rows + np.arange(0, math.prod(lead) * n * width,
                                n * width).reshape(*lead, 1)
    return rows


def _cross_entropy(logits: np.ndarray, rows: np.ndarray):
    """:func:`cross_entropy_loss` through a precomputed :func:`_gather_index`
    of C-contiguous ``logits``."""
    n = logits.shape[-2]
    p = softmax(logits)
    flat = p.reshape(-1)
    # Each replica's picked probabilities must lie in one contiguous row:
    # numpy sums a contiguous row pairwise, so a replica's mean then equals
    # the mean of the same fit run alone.
    picked = np.ascontiguousarray(flat[rows])
    flat[rows] = picked - 1.0
    picked += 1e-300
    loss = -(np.add.reduce(np.log(picked, out=picked), axis=-1) / n)
    p /= n
    return loss, p


@dataclass
class TrainConfig:
    """Learning rate and schedule; several ``lr`` values train side by side."""

    lr: float | tuple = 0.01
    max_epochs: int = 200
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if np.ndim(self.lr):
            self.lr = tuple(float(v) for v in self.lr)
        if not np.size(self.lr) or np.min(self.lr) < 0:
            raise errors.ConfigError("need learning rates >= 0")
        if self.max_epochs < 1:
            raise errors.ConfigError("max_epochs must be >= 1")

    @property
    def replicas(self) -> int:
        return len(self.lr) if isinstance(self.lr, tuple) else 1


class AdamState:
    """Adam moments over a flat parameter vector (Kingma & Ba, ICLR 2015,
    Algorithm 1): a fixed sequence of in-place ufunc calls into two scratch
    vectors, each expression in the textbook order, so the elementwise
    IEEE result matches a per-layer loop bit for bit.  A stacked fit steps
    one replica row at a time: a row's operands stay in cache, the whole
    grid's do not."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._a = np.empty_like(params)
        self._b = np.empty_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, cfg: TrainConfig):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        rows = (params, grads, self.m, self.v, self._a, self._b)
        rows = zip(*rows) if params.ndim > 1 else [rows]
        for (p, g, m, v, a, b), lr in zip(rows, np.ravel(cfg.lr), strict=True):
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)   # m += (1 - b1) g
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            v += np.multiply(a, g, out=a)          # v += (1 - b2) g g
            np.divide(m, corr1, out=a)
            a *= lr                                # lr (m / corr1)
            np.divide(v, corr2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS                          # sqrt(v / corr2) + eps
            a /= b
            p -= a


@dataclass
class TrainResult:
    model: MlpModel
    losses: list


def _labels(y, n: int, width: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise errors.ShapeMismatch("labels must be shape (n,)")
    if y.min() < 0 or y.max() >= width:
        raise errors.LabelOutOfRange(
            f"labels must be in [0, {width}), got [{y.min()}, {y.max()}]")
    return y.astype(np.int64)


def train(dataset, spec: MlpSpec, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Train an MLP on (X, y) by cross-entropy.

    ``y`` holds integer class labels; named heads take a mapping by head
    name and minimize the sum of their losses.  Several learning rates
    train one replica each (bit-identical to its fit alone), and each
    epoch's loss is then an array over replicas.  Deterministic for a
    fixed (dataset, spec, config) tuple.
    """
    x, y = dataset
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise errors.EmptyDataset("dataset must be a non-empty (n, d) array")
    n = x.shape[0]
    widths = [w for _, w in spec.heads] or [spec.layer_sizes[-1]]
    labels = [_labels(t, n, w) for t, w in zip(spec.per_head(y), widths)]

    model = MlpModel(spec, seed=config.seed, replicas=config.replicas)
    opt = AdamState(model.params)
    rng = np.random.default_rng(config.seed + 1)
    batch = n if config.batch_size is None else min(config.batch_size, n)

    lead = (config.replicas,) if config.replicas > 1 else ()

    def gathers(head_labels):
        return [_gather_index(t, lead + (t.size, w))
                for t, w in zip(head_labels, widths)]

    full = [(x, gathers(labels))]  # the full batch, its gather built once
    losses = []
    for _ in range(config.max_epochs):
        batches = full
        if batch < n:
            order = rng.permutation(n)
            batches = [(x[i], gathers([t[i] for t in labels]))
                       for i in (order[s:s + batch] for s in range(0, n, batch))]
        epoch_loss = 0.0
        for xb, rows in batches:
            cache = []
            heads = [_cross_entropy(z, r) for z, r in
                     zip(model._forward(xb, cache), rows)]
            model.backward(cache, [d for _, d in heads])
            opt.step(model.params, model.grads, config)
            epoch_loss += sum(loss for loss, _ in heads)
        losses.append(epoch_loss / len(batches))
    return TrainResult(model=model, losses=losses)


def accuracy(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> float:
    pred = np.argmax(model.forward_logits(x), axis=-1)
    return float(np.mean(pred == np.asarray(labels)))


# --- gradient checking ----------------------------------------------------------


@dataclass
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    excluded: list = field(default_factory=list)


def _loss_and_kinks(model: MlpModel, x: np.ndarray, label):
    cache = []
    outs = model._forward(x, cache)
    heads = [cross_entropy_loss(z, np.asarray([t]))
             for z, t in zip(outs, model.spec.per_head(label))]
    kinks = [h > 0.0 for h in cache[1:]] if model.spec.activation == RELU else []
    return sum(loss for loss, _ in heads), [d for _, d in heads], cache, kinks


def grad_check(model: MlpModel, x, label) -> GradCheckResult:
    """Compare analytic gradients with central finite differences.

    ``label`` is per head for named heads.  Coordinates whose +/-h
    perturbation switches any ReLU sit on a kink, where the finite
    difference is invalid; their indices into ``params`` are reported in
    ``excluded`` rather than failed.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _, dlogits, cache, _ = _loss_and_kinks(model, x, label)
    model.backward(cache, dlogits)
    analytic = model.grads.reshape(-1).copy()
    flat = model.params.reshape(-1)

    h, max_err = GRAD_CHECK_H, 0.0
    n_checked = 0
    excluded = []
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        loss_hi, _, _, kinks_hi = _loss_and_kinks(model, x, label)
        flat[i] = orig - h
        loss_lo, _, _, kinks_lo = _loss_and_kinks(model, x, label)
        flat[i] = orig
        if any(np.any(a != b) for a, b in zip(kinks_hi, kinks_lo)):
            excluded.append(i)
            continue
        numeric = (loss_hi - loss_lo) / (2.0 * h)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        max_err = max(max_err, abs(analytic[i] - numeric) / denom)
        n_checked += 1
    return GradCheckResult(max_rel_error=max_err, n_checked=n_checked,
                           excluded=excluded)
