"""Dense-network engine: forward, backprop, Adam, and the analytic
convolution cost model.

Everything is plain numpy and fully deterministic: weights are initialized
from a seeded generator, minibatch order comes from the training config's
seed, and the Adam update contains no randomness, so one (dataset, spec,
config, seed) tuple always reproduces bit-identical weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors

RELU = "relu"
TANH = "tanh"
SOFTMAX = "softmax"
LINEAR = "linear"

CROSS_ENTROPY = "cross_entropy"
MSE = "mse"


@dataclass(frozen=True)
class MlpSpec:
    """Network shape: layer sizes from input to output, hidden activation,
    and output head."""

    layer_sizes: tuple
    activation: str = RELU
    head: str = SOFTMAX

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be >= 1")
        if self.activation not in (RELU, TANH):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.head not in (SOFTMAX, LINEAR):
            raise ValueError(f"unknown head {self.head!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class MlpModel:
    """Dense network with per-layer weight matrices and bias vectors."""

    def __init__(self, spec: MlpSpec, seed: int = 0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        sizes = spec.layer_sizes
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / n_in) if spec.activation == RELU \
                else np.sqrt(1.0 / n_in)
            self.weights.append(rng.normal(0.0, scale, size=(n_in, n_out)))
            self.biases.append(np.zeros(n_out))

    @property
    def input_size(self) -> int:
        return self.spec.layer_sizes[0]

    def parameters(self):
        return list(self.weights) + list(self.biases)

    def forward_logits(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        """Pre-head output; optionally records (input, pre-activation) pairs
        per layer for backprop."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_size:
            raise errors.ShapeMismatch(
                f"input width {x.shape[1]} != {self.input_size}")
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if cache is not None:
                cache.append((h, z))
            if i < last:
                h = np.maximum(z, 0.0) if self.spec.activation == RELU else np.tanh(z)
            else:
                h = z
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward pass; a softmax head returns probabilities summing
        to 1."""
        single = np.asarray(x).ndim == 1
        out = self.forward_logits(x)
        if self.spec.head == SOFTMAX:
            out = softmax(out)
        return out[0] if single else out

    def backward(self, cache: list, dout: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(logits).

        Returns (weight grads, bias grads, d(loss)/d(input)).
        """
        gw = [None] * len(self.weights)
        gb = [None] * len(self.biases)
        grad = dout
        for i in range(len(self.weights) - 1, -1, -1):
            h_in, z = cache[i]
            if i < len(self.weights) - 1:
                if self.spec.activation == RELU:
                    grad = grad * (z > 0.0)
                else:
                    grad = grad * (1.0 - np.tanh(z) ** 2)
            gw[i] = h_in.T @ grad
            gb[i] = grad.sum(axis=0)
            grad = grad @ self.weights[i].T
        return gw, gb, grad

    def copy(self) -> "MlpModel":
        m = MlpModel.__new__(MlpModel)
        m.spec = self.spec
        m.weights = [w.copy() for w in self.weights]
        m.biases = [b.copy() for b in self.biases]
        return m


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over a batch; returns (loss, d(loss)/d(logits))."""
    n = logits.shape[0]
    p = softmax(logits)
    idx = (np.arange(n), labels)
    loss = -np.mean(np.log(p[idx] + 1e-300))
    dlogits = p.copy()
    dlogits[idx] -= 1.0
    return loss, dlogits / n


def mse_loss(y: np.ndarray, target: np.ndarray):
    """Mean squared error over all entries; returns (loss, d(loss)/d(y))."""
    diff = y - target
    return float(np.mean(diff ** 2)), 2.0 * diff / diff.size


@dataclass
class TrainConfig:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 200
    batch_size: int | None = None
    seed: int = 0
    loss: str = CROSS_ENTROPY

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.loss not in (CROSS_ENTROPY, MSE):
            raise ValueError(f"unknown loss {self.loss!r}")


class AdamState:
    """Per-parameter first/second moment accumulators."""

    def __init__(self, params):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads, cfg: TrainConfig):
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= cfg.lr * (m / corr1) / (np.sqrt(v / corr2) + cfg.eps)


@dataclass
class TrainResult:
    model: MlpModel
    losses: list


def train(dataset, spec: MlpSpec, config: TrainConfig = TrainConfig(),
          model: MlpModel | None = None) -> TrainResult:
    """Train an MLP on (X, y).

    ``y`` holds integer class labels for cross-entropy or float targets
    (n, output_size) for MSE.  Deterministic for a fixed (dataset, spec,
    config) tuple.
    """
    x, y = dataset
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise errors.EmptyDataset("dataset must be a non-empty (n, d) array")
    n = x.shape[0]
    n_classes = spec.layer_sizes[-1]
    if config.loss == CROSS_ENTROPY:
        y = np.asarray(y)
        if y.shape != (n,):
            raise errors.ShapeMismatch("labels must be shape (n,)")
        if y.min() < 0 or y.max() >= n_classes:
            raise errors.LabelOutOfRange(
                f"labels must be in [0, {n_classes}), got [{y.min()}, {y.max()}]")
        y = y.astype(np.int64)
    else:
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))

    if model is None:
        model = MlpModel(spec, seed=config.seed)
    opt = AdamState(model.parameters())
    rng = np.random.default_rng(config.seed + 1)
    batch = n if config.batch_size is None else min(config.batch_size, n)

    losses = []
    for _ in range(config.max_epochs):
        order = np.arange(n) if batch == n else rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            cache = []
            logits = model.forward_logits(x[idx], cache)
            if config.loss == CROSS_ENTROPY:
                loss, dlogits = cross_entropy_loss(logits, y[idx])
            else:
                loss, dlogits = mse_loss(logits, y[idx])
            gw, gb, _ = model.backward(cache, dlogits)
            params = model.weights + model.biases
            grads = gw + gb
            opt.step(params, grads, config)
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    return TrainResult(model=model, losses=losses)


def accuracy(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> float:
    pred = np.argmax(model.forward_logits(x), axis=1)
    return float(np.mean(pred == np.asarray(labels)))


# --- gradient checking ----------------------------------------------------------


@dataclass
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    excluded: list = field(default_factory=list)


def _loss_and_kinks(model: MlpModel, x: np.ndarray, label):
    cache = []
    logits = model.forward_logits(x, cache)
    if model.spec.head == SOFTMAX:
        loss, dlogits = cross_entropy_loss(logits, np.asarray([label]))
    else:
        target = np.atleast_2d(np.asarray(label, dtype=np.float64))
        loss, dlogits = mse_loss(logits, target)
    signs = [np.sign(z) for _, z in cache[:-1]] if model.spec.activation == RELU else []
    return loss, dlogits, cache, signs


def grad_check(model: MlpModel, x, label, h: float = 1e-5) -> GradCheckResult:
    """Compare analytic gradients with central finite differences.

    Coordinates whose +/-h perturbation flips the sign of any ReLU
    pre-activation sit on a kink: the finite difference is invalid there,
    so they are reported in ``excluded`` rather than failed.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _, dlogits, cache, _ = _loss_and_kinks(model, x, label)
    gw, gb, _ = model.backward(cache, dlogits)
    analytic = gw + gb
    params = model.weights + model.biases

    max_err = 0.0
    n_checked = 0
    excluded = []
    for p_idx, p in enumerate(params):
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_hi, _, _, signs_hi = _loss_and_kinks(model, x, label)
            flat[i] = orig - h
            loss_lo, _, _, signs_lo = _loss_and_kinks(model, x, label)
            flat[i] = orig
            kink = any(np.any(a != b) for a, b in zip(signs_hi, signs_lo))
            if kink:
                excluded.append((p_idx, i))
                continue
            numeric = (loss_hi - loss_lo) / (2.0 * h)
            a = analytic[p_idx].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, abs(a - numeric) / denom)
            n_checked += 1
    return GradCheckResult(max_rel_error=max_err, n_checked=n_checked,
                           excluded=excluded)


# --- analytic convolution cost model -----------------------------------------------

CONV = "conv"
DSCONV = "dsconv"


@dataclass(frozen=True)
class ConvLayer:
    """One convolution layer: standard or depthwise-separable."""

    kind: str
    kernel: int
    c_in: int
    c_out: int
    stride: int = 1

    def __post_init__(self):
        if self.kind not in (CONV, DSCONV):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if min(self.kernel, self.c_in, self.c_out, self.stride) < 1:
            raise ValueError("kernel, channels and stride must be >= 1")


@dataclass(frozen=True)
class ConvCostSpec:
    """Block stack plus square input size, e.g. a MobileNet-style network
    with a 64 x 64 input."""

    layers: tuple
    input_size: int = 64

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input_size < 1:
            raise ValueError("input_size must be >= 1")


@dataclass(frozen=True)
class DeviceProfile:
    """Analytic compute throughput of an inference device."""

    name: str
    macs_per_us: float
    per_layer_overhead_us: float = 0.0


def conv_cost(spec: ConvCostSpec, profile: DeviceProfile | None = None) -> dict:
    """Multiply-accumulate count of a conv stack, with optional latency
    estimate macs / throughput + per-layer overhead.

    Spatial dims follow 'same' padding: out = ceil(size / stride).
    """
    size = spec.input_size
    total = 0
    for layer in spec.layers:
        out = -(-size // layer.stride)
        if out < 1:
            raise errors.ShapeUnderflow(
                f"spatial size underflows at layer {layer}")
        area = out * out
        if layer.kind == CONV:
            total += area * layer.kernel ** 2 * layer.c_in * layer.c_out
        else:
            total += area * layer.kernel ** 2 * layer.c_in  # depthwise
            total += area * layer.c_in * layer.c_out        # pointwise
        size = out
    result = {"macs": int(total)}
    if profile is not None:
        result["est_latency_us"] = (total / profile.macs_per_us
                                    + profile.per_layer_overhead_us
                                    * len(spec.layers))
    return result


def mlp_macs(layer_sizes) -> int:
    """Multiply-accumulate count for a dense network."""
    sizes = list(layer_sizes)
    return int(sum(a * b for a, b in zip(sizes[:-1], sizes[1:])))


# --- weight serialization -----------------------------------------------------------

WEIGHTS_MAGIC = b"TLNN"
WEIGHTS_VERSION = 1

_ACT_CODES = {RELU: 1, TANH: 2}
_HEAD_CODES = {SOFTMAX: 1, LINEAR: 2}


def save_model(model: MlpModel, path) -> int:
    """Write model weights in the shape-tagged little-endian format.

    Layout: magic ``TLNN``, version u16, activation u8, head u8,
    layer-size count u16, sizes u32 each, then per layer the float64
    weight matrix (row-major) followed by the bias vector.
    """
    import struct

    sizes = model.spec.layer_sizes
    blob = [WEIGHTS_MAGIC,
            struct.pack("<HBBH", WEIGHTS_VERSION,
                        _ACT_CODES[model.spec.activation],
                        _HEAD_CODES[model.spec.head], len(sizes))]
    blob.append(struct.pack(f"<{len(sizes)}I", *sizes))
    for w, b in zip(model.weights, model.biases):
        blob.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        blob.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    data = b"".join(blob)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_model(path) -> MlpModel:
    """Read a file written by :func:`save_model`.  A short or overlong file
    raises TruncatedChunk, an unknown activation or head code UnknownKind."""
    import struct

    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != WEIGHTS_MAGIC:
        raise errors.BadMagic(f"bad weights magic {data[:4]!r}")
    if len(data) < 10:
        raise errors.TruncatedChunk("weights header truncated")
    version, act_c, head_c, n_sizes = struct.unpack_from("<HBBH", data, 4)
    if version != WEIGHTS_VERSION:
        raise errors.VersionMismatch(f"unsupported weights version {version}")
    off = 4 + 6
    if len(data) < off + 4 * n_sizes:
        raise errors.TruncatedChunk("weights layer-size table truncated")
    sizes = struct.unpack_from(f"<{n_sizes}I", data, off)
    off += 4 * n_sizes
    act = {v: k for k, v in _ACT_CODES.items()}.get(act_c)
    head = {v: k for k, v in _HEAD_CODES.items()}.get(head_c)
    if act is None or head is None:
        raise errors.UnknownKind(f"unknown activation/head code {act_c}/{head_c}")
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if len(data) != off + 8 * n_params:
        raise errors.TruncatedChunk(
            f"weights file is {len(data)} bytes, its layer sizes need {off + 8 * n_params}")
    if n_sizes < 2 or 0 in sizes:
        raise errors.ShapeMismatch(f"bad layer sizes {sizes}")
    model = MlpModel(MlpSpec(sizes, activation=act, head=head), seed=0)
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        n_w = n_in * n_out
        w = np.frombuffer(data, dtype="<f8", count=n_w, offset=off)
        off += 8 * n_w
        b = np.frombuffer(data, dtype="<f8", count=n_out, offset=off)
        off += 8 * n_out
        model.weights[i] = w.reshape(n_in, n_out).copy()
        model.biases[i] = b.copy()
    return model


def mobilenet_like_spec(input_size: int = 64, width: int = 8,
                        n_blocks: int = 6) -> ConvCostSpec:
    """A small depthwise-separable stack in the spirit of mobile
    architectures, used by the latency reports."""
    layers = [ConvLayer(CONV, 3, 3, width, stride=2)]
    c = width
    for i in range(n_blocks):
        stride = 2 if i % 2 == 1 else 1
        layers.append(ConvLayer(DSCONV, 3, c, min(c * 2, 128), stride=stride))
        c = min(c * 2, 128)
    return ConvCostSpec(layers=tuple(layers), input_size=input_size)
