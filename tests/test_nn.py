import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from touchlab import errors
from touchlab.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    GradCheckResult,
    MlpModel,
    MlpSpec,
    TrainConfig,
    accuracy,
    cross_entropy_loss,
    grad_check,
    train,
)


class TestForward:
    def test_identity_linear(self):
        model = MlpModel(MlpSpec((2, 2)), seed=0)
        model.weights[0] = np.eye(2)
        model.biases[0] = np.zeros(2)
        out = model.forward_logits(np.array([3.0, 4.0]))[0]
        assert np.allclose(out, [3.0, 4.0])

    def test_softmax_symmetry(self):
        model = MlpModel(MlpSpec((3, 3)), seed=0)
        model.weights[0] = np.zeros((3, 3))
        out = model.forward(np.array([1.0, -2.0, 0.5]))
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])

    def test_matches_naive_matmul_oracle(self):
        spec = MlpSpec((4, 5, 3), activation="tanh")
        model = MlpModel(spec, seed=11)
        rng = np.random.default_rng(1)
        x = rng.normal(size=4)
        # Independent hand-rolled forward pass.
        h = np.tanh(np.array([
            sum(x[i] * model.weights[0][i, j] for i in range(4))
            + model.biases[0][j] for j in range(5)
        ]))
        y = np.array([
            sum(h[i] * model.weights[1][i, j] for i in range(5))
            + model.biases[1][j] for j in range(3)
        ])
        assert np.allclose(model.forward_logits(x)[0], y, atol=1e-9)

    def test_softmax_normalization(self):
        rng = np.random.default_rng(2)
        model = MlpModel(MlpSpec((6, 10, 4)), seed=3)
        for _ in range(20):
            out = model.forward(rng.normal(size=6) * 100)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0)

    def test_shape_mismatch(self):
        model = MlpModel(MlpSpec((4, 2)))
        with pytest.raises(errors.ShapeMismatch):
            model.forward(np.zeros(5))


class TestTrain:
    def xor_data(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        return x, y

    def test_xor_converges(self):
        x, y = self.xor_data()
        spec = MlpSpec((2, 8, 2))
        cfg = TrainConfig(lr=0.05, max_epochs=2000, seed=0)
        res = train((x, y), spec, cfg)
        assert accuracy(res.model, x, y) == 1.0

    def test_linearly_separable_blobs(self):
        rng = np.random.default_rng(4)
        a = rng.normal(loc=[-2.0, 0.0], scale=0.5, size=(60, 2))
        b = rng.normal(loc=[2.0, 0.0], scale=0.5, size=(60, 2))
        x = np.vstack([a, b])
        y = np.array([0] * 60 + [1] * 60)
        res = train((x, y), MlpSpec((2, 8, 2)), TrainConfig(lr=0.05, max_epochs=300))
        # Centroid-classifier oracle: the blobs are separable by a midpoint
        # rule, so the trained model must reach at least that accuracy band.
        centroid_acc = np.mean((x[:, 0] > 0).astype(int) == y)
        assert accuracy(res.model, x, y) >= 0.99
        assert centroid_acc >= 0.99

    def test_zero_lr_freezes_weights(self):
        x, y = self.xor_data()
        spec = MlpSpec((2, 4, 2))
        cfg = TrainConfig(lr=0.0, max_epochs=50, seed=5)
        w0 = MlpModel(spec, seed=cfg.seed).weights[0].copy()
        res = train((x, y), spec, cfg)
        assert np.array_equal(res.model.weights[0], w0)

    def test_empty_dataset(self):
        with pytest.raises(errors.EmptyDataset):
            train((np.zeros((0, 2)), np.zeros(0)), MlpSpec((2, 2)))

    def test_label_out_of_range(self):
        x = np.zeros((4, 2))
        y = np.array([0, 1, 2, 3])
        with pytest.raises(errors.LabelOutOfRange):
            train((x, y), MlpSpec((2, 4, 2)))

    def test_bitwise_determinism(self):
        x, y = self.xor_data()
        cfg = TrainConfig(lr=0.03, max_epochs=100, seed=9, batch_size=2)
        r1 = train((x, y), MlpSpec((2, 6, 2)), cfg)
        r2 = train((x, y), MlpSpec((2, 6, 2)), cfg)
        for w1, w2 in zip(r1.model.parameters(), r2.model.parameters()):
            assert np.array_equal(w1, w2)
        assert r1.losses == r2.losses

    def test_loss_decreases_on_average(self):
        x, y = self.xor_data()
        res = train((x, y), MlpSpec((2, 8, 2)), TrainConfig(lr=0.05, max_epochs=400))
        first = np.mean(res.losses[:40])
        last = np.mean(res.losses[-40:])
        assert last < first


class TestPinnedTrainDigests:
    """SHA-256 of the trained parameters (layer by layer, weight then
    bias) and per-epoch losses of two ``train`` runs: shuffled minibatches
    through a ReLU net and through a tanh net.  The products go through
    BLAS, so another numpy build or CPU may need its own digests."""

    @staticmethod
    def digest(res):
        h = hashlib.sha256()
        for w, b in zip(res.model.weights, res.model.biases):
            h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
        h.update(np.asarray(res.losses, dtype="<f8").tobytes())
        return h.hexdigest()

    def test_minibatch_relu(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(50, 4))
        y = (x[:, 0] + x[:, 1] * x[:, 2] > 0).astype(int) + (x[:, 3] > 1)
        res = train((x, y), MlpSpec((4, 10, 7, 3)),
                    TrainConfig(lr=0.02, max_epochs=30, batch_size=8, seed=3))
        assert self.digest(res) == (
            "f5ea4279766b973d3893129b59eb3d1d951ec9769d5a3782bac9851c579d5af2")

    def test_minibatch_tanh(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(40, 3))
        y = (np.sin(x[:, 0]) + x[:, 1] > 0).astype(int) + (x[:, 2] ** 2 > 1)
        res = train((x, y), MlpSpec((3, 9, 3), activation="tanh"),
                    TrainConfig(lr=0.01, max_epochs=40, batch_size=16, seed=4))
        assert self.digest(res) == (
            "6c165270786b9f91f903ba1a2b34d503ce65f576f48ee406cfe6c6e08d751c40")


class TestFlatBuffers:
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_arrays_view_flat_buffers(self, replicas):
        spec = MlpSpec((5, 7, 4), heads={"a": 3, "b": 2})
        model = MlpModel(spec, seed=1, replicas=replicas)
        lead = (replicas,) if replicas > 1 else ()
        assert model.params.shape == model.grads.shape == lead + (
            5 * 7 + 7 + 7 * 4 + 4 + 4 * 3 + 3 + 4 * 2 + 2,)
        for flat, arrays in ((model.params, model.weights + model.biases),
                             (model.grads,
                              model.grad_weights + model.grad_biases)):
            assert flat.flags.c_contiguous
            for a in arrays:
                assert a.base is flat or a.base.base is flat
                assert np.shares_memory(a, flat)
        assert [w.shape for w in model.weights] == [
            lead + s for s in ((5, 7), (7, 4), (4, 3), (4, 2))]
        model.params[...] = 7.0
        model.grads[...] = -1.0
        assert all(np.all(a == 7.0) for a in model.parameters())
        assert all(np.all(g == -1.0)
                   for g in model.grad_weights + model.grad_biases)

    def test_item_assignment_writes_through(self):
        model = MlpModel(MlpSpec((2, 3, 2)), seed=0)
        model.weights[1] = np.arange(6.0).reshape(3, 2)
        model.biases[0] = [1.0, 2.0, 3.0]
        assert np.shares_memory(model.weights[1], model.params)
        assert model.params[6:12].tolist() == [1.0, 2.0, 3.0, 0.0, 1.0, 2.0]

    def test_replicas_share_initial_draws(self):
        spec = MlpSpec((4, 6, 3))
        stacked = MlpModel(spec, seed=5, replicas=3)
        one = MlpModel(spec, seed=5)
        for r in range(3):
            assert stacked.params[r].tobytes() == one.params.tobytes()


class TestAdamStep:
    def test_flat_step_matches_per_array_loop(self):
        """The flat in-place update against the textbook per-array loop
        (Kingma & Ba, Algorithm 1), byte for byte."""
        rng = np.random.default_rng(8)
        shapes = [(5, 7), (7,), (7, 3), (3,)]
        sizes = [int(np.prod(s)) for s in shapes]
        flat = rng.normal(size=sum(sizes))
        params = [p.reshape(s).copy() for p, s in
                  zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        cfg = TrainConfig(lr=0.02)
        opt = AdamState(flat)
        for t in range(1, 30):
            g = rng.normal(size=flat.size) * 10.0 ** rng.integers(-6, 3)
            grads = np.split(g, np.cumsum(sizes)[:-1])
            corr1 = 1.0 - ADAM_BETA1 ** t
            corr2 = 1.0 - ADAM_BETA2 ** t
            for p, gi, mi, vi, s in zip(params, grads, m, v, shapes):
                gi = gi.reshape(s)
                mi *= ADAM_BETA1
                mi += (1.0 - ADAM_BETA1) * gi
                vi *= ADAM_BETA2
                vi += (1.0 - ADAM_BETA2) * gi * gi
                p -= cfg.lr * (mi / corr1) / (np.sqrt(vi / corr2) + ADAM_EPS)
            opt.step(flat, g, cfg)
            assert flat.tobytes() == b"".join(p.tobytes() for p in params)


def tuple_index_cross_entropy(logits, labels):
    """The reference ``cross_entropy_loss``: softmax through the reduction
    methods, gather and subtract through an ``(..., arange(n), labels)``
    index."""
    n = logits.shape[-2]
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    idx = (..., np.arange(n), labels)
    loss = -np.mean(np.log(np.ascontiguousarray(p[idx]) + 1e-300), axis=-1)
    p[idx] -= 1.0
    p /= n
    return loss, p


class TestCrossEntropy:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), lead=st.sampled_from([(), (1,), (3,)]),
           n=st.integers(1, 300), width=st.integers(1, 9))
    def test_matches_tuple_index_formula(self, data, lead, n, width):
        """Byte-equal loss and gradient for single and stacked logits, over
        row counts on every branch of numpy's pairwise summation."""
        logits = data.draw(hnp.arrays(np.float64, lead + (n, width), elements=st.floats(
            -1e4, 1e4, allow_subnormal=True)))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, width - 1)))
        before = logits.tobytes()
        loss, grad = cross_entropy_loss(logits, labels)
        want_loss, want_grad = tuple_index_cross_entropy(logits, labels)
        assert logits.tobytes() == before
        assert type(loss) is type(want_loss)
        assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
        assert grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()


class TestStackedFit:
    """Replica r of a stacked fit is byte-equal to the fit at lr[r] alone."""

    LRS = (0.003, 0.02, 0.05)

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        x = rng.normal(size=(30, 4))
        y = (x[:, 0] * x[:, 1] > 0).astype(int) + (x[:, 2] > 0.5)
        yield "minibatch_relu", (x, y), MlpSpec((4, 8, 5, 3)), \
            {"batch_size": 7, "max_epochs": 25, "seed": 2}
        yield "tanh", (x, y), MlpSpec((4, 6, 3), activation="tanh"), \
            {"batch_size": 12, "max_epochs": 25, "seed": 3}
        yield "two_heads", (x, {"a": y, "b": (x[:, 3] > 0).astype(int)}), \
            MlpSpec((4, 9, 6), heads={"a": 3, "b": 2}), \
            {"max_epochs": 30, "seed": 4}

    @pytest.mark.parametrize("case", ["minibatch_relu", "tanh", "two_heads"])
    def test_replicas_match_single_fits(self, case):
        _, data, spec, kwargs = next(c for c in self.cases() if c[0] == case)
        stacked = train(data, spec, TrainConfig(lr=self.LRS, **kwargs))
        assert stacked.model.params.shape[0] == 3
        losses = np.asarray(stacked.losses)
        assert losses.shape == (kwargs["max_epochs"], 3)
        for r, lr in enumerate(self.LRS):
            one = train(data, spec, TrainConfig(lr=lr, **kwargs))
            assert stacked.model.params[r].tobytes() == one.model.params.tobytes()
            assert losses[:, r].tobytes() == np.asarray(one.losses).tobytes()


class TestConfigErrors:
    @pytest.mark.parametrize("make", [
        lambda: MlpSpec((3,)),
        lambda: MlpSpec((3, 0)),
        lambda: MlpSpec((3, 4), activation="sigmoid"),
        lambda: MlpSpec((3, 4), heads={"a": 0}),
        lambda: TrainConfig(lr=-0.1),
        lambda: TrainConfig(lr=()),
        lambda: TrainConfig(max_epochs=0),
        # This case keeps the id it had while the conv cost cases stood
        # before it.
        pytest.param(lambda: MlpModel(MlpSpec((3, 4)), replicas=0), id="<lambda>10"),
    ])
    def test_config_error(self, make):
        with pytest.raises(errors.ConfigError):
            make()


class TestGradCheck:
    def test_small_random_models(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n_hidden = int(rng.integers(1, 5))
            sizes = (3,) + tuple(int(rng.integers(2, 7)) for _ in range(n_hidden)) + (3,)
            act = "relu" if seed % 2 == 0 else "tanh"
            model = MlpModel(MlpSpec(sizes, activation=act), seed=seed)
            x = rng.normal(size=3)
            res = grad_check(model, x, int(rng.integers(0, 3)))
            assert isinstance(res, GradCheckResult)
            assert res.max_rel_error < 1e-4
            assert res.n_checked > 0

    def test_relu_kink_excluded_not_failed(self):
        # Force a pre-activation exactly onto the kink: weights such that
        # z = 0 for the given input.
        model = MlpModel(MlpSpec((2, 2, 2)), seed=0)
        model.weights[0] = np.array([[1.0, 0.5], [-1.0, 0.5]])
        model.biases[0] = np.array([0.0, -1.0])
        x = np.array([1.0, 1.0])  # z = [0, 0] at both hidden units
        res = grad_check(model, x, 0)
        assert len(res.excluded) > 0
        assert res.max_rel_error < 1e-4

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_two_heads(self, act):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            spec = MlpSpec((5, 6, 4), activation=act,
                           heads={"action": 3, "material": 2})
            model = MlpModel(spec, seed=seed)
            res = grad_check(model, rng.normal(size=5),
                             {"action": int(rng.integers(0, 3)),
                              "material": int(rng.integers(0, 2))})
            assert res.max_rel_error < 1e-4
            assert res.n_checked + len(res.excluded) == model.params.size
            assert res.n_checked > 0.9 * model.params.size
