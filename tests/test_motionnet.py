"""Model tests: forward contract, gradient oracles, training, checkpoints."""

import numpy as np
import pytest

from roboface import motionnet
from roboface.lbs import BlendshapeBasis, FaceMesh, LbsRig, apply_skinning
from roboface.motionnet import (
    AdamState,
    TrainConfig,
    _adam_step,
    _run_forward,
    TrainingSample,
    backward,
    forward,
    human_decode,
    init_params,
    load_model,
    loss,
    named_arrays,
    save_model,
    train,
    training_loss,
)


def tiny_rig(seed=0):
    """V=5 vertices, B=3 blendshapes, mouth mask of two vertices."""
    rng = np.random.default_rng(seed)
    fields = tuple(rng.uniform(-1.0, 1.0, 15) for _ in range(3))
    return LbsRig(
        mesh=FaceMesh(rng.uniform(-3.0, 3.0, 15)),
        basis=BlendshapeBasis(("a", "b", "c"), fields),
        mouth_mask=np.array([1, 3]),
    )


def tiny_params(seed=1):
    return init_params(
        seed, window_size=4, hidden_size=4, style_count=3, output_size=3, class_count=6
    )


def tiny_sample(rig, seed=2, style_id=1):
    rng = np.random.default_rng(seed)
    return TrainingSample(
        window=rng.uniform(-2.0, 2.0, (4, 6)),
        style_id=style_id,
        target_vertices=rig.mesh.positions + rng.uniform(-0.5, 0.5, 15),
    )


class TestInit:
    def test_block_count_is_log2_window(self):
        assert len(init_params(0, window_size=8, hidden_size=4).blocks) == 3
        assert len(tiny_params().blocks) == 2

    def test_first_block_maps_class_count(self):
        params = init_params(0, window_size=8, hidden_size=5, class_count=392)
        assert params.blocks[0].conv1_weight.shape == (5, 392, 3)
        assert params.blocks[1].conv1_weight.shape == (5, 5, 3)

    def test_biases_and_style_start_zero(self):
        params = tiny_params()
        assert not params.head1_bias.any()
        assert not params.blocks[0].conv1_bias.any()
        assert not params.style_table.any()

    def test_rejects_non_power_of_two_window(self):
        with pytest.raises(ValueError, match="power of two"):
            init_params(0, window_size=6)

    @pytest.mark.parametrize("name", ["window_size", "hidden_size", "style_count",
                                      "output_size", "class_count"])
    @pytest.mark.parametrize("value", [True, 8.0, 8.5, 0])
    def test_rejects_sizes_that_are_not_positive_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            init_params(0, **{name: value})
        assert init_params(0, **{name: np.int64(2)})

    def test_seeded_init_reproducible(self):
        a = dict(named_arrays(tiny_params(seed=9)))
        b = dict(named_arrays(tiny_params(seed=9)))
        for name in a:
            assert a[name].tobytes() == b[name].tobytes()


class TestForward:
    def test_zero_weights_give_half(self):
        params = tiny_params()
        for _, array in named_arrays(params):
            array[...] = 0.0
        theta = forward(params, np.ones((4, 6)), 0)
        np.testing.assert_array_equal(theta.values, np.full(3, 0.5))

    def test_eval_mode_deterministic(self):
        params = tiny_params()
        window = np.random.default_rng(3).normal(0.0, 1.0, (4, 6))
        a = forward(params, window, 1)
        b = forward(params, window, 1)
        assert a.values.tobytes() == b.values.tobytes()

    def test_outputs_strictly_inside_unit_interval(self):
        params = tiny_params()
        window = np.random.default_rng(4).normal(0.0, 3.0, (4, 6))
        theta = forward(params, window, 0).values
        assert (theta > 0.0).all() and (theta < 1.0).all()

    def test_style_separation(self):
        params = tiny_params()
        params.style_table[...] = np.random.default_rng(5).uniform(
            -0.5, 0.5, params.style_table.shape
        )
        window = np.random.default_rng(6).normal(0.0, 1.0, (4, 6))
        a = forward(params, window, 0).values
        b = forward(params, window, 1).values
        assert (a != b).any()

    def test_style_out_of_range(self):
        params = tiny_params()
        with pytest.raises(ValueError, match="style_id"):
            forward(params, np.zeros((4, 6)), 3)
        with pytest.raises(ValueError, match="style_id"):
            forward(params, np.zeros((4, 6)), -1)

    def test_bad_window_shape(self):
        with pytest.raises(ValueError, match="shape"):
            forward(tiny_params(), np.zeros((8, 6)), 0)


class TestHumanDecode:
    def test_zero_is_neutral(self):
        rig = tiny_rig()
        np.testing.assert_array_equal(
            human_decode(rig, np.zeros(3)), rig.mesh.positions
        )

    def test_one_hot_adds_field(self):
        rig = tiny_rig()
        decoded = human_decode(rig, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(
            decoded, rig.mesh.positions + rig.basis.displacements[1]
        )

    def test_matches_skinning(self):
        rig = tiny_rig()
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(0.0, 1.0, 3)
            expected = apply_skinning(rig, theta).positions
            assert np.abs(human_decode(rig, theta) - expected).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="blendshapes"):
            human_decode(tiny_rig(), np.zeros(4))
        with pytest.raises(ValueError, match="blendshapes"):
            human_decode(tiny_rig(), np.zeros((5, 4)))
        with pytest.raises(ValueError, match="blendshapes"):
            human_decode(tiny_rig(), np.zeros((2, 5, 3)))

    def test_stack_decodes_each_row(self):
        rig = tiny_rig()
        thetas = np.random.default_rng(12).uniform(0.0, 1.0, (7, 3))
        decoded = human_decode(rig, thetas)
        assert decoded.shape == (7, 3 * rig.vertex_count)
        for theta, row in zip(thetas, decoded):
            assert np.abs(row - human_decode(rig, theta)).max() < 1e-12


def two_loop_loss(pred, target, mask, mouth_weight):
    total = 0.0
    for i in range(pred.size):
        total += (target[i] - pred[i]) ** 2
    extra = 0.0
    for v in mask:
        for c in range(3):
            extra += (target[3 * v + c] - pred[3 * v + c]) ** 2
    return total + mouth_weight * extra


class TestLoss:
    def test_zero_when_equal(self):
        y = np.random.default_rng(0).uniform(-1.0, 1.0, 15)
        assert loss(y, y.copy(), np.array([1]), 1.0) == 0.0

    def test_unit_mouth_error_gives_two(self):
        target = np.zeros(15)
        pred = np.zeros(15)
        pred[3 * 3 + 1] = 1.0  # one coordinate of mouth vertex 3 off by 1
        assert loss(pred, target, np.array([1, 3]), 1.0) == 2.0

    def test_matches_two_loop_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pred = rng.uniform(-2.0, 2.0, 30)
            target = rng.uniform(-2.0, 2.0, 30)
            mask = rng.choice(10, size=3, replace=False)
            w = rng.uniform(0.0, 3.0)
            expected = two_loop_loss(pred, target, mask, w)
            assert loss(pred, target, mask, w) == pytest.approx(expected, abs=1e-12)

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError, match="mask"):
            loss(np.zeros(15), np.zeros(15), np.array([5]), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            loss(np.zeros(15), np.zeros(12), np.array([0]), 1.0)


def relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


class TestBackward:
    def check_all_params(self, dropout_rate, seed):
        rig = tiny_rig()
        params = tiny_params()
        params.style_table[...] = np.random.default_rng(20).uniform(
            -0.5, 0.5, params.style_table.shape
        )
        sample = tiny_sample(rig)
        grads = backward(params, rig, sample, 1.0, dropout_rate, seed)
        h = 1e-4
        for name, array in named_arrays(params):
            flat = array.ravel()
            gflat = grads[name].ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = training_loss(params, rig, sample, 1.0, dropout_rate, seed)
                flat[k] = orig - h
                down = training_loss(params, rig, sample, 1.0, dropout_rate, seed)
                flat[k] = orig
                fd = (up - down) / (2.0 * h)
                assert relative_gap(gflat[k], fd) < 1e-4, f"{name}[{k}]"

    def test_gradcheck_every_parameter(self):
        self.check_all_params(dropout_rate=0.0, seed=None)

    def test_gradcheck_with_dropout(self):
        self.check_all_params(dropout_rate=0.3, seed=77)

    def test_training_loss_dropout_scales(self):
        # With rate just under 1 almost every hidden unit drops, pulling the
        # output to sigmoid(bias) = 0.5; without dropout the loss differs.
        rig = tiny_rig()
        params = tiny_params()
        sample = tiny_sample(rig)
        dropped = training_loss(params, rig, sample, 1.0, dropout_rate=0.99, seed=0)
        expected = loss(
            human_decode(rig, np.full(3, 0.5)), sample.target_vertices,
            rig.mouth_mask, 1.0,
        )
        assert dropped == pytest.approx(expected, rel=1e-12)
        assert training_loss(params, rig, sample, 1.0) != dropped

    def test_zero_loss_gives_zero_gradients(self):
        rig = tiny_rig()
        params = tiny_params()
        window = np.random.default_rng(21).normal(0.0, 1.0, (4, 6))
        # The target is the training path's own output: ``forward`` runs the
        # inference kernel, which agrees with it only to rounding.
        theta, _ = _run_forward(params, window[None], [0], None)
        sample = TrainingSample(
            window=window, style_id=0, target_vertices=human_decode(rig, theta[0])
        )
        grads = backward(params, rig, sample, 1.0)
        assert all(not g.any() for g in grads.values())

    def test_only_trainable_arrays_have_gradients(self):
        rig = tiny_rig()
        params = tiny_params()
        grads = backward(params, rig, tiny_sample(rig), 1.0)
        assert set(grads) == {name for name, _ in named_arrays(params)}


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.weight_decay) == (1e-4, 1e-4)
        assert (cfg.epochs, cfg.dropout_rate, cfg.mouth_weight) == (200, 0.1, 1.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TypeError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout_rate=1.0)
        for name, value in [("epochs", 2.5), ("epochs", True), ("batch_size", True),
                            ("batch_size", 4.0), ("seed", 1.5), ("seed", -1)]:
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
        assert TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint8(1))
        # Real settings: finite, not a bool or a string, and in range.
        for name, value in [("weight_decay", np.nan), ("weight_decay", np.inf),
                            ("mouth_weight", np.nan), ("mouth_weight", -5.0),
                            ("mouth_weight", True), ("learning_rate", np.inf),
                            ("learning_rate", True), ("learning_rate", "1e-3"),
                            ("dropout_rate", False)]:
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
        assert TrainConfig(learning_rate=np.float32(1e-3), weight_decay=np.int64(0),
                           dropout_rate=np.float64(0.5), mouth_weight=2)


class TestTrain:
    def overfit_config(self):
        return TrainConfig(
            learning_rate=1e-2,
            weight_decay=0.0,
            dropout_rate=0.0,
            epochs=200,
            batch_size=1,
            seed=0,
        )

    def test_overfits_single_sample(self):
        rig = tiny_rig()
        params = init_params(
            3, window_size=4, hidden_size=8, style_count=2, output_size=3,
            class_count=12,
        )
        rng = np.random.default_rng(0)
        sample = TrainingSample(
            window=rng.normal(0.0, 1.0, (4, 12)),
            style_id=0,
            target_vertices=human_decode(rig, rng.uniform(0.1, 0.9, 3)),
        )
        _, history = train(params, rig, [sample], self.overfit_config())
        assert history.train_loss[-1] < 1e-3 * history.train_loss[0]

    def test_same_seed_bitwise_history(self):
        rig = tiny_rig()
        samples = [tiny_sample(rig, seed=s, style_id=s % 3) for s in range(4)]
        cfg = TrainConfig(epochs=5, batch_size=2, seed=42, learning_rate=1e-3)
        _, h1 = train(tiny_params(), rig, samples, cfg)
        _, h2 = train(tiny_params(), rig, samples, cfg)
        assert h1.train_loss.tobytes() == h2.train_loss.tobytes()

    def test_validation_history(self):
        rig = tiny_rig()
        samples = [tiny_sample(rig, seed=s) for s in range(3)]
        cfg = TrainConfig(epochs=3, batch_size=2, seed=0)
        _, history = train(tiny_params(), rig, samples[:2], cfg, validation=samples[2:])
        assert history.val_loss.shape == (3,)
        assert np.isfinite(history.val_loss).all()

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_params(), tiny_rig(), [], TrainConfig(epochs=1))

    def test_history_length_matches_epochs(self):
        rig = tiny_rig()
        cfg = TrainConfig(epochs=4, batch_size=1, seed=1)
        _, history = train(tiny_params(), rig, [tiny_sample(rig)], cfg)
        assert history.train_loss.shape == (4,)
        assert history.val_loss is None


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = tiny_params(seed=5)
        params.style_table[...] = 0.25
        path = tmp_path / "model.mnet"
        save_model(path, params)
        loaded, state = load_model(path)
        assert state is None
        for (name, a), (_, b) in zip(named_arrays(params), named_arrays(loaded)):
            assert a.tobytes() == b.tobytes(), name
        assert loaded.window_size == 4 and loaded.output_size == 3

    def test_round_trip_with_adam(self, tmp_path):
        rig = tiny_rig()
        params = tiny_params()
        state = AdamState.zeros_like(params)
        cfg = TrainConfig(epochs=2, batch_size=1, seed=3)
        train(params, rig, [tiny_sample(rig)], cfg, adam_state=state)
        path = tmp_path / "model.mnet"
        save_model(path, params, state)
        _, loaded = load_model(path)
        assert loaded.step == state.step
        for name in state.first:
            assert loaded.first[name].tobytes() == state.first[name].tobytes()
            assert loaded.second[name].tobytes() == state.second[name].tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.mnet"
        path.write_bytes(b"XNET" + bytes(60))
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "model.mnet"
        save_model(path, params)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)


class TestTrainingSampleChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_rejected(self, bad):
        window = np.zeros((4, 6))
        window[2, 3] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            TrainingSample(window=window, style_id=0, target_vertices=np.zeros(15))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        target = np.zeros(15)
        target[7] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            TrainingSample(window=np.zeros((4, 6)), style_id=0, target_vertices=target)

    @pytest.mark.parametrize("shape", [(24,), (1, 4, 6)])
    def test_window_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            TrainingSample(window=np.zeros(shape), style_id=0, target_vertices=np.zeros(15))

    @pytest.mark.parametrize("shape", [(), (5, 3)])
    def test_target_must_be_1d(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            TrainingSample(window=np.zeros((4, 6)), style_id=0, target_vertices=np.zeros(shape))


def small_rig(seed=0, vertices=12):
    """A B=51 rig on a 12-vertex mesh, for full-width (K=8, H=64) models."""
    rng = np.random.default_rng(seed)
    fields = tuple(rng.uniform(-0.2, 0.2, 3 * vertices) for _ in range(51))
    return LbsRig(
        mesh=FaceMesh(rng.uniform(-1.0, 1.0, 3 * vertices)),
        basis=BlendshapeBasis(tuple(f"s{b}" for b in range(51)), fields),
        mouth_mask=np.array([2, 5, 9]),
    )


def full_width_params(seed=4):
    params = init_params(seed, window_size=8, hidden_size=64, style_count=3, output_size=51)
    params.style_table[...] = np.random.default_rng(seed).uniform(
        -0.3, 0.3, params.style_table.shape
    )
    return params


def full_width_samples(rig, count, seed=5):
    rng = np.random.default_rng(seed)
    return [
        TrainingSample(
            window=rng.normal(0.0, 1.0, (8, 392)),
            style_id=i % 3,
            target_vertices=human_decode(rig, rng.uniform(0.1, 0.9, 51))
            + rng.normal(0.0, 0.01, rig.mesh.positions.size),
        )
        for i in range(count)
    ]


def per_sample_epoch(params, rig, dataset, config, monkeypatch):
    """One epoch written per sample: the seed's stream draws the permutation,
    then one mask per sample in batch order; ``backward`` runs on each sample
    with that mask, the gradients are summed and divided, then one AdamW step.
    Returns the per-sample losses in visiting order."""
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(dataset))
    state = AdamState.zeros_like(params)
    rate = config.dropout_rate
    losses = []
    for start in range(0, len(dataset), config.batch_size):
        batch = order[start : start + config.batch_size]
        total = {name: np.zeros_like(array) for name, array in named_arrays(params)}
        for i in batch:
            mask = (rng.random(2 * params.hidden_size) >= rate) / (1.0 - rate)
            monkeypatch.setattr(motionnet, "_dropout_masks", lambda *_: mask[None])
            sample = dataset[i]
            grads = backward(params, rig, sample, config.mouth_weight, rate)
            losses.append(training_loss(params, rig, sample, config.mouth_weight, rate))
            for name in total:
                total[name] += grads[name]
        monkeypatch.undo()
        for name in total:
            total[name] /= batch.size
        _adam_step(params, total, state, config)
    return np.array(losses)


def max_relative_gap(a: dict, b: dict) -> float:
    return max(np.abs(a[n] - b[n]).max() / max(np.abs(b[n]).max(), 1e-300) for n in b)


class TestBatchedTraining:
    def check_epoch_matches_per_sample_loop(self, count, batch_size, monkeypatch):
        # Default learning rate: AdamW divides by sqrt(v) + 1e-8, so the
        # rounding of a near-zero gradient entry reaches its parameter
        # scaled by up to learning_rate / 1e-8.
        rig = small_rig()
        dataset = full_width_samples(rig, count)
        config = TrainConfig(epochs=1, batch_size=batch_size, dropout_rate=0.3, seed=11)
        batched = full_width_params()
        _, history = train(batched, rig, dataset, config)
        looped = full_width_params()
        losses = per_sample_epoch(looped, rig, dataset, config, monkeypatch)
        assert max_relative_gap(dict(named_arrays(batched)), dict(named_arrays(looped))) < 1e-12
        assert history.train_loss[0] == pytest.approx(losses.mean(), rel=1e-12)
        moved = full_width_params()
        assert max_relative_gap(dict(named_arrays(batched)), dict(named_arrays(moved))) > 1e-6

    def test_whole_dataset_batch_matches_per_sample_loop(self, monkeypatch):
        self.check_epoch_matches_per_sample_loop(6, 6, monkeypatch)

    def test_ragged_last_batch_matches_per_sample_loop(self, monkeypatch):
        self.check_epoch_matches_per_sample_loop(7, 3, monkeypatch)

    def test_batch_gradients_equal_summed_backward(self):
        rig = small_rig()
        params = full_width_params()
        dataset = full_width_samples(rig, 5)
        summed = {name: np.zeros_like(array) for name, array in named_arrays(params)}
        for sample in dataset:
            for name, g in backward(params, rig, sample, 2.0).items():
                summed[name] += g
        batched, losses = motionnet._batch_gradients(params, rig, dataset, 2.0, None)
        assert max_relative_gap(batched, summed) < 1e-12
        expected = [training_loss(params, rig, s, 2.0) for s in dataset]
        np.testing.assert_allclose(losses, expected, rtol=1e-12, atol=0.0)

    def test_out_of_range_style_in_batch_raises_value_error(self):
        rig = small_rig()
        dataset = full_width_samples(rig, 4)
        bad = dataset[2]
        dataset[2] = TrainingSample(bad.window, 3, bad.target_vertices)
        with pytest.raises(ValueError, match="style_id"):
            train(full_width_params(), rig, dataset, TrainConfig(epochs=1, batch_size=4))

    def test_validation_loss_is_mean_of_sample_losses(self):
        rig = small_rig()
        samples = full_width_samples(rig, 9)
        config = TrainConfig(epochs=1, batch_size=2, seed=3)
        params, history = train(full_width_params(), rig, samples[:4], config,
                                validation=samples[4:])
        expected = np.mean([training_loss(params, rig, s, config.mouth_weight)
                            for s in samples[4:]])
        assert history.val_loss[0] == pytest.approx(expected, rel=1e-12)

    def test_batched_forward_matches_single_windows(self):
        params = full_width_params()
        rng = np.random.default_rng(8)
        windows = rng.normal(0.0, 1.0, (20, 8, 392))
        styles = rng.integers(0, 3, 20)
        theta, _ = _run_forward(params, windows, styles, None)
        single = np.stack([forward(params, w, int(s)).values for w, s in zip(windows, styles)])
        np.testing.assert_allclose(theta, single, rtol=1e-12, atol=0.0)
