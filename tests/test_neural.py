import math
import re
import warnings

import numpy as np
import pytest

from neuralscr import _kernels
from neuralscr import neural as neural_module
from neuralscr.core import Dataset, ModelState, StepHazard, ZeroRisk
from neuralscr.em import EMConfig, LinearRiskSpec, nelson_aalen_seed, q_function, run_em
from neuralscr.frailty import posterior
from neuralscr.likelihood import evaluate_terms
from neuralscr.neural import (
    NeuralRisk,
    NeuralRiskSpec,
    RiskNetwork,
    TrainConfig,
    default_grid,
    forward,
    init_network,
    loss,
    loss_gradients,
    mise,
    train_step,
)
from neuralscr.simulate import SimConfig, risk_values, simulate
from neuralscr.weibull import fit_parametric

from conftest import random_dataset, worst_gradient_error


def straight_line_forward(net: RiskNetwork, x):
    """Independent reimplementation of the layer recursion."""
    a = np.asarray(x, dtype=float)
    n_layers = len(net.weights)
    for l in range(n_layers):
        z = net.weights[l] @ a + net.biases[l]
        a = np.maximum(z, 0.0) if l < n_layers - 1 else z
    return float(a[0])


def jittered_networks(rng, p=2, layers=2, nodes=4):
    """Networks at a generic point (biases off the relu kinks)."""
    nets = []
    for _ in range(3):
        net = init_network(p, layers, nodes, rng)
        for b in net.biases[:-1]:
            b += rng.normal(0, 0.3, size=b.shape)
        nets.append(net)
    return nets


def neural_state(rng, ds, theta=0.7, **net_kw):
    risk = NeuralRisk(jittered_networks(rng, p=ds.p, **net_kw))
    b1, b2, b3 = nelson_aalen_seed(ds)
    return ModelState(b1, b2, b3, theta=theta, risk_model=risk)


def kernel_inputs(seed, n):
    """(W, B, dims, X, ev, lam, egam, elog, const, xi): the leading arguments
    of the training kernels for a random dataset and network."""
    from neuralscr.neural import _loss_inputs

    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=n)
    state = neural_state(rng, ds)
    post = posterior(ds, state)
    x, ev, lam, const = _loss_inputs(ds, evaluate_terms(ds, state), post)
    risk = state.risk_model
    return (risk.W, risk.B, risk.dims, x, ev, lam, post.mean, post.log_mean, const,
            math.log(state.theta))


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = RiskNetwork(
            [np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3), np.zeros(1)]
        )
        assert forward(net, np.array([0.7, -1.2])) == 0.0

    def test_hand_computed_absolute_value(self):
        net = RiskNetwork(
            [np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
            [np.zeros(2), np.zeros(1)],
        )
        for v in (-2.0, -0.3, 0.0, 1.7):
            assert forward(net, np.array([v])) == pytest.approx(abs(v))

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(7)
        net = jittered_networks(rng)[0]
        for _ in range(100):
            x = rng.normal(0, 2, size=2)
            assert forward(net, x) == pytest.approx(straight_line_forward(net, x), rel=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(8)
        net = jittered_networks(rng)[0]
        xs = rng.normal(size=(10, 2))
        batch = forward(net, xs)
        np.testing.assert_allclose(batch, [forward(net, x) for x in xs], rtol=1e-12)

    def test_deterministic_without_dropout(self):
        rng = np.random.default_rng(9)
        net = jittered_networks(rng)[0]
        x = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(forward(net, x), forward(net, x))

    @pytest.mark.parametrize("layers", [1, 3])
    def test_forward_only_pass_equals_the_training_recursion(self, layers):
        # same arithmetic as mlp, so the same bits; the input is left as it is
        rng = np.random.default_rng(11)
        net = jittered_networks(rng, layers=layers)[0]
        pairs = list(zip(net.weights, net.biases))
        x = rng.normal(size=(40, 2))
        x_before = x.copy()
        out = _kernels.mlp_output(pairs, x)
        np.testing.assert_array_equal(out, _kernels.mlp(pairs, x)[1][-1][:, 0])
        np.testing.assert_array_equal(x, x_before)

    def test_dropout_unbiased_through_linear_output(self):
        # inverted dropout: E[masked activations] equals the deterministic
        # activations, so a single-hidden-layer output is unbiased
        rng = np.random.default_rng(10)
        net = jittered_networks(rng, layers=1, nodes=64)[0]
        layers = list(zip(net.weights, net.biases))
        x = rng.normal(size=(5, 2))
        # the mask's last row is the never-dropped reference row
        draws = np.array([
            _kernels.mlp(layers, x, [_kernels.dropout_mask(key, 0, 0, 5, 64, 0.4)])[1][-1][:, 0]
            for key in range(3000)
        ])
        se = draws[:, :-1].std(axis=0) / math.sqrt(len(draws))
        diff = np.abs(draws[:, :-1].mean(axis=0) - forward(net, x[:-1]))
        assert np.all(diff < 4 * se + 1e-12)

    def test_dropout_changes_training_outputs(self):
        args = kernel_inputs(101, 30)
        clean = _kernels.loss_and_grads(*args, 0.0, 0.0, 0, 1)[0]
        noisy = _kernels.loss_and_grads(*args, 0.0, 0.5, 12345, 1)[0]
        assert noisy != pytest.approx(clean, rel=1e-6)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        net = jittered_networks(rng)[0]
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))

    def test_output_bias_must_be_zero(self):
        with pytest.raises(ValueError):
            RiskNetwork([np.zeros((1, 2))], [np.array([0.5])])

    @pytest.mark.parametrize("weights, biases, message", [
        ([np.zeros((4, 2)), np.zeros((1, 3))], [np.zeros(4), np.zeros(1)],
         "layer 1 has W (1, 3) and b (1,); expected W (k, 4)"),
        ([np.zeros((4, 2)), np.zeros((1, 4))], [np.zeros(3), np.zeros(1)],
         "layer 0 has W (4, 2) and b (3,)"),
        ([np.zeros(2)], [np.zeros(1)], "weights must be matrices"),
        ([np.zeros((4, 2))], [], "pair up"),
    ], ids=["unchained-layer", "bias-shape", "vector-weight", "unpaired"])
    def test_layers_must_chain(self, weights, biases, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RiskNetwork(weights, biases)


class TestDropoutMask:
    """The counter-based splitmix64 mask, the one dropout of the N-step."""

    def test_kept_fraction(self):
        for q in (0.1, 0.25, 0.5):
            mask = _kernels.dropout_mask(99, 1, 0, 2001, 50, q)[:-1]
            se = math.sqrt(q * (1 - q) / mask.size)
            assert abs(np.mean(mask > 0) - (1 - q)) < 4 * se
            assert set(np.unique(mask)) == {0.0, 1.0 / (1.0 - q)}

    def test_inverted_scaling_is_unbiased(self):
        q = 0.3
        mask = _kernels.dropout_mask(7, 2, 1, 4001, 32, q)[:-1]
        se = math.sqrt(q / (1 - q) / mask.size)
        assert abs(mask.mean() - 1.0) < 4 * se

    def test_reference_row_never_dropped(self):
        for key in range(200):
            mask = _kernels.dropout_mask(key, key % 3, key % 2, 3, 16, 0.9)
            np.testing.assert_array_equal(mask[-1], 1.0)

    def test_fixed_key_gives_same_mask(self):
        a = _kernels.dropout_mask(2**64 - 1, 2, 1, 40, 8, 0.25)
        b = _kernels.dropout_mask(2**64 - 1, 2, 1, 40, 8, 0.25)
        np.testing.assert_array_equal(a, b)
        c = _kernels.dropout_mask(2**64 - 2, 2, 1, 40, 8, 0.25)
        assert not np.array_equal(a, c)

    def test_training_with_dropout_raises_no_runtime_warning(self):
        args = kernel_inputs(21, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _kernels.train_networks(*args, 1e-3, 0.05, 0.25, 1e-4, 5, 2**32 - 1, 1)


class TestNeuralRiskValues:
    def test_centered_at_origin(self):
        rng = np.random.default_rng(12)
        risk = NeuralRisk(jittered_networks(rng))
        np.testing.assert_allclose(risk.values(np.zeros((1, 2))), 0.0, atol=1e-14)

    def test_values_are_centered_forward(self):
        rng = np.random.default_rng(13)
        nets = jittered_networks(rng)
        risk = NeuralRisk(nets)
        xs = rng.normal(size=(6, 2))
        vals = risk.values(xs)
        for g in range(3):
            ref = forward(nets[g], np.zeros(2))
            np.testing.assert_allclose(vals[:, g], forward(nets[g], xs) - ref, rtol=1e-12)

    def test_networks_are_copies_of_the_arrays_given(self):
        rng = np.random.default_rng(14)
        nets = jittered_networks(rng)
        weights = [w.copy() for w in nets[0].weights]
        risk = NeuralRisk([RiskNetwork(weights, nets[0].biases), nets[1], nets[2]])
        before = risk.values(np.ones((1, 2)))
        weights[0] += 1.0
        np.testing.assert_array_equal(risk.values(np.ones((1, 2))), before)


class TestLoss:
    def test_zero_networks_give_minus_q_over_n(self):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, n=30)
        zero_nets = [
            RiskNetwork([np.zeros((4, ds.p)), np.zeros((1, 4))], [np.zeros(4), np.zeros(1)])
            for _ in range(3)
        ]
        b1, b2, b3 = nelson_aalen_seed(ds)
        state = ModelState(b1, b2, b3, theta=0.8, risk_model=NeuralRisk(zero_nets))
        post = posterior(ds, state)
        val = loss(ds, post, state, l2_rate=0.0)
        zero_state = ModelState(b1, b2, b3, theta=0.8, risk_model=ZeroRisk())
        expected = -q_function(ds, posterior(ds, zero_state), zero_state).total / ds.n
        assert val == pytest.approx(expected, rel=1e-12)

    def test_raising_h1_with_no_events_increases_loss(self):
        # all transition-1 indicators zero: pushing h1 up only inflates the
        # transition-1 survival exposure, so the loss must increase
        rng = np.random.default_rng(16)
        n = 25
        y2 = rng.exponential(1.0, n) + 0.1
        ds = Dataset(y2, np.zeros(n), y2, np.ones(n), rng.normal(size=(n, 1)))
        lam01 = StepHazard([0.05], [0.4])  # exposure mass before every y1
        lam02 = StepHazard(np.unique(y2), np.full(len(np.unique(y2)), 0.05))
        state = ModelState(lam01, lam02, StepHazard.empty(), theta=0.8, risk_model=ZeroRisk())
        post = posterior(ds, state)
        base = q_function(ds, post, state)

        from neuralscr.core import FixedRisk

        shifted = ModelState(
            lam01, lam02, StepHazard.empty(), theta=0.8,
            risk_model=FixedRisk(lambda r: 1.0, lambda r: 0.0, lambda r: 0.0),
        )
        up = q_function(ds, post, shifted)
        assert -up.total / n > -base.total / n

    def test_kernel_loss_matches_q_function_path(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, n=40)
        state = neural_state(rng, ds)
        post = posterior(ds, state)
        cfg = TrainConfig(l2_rate=5e-4, dropout_fraction=0.0)
        val, _, _, _ = loss_gradients(ds, post, state, cfg)
        assert val == pytest.approx(loss(ds, post, state, l2_rate=5e-4), rel=1e-12)


class TestGradients:
    def test_gradients_match_finite_differences(self):
        from neuralscr.neural import _loss_inputs

        rng = np.random.default_rng(18)
        ds = random_dataset(rng, n=10)
        state = neural_state(rng, ds)
        post = posterior(ds, state)
        cfg = TrainConfig(l2_rate=1e-3, dropout_fraction=0.0)
        _, dW, dB, dxi = loss_gradients(ds, post, state, cfg)
        risk = state.risk_model
        x, ev, lam, const = _loss_inputs(ds, evaluate_terms(ds, state), post)

        def f(W, B, xi_):
            return _kernels.q_loss_eval(
                W, B, x, ev, lam, post.mean, post.log_mean, const, xi_, cfg.l2_rate
            )

        worst = worst_gradient_error(f, risk.W, risk.B, math.log(state.theta), dW, dB, dxi)
        assert worst < 1e-4


class TestTrainStep:
    def make_problem(self, seed=19, n=60):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=n)
        state = neural_state(rng, ds, nodes=8)
        post = posterior(ds, state)
        return ds, state, post

    def test_zero_learning_rate_keeps_parameters(self):
        ds, state, post = self.make_problem()
        cfg = TrainConfig(learning_rate=0.0, xi_learning_rate=0.0, dropout_fraction=0.1)
        new_risk, xi, info = train_step(ds, evaluate_terms(ds, state), post, state, cfg,
                                        epochs=5, seed=3)
        for new, old in zip(new_risk.networks, state.risk_model.networks):
            for a, b in zip(new.weights + new.biases, old.weights + old.biases):
                np.testing.assert_array_equal(a, b)
        assert xi == math.log(state.theta)

    def test_output_bias_stays_zero(self):
        ds, state, post = self.make_problem()
        cfg = TrainConfig(learning_rate=1e-2, dropout_fraction=0.2)
        new_risk, _, _ = train_step(ds, evaluate_terms(ds, state), post, state, cfg,
                                    epochs=40, seed=5)
        for net in new_risk.networks:
            assert np.all(net.biases[-1] == 0.0)

    def test_returns_best_loss_parameters(self):
        ds, state, post = self.make_problem()
        cfg = TrainConfig(learning_rate=5e-3, dropout_fraction=0.0)
        new_risk, xi, info = train_step(ds, evaluate_terms(ds, state), post, state, cfg,
                                        epochs=30, seed=7)
        final_state = ModelState(
            state.lambda01, state.lambda02, state.lambda03,
            theta=math.exp(xi), risk_model=new_risk,
        )
        achieved = loss(ds, post, final_state, l2_rate=cfg.l2_rate)
        assert achieved == pytest.approx(info.best_loss, rel=1e-10)
        assert info.best_loss <= info.loss_trace[0] + 1e-12

    def test_training_is_seed_deterministic(self):
        ds, state, post = self.make_problem()
        cfg = TrainConfig(learning_rate=1e-3, dropout_fraction=0.3)
        a, xa, _ = train_step(ds, evaluate_terms(ds, state), post, state, cfg, epochs=10, seed=11)
        b, xb, _ = train_step(ds, evaluate_terms(ds, state), post, state, cfg, epochs=10, seed=11)
        for net_a, net_b in zip(a.networks, b.networks):
            for wa, wb in zip(net_a.weights, net_b.weights):
                np.testing.assert_array_equal(wa, wb)
        assert xa == xb

    def test_loss_decreases_over_first_epochs(self):
        # over 10 seeds, >= 9 training runs must improve within 5 epochs
        wins = 0
        for seed in range(10):
            ds, state, post = self.make_problem(seed=100 + seed, n=80)
            cfg = TrainConfig(learning_rate=1e-3, dropout_fraction=0.0)
            _, _, info = train_step(ds, evaluate_terms(ds, state), post, state, cfg,
                                    epochs=5, seed=seed)
            if info.loss_trace[-1] < info.loss_trace[0]:
                wins += 1
        assert wins >= 9


class TestThetaSeed:
    def test_seed_is_the_theta_of_a_linear_em_fit(self):
        ds = random_dataset(np.random.default_rng(23), n=80)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            linear = run_em(ds, LinearRiskSpec()).state.theta
        assert NeuralRiskSpec().initial_theta(ds) == linear

    def test_theta_init_wins_and_runs_no_seed_fit(self, monkeypatch):
        ds = random_dataset(np.random.default_rng(23), n=80)

        def no_fit(*args, **kwargs):
            raise AssertionError("the seed fit ran")

        monkeypatch.setattr(neural_module, "run_em", no_fit)
        assert NeuralRiskSpec(theta_init=0.7).initial_theta(ds) == 0.7


class TestMise:
    def test_identical_functions(self):
        rng = np.random.default_rng(20)
        xs = rng.normal(size=(50, 2))
        fn = lambda x: x[:, 0] if x.ndim == 2 else x[0]
        assert mise(fn, fn, xs) == 0.0

    def test_constant_difference(self):
        xs = np.zeros((10, 1))
        assert mise(lambda x: np.zeros(len(x)), lambda x: np.ones(len(x)), xs) == pytest.approx(1.0)

    def test_rowwise_callable_fallback(self):
        xs = np.array([[1.0], [2.0]])
        assert mise(lambda row: float(row[0]), lambda row: 0.0, xs) == pytest.approx(2.5)


@pytest.fixture(scope="module")
def gs_problem():
    ds, _ = simulate(SimConfig(n=80, theta=0.5, risk_kind="linear",
                               censoring_target=0.2, seed=13))
    em = EMConfig(max_iterations=6, tolerance=1e-4,
                  n_step_epochs_per_iteration=5, seed=0)
    return ds, em


class TestGridSearch:
    def test_single_point_grid_returned(self, gs_problem):
        from neuralscr.neural import grid_search

        ds, em = gs_problem
        point = (8, 1, 3e-3, 0.0, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chosen = grid_search(ds, folds=2, grid=[point], em_config=em,
                                 seed=5, theta_init=0.5)
        assert (chosen.nodes, chosen.hidden_layers) == (8, 1)
        assert chosen.learning_rate == pytest.approx(3e-3)
        assert chosen.l2_rate == pytest.approx(1e-3)

    def test_degenerate_dropout_never_selected(self, gs_problem):
        from neuralscr.neural import grid_search

        ds, em = gs_problem
        grid = [(8, 1, 3e-3, 0.0, 1e-3), (8, 1, 3e-3, 0.99, 1e-3)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chosen = grid_search(ds, folds=2, grid=grid, em_config=em,
                                 seed=5, theta_init=0.5)
        assert chosen.dropout_fraction < 0.5

    def test_selection_metric_matches_cv(self, gs_problem):
        from neuralscr.harness import cv
        from neuralscr.neural import grid_search

        ds, em = gs_problem
        point = (8, 1, 3e-3, 0.0, 1e-3)
        horizon = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chosen, scores = grid_search(ds, folds=2, grid=[point], em_config=em,
                                         horizon=horizon, seed=5, theta_init=0.5,
                                         return_scores=True)
            direct = cv(ds, "neural", folds=2, horizon=horizon, seed=5,
                        em_config=em, train_config=chosen, theta_init=0.5)
        assert scores[0][1] == direct.mean_ibbs


class TestEndToEnd:
    def test_linear_recovery_correlation(self):
        # trained h1 tracks x'beta up to an additive constant: corr > 0.95
        ds, _ = simulate(SimConfig(n=2000, theta=0.5, risk_kind="linear", seed=31))
        par = fit_parametric(ds, seed=0)
        spec = NeuralRiskSpec(
            train=TrainConfig(nodes=32, hidden_layers=2, l2_rate=1e-3,
                              dropout_fraction=0.0, learning_rate=1e-3, seed=0),
            theta_init=par.theta,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, spec, EMConfig(max_iterations=60, tolerance=1e-6,
                                            n_step_epochs_per_iteration=10, seed=0))
        h_hat = res.state.risk_values(ds.x)
        truth = risk_values("linear", ds.x)
        for g in range(3):
            corr = np.corrcoef(h_hat[:, g], truth[:, g])[0, 1]
            assert corr > 0.95

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 108
        assert all(len(point) == 5 for point in grid)
