"""Multi-task risk networks and the N-step trainer.

Three fully-connected sub-networks (relu hidden layers, linear output with
its bias pinned at zero) produce the transition log-risks h1, h2, h3; the
frailty variance rides along as a trainable parameter xi = log(theta).  The
training objective is the negative expected complete-data log likelihood
divided by n, with the E-step posterior moments and the M-step baselines
frozen, plus an optional squared-weight penalty.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .core import Dataset, ModelState
from .em import EMConfig, LinearRiskSpec, NonConvergenceWarning, q_function, run_em
from .frailty import FrailtyPosterior
from .likelihood import SubjectTerms, evaluate_terms, event_log_terms


class DivergedLossWarning(UserWarning):
    pass


def derive_seed(*parts) -> int:
    """Stable 32-bit stream seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    dropout_fraction: float = 0.1
    l2_rate: float = 1e-4
    hidden_layers: int = 2
    nodes: int = 32
    seed: int = 0
    # the scalar log-variance moves on a gentler landscape than the weights
    xi_learning_rate: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.dropout_fraction < 1.0:
            raise ValueError("dropout_fraction must be in [0, 1)")
        if self.l2_rate < 0:
            raise ValueError("l2_rate must be nonnegative")
        if self.hidden_layers < 1 or self.nodes < 1:
            raise ValueError("need at least one hidden layer and one node")


def default_grid() -> tuple:
    """Hyperparameter grid: (nodes, hidden_layers, lr, dropout, l2) tuples."""
    return tuple(
        itertools.product((16, 32, 64), (1, 2), (1e-2, 1e-3), (0.0, 0.1, 0.3), (0.0, 1e-4, 1e-3))
    )


class RiskNetwork:
    """One sub-network: weight matrices W_l (k_out x k_in) and bias vectors,
    copied from the arrays given, whose shapes must chain."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        self.weights = [np.array(w, dtype=float) for w in weights]
        self.biases = [np.array(b, dtype=float) for b in biases]
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up, one per layer")
        if any(w.ndim != 2 for w in self.weights) or any(b.ndim != 1 for b in self.biases):
            raise ValueError("weights must be matrices and biases vectors")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            din = self.weights[l - 1].shape[0] if l else w.shape[1]
            if w.shape[1] != din or b.shape != (w.shape[0],):
                raise ValueError(f"layer {l} has W {w.shape} and b {b.shape}; "
                                 f"expected W (k, {din}) and b (k,)")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output layer must have a single unit")
        if np.any(self.biases[-1] != 0.0):
            raise ValueError("output bias is constrained to zero")

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.weights, self.biases))

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [w.shape[0] for w in self.weights]


def init_network(p: int, hidden_layers: int, nodes: int, rng) -> RiskNetwork:
    """Variance-preserving uniform init (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    dims = [p] + [nodes] * hidden_layers + [1]
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / (din + dout))
        weights.append(rng.uniform(-bound, bound, size=(dout, din)))
        biases.append(np.zeros(dout))
    return RiskNetwork(weights, biases)


def forward(network: RiskNetwork, x) -> float | np.ndarray:
    """h(x) of one sub-network, uncentered: relu hidden layers, linear output."""
    single = np.ndim(x) == 1
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[1] != network.input_dim:
        raise ValueError(
            f"expected covariate dimension {network.input_dim}, got {a.shape[1]}"
        )
    out = _kernels.mlp_output(network.layers, a)
    return float(out[0]) if single else out


class NeuralRisk:
    """Risk model of three sub-networks that share one architecture, dims =
    [p, k_1, ..., 1].  `W` and `B` hand the training kernels the networks'
    own weight and bias arrays, nested by sub-network and layer.

    Risk values are reference-centered, h_g(x) = F_g(x) - F_g(0), so a
    zero-covariate subject carries unit relative risk and the baselines keep
    the reference scale; without this anchor a constant shift of h against
    the baselines is a flat direction of the likelihood.
    """

    def __init__(self, networks: Sequence[RiskNetwork]):
        self.networks = list(networks)
        if len(self.networks) != 3:
            raise ValueError("expected three sub-networks")
        self.dims = self.networks[0].layer_dims
        if any(net.layer_dims != self.dims for net in self.networks):
            raise ValueError("sub-networks must share one architecture")

    @property
    def W(self) -> list[list[np.ndarray]]:
        return [net.weights for net in self.networks]

    @property
    def B(self) -> list[list[np.ndarray]]:
        return [net.biases for net in self.networks]

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.column_stack([_kernels.net_forward(net.layers, x) for net in self.networks])


def _loss_inputs(dataset: Dataset, terms: SubjectTerms, posteriors: FrailtyPosterior):
    """Frozen arrays feeding the training kernels, plus the h/xi-free constant."""
    ev = dataset.transitions.event
    const = float(np.sum((dataset.delta1 + dataset.delta2) * posteriors.log_mean))
    const += float(np.sum(event_log_terms(ev, terms.haz, 0.0)))
    return dataset.x, ev, terms.lam, const


def loss(dataset: Dataset, posteriors: FrailtyPosterior, state: ModelState,
         l2_rate: float = 0.0) -> float:
    """-(Q1+Q2+Q3+Q4)/n plus l2_rate times the sum of squared weights and
    biases.

    Constant-in-(h, xi) pieces (jump-size logs, posterior E[log gamma] event
    terms) are kept so the value matches the Q trace.  Biases share the
    penalty so near-constant level shifts of h (built from saturated hidden
    units) stay expensive relative to genuine shape.
    """
    qv = q_function(dataset, posteriors, state)
    penalty = 0.0
    if l2_rate > 0 and isinstance(state.risk_model, NeuralRisk):
        risk = state.risk_model
        penalty = l2_rate * _kernels.sum_of_squares(risk.W, risk.B)
    return -qv.total / dataset.n + penalty


@dataclass
class TrainStepInfo:
    loss_trace: np.ndarray
    best_loss: float
    diverged: bool


def train_step(
    dataset: Dataset,
    terms: SubjectTerms,
    posteriors: FrailtyPosterior,
    state: ModelState,
    config: TrainConfig,
    epochs: int,
    seed: Optional[int] = None,
    train_xi: bool = True,
):
    """Full-batch adaptive-moment training of the sub-networks and xi, for
    `epochs` epochs.

    Posteriors and baselines stay frozen, and `terms` holds the baselines of
    `state` at the data; returns the parameters with the lowest recorded
    deterministic loss, the new theta, and a trace.
    """
    risk = state.risk_model
    if not isinstance(risk, NeuralRisk):
        raise TypeError("train_step requires a NeuralRisk model")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    x, ev, lam, const = _loss_inputs(dataset, terms, posteriors)
    kernel_seed = config.seed if seed is None else seed
    with np.errstate(over="ignore", invalid="ignore"):
        W, B, xi, trace, diverged = _kernels.train_networks(
            risk.W, risk.B, risk.dims, x, ev, lam,
            posteriors.mean, posteriors.log_mean, const,
            math.log(state.theta),
            config.learning_rate, config.xi_learning_rate,
            config.dropout_fraction, config.l2_rate,
            epochs, kernel_seed, 1 if train_xi else 0,
        )
    if diverged:
        warnings.warn(
            "training loss became non-finite; keeping the best finite parameters",
            DivergedLossWarning,
            stacklevel=2,
        )
    new_risk = NeuralRisk([RiskNetwork(w, b) for w, b in zip(W, B)])
    finite = trace[np.isfinite(trace)]
    info = TrainStepInfo(
        loss_trace=trace,
        best_loss=float(finite.min()) if len(finite) else float("nan"),
        diverged=bool(diverged),
    )
    return new_risk, float(xi), info


def loss_gradients(dataset, posteriors, state, config: TrainConfig, train_xi: bool = True):
    """Analytic (loss, dW, dB, dxi) without dropout, for gradient checks."""
    risk = state.risk_model
    x, ev, lam, const = _loss_inputs(dataset, evaluate_terms(dataset, state), posteriors)
    value, dW, dB, dxi = _kernels.loss_and_grads(
        risk.W, risk.B, risk.dims, x, ev, lam,
        posteriors.mean, posteriors.log_mean, const,
        math.log(state.theta), config.l2_rate, 0.0, 0, 1 if train_xi else 0,
    )
    return float(value), dW, dB, float(dxi)


@dataclass
class NeuralRiskSpec:
    """N-step strategy for :func:`neuralscr.em.run_em`.

    theta starts at `theta_init`, else at the theta of a linear-risk EM fit
    to the same data under the default :class:`EMConfig`; that fit needs no
    scipy, and a capped one still gives a usable start, so its
    NonConvergenceWarning is not passed on."""

    train: TrainConfig = TrainConfig()
    theta_init: Optional[float] = None

    def initial_theta(self, dataset: Dataset) -> float:
        if self.theta_init is not None:
            return self.theta_init
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            return run_em(dataset, LinearRiskSpec()).state.theta

    def initial_risk_model(self, dataset: Dataset, rng):
        nets = [
            init_network(dataset.p, self.train.hidden_layers, self.train.nodes, rng)
            for _ in range(3)
        ]
        return NeuralRisk(nets)

    def update(self, dataset, terms, posteriors, state, config: EMConfig, iteration: int):
        new_risk, xi, _ = train_step(
            dataset, terms, posteriors, state, self.train,
            epochs=config.n_step_epochs_per_iteration,
            seed=derive_seed(config.seed, self.train.seed, iteration),
        )
        return new_risk, math.exp(xi)


def mise(h_true, h_fitted, covariates) -> float:
    """Mean squared difference of two log-risk surfaces over a sample."""
    x = np.atleast_2d(np.asarray(covariates, dtype=float))
    if len(x) == 0:
        raise ValueError("covariates must be nonempty")

    def evaluate(fn):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = np.asarray(fn(x), dtype=float)
            if vals.shape == (len(x),):
                return vals
        except Exception:
            pass
        return np.array([float(fn(row)) for row in x])

    diff = evaluate(h_true) - evaluate(h_fitted)
    return float(np.mean(diff**2))


def grid_search(
    dataset: Dataset,
    folds: int,
    grid: Sequence[tuple],
    base_config: TrainConfig = TrainConfig(),
    em_config: EMConfig = EMConfig(),
    horizon: Optional[float] = None,
    seed: int = 0,
    theta_init: Optional[float] = None,
    return_scores: bool = False,
):
    """Pick the grid point with the best cross-validated integrated BBS.

    Grid entries are (nodes, hidden_layers, learning_rate, dropout, l2);
    ties break toward the smaller network, then the lower learning rate.
    With return_scores=True also returns [(point, mean_ibbs), ...].
    """
    from .harness import cv

    if folds < 2:
        raise ValueError("folds must be >= 2")
    if not grid:
        raise ValueError("grid must be nonempty")
    if horizon is None:
        horizon = float(np.quantile(dataset.y2, 0.8))

    results = []
    scores = []
    for point in grid:
        nodes, layers, lr, dropout, l2 = point
        cfg = replace(
            base_config,
            nodes=int(nodes), hidden_layers=int(layers),
            learning_rate=float(lr), dropout_fraction=float(dropout),
            l2_rate=float(l2),
        )
        res = cv(
            dataset, "neural", folds=folds, horizon=horizon, seed=seed,
            em_config=em_config, train_config=cfg, theta_init=theta_init,
        )
        n_params = layers * nodes + nodes * nodes * (layers - 1) + nodes
        results.append((res.mean_ibbs, n_params, lr, cfg))
        scores.append((tuple(point), res.mean_ibbs))
    results.sort(key=lambda r: (r[0], r[1], r[2]))
    if return_scores:
        return results[0][3], scores
    return results[0][3]
