import threading

import numpy as np
import pytest

from neuralscr.core import Dataset, LinearRisk, ModelState, StepHazard, ZeroRisk
from neuralscr.simulate import SimConfig, simulate


def random_step_hazard(rng, max_jumps=12, t_max=3.0):
    k = rng.integers(1, max_jumps + 1)
    times = np.sort(rng.uniform(0.05, t_max, size=k))
    times = np.unique(times)
    sizes = rng.uniform(0.01, 0.5, size=len(times))
    return StepHazard(times, sizes)


def reference_breslow_jumps(event_times, at_risk_times, at_risk_weights):
    """The Breslow update in one shot: sort, cumulate and search per call."""
    u, counts = np.unique(event_times, return_counts=True)
    order = np.argsort(at_risk_times)
    rt = at_risk_times[order]
    w = at_risk_weights[order]
    pos = np.searchsorted(rt, u, side="left")
    csum = np.concatenate((np.zeros(1), np.cumsum(w)))
    # tails that the difference would cancel are summed from the far end
    tail = np.concatenate((np.cumsum(w[::-1])[::-1], np.zeros(1)))
    risk = csum[-1] - csum[pos]
    return u, counts / np.where(risk < 2.0 ** -26 * csum[-1], tail[pos], risk)


def random_dataset(rng, n=50, p=2, censoring=0.3):
    """Small valid dataset with all four observation cases represented."""
    x = rng.standard_normal((n, p)) if p else np.zeros((n, 0))
    t1 = rng.exponential(1.0, size=n)
    t2_direct = rng.exponential(1.3, size=n)
    prog = t1 < t2_direct
    soj = rng.exponential(0.7, size=n)
    t_death = np.where(prog, t1 + soj, t2_direct)
    t_prog = np.where(prog, t1, np.inf)
    c = rng.exponential(1.0 / censoring, size=n) if censoring > 0 else np.full(n, np.inf)
    y2 = np.minimum(t_death, c)
    d2 = (t_death <= c).astype(float)
    y1 = np.minimum(t_prog, y2)
    d1 = (t_prog <= y2).astype(float)
    return Dataset(y1, d1, y2, d2, x)


def random_state(rng, p=2, risk="linear"):
    if risk == "linear":
        model = LinearRisk(rng.normal(0, 0.4, size=(3, p)))
    else:
        model = ZeroRisk()
    return ModelState(
        lambda01=random_step_hazard(rng),
        lambda02=random_step_hazard(rng),
        lambda03=random_step_hazard(rng),
        theta=float(rng.uniform(0.2, 2.0)),
        risk_model=model,
    )


def event_anchored_state(rng, dataset, theta=None, risk="linear"):
    """State whose baselines jump at the dataset's own event times, so every
    event carries positive mass (valid likelihood evaluations)."""
    ev2 = (1.0 - dataset.delta1) * dataset.delta2
    ev3 = dataset.delta1 * dataset.delta2
    t1 = np.unique(dataset.y1[dataset.delta1 == 1])
    t2 = np.unique(dataset.y2[ev2 == 1])
    t3 = np.unique(dataset.sojourn[ev3 == 1])

    def hz(times):
        if len(times) == 0:
            return StepHazard.empty()
        return StepHazard(times, rng.uniform(0.02, 0.3, size=len(times)))

    if risk == "linear":
        model = LinearRisk(rng.normal(0, 0.4, size=(3, dataset.p)))
    else:
        model = ZeroRisk()
    return ModelState(
        lambda01=hz(t1),
        lambda02=hz(t2),
        lambda03=hz(t3),
        theta=float(theta if theta is not None else rng.uniform(0.2, 2.0)),
        risk_model=model,
    )


def worst_gradient_error(f, W, B, xi, dW, dB, dxi, eps=1e-5):
    """The largest relative gap between the analytic gradients (dW, dB, dxi)
    and central differences of the loss f(W, B, xi).

    W and B are nested per sub-network and layer, as the training kernels
    take them; every weight, every hidden bias and xi is stepped by +-eps in
    turn on a copy.  The output biases are pinned at zero and skipped.
    """
    W = [[w.copy() for w in net] for net in W]
    B = [[b.copy() for b in net] for net in B]
    live = [(a, da) for params, grads in ((W, dW), (B, dB))
            for net, dnet in zip(params, grads)
            for a, da in zip(net[:-1] if params is B else net, dnet)]

    def gap(num, exact):
        return abs(num - exact) / max(abs(num), 1e-7)

    worst = 0.0
    for a, da in live:
        for idx in np.ndindex(a.shape):
            v = a[idx]
            a[idx] = v + eps
            up = f(W, B, xi)
            a[idx] = v - eps
            down = f(W, B, xi)
            a[idx] = v
            worst = max(worst, gap((up - down) / (2 * eps), da[idx]))
    return max(worst, gap((f(W, B, xi + eps) - f(W, B, xi - eps)) / (2 * eps), dxi))


@pytest.fixture
def helper_threads(monkeypatch):
    """The threads on which `_kernels.train_networks` ran its dropout
    helper during the test."""
    from neuralscr import _kernels

    threads = []
    helper = _kernels._dropout_helper

    def recorded(*args):
        threads.append(threading.current_thread())
        helper(*args)

    monkeypatch.setattr(_kernels, "_dropout_helper", recorded)
    return threads


@pytest.fixture(scope="session")
def linear_sim_small():
    """One simulated linear dataset reused by several test modules."""
    return simulate(SimConfig(n=400, theta=0.5, risk_kind="linear", seed=42))
