import math

import numpy as np
import pytest
from scipy.special import psi

from neuralscr.likelihood import joint_event_free_survival, observed_log_likelihood
from neuralscr.simulate import SimConfig, simulate
from neuralscr.weibull import (
    ParametricModel,
    _initial_params,
    _invariants,
    _loglik_and_grad,
    fit_parametric,
    predict_parametric,
)


@pytest.fixture(scope="module")
def linear_fit():
    ds, _ = simulate(SimConfig(n=2000, theta=0.5, risk_kind="linear", seed=8))
    return ds, fit_parametric(ds, seed=0)


class TestLoglikGrad:
    def test_value_matches_likelihood_module(self, linear_fit):
        ds, model = linear_fit
        packed = np.concatenate(
            [np.log(model.phi).ravel(), model.beta.ravel(), [np.log(model.theta)]]
        )
        ll, _ = _loglik_and_grad(packed, ds)
        assert ll == pytest.approx(observed_log_likelihood(ds, model.to_state()), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        ds, _ = simulate(SimConfig(n=300, theta=0.8, risk_kind="linear",
                                   censoring_target=0.25, seed=3))
        rng = np.random.default_rng(5)
        params = np.concatenate([
            rng.normal(0, 0.3, 6), rng.normal(0, 0.3, 3 * ds.p), [0.2],
        ])
        _, grad = _loglik_and_grad(params, ds)
        for j in range(len(params)):
            e = np.zeros_like(params)
            e[j] = 1e-6
            lp, _ = _loglik_and_grad(params + e, ds)
            lm, _ = _loglik_and_grad(params - e, ds)
            num = (lp - lm) / 2e-6
            assert grad[j] == pytest.approx(num, rel=2e-5, abs=1e-6)


def reference_loglik_and_grad(params, dataset):
    """The objective with every parameter-free piece recomputed per call."""
    p = dataset.p
    log_phi = params[:6].reshape(3, 2)
    beta = params[6:6 + 3 * p].reshape(3, p)
    log_theta = params[-1]
    phi = np.exp(log_phi)
    inv_t = 1.0 / math.exp(log_theta)
    d1, d2 = dataset.delta1, dataset.delta2
    tr = dataset.transitions
    ev, event_t = tr.event, tr.event_time
    h = dataset.x @ beta.T if p else np.zeros((dataset.n, 3))
    eh = np.exp(h)
    lam, log_exp_t = [], []
    for g in range(3):
        tg = tr.exposure[g]
        on = tr.at_risk[g] & (tg > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lt = np.where(on, np.log(np.maximum(tg, 1e-300)), 0.0)
        lam.append(on * phi[g, 0] * np.exp(phi[g, 1] * lt))
        log_exp_t.append(lt)
    lam = np.array(lam)
    a_tilde = inv_t + d1 + d2
    b_tilde = inv_t + sum(lam[g] * eh[:, g] for g in range(3))
    # lgamma(a~) - lgamma(1/theta) as the log rising factorial of the event count
    log_rising = (np.where(d1 + d2 > 0, math.log(inv_t), 0.0)
                  + np.where(d1 + d2 > 1, math.log(inv_t + 1.0), 0.0))
    ll = np.sum(log_rising) - dataset.n * inv_t * log_theta
    ll -= float(np.sum(a_tilde * np.log(b_tilde)))
    for g in range(3):
        mask = ev[g] > 0
        if np.any(mask):
            ll += float(np.sum(log_phi[g, 0] + log_phi[g, 1]
                               + (phi[g, 1] - 1.0) * np.log(event_t[g][mask]) + h[mask, g]))
    grad = np.zeros_like(params)
    ab = a_tilde / b_tilde
    for g in range(3):
        w = ab * lam[g] * eh[:, g]
        mask = ev[g] > 0
        grad[2 * g] = float(np.sum(mask) - np.sum(w))
        ev_part = 0.0
        if np.any(mask):
            ev_part = float(np.sum(1.0 + phi[g, 1] * np.log(event_t[g][mask])))
        grad[2 * g + 1] = ev_part - float(np.sum(w * phi[g, 1] * log_exp_t[g]))
        if p:
            gb = dataset.x[mask].sum(axis=0) if np.any(mask) else np.zeros(p)
            grad[6 + g * p: 6 + (g + 1) * p] = gb - dataset.x.T @ w
    part = -psi(a_tilde) + psi(inv_t) + log_theta - 1.0 + np.log(b_tilde) + ab
    grad[-1] = float(np.sum(part) * inv_t)
    return float(ll), grad


class TestHoistedInvariants:
    """`fit_parametric` computes the objective's parameter-free pieces once;
    every evaluation must still equal the recompute-everything formula."""

    @pytest.mark.parametrize("seed", [3, 8])
    def test_equal_to_the_per_call_formula(self, seed):
        ds, _ = simulate(SimConfig(n=400, theta=0.7, risk_kind="linear",
                                   censoring_target=0.3, seed=seed))
        # the same subjects with no progression: transitions 1 and 3 have
        # no events, so their event terms are empty
        no_illness = ds.subset(np.flatnonzero(ds.delta1 == 0))
        rng = np.random.default_rng(seed)
        for data in (ds, no_illness):
            inv = _invariants(data)
            base = _initial_params(data)
            for _ in range(20):
                params = base + rng.normal(0.0, 0.3, size=base.shape)
                ll, grad = _loglik_and_grad(params, data, inv)
                ref_ll, ref_grad = reference_loglik_and_grad(params, data)
                assert ll == ref_ll
                np.testing.assert_array_equal(grad, ref_grad)
                ll2, grad2 = _loglik_and_grad(params, data)
                assert ll2 == ll
                np.testing.assert_array_equal(grad2, grad)


class TestFit:
    def test_theta_recovery(self, linear_fit):
        # Weibulls (2, 2.25)/(2, 2.25)/(0.75, 2), theta 0.5, linear beta = 1
        _, model = linear_fit
        assert 0.35 <= model.theta <= 0.65

    def test_parameter_recovery(self, linear_fit):
        _, model = linear_fit
        np.testing.assert_allclose(model.beta, np.ones((3, 2)), atol=0.2)
        np.testing.assert_allclose(model.phi[0], (2.0, 2.25), rtol=0.2)
        np.testing.assert_allclose(model.phi[2], (0.75, 2.0), rtol=0.25)

    def test_exponential_shape_recovery(self):
        # shape-1 Weibulls everywhere: fitted shapes near 1 at n = 2000
        ds, _ = simulate(SimConfig(
            n=2000, theta=0.5, weibulls=((0.5, 1.0), (0.5, 1.0), (0.5, 1.0)),
            risk_kind="none", seed=9,
        ))
        model = fit_parametric(ds, seed=1)
        for g in range(3):
            assert 0.9 <= model.phi[g, 1] <= 1.1

    def test_gradient_small_at_optimum(self, linear_fit):
        ds, model = linear_fit
        packed = np.concatenate(
            [np.log(model.phi).ravel(), model.beta.ravel(), [np.log(model.theta)]]
        )
        # central-difference gradient of the mean log likelihood
        n = ds.n
        worst = 0.0
        for j in range(len(packed)):
            e = np.zeros_like(packed)
            e[j] = 1e-5
            lp, _ = _loglik_and_grad(packed + e, ds)
            lm, _ = _loglik_and_grad(packed - e, ds)
            worst = max(worst, abs(lp - lm) / 2e-5 / n)
        assert worst < 1e-4

    def test_mle_dominates_truth_on_own_sample(self):
        # fitted log likelihood >= truth's on >= 95% of replicates
        wins = 0
        reps = 20
        for r in range(reps):
            ds, _ = simulate(SimConfig(n=400, theta=0.5, risk_kind="linear", seed=100 + r))
            model = fit_parametric(ds, seed=r, restarts=2)
            truth = ParametricModel(
                phi=np.array([[2.0, 2.25], [2.0, 2.25], [0.75, 2.0]]),
                beta=np.ones((3, 2)),
                theta=0.5,
            )
            if model.loglik >= observed_log_likelihood(ds, truth.to_state()) - 1e-9:
                wins += 1
        assert wins >= 0.95 * reps

    def test_linear_mise_small(self, linear_fit):
        # parametric fit on truly linear data recovers the surfaces
        ds, model = linear_fit
        h_hat = model.h_values(ds.x)
        truth = ds.x.sum(axis=1)
        for g in range(3):
            assert np.mean((h_hat[:, g] - truth) ** 2) < 0.05


class TestPredict:
    def test_one_at_zero(self, linear_fit):
        _, model = linear_fit
        assert predict_parametric(model, np.zeros(2), 0.0) == pytest.approx(1.0)

    def test_closed_form(self):
        model = ParametricModel(
            phi=np.array([[0.3, 1.0], [0.2, 1.0], [0.1, 1.0]]),
            beta=np.zeros((3, 0)),
            theta=0.5,
        )
        # A = 0.3 t + 0.2 t at t = 1
        assert predict_parametric(model, np.zeros(0), 1.0) == pytest.approx(
            (1 + 0.5 * 0.5) ** -2.0
        )

    def test_theta_limit(self):
        tiny = ParametricModel(
            phi=np.array([[0.3, 1.0], [0.2, 1.0], [0.1, 1.0]]),
            beta=np.zeros((3, 0)),
            theta=1e-10,
        )
        assert predict_parametric(tiny, np.zeros(0), 1.0) == pytest.approx(
            np.exp(-0.5), abs=1e-6
        )

    def test_matches_core_survival(self, linear_fit):
        ds, model = linear_fit
        ts = np.array([0.2, 0.5, 1.0])
        direct = predict_parametric(model, ds.x[:5], 0.5)
        via_core = joint_event_free_survival(ds.x[:5], 0.5, model.to_state())
        np.testing.assert_allclose(direct, via_core, rtol=1e-12)
