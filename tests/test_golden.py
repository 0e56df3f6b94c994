"""Golden outputs: kernel values and fitted parameters at fixed seeds.

``golden.json`` holds the numbers the kernels and the three fitters produced
when it was recorded.  A refactor of the numeric core has to reproduce them:

* kernel values within 1e-12 relative;
* fitted theta, coefficients, baseline jumps and log-risks within 1e-6
  relative, the observed log likelihood within 1e-10 relative, and EM
  iteration counts exactly.

The fitted tolerances are looser because an optimizer run to tolerance
turns a last-bit change in a special function into a larger shift of its
stopping point.  "Relative" is taken against the largest magnitude in each
array, so entries near zero do not dominate.

Rewrite an entry only for a change that is meant to move its numbers, and
name each entry to rewrite, as `kernels` or `fits` or as one of their keys;
every other entry keeps its bytes:

    PYTHONPATH=src python tests/test_golden.py --write fits.neural_em
"""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neuralscr import _kernels
from neuralscr.em import EMConfig
from neuralscr.harness import fit_model
from neuralscr.likelihood import observed_log_likelihood
from neuralscr.neural import TrainConfig
from neuralscr.simulate import SimConfig, simulate
from neuralscr.weibull import fit_parametric

GOLDEN = Path(__file__).with_name("golden.json")
KERNEL_RTOL = 1e-12
FIT_RTOL = 1e-6
LOGLIK_RTOL = 1e-10


def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def _padded(nested):
    """Per-network, per-layer arrays zero-padded into the stored layout:
    (3, 3, 4, 4) for weights, (3, 3, 4) for biases."""
    out = np.zeros((3, 3) + (4,) * nested[0][0].ndim)
    for g, net in enumerate(nested):
        for l, a in enumerate(net):
            out[(g, l) + tuple(slice(k) for k in a.shape)] = a
    return _arr(out)


def kernel_values() -> dict:
    rng = np.random.default_rng(12345)
    out = {}

    jt = np.sort(rng.uniform(0.1, 3.0, size=9))
    js = rng.uniform(0.05, 0.4, size=9)
    padded = np.concatenate(([0.0], np.cumsum(js)))
    t = rng.uniform(0.0, 3.5, size=40)
    out["step_cumulative"] = _arr(_kernels.step_cumulative(jt, padded, t))
    out["step_jump_at"] = _arr(_kernels.step_jump_at(jt, js, np.concatenate((jt[:4], t[:6]))))

    ev = np.sort(rng.uniform(0.1, 2.0, size=15))
    ev[3] = ev[2]  # a tie shares one jump
    risk_t = rng.uniform(0.05, 3.0, size=50)
    w = rng.uniform(0.2, 2.0, size=50)
    u, jumps = _kernels.breslow_jumps(ev, risk_t, w)
    out["breslow_times"] = _arr(u)
    out["breslow_jumps"] = _arr(jumps)

    out["uniform_block"] = _arr(_kernels.uniform_block(0xF1E2D3C4B5A69788, 64))

    # three sub-networks of layer widths 2-4-4-1; the output bias stays zero
    dims = [2, 4, 4, 1]
    W, B = [], []
    for g in range(3):
        W.append([])
        B.append([])
        for l in range(3):
            din, dout = dims[l], dims[l + 1]
            W[g].append(rng.normal(0, 0.5, size=(dout, din)))
            B[g].append(rng.normal(0, 0.2, size=dout) if l < 2 else np.zeros(1))
    X = rng.normal(size=(30, 2))
    evm = (rng.random((3, 30)) < 0.4).astype(float)
    lam = rng.uniform(0.05, 0.6, size=(3, 30))
    egam = rng.uniform(0.5, 1.8, size=30)
    elog = rng.normal(-0.1, 0.3, size=30)
    data = (X, evm, lam, egam, elog, 1.2, math.log(0.6))

    out["net_forward"] = [_arr(_kernels.net_forward(list(zip(W[g], B[g])), X)) for g in range(3)]
    out["q_loss_eval"] = float(_kernels.q_loss_eval(W, B, *data, 1e-3))
    for name, q in (("loss_and_grads", 0.0), ("loss_and_grads_dropout", 0.25)):
        value, dW, dB, dxi = _kernels.loss_and_grads(
            W, B, dims, *data, 1e-3, q, 0x0123456789ABCDEF, 1)
        out[name] = {"loss": float(value), "dW": _padded(dW), "dB": _padded(dB),
                     "dxi": float(dxi)}
    Wt, Bt, xi, trace, diverged = _kernels.train_networks(
        W, B, dims, *data, 1e-2, 0.05, 0.25, 1e-3, 8, 777, 1)
    out["train_networks"] = {"W": _padded(Wt), "B": _padded(Bt), "xi": float(xi),
                             "trace": _arr(trace), "diverged": int(diverged)}
    return out


def _em_summary(ds, fitted) -> dict:
    state = fitted.model
    return {
        "theta": float(state.theta),
        "jump_times": [_arr(hz.jump_times) for hz in state.baselines],
        "jump_sizes": [_arr(hz.jump_sizes) for hz in state.baselines],
        "h": _arr(state.risk_values(ds.x)),
        "loglik": float(observed_log_likelihood(ds, state)),
        "iterations": len(fitted.trace_rows),
    }


def fitted_values() -> dict:
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds, _ = simulate(SimConfig(n=200, theta=0.5, risk_kind="nonmonotonic",
                                   censoring_target=0.25, seed=11))
        neural = fit_model(
            ds, "neural", em_config=EMConfig(max_iterations=12, n_step_epochs_per_iteration=10),
            train_config=TrainConfig(nodes=8, hidden_layers=2, dropout_fraction=0.1, seed=3),
            seed=3,
        )
        out["neural_em"] = _em_summary(ds, neural)

        ds_lin, _ = simulate(SimConfig(n=300, theta=0.8, risk_kind="linear",
                                       censoring_target=0.3, seed=5))
        linear = fit_model(ds_lin, "linear", seed=1)
        out["linear_em"] = _em_summary(ds_lin, linear)
        out["linear_em"]["beta"] = _arr(linear.model.risk_model.beta)

        par = fit_parametric(ds_lin)
        out["parametric"] = {"theta": float(par.theta), "phi": _arr(par.phi),
                             "beta": _arr(par.beta), "loglik": float(par.loglik)}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_close(actual, expected, rtol, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, what
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale, err_msg=what)


class TestKernelGolden:
    @pytest.fixture(scope="class")
    def current(self):
        return kernel_values()

    @pytest.mark.parametrize("name", [
        "step_cumulative", "step_jump_at", "breslow_times", "breslow_jumps",
        "uniform_block", "net_forward", "q_loss_eval",
    ])
    def test_value(self, current, golden, name):
        assert_close(current[name], golden["kernels"][name], KERNEL_RTOL, name)

    @pytest.mark.parametrize("name", ["loss_and_grads", "loss_and_grads_dropout"])
    def test_loss_and_grads(self, current, golden, name):
        for part in ("loss", "dW", "dB", "dxi"):
            assert_close(current[name][part], golden["kernels"][name][part],
                         KERNEL_RTOL, f"{name}.{part}")

    def test_train_networks(self, current, golden):
        ref = golden["kernels"]["train_networks"]
        for part in ("W", "B", "xi", "trace"):
            assert_close(current["train_networks"][part], ref[part], KERNEL_RTOL, part)
        assert current["train_networks"]["diverged"] == ref["diverged"]


class TestFittedGolden:
    @pytest.fixture(scope="class")
    def current(self):
        return fitted_values()

    @pytest.mark.parametrize("fit", ["neural_em", "linear_em"])
    def test_em_fit(self, current, golden, fit):
        got, ref = current[fit], golden["fits"][fit]
        assert got["iterations"] == ref["iterations"]
        assert_close(got["theta"], ref["theta"], FIT_RTOL, "theta")
        for g in range(3):
            np.testing.assert_array_equal(got["jump_times"][g], ref["jump_times"][g])
            assert_close(got["jump_sizes"][g], ref["jump_sizes"][g], FIT_RTOL, f"jumps {g + 1}")
        assert_close(got["h"], ref["h"], FIT_RTOL, "h")
        assert_close(got["loglik"], ref["loglik"], LOGLIK_RTOL, "loglik")
        if "beta" in ref:
            assert_close(got["beta"], ref["beta"], FIT_RTOL, "beta")

    def test_parametric_fit(self, current, golden):
        got, ref = current["parametric"], golden["fits"]["parametric"]
        for part in ("theta", "phi", "beta"):
            assert_close(got[part], ref[part], FIT_RTOL, part)
        assert_close(got["loglik"], ref["loglik"], LOGLIK_RTOL, "loglik")


def write(entries):
    """Recompute the named entries and splice them into the stored file."""
    doc = json.loads(GOLDEN.read_text())
    fresh = {}
    for entry in entries:
        section, _, key = entry.partition(".")
        if section not in doc or (key and key not in doc[section]):
            sys.exit(f"unknown golden entry {entry!r}")
        if section not in fresh:
            fresh[section] = {"kernels": kernel_values, "fits": fitted_values}[section]()
        if key:
            doc[section][key] = fresh[section][key]
        else:
            doc[section] = fresh[section]
    GOLDEN.write_text(json.dumps(doc) + "\n")
    print(f"wrote {', '.join(entries)} to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) < 3:
        sys.exit(__doc__)
    write(sys.argv[2:])
