"""Bit-identity oracles for the step-function, Breslow and N-step kernels.

The step-function and Breslow kernels split into an index step, which
depends on the data alone, and an apply step; the references below do the
whole lookup or update in one shot.

The kernels mix the splitmix64 stream in place, draw dropout masks by
comparing the mixed words against an integer threshold, gate the relu
backward pass by multiplying with a boolean and form the one-unit output
layer's backward product by broadcasting.  The references below keep the
plain formulas: a fresh array per mixing step, a float draw compared against
q inside ``np.where``, ``np.where`` relu gates and matmuls throughout.  The
kernels must return the same numbers exactly; only the sign of a zero may
differ, which ``==`` does not see.  The same holds for the epoch loop, whose
dropout epochs run partly on a helper thread, against a serial loop.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import psi

from neuralscr import _kernels

from conftest import reference_breslow_jumps

MASK64 = (1 << 64) - 1


def reference_uniforms(key, count):
    """The splitmix64 draws at `key`, one fresh array per mixing step."""
    z = np.uint64(key) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def reference_mask(key, g, layer, rows, cols, q):
    layer_key = (int(key) + (g * 16 + layer) * 0xD1B54A32D192ED03) & MASK64
    u = reference_uniforms(layer_key, rows * cols).reshape(rows, cols)
    mask = np.where(u < q, 0, 1 / (1 - q))
    mask[-1] = 1.0
    return mask


def reference_loss_and_grads(W, B, dims, X, ev, lam, egam, elog, const_q123, xi, l2,
                             dropout_q, rng_key):
    """The training loss and its gradients, written with np.where and
    matmuls only (xi is trained).  W[g][l] and B[g][l] are the layers of
    sub-network g; dW and dB come back nested the same way."""
    n = X.shape[0]
    nf = float(n)
    Xa = np.concatenate((X, np.zeros((1, X.shape[1]))))
    dW = [[np.zeros_like(w) for w in net] for net in W]
    dB = [[np.zeros_like(b) for b in net] for net in B]
    q = const_q123
    for g in range(3):
        layers = list(zip(W[g], B[g]))
        masks = None
        if dropout_q > 0.0:
            masks = [reference_mask(rng_key, g, l, n + 1, w.shape[0], dropout_q)
                     for l, (w, _) in enumerate(layers[:-1])]
        ins, zs = [], []
        A = Xa
        for l, (w, b) in enumerate(layers):
            if l:
                A = np.maximum(zs[-1], 0.0)
                if masks is not None:
                    A = A * masks[l - 1]
            ins.append(A)
            zs.append(A @ w.T + b)
        out = zs[-1][:, 0]
        h = out[:n] - out[n]
        eh = np.exp(h)
        q += np.sum(ev[g] * h - egam * lam[g] * eh)
        dh = -(ev[g] - egam * lam[g] * eh) / nf
        dZ = np.append(dh, -np.sum(dh))[:, None]
        for l in range(len(layers) - 1, -1, -1):
            w = layers[l][0]
            dW[g][l] += dZ.T @ ins[l]
            if l < len(layers) - 1:
                dB[g][l] += dZ.sum(axis=0)
            if l > 0:
                dH = dZ @ w
                if masks is not None:
                    dH = dH * masks[l - 1]
                dZ = np.where(zs[l - 1] > 0.0, dH, 0.0)
    sum_elog = np.sum(elog)
    sum_egam = np.sum(egam)
    q += _kernels.q4(nf, xi, sum_elog, sum_egam)
    arrays = [a for params in (W, B) for net in params for a in net]
    loss = -q / nf + l2 * sum(float(np.sum(a * a)) for a in arrays)
    for params, grads in ((W, dW), (B, dB)):
        for net, dnet in zip(params, grads):
            for a, da in zip(net, dnet):
                da += 2.0 * l2 * a
    inv_t = 1.0 / math.exp(xi)
    dxi = float(-(inv_t * (nf * (xi - 1.0 + psi(inv_t)) - sum_elog + sum_egam)) / nf)
    return loss, dW, dB, dxi


keys = st.integers(min_value=0, max_value=MASK64)
probabilities = st.sampled_from([0.5, 0.25, 1e-12, 1 - 2**-53, 0.1, 0.3]) | st.floats(
    min_value=0.0, max_value=1.0, exclude_max=True)


class TestSplitmix64:
    @settings(max_examples=60, deadline=None)
    @given(key=keys, count=st.integers(min_value=0, max_value=300))
    @example(key=0, count=64)
    @example(key=MASK64, count=64)
    def test_uniform_block_matches_the_plain_formula(self, key, count):
        np.testing.assert_array_equal(_kernels.uniform_block(key, count),
                                      reference_uniforms(key, count))

    @settings(max_examples=200, deadline=None)
    @given(key=keys, g=st.integers(0, 2), layer=st.integers(0, 7),
           rows=st.integers(1, 40), cols=st.integers(1, 20), q=probabilities)
    @example(key=0, g=0, layer=0, rows=33, cols=16, q=0.5)
    @example(key=MASK64, g=2, layer=1, rows=33, cols=16, q=0.25)
    @example(key=MASK64, g=1, layer=3, rows=40, cols=20, q=1e-12)
    @example(key=0, g=2, layer=7, rows=40, cols=20, q=1 - 2**-53)
    def test_dropout_mask_matches_the_float_draw(self, key, g, layer, rows, cols, q):
        mask = _kernels.dropout_mask(key, g, layer, rows, cols, q)
        expected = reference_mask(key, g, layer, rows, cols, q)
        assert mask.dtype == np.float64 and mask.shape == (rows, cols)
        np.testing.assert_array_equal(mask, expected)


def training_inputs(seed, n, dims):
    rng = np.random.default_rng(seed)
    W = [[rng.normal(0, 0.6, size=(dout, din)) for din, dout in zip(dims[:-1], dims[1:])]
         for _ in range(3)]
    B = [[rng.normal(0, 0.2, size=k) for k in dims[1:-1]] + [np.zeros(1)] for _ in range(3)]
    X = rng.normal(size=(n, dims[0]))
    ev = (rng.random((3, n)) < 0.4).astype(float)
    lam = rng.uniform(0.05, 0.6, size=(3, n))
    egam = rng.uniform(0.5, 1.8, size=n)
    elog = rng.normal(-0.1, 0.3, size=n)
    return W, B, list(dims), X, ev, lam, egam, elog, 1.3, math.log(0.7)


class TestLossAndGrads:
    @pytest.mark.parametrize("dropout_q", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("n, dims", [(300, (2, 32, 32, 1)), (41, (3, 5, 1)),
                                         (64, (2, 6, 4, 7, 1))])
    @pytest.mark.parametrize("rng_key", [0, 0x0123456789ABCDEF, MASK64])
    def test_matches_the_where_based_reference(self, dropout_q, n, dims, rng_key):
        args = training_inputs(n, n, dims)
        loss, dW, dB, dxi = _kernels.loss_and_grads(*args, 1e-3, dropout_q, rng_key, 1)
        ref = reference_loss_and_grads(*args, 1e-3, dropout_q, rng_key)
        assert loss == ref[0]
        for got, want in ((dW, ref[1]), (dB, ref[2])):
            assert [[a.shape for a in net] for net in got] == \
                [[a.shape for a in net] for net in want]
            for a, b in zip(sum(got, []), sum(want, [])):
                np.testing.assert_array_equal(a, b)
        assert dxi == ref[3]


def reference_train_networks(W0, B0, dims, X, ev, lam, egam, elog, const_q123, xi0,
                             lr, lr_xi, dropout_q, l2, epochs, seed, train_xi):
    """The epoch loop on one thread: each epoch's training pass, then its
    dropout-free loss, then an Adam step on every array in turn."""
    W = [[w.copy() for w in net] for net in W0]
    B = [[b.copy() for b in net] for net in B0]
    arrays = [a for params in (W, B) for net in params for a in net]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    xi, mxi, vxi = xi0, 0.0, 0.0
    best = ([a.copy() for a in arrays], xi)
    best_loss = np.inf
    trace = np.full(epochs + 1, np.nan)
    for epoch in range(epochs + 1):
        if epoch < epochs:
            key = (int(seed) * 0x9E3779B97F4A7C15 + epoch * 0xBF58476D1CE4E5B9) & MASK64
            train_loss, dW, dB, dxi = _kernels.loss_and_grads(
                W, B, dims, X, ev, lam, egam, elog, const_q123, xi, l2, dropout_q, key,
                train_xi)
            cur = train_loss
            if dropout_q > 0.0:
                cur = _kernels.q_loss_eval(W, B, X, ev, lam, egam, elog, const_q123, xi, l2)
        else:
            cur = _kernels.q_loss_eval(W, B, X, ev, lam, egam, elog, const_q123, xi, l2)
        trace[epoch] = cur
        if not np.isfinite(cur):
            break
        if cur < best_loss:
            best_loss = cur
            best = ([a.copy() for a in arrays], xi)
        if epoch == epochs:
            break
        t = float(epoch + 1)
        bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        grads = [d for grads in (dW, dB) for net in grads for d in net]
        for a, d, ma, va in zip(arrays, grads, m, v):
            ma[:] = 0.9 * ma + (1.0 - 0.9) * d
            va[:] = 0.999 * va + (1.0 - 0.999) * d * d
            a -= lr * (ma / bc1) / (np.sqrt(va / bc2) + 1e-8)
        if train_xi != 0:
            mxi = 0.9 * mxi + (1.0 - 0.9) * dxi
            vxi = 0.999 * vxi + (1.0 - 0.999) * dxi * dxi
            xi -= lr_xi * (mxi / bc1) / (math.sqrt(vxi / bc2) + 1e-8)
    parts = iter(best[0])
    W_best = [[next(parts) for _ in net] for net in W0]
    B_best = [[next(parts) for _ in net] for net in B0]
    return W_best, B_best, best[1], trace, int(not np.all(np.isfinite(trace)))


class TestTrainNetworks:
    """The epoch loop against the one-thread loop.  Dropout epochs draw their
    masks and evaluate the dropout-free loss on a helper thread; the larger
    batch holds matrix products long enough for numpy to release the
    interpreter lock, so the two threads overlap."""

    def assert_same_training(self, args, hyper):
        got = _kernels.train_networks(*args, *hyper)
        want = reference_train_networks(*args, *hyper)
        for nested_got, nested_want in zip(got[:2], want[:2]):
            for a, b in zip(sum(nested_got, []), sum(nested_want, [])):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[3], want[3])
        assert got[4] == want[4]
        return got

    @pytest.mark.parametrize("n", [50, 6400])
    @pytest.mark.parametrize("dropout_q", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("epochs", [1, 2, 8])
    @pytest.mark.parametrize("dims", [(2, 4, 4, 1), (3, 8, 1)])
    def test_matches_the_serial_loop(self, dropout_q, epochs, dims, n, helper_threads):
        args = training_inputs(epochs, n, dims)
        got = self.assert_same_training(args, (1e-2, 5e-3, dropout_q, 1e-3, epochs, 17, 1))
        assert got[4] == 0
        assert len(helper_threads) == (dropout_q > 0.0)

    @pytest.mark.parametrize("n", [50, 6400])
    @pytest.mark.parametrize("dropout_q", [0.0, 0.1])
    def test_matches_the_serial_loop_when_it_diverges(self, dropout_q, n, helper_threads):
        # Adam steps of about lr = 50 blow the outputs up within a few epochs
        args = training_inputs(5, n, (2, 4, 4, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.assert_same_training(args, (50.0, 5e-3, dropout_q, 1e-3, 8, 17, 1))
        assert got[4] == 1 and np.isfinite(got[3][0])
        assert len(helper_threads) == (dropout_q > 0.0)


class TestDropThreshold:
    @settings(max_examples=300, deadline=None)
    @given(q=probabilities)
    @example(q=0.0)
    @example(q=2**-53)
    @example(q=5e-324)
    def test_words_at_the_threshold_agree_with_the_float_draw(self, q):
        # the threshold is where `(z >> 11) / 2**53 < q` flips, so check the
        # words on both sides of it and at the ends of their 2**11-word runs
        thr = int(_kernels.drop_threshold(q))
        for z in (thr - 2049, thr - 2048, thr - 1, thr, thr + 2047, thr + 2048):
            if 0 <= z <= MASK64:
                u = float(z >> 11) * (1.0 / 9007199254740992.0)
                assert (u < q) == (z < thr), (q, z, thr)


def reference_cumulative(jump_times, jump_sizes, t):
    return np.concatenate(([0.0], np.cumsum(jump_sizes)))[np.searchsorted(jump_times, t, "right")]


def reference_jump_at(jump_times, jump_sizes, t):
    idx = np.searchsorted(jump_times, t, side="left")
    out = np.zeros(len(t))
    for i, k in enumerate(idx):
        if k < len(jump_times) and jump_times[k] == t[i]:
            out[i] = jump_sizes[k]
    return out


# times on a coarse grid, so events tie with each other and with exposures
ticks = st.integers(min_value=0, max_value=12).map(lambda k: 0.25 * k)


class TestEventIndex:
    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(ticks, max_size=30),
           at_risk=st.lists(st.tuples(ticks, st.floats(0.01, 10.0)), min_size=1, max_size=40))
    @example(events=[], at_risk=[(0.5, 1.0)])
    @example(events=[0.5, 0.5, 1.0], at_risk=[(0.5, 1.0), (0.25, 2.0), (1.0, 0.5), (1.0, 3.0)])
    def test_breslow_index_then_apply(self, events, at_risk):
        rt = np.array([t for t, _ in at_risk])
        w = np.array([v for _, v in at_risk])
        # as in data, someone is at risk at every event time
        ev = np.array([t for t in events if t <= rt.max()])
        times, counts, order, start = _kernels.breslow_index(ev, rt)
        ref_times, ref_jumps = reference_breslow_jumps(ev, rt, w)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(_kernels.breslow_apply(counts, order, start, w), ref_jumps)
        composed = _kernels.breslow_jumps(ev, rt, w)
        np.testing.assert_array_equal(composed[0], ref_times)
        np.testing.assert_array_equal(composed[1], ref_jumps)

    def test_breslow_tails_do_not_cancel(self):
        # early weights up to 1e38 times the late ones, as under a diverging
        # linear coefficient: total-less-prefix risk sums lose every digit of
        # the late tails; no tail may lose more than half its 53 bits
        rt = np.arange(1.0, 13.0)
        w = 10.0 ** np.linspace(8.0, -30.0, 12)
        ev = rt[[1, 4, 8, 10, 11]]
        _, jumps = _kernels.breslow_jumps(ev, rt, w)
        exact = [1.0 / math.fsum(w[rt >= t]) for t in ev]
        np.testing.assert_allclose(jumps, exact, rtol=2.0 ** -26)

    @settings(max_examples=200, deadline=None)
    @given(jumps=st.lists(st.tuples(ticks.filter(lambda t: t > 0), st.floats(0.01, 5.0)),
                          min_size=1, max_size=12),
           queries=st.lists(ticks, max_size=30))
    @example(jumps=[(1.0, 0.5)], queries=[1.0])
    def test_step_lookups_index_then_apply(self, jumps, queries):
        jt, first = np.unique([t for t, _ in jumps], return_index=True)
        js = np.array([s for _, s in jumps])[first]
        padded = np.concatenate(([0.0], np.cumsum(js)))
        # before the first jump, on and between jumps, after the last one
        t = np.concatenate(([-1.0, 0.0, jt[0], jt[-1], jt[-1] + 1e-9, 1e9], queries))
        expected = reference_cumulative(jt, js, t)
        np.testing.assert_array_equal(padded[_kernels.step_rank(jt, t)], expected)
        np.testing.assert_array_equal(_kernels.step_cumulative(jt, padded, t), expected)
        expected = reference_jump_at(jt, js, t)
        slot, hit = _kernels.jump_slots(jt, t)
        np.testing.assert_array_equal(_kernels.jumps_at_slots(js, slot, hit), expected)
        np.testing.assert_array_equal(_kernels.step_jump_at(jt, js, t), expected)
