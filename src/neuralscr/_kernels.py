"""Hot numeric kernels of the neural EM.

Python-facing wrappers with validation live in the regular modules; these
functions assume clean inputs.

Dropout masks come from a counter-based splitmix64 stream keyed on
(seed, epoch, sub-network, layer), so a mask depends on its key alone and no
global generator state is touched.

A dropout `train_networks` call runs on two threads.  While the calling
thread takes an epoch's training pass, one helper thread evaluates the
dropout-free loss at that epoch's parameters and then draws the next epoch's
masks, handing them over one sub-network at a time; neither depends on the
pass.  Every float comes from the same operations as in a serial loop, so
the results are the serial loop's at any thread timing and any BLAS thread
count.  The helper starts and ends inside the call; without dropout no
helper starts.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# Digamma of one non-negative float.  The E-step needs it only at the three
# posterior shapes 1/theta + delta1 + delta2, so scalar code does.  It ports
# the Cephes routine (Moshier 1989) as scipy.special's `psi` evaluates it,
# operation for operation, so it returns the same floats.  The matching
# log-gamma terms need no port: they only ever enter as
# lgamma(1/theta + k) - lgamma(1/theta), the log of the rising factorial
# (1/theta)(1/theta + 1)...(1/theta + k - 1), whose k <= 2 factors are
# logged directly.
# ---------------------------------------------------------------------------

_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)
_PSI_EULER = 0.5772156649015328606065120
# digamma(x) = (x - root) (Y + R(x - 1)) on [1, 2], the rational fit of Boost;
# the root is split into three parts, and Y is a single-precision constant
_PSI_ROOT = (1569415565.0 / 1073741824.0, (381566830.0 / 1073741824.0) / 1073741824.0,
             0.9016312093258695918615325266959189453125e-19)
_PSI_Y = 0.99558162689208984
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def psi(x: float) -> float:
    """Digamma of a non-negative float (-inf at 0, as scipy gives)."""
    if x < 0.0:
        raise ValueError("psi takes non-negative arguments")
    if math.isnan(x) or x == math.inf:
        return x
    if x == 0.0:
        return -math.inf
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _PSI_EULER
    # the recurrence psi(x + 1) = psi(x) + 1/x moves x into [1, 2]
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        g = x - _PSI_ROOT[0]
        g -= _PSI_ROOT[1]
        g -= _PSI_ROOT[2]
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    # asymptotic series
    s = 0.0
    if x < 1.0e17:
        z = 1.0 / (x * x)
        s = z * _polevl(z, _PSI_A)
    return y + (math.log(x) - 0.5 / x - s)


def gamma_shapes(inv_t: float):
    """(a, psi(a), lgamma(a) - lgamma(inv_t)) as (3,) arrays at the posterior
    Gamma shapes a = 1/theta + delta1 + delta2 of a subject with 0, 1 and 2
    events; index them with the subject's event count.  a[k] is the same
    float sum that inv_t + delta1 + delta2 gives, and the third array is the
    log rising factorial [0, log u, log u + log(u + 1)] at u = inv_t."""
    a = (inv_t, inv_t + 1.0, inv_t + 1.0 + 1.0)
    log_u = math.log(inv_t)
    log_rising = (0.0, log_u, log_u + math.log(a[1]))
    return np.array(a), np.array([psi(v) for v in a]), np.array(log_rising)


# ---------------------------------------------------------------------------
# Step cumulative hazard evaluation.
# ---------------------------------------------------------------------------


def step_rank(jump_times, t):
    """The number of jump times <= t: t's slot in [0, cumsum(jump_sizes)...]."""
    return np.searchsorted(jump_times, t, side="right")


def step_cumulative(jump_times, padded_cum, t):
    """Lambda(t) for a right-continuous step function.

    padded_cum must be [0, cumsum(jump_sizes)...] so that index 0 encodes
    Lambda(t) = 0 before the first jump.
    """
    return padded_cum[step_rank(jump_times, t)]


def jump_slots(jump_times, t):
    """(slot, hit): the position of each t among the (nonempty) jump times,
    clipped to the last one, and whether t is exactly that jump time."""
    n = jump_times.shape[0]
    idx = np.searchsorted(jump_times, t, side="left")
    slot = np.minimum(idx, n - 1)
    hit = (idx < n) & (jump_times[slot] == t)
    return slot, hit


def jumps_at_slots(jump_sizes, slot, hit):
    """Jump sizes at the `jump_slots` positions (0.0 off the jump times)."""
    return np.where(hit, jump_sizes[slot], 0.0)


def step_jump_at(jump_times, jump_sizes, t):
    """Jump size at exactly t (0.0 where t is not a jump time)."""
    return jumps_at_slots(jump_sizes, *jump_slots(jump_times, t))


# ---------------------------------------------------------------------------
# Breslow-type jump updates: one jump per distinct event time,
# jump = event count / weighted at-risk sum.  The index depends on the data
# alone; only the weights change between EM iterations.
# ---------------------------------------------------------------------------


def breslow_index(event_times, at_risk_times):
    """(times, counts, order, start): the distinct event times and their
    counts, the at-risk positions sorted by time, and per event time the
    first sorted position still at risk."""
    times, counts = np.unique(event_times, return_counts=True)
    order = np.argsort(at_risk_times)
    start = np.searchsorted(at_risk_times[order], times, side="left")
    return times, counts, order, start


def breslow_apply(counts, order, start, at_risk_weights):
    """Jump sizes for the `breslow_index` of the data at these weights.

    Each risk set is a tail of the sorted positions; its sum is the total
    less a prefix sum.  That difference cancels when the earlier weights are
    many orders larger than the tail (a diverging linear coefficient does
    this), so a tail below 2**-26 of the total, where the difference would
    lose more than half of a double's 53 bits, is summed from the far end.
    """
    w = at_risk_weights[order]
    csum = np.concatenate((np.zeros(1), np.cumsum(w)))
    risk = csum[-1] - csum[start]
    lossy = risk < 2.0 ** -26 * csum[-1]
    if np.any(lossy):
        tail = np.concatenate((np.cumsum(w[::-1])[::-1], np.zeros(1)))
        risk = np.where(lossy, tail[start], risk)
    return counts / risk


def breslow_jumps(event_times, at_risk_times, at_risk_weights):
    times, counts, order, start = breslow_index(event_times, at_risk_times)
    return times, breslow_apply(counts, order, start, at_risk_weights)


# ---------------------------------------------------------------------------
# Counter-based uniforms (splitmix64) for dropout masks.  Keys are Python
# integers reduced modulo 2**64; the uint64 array arithmetic below wraps
# modulo 2**64, which is the generator's own arithmetic.
# ---------------------------------------------------------------------------


def _splitmix64(key, count):
    """The final mixed words of the splitmix64 stream at `key`, draws 1..count.

    Mixes in place: one array plus one work array of `count` words.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(key)
    t = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def uniform_block(key, count):
    """`count` uniforms in [0, 1) from the splitmix64 stream at `key`."""
    u = _splitmix64(key, count) >> np.uint64(11)
    return u.astype(np.float64) * (1.0 / 9007199254740992.0)


def drop_threshold(q):
    """The mixed word below which a dropout entry is dropped.

    An entry is dropped where its `uniform_block` draw u = (z >> 11) / 2**53
    is below q.  The integer z >> 11 is below q * 2**53 exactly when it is
    below ceil(q * 2**53), that is when z < ceil(q * 2**53) << 11, so the
    mask needs no float draw.  Valid for 0 <= q < 1.
    """
    return np.uint64(math.ceil(q * 9007199254740992.0) << 11)


def dropout_mask(key, g, layer, rows, cols, q):
    """Inverted-dropout mask for hidden `layer` of sub-network g.

    Entries are 0 with probability q and 1/(1-q) otherwise; the last row,
    the zero-covariate reference, is never dropped.
    """
    layer_key = (int(key) + (g * 16 + layer) * 0xD1B54A32D192ED03) & _MASK64
    keep = _splitmix64(layer_key, rows * cols).reshape(rows, cols) >= drop_threshold(q)
    mask = keep * (1.0 / (1.0 - q))
    mask[-1] = 1.0
    return mask


def network_masks(key, g, dims, rows, q):
    """The dropout masks of sub-network g at one epoch's splitmix64 key:
    one per hidden layer, `rows` rows each."""
    return [dropout_mask(key, g, l, rows, k, q) for l, k in enumerate(dims[1:-1])]


# ---------------------------------------------------------------------------
# Multi-task risk networks.
#
# The three sub-networks share one architecture, dims = [p, k_1, ...,
# k_{L-1}, 1].  W and B are nested lists: W[g][l] is the (k_{l+1}, k_l)
# weight matrix of layer l of sub-network g, and B[g][l] its bias vector.
# Hidden activations are relu, the output layer is linear with its bias
# pinned at zero (never updated).
#
# Risk values are reference-centered: h(x) = F(x) - F(0), so the covariate
# origin carries unit relative risk and the baselines keep the reference
# scale (otherwise a constant shift of h against the baselines is a flat
# direction of the likelihood).  The kernels append a zero row to the batch
# and subtract its output; during training that row bypasses dropout.
# ---------------------------------------------------------------------------


def _flat(W, B):
    """The arrays of nested W and B, weights first."""
    return [a for params in (W, B) for net in params for a in net]


def _views(flat, W, B):
    """Views of a flat buffer, laid out as `_flat` lists them, nested and
    shaped as W and B."""
    parts = iter(np.split(flat, np.cumsum([a.size for a in _flat(W, B)])[:-1]))
    return tuple([[next(parts).reshape(a.shape) for a in net] for net in nested]
                 for nested in (W, B))


def sum_of_squares(W, B):
    """The l2 penalty's sum of every squared weight and bias."""
    return sum(float(np.sum(a * a)) for a in _flat(W, B))


def mlp(layers, A, masks=None):
    """The forward recursion: relu hidden layers, linear output.

    Returns every layer's input and pre-activation; the network output is
    zs[-1][:, 0].  masks[l], when given, multiplies the activations of
    hidden layer l (dropout).
    """
    ins, zs = [], []
    for l, (w, b) in enumerate(layers):
        if l:
            A = np.maximum(zs[-1], 0.0)
            if masks is not None:
                A *= masks[l - 1]
        ins.append(A)
        z = A @ w.T
        z += b
        zs.append(z)
    return ins, zs


def mlp_output(layers, A):
    """:func:`mlp`'s network output, zs[-1][:, 0], keeping only the current
    layer's activation alive; for deterministic passes, which need no
    gradients."""
    for l, (w, b) in enumerate(layers):
        if l:
            A = np.maximum(A, 0.0, out=A)
        A = A @ w.T
        A += b
    return A[:, 0]


def _with_reference_row(X):
    return np.concatenate((X, np.zeros((1, X.shape[1]))))


def net_forward(layers, X):
    """Deterministic centered forward pass of one sub-network, given as its
    (weight, bias) layers: (n,) output."""
    out = mlp_output(layers, _with_reference_row(X))
    return out[:-1] - out[-1]


def q4(nf, xi, sum_elog, sum_egam):
    """Q4, the frailty-variance part of Q, at xi = log(theta) for n = nf
    subjects with posterior moment sums sum(E[log gamma]), sum(E[gamma])."""
    inv_t = 1.0 / math.exp(xi)
    return -nf * xi * inv_t + (inv_t - 1.0) * sum_elog - inv_t * sum_egam - nf * math.lgamma(inv_t)


def _exact_loss(W, B, X, ev, lam, egam, elog, const_q123, xi, l2):
    """:func:`q_loss_eval`'s value, computed from the module's untraced
    building blocks so that the dropout helper thread can run it."""
    n = X.shape[0]
    nf = float(n)
    Xa = _with_reference_row(X)
    q = const_q123
    for g in range(3):
        out = mlp_output(list(zip(W[g], B[g])), Xa)
        h = out[:n] - out[n]
        q += np.sum(ev[g] * h - egam * lam[g] * np.exp(h))
    q += q4(nf, xi, np.sum(elog), np.sum(egam))
    return -q / nf + l2 * sum_of_squares(W, B)


def q_loss_eval(W, B, X, ev, lam, egam, elog, const_q123, xi, l2):
    """Full-objective value -(Q1+Q2+Q3+Q4)/n + l2 * sum of squared weights
    and biases.

    ev and lam are (3, n): per-transition event indicators and frozen
    cumulative-baseline terms Lambda_g(.) (without exp(h)).  Penalizing the
    hidden biases keeps the sub-networks close to the positively-homogeneous
    subclass, which pins the additive level of h against the baselines.
    """
    return _exact_loss(W, B, X, ev, lam, egam, elog, const_q123, xi, l2)


def loss_and_grads(W, B, dims, X, ev, lam, egam, elog, const_q123, xi, l2,
                   dropout_q, rng_key, train_xi, *, masks=None):
    """Training loss with dropout plus reverse-mode gradients.

    Returns (loss, dW, dB, dxi), with dW and dB nested as W and B are.
    Dropout masks, one per hidden layer of width dims[l + 1], are the
    :func:`network_masks` at rng_key, drawn here one sub-network at a time
    unless `masks` yields them, sub-network by sub-network;
    dropout_q = 0.0 gives a deterministic pass.
    """
    n = X.shape[0]
    nf = float(n)
    Xa = _with_reference_row(X)
    dW, dB = [], []
    if dropout_q > 0.0 and masks is None:
        masks = (network_masks(rng_key, g, dims, n + 1, dropout_q) for g in range(3))
    if masks is not None:
        masks = iter(masks)

    q = const_q123
    for g in range(3):
        layers = list(zip(W[g], B[g]))
        net_masks = None if masks is None else next(masks)
        ins, zs = mlp(layers, Xa, net_masks)
        out = zs[-1][:, 0]
        h = out[:n] - out[n]
        mu = egam * lam[g] * np.exp(h)
        q += np.sum(ev[g] * h - mu)

        # d(loss)/dh_g with loss = -Q/n + penalty; the reference output
        # receives minus the total upstream gradient, and the pinned output
        # bias none
        dh = -(ev[g] - mu) / nf
        dZ = np.append(dh, -np.sum(dh))[:, None]
        last = len(layers) - 1
        dw = [None] * len(layers)
        db = [None] * last + [np.zeros(1)]
        for l in range(last, -1, -1):
            w = layers[l][0]
            dw[l] = dZ.T @ ins[l]
            if l < last:
                db[l] = dZ.sum(axis=0)
            if l > 0:
                # the output layer has one unit: its dZ @ w is an outer product
                dZ = dZ * w if l == last else dZ @ w
                if net_masks is not None:
                    dZ *= net_masks[l - 1]
                # relu gate by multiplication: wherever dZ is finite this
                # zeroes the inactive units (a zero may come out as -0.0)
                dZ *= zs[l - 1] > 0.0
        dW.append(dw)
        dB.append(db)

    sum_elog = np.sum(elog)
    sum_egam = np.sum(egam)
    q += q4(nf, xi, sum_elog, sum_egam)

    loss = -q / nf + l2 * sum_of_squares(W, B)
    for a, da in zip(_flat(W, B), _flat(dW, dB)):
        da += 2.0 * l2 * a

    dxi = 0.0
    if train_xi != 0:
        inv_t = 1.0 / math.exp(xi)
        dq4_dxi = inv_t * (nf * (xi - 1.0 + psi(inv_t)) - sum_elog + sum_egam)
        dxi = float(-dq4_dxi / nf)
    return loss, dW, dB, dxi


def _epoch_key(seed, epoch):
    """The splitmix64 key of one epoch's dropout masks."""
    return (int(seed) * 0x9E3779B97F4A7C15 + epoch * 0xBF58476D1CE4E5B9) & _MASK64


def _dropout_helper(inbox, outbox, slots, stop, errors, exact_loss, masks_at, epochs):
    """The helper thread of a dropout :func:`train_networks` call.

    Puts epoch 0's masks, sub-network by sub-network, then, for each
    epoch's xi taken from the inbox, the exact loss at the live parameters
    followed by the next epoch's masks.  Takes one of `slots` before it
    draws a sub-network's masks, and the calling thread gives one back as it
    takes them, so at most one sub-network's masks wait ahead of the pass.
    Stops after the last epoch, at a None in the inbox, once `stop` is set,
    or at an exception, which it puts in place of the result it cut short.
    Runs under `errors`, the caller's numpy error state, which threads do
    not inherit.
    """
    def put_masks(epoch):
        for g in range(3):
            slots.acquire()
            if stop.is_set():
                return False
            outbox.put(masks_at(epoch, g))
        return True

    try:
        with np.errstate(**errors):
            if not put_masks(0):
                return
            for epoch in range(epochs):
                xi = inbox.get()
                if xi is None:
                    return
                outbox.put(exact_loss(xi))
                if epoch + 1 < epochs and not put_masks(epoch + 1):
                    return
    except BaseException as exc:
        outbox.put(exc)


def _take(outbox):
    """The helper's next result, re-raising the exception it put instead."""
    item = outbox.get()
    if isinstance(item, BaseException):
        raise item
    return item


def _handed_masks(outbox, slots):
    """One epoch's masks as the helper puts them, sub-network by
    sub-network, giving back a slot for each."""
    for _ in range(3):
        masks = _take(outbox)
        slots.release()
        yield masks


def train_networks(W0, B0, dims, X, ev, lam, egam, elog, const_q123, xi0,
                   lr, lr_xi, dropout_q, l2, epochs, seed, train_xi):
    """Full-batch adaptive-moment training of the three sub-networks and xi.

    Runs `epochs` updates, recording the deterministic (dropout-off) loss
    before every update and once after the last; returns the parameters that
    achieved the lowest recorded loss.  The scalar xi gets its own step size
    lr_xi.  W0 and B0 are left as they are.

    With dropout, a helper thread draws the masks and evaluates each
    epoch's deterministic loss while this thread takes the training pass;
    this thread waits for the loss before it copies or steps the parameters
    the helper reads.  The helper is joined before the call returns or
    raises.

    Returns (W, B, xi, trace, diverged) where trace holds the recorded
    losses and diverged is 1 if a non-finite loss cut training short.
    """
    # every weight and bias lives in one flat buffer, which W and B view
    params = np.concatenate([a.ravel() for a in _flat(W0, B0)])
    W, B = _views(params, W0, B0)
    xi = xi0

    m = np.zeros_like(params)
    v = np.zeros_like(params)
    mxi = 0.0
    vxi = 0.0
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    best = params.copy()
    best_xi = xi
    best_loss = np.inf

    trace = np.full(epochs + 1, np.nan)
    diverged = 0

    rows = X.shape[0] + 1
    helper = None
    if dropout_q > 0.0 and epochs > 0:
        # imported here, so that importing the package does not pay for it
        import queue

        inbox, outbox = queue.SimpleQueue(), queue.SimpleQueue()
        slots, stop = threading.Semaphore(1), threading.Event()
        helper = threading.Thread(
            target=_dropout_helper, name="neuralscr-dropout", daemon=True,
            args=(inbox, outbox, slots, stop, np.geterr(),
                  lambda xi: _exact_loss(W, B, X, ev, lam, egam, elog, const_q123, xi, l2),
                  lambda epoch, g: network_masks(_epoch_key(seed, epoch), g, dims, rows,
                                                 dropout_q),
                  epochs))
        helper.start()
    try:
        for epoch in range(epochs + 1):
            if epoch < epochs:
                masks = None
                if helper is not None:
                    inbox.put(xi)
                    masks = _handed_masks(outbox, slots)
                train_loss, dW, dB, dxi = loss_and_grads(
                    W, B, dims, X, ev, lam, egam, elog, const_q123, xi, l2,
                    dropout_q, _epoch_key(seed, epoch), train_xi, masks=masks,
                )
                if helper is not None:
                    cur = _take(outbox)
                else:
                    # with dropout off the training pass already is the exact loss
                    cur = train_loss
            else:
                cur = q_loss_eval(W, B, X, ev, lam, egam, elog, const_q123, xi, l2)
            trace[epoch] = cur
            if not np.isfinite(cur):
                diverged = 1
                break
            if cur < best_loss:
                best_loss = cur
                best[:] = params
                best_xi = xi
            if epoch == epochs:
                break

            t = float(epoch + 1)
            bc1 = 1.0 - beta1 ** t
            bc2 = 1.0 - beta2 ** t

            grad = np.concatenate([d.ravel() for d in _flat(dW, dB)])
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            params -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

            if train_xi != 0:
                mxi = beta1 * mxi + (1.0 - beta1) * dxi
                vxi = beta2 * vxi + (1.0 - beta2) * dxi * dxi
                xi -= lr_xi * (mxi / bc1) / (math.sqrt(vxi / bc2) + eps)
    finally:
        if helper is not None:
            stop.set()
            slots.release()
            inbox.put(None)
            helper.join()

    return (*_views(best, W0, B0), best_xi, trace, diverged)
