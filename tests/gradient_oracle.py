"""Reference backprop: per-sample gradients, the plain training loop, and
the batch gradient and loss for the finite-difference gradient checks.

``_sample_gradients`` and ``reference_train`` are the allocating
per-sample formulas ``seqnet.train`` started from; ``train`` must match
``reference_train`` bit for bit.  ``batch_gradients`` averages the
per-sample gradients; ``batch_loss`` is the mean loss they differentiate,
computed by plain forward passes.  The checks compare the first with
central differences of the second.
"""

import numpy as np

from bicinium.seqnet import SequentialNet, _teacher_samples, forward


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _sample_gradients(net: SequentialNet, x: np.ndarray, target: np.ndarray):
    """Backprop gradients of 0.5*||o - target||^2 for one sample."""
    z1 = net.w1 @ x + net.b1
    h = _sigmoid(z1)
    o = _sigmoid(net.w2 @ h + net.b2)
    dz2 = (o - target) * o * (1.0 - o)
    dz1 = (net.w2.T @ dz2) * h * (1.0 - h)
    return (np.outer(dz1, x), dz1, np.outer(dz2, h), dz2), o


def reference_train(net: SequentialNet, corpus, epochs: int,
                    learning_rate: float) -> list[float]:
    """Online backprop, one allocating gradient per sample, in place."""
    inputs, targets = _teacher_samples(net, corpus)
    curve = []
    for _ in range(epochs):
        sq = 0.0
        for x, t in zip(inputs, targets):
            (dw1, db1, dw2, db2), o = _sample_gradients(net, x, t)
            sq += float(np.mean((o - t) ** 2))
            net.w1 -= learning_rate * dw1
            net.b1 -= learning_rate * db1
            net.w2 -= learning_rate * dw2
            net.b2 -= learning_rate * db2
        curve.append(sq / len(inputs))
    return curve


def batch_gradients(net: SequentialNet, inputs: np.ndarray,
                    targets: np.ndarray):
    """Gradients of the mean per-sample loss 0.5*||o-t||^2 over a batch."""
    gw1 = np.zeros_like(net.w1)
    gb1 = np.zeros_like(net.b1)
    gw2 = np.zeros_like(net.w2)
    gb2 = np.zeros_like(net.b2)
    n = len(inputs)
    for x, t in zip(inputs, targets):
        (dw1, db1, dw2, db2), _ = _sample_gradients(net, x, t)
        gw1 += dw1; gb1 += db1; gw2 += dw2; gb2 += db2
    return gw1 / n, gb1 / n, gw2 / n, gb2 / n


def batch_loss(net: SequentialNet, inputs: np.ndarray,
               targets: np.ndarray) -> float:
    """Mean per-sample loss 0.5*||o-t||^2, the quantity batch_gradients
    differentiates."""
    total = 0.0
    for x, t in zip(inputs, targets):
        o = forward(net, x[:net.plan_size], x[net.plan_size:])
        total += 0.5 * float(np.sum((o - t) ** 2))
    return total / len(inputs)
