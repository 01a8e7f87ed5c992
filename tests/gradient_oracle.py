"""Batch gradient and loss for the finite-difference gradient checks.

``batch_gradients`` averages the per-sample backprop gradients that
``seqnet.train`` applies; ``batch_loss`` is the mean loss they
differentiate, computed by plain forward passes.  The checks compare the
first with central differences of the second.
"""

import numpy as np

from bicinium.seqnet import SequentialNet, _sample_gradients, forward


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
