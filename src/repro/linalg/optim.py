"""AdamW (decoupled weight decay) over autograd ``Tensor`` params.

Mirrors the paper's optimizer choice (§4.2): AdamW with per-group
learning rates (transformer backbone vs task heads) and a linear
learning-rate schedule with no warm-up.
"""
from __future__ import annotations

import numpy as np

from repro.linalg.autograd import Tensor

BATCH_SIZE = 16  # minibatch of every matcher and committee fit (16, §4.2)
# Adam's moment decay rates and denominator epsilon (not stated in the
# paper; the usual AdamW defaults)
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class AdamW:
    """AdamW with optional per-parameter-group learning rates.

    ``groups`` is a list of ``(params, lr)`` pairs, matching the paper's
    use of 3e-5 for the backbone and 1e-3 for the light-weight heads.
    """

    def __init__(
        self,
        groups: list[tuple[list[Tensor], float]],
        weight_decay: float = 0.01,
        total_steps: int | None = None,
    ):
        self.groups = [(list(ps), lr) for ps, lr in groups]
        self.wd = weight_decay
        self.total_steps = total_steps
        self.t = 0
        self._m = {}
        self._v = {}

    def _lr_scale(self) -> float:
        """Linear decay to 0 over ``total_steps`` (no warm-up), as §4.2."""
        if not self.total_steps:
            return 1.0
        return max(0.0, 1.0 - self.t / self.total_steps)

    def zero_grad(self) -> None:
        for ps, _ in self.groups:
            for p in ps:
                p.grad = None

    def step(self) -> None:
        self.t += 1
        scale = self._lr_scale()
        for ps, lr in self.groups:
            lr_t = lr * scale
            for p in ps:
                if p.grad is None:
                    continue
                g = p.grad
                m = self._m.get(id(p))
                v = self._v.get(id(p))
                if m is None:
                    m = np.zeros_like(p.data)
                    v = np.zeros_like(p.data)
                m = BETA1 * m + (1 - BETA1) * g
                v = BETA2 * v + (1 - BETA2) * g * g
                self._m[id(p)], self._v[id(p)] = m, v
                mhat = m / (1 - BETA1 ** self.t)
                vhat = v / (1 - BETA2 ** self.t)
                p.data -= lr_t * (mhat / (np.sqrt(vhat) + EPS) + self.wd * p.data)
