"""AdamW optimizer behaviour."""
import numpy as np
import pytest

from repro.linalg.autograd import const, param
from repro.linalg.optim import AdamW


def _quadratic_steps(lr=0.05, steps=60, wd=0.0, total_steps=None):
    target = np.array([1.0, -2.0, 3.0])
    p = param(np.zeros(3))
    opt = AdamW([([p], lr)], weight_decay=wd, total_steps=total_steps)
    losses = []
    for _ in range(steps):
        opt.zero_grad()
        loss = ((p - const(target)).pow(2)).sum()
        loss.backward()
        opt.step()
        losses.append(loss.item())
    return p, losses


def test_converges_on_quadratic():
    p, losses = _quadratic_steps(steps=400, lr=0.1)
    assert losses[-1] < 1e-3 * losses[0]
    np.testing.assert_allclose(p.data, [1.0, -2.0, 3.0], atol=0.05)


def test_loss_decreases():
    _, losses = _quadratic_steps(steps=50)
    assert losses[-1] < losses[0]


def test_weight_decay_shrinks_params():
    # pure decay: zero gradient via constant loss on a second param
    p = param(np.ones(4) * 2.0)
    q = param(np.zeros(1))
    opt = AdamW([([p, q], 0.1)], weight_decay=0.5)
    for _ in range(10):
        opt.zero_grad()
        (q.pow(2)).sum().backward()  # p gets no grad -> skipped entirely
        opt.step()
    np.testing.assert_allclose(p.data, 2.0)  # params without grads untouched


def test_decay_applies_with_gradient():
    p, _ = _quadratic_steps(steps=300, lr=0.1, wd=0.2)
    # solution shrinks toward origin relative to the no-decay optimum
    assert np.all(np.abs(p.data) < np.abs([1.0, -2.0, 3.0]))
    assert np.all(np.abs(p.data) > 0.3)


def test_linear_schedule_freezes_at_end():
    p, _ = _quadratic_steps(steps=30, total_steps=30)
    before = p.data.copy()
    # schedule exhausted: further steps are no-ops
    opt = AdamW([([p], 0.1)], total_steps=30)
    opt.t = 30
    opt.zero_grad()
    (p.pow(2)).sum().backward()
    opt.step()
    np.testing.assert_allclose(p.data, before)


def test_zero_grad_clears():
    p = param(np.ones(3))
    opt = AdamW([([p], 0.1)])
    p.pow(2).sum().backward()
    assert p.grad is not None
    opt.zero_grad()
    assert p.grad is None


def test_per_group_learning_rates():
    fast = param(np.zeros(1))
    slow = param(np.zeros(1))
    opt = AdamW([([fast], 1e-1), ([slow], 1e-3)], weight_decay=0.0)
    for _ in range(20):
        opt.zero_grad()
        ((fast - 1.0).pow(2) + (slow - 1.0).pow(2)).sum().backward()
        opt.step()
    assert abs(fast.data[0] - 1.0) < abs(slow.data[0] - 1.0)


def test_deterministic():
    p1, l1 = _quadratic_steps(steps=25)
    p2, l2 = _quadratic_steps(steps=25)
    np.testing.assert_array_equal(p1.data, p2.data)
    assert l1 == l2


def test_fit_minibatches_schedule(monkeypatch):
    """Each epoch visits every index once in ceil(n / 16) batches after
    one permutation draw; the run ends with the learning rate decayed to
    0 at its last step; the trace holds one mean loss per epoch."""
    from repro.linalg import optim

    opts = []

    class Recording(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    monkeypatch.setattr(optim, "AdamW", Recording)
    n, epochs, target = 37, 3, const(np.array([1.0, -2.0, 3.0]))
    p = param(np.zeros(3))
    batches, losses = [], []

    def batch_loss(idx):
        batches.append(idx)
        loss = (p - target).pow(2).sum() * (len(idx) / optim.BATCH_SIZE)
        losses.append(loss.item())
        return loss

    trace = optim.fit_minibatches([([p], 0.1)], n, epochs, np.random.default_rng(3), batch_loss)
    per_epoch = -(-n // optim.BATCH_SIZE)
    assert len(batches) == epochs * per_epoch
    assert [len(b) for b in batches[:per_epoch]] == [16, 16, 5]
    perms = np.random.default_rng(3)
    for e in range(epochs):
        seen = np.concatenate(batches[e * per_epoch : (e + 1) * per_epoch])
        np.testing.assert_array_equal(seen, perms.permutation(n))
        assert trace[e] == float(np.mean(losses[e * per_epoch : (e + 1) * per_epoch]))
    assert len(trace) == epochs
    (opt,) = opts
    assert opt.total_steps == epochs * per_epoch
    assert opt.t == opt.total_steps and opt._lr_scale() == 0.0

