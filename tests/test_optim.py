from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pytest

from simcse_forge.autograd import Tensor
from simcse_forge.optim import (AdamWConfig, AdamWState, adamw_step,
                                check_field_types, global_grad_norm)


def one_param(value, grad=None, ndim2=False):
    data = np.array([[value]]) if ndim2 else np.array([value])
    t = Tensor(data, requires_grad=True)
    if grad is not None:
        t.grad = np.full_like(t.data, grad)
    return t


def scalar_oracle(theta, grads, lr=0.1, b1=0.9, b2=0.999, eps=1e-8, wd=0.0,
                  decay=False):
    """Independent single-parameter AdamW, written directly from the update rule."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        step = mhat / (vhat ** 0.5 + eps)
        if decay:
            step += wd * theta
        theta -= lr * step
    return theta


def test_config_validation():
    with pytest.raises(ValueError):
        AdamWConfig(lr=0.0)
    with pytest.raises(ValueError):
        AdamWConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamWConfig(weight_decay=-0.1)
    with pytest.raises(ValueError):
        AdamWConfig(clip_norm=0.0)


@dataclass
class _Typed:
    count: int = 1
    rate: float = 0.5
    flag: bool = False
    name: str = "x"
    cap: float | None = None
    nested: AdamWConfig | None = None


@pytest.mark.parametrize("values", [
    {}, {"count": np.int64(3)}, {"rate": 2}, {"rate": np.int32(2)},
    {"rate": np.float64(0.1)}, {"flag": True}, {"cap": 1}, {"cap": 1.5},
    {"nested": "not checked"},
])
def test_field_type_rule_accepts(values):
    check_field_types(_Typed(**values))


@pytest.mark.parametrize("values, message", [
    ({"count": True}, "count must be an integer, got True"),
    ({"count": np.bool_(True)}, "count must be an integer, got "),
    ({"count": 1.0}, "count must be an integer, got 1.0"),
    ({"rate": True}, "rate must be a number, got True"),
    ({"rate": "0.5"}, "rate must be a number, got '0.5'"),
    ({"rate": None}, "rate must be a number, got None"),
    ({"flag": 1}, "flag must be true or false, got 1"),
    ({"name": 5}, "name must be a string, got 5"),
    ({"cap": False}, "cap must be a number or null, got False"),
])
def test_field_type_rule_rejects(values, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        check_field_types(_Typed(**values))


def test_field_type_rule_prefixes_the_field_name():
    with pytest.raises(ValueError, match=r"^data\.count must be an integer"):
        check_field_types(_Typed(count="1"), prefix="data.")


def test_zero_grad_zero_decay_unchanged():
    p = one_param(3.0, grad=0.0)
    adamw_step([("p", p)], AdamWState(), AdamWConfig(lr=0.1))
    assert p.data[0] == 3.0


def test_missing_grad_skipped_entirely():
    p = one_param(3.0, grad=None)
    state = AdamWState()
    adamw_step([("p", p)], state, AdamWConfig(lr=0.1, weight_decay=0.5))
    assert p.data[0] == 3.0
    assert "p" not in state.m


def test_single_step_matches_scalar_oracle():
    p = one_param(1.0, grad=1.0)
    adamw_step([("p", p)], AdamWState(), AdamWConfig(lr=0.1))
    expected = scalar_oracle(1.0, [1.0])
    assert p.data[0] == pytest.approx(expected, abs=1e-12)
    assert p.data[0] == pytest.approx(0.9, abs=1e-8)


def test_multi_step_matches_scalar_oracle():
    grads = [1.0, -0.5, 0.25, 2.0, -1.0]
    p = one_param(1.0)
    state = AdamWState()
    cfg = AdamWConfig(lr=0.05)
    for g in grads:
        p.grad = np.array([g])
        adamw_step([("p", p)], state, cfg)
    expected = scalar_oracle(1.0, grads, lr=0.05)
    assert p.data[0] == pytest.approx(expected, abs=1e-12)
    assert state.step == 5


def test_decoupled_decay_shrinks_matrix_by_lr_wd_theta():
    theta = 4.0
    p = one_param(theta, grad=0.0, ndim2=True)
    adamw_step([("p", p)], AdamWState(), AdamWConfig(lr=0.1, weight_decay=0.01))
    assert p.data[0, 0] == pytest.approx(theta - 0.1 * 0.01 * theta, abs=1e-15)


def test_vectors_and_scalars_not_decayed():
    vec = one_param(4.0, grad=0.0)            # ndim 1
    scalar = Tensor(4.0, requires_grad=True)  # ndim 0
    scalar.grad = np.zeros(())
    adamw_step([("v", vec), ("s", scalar)], AdamWState(),
               AdamWConfig(lr=0.1, weight_decay=0.5))
    assert vec.data[0] == 4.0
    assert scalar.data == 4.0


def test_decay_applies_with_nonzero_grad_too():
    grads = [0.7, -0.3, 1.1]
    p = one_param(2.0, ndim2=True)
    state = AdamWState()
    cfg = AdamWConfig(lr=0.05, weight_decay=0.1)
    theta = 2.0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.full_like(p.data, g)
        adamw_step([("p", p)], state, cfg)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.05 * ((m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
                         + 0.1 * theta)
    assert p.data[0, 0] == pytest.approx(theta, abs=1e-12)


def test_update_sign_opposes_first_moment():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    p.grad = rng.normal(size=(4, 3))
    before = p.data.copy()
    state = AdamWState()
    adamw_step([("p", p)], state, AdamWConfig(lr=0.01))
    delta = p.data - before
    mhat = state.m["p"] / (1 - 0.9)
    assert np.all(np.sign(delta[mhat != 0]) == -np.sign(mhat[mhat != 0]))


def test_step_size_bounded_after_warmup():
    # |delta| <= 3*lr per coordinate once moments have accumulated
    rng = np.random.default_rng(1)
    p = Tensor(rng.normal(size=(5,)), requires_grad=True)
    state = AdamWState()
    cfg = AdamWConfig(lr=0.01)
    for step in range(20):
        p.grad = rng.normal(size=(5,))   # unit-scale gradients
        before = p.data.copy()
        adamw_step([("p", p)], state, cfg)
        if step >= 10:
            assert np.max(np.abs(p.data - before)) <= 3 * cfg.lr


def test_convergence_on_quadratic():
    # 200 steps on f(theta) = ||theta||^2 from [5, -5], lr 0.1
    p = Tensor(np.array([5.0, -5.0]), requires_grad=True)
    state = AdamWState()
    cfg = AdamWConfig(lr=0.1)
    for _ in range(200):
        p.grad = 2.0 * p.data
        adamw_step([("p", p)], state, cfg)
    assert float(np.linalg.norm(p.data)) < 1e-2


def test_clip_norm_scales_update():
    cfg = AdamWConfig(lr=0.1, clip_norm=1.0)
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    p.grad = np.array([30.0, 40.0])   # norm 50
    norm = adamw_step([("p", p)], AdamWState(), cfg)
    assert norm == pytest.approx(50.0)
    # equivalent to stepping with the rescaled gradient
    q = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    q.grad = np.array([30.0, 40.0]) / 50.0 * (1.0 / (1.0 + 1e-12 / 50.0))
    adamw_step([("q", q)], AdamWState(), AdamWConfig(lr=0.1))
    assert np.allclose(p.data, q.data, atol=1e-12)


def test_global_grad_norm():
    a = Tensor(np.array([3.0]), requires_grad=True)
    b = Tensor(np.array([4.0]), requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    assert global_grad_norm([("a", a), ("b", b)]) == pytest.approx(5.0)


def test_grad_arrays_not_mutated():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    g = np.array([0.5, -0.5])
    p.grad = g
    adamw_step([("p", p)], AdamWState(), AdamWConfig(lr=0.1, clip_norm=0.1))
    assert np.array_equal(g, [0.5, -0.5])
