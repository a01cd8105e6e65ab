from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pytest

from simcse_forge import optim
from simcse_forge.autograd import Tensor
from simcse_forge.optim import (AdamWConfig, AdamWState, adamw_step,
                                check_field_types)


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


def test_grad_arrays_not_mutated():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    g = np.array([0.5, -0.5])
    p.grad = g
    adamw_step([("p", p)], AdamWState(), AdamWConfig(lr=0.1, clip_norm=0.1))
    assert np.array_equal(g, [0.5, -0.5])


# -- the flat-buffer step against the per-tensor loop it replaced -------------------

def per_tensor_adamw(named_params, state, config):
    """The per-tensor AdamW loop that ``adamw_step`` replaced, as its oracle:
    twelve-odd numpy calls per tensor, a Python sum of per-tensor norms."""
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    scale = 1.0
    if config.clip_norm is not None and norm > config.clip_norm:
        scale = config.clip_norm / (norm + 1e-12)
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    for name, p in named_params:
        if p.grad is None:
            continue
        g = p.grad * scale if scale != 1.0 else p.grad
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = config.beta1 * m + (1.0 - config.beta1) * g
        v = config.beta2 * v + (1.0 - config.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        if config.weight_decay > 0.0 and p.data.ndim >= 2:
            update = update + config.weight_decay * p.data
        p.data = p.data - config.lr * update
    return norm


# ndim 0, 1 and 2, matrices interleaved with vectors and scalars
SHAPES = {"w": (3, 4), "b": (4,), "alpha": (), "table": (5, 2), "gamma": (2,),
          "k": (2, 2, 3)}
# the tensors with a gradient at each step; the set changes between steps
ACTIVE = [set(SHAPES), {"w", "b"}, {"w", "alpha", "table"}, set(SHAPES),
          {"b", "k", "gamma"}, set(SHAPES)]


def _twin_params(seed=0):
    rng = np.random.default_rng(seed)
    values = {name: rng.normal(size=shape) for name, shape in SHAPES.items()}
    return ([(name, Tensor(values[name], requires_grad=True)) for name in SHAPES],
            [(name, Tensor(values[name], requires_grad=True)) for name in SHAPES])


def _run_twins(config, rebind_at=None, steps=ACTIVE, seed=0):
    flat_params, loop_params = _twin_params(seed)
    flat_state, loop_state = AdamWState(), AdamWState()
    rng = np.random.default_rng(seed + 1)
    for i, names in enumerate(steps):
        if i == rebind_at:
            fresh = rng.normal(size=SHAPES["w"])
            flat_params[0][1].data = fresh.copy()
            loop_params[0][1].data = fresh.copy()
        for (name, p), (_, q) in zip(flat_params, loop_params):
            grad = rng.normal(size=SHAPES[name]) if name in names else None
            p.grad, q.grad = grad, None if grad is None else grad.copy()
        norms = (adamw_step(flat_params, flat_state, config),
                 per_tensor_adamw(loop_params, loop_state, config))
        assert norms[0] == pytest.approx(norms[1], rel=1e-15)
    return flat_params, flat_state, loop_params, loop_state


def _assert_twins(flat_params, flat_state, loop_params, loop_state, rtol):
    assert flat_state.step == loop_state.step
    assert set(flat_state.m) == set(loop_state.m) == set(flat_state.v)
    pairs = [(p.data, q.data) for (_, p), (_, q) in zip(flat_params, loop_params)]
    pairs += [(flat_state.m[n], loop_state.m[n]) for n in loop_state.m]
    pairs += [(flat_state.v[n], loop_state.v[n]) for n in loop_state.v]
    for got, want in pairs:
        assert got.shape == want.shape
        if rtol == 0.0:
            assert got.tobytes() == want.tobytes()
        else:   # relative to the array's largest element
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_flat_step_is_bit_equal_to_the_per_tensor_loop_without_clipping():
    config = AdamWConfig(lr=0.05, weight_decay=0.1)
    _assert_twins(*_run_twins(config), rtol=0.0)


def test_flat_step_matches_the_per_tensor_loop_with_clipping():
    config = AdamWConfig(lr=0.05, weight_decay=0.1, clip_norm=0.5)
    _assert_twins(*_run_twins(config), rtol=1e-15)


def test_flat_step_picks_up_a_rebound_data_array():
    config = AdamWConfig(lr=0.05, weight_decay=0.1)
    flat_params, *rest = _run_twins(config, rebind_at=3)
    _assert_twins(flat_params, *rest, rtol=0.0)


def test_flat_step_data_and_moments_are_views_of_the_flat_buffers():
    config = AdamWConfig(lr=0.05, weight_decay=0.1)
    flat_params, state, _, _ = _run_twins(config, steps=ACTIVE[:1])
    for name, p in flat_params:
        assert np.shares_memory(p.data, state.flat.data)
        assert np.shares_memory(state.m[name], state.flat.m)
        assert np.shares_memory(state.v[name], state.flat.v)


def test_all_none_gradients_change_no_parameter():
    config = AdamWConfig(lr=0.05, weight_decay=0.1)
    flat_params, state, _, _ = _run_twins(config, steps=ACTIVE[:2])
    before = [p.data.copy() for _, p in flat_params]
    moments = {n: (state.m[n].copy(), state.v[n].copy()) for n in state.m}
    for _, p in flat_params:
        p.grad = None
    assert adamw_step(flat_params, state, config) == 0.0
    for (_, p), old in zip(flat_params, before):
        assert p.data.tobytes() == old.tobytes()
    for n, (m, v) in moments.items():
        assert state.m[n].tobytes() == m.tobytes()
        assert state.v[n].tobytes() == v.tobytes()


def test_flat_step_picks_up_data_rebound_while_inactive():
    # w has no gradient at step 4 and takes one again at step 5
    assert "w" not in ACTIVE[4] and "w" in ACTIVE[5]
    config = AdamWConfig(lr=0.05, weight_decay=0.1)
    flat_params, *rest = _run_twins(config, rebind_at=4)
    _assert_twins(flat_params, *rest, rtol=0.0)


# a shared body and three heads taking turns, as in multitask training
ROTATION = [{"w", "b", "alpha", head} for head in ("table", "gamma", "k")] * 3


def counted_builds(monkeypatch) -> list[list[str]]:
    """The members of every flat layout adamw_step builds from now on."""
    builds = []

    class Counted(optim._FlatBuffers):
        __slots__ = ()

        def __init__(self, members, state):
            builds.append([name for name, _ in members])
            super().__init__(members, state)

    monkeypatch.setattr(optim, "_FlatBuffers", Counted)
    return builds


@pytest.mark.parametrize("clip_norm, rtol", [(None, 0.0), (0.5, 1e-15)])
def test_rotating_heads_build_the_layout_once_per_new_tensor(monkeypatch, clip_norm,
                                                             rtol):
    builds = counted_builds(monkeypatch)
    config = AdamWConfig(lr=0.05, weight_decay=0.1, clip_norm=clip_norm)
    flat_params, state, *rest = _run_twins(config, steps=ROTATION)
    _assert_twins(flat_params, state, *rest, rtol=rtol)
    # one layout per head that first takes a turn; the last holds every
    # tensor in the callers' order, each one's data a view of it
    assert len(builds) == 3
    assert builds[-1] == ["w", "b", "alpha", "table", "gamma", "k"]
    for _, p in flat_params:
        assert np.shares_memory(p.data, state.flat.data)
