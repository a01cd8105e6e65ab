import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcse_forge import autograd as ag
from simcse_forge.autograd import Tensor
from simcse_forge.dropout import (DropoutPolicy, adaptive_dropout, apply_dropout,
                                  curriculum_rate, standard_dropout)
from simcse_forge.rng import Rng


def test_policy_validation():
    with pytest.raises(ValueError, match="kind"):
        DropoutPolicy(kind="gaussian")
    with pytest.raises(ValueError, match="p must be"):
        DropoutPolicy(p=1.0)
    with pytest.raises(ValueError, match="p must be"):
        DropoutPolicy(p=-0.1)
    with pytest.raises(ValueError, match="gamma"):
        DropoutPolicy(kind="curriculum", gamma=0.0)
    with pytest.raises(ValueError, match="total_steps"):
        DropoutPolicy(kind="curriculum", total_steps=0)


@pytest.mark.parametrize("fields", [
    {"gamma": None}, {"total_steps": 2.5}, {"total_steps": {}}, {"p": False},
    {"alpha": "1"}, {"beta": None}, {"total_steps": True},
])
def test_policy_rejects_mistyped_fields(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        DropoutPolicy(**fields)


# -- standard ------------------------------------------------------------------

def test_standard_p0_is_identity_both_modes():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    for mode in ("train", "eval"):
        out = standard_dropout(x, 0.0, mode, Rng(0))
        assert out is x


def test_standard_eval_is_identity():
    x = Tensor(np.ones((5, 5)))
    assert standard_dropout(x, 0.3, "eval", None) is x


def test_standard_train_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        standard_dropout(Tensor(np.ones(4)), 0.3, "train", None)


def test_standard_empirical_rate():
    # binomial concentration: 10^6 units, expect 0.3 +- 0.003
    rng = Rng(17)
    x = Tensor(np.ones(1_000_000))
    out = standard_dropout(x, 0.3, "train", rng)
    dropped = float(np.mean(out.data == 0.0))
    assert abs(dropped - 0.3) < 0.003


def test_standard_survivors_scaled_inverted():
    rng = Rng(3)
    x = Tensor(np.full(1000, 2.0))
    out = standard_dropout(x, 0.25, "train", rng)
    survivors = out.data[out.data != 0.0]
    assert np.allclose(survivors, 2.0 / 0.75)


def test_standard_unbiased_monte_carlo():
    # E[output] = x for a fixed unit: mean over 10^4 masks within 3 sigma
    rng = Rng(11)
    p, value, n = 0.3, 1.7, 10_000
    x = Tensor(np.full(n, value))
    out = standard_dropout(x, p, "train", rng)
    # each entry is an iid draw of the one-unit estimator
    est = float(out.data.mean())
    sigma = value * np.sqrt(p / (1 - p) / n)
    assert abs(est - value) < 3 * sigma


def test_standard_mask_reproducible_and_fresh():
    x = Tensor(np.ones(256))
    a = standard_dropout(x, 0.5, "train", Rng(123)).data
    b = standard_dropout(x, 0.5, "train", Rng(123)).data
    assert np.array_equal(a, b)
    rng = Rng(123)
    c = standard_dropout(x, 0.5, "train", rng).data
    d = standard_dropout(x, 0.5, "train", rng).data
    assert not np.array_equal(c, d)


def test_standard_gradient_only_through_kept_units():
    x = Tensor(np.ones(100), requires_grad=True)
    out = standard_dropout(x, 0.5, "train", Rng(2))
    out.sum().backward()
    kept = out.data != 0.0
    assert np.allclose(x.grad[kept], 2.0)   # 1/(1-p)
    assert np.allclose(x.grad[~kept], 0.0)


def float_mask_dropout(x, p, rng):
    """The product the dropout node replaces: x times a float 0/1 mask / keep."""
    keep = 1.0 - p
    return x * Tensor(rng.bernoulli(keep, x.shape) / keep)


def signed_zeros(a):
    return int(np.count_nonzero((a == 0.0) & np.signbit(a)))


_CURRICULUM = DropoutPolicy(kind="curriculum", p=0.3, gamma=2.0, total_steps=20)


@pytest.mark.parametrize("policy, step", [
    (DropoutPolicy(kind="standard", p=0.1), 0),
    (DropoutPolicy(kind="standard", p=0.5), 0),
    (DropoutPolicy(kind="standard", p=0.9), 0),
    (_CURRICULUM, 7),
    (_CURRICULUM, 0),                       # rate 0
    (DropoutPolicy(kind="standard", p=0.0), 0),
], ids=["p0.1", "p0.5", "p0.9", "curriculum", "curriculum-step0", "p0"])
def test_dropout_node_is_bit_identical_to_the_float_mask_product(policy, step):
    data = Rng(3).normal((16, 8), std=2.0)          # mixed signs
    g = Rng(4).normal((16, 8))                      # mixed-sign incoming gradient
    p = curriculum_rate(step, policy) if policy.kind == "curriculum" else policy.p
    x, xr = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
    rng, ref_rng = Rng(11), Rng(11)
    out = apply_dropout(x, policy, "train", step, rng)
    ref = float_mask_dropout(xr, p, ref_rng)
    assert out.data.tobytes() == ref.data.tobytes()
    if p == 0.0:
        # no mask is drawn: the input itself, with the stream untouched
        assert out is x and rng._state == Rng(11)._state
        return
    assert rng._state == ref_rng._state
    assert out.node.op == "dropout"
    (gx,) = out.node.backward_fn(g)
    gr, _ = ref.node.backward_fn(g)
    assert gx.dtype == gr.dtype and gx.tobytes() == gr.tobytes()
    # negative inputs and gradients at dropped units give -0.0 in both
    assert signed_zeros(out.data) > 0 and signed_zeros(gx) > 0


# -- curriculum ----------------------------------------------------------------

def test_curriculum_rate_boundaries():
    policy = DropoutPolicy(kind="curriculum", p=0.3, gamma=10.0, total_steps=100)
    assert curriculum_rate(0, policy) == 0.0
    assert curriculum_rate(10_000, policy) == pytest.approx(0.3, abs=1e-9)
    with pytest.raises(ValueError):
        curriculum_rate(-1, policy)


def test_curriculum_rate_formula_value():
    policy = DropoutPolicy(kind="curriculum", p=0.3, gamma=1.0, total_steps=50)
    got = curriculum_rate(50, policy)
    assert got == pytest.approx(0.3 * (1.0 - np.exp(-1.0)), abs=1e-12)
    assert got == pytest.approx(0.18964, abs=1e-4)


@given(gamma=st.floats(0.1, 20.0), p=st.floats(0.01, 0.95))
@settings(max_examples=25, deadline=None)
def test_curriculum_rate_monotone_bounded(gamma, p):
    policy = DropoutPolicy(kind="curriculum", p=p, gamma=gamma, total_steps=200)
    rates = [curriculum_rate(s, policy) for s in range(0, 1001, 7)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert all(0.0 <= r <= p for r in rates)


def test_curriculum_step0_identity():
    policy = DropoutPolicy(kind="curriculum", p=0.5)
    x = Tensor(np.ones(10))
    assert apply_dropout(x, policy, "train", 0, Rng(0)) is x


def test_curriculum_matches_standard_at_scheduled_rate():
    policy = DropoutPolicy(kind="curriculum", p=0.4, gamma=2.0, total_steps=100)
    x = Tensor(np.ones(512))
    rate = curriculum_rate(60, policy)
    a = apply_dropout(x, policy, "train", 60, Rng(9)).data
    b = standard_dropout(x, rate, "train", Rng(9)).data
    assert np.array_equal(a, b)


# -- adaptive ------------------------------------------------------------------

def test_adaptive_degenerate_half():
    # alpha=0, beta=0: every keep probability is exactly 0.5
    policy = DropoutPolicy(kind="adaptive", alpha=0.0, beta=0.0)
    x = Tensor(np.arange(1.0, 9.0))
    out = adaptive_dropout(x, x, policy, "eval", None)
    assert np.allclose(out.data, x.data / 2.0)


def test_adaptive_beta_large_is_near_identity():
    policy = DropoutPolicy(kind="adaptive", alpha=0.0, beta=30.0)
    x = Tensor(np.arange(1.0, 5.0))
    out = adaptive_dropout(x, x, policy, "eval", None)
    assert np.allclose(out.data, x.data, atol=1e-10)


def test_adaptive_pi_monotone_and_open_interval():
    # inputs kept below ~36, where float64 sigmoid still rounds strictly
    # inside (0, 1)
    policy = DropoutPolicy(kind="adaptive", alpha=1.0, beta=0.0)
    a = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
    x = Tensor(np.ones_like(a))
    out = adaptive_dropout(x, Tensor(a), policy, "eval", None)
    pi = out.data  # x=1 so output equals pi
    assert np.all(np.diff(pi) > 0)
    assert np.all((pi > 0.0) & (pi < 1.0))


def test_adaptive_train_samples_unscaled_mask():
    policy = DropoutPolicy(kind="adaptive", alpha=0.0, beta=0.0)
    x = Tensor(np.full(10_000, 3.0))
    out = adaptive_dropout(x, x, policy, "train", Rng(21))
    values = set(np.unique(out.data))
    assert values <= {0.0, 3.0}          # no 1/pi rescaling
    keep = float(np.mean(out.data == 3.0))
    assert abs(keep - 0.5) < 0.02


def test_adaptive_train_straight_through_gradients():
    # backward treats the op as x*pi; alpha and beta receive the x*sigmoid'
    # chain even though the forward value uses the sampled mask
    alpha = Tensor(0.7, requires_grad=True)
    beta = Tensor(-0.2, requires_grad=True)
    policy = DropoutPolicy(kind="adaptive")
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    out = adaptive_dropout(x, x, policy, "train", Rng(4), alpha=alpha, beta=beta)
    out.sum().backward()

    z = 0.7 * x.data - 0.2
    pi = 1.0 / (1.0 + np.exp(-z))
    dpi = pi * (1.0 - pi)
    assert alpha.grad == pytest.approx(float(np.sum(x.data * dpi * x.data)), rel=1e-12)
    assert beta.grad == pytest.approx(float(np.sum(x.data * dpi)), rel=1e-12)


def composite_adaptive_dropout(x, alpha, beta, rng):
    """The straight-through product the dropout node replaces: value x*mask
    with a float 0/1 mask, gradient as if the op were x*pi."""
    pi = ag.sigmoid(alpha * x + beta)
    return x * Tensor(rng.bernoulli(pi.data, x.shape)) + x * (pi - pi.detach())


def node_adaptive_dropout(x, alpha, beta, rng):
    return adaptive_dropout(x, x, DropoutPolicy(kind="adaptive"), "train", rng,
                            alpha=alpha, beta=beta)


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.7, -0.2)],
                         ids=["policy-default", "alpha0.7-beta-0.2"])
def test_adaptive_node_is_bit_identical_to_the_straight_through_composite(a, b):
    data = Rng(3).normal((16, 8), std=2.0)          # mixed signs
    g = Rng(4).normal((16, 8))                      # mixed-sign incoming gradient
    runs = []
    for build in (node_adaptive_dropout, composite_adaptive_dropout):
        x = Tensor(data, requires_grad=True)
        alpha, beta = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        rng = Rng(11)
        out = build(x, alpha, beta, rng)
        (out * Tensor(g)).sum().backward()          # out's gradient is g exactly
        runs.append((out.data, x.grad, alpha.grad, beta.grad, rng._state))
    (out, gx, ga, gb, state), (ref, rgx, rga, rgb, ref_state) = runs
    for got, want in ((out, ref), (gx, rgx), (ga, rga), (gb, rgb)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert state == ref_state
    # negative inputs give -0.0 at dropped units; at alpha 0 the pi path adds
    # signed zeros to x's gradient, whose sign must survive as well
    assert signed_zeros(out) > 0
    assert signed_zeros(gx) > 0 or a != 0.0


def test_adaptive_eval_gradient_matches_finite_difference():
    alpha = Tensor(0.3, requires_grad=True)
    beta = Tensor(0.1, requires_grad=True)
    policy = DropoutPolicy(kind="adaptive")
    x0 = np.array([0.4, -0.8, 1.3, 0.0])

    x = Tensor(x0, requires_grad=True)
    out = adaptive_dropout(x, x, policy, "eval", None, alpha=alpha, beta=beta)
    out.sum().backward()

    def f(xt):
        return adaptive_dropout(xt, xt, policy, "eval", None,
                                alpha=Tensor(0.3), beta=Tensor(0.1)).sum()

    fd = ag.finite_diff_grad(f, Tensor(x0)).data
    assert np.max(np.abs(x.grad - fd) / np.maximum(1.0, np.abs(fd))) < 1e-4


# -- dispatcher ----------------------------------------------------------------

def test_apply_dropout_dispatch():
    x = Tensor(np.ones(50))
    std = apply_dropout(x, DropoutPolicy(kind="standard", p=0.3), "train", 0, Rng(1))
    cur = apply_dropout(x, DropoutPolicy(kind="curriculum", p=0.3), "train", 0, Rng(1))
    ada = apply_dropout(x, DropoutPolicy(kind="adaptive"), "eval", 0, None)
    assert set(np.unique(std.data)) <= {0.0, 1.0 / 0.7}
    assert cur is x                             # curriculum rate 0 at step 0
    assert np.allclose(ada.data, 0.5)           # alpha=beta=0 expectation


def test_eval_identity_per_policy():
    x = Tensor(np.linspace(-1, 1, 20))
    for kind in ("standard", "curriculum"):
        out = apply_dropout(x, DropoutPolicy(kind=kind, p=0.4), "eval", 500, None)
        assert out is x
    # adaptive eval is the deterministic pi-scaling, not the identity
    out = apply_dropout(x, DropoutPolicy(kind="adaptive"), "eval", 500, None)
    assert not np.array_equal(out.data, x.data)
    again = apply_dropout(x, DropoutPolicy(kind="adaptive"), "eval", 500, None)
    assert np.array_equal(out.data, again.data)


def test_two_consecutive_train_calls_differ():
    # the augmentation premise: one shared stream, two calls, different masks
    rng = Rng(77)
    x = Tensor(np.ones(128))
    policy = DropoutPolicy(kind="standard", p=0.1)
    a = apply_dropout(x, policy, "train", 0, rng)
    b = apply_dropout(x, policy, "train", 0, rng)
    assert not np.array_equal(a.data, b.data)


@pytest.mark.parametrize("kind", ["standard", "curriculum", "adaptive"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_dropout_on_picked_rows_is_the_full_site_at_those_rows(kind, mode):
    policy = DropoutPolicy(kind=kind, p=0.3, alpha=1.2, beta=0.4, total_steps=10)
    rows = np.array([0, 2, 5, 6])
    x = Rng(8).normal((7, 4))
    alpha, beta = Tensor(1.2), Tensor(0.4)
    whole, part = Rng(9), Rng(9)
    want = apply_dropout(Tensor(x), policy, mode, 4, whole, alpha=alpha, beta=beta)
    got = apply_dropout(Tensor(x[rows]), policy, mode, 4, part, alpha=alpha, beta=beta,
                        part=(rows, len(x)))
    assert got.data.tobytes() == want.data[rows].tobytes()
    assert part._state == whole._state
