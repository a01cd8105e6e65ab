import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcse_forge import autograd as ag
from simcse_forge.autograd import Tensor
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.objectives import (ZeroNormError, bce_loss, ce_loss,
                                     cosine, mse_loss,
                                     paraphrase_logit, sst_logits, sts_score,
                                     sup_simcse_loss, unsup_simcse_loss)
from simcse_forge.rng import Rng


def make_heads(d=4, para="rich", seed=0):
    config = EncoderConfig(vocab_size=4, hidden_dim=d, num_layers=1, num_heads=1,
                           ffn_dim=4, max_seq_len=4, para_features=para)
    return init_params(config, Rng(seed))


# -- brute-force oracles (independent double-loop implementations) ---------------

def _cos(a, b):
    return float(np.dot(a, b) / (math.sqrt(np.dot(a, a)) * math.sqrt(np.dot(b, b))))


def brute_unsup(h, hp, tau):
    n = h.shape[0]
    total = 0.0
    for i in range(n):
        denom = 0.0
        for j in range(n):
            denom += math.exp(_cos(h[i], hp[j]) / tau)
        total += -math.log(math.exp(_cos(h[i], hp[i]) / tau) / denom)
    return total / n


def brute_sup(h, hp, hm, tau):
    n = h.shape[0]
    total = 0.0
    for i in range(n):
        denom = 0.0
        for j in range(n):
            denom += math.exp(_cos(h[i], hp[j]) / tau)
            denom += math.exp(_cos(h[i], hm[j]) / tau)
        total += -math.log(math.exp(_cos(h[i], hp[i]) / tau) / denom)
    return total / n


# -- heads -----------------------------------------------------------------------

def test_sst_logits_zero_head():
    heads = make_heads()
    heads["heads.sst.weight"].data[:] = 0.0
    out = sst_logits(Tensor(np.random.default_rng(0).normal(size=(3, 4))), heads)
    assert out.shape == (3, 5)
    assert np.allclose(out.data, 0.0)


def test_sst_logits_hand_example():
    heads = make_heads(d=2)
    heads["heads.sst.weight"].data[:] = np.arange(10.0).reshape(2, 5)
    heads["heads.sst.bias"].data[:] = 1.0
    out = sst_logits(Tensor(np.array([[1.0, 2.0]])), heads)
    # row = [1,2] @ [[0..4],[5..9]] + 1 = [10,13,16,19,22] + 1
    assert np.allclose(out.data, [[11.0, 14.0, 17.0, 20.0, 23.0]])


def test_sst_gradient_check():
    heads = make_heads(d=3)
    x0 = np.array([[0.2, -0.4, 0.9], [1.1, 0.0, -0.3]])

    def f(x):
        return (sst_logits(x, heads) ** 2.0).sum()

    x = Tensor(x0, requires_grad=True)
    f(x).backward()
    fd = ag.finite_diff_grad(f, Tensor(x0)).data
    assert np.max(np.abs(x.grad - fd) / np.maximum(1.0, np.abs(fd))) < 1e-4


def test_paraphrase_logit_shapes_and_abs_block():
    heads = make_heads(d=3)
    a = Tensor(np.array([[1.0, 2.0, 3.0]]))
    out = paraphrase_logit(a, a, heads)
    assert out.shape == (1,)
    # a == b: the |a-b| block contributes nothing; zeroing its weights changes nothing
    w = heads["heads.para.weight"].data.copy()
    heads["heads.para.weight"].data[6:9] = 0.0
    out2 = paraphrase_logit(a, a, heads)
    heads["heads.para.weight"].data[:] = w
    assert out.item() == pytest.approx(out2.item(), abs=1e-15)


def test_paraphrase_symmetric_weights_symmetric_logit():
    d = 3
    heads = make_heads(d=d)
    w = heads["heads.para.weight"].data
    w[d:2 * d] = w[0:d]        # tie the a and b blocks
    a = Tensor(np.array([[0.3, -1.2, 0.5]]))
    b = Tensor(np.array([[1.0, 0.4, -0.7]]))
    assert paraphrase_logit(a, b, heads).item() == pytest.approx(
        paraphrase_logit(b, a, heads).item(), abs=1e-12)


def test_paraphrase_concat_mode_shape():
    heads = make_heads(d=3, para="concat")
    assert heads["heads.para.weight"].shape == (6, 1)
    a = Tensor(np.ones((2, 3)))
    assert paraphrase_logit(a, a, heads, features="concat").shape == (2,)
    with pytest.raises(ValueError, match="feature mode"):
        paraphrase_logit(a, a, heads, features="bilinear")


def test_paraphrase_gradient_check():
    heads = make_heads(d=2)
    a0 = np.array([[0.5, -0.3], [1.2, 0.8]])
    b = Tensor(np.array([[0.1, 0.9], [-0.4, 0.2]]))

    def f(a):
        return (paraphrase_logit(a, b, heads) ** 2.0).sum()

    a = Tensor(a0, requires_grad=True)
    f(a).backward()
    fd = ag.finite_diff_grad(f, Tensor(a0)).data
    assert np.max(np.abs(a.grad - fd) / np.maximum(1.0, np.abs(fd))) < 1e-4


# -- cosine and similarity heads ---------------------------------------------------

def test_cosine_basic():
    a = Tensor(np.array([1.0, 0.0]))
    b = Tensor(np.array([0.0, 1.0]))
    assert cosine(a, a).item() == pytest.approx(1.0, abs=1e-12)
    assert cosine(a, b).item() == pytest.approx(0.0, abs=1e-12)
    assert cosine(a, -a).item() == pytest.approx(-1.0, abs=1e-12)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=5), rng.normal(size=5)
    c1 = cosine(Tensor(a), Tensor(b)).item()
    c2 = cosine(Tensor(3.0 * a), Tensor(b)).item()
    assert c1 == pytest.approx(c2, abs=1e-12)


def test_cosine_zero_norm_error():
    with pytest.raises(ZeroNormError):
        cosine(Tensor(np.zeros(3)), Tensor(np.ones(3)))


def test_sts_cos_scale_identical_is_five():
    heads = make_heads()
    a = Tensor(np.array([[0.3, 0.4, 0.1, -0.2]]))
    assert sts_score(a, a, "cos_scale", heads).item() == pytest.approx(5.0, abs=1e-12)


def test_sts_cos_sigmoid_values():
    a = Tensor(np.array([[1.0, 0.0]]))
    b = Tensor(np.array([[0.0, 1.0]]))
    heads2 = make_heads(d=2)
    assert sts_score(a, b, "cos_sigmoid", heads2).item() == pytest.approx(2.5, abs=1e-12)
    got = sts_score(a, a, "cos_sigmoid", heads2).item()
    assert got == pytest.approx(5.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
    assert got == pytest.approx(3.6552, abs=1e-4)   # the head cannot reach 5.0


def test_sts_cos_sigmoid_range_strictly_inside():
    heads = make_heads(d=2)
    lo, hi = 5.0 / (1.0 + math.e), 5.0 / (1.0 + math.exp(-1.0))
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = Tensor(rng.normal(size=(1, 2)))
        b = Tensor(rng.normal(size=(1, 2)))
        s = sts_score(a, b, "cos_sigmoid", heads).item()
        assert lo - 1e-12 <= s <= hi + 1e-12


def test_sts_cos_sigmoid_scaled():
    heads = make_heads(d=2)
    a = Tensor(np.array([[2.0, 0.0]]))
    got = sts_score(a, a, "cos_sigmoid_scaled", heads).item()
    assert got == pytest.approx(5.0 / (1.0 + math.exp(-5.0)), abs=1e-12)


def test_sts_sum_linear_hand_example():
    heads = make_heads(d=2)
    heads["heads.sts.weight"].data[:] = np.array([[1.0], [2.0], [3.0], [4.0]])
    heads["heads.sts.bias"].data[:] = 0.5
    a = Tensor(np.array([[1.0, 1.0]]))
    b = Tensor(np.array([[2.0, -1.0]]))
    # [1,1,2,-1] . [1,2,3,4] + 0.5 = 1+2+6-4+0.5
    assert sts_score(a, b, "sum_linear", heads).item() == pytest.approx(5.5, abs=1e-12)


def test_sts_cross_attention_bounded_and_matches_formula():
    heads = make_heads(d=3, seed=5)
    a = Tensor(np.array([[0.5, -0.2, 0.8]]))
    b = Tensor(np.array([[1.0, 0.3, -0.4]]))
    got = sts_score(a, b, "cross_attention", heads).item()
    raw = float(a.data[0] @ heads["heads.cross_attn"].data @ b.data[0])
    assert got == pytest.approx(5.0 / (1.0 + math.exp(-raw)), rel=1e-12)
    assert 0.0 < got < 5.0


def test_sts_unknown_head():
    with pytest.raises(ValueError, match="similarity head"):
        sts_score(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))), "dot", make_heads(d=2))


def test_sts_zero_norm_under_cosine_head():
    heads = make_heads(d=2)
    with pytest.raises(ZeroNormError):
        sts_score(Tensor(np.zeros((1, 2))), Tensor(np.ones((1, 2))), "cos_scale", heads)


# -- supervised losses -------------------------------------------------------------

def test_bce_hand_values():
    assert bce_loss(Tensor(np.zeros(1)), [0.5]).item() == pytest.approx(math.log(2), abs=1e-12)
    assert bce_loss(Tensor(np.zeros(1)), [1.0]).item() == pytest.approx(math.log(2), abs=1e-12)
    assert bce_loss(Tensor(np.array([30.0])), [1.0]).item() == pytest.approx(0.0, abs=1e-12)
    assert bce_loss(Tensor(np.array([-30.0])), [0.0]).item() == pytest.approx(0.0, abs=1e-12)


def test_bce_extreme_logits_stay_finite():
    out = bce_loss(Tensor(np.array([1000.0, -1000.0])), [0.0, 1.0]).item()
    assert math.isfinite(out)
    assert out == pytest.approx(1000.0, rel=1e-12)


def test_bce_gradient_is_sigmoid_minus_target():
    z0 = np.array([0.3, -1.5, 2.0, 0.0])
    t = np.array([1.0, 0.0, 0.5, 0.25])
    z = Tensor(z0, requires_grad=True)
    bce_loss(z, t).backward()
    expected = (1.0 / (1.0 + np.exp(-z0)) - t) / z0.size
    assert np.allclose(z.grad, expected, atol=1e-12)


def test_bce_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bce_loss(Tensor(np.zeros(2)), [0.5, 1.5])
    with pytest.raises(ag.ShapeMismatchError):
        bce_loss(Tensor(np.zeros(2)), [0.5])


def test_mse_hand_values_and_gradient():
    assert mse_loss(Tensor(np.array([1.0, 2.0])), [1.0, 2.0]).item() == 0.0
    assert mse_loss(Tensor(np.array([0.0, 0.0])), [3.0, 4.0]).item() == pytest.approx(12.5)
    p0 = np.array([1.0, -2.0, 0.5])
    t = np.array([0.0, 1.0, 0.5])
    p = Tensor(p0, requires_grad=True)
    mse_loss(p, t).backward()
    assert np.allclose(p.grad, 2.0 * (p0 - t) / 3.0, atol=1e-12)


def test_ce_uniform_logits():
    logits = Tensor(np.zeros((2, 5)))
    assert ce_loss(logits, [0, 3]).item() == pytest.approx(math.log(5), abs=1e-12)


def test_ce_matches_manual_softmax():
    rng = np.random.default_rng(3)
    z0 = rng.normal(size=(4, 5))
    labels = np.array([0, 2, 4, 1])
    z = Tensor(z0, requires_grad=True)
    loss = ce_loss(z, labels)
    probs = np.exp(z0 - z0.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    manual = -np.mean(np.log(probs[np.arange(4), labels]))
    assert loss.item() == pytest.approx(manual, abs=1e-12)
    loss.backward()
    onehot = np.zeros((4, 5))
    onehot[np.arange(4), labels] = 1.0
    assert np.allclose(z.grad, (probs - onehot) / 4.0, atol=1e-10)


# -- contrastive losses -------------------------------------------------------------

def test_unsup_matches_brute_force_sweep():
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        for d in (2, 4, 16):
            h = rng.normal(size=(n, d))
            hp = rng.normal(size=(n, d))
            tau = float(rng.uniform(0.05, 1.0))
            got = unsup_simcse_loss(Tensor(h), Tensor(hp), tau).item()
            assert got == pytest.approx(brute_unsup(h, hp, tau), abs=1e-10)


def test_sup_matches_brute_force_sweep():
    rng = np.random.default_rng(43)
    for n in range(2, 9):
        for d in (2, 4, 16):
            h = rng.normal(size=(n, d))
            hp = rng.normal(size=(n, d))
            hm = rng.normal(size=(n, d))
            tau = float(rng.uniform(0.05, 1.0))
            got = sup_simcse_loss(Tensor(h), Tensor(hp), Tensor(hm), tau).item()
            assert got == pytest.approx(brute_sup(h, hp, hm, tau), abs=1e-10)


def test_unsup_identical_rows_is_log_n():
    for n in (2, 3, 5, 8):
        h = np.tile(np.array([[0.3, -0.7, 0.2]]), (n, 1))
        loss = unsup_simcse_loss(Tensor(h), Tensor(h.copy()), 0.05).item()
        assert loss == pytest.approx(math.log(n), abs=1e-9)


def test_unsup_orthogonal_positives_near_zero():
    n = 4
    h = np.eye(n)
    loss = unsup_simcse_loss(Tensor(h), Tensor(h.copy()), 0.05).item()
    # -log(e^20 / (e^20 + 3)) = log1p(3 e^-20), tiny but positive
    assert 0.0 < loss < 1e-8


def test_unsup_scale_invariance():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 6))
    hp = rng.normal(size=(4, 6))
    scales = np.abs(rng.normal(size=(4, 1))) + 0.1
    a = unsup_simcse_loss(Tensor(h), Tensor(hp), 0.1).item()
    b = unsup_simcse_loss(Tensor(h * scales), Tensor(hp * 2.0), 0.1).item()
    assert a == pytest.approx(b, abs=1e-10)


def test_unsup_preconditions():
    one = Tensor(np.ones((1, 3)))
    with pytest.raises(ValueError, match="N >= 2"):
        unsup_simcse_loss(one, one, 0.05)
    two = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="tau"):
        unsup_simcse_loss(two, two, 0.0)
    with pytest.raises(ZeroNormError):
        unsup_simcse_loss(Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])), two, 0.05)


def test_sup_single_row_hand_value():
    h = Tensor(np.array([[1.0, 0.0]]))
    hm = Tensor(np.array([[0.0, 1.0]]))
    loss = sup_simcse_loss(h, Tensor(np.array([[1.0, 0.0]])), hm, 1.0).item()
    assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)
    assert loss == pytest.approx(0.3133, abs=1e-4)


def test_sup_exceeds_unsup_given_extra_negatives():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(5, 8))
    hp = rng.normal(size=(5, 8))
    hm = rng.normal(size=(5, 8))
    u = unsup_simcse_loss(Tensor(h), Tensor(hp), 0.1).item()
    s = sup_simcse_loss(Tensor(h), Tensor(hp), Tensor(hm), 0.1).item()
    assert s > u


def test_contrastive_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    h0 = rng.normal(size=(3, 4))
    hp = Tensor(rng.normal(size=(3, 4)))
    hm = Tensor(rng.normal(size=(3, 4)))

    def fu(h):
        return unsup_simcse_loss(h, hp, 0.2)

    h = Tensor(h0, requires_grad=True)
    fu(h).backward()
    fd = ag.finite_diff_grad(fu, Tensor(h0)).data
    assert np.max(np.abs(h.grad - fd) / np.maximum(1.0, np.abs(fd))) < 1e-4

    def fs(h):
        return sup_simcse_loss(h, hp, hm, 0.2)

    h2 = Tensor(h0, requires_grad=True)
    fs(h2).backward()
    fd2 = ag.finite_diff_grad(fs, Tensor(h0)).data
    assert np.max(np.abs(h2.grad - fd2) / np.maximum(1.0, np.abs(fd2))) < 1e-4


def test_one_descent_step_pulls_positives_together():
    # free-embedding toy problem: rows are the parameters themselves
    from simcse_forge.optim import AdamWConfig, AdamWState, adamw_step

    rng = np.random.default_rng(13)
    base = np.eye(4, 6)                       # mutually orthogonal anchors
    h = Tensor(base + 0.2 * rng.normal(size=(4, 6)), requires_grad=True)
    hp = Tensor(base + 0.2 * rng.normal(size=(4, 6)), requires_grad=True)

    def mean_alignment():
        num = np.sum(h.data * hp.data, axis=1)
        den = np.linalg.norm(h.data, axis=1) * np.linalg.norm(hp.data, axis=1)
        return float(np.mean(num / den))

    before = mean_alignment()
    loss = unsup_simcse_loss(h, hp, 0.05)
    loss.backward()
    adamw_step([("h", h), ("hp", hp)], AdamWState(), AdamWConfig(lr=0.01))
    assert mean_alignment() > before


@given(st.integers(2, 6), st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_unsup_loss_nonnegative_lower_bound(n, d):
    # each row's positive term also appears in its denominator, so loss > 0
    rng = np.random.default_rng(n * 100 + d)
    h = rng.normal(size=(n, d)) + 0.01
    hp = rng.normal(size=(n, d)) + 0.01
    loss = unsup_simcse_loss(Tensor(h), Tensor(hp), 0.3).item()
    assert loss > 0.0
