"""Acceptance suite: one test per headline guarantee of the toolkit.

Each test_criterion_* function gets a PASS/FAIL line in the terminal
summary (see conftest). Tolerances are pinned here and are not meant to
be loosened; a failure is a real regression.
"""
import json
import math
import time

import numpy as np
import pytest

import simcse_forge.autograd as ag
from simcse_forge.autograd import Tensor, finite_diff_grad
from simcse_forge.checkpoint import load_checkpoint, save_checkpoint
from simcse_forge.cli import main
from simcse_forge.data import (SYNTH_SCHEMAS, Vocab, examples_from_rows,
                               pad_batch, synth_toy_corpus, texts_of_rows,
                               tokenize)
from simcse_forge.dropout import (DropoutPolicy, adaptive_dropout,
                                  apply_dropout, curriculum_rate)
from simcse_forge.encoder import EncoderConfig, encode, init_params
from simcse_forge.evaluation import (emit_report, parse_report_tsv, pearson,
                                     score_histogram, similarity_heatmap)
from simcse_forge.experiments import (ExperimentConfig, run_dropout_comparison,
                                      run_single_vs_multitask,
                                      run_transfer_ablation,
                                      run_two_tier_stages)
from simcse_forge.objectives import sup_simcse_loss, unsup_simcse_loss
from simcse_forge.optim import AdamWConfig, AdamWState, adamw_step
from simcse_forge.rng import Rng
from simcse_forge.training import (TrainConfig, dropout_alignment,
                                   evaluate_task, train_single_task,
                                   train_unsup_simcse)

from conftest import rel_grad_error


# -- criterion 1: gradient oracle suite --------------------------------------------

FD_H = 1e-5

OP_NAMES = ["add", "sub", "mul", "div", "neg", "powc", "matmul", "tsum",
            "tmean", "reshape", "transpose", "concat", "take", "embedding",
            "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "softplus",
            "tabs", "gelu", "softmax", "layer_norm"]


def _t(r, *shape, lo=-2.0, hi=2.0):
    return Tensor(r.uniform(lo, hi, size=shape), requires_grad=True)


def _t_pos(r, *shape):
    return _t(r, *shape, lo=0.5, hi=3.0)


def _t_signed(r, *shape):
    """Values with magnitude in [0.5, 2]: safe for kinks and poles at zero."""
    mag = r.uniform(0.5, 2.0, size=shape)
    sign = np.where(r.uniform(size=shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True)


def _const(r, *shape):
    return Tensor(r.normal(size=shape))


def _op_case(name, slot, r):
    """One randomized finite-difference check: returns (g, x) where g(x) is
    the op applied to the tensor under test. The slot rotates which operand
    (or axis/exponent variant) is being differentiated."""
    if name == "add":
        x, c = _t(r, 3, 4), _const(r, 3, 4)
        return [lambda t: ag.add(t, c), lambda t: ag.add(c, t),
                lambda t: ag.add(t, 1.5)][slot], x
    if name == "sub":
        x, c = _t(r, 3, 4), _const(r, 3, 4)
        return [lambda t: ag.sub(t, c), lambda t: ag.sub(c, t),
                lambda t: ag.sub(t, 0.7)][slot], x
    if name == "mul":
        x, c = _t(r, 3, 4), _const(r, 3, 4)
        return [lambda t: ag.mul(t, c), lambda t: ag.mul(c, t),
                lambda t: ag.mul(t, -2.5)][slot], x
    if name == "div":
        if slot == 0:
            c = _t_signed(r, 3, 4)
            return lambda t: ag.div(t, c), _t(r, 3, 4)
        if slot == 1:
            c = _const(r, 3, 4)
            return lambda t: ag.div(c, t), _t_signed(r, 3, 4)
        return lambda t: ag.div(t, 1.7), _t(r, 3, 4)
    if name == "neg":
        return ag.neg, _t(r, 3, 4)
    if name == "powc":
        if slot == 0:
            return lambda t: ag.powc(t, 3.0), _t(r, 3, 4)
        if slot == 1:
            return lambda t: ag.powc(t, 0.5), _t_pos(r, 3, 4)
        return lambda t: ag.powc(t, -1.0), _t_signed(r, 3, 4)
    if name == "matmul":
        if slot == 0:
            c = _const(r, 4, 5)
            return lambda t: ag.matmul(t, c), _t(r, 3, 4)
        if slot == 1:
            c = _const(r, 3, 4)
            return lambda t: ag.matmul(c, t), _t(r, 4, 5)
        c = _const(r, 2, 4, 5)
        return lambda t: ag.matmul(t, c), _t(r, 2, 3, 4)
    if name == "tsum":
        x = _t(r, 3, 4)
        return [lambda t: ag.tsum(t), lambda t: ag.tsum(t, axis=0),
                lambda t: ag.tsum(t, axis=-1, keepdims=True)][slot], x
    if name == "tmean":
        x = _t(r, 3, 4)
        return [lambda t: ag.tmean(t), lambda t: ag.tmean(t, axis=0),
                lambda t: ag.tmean(t, axis=-1, keepdims=True)][slot], x
    if name == "reshape":
        x = _t(r, 3, 4)
        return [lambda t: ag.reshape(t, 2, 6), lambda t: ag.reshape(t, 12),
                lambda t: ag.reshape(t, 2, 2, 3)][slot], x
    if name == "transpose":
        if slot == 0:
            return lambda t: ag.transpose(t), _t(r, 3, 4)
        if slot == 1:
            return lambda t: ag.transpose(t, 0, 2, 1), _t(r, 2, 3, 4)
        return lambda t: ag.transpose(t, 2, 0, 1), _t(r, 2, 3, 4)
    if name == "concat":
        if slot == 0:
            c = _const(r, 3, 2)
            return lambda t: ag.concat([t, c], axis=-1), _t(r, 3, 4)
        if slot == 1:
            c = _const(r, 2, 4)
            return lambda t: ag.concat([c, t], axis=0), _t(r, 3, 4)
        c1, c2 = _const(r, 3, 1), _const(r, 3, 2)
        return lambda t: ag.concat([t, c1, c2], axis=1), _t(r, 3, 4)
    if name == "take":
        x = _t(r, 4, 5)
        return [lambda t: ag.take(t, 1),
                lambda t: ag.take(t, (slice(None), slice(1, 3))),
                lambda t: ag.take(t, slice(None, None, 2))][slot], x
    if name == "embedding":
        ids = np.asarray(r.integers(0, 7, size=(2, 3)))  # repeats hit scatter-add
        return lambda t: ag.embedding(t, ids), _t(r, 7, 5)
    if name == "exp":
        return ag.exp, _t(r, 3, 4)
    if name == "log":
        return ag.log, _t_pos(r, 3, 4)
    if name == "sqrt":
        return ag.sqrt, _t_pos(r, 3, 4)
    if name == "tanh":
        return ag.tanh, _t(r, 3, 4, lo=-3.0, hi=3.0)
    if name == "sigmoid":
        return ag.sigmoid, _t(r, 3, 4, lo=-3.0, hi=3.0)
    if name == "relu":
        return ag.relu, _t_signed(r, 3, 4)
    if name == "softplus":
        return ag.softplus, _t(r, 3, 4, lo=-3.0, hi=3.0)
    if name == "tabs":
        return ag.tabs, _t_signed(r, 3, 4)
    if name == "gelu":
        return ag.gelu, _t(r, 3, 4, lo=-3.0, hi=3.0)
    if name == "softmax":
        return ag.softmax, _t(r, 3, 4, lo=-1.5, hi=1.5)
    if name == "layer_norm":
        x, gamma, beta = _t(r, 3, 4), _t_pos(r, 4), _t(r, 4)
        if slot == 0:
            return lambda t: ag.layer_norm(t, gamma, beta), x
        if slot == 1:
            return lambda t: ag.layer_norm(x, t, beta), gamma
        return lambda t: ag.layer_norm(x, gamma, t), beta
    raise AssertionError(f"unhandled op {name}")


def _scalarize(g, r):
    """Turn tensor-valued g into a scalar loss via a probe fixed on first call."""
    probe = None

    def f(x):
        nonlocal probe
        out = g(x)
        if probe is None:
            probe = Tensor(r.normal(size=out.shape))
        return (out * probe).sum()

    return f


def test_criterion_01_gradient_oracle_suite():
    r = np.random.default_rng(2024)
    start = time.monotonic()
    trials = 0

    # every differentiable op, three randomized trials each, rel error < 1e-4
    for slot in range(3):
        for name in OP_NAMES:
            g, x = _op_case(name, slot, r)
            f = _scalarize(g, r)
            x.grad = None
            f(x).backward()
            err = rel_grad_error(x.grad, finite_diff_grad(f, x, FD_H).data)
            assert err < 1e-4, f"{name} slot {slot}: rel error {err:.3e}"
            trials += 1

    # the full two-layer toy encoder, 25 randomized trials, rel error < 1e-3;
    # each trial re-randomizes params + inputs and finite-differences two
    # parameter tensors, cycling so every encoder parameter gets covered
    cfg = EncoderConfig(vocab_size=9, hidden_dim=4, num_layers=2, num_heads=2,
                        ffn_dim=8, max_seq_len=6, pooling="cls_tanh",
                        dropout=DropoutPolicy(kind="standard", p=0.0))
    proto = init_params(cfg, Rng(0))
    names = [n for n, _ in proto.named_parameters()
             if not n.startswith(("heads.", "adaptive."))]
    cycle = [names[i % len(names)] for i in range(50)]

    for trial in range(25):
        params = init_params(cfg, Rng(300 + trial))
        body = r.integers(4, 9, size=(2, 3))
        ids = np.array([[1, body[0, 0], body[0, 1], body[0, 2], 2],
                        [1, body[1, 0], body[1, 1], 2, 0]])
        mask = np.array([[1.0] * 5, [1.0, 1.0, 1.0, 1.0, 0.0]])
        probe = Tensor(r.normal(size=(2, cfg.hidden_dim)))

        def loss():
            return (encode(ids, mask, params, cfg).pooled * probe).sum()

        scalar = loss()
        scalar.backward()
        grads = {n: p.grad for n, p in params.named_parameters()}
        tensors = dict(params.named_parameters())
        for name in cycle[2 * trial:2 * trial + 2]:
            p = tensors[name]
            flat = p.data.reshape(-1)
            gflat = np.asarray(grads[name]).reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + FD_H
                up = loss().item()
                flat[i] = keep - FD_H
                down = loss().item()
                flat[i] = keep
                fd = (up - down) / (2 * FD_H)
                err = abs(gflat[i] - fd) / max(1.0, abs(fd))
                assert err < 1e-3, f"encoder {name}[{i}]: rel error {err:.3e}"
        trials += 1

    assert set(cycle) == set(names)       # every encoder parameter covered
    assert trials == 100
    assert time.monotonic() - start < 60.0


# -- criterion 2: contrastive losses vs brute force ---------------------------------

def _cos(u, v):
    dot = sum(ui * vi for ui, vi in zip(u, v))
    nu = math.sqrt(sum(ui * ui for ui in u))
    nv = math.sqrt(sum(vi * vi for vi in v))
    return dot / (nu * nv)


def _brute_unsup(h, hp, tau):
    n = len(h)
    total = 0.0
    for i in range(n):
        num = math.exp(_cos(h[i], hp[i]) / tau)
        den = sum(math.exp(_cos(h[i], hp[j]) / tau) for j in range(n))
        total += -math.log(num / den)
    return total / n


def _brute_sup(h, hp, hm, tau):
    n = len(h)
    total = 0.0
    for i in range(n):
        num = math.exp(_cos(h[i], hp[i]) / tau)
        den = sum(math.exp(_cos(h[i], hp[j]) / tau)
                  + math.exp(_cos(h[i], hm[j]) / tau) for j in range(n))
        total += -math.log(num / den)
    return total / n


def test_criterion_02_contrastive_loss_brute_force():
    r = np.random.default_rng(77)
    tau = 0.05
    for n in range(2, 9):
        for d in (2, 4, 16):
            for _ in range(50):
                h = r.normal(size=(n, d))
                hp = r.normal(size=(n, d))
                hm = r.normal(size=(n, d))
                got = unsup_simcse_loss(Tensor(h), Tensor(hp), tau).item()
                want = _brute_unsup(h, hp, tau)
                assert abs(got - want) < 1e-10, (n, d, "unsup")
                got = sup_simcse_loss(Tensor(h), Tensor(hp), Tensor(hm),
                                      tau).item()
                want = _brute_sup(h, hp, hm, tau)
                assert abs(got - want) < 1e-10, (n, d, "sup")


# -- criterion 3: zero-dropout degenerate identity ----------------------------------

def test_criterion_03_zero_dropout_log_n_identity():
    sentence = "the quiet harbor kept its morning light"
    vocab = Vocab.build([sentence])
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=1,
                        num_heads=2, ffn_dim=16, max_seq_len=12,
                        pooling="cls_tanh",
                        dropout=DropoutPolicy(kind="standard", p=0.0))
    params = init_params(cfg, Rng(5))
    toks = tokenize(sentence, vocab, cfg.max_seq_len)
    rng = Rng(9)
    for n in (2, 3, 5, 8, 16):
        ids, mask = pad_batch([toks] * n)
        for tau in (0.05, 1.0):
            h1 = encode(ids, mask, params, cfg, mode="train", rng=rng).pooled
            h2 = encode(ids, mask, params, cfg, mode="train", rng=rng).pooled
            loss = unsup_simcse_loss(h1, h2, tau).item()
            assert abs(loss - math.log(n)) <= 1e-9, (n, tau, loss)


# -- criterion 4: unsupervised contrastive training improves alignment --------------

def test_criterion_04_unsup_simcse_improves_alignment():
    start = time.monotonic()
    rows = synth_toy_corpus("paraphrase", 300, Rng(0))
    seen, sentences = set(), []
    for text in texts_of_rows(rows, "pair_labeled"):
        if text not in seen:
            seen.add(text)
            sentences.append(text)
    sentences = sentences[:500]
    assert len(sentences) == 500

    vocab = Vocab.build(sentences)
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_dim=16, num_layers=1,
                        num_heads=2, ffn_dim=32, max_seq_len=16,
                        pooling="cls_tanh",
                        dropout=DropoutPolicy(kind="standard", p=0.1))
    toks = [tokenize(s, vocab, cfg.max_seq_len) for s in sentences]
    train, held_out = toks[:420], toks[420:]

    params = init_params(cfg, Rng(0))
    before = dropout_alignment(params, cfg, held_out, seed=123)
    tc = TrainConfig(task="sts", epochs=3, batch_size=16, lr=1e-3,
                     dropout_p=0.1, tau=0.05, seed=0)
    ck = train_unsup_simcse(tc, cfg, vocab, train, params)
    after = dropout_alignment(ck.params, cfg, held_out, seed=123)

    assert after > before, (before, after)
    assert time.monotonic() - start < 180.0


# -- criterion 5: toy task learnability ----------------------------------------------

def _fit(kind, size, hidden, lr):
    rows = synth_toy_corpus(kind, size, Rng(0))
    schema = SYNTH_SCHEMAS[kind]
    vocab = Vocab.build(texts_of_rows(rows, schema))
    examples = examples_from_rows(rows, schema, vocab, 16)
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_dim=hidden, num_layers=1,
                        num_heads=2, ffn_dim=2 * hidden, max_seq_len=16,
                        pooling="mean",
                        dropout=DropoutPolicy(kind="standard", p=0.0))
    task = "sst" if kind == "sst" else "sts"
    tc = TrainConfig(task=task, epochs=30, batch_size=16, lr=lr, seed=0)
    # dev = train: the claim is that the model can fit the training set
    ck = train_single_task(tc, cfg, vocab, examples, examples)
    _, value, _ = evaluate_task(task, ck.params, cfg, examples, tc)
    return value


def test_criterion_05_toy_task_learnability():
    start = time.monotonic()
    accuracy = _fit("sst", 100, hidden=16, lr=1e-3)
    assert accuracy >= 0.95, accuracy
    assert time.monotonic() - start < 180.0

    start = time.monotonic()
    correlation = _fit("sts", 200, hidden=32, lr=1e-3)
    assert correlation >= 0.95, correlation
    assert time.monotonic() - start < 180.0


# -- criterion 6: dropout suite -------------------------------------------------------

def test_criterion_06_dropout_suite():
    # curriculum schedule: monotone from 0 toward p over 1e4 steps,
    # for 20 random (gamma, p) draws
    r = np.random.default_rng(11)
    for _ in range(20):
        gamma = float(r.uniform(0.5, 10.0))
        p = float(r.uniform(0.05, 0.8))
        policy = DropoutPolicy(kind="curriculum", p=p, gamma=gamma,
                               total_steps=10_000)
        rates = [curriculum_rate(step, policy) for step in range(10_001)]
        diffs = np.diff(rates)
        assert rates[0] == 0.0
        assert np.all(diffs >= 0.0), (gamma, p)
        assert rates[-1] <= p + 1e-12
        assert rates[-1] == pytest.approx(p * (1 - math.exp(-gamma)), rel=1e-12)

    # standard dropout: empirical rate 0.3 +/- 0.003 over 1e6 units
    x = Tensor(np.ones(1_000_000))
    out = apply_dropout(x, DropoutPolicy(kind="standard", p=0.3), "train", 0,
                        Rng(7))
    dropped = float(np.mean(out.data == 0.0))
    assert abs(dropped - 0.3) <= 0.003, dropped

    # adaptive keep probabilities: strictly inside (0, 1), non-constant
    # on non-constant activations
    activations = Tensor(np.linspace(-3.0, 3.0, 64))
    ones = Tensor(np.ones(64))
    policy = DropoutPolicy(kind="adaptive", p=0.3, alpha=1.0, beta=0.0)
    pi = adaptive_dropout(ones, activations, policy, "eval", None).data
    assert np.all(pi > 0.0) and np.all(pi < 1.0)
    assert pi.max() - pi.min() > 0.1


# -- criterion 7: AdamW ----------------------------------------------------------------

def test_criterion_07_adamw_optimizer():
    # convergence on f(theta) = ||theta||^2 from [5, -5], lr 0.1, 200 steps
    theta = Tensor(np.array([5.0, -5.0]), requires_grad=True)
    state = AdamWState()
    cfg = AdamWConfig(lr=0.1)
    for _ in range(200):
        theta.grad = None
        (theta * theta).sum().backward()
        adamw_step([("theta", theta)], state, cfg)
    assert float(np.linalg.norm(theta.data)) < 1e-2

    # every step matches an independent scalar oracle to 1e-12
    grads = [0.9, -0.4, 0.25, 2.0, -1.0, 0.1, -0.7, 1.3, 0.05, -2.2]
    lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
    p = Tensor(np.array([[1.5]]), requires_grad=True)
    state = AdamWState()
    cfg = AdamWConfig(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    m = v = 0.0
    ref = 1.5
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([[g]])
        adamw_step([("p", p)], state, cfg)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref -= lr * (mhat / (math.sqrt(vhat) + eps) + wd * ref)
        assert p.data[0, 0] == pytest.approx(ref, abs=1e-12), t

    # decoupled decay alone: zero-gradient matrix shrinks by exactly lr*wd*theta
    p = Tensor(np.array([[4.0]]), requires_grad=True)
    p.grad = np.zeros((1, 1))
    adamw_step([("p", p)], AdamWState(), AdamWConfig(lr=0.1, weight_decay=0.01))
    assert p.data[0, 0] == 4.0 - 0.1 * 0.01 * 4.0


# -- criterion 8: metrics ---------------------------------------------------------------

def test_criterion_08_metrics_oracles():
    r = np.random.default_rng(123)
    for _ in range(1000):
        x = r.normal(size=100)
        y = r.normal(size=100) + 0.3 * x
        assert abs(pearson(x, y) - np.corrcoef(x, y)[0, 1]) < 1e-12

    # affine invariance: r(ax+b, y) = sign(a) * r(x, y)
    x = r.normal(size=200)
    y = r.normal(size=200) + 0.5 * x
    base = pearson(x, y)
    assert pearson(3.5 * x + 2.0, y) == pytest.approx(base, abs=1e-12)
    assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-base, abs=1e-12)
    assert pearson(x, 0.25 * y - 4.0) == pytest.approx(base, abs=1e-12)

    # heatmap marginals equal the 1-D histograms
    true = r.uniform(0.0, 5.0, size=500)
    pred = np.clip(true + r.normal(scale=1.0, size=500), 0.0, 5.0)
    grid, _ = similarity_heatmap(true, pred)
    assert np.array_equal(grid.sum(axis=1), score_histogram(true))
    assert np.array_equal(grid.sum(axis=0), score_histogram(pred))
    assert grid.sum() == 500


# -- criterion 9: pipeline reproducibility ------------------------------------------------

def test_criterion_09_pipeline_reproducibility(tmp_path):
    sts_train = tmp_path / "sts_train.tsv"
    sts_dev = tmp_path / "sts_dev.tsv"
    nli = tmp_path / "nli.tsv"
    assert main(["synth", "sts", "20", str(sts_train), "--seed", "1"]) == 0
    assert main(["synth", "sts", "8", str(sts_dev), "--seed", "2"]) == 0
    assert main(["synth", "nli", "10", str(nli), "--seed", "3"]) == 0

    config = tmp_path / "two_tier.json"
    config.write_text(json.dumps({
        "seed": 11,
        "encoder": {"hidden_dim": 8, "num_layers": 1, "num_heads": 2,
                    "ffn_dim": 16, "max_seq_len": 12},
        "dropout": {"kind": "standard", "p": 0.1},
        "optim": {"lr": 1e-3},
        "train": {"task": "sts", "epochs": 1, "batch_size": 8},
        "two_tier": {"stage2_epochs": 1, "stage2_batch_size": 8,
                     "stage2_lr": 1e-3, "stage3_epochs": 1,
                     "stage3_batch_size": 8, "stage3_lr": 1e-3},
        "data": {"sts_train": str(sts_train), "sts_dev": str(sts_dev),
                 "nli": str(nli)},
    }))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "two-tier", "--config", str(config),
                 "--out", str(out_a)]) == 0
    assert main(["train", "two-tier", "--config", str(config),
                 "--out", str(out_b)]) == 0
    assert (out_a / "checkpoint.ckpt").read_bytes() == \
        (out_b / "checkpoint.ckpt").read_bytes()
    assert (out_a / "metrics.tsv").read_bytes() == \
        (out_b / "metrics.tsv").read_bytes()

    # save/load round-trip: 0-ulp identical encode outputs
    ck1 = load_checkpoint(out_a / "checkpoint.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(ck1, resaved)
    ck2 = load_checkpoint(resaved)
    vocab = Vocab.from_tokens(ck1.vocab_tokens)
    probes = ["the river kept its cold morning light",
              "a market stall sold bright cloth lanterns"]
    ids, mask = pad_batch([tokenize(s, vocab, ck1.config.max_seq_len)
                           for s in probes])
    with ag.no_grad():
        r1 = encode(ids, mask, ck1.params, ck1.config, sequence=True)
        r2 = encode(ids, mask, ck2.params, ck2.config, sequence=True)
        # the default pass, which embed writes
        p1 = encode(ids, mask, ck1.params, ck1.config).pooled
        p2 = encode(ids, mask, ck2.params, ck2.config).pooled
    assert r1.pooled.data.tobytes() == r2.pooled.data.tobytes()
    assert r1.sequence.data.tobytes() == r2.sequence.data.tobytes()
    assert p1.data.tobytes() == p2.data.tobytes()


# -- criterion 10: experiment report shapes -----------------------------------------------

def _shape(reports):
    return [(r.model, r.task, r.metric, r.stage) for r in reports]


def test_criterion_10_experiment_report_shapes():
    xc = ExperimentConfig(seed=0, train_size=16, dev_size=8, epochs=2)
    metric_of = {"sst": "accuracy", "paraphrase": "accuracy", "sts": "pearson"}

    # single vs multitask: one row per (model, task)
    reports = run_single_vs_multitask(xc)
    assert _shape(reports) == [
        (model, task, metric_of[task], "baseline")
        for model in ("single_task", "multitask")
        for task in ("sst", "paraphrase", "sts")]
    assert all(r.n_examples == xc.dev_size for r in reports)
    # the rendered table adds one overall mean row per model
    rendered = parse_report_tsv(emit_report(reports))
    assert rendered == reports
    assert emit_report(reports).count("\toverall\tmean\t") == 2

    # three dropout kinds, same task grid
    reports = run_dropout_comparison(xc)
    assert _shape(reports) == [
        (model, task, metric_of[task], "baseline")
        for model in ("dropout_standard", "dropout_curriculum",
                      "dropout_adaptive")
        for task in ("sst", "paraphrase", "sts")]

    # transfer ablation: scratch vs contrastively pre-trained encoder
    reports = run_transfer_ablation(xc)
    assert _shape(reports) == [
        ("no_transfer", "sst", "accuracy", "baseline"),
        ("with_transfer", "sst", "accuracy", "transfer"),
        ("no_transfer", "paraphrase", "accuracy", "baseline"),
        ("with_transfer", "paraphrase", "accuracy", "transfer")]

    # staged pipeline: STS score after each stage
    reports = run_two_tier_stages(xc)
    assert _shape(reports) == [("two_tier", "sts", "pearson", "baseline"),
                               ("two_tier", "sts", "pearson", "unsup_simcse"),
                               ("two_tier", "sts", "pearson", "sup_simcse")]
    assert all(r.n_examples == xc.dev_size for r in reports)
    assert all(-1.0 <= r.value <= 1.0 for r in reports)
