import numpy as np
import pytest

from simcse_forge import autograd as ag
from simcse_forge import training
from simcse_forge.autograd import Tensor
from simcse_forge.data import Vocab, pad_batch, tokenize
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import (_BUCKET_COST, EmptySequenceError, EncoderConfig,
                                  EncodeResult, ModelParams, _to_heads, _to_rows,
                                  attention_core, embed, encode, init_params,
                                  multi_head_attention, pack)
from simcse_forge.rng import Rng
from conftest import check_grad


def toy_config(**overrides):
    base = dict(vocab_size=23, hidden_dim=8, num_layers=2, num_heads=2,
                ffn_dim=16, max_seq_len=10,
                dropout=DropoutPolicy(kind="standard", p=0.0))
    base.update(overrides)
    return EncoderConfig(**base)


def batch(config, rng_seed=0, b=3, t=5):
    rng = np.random.default_rng(rng_seed)
    ids = rng.integers(4, config.vocab_size, size=(b, t))
    ids[:, 0] = 1   # [CLS]
    lengths = rng.integers(2, t + 1, size=b)
    mask = (np.arange(t)[None, :] < lengths[:, None]).astype(np.float64)
    ids = ids * mask.astype(np.int64)   # pad id 0 beyond length
    ids[:, 0] = 1
    return ids, mask


# -- config validation -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        toy_config(hidden_dim=9)
    with pytest.raises(ValueError, match="max_seq_len"):
        toy_config(max_seq_len=1)
    with pytest.raises(ValueError, match="pooling"):
        toy_config(pooling="max")
    with pytest.raises(ValueError, match="positive"):
        toy_config(num_layers=0)
    with pytest.raises(ValueError, match="hidden_dim must be an integer"):
        toy_config(hidden_dim=8.0)
    with pytest.raises(ValueError, match="para feature mode"):
        toy_config(para_features="bilinear")
    with pytest.raises(ValueError, match="sts head"):
        toy_config(sts_head="euclidean")


def test_config_rejects_bool_dimensions():
    with pytest.raises(ValueError, match="num_layers must be an integer"):
        EncoderConfig(vocab_size=10, num_layers=True)
    with pytest.raises(ValueError, match="num_layers must be an integer"):
        EncoderConfig(vocab_size=10, num_layers=np.bool_(True))


def test_config_accepts_numpy_integer_dimensions():
    config = EncoderConfig(vocab_size=np.int64(10), hidden_dim=np.int32(8),
                           num_heads=np.int64(2))
    assert config.hidden_dim // config.num_heads == 4


# -- init ------------------------------------------------------------------------

def parameter_count(params: ModelParams) -> int:
    return sum(t.size for t in params.values())


def test_parameter_count_closed_form():
    # independent count from the declared shapes
    cfg = EncoderConfig(vocab_size=100, hidden_dim=16, num_layers=2, num_heads=2,
                        ffn_dim=64, max_seq_len=12)
    v, d, L, f, s = 100, 16, 2, 64, 12
    per_layer = 4 * (d * d + d) + 2 * d + (d * f + f) + (f * d + d) + 2 * d
    heads = (d * 5 + 5) + (4 * d + 1) + (2 * d + 1) + d * d
    expected = (v * d + s * d + 2 * d        # embeddings + embedding layer norm
                + L * per_layer
                + d * d + d                  # pooler
                + heads
                + 2)                         # adaptive dropout scalars
    params = init_params(cfg, Rng(0))
    assert parameter_count(params) == expected


def test_init_determinism_and_layernorm_values():
    cfg = toy_config()
    p1 = init_params(cfg, Rng(42))
    p2 = init_params(cfg, Rng(42))
    for (n1, t1), (n2, t2) in zip(p1.named_parameters(), p2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    assert np.all(p1["emb_ln.gamma"].data == 1.0)
    assert np.all(p1["layers.0.ln1.gamma"].data == 1.0)
    assert np.all(p1["layers.1.ln2.beta"].data == 0.0)
    assert np.all(p1["pooler.bias"].data == 0.0)


def test_init_weight_scale():
    cfg = toy_config(vocab_size=500, hidden_dim=32, num_heads=4)
    params = init_params(cfg, Rng(7))
    w = params["token_embeddings"].data
    assert abs(w.std() - 0.02) < 0.002
    assert abs(w.mean()) < 0.002


def test_named_parameters_unique_and_stable():
    params = init_params(toy_config(), Rng(1))
    names = [n for n, _ in params.named_parameters()]
    assert len(names) == len(set(names))
    assert names[0] == "token_embeddings"
    assert "layers.1.ffn.w2" in names
    assert names[-2:] == ["adaptive.alpha", "adaptive.beta"]


def test_params_copy_is_deep():
    params = init_params(toy_config(), Rng(2))
    clone = params.copy()
    for name in ("token_embeddings", "layers.0.attn.wq", "heads.sst.bias"):
        clone[name].data.reshape(-1)[0] += 1.0
        assert params[name].data.reshape(-1)[0] != clone[name].data.reshape(-1)[0]


# -- embed -----------------------------------------------------------------------

def test_embed_single_token_definition():
    cfg = toy_config()
    params = init_params(cfg, Rng(3))
    out = embed(np.array([[7]]), pack(np.ones((1, 1))), params, cfg)
    raw = params["token_embeddings"].data[7] + params["position_embeddings"].data[0]
    mu, var = raw.mean(), raw.var()
    expected = (raw - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_embed_identical_rows_for_identical_sentences():
    cfg = toy_config()
    params = init_params(cfg, Rng(3))
    ids = np.array([[1, 5, 6, 2], [1, 5, 6, 2]])
    out = embed(ids, pack(np.ones(ids.shape)), params, cfg)   # packed rows, one per slot
    assert np.array_equal(out.data[:4], out.data[4:])


def test_embed_train_dropout_differs_across_passes():
    cfg = toy_config(dropout=DropoutPolicy(kind="standard", p=0.1))
    params = init_params(cfg, Rng(3))
    ids = np.array([[1, 5, 6, 2]])
    rng = Rng(99)
    packing = pack(np.ones(ids.shape))
    a = embed(ids, packing, params, cfg, mode="train", rng=rng)
    b = embed(ids, packing, params, cfg, mode="train", rng=rng)
    assert not np.array_equal(a.data, b.data)


def test_embed_validation():
    cfg = toy_config()
    params = init_params(cfg, Rng(0))
    one = pack(np.ones((1, 1)))
    with pytest.raises(ValueError, match="out of range"):
        embed(np.array([[cfg.vocab_size]]), one, params, cfg)
    with pytest.raises(ValueError, match="out of range"):
        embed(np.array([[-1]]), one, params, cfg)
    with pytest.raises(ValueError, match="max_seq_len"):
        t = cfg.max_seq_len + 1
        embed(np.ones((1, t), dtype=int), pack(np.ones((1, t))), params, cfg)
    with pytest.raises(ag.ShapeMismatchError):
        embed(np.array([1, 2, 3]), pack(np.ones((1, 3))), params, cfg)


# -- attention ---------------------------------------------------------------------

def project(h, lp):
    """The Q, K and V rows of one layer's projections, by plain numpy."""
    return (h @ lp[f"attn.w{x}"].data + lp[f"attn.b{x}"].data for x in "qkv")


def core_layer(lp):
    """lp with an identity output projection, so that ``attention_core``
    returns the attention context rows themselves: x @ I + 0 adds only
    exact zeros to each x."""
    d = lp["attn.wo"].shape[0]
    return dict(lp, **{"attn.wo": Tensor(np.eye(d)), "attn.bo": Tensor(np.zeros(d))})


ATTENTION_WEIGHTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def random_layer(d, seed):
    """One layer's attention weights, at a scale that spreads the softmax."""
    rng = np.random.default_rng(seed)
    return {f"attn.{name}": Tensor(rng.normal(size=(d, d)) / np.sqrt(d) if name[0] == "w"
                                   else rng.normal(size=d) * 0.1, requires_grad=True)
            for name in ATTENTION_WEIGHTS}


def attention_rows(h, mask, lp, num_heads):
    """multi_head_attention's rows by plain numpy around the dense_attention
    oracle (projections, context, output projection, residual add, layer
    norm), and the oracle's [B, H, T, T] weights."""
    ctx, weights = dense_attention(*project(h, lp), mask, num_heads)
    pre = h + ctx @ lp["attn.wo"].data + lp["attn.bo"].data
    mu = pre.mean(axis=1, keepdims=True)
    var = ((pre - mu) ** 2).mean(axis=1, keepdims=True)
    out = lp["ln1.gamma"].data * (pre - mu) / np.sqrt(var + 1e-5) + lp["ln1.beta"].data
    return out, weights


def test_attention_single_position_weight_is_one():
    # one key gets weight one, so the context is that key's value row
    cfg = toy_config()
    lp = init_params(cfg, Rng(4)).scope("layers.0.")
    h = np.random.default_rng(0).normal(size=(1, cfg.hidden_dim))
    mask = np.ones((1, 1))
    q, k, v = project(h, lp)
    ctx = attention_core(Tensor(h), core_layer(lp), pack(mask), cfg.num_heads)
    assert np.allclose(ctx.data, v, atol=1e-15)
    out = multi_head_attention(Tensor(h), pack(mask), lp, cfg.num_heads)
    assert out.shape == h.shape
    assert np.allclose(out.data, attention_rows(h, mask, lp, cfg.num_heads)[0], atol=1e-12)


def test_attention_masked_positions_get_zero_weight():
    cfg = toy_config()
    lp = init_params(cfg, Rng(5)).scope("layers.0.")
    h = np.random.default_rng(1).normal(size=(5, cfg.hidden_dim))
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])
    out = multi_head_attention(Tensor(h), pack(mask), lp, cfg.num_heads)
    want, weights = attention_rows(h, mask, lp, cfg.num_heads)
    # the oracle's weights are zero at masked keys and normalize over the rest
    assert np.all(np.abs(weights[0, :, :, 2:]) <= 1e-12)
    assert np.all(np.abs(weights[1, :, :, 3:]) <= 1e-12)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(out.data, want, atol=1e-12)


def test_attention_matches_brute_force_two_tokens():
    # hand-rolled numpy attention on a 2-token sequence
    cfg = toy_config(hidden_dim=4, num_heads=2, ffn_dim=8)
    lp = init_params(cfg, Rng(6)).scope("layers.0.")
    x = np.random.default_rng(2).normal(size=(1, 2, 4))
    packing = pack(np.ones((1, 2)))
    got = multi_head_attention(Tensor(x[0]), packing, lp, 2)

    q, k, v = project(x[0], lp)
    ctx = np.zeros((2, 4))
    for head in range(2):
        sl = slice(head * 2, head * 2 + 2)
        s = (q[:, sl] @ k[:, sl].T) / np.sqrt(2.0)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        ctx[:, sl] = w @ v[:, sl]
    core = attention_core(Tensor(x[0]), core_layer(lp), packing, 2)
    assert np.allclose(core.data, ctx, atol=1e-12)
    proj = ctx @ lp["attn.wo"].data + lp["attn.bo"].data
    pre = x[0] + proj
    mu = pre.mean(axis=1, keepdims=True)
    var = ((pre - mu) ** 2).mean(axis=1, keepdims=True)
    expected = lp["ln1.gamma"].data * (pre - mu) / np.sqrt(var + 1e-5) + lp["ln1.beta"].data
    assert np.allclose(got.data, expected, atol=1e-10)


def test_attention_shape_errors():
    cfg = toy_config()
    params = init_params(cfg, Rng(0))
    h = Tensor(np.zeros((3, cfg.hidden_dim)))
    with pytest.raises(ag.ShapeMismatchError, match="mask"):
        multi_head_attention(h, pack(np.ones((1, 4))), params.scope("layers.0."), cfg.num_heads)
    with pytest.raises(ag.ShapeMismatchError, match="heads"):
        multi_head_attention(h, pack(np.ones((1, 3))), params.scope("layers.0."), 3)


# -- encode ------------------------------------------------------------------------

def test_encode_eval_deterministic():
    cfg = toy_config()
    params = init_params(cfg, Rng(8))
    ids, mask = batch(cfg)
    r1 = encode(ids, mask, params, cfg, sequence=True)
    r2 = encode(ids, mask, params, cfg, sequence=True)
    assert isinstance(r1, EncodeResult)
    assert np.array_equal(r1.pooled.data, r2.pooled.data)
    assert np.array_equal(r1.sequence.data, r2.sequence.data)
    assert r1.pooled.shape == (ids.shape[0], cfg.hidden_dim)


def test_encode_train_stochastic():
    cfg = toy_config(dropout=DropoutPolicy(kind="standard", p=0.2))
    params = init_params(cfg, Rng(8))
    ids, mask = batch(cfg)
    rng = Rng(1)
    a = encode(ids, mask, params, cfg, mode="train", rng=rng)
    b = encode(ids, mask, params, cfg, mode="train", rng=rng)
    assert not np.array_equal(a.pooled.data, b.pooled.data)


def test_encode_mode_validation():
    cfg = toy_config()
    params = init_params(cfg, Rng(0))
    ids, mask = batch(cfg)
    with pytest.raises(ValueError, match="mode"):
        encode(ids, mask, params, cfg, mode="test")


def test_encode_typed_errors():
    cfg = toy_config()
    params = init_params(cfg, Rng(0))
    ids, mask = batch(cfg)
    with pytest.raises(ag.ShapeMismatchError, match="mask shape"):
        encode(ids, mask[:, :-1], params, cfg)
    with pytest.raises(ag.ShapeMismatchError, match="mask"):
        encode(ids, mask[0], params, cfg)
    with pytest.raises(ag.ShapeMismatchError, match="mask"):
        encode(ids[:, :0], mask[:, :0], params, cfg)
    with pytest.raises(ag.ShapeMismatchError, match="token ids"):
        encode(ids[0], mask, params, cfg)
    with pytest.raises(ValueError, match="out of range"):
        encode(ids + cfg.vocab_size, mask, params, cfg)
    long_mask = np.ones((1, cfg.max_seq_len + 1))
    with pytest.raises(ValueError, match="max_seq_len"):
        encode(np.ones_like(long_mask, dtype=int), long_mask, params, cfg)


def test_encode_batch_permutation_invariance():
    cfg = toy_config()
    params = init_params(cfg, Rng(9))
    ids, mask = batch(cfg, b=4)
    perm = np.array([2, 0, 3, 1])
    r = encode(ids, mask, params, cfg)
    rp = encode(ids[perm], mask[perm], params, cfg)
    assert np.allclose(r.pooled.data[perm], rp.pooled.data, atol=1e-12)


@pytest.mark.parametrize("pooling", ["cls_tanh", "mean"])
def test_encode_pad_token_id_invariance(pooling):
    cfg = toy_config(pooling=pooling)
    params = init_params(cfg, Rng(10))
    ids = np.array([[1, 5, 6, 2, 0, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    r1 = encode(ids, mask, params, cfg, sequence=True)
    ids2 = ids.copy()
    ids2[0, 4:] = 9   # different junk under the mask
    r2 = encode(ids2, mask, params, cfg, sequence=True)
    assert np.max(np.abs(r1.pooled.data - r2.pooled.data)) < 1e-10
    real = mask[0].astype(bool)
    assert np.max(np.abs(r1.sequence.data[0, real] - r2.sequence.data[0, real])) < 1e-10


def test_encode_mean_pooling_formula():
    cfg = toy_config(pooling="mean")
    params = init_params(cfg, Rng(11))
    ids = np.array([[1, 5, 2, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0]])
    r = encode(ids, mask, params, cfg, sequence=True)
    manual = r.sequence.data[0, :3].mean(axis=0)
    assert np.allclose(r.pooled.data[0], manual, atol=1e-12)


def test_mean_pooling_rejects_an_all_zero_mask_row():
    ids = np.array([[1, 5, 6, 2], [1, 7, 2, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    cfg = toy_config(pooling="mean")
    with pytest.raises(EmptySequenceError, match="row 1"):
        encode(ids, mask, init_params(cfg, Rng(11)), cfg)
    cfg = toy_config()
    pooled = encode(ids, mask, init_params(cfg, Rng(11)), cfg).pooled.data
    assert np.isfinite(pooled).all()


def test_encode_cls_pooling_formula():
    cfg = toy_config()
    params = init_params(cfg, Rng(12))
    ids, mask = batch(cfg, b=2)
    r = encode(ids, mask, params, cfg, sequence=True)
    manual = np.tanh(r.sequence.data[:, 0, :] @ params["pooler.weight"].data
                     + params["pooler.bias"].data)
    assert np.allclose(r.pooled.data, manual, atol=1e-12)


def test_encoder_end_to_end_gradient_check():
    # finite differences over every parameter of a 2-layer toy encoder
    cfg = EncoderConfig(vocab_size=9, hidden_dim=4, num_layers=2, num_heads=2,
                        ffn_dim=8, max_seq_len=6,
                        dropout=DropoutPolicy(kind="standard", p=0.0))
    params = init_params(cfg, Rng(13))
    ids = np.array([[1, 4, 5, 2], [1, 6, 2, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
    probe = np.random.default_rng(3).normal(size=(2, 4))

    def loss_value():
        r = encode(ids, mask, params, cfg)
        return (r.pooled * Tensor(probe)).sum()

    loss = loss_value()
    loss.backward()

    h = 1e-5
    worst = 0.0
    for name, p in params.named_parameters():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value().item()
            flat[i] = keep - h
            down = loss_value().item()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            err = abs(gflat[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    assert worst < 1e-3


def test_encode_gradient_flows_to_all_encoder_params():
    cfg = toy_config(dropout=DropoutPolicy(kind="standard", p=0.0))
    params = init_params(cfg, Rng(14))
    ids, mask = batch(cfg, b=2, t=4)
    (encode(ids, mask, params, cfg).pooled ** 2.0).sum().backward()
    head_names = {n for n, _ in params.named_parameters() if n.startswith(("heads", "adaptive"))}
    for name, p in params.named_parameters():
        if name in head_names:
            assert p.grad is None   # heads not touched by a bare encode
        else:
            assert p.grad is not None, name


# -- packed rows ---------------------------------------------------------------------

def ragged(config, lengths, t, seed=0):
    """ids/mask of sentences with the given lengths, padded to t slots."""
    rng = np.random.default_rng(seed)
    ids = np.zeros((len(lengths), t), dtype=np.int64)
    mask = np.zeros((len(lengths), t))
    for i, n in enumerate(lengths):
        ids[i, :n] = rng.integers(4, config.vocab_size, size=n)
        ids[i, 0] = 1
        mask[i, :n] = 1.0
    return ids, mask


def worst_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(a))


@pytest.mark.parametrize("pooling", ["cls_tanh", "mean"])
def test_ragged_batch_matches_each_sentence_alone_and_longer_padding(pooling):
    cfg = toy_config(pooling=pooling)
    params = init_params(cfg, Rng(15))
    lengths = (5, 2, 4)
    ids, mask = ragged(cfg, lengths, 5)
    pooled = encode(ids, mask, params, cfg).pooled.data
    alone = np.concatenate([encode(ids[i:i + 1, :n], mask[i:i + 1, :n],
                                   params, cfg).pooled.data
                            for i, n in enumerate(lengths)])
    long_ids = np.pad(ids, ((0, 0), (0, 4)))
    longer = encode(long_ids, np.pad(mask, ((0, 0), (0, 4))), params, cfg).pooled.data
    assert worst_rel(pooled, alone) < 1e-12
    assert worst_rel(pooled, longer) < 1e-12


def test_extra_padding_changes_no_gradient():
    cfg = toy_config(pooling="cls_tanh")
    probe = np.random.default_rng(4).normal(size=(3, cfg.hidden_dim))
    grads = []
    for t in (5, 9):
        params = init_params(cfg, Rng(16))
        ids, mask = ragged(cfg, (5, 2, 4), t)
        r = encode(ids, mask, params, cfg, mode="train", rng=Rng(1))
        (r.pooled * Tensor(probe)).sum().backward()
        grads.append({n: p.grad for n, p in params.named_parameters()
                      if p.grad is not None})
    assert grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        if name.endswith("attn.bk"):
            # a key bias shifts every score of a query equally: exact gradient 0
            assert np.max(np.abs(g - grads[1][name])) < 1e-12, name
        else:
            assert worst_rel(g, grads[1][name]) < 1e-12, name


def test_ragged_mean_pooling_gradient_check():
    cfg = EncoderConfig(vocab_size=9, hidden_dim=4, num_layers=2, num_heads=2,
                        ffn_dim=8, max_seq_len=6, pooling="mean",
                        dropout=DropoutPolicy(kind="standard", p=0.0))
    params = init_params(cfg, Rng(17))
    ids, mask = ragged(cfg, (5, 2, 3), 5, seed=1)
    probe = np.random.default_rng(5).normal(size=(3, 4))

    def loss_value():
        return (encode(ids, mask, params, cfg).pooled * Tensor(probe)).sum()

    loss_value().backward()
    h = 1e-5
    worst = 0.0
    for name, p in params.named_parameters():
        if name.startswith(("heads", "adaptive", "pooler")):
            assert p.grad is None, name
            continue
        flat, gflat = p.data.reshape(-1), p.grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value().item()
            flat[i] = keep - h
            down = loss_value().item()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_cls_row_masked_at_position_zero_still_pooled():
    cfg = toy_config()
    params = init_params(cfg, Rng(18))
    ids, mask = ragged(cfg, (4, 3), 5, seed=2)
    mask[1, 0] = 0.0     # row 1's [CLS] is not a key, but CLS pooling reads it
    r = encode(ids, mask, params, cfg, sequence=True)
    first = r.sequence.data[1, 0]
    assert np.all(np.isfinite(first)) and np.any(first != 0.0)
    manual = np.tanh(first @ params["pooler.weight"].data + params["pooler.bias"].data)
    assert np.allclose(r.pooled.data[1], manual, atol=1e-12)
    alone = encode(ids[1:, :3], mask[1:, :3], params, cfg).pooled.data
    assert worst_rel(alone[0], r.pooled.data[1]) < 1e-12


def test_mean_pooling_skips_a_masked_position_zero():
    cfg = toy_config(pooling="mean")
    params = init_params(cfg, Rng(18))
    ids, mask = ragged(cfg, (4, 3), 5, seed=2)
    mask[1, 0] = 0.0
    r = encode(ids, mask, params, cfg, sequence=True)
    assert np.allclose(r.pooled.data[1], r.sequence.data[1, 1:3].mean(axis=0), atol=1e-12)


def test_sequence_is_zero_at_padded_slots():
    cfg = toy_config()
    params = init_params(cfg, Rng(19))
    ids, mask = ragged(cfg, (5, 2, 4), 6)
    seq = encode(ids, mask, params, cfg, sequence=True).sequence.data
    assert seq.shape == (3, 6, cfg.hidden_dim)
    assert np.all(seq[mask == 0.0] == 0.0)
    assert np.all(np.any(seq[mask == 1.0] != 0.0, axis=-1))


# -- attention buckets -----------------------------------------------------------------

def plan_cost(packing):
    return sum(len(b.seqs) * b.length ** 2 + _BUCKET_COST for b in packing.buckets)


def random_mask(rng, b, t):
    """Ragged 0/1 rows, some with a masked position 0 or an interior hole."""
    mask = (np.arange(t)[None, :] < rng.integers(0, t + 1, size=(b, 1))).astype(float)
    holes = rng.random((b, t)) < 0.1
    mask[holes] = 0.0
    return mask


def brute_force_cost(extents):
    """The least sum(n_g * T_g^2) + C * G over every split of the extents,
    sorted, into contiguous groups."""
    ext = sorted(extents)
    best = None
    for cuts in range(2 ** (len(ext) - 1)):
        cost, start = 0, 0
        for i in range(len(ext)):
            if i == len(ext) - 1 or cuts >> i & 1:
                cost += (i + 1 - start) * ext[i] ** 2 + _BUCKET_COST
                start = i + 1
        best = cost if best is None else min(best, cost)
    return best


def filled_slots(bucket, rows):
    """[n * T_g] True at the slots of a bucket's block that hold a packed
    row. Checks that index and empty agree: index holds the scratch row
    ``rows`` (N) exactly at the slots listed in empty."""
    filled = np.ones(len(bucket.seqs) * bucket.length, dtype=bool)
    if bucket.empty is not None:
        filled[bucket.empty] = False
    if bucket.index is not None:
        assert len(bucket.index) == len(filled)
        assert np.array_equal(bucket.index == rows, ~filled)
    return filled


def test_bucket_plan_is_a_pure_function_of_the_mask():
    mask = random_mask(np.random.default_rng(0), 12, 40)
    before = mask.copy()
    a, b = pack(mask), pack(mask.copy())
    assert np.array_equal(mask, before)
    assert len(a.buckets) == len(b.buckets)
    for x, y in zip(a.buckets, b.buckets):
        assert np.array_equal(x.seqs, y.seqs) and x.length == y.length
        assert np.array_equal(x.index, y.index) and np.array_equal(x.bias, y.bias)
        assert np.array_equal(x.empty, y.empty)


@pytest.mark.parametrize("seed", range(8))
def test_bucket_plan_is_the_optimal_contiguous_split(seed):
    rng = np.random.default_rng(seed)
    b, t = int(rng.integers(1, 8)), int(rng.integers(1, 60))
    mask = random_mask(rng, b, t)
    packing = pack(mask)
    keep = mask != 0
    keep[:, 0] = True
    extents = [int(np.flatnonzero(row).max()) + 1 for row in keep]
    assert plan_cost(packing) == brute_force_cost(extents)
    # every sequence in exactly one bucket, every packed row placed once
    assert sorted(np.concatenate([bk.seqs for bk in packing.buckets])) == list(range(b))
    for bk in packing.buckets:
        assert bk.length == max(extents[s] for s in bk.seqs)
    placed = [np.arange(packing.rows) if bk.index is None
              else bk.index[filled_slots(bk, packing.rows)] for bk in packing.buckets]
    assert sorted(np.concatenate(placed)) == list(range(packing.rows))
    for bk in packing.buckets:          # slot (s, t) holds sequence seqs[s]'s position t
        if bk.index is not None:
            slot = np.flatnonzero(filled_slots(bk, packing.rows))
            held = bk.index[slot]
            assert np.array_equal(packing.seqs[held], bk.seqs[slot // bk.length])
            assert np.array_equal(packing.positions[held], slot % bk.length)
    assert sum(len(bk.seqs) * bk.length ** 2 for bk in packing.buckets) <= b * t * t


def test_unpadded_batch_is_one_bucket_without_a_row_copy():
    packing = pack(np.ones((3, 7)))
    (bucket,) = packing.buckets
    assert np.array_equal(bucket.seqs, np.arange(3)) and bucket.length == 7
    assert bucket.index is None and bucket.empty is None and bucket.bias is None
    x = np.random.default_rng(0).normal(size=(21, 8))
    heads = _to_heads(x, bucket, 2)
    assert heads.shape == (3, 2, 7, 4) and np.shares_memory(heads, x)
    assert np.array_equal(heads[1, 1, 2], x[7 + 2, 4:])    # sequence 1, position 2, head 1
    back = _to_rows([heads], packing)
    assert np.array_equal(back, x) and np.shares_memory(back, x)


def test_to_heads_and_to_rows_are_inverse_placements():
    mask = np.zeros((5, 60))
    for i, n in enumerate((60, 2, 50, 1, 2)):
        mask[i, :n] = 1.0
    mask[3, 0] = 0.0                    # an all-zero mask row keeps its position 0
    mask[0, 4] = 0.0                    # an interior hole is not a packed row
    for m, buckets in ((mask, 2), (mask[[0, 2]], 1), (np.ones((2, 4)), 1)):
        packing = pack(m)
        assert len(packing.buckets) == buckets
        # every packed row, and the [CLS] query rows of Packing.cls (query
        # row b is sequence b, at query length 1)
        for placing in (packing, packing.cls()):
            x = np.random.default_rng(1).normal(size=(placing.rows, 6))
            blocks = [_to_heads(x, bk, 3) for bk in placing.buckets]
            for bk, block in zip(placing.buckets, blocks):
                assert block.shape == (len(bk.seqs), 3, bk.length, 2)
                slots = block.transpose(0, 2, 1, 3).reshape(-1, 6)
                assert np.all(slots[~filled_slots(bk, placing.rows)] == 0.0)
            if placing is not packing:
                for bk, block in zip(placing.buckets, blocks):
                    assert np.array_equal(block[:, :, 0].reshape(-1, 6), x[bk.seqs])
            assert np.array_equal(_to_rows(blocks, placing), x)
    packing = pack(mask)
    assert len(packing.buckets) == 2
    # sequence 0 sits in the long bucket; its position 5 is packed row 4 (the
    # hole at 4 is skipped), and head 1 holds that row's columns 2:4
    (long,) = [bk for bk in packing.buckets if 0 in bk.seqs]
    block = _to_heads(np.arange(packing.rows * 6.0).reshape(-1, 6), long, 3)
    assert np.array_equal(block[0, 1, 5], [26.0, 27.0])


def three_bucket_batch(config, seed=0):
    """Four short, three middling and one long sentence: three buckets."""
    ids, mask = ragged(config, (3, 2, 3, 60, 25, 3, 25, 24), 62, seed=seed)
    assert len(pack(mask).buckets) >= 3
    return ids, mask


@pytest.mark.parametrize("pooling", ["cls_tanh", "mean"])
def test_bucketed_attention_matches_each_sentence_alone(pooling):
    cfg = toy_config(pooling=pooling, max_seq_len=64)
    params = init_params(cfg, Rng(20))
    ids, mask = three_bucket_batch(cfg)
    pooled = encode(ids, mask, params, cfg).pooled.data
    lengths = mask.sum(axis=1).astype(int)
    alone = np.concatenate([encode(ids[i:i + 1, :n], mask[i:i + 1, :n],
                                   params, cfg).pooled.data
                            for i, n in enumerate(lengths)])
    assert worst_rel(pooled, alone) < 1e-12


@pytest.mark.parametrize("pooling", ["cls_tanh", "mean"])
def test_bucketed_attention_gradient_check(pooling):
    cfg = EncoderConfig(vocab_size=9, hidden_dim=4, num_layers=2, num_heads=2,
                        ffn_dim=8, max_seq_len=64, pooling=pooling,
                        dropout=DropoutPolicy(kind="standard", p=0.0))
    params = init_params(cfg, Rng(21))
    ids, mask = three_bucket_batch(cfg, seed=3)
    probe = np.random.default_rng(6).normal(size=(len(ids), 4))

    def loss_value():
        return (encode(ids, mask, params, cfg).pooled * Tensor(probe)).sum()

    loss_value().backward()
    h = 1e-5
    worst = 0.0
    for name in [f"layers.{i}.attn.{w}" for i in range(2) for w in ("wq", "wk", "wv")]:
        p = params[name]
        flat, gflat = p.data.reshape(-1), p.grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value().item()
            flat[i] = keep - h
            down = loss_value().item()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_all_zero_mask_row_attends_over_its_bucket():
    # Its one packed row (position 0) has no unmasked key, so the -1e9
    # offsets cancel and it attends over every slot of its bucket: its own
    # key, and a zero key (score 0) at each slot it does not fill. Its
    # output stays finite but depends on the bucket it joins, as it
    # depended on the batch's T when every sequence ran at T.
    cfg = toy_config(max_seq_len=64)
    lp = init_params(cfg, Rng(23)).scope("layers.0.")
    ids, mask = three_bucket_batch(cfg)
    mask[0] = 0.0
    packing = pack(mask)
    (bucket,) = [bk for bk in packing.buckets if 0 in bk.seqs]
    assert bucket.length > 1
    r = encode(ids, mask, init_params(cfg, Rng(23)), cfg, sequence=True)
    assert np.all(np.isfinite(r.sequence.data)) and np.all(np.isfinite(r.pooled.data))
    h = np.random.default_rng(8).normal(size=(packing.rows, cfg.hidden_dim))
    q, k, v = project(h, lp)
    ctx = attention_core(Tensor(h), core_layer(lp), packing, cfg.num_heads)
    hd = cfg.hidden_dim // cfg.num_heads
    for head in range(cfg.num_heads):                   # row 0: sequence 0
        sl = slice(head * hd, (head + 1) * hd)
        scores = np.zeros(bucket.length)
        scores[0] = q[0, sl] @ k[0, sl] / np.sqrt(hd)
        expected = np.exp(scores) / np.exp(scores).sum()
        # the slots row 0 does not fill hold zero values, so its context is
        # its own value row at its own key's weight
        assert np.allclose(ctx.data[0, sl], expected[0] * v[0, sl], rtol=0,
                           atol=1e-6 * np.abs(v[0, sl]).max())


# -- the attention core node --------------------------------------------------------

def dense_attention(q, k, v, mask, num_heads):
    """Plain-numpy masked attention of packed q/k/v rows, run on the padded
    [B, H, T, T] layout: the context at the packed rows, and the weights."""
    packing = pack(mask)
    b, t = mask.shape
    hd = q.shape[1] // num_heads

    def padded(rows):
        out = np.zeros((b, t, q.shape[1]))
        out[packing.seqs, packing.positions] = rows
        return out.reshape(b, t, num_heads, hd).transpose(0, 2, 1, 3)

    scores = padded(q) @ padded(k).transpose(0, 1, 3, 2) / np.sqrt(hd)
    scores = scores + (mask[:, None, None, :] - 1.0) * 1e9
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    ctx = (weights @ padded(v)).transpose(0, 2, 1, 3).reshape(b, t, -1)
    return ctx[packing.seqs, packing.positions], weights


def test_attention_core_matches_a_dense_padded_oracle():
    cfg = toy_config(max_seq_len=64)
    _, mask = three_bucket_batch(cfg)
    mask[4, 10] = 0.0                   # an interior hole
    packing = pack(mask)
    assert len(packing.buckets) >= 3
    h = np.random.default_rng(9).normal(size=(packing.rows, cfg.hidden_dim))
    lp = random_layer(cfg.hidden_dim, seed=9)
    ctx = attention_core(Tensor(h), core_layer(lp), packing, cfg.num_heads)
    want_ctx, _ = dense_attention(*project(h, lp), mask, cfg.num_heads)
    assert np.max(np.abs(ctx.data - want_ctx)) < 1e-12
    out = attention_core(Tensor(h), lp, packing, cfg.num_heads)
    want = want_ctx @ lp["attn.wo"].data + lp["attn.bo"].data
    assert np.max(np.abs(out.data - want)) < 1e-12


def gradient_batch():
    """A tiny padded batch in three buckets, with an interior hole and an
    all-zero mask row (one packed row), and a probe that leaves that row's
    output out of the loss: its scores sit on -1e9 offsets, where float64
    resolves steps of about 1e-7, too coarse for central differences."""
    cfg = toy_config(hidden_dim=4, max_seq_len=64)
    _, mask = three_bucket_batch(cfg, seed=1)
    mask[4, 10] = 0.0                   # an interior hole
    mask[0] = 0.0                       # an all-zero mask row: one packed row
    packing = pack(mask)
    assert len(packing.buckets) >= 3
    rng = np.random.default_rng(10)
    hidden = Tensor(rng.normal(size=(packing.rows, 4)), requires_grad=True)
    probe = rng.normal(size=(packing.rows, 4)) * (packing.seqs != 0)[:, None]
    return packing, hidden, probe


def test_attention_core_gradient_check():
    packing, hidden, probe = gradient_batch()
    lp = random_layer(4, seed=11)
    check_grad(lambda x: (attention_core(x, lp, packing, 2) * Tensor(probe)).sum(),
               hidden, tol=1e-7)
    # the all-zero row reaches only its own, unprobed output
    assert np.all(hidden.grad[0] == 0.0)


@pytest.mark.parametrize("cls", [False, True])
@pytest.mark.parametrize("name", ATTENTION_WEIGHTS)
def test_attention_core_weight_gradient_check(name, cls):
    packing, hidden, probe = gradient_batch()
    query = packing.cls() if cls else None
    if cls:
        probe = probe[query.picked]
    lp = random_layer(4, seed=12)

    def loss(w):
        return (attention_core(hidden, dict(lp, **{f"attn.{name}": w}), packing, 2, query)
                * Tensor(probe)).sum()

    check_grad(loss, lp[f"attn.{name}"], tol=1e-7)


def test_one_attention_node_per_layer_and_encode(monkeypatch):
    sentences = ["a", "the dog ran home", "a cat sat", "birds sing",
                 " ".join(["word"] * 30), "the river is cold today and tomorrow"]
    vocab = Vocab.build(sentences)
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=3, num_heads=2,
                        ffn_dim=16, max_seq_len=40,
                        dropout=DropoutPolicy(kind="standard", p=0.1))
    pool = [tokenize(s, vocab, cfg.max_seq_len) for s in sentences]
    assert len(pack(pad_batch(pool)[1]).buckets) >= 2

    def attention_nodes(loss):
        seen, stack, n = set(), [loss], 0
        while stack:
            t = stack.pop()
            if id(t) in seen or t.node is None:
                continue
            seen.add(id(t))
            n += t.node.op == "attention"
            stack.extend(p for p in t.node.parents if p.requires_grad)
        return n

    counts = []
    backward = ag.Tensor.backward

    def counted(loss):
        counts.append(attention_nodes(loss))
        return backward(loss)

    monkeypatch.setattr(ag.Tensor, "backward", counted)
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=len(pool), lr=1e-3)
    training.train_unsup_simcse(tc, cfg, vocab, pool, init_params(cfg, Rng(0)))
    assert counts == [cfg.num_layers]       # one encode of both views per step
