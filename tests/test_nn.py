"""Unit-level finite-difference checks for each autodiff op."""

import numpy as np
import pytest

from gere import nn


def fd_check(build_loss, params, eps=1e-6, tol=1e-6, rng=None):
    """Compare analytic grads of every parameter entry against central FD."""
    loss = build_loss()
    nn.zero_grads(params)
    nn.backward(loss)
    rng = rng or np.random.default_rng(0)
    for name, p in params.items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert grad.shape == p.data.shape, name
        for _ in range(min(6, p.data.size)):
            i = int(rng.integers(p.data.size))
            orig = p.data.flat[i]
            p.data.flat[i] = orig + eps
            up = float(build_loss().data)
            p.data.flat[i] = orig - eps
            down = float(build_loss().data)
            p.data.flat[i] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - grad.flat[i]) <= tol * max(abs(fd), abs(grad.flat[i]), 1.0), (
                f"{name}[{i}]: analytic {grad.flat[i]} vs fd {fd}")


def param(rng, *shape):
    return nn.Tensor(rng.standard_normal(shape), requires_grad=True)


def scalarize(t):
    # Deterministic scalar reduction with nontrivial weights.
    w = nn.constant(np.cos(np.arange(t.data.size)).reshape(t.data.shape))
    return nn.cross_entropy(nn.reshape(nn.mul(t, w), (1, -1)), np.array([0]))


def test_add_broadcast(rng):
    a, b = param(rng, 2, 3, 4), param(rng, 4)
    fd_check(lambda: scalarize(nn.add(a, b)), {"a": a, "b": b})


def test_mul_broadcast(rng):
    a, b = param(rng, 2, 4), param(rng, 2, 1)
    fd_check(lambda: scalarize(nn.mul(a, b)), {"a": a, "b": b})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mul_by_python_scalar_keeps_dtype(dtype):
    """A Python scalar multiplies in the tensor's dtype, as numpy's weak
    scalars do: float32 stays float32, float64 keeps every bit."""
    x = nn.Tensor(np.linspace(-1.0, 1.0, 6, dtype=dtype).reshape(2, 3), requires_grad=True)
    scale = float(1.0 / np.sqrt(3.0))
    y = nn.mul(x, scale)
    assert y.data.dtype == dtype and np.array_equal(y.data, x.data * scale)
    nn.backward(nn.cross_entropy(y, np.array([0, 2])))
    assert x.grad.dtype == dtype


def test_matmul_batched(rng):
    a, b = param(rng, 2, 3, 4), param(rng, 2, 4, 3)
    fd_check(lambda: scalarize(nn.matmul(a, b)), {"a": a, "b": b})


def test_linear(rng):
    x, w, b = param(rng, 2, 3, 4), param(rng, 4, 5), param(rng, 5)
    fd_check(lambda: scalarize(nn.linear(x, w, b)), {"x": x, "w": w, "b": b})


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("masked", [False, True])
def test_attention(rng, masked, rate):
    q, k, v = param(rng, 2, 3, 4), param(rng, 2, 5, 4), param(rng, 2, 5, 4)
    mask = None
    if masked:
        valid = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
        mask = np.where(valid, 0.0, -1e9)[:, None, None, :]
    fd_check(lambda: scalarize(nn.attention(q, k, v, 2, 0.7, mask, rate,
                                            np.random.default_rng(4))),
             {"q": q, "k": k, "v": v})


def test_gelu(rng):
    x = param(rng, 3, 5)
    fd_check(lambda: scalarize(nn.gelu(x)), {"x": x})


def test_reshape_transpose(rng):
    x = param(rng, 2, 3, 4)
    fd_check(lambda: scalarize(nn.transpose(nn.reshape(x, (2, 4, 3)), (1, 0, 2))), {"x": x})


def test_gather_with_repeats(rng):
    table = param(rng, 6, 4)
    idx = np.array([[0, 2, 2], [5, 0, 1]])
    fd_check(lambda: scalarize(nn.gather(table, idx)), {"t": table})


def test_layer_norm(rng):
    x, g, b = param(rng, 3, 8), param(rng, 8), param(rng, 8)
    fd_check(lambda: scalarize(nn.layer_norm(x, g, b)), {"x": x, "g": g, "b": b})


def _layer_norm_by_mean(x, gain, bias, g, eps=1e-5):
    """Layer norm and its input gradient for upstream `g`, with `.mean(-1)`."""
    xc = x - x.mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + eps)
    xhat = xc * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(-1, keepdims=True))
    return xhat * gain + bias, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 1, 64), (1, 12, 64), (37, 64), (4, 20, 64), (3, 7, 256),
                                   (9, 48)])
def test_layer_norm_reductions_equal_mean_bit_for_bit(dtype, shape, rng):
    x, g = (rng.standard_normal(shape).astype(dtype) * 3 + 1 for _ in range(2))
    gain, bias = (rng.standard_normal(shape[-1:]).astype(dtype) for _ in range(2))
    expected_out, expected_dx = _layer_norm_by_mean(x, gain, bias, g)
    xt = nn.Tensor(x, requires_grad=True)
    out = nn.layer_norm(xt, nn.Tensor(gain), nn.Tensor(bias))
    out._backward(g)
    assert out.data.dtype == xt.grad.dtype == dtype
    assert np.array_equal(out.data, expected_out)
    assert np.array_equal(xt.grad, expected_dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_softmax_equals_max_sum_formula_bit_for_bit(dtype, rng):
    """`log_softmax` reduces with the ufuncs behind `.max` and `.sum`, so the
    cross-entropy heads keep the bits of the formula written with those."""
    logits = (rng.standard_normal((6, 1245)) * 30.0).astype(dtype)
    z = logits - logits.max(axis=-1, keepdims=True)
    expected = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    got = nn.log_softmax(logits)
    assert got.dtype == dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_softmax64_rows_equal_single_rows_bit_for_bit(dtype, rng):
    """The beam scores all alive rows with one call; each row must get the
    bits of the one-row formula it replaced."""
    for shape in ((1, 7), (5, 1245), (3, 2)):
        logits = (rng.standard_normal(shape) * 30.0).astype(dtype)
        rows = nn.log_softmax64(logits)
        assert rows.dtype == np.float64
        for row, single in zip(rows, logits):
            x = single.astype(np.float64)
            x = x - x.max()
            assert np.array_equal(row, x - np.log(np.exp(x).sum()))
            assert np.array_equal(row, nn.log_softmax64(single))


def test_softmax_last(rng):
    x = param(rng, 2, 3, 5)
    fd_check(lambda: scalarize(nn.softmax_last(x)), {"x": x})


def test_masked_mean(rng):
    x = param(rng, 3, 4, 5)
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 0, 0]], dtype=np.float64)
    fd_check(lambda: scalarize(nn.masked_mean(x, mask)), {"x": x})


def test_assemble_candidates(rng):
    pooled, eoe = param(rng, 5, 4), param(rng, 4)
    batch_idx = np.array([0, 0, 0, 1, 1])
    slot_idx = np.array([1, 2, 3, 1, 2])
    fd_check(lambda: scalarize(nn.assemble_candidates(pooled, eoe, batch_idx, slot_idx, 2, 4)),
             {"pooled": pooled, "eoe": eoe})


def test_assemble_inputs(rng):
    pooled, start = param(rng, 5, 4), param(rng, 4)
    idx_map = np.array([[-1, 0, 1], [-1, 4, -2]])
    fd_check(lambda: scalarize(nn.assemble_inputs(pooled, start, idx_map)),
             {"pooled": pooled, "start": start})


def test_cross_entropy_values_and_grad(rng):
    logits = param(rng, 4, 7)
    targets = np.array([1, 0, 6, 3])
    fd_check(lambda: nn.cross_entropy(logits, targets, 0.0), {"l": logits})
    fd_check(lambda: nn.cross_entropy(logits, targets, 0.1), {"l": logits})


def test_cross_entropy_uniform_is_log_k():
    logits = nn.Tensor(np.zeros((3, 11)))
    for smoothing in (0.0, 0.1, 0.5):
        loss = nn.cross_entropy(logits, np.array([0, 5, 10]), smoothing)
        assert abs(float(loss.data) - np.log(11)) < 1e-12


def test_cross_entropy_perfect_model_zero_loss():
    logits = np.full((2, 5), -1000.0)
    logits[0, 2] = 1000.0
    logits[1, 0] = 1000.0
    loss = nn.cross_entropy(nn.Tensor(logits), np.array([2, 0]), 0.0)
    assert float(loss.data) <= 1e-20


def test_cross_entropy_hand_computed_smoothed_case():
    # Two rows, V=4, smoothing 0.1: q_gold = 0.925, q_other = 0.025.
    logits = np.array([[2.0, 0.0, -1.0, 0.5], [0.0, 0.0, 3.0, 0.0]])
    targets = np.array([0, 2])
    eps = 0.1
    expected = 0.0
    for row, tgt in zip(logits, targets):
        logp = row - np.log(np.exp(row).sum())
        q = np.full(4, eps / 4)
        q[tgt] += 1 - eps
        expected += -(q * logp).sum()
    expected /= 2
    loss = nn.cross_entropy(nn.Tensor(logits), targets, eps)
    assert abs(float(loss.data) - expected) < 1e-12


def test_dropout_identity_at_zero_and_masks_otherwise(rng):
    x = nn.Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    assert nn.dropout(x, 0.0, rng) is x
    y = nn.dropout(x, 0.5, np.random.default_rng(3))
    kept = y.data != 0
    assert 0 < kept.sum() < y.data.size
    np.testing.assert_allclose(y.data[kept], x.data[kept] * 2.0)


def test_backward_requires_scalar(rng):
    x = param(rng, 2, 2)
    with pytest.raises(ValueError):
        nn.backward(nn.mul(x, 2.0))


def test_adam_state_round_trip(rng):
    p = param(rng, 3)
    opt = nn.Adam({"p": p})
    p.grad = np.ones(3)
    opt.step(1e-2)
    state = opt.state_dict()
    p2 = nn.Tensor(p.data.copy(), requires_grad=True)
    opt2 = nn.Adam({"p": p2})
    opt2.load_state_dict(state)
    p.grad = np.full(3, 0.5)
    p2.grad = np.full(3, 0.5)
    opt.step(1e-2)
    opt2.step(1e-2)
    np.testing.assert_array_equal(p.data, p2.data)


def test_clip_gradients(rng):
    p = param(rng, 4)
    p.grad = np.array([3.0, 4.0, 0.0, 0.0])
    norm = nn.clip_gradients({"p": p}, 1.0)
    assert abs(norm - 5.0) < 1e-12
    np.testing.assert_allclose(np.sqrt((p.grad ** 2).sum()), 1.0, rtol=1e-12)
    p.grad = np.array([0.3, 0.4, 0.0, 0.0])
    norm = nn.clip_gradients({"p": p}, 1.0)
    assert abs(norm - 0.5) < 1e-12
    np.testing.assert_allclose(p.grad, [0.3, 0.4, 0.0, 0.0])


def _gelu_grad_by_expression(x, t, g):
    """GELU's input gradient with fresh temporaries for `1.0 - t * t` and `1.0 + t`."""
    slope = x * x
    slope *= 3.0 * nn._GELU_A
    slope += 1.0
    slope *= nn._GELU_C
    slope *= 1.0 - t * t
    slope *= x
    slope += 1.0 + t
    slope *= 0.5
    return slope * g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_backward_bits(dtype, rng):
    x = (rng.standard_normal((64, 48)) * 3).astype(dtype)
    g = rng.standard_normal((64, 48)).astype(dtype)
    xt = nn.Tensor(x, requires_grad=True)
    out = nn.gelu(xt)
    out._backward(g)
    expected = _gelu_grad_by_expression(x, nn.gelu_forward(x)[1], g)
    assert xt.grad.dtype == expected.dtype == dtype
    assert xt.grad.tobytes() == expected.tobytes()


SCATTER_CASES = {
    "increasing": np.array([0, 2, 3, 7, 8, 11]),
    "arange": np.arange(12),
    "one row": np.array([5]),
    "unsorted": np.array([4, 1, 9, 0, 6]),
    "repeated": np.array([1, 3, 3, 3, 8, 8]),
    "negative, aliasing": np.array([-12, 0, 5]),
    "2-d with repeats": np.array([[0, 2, 2], [5, 0, 11]]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(SCATTER_CASES))
@pytest.mark.parametrize("start", ["none", "accumulated"])
def test_scatter_add_equals_add_at_bits(case, start, dtype, rng):
    idx = SCATTER_CASES[case]
    x = nn.Tensor(rng.standard_normal((12, 5)).astype(dtype), requires_grad=True)
    g = rng.standard_normal(idx.shape + (5,)).astype(dtype)
    expected = np.zeros_like(x.data)
    if start == "accumulated":
        x.grad = rng.standard_normal((12, 5)).astype(dtype)
        expected = x.grad.copy()
    np.add.at(expected, idx, g)
    nn._scatter_add(x, idx, g)
    assert x.grad.tobytes() == expected.tobytes()
