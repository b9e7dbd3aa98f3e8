"""Minimal reverse-mode autodiff over numpy arrays.

Exactly the operations the encoder-decoder stacks need: broadcasting add and
multiply, same-rank batched matmul, GELU, layer norm, softmax, embedding gather,
row concatenation and row-assembly helpers for the dynamic evidence
vocabulary and the cross-entropy heads, plus two block nodes the model is
built from: `linear` (`x @ w + b`) and `attention` (multi-head scaled
dot-product attention over projected q, k and v). A block node computes and
differentiates exactly what its chain of per-op nodes would, op for op and
in the same memory layouts, so its values and gradients are the same bits;
it only saves the intermediate `Tensor`s and closures.

Gradients accumulate in graph-construction order, so a fixed seed and fixed
data order give bit-identical results on one machine. A graph is single-use:
`backward` releases each interior node (its grad, closure and parents) once
that node's backward has run, so saved forward arrays are freed as the sweep
goes, and a second `backward` through a spent graph raises `ValueError`.
Leaves keep their grads. The graph is for training only: inference runs the
model's plain-numpy engine, which shares the forward math of GELU, layer
norm, softmax, attention and masked-mean pooling with the graph ops through
the plain-array functions (`gelu_forward`, `layer_norm_forward`,
`softmax_forward`, `attention_forward` and `masked_mean_forward`).
"""

from __future__ import annotations

import numpy as np

from .errors import finite_positive


class Tensor:
    """A value in the autodiff graph. `version` counts in-place writes to
    `.data`, as PyTorch's tensor version counter does: `Adam.step` bumps it
    on every parameter, and any other in-place write to a parameter must
    bump it too, so that results cached for the earlier values are dropped."""

    __slots__ = ("data", "grad", "requires_grad", "version", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.version = 0
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward


def _needs(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Accumulate into t.grad. `fresh` marks arrays this closure allocated and
    will never touch again, so the first accumulation may take ownership;
    pass-through views of a child's grad buffer must be copied instead."""
    if not _needs(t):
        return
    if t.grad is None:
        t.grad = g if fresh else np.array(g)
    else:
        t.grad += g


def _make(data, parents, backward) -> Tensor:
    if any(_needs(p) for p in parents):
        return Tensor(data, parents=parents, backward=backward)
    return Tensor(data)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss; grads accumulate into the leaves'
    .grad. The graph is spent as it goes: each interior node drops its grad,
    its closure and its parents once its backward has run, and a second
    backward through any of it raises ValueError."""
    if loss.data.ndim != 0:
        raise ValueError("backward() expects a scalar loss")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise ValueError("backward() through a graph that a backward has already spent")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            # Spent: only a child could still send it a grad, and every child
            # has run. Dropping the closure frees the arrays it saved.
            node.grad = node._backward = node._parents = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def constant(data) -> Tensor:
    return Tensor(np.asarray(data))


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def back(g):
        if _needs(a):
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga, fresh=ga is not g)
        if _needs(b):
            gb = _unbroadcast(g, b.data.shape)
            _accum(b, gb, fresh=gb is not g)

    return _make(out, (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b; a non-Tensor b becomes a constant of a's dtype, so a
    scalar never promotes a float32 graph to float64."""
    bt = b if isinstance(b, Tensor) else constant(np.asarray(b, dtype=a.data.dtype))
    out = a.data * bt.data

    def back(g):
        if _needs(a):
            _accum(a, _unbroadcast(g * bt.data, a.data.shape), fresh=True)
        if _needs(bt):
            _accum(bt, _unbroadcast(g * a.data, bt.data.shape), fresh=True)

    return _make(out, (a, bt), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Same-rank (batched) matmul; projections onto a weight matrix are `linear`."""
    if a.data.ndim != b.data.ndim:
        raise ValueError(f"unsupported matmul ranks {a.data.ndim} @ {b.data.ndim}")
    out = a.data @ b.data

    def back(g):
        if _needs(a):
            _accum(a, g @ b.data.swapaxes(-1, -2), fresh=True)
        if _needs(b):
            _accum(b, a.data.swapaxes(-1, -2) @ g, fresh=True)

    return _make(out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for x (..., k) and w (k, n) as one node: the leading axes
    collapse into one GEMM (numpy's stacked matmul would issue one tiny BLAS
    call per slice), and the bias is added in place."""
    k, n = w.data.shape
    x2d = x.data.reshape(-1, k)
    out = (x2d @ w.data).reshape(x.data.shape[:-1] + (n,))
    out += b.data

    def back(g):
        gf = g.reshape(-1, n)
        if _needs(x):
            _accum(x, (gf @ w.data.T).reshape(x.data.shape), fresh=True)
        if _needs(w):
            _accum(w, x2d.T @ gf, fresh=True)
        if _needs(b):
            gb = _unbroadcast(g, b.data.shape)
            _accum(b, gb, fresh=gb is not g)

    return _make(out, (x, w, b), back)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu_forward(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU of an array, plus the tanh term its slope needs."""
    inner = xd * xd
    inner *= xd
    inner *= _GELU_A
    inner += xd
    inner *= _GELU_C
    t = np.tanh(inner)
    out = 1.0 + t
    out *= xd
    out *= 0.5
    return out, t


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU; smooth everywhere (finite-difference friendly)."""
    xd = x.data
    out, t = gelu_forward(xd)

    def back(g):
        # d/dx [0.5 x (1 + t)] = 0.5 (1 + t) + 0.5 x (1 - t^2) inner'
        slope = xd * xd
        slope *= 3.0 * _GELU_A
        slope += 1.0
        slope *= _GELU_C
        tmp = t * t
        np.subtract(1.0, tmp, out=tmp)
        slope *= tmp
        slope *= xd
        np.add(1.0, t, out=tmp)
        slope += tmp
        slope *= 0.5
        slope *= g
        _accum(x, slope, fresh=True)

    return _make(out, (x,), back)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def back(g):
        _accum(x, g.reshape(x.data.shape))

    return _make(out, (x,), back)


def transpose(x: Tensor, axes) -> Tensor:
    out = x.data.transpose(axes)
    inv = np.argsort(axes)

    def back(g):
        _accum(x, g.transpose(inv))

    return _make(out, (x,), back)


def _scatter_add(x: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """Backward of reading `x.data[idx]`: add g into x.grad at idx, repeats summing.

    Strictly increasing non-negative 1-D indices name each row once, so a
    fancy-index add makes the same one add per element as `np.add.at`, the
    same bits, without its per-element loop."""
    if not _needs(x):
        return
    if x.grad is None:
        x.grad = np.zeros_like(x.data)
    if idx.ndim == 1 and (idx.size < 2 or (idx[0] >= 0 and (idx[1:] > idx[:-1]).all())):
        x.grad[idx] += g
    else:
        np.add.at(x.grad, idx, g)


def gather(x: Tensor, idx: np.ndarray) -> Tensor:
    """Index the first axis; used for token and position embeddings."""
    out = x.data[idx]

    def back(g):
        _scatter_add(x, idx, g)

    return _make(out, (x,), back)


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis of an array: (out, xhat, 1 / std).

    Means are `np.add.reduce(..) / n`, the arithmetic of `.mean(-1)` without
    its Python wrapper, which cost more than the sum on short rows."""
    n = x.shape[-1]
    mu = np.add.reduce(x, -1, keepdims=True)
    mu /= n
    xhat = x - mu
    inv = np.add.reduce(xhat * xhat, -1, keepdims=True)
    inv /= n
    inv += 1e-5
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    out, xhat, inv = layer_norm_forward(x.data, gain.data, bias.data)
    d = x.data.shape[-1]

    def back(g):
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, -1, keepdims=True) / d
            - xhat * (np.add.reduce(dxhat * xhat, -1, keepdims=True) / d)
        )
        _accum(x, dx, fresh=True)
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0), fresh=True)
        _accum(bias, g.reshape(-1, d).sum(axis=0), fresh=True)

    return _make(out, (x, gain, bias), back)


def softmax_forward(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array; the reductions are the ufuncs
    behind `.max` and `.sum`, without their Python wrappers."""
    e = x - np.maximum.reduce(x, -1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


def log_softmax(x: np.ndarray, dtype=None) -> np.ndarray:
    """Log-softmax over the last axis of an array, in `dtype` (default x's).
    The max is taken in x's dtype; casting is exact and keeps the order,
    so that is the max of the cast values."""
    x = np.subtract(x, np.maximum.reduce(x, -1, keepdims=True), dtype=dtype)
    lse = np.add.reduce(np.exp(x), -1, keepdims=True)
    x -= np.log(lse, out=lse)
    return x


def _softmax_back(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The grad at a softmax's input, from the grad g at its output s (a new array)."""
    return (g - (g * s).sum(axis=-1, keepdims=True)) * s


def softmax_last(x: Tensor) -> Tensor:
    s = softmax_forward(x.data)

    def back(g):
        _accum(x, _softmax_back(g, s), fresh=True)

    return _make(s, (x,), back)


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(B, T, d) -> (B, heads, T, d // heads), a view."""
    n_batch, n_pos, d = x.shape
    return x.reshape(n_batch, n_pos, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, heads, T, d_head) -> (B, T, heads * d_head), C-contiguous."""
    x = x.transpose(0, 2, 1, 3)
    return x.reshape(x.shape[0], x.shape[1], -1)


def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale,
                      add_mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over split heads (B, H, T, d_head): the one
    definition the graph's `attention` and the inference engine share.

    `scale` should be a Python float (a weak scalar keeps the scores' dtype);
    `add_mask` is added to the scores and must have their dtype. Returns the
    merged (B, Tq, d) context and the softmax weights."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if add_mask is not None:
        scores += add_mask
    weights = softmax_forward(scores)
    return merge_heads(weights @ v), weights


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale,
              add_mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention of projected q (B, Tq, d) over k and v (B, Tk, d)
    as one node. The backward repeats the per-op chain (split heads, batched
    matmul, scale, mask, softmax, batched matmul, merge heads) op for op,
    with the grads in the layouts its reshape and transpose nodes gave them,
    because numpy's matmul bits can depend on memory layout."""
    qh, kh, vh = split_heads(q.data, heads), split_heads(k.data, heads), split_heads(v.data, heads)
    out, weights = attention_forward(qh, kh, vh, scale, add_mask)

    def back(g):
        n_batch, n_q, d = g.shape
        # The merge's reshape and transpose nodes handed matmul this copy.
        gctx = np.array(g.reshape(n_batch, n_q, heads, d // heads).transpose(0, 2, 1, 3))
        gw = gctx @ vh.swapaxes(-1, -2)
        gv = weights.swapaxes(-1, -2) @ gctx
        gs = _softmax_back(gw, weights)
        gs *= scale
        _accum(q, merge_heads(gs @ kh), fresh=True)
        _accum(k, merge_heads((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)), fresh=True)
        _accum(v, merge_heads(gv), fresh=True)

    return _make(out, (q, k, v), back)


def masked_mean_forward(x: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 1 of an (M, T, d) array restricted to mask (M, T); rows
    need >=1 hit. Each state is scaled by its weight mask / count, then the
    states are summed: the one pooling definition the graph's `masked_mean`
    and the engine's sentence vectors share. Returns (out, weights)."""
    counts = mask.sum(axis=1)
    w = (mask / counts[:, None]).astype(x.dtype)
    return (x * w[:, :, None]).sum(axis=1), w


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    out, w = masked_mean_forward(x.data, mask)

    def back(g):
        _accum(x, g[:, None, :] * w[:, :, None], fresh=True)

    return _make(out, (x,), back)


def concat_rows(parts: list[Tensor], rows: list[list[int]]) -> Tensor:
    """One (n, ...) tensor whose rows `rows[i]` are the rows of `parts[i]`;
    the index lists together name each of the n rows once."""
    out = np.empty((sum(map(len, rows)),) + parts[0].data.shape[1:], parts[0].data.dtype)
    for p, r in zip(parts, rows):
        out[r] = p.data

    def back(g):
        for p, r in zip(parts, rows):
            _accum(p, g[r], fresh=True)

    return _make(out, tuple(parts), back)


def assemble_candidates(
    pooled: Tensor, eoe: Tensor, batch_idx: np.ndarray, slot_idx: np.ndarray,
    n_batch: int, n_slots: int,
) -> Tensor:
    """Per-claim candidate matrix (B, n_slots, d): slot 0 is the EOE embedding,
    pooled sentence row i lands at (batch_idx[i], slot_idx[i]). Unfilled slots
    stay zero and must be masked by the caller."""
    d = pooled.data.shape[-1]
    out = np.zeros((n_batch, n_slots, d), dtype=pooled.data.dtype)
    out[:, 0, :] = eoe.data
    out[batch_idx, slot_idx] = pooled.data

    def back(g):
        _accum(pooled, g[batch_idx, slot_idx], fresh=True)
        _accum(eoe, g[:, 0, :].sum(axis=0), fresh=True)

    return _make(out, (pooled, eoe), back)


def assemble_inputs(pooled: Tensor, start: Tensor, idx_map: np.ndarray) -> Tensor:
    """Teacher-forcing inputs (B, S, d) for the evidence decoder.

    idx_map values: -1 start vector, -2 zero padding, >=0 pooled row index.
    """
    n_batch, n_steps = idx_map.shape
    d = pooled.data.shape[-1]
    out = np.zeros((n_batch, n_steps, d), dtype=pooled.data.dtype)
    is_start = idx_map == -1
    is_row = idx_map >= 0
    rows = idx_map[is_row]
    out[is_start] = start.data
    out[is_row] = pooled.data[rows]

    def back(g):
        _accum(start, g[is_start].sum(axis=0), fresh=True)
        _scatter_add(pooled, rows, g[is_row])

    return _make(out, (pooled, start), back)


def cross_entropy(logits: Tensor, targets: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy over rows, with optional uniform label smoothing.

    The smoothed target puts (1 - smoothing) on the gold class and spreads
    `smoothing` uniformly over all K classes; a uniform model therefore scores
    ln K regardless of the gold labels.
    """
    n, k = logits.data.shape
    logp = log_softmax(logits.data)
    rows = np.arange(n)
    gold = logp[rows, targets]
    if smoothing > 0.0:
        per_row = -(1.0 - smoothing) * gold - (smoothing / k) * logp.sum(axis=-1)
    else:
        per_row = -gold
    out = np.asarray(per_row.mean(), dtype=logits.data.dtype)

    def back(g):
        p = np.exp(logp)
        q = np.zeros_like(p)
        q[rows, targets] = 1.0
        if smoothing > 0.0:
            q *= 1.0 - smoothing
            q += smoothing / k
        _accum(logits, (p - q) * (g / n), fresh=True)

    return _make(out, (logits,), back)


def log_softmax64(logits: np.ndarray) -> np.ndarray:
    """Float64 log-softmax over the last axis, for decode-time scoring (not a
    graph op). Each row of a 2-d input gets the bits of that row alone."""
    return log_softmax(logits, np.float64)


# -- optimization -----------------------------------------------------------

# Elements per pass of `Adam.step`. On an A2-shaped float32 model (820 K
# parameters) 32 K and 128 K took 3.5-4.6 ms a step, and 8 K and the whole
# buffer 4.7-6.4 ms; the smaller of the two needs the smaller scratch arrays.
_ADAM_CHUNK = 32 * 1024
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale grads in place to max_norm; returns the pre-clip global norm.
    A max_norm that is not finite and positive raises `ValueError`."""
    finite_positive("max_norm", max_norm)
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / norm
        for name in sorted(params):
            g = params[name].grad
            if g is not None:
                g *= np.asarray(scale, dtype=g.dtype)
    return norm


class Adam:
    """Adam with bias correction; state is checkpointable for exact resume.

    The optimizer owns flat storage: one contiguous buffer per role (the
    parameters, their gradients and the moments m and v). Each parameter's
    `.data` is rebound to its view at construction, and from then on Adam
    owns `.data`: it updates the views in place and bumps each parameter's
    `version`. `m` and `v` map names to views. `step` copies each `.grad`
    into the gradient buffer (a grad of None counts as zeros), then runs
    Adam's elementwise arithmetic over fixed chunks of the buffers, so each
    element gets the operations of a per-tensor loop in the same order and
    the same bits."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.names = sorted(params)
        self.t = 0
        dtypes = {params[n].data.dtype for n in self.names}
        if len(dtypes) != 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        ends = np.cumsum([params[n].data.size for n in self.names])
        size = int(ends[-1])
        self.flat_data = np.empty(size, dtype)
        self.flat_grad = np.empty(size, dtype)
        self.flat_m = np.zeros(size, dtype)
        self.flat_v = np.zeros(size, dtype)

        def views(buf: np.ndarray) -> dict[str, np.ndarray]:
            return {n: buf[end - params[n].data.size:end].reshape(params[n].data.shape)
                    for n, end in zip(self.names, ends)}

        data, self._grad = views(self.flat_data), views(self.flat_grad)
        self.m, self.v = views(self.flat_m), views(self.flat_v)
        for name in self.names:
            data[name][...] = params[name].data
            params[name].data = data[name]
        self._scratch = np.empty((2, min(size, _ADAM_CHUNK)), dtype)

    def step(self, lr: float) -> None:
        for name in self.names:
            param = self.params[name]
            self._grad[name][...] = 0 if param.grad is None else param.grad
            param.version += 1
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        lr = np.asarray(lr, dtype=self.flat_data.dtype)
        size = self.flat_data.size
        for lo in range(0, size, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, size)
            g, m, v = self.flat_grad[lo:hi], self.flat_m[lo:hi], self.flat_v[lo:hi]
            a, b = self._scratch[:, : hi - lo]
            m *= _BETA1
            np.multiply(1.0 - _BETA1, g, out=a)
            m += a
            v *= _BETA2
            np.multiply(g, g, out=a)
            np.multiply(1.0 - _BETA2, a, out=a)
            v += a
            # update = (m / bc1) / (sqrt(v / bc2) + eps); data -= lr * update
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += _ADAM_EPS
            np.divide(m, bc1, out=b)
            b /= a
            np.multiply(lr, b, out=b)
            self.flat_data[lo:hi] -= b

    def load_state_dict(self, state: dict) -> None:
        """Copy the moments into the views, keeping the flat storage."""
        for name in self.names:
            for mine, given in ((self.m[name], state["m"][name]),
                                (self.v[name], state["v"][name])):
                if given.shape != mine.shape:
                    raise ValueError(f"moment {name!r} has shape {given.shape}, "
                                     f"the parameter {mine.shape}")
                mine[...] = given
        self.t = int(state["t"])
