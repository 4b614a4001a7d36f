"""Dense tensors with dynamic reverse-mode differentiation.

A deliberately small op set, just enough for a ViT-style network and its
training losses: matrix products, shape movement, row softmax, layer norm,
gelu, and a soft cross entropy. Each op records its inputs and a vector-
Jacobian closure on the output tensor; ``backward`` walks the recorded graph
in reverse topological order.

Two precisions: float32 is the default storage/compute dtype, and building
tensors from float64 arrays runs the whole graph in 64-bit mode (the
finite-difference checks rely on this). Mixing the two in one op is an error
rather than a silent promotion.

Gradients land on leaves only (tensors that require grad and were not made
by an op) and add up: a leaf used at k sites receives the sum of the k
site-local gradients, and a second ``backward`` call adds on top of ``grad``
instead of replacing it. Parameter tying elsewhere in the package is
implemented purely by reusing one Tensor object at several sites and leans on
this property.

gelu's ``erf`` is a numpy copy of the Cephes ``ndtr.c`` erf (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989), the code behind
``scipy.special.erf``: the same coefficients in the same order of operations,
in float64, so every float32 result is bit-identical to scipy's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import SplitMix64

_ALLOWED = (np.float32, np.float64)

# log(q) is clamped below at this value inside soft_cross_entropy so that
# q -> 0 yields a large finite loss instead of an infinity.
LOG_CLAMP = -30.0


class ShapeError(ValueError):
    """Operands have incompatible shapes; message names both."""


class NumericError(FloatingPointError):
    """Non-finite values where finite ones are required."""


class Tensor:
    # __weakref__ lets a test watch a graph being freed without holding it.
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _ALLOWED:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], list[np.ndarray | None]] | None = None

    # ---- construction of op results ---------------------------------------

    @classmethod
    def _result(cls, data: np.ndarray, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.requires_grad = any(p.requires_grad for p in parents)
        t.grad = None
        if t.requires_grad:
            t._parents = parents
            t._vjp = vjp
        else:
            t._parents = ()
            t._vjp = None
        return t

    # ---- small conveniences ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __sub__(self, other):
        return sub(self, other)


class Graph:
    """Ordered record of the ops reachable from a root tensor.

    ``nodes`` lists tensors in topological order (inputs before consumers),
    so iterating it reversed visits each node exactly once and only after
    all of its consumers.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Graph":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in visited:
                continue
            visited.add(id(t))
            stack.append((t, True))
            for p in t._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return cls(order)

    def __len__(self) -> int:
        return len(self.nodes)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf t: requires grad,
    no VJP. An op result's gradient is dropped once its VJP has run.

    ``loss`` must be scalar. Grads add onto whatever is already stored, so
    call sites zero them (set to None) between steps.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    graph = Graph.trace(loss)
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for t in reversed(graph.nodes):
        g = pending.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g
            continue
        for p, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            prev = pending.get(id(p))
            pending[id(p)] = pg if prev is None else prev + pg


def _check_dtypes(*tensors: Tensor) -> None:
    dtypes = {t.data.dtype.type for t in tensors}
    if len(dtypes) > 1:
        names = sorted(d.__name__ for d in dtypes)
        raise TypeError(f"mixed dtypes in one op: {names}; cast explicitly")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---- arithmetic -------------------------------------------------------------


def _broadcast(op: str, fn, a: Tensor, b: Tensor, grads) -> Tensor:
    """``fn`` on the data under numpy broadcasting, the one rule of add, sub and mul.
    ``grads(g)`` gives both gradients at the result's shape, summed back to each operand's."""
    _check_dtypes(a, b)
    try:
        out = fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from None
    return Tensor._result(out, (a, b), lambda g: [_unbroadcast(d, p.shape) for p, d in zip((a, b), grads(g))])


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast("add", np.add, a, b, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast("sub", np.subtract, a, b, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast("mul", np.multiply, a, b, lambda g: (g * b.data, g * a.data))


def neg(a: Tensor) -> Tensor:
    return Tensor._result(-a.data, (a,), lambda g: [-g])


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a scalar constant (no gradient for s, dtype preserved)."""
    c = a.data.dtype.type(s)
    return Tensor._result(a.data * c, (a,), lambda g: [g * c])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if b.data.ndim == 2:
        # A weight product: fold a's leading axes into rows so forward and both
        # VJP products are single GEMMs, with no batched (..., k, n) temporary.
        a2 = a.data.reshape(-1, a.shape[-1])
        out2 = a2 @ b.data

        def vjp2(g):
            g2 = g.reshape(out2.shape)
            return [(g2 @ b.data.T).reshape(a.shape), a2.T @ g2]

        return Tensor._result(out2.reshape(a.shape[:-1] + b.shape[-1:]), (a, b), vjp2)
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return [ga, gb]

    return Tensor._result(out, (a, b), vjp)


# ---- shape movement ----------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: {a.shape} -> {shape} changes element count") from None
    return Tensor._result(out, (a,), lambda g: [g.reshape(a.shape)])


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of axes of shape {a.shape}")
    inv = tuple(np.argsort(axes).tolist())
    return Tensor._result(np.transpose(a.data, axes), (a,), lambda g: [np.transpose(g, inv)])


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: {a.shape} -> {shape}") from None
    return Tensor._result(np.ascontiguousarray(out), (a,), lambda g: [_unbroadcast(g, a.shape)])


def index_axis(a: Tensor, axis: int, i: int) -> Tensor:
    """Select index i along an axis, dropping that axis."""
    if not (-a.data.ndim <= axis < a.data.ndim):
        raise ShapeError(f"index_axis: axis {axis} out of range for shape {a.shape}")
    at = (slice(None),) * (axis % a.data.ndim) + (i,)
    out = a.data[at]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[at] = g
        return [full]

    return Tensor._result(np.ascontiguousarray(out), (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ValueError("concat of zero tensors")
    _check_dtypes(*parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return list(np.split(g, splits, axis=axis))

    return Tensor._result(out, tuple(parts), vjp)


# ---- reductions --------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()
    return Tensor._result(out, (a,), lambda g: [np.broadcast_to(g, a.shape).copy()])


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = a.data.mean()
    return Tensor._result(out, (a,), lambda g: [np.broadcast_to(g / n, a.shape).copy()])


# ---- nonlinearities ----------------------------------------------------------


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, max-subtracted for stability."""
    if not np.isfinite(a.data).all():
        raise NumericError("softmax_rows: non-finite input")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [y * (g - dot)]

    return Tensor._result(y, (a,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    if eps <= 0:
        raise ValueError(f"layer_norm needs eps > 0, got {eps}")
    _check_dtypes(x, gamma, beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match feature dim {d}")
    centred = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centred ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = centred * inv
    out = xhat * gamma.data + beta.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        g_gamma = (g * xhat).sum(axis=lead)
        g_beta = g.sum(axis=lead)
        gx_hat = g * gamma.data
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return [gx, g_gamma, g_beta]

    return Tensor._result(out, (x, gamma, beta), vjp)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erf(x) = 1 - exp(-x^2) P(x) / Q(x) for 1 < x < 8. U and Q are monic
# (their leading 1 is implied, as in Cephes p1evl).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_BLOCK = 1 << 15


def _horner(x: np.ndarray, coef: Sequence[float], out: np.ndarray, monic: bool = False) -> np.ndarray:
    """Cephes polevl (or p1evl when monic) into ``out``: ans = ans * x + c, in that order."""
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        np.add(out, coef[1], out=out)
        coef = coef[1:]
    for c in coef[1:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """erf in x's dtype, computed in float64 as Cephes does, one block at a time.

    ``out``, a C-contiguous array of x's shape and dtype, receives the result
    when given; it may be x itself, since each block is read into float64
    scratch before its results are written."""
    flat = x.ravel()
    res = np.empty(flat.size, dtype=x.dtype) if out is None else out.reshape(-1)
    n = min(flat.size, _ERF_BLOCK)
    xs, zs, num, den = (np.empty(n) for _ in range(4))
    with np.errstate(all="ignore"):  # inf and NaN pass through without warnings
        for lo in range(0, flat.size, _ERF_BLOCK):
            m = min(_ERF_BLOCK, flat.size - lo)
            v, z, p, q = xs[:m], zs[:m], num[:m], den[:m]
            v[...] = flat[lo:lo + m]
            # |x| <= 1, evaluated everywhere; the rest is overwritten below.
            np.multiply(v, v, out=z)
            _horner(z, _ERF_T, p)
            _horner(z, _ERF_U, q, monic=True)
            np.multiply(v, p, out=p)
            np.divide(p, q, out=p)
            np.abs(v, out=z)
            big = np.flatnonzero(z > 1.0)
            if big.size:
                # 1 < |x|: 1 - erfc(|x|), sign restored. Cephes gives exactly
                # 1.0 for |x| >= 8 (erfc(8) ~ 1e-29); clamping |x| at 8 does
                # too, and keeps P and Q finite for huge or infinite x.
                a = np.minimum(z.take(big), 8.0)
                e = np.multiply(a, a)
                np.negative(e, out=e)
                np.exp(e, out=e)
                pb = _horner(a, _ERFC_P, np.empty_like(a))
                np.multiply(e, pb, out=e)
                np.divide(e, _horner(a, _ERFC_Q, pb, monic=True), out=e)
                np.subtract(1.0, e, out=e)
                p.put(big, np.copysign(e, v.take(big), out=e))
            res[lo:lo + m] = p
    return res.reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """Exact gelu, x * Phi(x) with the Gaussian CDF via erf."""
    x = a.data
    phi_cdf = x * x.dtype.type(_INV_SQRT2)
    phi_cdf = _erf(phi_cdf, out=phi_cdf)  # in place: no second array of x's size
    phi_cdf += 1.0
    phi_cdf *= 0.5
    out = x * phi_cdf

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * x.dtype.type(_INV_SQRT2PI)
        return [g * (phi_cdf + x * pdf)]

    return Tensor._result(out.astype(x.dtype, copy=False), (a,), vjp)


def soft_cross_entropy(p: Tensor, q: Tensor) -> Tensor:
    """Mean over rows of -sum(p * log q), with log q clamped at LOG_CLAMP.

    Both arguments are probability rows (each row sums to 1 within 1e-5).
    Gradient flows to both sides; detach the target distribution at the call
    site when it should be treated as constant.
    """
    _check_dtypes(p, q)
    if p.shape != q.shape or p.data.ndim != 2:
        raise ShapeError(f"soft_cross_entropy: need matching 2-d shapes, got {p.shape} and {q.shape}")
    for name, t in (("p", p), ("q", q)):
        rows = t.data.sum(axis=-1)
        if not np.allclose(rows, 1.0, atol=1e-5):
            worst = float(np.abs(rows - 1.0).max())
            raise ValueError(f"soft_cross_entropy: {name} rows must sum to 1 (max deviation {worst:.3e})")
    batch = p.shape[0]
    with np.errstate(divide="ignore"):
        logq = np.log(q.data)
    clamped = logq < LOG_CLAMP
    logq = np.maximum(logq, q.data.dtype.type(LOG_CLAMP))
    out = -(p.data * logq).sum() / batch

    def vjp(g):
        gp = -(g / batch) * logq
        qsafe = np.where(clamped, 1.0, q.data)
        gq = np.where(clamped, 0.0, -(g / batch) * p.data / qsafe).astype(q.data.dtype, copy=False)
        return [gp.astype(p.data.dtype, copy=False), gq]

    return Tensor._result(out, (p, q), vjp)


# ---- finite-difference checking ----------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: np.ndarray,
    step: float = 1e-4,
    tol: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare backward() against central finite differences of f at x.

    f maps a Tensor to a scalar Tensor. x is evaluated in float64 regardless
    of input dtype (32-bit differencing is too noisy to say anything). When
    max_coords is given, a seeded subset of coordinates is checked instead of
    every one. Relative error uses max(|analytic|, |numeric|, 1e-6) as the
    denominator so near-zero gradients compare absolutely at that scale.
    """
    base = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    out = f(base)
    if out.data.shape != ():
        raise ShapeError(f"grad_check: f must return a scalar, got shape {out.data.shape}")
    backward(out)
    analytic = base.grad if base.grad is not None else np.zeros_like(base.data)

    flat = base.data.size
    coords = np.arange(flat)
    if max_coords is not None and max_coords < flat:
        coords = SplitMix64(seed).permutation(flat)[:max_coords]

    work = base.data.copy()
    max_rel = 0.0
    for c in coords:
        idx = np.unravel_index(int(c), base.data.shape)
        keep = work[idx]
        work[idx] = keep + step
        up = f(Tensor(work.copy())).item()
        work[idx] = keep - step
        down = f(Tensor(work.copy())).item()
        work[idx] = keep
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel_err=max_rel, tol=tol, checked=len(coords))
