"""Reverse-mode differentiation on an explicit tape of primitive ops.

A `Tape` records a computation as a topologically ordered list of primitive
operations (matmul, add, masked softmax, attention terms, ...); `finish`
keeps the result and the forward values that some VJP reads.  `backward`
walks the tape in reverse and reports the exact gradients of the recorded
scalar for the leaves that `Tape.param` names.

Each primitive is declared once: `_primitive(name, fwd, bwd, reads=...)` on
its constructor gives the op name, the forward, the vector-Jacobian product
(one gradient per input), what that VJP reads and the constructor together.
The constructor returns its input Vars and meta; the decorator records it.
`Var`'s binary operators, `**`, `reshape` and `sum` are these constructors.

The primitive set is closed: model code must be composed from the functions
in this module or from `Var`'s operators and ndarray methods (`@`, `*`,
`**`, unary `-`, `transpose`, `swapaxes`, `reshape`, `sum`), each of which
records one of these primitives (`-x` is `scale` by -1.0).  So `core`
writes the block's update once in ndarray idiom and runs it on arrays for
inference and on Vars for training.  Training never differentiates the
energy, so the tape has no log-sum-exp primitive.  Every primitive's forward calls the same numpy
kernels as the analytic inference path, so recorded values agree with
direct evaluation to the last bit.
Gradients are exact up to round-off: the masked-softmax VJP on a sparse
mask, the gradient of a 0-d factor in `mul` and the `attention_terms` VJP
sum in a different order than the composed formulas they replace, as does
the masked softmax itself on a sparse mask (other masks keep the dense bits).

`attention_terms(g, a, w)` records attention's "from" and "to" terms in
the token basis, sum_h w_h (g a_h^T) + w_h^T (g a_h), as one node.  Its
VJP builds each head's weight gradient G v_h^T + u_h G^T (v_h = g a_h^T,
u_h = g a_h) as one GEMM of inner width 2D, [G, u_h] [v_h, G]^T, and runs
every N x N product feature-major, (D, N) by (N, N).

`finite_diff` is the independent central-difference oracle used by the
verification suite; it never touches the tape machinery.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels as K
from .errors import TapeError

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Tape

@dataclass
class Node:
    """One recorded primitive: op kind, input ids, saved forward value."""

    op: str
    inputs: tuple[int, ...]
    value: Array
    meta: dict


class Tape:
    """Ordered record of primitives; inputs of a node always precede it."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, int] = {}
        self.result: int | None = None

    def param(self, name: str, value) -> "Var":
        """Register a named leaf that gradients will be reported for."""
        if name in self.params:
            raise TapeError(f"duplicate parameter name {name!r}")
        v = self.constant(value)
        self.params[name] = v.idx
        return v

    def constant(self, value) -> "Var":
        """An unnamed leaf: it takes part in the forward pass, and `backward`
        reports no gradient for it."""
        self.nodes.append(Node("leaf", (), np.asarray(value, dtype=np.float64), {}))
        return Var(self, len(self.nodes) - 1)

    def finish(self, result: "Var") -> None:
        """Mark the recorded scalar, and release every value no VJP reads to a
        read-only zero-stride view of its shape.  The tape takes no more ops."""
        if result.tape is not self:
            raise TapeError("result does not belong to this tape")
        if result.value.shape != ():
            raise TapeError(f"recorded result must be scalar, got {result.value.shape}")
        self.result = result.idx
        keep = {result.idx}  # a value's readers all come after it
        for idx, node in reversed(list(enumerate(self.nodes))):
            keep.update(idx if r == "out" else node.inputs[r] for r in _READS.get(node.op, ()))
            if idx not in keep:
                node.value = np.broadcast_to(np.zeros((), node.value.dtype), node.value.shape)


# ---------------------------------------------------------------------------
# Primitives: op name -> (forward, backward)
#
# forward(inputs, meta) -> value
# backward(grad_out, inputs, value, meta) -> one gradient per input; of the
# inputs and value that `reads` does not name ("out": value), it reads shapes

_OPS: dict[str, tuple[Callable, Callable]] = {}
_READS: dict[str, tuple[int | str, ...]] = {}
_WRITES_GRAD: set[str] = set()  # ops whose backward may write into grad_out


def _primitive(name: str, fwd: Callable, bwd: Callable, *, reads: tuple, writes_grad: bool = False):
    """Declare primitive `name` on its constructor.  The decorated function
    returns its input Vars and the node's meta; the constructor it becomes
    records the node and returns its Var."""
    _OPS[name] = (fwd, bwd)
    _READS[name] = reads
    if writes_grad:
        _WRITES_GRAD.add(name)

    def declare(build):
        @functools.wraps(build)
        def record(*args, **kwargs):
            inputs, meta = build(*args, **kwargs)
            tape = inputs[0].tape
            if tape.result is not None:
                raise TapeError("tape is finished; record on a new tape")
            if any(v.tape is not tape for v in inputs):
                raise TapeError("all operands must belong to the same tape")
            out = np.asarray(fwd([v.value for v in inputs], meta))
            tape.nodes.append(Node(name, tuple(v.idx for v in inputs), out, meta))
            return Var(tape, len(tape.nodes) - 1)

        return record

    return declare


@_primitive(
    "add",
    lambda ins, meta: ins[0] + ins[1],
    lambda g, ins, out, meta: [_unbroadcast(g, ins[0].shape), _unbroadcast(g, ins[1].shape)],
    reads=(),
)
def add(a: Var, b: Var) -> Var:
    return (a, b), {}


@_primitive(
    "sub",
    lambda ins, meta: ins[0] - ins[1],
    lambda g, ins, out, meta: [_unbroadcast(g, ins[0].shape), _unbroadcast(-g, ins[1].shape)],
    reads=(),
)
def sub(a: Var, b: Var) -> Var:
    return (a, b), {}


def _mul_grad(g: Array, a: Array, other: Array) -> Array:
    """Gradient of `a` in a * other.  A 0-d `a` (a learnable beta or gamma
    times an array) gets one dot product, with no temporary the size of g."""
    if a.ndim == 0:
        return np.asarray(np.vdot(g, other))
    return _unbroadcast(g * other, a.shape)


@_primitive(
    "mul",
    lambda ins, meta: ins[0] * ins[1],
    lambda g, ins, out, meta: [_mul_grad(g, ins[0], ins[1]), _mul_grad(g, ins[1], ins[0])],
    reads=(0, 1),
)
def mul(a: Var, b: Var) -> Var:
    return (a, b), {}


@_primitive("scale", lambda ins, meta: meta["c"] * ins[0],
            lambda g, ins, out, meta: [meta["c"] * g], reads=())
def scale(a: Var, c: float) -> Var:
    return (a,), {"c": float(c)}


def _matmul_vjp(g, ins, out, meta):
    a, b = ins
    if b.ndim == 2 and a.ndim > 2:
        # rows with batch axes against a 2-D weight: one GEMM over all
        # rows, not per-batch weight gradients that _unbroadcast sums
        k, m = b.shape
        a2, g2 = a.reshape(-1, k), g.reshape(-1, m)
        return [np.matmul(g2, b.T).reshape(a.shape), np.matmul(a2.T, g2)]
    ga = np.matmul(g, b.swapaxes(-1, -2))
    gb = np.matmul(a.swapaxes(-1, -2), g)
    return [_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)]


@_primitive("matmul", lambda ins, meta: np.matmul(ins[0], ins[1]), _matmul_vjp, reads=(0, 1))
def matmul(a: Var, b: Var) -> Var:
    return (a, b), {}


@_primitive(
    "transpose",
    lambda ins, meta: ins[0].transpose(meta["perm"]),
    lambda g, ins, out, meta: [g.transpose(tuple(np.argsort(meta["perm"])))],
    reads=(),
)
def transpose(a: Var, perm: tuple[int, ...]) -> Var:
    # normalize negative axes so the backward pass can invert the permutation
    n = a.value.ndim
    return (a,), {"perm": tuple(p % n for p in perm)}


@_primitive(
    "reshape",
    lambda ins, meta: ins[0].reshape(meta["shape"]),
    lambda g, ins, out, meta: [g.reshape(ins[0].shape)],
    reads=(),
)
def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    return (a,), {"shape": tuple(shape)}


def _sum_vjp(g, ins, out, meta):
    axis = meta["axis"]
    g = np.expand_dims(g, () if axis is None else axis)
    return [np.broadcast_to(g, ins[0].shape).copy()]


@_primitive("sum", lambda ins, meta: ins[0].sum(axis=meta["axis"]), _sum_vjp, reads=())
def sum_(a: Var, axis: int | None = None) -> Var:
    return (a,), {"axis": axis}


@_primitive("relu", lambda ins, meta: K.relu(ins[0]),
            lambda g, ins, out, meta: [g * (ins[0] > 0)], reads=(0,))
def relu(a: Var) -> Var:
    return (a,), {}


@_primitive(
    "power",
    lambda ins, meta: ins[0] ** meta["n"],
    lambda g, ins, out, meta: [meta["n"] * ins[0] ** (meta["n"] - 1) * g],
    reads=(0,),
)
def power(a: Var, n: int) -> Var:
    return (a,), {"n": int(n)}


@_primitive(
    "sigmoid",
    lambda ins, meta: K.stable_sigmoid(ins[0]),
    lambda g, ins, out, meta: [g * out * (1.0 - out)],
    reads=("out",),
)
def sigmoid(a: Var) -> Var:
    return (a,), {}


@_primitive("log", lambda ins, meta: np.log(ins[0]),
            lambda g, ins, out, meta: [g / ins[0]], reads=(0,))
def log(a: Var) -> Var:
    return (a,), {}


@_primitive(
    "mean_subtract",
    lambda ins, meta: K.mean_subtract(ins[0]),
    lambda g, ins, out, meta: [K.mean_subtract(g)],
    reads=(),
)
def mean_subtract(a: Var) -> Var:
    return (a,), {}


@_primitive(
    "rsqrt_normalize",
    lambda ins, meta: K.rsqrt_normalize(ins[0], meta["epsilon"]),
    lambda g, ins, out, meta: [K.rsqrt_normalize_backward(g, ins[0], meta["epsilon"])],
    reads=(0,),
)
def rsqrt_normalize(a: Var, epsilon: float) -> Var:
    return (a,), {"epsilon": float(epsilon)}


@_primitive(
    "masked_softmax",
    lambda ins, meta: K.masked_softmax(ins[0], meta["mask"]),
    lambda g, ins, out, meta: [K.softmax_backward(g, out, meta["mask"], out=g)],
    reads=("out",),
    writes_grad=True,  # dS goes over the incoming gradient
)
def masked_softmax(a: Var, mask: Array | None) -> Var:
    return (a,), {"mask": mask}


def _attention_terms_vjp(grad, ins, out, meta):
    g, a, w = ins
    gt = g.swapaxes(-1, -2)[..., None, :, :]
    vt, ut = a @ gt, a.swapaxes(-1, -2) @ gt  # v_h^T, u_h^T: (..., H, D, N)
    grad_t = np.broadcast_to(grad.swapaxes(-1, -2)[..., None, :, :], vt.shape)
    # dw_h = G v_h^T + u_h G^T = [G, u_h] [v_h, G]^T: one GEMM of inner width 2D
    gw = np.concatenate([grad_t, ut], -2).swapaxes(-1, -2) @ np.concatenate([vt, grad_t], -2)
    dut, dvt = grad_t @ w.swapaxes(-1, -2), grad_t @ w  # du_h^T, dv_h^T
    gg = (a @ dut + a.swapaxes(-1, -2) @ dvt).sum(axis=-3).swapaxes(-1, -2)
    ga = gt @ dut.swapaxes(-1, -2) + dvt @ g[..., None, :, :]
    return [gg, _unbroadcast(ga, a.shape), gw]


@_primitive("attention_terms", lambda ins, meta: K.attention_terms(*ins), _attention_terms_vjp,
            reads=(0, 1, 2))
def attention_terms(g: Var, a: Var, w: Var) -> Var:
    """Attention's "from" plus "to" term (see `_kernels.attention_terms`)."""
    return (g, a, w), {}


def _gather_vjp(g, ins, out, meta):
    acc = np.zeros_like(ins[0])
    np.add.at(acc, meta["idx"], g)
    return [acc]


@_primitive("gather", lambda ins, meta: np.take(ins[0], meta["idx"], axis=0), _gather_vjp,
            reads=())
def gather(a: Var, idx: Array) -> Var:
    return (a,), {"idx": np.asarray(idx, dtype=np.intp)}


def _where_rows_vjp(g, ins, out, meta):
    rows = meta["rows"][..., None]
    return [np.where(rows, 0.0, g), _unbroadcast(np.where(rows, g, 0.0), ins[1].shape)]


@_primitive(
    "where_rows",
    lambda ins, meta: np.where(meta["rows"][..., None], ins[1], ins[0]),
    _where_rows_vjp,
    reads=(),
)
def where_rows(a: Var, vec: Var, rows: Array) -> Var:
    """Replace rows of `a` (last-axis vectors) flagged by `rows` with `vec`."""
    return (a, vec), {"rows": np.asarray(rows, dtype=bool)}


def _concat_vjp(g, ins, out, meta):
    axis = meta["axis"]
    sizes = [a.shape[axis] for a in ins]
    return list(np.split(g, np.cumsum(sizes)[:-1], axis=axis))


@_primitive("concat", lambda ins, meta: np.concatenate(ins, axis=meta["axis"]), _concat_vjp,
            reads=())
def concat(parts: list[Var], axis: int = -1) -> Var:
    return tuple(parts), {"axis": axis}


# ---------------------------------------------------------------------------
# Variables

@dataclass(frozen=True)
class Var:
    """Handle to one tape node.

    Its operators and ndarray methods are, or call, the primitive
    constructors above, so array code records itself when handed Vars; a
    number times a Var, and its negation, is `scale`.
    """

    tape: Tape
    idx: int
    __array_ufunc__ = None  # numpy scalars defer to Var's reflected operators

    @property
    def value(self) -> Array:
        return self.tape.nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __rmul__ = scale
    __matmul__ = matmul
    __pow__ = power
    reshape = reshape
    sum = sum_

    def __neg__(self) -> "Var":
        return scale(self, -1.0)

    def transpose(self, *perm: int) -> "Var":
        return transpose(self, perm)

    def swapaxes(self, a: int, b: int) -> "Var":
        perm = list(range(self.value.ndim))
        perm[a], perm[b] = perm[b], perm[a]
        return transpose(self, tuple(perm))


# ---------------------------------------------------------------------------
# Record / backward / oracle

def record_forward(fn, params: dict[str, Array], *args) -> tuple[float, Tape]:
    """Run fn(tape, param_vars, *args) and record it.

    fn must return a scalar Var built from this module's primitives; the
    recorded value equals direct evaluation because recording is eager.
    """
    tape = Tape()
    pvars = {name: tape.param(name, value) for name, value in params.items()}
    out = fn(tape, pvars, *args)
    if not isinstance(out, Var):
        raise TapeError("recorded function must return a Var")
    tape.finish(out)
    return float(out.value), tape


def _private(g: Array, grads: dict[int, Array]) -> bool:
    """Whether g owns its memory and no other pending gradient overlaps it."""
    return g.flags.owndata and not any(np.may_share_memory(g, o) for o in grads.values())


def backward(tape: Tape) -> dict[str, Array]:
    """Exact gradients of the recorded scalar w.r.t. every named parameter.

    Parameters that do not influence the result get exact zeros.  Every
    other leaf gets its gradient too, but it is not reported.

    A VJP declared `writes_grad` may write into its gradient, so it gets a
    copy unless `_private` holds (`add` hands one array to both operands and
    `transpose`/`reshape` pass views).  No VJP returns a saved value or an
    input, so no recorded value is ever written.
    """
    if tape.result is None:
        raise TapeError("tape has no recorded result; call finish() first")
    grads: dict[int, Array] = {tape.result: np.ones(())}
    for idx in range(tape.result, -1, -1):
        node = tape.nodes[idx]
        if node.op == "leaf":
            continue  # leaf grads stay in the dict for collection below
        g = grads.pop(idx, None)
        if g is None:
            continue
        if node.op in _WRITES_GRAD and not _private(g, grads):
            g = g.copy()
        _, bwd = _OPS[node.op]
        ins = [tape.nodes[i].value for i in node.inputs]
        for inp_idx, inp_grad in zip(node.inputs, bwd(g, ins, node.value, node.meta)):
            grads[inp_idx] = grads[inp_idx] + inp_grad if inp_idx in grads else inp_grad
    out = {}
    for name, idx in tape.params.items():
        g = grads.get(idx)
        out[name] = g if g is not None else np.zeros_like(tape.nodes[idx].value)
    return out


def finite_diff(f, point: Array, h: float = 1e-5) -> Array:
    """Central finite differences of a scalar function, per coordinate."""
    if not (h > 0):
        raise ValueError("h must be > 0")
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point, dtype=np.float64)
    it = np.nditer(point, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        bumped = point.copy()
        bumped[i] = point[i] + h
        hi = f(bumped)
        bumped[i] = point[i] - h
        lo = f(bumped)
        grad[i] = (hi - lo) / (2.0 * h)
    return grad
