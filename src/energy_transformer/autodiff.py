"""Reverse-mode differentiation on an explicit tape of primitive ops.

A `Tape` records a computation as a topologically ordered list of primitive
operations (matmul, add, masked softmax, attention terms, ...), each node
saving its forward value.  Every primitive's vector-Jacobian product
returns one gradient per input.  `backward` walks the tape once in reverse
and reports the exact gradients of the recorded scalar for the leaves that
`Tape.param` names.  `replay` re-executes the forward pass from the records
and checks that it reproduces the saved values bit-exactly.

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
# Primitive registry: op name -> (forward, backward)
#
# forward(inputs, meta) -> value
# backward(grad_out, inputs, value, meta) -> one gradient per input

_OPS: dict[str, tuple[Callable, Callable]] = {}


def _op(name):
    def deco(pair):
        _OPS[name] = pair()
        return pair

    return deco


@_op("add")
def _add():
    fwd = lambda ins, meta: ins[0] + ins[1]
    bwd = lambda g, ins, out, meta: [
        _unbroadcast(g, ins[0].shape),
        _unbroadcast(g, ins[1].shape),
    ]
    return fwd, bwd


@_op("sub")
def _sub():
    fwd = lambda ins, meta: ins[0] - ins[1]
    bwd = lambda g, ins, out, meta: [
        _unbroadcast(g, ins[0].shape),
        _unbroadcast(-g, ins[1].shape),
    ]
    return fwd, bwd


def _mul_grad(g: Array, a: Array, other: Array) -> Array:
    """Gradient of `a` in a * other.  A 0-d `a` (a learnable beta or gamma
    times an array) gets one dot product, with no temporary the size of g."""
    if a.ndim == 0:
        return np.asarray(np.vdot(g, other))
    return _unbroadcast(g * other, a.shape)


@_op("mul")
def _mul():
    fwd = lambda ins, meta: ins[0] * ins[1]
    bwd = lambda g, ins, out, meta: [
        _mul_grad(g, ins[0], ins[1]),
        _mul_grad(g, ins[1], ins[0]),
    ]
    return fwd, bwd


@_op("scale")
def _scale():
    fwd = lambda ins, meta: meta["c"] * ins[0]
    bwd = lambda g, ins, out, meta: [meta["c"] * g]
    return fwd, bwd


@_op("matmul")
def _matmul():
    fwd = lambda ins, meta: np.matmul(ins[0], ins[1])

    def bwd(g, ins, out, meta):
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

    return fwd, bwd


@_op("transpose")
def _transpose():
    fwd = lambda ins, meta: ins[0].transpose(meta["perm"])

    def bwd(g, ins, out, meta):
        inv = np.argsort(meta["perm"])
        return [g.transpose(tuple(inv))]

    return fwd, bwd


@_op("reshape")
def _reshape():
    fwd = lambda ins, meta: ins[0].reshape(meta["shape"])
    bwd = lambda g, ins, out, meta: [g.reshape(ins[0].shape)]
    return fwd, bwd


@_op("sum")
def _sum():
    def fwd(ins, meta):
        return ins[0].sum(axis=meta["axis"])

    def bwd(g, ins, out, meta):
        axis = meta["axis"]
        g = np.expand_dims(g, () if axis is None else axis)
        return [np.broadcast_to(g, ins[0].shape).copy()]

    return fwd, bwd


@_op("relu")
def _relu():
    fwd = lambda ins, meta: K.relu(ins[0])
    bwd = lambda g, ins, out, meta: [g * (ins[0] > 0)]
    return fwd, bwd


@_op("power")
def _power():
    fwd = lambda ins, meta: ins[0] ** meta["n"]
    bwd = lambda g, ins, out, meta: [meta["n"] * ins[0] ** (meta["n"] - 1) * g]
    return fwd, bwd


@_op("sigmoid")
def _sigmoid():
    fwd = lambda ins, meta: K.stable_sigmoid(ins[0])
    bwd = lambda g, ins, out, meta: [g * out * (1.0 - out)]
    return fwd, bwd


@_op("log")
def _log():
    fwd = lambda ins, meta: np.log(ins[0])
    bwd = lambda g, ins, out, meta: [g / ins[0]]
    return fwd, bwd


@_op("mean_subtract")
def _mean_subtract():
    fwd = lambda ins, meta: K.mean_subtract(ins[0])
    bwd = lambda g, ins, out, meta: [K.mean_subtract(g)]
    return fwd, bwd


@_op("rsqrt_normalize")
def _rsqrt_normalize():
    fwd = lambda ins, meta: K.rsqrt_normalize(ins[0], meta["epsilon"])
    bwd = lambda g, ins, out, meta: [
        K.rsqrt_normalize_backward(g, ins[0], meta["epsilon"])
    ]
    return fwd, bwd


@_op("masked_softmax")
def _masked_softmax():
    fwd = lambda ins, meta: K.masked_softmax(ins[0], meta["mask"])
    bwd = lambda g, ins, out, meta: [K.softmax_backward(g, out, meta["mask"], out=g)]
    return fwd, bwd


@_op("attention_terms")
def _attention_terms():
    fwd = lambda ins, meta: K.attention_terms(*ins)

    def bwd(grad, ins, out, meta):
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

    return fwd, bwd


@_op("gather")
def _gather():
    fwd = lambda ins, meta: np.take(ins[0], meta["idx"], axis=0)

    def bwd(g, ins, out, meta):
        acc = np.zeros_like(ins[0])
        np.add.at(acc, meta["idx"], g)
        return [acc]

    return fwd, bwd


@_op("where_rows")
def _where_rows():
    # out[..., A, :] = vec where meta row mask is set, else a[..., A, :]
    fwd = lambda ins, meta: np.where(meta["rows"][..., None], ins[1], ins[0])

    def bwd(g, ins, out, meta):
        rows = meta["rows"][..., None]
        ga = np.where(rows, 0.0, g)
        gv = _unbroadcast(np.where(rows, g, 0.0), ins[1].shape)
        return [ga, gv]

    return fwd, bwd


@_op("concat")
def _concat():
    fwd = lambda ins, meta: np.concatenate(ins, axis=meta["axis"])

    def bwd(g, ins, out, meta):
        axis = meta["axis"]
        sizes = [a.shape[axis] for a in ins]
        return list(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return fwd, bwd


# ---------------------------------------------------------------------------
# Tape and variables

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

    def _push(self, op: str, inputs: tuple["Var", ...], meta: dict) -> "Var":
        for v in inputs:
            if v.tape is not self:
                raise TapeError("all operands must belong to the same tape")
        fwd, _ = _OPS[op]
        values = [v.value for v in inputs]
        out = np.asarray(fwd(values, meta))
        self.nodes.append(Node(op, tuple(v.idx for v in inputs), out, meta))
        return Var(self, len(self.nodes) - 1)

    def finish(self, result: "Var") -> None:
        if result.tape is not self:
            raise TapeError("result does not belong to this tape")
        if result.value.shape != ():
            raise TapeError(f"recorded result must be scalar, got {result.value.shape}")
        self.result = result.idx


@dataclass(frozen=True)
class Var:
    """Handle to one tape node.

    Operators and the ndarray methods below record the matching primitive,
    so array code records itself when handed Vars; a number times a Var,
    and its negation, is `scale`.
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

    def __add__(self, other: "Var") -> "Var":
        return add(self, other)

    def __sub__(self, other: "Var") -> "Var":
        return sub(self, other)

    def __mul__(self, other: "Var") -> "Var":
        return mul(self, other)

    def __rmul__(self, c: float) -> "Var":
        return scale(self, c)

    def __matmul__(self, other: "Var") -> "Var":
        return matmul(self, other)

    def __neg__(self) -> "Var":
        return scale(self, -1.0)

    def __pow__(self, n: int) -> "Var":
        return power(self, n)

    def transpose(self, *perm: int) -> "Var":
        return transpose(self, perm)

    def swapaxes(self, a: int, b: int) -> "Var":
        perm = list(range(self.value.ndim))
        perm[a], perm[b] = perm[b], perm[a]
        return transpose(self, tuple(perm))

    def reshape(self, shape: tuple[int, ...]) -> "Var":
        return reshape(self, shape)

    def sum(self, axis: int | None = None) -> "Var":
        return sum_(self, axis)


# ---------------------------------------------------------------------------
# Primitive constructors

def add(a: Var, b: Var) -> Var:
    return a.tape._push("add", (a, b), {})


def sub(a: Var, b: Var) -> Var:
    return a.tape._push("sub", (a, b), {})


def mul(a: Var, b: Var) -> Var:
    return a.tape._push("mul", (a, b), {})


def scale(a: Var, c: float) -> Var:
    return a.tape._push("scale", (a,), {"c": float(c)})


def matmul(a: Var, b: Var) -> Var:
    return a.tape._push("matmul", (a, b), {})


def transpose(a: Var, perm: tuple[int, ...]) -> Var:
    # normalize negative axes so the backward pass can invert the permutation
    n = a.value.ndim
    return a.tape._push("transpose", (a,), {"perm": tuple(p % n for p in perm)})


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    return a.tape._push("reshape", (a,), {"shape": tuple(shape)})


def sum_(a: Var, axis: int | None = None) -> Var:
    return a.tape._push("sum", (a,), {"axis": axis})


def relu(a: Var) -> Var:
    return a.tape._push("relu", (a,), {})


def power(a: Var, n: int) -> Var:
    return a.tape._push("power", (a,), {"n": int(n)})


def sigmoid(a: Var) -> Var:
    return a.tape._push("sigmoid", (a,), {})


def log(a: Var) -> Var:
    return a.tape._push("log", (a,), {})


def mean_subtract(a: Var) -> Var:
    return a.tape._push("mean_subtract", (a,), {})


def rsqrt_normalize(a: Var, epsilon: float) -> Var:
    return a.tape._push("rsqrt_normalize", (a,), {"epsilon": float(epsilon)})


def masked_softmax(a: Var, mask: Array | None) -> Var:
    return a.tape._push("masked_softmax", (a,), {"mask": mask})


def attention_terms(g: Var, a: Var, w: Var) -> Var:
    """Attention's "from" plus "to" term (see `_kernels.attention_terms`)."""
    return g.tape._push("attention_terms", (g, a, w), {})


def gather(a: Var, idx: Array) -> Var:
    return a.tape._push("gather", (a,), {"idx": np.asarray(idx, dtype=np.intp)})


def where_rows(a: Var, vec: Var, rows: Array) -> Var:
    """Replace rows of `a` (last-axis vectors) flagged by `rows` with `vec`."""
    return a.tape._push("where_rows", (a, vec), {"rows": np.asarray(rows, dtype=bool)})


def concat(parts: list[Var], axis: int = -1) -> Var:
    return parts[0].tape._push("concat", tuple(parts), {"axis": axis})


# ---------------------------------------------------------------------------
# Record / backward / replay / oracle

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

    The masked-softmax VJP writes dS into its gradient, so it gets a copy
    unless `_private` holds (`add` hands one array to both operands and
    `transpose`/`reshape` pass views).  No VJP returns a saved value or an
    input, so `replay` sees untouched values.
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
        if node.op == "masked_softmax" and not _private(g, grads):
            g = g.copy()
        _, bwd = _OPS[node.op]
        ins = [tape.nodes[i].value for i in node.inputs]
        for inp_idx, inp_grad in zip(node.inputs, bwd(g, ins, node.value, node.meta)):
            if inp_idx in grads:
                grads[inp_idx] = grads[inp_idx] + inp_grad
            else:
                grads[inp_idx] = inp_grad
    out = {}
    for name, idx in tape.params.items():
        g = grads.get(idx)
        out[name] = g if g is not None else np.zeros_like(tape.nodes[idx].value)
    return out


def replay(tape: Tape) -> int:
    """Re-execute every recorded primitive and check values bit-exactly.

    Returns the number of non-leaf nodes verified; raises TapeError on the
    first mismatch.
    """
    for idx, node in enumerate(tape.nodes):
        if node.op == "leaf":
            continue
        fwd, _ = _OPS[node.op]
        redone = fwd([tape.nodes[i].value for i in node.inputs], node.meta)
        if not np.array_equal(redone, node.value):
            raise TapeError(f"replay mismatch at node {idx} ({node.op})")
    return sum(1 for n in tape.nodes if n.op != "leaf")


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
