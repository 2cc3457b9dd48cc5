"""Tapeless inference: lower a model's eval-mode forward to a flat program.

:meth:`MultiTaskModel.predict` runs the training graph in inference
mode: it flips every module's ``training`` flag, builds a ``Tensor``
per op under ``no_grad`` and flips the flags back.  For a 16-candidate
page that bookkeeping costs several times the arithmetic.
:func:`freeze` removes it.  It returns a :class:`FrozenScorer`, a
callable ``Batch -> Predictions`` that runs a flat list of numpy
kernels, with no ``Module``, ``Tensor`` or tape in the loop and no
change to any module's ``training`` flag.

Lowering (done once, in :func:`freeze`):

1. **Trace.** Every module is switched to eval mode, ``forward_tensors``
   runs once under ``no_grad`` with the plan tracer installed
   (:mod:`repro.autograd.planmode`), and each module's own flag is put
   back.  The model's :class:`~repro.models.components.FeatureEmbedding`
   is stood in for by placeholder tensors during the trace, so the tape
   starts at the ``(deep, wide)`` embedding vectors.
2. **Embedding stage.** Batch data enters the model only through the
   feature embedding, which is lowered explicitly from the schema: per
   sparse column a bounds check (the same
   :func:`~repro.nn.embedding.check_indices` as ``Embedding.forward``)
   and a gather into its slice of the deep or wide buffer, then each
   dense column copied into its slice.
3. **Prune.** Only records that feed ``ctr``, ``cvr``, ``ctcvr`` and
   ``cvr_counterfactual`` are kept (the DR imputation tower, for one,
   is dead at inference).
4. **Emit.** Each kept record becomes one line of a straight-line
   Python function (``FrozenScorer.source``) calling an out-of-place
   kernel that issues the same ufuncs in the same order as its eager op
   (the multi-ufunc ones are the shared array kernels of
   :mod:`repro.autograd.ops`), so the result is bit-exact with
   ``predict``.  A reshape of a batch-shaped value keeps its batch axis
   free, so one program serves every page width.
5. **Verify.** The program runs on a probe batch of a second width and
   must equal the eager forward bit for bit, or :func:`freeze` raises.

Weights are bound by reference: every parameter's ``.data`` and every
table's row count are read when the scorer is called, so an in-place
``Embedding.grow``, ``load_state_dict`` or checkpoint restore is seen
without rebuilding.  A change of architecture is not: build a new
scorer for a new model.

An op with no lowering, a captured constant that is not a scalar, or a
program that disagrees with the eager forward makes :func:`freeze`
raise :class:`~repro.autograd.plan.PlanUnsupported`; there is no
fallback to ``predict``.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import ops
from repro.autograd import planmode as _planmode
from repro.autograd.plan import PlanTracer, PlanUnsupported
from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataset import Batch
from repro.models.base import MultiTaskModel, Predictions
from repro.models.components import FeatureEmbedding
from repro.nn.embedding import check_indices

#: Outputs a scorer returns, in :class:`Predictions` field order.
OUTPUTS = ("ctr", "cvr", "ctcvr", "cvr_counterfactual")
#: Probe widths: the trace runs at one, the verification at the other.
_TRACE_ROWS = 3
_VERIFY_ROWS = 5


def freeze(model: MultiTaskModel) -> "FrozenScorer":
    """Lower ``model``'s inference forward to a :class:`FrozenScorer`."""
    return FrozenScorer(model)


class FrozenScorer:
    """A callable ``Batch -> Predictions`` bit-exact with ``model.predict``.

    Build it with :func:`freeze`.  Calling it reads the model's current
    weights and never touches a module's ``training`` flag.
    """

    def __init__(self, model: MultiTaskModel) -> None:
        embedding = _feature_embedding(model)
        self._embed = _EmbeddingStage(embedding)
        modes = [(m, m.training) for m in model.modules()]
        try:
            for module, _ in modes:
                module.training = False
            outputs, tracer, inputs = _trace(model, embedding, self._embed)
            self._lower(model, outputs, tracer, inputs)
            self._verify(model)
        finally:
            for module, flag in modes:
                module.training = flag

    # ------------------------------------------------------------------
    def __call__(self, batch: Batch) -> Predictions:
        deep, wide = self._embed(batch)
        ctr, cvr, ctcvr, cf = self._program(deep, wide, [p.data for p in self._params])
        return Predictions(
            ctr=ctr,
            cvr=cvr,
            ctcvr=ctr * cvr if ctcvr is None else ctcvr,
            cvr_counterfactual=cf,
        )

    # ------------------------------------------------------------------
    def _lower(self, model, outputs, tracer: PlanTracer, inputs) -> None:
        """Emit the live records as one straight-line Python function.

        The function takes ``(deep, wide, params)`` and returns the four
        outputs (``None`` for one the model does not produce); kernels and
        scalar constants are bound in its globals.  Straight-line code
        with local variables costs a fraction of an interpreter loop over
        a slot list, which matters at 16 rows.
        """
        records, by_id = tracer.records, tracer.by_id
        roots = {}
        for key in OUTPUTS:
            if outputs.get(key) is None:
                continue
            index = by_id.get(id(outputs[key]))
            if index is None:
                raise PlanUnsupported(f"output {key!r} was not produced by a traced op")
            roots[key] = index
        if "ctr" not in roots or "cvr" not in roots:
            raise PlanUnsupported("forward_tensors must return 'ctr' and 'cvr'")
        live = _live_records(records, by_id, roots.values())

        names = {id(t): n for t, n in zip(inputs, ("deep", "wide")) if t is not None}
        names.update((id(records[i].out), f"v{i}") for i in live)
        batched = {id(t) for t in inputs if t is not None}
        param_ids = {id(p) for p in model.parameters()}
        params: List[Tensor] = []
        namespace: Dict[str, object] = {}
        body = []
        for index in live:
            rec = records[index]
            args = []
            for operand in rec.operands:
                name = names.get(id(operand))
                if name is None:
                    if id(operand) in param_ids:
                        name = f"p{len(params)}"
                        params.append(operand)
                    else:
                        name = f"c{len(namespace)}"
                        namespace[name] = _constant(rec.op, operand)
                    names[id(operand)] = name
                args.append(name)
            is_batched = any(id(o) in batched for o in rec.operands)
            if is_batched:
                batched.add(id(rec.out))
            namespace[f"k{index}"] = _kernel(rec, is_batched)
            body.append(f"    v{index} = k{index}({', '.join(args)})")
        returns = ", ".join(
            f"v{roots[key]}" if key in roots else "None" for key in OUTPUTS
        )
        source = "\n".join(
            ["def program(deep, wide, params):"]
            + ([f"    {', '.join(f'p{k}' for k in range(len(params)))}, = params"]
               if params else [])
            + body
            + [f"    return {returns}"]
        )
        exec(compile(source, f"<frozen {type(model).__name__}>", "exec"), namespace)
        self._program = namespace["program"]
        self._params = params
        self.source = source

    def _verify(self, model: MultiTaskModel) -> None:
        probe = _probe_batch(self._embed.schema, _VERIFY_ROWS)
        with no_grad():
            eager = model.forward_tensors(probe)
        frozen = self(probe)
        for key in OUTPUTS:
            got = getattr(frozen, key)
            want = eager.get(key)
            if got is None and want is None:
                continue
            if got is None or want is None or not np.array_equal(got, want.data):
                raise PlanUnsupported(
                    f"frozen program disagrees with the eager forward on {key!r}"
                )


# ======================================================================
# Trace
# ======================================================================
def _feature_embedding(model: MultiTaskModel) -> FeatureEmbedding:
    found = {id(m): m for m in model.modules() if isinstance(m, FeatureEmbedding)}
    if len(found) != 1:
        raise PlanUnsupported(
            f"freeze needs exactly one FeatureEmbedding, found {len(found)}"
        )
    return next(iter(found.values()))


def _probe_batch(schema, rows: int) -> Batch:
    """A valid batch of ``rows`` rows: in-range ids, finite dense values."""
    sparse = {
        f.name: np.arange(rows, dtype=np.int64) % f.vocab_size for f in schema.sparse
    }
    dense = {}
    for f in schema.dense:
        column = np.linspace(0.0, 1.0, rows * f.dim)
        dense[f.name] = column if f.dim == 1 else column.reshape(rows, f.dim)
    zeros = np.zeros(rows, dtype=np.int64)
    return Batch(sparse=sparse, dense=dense, clicks=zeros, conversions=zeros)


def _trace(model, embedding: FeatureEmbedding, stage: "_EmbeddingStage"):
    """Record the eval forward downstream of the feature embedding.

    The embedding instance's ``forward`` is shadowed for the trace so it
    hands back placeholder tensors; their ids mark where the lowered
    embedding stage feeds the program.
    """
    probe = _probe_batch(stage.schema, _TRACE_ROWS)
    deep, wide = stage(probe)
    inputs = (Tensor(deep), None if wide is None else Tensor(wide))
    embedding.forward = lambda batch: inputs
    tracer = PlanTracer()
    previous = _planmode.set_tracer(tracer)
    try:
        with no_grad():
            outputs = model.forward_tensors(probe)
    finally:
        _planmode.set_tracer(previous)
        del embedding.forward
    return outputs, tracer, inputs


def _constant(op: str, operand):
    """A captured operand: ``None`` (an absent bias) or a scalar."""
    if operand is None:
        return None
    value = operand.data if isinstance(operand, Tensor) else np.asarray(operand)
    if value.ndim != 0:
        raise PlanUnsupported(
            f"op {op!r} reads a captured non-scalar constant of shape "
            f"{value.shape}; only parameters and the feature embedding may "
            "carry arrays"
        )
    return value


def _live_records(records, by_id, roots) -> List[int]:
    """Indices of the records the roots depend on, in execution order."""
    live = set()
    stack = list(roots)
    while stack:
        index = stack.pop()
        if index in live:
            continue
        live.add(index)
        for operand in records[index].operands:
            if isinstance(operand, Tensor):
                parent = by_id.get(id(operand))
                if parent is not None:
                    stack.append(parent)
    return sorted(live)


# ======================================================================
# Kernels
# ======================================================================
_UNARY = {
    "neg": operator.neg,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "absolute": np.abs,
    "sigmoid": ops.sigmoid_array,
}
_BINARY = {
    "add": operator.add,
    "mul": operator.mul,
    "div": operator.truediv,
    "matmul": operator.matmul,
    "maximum": np.maximum,
}


def _kernel(rec, batched: bool) -> Callable:
    """The out-of-place numpy equivalent of one traced eager op."""
    op, attrs = rec.op, rec.attrs
    if op in _UNARY:
        return _UNARY[op]
    if op in _BINARY:
        return _BINARY[op]
    if op == "affine":
        return ops.affine_array
    if op == "relu":
        return _relu
    if op == "leaky_relu":
        return partial(ops.leaky_relu_array, negative_slope=attrs[0])
    if op == "softmax":
        return partial(ops.softmax_array, axis=attrs[0])
    if op == "pow":
        return partial(_pow, n=attrs[0])
    if op == "clip":
        return partial(_clip, low=attrs[0], high=attrs[1])
    if op == "where":
        return np.where
    if op == "squeeze":
        return partial(np.squeeze, axis=attrs[0])
    if op == "transpose":
        return partial(np.transpose, axes=attrs[0])
    if op == "sum":
        return partial(_sum, axis=attrs[0], keepdims=attrs[1])
    if op == "concat":
        return partial(_concat, axis=attrs[0])
    if op == "stack":
        return partial(_stack, axis=attrs[0])
    if op == "reshape":
        shape = attrs[0]
        if not batched:
            return partial(_reshape, shape=shape)
        rows = rec.operands[0].data.shape[0]
        if shape[0] != rows:
            raise PlanUnsupported(
                f"reshape to {shape} moves the batch axis ({rows} rows)"
            )
        return partial(_reshape_rows, tail=tuple(shape[1:]))
    if op == "getitem" and not batched:
        return partial(_getitem, index=attrs[0])
    raise PlanUnsupported(f"op {op!r} has no frozen lowering")


def _relu(a):
    return np.maximum(a, 0.0)


def _pow(a, n):
    return a**n


def _clip(a, low, high):
    return np.clip(a, low, high)


def _sum(a, axis, keepdims):
    return a.sum(axis=axis, keepdims=keepdims)


def _concat(*parts, axis):
    return np.concatenate(parts, axis=axis)


def _stack(*parts, axis):
    return np.stack(parts, axis=axis)


def _reshape(a, shape):
    return a.reshape(shape)


def _reshape_rows(a, tail):
    return a.reshape((a.shape[0],) + tail)


def _getitem(a, index):
    return a[index]


# ======================================================================
# Embedding stage
# ======================================================================
class _EmbeddingStage:
    """``FeatureEmbedding.forward`` lowered from the schema.

    Returns ``(deep, wide)`` arrays laid out exactly like the eager
    concat: sparse features in schema order, then dense features, each
    routed to the deep or wide part by its ``kind``.
    """

    def __init__(self, embedding: FeatureEmbedding) -> None:
        self.schema = schema = embedding.schema
        self._sparse = [
            (f.name, embedding.tables[f.name], f.kind == "wide") for f in schema.sparse
        ]
        self._dense = [(f.name, f.kind == "wide") for f in schema.dense]
        if not any(not wide for _, _, wide in self._sparse) and not any(
            not wide for _, wide in self._dense
        ):
            raise PlanUnsupported("schema produced no deep features")

    def __call__(self, batch: Batch) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        ids = [np.asarray(batch.sparse[name]) for name, _, _ in self._sparse]
        if ids:
            # Signed ids only need a lower bound here: one pass over all
            # of them.  Anything else (a negative id, an unsigned or
            # non-integer column) runs the per-column checks of
            # ``Embedding.forward``, in schema order.
            flat = np.concatenate(ids)
            if (
                flat.dtype.kind != "i"
                or (flat.size and flat.min() < 0)
                or any(idx.dtype.kind != "i" for idx in ids)
            ):
                for idx, (_, table, _) in zip(ids, self._sparse):
                    check_indices(idx, table.num_embeddings)
                    if idx.dtype.kind not in "iu":
                        raise TypeError(f"indices must be integers, got {idx.dtype}")
        parts: Tuple[list, list] = ([], [])
        for idx, (_, table, wide) in zip(ids, self._sparse):
            try:
                # ``take`` raises on an id past the end; the ids it would
                # wrap (negative, or unsigned past 2**63) passed the
                # checks above only if there were none.
                parts[wide].append(table.weight.data.take(idx, axis=0))
            except IndexError:
                check_indices(idx, table.num_embeddings)
                raise
        for name, wide in self._dense:
            column = np.asarray(batch.dense[name], dtype=float)
            if column.ndim == 1:
                column = column[:, None]
            parts[wide].append(column)
        deep = np.concatenate(parts[0], axis=1)
        wide = np.concatenate(parts[1], axis=1) if parts[1] else None
        return deep, wide
