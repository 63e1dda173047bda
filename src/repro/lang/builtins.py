"""Catalog of the basic functions of P (paper Table 2) plus the internal
primitives introduced by the transformation and the "extended" primitives of
section 4.5.

Each entry carries a *type scheme* (instantiated fresh at every use site), a
category, and per-argument metadata used by the section-4.5 optimization
("certain functions may have parameters that should not be extracted and
inserted" — e.g. the source argument of ``seq_index``).

The catalog is also the one place that says what kind of op a primitive
is: its op class (a map, a reduce or scan, a gather, a replicate or a
descriptor op — :mod:`repro.machine.opclasses`), whether it is a
segmented fold and of which kind, the leaf kind of its result, read
off the scheme, and its shape class: *static* when the result's
descriptor chain is its argument's, passed through, projected or sized
from it, so a valid argument gives a valid result, or *runtime* when the
kernel computes new descriptors from data (a gather, a pack, a merge, a
replication).  :func:`shape_class` answers for the internal forms the
transformation emits without a row too.  The shape and cost analyses,
``check="static"``, the fusion pass, the NumPy kernels, the C emitter
and the machine model read these rows; each lane
keeps only its *implementation* (the interpreter's ``PRIM_IMPLS``, the
NumPy kernels, the C lowering).  A new primitive is one row here plus
those implementations.

Notes on ``dist``
-----------------
Section 3 defines the base ``dist(c, r) = [i <- [1..r]: c]`` taking a single
value and a count; Table 2 shows the *depth-k* version acting elementwise
(``dist([3,4,5],[3,2,1]) = [[3,3,3],[4,4,4],[5]]``), which is exactly the
depth-1 parallel extension of the base form.  The builtin here is the base
form; the Table-2 behaviour is the prelude function ``distribute`` (defined
in P itself) or equivalently ``dist``'s parallel extension, which is what the
transformation emits.
"""

from __future__ import annotations

import functools
import itertools
import string
from dataclasses import dataclass
from typing import Callable, Optional

from repro.lang import types as T
from repro.lang.types import BOOL, FLOAT, INT, TFun, TSeq, TVar, fresh_tvar

#: the scalar leaf kinds, in the order a kind list is given
_KINDS = {INT: "int", BOOL: "bool", FLOAT: "float"}


@dataclass(frozen=True)
class Builtin:
    """Static description of one primitive function."""

    name: str
    scheme: Callable[[], TFun]
    category: str  # "scalar" | "seq" | "internal" | "extended"
    #: the machine model's class: elementwise, scan_reduce, gather_scatter,
    #: replicate or structure
    op_class: str
    #: a segmented fold's kind, "reduce" (one result per segment) or "scan"
    #: (one per element); ``strict``: it has no identity, so an empty
    #: segment is an error
    fold: Optional[str]
    strict: bool
    #: 0-based positions of arguments that the section-4.5 optimization may
    #: leave at depth 0 (shared) instead of replicating to the frame depth.
    shared_args: frozenset[int]
    #: read off the scheme: the result's leaf kind when it is fixed, else
    #: the operand ``kind_from`` whose kind it inherits; the leaf kinds
    #: operand 0 admits
    result_kind: Optional[str]
    kind_from: Optional[int]
    arg_kinds: tuple[str, ...]
    #: ``(class, reason)``: "static" or "runtime" (see :func:`shape_class`)
    shape: tuple[str, str]

    @property
    def elementwise(self) -> bool:
        """True if the primitive is pure elementwise on scalar leaves, so
        its depth-d extension is the same flat kernel for every d."""
        return self.category == "scalar"

    def fresh_type(self) -> TFun:
        """A fresh instantiation of the signature."""
        return self.scheme()


def _ii_i() -> TFun:
    return TFun((INT, INT), INT)


def _nn_n() -> TFun:
    a = fresh_tvar(numeric_only=True)
    return TFun((a, a), a)


def _n_n() -> TFun:
    a = fresh_tvar(numeric_only=True)
    return TFun((a,), a)


def _nn_b() -> TFun:
    a = fresh_tvar(numeric_only=True)
    return TFun((a, a), BOOL)


def _bb_b() -> TFun:
    return TFun((BOOL, BOOL), BOOL)


_TABLE: dict[str, Builtin] = {}

#: the shape class of a map, of each kind of fold, and of a name nothing
#: classifies
_MAP = ("static", "elementwise: result reuses the argument's descriptor "
                  "chain unchanged")
_FOLD = {"scan": ("static", "segmented scan: result reuses the argument's "
                            "full descriptor chain"),
         "reduce": ("static", "segmented reduction: result projects the "
                              "argument's outer descriptor level")}
_UNCLASSIFIED = ("runtime", "unclassified primitive: boundary check "
                            "retained")


def _def(name: str, scheme: Callable[[], TFun], category: str,
         op_class: str = "elementwise", shared: tuple[int, ...] = (),
         fold: Optional[str] = None, strict: bool = False,
         shape: Optional[tuple[str, str]] = None) -> None:
    # the scheme's facts, read on a counter of its own: a row must not
    # renumber the type variables of later type errors
    ids, T._var_ids = T._var_ids, itertools.count()
    sig = scheme()
    T._var_ids = ids
    out, *args = [T.peel(t, T.seq_depth(t)) for t in (sig.result, *sig.params)]
    kind_from = next((i for i, t in enumerate(args) if t == out), None) \
        if isinstance(out, TVar) else None
    arg = args[0] if args else None
    arg_kinds = tuple(k for t, k in _KINDS.items()
                      if t == arg or isinstance(arg, TVar)
                      and not (arg.numeric_only and t == BOOL))
    if shape is None:
        shape = _FOLD[fold] if fold else \
            _MAP if category == "scalar" else _UNCLASSIFIED
    _TABLE[name] = Builtin(name, scheme, category,
                           "scan_reduce" if fold else op_class, fold, strict,
                           frozenset(shared), _KINDS.get(out), kind_from,
                           arg_kinds, shape)


# -- scalar functions (Table 2 row 1; arithmetic is numeric-polymorphic
#    over int and the Float extension, division stays integral) -------------
for _n in ("add", "sub", "mul", "max2", "min2"):
    _def(_n, _nn_n, "scalar")
for _n in ("div", "mod"):
    _def(_n, _ii_i, "scalar")
for _n in ("lt", "le", "gt", "ge"):
    _def(_n, _nn_b, "scalar")
for _n in ("and_", "or_"):
    _def(_n, _bb_b, "scalar")
_def("not_", lambda: TFun((BOOL,), BOOL), "scalar")
_def("neg", _n_n, "scalar")
_def("abs_", _n_n, "scalar")

# float-specific arithmetic and conversions (scalar extension)
_def("fdiv", lambda: TFun((FLOAT, FLOAT), FLOAT), "scalar")
_def("sqrt_", lambda: TFun((FLOAT,), FLOAT), "scalar")
_def("real", lambda: TFun((INT,), FLOAT), "scalar")
_def("trunc_", lambda: TFun((FLOAT,), INT), "scalar")
_def("round_", lambda: TFun((FLOAT,), INT), "scalar")
_def("floor_", lambda: TFun((FLOAT,), INT), "scalar")
_def("ceil_", lambda: TFun((FLOAT,), INT), "scalar")


def _eq_scheme() -> TFun:
    a = fresh_tvar(scalar_only=True)
    return TFun((a, a), BOOL)


_def("eq", _eq_scheme, "scalar")
_def("ne", _eq_scheme, "scalar")

# -- sequence functions (Table 2 rows 5-11) ---------------------------------


def _length_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(a),), INT)


def _range_scheme() -> TFun:
    return TFun((INT, INT), TSeq(INT))


def _range1_scheme() -> TFun:
    return TFun((INT,), TSeq(INT))


def _index_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(a), INT), a)


def _update_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(a), INT, a), TSeq(a))


def _restrict_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(a), TSeq(BOOL)), TSeq(a))


def _combine_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(BOOL), TSeq(a), TSeq(a)), TSeq(a))


def _dist_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((a, INT), TSeq(a))


_IOTA = ("static", "constructed: lengths clamped non-negative and values "
                   "sized to match")
_def("length", _length_scheme, "seq", "structure",
     shape=("static", "copies one validated descriptor level into values"))
_def("range", _range_scheme, "seq", "structure", shape=_IOTA)
_def("range1", _range1_scheme, "seq", "structure", shape=_IOTA)
_def("seq_index", _index_scheme, "seq", "gather_scatter", shared=(0,),
     shape=("runtime", "pool gather by flat offsets computed from index "
                       "data"))
_def("seq_update", _update_scheme, "seq", "gather_scatter", shared=(0,),
     shape=("runtime", "pool scatter by flat offsets computed from index "
                       "data"))
_def("restrict", _restrict_scheme, "seq", "gather_scatter",
     shape=("runtime", "pack by mask: descriptors recomputed from mask "
                       "counts"))
_def("combine", _combine_scheme, "seq", "gather_scatter",
     shape=("runtime", "merge by mask: descriptors interleaved from both "
                       "arms"))
_def("dist", _dist_scheme, "seq", "replicate",
     shape=("runtime", "replication: descriptors multiplied out per frame "
                       "element"))

# -- extended primitives (section 4.5: "advantageous to increase the set of
#    predefined functions in V") -------------------------------------------


def _flatten_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(TSeq(a)),), TSeq(a))


def _concat_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(a), TSeq(a)), TSeq(a))


_def("flatten", _flatten_scheme, "extended", "structure",
     shape=("runtime", "descriptor level dropped and pooled"))
_def("concat", _concat_scheme, "extended", "gather_scatter",
     shape=("runtime", "pairwise pooling of subsequence descriptors"))


def _agg_scheme() -> TFun:
    a = fresh_tvar(numeric_only=True)
    return TFun((TSeq(a),), a)


def _scan_scheme() -> TFun:
    a = fresh_tvar(numeric_only=True)
    return TFun((TSeq(a),), TSeq(a))


# the segmented folds; maxval and minval have no identity
for _n in ("sum", "maxval", "minval"):
    _def(_n, _agg_scheme, "extended", fold="reduce", strict=_n != "sum")
for _n in ("anytrue", "alltrue"):
    _def(_n, lambda: TFun((TSeq(BOOL),), BOOL), "extended", fold="reduce")
for _n in ("plus_scan", "max_scan"):
    _def(_n, _scan_scheme, "extended", fold="scan")


def _rank_scheme() -> TFun:
    a = fresh_tvar(numeric_only=True)
    return TFun((TSeq(a),), TSeq(INT))


def _permute_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((TSeq(a), TSeq(INT)), TSeq(a))


# rank and permute are primitives of CVL itself; with them, sorting is
# expressible in P as permute(v, rank(v)) (see the prelude)
_def("rank", _rank_scheme, "extended", "scan_reduce",
     shape=("runtime", "permutation vector derived from a stable sort"))
_def("permute", _permute_scheme, "extended", "gather_scatter",
     shape=("runtime", "pool scatter through a data-dependent permutation"))

# -- internal primitives emitted by the transformation -----------------------
# __rep(w, c): replicate depth-0 value c over the frame of witness w.
# __any(m):    True iff any element of the (arbitrarily nested) bool frame m.
# __empty(m):  empty frame shaped like m; element type comes from node.type.


def _rep_scheme() -> TFun:
    w = fresh_tvar()
    a = fresh_tvar()
    return TFun((w, a), a)


def _any_scheme() -> TFun:
    a = fresh_tvar()
    return TFun((a,), BOOL)


def _empty_scheme() -> TFun:
    a = fresh_tvar()
    b = fresh_tvar()
    return TFun((a,), b)


_def("__rep", _rep_scheme, "internal", "elementwise",
     shape=("static", "identity kernel: the replicated value is returned "
                      "unchanged"))
_def("__any", _any_scheme, "internal", "scan_reduce",
     shape=("static", "scalar boolean result; no descriptors"))
_def("__empty", _empty_scheme, "internal", "structure",
     shape=("static", "empty frame constructed from the validated mask's "
                      "outer level"))

#: the shape class of each internal form the transformation emits that has
#: no row, by name without its numeric suffix (``__fused<k>``,
#: ``__tuple_extract_<k>``); a fused region rooted at a segmented fold is
#: ``__fused/<fold kind>``
_FORM_SHAPES: dict[str, tuple[str, str]] = {
    "__seq_index_shared": ("runtime", "gather from the shared depth-0 "
                                      "source by per-element index data"),
    "__seq_index_segshared": ("runtime", "segmented gather against the "
                                         "un-replicated source"),
    "__seq_cons": ("runtime", "transpose-gather of item frames into "
                              "per-element sequences"),
    "__tuple_cons": ("static", "wrapper: tuple components are kept as-is"),
    "__tuple_extract_": ("static",
                         "projection of a validated tuple component"),
    "__iter": ("static", "identity view: a sequence at frame depth j "
                         "re-viewed as the depth-(j+1) frame of its "
                         "elements, no data touched"),
    "__fused": ("static", "fused elementwise chain: result reuses the "
                          "replicated first leaf's descriptors"),
    "__fused/scan": ("static", "fused chain under a segmented fold: result "
                               "reuses the first stream leaf's full "
                               "descriptor chain"),
    "__fused/reduce": ("static", "fused chain under a segmented fold: "
                                 "result projects the first stream leaf's "
                                 "outer descriptor level"),
}


#: the *checked* elementwise primitives: they raise ``PValueError`` on a
#: bad operand (division by zero, a negative square root) and the report
#: carries the faulting operand and source position, so they may neither
#: be fused into a kernel (``repro.transform.fuse``) nor evaluated earlier
#: than the source does (``repro.transform.simplify`` hoisting).  Every
#: other ``elementwise`` primitive is total.
CHECKED_ELEMENTWISE = frozenset({"div", "mod", "fdiv", "sqrt_"})


def is_builtin(name: str) -> bool:
    """True if ``name`` is in the primitive catalog (Table 2 and the
    internal helpers the transformation introduces)."""
    return name in _TABLE


def is_unchecked_elementwise(name: str) -> bool:
    """True for an elementwise primitive that cannot fail on any
    well-typed operand (the fusable, freely movable ones)."""
    b = _TABLE.get(name)
    return b is not None and b.elementwise \
        and name not in CHECKED_ELEMENTWISE


def get_builtin(name: str) -> Builtin:
    """The catalog entry of primitive ``name`` (``KeyError`` if none)."""
    return _TABLE[name]


def lookup(name: str) -> Optional[Builtin]:
    """The catalog entry of ``name``, or None when it is no primitive."""
    return _TABLE.get(name)


def shape_class(name: str, fold: Optional[str] = None) -> tuple[str, str]:
    """``(class, reason)`` of the primitive or internal form ``name``
    (``fold``: the fold kind a fused region is rooted at).  A kernel of
    class "static" makes a valid result from valid arguments, so
    ``check="static"`` does not re-validate it; a "runtime" kernel's
    descriptors are computed from data and are always re-validated, as is
    a name nothing classifies."""
    row = _TABLE.get(name)
    if row is not None:
        return row.shape
    form = name.rstrip(string.digits)
    return _FORM_SHAPES.get(form if fold is None else f"{form}/{fold}",
                            _UNCLASSIFIED)


@functools.lru_cache(maxsize=1024)
def is_static_kernel(name: str) -> bool:
    """True when kernel ``name``'s shape class is "static"."""
    return shape_class(name)[0] == "static"


def all_builtins() -> dict[str, Builtin]:
    """Read-only view of the catalog (tests iterate over it)."""
    return dict(_TABLE)


#: Builtin names that user programs may reference (internal ones excluded).
SURFACE_BUILTINS = frozenset(n for n, b in _TABLE.items() if b.category != "internal")
