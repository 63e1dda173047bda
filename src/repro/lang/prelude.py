"""Derived functions of P, written in P itself (paper section 2).

The paper defines ``concat``, ``reduce`` and ``flatten`` as user-level P
functions; we keep those P-level versions (suffixed ``_p``) alongside the
native extended primitives (``concat``, ``flatten``, ``sum``) so the
section-4.5 ablation (benchmark E11) can compare the two.

``distribute`` is Table 2's generalized ``dist`` expressed via the base
``dist`` of section 3, and ``reduce`` is the higher-order pairwise-halving
reduction: a recursive, nested-data-parallel, higher-order function — the
trifecta the conclusion claims the transformation covers.

Being P source, the prelude goes through the whole front end; being the
same source for every program, it goes through once per process.  The
result is the :class:`PreludeImage` (docs/INTERNALS.md, "The prelude
image"): :func:`merge_with_prelude` hands out its parsed definitions, and
``canonicalize_program``, ``CanonicalPass.postcondition`` and
``typecheck_program`` recognize those objects — by identity — and reuse
what the image holds for them.  There is no switch: a program built from
:func:`prelude_program`'s fresh parse takes every stage in full.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.lang import ast as A
from repro.lang.parser import parse_program
from repro.lang.types import TFun

PRELUDE_SOURCE = """
-- Table 2 dist (elementwise) via the section-3 base dist
fun distribute(v, r) = [i <- [1..#v]: dist(v[i], r[i])]

-- paper section 2: concat as a data-parallel function
fun concat_p(v, w) =
  [i <- [1..#v + #w]: if i <= #v then v[i] else w[i - #v]]

-- higher-order pairwise-halving reduction; nonempty input required
-- (#v == 0 falls into v[1], raising the index error rather than looping)
fun reduce(f, v) =
  if #v <= 1 then v[1]
  else let h = #v div 2,
           w = [i <- [1..h]: f(v[2*i - 1], v[2*i])]
       in if 2*h == #v then reduce(f, w)
          else reduce(f, concat(w, [v[#v]]))

fun reduce_with(f, z, v) = if #v == 0 then z else reduce(f, v)

-- paper section 2: flatten via reduction with concat
fun flatten_p(v) = if #v == 0 then [] else reduce(concat_p, v)

fun zip2(v, w) = [i <- [1..#v]: (v[i], w[i])]

fun append(v, x) = concat(v, [x])

fun reverse(v) = [i <- [1..#v]: v[#v - i + 1]]

fun take(v, n) = [i <- [1..n]: v[i]]

fun drop(v, n) = [i <- [1..#v - n]: v[i + n]]

fun count(m) = sum([i <- [1..#m]: if m[i] then 1 else 0])

fun sum_p(v) = if #v == 0 then 0 else reduce(add, v)

fun maxval_p(v) = reduce(max2, v)

fun minval_p(v) = reduce(min2, v)

fun even(a) = 0 == a mod 2

fun odd(a) = 1 == a mod 2

-- sorting via the CVL rank/permute primitives: one rank + one scatter
fun sort(v) = permute(v, rank(v))

-- sort one sequence by the keys of another (stable)
fun sort_by(keys, v) = permute(v, rank(keys))

-- sorted merge and a divide-and-conquer merge sort written in P
fun merge(a, b) = sort(concat(a, b))

fun msort(v) =
  if #v <= 1 then v
  else let h = #v div 2,
           parts = [p <- [take(v, h), drop(v, h)]: msort(p)]
       in merge(parts[1], parts[2])

-- deduplicate (result ascending)
fun unique(v) =
  let s = sort(v)
  in [i <- [1..#s] | if i == 1 then true else s[i] != s[i - 1]: s[i]]

fun member(x, v) = anytrue([y <- v: y == x])

-- 1-origin index of the first occurrence, or 0 if absent
fun index_of(x, v) =
  let hits = [i <- [1..#v] | v[i] == x: i]
  in if #hits == 0 then 0 else hits[1]

fun dotp(a, b) = sum([i <- [1..#a]: a[i] * b[i]])

-- pair every element with its 1-origin position
fun enumerate2(v) = zip2(range1(#v), v)

fun map_p(f, v) = [x <- v: f(x)]

fun filter_p(f, v) = [x <- v | f(x): x]
"""


def prelude_program() -> A.Program:
    """Parse the prelude into a fresh Program (never the image's objects:
    it takes the uncached path through every stage, which makes it the
    oracle the image is tested against)."""
    return parse_program(PRELUDE_SOURCE)


@dataclass(frozen=True)
class PreludeImage:
    """The prelude compiled once: what every stage of the front end would
    compute for it in a program that shadows none of its names.  Stages
    recognize the image's definitions by object identity, never by name
    or text, so an equal-looking definition from anywhere else takes the
    ordinary path."""

    raw: A.Program          #: as parsed
    canonical: A.Program    #: R1 form, ``verify:canonicalize`` discharged
    schemes: dict[str, TFun]
    #: per definition, every global name -- prelude function or builtin --
    #: it transitively references: its scheme holds in any program that
    #: gives all of these the meaning they have here
    refs: dict[str, frozenset[str]]

    def canonical_of(self, d: A.FunDef) -> Optional[A.FunDef]:
        """The canonical form of ``d`` if ``d`` is one of ``raw``'s own
        definitions."""
        if self.raw.defs.get(d.name) is d:
            return self.canonical.defs[d.name]
        return None

    def is_canonical(self, d: A.FunDef) -> bool:
        """True when ``d`` is one of ``canonical``'s own definitions."""
        return self.canonical.defs.get(d.name) is d


#: what :func:`built_image` answers until the first merge: no program can
#: hold an image object before then, so nothing is recognized
_UNBUILT = PreludeImage(A.Program({}), A.Program({}), {}, {})
_image = _UNBUILT
_image_lock = threading.Lock()


def prelude_image() -> PreludeImage:
    """The process's :class:`PreludeImage`, built on first use."""
    global _image
    if _image is _UNBUILT:
        with _image_lock:
            if _image is _UNBUILT:
                _image = _build_image()
    return _image


def built_image() -> PreludeImage:
    """The image as far as it exists: what the stages after the merge
    consult, so that a program compiled without the prelude never builds
    it."""
    return _image


def _build_image() -> PreludeImage:
    # the stages below import this package: resolve them at first use
    from repro.analysis.verify import verify_canonical
    from repro.lang.typecheck import typecheck_program
    from repro.transform.canonical import canonicalize_program

    # a fresh parse, and no image to recognize yet: every stage in full
    raw = prelude_program()
    canonical = canonicalize_program(raw)
    verify_canonical(canonical)
    schemes = typecheck_program(canonical).schemes
    direct = {d.name: A.free_vars(d.body, frozenset(d.params))
              for d in canonical}
    refs = {}
    for name in direct:
        seen: set[str] = set()
        todo = [name]
        while todo:
            for r in direct.get(todo.pop(), ()):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        refs[name] = frozenset(seen)
    return PreludeImage(raw, canonical, schemes, refs)


def merge_with_prelude(user: A.Program) -> A.Program:
    """User program plus any prelude definitions it does not override --
    the image's own ``FunDef`` objects, which is how the later stages
    recognize them."""
    defs = {n: d for n, d in prelude_image().raw.defs.items()
            if n not in user.defs}
    defs.update(user.defs)
    return A.Program(defs)
