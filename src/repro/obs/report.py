"""Profile reports: the frozen, serializable result of a profiled run.

The JSON schema (``SCHEMA_VERSION`` 1, documented with field-by-field
semantics in docs/OBSERVABILITY.md)::

    {
      "version": 1,
      "meta":     {"entry": ..., "backend": ..., ...},      # free-form strings
      "spans":    [{"name", "depth", "start_us", "duration_us"}, ...],
      "counters": [{"layer", "op", "calls", "elements",
                    "bytes_moved", "max_frame_len"}, ...],
      "totals":   {"vector_ops", "elements", "bytes_moved"}  # kernel layer
    }

:func:`validate_profile` checks a decoded document against this schema and
is used both by the test suite and by downstream consumers of
``profile.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.counters import Counter, SpanRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.counters import Profiler

SCHEMA_VERSION = 1

#: Every layer the profiler records, in the order it is rendered and
#: serialized.
LAYERS = ("kernel", "segment", "vm", "native", "serve")

_LAYER_TITLES = {
    "kernel": "vector-model kernels (depth-1 ops)",
    "segment": "segmented CVL kernels (flat layer)",
    "vm": "VCODE VM (charged op widths)",
    "native": "native C kernels (serial or threaded)",
    "serve": "serving layer (queue, batches, tiers, pool)",
}


@dataclass
class ProfileReport:
    """Spans + counters of one profiled run, with table and JSON views."""

    meta: dict[str, Any] = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    counters: list[Counter] = field(default_factory=list)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_profiler(cls, profiler: "Profiler",
                      meta: Optional[dict] = None) -> "ProfileReport":
        spans = sorted(profiler.spans, key=lambda s: s.start)
        counters = [c for layer in LAYERS
                    for c in profiler.layer_counters(layer)]
        return cls(meta=dict(meta or {}), spans=spans, counters=counters)

    # -- aggregate views ----------------------------------------------------

    def layer(self, layer: str) -> list[Counter]:
        return [c for c in self.counters if c.layer == layer]

    def counter(self, op: str, layer: str = "kernel") -> Optional[Counter]:
        for c in self.counters:
            if c.layer == layer and c.op == op:
                return c
        return None

    def total_calls(self, layer: str = "kernel") -> int:
        return sum(c.calls for c in self.layer(layer))

    def total_elements(self, layer: str = "kernel") -> int:
        return sum(c.elements for c in self.layer(layer))

    def total_bytes(self, layer: str = "kernel") -> int:
        return sum(c.bytes_moved for c in self.layer(layer))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "meta": {k: str(v) for k, v in self.meta.items()},
            "spans": [s.to_dict() for s in self.spans],
            "counters": [c.to_dict() for c in self.counters],
            "totals": {
                "vector_ops": self.total_calls("kernel"),
                "elements": self.total_elements("kernel"),
                "bytes_moved": self.total_bytes("kernel"),
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    # -- rendering ----------------------------------------------------------

    def table(self) -> str:
        """Human-readable report: the phase span tree, then one counter
        table per layer, then kernel-layer totals."""
        out: list[str] = []
        if self.meta:
            pairs = "  ".join(f"{k}={v}" for k, v in self.meta.items())
            out.append(f"profile: {pairs}")
        if self.spans:
            out.append("phases:")
            for s in self.spans:
                pad = "  " * (s.depth + 1)
                out.append(f"{pad}{s.name:<{max(2, 34 - 2 * s.depth)}}"
                           f"{s.duration * 1e3:10.3f} ms")
        for layer in LAYERS:
            cells = self.layer(layer)
            if not cells:
                continue
            out.append(f"{_LAYER_TITLES[layer]}:")
            out.append(f"  {'op':<24}{'calls':>8}{'elements':>12}"
                       f"{'bytes':>14}{'max-frame':>11}")
            for c in cells:
                out.append(f"  {c.op:<24}{c.calls:>8}{c.elements:>12}"
                           f"{c.bytes_moved:>14}{c.max_frame_len:>11}")
        out.append(f"totals: {self.total_calls('kernel')} vector ops, "
                   f"{self.total_elements('kernel')} elements, "
                   f"{self.total_bytes('kernel')} bytes moved")
        return "\n".join(out)


def validate_profile(doc: Any) -> list[str]:
    """Check a decoded ``profile.json`` document against the schema;
    returns a list of problems (empty = valid)."""
    errs: list[str] = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            errs.append(msg)

    expect(isinstance(doc, dict), "document is not an object")
    if not isinstance(doc, dict):
        return errs
    expect(doc.get("version") == SCHEMA_VERSION,
           f"version != {SCHEMA_VERSION}")
    expect(isinstance(doc.get("meta"), dict), "meta is not an object")
    if isinstance(doc.get("meta"), dict):
        for k, v in doc["meta"].items():
            expect(isinstance(k, str) and isinstance(v, str),
                   f"meta entry {k!r} is not string->string")
    expect(isinstance(doc.get("spans"), list), "spans is not an array")
    for i, s in enumerate(doc.get("spans") or []):
        for key, typ in (("name", str), ("depth", int),
                         ("start_us", (int, float)),
                         ("duration_us", (int, float))):
            expect(isinstance(s, dict) and isinstance(s.get(key), typ),
                   f"spans[{i}].{key} missing or mistyped")
    expect(isinstance(doc.get("counters"), list), "counters is not an array")
    for i, c in enumerate(doc.get("counters") or []):
        for key, typ in (("layer", str), ("op", str), ("calls", int),
                         ("elements", int), ("bytes_moved", int),
                         ("max_frame_len", int)):
            expect(isinstance(c, dict) and isinstance(c.get(key), typ),
                   f"counters[{i}].{key} missing or mistyped")
        if isinstance(c, dict) and isinstance(c.get("layer"), str):
            expect(c["layer"] in LAYERS, f"counters[{i}].layer unknown")
    totals = doc.get("totals")
    expect(isinstance(totals, dict), "totals is not an object")
    if isinstance(totals, dict):
        for key in ("vector_ops", "elements", "bytes_moved"):
            expect(isinstance(totals.get(key), int),
                   f"totals.{key} missing or mistyped")
        if not errs and isinstance(doc.get("counters"), list):
            kernel = [c for c in doc["counters"] if c.get("layer") == "kernel"]
            expect(totals["vector_ops"] == sum(c["calls"] for c in kernel),
                   "totals.vector_ops != sum of kernel calls")
    return errs
