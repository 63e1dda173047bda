"""The serve options are declared once and documented once:
``PoolConfig`` / ``PoolStats`` extend ``ServeConfig`` / ``ServeStats``
without retyping a field, and the options table of docs/SERVING.md lists
exactly the fields the dataclasses have, with their defaults."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from repro.serve import PoolConfig, PoolStats, ServeConfig, ServeStats

SERVING_MD = Path(__file__).resolve().parents[2] / "docs" / "SERVING.md"


def declared(cls) -> set:
    """The fields ``cls`` itself declares (not the inherited ones)."""
    return set(vars(cls).get("__annotations__", ()))


def test_no_field_is_declared_twice():
    # `workers` legitimately differs: 1 dispatcher thread, 2 processes
    assert declared(PoolConfig) & declared(ServeConfig) == {"workers"}
    assert not declared(PoolStats) & declared(ServeStats)
    assert issubclass(PoolConfig, ServeConfig)
    assert issubclass(PoolStats, ServeStats)
    assert len(declared(ServeConfig)) + len(declared(PoolConfig)) <= 19
    shared = [f for f in fields(ServeConfig) if f.name != "workers"]
    assert all(getattr(PoolConfig(), f.name) == f.default for f in shared)


def test_serving_md_lists_every_option_with_its_default():
    table = SERVING_MD.read_text().split("## Options")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| `?([^|`]*)`? \|", table, re.M)
    assert [name for name, _ in rows] == [f.name for f in fields(PoolConfig)]
    for (name, shown), f in zip(rows, fields(ServeConfig)):
        assert ast.literal_eval(shown) == f.default, name
    for name, shown in rows[len(fields(ServeConfig)):]:
        value = getattr(PoolConfig(), name)
        if shown.endswith("()"):        # a policy object with its defaults
            assert shown == f"{type(value).__name__}()", name
            assert value == type(value)(), name
        else:
            assert ast.literal_eval(shown) == value, name
