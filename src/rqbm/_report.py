"""The one report format every result shares, and its one JSON writer.

A result's report is its dataclass fields in declaration order; nested
results become their reports, and tuples and lists become lists.  The CLI
writes these trees as JSON with ``to_json``, straight from the result
objects, and renders its aligned text from the tree that JSON holds.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INF, _NEG_INF = float("inf"), float("-inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == _NEG_INF:
        return "-Infinity"
    return float.__repr__(x)


# the leaves of each exact scalar type; bool and None admit no subclasses
_LEAVES = {str: _string, int: int.__repr__, float: _float,
           bool: ("false", "true").__getitem__, type(None): lambda _: "null"}
_leaf = _LEAVES.get


class Result:
    """Base of every report-bearing result dataclass (frozen, so its instance
    dict holds exactly its fields, in declaration order)."""

    def to_dict(self) -> dict:  # shallow: ``to_json`` expands what it holds
        return dict(vars(self))


def to_json(value) -> str:
    """``value`` as ``json.dumps(indent=2, ensure_ascii=True)`` writes it once
    every ``Result`` is replaced by its ``to_dict()``, byte for byte, with no
    copy of the tree.  Raises ``TypeError`` where ``json`` does."""
    return _json(value, "\n")


def _json(value, newline: str) -> str:
    # exact dicts, lists and tuples first: a container's leaves are written in
    # place, so the containers are almost every call
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            (_string(k) if type(k) is str else _key(k)) + ": "
            + (leaf(v) if (leaf := _leaf(type(v))) else _json(v, inner))
            for k, v in value.items()
        ]) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([
            leaf(v) if (leaf := _leaf(type(v))) else _json(v, inner) for v in value
        ]) + newline + "]"
    if leaf := _leaf(kind):
        return leaf(value)
    # then subclasses, in the order the test oracle (its ``plain``, then ``json``) takes them
    if isinstance(value, Result):
        return _json(value.to_dict(), newline)
    if isinstance(value, (list, tuple)):
        return _json(list(value), newline)
    if isinstance(value, dict):
        return _json(dict(value.items()), newline)
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int):  # IntEnum is written as its integer
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key other than an exact ``str``, converted as ``json`` converts it."""
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        return '"' + _float(key) + '"'
    if key is True or key is False or key is None:
        return '"' + _LEAVES[type(key)](key) + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
