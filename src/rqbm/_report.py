"""The one report format every result shares.

A result's report is its dataclass fields in declaration order; nested
results become their reports, tuples and lists become lists, and dicts are
copied.  The CLI writes these trees as JSON or as aligned text.
"""
from __future__ import annotations

_SCALARS = frozenset({str, int, float, bool, type(None)})


def plain(value):
    """``value`` in report form: only dicts, lists and scalars remain."""
    if type(value) in _SCALARS:  # the common leaf, answered before any isinstance
        return value
    if isinstance(value, Result):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


class Result:
    """Base of every report-bearing result dataclass (frozen, so its instance
    dict holds exactly its fields, in declaration order)."""

    def to_dict(self) -> dict:
        return {k: plain(v) for k, v in vars(self).items()}
