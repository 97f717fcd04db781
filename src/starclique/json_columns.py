"""The JSON trace reader's parser: ``json.loads`` of a trace document, with
each list of its ``"columns"`` object converted as soon as it is scanned.

``json.load`` holds every column as a Python list of floats (32 bytes a
value) before any becomes an array.  Here the top-level object and its
``"columns"`` object are walked with ``json.decoder``'s own pieces
(``WHITESPACE``, ``scanstring`` and the C scanner ``scan_once``, which reads
every value), and each column's list is handed to a conversion and dropped
before the next one is scanned.  What the walk builds is what ``json.loads``
builds: a repeated key keeps its last value, and ``NaN``, ``Infinity`` and
``-Infinity`` are read.  A conversion that raises leaves its list in place.
A top level that is not an object, and any text the walk does not accept,
go to ``json.loads``, so that a malformed document raises json's own error.

``ProbabilityTrace.from_json`` imports this module on its first read, so
that importing the package neither compiles nor runs it.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, scanstring

_SCAN = json.JSONDecoder().scan_once  # the C scanner that json.loads uses
_SKIP = WHITESPACE.match


def load_columns(text, convert):
    """``json.loads(text)``, with each list ``values`` under a key ``name``
    of the top-level ``"columns"`` object replaced by ``convert(name,
    values)`` as soon as it is scanned."""
    if isinstance(text, str):
        try:
            return _document(text, convert)
        except (json.JSONDecodeError, StopIteration):
            pass  # json.loads raises its own error
    return json.loads(text)


def _document(s: str, convert):
    def column(name, end):
        values, end = _SCAN(s, end)
        if type(values) is list:
            try:
                values = convert(name, values)
            except (TypeError, ValueError, OverflowError):
                pass  # the caller's own checks meet the list, and raise there
        return values, end

    def member(name, end):
        if name == "columns" and s.startswith("{", end):
            return _object(s, end + 1, column)
        return _SCAN(s, end)

    end = _SKIP(s, 0).end()
    if not s.startswith("{", end):
        raise StopIteration(end)
    document, end = _object(s, end + 1, member)
    if _SKIP(s, end).end() != len(s):
        raise StopIteration(end)  # extra data
    return document


def _object(s: str, end: int, value):
    """The object whose "{" ends before ``end``, each member's value read by
    ``value(name, end) -> (value, end)``, and the end of the object.  Any
    text ``json.loads`` would refuse raises ``StopIteration``."""
    members = {}
    end = _SKIP(s, end).end()
    if s.startswith("}", end):
        return members, end + 1
    while True:
        if not s.startswith('"', end):
            raise StopIteration(end)
        name, end = scanstring(s, end + 1)
        end = _SKIP(s, end).end()
        if not s.startswith(":", end):
            raise StopIteration(end)
        members[name], end = value(name, _SKIP(s, end + 1).end())
        end = _SKIP(s, end).end()
        if s.startswith("}", end):
            return members, end + 1
        if not s.startswith(",", end):
            raise StopIteration(end)
        end = _SKIP(s, end + 1).end()
