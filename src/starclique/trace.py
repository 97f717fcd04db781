"""Time series of hub-arrival probability and the two feeding amplitudes.

A trace row holds the step index, the probability of measuring the hub, and
the two collapsed amplitudes on arcs arriving at the hub (from the clique
and from the star).  Serialization keeps 17 significant digits so that a
parse of an emitted file reproduces the in-memory arrays bit for bit.

CSV rows are the bytes of ``_CSV_ROW``, Python's "%.17g" for each float.
Blocks of _CROSSOVER rows or more are spelled by the numpy kernel of
``csv_rows`` instead, which writes the same bytes; it hands any row holding
a value it cannot certify back to the template.  JSON columns are the bytes
of ``json.dump(..., indent=1)``, each float its ``repr``; the same kernel
spells float blocks of _JSON_CROSSOVER values or more and hands back to the
C encoder any value it cannot certify.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import chain, filterfalse

import numpy as np

from . import __version__
from .graph import LeafPhase

COLUMNS = (
    "t",
    "p_vstar",
    "re_psi_clique_in",
    "im_psi_clique_in",
    "re_psi_star_in",
    "im_psi_star_in",
)

_P_SLACK = 1e-9  # tolerated floating-point overshoot outside [0, 1]

# CSV rows per stream.write: of the blocks of 1024 to 8192 rows timed, the
# kernel wrote fastest here, and its working arrays (2.6 MB) stay below the
# 3 MB that the template took for the 8192-row blocks it used to write
_BLOCK = 4096
# Blocks shorter than this go through _CSV_ROW: the kernel's fixed cost, 0.2 to
# 0.3 ms of numpy calls, beats the template's 2 us a row only from here on.
# So does any trace this short, which never imports (or compiles) csv_rows.
_CROSSOVER = 125
# "%.17g" spells a float as format(x, ".17g") does, -0, nan and inf included;
# the one reference spelling, which the kernel falls back to
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
# one parsed CSV row; numpy rounds each float correctly, so a read is bit exact
_CSV_DTYPE = np.dtype([("t", np.int64)] + [(name, np.float64) for name in COLUMNS[1:]])
# a column's items in json.dump(..., indent=1) layout, by the C encoder
_JSON_SEPARATOR = ",\n   "
_JSON_ITEMS = json.JSONEncoder(separators=(_JSON_SEPARATOR, ": "))
# Float blocks of a JSON column this long or longer are spelled by the kernel
# of csv_rows: it costs about 0.15 ms a call and 0.2 us a value, the C encoder
# 0.6 us a value (2-core Xeon).  No trace this short imports the kernel.
_JSON_CROSSOVER = 250


#: What the series of every mode in ``modes.MODES`` returns for ``times``,
#: one row per time:
#: (p_hub, psi_clique_in, psi_star_in), the columns of a trace.
HubSeries = tuple[np.ndarray, np.ndarray, np.ndarray]


def step_counts(times) -> np.ndarray:
    """The step counts of a series request as int64, each a whole number
    from 0 to 2**63 - 1; the series of every mode in ``modes.MODES``
    reads its times here.  Signed integers go straight to the cast; any
    other count is checked first, since the cast would truncate a fraction
    and wrap a count beyond int64."""
    values = np.asarray(times)
    kind = values.dtype.kind
    if kind not in "biu" and not (np.floor(values) == values).all():
        raise ValueError("step counts must be whole numbers")  # a NaN is not one
    if (values < 0).any():
        raise ValueError("step counts must be nonnegative")
    if kind not in "bi" and (values >= 2**63).any():
        raise ValueError("step counts must be below 2**63")
    return np.asarray(values, dtype=np.int64)


def trace_metadata(
    n: int, m: int, mode: str, leaf_phase: LeafPhase, alpha: float | None = None
) -> dict[str, str]:
    """The metadata of every trace, in its serialized order: n, m, alpha
    (empty when the leaf count was given directly), mode, leaf_phase and
    the package version."""
    return {
        "n": str(n),
        "m": str(m),
        "alpha": "" if alpha is None else repr(float(alpha)),
        "mode": mode,
        "leaf_phase": leaf_phase.value,
        "version": __version__,
    }


def _metadata_problem(key: str, value: str) -> str:
    """Why the line ``# key=value`` would not read back as ``key`` and
    ``value`` (the reader strips the line, then the key), or ""."""
    if "\n" in key + value or "\r" in key + value:
        return "a line break"
    if "=" in key:
        return "'=' in the key"
    if key != key.strip():
        return "whitespace around the key"
    if value != value.rstrip():
        return "trailing whitespace in the value"
    return ""


def _row_problem(stream: io.TextIOBase, start: int, number: int, refusal: str) -> str:
    """loadtxt's ``refusal`` of the rows from offset ``start`` (the end of
    line ``number``) on, with the file line it concerns, or "".

    The first row split into other than six fields is named by its line.
    Otherwise, when the refusal is a field numpy could not convert ("...
    at row R, column C.", R counting rows from 0), row R is.  Text from a
    '#' on is a comment, and a line that holds only a comment or whitespace
    is no row."""
    what, _, place = refusal.rpartition(" at row ")
    row, _, column = place.removesuffix(".").partition(", column ")
    bad = int(row) if what and row.isdigit() and column.isdigit() else -1
    stream.seek(start)
    rows = 0
    for number, line in enumerate(stream, number + 1):
        text = line.partition("#")[0]
        if text and not line.isspace():
            if text.count(",") != 5:
                return f"line {number} has {text.count(',') + 1} fields, expected 6"
            if rows == bad:
                return f"line {number}, column {column}: {what}"
            rows += 1
    return ""


def hub_probability(psi_clique_in, psi_star_in):
    """|psi_CLIQUE_IN|^2 + |psi_STAR_IN|^2, the probability of measuring the
    hub, from scalars or arrays of the two hub-bound amplitudes."""
    return abs(psi_clique_in) ** 2 + abs(psi_star_in) ** 2


def _complex(re, im) -> np.ndarray:
    # parts as floats or decimal strings; re + 1j * im would lose a -0.0 real part
    out = np.asarray(re, dtype=np.float64).astype(np.complex128)
    out.imag = np.asarray(im, dtype=np.float64)
    return out


@dataclass(frozen=True, eq=False)
class ProbabilityTrace:
    """Hub probability trace with its two component amplitudes.

    ``metadata`` is an ordered mapping of string keys to string values; it
    travels verbatim through JSON and through CSV, where it is the block of
    `# key=value` lines before the column header.  ``to_csv`` refuses, before
    writing anything, a key holding '=', a line break or surrounding
    whitespace and a value holding a line break or trailing whitespace,
    since each would read back changed.  ``from_csv`` takes metadata from
    that header block only: after the column header, text from a '#' on is a
    comment, and numpy's ``loadtxt`` parses the rows in one call.
    """

    times: np.ndarray             # int64, shape (T,)
    p_hub: np.ndarray             # float64, shape (T,)
    psi_clique_in: np.ndarray     # complex128, shape (T,)
    psi_star_in: np.ndarray       # complex128, shape (T,)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("p_hub", "psi_clique_in", "psi_star_in"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length differs from times")
        # min/max carry a NaN through, and every comparison with NaN is False
        if n and not (self.p_hub.min() >= -_P_SLACK and self.p_hub.max() <= 1 + _P_SLACK):
            raise ValueError("p_vstar outside [0, 1]")

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_series(cls, series, t_max: int, metadata: dict[str, str]) -> "ProbabilityTrace":
        """Rows 0..t_max of ``series(times) -> HubSeries``.  The last time
        must be a step count (at most 2**63 - 1); numpy's ``arange`` takes
        its length as a float, which wraps to 0 rows near 2**63, so the row
        count is checked too."""
        if t_max < 0:
            raise ValueError(f"t_max must be nonnegative, got {t_max}")
        if t_max >= 2**63:
            raise ValueError(f"a trace to step {t_max} ends beyond 2**63 - 1")
        steps = np.arange(t_max + 1, dtype=np.int64)
        if len(steps) != t_max + 1:
            raise ValueError(f"numpy's arange cannot lay out {t_max + 1} rows")
        return cls(steps, *series(steps), metadata=metadata)

    def _columns(self) -> tuple[np.ndarray, ...]:
        """The six serialized columns, in ``COLUMNS`` order."""
        clique, star = self.psi_clique_in, self.psi_star_in
        return (np.asarray(self.times, np.int64),
                *(np.asarray(col, np.float64) for col in
                  (self.p_hub, clique.real, clique.imag, star.real, star.imag)))

    # ---- CSV ----

    def to_csv(self, stream: io.TextIOBase) -> None:
        for key, value in self.metadata.items():
            if problem := _metadata_problem(key, value):
                raise ValueError(f"metadata key {key!r} cannot be written to CSV: {problem}")
        for key, value in self.metadata.items():
            stream.write(f"# {key}={value}\n")
        stream.write(",".join(COLUMNS) + "\n")
        cols = self._columns()
        for start in range(0, len(self), _BLOCK):
            block = [col[start:start + _BLOCK] for col in cols]
            if len(block[0]) < _CROSSOVER:
                stream.write("".join(map(_CSV_ROW.__mod__, zip(*(col.tolist() for col in block)))))
            else:
                from .csv_rows import csv_rows  # imported on first use, see _CROSSOVER
                stream.write(csv_rows(block))

    @classmethod
    def from_csv(cls, stream: io.TextIOBase) -> "ProbabilityTrace":
        metadata: dict[str, str] = {}
        number = 0  # lines read so far
        while line := stream.readline():
            number += 1
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key.strip()] = value
            elif line:
                if tuple(header := line.split(",")) != COLUMNS:
                    raise ValueError(f"unexpected columns {header}")
                break
        else:
            raise ValueError("missing column header")
        start = stream.tell() if stream.seekable() else None
        rows = np.zeros(0, _CSV_DTYPE)
        # loadtxt starts at the first row, so a trace without rows never
        # reaches its "input contained no data" warning
        for first in iter(stream.readline, ""):
            if first.isspace() or first.startswith("#"):
                continue
            try:
                rows = np.loadtxt(
                    chain([first], filterfalse(str.isspace, stream)),
                    _CSV_DTYPE, delimiter=",", comments="#", ndmin=1,
                )
            except ValueError as refusal:
                problem = start is not None and _row_problem(stream, start, number, str(refusal))
                if problem:
                    raise ValueError(problem) from None
                raise
            break
        return cls(
            times=rows["t"].copy(),  # contiguous, not views that keep every field
            p_hub=rows["p_vstar"].copy(),
            psi_clique_in=_complex(rows["re_psi_clique_in"], rows["im_psi_clique_in"]),
            psi_star_in=_complex(rows["re_psi_star_in"], rows["im_psi_star_in"]),
            metadata=metadata,
        )

    # ---- JSON ----

    def to_json(self, stream: io.TextIOBase) -> None:
        # the bytes of json.dump({"metadata": ..., "columns": ...}, indent=1)
        metadata = json.dumps(dict(self.metadata), indent=1).replace("\n", "\n ")
        stream.write('{\n "metadata": %s,\n "columns": {' % metadata)
        for i, (name, col) in enumerate(zip(COLUMNS, self._columns())):
            stream.write('%s\n  "%s": [' % ("," if i else "", name))
            for start in range(0, len(col), _BLOCK):
                block = col[start:start + _BLOCK]
                if block.dtype == np.float64 and len(block) >= _JSON_CROSSOVER:
                    from .csv_rows import json_items  # imported on first use, see _JSON_CROSSOVER
                    items = json_items(block)
                else:
                    items = _JSON_SEPARATOR + _JSON_ITEMS.encode(block.tolist())[1:-1]
                stream.write(items if start else items[1:])  # no comma before the first
            stream.write("\n  ]" if len(col) else "]")
        stream.write("\n }\n}\n")

    @classmethod
    def from_json(cls, stream: io.TextIOBase) -> "ProbabilityTrace":
        """The trace ``to_json`` wrote.  Every column must hold as many
        values as the others, and ``t`` only integers within int64, as
        ``from_csv`` requires; numpy would broadcast a one-value column
        and truncate a fractional time."""
        payload = json.load(stream)
        cols = payload["columns"]
        lengths = {name: len(cols[name]) for name in COLUMNS}
        short = min(lengths, key=lengths.get)
        if lengths[short] != max(lengths.values()):
            longest = max(lengths, key=lengths.get)
            raise ValueError(f"column {short} is shorter than column {longest} "
                             f"({lengths[short]} against {lengths[longest]} values)")
        times = np.asarray(cols["t"])
        if times.dtype.kind != "i" and len(times):
            raise ValueError("column t holds a time that is not a whole number within int64")
        return cls(
            times=times.astype(np.int64, copy=False),
            p_hub=np.asarray(cols["p_vstar"], dtype=np.float64),
            psi_clique_in=_complex(cols["re_psi_clique_in"], cols["im_psi_clique_in"]),
            psi_star_in=_complex(cols["re_psi_star_in"], cols["im_psi_star_in"]),
            metadata={k: str(v) for k, v in payload["metadata"].items()},
        )
