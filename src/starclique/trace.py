"""Time series of hub-arrival probability and the two feeding amplitudes.

A trace row holds the step index, the probability of measuring the hub, and
the two collapsed amplitudes on arcs arriving at the hub (from the clique
and from the star).  Serialization keeps 17 significant digits so that a
parse of an emitted file reproduces the in-memory arrays bit for bit.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import islice

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

_BLOCK = 8192  # CSV rows formatted or parsed per call
# "%.17g" spells a float as format(x, ".17g") does, -0, nan and inf included
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
# a column's items in json.dump(..., indent=1) layout, by the C encoder
_JSON_ITEMS = json.JSONEncoder(separators=(",\n   ", ": "))


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
    travels verbatim through CSV (`# key=value` header lines) and JSON.
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
        return (np.asarray(self.times, np.int64), np.asarray(self.p_hub, np.float64),
                clique.real, clique.imag, star.real, star.imag)

    # ---- CSV ----

    def to_csv(self, stream: io.TextIOBase) -> None:
        for key, value in self.metadata.items():
            stream.write(f"# {key}={value}\n")
        stream.write(",".join(COLUMNS) + "\n")
        cols = self._columns()
        for start in range(0, len(self), _BLOCK):
            block = [col[start:start + _BLOCK].tolist() for col in cols]
            stream.write("".join(map(_CSV_ROW.__mod__, zip(*block))))

    @classmethod
    def from_csv(cls, stream: io.TextIOBase) -> "ProbabilityTrace":
        metadata: dict[str, str] = {}
        header: list[str] | None = None
        times = [np.zeros(0, np.int64)]  # one array per block of lines
        values = [np.zeros((0, 5))]  # the five float columns, row-major
        first = 1  # line number of the block's first line
        while lines := list(islice(stream, _BLOCK)):
            rows: list[str] = []
            for number, line in enumerate(lines, first):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    metadata[key.strip()] = value
                    continue
                if header is None:
                    header = line.split(",")
                    if tuple(header) != COLUMNS:
                        raise ValueError(f"unexpected columns {header}")
                    continue
                if line.count(",") != 5:
                    raise ValueError(f"line {number} has {line.count(',') + 1} fields, expected 6")
                rows.append(line)
            first += len(lines)
            if rows:
                fields = ",".join(rows).split(",")
                times.append(np.fromiter(map(int, fields[0::6]), np.int64, len(rows)))
                del fields[0::6]
                values.append(np.fromiter(map(float, fields), np.float64).reshape(-1, 5))
        if header is None:
            raise ValueError("missing column header")
        p, re_clique, im_clique, re_star, im_star = np.concatenate(values).T
        return cls(
            times=np.concatenate(times),
            p_hub=p.copy(),  # contiguous, not a view that keeps all five columns
            psi_clique_in=_complex(re_clique, im_clique),
            psi_star_in=_complex(re_star, im_star),
            metadata=metadata,
        )

    # ---- JSON ----

    def to_json(self, stream: io.TextIOBase) -> None:
        # the bytes of json.dump({"metadata": ..., "columns": ...}, indent=1)
        metadata = json.dumps(dict(self.metadata), indent=1).replace("\n", "\n ")
        stream.write('{\n "metadata": %s,\n "columns": {' % metadata)
        for i, (name, col) in enumerate(zip(COLUMNS, self._columns())):
            items = _JSON_ITEMS.encode(col.tolist())
            items = "[\n   %s\n  ]" % items[1:-1] if len(col) else "[]"
            stream.write('%s\n  "%s": %s' % ("," if i else "", name, items))
        stream.write("\n }\n}\n")

    @classmethod
    def from_json(cls, stream: io.TextIOBase) -> "ProbabilityTrace":
        payload = json.load(stream)
        cols = payload["columns"]
        return cls(
            times=np.asarray(cols["t"], dtype=np.int64),
            p_hub=np.asarray(cols["p_vstar"], dtype=np.float64),
            psi_clique_in=_complex(cols["re_psi_clique_in"], cols["im_psi_clique_in"]),
            psi_star_in=_complex(cols["re_psi_star_in"], cols["im_psi_star_in"]),
            metadata={k: str(v) for k, v in payload["metadata"].items()},
        )
