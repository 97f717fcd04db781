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

import numpy as np

COLUMNS = (
    "t",
    "p_vstar",
    "re_psi_clique_in",
    "im_psi_clique_in",
    "re_psi_star_in",
    "im_psi_star_in",
)

_P_SLACK = 1e-9  # tolerated floating-point overshoot outside [0, 1]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


#: What every evaluator's ``hub_series(times)`` returns, one row per time:
#: (p_hub, psi_clique_in, psi_star_in), the columns of a trace.
HubSeries = tuple[np.ndarray, np.ndarray, np.ndarray]


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
        if n and (self.p_hub.min() < -_P_SLACK or self.p_hub.max() > 1 + _P_SLACK):
            raise ValueError("p_vstar outside [0, 1]")

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_series(
        cls, series, t_max: int, metadata: dict[str, str], start: int = 0
    ) -> "ProbabilityTrace":
        """Rows 0..t_max of ``series(times) -> HubSeries``, timed from ``start``."""
        if t_max < 0:
            raise ValueError(f"t_max must be nonnegative, got {t_max}")
        steps = np.arange(t_max + 1, dtype=np.int64)
        return cls(start + steps, *series(steps), metadata=metadata)

    # ---- CSV ----

    def to_csv(self, stream: io.TextIOBase) -> None:
        for key, value in self.metadata.items():
            stream.write(f"# {key}={value}\n")
        stream.write(",".join(COLUMNS) + "\n")
        for i in range(len(self)):
            row = (
                str(int(self.times[i])),
                _fmt(self.p_hub[i]),
                _fmt(self.psi_clique_in[i].real),
                _fmt(self.psi_clique_in[i].imag),
                _fmt(self.psi_star_in[i].real),
                _fmt(self.psi_star_in[i].imag),
            )
            stream.write(",".join(row) + "\n")

    @classmethod
    def from_csv(cls, stream: io.TextIOBase) -> "ProbabilityTrace":
        metadata: dict[str, str] = {}
        header: list[str] | None = None
        rows: list[list[str]] = []
        for line in stream:
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
            rows.append(line.split(","))
        if header is None:
            raise ValueError("missing column header")
        cols = list(zip(*rows)) if rows else [[] for _ in COLUMNS]
        return cls(
            times=np.asarray([int(v) for v in cols[0]], dtype=np.int64),
            p_hub=np.asarray([float(v) for v in cols[1]], dtype=np.float64),
            psi_clique_in=_complex(cols[2], cols[3]),
            psi_star_in=_complex(cols[4], cols[5]),
            metadata=metadata,
        )

    # ---- JSON ----

    def to_json(self, stream: io.TextIOBase) -> None:
        payload = {
            "metadata": dict(self.metadata),
            "columns": {
                "t": [int(v) for v in self.times],
                "p_vstar": [float(v) for v in self.p_hub],
                "re_psi_clique_in": [float(v) for v in self.psi_clique_in.real],
                "im_psi_clique_in": [float(v) for v in self.psi_clique_in.imag],
                "re_psi_star_in": [float(v) for v in self.psi_star_in.real],
                "im_psi_star_in": [float(v) for v in self.psi_star_in.imag],
            },
        }
        json.dump(payload, stream, indent=1)
        stream.write("\n")

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
