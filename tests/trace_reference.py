"""Row-at-a-time trace writers, for tests.

The reference the block-wise serializers of ``starclique.trace`` are
checked against, byte for byte: a CSV writer that formats each value of
each row with ``format(x, ".17g")``, and a JSON writer that hands the whole
payload to ``json.dump(..., indent=1)``.
"""

import json

from starclique.trace import COLUMNS


def _fmt(x) -> str:
    return format(float(x), ".17g")


def csv_row(t, *values) -> str:
    """One CSV row: the time in decimal, then each value in 17 digits."""
    return ",".join([str(int(t)), *map(_fmt, values)]) + "\n"


def to_csv(trace, stream) -> None:
    for key, value in trace.metadata.items():
        stream.write(f"# {key}={value}\n")
    stream.write(",".join(COLUMNS) + "\n")
    for i in range(len(trace)):
        stream.write(csv_row(
            trace.times[i],
            trace.p_hub[i],
            trace.psi_clique_in[i].real,
            trace.psi_clique_in[i].imag,
            trace.psi_star_in[i].real,
            trace.psi_star_in[i].imag,
        ))


def to_json(trace, stream) -> None:
    payload = {
        "metadata": dict(trace.metadata),
        "columns": {
            "t": [int(v) for v in trace.times],
            "p_vstar": [float(v) for v in trace.p_hub],
            "re_psi_clique_in": [float(v) for v in trace.psi_clique_in.real],
            "im_psi_clique_in": [float(v) for v in trace.psi_clique_in.imag],
            "re_psi_star_in": [float(v) for v in trace.psi_star_in.real],
            "im_psi_star_in": [float(v) for v in trace.psi_star_in.imag],
        },
    }
    json.dump(payload, stream, indent=1)
    stream.write("\n")
