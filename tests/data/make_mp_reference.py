"""Write mp_reference.json: mpmath values behind the single-point tests.

    python tests/data/make_mp_reference.py

For each of 26 points s = sigma + it it stores zeta^(j)(s), j <= 9, and
(zeta'/zeta)^(k)(s), k <= 8, from ``oracles.mp_zeta_and_log_derivs`` at 20
digits, as [re, im] float pairs.  The points are 24 seeded ones over sigma
in [0.505, 2], t in [10, 6000], plus the two that sit closest to the
single-point bounds: (0.52, 5990) and (0.55, 5000).  Takes about 20 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import oracles  # noqa: E402

JMAX = 9
DPS = 20


def points() -> list[tuple[float, float]]:
    rng = np.random.default_rng(2026)
    seeded = zip(rng.uniform(0.505, 2.0, 24), rng.uniform(10.0, 6000.0, 24))
    return [(float(s), float(t)) for s, t in seeded] + [(0.52, 5990.0), (0.55, 5000.0)]


def re_im(values: list[complex]) -> list[list[float]]:
    return [[v.real, v.imag] for v in values]


def main() -> None:
    rows = []
    for sigma, t in points():
        zetas, logs = oracles.mp_zeta_and_log_derivs(complex(sigma, t), JMAX, DPS)
        rows.append({"sigma": sigma, "t": t, "zeta": re_im(zetas), "log_derivs": re_im(logs)})
    body = ",\n".join(json.dumps(row) for row in rows)   # one point per line
    (HERE / "mp_reference.json").write_text(
        f'{{"jmax": {JMAX}, "dps": {DPS}, "points": [\n{body}\n]}}\n')


if __name__ == "__main__":
    main()
