"""Write mp_reference.json: mpmath values behind the single-point tests.

    python tests/data/make_mp_reference.py           # rewrite the file
    python tests/data/make_mp_reference.py --check   # compare, write nothing

For each of 26 points s = sigma + it it stores zeta^(j)(s), j <= 9, and
(zeta'/zeta)^(k)(s), k <= 8, from ``oracles.mp_zeta_and_log_derivs`` at 20
digits, as [re, im] float pairs.  The points are 24 seeded ones over sigma
in [0.505, 2], t in [10, 6000], plus the two that sit closest to the
single-point bounds: (0.52, 5990) and (0.55, 5000).  Takes about 20 s.

``--check`` recomputes every point and exits 1 unless the stored points
are the same and every value agrees to ``RTOL``, the tolerance of
``test_reference_file_matches_live_mpmath``; the last bits at 20 digits
may move between mpmath releases, so the check is not bit for bit.
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
RTOL = 1e-14
PATH = HERE / "mp_reference.json"


def points() -> list[tuple[float, float]]:
    rng = np.random.default_rng(2026)
    seeded = zip(rng.uniform(0.505, 2.0, 24), rng.uniform(10.0, 6000.0, 24))
    return [(float(s), float(t)) for s, t in seeded] + [(0.52, 5990.0), (0.55, 5000.0)]


def re_im(values: list[complex]) -> list[list[float]]:
    return [[v.real, v.imag] for v in values]


def rows() -> list[dict]:
    out = []
    for sigma, t in points():
        zetas, logs = oracles.mp_zeta_and_log_derivs(complex(sigma, t), JMAX, DPS)
        out.append({"sigma": sigma, "t": t, "zeta": re_im(zetas), "log_derivs": re_im(logs)})
    return out


def stale(stored: list[dict], live: list[dict]) -> list[str]:
    """One line per stored point that is missing, moved or off by more than RTOL."""
    if len(stored) != len(live):
        return [f"{len(stored)} points stored, {len(live)} expected"]
    bad = []
    for i, (old, new) in enumerate(zip(stored, live)):
        if (old["sigma"], old["t"]) != (new["sigma"], new["t"]):
            bad.append(f"point {i}: stored at {old['sigma']}+{old['t']}i, "
                       f"expected {new['sigma']}+{new['t']}i")
            continue
        for key in ("zeta", "log_derivs"):
            a, b = (np.array([complex(*v) for v in row[key]]) for row in (old, new))
            if a.shape != b.shape or not np.allclose(a, b, rtol=RTOL, atol=0):
                bad.append(f"point {i} ({new['sigma']}, {new['t']}): {key} differs")
    return bad


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    live = rows()
    if argv:
        doc = json.loads(PATH.read_text())
        bad = [] if (doc["jmax"], doc["dps"]) == (JMAX, DPS) else ["jmax or dps differs"]
        bad += stale(doc["points"], live)
        print("\n".join(bad) or f"{PATH.name}: {len(live)} points agree to rtol {RTOL}")
        return 1 if bad else 0
    body = ",\n".join(json.dumps(row) for row in live)   # one point per line
    PATH.write_text(f'{{"jmax": {JMAX}, "dps": {DPS}, "points": [\n{body}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
