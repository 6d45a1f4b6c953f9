"""Zero ordinates of zeta on the critical line: compute, import, verify, persist.

Zeros are located as sign changes of the Hardy Z function on a fixed scan
grid and bisected, all brackets at once, on one real polynomial per
bracket: the Taylor jet zeta^(j)(1/2 + ic), j <= ``JET``, at its centre c
(one arbitrary-point engine call for all, the way Odlyzko & Schoenhage,
Trans. AMS 309, 1988, step off their grid), rotated by e^{i theta(c)}.
The scan runs once: completeness is certified against the Riemann-von
Mangoldt count, and a failed census raises ``MissedZeroError``.  All zeros
are treated as simple.

A written zeros file carries the sha256 digest of its ordinate lines and
its source.  Every cache read checks the digest after the census, then
refuses a file that does not state ``source=computed``.

Each process keeps its last verified table, keyed on the cache file's
exact bytes, path and t_max, so the calls in one process share one parse
and one pair set (``load_or_find``).
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import threading
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path

import numpy as np

from .errors import (CoverageError, DomainError, IoError, MissedZeroError,
                     OrderError, ParseError, RangeError)
from .zeta_engine import THETA_CUT, TWO_PI, ZetaEngine, horner

SCAN_START = 2.0
SCAN_STEP = 0.05
ROOT_TOL = 1e-9
#: top derivative order of the Taylor jet at each bracket centre; with a
#: bracket radius of SCAN_STEP/2 the main-sum remainder
#: sum_n n^{-1/2} (0.025 ln n)^{JET+1} / (JET+1)! is 1.9e-16 at t = 1000
#: and 9.3e-15 at t = 6000
JET = 10

CACHE_ENV = "ZETALAB_CACHE"
DEFAULT_CACHE = "./zetalab-cache"


@dataclass(frozen=True, eq=False)
class ZeroTable:
    """Strictly increasing zero ordinates covering (0, t_max].

    The ordinates are a read-only copy of the input.  Equality and hash
    are by identity, as the memo shares tables.  ``_pair_set``, which is
    not a field (no repr), holds ``pair_correlation``'s pair set for one
    height, ``{t: (n, diffs, weights)}``: every pair route on the table
    shares one build, and the set is freed with the table.
    """

    ordinates: np.ndarray
    t_max: float
    source: str = "computed"

    def __post_init__(self):
        arr = np.array(self.ordinates, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "ordinates", arr)
        object.__setattr__(self, "_pair_set", {})
        if self.source not in ("computed", "imported"):
            raise DomainError(f"unknown source {self.source!r}")
        if not math.isfinite(self.t_max):
            raise RangeError(f"t_max={self.t_max} must be finite")
        if arr.size:
            if not np.all(arr > 0):
                raise RangeError("ordinates must be positive, not NaN")
            if not np.all(np.diff(arr) > 0):
                raise OrderError("ordinates must be strictly increasing")
            if arr[-1] > self.t_max:
                raise RangeError(
                    f"ordinate {arr[-1]} exceeds t_max={self.t_max}")

    def __len__(self) -> int:
        return int(self.ordinates.size)

    def up_to(self, t: float) -> "ZeroTable":
        """Sub-table covering (0, t]; requires t <= t_max."""
        self.require_coverage(t)
        cut = int(np.searchsorted(self.ordinates, t, side="right"))
        return ZeroTable(self.ordinates[:cut], t, self.source)

    def require_coverage(self, t: float) -> None:
        if not t <= self.t_max:
            raise CoverageError(f"zero table covers t <= {self.t_max}, need {t}")


@dataclass(frozen=True)
class CountReport:
    expected: float
    actual: int
    passed: bool


def rvm_expected_count(t: float) -> float:
    """Riemann-von Mangoldt estimate (t/2pi) log(t/(2 pi e)) + 7/8."""
    return t / TWO_PI * math.log(t / (TWO_PI * math.e)) + 0.875


def verify_counts(table: ZeroTable) -> CountReport:
    """Compare the table's census against the Riemann-von Mangoldt count."""
    if len(table) == 0:
        raise DomainError("verify_counts requires a nonempty table")
    expected = rvm_expected_count(table.t_max)
    actual = len(table)
    tol = max(2.0, 0.25 * math.log(table.t_max))
    return CountReport(expected, actual, abs(actual - expected) <= tol)


# --------------------------------------------------------------------------
# Zero finding
# --------------------------------------------------------------------------

def _scan_sign_changes(engine: ZetaEngine, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Hardy Z at SCAN_START + SCAN_STEP m, from the first m in theta's domain
    (t = 11.7) to one step past t_max, in pieces of ``engine.CHUNK`` points;
    returns the low end of every sign-change bracket and the sign of Z there."""
    first = math.ceil((THETA_CUT - SCAN_START) / SCAN_STEP)
    size = int(math.ceil((t_max - SCAN_START) / SCAN_STEP)) + 2
    # pieces, not one call over the whole scan: one call raised the zeros
    # workload's peak_rss_mb from 40.2-40.3 to 41.4-41.6 MB in 4 of 4 pairs
    # of alternated runs and its median wall_s from 19.9 to 20.9 ms (2-core
    # Intel Xeon), since its theta and rotation arrays span the whole scan
    parts = [engine.hardy_z_uniform(SCAN_START + SCAN_STEP * i0, SCAN_STEP,
                                    min(engine.CHUNK, size - i0))
             for i0 in range(first, size, engine.CHUNK)]
    sign = np.sign(np.concatenate(parts))
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return SCAN_START + SCAN_STEP * (first + flips), sign[flips]


def _refine_brackets(engine: ZetaEngine, lo: np.ndarray,
                     sign_lo: np.ndarray) -> np.ndarray:
    """Bisect every bracket [lo, lo + SCAN_STEP] to at most ROOT_TOL wide.

    Z takes its sign from R, the real jet at the bracket centre
    (``ZetaEngine.hardy_z_jets``, one engine call for all brackets):
    |theta(x) - theta(c)| < pi/2 over half a bracket.  Each of
    ceil(log2(SCAN_STEP / ROOT_TOL)) rounds halves every bracket by one
    Horner pass.  Returns the midpoints of the final brackets.
    """
    half = 0.5 * SCAN_STEP
    centres = lo + half
    coeffs = engine.hardy_z_jets(centres, JET)
    h_lo, width = np.full(lo.size, -half), SCAN_STEP   # low ends, as offsets from c
    for _ in range(math.ceil(math.log2(SCAN_STEP / ROOT_TOL))):
        width *= 0.5
        mid = h_lo + width
        h_lo = np.where(np.sign(horner(coeffs.T, mid)) == sign_lo, mid, h_lo)
    return centres + (h_lo + 0.5 * width)


def _check_t_max(t_max: float) -> None:
    if not (20.0 <= t_max <= 6000.0):
        raise DomainError(f"t_max={t_max} outside [20, 6000]")


def find_zeros(t_max: float, engine: ZetaEngine | None = None) -> ZeroTable:
    """All zero ordinates in (0, t_max], certified by the RvM census.

    Scans Z once from t = 11.7 (theta's domain; the first zero is near 14.13)
    with step 0.05, bisects each sign change on the real Taylor jet of zeta
    at its centre to a bracket of width <= 1e-9 and returns its midpoint.
    The brackets are disjoint and increasing, so the ordinates come out
    sorted.  A failed census raises MissedZeroError.
    """
    _check_t_max(t_max)
    engine = engine or ZetaEngine()
    ords = _refine_brackets(engine, *_scan_sign_changes(engine, t_max))
    table = ZeroTable(ords[ords <= t_max], t_max, "computed")
    report = verify_counts(table)
    if not report.passed:
        raise MissedZeroError(
            f"census failed at t_max={t_max}: found {report.actual}, "
            f"expected {report.expected:.2f}")
    return table


# --------------------------------------------------------------------------
# Zeros file format
# --------------------------------------------------------------------------

def import_zeros(path: str | os.PathLike) -> ZeroTable:
    """Read a zeros file: '#' metadata lines, then one ordinate per line."""
    path = Path(path)
    return _parse_zeros(path, _read_bytes(path), "imported")[0]


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _parse_zeros(path: Path, data: bytes,
                 source: str) -> tuple[ZeroTable, dict[str, str], str]:
    """The table in the bytes ``data`` of the zeros file ``path``, labelled
    ``source``, its ``# key=value`` header lines as a dict and the sha256 of
    its ordinate lines."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    header: dict[str, str] = {}
    t_max_header: float | None = None
    digest = hashlib.sha256()
    ordinates: list[float] = []
    prev = 0.0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, val = (part.strip() for part in line[1:].partition("="))
            if eq:
                header[key] = val
                try:
                    if key == "t_max":
                        t_max_header = float(val)
                except ValueError as exc:
                    raise ParseError(f"bad metadata value {val!r}", line_no) from exc
            continue
        try:
            g = float(line)
        except ValueError as exc:
            raise ParseError(f"not a decimal literal: {line!r}", line_no) from exc
        if not math.isfinite(g):
            raise ParseError(f"non-finite ordinate {line!r}", line_no)
        if g <= 0:
            raise RangeError(f"line {line_no}: nonpositive ordinate {g}")
        if g <= prev:
            raise OrderError(f"ordinate {g} not above previous {prev}", line_no)
        ordinates.append(g)
        digest.update(f"{line}\n".encode())
        prev = g
    t_max = t_max_header if t_max_header is not None else (ordinates[-1] if ordinates else 0.0)
    return ZeroTable(np.array(ordinates), t_max, source), header, digest.hexdigest()


def export_zeros(table: ZeroTable, path: str | os.PathLike) -> None:
    """Write a zeros file that round-trips bit-identically through import.

    Ordinates are printed with 12 fractional digits, which re-parses to the
    same decimal text; t_max is printed so that it parses back exactly.  A
    top ordinate that rounding to nearest would lift above t_max is rounded
    down instead, so the file never lists an ordinate beyond its own t_max.
    The ``# sha256=`` header is the digest of the ordinate lines, each with
    its line feed, which every cache read checks.
    """
    ords = [f"{g:.12f}" for g in table.ordinates]
    if ords and float(ords[-1]) > table.t_max:
        ords[-1] = f"{Decimal(table.ordinates[-1]).quantize(Decimal('1e-12'), ROUND_FLOOR):f}"
    body = "".join(f"{g}\n" for g in ords)
    header = [
        "# zetalab zeros table",
        f"# t_max={_t_max_text(table.t_max)}",
        f"# source={table.source}",
        f"# sha256={hashlib.sha256(body.encode()).hexdigest()}",
    ]
    write_atomic(Path(path), "\n".join(header) + "\n" + body)


def _t_max_text(t_max: float) -> str:
    """The shortest text that parses back to exactly t_max, for file names and headers."""
    return repr(float(t_max))


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it onto `path`.

    A reader of `path` sees either the previous file or the complete new
    one, never a partial write.  Nothing is fsynced: an fsynced file's blocks
    must later be freed on disk (24-44 ms per deleted file on ext4 mounted
    with ``discard``), and a zeros file that a crash left short fails the
    census or its digest on the next cache read.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {path}: {exc}") from exc


# --------------------------------------------------------------------------
# Cache
# --------------------------------------------------------------------------

def cache_dir(override: str | os.PathLike | None = None) -> Path:
    if override is not None:
        return Path(override)
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE))


def _cache_file(t_max: float, directory: Path) -> Path:
    return directory / f"zeros-tmax-{_t_max_text(t_max)}.txt"


def load_or_find(t_max: float, cache: str | os.PathLike | None = None,
                 threads: int = 1) -> ZeroTable:
    """Return the cached table for t_max, computing and persisting on miss.

    The cache file is canonical: a freshly computed table is re-read from
    disk before use, so runs that compute and runs that hit the cache see
    bit-identical ordinates (the file format rounds to 12 fractional
    digits).  The key is t_max alone, written exactly as in the file
    header, so every table is computed with the default engine and nearby
    heights get files of their own.  A height outside [20, 6000] is refused
    before the cache directory is touched.  Every read is checked, never
    recomputed: a table that fails the Riemann-von Mangoldt census raises
    MissedZeroError, then a file without a ``# sha256=`` header, or whose
    ordinate lines do not match it, raises ParseError, and so does a file
    that does not state ``# source=computed``.

    Every call reads the file.  When its bytes, its path and t_max equal
    those of the last table that passed every check, the call returns that
    same ``ZeroTable``, pair set included (``_verified_table``): each check
    depends on nothing else, so that is still a verified read, and the
    table is frozen with read-only arrays, so its callers can share it.
    Any other read runs every check again.  Two limits: a ``zetalab`` shell
    command is a fresh process and gains nothing (the gain goes to library
    callers, the benchmark and repeated commands in one process), and the
    memo keeps its one entry, the file's bytes, the table and its pair set,
    alive until another table passes its checks.  At T = 6000 that is the
    100 kB file, 5,598 ordinates (45 kB) and, once a pair route has run on
    the table, 3,083,658 pairs (49.3 MB).

    ``threads`` is accepted and unused: the scan is serial, and the
    zero-table calls of perfbench/workloads.py still pass it.
    """
    _check_t_max(t_max)
    directory = cache_dir(cache)
    path = _cache_file(t_max, directory)
    if not path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {directory}: {exc}") from exc
        table = find_zeros(t_max)
        export_zeros(table, path)
    return _verified_table(path, _read_bytes(path), t_max)


@functools.lru_cache(maxsize=1)
def _verified_table(path: Path, data: bytes, t_max: float) -> ZeroTable:
    """The computed table that the bytes ``data`` of the cache file ``path``
    hold for ``t_max``, after the census, the digest and the source checks.

    Memoized on its arguments, one entry: a call that raises stores nothing
    and leaves the last verified table in place.
    """
    table, header, actual = _parse_zeros(path, data, "computed")
    if table.t_max != t_max or not len(table):
        raise ParseError(f"cache file {path} does not cover t_max={t_max}")
    report = verify_counts(table)
    if not report.passed:
        raise MissedZeroError(
            f"cache file {path} fails the census at t_max={t_max}: "
            f"{report.actual} zeros, expected {report.expected:.2f}")
    if header.get("sha256") != actual:
        raise ParseError(f"cache file {path}: ordinate lines have sha256 {actual}, "
                         f"header states {header.get('sha256')}")
    if header.get("source") != "computed":
        raise ParseError(f"cache file {path} states source={header.get('source')}; "
                         "the cache holds computed tables only")
    return table
