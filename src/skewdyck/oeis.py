"""OEIS b-file fetching, caching, and sequence comparison.

A b-file is plain text, one "n a(n)" pair per line, with '#' comments.
First fetch goes to oeis.org and lands in a local cache via a
create-then-rename write, so concurrent runs never see half a file.
Offline mode is served from the cache, falling back to the bundled
A007564 snapshot (computed from its closed-form generating function, so
continuous integration never needs the network).
"""

from __future__ import annotations

import os
import re
import tempfile
from importlib import resources
from pathlib import Path

from .automaton import dp_counts
from .closed_form import r_series

CACHE_ENV_VAR = "SKEWDYCK_OEIS_CACHE"

_BUNDLED = {"A007564": "a007564.txt"}
_ID_RE = re.compile(r"^A\d{6}$")
_FETCH_TIMEOUT_S = 15.0  # seconds an online fetch waits on oeis.org


class OeisError(RuntimeError):
    pass


def parse_b_file(text: str) -> dict[int, int]:
    """Parse "n a(n)" lines; '#' comments and blank lines are ignored."""
    terms: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            n, value = map(int, line.split())
        except ValueError:  # a field count other than two, or a non-integer field
            raise OeisError(f"malformed b-file line: {raw!r}") from None
        terms[n] = value
    if not terms:
        raise OeisError("b-file contains no terms")
    return terms


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "skewdyck"


def _bundled_text(seq_id: str) -> str | None:
    name = _BUNDLED.get(seq_id)
    if name is None:
        return None
    return (resources.files("skewdyck") / "data" / name).read_text()


def b_file_url(seq_id: str) -> str:
    return f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"


def load_terms(
    seq_id: str,
    cache_dir: Path | str | None,
    offline: bool,
) -> dict[int, int]:
    """Terms for a sequence id, from cache, bundle, or the network.

    The cache wins when present; otherwise offline mode falls back to
    the bundled snapshot or fails, and online mode fetches and caches.
    """
    if not _ID_RE.match(seq_id):
        raise OeisError(f"unknown sequence id {seq_id!r} (expected A followed by 6 digits)")
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cached = cache_dir / f"{seq_id}.txt"
    if cached.exists():
        return parse_b_file(cached.read_text())
    if offline:
        bundled = _bundled_text(seq_id)
        if bundled is not None:
            return parse_b_file(bundled)
        raise OeisError(
            f"no cached or bundled terms for {seq_id}; rerun without --offline to fetch"
        )
    # imported here: the HTTP stack costs every other CLI command start-up time
    import urllib.error
    import urllib.request
    try:
        with urllib.request.urlopen(b_file_url(seq_id), timeout=_FETCH_TIMEOUT_S) as resp:
            text = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        bundled = _bundled_text(seq_id)
        hint = "--offline uses the bundled snapshot" if bundled else "no bundled fallback exists"
        raise OeisError(f"could not fetch {seq_id} ({exc}); {hint}") from exc
    terms = parse_b_file(text)  # validate before caching
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f"{seq_id}.", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, cached)
    except BaseException:
        os.unlink(tmp)
        raise
    return terms


def compare_table(
    seq_id: str,
    n_max: int,
    cache_dir: Path | str | None,
    offline: bool,
) -> list[dict]:
    """Rows (n, OEIS a(n), t = 2 table count at length 3n, [z^n] R) with flags.

    The table column is the ground truth for path counts; where the
    sequence diverges from it, the flags say so rather than anybody
    being corrected.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = load_terms(seq_id, cache_dir=cache_dir, offline=offline)
    table = dp_counts(2, 3 * n_max, k_max=0)
    r = r_series(n_max + 1)
    rows = []
    for n in range(n_max + 1):
        oeis_value = terms.get(n)
        dp_value = table.closed_count(3 * n)
        r_value = r.coeff(n)
        if r_value.denominator != 1:
            raise OeisError(f"[z^{n}] R = {r_value} is not an integer")
        rows.append(
            {
                "n": n,
                "oeis": oeis_value,
                "dp_total": dp_value,
                "r_coeff": r_value.numerator,
                "oeis_matches_dp": oeis_value == dp_value,
                "oeis_matches_r": oeis_value == r_value.numerator,
            }
        )
    return rows
