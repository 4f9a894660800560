"""Output checks shared by the child runs, the traced run and the recorder.

Byte-exact outputs (`count`, `series`, `render`) are compared by sha256
against `expected.json`, recorded by `record.py`.  `verify` is checked by
structure instead: exit status 0, PASS on every check line, and the
length-15 adjudication showing 563 against 562.  Its detail strings may
change wording without turning into failures.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import OUT, key

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Independent anchors, checked on every run next to the recorded digests,
# so that a digest table recorded from a broken commit cannot pass.
ANCHORS = [
    (["count", "--t", "2", "--n", "9"], re.compile(r"\s19\s*$")),
    (["count", "--t", "2", "--n", "15"], re.compile(r"\s563\s*$")),
    (["series", "R", "--order", "8"], re.compile(r"(?:^|\s)562\*z\^5\s")),
]

_ADJUDICATION = "length-15 adjudication"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, str]:
    """Map from argument-vector key to the sha256 of its expected output."""
    return json.loads(path.read_text())["digests"]


def _adjudication_ok(detail: str) -> bool:
    return bool(re.search(r"\b563\b", detail) and re.search(r"\b562\b", detail))


def _check_verify(argv: list[str], stdout: bytes) -> str | None:
    text = stdout.decode("utf-8", "replace")
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        try:
            report = json.loads(text)
        except ValueError:
            return "verify output is not JSON"
        checks = report.get("checks") or []
        if not report.get("passed") or not checks:
            return "verify report did not pass"
        if not all(c.get("passed") for c in checks):
            return "a verify check failed"
        adjudication = [c for c in checks if _ADJUDICATION in c.get("name", "")]
        if len(adjudication) != 1 or not _adjudication_ok(adjudication[0].get("detail", "")):
            return "length-15 adjudication does not show 563 against 562"
        return None
    lines = text.splitlines()
    status = [line.split()[0] for line in lines if line.split()[:1] in (["PASS"], ["FAIL"])]
    if not status or any(s != "PASS" for s in status):
        return "a verify check line is not PASS"
    if not lines or lines[-1] != "result: PASS":
        return "verify result line is not PASS"
    adjudication = [line for line in lines if _ADJUDICATION in line]
    if len(adjudication) != 1 or not _adjudication_ok(adjudication[0]):
        return "length-15 adjudication does not show 563 against 562"
    return None


def check(
    argv: list[str],
    returncode: int,
    stdout: bytes,
    out_path: Path,
    expected: dict[str, str],
) -> str | None:
    """Return None when the invocation's output is correct, else the reason."""
    if returncode != 0:
        return f"exit status {returncode}"
    if argv[0] == "verify":
        return _check_verify(argv, stdout)
    want = expected.get(key(argv))
    if want is None:
        return "no recorded output for this argument vector"
    if OUT in argv:
        if stdout != f"wrote {out_path}\n".encode():
            return "unexpected standard output from render"
        try:
            got = digest(out_path.read_bytes())
        except FileNotFoundError:
            return "render wrote no file"
    else:
        got = digest(stdout)
    return None if got == want else "output differs from the recorded bytes"


def check_anchor(pattern: re.Pattern, returncode: int, stdout: bytes) -> str | None:
    if returncode != 0:
        return f"exit status {returncode}"
    if not pattern.search(stdout.decode("utf-8", "replace")):
        return f"anchor {pattern.pattern!r} not found"
    return None
