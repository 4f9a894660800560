"""Record the expected output of every argument vector any seed can draw.

Run from the repository root, at a commit where the acceptance tests in
`tests/` pass:

    python3 bench/record.py

Each vector runs in a fresh CLI child, exactly as in a timed run, and
its standard output (or, for `render`, the figure file) is stored as a
sha256 in bench/expected.json.  `verify` is checked by structure and has
no entry.  A program change that alters any of these bytes is a bug by
the README's promise, so this file changes only when the menu does.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
from run import HERE, Runner
from workloads import OUT, WORKLOADS, all_vectors, key


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "skewdyck" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as tmp:
        runner = Runner(root, Path(tmp), {})
        for workload in WORKLOADS:
            for argv in all_vectors(workload):
                if argv[0] == "verify":
                    continue
                _wall, _cpu, _rss, code, stdout = runner.spawn(argv)
                if code != 0:
                    print(f"error: {key(argv)} exited with {code}", file=sys.stderr)
                    return 1
                data = runner.out_path.read_bytes() if OUT in argv else stdout
                runner.out_path.unlink(missing_ok=True)
                digests[key(argv)] = checks.digest(data)
    checks.EXPECTED_PATH.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
