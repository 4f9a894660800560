"""Reference programs that the timed loop runs between CLI children.

A shared host runs faster or slower for minutes at a time, and how much
depends on the kind of work: big-integer arithmetic, `Fraction` series
and object-heavy string building do not slow down alike.  So each
workload has a reference program that does the kind of work its CLI
invocations spend their time on, and `run.py` scales the children's CPU
times by it.  A reference runs as `python -I -c`, a fresh interpreter
with nothing of the repository on its path, so no change to the program
can move it.  Each prints a short JSON list that `run.py` checks.
"""

from __future__ import annotations

# A big-integer lattice-path table, like `automaton.dp_counts`.
LATTICE = """
row = [1] + [0] * 39
for _ in range({rounds}):
    row = [row[1]] + [row[i - 1] + row[i + 1] for i in range(1, 39)] + [row[38]]
out.append(row[0] % 1000003)
"""

# A truncated product and reciprocal of `Fraction` series, like `series`.
SERIES = """
a = [Fraction(k + 1, k + 2) for k in range({order})]
b = [sum(a[i] * a[k - i] for i in range(k + 1)) for k in range({order})]
inv = [1 / b[0]]
for k in range(1, {order}):
    inv.append(-sum(b[i] * inv[k - i] for i in range(1, k + 1)) / b[0])
out.append(inv[-1].denominator % 1000003)
"""

# Every word of a fixed length over three steps that returns to level 0,
# built by a pruned recursion over enum members and drawn as SVG lines
# with `Fraction` coordinates, like `paths.enumerate_words` and `render`.
WORDS = """
import enum
class Step(enum.Enum):
    U = 1
    D = -2
    L = -1
words, prefix = [], []
def extend(level, last):
    if len(prefix) == {length}:
        if level == 0:
            words.append(tuple(prefix))
        return
    for s in Step:
        if (last is Step.U and s is Step.L) or (last is Step.L and s is Step.U):
            continue
        if level + s.value >= 0:
            prefix.append(s)
            extend(level + s.value, s)
            prefix.pop()
extend(0, None)
lines = []
for w in words:
    x = y = Fraction(0)
    for s in w:
        nx, ny = x + (1 if s is not Step.L else -1), y + Fraction(s.value, 2)
        lines.append(f'<line x1="{{float(x)}}" y1="{{float(y)}}" x2="{{float(nx)}}" y2="{{float(ny)}}"/>')
        x, y = nx, ny
out.append(len(words))
out.append(len("\\n".join(lines)) % 1000003)
"""


def _program(*parts: str) -> str:
    # argparse and json stand in for the CLI's own start-up imports
    return "import argparse, json\nfrom fractions import Fraction\nout = []\n" + "".join(parts) + "print(json.dumps(out))\n"


# workload -> (reference program, its expected standard output)
REFERENCES = {
    "count-table": (_program(LATTICE.format(rounds=5000)), b"[112643]\n"),
    "series-kernel": (_program(SERIES.format(order=60)), b"[930245]\n"),
    # `verify` spends nineteen twentieths of its time in `series`
    "verify-suite": (_program(SERIES.format(order=60)), b"[930245]\n"),
    "render-figures": (_program(WORDS.format(length=15)), b"[346, 231940]\n"),
}
