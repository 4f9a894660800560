"""Self-test of the benchmark itself (about 15 s).

Run from the repository root:

    python3 bench/selftest.py

For each workload it runs one small invocation from the menu, once in a
child as the timed loop does and once in process under the trace, and
checks that every metric BENCHMARK.json declares is emitted with its
unit and that the workload's dominant layer is the expected one.  It
then corrupts one recorded digest and checks that the invocation counts
as failed, and feeds the `verify` checker reports it must reject.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import layertrace
from run import END_TO_END, HERE, Runner, metric_block, timed_loop, traced_loop
from workloads import all_vectors, key

SMOKE = {
    "count-table": (["count", "--t", "4", "--n", "0:400", "--format", "csv"], {"automaton"}),
    "series-kernel": (["series", "R", "--order", "192"], {"series"}),
    "verify-suite": (["verify", "--order", "48", "--t", "2,3,4", "--format", "text"], {"series"}),
    "render-figures": (
        ["render", "--t", "3", "--n", "16", "--mode", "skew", "--style", "left",
         "--format", "tikz", "--out", "{out}"],
        {"render", "paths"},
    ),
}

VERIFY_OK = (
    "verification (order=48, t=2)\n"
    "  PASS  narayana vs R  [n <= 40]\n"
    "  PASS  length-15 adjudication  [table count is 563; kernel series gives 563, R gives 562]\n"
    "result: PASS\n"
)


def declared(section: str) -> list[tuple[str, str]]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def emitted_ok(block: dict, names: list[tuple[str, str]]) -> bool:
    return list(block) == [n for n, _ in names] and all(
        block[n]["unit"] == u and isinstance(block[n]["value"], (int, float)) for n, u in names
    )


def main() -> int:
    root = Path.cwd()
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    expect(declared("end_to_end") == END_TO_END, "BENCHMARK.json end_to_end matches the timed loop")
    expect(declared("per_layer") == layertrace.PER_LAYER, "BENCHMARK.json per_layer matches the trace")
    expected = checks.load_expected()
    with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as tmp:
        for workload, (argv, dominant) in SMOKE.items():
            expect(key(argv) in {key(v) for v in all_vectors(workload)}, f"{workload}: smoke vector is on the menu")
            runner = Runner(root, Path(tmp), expected)
            values = timed_loop(runner, workload, [argv], 0)
            expect(all(s.reason is None for s in runner.samples), f"{workload}: child outputs are correct")
            expect(emitted_ok(metric_block(values, dict(END_TO_END)), END_TO_END),
                   f"{workload}: every end-to-end metric is emitted with its unit")
            runner = Runner(root, Path(tmp), expected)
            values, problems = traced_loop(runner, [argv], 0, Path(tmp) / "spans.jsonl")
            expect(not problems and all(s.reason is None for s in runner.samples),
                   f"{workload}: traced outputs are correct and self times fit in wall times")
            expect(emitted_ok(metric_block(values, dict(layertrace.PER_LAYER)), layertrace.PER_LAYER),
                   f"{workload}: every per-layer metric is emitted with its unit")
            layers = {layer: values[f"layer.{layer}.self_s"] for layer in layertrace.LAYERS}
            top = sorted(layers, key=layers.get, reverse=True)[: len(dominant)]
            expect(set(top) == dominant, f"{workload}: dominant layer is {sorted(dominant)} (got {top})")

        argv = SMOKE["count-table"][0]
        corrupted = dict(expected)
        corrupted[key(argv)] = "0" * 64
        runner = Runner(root, Path(tmp), corrupted)
        values = timed_loop(runner, "count-table", [argv], 0)
        bad = [s for s in runner.samples if s.reason is not None]
        expect(len(bad) >= 1 and all(s.argv == argv for s in bad) and values["ok_frac"] < 1,
               "a corrupted expected digest counts as a failed invocation")

    verify_argv = ["verify", "--order", "48", "--t", "2", "--format", "text"]
    out = Path("unused")
    expect(checks.check(verify_argv, 0, VERIFY_OK.encode(), out, {}) is None, "verify checker accepts a passing report")
    for what, text in [
        ("a FAIL line", VERIFY_OK.replace("PASS  narayana", "FAIL  narayana")),
        ("562 against 562", VERIFY_OK.replace("gives 563, R", "gives 562, R").replace("is 563", "is 562")),
        ("no adjudication line", VERIFY_OK.replace("length-15 adjudication", "other")),
    ]:
        expect(checks.check(verify_argv, 0, text.encode(), out, {}) is not None, f"verify checker rejects {what}")
    expect(checks.check(verify_argv, 1, VERIFY_OK.encode(), out, {}) is not None, "verify checker rejects exit status 1")

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
