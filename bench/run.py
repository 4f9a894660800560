"""End-to-end benchmark of the `skewdyck` CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload count-table --seed 1 --seconds 30 --trace 0

With `--trace 0` this is a single-client closed loop: each invocation of
the seeded plan runs in a fresh `python -m skewdyck.cli` child, one child
at a time, and the plan repeats until `--seconds` have passed.  Child
times are CPU seconds scaled by a fixed reference program timed between
the children (see `timed_loop`), so a host that runs faster or slower
for a while moves them less than it moves wall time.  With
`--trace 1` the same plan runs in this process instead, alternating an
untraced pass with a traced one, and the per-layer metrics come
from the spans.  Every output is checked.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import layertrace
from reference import REFERENCES
from workloads import OUT, WORKLOADS, plan

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 60.0
# CPU time of a reference child on the host the scaled times refer to
REF_S = 0.1

END_TO_END = [
    ("pass_cpu_s", "s"),
    ("cmd_p50_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
]


@dataclass
class Sample:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    reason: str | None  # None when the output was correct


class Runner:
    """Runs CLI invocations in fresh children and checks their outputs."""

    def __init__(self, root: Path, workdir: Path, expected: dict[str, str]):
        self.root = root
        self.workdir = workdir
        self.expected = expected
        self.out_path = workdir / "figure.out"
        pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        # Children keep bytecode caches, as an installed package would,
        # whatever the caller's environment says.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = pythonpath
        self.samples: list[Sample] = []

    def spawn(self, argv: list[str], module: bool = True) -> tuple[float, float, float, int, bytes]:
        """Run one child; return (wall s, CPU s, max RSS MB, exit status, stdout).

        The child is `python -m skewdyck.cli *argv`, or `python *argv`
        when `module` is false.
        """
        real = [str(self.out_path) if a == OUT else a for a in argv]
        if module:
            real = ["-m", "skewdyck.cli", *real]
        stdout_path = self.workdir / "stdout"
        timed_out = threading.Event()
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *real],
                stdout=out, stderr=err, cwd=self.root, env=self.env,
            )

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(CHILD_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = -1 if timed_out.is_set() else proc.returncode
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024, code, stdout_path.read_bytes()

    def run(self, argv: list[str]) -> Sample:
        wall, cpu, rss, code, stdout = self.spawn(argv)
        reason = checks.check(argv, code, stdout, self.out_path, self.expected)
        self.out_path.unlink(missing_ok=True)
        sample = Sample(argv, wall, cpu, rss, reason)
        self.samples.append(sample)
        return sample

    def anchors(self) -> None:
        for argv, pattern in checks.ANCHORS:
            wall, cpu, rss, code, stdout = self.spawn(argv)
            self.samples.append(Sample(argv, wall, cpu, rss, checks.check_anchor(pattern, code, stdout)))

    def setup(self, repeats: int) -> list[Sample]:
        """Run `--help` in fresh interpreters."""
        for _ in range(repeats):
            wall, cpu, rss, code, stdout = self.spawn(["--help"])
            ok = code == 0 and stdout.startswith(b"usage: skewdyck")
            self.samples.append(Sample(["--help"], wall, cpu, rss, None if ok else "bad --help output"))
        return self.samples[-repeats:]

    def reference(self, workload: str) -> float:
        """CPU seconds of one run of the workload's reference program."""
        program, expected = REFERENCES[workload]
        wall, cpu, rss, code, stdout = self.spawn(["-I", "-c", program], module=False)
        if code != 0 or stdout != expected:
            raise RuntimeError(f"reference child failed: exit {code}, output {stdout[:80]!r}")
        return cpu


def run_inprocess(cli, argv: list[str], out_path: Path, expected: dict[str, str]) -> tuple[float, str | None]:
    """Call `cli.main` in this process; return (wall s, failure reason)."""
    real = [str(out_path) if a == OUT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(real)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    wall = perf_counter() - start
    reason = checks.check(argv, code, out.getvalue().encode(), out_path, expected)
    out_path.unlink(missing_ok=True)
    return wall, reason


def timed_loop(runner: Runner, workload: str, argvs: list[list[str]], seconds: float) -> dict[str, float]:
    """Repeat the pass for `seconds`; return the end-to-end metrics.

    A shared host runs at different speeds from one minute to the next.
    That moves every child's CPU time as much as its wall time, and a
    run is too short to average it out.  So the workload's reference
    program (see `reference.py`) runs in a child on the same CPU before
    the first CLI child and after each one, and the CLI children's CPU
    times are scaled by REF_S over the run's median reference CPU time:
    a scaled time is what the child would take on a host where the
    reference takes REF_S.  CPU time, unlike wall time, leaves out the
    time a child waited for a CPU.  `setup_s` is scaled the same way.
    Unscaled times are printed alongside.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    runner.anchors()
    runner.setup(1)  # the first start writes bytecode caches; users pay that once
    setup, pass_cpu, pass_walls, refs, timed = [], [], [], [runner.reference(workload)], []
    start = perf_counter()
    # Set-up samples are spread over the run, a few before each pass, so
    # their median averages over the same host-speed drift as the passes.
    while not pass_walls or perf_counter() - start < seconds:
        setup += runner.setup(SETUP_PER_PASS)
        for argv in argvs:
            timed.append(runner.run(argv))
            refs.append(runner.reference(workload))
        pass_cpu.append(sum(s.cpu_s for s in timed[-len(argvs):]))
        pass_walls.append(sum(s.wall_s for s in timed[-len(argvs):]))
    scale = REF_S / statistics.median(refs)
    print(f"# passes {len(pass_walls)}, CPU s: " + " ".join(f"{w:.3f}" for w in pass_cpu))
    print("# passes, wall s: " + " ".join(f"{w:.3f}" for w in pass_walls))
    print(f"# reference median {statistics.median(refs):.5f} s over {len(refs)}, scale {scale:.4f}")
    print(f"# unscaled medians: pass CPU {statistics.median(pass_cpu):.4f} s, pass wall {statistics.median(pass_walls):.4f} s, "
          f"invocation CPU {statistics.median(s.cpu_s for s in timed):.4f} s, "
          f"invocation wall {statistics.median(s.wall_s for s in timed):.4f} s, "
          f"setup CPU {statistics.median(s.cpu_s for s in setup):.4f} s, "
          f"setup wall {statistics.median(s.wall_s for s in setup):.4f} s")
    print(f"# cmd_p50_cpu_s over {len(timed)} invocations, setup_s over {len(setup)} starts")
    failed = sum(s.reason is not None for s in runner.samples)
    return {
        "pass_cpu_s": statistics.median(pass_cpu) * scale,
        "cmd_p50_cpu_s": statistics.median(s.cpu_s for s in timed) * scale,
        "peak_rss_mb": max(s.rss_mb for s in timed),
        "setup_s": statistics.median(s.cpu_s for s in setup) * scale,
        "ok_frac": 1 - failed / len(runner.samples),
    }


def traced_loop(runner: Runner, argvs: list[list[str]], seconds: float, spans_path: Path) -> tuple[dict[str, float], list[str]]:
    """Alternate untraced and traced in-process passes; return metrics and problems."""
    runner.anchors()
    src = str(runner.root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    layertrace.layer_modules()
    cli = sys.modules["skewdyck.cli"]
    problems: list[str] = []

    def run_pass(tracer=None, pass_argvs=argvs) -> float:
        walls = []
        for inv, argv in enumerate(pass_argvs):
            if tracer is not None:
                tracer.inv = inv
            wall, reason = run_inprocess(cli, argv, runner.out_path, runner.expected)
            walls.append(wall)
            runner.samples.append(Sample(argv, wall, 0.0, 0.0, reason))
        if tracer is not None:
            for inv, own in layertrace.invocation_self_sums(tracer.spans).items():
                if inv is None or own > walls[inv] + 1e-6:
                    problems.append(f"self times of invocation {inv} exceed its wall time")
        return sum(walls)

    def traced_pass() -> float:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            wall = run_pass(tracer)
        finally:
            tracer.uninstall()
        nonlocal last_spans
        last_spans = tracer.spans
        per_pass.append(layertrace.pass_metrics(tracer.spans, tracer.max_bits))
        write_spans(spans_file, len(per_pass) - 1, tracer.spans)
        return wall

    untraced, traced, per_pass, last_spans = [], [], [], []
    start = perf_counter()
    with open(spans_path, "w") as spans_file:
        while not traced or perf_counter() - start < seconds:
            # alternate which side of the pair runs first
            if len(traced) % 2:
                traced.append(traced_pass())
                untraced.append(run_pass())
            else:
                untraced.append(run_pass())
                traced.append(traced_pass())
    metrics = layertrace.median_metrics(per_pass)
    # tracemalloc is slow, so only the invocation whose tables hold the
    # most cells runs again under it
    largest = layertrace.largest_dp_invocation(last_spans)
    metrics["automaton.dp_counts.peak_mb"] = (
        0.0 if largest is None
        else layertrace.dp_counts_peak_mb(lambda: run_pass(pass_argvs=[argvs[largest]]))
    )
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1
    print(f"# traced passes {len(traced)}; untraced walls " + " ".join(f"{w:.3f}" for w in untraced)
          + "; traced walls " + " ".join(f"{w:.3f}" for w in traced))
    return metrics, problems


def write_spans(fh, pass_id: int, spans: list[list]) -> None:
    for sid, (name, parent, inv, t0, t1, _extra) in enumerate(spans):
        fh.write(json.dumps(
            {"pass": pass_id, "id": sid, "name": name, "start": t0, "end": t1,
             "parent": parent if parent >= 0 else None, "inv": inv}
        ) + "\n")


def metadata(root: Path, args) -> dict:
    """Run metadata recorded next to the metrics; none of it is a metric."""
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "src_lines": src_lines,
    }


def write_layer_row(workload: str, seed: int, metrics: dict[str, float]) -> None:
    """Keep one row per workload in results/layers.csv."""
    path = RESULTS / "layers.csv"
    names = [name for name, _unit in layertrace.PER_LAYER]
    rows = {}
    if path.is_file():
        with open(path, newline="") as fh:
            rows = {row["workload"]: row for row in csv.DictReader(fh)}
    rows[workload] = {"workload": workload, "seed": seed, **{n: metrics[n] for n in names}}
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["workload", "seed", *names])
        writer.writeheader()
        writer.writerows(rows[w] for w in sorted(rows))


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "skewdyck" / "cli.py").is_file():
        print(f"error: no skewdyck source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    expected = checks.load_expected()
    meta = metadata(root, args)
    print("# meta " + json.dumps(meta))
    argvs = plan(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as tmp:
        runner = Runner(root, Path(tmp), expected)
        if args.trace:
            values, problems = traced_loop(runner, argvs, args.seconds, RESULTS / f"{stem}.spans.jsonl")
            units = dict(layertrace.PER_LAYER)
            write_layer_row(args.workload, args.seed, values)
        else:
            values, problems = timed_loop(runner, args.workload, argvs, args.seconds), []
            units = dict(END_TO_END)
    bad = [s for s in runner.samples if s.reason is not None]
    for s in bad:
        print(f"# FAILED {' '.join(s.argv)}: {s.reason}")
    for p in problems:
        print(f"# PROBLEM {p}")
    metrics = metric_block(values, units)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not bad and not problems,
        "attempted": len(runner.samples),
        "failed": len(bad),
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {**result, "meta": meta, "problems": problems,
         "samples": [{"argv": s.argv, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb, "failure": s.reason}
                     for s in runner.samples]},
        indent=1,
    ) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
