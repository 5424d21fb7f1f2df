"""Known-answer benchmark of the hdabisim CLI.

    python3 bench/run.py --workload decide --seed 1 --seconds 50 --trace 0

Times the set-up (import and building the workload's corpus from the seed,
see corpus.py) in three fresh processes, builds the corpus, then replays it
as a closed loop: one client, one request at a time, each request one
in-process ``hdabisim.cli.main(argv, out=buffer)`` call from JSON load to
JSON emit.  Every report is checked against its known answer (check.py).

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` every cycle of the loop runs twice, untraced and traced
(spans.py), and the run prints the per-layer metrics and the tracing
overhead; the spans are written to ``bench/_work/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
DEFAULT_SEED = 1


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _timed_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    CLI and the benchmark and written the workload's corpus: the set-up that
    precedes the first request."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            "import hdabisim.cli, check, corpus, spans; "
            f"corpus.build({workload!r}, {seed}, {str(workdir)!r})")
    started = time.perf_counter()
    # No timeout: with one, the wait polls and rounds the time up to 50 ms.
    subprocess.run([sys.executable, "-c", code], check=True)
    elapsed = time.perf_counter() - started
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Loop:
    """Closed-loop replay of a corpus, one cycle of the tier pattern at a
    time, with every report checked."""

    def __init__(self, requests, pattern, cli, check):
        self.by_tier = {t: [r for r in requests if r.tier == t] for t in pattern}
        self.pattern = pattern
        self.cli, self.check = cli, check
        self.next = dict.fromkeys(pattern, 0)
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.outcomes = {"decided": 0, "undecided": 0, "wrong": 0, "crashed": 0}
        self.problems: list[str] = []

    def cycle(self) -> list:
        out = []
        for tier in self.pattern:
            pool = self.by_tier[tier]
            out.append(pool[self.next[tier] % len(pool)])
            self.next[tier] += 1
        return out

    def request(self, req, tracer=None) -> None:
        # Start each request from a collected heap, as a fresh CLI process
        # would, so that peak memory does not depend on leftover garbage.
        gc.collect()
        buffer = io.StringIO()
        call = lambda: self.cli.main(req.argv, out=buffer)  # noqa: E731
        started = time.perf_counter()
        try:
            if tracer is None:
                call()
            else:
                tracer.run_request(call)
        except Exception as exc:  # a crash is reported, not fatal to the run
            self.outcomes["crashed"] += 1
            self.problems.append(f"{req.kind}: {type(exc).__name__}: {exc}")
            return
        finally:
            elapsed = time.perf_counter() - started
            (self.latencies if tracer is None else
             self.traced_latencies).append(elapsed)
        text = buffer.getvalue()
        buffer.close()
        outcome, reason = self.check.check(req.expect, req.argv, text)
        self.outcomes[outcome] += 1
        if outcome == "wrong":
            self.problems.append(f"{req.kind} {req.argv}: {reason}")
        if tracer is not None:
            tracer.finish_request(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hdabisim" / "__init__.py").is_file():
        return _fail(f"no hdabisim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hdabisim
    if Path(hdabisim.__file__).resolve().parent != SRC / "hdabisim":
        return _fail(f"imported hdabisim from {hdabisim.__file__}, not {SRC}")
    from hdabisim import cli

    import check
    import corpus
    import spans
    if args.workload not in corpus.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(corpus.WORKLOADS)}")

    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Set-up is timed in fresh processes, several times, and reported
        # as the median: one run in a warm process would leave out the
        # imports, and a single sample would follow a burst of load.
        setup_s = statistics.median([
            _timed_setup(args.workload, args.seed, workdir)
            for _ in range(SETUP_RUNS)])
        requests = corpus.build(args.workload, args.seed, str(workdir))

        loop = Loop(requests, corpus.PATTERN, cli, check)
        tracer = spans.Tracer() if args.trace else None
        # Warm-up: one cycle, checked but not timed, so that lazy imports and
        # first-call costs stay out of the figures.
        for req in loop.cycle():
            loop.request(req)
        loop.latencies.clear()
        started = time.perf_counter()
        cycle_rates = []
        while time.perf_counter() - started < args.seconds:
            batch = loop.cycle()
            # A traced run repeats each cycle with spans on, alternating
            # which pass goes first so that warm caches favour neither.
            passes = [None] if tracer is None else [None, tracer]
            if len(cycle_rates) % 2:
                passes.reverse()
            for traced in passes:
                if traced is None:
                    for req in batch:
                        loop.request(req)
                    cycle_rates.append(
                        len(batch) / sum(loop.latencies[-len(batch):]))
                    continue
                tracer.instrument()
                try:
                    for req in batch:
                        loop.request(req, tracer)
                finally:
                    tracer.restore()
        loop_s = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = loop.latencies
    attempted = sum(loop.outcomes.values())
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (_percentile(lat, 0.9), "s"),
            # Median over cycles of the tier pattern: a burst of load from
            # outside the benchmark slows a few cycles, not the figure.
            "requests_per_s": (statistics.median(cycle_rates), "1/s"),
            "decided_ratio": (loop.outcomes["decided"] / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        units = {m: "s" for m in ("cli.self_s", *spans.TIME_METRICS)}
        units.update({m: "count" for m in spans.COUNT_METRICS})
        units.update({"cli.emit_bytes": "bytes", "model_io.dump_bytes": "bytes"})
        units.update({m: "ratio" for m in spans.RATIO_METRICS})
        metrics = {m: (v, units[m]) for m, v in tracer.metrics().items()}
        traced = statistics.median(loop.traced_latencies)
        untraced = statistics.median(lat)
        metrics["trace.latency_p50_s"] = (traced, "s")
        metrics["trace.untraced_latency_p50_s"] = (untraced, "s")
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        spans_path = BENCH / "_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(str(spans_path))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} requests "
          f"in {loop_s:.1f} s ({len(lat)} untraced, {len(loop.traced_latencies)} "
          f"traced); outcomes {loop.outcomes}")
    for problem in loop.problems[:10]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    failed = loop.outcomes["wrong"] + loop.outcomes["crashed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
