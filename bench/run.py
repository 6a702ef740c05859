"""Benchmark of the hyplegendre library and CLI.

    python3 bench/run.py --workload dense_grid --seed 1 --seconds 30 --trace 0

Runs one workload (dense_grid, verify_sweep or families; see
bench/README.md) as a closed loop: one client, one thread, the next op
starting when the previous one ends.  Every op's output is checked.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics, each metric as {"value": ..., "unit": ...}.

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
alternates untraced and traced passes over a fixed set of ops and reports
the per-layer metrics of the traced passes.  The library is imported from
src/ next to this directory; nothing under src/ is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
SEGMENT_S = 0.1
WARMUP_S = 1.0
SETUP_CHILDREN = 22  # half before the timed loop, half after it
IMPORTTIME_REPEATS = 3
PACKAGE_MODULES = ("hyplegendre", "hyplegendre.errors", "hyplegendre.hypergeom",
                   "hyplegendre.ode_solutions", "hyplegendre.legendre_families",
                   "hyplegendre.rng", "hyplegendre.verify", "hyplegendre.cli")

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import hyplegendre.cli
t1 = time.perf_counter()
print(repr(t1 - t0), hyplegendre.cli.__file__)
"""


class _Sink:
    """Stands in for stdout while tables are printed; keeps only a count."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


class Tally:
    """What one pass over the blocks did."""

    def __init__(self) -> None:
        self.attempted = 0
        self.outcomes = Counter()
        self.latency_ns = array("q")  # successful ops only
        self.wall_s = 0.0

    def add(self, other: "Tally") -> None:
        """Adds the counts of `other`; latencies and time are not kept."""
        self.attempted += other.attempted
        self.outcomes.update(other.outcomes)

    @property
    def ok(self) -> int:
        return self.outcomes["ok"]  # workloads.OK, which needs src/ on the path

    @property
    def values_right(self) -> bool:
        """No op returned a wrong or non-finite value (workloads.WRONG,
        workloads.NONFINITE)."""
        return not (self.outcomes["wrong"] or self.outcomes["nonfinite"])


class HostSpeed:
    """How fast the host runs a fixed pure-Python calibration round right
    now, relative to a reference host.

    Other tenants of a shared host slow every process on it by up to a
    half, in stretches of a fraction of a second to a minute.  The round
    does work of the same kind as the library (float series, math-module
    special functions, mpmath, Fraction objects) and is timed ROUNDS times
    at each boundary between short segments of the timed loop; dividing a
    segment's timings by the factor of the rounds on both sides of it
    reports them at the reference host's speed.  The round uses no code of
    the library, so a change to the library cannot move it.
    """

    REFERENCE_US = 500.0  # one round on the reference host
    ROUNDS = 3

    def __init__(self) -> None:
        self.samples_ns = array("q")

    @staticmethod
    def _round() -> float:
        acc = 0.0
        for j in range(8):
            a, b, c, z = 0.3 + 0.01 * j, 1.7, 0.9, 0.45
            term = total = 1.0
            for k in range(60):
                term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
                total += term
            acc += total
        for k in range(1, 200):
            x = 0.37 * k
            acc += math.lgamma(x) + math.sin(x) * math.exp(-x) + x ** 0.3
        with mpmath.workdps(15):
            acc += float(mpmath.hyp2f1(0.3, 1.7, 0.9, 0.7) + mpmath.gamma(3.3))
        frac = Fraction(0)
        for k in range(1, 25):
            frac += Fraction(1, k * k)
        return acc + float(frac)

    def sample(self) -> int:
        """Times ROUNDS rounds; returns the index of the first."""
        first = len(self.samples_ns)
        for _ in range(self.ROUNDS):
            t0 = time.perf_counter_ns()
            self._round()
            self.samples_ns.append(time.perf_counter_ns() - t0)
        return first

    def factor(self, since: int = 0) -> float:
        """Reference time over measured time for the rounds from `since`
        on; below 1 when the host is slower than the reference."""
        return self.REFERENCE_US * 1000.0 / statistics.median(self.samples_ns[since:])


class LatencyHistogram:
    """Latencies in log-spaced bins 0.1% wide.

    Its memory stays the same however many ops a run makes, so the
    harness does not move `peak_rss_mb` when the library gets faster.
    """

    RATIO = 1.001
    LOW_NS = 100.0  # 0.1 us; bins reach past 100 s
    BINS = 21000

    def __init__(self) -> None:
        self.bins = array("q", bytes(8 * self.BINS))
        self.count = 0
        self._log_ratio = math.log(self.RATIO)

    def add(self, ns: float) -> None:
        i = int(math.log(max(ns, self.LOW_NS) / self.LOW_NS) / self._log_ratio)
        self.bins[min(i, self.BINS - 1)] += 1
        self.count += 1

    def quantile(self, q: float) -> float:
        """The q-quantile in ns, interpolated inside its bin."""
        rank = q * (self.count - 1)
        seen = 0
        for i, n in enumerate(self.bins):
            if seen + n > rank:
                return self.LOW_NS * self.RATIO ** (i + (rank - seen + 0.5) / n)
            seen += n
        raise ValueError("empty histogram")


def run_blocks(wl, blocks, sink: _Sink, deadline: float | None = None,
               start: int = 0) -> tuple[Tally, int]:
    """Run the blocks in order from `start`, cycling, until `deadline`; with
    no deadline, run each block once.  Each op is timed alone; its output is
    classified after its timer stops, and each block's rows are printed as
    one table.  Returns the tally and the index of the next block."""
    import workloads as w
    from hyplegendre import cli
    from hyplegendre.errors import Error

    tally = Tally()
    clock = time.perf_counter_ns
    begin = time.perf_counter()
    with redirect_stdout(sink):
        i = start
        while True:
            block = blocks[i % len(blocks)]
            rows = []
            for op_id, x in block.ops:
                t0 = clock()
                try:
                    out = wl.op(block.context, x)
                except Error:
                    outcome = w.TYPED
                except Exception:  # an untyped failure is counted, not raised
                    outcome = w.UNTYPED
                else:
                    elapsed = clock() - t0
                    outcome = wl.classify(op_id, x, out)
                    if outcome == w.OK:
                        tally.latency_ns.append(elapsed)
                    rows.extend(wl.rows(x, out))
                tally.attempted += 1
                tally.outcomes[outcome] += 1
            if rows:
                cli.emit_table(wl.headers, rows, "csv")
            i += 1
            if (i == start + len(blocks)) if deadline is None else (
                    time.perf_counter() >= deadline):
                break
    tally.wall_s = time.perf_counter() - begin
    return tally, i % len(blocks)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)


def time_setup(speed: HostSpeed, children: int) -> list[float]:
    """Times of `import hyplegendre.cli` in `children` fresh interpreters,
    at the reference host's speed.  Only the import statement is timed, not
    interpreter start or `site`.  Each child is scaled by the calibration
    rounds on both sides of it."""
    times = []
    for _ in range(children):
        first_sample = speed.sample()
        seconds, path = _child(["-c", _IMPORT_PROBE, str(SRC)]).stdout.split()
        speed.sample()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"hyplegendre.cli imported from {path}, not {SRC}")
        times.append(float(seconds) * speed.factor(first_sample))
    return times


def measure_import_self_us() -> dict:
    """Per-module import self time (click: cumulative) from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        err = _child(["-X", "importtime", "-c",
                      "import sys; sys.path.insert(0, sys.argv[1]); import hyplegendre.cli",
                      str(SRC)]).stderr
        seen = {}
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[0].isdigit():
                self_us, cumulative_us, module = int(parts[0]), int(parts[1]), parts[2]
                if module in PACKAGE_MODULES:
                    seen[module] = self_us
                elif module == "click":
                    seen[module] = cumulative_us
        runs.append(seen)
    return {m: statistics.median(r.get(m, 0) for r in runs) for m in PACKAGE_MODULES + ("click",)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(wl, seconds: int) -> dict:
    """End-to-end metrics.  After WARMUP_S, the loop runs for `seconds` in
    segments of SEGMENT_S.  Each segment's timings are scaled by the
    host-speed factor of the calibration rounds on both sides of it;
    latency percentiles are taken over every op of the run, and throughput
    is the median of the segments' rates.  `setup_s` is the median of
    import children run before and after the loop, so that it samples the
    host at two times; one more child first, which may write the bytecode
    caches, is not counted."""
    speed = HostSpeed()
    time_setup(speed, 1)
    setup_times = time_setup(speed, SETUP_CHILDREN // 2)
    sink = _Sink()
    total = Tally()
    latency = LatencyHistogram()
    rates = []
    nxt = 0
    warm_end = time.perf_counter() + WARMUP_S
    end = warm_end + seconds
    before = speed.sample()
    while time.perf_counter() < end:
        timing = time.perf_counter() >= warm_end
        tally, nxt = run_blocks(wl, wl.blocks, sink, start=nxt,
                                deadline=min(end, time.perf_counter() + SEGMENT_S))
        after = speed.sample()
        factor = speed.factor(before)
        before = after
        total.add(tally)
        if timing and tally.ok:
            for ns in tally.latency_ns:
                latency.add(ns * factor)
            rates.append(tally.ok / (tally.wall_s * factor))
    peak = _peak_rss_mb()
    setup_times += time_setup(speed, SETUP_CHILDREN - SETUP_CHILDREN // 2)
    if latency.count < 10:
        raise RuntimeError(f"only {latency.count} timed successful ops; "
                           "latency percentiles are undefined")
    return {
        "correct": total.values_right,
        "attempted": total.attempted,
        "failed": total.attempted - total.ok,
        "metrics": {
            "throughput_ops_s": _metric(statistics.median(rates), "1/s"),
            "op_p50_us": _metric(latency.quantile(0.5) / 1000.0, "us"),
            "op_p90_us": _metric(latency.quantile(0.9) / 1000.0, "us"),
            "success_rate": _metric(total.ok / total.attempted, "ratio"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(peak, "MB"),
        },
    }


def _hyp2f1_errors(samples: dict) -> dict:
    """Largest relative error of the sampled hyp2f1 values per region,
    against mpmath at 40 digits."""
    worst = {}
    with mpmath.workdps(40):
        for where, kept in samples.items():
            errs = [0.0]
            for a, b, c, z, value in kept:
                ref = mpmath.hyp2f1(a, b, c, z)
                if ref != 0:
                    errs.append(float(abs((value - ref) / ref)))
            worst[where] = max(errs)
    return worst


def traced_run(wl, seconds: int, spans_path: Path) -> dict:
    import tracing
    import workloads

    blocks = wl.blocks[:wl.trace_blocks]
    tracer = tracing.Tracer()
    sink = _Sink()
    untraced, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_blocks(wl, blocks, sink)[0])
        chars_before = sink.chars
        tracer.reset()
        tracer.sampling = not traced
        tracer.install()
        try:
            traced.append(run_blocks(wl, blocks, sink)[0])
        finally:
            tracer.remove()
        summaries.append(tracer.summary())
        if len(traced) == 1:
            chars_per_pass = sink.chars - chars_before
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)  # the spans of the last traced pass

    first = summaries[0]
    repeat_keys = ("calls", "regions", "post_inits")
    repeated = all(s[k] == first[k] for s in summaries for k in repeat_keys)
    if not repeated:
        print("error: call counts differ between traced passes", file=sys.stderr)
    ops = traced[0].attempted

    def per_op(values) -> float:
        return statistics.median(values) / ops

    metrics = {}
    for qual in tracing.SPAN_NAMES:
        metrics[f"{qual}.calls_per_op"] = _metric(first["calls"].get(qual, 0) / ops, "calls/op")
        metrics[f"{qual}.self_us_per_op"] = _metric(
            per_op([s["self_ns"].get(qual, 0) for s in summaries]) / 1000.0, "us/op")
    metrics["hypergeom.Hyp2F1.new_per_op"] = _metric(first["post_inits"] / ops, "calls/op")
    errors = _hyp2f1_errors(tracer.samples)
    for where in tracing.REGIONS:
        metrics[f"hypergeom.hyp2f1.region.{where}.calls_per_op"] = _metric(
            first["regions"].get(where, 0) / ops, "calls/op")
        metrics[f"hypergeom.hyp2f1.region.{where}.err_max_rel"] = _metric(errors[where], "ratio")
    draws = first["calls"].get("rng.draw_ode_params", 0)
    accepted = first["calls"].get("rng.draw_nondegenerate", 0)
    metrics["rng.accept_ratio"] = _metric(accepted / draws if draws else 0.0, "ratio")
    for suite in tracing.SUITES:
        metrics[f"verify.run_suite.{suite}.total_us_per_op"] = _metric(
            per_op([s["suite_ns"].get(suite, 0) for s in summaries]) / 1000.0, "us/op")
    metrics["cli.emit_table.bytes_per_op"] = _metric(chars_per_pass / ops, "B/op")
    probe = workloads.KnownFailures()
    known = run_blocks(probe, probe.blocks, sink)[0].outcomes
    for kind in (workloads.TYPED, workloads.UNTYPED, workloads.NONFINITE, workloads.WRONG):
        metrics[f"fail.{kind}"] = _metric(traced[0].outcomes[kind], "count")
        metrics[f"known_failures.{kind}"] = _metric(known[kind], "count")
    rate = statistics.median(t.attempted / t.wall_s for t in traced)
    base = statistics.median(t.attempted / t.wall_s for t in untraced)
    metrics["trace.throughput_drop"] = _metric(1.0 - rate / base, "ratio")
    for module, us in measure_import_self_us().items():
        short = module.removeprefix("hyplegendre.")
        kind = "cumulative_us" if module == "click" else "self_us"
        metrics[f"import.{short}.{kind}"] = _metric(us, "us")
    passes = untraced + traced
    attempted = sum(t.attempted for t in passes)
    return {
        "correct": repeated and all(t.values_right for t in passes),
        "attempted": attempted,
        "failed": attempted - sum(t.ok for t in passes),
        "metrics": metrics,
    }


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("dense_grid", "verify_sweep", "families"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hyplegendre" / "__init__.py").is_file():
        print(f"error: no hyplegendre sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyplegendre.cli  # noqa: F401  (imports every module of the package)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = traced_run(wl, args.seconds,
                            SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        result = timed_run(wl, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
