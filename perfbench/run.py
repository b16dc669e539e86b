"""Benchmark of the wolstenholme package: one workload, one seed, one run.

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 20 --trace 0

The package is imported from `src/` beside this directory.  A run sets up
15 times and reports the median set-up time, then sends whole passes of
the workload's requests through `wolstenholme.cli.main`, checking every
output, until `--seconds` have passed, ending on a whole pass.  A calibration
probe runs after every request; request times are reported both as measured
and calibrated by it.  The last line of stdout is the result: {"correct",
"attempted", "failed", "metrics"}.  The line before it records the seed,
the interpreter, nproc, the worker threads and the per-kind latencies.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1` the run times the first passes untraced, runs them again
under `tracing.Tracer`, and reports the per-layer metrics instead.  Every
run uses one worker thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "wolstenholme"
SETUP_REPEATS = 15


def percentile(samples, q: float):
    """Nearest-rank q-th percentile, or None unless at least ten samples lie
    above it (so p90 needs 100 samples)."""
    xs = sorted(samples)
    rank = math.ceil(q / 100 * len(xs))
    if rank < 1 or len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# The calibration probe: a fixed piece of pure-Python work that the
# benchmark times before the first request and after every request.  Half
# of it is modular powers (C arithmetic), half small-int steps through calls,
# indexing and a dict (interpreter dispatch); together they follow the
# package's speed more closely than either alone.  It uses no package code,
# so no change to the package can move it; it allocates no containers and
# runs with the collector paused, so the package's heap cannot either.  What
# moves it is the machine: on a shared host the speed of one vCPU drifts by
# a fifth from minute to minute.  Calibrated times divide that drift out.
REF_PROBE_S = 0.001  # the probe's time at the reference speed
_SLOTS = dict.fromkeys(range(97), 0)
_ROW = tuple(range(1009))


def _power(k: int, p: int) -> int:
    return pow(k, 37, p) * pow(k + 3, p - 12, p) % p


def _step(a: int, b: int, p: int) -> int:
    return (a * b + 1) % p


def probe() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for k in range(1, 200):
            acc = (acc + _power(k, 1009) * k) % 1009
        for k in range(1, 1200):
            acc = _step(acc, _ROW[k % 1009], 1009)
            _SLOTS[k % 97] = (_SLOTS[k % 97] + acc) % 1009
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Tally:
    """What a sequence of requests did: latencies, probes and the outcome."""

    # (kind, wall seconds, index in `probes` of the probe just before it)
    samples: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    instances: int = 0
    errors: list = field(default_factory=list)
    # Peak RSS once the first pass is done.  Later passes can raise the
    # process peak through allocator fragmentation alone, so the peak at the
    # end of a run would grow with the number of passes that fit.
    first_pass_rss_mb: float | None = None

    @property
    def busy(self) -> float:
        return sum(dt for _, dt, _ in self.samples)

    @property
    def requests(self) -> int:
        return len(self.samples)

    def calibrated(self) -> list[tuple[str, float]]:
        """(kind, seconds at the reference speed) of every request: its wall
        time scaled by REF_PROBE_S over the median of the six probes around
        it, three before and three after."""
        out = []
        for kind, dt, i in self.samples:
            around = statistics.median(self.probes[max(0, i - 2): i + 4])
            out.append((kind, dt * REF_PROBE_S / around))
        return out


def run_request(cli, req, tally: Tally) -> None:
    """Send one request, time it, and check its output.  Each wrong or
    missing result is one failed op; a crash, or a nonzero exit whose output
    shows no failure, fails all the request's ops.  The run goes on."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(req.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a crashed request is counted, not fatal
        code = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    tally.samples.append((req.kind, dt, len(tally.probes) - 1))
    tally.probes.append(probe())
    tally.attempted += req.ops
    try:
        instances, errors = req.check(out.getvalue())
    except Exception as exc:  # unparsable output fails every op
        instances, errors = 0, [f"{type(exc).__name__}: {exc}"] * req.ops
    if code != 0 and not errors:
        errors = ["no failure in the output"] * req.ops
    if code != 0:
        errors = [f"exit {code}: {e}" for e in errors]
    tally.instances += instances
    tally.failed += len(errors)
    errors = [f"{' '.join(req.argv)}: {e}" for e in errors]
    tally.errors += errors[: max(0, 5 - len(tally.errors))]


def run_passes(cli, passes, seconds: float, tally: Tally,
               count: int | None = None) -> tuple[int, float]:
    """Run the passes in order, cycling, until `count` are done or, with no
    count, until `seconds` have passed; at least one, and always whole
    passes, so that every run weighs the requests of a pass alike.
    Returns (passes run, wall seconds)."""
    start = time.perf_counter()
    done = 0
    tally.probes.append(probe())
    while count is None or done < count:
        if count is None and done and time.perf_counter() - start >= seconds:
            break
        for req in passes[done % len(passes)]:
            run_request(cli, req, tally)
        done += 1
        if tally.first_pass_rss_mb is None:
            tally.first_pass_rss_mb = peak_rss_mb()
    return done, time.perf_counter() - start


def set_up(workload, seed: int):
    """Import the package afresh, build the workload's primes and generate
    its passes.  Returns (seconds, cli module, passes).  The previous
    set-up's modules are dropped and collected first, untimed, so that each
    set-up starts as a fresh process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    modarith = importlib.import_module(f"{PACKAGE}.modarith")
    for p in workload.primes:
        modarith.make_prime(p)
    passes = workload.passes(seed)
    return time.perf_counter() - t0, cli, passes


def latency_summary(samples) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds * 1000)
    return {kind: {"n": len(ms), "p50_ms": statistics.median(ms),
                   "p90_ms": percentile(ms, 90)}
            for kind, ms in sorted(by_kind.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import PER_LAYER, Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One worker thread: every verify request is one (theorem, prime), which
    # the package runs without its pool anyway, and on a shared host more
    # threads than cores measure the scheduler, not the program.
    os.environ["WOLSTENHOLME_THREADS"] = "1"

    setups, setups_cal = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        seconds, cli, passes = set_up(workload, args.seed)
        after = probe()
        setups.append(seconds)
        setups_cal.append(seconds * REF_PROBE_S / ((before + after) / 2))
        before = after

    tally = Tally()
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": nproc,
        "WOLSTENHOLME_THREADS": os.environ.get("WOLSTENHOLME_THREADS"),
        "trace": args.trace,
    }
    if args.trace:
        tracer = Tracer()
        tracer.calibrate()
        done, _ = run_passes(cli, passes, args.seconds / 4, tally)
        plain_s = tally.busy
        tracer.install(PACKAGE)
        unpatched = tracer.unpatched(PACKAGE)
        try:
            run_passes(cli, passes, 0, tally, count=done)
        finally:
            tracer.uninstall()
        missing = tracer.missing(workload.expect)
        tally.errors += [f"unpatched binding {u}" for u in unpatched]
        tally.errors += [f"traced run never called {m}" for m in missing]
        correct = tally.failed == 0 and not unpatched and not missing
        info.update(passes=done)
        values = tracer.metrics((tally.busy - plain_s) / plain_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        done, wall = run_passes(cli, passes, args.seconds, tally)
        correct = tally.failed == 0
        raw = [(kind, dt) for kind, dt, _ in tally.samples]
        cal = tally.calibrated()
        info.update(
            passes=done,
            requests=tally.requests,
            measured_s=wall,
            instances=tally.instances,
            instances_per_s=tally.instances / tally.busy,
            instances_per_cal_s=tally.instances / sum(dt for _, dt in cal),
            probe_ms=statistics.median(tally.probes) * 1000,
            setup_s=statistics.median(setups),
            requests_per_s=tally.requests / tally.busy,
            request_geomean_ms=statistics.geometric_mean(dt for _, dt in raw) * 1000,
            latency=latency_summary(raw),
            latency_cal=latency_summary(cal),
            peak_rss_mb_at_end=peak_rss_mb(),
        )
        metrics = {
            "setup_s": {"value": statistics.median(setups_cal), "unit": "s"},
            "requests_per_cal_s": {"value": len(cal) / sum(dt for _, dt in cal),
                                   "unit": "1/s"},
            "request_geomean_cal_ms": {
                "value": statistics.geometric_mean(dt for _, dt in cal) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": tally.first_pass_rss_mb, "unit": "MB"},
        }
    info.update(fail_ratio=tally.failed / tally.attempted, errors=tally.errors)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
