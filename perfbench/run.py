"""liftbmf benchmark: one workload per process, closed loop, one op at a time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; liftbmf is imported from its `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
per-layer metrics with --trace 1 (spans are then written to
perfbench/out/).  Op times are reported in `ref`, the time the machine
takes at that moment for a fixed pure-Python loop (see SpeedProbe);
`setup_s` is in seconds.  --smoke runs the last three ops of the first
round of every workload, traced, with all checks, and prints one JSON line
per workload.  See README.md.
"""
from __future__ import annotations

import argparse
import bisect
import json
import pathlib
import resource
import statistics
import sys
import time

from checks import CheckFailed, OpFailed

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"
SETUPS = 5  # set-ups per run: one before the timed phase, the rest spread over it
SETUP_MIN_S = 0.2  # one set-up repeats until it has taken this long (exact-rank's take ms)
PROBE_EVERY_S = 0.25  # at most this long between two samples of the machine's speed
PROBE_LOOP, PROBE_REPEATS = 20_000, 3  # one sample: median of 3 loops, about 1.3 ms each
SMOKE_OPS = 3  # --smoke runs the last ops of the first round (equivalence: ends with domain 5)


def _import_liftbmf():
    if not (SRC / "liftbmf" / "__init__.py").is_file():
        sys.exit(f"liftbmf sources not found under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import liftbmf

    if pathlib.Path(liftbmf.__file__).resolve().parent != SRC / "liftbmf":
        sys.exit(f"imported liftbmf from {liftbmf.__file__}, not from {SRC}")
    return liftbmf


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _probe_loop() -> int:
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples how fast the machine runs a fixed pure-Python loop.

    On a shared host the same work runs up to 1.6 times slower for tens of
    seconds at a time, so a run's wall-clock medians follow the host more
    than the program.  An op's time in `ref` is its wall time over the
    loop's time, averaged from the samples just before and just after it:
    a slow phase of the host stretches both alike.
    """

    def __init__(self):
        self.at: list[float] = []  # when each sample ended
        self.loop_s: list[float] = []

    def sample(self) -> None:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _probe_loop()
            times.append(time.perf_counter() - start)
        self.at.append(time.perf_counter())
        self.loop_s.append(statistics.median(times))

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.sample()

    def ref_s(self, start: float, end: float) -> float:
        """Loop time around [start, end]: the samples before and after it."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        return (self.loop_s[before] + self.loop_s[after]) / 2


class Result:
    def __init__(self, workload, warm_up: bool = False):
        self.workload = workload
        self.warm_up = warm_up  # a set-up's warm-up op: not traced as an op
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        self.spans_s: list[tuple[float, float]] = []  # every attempted op: start, end
        self.latency_s: list[float] = []
        self.op_ids: list[int] = []  # attempted index of each completed op
        self.op_values: dict[int, dict] = {}  # completed op id -> per-op counts
        self.rounds = 0
        self.elapsed_s = 0.0
        self.setup_s: list[float] = []
        self.probe = SpeedProbe()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures[message] = self.failures.get(message, 0) + 1

    def end_to_end(self, cls) -> dict:
        ref = [self.probe.ref_s(*span) for span in self.spans_s]
        busy_ref = sum((end - start) / r for (start, end), r in zip(self.spans_s, ref))
        op_ref = [ref[i] for i in self.op_ids]
        lat = [s / r for s, r in zip(self.latency_s, op_ref)]
        kld = cls.time_to_kld(lat, [self.op_values[i] for i in self.op_ids], op_ref)
        return {
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
            "ops_per_kref": {"value": 1e3 * len(lat) / busy_ref, "unit": "1/kref"},
            "op_p50_ref": {"value": statistics.median(lat), "unit": "ref"},
            "op_p90_ref": {"value": _p90(lat), "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
            "time_to_kld_ref": {"value": statistics.median(kld), "unit": "ref"},
        }

    def summary(self) -> str:
        why = "; ".join(f"{n}x {m}" for m, n in self.failures.items()) or "none"
        return (f"# {self.workload}: {self.rounds} rounds in {self.elapsed_s:.2f} s, "
                f"{self.attempted} ops attempted, {self.failed} failed ({why}); "
                f"percentiles over {len(self.latency_s)} ops; "
                f"set-up median of {len(self.setup_s)}; wall clock: "
                f"{len(self.latency_s) / self.elapsed_s:.4g} ops/s, "
                f"op p50 {1e3 * statistics.median(self.latency_s):.4g} ms; "
                f"{len(self.probe.at)} speed samples, "
                f"loop median {1e3 * statistics.median(self.probe.loop_s):.4g} ms = 1 ref")


def one_op(workload, item, tracer, result: Result, liftbmf) -> None:
    """Run, time and check one op, recording the outcome in `result`."""
    op = result.attempted
    result.attempted += 1
    if tracer is not None:
        tracer.op = -1 if result.warm_up else op
    if not result.warm_up:  # a set-up's time holds no probe samples
        result.probe.sample_if_due()
    start = time.perf_counter()
    try:
        output = workload.run(item, tracer)
    except liftbmf.LiftBmfError as exc:
        result.spans_s.append((start, time.perf_counter()))
        result.fail(f"{type(exc).__name__}: {exc}")
        return
    latency = time.perf_counter() - start
    result.spans_s.append((start, start + latency))
    try:
        values = workload.check(item, output)
    except OpFailed as exc:
        result.fail(str(exc))
        return
    except CheckFailed as exc:
        result.wrong.append(str(exc))
        values = {}
    result.latency_s.append(latency)
    result.op_ids.append(op)
    result.op_values[op] = values


def set_up(cls, seed: int, tracer, result: Result, liftbmf, min_s: float):
    """Build the workload and run its untimed warm-up op, once or until
    `min_s` has passed; each build's time is one `setup_s` sample."""
    first = len(tracer.spans) if tracer is not None else 0
    spent = 0.0
    while True:
        start = time.perf_counter()
        workload = cls(seed)
        warm_up = Result(cls.name, warm_up=True)
        one_op(workload, workload.round(0)[0], tracer, warm_up, liftbmf)
        if warm_up.failed or warm_up.wrong:
            sys.exit(f"{cls.name}: warm-up op failed: {warm_up.failures or warm_up.wrong}")
        result.setup_s.append(time.perf_counter() - start)
        spent += result.setup_s[-1]
        if spent >= min_s:
            break
    if tracer is not None:
        del tracer.spans[first:]  # keep the timed phase's spans only
    return workload


def measure(cls, seed: int, seconds: float, tracer, liftbmf, smoke: bool = False) -> Result:
    result = Result(cls.name)
    if tracer is not None:
        tracer.spans.clear()  # --smoke traces one workload after another
    setups, min_s = (1, 0.0) if smoke else (SETUPS, SETUP_MIN_S)
    workload = set_up(cls, seed, tracer, result, liftbmf, min_s)
    done = 1

    # Whole rounds, stopping where the run ends closest to `seconds`.  The
    # further set-ups run between rounds, after each further quarter of the
    # run and at its end, so that `setup_s` samples the host over the run.
    start = time.perf_counter()
    setup_time = 0.0
    while True:
        items = workload.round(result.rounds)
        for item in items[-SMOKE_OPS:] if smoke else items:
            one_op(workload, item, tracer, result, liftbmf)
        result.rounds += 1
        result.probe.sample()
        elapsed = time.perf_counter() - start - setup_time
        if elapsed + 0.5 * elapsed / result.rounds >= seconds:
            break
        if done < setups and elapsed >= done * seconds / (setups - 1):
            pause = time.perf_counter()
            set_up(cls, seed, tracer, result, liftbmf, min_s)
            done += 1
            setup_time += time.perf_counter() - pause
    result.elapsed_s = time.perf_counter() - start - setup_time
    while done < setups:
        set_up(cls, seed, tracer, result, liftbmf, min_s)
        done += 1
    if not result.latency_s:
        sys.exit(f"{cls.name}: no operation completed")
    return result


def _report(result: Result, metrics: dict) -> dict:
    return {
        "correct": not result.wrong,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="last ops of the first round of every workload, traced, all checks on")
    args = parser.parse_args(argv)
    liftbmf = _import_liftbmf()
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    if args.smoke:
        tracer = Tracer()
        tracer.install()
        ok = True
        for cls in WORKLOADS.values():
            result = measure(cls, 1, 0.0, tracer, liftbmf, smoke=True)
            print(result.summary())
            for message in result.wrong:
                print(f"# wrong: {message}")
            metrics = {**result.end_to_end(cls),
                       **per_layer_metrics(tracer.spans, result.op_values)}
            print(json.dumps({"workload": cls.name, **_report(result, metrics)}))
            ok &= not result.wrong
        return 0 if ok else 1

    if args.workload not in WORKLOADS or args.seed is None or args.seconds is None:
        parser.error(f"--workload ({', '.join(WORKLOADS)}), --seed and --seconds are required")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    cls = WORKLOADS[args.workload]
    result = measure(cls, args.seed, args.seconds, tracer, liftbmf)
    print(result.summary())
    for message in result.wrong[:10]:
        print(f"# wrong: {message}")
    if tracer is None:
        metrics = result.end_to_end(cls)
    else:
        metrics = per_layer_metrics(tracer.spans, result.op_values)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "end_to_end_traced": result.end_to_end(cls), "per_layer": metrics})
    print(json.dumps(_report(result, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
