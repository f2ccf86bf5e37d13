"""Benchmark for the oraclegames library.

One workload per process: a closed loop with a single caller in one thread,
issuing the next query only after the previous one returns. Inputs come from
``inputs.py`` as a pure function of (workload, seed); the library receives
only the objects built from them. Calls into the library are timed from
outside; nothing under ``src/`` is edited.

    python3 perfbench/run.py --workload dominance-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record
(environment, ``src_lines``, ``failed_frac``, per-kind latencies) is written
to ``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

sys.path.insert(0, str(SRC))
try:
    import oraclegames  # noqa: E402
    import oraclegames.cli  # noqa: E402
    import queries  # noqa: E402
except ModuleNotFoundError:  # no library source next to the benchmark
    oraclegames = None
IMPORT_S = time.perf_counter() - T0

# Every time the benchmark reports is scaled to a fixed machine speed. The
# machine is shared: other tenants slow a process by up to 2x, in stretches
# from milliseconds to minutes, and the share of slow time drifts from one
# run to the next. A fixed gauge of pure-Python Fraction arithmetic (the kind
# of work the library does) runs right before and right after every timed
# call. A call's time is multiplied by GAUGE_REF_S over the mean time of the
# gauges that started from one call-length before the call began to one
# call-length after it ended, and at least the two around it: a short call
# is scaled by the speed of the moment, a long one by the speed over a
# stretch as long as itself. So a reported time reads as the time the call
# takes when the gauge takes GAUGE_REF_S, about this machine's unloaded
# speed. On a shared 2-core machine with Python 3.11.7, raw per-pass times
# moved by +-13 % between 20 s stretches; the spread of the scaled metrics
# over seeds is in README.md.
GAUGE_TERMS = 600
GAUGE_REF_S = 0.0014
# setup_s is the median of the scaled import times (each in a fresh
# interpreter) plus the median of the scaled in-process set-ups. SETUP_REPEATS
# of each are taken before timing starts and one more after every pass.
SETUP_REPEATS = 3
# A run builds a deck of DECK_ROUNDS rounds and runs it pass after pass: at
# least MIN_PASSES passes, and more while the next one is expected to end
# within --seconds. Every run of every query is one latency sample. A traced
# run makes TRACED_PASSES untraced passes and then as many traced ones, so
# its counts are the same on every run of a seed.
DECK_ROUNDS = 2
MIN_PASSES = 3
TRACED_PASSES = 2
GOLDEN_SEED = 0

# End-to-end metrics: (name, unit). failed_frac is printed and recorded but
# is not a gated metric, because it is 0 on a correct run.
END_TO_END = (
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# The cheap query kinds each workload runs once, on a separate warm-up round,
# before timing starts.
WARM_KINDS = {
    "dominance-sweep": ("common_objective", "unique_ckc"),
    "signal-garble": ("proportional", "experiment"),
    "game-solve": ("mixed", "kld", "log_argmax"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-golden",
        action="store_true",
        help="store the answers of round 0 as the golden file, then exit",
    )
    return p.parse_args(argv)


def src_lines() -> dict:
    per_module = {}
    for path in sorted((SRC / "oraclegames").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            per_module[path.stem] = sum(1 for _ in fh)
    return {"total": sum(per_module.values()), "per_module": per_module}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def gauge_s() -> float:
    """Seconds taken by a fixed loop of exact rational arithmetic: how fast
    the machine runs pure-Python work at this moment."""
    t = time.perf_counter()
    total = Fraction(0)
    for i in range(1, GAUGE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t


def rate(lat: list[float]) -> float:
    """Queries per second of one closed-loop caller at these latencies."""
    return len(lat) / sum(lat)


def scale(calls: list[tuple[float, float]], gauges: list[tuple[float, float]]) -> list[float]:
    """Scaled seconds of each (start, seconds) call, from the time-ordered
    (start, seconds) gauges run around the calls."""
    starts = [g[0] for g in gauges]
    out = []
    for t, dt in calls:
        lo = min(bisect.bisect_left(starts, t) - 1, bisect.bisect_left(starts, t - dt))
        hi = max(bisect.bisect_right(starts, t + dt) + 1, bisect.bisect_right(starts, t + 2 * dt))
        window = [g for _, g in gauges[max(lo, 0) : hi]]
        out.append(dt * GAUGE_REF_S * len(window) / sum(window))
    return out


def percentile_summary(lat: list[float]) -> dict:
    """Median and 90th percentile in ms, with the sample counts behind them."""
    if len(lat) >= 2:
        cuts = statistics.quantiles(lat, n=10, method="inclusive")
        p50, p90 = cuts[4], cuts[8]
    else:
        p50 = p90 = lat[0]
    return {
        "p50_ms": p50 * 1000,
        "p90_ms": p90 * 1000,
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
    }


class Workload:
    """Set-up, rounds and checks for one workload in this process."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.fixtures = {}
        if name == "fixture-corpus":
            harness = oraclegames.harness
            self.fixtures = {n: harness.load_fixture(n) for n in harness.available_fixtures()}
        self.names = sorted(self.fixtures)
        self.first = self.make_round(0)
        self.warm_up()

    def make_round(self, index):
        specs = inputs.generate_round(self.name, self.seed, index, self.names)
        return specs, queries.build_round(self.name, specs, self.fixtures)

    def warm_up(self) -> None:
        if self.name == "fixture-corpus":
            for data in self.fixtures.values():
                oraclegames.harness.Fixture(data)
            return
        specs = inputs.generate_round(self.name, self.seed, "warm-up", self.names)
        specs = [s for s in specs if s["kind"] in WARM_KINDS[self.name]]
        for q in queries.build_round(self.name, specs, self.fixtures):
            q.run()


class Runner:
    """Closed-loop execution of a deck of rounds, pass after pass: the
    first pass builds and runs the rounds, the later ones run the same rounds
    again in the same order. Every run of a query is a latency sample, scaled
    by the gauges run around it. The checks run after each round of each
    pass, outside the timed calls."""

    def __init__(self, work: Workload, golden: dict | None, verify_text: str | None):
        self.work = work
        self.golden = golden
        self.verify_text = verify_text
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.answers: list[list] = []
        self.calls: list[tuple[float, float]] = []
        self.kinds: list[str] = []
        self.gauges: list[tuple[float, float]] = []

    def latencies(self, first: int = 0) -> list[float]:
        """Scaled latencies of the calls from index ``first`` on."""
        return scale(self.calls[first:], self.gauges)

    def gauge(self) -> None:
        t = time.perf_counter()
        self.gauges.append((t, gauge_s()))

    def run(
        self,
        rounds: int,
        passes: int,
        seconds: float = 0.0,
        tracer=None,
        between: Callable[[], None] | None = None,
    ):
        """Run ``rounds`` rounds for ``passes`` passes, and then more passes
        while the next is expected to end within ``seconds`` of wall time.
        ``between`` runs after each pass. Returns (passes run, wall seconds)."""
        begin = time.perf_counter()
        deck, done = [], 0
        while True:
            started = time.perf_counter()
            for r in range(rounds):
                if done == 0:
                    first = r == 0 and tracer is None
                    deck.append(self.work.first if first else self.work.make_round(r))
                specs, qs = deck[r]
                self._pass(r if done == 0 else None, specs, qs, tracer)
            done += 1
            last = time.perf_counter() - started
            if between is not None:
                between()
            if done >= passes and time.perf_counter() - begin + last > seconds:
                break
        return done, time.perf_counter() - begin

    def _pass(self, r: int | None, specs, qs, tracer) -> None:
        """Run one round's queries once, closed loop, and check the results.
        ``r`` is the round's index on its first pass, else None."""
        outcomes = []
        self.gauge()
        for k, q in enumerate(qs):
            t = time.perf_counter()
            try:
                if tracer is None:
                    result = q.run()
                else:
                    tracer.query_id = self.attempted + k
                    with tracer.span(f"bench.{q.kind}"):
                        result = q.run()
                error = None
            except Exception as exc:  # a raising query is a failed query
                result, error = None, f"{q.kind}: {type(exc).__name__}: {exc}"
            self.calls.append((t, time.perf_counter() - t))
            self.gauge()
            self.kinds.append(q.kind)
            outcomes.append((result, error))
        self.check(r, specs, qs, outcomes)

    def check(self, r: int | None, specs, qs, outcomes) -> None:
        """Check one pass over a round. The golden answers and the
        ``verify --all`` text are compared on the round's first pass (``r``
        given); every pass gets the benchmark's own checks."""
        golden = None
        if r is not None and self.golden is not None and r < len(self.golden["rounds"]):
            golden = self.golden["rounds"][r]
        answers = []
        for k, (q, (result, error)) in enumerate(zip(qs, outcomes)):
            self.attempted += 1
            problems = [error] if error else []
            try:
                if not error:
                    problems += q.check(result)
                if not error and r is not None:
                    answer = q.answer(result)
                    answers.append(answer)
                    if golden is not None and _canonical(answer) != _canonical(golden[k]):
                        problems.append(f"{q.kind}: answer differs from the golden answer")
            except Exception as exc:  # a check that cannot finish is a failed check
                problems.append(f"{q.kind}: check raised {type(exc).__name__}: {exc}")
            if problems:
                self.failed += 1
                self.problems.extend(problems[:1])
        if r is None:
            return
        self.answers.append(answers)
        if self.work.name == "fixture-corpus" and len(answers) == len(qs):
            text = queries.verify_text(specs, answers, self.work.fixtures)
            if text != self.verify_text:
                self.failed += 1
                self.problems.append("fixture pass report differs from verify --all")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def selftest() -> list[str]:
    """Same seed, byte-identical inputs; different seed, different inputs."""
    names = oraclegames.harness.available_fixtures()
    problems = []
    for w in inputs.WORKLOADS:
        def deck(seed):
            return inputs.serialize([inputs.generate_round(w, seed, r, names) for r in (0, 1)])

        a, b, c = deck(11), deck(11), deck(12)
        if a != b:
            problems.append(f"{w}: the same seed gave different inputs")
        if a == c:
            problems.append(f"{w}: different seeds gave the same inputs")
    return problems


def load_golden(workload: str) -> dict:
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(work: Workload, verify_text: str) -> None:
    runner = Runner(work, None, verify_text)
    runner.run(rounds=1, passes=1)
    if runner.failed:
        raise SystemExit(f"not writing golden answers: {runner.problems[:3]}")
    GOLDEN.mkdir(exist_ok=True)
    data = {"workload": work.name, "seed": work.seed, "rounds": runner.answers}
    with open(GOLDEN / f"{work.name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def verify_all(tracer) -> tuple[str, float]:
    """One in-process ``oraclegames verify --all``: its stdout and wall time."""
    cli = sys.modules["oraclegames.cli"]
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf), tracer.span("bench.verify_all"):
        cli.main(["verify", "--all"])
    return buf.getvalue(), time.perf_counter() - t


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the machine speed where the gauge takes GAUGE_REF_S,
    given the gauge times right before and after."""
    return seconds * GAUGE_REF_S * 2 / (before + after)


def fresh_import_s() -> float:
    """What this process spends from its first line to the library being
    imported, measured again in a fresh interpreter between two gauges, and
    scaled."""
    code = (
        "import time\nfrom fractions import Fraction\n"
        "def gauge():\n t = time.perf_counter(); total = Fraction(0)\n"
        f" for i in range(1, {GAUGE_TERMS}): total += Fraction(1, i % 97 + 1)\n"
        " return time.perf_counter() - t\n"
        "gauge(); before = gauge(); t = time.perf_counter()\n"
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import argparse, contextlib, io, json, os, platform, resource, statistics, subprocess\n"
        "import oraclegames, oraclegames.cli\n"
        "took = time.perf_counter() - t; print(took, before, gauge())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    return scaled(*map(float, proc.stdout.split()))


def run_one(args) -> int:
    if oraclegames is None:
        print(f"error: no library source at {SRC / 'oraclegames'}", file=sys.stderr)
        return 2
    if Path(oraclegames.__file__).resolve().parent != SRC / "oraclegames":
        print(f"error: imported oraclegames from {oraclegames.__file__}", file=sys.stderr)
        return 2
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    imports, setups = [], []

    def set_up() -> Workload:
        before = gauge_s()
        t = time.perf_counter()
        work = Workload(args.workload, args.seed)
        took = time.perf_counter() - t
        setups.append(scaled(took, before, gauge_s()))
        return work

    def resample() -> None:
        imports.append(fresh_import_s())
        set_up()

    gauge_s()
    work = set_up()
    imports.append(fresh_import_s())
    for _ in range(SETUP_REPEATS - 1):
        resample()

    verify_text = (GOLDEN / "verify-all.txt").read_text(encoding="utf-8")
    if args.write_golden:
        write_golden(work, verify_text)
        return 0
    golden = load_golden(args.workload)
    if golden["seed"] != args.seed:
        golden = None
    runner = Runner(work, golden, verify_text)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "src_lines": src_lines(),
        "setup": {"own_import_s": IMPORT_S, "import_s": imports, "repeats_s": setups},
    }
    if args.trace:
        metrics = traced_run(args, work, runner, record)
    else:
        passes, wall = runner.run(DECK_ROUNDS, MIN_PASSES, args.seconds, between=resample)
        setup_s = statistics.median(imports) + statistics.median(setups)
        latencies = runner.latencies()
        summary = percentile_summary(latencies)
        metrics = {
            "queries_per_s": rate(latencies),
            "latency_p50_ms": summary["p50_ms"],
            "latency_p90_ms": summary["p90_ms"],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(
            rounds=DECK_ROUNDS,
            passes=passes,
            wall_s=wall,
            raw_queries_per_s=rate([dt for _, dt in runner.calls]),
            gauge_ms=percentile_summary([g for _, g in runner.gauges]),
            latency=summary,
        )
    problems = runner.problems + selftest()
    failed_frac = runner.failed / max(runner.attempted, 1)
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failed_frac=failed_frac,
        golden_checked=golden is not None,
        problems=problems[:20],
        per_kind=per_kind(runner),
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in spans.per_layer_metrics()}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed_frac:.6g} (of {runner.attempted} query runs)")
    if not args.trace:
        print(
            f"{args.workload} latency samples = {record['latency']['samples']}, "
            f"{record['latency']['beyond_p90']} beyond p90"
        )
    for problem in problems[:5]:
        print(f"{args.workload} problem: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems and runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def per_kind(runner: Runner) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(runner.kinds, runner.latencies()):
        by_kind.setdefault(kind, []).append(dt)
    return {
        k: {"samples": len(v), "median_ms": statistics.median(v) * 1000}
        for k, v in sorted(by_kind.items())
    }


def traced_run(args, work: Workload, runner: Runner, record: dict) -> dict:
    """TRACED_PASSES untraced passes over a deck, then the same deck traced,
    then one traced in-process ``verify --all``. The per-layer metrics come
    from the traced part; the overhead is the drop in queries per second."""
    _, untraced_s = runner.run(DECK_ROUNDS, TRACED_PASSES)
    untraced = rate(runner.latencies())
    n = len(runner.calls)
    tracer = spans.Tracer()
    tracer.install(extra_modules=(queries,))
    _, traced_s = runner.run(DECK_ROUNDS, TRACED_PASSES, tracer=tracer)
    traced = rate(runner.latencies(n))
    tracer.query_id = -1
    text, wall = verify_all(tracer)
    if text != runner.verify_text:
        runner.failed += 1
        runner.problems.append("in-process verify --all output differs from the seed commit")
    metrics = tracer.metrics()
    metrics["cli.main.wall_ms"] = wall * 1000
    metrics["trace.untraced_queries_per_s"] = untraced
    metrics["trace.traced_queries_per_s"] = traced
    metrics["trace.overhead_queries_per_s"] = untraced - traced
    record.update(
        rounds=DECK_ROUNDS,
        passes=TRACED_PASSES,
        wall_s=untraced_s,
        traced_wall_s=traced_s,
        layer_self_ms=tracer.layer_self_ms(queries=True),
        verify_layer_self_ms=tracer.layer_self_ms(queries=False),
        spans=len(tracer.start),
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"{args.workload}-seed{args.seed}-spans.tsv"))
    return {name: metrics[name] for name, _, _ in spans.per_layer_metrics()}


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    results, code = {}, 0
    for w in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            code = proc.returncode or 1
            continue
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
