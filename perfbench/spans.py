"""Spans around the library's public functions, recorded from outside.

A wrapped function is replaced in every ``oraclegames`` module namespace
that binds it (and in the benchmark's own query module), so calls between
layers are seen too. Each span holds its name, start, end, parent span and
query id; spans stay in memory, in flat arrays, until the run writes them
out. Per-element accessors such as ``StateSpace.index`` and
``Partition.block_of`` are not wrapped: a span would cost more than the
work. ``Partition`` construction is counted without a span for the same
reason.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (layer, module, attribute path, metric name). The layer is the metric
# prefix; ``lp`` is the ``_lp`` module. Every function here runs on every
# workload, if only in the traced ``verify --all``; ``lift_garbled`` is left
# out because only signal-garble calls it, so its time would read 0 elsewhere.
WRAPPED = (
    ("types", "types", "structure_from_json", "structure_from_json"),
    ("partitions", "partitions", "join", "join"),
    ("partitions", "partitions", "ckc_decompose", "ckc_decompose"),
    ("partitions", "partitions", "refines", "refines"),
    ("partitions", "partitions", "coarsenings", "coarsenings"),
    ("dominance", "dominance", "is_imi", "is_imi"),
    ("dominance", "dominance", "two_sided_imi_equal", "two_sided_imi_equal"),
    ("dominance", "dominance", "common_objective_condition", "common_objective_condition"),
    ("dominance", "dominance", "unique_ckc_dominates", "unique_ckc_dominates"),
    ("dominance", "dominance", "coarsening_profiles", "coarsening_profiles"),
    ("dominance", "dominance", "induced_profile", "induced_profile"),
    ("dominance", "dominance", "garbling_exists", "garbling_exists"),
    ("signaling", "signaling", "posterior_atlas", "posterior_atlas"),
    ("signaling", "signaling", "post_included", "post_included"),
    ("signaling", "signaling", "stoch_posterior", "stoch_posterior"),
    ("signaling", "signaling", "experiment_matrix", "experiment_matrix"),
    ("signaling", "signaling", "merge_garbled", "merge_garbled"),
    ("signaling", "signaling", "separating_strategy", "separating_strategy"),
    ("signaling", "signaling", "proportional_decompose", "proportional_decompose"),
    ("lp", "_lp", "feasible_nonneg", "feasible_nonneg"),
    ("games", "games", "TwoStageGame.__init__", "TwoStageGame"),
    ("games", "games", "TwoStageGame.max_aggregate", "TwoStageGame.max_aggregate"),
    ("games", "games", "enumerate_pure_equilibria", "enumerate_pure_equilibria"),
    ("games", "games", "is_equilibrium", "is_equilibrium"),
    ("games", "games", "expected_payoffs", "expected_payoffs"),
    ("games", "games", "ned_distribution", "ned_distribution"),
    ("games", "games", "best_common_payoff", "best_common_payoff"),
    ("games", "games", "build_kld_game", "build_kld_game"),
    ("games", "games", "kld_expected_scores", "kld_expected_scores"),
    ("games", "games", "log_score_argmax", "log_score_argmax"),
    ("games", "games", "LogScore._compare", "LogScore.compare"),
    ("harness", "harness", "load_fixture", "load_fixture"),
    ("harness", "harness", "Fixture.__init__", "Fixture"),
    ("harness", "harness", "run_claim", "run_claim"),
    ("cli", "cli", "main", "main"),
)

# Per-layer metrics beyond calls / self_ms / errors: (name, unit, better).
EXTRA_METRICS = (
    ("types.Partition.built", "count", "lower"),
    ("partitions.coarsenings.items", "count", "lower"),
    ("lp.feasible_nonneg.cells", "count", "lower"),
    ("signaling.separating_strategy.blocks", "count", "lower"),
    ("games.LogScore.compare.operand_denom_max", "count", "lower"),
    ("dominance.is_imi.holds_ms", "ms", "lower"),
    ("dominance.is_imi.fails_ms", "ms", "lower"),
    ("dominance.garbling_exists.feasible_ms", "ms", "lower"),
    ("dominance.garbling_exists.infeasible_ms", "ms", "lower"),
    ("games.enumerate_pure_equilibria.found_per_scanned", "ratio", "higher"),
    ("cli.main.wall_ms", "ms", "lower"),
    ("trace.untraced_queries_per_s", "1/s", "higher"),
    ("trace.traced_queries_per_s", "1/s", "higher"),
    ("trace.overhead_queries_per_s", "1/s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    out = []
    for layer, _, _, name in WRAPPED:
        out.append((f"{layer}.{name}.calls", "count", "lower"))
        out.append((f"{layer}.{name}.self_ms", "ms", "lower"))
        out.append((f"{layer}.{name}.errors", "count", "lower"))
    return out + list(EXTRA_METRICS)


class Tracer:
    """Flat in-memory span store plus the counters the wrappers update."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.error = bytearray()
        self.outcome = {}  # span index -> bool, for split metrics
        self.stack: list[int] = []
        self.query_id = -1
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name: int) -> int:
        i = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.error.append(0)
        self.stack.append(i)
        return i

    def close(self, i: int, failed: bool) -> None:
        self.end[i] = perf_counter()
        self.error[i] = failed
        self.stack.pop()

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        index = self.name_index(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            i = tracer.open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(i, True)
                raise
            tracer.close(i, False)
            if after is not None:
                after(tracer, i, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- run-level helpers --------------------------------------------------

    def span(self, name: str):
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, self.name_index(name))

    def install(self, extra_modules=()) -> None:
        """Wrap every function in WRAPPED and count Partition construction."""
        for layer, module, path, name in WRAPPED:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self.wrap(
                f"{layer}.{name}", original, _BEFORE.get(name), _AFTER.get(name)
            )
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper, extra_modules)
        partition = sys.modules["oraclegames.types"].Partition
        build = partition.__post_init__

        def counted(obj):
            self.counts["types.Partition.built"] = self.counts.get("types.Partition.built", 0) + 1
            build(obj)

        partition.__post_init__ = counted

    def _durations(self) -> tuple[list[float], list[float]]:
        """Each span's duration and self time: the duration minus the time
        its child spans cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def metrics(self) -> dict[str, float]:
        """Aggregate the spans into per-layer metrics (wrapped functions only)."""
        n = len(self.start)
        dur, own = self._durations()
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        errors = [0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += own[i]
            errors[k] += self.error[i]
        by_name = {full: (calls[k], self_s[k], errors[k]) for k, full in enumerate(self.names)}
        out: dict[str, float] = {}
        for layer, _, _, name in WRAPPED:
            c, s, e = by_name.get(f"{layer}.{name}", (0, 0.0, 0))
            out[f"{layer}.{name}.calls"] = c
            out[f"{layer}.{name}.self_ms"] = s * 1000
            out[f"{layer}.{name}.errors"] = e
        for key in (
            "types.Partition.built",
            "partitions.coarsenings.items",
            "lp.feasible_nonneg.cells",
            "signaling.separating_strategy.blocks",
        ):
            out[key] = self.counts.get(key, 0)
        out["games.LogScore.compare.operand_denom_max"] = self.maxima.get("denom", 0)
        split = {"is_imi": [0.0, 0.0], "garbling_exists": [0.0, 0.0]}
        ix = self._index
        imi, garb = ix.get("dominance.is_imi"), ix.get("dominance.garbling_exists")
        enum, equi = ix.get("games.enumerate_pure_equilibria"), ix.get("games.is_equilibrium")
        scanned = 0
        for i in range(n):
            k = self.name[i]
            if k == imi and i in self.outcome:
                split["is_imi"][self.outcome[i]] += dur[i]
            elif k == garb and i in self.outcome:
                split["garbling_exists"][self.outcome[i]] += dur[i]
            elif k == equi and self.parent[i] >= 0 and self.name[self.parent[i]] == enum:
                scanned += 1
        out["dominance.is_imi.holds_ms"] = split["is_imi"][True] * 1000
        out["dominance.is_imi.fails_ms"] = split["is_imi"][False] * 1000
        out["dominance.garbling_exists.feasible_ms"] = split["garbling_exists"][True] * 1000
        out["dominance.garbling_exists.infeasible_ms"] = split["garbling_exists"][False] * 1000
        found = self.counts.get("games.enumerate_pure_equilibria.found", 0)
        out["games.enumerate_pure_equilibria.found_per_scanned"] = found / scanned if scanned else 0.0
        return out

    def layer_self_ms(self, queries: bool) -> dict[str, float]:
        """Self time per layer over the workload's query spans (``queries``)
        or over the rest; the benchmark's own spans count as ``bench``."""
        _, own = self._durations()
        out: dict[str, float] = {}
        for i, ms in enumerate(own):
            if (self.query[i] >= 0) == queries:
                layer = self.names[self.name[i]].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + ms * 1000
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, name, start, end, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tquery\terror\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.query[i]}\t{self.error[i]}\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: int):
        self.tracer, self.name, self.i = tracer, name, -1

    def __enter__(self):
        self.i = self.tracer.open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.i, exc_type is not None)
        return False


def _resolve(module: str, path: str):
    owner = sys.modules[f"oraclegames.{module}"]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _rebind(original, wrapper, extra_modules) -> None:
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "oraclegames"]
    for mod in modules + list(extra_modules):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


# Counters updated from a call's arguments, before the call.
def _count_cells(tracer: Tracer, args) -> None:
    rows = args[0]
    tracer.add("lp.feasible_nonneg.cells", len(rows) * (len(rows[0]) if rows else 0))


def _count_blocks(tracer: Tracer, args) -> None:
    tracer.add("signaling.separating_strategy.blocks", len(args[0].blocks))


def _denoms(tracer: Tracer, args) -> None:
    a, b = args
    tracer.maxima["denom"] = max(tracer.maxima.get("denom", 0), a.denom, b.denom)


_BEFORE = {
    "feasible_nonneg": _count_cells,
    "separating_strategy": _count_blocks,
    "LogScore.compare": _denoms,
}


# Counters and outcome splits updated from a call's result.
def _items(tracer: Tracer, i: int, result) -> None:
    tracer.add("partitions.coarsenings.items", len(result))


def _holds(tracer: Tracer, i: int, result) -> None:
    tracer.outcome[i] = bool(result.holds)


def _exists(tracer: Tracer, i: int, result) -> None:
    tracer.outcome[i] = bool(result.exists)


def _found(tracer: Tracer, i: int, result) -> None:
    tracer.add("games.enumerate_pure_equilibria.found", len(result))


_AFTER = {
    "coarsenings": _items,
    "is_imi": _holds,
    "garbling_exists": _exists,
    "enumerate_pure_equilibria": _found,
}
