"""Evaluation harness: score layout sources per graph, aggregate orderings,
correlate metrics, and measure runtime scaling.

Three layout sources stand in for drawing algorithms of decreasing quality:
"optimized" (the bundled stress optimizer), "circle" (deterministic evenly
spaced ring), and "random" (uniform in the unit square). The expected
quality ordering is optimized < circle < random.

Under the "paper-like" scale policy the two structured layouts are blown up
to spans in the hundreds while random stays in the unit square, mimicking
the spans real layout engines emit; "as-is" leaves every layout untouched.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
import os
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .graph import DistanceMatrix, Graph, apsp, largest_connected_component, read_graph_file
from .layout import (
    Layout,
    circle_layout,
    csv_text,
    optimize_layout,
    random_layout,
    scale_to_max_distance,
)
from .metrics import HIGHER_IS_BETTER, METRIC_IDS, DrawingScores, check_metric_ids, score_layout
from .errors import SizeGuardError
from .stats import average_ranks, spearman

LAYOUT_SOURCES = GROUND_TRUTH_ORDER = ("optimized", "circle", "random")

#: per scale policy, the span it imposes on each source it rescales
SCALE_POLICIES = {"as-is": {}, "paper-like": {"optimized": 800.0, "circle": 804.0}}

#: runtime benchmarking caps distance-ratio stress at this size
BENCH_DRS_MAX_VERTICES = 50

#: a runtime sample times calls until their summed time reaches this floor
BENCH_SAMPLE_FLOOR_SECONDS = 0.01

DEFAULT_EXPERIMENT_METRICS = ("rs", "kks", "ns", "sns", "sgs", "scs", "nms")


# ---------------------------------------------------------------------------
# corpus generation

#: smallest graph corpus_graph builds (ring plus chords)
MIN_CORPUS_VERTICES = 8


def _integer(label: str, value) -> int:
    """value as an int, which the summary JSON can hold (a numpy integer it
    cannot); ValueError naming label unless value is an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic desk-scale corpus of connected sparse graphs."""

    graphs: int = 50
    n_min: int = 20
    n_max: int = 60
    density: float = 0.083
    seed: int = 97

    def __post_init__(self) -> None:
        for key in ("graphs", "n_min", "n_max", "seed"):
            object.__setattr__(self, key, _integer(f"corpus key {key!r}", getattr(self, key)))
        if isinstance(self.density, bool) or not isinstance(self.density, numbers.Real):
            raise ValueError(f"corpus key 'density' must be a number, got {self.density!r}")
        # graphs < 2 is left to run_experiment, which refuses any corpus of fewer than two
        for key, valid, need in (
            ("n_min", self.n_min >= MIN_CORPUS_VERTICES, f">= {MIN_CORPUS_VERTICES}"),
            ("n_max", self.n_max >= self.n_min, f">= n_min ({self.n_min})"),
            ("density", 0.0 < self.density <= 1.0, "in (0, 1]"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not valid:
                raise ValueError(f"corpus key {key!r} must be {need}, got {getattr(self, key)!r}")


def corpus_graph(n: int, density: float, rng: np.random.Generator) -> Graph:
    """Connected sparse graph with circular vertex-id locality.

    A ring backbone guarantees connectivity; short-span chords (span at
    most ~n/10) fill in edges up to density * C(n, 2); a handful of
    long-span chords add structure no circular arrangement draws well.
    The id locality keeps the diameter large (the graphs embed well in
    2D) and makes the deterministic circle layout genuinely intermediate
    between the optimized and random layouts.
    """
    if n < MIN_CORPUS_VERTICES:
        raise ValueError(f"need at least {MIN_CORPUS_VERTICES} vertices, got {n}")

    def chord(span_lo: int, span_hi: int) -> tuple[int, int]:
        u = int(rng.integers(0, n))
        v = (u + int(rng.integers(span_lo, span_hi + 1))) % n
        return (u, v) if u < v else (v, u)

    edges = {(i, i + 1) for i in range(n - 1)}
    edges.add((0, n - 1))
    long_target = len(edges) + max(2, n // 12)
    while len(edges) < long_target:
        edges.add(chord(n // 4, n // 2))
    target = max(round(density * n * (n - 1) / 2), len(edges))
    short_hi = max(3, n // 10)
    while len(edges) < target:
        edges.add(chord(2, short_hi))
    return Graph(n, tuple(sorted(edges)))


def generate_corpus(spec: CorpusSpec) -> list[tuple[str, Graph]]:
    """Seeded list of (graph_id, graph); two calls give identical output."""
    rng = np.random.default_rng(spec.seed)
    corpus = []
    for k in range(spec.graphs):
        n = int(rng.integers(spec.n_min, spec.n_max + 1))
        corpus.append((f"g{k:03d}", corpus_graph(n, spec.density, rng)))
    return corpus


def load_corpus_dir(directory: Path | str) -> list[tuple[str, Graph]]:
    """User-supplied corpus: every graph file in a directory, sorted by name.

    Each file is read by read_graph_file and reduced to its largest
    connected component.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"corpus directory {directory} does not exist")
    corpus = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        component, _ = largest_connected_component(read_graph_file(path).graph)
        corpus.append((path.stem, component))
    if not corpus:
        raise ValueError(f"corpus directory {directory} holds no graph files")
    return corpus


def make_layouts(
    distances: DistanceMatrix, optimize_seed: int, random_seed: int, iterations: int = 100
) -> dict[str, Layout]:
    """The three harness layout sources for the graph with these distances."""
    return {
        "optimized": optimize_layout(distances, optimize_seed, iterations),
        "circle": circle_layout(distances.n),
        "random": random_layout(distances.n, random_seed),
    }


def apply_scale_policy(layouts: dict[str, Layout], policy: str) -> dict[str, Layout]:
    """Rescale each layout its policy gives a span; leave the rest as generated."""
    if not isinstance(policy, str) or policy not in SCALE_POLICIES:
        raise ValueError(f"unknown scale policy {policy!r} (known: {', '.join(SCALE_POLICIES)})")
    spans = SCALE_POLICIES[policy]
    return {
        name: scale_to_max_distance(layout, spans[name]) if name in spans else layout
        for name, layout in layouts.items()
    }


# ---------------------------------------------------------------------------
# trials


@dataclass(frozen=True)
class TrialRecord:
    graph_id: str
    vertex_count: int
    sources: dict[str, DrawingScores]


def run_trial(
    graph_id: str,
    d: DistanceMatrix,
    layouts: dict[str, Layout],
    metric_ids=DEFAULT_EXPERIMENT_METRICS,
    policy: str = "as-is",
    *,
    drs_force: bool = False,
) -> TrialRecord:
    """Score every requested metric on every layout of one graph.

    d is the graph's shortest-path distance matrix. The scale policy is
    applied first, so all metrics see identical inputs. drs is skipped
    (and flagged) when the graph exceeds its size guard and force is not set.
    """
    for name, layout in layouts.items():
        if layout.n != d.n:
            raise ValueError(f"layout {name!r} has {layout.n} vertices, graph has {d.n}")
    metric_ids = check_metric_ids(metric_ids)
    sources = {
        name: score_layout(layout, d, metric_ids, force=drs_force)
        for name, layout in apply_scale_policy(layouts, policy).items()
    }
    return TrialRecord(graph_id=graph_id, vertex_count=d.n, sources=sources)


# ---------------------------------------------------------------------------
# aggregation


def _signed_scores(records, sources) -> dict[str, list[tuple[float, ...]]]:
    """Per metric that every source of every record scored, in METRIC_IDS
    order: one row per record holding the sources' scores in the order of
    sources, negated where higher is better so smaller is better everywhere.
    ValueError when a record is missing a source."""
    rows = []
    for record in records:
        for src in sources:
            if src not in record.sources:
                raise ValueError(f"record {record.graph_id} is missing source {src!r}")
        rows.append([record.sources[src].scores for src in sources])
    scored = [scores for row in rows for scores in row]
    table = {}
    for m in METRIC_IDS:
        if scored and all(m in scores for scores in scored):
            flip = m in HIGHER_IS_BETTER
            table[m] = [tuple(-s[m] if flip else s[m] for s in row) for row in rows]
    return table


@dataclass(frozen=True)
class OrderFrequencyTable:
    """Counts of every strict 2- and 3-ordering of the layout sources.

    Exact score ties are broken by source name so orderings are total; the
    number of records where a tie occurred is kept per metric.
    """

    metric_ids: tuple[str, ...]
    totals: dict[str, int]
    triple_counts: dict[str, dict[tuple[str, ...], int]]
    pair_counts: dict[str, dict[tuple[str, str], int]]
    tie_counts: dict[str, int]

    def triple_frequency(self, metric_id: str, ordering: tuple[str, ...]) -> float:
        return self.triple_counts[metric_id].get(tuple(ordering), 0) / self.totals[metric_id]

    def pair_frequency(self, metric_id: str, better: str, worse: str) -> float:
        return self.pair_counts[metric_id].get((better, worse), 0) / self.totals[metric_id]

    def best_frequency(self, metric_id: str, source: str) -> float:
        counts = self.triple_counts[metric_id]
        best = sum(c for perm, c in counts.items() if perm[0] == source)
        return best / self.totals[metric_id]


def order_frequencies(records, sources=LAYOUT_SOURCES) -> OrderFrequencyTable:
    """Tally per-metric orderings of the layout sources across records."""
    records = list(records)
    if not records:
        raise ValueError("no trial records")
    signed = _signed_scores(records, sources)
    # sorted by score, then by name; a tie is a row with a repeated value
    perms = {
        m: [tuple(src for _, src in sorted(zip(row, sources))) for row in rows]
        for m, rows in signed.items()
    }
    return OrderFrequencyTable(
        metric_ids=tuple(signed),
        totals={m: len(records) for m in signed},
        triple_counts={m: dict(Counter(p)) for m, p in perms.items()},
        # each ordering runs best to worst, so each pair it yields is (winner, loser)
        pair_counts={
            m: dict(Counter(pair for perm in p for pair in itertools.combinations(perm, 2)))
            for m, p in perms.items()
        },
        tie_counts={m: sum(len(set(row)) < len(row) for row in rows) for m, rows in signed.items()},
    )


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Spearman correlations between metrics over pooled per-graph scores."""

    metric_ids: tuple[str, ...]
    matrix: np.ndarray

    def get(self, a: str, b: str) -> float:
        return float(self.matrix[self.metric_ids.index(a), self.metric_ids.index(b)])


def metric_correlations(records, sources=LAYOUT_SOURCES) -> CorrelationTable:
    """Correlate metrics over the pooled per-graph orderings.

    Within each graph the layout sources are ranked by score (ties share the
    average rank; metrics where higher is better are negated first), and the
    rank triples are concatenated across graphs. This compares how metrics
    order the sources, independent of graph size.
    """
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least 2 trial records")
    signed = _signed_scores(records, sources)
    series = [np.concatenate([average_ranks(row) for row in rows]) for rows in signed.values()]
    k = len(series)
    matrix = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = spearman(series[i], series[j])
    return CorrelationTable(metric_ids=tuple(signed), matrix=matrix)


# ---------------------------------------------------------------------------
# runtime benchmarking


@dataclass(frozen=True)
class BenchRow:
    n: int
    metric_id: str
    median_seconds: float


@dataclass(frozen=True)
class BenchmarkResult:
    rows: tuple[BenchRow, ...]
    slopes: dict[str, float]


def bench_graph(n: int, rng: np.random.Generator) -> Graph:
    # sparse ring graph: metric cost depends only on n, so keep apsp cheap
    return corpus_graph(n, 4.0 / (n - 1), rng)


def runtime_benchmark(
    sizes,
    metric_ids,
    repetitions: int = 5,
    seed: int = 0,
    force: bool = False,
) -> BenchmarkResult:
    """Median per-call metric runtimes over graph sizes, plus log-log slopes.

    Each size keeps its graph's distances and one random Layout. A timed
    call is score_layout(layout, d, (metric_id,), force=True), and its time
    is the metric's seconds in the result, as compute reports them: the
    drawing's distances are built, and their pairs taken, fresh in each
    call, outside that time, so the metric pays neither and one drawing's
    distances are alive at a time. One
    warm-up score_layout per size is discarded. Each repetition takes one
    sample of every (size, metric) in turn: calls are timed one by one until
    their summed time reaches BENCH_SAMPLE_FLOOR_SECONDS, and the sample is
    their mean, so sub-millisecond calls are not timed singly. An empty size
    list and sizes below MIN_CORPUS_VERTICES are refused, and drs above
    BENCH_DRS_MAX_VERTICES unless force is set. A size whose distances do
    not fit in memory is refused as a ValueError that names it.
    """
    sizes = [int(n) for n in sizes]
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    if min(sizes, default=0) < MIN_CORPUS_VERTICES:
        raise ValueError(f"sizes must be >= {MIN_CORPUS_VERTICES}, got {sizes}")
    if repetitions < 3:
        raise ValueError(f"need at least 3 repetitions, got {repetitions}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    metric_ids = check_metric_ids(metric_ids)
    if "drs" in metric_ids and not force and max(sizes) > BENCH_DRS_MAX_VERTICES:
        raise SizeGuardError(
            f"drs benchmarking is restricted to n <= {BENCH_DRS_MAX_VERTICES};"
            " pass force to override"
        )
    rng = np.random.default_rng(seed)
    cases = []
    for n in sizes:
        try:
            d = apsp(bench_graph(n, rng))
            layout = random_layout(n, int(rng.integers(2**63)))
            score_layout(layout, d, metric_ids, force=True)  # warm-up, discarded
        except MemoryError:
            raise ValueError(f"not enough memory for the distances of {n} vertices") from None
        cases.extend((n, metric_id, layout, d, []) for metric_id in metric_ids)
    # one sample per case in each round, so a slow stretch of the machine
    # falls on every size alike rather than on one size's samples
    for _ in range(repetitions):
        for _, metric_id, layout, d, samples in cases:
            calls, spent = 0, 0.0
            while spent < BENCH_SAMPLE_FLOOR_SECONDS:
                spent += score_layout(layout, d, (metric_id,), force=True).seconds[metric_id]
                calls += 1
            samples.append(spent / calls)
    rows = [BenchRow(n, metric_id, statistics.median(s)) for n, metric_id, _, _, s in cases]
    slopes = {}
    for metric_id in metric_ids:
        points = [(math.log(r.n), math.log(r.median_seconds)) for r in rows
                  if r.metric_id == metric_id]
        if len(points) >= 2:
            xs, ys = np.array(points).T
            slopes[metric_id] = float(np.polyfit(xs, ys, 1)[0])
    return BenchmarkResult(rows=tuple(rows), slopes=slopes)


# ---------------------------------------------------------------------------
# full experiment


@dataclass(frozen=True)
class ExperimentConfig:
    """What run_experiment runs; a bad field raises ValueError when built."""

    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    # when set, graphs come from files in this directory instead of the
    # generator; corpus.seed still drives the layout randomness. A path is
    # kept as its str, which the summary JSON can hold
    corpus_dir: str | os.PathLike | None = None
    metric_ids: tuple[str, ...] = DEFAULT_EXPERIMENT_METRICS
    scale_policy: str = "paper-like"
    # 3x the optimizer's own default: the ordering analysis needs the
    # optimized source to be convincingly converged, not merely improved
    optimizer_iterations: int = 300
    drs_force: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.corpus, CorpusSpec):
            raise ValueError(f"'corpus' must be a CorpusSpec, got {self.corpus!r}")
        if self.corpus_dir is not None:
            if not isinstance(self.corpus_dir, (str, os.PathLike)):
                raise ValueError(f"'corpus_dir' must be a str or a path, got {self.corpus_dir!r}")
            object.__setattr__(self, "corpus_dir", os.fspath(self.corpus_dir))
        # a generator is used up here once, not by the first trial
        object.__setattr__(self, "metric_ids", check_metric_ids(self.metric_ids))
        if not isinstance(self.scale_policy, str) or self.scale_policy not in SCALE_POLICIES:
            need = f"one of {', '.join(SCALE_POLICIES)}"
            raise ValueError(f"'scale_policy' must be {need}, got {self.scale_policy!r}")
        iterations = _integer("'optimizer_iterations'", self.optimizer_iterations)
        if iterations < 1:
            raise ValueError(f"'optimizer_iterations' must be >= 1, got {iterations!r}")
        object.__setattr__(self, "optimizer_iterations", iterations)
        if not isinstance(self.drs_force, bool):
            raise ValueError(f"'drs_force' must be true or false, got {self.drs_force!r}")


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str


#: the comparison each verdict operator stands for
_COMPARISONS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    failures: tuple[tuple[str, str], ...]
    order_table: OrderFrequencyTable
    correlation_table: CorrelationTable
    verdicts: tuple[Verdict, ...]


def _scored_trial(config: ExperimentConfig, task) -> TrialRecord | tuple[str, str]:
    """One graph's trial: its TrialRecord, or (graph_id, message) when it failed.

    task is (graph_id, graph, optimize_seed, random_seed). apsp, make_layouts
    and run_trial are looked up in this module's globals at call time, in the
    worker process as in this one.
    """
    graph_id, graph, optimize_seed, random_seed = task
    try:
        d = apsp(graph)
        layouts = make_layouts(d, optimize_seed, random_seed, config.optimizer_iterations)
        return run_trial(
            graph_id,
            d,
            layouts,
            config.metric_ids,
            config.scale_policy,
            drs_force=config.drs_force,
        )
    except Exception as exc:  # record and continue; caller decides severity
        return graph_id, f"{type(exc).__name__}: {exc}"


def _trial_workers(trials: int) -> int:
    """Worker processes for trials: one per CPU this process may run on, at
    most one per trial."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, trials))


def run_experiment(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the full protocol on the seeded corpus. The scores, and so the
    tables, are a pure function of config; each record's seconds are wall times.

    ValueError before any trial runs when the corpus holds fewer than two
    graphs, which the metric correlations need. A failed trial is recorded
    and the run continues. ValueError when fewer than two trials scored; its
    message says how many failed and carries the first failure.

    The trials run in forked worker processes, one per CPU in the process's
    affinity mask and at most one per trial, or in this process when that
    makes one worker (``taskset -c 0``) or fork is unavailable. A trial
    depends only on its graph and the two seeds drawn here, and the results
    are gathered in corpus order, so the result is the same either way. A
    worker peaks at about 30 MB at the default config, more for larger
    corpus_dir graphs. A worker that dies raises BrokenProcessPool; it is
    not a failed trial. On Python 3.12 and later, fork from a process that
    has threads (numpy's BLAS starts some) emits a DeprecationWarning.
    """
    if config.corpus_dir is not None:
        corpus = load_corpus_dir(config.corpus_dir)
    else:
        corpus = generate_corpus(config.corpus)
    if not corpus:
        raise ValueError("the corpus holds no graphs")
    if len(corpus) < 2:
        raise ValueError("the corpus holds one graph; the metric correlations need at least two")
    seed_rng = np.random.default_rng([config.corpus.seed, 1])
    optimize_seeds = seed_rng.integers(2**63, size=len(corpus))
    random_seeds = seed_rng.integers(2**63, size=len(corpus))
    tasks = [
        (graph_id, graph, int(opt_seed), int(rand_seed))
        for (graph_id, graph), opt_seed, rand_seed in zip(corpus, optimize_seeds, random_seeds)
    ]
    trial = functools.partial(_scored_trial, config)
    # imported here so that importing the package does not pay for them
    import concurrent.futures
    import multiprocessing

    workers = _trial_workers(len(tasks))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        outcomes = list(map(trial, tasks))
    else:
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
            outcomes = list(pool.map(trial, tasks))
    records = [o for o in outcomes if isinstance(o, TrialRecord)]
    failures = [o for o in outcomes if not isinstance(o, TrialRecord)]
    if len(records) < 2:
        failed = f"{len(failures)} of {len(tasks)} trials" if records else "every trial"
        raise ValueError(
            f"{failed} failed and the metric correlations need two scored graphs;"
            f" first failure: {': '.join(failures[0])}"
        )
    table = order_frequencies(records)
    corr = metric_correlations(records)
    return ExperimentResult(
        config=config,
        records=tuple(records),
        failures=tuple(failures),
        order_table=table,
        correlation_table=corr,
        verdicts=experiment_verdicts(records, table, corr),
    )


def experiment_verdicts(
    records, table: OrderFrequencyTable, corr: CorrelationTable
) -> tuple[Verdict, ...]:
    """One pass/fail line per expectation the experiment is meant to check,
    each from one row of (name, what is measured, value, operator, bound):
    the operator picks the comparison, and the detail is formatted from the row."""
    rows = []  # (name, measured, value, op, bound, is_frequency)
    truth = "ground-truth ordering frequency"
    for m in ("sns", "scs", "nms"):
        if m in table.metric_ids:
            freq = table.triple_frequency(m, GROUND_TRUTH_ORDER)
            rows.append((f"{m}-ground-truth", truth, freq, ">=", 0.90, True))
    for m in ("rs", "ns", "kks"):
        if m in table.metric_ids:
            best = table.best_frequency(m, "random")
            freq = table.triple_frequency(m, GROUND_TRUTH_ORDER)
            rows.append((f"{m}-random-best", "random ranked best", best, ">=", 0.95, True))
            rows.append((f"{m}-ground-truth-rare", truth, freq, "<=", 0.05, True))
    pairs = (("rs", "ns", ">=", 0.9), ("sns", "nms", ">=", 0.8), ("rs", "sns", "<=", -0.2))
    for a, b, op, bound in pairs:
        if a in corr.metric_ids and b in corr.metric_ids:
            rho = corr.get(a, b)
            rows.append((f"corr-{a}-{b}", f"spearman({a}, {b}) =", rho, op, bound, False))
    if "sgs" in table.metric_ids:
        for src, op, bound, level in (("optimized", ">", 0.8, "high"), ("random", "<", 0.4, "low")):
            mean = float(np.mean([r.sources[src].scores["sgs"] for r in records]))
            rows.append((f"sgs-{src}-{level}", f"mean sgs({src}) =", mean, op, bound, False))
    verdicts = []
    for name, measured, value, op, bound, is_frequency in rows:
        # format(bound, "") is str(bound): the bound as written
        value_spec, bound_spec = (".2%", ".0%") if is_frequency else (".3f", "")
        detail = f"{measured} {value:{value_spec}} (threshold {op} {bound:{bound_spec}})"
        verdicts.append(Verdict(name, _COMPARISONS[op](value, bound), detail))
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# table emission


def _file_token(config: ExperimentConfig) -> str:
    return f"s{config.corpus.seed}_{config.scale_policy}"


def write_tables(result: ExperimentResult, out_dir: Path | str) -> list[Path]:
    """Write orders/correlations/trials CSVs and a JSON summary.

    Output is a pure function of the config: no timestamps and none of the
    records' seconds are written, so identical runs give bit-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    token = _file_token(result.config)
    table = result.order_table

    orders_path = out_dir / f"orders_{token}.csv"
    rows = [("metric", "kind", "ordering", "count", "total", "frequency")]
    for metric_id in table.metric_ids:
        total = table.totals[metric_id]
        for (a, b), count in sorted(table.pair_counts[metric_id].items()):
            rows.append((metric_id, "pair", f"{a}<{b}", count, total, count / total))
        for perm, count in sorted(table.triple_counts[metric_id].items()):
            rows.append((metric_id, "triple", "<".join(perm), count, total, count / total))
        ties = table.tie_counts[metric_id]
        rows.append((metric_id, "tie", "any", ties, total, ties / total))
    orders_path.write_text(csv_text(rows))

    corr = result.correlation_table
    corr_path = out_dir / f"correlations_{token}.csv"
    rows = [("metric_row", "metric_col", "spearman")]
    rows += [(a, b, corr.get(a, b)) for a in corr.metric_ids for b in corr.metric_ids]
    corr_path.write_text(csv_text(rows))

    trials_path = out_dir / f"trials_{token}.csv"
    rows = [("graph_id", "vertex_count", "source", "max_distance", "metric", "value", "alpha_min")]
    for record in result.records:
        for src in sorted(record.sources):
            sr = record.sources[src]
            rows += [
                (record.graph_id, record.vertex_count, src, sr.max_distance, metric_id,
                 sr.scores[metric_id], sr.alpha_min.get(metric_id))
                for metric_id in METRIC_IDS
                if metric_id in sr.scores
            ]
    trials_path.write_text(csv_text(rows))

    summary_path = out_dir / f"summary_{token}.json"
    summary = {
        "config": asdict(result.config),
        "graphs_scored": len(result.records),
        "failures": [{"graph_id": g, "error": msg} for g, msg in result.failures],
        "order_frequencies": {
            metric_id: {
                "ground_truth": table.triple_frequency(metric_id, GROUND_TRUTH_ORDER),
                "random_best": table.best_frequency(metric_id, "random"),
                "ties": table.tie_counts[metric_id],
            }
            for metric_id in table.metric_ids
        },
        "correlations": {
            f"{a}|{b}": corr.get(a, b)
            for i, a in enumerate(corr.metric_ids)
            for b in corr.metric_ids[i + 1 :]
        },
        "verdicts": [asdict(v) for v in result.verdicts],
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return [orders_path, corr_path, trials_path, summary_path]
