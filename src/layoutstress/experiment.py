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

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .graph import (
    DistanceMatrix,
    Graph,
    apsp,
    largest_connected_component,
    parse_edge_list,
    parse_matrix_market,
)
from .layout import (
    Layout,
    LayoutDistances,
    circle_layout,
    optimize_layout,
    pairwise_distances,
    random_layout,
    scale_to_max_distance,
)
from .metrics import HIGHER_IS_BETTER, METRIC_IDS, compute_metric, score_layout
from .errors import SizeGuardError
from .stats import average_ranks, spearman

LAYOUT_SOURCES = ("optimized", "circle", "random")
GROUND_TRUTH_ORDER = ("optimized", "circle", "random")

SCALE_POLICIES = ("as-is", "paper-like")

#: spans imposed by the paper-like policy (random is left in the unit square)
PAPER_LIKE_SPANS = {"optimized": 800.0, "circle": 804.0}

#: runtime benchmarking caps distance-ratio stress at this size
BENCH_DRS_MAX_VERTICES = 50

DEFAULT_EXPERIMENT_METRICS = ("rs", "kks", "ns", "sns", "sgs", "scs", "nms")


# ---------------------------------------------------------------------------
# corpus generation

#: smallest graph corpus_graph builds (ring plus chords)
MIN_CORPUS_VERTICES = 8


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic desk-scale corpus of connected sparse graphs."""

    graphs: int = 50
    n_min: int = 20
    n_max: int = 60
    density: float = 0.083
    seed: int = 97

    def __post_init__(self) -> None:
        # graphs <= 0 is left to run_experiment, which refuses an empty corpus
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

    Matrix Market files by extension (.mtx/.mm), edge lists otherwise; each
    graph is reduced to its largest connected component. Deterministic
    ordering by file name.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"corpus directory {directory} does not exist")
    corpus = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        text = path.read_text()
        if path.suffix.lower() in (".mtx", ".mm"):
            graph = parse_matrix_market(text)
        else:
            graph = parse_edge_list(text).graph
        if graph.vertex_count == 0:
            raise ValueError(f"{path}: graph has no vertices")
        component, _ = largest_connected_component(graph)
        corpus.append((path.stem, component))
    if not corpus:
        raise ValueError(f"corpus directory {directory} holds no graph files")
    return corpus


def make_layouts(
    graph: Graph,
    distances: DistanceMatrix,
    optimize_seed: int,
    random_seed: int,
    iterations: int = 100,
) -> dict[str, Layout]:
    """The three harness layout sources for one graph."""
    return {
        "optimized": optimize_layout(graph, distances, optimize_seed, iterations),
        "circle": circle_layout(graph.vertex_count),
        "random": random_layout(graph.vertex_count, random_seed),
    }


def apply_scale_policy(layouts: dict[str, Layout], policy: str) -> dict[str, Layout]:
    """Rescale layouts according to a named policy before scoring."""
    if policy == "as-is":
        return dict(layouts)
    if policy == "paper-like":
        out = {}
        for name, layout in layouts.items():
            span = PAPER_LIKE_SPANS.get(name)
            out[name] = scale_to_max_distance(layout, span) if span else layout
        return out
    raise ValueError(f"unknown scale policy {policy!r} (known: {', '.join(SCALE_POLICIES)})")


# ---------------------------------------------------------------------------
# trials


@dataclass(frozen=True)
class SourceResult:
    """Scores of one layout source on one graph."""

    scores: dict[str, float]
    alpha_min: dict[str, float]
    max_distance: float
    skipped: tuple[str, ...] = ()


@dataclass(frozen=True)
class TrialRecord:
    graph_id: str
    vertex_count: int
    sources: dict[str, SourceResult]


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
    for metric_id in metric_ids:
        if metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric id {metric_id!r}")
    sources: dict[str, SourceResult] = {}
    for name, layout in apply_scale_policy(layouts, policy).items():
        e = pairwise_distances(layout)
        scores, skipped = score_layout(e, d, metric_ids, force=drs_force)
        sources[name] = SourceResult(
            scores={m: value for m, (value, _, _) in scores.items()},
            alpha_min={m: alpha for m, (_, alpha, _) in scores.items() if alpha is not None},
            max_distance=e.max_distance,
            skipped=skipped,
        )
    return TrialRecord(graph_id=graph_id, vertex_count=d.n, sources=sources)


# ---------------------------------------------------------------------------
# aggregation


def _adjusted(metric_id: str, value: float) -> float:
    # flip sign where higher is better so "smaller = better" holds everywhere
    return -value if metric_id in HIGHER_IS_BETTER else value


def _metrics_in_all(records, sources) -> tuple[str, ...]:
    common: set[str] | None = None
    for record in records:
        for src in sources:
            present = set(record.sources[src].scores)
            common = present if common is None else common & present
    return tuple(m for m in METRIC_IDS if common and m in common)


@dataclass(frozen=True)
class OrderFrequencyTable:
    """Counts of every strict 2- and 3-ordering of the layout sources.

    Exact score ties are broken by source name so orderings are total; the
    number of records where a tie occurred is kept per metric.
    """

    sources: tuple[str, ...]
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
    for record in records:
        for src in sources:
            if src not in record.sources:
                raise ValueError(f"record {record.graph_id} is missing source {src!r}")
    metric_ids = _metrics_in_all(records, sources)
    totals: dict[str, int] = {}
    triple_counts: dict[str, dict[tuple[str, ...], int]] = {}
    pair_counts: dict[str, dict[tuple[str, str], int]] = {}
    tie_counts: dict[str, int] = {}
    for metric_id in metric_ids:
        triples: dict[tuple[str, ...], int] = {}
        pairs: dict[tuple[str, str], int] = {}
        ties = 0
        eligible = 0
        for record in records:
            values = {
                src: _adjusted(metric_id, record.sources[src].scores[metric_id])
                for src in sources
            }
            eligible += 1
            if len(set(values.values())) < len(sources):
                ties += 1
            perm = tuple(sorted(sources, key=lambda s: (values[s], s)))
            triples[perm] = triples.get(perm, 0) + 1
            for a in sources:
                for b in sources:
                    if a < b:
                        winner, loser = (a, b) if (values[a], a) < (values[b], b) else (b, a)
                        pairs[(winner, loser)] = pairs.get((winner, loser), 0) + 1
        totals[metric_id] = eligible
        triple_counts[metric_id] = triples
        pair_counts[metric_id] = pairs
        tie_counts[metric_id] = ties
    return OrderFrequencyTable(
        sources=tuple(sources),
        metric_ids=metric_ids,
        totals=totals,
        triple_counts=triple_counts,
        pair_counts=pair_counts,
        tie_counts=tie_counts,
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
    metric_ids = _metrics_in_all(records, sources)
    series = {
        metric_id: np.concatenate(
            [
                average_ranks(
                    [
                        _adjusted(metric_id, record.sources[src].scores[metric_id])
                        for src in sources
                    ]
                ).ranks
                for record in records
            ]
        )
        for metric_id in metric_ids
    }
    k = len(metric_ids)
    matrix = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            rho = spearman(series[metric_ids[i]], series[metric_ids[j]])
            matrix[i, j] = matrix[j, i] = rho
    return CorrelationTable(metric_ids=metric_ids, matrix=matrix)


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
    """Median metric runtimes over graph sizes, plus log-log slopes.

    One warm-up evaluation per (size, metric) is discarded. Every timed
    evaluation gets distance objects built outside the timed region whose
    pair vectors are not yet cached, so it pays its own pair extraction.
    drs is refused above BENCH_DRS_MAX_VERTICES unless force is set.
    """
    sizes = [int(n) for n in sizes]
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    if repetitions < 3:
        raise ValueError(f"need at least 3 repetitions, got {repetitions}")
    for metric_id in metric_ids:
        if metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric id {metric_id!r}")
        if metric_id == "drs" and not force and max(sizes) > BENCH_DRS_MAX_VERTICES:
            raise SizeGuardError(
                f"drs benchmarking is restricted to n <= {BENCH_DRS_MAX_VERTICES};"
                " pass force to override"
            )
    rng = np.random.default_rng(seed)
    rows: list[BenchRow] = []
    times: dict[str, list[tuple[float, float]]] = {m: [] for m in metric_ids}
    for n in sizes:
        graph = bench_graph(n, rng)
        d = apsp(graph)
        e = pairwise_distances(random_layout(n, int(rng.integers(2**63))))
        for metric_id in metric_ids:
            compute_metric(metric_id, e, d, force=True)  # warm-up, discarded
            samples = []
            for _ in range(repetitions):
                fresh_e, fresh_d = LayoutDistances(e.e), DistanceMatrix(d.d)
                t0 = time.perf_counter()
                compute_metric(metric_id, fresh_e, fresh_d, force=True)
                samples.append(time.perf_counter() - t0)
            med = statistics.median(samples)
            rows.append(BenchRow(n=n, metric_id=metric_id, median_seconds=med))
            times[metric_id].append((math.log(n), math.log(med)))
    slopes = {}
    for metric_id, points in times.items():
        if len(points) >= 2:
            xs = np.array([p[0] for p in points])
            ys = np.array([p[1] for p in points])
            slopes[metric_id] = float(np.polyfit(xs, ys, 1)[0])
    return BenchmarkResult(rows=tuple(rows), slopes=slopes)


# ---------------------------------------------------------------------------
# full experiment


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    # when set, graphs come from files in this directory instead of the
    # generator; corpus.seed still drives the layout randomness
    corpus_dir: str | None = None
    metric_ids: tuple[str, ...] = DEFAULT_EXPERIMENT_METRICS
    scale_policy: str = "paper-like"
    # 3x the optimizer's own default: the ordering analysis needs the
    # optimized source to be convincingly converged, not merely improved
    optimizer_iterations: int = 300
    drs_force: bool = False


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    failures: tuple[tuple[str, str], ...]
    order_table: OrderFrequencyTable
    correlation_table: CorrelationTable
    verdicts: tuple[Verdict, ...]


def run_experiment(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the full protocol on the seeded corpus; pure function of config.

    A failed trial is recorded and the run continues. ValueError when no
    trial succeeds (including an empty corpus); its message carries the
    first failure.
    """
    if config.corpus_dir is not None:
        corpus = load_corpus_dir(config.corpus_dir)
    else:
        corpus = generate_corpus(config.corpus)
    seed_rng = np.random.default_rng([config.corpus.seed, 1])
    optimize_seeds = seed_rng.integers(2**63, size=len(corpus))
    random_seeds = seed_rng.integers(2**63, size=len(corpus))
    records: list[TrialRecord] = []
    failures: list[tuple[str, str]] = []
    for k, (graph_id, graph) in enumerate(corpus):
        try:
            d = apsp(graph)
            layouts = make_layouts(
                graph,
                d,
                int(optimize_seeds[k]),
                int(random_seeds[k]),
                config.optimizer_iterations,
            )
            records.append(
                run_trial(
                    graph_id,
                    d,
                    layouts,
                    config.metric_ids,
                    config.scale_policy,
                    drs_force=config.drs_force,
                )
            )
        except Exception as exc:  # record and continue; caller decides severity
            failures.append((graph_id, f"{type(exc).__name__}: {exc}"))
    if not records:
        if not failures:
            raise ValueError("the corpus holds no graphs")
        graph_id, message = failures[0]
        raise ValueError(f"every trial failed; first failure: {graph_id}: {message}")
    result = ExperimentResult(
        config=config,
        records=tuple(records),
        failures=tuple(failures),
        order_table=order_frequencies(records),
        correlation_table=metric_correlations(records),
        verdicts=(),
    )
    return replace(result, verdicts=experiment_verdicts(result))


def experiment_verdicts(result: ExperimentResult) -> tuple[Verdict, ...]:
    """One pass/fail line per expectation the experiment is meant to check."""
    table = result.order_table
    corr = result.correlation_table
    verdicts: list[Verdict] = []

    def check(name: str, passed: bool, detail: str) -> None:
        verdicts.append(Verdict(name=name, passed=passed, detail=detail))

    for metric_id in ("sns", "scs", "nms"):
        if metric_id in table.metric_ids:
            freq = table.triple_frequency(metric_id, GROUND_TRUTH_ORDER)
            check(
                f"{metric_id}-ground-truth",
                freq >= 0.90,
                f"ground-truth ordering frequency {freq:.2%} (threshold >= 90%)",
            )
    for metric_id in ("rs", "ns", "kks"):
        if metric_id in table.metric_ids:
            best = table.best_frequency(metric_id, "random")
            truth = table.triple_frequency(metric_id, GROUND_TRUTH_ORDER)
            check(
                f"{metric_id}-random-best",
                best >= 0.95,
                f"random ranked best {best:.2%} (threshold >= 95%)",
            )
            check(
                f"{metric_id}-ground-truth-rare",
                truth <= 0.05,
                f"ground-truth ordering frequency {truth:.2%} (threshold <= 5%)",
            )
    pairs = (("rs", "ns", ">=", 0.9), ("sns", "nms", ">=", 0.8), ("rs", "sns", "<=", -0.2))
    for a, b, op, bound in pairs:
        if a in corr.metric_ids and b in corr.metric_ids:
            rho = corr.get(a, b)
            passed = rho >= bound if op == ">=" else rho <= bound
            check(
                f"corr-{a}-{b}",
                passed,
                f"spearman({a}, {b}) = {rho:.3f} (threshold {op} {bound})",
            )
    if "sgs" in table.metric_ids:
        mean_opt = float(
            np.mean([r.sources["optimized"].scores["sgs"] for r in result.records])
        )
        mean_rand = float(
            np.mean([r.sources["random"].scores["sgs"] for r in result.records])
        )
        check(
            "sgs-optimized-high",
            mean_opt > 0.8,
            f"mean sgs(optimized) = {mean_opt:.3f} (threshold > 0.8)",
        )
        check(
            "sgs-random-low",
            mean_rand < 0.4,
            f"mean sgs(random) = {mean_rand:.3f} (threshold < 0.4)",
        )
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# table emission


def _file_token(config: ExperimentConfig) -> str:
    return f"s{config.corpus.seed}_{config.scale_policy}"


def write_tables(result: ExperimentResult, out_dir: Path | str) -> list[Path]:
    """Write orders/correlations/trials CSVs and a JSON summary.

    Output is a pure function of the experiment result: no timestamps or
    wall-time readings, so identical runs produce bit-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    token = _file_token(result.config)
    table = result.order_table

    orders_path = out_dir / f"orders_{token}.csv"
    lines = ["metric,kind,ordering,count,total,frequency"]
    for metric_id in table.metric_ids:
        total = table.totals[metric_id]
        for (a, b), count in sorted(table.pair_counts[metric_id].items()):
            lines.append(f"{metric_id},pair,{a}<{b},{count},{total},{count / total!r}")
        for perm, count in sorted(table.triple_counts[metric_id].items()):
            label = "<".join(perm)
            lines.append(f"{metric_id},triple,{label},{count},{total},{count / total!r}")
        ties = table.tie_counts[metric_id]
        lines.append(f"{metric_id},tie,any,{ties},{total},{ties / total!r}")
    orders_path.write_text("\n".join(lines) + "\n")

    corr = result.correlation_table
    corr_path = out_dir / f"correlations_{token}.csv"
    lines = ["metric_row,metric_col,spearman"]
    for i, a in enumerate(corr.metric_ids):
        for j, b in enumerate(corr.metric_ids):
            lines.append(f"{a},{b},{float(corr.matrix[i, j])!r}")
    corr_path.write_text("\n".join(lines) + "\n")

    trials_path = out_dir / f"trials_{token}.csv"
    lines = ["graph_id,vertex_count,source,max_distance,metric,value,alpha_min"]
    for record in result.records:
        for src in sorted(record.sources):
            sr = record.sources[src]
            for metric_id in METRIC_IDS:
                if metric_id not in sr.scores:
                    continue
                alpha = sr.alpha_min.get(metric_id)
                alpha_text = "" if alpha is None else repr(alpha)
                lines.append(
                    f"{record.graph_id},{record.vertex_count},{src},"
                    f"{sr.max_distance!r},{metric_id},{sr.scores[metric_id]!r},{alpha_text}"
                )
    trials_path.write_text("\n".join(lines) + "\n")

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
