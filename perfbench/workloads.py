"""The benchmark's workloads, shared by the orchestrator and the worker.

Each workload goes through a public entry point of the package:
``run_experiment`` plus ``write_tables`` for the paper's protocol, and the
``compute`` subcommand via ``cli.main`` for one large graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment" or "compute"
    why: str
    n: int = 0  # compute: vertex count of the bench_graph input
    layouts: tuple[str, ...] = ()  # compute: layout files, named by generator
    metrics: tuple[str, ...] = ()  # compute: --metrics

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> Workload:
        return cls(**{**data, "layouts": tuple(data["layouts"]), "metrics": tuple(data["metrics"])})


# drs is left out everywhere: above 64 vertices it needs --force, and its
# O(n^4) cost is the subject of a pending maintainer decision.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="experiment-default",
            kind="experiment",
            why=(
                "the paper's protocol (50 graphs, 300 optimizer iterations): optimizer-bound,"
                " plus ~1,050 metric calls at n <= 60 where per-call cost shows"
            ),
        ),
        Workload(
            name="compute-rank-n2000",
            kind="compute",
            why=(
                "compute on one n=2000 graph, random and tie-heavy circle layouts, seven metrics:"
                " the nms/sgs rank kernels dominate; the optimizer is never called"
            ),
            n=2000,
            layouts=("random", "circle"),
            metrics=("rs", "kks", "ns", "sns", "sgs", "scs", "nms"),
        ),
    )
}
