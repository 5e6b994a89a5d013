"""Task-graph analysis and export utilities.

Uintah can dump its task graph for inspection; this module provides the
same affordances for the reproduction:

* :func:`to_dot` — GraphViz export of a compiled
  :class:`~repro.core.taskgraph.TaskGraph` (internal edges solid, MPI
  messages dashed, one cluster per rank);
* :func:`critical_path` — the longest weighted chain of internal
  dependencies, the lower bound on a timestep regardless of resources,
  built on :func:`chain_depths` (which the ``critical_path`` selection
  policy also scores with);
* :func:`graph_stats` — counts the scheduler's workload per rank.

When ``networkx`` is installed, :func:`to_networkx` exposes the graph to
its algorithms (used by the test suite for an independent cycle check).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.task import DetailedTask
from repro.core.taskgraph import TaskGraph


def to_dot(graph: TaskGraph, max_tasks: int | None = None) -> str:
    """Render the compiled graph in GraphViz DOT format.

    ``max_tasks`` truncates huge graphs for readability (None = all).
    """
    lines = [
        "digraph taskgraph {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    shown = set()
    tasks = graph.detailed_tasks if max_tasks is None else graph.detailed_tasks[:max_tasks]
    for rank in range(graph.num_ranks):
        members = [dt for dt in tasks if dt.rank == rank]
        if not members:
            continue
        lines.append(f"  subgraph cluster_rank{rank} {{")
        lines.append(f'    label="rank {rank}";')
        for dt in members:
            shown.add(dt.dt_id)
            shape = "box" if dt.task.offloadable else "ellipse"
            lines.append(f'    dt{dt.dt_id} [label="{dt.name}", shape={shape}];')
        lines.append("  }")
    for dt in tasks:
        for dep in sorted(graph.internal_deps[dt.dt_id]):
            if dep in shown:
                lines.append(f"  dt{dep} -> dt{dt.dt_id};")
    for msg in graph.messages:
        if msg.producer is not None and msg.producer.dt_id in shown and msg.consumer.dt_id in shown:
            style = "dashed" if not msg.cross_step else "dotted"
            lines.append(
                f"  dt{msg.producer.dt_id} -> dt{msg.consumer.dt_id} "
                f'[style={style}, label="tag {msg.tag}"];'
            )
    lines.append("}")
    return "\n".join(lines)


@dataclasses.dataclass
class CriticalPath:
    """The longest internal-dependency chain of one timestep."""

    tasks: list[DetailedTask]
    #: Sum of node weights along the chain.
    length: float


def chain_depths(
    graph: TaskGraph,
    tasks: _t.Iterable[DetailedTask],
    weight: _t.Callable[[DetailedTask], float] = lambda dt: 1.0,
) -> dict[int, float]:
    """Weight of the heaviest downstream chain each task heads, itself included.

    Keyed by ``dt_id``, for ``tasks`` and every task downstream of them.
    The walk follows :meth:`~repro.core.taskgraph.TaskGraph.dependents_of`;
    internal dependencies are same-rank by construction, so that covers
    every internal edge.
    """
    memo: dict[int, float] = {}

    def visit(dt: DetailedTask) -> float:
        got = memo.get(dt.dt_id)
        if got is None:
            deeper = max(map(visit, graph.dependents_of(dt)), default=0.0)
            memo[dt.dt_id] = got = weight(dt) + deeper
        return got

    for dt in tasks:
        visit(dt)
    return memo


def critical_path(
    graph: TaskGraph,
    weight: _t.Callable[[DetailedTask], float] = lambda dt: 1.0,
) -> CriticalPath:
    """Longest weighted path through the internal dependencies.

    ``weight(dt)`` defaults to 1 (hop count); pass e.g. the cost model's
    kernel time for a seconds-valued bound.
    """
    if not graph.detailed_tasks:
        return CriticalPath([], 0.0)
    depth = chain_depths(graph, graph.detailed_tasks, weight)

    def key(dt: DetailedTask) -> float:
        return depth[dt.dt_id]

    chain = [max(graph.detailed_tasks, key=key)]
    while graph.dependents_of(chain[-1]):
        chain.append(max(graph.dependents_of(chain[-1]), key=key))
    return CriticalPath(chain, depth[chain[0].dt_id])


def graph_stats(graph: TaskGraph) -> dict:
    """Per-graph workload counts (used by reports and tests)."""
    per_rank_tasks = [len(graph.local_tasks(r)) for r in range(graph.num_ranks)]
    per_rank_recv = [0] * graph.num_ranks
    per_rank_send = [0] * graph.num_ranks
    for msg in graph.messages:
        per_rank_recv[msg.to_rank] += 1
        per_rank_send[msg.from_rank] += 1
    return {
        "detailed_tasks": len(graph.detailed_tasks),
        "internal_edges": sum(len(d) for d in graph.internal_deps.values()),
        "messages": len(graph.messages),
        "message_bytes": sum(m.nbytes for m in graph.messages),
        "local_copies": len(graph.copies),
        "per_rank_tasks": per_rank_tasks,
        "per_rank_recvs": per_rank_recv,
        "per_rank_sends": per_rank_send,
    }


def to_networkx(graph: TaskGraph):
    """The internal-dependency DAG as a ``networkx.DiGraph`` (optional)."""
    import networkx as nx

    g = nx.DiGraph()
    for dt in graph.detailed_tasks:
        g.add_node(dt.dt_id, name=dt.name, rank=dt.rank)
    for dt in graph.detailed_tasks:
        for dep in graph.internal_deps[dt.dt_id]:
            g.add_edge(dep, dt.dt_id)
    return g
