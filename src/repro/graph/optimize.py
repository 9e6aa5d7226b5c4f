"""Graph optimization passes.

The passes mirror what the paper relies on from Dask:

* **cull** — drop tasks that are not ancestors of a requested output.
* **common sub-expression elimination (CSE)** — merge tasks with identical
  structural fingerprints so a shared computation (e.g. the quantiles needed
  by the stats table, the box plot and the Q-Q plot of one column) runs once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.graph.graph import TaskGraph
from repro.graph.task import Task, tokenize


@dataclass
class OptimizeStats:
    """Bookkeeping about what an optimization pass removed."""

    input_tasks: int
    output_tasks: int
    merged_by_cse: int = 0
    culled: int = 0


def cull(graph: TaskGraph, outputs: Sequence[str]) -> Tuple[TaskGraph, OptimizeStats]:
    """Keep only the tasks needed to produce *outputs*."""
    needed = graph.ancestors(list(outputs))
    kept = [task for task in graph.tasks() if task.key in needed]
    culled_graph = TaskGraph(kept)
    stats = OptimizeStats(input_tasks=len(graph), output_tasks=len(culled_graph),
                          culled=len(graph) - len(culled_graph))
    return culled_graph, stats


def common_subexpression_elimination(
        graph: TaskGraph,
        outputs: Sequence[str]) -> Tuple[TaskGraph, Dict[str, str], OptimizeStats]:
    """Merge tasks with identical fingerprints.

    Returns the rewritten graph, a mapping from original output keys to their
    canonical (possibly merged) keys, and pass statistics.  Fingerprints are
    recomputed bottom-up so that chains of identical computations collapse
    transitively.
    """
    order = graph.toposort()
    canonical_by_token: Dict[str, str] = {}
    remap: Dict[str, str] = {}
    new_tasks: List[Task] = []

    for key in order:
        original = graph[key]
        task = original.substitute(remap)
        # Tokens are recomputed after dependency rewriting so that two tasks
        # become mergeable once their inputs have been merged.  Tasks with a
        # customized token (impure calls) keep it, so they are
        # only merged with tasks carrying the exact same custom token.
        if not original.token_customized:
            token = tokenize(task.func, task.args, task.kwargs)
        else:
            token = original.token
        rewritten = Task(task.key, task.func, task.args, task.kwargs, token=token,
                         token_customized=original.token_customized)
        canonical = canonical_by_token.get(rewritten.token)
        if canonical is None:
            canonical_by_token[rewritten.token] = key
            remap[key] = key
            new_tasks.append(rewritten)
        else:
            remap[key] = canonical

    merged_graph = TaskGraph(new_tasks)
    output_map = {key: remap.get(key, key) for key in outputs}
    stats = OptimizeStats(input_tasks=len(graph), output_tasks=len(merged_graph),
                          merged_by_cse=len(graph) - len(merged_graph))
    return merged_graph, output_map, stats


def optimize(graph: TaskGraph, outputs: Sequence[str],
             enable_cse: bool = True) -> Tuple[TaskGraph, Dict[str, str], OptimizeStats]:
    """Run the standard optimization pipeline: cull, then CSE.

    Returns ``(graph, output key remap, stats)``.
    """
    culled_graph, cull_stats = cull(graph, outputs)
    output_map = {key: key for key in outputs}
    total = OptimizeStats(input_tasks=len(graph), output_tasks=len(culled_graph),
                          culled=cull_stats.culled)

    working = culled_graph
    if enable_cse:
        working, output_map, cse_stats = common_subexpression_elimination(
            working, outputs)
        total.merged_by_cse = cse_stats.merged_by_cse
        total.output_tasks = len(working)
    return working, output_map, total
