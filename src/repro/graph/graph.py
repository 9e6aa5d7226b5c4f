"""The TaskGraph container: a DAG of named tasks."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CycleError, GraphError
from repro.graph.task import Task


class TaskGraph:
    """A directed acyclic graph of :class:`~repro.graph.task.Task` nodes.

    The graph maps task keys to tasks; edges are implied by the
    :class:`TaskRef` arguments of each task.  A key names what its task
    computes (:mod:`repro.graph.task`), so merging — used to combine the
    graphs of many lazy values into the single graph the paper's Compute
    module executes — is also the sharing optimization: the first task
    under a key stays, every later one is the same computation and is
    dropped.  The container also provides the topological ordering and
    dependency queries the schedulers need.
    """

    def __init__(self, tasks: Optional[Iterable[Task]] = None):
        self._tasks: Dict[str, Task] = {}
        #: Task objects dropped because their key was already present —
        #: kept by identity so a union counts each of them once.
        self._dropped: Set[Task] = set()
        if tasks is not None:
            for task in tasks:
                self.add(task)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, task: Task) -> None:
        """Add a task; under a key already present the first task stays."""
        if self._tasks.setdefault(task.key, task) is not task:
            self._dropped.add(task)

    def update(self, other: "TaskGraph") -> None:
        """Merge all tasks from another graph into this one."""
        for task in other._tasks.values():
            self.add(task)
        self._dropped |= other._dropped

    @property
    def shared(self) -> int:
        """How many distinct tasks merging saved: built, but equal to a kept one."""
        return sum(1 for task in self._dropped
                   if self._tasks[task.key] is not task)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, key: object) -> bool:
        return key in self._tasks

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    def __getitem__(self, key: str) -> Task:
        try:
            return self._tasks[key]
        except KeyError:
            raise GraphError(f"unknown task key {key!r}") from None

    def keys(self) -> List[str]:
        """All task keys in insertion order."""
        return list(self._tasks.keys())

    def tasks(self) -> List[Task]:
        """All tasks in insertion order."""
        return list(self._tasks.values())

    def dependencies(self, key: str) -> Tuple[str, ...]:
        """Keys of the direct dependencies of *key*."""
        return self[key].deps

    def dependents(self) -> Dict[str, Set[str]]:
        """Reverse adjacency: key -> set of keys that depend on it."""
        reverse: Dict[str, Set[str]] = {key: set() for key in self._tasks}
        for key, task in self._tasks.items():
            for dependency in task.deps:
                if dependency in reverse:
                    reverse[dependency].add(key)
        return reverse

    def validate(self) -> None:
        """Check that every referenced dependency exists in the graph."""
        for key, task in self._tasks.items():
            for dependency in task.deps:
                if dependency not in self._tasks:
                    raise GraphError(
                        f"task {key!r} depends on unknown task {dependency!r}")

    def toposort(self) -> List[str]:
        """Topological order of all task keys (dependencies first).

        Raises :class:`~repro.errors.CycleError` if the graph has a cycle.
        """
        self.validate()
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 = unvisited, 1 = in stack, 2 = done
        for start in self._tasks:
            if state.get(start, 0) == 2:
                continue
            stack = [(start, iter(self.dependencies(start)))]
            state[start] = 1
            while stack:
                key, iterator = stack[-1]
                advanced = False
                for dependency in iterator:
                    status = state.get(dependency, 0)
                    if status == 1:
                        raise CycleError(
                            f"cycle detected involving tasks {dependency!r} and {key!r}")
                    if status == 0:
                        state[dependency] = 1
                        stack.append((dependency, iter(self.dependencies(dependency))))
                        advanced = True
                        break
                if advanced:
                    continue
                stack.pop()
                state[key] = 2
                order.append(key)
        return order

    def ancestors(self, keys: Sequence[str]) -> Set[str]:
        """All keys reachable (via dependencies) from *keys*, inclusive."""
        seen: Set[str] = set()
        stack = list(keys)
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.dependencies(key))
        return seen

    def __repr__(self) -> str:
        return f"TaskGraph(tasks={len(self._tasks)})"
