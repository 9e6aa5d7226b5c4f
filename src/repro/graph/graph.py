"""The TaskGraph container: a DAG of named tasks."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.errors import CycleError, GraphError
from repro.graph.task import Task


class TaskGraph:
    """A directed acyclic graph of :class:`~repro.graph.task.Task` nodes.

    The graph maps task keys to tasks; edges are implied by the
    :class:`TaskRef` arguments of each task.  The container supports merging
    (used to combine the graphs of many lazy values into the single graph the
    paper's Compute module executes), topological ordering and dependency
    queries needed by the optimizer and the schedulers.
    """

    def __init__(self, tasks: Optional[Iterable[Task]] = None):
        self._tasks: Dict[str, Task] = {}
        if tasks is not None:
            for task in tasks:
                self.add(task)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, task: Task) -> None:
        """Add a task; re-adding the same key with a different token is an error."""
        existing = self._tasks.get(task.key)
        if existing is not None and existing.token != task.token:
            raise GraphError(f"task key {task.key!r} already exists with different contents")
        self._tasks[task.key] = task

    def update(self, other: "TaskGraph") -> None:
        """Merge all tasks from another graph into this one."""
        for task in other.tasks():
            self.add(task)

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

    def dependencies(self, key: str) -> List[str]:
        """Keys of the direct dependencies of *key*."""
        return self[key].dependencies()

    def dependents(self) -> Dict[str, Set[str]]:
        """Reverse adjacency: key -> set of keys that depend on it."""
        reverse: Dict[str, Set[str]] = {key: set() for key in self._tasks}
        for key, task in self._tasks.items():
            for dependency in task.dependencies():
                if dependency in reverse:
                    reverse[dependency].add(key)
        return reverse

    def validate(self) -> None:
        """Check that every referenced dependency exists in the graph."""
        for key, task in self._tasks.items():
            for dependency in task.dependencies():
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

    def copy(self) -> "TaskGraph":
        """Shallow copy (tasks are shared, the mapping is new)."""
        return TaskGraph(self.tasks())

    def __repr__(self) -> str:
        return f"TaskGraph(tasks={len(self._tasks)})"
