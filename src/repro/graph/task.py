"""Task representation and argument tokenization for the task graph."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

_COUNTER = itertools.count()


@dataclass(frozen=True)
class TaskRef:
    """A reference to the output of another task in the same graph."""

    key: str

    def __repr__(self) -> str:
        return f"TaskRef({self.key!r})"


@dataclass
class Task:
    """A single node in a :class:`~repro.graph.graph.TaskGraph`.

    Attributes
    ----------
    key:
        Unique identifier of the task inside its graph.
    func:
        The python callable to run.
    args / kwargs:
        Call arguments.  Any :class:`TaskRef` instances are replaced by the
        referenced task's result before *func* is called.
    token:
        A structural fingerprint of ``(func, args, kwargs)``; two tasks with
        the same token compute the same value and can be merged by the CSE
        optimization pass.
    token_customized:
        True when the token was deliberately made non-structural (impure
        calls).  Such tasks are excluded from the cross-call
        cache without re-tokenizing their arguments to find out.
    """

    key: str
    func: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    token: str = ""
    token_customized: bool = False

    def __post_init__(self) -> None:
        if not self.token:
            self.token = tokenize(self.func, self.args, self.kwargs)

    def dependencies(self) -> List[str]:
        """Keys of the tasks this task depends on."""
        refs: List[str] = []
        for value in self.args:
            refs.extend(_collect_refs(value))
        for value in self.kwargs.values():
            refs.extend(_collect_refs(value))
        return refs

    def substitute(self, mapping: Dict[str, str]) -> "Task":
        """Return a copy with dependency keys rewritten via *mapping*."""
        new_args = tuple(_rewrite_refs(value, mapping) for value in self.args)
        new_kwargs = {name: _rewrite_refs(value, mapping)
                      for name, value in self.kwargs.items()}
        return Task(self.key, self.func, new_args, new_kwargs, token=self.token,
                    token_customized=self.token_customized)

    def execute(self, results: Dict[str, Any]) -> Any:
        """Run the task, resolving TaskRef arguments from *results*."""
        args = tuple(_resolve(value, results) for value in self.args)
        kwargs = {name: _resolve(value, results) for name, value in self.kwargs.items()}
        return self.func(*args, **kwargs)

    def __repr__(self) -> str:
        name = getattr(self.func, "__name__", repr(self.func))
        return f"Task(key={self.key!r}, func={name}, deps={self.dependencies()})"


def next_key(prefix: str) -> str:
    """Generate a fresh task key with a readable prefix."""
    return f"{prefix}-{next(_COUNTER)}"


#: Keyword arguments that configure *where* a task's bytes come from, never
#: *what* it returns — currently only the parsed-chunk sidecar route
#: (``sidecar=`` on CSV partition parses).  Both the CSE tokenizer and the
#: cross-call cache key builder skip them, so toggling the disk cache (or
#: pointing it at another directory) can never fragment CSE sharing or
#: poison cache keys: a result computed without the sidecar legitimately
#: serves a sidecar-enabled run and vice versa.
NON_SEMANTIC_KWARGS = frozenset({"sidecar"})


def tokenize(func: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> str:
    """Structural fingerprint of a call, used for CSE.

    Literal arguments are fingerprinted by value for cheap scalar types and by
    object identity for containers and arrays (two tasks that operate on the
    *same* in-memory frame/array share a fingerprint, which is exactly the
    sharing opportunity inside one EDA call).  TaskRef arguments are
    fingerprinted by the referenced key.  :data:`NON_SEMANTIC_KWARGS` are
    excluded — they do not change the task's value.
    """
    hasher = hashlib.sha1()
    hasher.update(_callable_name(func).encode())
    for value in args:
        hasher.update(_token_of(value).encode())
    for name in sorted(kwargs):
        if name in NON_SEMANTIC_KWARGS:
            continue
        hasher.update(name.encode())
        hasher.update(_token_of(kwargs[name]).encode())
    return hasher.hexdigest()[:16]


def _callable_name(func: Callable[..., Any]) -> str:
    module = getattr(func, "__module__", "")
    qualname = getattr(func, "__qualname__", getattr(func, "__name__", repr(func)))
    if "<lambda>" in qualname or "<locals>" in qualname:
        # Lambdas/closures are not structurally comparable; identity keeps
        # them distinct so CSE never merges two different closures.
        return f"{module}.{qualname}@{id(func)}"
    return f"{module}.{qualname}"


def walk_token(value: Any, ref: Callable[["TaskRef"], Any],
               leaf: Callable[[Any], Any]) -> Any:
    """Shared container recursion behind structural tokens.

    Handles TaskRefs (via *ref*), scalar literals and the standard argument
    containers; anything else is delegated to *leaf*.  Both the CSE
    tokenizer and the cross-call cache key builder use this walker, so a
    newly supported container type can never make the two disagree.  A
    handler returning None marks the value untokenizable and the None
    propagates outward (used by the cache; the CSE handlers never do).
    """
    if isinstance(value, TaskRef):
        return ref(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return f"lit:{type(value).__name__}:{value!r}"
    if isinstance(value, (tuple, list)):
        inner = [walk_token(item, ref, leaf) for item in value]
        if any(token is None for token in inner):
            return None
        return f"{type(value).__name__}:({','.join(inner)})"
    if isinstance(value, frozenset):
        inner = [walk_token(item, ref, leaf) for item in value]
        if any(token is None for token in inner):
            return None
        return f"frozenset:({','.join(sorted(inner))})"
    if isinstance(value, dict):
        parts = []
        for name, item in sorted(value.items(), key=lambda kv: repr(kv[0])):
            token = walk_token(item, ref, leaf)
            if token is None:
                return None
            parts.append(f"{name!r}={token}")
        return f"dict:({','.join(parts)})"
    return leaf(value)


def _cse_ref(value: TaskRef) -> str:
    return f"ref:{value.key}"


def _cse_leaf(value: Any) -> str:
    if isinstance(value, np.ndarray):
        return f"ndarray:{id(value)}"
    return f"obj:{type(value).__name__}:{id(value)}"


def _token_of(value: Any) -> str:
    return walk_token(value, _cse_ref, _cse_leaf)


def _collect_refs(value: Any) -> List[str]:
    if isinstance(value, TaskRef):
        return [value.key]
    if isinstance(value, (list, tuple)):
        refs: List[str] = []
        for item in value:
            refs.extend(_collect_refs(item))
        return refs
    if isinstance(value, dict):
        refs = []
        for item in value.values():
            refs.extend(_collect_refs(item))
        return refs
    return []


def _resolve(value: Any, results: Dict[str, Any]) -> Any:
    if isinstance(value, TaskRef):
        return results[value.key]
    if isinstance(value, list):
        return [_resolve(item, results) for item in value]
    if isinstance(value, tuple):
        return tuple(_resolve(item, results) for item in value)
    if isinstance(value, dict):
        return {name: _resolve(item, results) for name, item in value.items()}
    return value


def _rewrite_refs(value: Any, mapping: Dict[str, str]) -> Any:
    if isinstance(value, TaskRef):
        return TaskRef(mapping.get(value.key, value.key))
    if isinstance(value, list):
        return [_rewrite_refs(item, mapping) for item in value]
    if isinstance(value, tuple):
        return tuple(_rewrite_refs(item, mapping) for item in value)
    if isinstance(value, dict):
        return {name: _rewrite_refs(item, mapping) for name, item in value.items()}
    return value
