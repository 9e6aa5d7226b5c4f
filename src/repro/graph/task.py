"""Task representation: a task's key is the hash of what it computes.

A task is a term ``func(*args, **kwargs)``; equal terms denote equal values,
so the term's name is derived from the term.  :func:`tokenize` walks a call
once and hashes the callable and every argument — literals by value,
references to other tasks by *their* key (already such a hash, so the scheme
is Merkle without a second pass), frames / columns / sources / arrays by
content fingerprint.  Two consequences carry the whole graph layer:

* merging graphs merges equal work — :meth:`TaskGraph.update
  <repro.graph.graph.TaskGraph.update>` keeping the first task under a key
  *is* common-subexpression elimination;
* the key is stable across calls, processes and sessions, so it addresses
  the cross-call cache (:mod:`repro.graph.cache`) directly.

What cannot be named by content — a lambda or closure, a bound method of an
object without a ``fingerprint()``, an argument of an unrecognised type — is
named by ``id()``: still shared inside one graph (where the object is alive
and the same), never cached across calls (``Task.cacheable`` is False, and
so is every task depending on it).  An impure call gets a counter on top of
its hash, so two occurrences never merge.

The same walk is the only place a task's other properties are derived:
whether it may run in a worker process (``Task.shippable``) comes out of the
type switch that names the arguments, and what only the caller knows — which
run counters executing the task adds, where it would like to run — is
declared when the task is built (``Task.counts`` / ``Task.affinity``).
Nothing downstream reads a key's text or an argument's position to decide
what a task is.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.frame.fingerprint import fingerprint_array

#: Upper bound on the estimated argument payload of a task shipped to a
#: worker process.  Anything larger runs on the coordinator instead — the
#: hybrid dispatch that keeps tiny graphs from drowning in IPC.
MAX_SHIP_PAYLOAD_BYTES = 1 << 20


@dataclass(frozen=True)
class TaskRef:
    """A reference to the output of another task in the same graph."""

    key: str

    def __repr__(self) -> str:
        return f"TaskRef({self.key!r})"


@dataclass(eq=False)
class Task:
    """A single node in a :class:`~repro.graph.graph.TaskGraph`.

    Attributes
    ----------
    key:
        Identifier of the task.  Tasks recorded by
        :func:`~repro.graph.delayed.delayed` are keyed
        ``"<prefix>-<hash of the call>"``; a task built by hand carries
        whatever key its author chose.
    func:
        The python callable to run.
    args / kwargs:
        Call arguments.  Any :class:`TaskRef` instances are replaced by the
        referenced task's result before *func* is called.
    deps:
        Keys of the tasks referenced by the arguments, each once, in
        first-seen order.
    cacheable:
        True when the key is a pure content hash — the only tasks the
        cross-call cache may store or serve.
    shippable:
        True when the task may run in a worker process: the function is
        importable (pickles by reference), every argument is a plain value
        (numbers, strings, enums, arrays, the standard containers,
        ``TaskRef`` placeholders) and the estimated payload stays under
        :data:`MAX_SHIP_PAYLOAD_BYTES`.  The contract of the process and
        remote schedulers' hybrid dispatch.
    counts:
        Declared by whoever built the task: the
        :class:`~repro.graph.scheduler.RunStats` counters one execution of
        it adds (``{"full_parses": 1, "chunks_new": 1, ...}``).
    affinity:
        Declared placement hint: tasks with equal affinity prefer the same
        remote worker (a CSV parse declares the file it reads).

    Only ``key`` / ``func`` / ``args`` / ``kwargs`` / ``deps`` pickle: the
    declared facts are read by the coordinator and never cross a process
    boundary.
    """

    key: str
    func: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    deps: Optional[Tuple[str, ...]] = None
    cacheable: bool = False
    shippable: bool = False
    counts: Mapping[str, int] = field(default_factory=dict)
    affinity: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deps is None:
            # A hand-keyed task: its references are still its edges, and
            # its arguments still decide where it may run.
            _, self.deps, _, self.shippable, _, _ = tokenize(
                self.func, self.args, self.kwargs)

    def __reduce__(self) -> Tuple[Any, ...]:
        # What a worker needs to run the task; deps spare it a tokenization.
        return Task, (self.key, self.func, self.args, self.kwargs, self.deps)

    def execute(self, results: Dict[str, Any]) -> Any:
        """Run the task, resolving TaskRef arguments from *results*."""
        args = tuple(_resolve(value, results) for value in self.args)
        kwargs = {name: _resolve(value, results) for name, value in self.kwargs.items()}
        return self.func(*args, **kwargs)

    def __repr__(self) -> str:
        name = getattr(self.func, "__name__", repr(self.func))
        return f"Task(key={self.key!r}, func={name}, deps={list(self.deps)})"


#: Keyword arguments that configure *where* a task's bytes come from, never
#: *what* it returns — currently only the parsed-chunk sidecar route
#: (``sidecar=`` on CSV partition parses).  The tokenizer skips them, so
#: toggling the disk cache (or pointing it at another directory) can never
#: split a key: a result computed without the sidecar legitimately serves a
#: sidecar-enabled run and vice versa.
NON_SEMANTIC_KWARGS = frozenset({"sidecar"})

_IMPORTABLE: Dict[Callable[..., Any], Optional[str]] = {}

#: Argument types named by their ``repr`` and pickled by value.
_LITERALS = (bool, int, float, complex, str, bytes, np.generic)


def importable_name(func: Callable[..., Any]) -> Optional[str]:
    """``module.qualname`` when that path leads back to *func*, else None.

    The one predicate for "this callable is the same thing in every
    process": it names the callable in task keys and decides whether a task
    pickles by reference (``Task.shippable``).
    """
    module_name = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", "")
    if not module_name or not qualname or "<" in qualname \
            or isinstance(func, types.MethodType):
        # Lambdas, closures and bound methods are per-call objects; besides
        # not being importable, memoising them would pin them (and anything
        # they capture) for the life of the process.  Module-level functions
        # are process-permanent, so a strong reference costs nothing.
        return None
    if func not in _IMPORTABLE:
        target: Any = sys.modules.get(module_name)
        for part in qualname.split("."):
            target = getattr(target, part, None)
        _IMPORTABLE[func] = f"{module_name}.{qualname}" if target is func else None
    return _IMPORTABLE[func]


def tokenize(func: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Dict[str, Any],
             lazy: Optional[Callable[[Any], Optional[Task]]] = None
             ) -> Tuple[str, Tuple[str, ...], bool, bool,
                        Tuple[Any, ...], Dict[str, Any]]:
    """Walk a call once: ``(token, deps, stable, shippable, args, kwargs)``.

    *token* is a 128-bit content hash of the callable and the arguments
    (:data:`NON_SEMANTIC_KWARGS` excluded).  *deps* are the keys of the
    tasks the arguments reference.  *stable* is False when any part had to
    be named by ``id()``, or a dependency was itself not cacheable.
    *shippable* is True when the callable is importable, every argument
    pickles by value and their estimated size fits
    :data:`MAX_SHIP_PAYLOAD_BYTES` (see :class:`Task`).  The returned
    *args* / *kwargs* are the call's with every lazy value — whatever the
    *lazy* hook returns a task for — replaced by a :class:`TaskRef` to that
    task.

    This walker is the one home of the container rules: lists, tuples and
    dicts are walked in order, sets order-independently; a reference where
    it could not be substituted at execution time (inside a set, as a dict
    key, or among the bound arguments of a partial or method) is a
    :class:`~repro.errors.GraphError`, not a silently unevaluated argument.
    """
    parts: List[str] = []
    deps: Dict[str, None] = {}
    stable = True
    by_value = True     # importable callable, plain-value arguments only
    payload = 0         # estimated pickled bytes of the arguments
    opaque = 0          # > 0 where a reference could not be substituted

    def depend(key: str) -> TaskRef:
        nonlocal payload
        if opaque:
            raise GraphError(
                f"{getattr(func, '__name__', func)}(...): a lazy value "
                f"inside a set, a dict key or a callable's bound arguments "
                f"cannot become a dependency; pass it in a list, tuple or "
                f"dict value")
        deps[key] = None
        parts.append(f"ref:{key}")
        payload += 64
        return TaskRef(key)

    def visit(value: Any) -> Any:
        nonlocal stable, by_value, payload, opaque
        if value is None or isinstance(value, _LITERALS):
            parts.append(f"{type(value).__name__}:{value!r}")
            payload += 49 + len(value) if isinstance(value, (str, bytes)) else 16
            return value
        if isinstance(value, TaskRef):
            return depend(value.key)
        if isinstance(value, (list, tuple)):
            parts.append(f"{type(value).__name__}(")
            payload += 64
            items = [visit(item) for item in value]
            parts.append(")")
            return tuple(items) if isinstance(value, tuple) else items
        if isinstance(value, dict):
            parts.append("dict(")
            payload += 64
            items = {}
            for name, item in sorted(value.items(), key=lambda kv: repr(kv[0])):
                opaque += 1
                visit(name)
                opaque -= 1
                items[name] = visit(item)
            parts.append(")")
            return items
        if isinstance(value, (set, frozenset)):
            opaque += 1
            payload += 64
            tokens = []
            for item in value:
                mark = len(parts)
                visit(item)
                tokens.append("\x01".join(parts[mark:]))
                del parts[mark:]
            opaque -= 1
            parts.append(f"{type(value).__name__}({','.join(sorted(tokens))})")
            return value
        task = lazy(value) if lazy is not None else None
        if task is not None:
            stable = stable and task.cacheable
            return depend(task.key)
        if isinstance(value, enum.Enum):
            kind = type(value)
            parts.append(f"enum:{kind.__module__}.{kind.__qualname__}.{value.name}")
            payload += 48
        elif isinstance(value, np.ndarray):
            parts.append(f"nd:{fingerprint_array(value)}")
            payload += int(value.nbytes) + 128
        elif callable(getattr(value, "fingerprint", None)):
            # Frames, columns, sources: named by content, but live objects.
            parts.append(f"fp:{type(value).__name__}:{value.fingerprint()}")
            by_value = False
        else:
            parts.append(f"id:{type(value).__name__}:{id(value)}")
            stable = by_value = False
        return value

    def visit_callable(target: Callable[..., Any]) -> None:
        nonlocal stable, by_value, opaque
        if isinstance(target, functools.partial):
            inner, bound = target.func, (target.args, target.keywords)
        elif isinstance(target, types.MethodType):
            inner, bound = target.__func__, target.__self__
        else:
            name = importable_name(target)
            stable = stable and name is not None
            by_value = by_value and name is not None
            parts.append(name or f"id:{id(target)}")
            return
        visit_callable(inner)
        opaque += 1
        visit(bound)
        opaque -= 1
        by_value = False        # bound state does not pickle by reference

    visit_callable(func)
    new_args = tuple(visit(value) for value in args)
    new_kwargs = dict(kwargs)
    for name in sorted(kwargs):
        if name in NON_SEMANTIC_KWARGS:
            # Sized and type-checked for shipping like any argument, but
            # passed through as is and kept out of the token.
            mark, was_stable = len(parts), stable
            opaque += 1
            visit(kwargs[name])
            opaque -= 1
            del parts[mark:]
            stable = was_stable
        else:
            parts.append(f"{name}=")
            new_kwargs[name] = visit(kwargs[name])
    token = hashlib.blake2b("\x00".join(parts).encode(), digest_size=16).hexdigest()
    return (token, tuple(deps), stable,
            by_value and payload <= MAX_SHIP_PAYLOAD_BYTES, new_args, new_kwargs)


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
