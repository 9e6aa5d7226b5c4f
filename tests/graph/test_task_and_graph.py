"""Tests for Task, content-derived keys and the TaskGraph container."""

import functools
import operator

import numpy as np
import pytest

from repro.errors import CycleError, GraphError
from repro.frame import DataFrame
from repro.graph import (
    SynchronousScheduler,
    Task,
    TaskCache,
    TaskGraph,
    TaskRef,
    compute,
    delayed,
)
from repro.graph.task import importable_name, tokenize


def make_task(key, func, *args, **kwargs):
    return Task(key, func, args, kwargs)


def task_of(value):
    return value.graph[value.key]


class Adder:
    def __init__(self, k):
        self.k = k

    def add(self, x):
        return self.k + x


def scale(value, factor=1):
    return value * factor


class TestTask:
    def test_dependencies_from_refs(self):
        task = make_task("c", operator.add, TaskRef("a"), TaskRef("b"))
        assert task.deps == ("a", "b")

    def test_nested_refs_are_found_once(self):
        task = make_task("c", sum, [TaskRef("a"), TaskRef("b"), TaskRef("a")])
        assert task.deps == ("a", "b")
        task = make_task("c", dict, values={"k": TaskRef("a")})
        assert task.deps == ("a",)

    def test_execute_resolves_refs(self):
        task = make_task("c", operator.add, TaskRef("a"), 10)
        assert task.execute({"a": 5}) == 15

    def test_hand_keyed_tasks_are_never_cacheable(self):
        assert not make_task("k", operator.add, 1, 2).cacheable


class TestKeys:
    def test_identical_calls_share_a_key(self):
        first, second = delayed(operator.add)(1, 2), delayed(operator.add)(1, 2)
        assert first.key == second.key
        assert first.key.startswith("add-")
        assert len(first.key.rpartition("-")[2]) * 4 >= 128     # hex digits
        assert task_of(first).cacheable

    def test_different_args_different_keys(self):
        assert delayed(operator.add)(1, 2).key != delayed(operator.add)(1, 3).key
        assert delayed(operator.add)(1, 2).key != delayed(operator.add)(1, 2.0).key
        assert delayed(operator.add)(1, True).key != delayed(operator.add)(1, 1).key
        assert delayed(scale)(3, factor=2).key != delayed(scale)(3, 2).key

    def test_keyword_order_does_not_matter(self):
        assert delayed(dict)(a=1, b=2).key == delayed(dict)(b=2, a=1).key

    def test_lambdas_never_share_a_key_and_are_not_cacheable(self):
        first, second = delayed(lambda x: x)(1), delayed(lambda x: x)(1)
        assert first.key != second.key
        assert not task_of(first).cacheable

    def test_containers_tokenize_by_structure(self):
        ref = delayed(int)(1)
        assert delayed(sum)([1, 2, ref]).key == delayed(sum)([1, 2, ref]).key
        assert delayed(sum)([1, 2, ref]).key != \
            delayed(sum)([1, 2, delayed(int)(2)]).key
        assert delayed(sum)([1, 2]).key != delayed(sum)((1, 2)).key
        assert delayed(len)({"a": 1, "b": 2}).key == \
            delayed(len)({"b": 2, "a": 1}).key

    def test_keys_are_merkle_over_dependencies(self):
        def chain(seed):
            return delayed(operator.mul)(delayed(operator.add)(seed, 1), 2)
        assert chain(1).key == chain(1).key
        assert chain(1).key != chain(2).key
        assert task_of(chain(1)).deps == (delayed(operator.add)(1, 1).key,)

    def test_frames_and_arrays_are_named_by_content(self):
        def total(frame):
            return delayed(len)(frame)
        assert total(DataFrame({"x": [1.0, 2.0]})).key == \
            total(DataFrame({"x": [1.0, 2.0]})).key
        assert total(DataFrame({"x": [1.0, 2.0]})).key != \
            total(DataFrame({"x": [1.0, 3.0]})).key
        assert delayed(np.sum)(np.arange(4)).key == delayed(np.sum)(np.arange(4)).key
        assert delayed(np.sum)(np.arange(4)).key != delayed(np.sum)(np.arange(5)).key
        assert task_of(delayed(np.sum)(np.arange(4))).cacheable

    def test_unrecognised_arguments_fall_back_to_identity(self):
        marker = object()
        first, second = delayed(id)(marker), delayed(id)(marker)
        assert first.key == second.key            # same object, same graph
        assert first.key != delayed(id)(object()).key
        assert not task_of(first).cacheable
        # ...and what depends on it cannot be cached either.
        assert not task_of(first.then(operator.add, 1)).cacheable

    def test_impure_calls_carry_a_counter(self):
        first = delayed(operator.add, pure=False)(1, 2)
        second = delayed(operator.add, pure=False)(1, 2)
        assert first.key != second.key
        assert first.key.rpartition("-")[0] == "add"
        assert not task_of(first).cacheable
        assert not task_of(first.then(operator.add, 1)).cacheable

    def test_non_semantic_kwargs_do_not_split_keys(self):
        assert delayed(scale)(2, sidecar=("/tmp/a", 1)).key == delayed(scale)(2).key
        assert task_of(delayed(scale)(2, sidecar=("/tmp/a", 1))).kwargs == \
            {"sidecar": ("/tmp/a", 1)}

    def test_non_semantic_kwargs_are_sized_never_hashed(self, monkeypatch):
        from repro.frame.dtypes import DType
        from repro.frame.io import _read_csv_slice
        from repro.graph import task as task_module

        class Hashless:
            def fingerprint(self):
                raise AssertionError("a non-semantic value was hashed")

        def no_fingerprint(array):
            raise AssertionError("a non-semantic array was hashed")

        monkeypatch.setattr(task_module, "fingerprint_array", no_fingerprint)
        call = delayed(_read_csv_slice, prefix="read_csv_partition")
        args = ("data.csv", 0, 10, ("a", "b"), {}, (7, 10), ",", 2)
        rows = (("b", DType.STRING, np.zeros(2, dtype=bool),
                 np.array([1, 0], dtype=np.int32),
                 np.array(["x", "y"], dtype=object)),)
        # The key this call had before ``decoded=`` existed.
        key = "read_csv_partition-05fe536bd63329a9d85f495ff679d01c"
        plain = call(*args, sidecar=("disk", 1), decoded=rows)
        opaque = call(*args, sidecar=Hashless(), decoded=rows)
        assert call(*args).key == plain.key == opaque.key == key
        assert task_of(plain).shippable and not task_of(opaque).shippable
        assert task_of(plain).kwargs["decoded"] is rows
        big = (("a", DType.FLOAT, np.zeros(1 << 17, dtype=bool),
                np.zeros(1 << 17), None),)
        assert not task_of(call(*args, decoded=big)).shippable

    def test_tokenize_is_one_walk(self):
        ref = delayed(int)(1)

        def lazy(value):
            return ref.graph[ref.key] if value is ref else None

        token, deps, stable, shippable, args, kwargs = tokenize(
            operator.add, (ref, 2), {"extra": [ref]}, lazy)
        assert deps == (ref.key,) and stable and shippable
        assert args == (TaskRef(ref.key), 2)
        assert kwargs == {"extra": [TaskRef(ref.key)]}
        assert len(token) == 32


class TestCallableIdentity:
    def test_importable_name_is_the_one_predicate(self):
        assert importable_name(operator.add) == "_operator.add"
        assert importable_name(scale) == f"{__name__}.scale"
        assert importable_name(Adder.add) == f"{__name__}.Adder.add"
        assert importable_name(lambda: 1) is None
        assert importable_name(Adder(1).add) is None
        assert importable_name(functools.partial(scale, factor=2)) is None

    def test_bound_methods_fold_in_their_instance(self):
        # Fails at the parent commit: both tasks hashed to Adder.add(1).
        a, b = Adder(1), Adder(100)
        first, second = delayed(a.add)(1), delayed(b.add)(1)
        assert first.key != second.key
        assert delayed(a.add)(1).key == first.key   # same instance still shares
        assert compute(first, second) == [2, 101]

    def test_bound_methods_are_not_served_from_another_instance(self):
        cache = TaskCache()
        results = [compute(delayed(Adder(k).add)(1),
                           scheduler=SynchronousScheduler(cache=cache))[0]
                   for k in (1, 100)]
        assert results == [2, 101]
        assert len(cache) == 0      # a plain object's method is identity-keyed

    def test_bound_methods_of_fingerprinted_objects_are_content_keyed(self):
        def via(frame):
            return delayed(frame.column)("x")
        assert via(DataFrame({"x": [1, 2]})).key == via(DataFrame({"x": [1, 2]})).key
        assert via(DataFrame({"x": [1, 2]})).key != via(DataFrame({"x": [1, 3]})).key
        assert task_of(via(DataFrame({"x": [1, 2]}))).cacheable

    def test_partials_fold_in_their_bound_arguments(self):
        double = delayed(functools.partial(scale, factor=2))(21)
        triple = delayed(functools.partial(scale, factor=3))(21)
        assert double.key != triple.key
        assert double.key == delayed(functools.partial(scale, factor=2))(21).key
        assert task_of(double).cacheable
        assert compute(double, triple) == [42, 63]

    def test_partial_over_a_lambda_is_identity_keyed(self):
        def build():
            return delayed(functools.partial(lambda v, factor: v * factor, factor=2))(21)
        first, second = build(), build()
        assert first.key != second.key
        assert not task_of(first).cacheable
        cache = TaskCache()
        assert compute(first, scheduler=SynchronousScheduler(cache=cache)) == [42]
        assert len(cache) == 0


class TestSets:
    def test_sets_of_literals_tokenize_order_independently(self):
        assert delayed(len)(frozenset({"a", "b", "c"})).key == \
            delayed(len)(frozenset({"c", "b", "a"})).key
        assert delayed(len)(frozenset({"a", "b"})).key != \
            delayed(len)(frozenset({"a", "c"})).key
        assert delayed(len)(frozenset({(1, 2), (3, 4)})).key != \
            delayed(len)(frozenset({(1, 4), (3, 2)})).key
        value = delayed(sorted)({3, 1, 2})
        assert task_of(value).cacheable and value.compute() == [1, 2, 3]

    def test_a_lazy_value_inside_a_set_is_refused_at_construction(self):
        # At the parent commit this built, then failed inside the task with
        # "unsupported operand ... 'int' and 'Delayed'".
        with pytest.raises(GraphError, match=r"sum\(\.\.\.\)"):
            delayed(sum)(frozenset({delayed(int)(3)}))
        with pytest.raises(GraphError, match="inside a set"):
            delayed(len)([{(1, delayed(int)(3))}])
        with pytest.raises(GraphError):
            make_task("k", sum, frozenset({TaskRef("a")}))

    def test_a_lazy_value_bound_into_a_partial_is_refused(self):
        with pytest.raises(GraphError, match="bound arguments"):
            delayed(functools.partial(scale, factor=delayed(int)(2)))(21)


class TestTaskGraph:
    def build_chain(self):
        graph = TaskGraph()
        graph.add(make_task("a", int, 1))
        graph.add(make_task("b", operator.add, TaskRef("a"), 1))
        graph.add(make_task("c", operator.mul, TaskRef("b"), 2))
        return graph

    def test_toposort_orders_dependencies_first(self):
        order = self.build_chain().toposort()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_cycle_detection(self):
        graph = TaskGraph()
        graph.add(make_task("a", operator.add, TaskRef("b"), 1))
        graph.add(make_task("b", operator.add, TaskRef("a"), 1))
        with pytest.raises(CycleError):
            graph.toposort()

    def test_validate_unknown_dependency(self):
        graph = TaskGraph([make_task("a", operator.add, TaskRef("ghost"), 1)])
        with pytest.raises(GraphError):
            graph.validate()

    def test_ancestors(self):
        graph = self.build_chain()
        assert graph.ancestors(["c"]) == {"a", "b", "c"}
        assert graph.ancestors(["b"]) == {"a", "b"}

    def test_dependents(self):
        dependents = self.build_chain().dependents()
        assert dependents["a"] == {"b"}
        assert dependents["c"] == set()

    def test_first_task_under_a_key_stays(self):
        first, again = make_task("a", int, 1), make_task("a", int, 1)
        graph = TaskGraph([first, again, first])
        assert graph["a"] is first
        assert (len(graph), graph.shared) == (1, 1)   # re-adding `first` shares nothing

    def test_update_merges_graphs(self):
        first = TaskGraph([make_task("a", int, 1)])
        second = TaskGraph([make_task("b", int, 2)])
        first.update(second)
        assert set(first.keys()) == {"a", "b"}
        assert first.shared == 0

    def test_a_dropped_task_is_counted_once_across_unions(self):
        one, two = make_task("a", int, 1), make_task("a", int, 1)
        left, right = TaskGraph([one, two]), TaskGraph([two, one])
        assert (left.shared, right.shared) == (1, 1)
        left.update(right)                  # {one, two} again: still one saved
        assert (len(left), left.shared) == (1, 1)

    def test_getitem_unknown_key(self):
        with pytest.raises(GraphError):
            TaskGraph()["missing"]
