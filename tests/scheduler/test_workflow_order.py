"""The workflow's own DAG orders against networkx.

``components()`` must be ``lexicographical_topological_sort``,
``levels()`` must be ``topological_generations`` with each generation
sorted, and ``add_dependence`` must refuse exactly the edges that make
``is_directed_acyclic_graph`` false, leaving the DAG as it was.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import Workflow, WorkflowComponent, WorkflowError

nx = pytest.importorskip("networkx")

# Insertion order differs from name order, so only a name-keyed order
# can match networkx.
NAMES = ["refine", "b10", "a", "b2", "classesbymra", "z", "proc3d", "c"]
MODEL = AnalyticComponentModel(mflop_fn=lambda n: n)


def snapshot(wf):
    return ([c.name for c in wf.components()],
            {n: [c.name for c in wf.predecessors(n)] for n in NAMES if n in wf},
            {n: [c.name for c in wf.successors(n)] for n in NAMES if n in wf})


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, len(NAMES)),
       edges=st.lists(st.tuples(st.integers(0, len(NAMES) - 1),
                                st.integers(0, len(NAMES) - 1)), max_size=30))
def test_orders_and_cycle_checks_match_networkx(n, edges):
    names = NAMES[:n]
    wf, graph = Workflow(), nx.DiGraph()
    for name in names:
        wf.add_component(WorkflowComponent(name, MODEL, 1.0))
        graph.add_node(name)
    for i, j in edges:
        producer, consumer = names[i % n], names[j % n]
        graph.add_edge(producer, consumer)
        cyclic = not nx.is_directed_acyclic_graph(graph)
        if cyclic:
            graph.remove_edge(producer, consumer)
            before = snapshot(wf)
            with pytest.raises(WorkflowError, match="cycle"):
                wf.add_dependence(producer, consumer)
            assert snapshot(wf) == before
        else:
            wf.add_dependence(producer, consumer)
    assert [c.name for c in wf.components()] == list(
        nx.lexicographical_topological_sort(graph))
    assert [[c.name for c in level] for level in wf.levels()] == [
        sorted(gen) for gen in nx.topological_generations(graph)]
    for name in names:
        assert [c.name for c in wf.predecessors(name)] == sorted(
            graph.predecessors(name))
        assert [c.name for c in wf.successors(name)] == sorted(
            graph.successors(name))


def test_self_loop_rejected_and_dag_untouched():
    wf = Workflow()
    for name in ("b", "a"):
        wf.add_component(WorkflowComponent(name, MODEL, 1.0))
    wf.add_dependence("b", "a")
    before = snapshot(wf)
    with pytest.raises(WorkflowError, match="cycle"):
        wf.add_dependence("a", "a")
    assert snapshot(wf) == before
    assert before[0] == ["b", "a"]


def test_duplicate_dependence_is_one_edge():
    wf = Workflow()
    for name in ("a", "b"):
        wf.add_component(WorkflowComponent(name, MODEL, 1.0))
    wf.add_dependence("a", "b")
    wf.add_dependence("a", "b")
    assert [c.name for c in wf.predecessors("b")] == ["a"]
    assert [[c.name for c in level] for level in wf.levels()] == [["a"], ["b"]]
