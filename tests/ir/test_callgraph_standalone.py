"""The call graph stands alone: it needs no graph library, a campaign
builds it once, and its components agree with brute-force reachability."""

import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps import synthetic
from repro.core.stages import Campaign
from repro.ir import ProgramBuilder
from repro.ir.callgraph import CallGraph

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def test_api_imports_without_networkx():
    """``repro`` runs on NumPy alone: block ``networkx`` and import the
    public API and the campaign stages in a fresh interpreter."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro.api, repro.core.stages\n"
        "from repro.apps.synthetic import build_multiplicative_example\n"
        "prog = build_multiplicative_example()\n"
        "assert not prog.callgraph().has_recursion\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_campaign_builds_one_callgraph(monkeypatch):
    """Static pruning, the taint run's recursion check and the volume
    analysis share the program's call graph.  The built-in program is
    shared by the whole process, so the campaign runs on a private
    build that has no call graph yet."""
    built = []
    post_init = CallGraph.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(
        synthetic,
        "build_multiplicative_example",
        synthetic.build_multiplicative_example.__wrapped__,
    )
    monkeypatch.setattr(CallGraph, "__post_init__", counting)
    campaign = Campaign.from_spec(
        {
            "app": "synthetic",
            "parameters": {"p": [2, 4], "s": [3, 5]},
            "repetitions": 1,
            "seed": 7,
        }
    )
    campaign.run()
    assert campaign.stage_stats["volumes"] == "computed"
    assert len(built) == 1


def test_finalize_drops_the_memo():
    pb = ProgramBuilder()
    with pb.function("leaf", []) as f:
        f.work(1)
    with pb.function("main", []) as f:
        f.call("leaf")
    prog = pb.build(entry="main")
    graph = prog.callgraph()
    assert prog.callgraph() is graph
    assert graph.callees("main") == frozenset({"leaf"})
    prog.function("main").body.clear()
    prog.finalize()
    assert prog.callgraph().callees("main") == frozenset()


NODES = "abcdefg"


@given(
    st.dictionaries(
        st.sampled_from(NODES),
        st.frozensets(st.sampled_from(NODES), max_size=3),
        min_size=1,
    )
)
@settings(max_examples=200, deadline=None)
def test_components_match_reachability(edges):
    callees = {n: frozenset(c & edges.keys()) for n, c in edges.items()}
    graph = CallGraph(callees, {})

    def reach(src):
        seen, stack = set(), list(callees[src])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(callees[node])
        return seen

    reaches = {n: reach(n) for n in callees}
    assert graph.recursive_functions() == frozenset(
        n for n in callees if n in reaches[n]
    )
    for scc in graph.components:  # mutually reachable, and maximal
        n = scc[0]
        assert set(scc) == {n} | {m for m in reaches[n] if n in reaches[m]}
    for n in callees:
        assert graph.reachable_from(n) == frozenset(reaches[n] | {n})
        for m in callees[n]:
            assert n in graph.callers(m)
    if not graph.has_recursion:
        order = graph.topological_order()
        assert sorted(order) == sorted(callees)
        for n in callees:
            assert all(order.index(m) < order.index(n) for m in callees[n])
