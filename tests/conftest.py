import random

import pytest

from spanscope.align import PathCache, align
from spanscope.cscfg import build_cscfg, entry_node
from spanscope.harness import SystemMeta, SystemSpec, generate_traces
from spanscope.mapping import build_map
from spanscope.model import Span, Trace


def make_span(span_id, trace_id="t1", parent=None, operation="C.f", service="svc",
              start=0, duration=100, attributes=None):
    return Span(span_id=span_id, trace_id=trace_id, parent_id=parent,
                operation=operation, service=service, start_time=start,
                duration=duration, attributes=attributes or {})


def make_trace(spans, trace_id="t1"):
    return Trace(trace_id, spans)


def align_trace(graph, trace, mapping, cache=None):
    """align() with each span resolved by mapping, through cache or a fresh PathCache."""
    resolutions = {s.span_id: mapping.resolve(s) for s in trace.spans}
    return align(graph, trace, PathCache() if cache is None else cache, resolutions)


def single_function_doc(fn="svc:C.f", blocks=None, edges=None, entry=None, exits=None,
                        external=(), extra_functions=()):
    """One-function call-graph document with leaf callees declared inline."""
    blocks = blocks or []
    callees = sorted({c for b in blocks for c in b.get("callees", [])})
    functions = [{
        "function": fn,
        "blocks": blocks,
        "flow_edges": edges or [],
        "entry": entry,
        "exits": exits or [],
    }]
    for extra in extra_functions:
        functions.append(extra if isinstance(extra, dict) else {"function": extra})
    declared = {f["function"] for f in functions}
    for c in callees:
        if c not in declared and c not in external:
            functions.append({"function": c})
            declared.add(c)
    return {"schema_version": 1, "functions": functions,
            "external_functions": list(external)}


def comfort_economy_system() -> tuple[dict, SystemMeta]:
    """Trunk plus a two-arm fork: three comfort calls versus two economy calls."""
    svc = "ts-preserve"
    entry = f"{svc}:OrderService.createOrder"
    comfort = [
        f"{svc}:SeatService.getComfortClass",
        f"{svc}:DispatchService.dispatchComfort",
        f"{svc}:PriceService.getPrice",
    ]
    economy = [
        f"{svc}:SeatService.getEconomyClass",
        f"{svc}:PriceService.getPrice",
    ]
    leaves = sorted(set(comfort + economy))
    doc = {
        "schema_version": 1,
        "functions": [
            {
                "function": entry,
                "blocks": [
                    {"id": "start", "callees": []},
                    {"id": "c1", "callees": [comfort[0]]},
                    {"id": "c2", "callees": [comfort[1]]},
                    {"id": "c3", "callees": [comfort[2]]},
                    {"id": "e1", "callees": [economy[0]]},
                    {"id": "e2", "callees": [economy[1]]},
                    {"id": "end", "callees": []},
                ],
                "flow_edges": [
                    ["start", "c1"], ["c1", "c2"], ["c2", "c3"], ["c3", "end"],
                    ["start", "e1"], ["e1", "e2"], ["e2", "end"],
                ],
                "entry": "start",
                "exits": ["end"],
            },
        ] + [{"function": f} for f in leaves],
        "external_functions": [],
    }
    meta = SystemMeta(entry=entry)
    ent = entry_node(entry)
    meta.fork_probs[(entry, ent)] = [(f"{entry}#c1", 0.5), (f"{entry}#e1", 0.5)]
    for key in [entry] + leaves:
        meta.durations[key] = (6.0, 0.3)
    return doc, meta


@pytest.fixture
def comfort_setup():
    doc, meta = comfort_economy_system()
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    return graph, mapping, meta, doc


@pytest.fixture
def comfort_samples(comfort_setup):
    graph, mapping, meta, _doc = comfort_setup
    spec = SystemSpec(seed=5, url_span_probability=0.0)
    samples = list(generate_traces(graph, meta, spec, 60))
    graph.freeze()
    return graph, mapping, meta, samples


def random_cscfg_doc(rng: random.Random, max_blocks=10, allow_cycles=True):
    """Random single-function document; every block calls one external leaf.

    Guaranteed fully reachable from the entry and co-reachable to an exit.
    """
    n = rng.randint(1, max_blocks)
    ids = [f"b{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        edges.add((f"b{rng.randint(0, i - 1)}", f"b{i}"))  # reachability spine
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if a == b:
            continue
        if not allow_cycles and a > b:
            a, b = b, a
        edges.add((f"b{a}", f"b{b}"))
    sinks = [i for i in ids if not any(e[0] == i for e in edges)]
    exits = sinks or [ids[-1]]
    # every node must reach an exit
    succ = {i: [e[1] for e in edges if e[0] == i] for i in ids}
    exit_set = set(exits)
    changed = True
    reach_exit = set(exits)
    while changed:
        changed = False
        for i in ids:
            if i not in reach_exit and any(s in reach_exit for s in succ[i]):
                reach_exit.add(i)
                changed = True
    for i in ids:
        if i not in reach_exit:
            edges.add((i, exits[0]))
            reach_exit.add(i)
    blocks = [{"id": i, "callees": [f"x:Leaf.c{i}"]} for i in ids]
    return single_function_doc(
        fn="svc:R.f", blocks=blocks, edges=[list(e) for e in sorted(edges)],
        entry="b0", exits=sorted(exit_set),
        external=sorted({f"x:Leaf.c{i}" for i in ids}),
    )


def add_repeatable_call(doc, fn, after, callee) -> str:
    """Write into doc an optional, repeatable block of fn that calls callee.

    The block may follow block `after` (None: fn's start) any number of
    times, then goes on as `after` does; `after` keeps its own edges. Its
    id is the first `patch<n>` that fn's blocks leave free, which it
    returns. Where after is None, a call-free block `<id>-from` becomes
    fn's entry, and goes on to the old entry or, in a function without
    blocks, returns.
    """
    function = next(f for f in doc["functions"] if f["function"] == fn)
    blocks = function.setdefault("blocks", [])
    edges = function.setdefault("flow_edges", [])
    exits = function.setdefault("exits", [])
    taken = {b["id"] for b in blocks}
    n = 0
    while f"patch{n}" in taken:
        n += 1
    block = f"patch{n}"
    if after is None:
        after = f"{block}-from"
        blocks.append({"id": after, "callees": []})
        if function.get("entry") is None:
            exits.append(after)
        else:
            edges.append([after, function["entry"]])
        function["entry"] = after
    succs = [dst for src, dst in edges if src == after]
    blocks.append({"id": block, "callees": [callee]})
    edges += [[after, block], [block, block]] + [[block, dst] for dst in succs]
    if after in exits:
        exits.append(block)
    return block
