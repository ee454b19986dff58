import pytest

import spanscope.reconstruct as recon
from spanscope.cscfg import build_cscfg
from spanscope.harness import (
    SystemSpec,
    generate_system,
    generate_traces,
    make_default_faults,
    variable_depth_system,
)
from spanscope.mapping import Unmapped, build_map
from spanscope.model import Span, Trace
from spanscope.pipeline import SamplingPipeline
from spanscope.reconstruct import ORIGIN_INFERRED, structural_fidelity
from spanscope.sampler import SamplingConfig

from .oracles import oracle_layout


def fresh_copy(node):
    """The same tree shape and spans with nothing laid out yet."""
    twin = recon._Node(node.fn, node.block, node.span)
    twin.children = [fresh_copy(c) for c in node.children]
    return twin


def layout_of(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append((node.fn, node.lo, node.hi, node.source, node.std))
        stack.extend(reversed(node.children))
    return out


@pytest.fixture
def measured_trees(monkeypatch):
    """Records a pristine copy and the live tree of every layout run."""
    seen = []
    measure = recon._measure

    def spy(root, stats):
        seen.append((fresh_copy(root), root))
        measure(root, stats)

    monkeypatch.setattr(recon, "_measure", spy)
    return seen


# 1,100 traces; URL wrapper spans in the generated systems stay unmapped
@pytest.mark.parametrize("seed,n,ratio", [(7, 300, 0.3), (11, 300, 0.3), (23, 300, 0.3),
                                          (None, 200, 0.1)])
def test_layout_matches_the_recursive_reference(measured_trees, seed, n, ratio):
    if seed is None:
        spec = SystemSpec(seed=5, url_span_probability=0.0)
        doc, meta = variable_depth_system()
    else:
        spec = SystemSpec(seed=seed, n_services=6, n_functions_per_service=8,
                          branch_probability=0.3, url_span_probability=0.1)
        doc, meta = generate_system(spec)
    graph = build_cscfg(doc)
    traces = [s.trace for s in
              generate_traces(graph, meta, spec, n, make_default_faults(meta, n))]
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))
    results = [pipeline.process(t) for t in traces]
    stats = pipeline.stats_snapshot()
    with_orphans = inferred = 0
    for result in results:
        rebuilt = pipeline.reconstruct_result(result, stats)
        pristine, live = measured_trees.pop()
        kept = [result.trace.span(sid) for sid in result.decision.kept]
        orphans = [s for s in kept if isinstance(mapping.resolve(s), Unmapped)]
        oracle_layout(pristine, orphans, stats)
        assert layout_of(live) == layout_of(pristine), result.trace.trace_id
        with_orphans += bool(orphans)
        inferred += len(rebuilt.inferred())
    assert not measured_trees
    assert inferred > 0
    if spec.url_span_probability > 0:
        assert with_orphans > 0


def chain_system(depth):
    """A linear call chain of `depth` functions and one trace through it."""
    keys = [f"svcdeep:Chain.step{i}" for i in range(depth)]
    functions = [{"function": key, "blocks": [{"id": "b0", "callees": [keys[i + 1]]}],
                  "flow_edges": [], "entry": "b0", "exits": ["b0"]}
                 for i, key in enumerate(keys[:-1])]
    functions.append({"function": keys[-1]})
    doc = {"schema_version": 1, "functions": functions, "external_functions": []}
    spans = [Span(span_id=f"s{i}", trace_id="deep", parent_id=f"s{i - 1}" if i else None,
                  operation=f"Chain.step{i}", service="svcdeep", start_time=i,
                  duration=2 * (depth - i), attributes={})
             for i in range(depth)]
    return doc, Trace("deep", spans)


@pytest.mark.parametrize("depth,ratio", [(700, 0.1), (600, 1.0)])
def test_deep_chain_rebuilds_exactly(depth, ratio):
    doc, trace = chain_system(depth)
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))
    result = pipeline.process(trace)
    rebuilt = pipeline.reconstruct_result(result)
    assert len(rebuilt.spans) == depth
    assert structural_fidelity(trace, rebuilt, mapping).structure_exact
    if ratio < 1.0:
        assert any(r.origin == ORIGIN_INFERRED for r in rebuilt.spans)
