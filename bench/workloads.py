"""Workload definitions shared by the generator and the measured runner.

Each workload is a fixed synthetic system plus traffic drawn from the run's
seed. The system is part of the workload's definition (its own seed is fixed
here), so a run's seed varies which traces arrive, not which program they
come from; that keeps runs with different seeds comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from spanscope import harness


@dataclass(frozen=True)
class Workload:
    name: str
    ratio: float  # requested sampling ratio
    traces: int  # traces per pass; at least 1,000, so p99 has 10 traces beyond it
    pass_seconds: float  # nominal time of one pass on a 2-core x86 VM; sets the pass count
    system_spec: harness.SystemSpec  # traffic shape; its seed is replaced by the run's
    depth_system: bool = False  # use harness.variable_depth_system() as the system

    def build_system(self):
        if self.depth_system:
            return harness.variable_depth_system()
        return harness.generate_system(self.system_spec)

    def traffic_spec(self, seed: int) -> harness.SystemSpec:
        return replace(self.system_spec, seed=seed)

    def passes(self, seconds: float) -> int:
        """Passes for a run of about `seconds`; fixed by the arguments alone,
        so a run's inputs and outputs do not depend on the machine's speed."""
        return max(1, round(seconds / self.pass_seconds))


WORKLOADS = {
    w.name: w for w in (
        # ~20 spans per trace, ~85% path-cache hits: the per-span hot paths
        # (resolve, signature/rehydrate, scoring, select) dominate.
        Workload("default", 0.3, 2000, 5.0, harness.SystemSpec()),
        # 1,832 functions and many trace shapes: cache misses, the alignment
        # solver, the largest graph and cold subgraph/dominance caches.
        Workload("shape-churn", 0.3, 1000, 7.5, harness.SystemSpec(
            n_services=40, n_functions_per_service=40,
            branch_probability=0.3, url_span_probability=0.1)),
        # four trace shapes of nesting depth ~31: alignment always hits and
        # few sets per trace leave most spans to be inferred on rebuild.
        Workload("deep-chains", 0.1, 1000, 4.0,
                 harness.SystemSpec(url_span_probability=0.0), depth_system=True),
    )
}
