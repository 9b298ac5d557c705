//! Repair ablation: incremental vs scratch maximality repair.
//!
//! The `repair` post-pass restores strict maximality after an `alg1`
//! extraction. Its original (scratch) strategy re-verified chordality from
//! scratch per candidate edge — quadratic, which kept `alg1 + repair`
//! test-scale only. The incremental strategy
//! ([`chordal_core::repair::incremental`]) maintains the chordal subgraph
//! across candidates and answers each with one early-exit separator
//! search. This ablation times both strategies on a small graph (where the
//! scratch baseline is still tractable) and the incremental strategy on a
//! benchmark-scale graph of at least 100k edges, recording per point the
//! repair-only seconds next to the base extraction seconds, plus the
//! workspace's allocation-growth delta across the timed repairs — the
//! machine-checked contract that repeated repairs are allocation-free.
//! An RMAT-B point covers the skewed case, where the greedy repair takes
//! several passes. Every point names the host's CPU count and the measured
//! tree's git revision.

use super::HarnessOptions;
use crate::records::RepairPoint;
use crate::workloads::SUITE_SEED;
use chordal_core::repair::{repair_maximality_assume_chordal, repair_maximality_with};
use chordal_core::verify::is_chordal;
use chordal_core::{AdjacencyMode, ExtractionSession, ExtractorConfig, RepairStrategy, Workspace};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::CsrGraph;

/// Minimum host-graph size of the ablation's "benchmark scale" point. The
/// incremental strategy must complete a full repair here; the scratch
/// baseline is only run on the small graph.
pub const LARGE_GRAPH_MIN_EDGES: usize = 100_000;

/// R-MAT scale of the benchmark-scale points (edge factor 8 puts scale 14
/// comfortably above [`LARGE_GRAPH_MIN_EDGES`] after deduplication).
const LARGE_SCALE: u32 = 14;

struct RepairWorkload {
    name: String,
    graph: CsrGraph,
    /// Whether the quadratic scratch baseline is tractable on this graph.
    scratch_too: bool,
    /// Nanoseconds spent generating this host graph (recorded per point as
    /// the cold-start cost next to the extract/repair timings).
    load_ns: u64,
}

fn timed_generate(params: RmatParams) -> (CsrGraph, u64) {
    let start = std::time::Instant::now();
    let graph = params.generate();
    (graph, start.elapsed().as_nanos() as u64)
}

fn workloads(options: &HarnessOptions) -> Vec<RepairWorkload> {
    let small_scale = if options.quick { 7 } else { 10 };
    let (small, small_ns) =
        timed_generate(RmatParams::preset(RmatKind::G, small_scale, SUITE_SEED));
    let mut workloads = vec![RepairWorkload {
        name: format!("RMAT-G({small_scale})"),
        graph: small,
        scratch_too: true,
        load_ns: small_ns,
    }];
    for (kind, label) in [(RmatKind::Er, "ER"), (RmatKind::B, "B")] {
        let (large, large_ns) = timed_generate(RmatParams::preset(kind, LARGE_SCALE, SUITE_SEED));
        assert!(
            large.num_edges() >= LARGE_GRAPH_MIN_EDGES,
            "benchmark-scale repair point must cover >= {LARGE_GRAPH_MIN_EDGES} edges, got {}",
            large.num_edges()
        );
        workloads.push(RepairWorkload {
            name: format!("RMAT-{label}({LARGE_SCALE})"),
            graph: large,
            scratch_too: false,
            load_ns: large_ns,
        });
    }
    workloads
}

/// `git describe --always --dirty` of the source tree, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// Runs the ablation and returns one point per graph × strategy.
pub fn run(options: &HarnessOptions) -> Vec<RepairPoint> {
    let repeats = options.repeats.max(1);
    let host_cpus = chordal_runtime::available_threads();
    let git_rev = git_rev();
    let mut points = Vec::new();
    for workload in workloads(options) {
        let graph = &workload.graph;
        // Deterministic base extraction so both strategies repair the
        // exact same edge set.
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let base = session.extract(graph);
        let mut extract_seconds = f64::MAX;
        for _ in 0..repeats {
            let start = std::time::Instant::now();
            let again = session.extract(graph);
            extract_seconds = extract_seconds.min(start.elapsed().as_secs_f64());
            assert_eq!(again.num_chordal_edges(), base.num_chordal_edges());
        }
        // Certify the base once; the timed repairs then use the
        // assume-chordal entry point the serving path (`RepairExtractor`
        // over alg1) runs, so the steady state being measured — and locked
        // allocation-free below — contains no subgraph rebuild at all.
        assert!(
            is_chordal(&base.subgraph(graph)),
            "alg1 output must be chordal"
        );
        let mut strategies = vec![RepairStrategy::Incremental];
        if workload.scratch_too {
            strategies.push(RepairStrategy::Scratch);
        }
        for strategy in strategies {
            let mut workspace = Workspace::new();
            // Warm-up grows the repair scratch; the timed repeats measure
            // (and the allocation delta locks) the steady state. The warm-up
            // goes through the certifying public entry point on purpose, as
            // a differential check against the assume-chordal fast path.
            let outcome =
                repair_maximality_with(graph, base.edges(), None, strategy, &mut workspace);
            let allocations = workspace.allocations();
            let mut repair_seconds = f64::MAX;
            for _ in 0..repeats {
                let start = std::time::Instant::now();
                let again = repair_maximality_assume_chordal(
                    graph,
                    base.edges(),
                    None,
                    strategy,
                    &mut workspace,
                );
                repair_seconds = repair_seconds.min(start.elapsed().as_secs_f64());
                assert_eq!(
                    again, outcome,
                    "certified and assume-chordal repairs must agree"
                );
            }
            points.push(RepairPoint {
                experiment: "repair".to_string(),
                graph: workload.name.clone(),
                strategy: strategy.label().to_string(),
                graph_edges: graph.num_edges(),
                base_edges: base.num_chordal_edges(),
                repaired_edges: outcome.edges.len(),
                added: outcome.added.len(),
                examined: outcome.examined,
                extract_seconds,
                repair_seconds,
                workspace_bytes: workspace.allocated_bytes(),
                allocations_delta: workspace.allocations() - allocations,
                load_ns: workload.load_ns,
                host_cpus,
                git_rev: git_rev.clone(),
            });
        }
    }
    points
}

/// Runs the ablation with printing and record output.
pub fn run_and_print(options: &HarnessOptions) -> Vec<RepairPoint> {
    println!("Repair ablation: incremental vs scratch maximality repair (alg1 base)");
    let points = run(options);
    println!(
        "  {:<13} {:>12} {:>10} {:>9} {:>7} {:>9} {:>12} {:>12} {:>7}",
        "graph",
        "strategy",
        "edges",
        "base",
        "added",
        "examined",
        "extract(s)",
        "repair(s)",
        "allocs"
    );
    for p in &points {
        println!(
            "  {:<13} {:>12} {:>10} {:>9} {:>7} {:>9} {:>12.4} {:>12.4} {:>7}",
            p.graph,
            p.strategy,
            p.graph_edges,
            p.base_edges,
            p.added,
            p.examined,
            p.extract_seconds,
            p.repair_seconds,
            p.allocations_delta
        );
    }
    options.write_records(&points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn ablation_covers_benchmark_scale_and_strategies_agree() {
        let options = HarnessOptions::tiny();
        let points = run(&options);
        // Small graph under both strategies, large graphs incremental only.
        assert_eq!(points.len(), 4);
        let small: Vec<_> = points
            .iter()
            .filter(|p| p.graph.starts_with("RMAT-G"))
            .collect();
        assert_eq!(small.len(), 2);
        assert_eq!(
            small[0].repaired_edges, small[1].repaired_edges,
            "strategies must repair to identical edge counts"
        );
        assert_eq!(small[0].added, small[1].added);
        assert_eq!(small[0].examined, small[1].examined);
        for family in ["RMAT-ER", "RMAT-B"] {
            let large = points
                .iter()
                .find(|p| p.graph.starts_with(family))
                .expect("benchmark-scale point");
            assert_eq!(large.strategy, "incremental");
            assert!(
                large.graph_edges >= LARGE_GRAPH_MIN_EDGES,
                "the incremental strategy must complete on a >= 100k-edge graph"
            );
            assert!(large.repaired_edges >= large.base_edges);
        }
        for p in &points {
            assert!(p.host_cpus >= 1 && !p.git_rev.is_empty());
            assert!(p.repair_seconds > 0.0);
            assert!(
                p.load_ns > 0,
                "{}: workload build time must be recorded",
                p.graph
            );
            assert!(p.to_json().contains("\"experiment\":\"repair\""));
            assert!(p.to_json().contains("\"load_ns\":"));
            if p.strategy == "incremental" {
                // The regression lock: warmed-up incremental repairs must
                // not grow the workspace (no per-candidate rebuilds).
                assert_eq!(
                    p.allocations_delta, 0,
                    "{}: incremental repair allocated after warm-up",
                    p.graph
                );
            }
        }
    }
}
