//! `batch-mixed`: one `ExtractionSession::extract_batch` call per
//! operation over a fixed set of small graphs.
//!
//! The set mixes the four bio gene-network families with R-MAT G/B/ER at
//! small scales, so graph sizes straddle the adaptive batch pivot and the
//! session's fan-out, intra-graph placement, EWMA feedback and rebalancing
//! all run. Alg. 1 runs with synchronous semantics, which is deterministic,
//! so every batch result must equal the single-graph run of its graph slot
//! for slot.

use crate::report::Report;
use crate::trace::Tracer;
use crate::{median, percentile, secs, tail_percentile, Options, Size};
use chordal_core::verify::is_chordal;
use chordal_core::{ChordalResult, ExtractionSession, ExtractorConfig, Semantics};
use chordal_generators::bio::GeneNetworkKind;
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::CsrGraph;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Batches measured even when the window is shorter than they take.
const MIN_BATCHES: usize = 4;

/// Generates the batch: bio networks first, then R-MAT graphs, each seeded
/// from `seed`.
pub fn graphs(size: Size, seed: u64) -> Vec<CsrGraph> {
    let (genes, scales, seeds): (&[usize], std::ops::RangeInclusive<u32>, u64) = match size {
        Size::Full => (&[200, 500, 1000, 2000], 6..=12, 3),
        Size::Tiny => (&[100, 200], 5..=7, 1),
    };
    let mut graphs = Vec::new();
    for replica in 0..2u64.min(seeds) {
        for &g in genes {
            for kind in GeneNetworkKind::all() {
                graphs.push(kind.network(g, seed.wrapping_add(replica)));
            }
        }
    }
    for replica in 0..seeds {
        for scale in scales.clone() {
            for kind in RmatKind::all() {
                let graph_seed = seed
                    .wrapping_mul(31)
                    .wrapping_add(replica * 1000 + u64::from(scale));
                graphs.push(RmatParams::preset(kind, scale, graph_seed).generate());
            }
        }
    }
    graphs
}

/// The batch configuration: Alg. 1, synchronous semantics, the default
/// pool engine, adaptive placement with EWMA feedback and rebalancing at
/// their defaults.
pub fn config() -> ExtractorConfig {
    ExtractorConfig::default()
        .with_semantics(Semantics::Synchronous)
        .with_batch_adaptive(true)
}

/// Runs the workload.
pub fn run(options: &Options) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        graphs = self::graphs(options.size, options.seed);
        setup_s.push(secs(start));
    }
    report.set("setup_s", median(&setup_s));
    let edges: usize = graphs.iter().map(CsrGraph::num_edges).sum();
    let vertices: usize = graphs.iter().map(CsrGraph::num_vertices).sum();
    report.note_num("input_graphs", graphs.len() as f64);
    // The batch lives in memory; its size is the graphs' CSR bytes.
    let bytes: usize = graphs
        .iter()
        .map(|g| g.memory_breakdown().hot_bytes())
        .sum();
    report.note_num("input_vertices", vertices as f64);
    report.note_num("input_edges", edges as f64);
    report.note_num("input_bytes", bytes as f64);

    // The oracle: each graph alone through a fresh session of the same
    // configuration, checked chordal once.
    let mut single = ExtractionSession::new(config());
    let expected: Vec<ChordalResult> = graphs.iter().map(|g| single.extract(g)).collect();
    for (i, (graph, result)) in graphs.iter().zip(&expected).enumerate() {
        if !is_chordal(&result.subgraph(graph)) {
            report.fail(format!("single-graph result {i} is not chordal"));
        }
    }
    let expected_edges: usize = expected.iter().map(ChordalResult::num_chordal_edges).sum();
    report.set("chordal_frac", expected_edges as f64 / edges.max(1) as f64);
    report.set("output.edges", expected_edges as f64);
    report.set(
        "alg1.iterations",
        expected.iter().map(|r| r.iterations).sum::<usize>() as f64,
    );

    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let mut session = ExtractionSession::new(config());
    let check = |results: &[ChordalResult], report: &mut Report| {
        report.attempted += 1;
        if results.len() != expected.len() {
            report.fail(format!(
                "batch returned {} results for {} graphs",
                results.len(),
                expected.len()
            ));
            return;
        }
        let differing = results
            .iter()
            .zip(&expected)
            .filter(|(a, b)| a != b)
            .count();
        if differing > 0 {
            report.fail(format!(
                "{differing} batch results differ from their single-graph runs"
            ));
        }
    };
    // Warm-up: pool threads, calibration and worker workspaces.
    let warm = session.extract_batch(&refs);
    check(&warm, &mut report);

    let tracer = Tracer::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut fanout = Vec::new();
    let mut pool = Vec::new();
    let mut rebalanced = Vec::new();
    let window = Instant::now();
    let mut request = 0u64;
    while secs(window) < options.seconds || plain.len() + traced.len() < MIN_BATCHES {
        request += 1;
        let use_tracer = options.trace && request.is_multiple_of(2);
        let threshold = session.effective_batch_threshold();
        let feedback_before = session.scheduler_feedback();
        let pool_before = chordal_runtime::pool_stats();
        let start = Instant::now();
        let results = if use_tracer {
            tracer.time("session.extract_batch", None, request, || {
                session.extract_batch(&refs)
            })
        } else {
            session.extract_batch(&refs)
        };
        let wall = secs(start);
        let pool_after = chordal_runtime::pool_stats();
        check(&results, &mut report);
        if use_tracer {
            traced.push(wall);
            fanout.push(graphs.iter().filter(|g| g.num_edges() < threshold).count() as f64);
            rebalanced.push(
                (session.scheduler_feedback().rebalanced - feedback_before.rebalanced) as f64,
            );
            pool.push((
                (pool_after.regions - pool_before.regions) as f64,
                (pool_after.steals - pool_before.steals) as f64,
                (pool_after.tickets_dropped - pool_before.tickets_dropped) as f64,
            ));
        } else {
            plain.push(wall);
        }
    }

    let batch_s = median(&plain);
    report.set("batch_s", batch_s);
    report.set("solve_s", batch_s / graphs.len().max(1) as f64);
    report.set("latency_ms.p50", batch_s * 1e3);
    report.set(
        "latency_ms.p99",
        percentile(&plain, tail_percentile(plain.len())) * 1e3,
    );
    report.set(
        "max_rate_rps",
        plain.len() as f64 / plain.iter().sum::<f64>().max(1e-9),
    );
    report.set("latency.samples", plain.len() as f64);
    report.set("latency.tail_pct", tail_percentile(plain.len()));
    if options.trace {
        report.set("trace.overhead", median(&traced) / batch_s.max(1e-12) - 1.0);
        report.set("session.fanout_graphs", median(&fanout));
        report.set(
            "session.intra_graphs",
            graphs.len() as f64 - median(&fanout),
        );
        report.set("session.rebalanced", median(&rebalanced));
        report.set(
            "session.ewma_ns_per_edge",
            session.scheduler_feedback().ewma_ns_per_edge,
        );
        report.set(
            "pool.regions",
            median(&pool.iter().map(|p| p.0).collect::<Vec<_>>()),
        );
        report.set(
            "pool.steals",
            median(&pool.iter().map(|p| p.1).collect::<Vec<_>>()),
        );
        report.set(
            "pool.tickets_dropped",
            median(&pool.iter().map(|p| p.2).collect::<Vec<_>>()),
        );
        crate::write_trace(&tracer, options);
    }
    report
}
