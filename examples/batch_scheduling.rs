//! Timing harness for `ExtractionSession::extract_batch` on a mixed batch
//! of small and large graphs — the serving-path workload the hybrid batch
//! scheduler targets.
//!
//! Run with `cargo run --release --example batch_scheduling`. The harness
//! builds a batch of many small graphs plus a few large ones, then times
//! `extract_batch` under the configured engine. It reports wall time per
//! policy so the scoped-spawn baseline, the persistent pool, and the hybrid
//! threshold policy can be compared across commits.
//!
//! Besides the static pivots (pure fan-out, a fixed hybrid threshold, pure
//! intra-graph), the sweep includes two **adaptive** rows: `adapt-frozen`
//! is the seeded cost model alone (per-thread pool calibration, no
//! feedback, no rebalancing — the PR 3 policy), and `adaptive` is the full
//! measured loop (per-session EWMA feedback of observed ns/edge and
//! regions per extraction, plus intra-batch rebalancing of the fan-out
//! tail onto idle workers). The printout shows what each chose on this
//! machine next to the hand-picked thresholds they compete with, and the
//! session's feedback state after the timed repeats. For the raw
//! dispatch-overhead numbers the model consumes, see
//! `examples/pool_overhead.rs`.

use maximal_chordal::prelude::*;
use std::time::Instant;

fn mixed_batch() -> Vec<CsrGraph> {
    let mut graphs = Vec::new();
    // Many small requests...
    for seed in 0..48 {
        graphs.push(RmatParams::preset(RmatKind::G, 7, seed).generate());
    }
    // ...plus a few large ones, interleaved the way real traffic arrives.
    for seed in 0..3 {
        graphs.insert(
            (seed as usize) * 16,
            RmatParams::preset(RmatKind::B, 12, 100 + seed).generate(),
        );
    }
    graphs
}

fn time_batch(label: &str, config: ExtractorConfig, refs: &[&CsrGraph]) {
    let adaptive = config.batch_adaptive;
    let mut session = ExtractionSession::new(config);
    // Warm-up: grows workspaces and (on pooled builds) spawns the workers.
    let warm = session.extract_batch(refs);
    let edges: usize = warm.iter().map(|r| r.num_chordal_edges()).sum();
    let repeats = 5;
    let mut best = f64::MAX;
    let mut total = 0.0;
    for _ in 0..repeats {
        let start = Instant::now();
        let results = session.extract_batch(refs);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(results.len(), refs.len());
        best = best.min(elapsed);
        total += elapsed;
    }
    let feedback = session.scheduler_feedback();
    let scheduler = if adaptive {
        format!(
            "  [ewma {:.1} ns/edge, {} promoted]",
            feedback.ewma_ns_per_edge, feedback.rebalanced
        )
    } else {
        String::new()
    };
    println!(
        "{label:<28} best {best:>8.4}s  mean {:>8.4}s  ({edges} chordal edges){scheduler}",
        total / repeats as f64
    );
}

fn time_single(label: &str, config: ExtractorConfig, graph: &CsrGraph) {
    let mut session = ExtractionSession::new(config);
    let warm = session.extract(graph);
    let repeats = 20;
    let mut best = f64::MAX;
    let mut total = 0.0;
    for _ in 0..repeats {
        let start = Instant::now();
        let result = session.extract(graph);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(result.num_vertices(), warm.num_vertices());
        best = best.min(elapsed);
        total += elapsed;
    }
    println!(
        "{label:<28} best {best:>8.4}s  mean {:>8.4}s",
        total / repeats as f64
    );
}

fn main() {
    let graphs = mixed_batch();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let small = graphs.iter().filter(|g| g.num_edges() < 10_000).count();
    println!(
        "mixed batch: {} graphs ({} small, {} large), {} total edges",
        graphs.len(),
        small,
        graphs.len() - small,
        graphs.iter().map(|g| g.num_edges()).sum::<usize>()
    );

    for threads in [2, 4] {
        for (policy, threshold, measured) in [
            ("fan-out", Some(usize::MAX), false),
            ("hybrid(10k)", Some(10_000), false),
            ("intra", Some(0), false),
            // The PR 3 comparator: seeded cost model, no feedback, no
            // rebalancing...
            ("adapt-frozen", None, false),
            // ...versus the full measured loop.
            ("adaptive", None, true),
        ] {
            let configure = |config: ExtractorConfig| {
                let config = config
                    .with_batch_ewma(measured)
                    .with_batch_rebalance(measured);
                match threshold {
                    Some(threshold) => config.with_batch_threshold_edges(threshold),
                    None => config.with_batch_adaptive(true),
                }
            };
            time_batch(
                &format!("pool x{threads} {policy}"),
                configure(ExtractorConfig::default().with_engine(Engine::pool(threads))),
                &refs,
            );
        }
    }
    println!(
        "seeded adaptive pivot resolved to {} edges on this machine (4-thread region overhead sample {} ns)",
        maximal_chordal::core::adaptive_batch_threshold_edges(4),
        maximal_chordal::runtime::estimated_region_overhead_ns_for(4)
    );
    time_batch(
        "serial",
        ExtractorConfig::serial(AdjacencyMode::Sorted),
        &refs,
    );

    // Intra-graph parallelism on one large graph: the region-heavy path
    // where per-region thread spawning hurts most.
    let large = RmatParams::preset(RmatKind::B, 13, 7).generate();
    println!(
        "\nsingle large graph: {} vertices, {} edges",
        large.num_vertices(),
        large.num_edges()
    );
    for threads in [2, 4, 8] {
        time_single(
            &format!("single pool x{threads}"),
            ExtractorConfig::default().with_engine(Engine::pool(threads)),
            &large,
        );
    }
    time_single(
        "single serial",
        ExtractorConfig::serial(AdjacencyMode::Sorted),
        &large,
    );
}
