//! Scheduler ablation: batch-placement policies on a mixed batch.
//!
//! The serving path's hybrid batch scheduler
//! ([`chordal_core::ExtractionSession::extract_batch`]) can place each
//! graph of a batch by one of four policies: pure fan-out
//! (`threshold = usize::MAX`), pure intra-graph parallelism
//! (`threshold = 0`), the static default pivot, or the adaptive
//! cost-model pivot ([`chordal_core::adaptive_batch_threshold_edges`]).
//! This experiment times the same mixed batch — many small graphs plus a
//! few large ones, the traffic shape the hybrid policy targets — under
//! every policy on the pool engine, and reports the pool's
//! scheduling counters (regions, steals) plus the calibrated per-region
//! dispatch overhead next to every timing, so placement decisions can be
//! traced back to the dispatch costs that justify them.

use super::HarnessOptions;
use crate::records::SchedulerPoint;
use crate::workloads::SUITE_SEED;
use chordal_core::{ExtractionSession, ExtractorConfig};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::CsrGraph;
use chordal_runtime::Engine;

/// One batch-placement policy of the ablation sweep.
struct Policy {
    /// Row label.
    label: &'static str,
    /// Static pivot, or `None` for the adaptive cost model.
    pivot: Option<usize>,
    /// Measured-cost EWMA feedback on/off.
    ewma: bool,
    /// Intra-batch rebalancing on/off.
    rebalance: bool,
}

/// The policies the ablation sweeps. `adaptive` is the full measured model
/// (EWMA feedback + rebalancing); `adaptive-frozen` is the PR 3-era
/// comparator — same cost model seeds, no feedback, no rebalancing — so
/// the JSON shows what the measured loop buys on this machine. `static`
/// vs `static+rb` isolates the rebalancing variable at a fixed pivot.
fn policies() -> [Policy; 6] {
    [
        Policy {
            label: "fan-out",
            pivot: Some(usize::MAX),
            ewma: false,
            rebalance: false,
        },
        Policy {
            label: "intra",
            pivot: Some(0),
            ewma: false,
            rebalance: false,
        },
        Policy {
            label: "static",
            pivot: Some(chordal_core::config::DEFAULT_BATCH_THRESHOLD_EDGES),
            ewma: false,
            rebalance: false,
        },
        Policy {
            label: "static+rb",
            pivot: Some(chordal_core::config::DEFAULT_BATCH_THRESHOLD_EDGES),
            ewma: false,
            rebalance: true,
        },
        Policy {
            label: "adaptive-frozen",
            pivot: None,
            ewma: false,
            rebalance: false,
        },
        Policy {
            label: "adaptive",
            pivot: None,
            ewma: true,
            rebalance: true,
        },
    ]
}

/// Builds the mixed batch: many small graphs plus a few large ones,
/// interleaved the way batch traffic arrives.
fn mixed_batch(options: &HarnessOptions) -> Vec<CsrGraph> {
    let (small_count, small_scale, large_count, large_scale) = if options.quick {
        (8, 6, 2, 9)
    } else {
        (48, 7, 3, 12)
    };
    let mut graphs: Vec<CsrGraph> = (0..small_count as u64)
        .map(|seed| RmatParams::preset(RmatKind::G, small_scale, SUITE_SEED ^ seed).generate())
        .collect();
    for i in 0..large_count {
        graphs.insert(
            i * (small_count / large_count.max(1)).max(1),
            RmatParams::preset(RmatKind::B, large_scale, SUITE_SEED ^ (100 + i as u64)).generate(),
        );
    }
    graphs
}

/// Runs the ablation and returns one point per policy.
pub fn run(options: &HarnessOptions) -> Vec<SchedulerPoint> {
    let load_start = std::time::Instant::now();
    let graphs = mixed_batch(options);
    let load_ns = load_start.elapsed().as_nanos() as u64;
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let threads = options.max_threads.clamp(2, 8);
    let mut points = Vec::new();
    for policy in policies() {
        let mut config = ExtractorConfig::default()
            .with_engine(Engine::pool(threads))
            .with_batch_ewma(policy.ewma)
            .with_batch_rebalance(policy.rebalance);
        config = match policy.pivot {
            Some(threshold) => config.with_batch_threshold_edges(threshold),
            None => config.with_batch_adaptive(true),
        };
        let mut session = ExtractionSession::new(config);
        // Warm-up grows the workspaces and spawns the pool workers, so
        // the timed repeats measure the steady serving path.
        let warm = session.extract_batch(&refs);
        let chordal_edges: usize = warm.iter().map(|r| r.num_chordal_edges()).sum();
        let stats_before = chordal_runtime::pool_stats();
        let feedback_before = session.scheduler_feedback();
        let mut best = f64::MAX;
        for _ in 0..options.repeats.max(1) {
            let start = std::time::Instant::now();
            let results = session.extract_batch(&refs);
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(results.len(), refs.len());
        }
        let stats = chordal_runtime::pool_stats();
        let feedback = session.scheduler_feedback();
        points.push(SchedulerPoint {
            experiment: "scheduler".to_string(),
            engine: "pool".to_string(),
            threads,
            policy: policy.label.to_string(),
            // Read *after* the timed runs: for the EWMA policy this is
            // the pivot the feedback converged to, not the seed —
            // that difference is what the frozen comparator exists to
            // show.
            threshold_edges: session.effective_batch_threshold(),
            batch_graphs: graphs.len(),
            seconds: best,
            chordal_edges,
            steals: stats.steals - stats_before.steals,
            regions: stats.regions - stats_before.regions,
            region_overhead_ns: chordal_runtime::estimated_region_overhead_ns_for(threads),
            ewma_ns_per_edge: feedback.ewma_ns_per_edge,
            rebalanced: feedback.rebalanced - feedback_before.rebalanced,
            tickets_dropped: stats.tickets_dropped - stats_before.tickets_dropped,
            load_ns,
        });
    }
    points
}

/// Runs the ablation with printing and record output.
pub fn run_and_print(options: &HarnessOptions) -> Vec<SchedulerPoint> {
    println!("Scheduler ablation: batch placement policies on a mixed batch");
    let points = run(options);
    println!(
        "  {:<7} {:>8} {:>15} {:>14} {:>10} {:>9} {:>8} {:>14} {:>12} {:>10}",
        "engine",
        "threads",
        "policy",
        "pivot(edges)",
        "seconds",
        "regions",
        "steals",
        "overhead(ns)",
        "ewma(ns/e)",
        "rebalanced"
    );
    for p in &points {
        let pivot = if p.threshold_edges == usize::MAX {
            "max".to_string()
        } else {
            p.threshold_edges.to_string()
        };
        println!(
            "  {:<7} {:>8} {:>15} {:>14} {:>10.4} {:>9} {:>8} {:>14} {:>12.2} {:>10}",
            p.engine,
            p.threads,
            p.policy,
            pivot,
            p.seconds,
            p.regions,
            p.steals,
            p.region_overhead_ns,
            p.ewma_ns_per_edge,
            p.rebalanced
        );
    }
    options.write_records(&points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use chordal_core::adaptive_batch_threshold_edges;

    #[test]
    fn quick_ablation_covers_every_policy() {
        let options = HarnessOptions::tiny();
        let points = run(&options);
        assert_eq!(points.len(), 6, "one point per policy");
        for policy in [
            "fan-out",
            "intra",
            "static",
            "static+rb",
            "adaptive-frozen",
            "adaptive",
        ] {
            let p = points
                .iter()
                .find(|p| p.policy == policy)
                .unwrap_or_else(|| panic!("missing {policy}"));
            assert!(p.seconds > 0.0);
            assert!(p.chordal_edges > 0);
            assert!(p.region_overhead_ns >= 1);
            // Self-consistency of the new scheduler fields.
            assert!(p.ewma_ns_per_edge > 0.0 && p.ewma_ns_per_edge.is_finite());
            assert!(p.rebalanced <= (p.batch_graphs * options.repeats.max(1)) as u64);
            // Every point's record round-trips through the JSON layer.
            let json = p.to_json();
            assert!(json.contains("\"experiment\":\"scheduler\""));
            assert!(json.contains("\"ewma_ns_per_edge\":"));
            assert!(json.contains("\"rebalanced\":"));
            assert!(json.contains("\"tickets_dropped\":"));
            assert!(
                p.load_ns > 0 && json.contains("\"load_ns\":"),
                "workload build time must be recorded"
            );
        }
        // The frozen comparator records no feedback, never rebalances, and
        // therefore reports exactly the seeded pivot even after the runs;
        // the EWMA row reports whatever pivot its feedback converged to
        // (clamped by the model, so still a sane value).
        for p in points.iter().filter(|p| p.policy == "adaptive-frozen") {
            assert_eq!(p.rebalanced, 0);
            assert_eq!(
                p.threshold_edges,
                adaptive_batch_threshold_edges(p.threads),
                "{}/{}",
                p.engine,
                p.policy
            );
        }
        for p in points.iter().filter(|p| p.policy == "adaptive") {
            assert!(
                p.threshold_edges >= 1_024,
                "{}/{}: converged pivot below the model clamp",
                p.engine,
                p.policy
            );
        }
    }
}
