//! Cross-algorithm lock-down suite for the persistent worker pool and the
//! hybrid batch scheduler.
//!
//! The substrate underneath every parallel engine changed from per-region
//! scoped threads to one persistent work-stealing pool, and
//! `extract_batch` gained a hybrid scheduling policy
//! (`batch_threshold_edges`). These tests pin the concurrency behaviour
//! down so it cannot regress silently:
//!
//! * property sweeps over seeded random and R-MAT graphs asserting every
//!   `Algorithm × Engine` output is chordal (where guaranteed) and
//!   edge-subset-valid;
//! * bit-for-bit agreement between pooled and serial engines for every
//!   deterministic configuration;
//! * hybrid-batch slot equivalence across thresholds and algorithms, and
//!   equivalence of the adaptive policy
//!   (`ExtractorConfig::batch_adaptive`) with every static pivot — batch
//!   placement must never change extraction output for deterministic
//!   configs;
//! * an end-to-end assertion that sustained extraction traffic reuses the
//!   pool's workers instead of spawning threads, with the pool's lock-free
//!   dispatch counters growing as regions are submitted.

use maximal_chordal::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded cases per property (kept moderate: the full matrix multiplies).
const CASES: u64 = 12;

/// One engine per scheduling style; thread counts deliberately exceed the
/// single-core CI floor so the pool paths are exercised everywhere.
fn engines() -> Vec<Engine> {
    vec![
        Engine::serial(),
        Engine::pool(4).with_grain(8),
        Engine::pool(4),
    ]
}

fn random_graph(rng: &mut StdRng, max_n: usize, max_edges: usize) -> CsrGraph {
    let n = rng.gen_range(2..max_n);
    let cap = (n * (n - 1) / 2).min(max_edges);
    let m = rng.gen_range(0..cap.max(1) + 1);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            builder.add_edge(u, v);
        }
    }
    builder.build()
}

/// Graph suite for the matrix sweeps: seeded random graphs plus one R-MAT
/// preset per shape family.
fn workloads(seed: u64) -> Vec<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(0x90_01 ^ seed);
    vec![
        random_graph(&mut rng, 36, 140),
        RmatParams::preset(RmatKind::Er, 7, seed).generate(),
        RmatParams::preset(RmatKind::B, 7, seed).generate(),
    ]
}

#[test]
fn every_algorithm_engine_pair_is_chordal_and_subset_valid() {
    for seed in 0..CASES {
        for graph in workloads(seed) {
            for algorithm in Algorithm::ALL {
                for engine in engines() {
                    let label = format!("seed {seed} {algorithm}/{}", engine.name());
                    let config = ExtractorConfig::default()
                        .with_algorithm(algorithm)
                        .with_engine(engine);
                    let result = ExtractionSession::new(config).extract(&graph);
                    for &(u, v) in result.edges() {
                        assert!(graph.has_edge(u, v), "{label}: foreign edge ({u},{v})");
                    }
                    if algorithm.guarantees_chordal() {
                        assert!(
                            is_chordal(&result.subgraph(&graph)),
                            "{label}: non-chordal output"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pooled_engines_match_the_serial_engine_bit_for_bit() {
    // Synchronous semantics make every algorithm deterministic on every
    // engine, so the pooled schedules must reproduce the serial result
    // exactly — the strongest cross-engine agreement the registry offers.
    for seed in 0..CASES {
        for graph in workloads(seed) {
            for algorithm in Algorithm::ALL {
                let serial = ExtractorConfig::default()
                    .with_algorithm(algorithm)
                    .with_engine(Engine::serial())
                    .with_semantics(Semantics::Synchronous)
                    // Pin the partition count so the partitioned baseline
                    // does not re-derive it from each engine's threads.
                    .with_partitions(
                        3,
                        maximal_chordal::core::partitioned::PartitionStrategy::Blocks,
                    );
                let expected = ExtractionSession::new(serial.clone()).extract(&graph);
                for engine in engines() {
                    let config = serial.clone().with_engine(engine);
                    let got = ExtractionSession::new(config.clone()).extract(&graph);
                    assert!(
                        algorithm.is_deterministic(&config),
                        "sync semantics must classify as deterministic"
                    );
                    assert_eq!(
                        got.edges(),
                        expected.edges(),
                        "seed {seed} {algorithm}/{} diverged from serial",
                        config.engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn hybrid_batches_agree_with_single_runs_for_every_algorithm() {
    // Mixed batch with the threshold placed between the two graph sizes,
    // so both scheduling paths run in one call.
    let graphs: Vec<CsrGraph> = (0..3)
        .flat_map(|seed| {
            [
                RmatParams::preset(RmatKind::Er, 9, seed).generate(),
                RmatParams::preset(RmatKind::G, 6, seed).generate(),
            ]
        })
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let threshold = 2_000;
    assert!(graphs.iter().any(|g| g.num_edges() >= threshold));
    assert!(graphs.iter().any(|g| g.num_edges() < threshold));
    for algorithm in Algorithm::ALL {
        let config = ExtractorConfig::default()
            .with_algorithm(algorithm)
            .with_engine(Engine::pool(3))
            .with_semantics(Semantics::Synchronous)
            .with_batch_threshold_edges(threshold);
        let batch = ExtractionSession::new(config.clone()).extract_batch(&refs);
        assert_eq!(batch.len(), graphs.len());
        let single_config = config
            .clone()
            .with_partitions(
                config.effective_partitions(),
                maximal_chordal::core::partitioned::PartitionStrategy::Blocks,
            )
            .with_engine(Engine::serial());
        let mut single = ExtractionSession::new(single_config);
        for (i, (graph, from_batch)) in graphs.iter().zip(&batch).enumerate() {
            assert_eq!(
                single.extract(graph).edges(),
                from_batch.edges(),
                "{algorithm} slot {i}"
            );
        }
    }
}

#[test]
fn batch_threshold_extremes_agree_on_random_batches() {
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(0xBA7C02 ^ seed);
        let graphs: Vec<CsrGraph> = (0..5).map(|_| random_graph(&mut rng, 30, 120)).collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        // Rebalancing off: these are the pure-placement reference oracles,
        // so they must never take the promotion path themselves.
        let base = ExtractorConfig::default()
            .with_engine(Engine::pool(3))
            .with_semantics(Semantics::Synchronous)
            .with_batch_rebalance(false);
        let fanned = ExtractionSession::new(base.clone().with_batch_threshold_edges(usize::MAX))
            .extract_batch(&refs);
        let intra =
            ExtractionSession::new(base.clone().with_batch_threshold_edges(0)).extract_batch(&refs);
        let hybrid =
            ExtractionSession::new(base.with_batch_threshold_edges(60)).extract_batch(&refs);
        for ((a, b), c) in fanned.iter().zip(&intra).zip(&hybrid) {
            assert_eq!(a.edges(), b.edges(), "seed {seed}");
            assert_eq!(a.edges(), c.edges(), "seed {seed}");
        }
    }
}

#[test]
fn adaptive_batches_agree_with_static_policies_for_every_algorithm() {
    // Mixed sizes so the adaptive pivot genuinely splits the batch on at
    // least some machines; whatever it resolves to, the output must be
    // identical to every static pivot under deterministic (synchronous)
    // semantics.
    let graphs: Vec<CsrGraph> = (0..3)
        .flat_map(|seed| {
            [
                RmatParams::preset(RmatKind::Er, 9, seed).generate(),
                RmatParams::preset(RmatKind::G, 6, seed).generate(),
            ]
        })
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for algorithm in Algorithm::ALL {
        let base = ExtractorConfig::default()
            .with_algorithm(algorithm)
            .with_engine(Engine::pool(3))
            .with_semantics(Semantics::Synchronous)
            .with_partitions(
                3,
                maximal_chordal::core::partitioned::PartitionStrategy::Blocks,
            );
        let mut adaptive_session = ExtractionSession::new(base.clone().with_batch_adaptive(true));
        assert_eq!(
            adaptive_session.effective_batch_threshold(),
            maximal_chordal::core::adaptive_batch_threshold_edges(3),
            "{algorithm}: adaptive sessions must use the calibrated pivot"
        );
        let adaptive = adaptive_session.extract_batch(&refs);
        for pivot in [0, 2_000, usize::MAX] {
            // Promotion-free static references.
            let static_batch = ExtractionSession::new(
                base.clone()
                    .with_batch_threshold_edges(pivot)
                    .with_batch_rebalance(false),
            )
            .extract_batch(&refs);
            for (i, (a, b)) in adaptive.iter().zip(&static_batch).enumerate() {
                assert_eq!(
                    a.edges(),
                    b.edges(),
                    "{algorithm}: adaptive diverged from pivot {pivot} at slot {i}"
                );
            }
        }
    }
}

#[test]
fn ewma_and_rebalancing_batches_stay_byte_identical_across_repeats() {
    // The measured-cost loop moves the pivot between batches and the
    // rebalancer may promote fan-out tail graphs whenever pool workers
    // idle — none of which may ever change extraction output. Run the same
    // mixed batch repeatedly (so the EWMA genuinely feeds back) under both
    // engines and compare every batch, slot for slot, against the pure
    // fan-out placement. CI runs this under CHORDAL_POOL_THREADS={1,2,8}.
    let graphs: Vec<CsrGraph> = (0..3)
        .flat_map(|seed| {
            [
                RmatParams::preset(RmatKind::Er, 9, seed).generate(),
                RmatParams::preset(RmatKind::G, 6, seed).generate(),
            ]
        })
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for engine in [Engine::pool(3), Engine::pool(4).with_grain(8)] {
        let base = ExtractorConfig::default()
            .with_engine(engine)
            .with_semantics(Semantics::Synchronous);
        // The reference oracle runs with rebalancing off so it cannot take
        // the promotion path itself.
        let expected = ExtractionSession::new(
            base.clone()
                .with_batch_threshold_edges(usize::MAX)
                .with_batch_rebalance(false),
        )
        .extract_batch(&refs);
        let mut measured = ExtractionSession::new(
            base.clone()
                .with_batch_adaptive(true)
                .with_batch_ewma(true)
                .with_batch_rebalance(true),
        );
        for round in 0..4 {
            let batch = measured.extract_batch(&refs);
            for (i, (a, b)) in batch.iter().zip(&expected).enumerate() {
                assert_eq!(
                    a.edges(),
                    b.edges(),
                    "round {round} slot {i}: measured scheduling changed output"
                );
            }
        }
        let feedback = measured.scheduler_feedback();
        assert!(
            feedback.samples > 0,
            "repeated mixed batches must feed the EWMA"
        );
    }
}

#[test]
fn ewma_pivot_converges_toward_measured_cost() {
    // Seeded synthetic workload: identical scale-10 graphs batch after
    // batch. Whatever this machine's true ns/edge is, the EWMA is a convex
    // combination of the seed and the recorded samples, so after k batches
    // it must lie between the extremes of everything observed — and when
    // the measurements consistently sit on one side of the seed, the pivot
    // must have moved off the seeded value toward them.
    let graphs: Vec<CsrGraph> = (0..3)
        .map(|seed| RmatParams::preset(RmatKind::Er, 10, 0xC0FFEE ^ seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let threads = 3;
    let config = ExtractorConfig::default()
        .with_engine(Engine::pool(threads))
        .with_semantics(Semantics::Synchronous)
        .with_batch_adaptive(true);
    let mut session = ExtractionSession::new(config);
    let seed_ns = session.scheduler_feedback().ewma_ns_per_edge;
    let seeded_pivot = session.effective_batch_threshold();
    assert_eq!(
        seeded_pivot,
        maximal_chordal::core::adaptive_batch_threshold_edges(threads),
        "before any sample the seeded model must be in effect"
    );
    let mut samples = Vec::new();
    for _ in 0..6 {
        session.extract_batch(&refs);
        let feedback = session.scheduler_feedback();
        if feedback.last_ns_per_edge > 0.0 {
            samples.push(feedback.last_ns_per_edge);
        }
    }
    let feedback = session.scheduler_feedback();
    assert!(feedback.samples >= 6, "scale-10 graphs must record samples");
    // The EWMA is a convex combination of the seed and *every* recorded
    // sample; the test only observes the last sample of each batch, so the
    // bound carries a generous noise margin: the state must sit within 4x
    // of the span the observed measurements and the seed cover.
    let lo = samples.iter().copied().fold(seed_ns, f64::min);
    let hi = samples.iter().copied().fold(seed_ns, f64::max);
    assert!(
        (lo / 4.0..=hi * 4.0).contains(&feedback.ewma_ns_per_edge),
        "EWMA {} far outside [{lo}, {hi}], the span of seed and observed samples",
        feedback.ewma_ns_per_edge
    );
    // Convergence direction: when the observed measurements are mutually
    // consistent (within 2x of each other — identical graphs, so the
    // unobserved samples of the same batches behave alike) and sit clearly
    // to one side of the seed, the EWMA must have moved off the seed
    // toward them. After 6 batches the seed's residual weight is
    // (1 - alpha)^samples, far below 1%.
    let consistent = hi <= lo * 2.0;
    if consistent && lo > seed_ns * 2.0 {
        assert!(
            feedback.ewma_ns_per_edge > seed_ns,
            "measured cost above seed must pull the EWMA up"
        );
    } else if consistent && hi < seed_ns / 2.0 {
        assert!(
            feedback.ewma_ns_per_edge < seed_ns,
            "measured cost below seed must pull the EWMA down"
        );
    }
    // The reported pivot is always the model at the current EWMA state.
    assert_eq!(
        session.effective_batch_threshold(),
        maximal_chordal::core::adaptive_batch_threshold_from_model(
            threads,
            feedback.ewma_ns_per_edge,
            feedback.ewma_regions_per_extraction
        )
    );
}

#[test]
fn rebalanced_batches_agree_with_static_policies_for_every_algorithm() {
    // Same lock-down as the adaptive test, with rebalancing and feedback
    // explicitly on and several consecutive batches so promoted placements
    // actually occur on machines where workers idle.
    let graphs: Vec<CsrGraph> = (0..2)
        .flat_map(|seed| {
            [
                RmatParams::preset(RmatKind::Er, 9, seed).generate(),
                RmatParams::preset(RmatKind::G, 6, seed).generate(),
            ]
        })
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for algorithm in Algorithm::ALL {
        let base = ExtractorConfig::default()
            .with_algorithm(algorithm)
            .with_engine(Engine::pool(3))
            .with_semantics(Semantics::Synchronous)
            .with_partitions(
                3,
                maximal_chordal::core::partitioned::PartitionStrategy::Blocks,
            );
        // Promotion-free reference oracle.
        let expected = ExtractionSession::new(
            base.clone()
                .with_batch_threshold_edges(usize::MAX)
                .with_batch_rebalance(false),
        )
        .extract_batch(&refs);
        let mut measured = ExtractionSession::new(
            base.clone()
                .with_batch_adaptive(true)
                .with_batch_ewma(true)
                .with_batch_rebalance(true),
        );
        for round in 0..3 {
            let batch = measured.extract_batch(&refs);
            for (i, (a, b)) in batch.iter().zip(&expected).enumerate() {
                assert_eq!(
                    a.edges(),
                    b.edges(),
                    "{algorithm} round {round} slot {i}: rebalancing changed output"
                );
            }
        }
    }
}

#[test]
fn batch_traffic_grows_the_pool_dispatch_counters() {
    // Scale 11 (2048 vertices): comfortably above the engines' grain, so
    // the intra-graph sweeps split into several chunks and submit real
    // regions instead of running inline.
    let graphs: Vec<CsrGraph> = (0..3)
        .map(|seed| RmatParams::preset(RmatKind::Er, 11, seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let mut session = ExtractionSession::new(
        ExtractorConfig::default()
            .with_engine(Engine::pool(4))
            .with_batch_threshold_edges(0), // intra-graph: every graph submits regions
    );
    let before = rayon::pool_stats();
    session.extract_batch(&refs);
    let after = rayon::pool_stats();
    assert!(
        after.regions > before.regions,
        "intra-graph batch extraction must submit pool regions ({} -> {})",
        before.regions,
        after.regions
    );
    assert!(after.tickets >= before.tickets);
    assert!(after.steals >= before.steals);
}

#[test]
fn sustained_extraction_traffic_never_spawns_threads_after_warmup() {
    // Warm the pool with one parallel extraction...
    let warm_graph = RmatParams::preset(RmatKind::G, 8, 1).generate();
    let mut session =
        ExtractionSession::new(ExtractorConfig::default().with_engine(Engine::pool(4)));
    session.extract(&warm_graph);
    let spawned = rayon::pool_spawned_threads();
    assert_eq!(
        spawned,
        rayon::pool_size(),
        "warm-up must have spawned exactly the configured pool"
    );
    // ...then drive sustained single-graph and batch traffic and assert
    // the pool never grows: parallel regions
    // reuse the persistent workers instead of spawning.
    let graphs: Vec<CsrGraph> = (0..6)
        .map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let mut session = ExtractionSession::new(
        ExtractorConfig::default()
            .with_engine(Engine::pool(4))
            .with_batch_threshold_edges(1_000),
    );
    for _ in 0..16 {
        session.extract(&warm_graph);
        session.extract_batch(&refs);
    }
    assert_eq!(
        rayon::pool_spawned_threads(),
        spawned,
        "extraction traffic after warm-up must not spawn any thread"
    );
}
