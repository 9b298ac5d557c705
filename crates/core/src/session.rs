//! Reusable extraction sessions: one configured extractor plus one owned
//! [`Workspace`], amortising allocations across runs — and a batch mode
//! that fans whole graphs out across the configured engine.
//!
//! # Single-graph traffic
//!
//! ```
//! use chordal_core::prelude::*;
//! use chordal_graph::builder::graph_from_edges;
//!
//! let graph = graph_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4)]);
//! let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
//!
//! let first = session.extract(&graph);
//! let allocations = session.workspace().allocations();
//!
//! // The second extraction reuses every buffer the first one grew.
//! let second = session.extract(&graph);
//! assert_eq!(first.edges(), second.edges());
//! assert_eq!(session.workspace().allocations(), allocations);
//! ```
//!
//! # Batch traffic
//!
//! [`ExtractionSession::extract_batch`] accepts a slice of graphs and
//! schedules them **hybridly** over the configured
//! [`chordal_runtime::Engine`], pivoting on
//! [`crate::config::ExtractorConfig::batch_threshold_edges`]:
//!
//! * graphs *below* the threshold are fanned out across the engine's
//!   workers, each extracted with the serial variant of the configured
//!   algorithm and a worker-local workspace (graph-level parallelism — the
//!   right trade for many small requests, where intra-graph regions would
//!   cost more than they win);
//! * graphs *at or above* the threshold run one at a time with the
//!   configured engine's intra-graph parallelism (the paper's Algorithm 1
//!   scaling regime, where per-iteration regions amortise).
//!
//! Setting the threshold to `usize::MAX` recovers pure fan-out, `0` pure
//! intra-graph scheduling. All parallel regions execute on the process-wide
//! persistent worker pool, so neither policy spawns threads per batch.
//!
//! # Adaptive scheduling: the measured cost model
//!
//! With [`ExtractorConfig::batch_adaptive`](crate::config::ExtractorConfig::batch_adaptive)
//! set, the pivot is not a configured constant but is derived from a cost
//! model: intra-graph parallelism saves roughly
//! `edges · ns_per_edge · (1 - 1/threads)` nanoseconds of wall time on a
//! graph, and costs about `regions_per_extraction · region_overhead_ns`.
//! Each graph is placed on whichever side wins for *it*, keyed by its
//! **canonical** edge count ([`GraphRef::num_canonical_edges`] — duplicate
//! edges and self loops on raw CSR input carry no extraction work, so they
//! must not push a graph across the pivot).
//!
//! The three model inputs are **measured**, not guessed:
//!
//! * `region_overhead_ns` is the pool's calibrated dispatch sample, keyed
//!   by the engine's thread count
//!   ([`chordal_runtime::estimated_region_overhead_ns_for`]) — a region
//!   with more participants publishes more tickets and pays more wake-ups,
//!   so a session must not reuse a sample calibrated for a different
//!   width.
//! * `ns_per_edge` and `regions_per_extraction` start at the seed
//!   constants ([`adaptive_batch_threshold_edges`] — so a fresh session's
//!   first batch pivots exactly like a feedback-free one) and then track
//!   the session's own traffic through an **EWMA**
//!   ([`SchedulerFeedback`], [`ExtractionSession::scheduler_feedback`]):
//!   fan-out runs contribute serial per-edge timings (stamped into
//!   [`ChordalResult::extract_ns`]), intra-graph runs contribute the
//!   regions they issued (delta of
//!   [`chordal_runtime::pool_regions_submitted_locally`] — thread-local,
//!   so concurrent sessions cannot cross-talk) and a serial-equivalent
//!   per-edge estimate (`elapsed · threads / edges` — an upper bound that
//!   assumes perfect scaling, deliberately erring toward the cheap
//!   failure mode; fan-out samples pull the average back down).
//!   [`ExtractionSession::effective_batch_threshold`]
//!   therefore *converges to the workload* instead of trusting
//!   compile-time constants. Disable with
//!   [`ExtractorConfig::batch_ewma`](crate::config::ExtractorConfig::batch_ewma).
//!
//! Seeding and fallback rules: a serial engine (`threads <= 1`) always
//! pivots at `usize::MAX` — it has nothing to win from intra-graph regions
//! — regardless of feedback; a session with no recorded samples uses the
//! seeded calibration model; graphs below a small floor contribute no
//! samples (their timings are noise).
//!
//! # Intra-batch rebalancing
//!
//! `extract_batch` does not commit placement up front. The fan-out set is
//! drained from a shared cursor by the submitting thread and the pool
//! workers together, and when the pool reports idle workers
//! ([`chordal_runtime::pool_idle_workers`]) while the remaining unclaimed
//! tail is too short to occupy them (`remaining ≤ min(idle, threads-1)`),
//! the submitting thread *promotes* that tail: the promoted graphs run
//! intra-graph after the fan-out region, where every idle worker can help,
//! instead of serially on one worker each while the rest of the pool sits
//! parked. Promotion only moves *where* a graph runs — the fan-out and
//! intra-graph paths are slot-identical for deterministic configurations,
//! so rebalancing can never change extraction output (locked down by
//! `tests/pool_scheduling.rs` across the pool-size matrix). Disable with
//! [`ExtractorConfig::batch_rebalance`](crate::config::ExtractorConfig::batch_rebalance);
//! promoted-graph totals are visible in [`SchedulerFeedback::rebalanced`].

use crate::config::ExtractorConfig;
use crate::extractor::{Algorithm, ChordalExtractor};
use crate::result::ChordalResult;
use crate::workspace::Workspace;
use chordal_graph::GraphRef;
use chordal_runtime::Engine;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Seed for the measured `ns_per_edge` feedback: approximate serial
/// extraction work per (undirected) edge for Algorithm 1 on cache-resident
/// R-MAT-like inputs. Only the order of magnitude matters — the EWMA
/// replaces it as soon as the session has seen real traffic, and the pivot
/// clamp absorbs the rest.
const ADAPTIVE_NS_PER_EDGE: u64 = 25;

/// Seed for the measured `regions_per_extraction` feedback: parallel
/// regions one intra-graph extraction typically issues (an init sweep, a
/// few iterations of queue processing plus next-queue collection, and the
/// final edge materialisation).
const ADAPTIVE_REGIONS_PER_EXTRACTION: u64 = 12;

/// Lower clamp of the adaptive pivot: below this, even a free region could
/// not amortise against cache and queue effects.
const ADAPTIVE_MIN_THRESHOLD_EDGES: usize = 1_024;

/// Upper clamp of the adaptive pivot: graphs this large always benefit
/// from intra-graph parallelism on any machine we target.
const ADAPTIVE_MAX_THRESHOLD_EDGES: usize = 1 << 20;

/// EWMA smoothing factor of the measured-cost feedback: each new sample
/// contributes a quarter, so a handful of batches converges the pivot
/// without letting one noisy timing yank it around.
const EWMA_ALPHA: f64 = 0.25;

/// Graphs below this canonical edge count contribute no feedback samples:
/// their extractions finish in microseconds and the per-edge quotient is
/// dominated by timer and scheduling noise.
const FEEDBACK_MIN_EDGES: usize = 256;

/// Clamp for one `ns_per_edge` feedback sample, so a degenerate timing
/// (preempted thread, page faults) cannot poison the EWMA.
const FEEDBACK_NS_PER_EDGE_RANGE: (f64, f64) = (0.05, 100_000.0);

/// Computes the *seeded* adaptive batch pivot for an engine with `threads`
/// workers: [`adaptive_batch_threshold_from_model`] evaluated at the seed
/// constants. This is what a session without recorded feedback (its first
/// batch) uses; with feedback, the session's EWMA replaces the constants.
///
/// A serial engine (`threads <= 1`) has no intra-graph parallelism to win
/// anything with — every region it would issue is pure scheduling overhead
/// — so the pivot is `usize::MAX`: every graph takes the fan-out
/// (sequential) path, no graph is ever placed intra-graph.
pub fn adaptive_batch_threshold_edges(threads: usize) -> usize {
    adaptive_batch_threshold_from_model(
        threads,
        ADAPTIVE_NS_PER_EDGE as f64,
        ADAPTIVE_REGIONS_PER_EXTRACTION as f64,
    )
}

/// Computes the adaptive batch pivot for an engine with `threads` workers
/// from explicit cost-model inputs: the canonical edge count above which a
/// graph's estimated parallel win (`edges · ns_per_edge · (1 - 1/threads)`)
/// exceeds the scheduling cost of the regions an intra-graph extraction
/// issues (`regions_per_extraction` · the pool's calibrated per-region
/// overhead for `threads`-participant regions). Clamped to a sane range so
/// a noisy calibration or feedback sample cannot produce a degenerate
/// policy; `usize::MAX` for serial engines (see
/// [`adaptive_batch_threshold_edges`]).
///
/// This is the function the session's measured-cost feedback loop
/// evaluates at its EWMA state; callers can use it to inspect what pivot a
/// hypothetical workload shape would produce.
pub fn adaptive_batch_threshold_from_model(
    threads: usize,
    ns_per_edge: f64,
    regions_per_extraction: f64,
) -> usize {
    if threads <= 1 {
        return usize::MAX;
    }
    let overhead_ns = chordal_runtime::estimated_region_overhead_ns_for(threads).max(1) as f64;
    let t = threads as f64;
    let win_per_edge_ns = (ns_per_edge * (1.0 - 1.0 / t)).max(1e-3);
    let region_cost_ns = overhead_ns * regions_per_extraction.max(1.0);
    let pivot = region_cost_ns / win_per_edge_ns;
    if !pivot.is_finite() {
        return ADAPTIVE_MAX_THRESHOLD_EDGES;
    }
    (pivot as usize).clamp(ADAPTIVE_MIN_THRESHOLD_EDGES, ADAPTIVE_MAX_THRESHOLD_EDGES)
}

/// Observable state of a session's measured-cost scheduling feedback.
///
/// `ewma_*` fields start at the seed constants and move toward the
/// session's own measurements batch by batch (`samples` counts recorded
/// measurements; while it is zero the seeded model is in effect and
/// [`ExtractionSession::effective_batch_threshold`] equals
/// [`adaptive_batch_threshold_edges`]). `rebalanced` counts fan-out graphs
/// the intra-batch rebalancer has promoted to intra-graph runs over the
/// session's lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerFeedback {
    /// EWMA of measured serial-equivalent extraction cost per canonical
    /// edge, in nanoseconds.
    pub ewma_ns_per_edge: f64,
    /// EWMA of parallel regions issued per intra-graph extraction.
    pub ewma_regions_per_extraction: f64,
    /// Feedback samples recorded so far (0 = seeded model in effect).
    pub samples: u64,
    /// The most recent `ns_per_edge` sample (0 before the first sample);
    /// tests use it to bound how far the EWMA may sit from reality.
    pub last_ns_per_edge: f64,
    /// Fan-out graphs promoted to intra-graph runs by the rebalancer,
    /// cumulative over the session.
    pub rebalanced: u64,
}

impl SchedulerFeedback {
    /// The seeded state: EWMA fields at the calibration constants, no
    /// samples recorded.
    fn seeded() -> Self {
        Self {
            ewma_ns_per_edge: ADAPTIVE_NS_PER_EDGE as f64,
            ewma_regions_per_extraction: ADAPTIVE_REGIONS_PER_EXTRACTION as f64,
            samples: 0,
            last_ns_per_edge: 0.0,
            rebalanced: 0,
        }
    }
}

/// A configured extractor paired with a reusable [`Workspace`].
pub struct ExtractionSession {
    config: ExtractorConfig,
    extractor: Box<dyn ChordalExtractor>,
    workspace: Workspace,
    feedback: SchedulerFeedback,
}

impl ExtractionSession {
    /// Builds the session for `config`, constructing the configured
    /// algorithm through the [`Algorithm`] registry.
    pub fn new(config: ExtractorConfig) -> Self {
        let extractor = config.build_extractor();
        Self {
            config,
            extractor,
            workspace: Workspace::new(),
            feedback: SchedulerFeedback::seeded(),
        }
    }

    /// Convenience constructor: the given algorithm with default settings.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        Self::new(ExtractorConfig::default().with_algorithm(algorithm))
    }

    /// The session's configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// The algorithm this session runs.
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm
    }

    /// The underlying extractor's registry name.
    pub fn extractor_name(&self) -> &'static str {
        self.extractor.name()
    }

    /// Read access to the owned workspace (its
    /// [`allocations`](Workspace::allocations) counter is how tests observe
    /// buffer reuse).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Extracts from one graph — heap-resident or mmap-backed, anything
    /// viewable as a [`GraphRef`] — reusing the session workspace. The
    /// result carries the measured wall-clock of the run
    /// ([`ChordalResult::extract_ns`]).
    pub fn extract<'a>(&mut self, graph: impl Into<GraphRef<'a>>) -> ChordalResult {
        let start = Instant::now();
        let mut result = self
            .extractor
            .extract_into(graph.into(), &mut self.workspace);
        result.set_extract_ns(start.elapsed().as_nanos() as u64);
        result
    }

    /// The session's measured-cost scheduling feedback: EWMA state, sample
    /// count and the rebalancer's promotion total.
    pub fn scheduler_feedback(&self) -> SchedulerFeedback {
        self.feedback
    }

    /// Folds one `ns_per_edge` sample (serial-equivalent nanoseconds per
    /// canonical edge) and, for intra-graph runs, a regions-per-extraction
    /// sample into the EWMA state. Tiny graphs are rejected — their
    /// quotients are timer noise. No-op when
    /// [`batch_ewma`](crate::config::ExtractorConfig::batch_ewma) is off,
    /// so a feedback-disabled session's state stays frozen at the seed.
    fn record_sample(&mut self, edges: usize, serial_equivalent_ns: f64, regions: Option<u64>) {
        if !self.config.batch_ewma || edges < FEEDBACK_MIN_EDGES || serial_equivalent_ns <= 0.0 {
            return;
        }
        let (lo, hi) = FEEDBACK_NS_PER_EDGE_RANGE;
        let ns_per_edge = (serial_equivalent_ns / edges as f64).clamp(lo, hi);
        self.feedback.ewma_ns_per_edge =
            EWMA_ALPHA * ns_per_edge + (1.0 - EWMA_ALPHA) * self.feedback.ewma_ns_per_edge;
        self.feedback.last_ns_per_edge = ns_per_edge;
        if let Some(regions) = regions {
            // An intra-graph run that split into no regions still counts as
            // one scheduling decision.
            let regions = regions.clamp(1, 10_000) as f64;
            self.feedback.ewma_regions_per_extraction = EWMA_ALPHA * regions
                + (1.0 - EWMA_ALPHA) * self.feedback.ewma_regions_per_extraction;
        }
        self.feedback.samples += 1;
    }

    /// The batch pivot [`ExtractionSession::extract_batch`] will use:
    /// the static
    /// [`batch_threshold_edges`](crate::config::ExtractorConfig::batch_threshold_edges),
    /// or — when
    /// [`batch_adaptive`](crate::config::ExtractorConfig::batch_adaptive)
    /// is set — the measured cost model evaluated at the session's EWMA
    /// state ([`adaptive_batch_threshold_from_model`]). Before the first
    /// feedback sample (and whenever
    /// [`batch_ewma`](crate::config::ExtractorConfig::batch_ewma) is off)
    /// that is exactly the seeded estimate of
    /// [`adaptive_batch_threshold_edges`]; serial engines always pivot at
    /// `usize::MAX`.
    pub fn effective_batch_threshold(&self) -> usize {
        if self.config.batch_adaptive {
            let threads = self.config.engine.threads();
            if self.config.batch_ewma && self.feedback.samples > 0 {
                adaptive_batch_threshold_from_model(
                    threads,
                    self.feedback.ewma_ns_per_edge,
                    self.feedback.ewma_regions_per_extraction,
                )
            } else {
                adaptive_batch_threshold_edges(threads)
            }
        } else {
            self.config.batch_threshold_edges
        }
    }

    /// Extracts from every graph of a batch, in input order, under the
    /// hybrid scheduling policy.
    ///
    /// With a serial engine the graphs run back to back through the session
    /// workspace. With a parallel engine the batch is split by
    /// [`ExtractorConfig::batch_threshold_edges`](crate::config::ExtractorConfig::batch_threshold_edges):
    ///
    /// * graphs below the threshold are fanned out across the engine's
    ///   workers, each worker running the serial variant of the configured
    ///   algorithm with a worker-local workspace that is reused across the
    ///   graphs it processes (so a batch of same-shaped graphs pays one
    ///   allocation per worker, not one per graph);
    /// * graphs at or above the threshold run one at a time through
    ///   [`ExtractionSession::extract`] — the configured engine's
    ///   intra-graph parallelism and the session workspace.
    ///
    /// With
    /// [`ExtractorConfig::batch_adaptive`](crate::config::ExtractorConfig::batch_adaptive)
    /// the pivot is the measured cost model at the session's EWMA state
    /// instead of the static configuration value, and with
    /// [`ExtractorConfig::batch_rebalance`](crate::config::ExtractorConfig::batch_rebalance)
    /// the fan-out tail may be promoted to intra-graph runs when pool
    /// workers idle (see the module docs). Placement keys on each graph's
    /// *canonical* edge count ([`GraphRef::num_canonical_edges`]).
    ///
    /// Results are slot-identical to single-graph runs for every
    /// deterministic configuration, whichever side of the threshold a graph
    /// lands on and whether or not it was promoted. The batch may mix
    /// storage representations — anything convertible to [`GraphRef`]
    /// (`&CsrGraph`, `&MmapCsrGraph`, or `GraphRef` itself) schedules the
    /// same way.
    pub fn extract_batch<'a, G>(&mut self, graphs: &[G]) -> Vec<ChordalResult>
    where
        G: Into<GraphRef<'a>> + Copy,
    {
        let views: Vec<GraphRef<'a>> = graphs.iter().map(|&g| g.into()).collect();
        if views.is_empty() {
            return Vec::new();
        }
        if self.config.engine.threads() <= 1 || views.len() == 1 {
            return views.iter().map(|&g| self.extract(g)).collect();
        }
        let threads = self.config.engine.threads();
        let threshold = self.effective_batch_threshold();
        // Placement keys on the *canonical* edge count: duplicate edges and
        // self loops on raw CSR input carry no extraction work, so they
        // must not push a graph across the pivot.
        let edge_counts: Vec<usize> = views.iter().map(|g| g.num_canonical_edges()).collect();
        let small: Vec<usize> = (0..views.len())
            .filter(|&i| edge_counts[i] < threshold)
            .collect();
        let slots: Vec<OnceLock<ChordalResult>> =
            (0..views.len()).map(|_| OnceLock::new()).collect();
        // One ownership flag per fan-out item: set by whoever extracts it
        // (fan-out claimant or, for promoted tail items, the intra-graph
        // sweep below), so a promotion racing a concurrent claim can never
        // run a graph twice or drop it.
        let taken: Vec<AtomicBool> = small.iter().map(|_| AtomicBool::new(false)).collect();
        if !small.is_empty() {
            // The fan-out set is drained from this shared cursor; `mark` is
            // the promotion fence — claims at or beyond it belong to the
            // intra-graph sweep.
            let cursor = AtomicUsize::new(0);
            let mark = AtomicUsize::new(small.len());
            let rebalance = self.config.batch_rebalance;
            let submitter = std::thread::current().id();
            // Idle capacity an intra-graph region could actually recruit: a
            // region takes at most `threads - 1` helpers however many pool
            // workers are parked.
            let helper_cap = threads.saturating_sub(1);
            // Grain 1: each small graph is one schedulable unit of the
            // fan-out.
            let engine = self.config.engine.with_grain(1);
            // Worker-local extraction must not nest engine parallelism
            // inside engine parallelism, so the per-graph runs use the
            // serial engine. Pin the partition count first: "one partition
            // per engine worker" must resolve against the *configured*
            // engine, not the serial one.
            let mut serial_config = self.config.clone();
            serial_config.partitions = serial_config.effective_partitions();
            let serial_config = serial_config.with_engine(Engine::serial());
            let extractor = serial_config.build_extractor();
            thread_local! {
                /// Worker-local workspace: persists across the graphs one
                /// worker processes (and, because the workers are the
                /// persistent pool's, across batches).
                static BATCH_WORKSPACE: std::cell::RefCell<Workspace> =
                    std::cell::RefCell::new(Workspace::new());
            }
            engine.parallel_for_chunks(small.len(), |_assignment| {
                BATCH_WORKSPACE.with(|workspace| {
                    let mut workspace = workspace.borrow_mut();
                    loop {
                        // Rebalancing check, submitter only: when the
                        // unclaimed tail is too short to occupy the parked
                        // workers an intra-graph region could recruit,
                        // promote it wholesale instead of running it one
                        // worker at a time. Requires claim progress
                        // (`next > 0`): at region start every worker still
                        // looks parked because the region's own tickets
                        // have not woken them yet — promoting then would
                        // disable the fan-out outright, the opposite of
                        // what the idle hint means. After that first
                        // claim the hint is trustworthy: the push path
                        // clears a worker's sleeping flag at *publish*
                        // time (not at wake-up), so workers this region
                        // invited are never counted idle, only genuinely
                        // uninvited capacity is.
                        if rebalance && std::thread::current().id() == submitter {
                            let next = cursor.load(Ordering::SeqCst);
                            let fence = mark.load(Ordering::SeqCst);
                            if next > 0 && next < fence {
                                let remaining = fence - next;
                                let idle = chordal_runtime::pool_idle_workers().min(helper_cap);
                                if remaining <= idle {
                                    mark.fetch_min(next, Ordering::SeqCst);
                                    break;
                                }
                            }
                        }
                        let si = cursor.fetch_add(1, Ordering::SeqCst);
                        if si >= mark.load(Ordering::SeqCst) {
                            break;
                        }
                        // The cursor hands out unique indices, so the swap
                        // only guards against a promotion that raced this
                        // claim past the fence.
                        if taken[si].swap(true, Ordering::SeqCst) {
                            continue;
                        }
                        let i = small[si];
                        let start = Instant::now();
                        let mut result = extractor.extract_into(views[i], &mut workspace);
                        result.set_extract_ns(start.elapsed().as_nanos() as u64);
                        slots[i]
                            .set(result)
                            .expect("each batch slot is written exactly once");
                    }
                });
            });
        }
        // Intra-graph sweep, in input order: the graphs at or above the
        // pivot plus any fan-out tail the rebalancer promoted.
        let mut small_pos = vec![usize::MAX; views.len()];
        for (si, &i) in small.iter().enumerate() {
            small_pos[i] = si;
        }
        let mut ran_intra = vec![false; views.len()];
        for (i, &graph) in views.iter().enumerate() {
            let promoted =
                small_pos[i] != usize::MAX && !taken[small_pos[i]].swap(true, Ordering::SeqCst);
            if small_pos[i] == usize::MAX || promoted {
                if promoted {
                    self.feedback.rebalanced += 1;
                }
                // Thread-local delta: a global pool_stats() delta would
                // absorb regions concurrent sessions submitted in the same
                // window and misattribute them to this graph.
                let regions_before = chordal_runtime::pool_regions_submitted_locally();
                let result = self.extract(graph);
                let regions = chordal_runtime::pool_regions_submitted_locally() - regions_before;
                // Serial-equivalent cost estimate of a parallel run:
                // elapsed · achievable parallelism assumes perfect scaling
                // — a deliberate upper bound. Overestimating serial cost
                // can only lower the pivot (more intra placement, bounded
                // by the clamp floor and a few regions of overhead per
                // small graph); underestimating it would fan large graphs
                // out serially, the expensive direction. Fan-out samples,
                // when the batch has them, pull the average toward
                // measured serial cost; a workload whose every graph runs
                // intra has no such corrective stream and its pivot can
                // ratchet toward the clamp floor — an accepted bias,
                // because the floor bounds the damage while the opposite
                // error grows with graph size. Achievable parallelism is
                // the engine's thread count capped by the pool's real
                // capacity (workers + the submitting thread): an
                // oversubscribed engine on a small pool gets no
                // parallelism the cap doesn't deliver, and scaling by the
                // nominal count would pin the pivot at the clamp floor.
                let achievable = threads.min(chordal_runtime::pool_size() + 1);
                self.record_sample(
                    edge_counts[i],
                    result.extract_ns() as f64 * achievable as f64,
                    Some(regions),
                );
                ran_intra[i] = true;
                slots[i]
                    .set(result)
                    .expect("each batch slot is written exactly once");
            }
        }
        // Fold the fan-out timings (serial per-edge samples) into the
        // feedback, in input order.
        for &i in &small {
            if !ran_intra[i] {
                if let Some(result) = slots[i].get() {
                    self.record_sample(edge_counts[i], result.extract_ns() as f64, None);
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every batch slot was filled by a worker")
            })
            .collect()
    }
}

impl std::fmt::Debug for ExtractionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractionSession")
            .field("algorithm", &self.config.algorithm)
            .field("engine", &self.config.engine)
            .field("workspace_allocations", &self.workspace.allocations())
            .field("feedback", &self.feedback)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdjacencyMode, Semantics};
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::CsrGraph;

    #[test]
    fn session_reuse_keeps_results_identical_and_allocations_flat() {
        let g = RmatParams::preset(RmatKind::G, 8, 1).generate();
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let first = session.extract(&g);
        let allocations = session.workspace().allocations();
        for _ in 0..3 {
            let again = session.extract(&g);
            assert_eq!(again.edges(), first.edges());
        }
        assert_eq!(session.workspace().allocations(), allocations);
    }

    #[test]
    fn session_dispatches_every_algorithm() {
        let g = structured::grid(5, 5);
        for algorithm in Algorithm::ALL {
            let mut session = ExtractionSession::new(
                ExtractorConfig::serial(AdjacencyMode::Sorted).with_algorithm(algorithm),
            );
            assert_eq!(session.algorithm(), algorithm);
            assert_eq!(session.extractor_name(), algorithm.name());
            let result = session.extract(&g);
            assert!(result.num_chordal_edges() > 0, "{algorithm}");
        }
    }

    #[test]
    fn batch_results_match_single_runs_in_order() {
        let graphs: Vec<CsrGraph> = (0..6)
            .map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        // Synchronous semantics: deterministic, so serial and fanned-out
        // batches must agree exactly.
        let config = ExtractorConfig::default()
            .with_engine(chordal_runtime::Engine::pool(3))
            .with_semantics(Semantics::Synchronous);
        let mut parallel_session = ExtractionSession::new(config.clone());
        let batch = parallel_session.extract_batch(&refs);
        assert_eq!(batch.len(), graphs.len());
        let mut serial_session =
            ExtractionSession::new(config.with_engine(chordal_runtime::Engine::serial()));
        for (graph, from_batch) in graphs.iter().zip(&batch) {
            let single = serial_session.extract(graph);
            assert_eq!(single.edges(), from_batch.edges());
        }
    }

    #[test]
    fn batch_on_serial_engine_reuses_the_session_workspace() {
        let graphs: Vec<CsrGraph> = (0..4).map(|_| structured::grid(6, 6)).collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let first = session.extract_batch(&refs);
        let allocations = session.workspace().allocations();
        let second = session.extract_batch(&refs);
        assert_eq!(session.workspace().allocations(), allocations);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.edges(), b.edges());
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut session = ExtractionSession::with_algorithm(Algorithm::Dearing);
        assert!(session.extract_batch::<&CsrGraph>(&[]).is_empty());
    }

    #[test]
    fn hybrid_policy_matches_single_runs_on_both_sides_of_the_threshold() {
        // A mixed batch: scale-9 graphs are "large", scale-6 ones "small"
        // relative to the 2_000-edge pivot, so both scheduling paths run.
        let graphs: Vec<CsrGraph> = (0..3)
            .flat_map(|seed| {
                [
                    RmatParams::preset(RmatKind::Er, 9, seed).generate(),
                    RmatParams::preset(RmatKind::G, 6, seed).generate(),
                ]
            })
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let config = ExtractorConfig::default()
            .with_engine(chordal_runtime::Engine::pool(3))
            .with_semantics(Semantics::Synchronous)
            .with_batch_threshold_edges(2_000);
        assert!(graphs.iter().any(|g| g.num_edges() >= 2_000));
        assert!(graphs.iter().any(|g| g.num_edges() < 2_000));
        let batch = ExtractionSession::new(config.clone()).extract_batch(&refs);
        let mut single =
            ExtractionSession::new(config.with_engine(chordal_runtime::Engine::serial()));
        for (graph, from_batch) in graphs.iter().zip(&batch) {
            assert_eq!(single.extract(graph).edges(), from_batch.edges());
        }
    }

    #[test]
    fn threshold_extremes_recover_the_pure_policies() {
        let graphs: Vec<CsrGraph> = (0..4)
            .map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        // Rebalancing off: "pure" policies must not take the promotion
        // path, or they would not be the pure placements they claim.
        let base = ExtractorConfig::default()
            .with_engine(chordal_runtime::Engine::pool(3))
            .with_semantics(Semantics::Synchronous)
            .with_batch_rebalance(false);
        // Pure fan-out and pure intra-graph scheduling agree slot for slot
        // (synchronous semantics are schedule-independent).
        let fanned = ExtractionSession::new(base.clone().with_batch_threshold_edges(usize::MAX))
            .extract_batch(&refs);
        let intra = ExtractionSession::new(base.with_batch_threshold_edges(0)).extract_batch(&refs);
        for (a, b) in fanned.iter().zip(&intra) {
            assert_eq!(a.edges(), b.edges());
        }
    }

    #[test]
    fn intra_graph_path_reuses_the_session_workspace() {
        // threshold 0: every graph takes the intra-graph path, which runs
        // through the session workspace — so a second identical batch must
        // not allocate.
        let graphs: Vec<CsrGraph> = (0..3).map(|_| structured::grid(8, 8)).collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_engine(chordal_runtime::Engine::pool(2))
                .with_batch_threshold_edges(0),
        );
        let first = session.extract_batch(&refs);
        let allocations = session.workspace().allocations();
        let second = session.extract_batch(&refs);
        assert_eq!(session.workspace().allocations(), allocations);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.num_vertices(), b.num_vertices());
        }
    }

    #[test]
    fn adaptive_threshold_is_clamped_and_stable() {
        for threads in [2, 4, 16] {
            let t = adaptive_batch_threshold_edges(threads);
            assert!(
                (ADAPTIVE_MIN_THRESHOLD_EDGES..=ADAPTIVE_MAX_THRESHOLD_EDGES).contains(&t),
                "threads {threads}: pivot {t} out of clamp range"
            );
            // The overhead sample is memoised per thread count, so each
            // pivot is stable within a process. (It is *not* monotone in
            // `threads` any more: wider regions pay measured wake-up costs
            // of their own — that is the stale-calibration fix.)
            assert_eq!(t, adaptive_batch_threshold_edges(threads));
        }
    }

    #[test]
    fn model_pivot_tracks_its_inputs() {
        // More expensive edges push the pivot down (intra-graph pays off
        // sooner); more regions per extraction push it up.
        let cheap = adaptive_batch_threshold_from_model(4, 5.0, 12.0);
        let costly = adaptive_batch_threshold_from_model(4, 500.0, 12.0);
        assert!(costly <= cheap, "{costly} vs {cheap}");
        let lean = adaptive_batch_threshold_from_model(4, 25.0, 2.0);
        let heavy = adaptive_batch_threshold_from_model(4, 25.0, 200.0);
        assert!(lean <= heavy, "{lean} vs {heavy}");
        // Serial engines never place intra-graph, whatever the feedback.
        assert_eq!(adaptive_batch_threshold_from_model(1, 1.0, 1.0), usize::MAX);
        // The seeded convenience form is the model at the seed constants.
        assert_eq!(
            adaptive_batch_threshold_edges(3),
            adaptive_batch_threshold_from_model(
                3,
                ADAPTIVE_NS_PER_EDGE as f64,
                ADAPTIVE_REGIONS_PER_EXTRACTION as f64
            )
        );
    }

    #[test]
    fn feedback_starts_seeded_and_records_batch_samples() {
        let graphs: Vec<CsrGraph> = (0..4)
            .map(|seed| RmatParams::preset(RmatKind::Er, 9, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_engine(chordal_runtime::Engine::pool(3))
                .with_batch_adaptive(true),
        );
        let seeded = session.scheduler_feedback();
        assert_eq!(seeded.samples, 0);
        assert_eq!(seeded.ewma_ns_per_edge, ADAPTIVE_NS_PER_EDGE as f64);
        assert_eq!(
            seeded.ewma_regions_per_extraction,
            ADAPTIVE_REGIONS_PER_EXTRACTION as f64
        );
        assert_eq!(
            session.effective_batch_threshold(),
            adaptive_batch_threshold_edges(3),
            "a fresh session pivots exactly like the seeded model"
        );
        session.extract_batch(&refs);
        let fed = session.scheduler_feedback();
        assert!(
            fed.samples > 0,
            "scale-9 graphs are above the feedback floor and must record"
        );
        assert!(fed.ewma_ns_per_edge > 0.0 && fed.ewma_ns_per_edge.is_finite());
        assert!(fed.last_ns_per_edge > 0.0);
        // The reported pivot is the model evaluated at the EWMA state.
        assert_eq!(
            session.effective_batch_threshold(),
            adaptive_batch_threshold_from_model(
                3,
                fed.ewma_ns_per_edge,
                fed.ewma_regions_per_extraction
            )
        );
    }

    #[test]
    fn ewma_off_pins_the_pivot_to_the_seeded_model() {
        let graphs: Vec<CsrGraph> = (0..3)
            .map(|seed| RmatParams::preset(RmatKind::Er, 9, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_engine(chordal_runtime::Engine::pool(3))
                .with_batch_adaptive(true)
                .with_batch_ewma(false),
        );
        let pivot = session.effective_batch_threshold();
        session.extract_batch(&refs);
        session.extract_batch(&refs);
        assert_eq!(
            session.effective_batch_threshold(),
            pivot,
            "with feedback disabled the pivot must not move"
        );
    }

    #[test]
    fn rebalance_off_never_promotes() {
        let graphs: Vec<CsrGraph> = (0..6)
            .map(|seed| RmatParams::preset(RmatKind::G, 6, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_engine(chordal_runtime::Engine::pool(3))
                .with_batch_threshold_edges(usize::MAX)
                .with_batch_rebalance(false),
        );
        for _ in 0..3 {
            session.extract_batch(&refs);
        }
        assert_eq!(session.scheduler_feedback().rebalanced, 0);
    }

    #[test]
    fn adaptive_threshold_never_places_intra_graph_on_serial_engines() {
        // A 1-thread engine cannot win anything from intra-graph
        // parallelism: the pivot must be "never", not a finite value that
        // would buy pure region overhead.
        assert_eq!(adaptive_batch_threshold_edges(0), usize::MAX);
        assert_eq!(adaptive_batch_threshold_edges(1), usize::MAX);
        let serial_session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_engine(chordal_runtime::Engine::serial())
                .with_batch_adaptive(true),
        );
        assert_eq!(serial_session.effective_batch_threshold(), usize::MAX);
    }

    #[test]
    fn adaptive_sessions_report_the_calibrated_pivot() {
        let session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_engine(chordal_runtime::Engine::pool(3))
                .with_batch_threshold_edges(777)
                .with_batch_adaptive(true),
        );
        assert_eq!(
            session.effective_batch_threshold(),
            adaptive_batch_threshold_edges(3),
            "adaptive sessions must ignore the static pivot"
        );
        let static_session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_engine(chordal_runtime::Engine::pool(3))
                .with_batch_threshold_edges(777),
        );
        assert_eq!(static_session.effective_batch_threshold(), 777);
    }

    #[test]
    fn adaptive_batches_match_the_static_policy_exactly() {
        // Deterministic configs: placement must never change output, so the
        // adaptive policy agrees slot for slot with every static pivot.
        let graphs: Vec<CsrGraph> = (0..3)
            .flat_map(|seed| {
                [
                    RmatParams::preset(RmatKind::Er, 9, seed).generate(),
                    RmatParams::preset(RmatKind::G, 6, seed).generate(),
                ]
            })
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let base = ExtractorConfig::default()
            .with_engine(chordal_runtime::Engine::pool(3))
            .with_semantics(Semantics::Synchronous);
        let adaptive =
            ExtractionSession::new(base.clone().with_batch_adaptive(true)).extract_batch(&refs);
        for pivot in [0, 2_000, usize::MAX] {
            // Promotion-free static references.
            let static_batch = ExtractionSession::new(
                base.clone()
                    .with_batch_threshold_edges(pivot)
                    .with_batch_rebalance(false),
            )
            .extract_batch(&refs);
            for (i, (a, b)) in adaptive.iter().zip(&static_batch).enumerate() {
                assert_eq!(a.edges(), b.edges(), "pivot {pivot} slot {i}");
            }
        }
    }

    #[test]
    fn batch_works_for_serial_algorithms_on_parallel_engines() {
        let graphs: Vec<CsrGraph> = (0..5)
            .map(|seed| RmatParams::preset(RmatKind::B, 6, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_algorithm(Algorithm::Dearing)
                .with_engine(chordal_runtime::Engine::pool(4)),
        );
        let batch = session.extract_batch(&refs);
        for (graph, result) in graphs.iter().zip(&batch) {
            assert_eq!(
                result.edges(),
                crate::dearing::extract_dearing(graph).edges()
            );
        }
    }
}
