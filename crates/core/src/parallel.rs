//! The paper's Algorithm 1: multithreaded maximal chordal subgraph
//! extraction.
//!
//! # Shared state and synchronisation
//!
//! The extraction keeps, for every vertex `w`:
//!
//! * `lp[w]` — the current lowest parent (an [`AtomicU32`]);
//! * `cursor[w]` — for the Opt variant, the index of the current parent in
//!   `w`'s sorted adjacency list;
//! * `C[w]` — the chordal-neighbour set, stored in a CSR-shaped arena of
//!   [`AtomicU32`] sized by `w`'s degree with a published length `clen[w]`.
//!
//! All of that state lives in a caller-supplied [`Workspace`]
//! ([`ChordalExtractor::extract_into`]), so repeated extractions over
//! same-sized graphs reuse the buffers instead of reallocating them.
//!
//! Within one iteration, vertex `w` is processed by exactly one task: the
//! one handling `v = LP[w]` (lowest parents are unique). That task is the
//! only writer of `C[w]`, `cursor[w]` and `lp[w]` during the iteration, so
//! plain relaxed stores suffice for the data and a release store on the
//! published length (or the lowest-parent word, for the asynchronous
//! semantics) transfers ownership to whoever observes it next.
//!
//! The subset test `C[w] ⊆ C[v]` reads *another* vertex's set. Under
//! [`Semantics::Synchronous`] the reader uses the length of `C[v]` frozen at
//! the start of the iteration (the prefix below that length is immutable —
//! sets are append-only), which makes the algorithm entirely deterministic:
//! every engine, thread count and schedule returns the same edge set as
//! [`crate::reference::extract_reference`]. Under the default
//! [`Semantics::Asynchronous`] the reader observes the live length, which
//! matches the paper's "asynchronous update" wording; the output is still a
//! maximal chordal subgraph but the exact edge set may vary between runs.

use crate::config::{AdjacencyMode, ExtractorConfig, Semantics};
use crate::extractor::ChordalExtractor;
use crate::parent::{first_parent_scan, first_parent_sorted, next_parent_scan, next_parent_sorted};
use crate::result::ChordalResult;
use crate::stats::IterationStats;
use crate::workspace::Workspace;
use chordal_graph::{GraphRef, VertexId, NO_VERTEX};
use chordal_runtime::AtomicFlags;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Multithreaded maximal chordal subgraph extractor (Algorithm 1 of the
/// paper).
#[derive(Debug, Clone)]
pub struct MaximalChordalExtractor {
    config: ExtractorConfig,
}

impl MaximalChordalExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: ExtractorConfig) -> Self {
        Self { config }
    }

    /// The extractor's configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Extracts a maximal chordal subgraph of `graph` with a throwaway
    /// workspace. Prefer [`crate::ExtractionSession`] (or
    /// [`ChordalExtractor::extract_into`]) when extracting repeatedly.
    pub fn extract<'a>(&self, graph: impl Into<GraphRef<'a>>) -> ChordalResult {
        let mut workspace = Workspace::new();
        self.extract_into(graph.into(), &mut workspace)
    }

    fn run(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult {
        let n = graph.num_vertices();
        if n == 0 {
            return ChordalResult::new(
                0,
                Vec::new(),
                0,
                self.config.record_stats.then(IterationStats::new),
            );
        }
        let engine = &self.config.engine;
        workspace.prepare_atomic_from(graph);
        // Reusable frozen snapshots for the synchronous semantics; taken out
        // of the workspace so the shared state can borrow it immutably.
        let mut frozen_lp = std::mem::take(&mut workspace.ids_a);
        let mut frozen_clen = std::mem::take(&mut workspace.ids_b);
        frozen_lp.clear();
        frozen_clen.clear();

        let state = SharedState::borrowed(workspace, n, graph.num_directed_edges());
        let flags = workspace.flags();

        // Initialisation: every vertex determines its lowest parent; the
        // initial queue holds each distinct lowest parent once.
        let adjacency = self.config.adjacency;
        let mut queue: Vec<VertexId> = engine.parallel_collect(n, |v_idx, out| {
            let v = v_idx as VertexId;
            let parent = match adjacency {
                AdjacencyMode::Sorted => {
                    let (p, cur) = first_parent_sorted(graph, v);
                    state.cursor[v_idx].store(cur, Ordering::Relaxed);
                    p
                }
                AdjacencyMode::Unsorted => first_parent_scan(graph, v),
            };
            if parent != NO_VERTEX {
                state.lp[v_idx].store(parent, Ordering::Relaxed);
                if flags.test_and_set(parent as usize) {
                    out.push(parent);
                }
            }
        });

        let mut stats = self.config.record_stats.then(IterationStats::new);
        let semantics = self.config.semantics;
        let mut iterations = 0usize;

        while !queue.is_empty() {
            iterations += 1;
            flags.clear_all();
            // Process lowest parents in ascending id order. Under the
            // asynchronous semantics this is what lets a vertex walk through
            // several parents in one iteration (its next parent always has a
            // larger id, so it is scheduled later in the same sweep whenever
            // it is present in the queue) — the behaviour behind the paper's
            // ~3-iteration observation on R-MAT inputs. Under the
            // synchronous semantics ordering is irrelevant to the result.
            queue.sort_unstable();
            if semantics == Semantics::Synchronous {
                state.snapshot_into(&mut frozen_lp, &mut frozen_clen);
            }
            let edges_this_iteration = AtomicUsize::new(0);
            let record = stats.is_some();

            let next_queue: Vec<VertexId> = engine.parallel_collect(queue.len(), |qi, out| {
                let v = queue[qi];
                let accepted = process_lowest_parent(
                    graph,
                    &state,
                    adjacency,
                    semantics,
                    &frozen_lp,
                    &frozen_clen,
                    flags,
                    v,
                    out,
                );
                if record && accepted > 0 {
                    edges_this_iteration.fetch_add(accepted, Ordering::Relaxed);
                }
            });

            if let Some(s) = stats.as_mut() {
                s.record(queue.len(), edges_this_iteration.load(Ordering::Relaxed));
            }
            queue = next_queue;
        }

        // Materialise EC from the chordal-neighbour sets: every entry of
        // C[w] is a (parent, w) edge.
        let edges: Vec<(VertexId, VertexId)> = engine.parallel_collect(n, |w_idx, out| {
            let w = w_idx as VertexId;
            let len = state.clen[w_idx].load(Ordering::Acquire) as usize;
            let base = state.offsets[w_idx];
            for i in 0..len {
                let parent = state.cdata[base + i].load(Ordering::Relaxed);
                out.push((parent, w));
            }
        });

        // Return the snapshot buffers to the workspace for the next run.
        workspace.ids_a = frozen_lp;
        workspace.ids_b = frozen_clen;

        ChordalResult::new(n, edges, iterations, stats)
    }
}

impl ChordalExtractor for MaximalChordalExtractor {
    fn name(&self) -> &'static str {
        "alg1"
    }

    /// Extracts a maximal chordal subgraph of `graph`, reusing `workspace`.
    ///
    /// For [`AdjacencyMode::Sorted`] the graph's adjacency lists must be
    /// sorted ascending; if they are not, a sorted copy is made (the cost of
    /// that copy is *not* what the paper's Opt timings include, so
    /// benchmarks pre-sort their inputs).
    fn extract_into(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult {
        if self.config.adjacency == AdjacencyMode::Sorted && !graph.is_sorted() {
            let mut sorted = graph.to_csr_graph();
            sorted.sort_adjacency();
            return self.run(GraphRef::from(&sorted), workspace);
        }
        self.run(graph, workspace)
    }
}

/// Processes one queue entry `v`: examines every neighbour `w` whose current
/// lowest parent is `v`, runs the subset test, possibly accepts the edge and
/// advances `w`'s lowest parent. Returns the number of edges accepted.
#[allow(clippy::too_many_arguments)]
fn process_lowest_parent(
    graph: GraphRef<'_>,
    state: &SharedState<'_>,
    adjacency: AdjacencyMode,
    semantics: Semantics,
    frozen_lp: &[VertexId],
    frozen_clen: &[u32],
    flags: &AtomicFlags,
    v: VertexId,
    out: &mut Vec<VertexId>,
) -> usize {
    let v_idx = v as usize;
    let mut accepted = 0usize;
    for &w in graph.neighbors(v) {
        let w_idx = w as usize;
        let is_mine = match semantics {
            Semantics::Synchronous => frozen_lp[w_idx] == v,
            Semantics::Asynchronous => state.lp[w_idx].load(Ordering::Acquire) == v,
        };
        if !is_mine {
            continue;
        }
        // We are the unique owner of w for this step.
        let len_w = state.clen[w_idx].load(Ordering::Relaxed) as usize;
        let len_v = match semantics {
            Semantics::Synchronous => frozen_clen[v_idx] as usize,
            Semantics::Asynchronous => state.clen[v_idx].load(Ordering::Acquire) as usize,
        };
        if state.subset(w_idx, len_w, v_idx, len_v) {
            // C[w] ← C[w] ∪ {v}; the new entry is published with a release
            // store on the length so later readers see a complete prefix.
            let base = state.offsets[w_idx];
            state.cdata[base + len_w].store(v, Ordering::Relaxed);
            state.clen[w_idx].store((len_w + 1) as u32, Ordering::Release);
            accepted += 1;
        }
        // Advance w's lowest parent (lines 18-22), whether or not the edge
        // was accepted.
        let next = match adjacency {
            AdjacencyMode::Sorted => {
                let cur = state.cursor[w_idx].load(Ordering::Relaxed);
                let (next, new_cur) = next_parent_sorted(graph, w, cur);
                state.cursor[w_idx].store(new_cur, Ordering::Relaxed);
                next
            }
            AdjacencyMode::Unsorted => next_parent_scan(graph, w, v),
        };
        if next != NO_VERTEX {
            state.lp[w_idx].store(next, Ordering::Release);
            if flags.test_and_set(next as usize) {
                out.push(next);
            }
        } else {
            state.lp[w_idx].store(NO_VERTEX, Ordering::Release);
        }
    }
    accepted
}

/// The shared atomic state of an extraction run, borrowed from a
/// [`Workspace`] prepared for the current graph.
struct SharedState<'a> {
    /// Current lowest parent of every vertex.
    lp: &'a [AtomicU32],
    /// Cursor of the current parent in the sorted adjacency (Opt variant).
    cursor: &'a [AtomicU32],
    /// Per-vertex offsets into `cdata` (copied from the graph's CSR offsets:
    /// a vertex can never have more chordal neighbours than its degree).
    offsets: &'a [usize],
    /// Chordal-neighbour arena.
    cdata: &'a [AtomicU32],
    /// Published length of every chordal-neighbour set.
    clen: &'a [AtomicU32],
}

impl<'a> SharedState<'a> {
    /// Borrows the prepared buffers of `workspace` for a graph with `n`
    /// vertices and `total` directed edges.
    fn borrowed(workspace: &'a Workspace, n: usize, total: usize) -> Self {
        Self {
            lp: &workspace.lp[..n],
            cursor: &workspace.cursor[..n],
            offsets: &workspace.offsets[..n + 1],
            cdata: &workspace.cdata[..total],
            clen: &workspace.clen[..n],
        }
    }

    /// Copies the lowest parents and chordal-set lengths into plain vectors;
    /// called between iterations (no concurrent writers).
    fn snapshot_into(&self, lp_out: &mut Vec<VertexId>, clen_out: &mut Vec<u32>) {
        lp_out.clear();
        lp_out.extend(self.lp.iter().map(|a| a.load(Ordering::Relaxed)));
        clen_out.clear();
        clen_out.extend(self.clen.iter().map(|a| a.load(Ordering::Relaxed)));
    }

    /// Ordered-merge subset test `C[a][..len_a] ⊆ C[b][..len_b]`. Both sets
    /// are sorted ascending because parents are accepted in increasing-id
    /// order; elements live in the atomic arena, so the shared kernel is
    /// used through its accessor form with relaxed per-element loads.
    fn subset(&self, a: usize, len_a: usize, b: usize, len_b: usize) -> bool {
        let base_a = self.offsets[a];
        let base_b = self.offsets[b];
        crate::kernels::sorted_subset_by(
            len_a,
            |i| self.cdata[base_a + i].load(Ordering::Relaxed),
            len_b,
            |j| self.cdata[base_b + j].load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::extract_reference;
    use crate::verify;
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::builder::graph_from_edges;
    use chordal_graph::CsrGraph;
    use chordal_runtime::Engine;

    fn all_engines() -> Vec<Engine> {
        vec![
            Engine::serial(),
            Engine::pool(4).with_grain(8),
            Engine::pool(4),
        ]
    }

    fn extract_with(graph: &CsrGraph, engine: Engine, adjacency: AdjacencyMode) -> ChordalResult {
        let config = ExtractorConfig::default()
            .with_engine(engine)
            .with_adjacency(adjacency)
            .with_semantics(Semantics::Synchronous)
            .with_stats(true);
        MaximalChordalExtractor::new(config).extract(graph)
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let empty = CsrGraph::empty(0);
        let r = extract_with(&empty, Engine::serial(), AdjacencyMode::Sorted);
        assert_eq!(r.num_chordal_edges(), 0);

        let isolated = CsrGraph::empty(7);
        let r = extract_with(&isolated, Engine::pool(2), AdjacencyMode::Sorted);
        assert_eq!(r.num_chordal_edges(), 0);
        assert_eq!(r.iterations, 0);

        let single_edge = graph_from_edges(2, vec![(0, 1)]);
        let r = extract_with(&single_edge, Engine::serial(), AdjacencyMode::Sorted);
        assert_eq!(r.edges(), &[(0, 1)]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn matches_reference_on_structured_graphs() {
        let graphs = vec![
            structured::path(20),
            structured::cycle(21),
            structured::complete(8),
            structured::grid(6, 7),
            structured::star(15),
            structured::complete_bipartite(5, 6),
            structured::disjoint_cliques(4, 5),
        ];
        for g in graphs {
            let expected = extract_reference(&g);
            for engine in all_engines() {
                for adjacency in [AdjacencyMode::Sorted, AdjacencyMode::Unsorted] {
                    let got = extract_with(&g, engine, adjacency);
                    assert_eq!(
                        got.edges(),
                        expected.edges(),
                        "engine={engine:?} adjacency={adjacency:?}"
                    );
                    assert_eq!(got.iterations, expected.iterations);
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_rmat_graphs() {
        for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
            let g = RmatParams::preset(kind, 9, 3).generate();
            let expected = extract_reference(&g);
            for engine in all_engines() {
                let got = extract_with(&g, engine, AdjacencyMode::Sorted);
                assert_eq!(got.edges(), expected.edges(), "{kind:?} {engine:?}");
            }
        }
    }

    #[test]
    fn output_is_chordal_on_random_inputs() {
        for seed in 0..4 {
            let g = RmatParams::preset(RmatKind::G, 8, seed).generate();
            let r = extract_with(&g, Engine::pool(4), AdjacencyMode::Sorted);
            let sub = r.subgraph(&g);
            assert!(verify::is_chordal(&sub), "seed {seed}");
            // EC is a subset of E.
            for &(u, v) in r.edges() {
                assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn clique_retained_in_k_minus_one_iterations_in_parallel() {
        let k = 7;
        let g = structured::complete(k);
        for engine in all_engines() {
            let r = extract_with(&g, engine, AdjacencyMode::Sorted);
            assert_eq!(r.num_chordal_edges(), k * (k - 1) / 2);
            assert_eq!(r.iterations, k - 1);
        }
    }

    #[test]
    fn unsorted_mode_on_scrambled_adjacency_matches_reference() {
        let g = RmatParams::preset(RmatKind::Er, 8, 11).generate();
        let scrambled = g.with_scrambled_adjacency(5);
        let expected = extract_reference(&g);
        let got = extract_with(&scrambled, Engine::pool(3), AdjacencyMode::Unsorted);
        assert_eq!(got.edges(), expected.edges());
    }

    #[test]
    fn asynchronous_serial_retains_every_edge_of_the_figure1_example() {
        // The chordal input on which the bulk-synchronous interpretation
        // drops (2,3): the paper-faithful asynchronous sweep (ascending
        // queue order) observes the intra-iteration acceptance of (1,2) and
        // keeps the whole graph.
        let g = graph_from_edges(
            6,
            vec![
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted);
        let r = MaximalChordalExtractor::new(config).extract(&g);
        assert_eq!(r.num_chordal_edges(), g.num_edges());
        assert!(verify::is_chordal(&r.subgraph(&g)));
    }

    #[test]
    fn asynchronous_serial_output_is_near_maximal_on_connected_inputs() {
        // Reproduction finding: Algorithm 1 as published is not strictly
        // maximal in every case — a vertex can reject an edge against a
        // chordal-neighbour set that is still growing (the gap in Theorem
        // 2's proof; see EXPERIMENTS.md). Empirically the output is *near*
        // maximal: only a small fraction of the rejected edges could be
        // re-added. This test pins that bound so regressions that make the
        // output substantially less maximal are caught.
        use chordal_graph::permute::apply_permutation;
        use chordal_graph::traversal::bfs_numbering;
        for seed in 0..3 {
            let g = RmatParams::preset(RmatKind::G, 7, seed).generate();
            // BFS renumbering, as the paper recommends for connectivity.
            let perm = bfs_numbering(&g);
            let g = apply_permutation(&g, &perm).unwrap();
            let config = ExtractorConfig::serial(AdjacencyMode::Sorted);
            let r = MaximalChordalExtractor::new(config).extract(&g);
            assert!(verify::is_chordal(&r.subgraph(&g)), "seed {seed}");
            let sample = 200;
            let report = verify::check_maximality(&g, r.edges(), Some(sample), seed);
            let violations = match &report {
                verify::MaximalityReport::Maximal => 0,
                verify::MaximalityReport::Violations(v) => v.len(),
            };
            assert!(
                violations * 4 <= sample,
                "seed {seed}: {violations} of {sample} sampled rejected edges could be re-added"
            );
        }
    }

    #[test]
    fn asynchronous_needs_fewer_iterations_than_synchronous() {
        // The cascading behind the paper's ~3-iteration observation: the
        // asynchronous sweep finishes a clique-rich graph in far fewer
        // iterations than the one-parent-per-iteration synchronous mode.
        let g = RmatParams::preset(RmatKind::B, 9, 5).generate();
        let sync = extract_with(&g, Engine::serial(), AdjacencyMode::Sorted);
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_stats(true);
        let async_r = MaximalChordalExtractor::new(config).extract(&g);
        assert!(
            async_r.iterations < sync.iterations,
            "async {} vs sync {}",
            async_r.iterations,
            sync.iterations
        );
    }

    #[test]
    fn asynchronous_semantics_still_produces_chordal_output() {
        let g = RmatParams::preset(RmatKind::B, 8, 2).generate();
        let config = ExtractorConfig::default()
            .with_engine(Engine::pool(4))
            .with_semantics(Semantics::Asynchronous);
        let r = MaximalChordalExtractor::new(config).extract(&g);
        assert!(verify::is_chordal(&r.subgraph(&g)));
        for &(u, v) in r.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn stats_are_recorded_and_consistent() {
        let g = structured::disjoint_cliques(3, 5);
        let r = extract_with(&g, Engine::pool(2), AdjacencyMode::Sorted);
        let stats = r.stats.as_ref().expect("stats requested");
        assert_eq!(stats.iterations(), r.iterations);
        assert_eq!(stats.total_edges(), r.num_chordal_edges());
        assert!(stats.queue_sizes[0] >= 1);
    }

    #[test]
    fn sorted_mode_transparently_sorts_unsorted_input() {
        let g = structured::grid(5, 5).with_scrambled_adjacency(9);
        assert!(!g.is_sorted());
        let r = extract_with(&g, Engine::serial(), AdjacencyMode::Sorted);
        let expected = extract_reference(&g);
        assert_eq!(r.edges(), expected.edges());
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_and_stops_allocating() {
        let extractor =
            MaximalChordalExtractor::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let mut workspace = Workspace::new();
        let graphs: Vec<CsrGraph> = (0..3)
            .map(|seed| RmatParams::preset(RmatKind::G, 8, seed).generate())
            .collect();
        // First pass warms the workspace up to the largest graph seen; the
        // second pass must neither allocate nor change any result.
        let warm: Vec<ChordalResult> = graphs
            .iter()
            .map(|g| extractor.extract_into(g.into(), &mut workspace))
            .collect();
        let allocations = workspace.allocations();
        for (g, first) in graphs.iter().zip(&warm) {
            let reused = extractor.extract_into(g.into(), &mut workspace);
            let fresh = extractor.extract(g);
            assert_eq!(reused.edges(), fresh.edges());
            assert_eq!(reused.edges(), first.edges());
        }
        assert_eq!(
            workspace.allocations(),
            allocations,
            "already-seen graph shapes must not grow the workspace"
        );
    }
}
