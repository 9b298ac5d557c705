//! Maximality repair — an extension beyond the paper.
//!
//! Our reproduction found that Algorithm 1's output, while always chordal,
//! is not always strictly maximal (see EXPERIMENTS.md): a vertex can reject
//! an edge against a chordal-neighbour set that is still growing, and some
//! rejected edges remain individually addable at termination. This module
//! provides a greedy post-pass that restores strict maximality: it walks the
//! rejected edges and re-adds every edge whose addition keeps the subgraph
//! chordal.
//!
//! # Strategies
//!
//! Whether a candidate edge is addable can be decided two ways, selected by
//! [`RepairStrategy`] (config field
//! [`crate::ExtractorConfig::repair_strategy`], CLI `--repair-strategy`):
//!
//! * [`RepairStrategy::Incremental`] (the default) maintains the current
//!   chordal subgraph across candidates ([`incremental`]) and answers the
//!   insertion question with an early-exit separator search —
//!   `O(deg u + deg v + explored)` per candidate, no subgraph rebuild, no
//!   per-candidate allocation. This is what makes `alg1 + repair` viable at
//!   benchmark scale.
//! * [`RepairStrategy::Scratch`] re-verifies chordality from scratch after
//!   every tentative addition (`O(V + E log Δ)` per candidate, quadratic
//!   over a pass), and re-tests every rejected candidate on every pass. It
//!   is kept as the differential-testing baseline: both strategies scan
//!   candidates in the same order and accept exactly the same edges, so
//!   their outputs are identical.
//!
//! Both strategies run through one greedy driver whose scratch state lives
//! in the [`Workspace`], so repeated repairs reuse allocations.
//!
//! # Which rejected candidates a later pass re-tests
//!
//! Accepting one edge can make an earlier rejection addable, so the greedy
//! repair makes passes until one adds nothing. With a chordal subgraph `H`
//! maintained, it re-tests a rejected candidate only when an accepted edge
//! can have changed the answer:
//!
//! > A candidate `(u, v)` rejected against a chordal `H` stays rejected in
//! > every supergraph `H' ⊇ H` with `N_H'(u) ∩ N_H'(v) = N_H(u) ∩ N_H(v)`.
//!
//! *Proof.* Rejected means `u` and `v` share a component of `H` and some
//! `u`–`v` path `P` of `H` avoids `S = N_H(u) ∩ N_H(v)` (a pair in two
//! components is always accepted). `H'` keeps every edge of `P`, and its
//! common neighbourhood of `u` and `v` is still `S`, so `P` still avoids
//! it and the separator test ([`incremental`]) rejects again. ∎
//!
//! Edges are only ever added, so `N(u) ∩ N(v)` grows only when an accepted
//! edge `(a, b)` makes `b` a new common neighbour of `a` and some
//! `x ∈ N_H(b)`, or `a` a new common neighbour of `b` and some
//! `y ∈ N_H(a)`. The repair therefore flags exactly the rejected
//! candidates `(a, x)` and `(b, y)` when it accepts `(a, b)`, and later
//! passes test only unseen and flagged candidates. The skipped tests are
//! ones a full rescan would answer "rejected" again, so the outcome — the
//! edge set, the order of `added`, `examined` — is the full rescan's for
//! every input.
//!
//! The rule needs a chordal `H`, which the scratch strategy does not
//! assume: on a non-chordal base, accepting a chord can repair a cycle far
//! from `u` and `v`. The scratch strategy therefore re-tests every rejected
//! candidate on every pass, and remains the differential oracle.
//!
//! # Result metadata
//!
//! [`repair_result_with`] counts the repair pass as one extra iteration of
//! the repaired [`ChordalResult`] and — when per-iteration stats were
//! recorded — appends one aggregate record (`examined` candidates,
//! `added` edges), keeping the invariants
//! `stats.iterations() == result.iterations` and
//! `stats.total_edges() == result.num_chordal_edges()` intact for repaired
//! results.

pub mod incremental;

use crate::error::ExtractError;
use crate::repair::incremental::{IncrementalChordal, RepairMarks, RepairScratch, Slot};
use crate::result::ChordalResult;
use crate::verify::is_chordal;
use crate::workspace::Workspace;
use chordal_graph::subgraph::edge_subgraph;
use chordal_graph::{Edge, GraphRef, VertexId};

/// How the repair pass decides whether a candidate edge is addable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RepairStrategy {
    /// Maintain the chordal subgraph incrementally and answer each
    /// candidate with the separator test (see [`incremental`]). Falls back
    /// to [`RepairStrategy::Scratch`] when the input edge set is not
    /// chordal (the partitioned baseline can produce such sets).
    #[default]
    Incremental,
    /// Rebuild the subgraph and re-verify chordality from scratch per
    /// candidate. Quadratic; kept for differential testing.
    Scratch,
}

impl RepairStrategy {
    /// Short label used in CLI/bench output.
    pub fn label(self) -> &'static str {
        match self {
            RepairStrategy::Incremental => "incremental",
            RepairStrategy::Scratch => "scratch",
        }
    }

    /// Parses a strategy name as accepted by front ends.
    pub fn parse(name: &str) -> Result<Self, ExtractError> {
        match name {
            "incremental" | "incr" => Ok(RepairStrategy::Incremental),
            "scratch" => Ok(RepairStrategy::Scratch),
            other => Err(ExtractError::invalid_option("repair-strategy", other)),
        }
    }
}

impl std::fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of a repair pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// The augmented, still-chordal edge set.
    pub edges: Vec<Edge>,
    /// Edges that were added on top of the input edge set.
    pub added: Vec<Edge>,
    /// Number of *distinct* rejected edges examined.
    pub examined: usize,
}

/// Greedily adds rejected edges back while chordality is preserved, using
/// the [`RepairStrategy::Scratch`] baseline and a throwaway [`Workspace`].
///
/// `limit` bounds how many **distinct** candidate edges are examined
/// (`None` examines all of them); re-examining a candidate in a later
/// greedy pass does not consume budget, and candidates beyond the budget
/// are skipped rather than aborting the pass. Candidates are scanned in
/// canonical edge order, so the pass is deterministic.
///
/// Prefer [`repair_maximality_with`] (and the incremental strategy) for
/// repeated or large-scale repairs.
pub fn repair_maximality<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
    limit: Option<usize>,
) -> RepairOutcome {
    repair_maximality_with(
        graph,
        chordal_edges,
        limit,
        RepairStrategy::Scratch,
        &mut Workspace::new(),
    )
}

/// Greedily adds rejected edges back while chordality is preserved, with an
/// explicit [`RepairStrategy`] and a reusable [`Workspace`].
///
/// Both strategies scan candidates in canonical edge order, repeat greedy
/// passes until a pass adds nothing, and bound `limit` by distinct
/// candidates — so for any chordal input edge set their outputs are
/// identical edge for edge. The incremental strategy's later passes re-test
/// only the rejections an accepted edge can have unblocked (see the module
/// docs); the scratch strategy re-tests all of them. A non-chordal input
/// (possible for the partitioned baseline) makes the incremental separator
/// test and that rule inapplicable; it is detected up front and the scratch
/// strategy is used instead.
pub fn repair_maximality_with<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
    limit: Option<usize>,
    strategy: RepairStrategy,
    workspace: &mut Workspace,
) -> RepairOutcome {
    repair_with(
        graph.into(),
        chordal_edges,
        limit,
        strategy,
        workspace,
        false,
    )
}

/// [`repair_maximality_with`] without the up-front chordality certification
/// of the incremental strategy: the caller asserts that `chordal_edges`
/// induces a chordal subgraph (e.g. it is the output of an algorithm with
/// [`crate::Algorithm::guarantees_chordal`]), so no `edge_subgraph` is
/// built at all — the whole repair runs on reused [`Workspace`] buffers.
///
/// This is what [`RepairExtractor`] runs for chordality-guaranteeing inner
/// algorithms, and what steady-state timing should measure. With a
/// non-chordal input the call stays memory-safe and terminates, but the
/// incremental strategy's accept/reject answers — and hence the output —
/// are unspecified; use [`repair_maximality_with`] when the input is not
/// certified.
pub fn repair_maximality_assume_chordal<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
    limit: Option<usize>,
    strategy: RepairStrategy,
    workspace: &mut Workspace,
) -> RepairOutcome {
    repair_with(
        graph.into(),
        chordal_edges,
        limit,
        strategy,
        workspace,
        true,
    )
}

/// Shared implementation. `assume_chordal` skips the up-front chordality
/// certification of the incremental strategy; only callers that *know* the
/// input is chordal (extractors whose algorithm guarantees it) may set it.
pub(crate) fn repair_with(
    graph: GraphRef<'_>,
    chordal_edges: &[Edge],
    limit: Option<usize>,
    strategy: RepairStrategy,
    workspace: &mut Workspace,
    assume_chordal: bool,
) -> RepairOutcome {
    let mut edges: Vec<Edge> = chordal_edges
        .iter()
        .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    match strategy {
        RepairStrategy::Scratch => {
            let scratch = workspace.prepare_repair(graph.total_degree(), None);
            greedy_repair(
                graph,
                edges,
                limit,
                &mut scratch.marks,
                &mut |_, with_candidate: &[Edge]| is_chordal(&edge_subgraph(graph, with_candidate)),
            )
        }
        RepairStrategy::Incremental => {
            if !assume_chordal && !is_chordal(&edge_subgraph(graph, &edges)) {
                return repair_with(
                    graph,
                    chordal_edges,
                    limit,
                    RepairStrategy::Scratch,
                    workspace,
                    false,
                );
            }
            let scratch =
                workspace.prepare_repair(graph.total_degree(), Some(graph.num_vertices()));
            let RepairScratch { marks, incr } = scratch;
            let mut maintainer = IncrementalChordal::from_state(graph.num_vertices(), &edges, incr);
            greedy_repair(graph, edges, limit, marks, &mut maintainer)
        }
    }
}

/// Directed CSR slot of the canonical orientation of `(u, v)` in `graph`,
/// or `None` when the edge is not present.
fn edge_position(graph: GraphRef<'_>, u: VertexId, v: VertexId) -> Option<usize> {
    let neighbors = graph.neighbors(u);
    let base = graph.adjacency_start(u as usize);
    if graph.is_sorted() {
        neighbors.binary_search(&v).ok().map(|i| base + i)
    } else {
        neighbors.iter().position(|&x| x == v).map(|i| base + i)
    }
}

/// What [`greedy_repair`] asks of a repair strategy.
trait RepairOracle {
    /// Whether `candidate` is addable to the current edge set;
    /// `with_candidate` is that set with the candidate as its last element.
    /// An accepted candidate belongs to the current set from then on.
    fn try_add(&mut self, candidate: Edge, with_candidate: &[Edge]) -> bool;

    /// Neighbours of `v` in the current chordal subgraph, or `None` when
    /// the strategy does not maintain that subgraph: then nothing tells
    /// which acceptance can unblock a rejection, and every
    /// rejected candidate is re-tested on every pass.
    fn subgraph_neighbors(&self, v: VertexId) -> Option<&[VertexId]>;
}

/// The scratch strategy: a closure re-verifying the augmented edge set.
impl<F: FnMut(Edge, &[Edge]) -> bool> RepairOracle for F {
    fn try_add(&mut self, candidate: Edge, with_candidate: &[Edge]) -> bool {
        self(candidate, with_candidate)
    }

    fn subgraph_neighbors(&self, _: VertexId) -> Option<&[VertexId]> {
        None
    }
}

impl RepairOracle for IncrementalChordal<'_> {
    fn try_add(&mut self, (u, v): Edge, _: &[Edge]) -> bool {
        self.try_insert(u, v)
    }

    fn subgraph_neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        Some(self.neighbors(v))
    }
}

/// The greedy repair driver shared by both strategies: scans rejected edges
/// in canonical order, asks the oracle whether each one is addable, and
/// repeats until a pass adds nothing. Adding one edge can make a
/// previously unaddable edge addable (it may supply the chord a larger
/// cycle was missing), so the multi-pass loop is required.
///
/// When the oracle maintains the chordal subgraph `H`, a pass re-tests a
/// rejected candidate only if an edge accepted since its last test made it
/// addable again, by the unblock rule of the module docs: accepting
/// `(a, b)` flags `(a, x)` for every `x ∈ N_H(b)` and `(b, y)` for every
/// `y ∈ N_H(a)`, and nothing else. The candidates skipped are exactly ones
/// the full rescan would have rejected again, so the scan order, every
/// accept/reject answer, the pass count and the budget accounting are
/// those of a full rescan. Each pass costs one `O(|E|)` slot scan plus one
/// test per unseen or flagged candidate, and flagging costs
/// `O(deg_H a + deg_H b)` slot lookups per accepted edge. Without a
/// maintained subgraph every rejected candidate is re-tested every pass.
/// Either way each pass but the last adds an edge, so there are at most
/// `added + 1` passes.
fn greedy_repair(
    graph: GraphRef<'_>,
    mut edges: Vec<Edge>,
    limit: Option<usize>,
    marks: &mut RepairMarks,
    oracle: &mut impl RepairOracle,
) -> RepairOutcome {
    let slots = &mut marks.slots;
    for &(u, v) in &edges {
        // Edges of the input set that are not host edges (callers validate
        // separately) simply never collide with a candidate.
        if let Some(pos) = edge_position(graph, u, v) {
            slots[pos] = Slot::Retained;
        }
    }
    let mut added = Vec::new();
    let mut examined = 0usize;
    loop {
        let mut changed = false;
        for u in 0..graph.num_vertices() {
            let base = graph.adjacency_start(u);
            let u = u as VertexId;
            for (i, &v) in graph.neighbors(u).iter().enumerate() {
                if v <= u {
                    continue;
                }
                let pos = base + i;
                match slots[pos] {
                    Slot::Retained | Slot::Rejected => continue,
                    Slot::Flagged => {}
                    Slot::Unseen => {
                        // The budget bounds distinct candidates: unseen
                        // candidates beyond it are skipped, re-examinations
                        // in later passes are free.
                        if limit.is_some_and(|max| examined >= max) {
                            continue;
                        }
                        examined += 1;
                    }
                }
                edges.push((u, v));
                if oracle.try_add((u, v), &edges) {
                    slots[pos] = Slot::Retained;
                    added.push((u, v));
                    changed = true;
                    flag_unblocked(graph, slots, oracle, u, v);
                } else {
                    edges.pop();
                    // Without a maintained subgraph nothing flags this
                    // candidate later, so it stays due for a re-test.
                    slots[pos] = if oracle.subgraph_neighbors(u).is_some() {
                        Slot::Rejected
                    } else {
                        Slot::Flagged
                    };
                }
            }
        }
        if !changed {
            break;
        }
    }
    edges.sort_unstable();
    RepairOutcome {
        edges,
        added,
        examined,
    }
}

/// Flags the rejected candidates whose endpoints gained a common neighbour
/// when `(a, b)` was accepted: `(a, x)` for `x ∈ N_H(b)` and `(b, y)` for
/// `y ∈ N_H(a)`. A pair that is not a host edge has no slot and nothing to
/// flag.
fn flag_unblocked(
    graph: GraphRef<'_>,
    slots: &mut [Slot],
    oracle: &impl RepairOracle,
    a: VertexId,
    b: VertexId,
) {
    for (end, via) in [(a, b), (b, a)] {
        let Some(neighbors) = oracle.subgraph_neighbors(via) else {
            return;
        };
        for &x in neighbors {
            if x == end {
                continue;
            }
            if let Some(pos) = edge_position(graph, end.min(x), end.max(x)) {
                if slots[pos] == Slot::Rejected {
                    slots[pos] = Slot::Flagged;
                }
            }
        }
    }
}

/// Convenience wrapper operating on a [`ChordalResult`] with the default
/// strategy and a throwaway [`Workspace`]; see [`repair_result_with`].
pub fn repair_result<'a>(graph: impl Into<GraphRef<'a>>, result: &ChordalResult) -> ChordalResult {
    repair_result_with(
        graph,
        result,
        RepairStrategy::default(),
        &mut Workspace::new(),
    )
}

/// Repairs a [`ChordalResult`], returning a new result with the augmented
/// edge set. The repair pass is counted as one extra iteration, and — when
/// the inner extraction recorded per-iteration stats — one aggregate stats
/// record (`examined` candidates as the work proxy, `added.len()` edges) is
/// appended, so the repaired result keeps the stats invariants of the
/// unrepaired one.
pub fn repair_result_with<'a>(
    graph: impl Into<GraphRef<'a>>,
    result: &ChordalResult,
    strategy: RepairStrategy,
    workspace: &mut Workspace,
) -> ChordalResult {
    repair_result_impl(graph.into(), result, strategy, workspace, false)
}

pub(crate) fn repair_result_impl(
    graph: GraphRef<'_>,
    result: &ChordalResult,
    strategy: RepairStrategy,
    workspace: &mut Workspace,
    assume_chordal: bool,
) -> ChordalResult {
    let outcome = repair_with(
        graph,
        result.edges(),
        None,
        strategy,
        workspace,
        assume_chordal,
    );
    let mut stats = result.stats.clone();
    if let Some(stats) = &mut stats {
        stats.record(outcome.examined, outcome.added.len());
    }
    ChordalResult::new(
        graph.num_vertices(),
        outcome.edges,
        result.iterations + 1,
        stats,
    )
}

/// A registry-level wrapper running the maximality repair post-pass after
/// an inner extractor.
///
/// Built by [`crate::Algorithm::build`] when
/// [`crate::ExtractorConfig::repair`] is set (CLI flag `--repair`), so
/// `alg1 + repair` — strictly maximal, like the Dearing baseline — is
/// reachable through the same dispatch path as every other configuration.
/// The repair pass runs with the configured [`RepairStrategy`] and shares
/// the extraction [`Workspace`]; when the inner algorithm guarantees
/// chordal output the incremental strategy skips its up-front chordality
/// certification.
pub struct RepairExtractor {
    inner: Box<dyn crate::ChordalExtractor>,
    name: &'static str,
    strategy: RepairStrategy,
    inner_guarantees_chordal: bool,
}

impl RepairExtractor {
    /// Wraps `inner`, taking the repaired registry name for `algorithm` and
    /// the strategy the post-pass should use.
    pub fn new(
        inner: Box<dyn crate::ChordalExtractor>,
        algorithm: crate::Algorithm,
        strategy: RepairStrategy,
    ) -> Self {
        Self {
            inner,
            name: algorithm.repaired_name(),
            strategy,
            inner_guarantees_chordal: algorithm.guarantees_chordal(),
        }
    }
}

impl crate::ChordalExtractor for RepairExtractor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn extract_into(&self, graph: GraphRef<'_>, workspace: &mut crate::Workspace) -> ChordalResult {
        let result = self.inner.extract_into(graph, workspace);
        repair_result_impl(
            graph,
            &result,
            self.strategy,
            workspace,
            self.inner_guarantees_chordal,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_maximality, is_chordal};
    use crate::{extract_maximal_chordal_serial, reference::extract_reference};
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::builder::graph_from_edges;
    use chordal_graph::CsrGraph;

    #[test]
    fn repairs_the_synchronous_figure1_gap() {
        // The bulk-synchronous reference drops (2,3) from this chordal graph;
        // the repair pass puts it back.
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
        let r = extract_reference(&g);
        assert_eq!(r.num_chordal_edges(), g.num_edges() - 1);
        let repaired = repair_result(&g, &r);
        assert_eq!(repaired.num_chordal_edges(), g.num_edges());
        assert!(is_chordal(&repaired.subgraph(&g)));
    }

    #[test]
    fn repair_never_breaks_chordality_and_achieves_maximality() {
        for strategy in [RepairStrategy::Incremental, RepairStrategy::Scratch] {
            let mut workspace = Workspace::new();
            for seed in 0..3 {
                let g = RmatParams::preset(RmatKind::G, 7, seed).generate();
                let r = extract_maximal_chordal_serial(&g);
                let outcome = repair_maximality_with(&g, r.edges(), None, strategy, &mut workspace);
                let sub = edge_subgraph(&g, &outcome.edges);
                assert!(is_chordal(&sub), "{strategy} seed {seed}");
                assert!(
                    check_maximality(&g, &outcome.edges, None, 0).is_maximal(),
                    "{strategy} seed {seed}: repaired subgraph must be maximal"
                );
                assert!(outcome.edges.len() >= r.num_chordal_edges());
                assert_eq!(
                    outcome.edges.len(),
                    r.num_chordal_edges() + outcome.added.len()
                );
            }
        }
    }

    #[test]
    fn strategies_agree_edge_for_edge() {
        for seed in 0..4 {
            let g = RmatParams::preset(RmatKind::B, 7, seed).generate();
            let r = extract_maximal_chordal_serial(&g);
            let mut ws = Workspace::new();
            let incremental =
                repair_maximality_with(&g, r.edges(), None, RepairStrategy::Incremental, &mut ws);
            let scratch =
                repair_maximality_with(&g, r.edges(), None, RepairStrategy::Scratch, &mut ws);
            assert_eq!(incremental, scratch, "seed {seed}");
        }
    }

    #[test]
    fn repair_is_a_no_op_on_already_maximal_output() {
        let g = structured::cycle(8);
        let r = extract_maximal_chordal_serial(&g);
        let outcome = repair_maximality(&g, r.edges(), None);
        assert!(outcome.added.is_empty());
        assert_eq!(outcome.edges.len(), r.num_chordal_edges());
    }

    #[test]
    fn limit_bounds_distinct_examined_candidates() {
        let g = structured::grid(6, 6);
        let r = extract_maximal_chordal_serial(&g);
        for strategy in [RepairStrategy::Incremental, RepairStrategy::Scratch] {
            let mut ws = Workspace::new();
            let outcome = repair_maximality_with(&g, r.edges(), Some(3), strategy, &mut ws);
            assert!(outcome.examined <= 3, "{strategy}");
            // A zero budget examines nothing and adds nothing.
            let outcome = repair_maximality_with(&g, r.edges(), Some(0), strategy, &mut ws);
            assert_eq!(outcome.examined, 0);
            assert!(outcome.added.is_empty());
        }
    }

    #[test]
    fn limit_counts_candidates_not_reexaminations() {
        // The figure-1 gap graph: the reference drops exactly one edge, so a
        // budget of 1 must examine that single distinct candidate even
        // though the greedy loop makes a second (confirming) pass.
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
        let r = extract_reference(&g);
        let outcome = repair_maximality(&g, r.edges(), Some(1));
        assert_eq!(outcome.examined, 1);
        assert_eq!(outcome.added.len(), 1);
    }

    #[test]
    fn repaired_stats_and_iterations_stay_consistent() {
        use crate::config::{AdjacencyMode, ExtractorConfig};
        use crate::ExtractionSession;
        let g = RmatParams::preset(RmatKind::G, 7, 5).generate();
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted)
            .with_stats(true)
            .with_repair(true);
        let mut session = ExtractionSession::new(config);
        let result = session.extract(&g);
        let stats = result.stats.as_ref().expect("stats were requested");
        assert_eq!(stats.iterations(), result.iterations);
        assert_eq!(
            stats.total_edges(),
            result.num_chordal_edges(),
            "repaired stats must account for the edges the repair pass added"
        );
    }

    #[test]
    fn repeated_repairs_reuse_the_workspace() {
        let g = RmatParams::preset(RmatKind::G, 8, 2).generate();
        let r = extract_maximal_chordal_serial(&g);
        let mut ws = Workspace::new();
        let first =
            repair_maximality_with(&g, r.edges(), None, RepairStrategy::Incremental, &mut ws);
        let allocations = ws.allocations();
        let again =
            repair_maximality_with(&g, r.edges(), None, RepairStrategy::Incremental, &mut ws);
        assert_eq!(first, again);
        assert_eq!(
            ws.allocations(),
            allocations,
            "second repair of the same graph must not grow the workspace"
        );
    }

    /// Forwards to an oracle and counts the tests it answers. With
    /// `full_rescan` it hides the maintained subgraph, so the greedy loop
    /// re-tests every rejected candidate on every pass.
    struct Probe<O> {
        oracle: O,
        tests: usize,
        full_rescan: bool,
    }

    impl<O: RepairOracle> RepairOracle for Probe<O> {
        fn try_add(&mut self, candidate: Edge, with_candidate: &[Edge]) -> bool {
            self.tests += 1;
            self.oracle.try_add(candidate, with_candidate)
        }

        fn subgraph_neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
            if self.full_rescan {
                None
            } else {
                self.oracle.subgraph_neighbors(v)
            }
        }
    }

    /// Incremental repair of a chordal `base` through a [`Probe`]; returns
    /// the outcome and the number of separator tests.
    fn probed_repair(
        g: &CsrGraph,
        base: &[Edge],
        limit: Option<usize>,
        full_rescan: bool,
        ws: &mut Workspace,
    ) -> (RepairOutcome, usize) {
        let RepairScratch { marks, incr } =
            ws.prepare_repair(g.total_degree(), Some(g.num_vertices()));
        let mut probe = Probe {
            oracle: IncrementalChordal::from_state(g.num_vertices(), base, incr),
            tests: 0,
            full_rescan,
        };
        let outcome = greedy_repair(g.view(), base.to_vec(), limit, marks, &mut probe);
        (outcome, probe.tests)
    }

    #[test]
    fn unblock_rule_matches_full_rescans() {
        use crate::{ExtractionSession, ExtractorConfig};
        let mut session = ExtractionSession::new(ExtractorConfig::default());
        let mut ws = Workspace::new();
        for scale in 8..=11 {
            for kind in [RmatKind::G, RmatKind::B, RmatKind::Er] {
                for seed in 0..4 {
                    let sorted = RmatParams::preset(kind, scale, seed).generate();
                    let scrambled = sorted.with_scrambled_adjacency(seed);
                    for g in [&sorted, &scrambled] {
                        // Asynchronous Alg. 1: the base varies between runs,
                        // both repairs share it.
                        let base = session.extract(g);
                        for limit in [None, Some(0), Some(1), Some(50)] {
                            let (rule, rule_tests) =
                                probed_repair(g, base.edges(), limit, false, &mut ws);
                            let (full, full_tests) =
                                probed_repair(g, base.edges(), limit, true, &mut ws);
                            let label = format!(
                                "{kind:?}({scale}) seed {seed} sorted {} limit {limit:?}",
                                g.is_sorted()
                            );
                            assert_eq!(rule, full, "{label}");
                            assert!(rule_tests <= full_tests, "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_passes_retest_only_unblocked_candidates() {
        // A full rescan re-tests every rejected candidate on every later
        // pass: on seed 0, 70k re-tests for 583 added edges. The unblock
        // rule re-tests only candidates whose common neighbourhood an
        // accepted edge grew: about one per added edge here.
        for seed in 0..4 {
            let g = RmatParams::preset(RmatKind::B, 12, seed).generate();
            let base = extract_maximal_chordal_serial(&g);
            let mut ws = Workspace::new();
            let expected = repair_maximality_with(
                &g,
                base.edges(),
                None,
                RepairStrategy::Incremental,
                &mut ws,
            );
            let (outcome, tests) = probed_repair(&g, base.edges(), None, false, &mut ws);
            assert_eq!(outcome, expected, "seed {seed}");
            let retests = tests - outcome.examined;
            assert!(
                retests <= 4 * outcome.added.len(),
                "seed {seed}: {retests} re-tests for {} added edges ({} examined)",
                outcome.added.len(),
                outcome.examined
            );
        }
    }

    #[test]
    fn registry_built_repair_is_maximal_and_named() {
        use crate::config::{AdjacencyMode, ExtractorConfig};
        use crate::{Algorithm, ExtractionSession};
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_repair(true);
        let mut session = ExtractionSession::new(config);
        assert_eq!(session.extractor_name(), "alg1+repair");
        for seed in 0..3 {
            let g = RmatParams::preset(RmatKind::G, 7, seed).generate();
            let result = session.extract(&g);
            assert!(is_chordal(&result.subgraph(&g)), "seed {seed}");
            assert!(
                check_maximality(&g, result.edges(), None, 0).is_maximal(),
                "seed {seed}: alg1 + repair must be strictly maximal"
            );
        }
        // Repaired Dearing output is unchanged: the baseline is already
        // maximal, so the post-pass adds nothing.
        let g = structured::grid(5, 5);
        let mut dearing =
            ExtractionSession::new(ExtractorConfig::default().with_algorithm(Algorithm::Dearing));
        let mut repaired_dearing = ExtractionSession::new(
            ExtractorConfig::default()
                .with_algorithm(Algorithm::Dearing)
                .with_repair(true),
        );
        assert_eq!(repaired_dearing.extractor_name(), "dearing+repair");
        assert_eq!(
            dearing.extract(&g).edges(),
            repaired_dearing.extract(&g).edges()
        );
    }

    #[test]
    fn non_chordal_input_falls_back_to_scratch() {
        // A chordless 4-cycle as the "chordal" input: the incremental
        // strategy must detect it and produce the scratch answer.
        let g = structured::cycle(4);
        let edges: Vec<_> = g.edges().collect();
        let mut ws = Workspace::new();
        let incremental =
            repair_maximality_with(&g, &edges, None, RepairStrategy::Incremental, &mut ws);
        let scratch = repair_maximality_with(&g, &edges, None, RepairStrategy::Scratch, &mut ws);
        assert_eq!(incremental, scratch);
    }

    #[test]
    fn strategy_names_round_trip() {
        for strategy in [RepairStrategy::Incremental, RepairStrategy::Scratch] {
            assert_eq!(RepairStrategy::parse(strategy.label()).unwrap(), strategy);
            assert_eq!(strategy.to_string(), strategy.label());
        }
        assert_eq!(
            RepairStrategy::parse("incr").unwrap(),
            RepairStrategy::Incremental
        );
        assert!(RepairStrategy::parse("magic").is_err());
        assert_eq!(RepairStrategy::default(), RepairStrategy::Incremental);
    }

    #[test]
    fn repaired_names_cover_the_registry() {
        use crate::Algorithm;
        for algorithm in Algorithm::ALL {
            let repaired = algorithm.repaired_name();
            assert!(repaired.starts_with(algorithm.name()));
            assert!(repaired.ends_with("+repair"));
        }
    }
}
