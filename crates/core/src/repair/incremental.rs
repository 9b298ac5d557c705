//! Incremental chordality maintenance for the maximality-repair pass.
//!
//! The scratch repair strategy re-verifies chordality from scratch for every
//! candidate edge: rebuild the chordal subgraph with
//! [`chordal_graph::subgraph::edge_subgraph`], rerun MCS and the
//! perfect-elimination check — `O(V + E log Δ)` work and a fresh round of
//! allocations per candidate, quadratic over a whole repair pass. This
//! module instead *maintains* the current chordal subgraph across
//! candidates and answers "does adding edge `(u, v)` preserve chordality?"
//! from the maintained structure, updating it in place when an edge is
//! accepted. All state lives in reusable [`Workspace`] buffers, so repeated
//! repairs allocate nothing once warm.
//!
//! # The insertion test
//!
//! For a chordal graph `G` and a non-adjacent vertex pair `u, v`:
//!
//! > `G + uv` is chordal **iff** `N(u) ∩ N(v)` separates `u` from `v` in
//! > `G` (vacuously true when `u` and `v` lie in different components).
//!
//! This is the separator form of Ibarra's clique-tree edge-insertion
//! condition for dynamic chordal graphs, and it follows from the classic
//! fact that `G + uv` is chordal iff every induced `u`–`v` path in `G` has
//! length exactly 2:
//!
//! * Since `G` is chordal, any chordless cycle of `G + uv` must use the new
//!   edge, i.e. it is `uv` plus an induced `u`–`v` path `P` of `G`. The
//!   cycle has length ≥ 4 exactly when `P` has length ≥ 3.
//! * An internal vertex `w` of an induced path that is adjacent to both
//!   endpoints forces the path to be `u, w, v`. So if every `u`–`v` path
//!   meets `N(u) ∩ N(v)`, every *induced* `u`–`v` path has length 2 and no
//!   chordless cycle can appear. Conversely, if some `u`–`v` path avoids
//!   `N(u) ∩ N(v)`, the induced `u`–`v` path inside its vertex set has
//!   length ≥ 3 and `G + uv` has a chordless cycle.
//!
//! (`N(u) ∩ N(v)` is automatically a clique here: two non-adjacent common
//! neighbours would close a chordless 4-cycle in `G` itself.)
//!
//! The test therefore reduces to one early-exit breadth-first search over
//! the *current* chordal subgraph that never enters `N(u) ∩ N(v)`; a
//! union-find over the subgraph's components short-circuits the
//! cross-component case in near-constant time. Per candidate this costs
//! `O(deg u + deg v + explored)` with epoch-stamped visit marks — no
//! subgraph rebuild, no MCS, no allocation.

use crate::workspace::Workspace;
use chordal_graph::{Edge, VertexId};

/// Reusable buffers of the repair pass, owned by a [`Workspace`].
///
/// Split in two so the greedy repair driver (which needs the candidate
/// marks) and the [`IncrementalChordal`] maintainer (which needs the
/// adjacency and search state) can borrow their halves independently.
#[derive(Debug, Default)]
pub(crate) struct RepairScratch {
    /// Candidate bookkeeping of the greedy driver.
    pub(crate) marks: RepairMarks,
    /// Maintained-subgraph state of the incremental strategy.
    pub(crate) incr: IncrementalState,
}

impl RepairScratch {
    /// Heap bytes retained by the repair buffers (counted from capacities).
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.marks.allocated_bytes() + self.incr.allocated_bytes()
    }
}

/// Where one candidate slot stands in the greedy repair.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Never tested; testing it counts against the repair budget (which
    /// bounds *distinct* candidates).
    Unseen,
    /// Rejected, and no edge accepted since has grown the common
    /// neighbourhood of its endpoints: a re-test would reject it again.
    Rejected,
    /// Rejected before, but due for a re-test.
    Flagged,
    /// In the current subgraph.
    Retained,
}

/// Per-candidate bookkeeping of the greedy repair: one [`Slot`] byte
/// per directed CSR slot of the host graph, indexed by the slot position of
/// the canonical `(u, v)` orientation (`u < v`).
#[derive(Debug, Default)]
pub(crate) struct RepairMarks {
    pub(crate) slots: Vec<Slot>,
}

impl RepairMarks {
    /// Sizes the marks for a host graph with `directed_edges` directed CSR
    /// slots and resets every slot to [`Slot::Unseen`]. Returns whether the
    /// buffer had to grow.
    pub(crate) fn prepare(&mut self, directed_edges: usize) -> bool {
        let grew = self.slots.capacity() < directed_edges;
        self.slots.clear();
        self.slots.resize(directed_edges, Slot::Unseen);
        grew
    }

    pub(crate) fn allocated_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

/// The maintained representation of the current chordal subgraph: adjacency
/// lists updated in place on accepted edges, the shared blocked-frontier
/// search kernel ([`crate::kernels::SeparatorSearch`]), and a union-find
/// over the subgraph's components.
#[derive(Debug, Default)]
pub(crate) struct IncrementalState {
    /// Adjacency of the current chordal subgraph.
    adj: Vec<Vec<VertexId>>,
    /// Epoch-stamped bidirectional separator search scratch.
    search: crate::kernels::SeparatorSearch,
    /// Union-find parents over the subgraph's connected components.
    comp: Vec<VertexId>,
}

impl IncrementalState {
    /// Sizes and resets the state for a subgraph over `n` vertices.
    /// Adjacency lists are cleared but keep their capacity. Returns whether
    /// a per-vertex buffer had to grow.
    pub(crate) fn prepare(&mut self, n: usize) -> bool {
        let search_grew = self.search.resize(n);
        self.search.reset();
        let mut grew = search_grew || self.comp.capacity() < n;
        self.comp.clear();
        self.comp.extend(0..n as VertexId);
        if self.adj.len() < n {
            grew = true;
            self.adj.resize_with(n, Vec::new);
        }
        for list in &mut self.adj[..n] {
            list.clear();
        }
        grew
    }

    pub(crate) fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.adj.capacity() * size_of::<Vec<VertexId>>()
            + self
                .adj
                .iter()
                .map(|l| l.capacity() * size_of::<VertexId>())
                .sum::<usize>()
            + self.search.allocated_bytes()
            + self.comp.capacity() * size_of::<VertexId>()
    }
}

/// An incrementally maintained chordal subgraph.
///
/// Holds the subgraph's adjacency plus the search scratch needed to answer
/// the edge-insertion question of the module docs, borrowing every buffer
/// from a [`Workspace`] so consecutive repairs reuse allocations. The
/// maintained edge set **must** induce a chordal graph — the separator test
/// is only meaningful then. [`IncrementalChordal::try_insert`] preserves
/// that invariant: it only ever applies insertions that keep the subgraph
/// chordal. Callers constructing a maintainer from an unverified edge set
/// should certify it first (see
/// [`crate::verify::is_chordal`]); [`crate::repair::repair_maximality_with`]
/// does exactly that and falls back to the scratch strategy when the base
/// is not chordal (the partitioned baseline can produce such sets).
pub struct IncrementalChordal<'ws> {
    state: &'ws mut IncrementalState,
    num_edges: usize,
}

impl<'ws> IncrementalChordal<'ws> {
    /// Builds a maintainer for the chordal subgraph over `num_vertices`
    /// vertices induced by `chordal_edges` (canonical, deduplicated, no
    /// self loops), borrowing scratch from `workspace`.
    pub fn new(num_vertices: usize, chordal_edges: &[Edge], workspace: &'ws mut Workspace) -> Self {
        let scratch = workspace.prepare_repair(0, Some(num_vertices));
        Self::from_state(num_vertices, chordal_edges, &mut scratch.incr)
    }

    /// Builds a maintainer on already-prepared state (see
    /// [`IncrementalState::prepare`]).
    pub(crate) fn from_state(
        n: usize,
        chordal_edges: &[Edge],
        state: &'ws mut IncrementalState,
    ) -> Self {
        debug_assert!(state.adj.len() >= n && state.comp.len() >= n);
        for &(u, v) in chordal_edges {
            state.adj[u as usize].push(v);
            state.adj[v as usize].push(u);
        }
        let mut this = Self {
            state,
            num_edges: chordal_edges.len(),
        };
        for &(u, v) in chordal_edges {
            this.union(u as usize, v as usize);
        }
        this
    }

    /// Number of edges currently in the maintained subgraph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Neighbours of `v` in the maintained subgraph, in insertion order.
    pub(crate) fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.state.adj[v as usize]
    }

    /// Whether adding `(u, v)` keeps the maintained subgraph chordal.
    /// `u` and `v` must not already be adjacent in the subgraph.
    ///
    /// Takes `&mut self` because the answer is computed with the
    /// epoch-stamped scratch; the subgraph itself is not modified.
    pub fn can_insert(&mut self, u: VertexId, v: VertexId) -> bool {
        if self.find(u as usize) != self.find(v as usize) {
            // A bridge between two components creates no cycle at all.
            return true;
        }
        self.separator_disconnects(u, v)
    }

    /// Adds `(u, v)` to the maintained subgraph without testing it.
    /// Only call after [`IncrementalChordal::can_insert`] returned `true`,
    /// otherwise the chordality invariant is silently broken.
    pub fn insert(&mut self, u: VertexId, v: VertexId) {
        self.state.adj[u as usize].push(v);
        self.state.adj[v as usize].push(u);
        self.union(u as usize, v as usize);
        self.num_edges += 1;
    }

    /// Tests `(u, v)` and inserts it when the subgraph stays chordal.
    /// Returns whether the edge was inserted.
    pub fn try_insert(&mut self, u: VertexId, v: VertexId) -> bool {
        if self.can_insert(u, v) {
            self.insert(u, v);
            true
        } else {
            false
        }
    }

    /// The separator test of the module docs for a same-component pair:
    /// does removing `N(u) ∩ N(v)` disconnect `u` from `v`?
    ///
    /// Delegates to the shared bidirectional blocked-frontier kernel with
    /// the connectivity shortcut enabled (the union-find in
    /// [`IncrementalChordal::can_insert`] has already certified the pair
    /// shares a component, so an empty common neighbourhood is an `O(deg u
    /// + deg v)` rejection — the dominant case on sparse subgraphs).
    fn separator_disconnects(&mut self, u: VertexId, v: VertexId) -> bool {
        let IncrementalState { adj, search, .. } = &mut *self.state;
        search.separates(|w| adj[w as usize].as_slice(), u, v, true)
    }

    fn find(&mut self, mut x: usize) -> usize {
        let comp = &mut self.state.comp;
        while comp[x] as usize != x {
            comp[x] = comp[comp[x] as usize];
            x = comp[x] as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.state.comp[ra] = rb as VertexId;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_chordal;
    use chordal_graph::subgraph::edge_subgraph;

    fn maintainer_on<'ws>(
        n: usize,
        edges: &[Edge],
        workspace: &'ws mut Workspace,
    ) -> IncrementalChordal<'ws> {
        IncrementalChordal::new(n, edges, workspace)
    }

    #[test]
    fn bridge_insertions_are_always_allowed() {
        // Two triangles; the bridge between them is a safe insertion.
        let edges = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        let mut ws = Workspace::new();
        let mut m = maintainer_on(6, &edges, &mut ws);
        assert!(m.can_insert(2, 3));
        assert!(m.try_insert(2, 3));
        assert_eq!(m.num_edges(), 7);
        // After the bridge, closing a 4-cycle without its chord is refused.
        assert!(!m.can_insert(1, 4));
    }

    #[test]
    fn refuses_the_chordless_four_cycle() {
        // Path 0-1-2-3: adding (0,3) closes a chordless 4-cycle, adding
        // (0,2) only a triangle.
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let mut ws = Workspace::new();
        let mut m = maintainer_on(4, &edges, &mut ws);
        assert!(!m.can_insert(0, 3));
        assert!(m.try_insert(0, 2));
        // With the chord in place the former 4-cycle closes fine.
        assert!(m.try_insert(0, 3));
    }

    #[test]
    fn agrees_with_the_scratch_oracle_on_random_graphs() {
        use chordal_generators::rmat::{RmatKind, RmatParams};
        for seed in 0..4 {
            let g = RmatParams::preset(RmatKind::G, 6, seed).generate();
            let base = crate::extract_maximal_chordal_serial(&g);
            let mut ws = Workspace::new();
            let mut m = maintainer_on(g.num_vertices(), base.edges(), &mut ws);
            let mut edges = base.edges().to_vec();
            for (u, v) in g.edges() {
                if base.contains_edge(u, v) {
                    continue;
                }
                let mut augmented = edges.clone();
                augmented.push((u, v));
                let oracle = is_chordal(&edge_subgraph(&g, &augmented));
                assert_eq!(
                    m.can_insert(u, v),
                    oracle,
                    "seed {seed}: disagreement on ({u},{v})"
                );
                if oracle {
                    m.insert(u, v);
                    edges = augmented;
                }
            }
        }
    }

    #[test]
    fn maintainer_reuses_workspace_buffers() {
        let edges = vec![(0, 1), (1, 2), (0, 2)];
        let mut ws = Workspace::new();
        {
            let mut m = maintainer_on(16, &edges, &mut ws);
            assert!(m.try_insert(3, 4));
        }
        let allocations = ws.allocations();
        {
            let mut m = maintainer_on(16, &edges, &mut ws);
            assert!(m.try_insert(3, 4));
        }
        assert_eq!(
            ws.allocations(),
            allocations,
            "second maintainer of the same shape must not allocate"
        );
    }
}
