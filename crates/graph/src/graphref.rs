//! The one borrowed view of a CSR graph.
//!
//! [`GraphRef`] is what every consumer of the graph substrate — the five
//! extraction algorithms, the repair pass, the batch scheduler — reads. It
//! is two borrowed slices (the CSR offsets at their stored width, `u32` or
//! `u64`, and the neighbor ids) plus the sorted flag, lent by whichever owner holds the
//! arrays: a heap-resident [`CsrGraph`] or an mmap-backed
//! [`MmapCsrGraph`](crate::storage::MmapCsrGraph). Every read accessor is
//! implemented here once; the owners only delegate. The view is `Copy`, so
//! worker closures capture it freely.
//!
//! Both graph references convert with `Into`:
//!
//! ```
//! use chordal_graph::{CsrGraph, GraphRef};
//! let g = CsrGraph::from_canonical_edges(3, &[(0, 1), (1, 2)]);
//! let r = GraphRef::from(&g);
//! assert_eq!(r.num_edges(), 2);
//! assert_eq!(r.neighbors(1), &[0, 2]);
//! ```

use crate::layout::Offsets;
use crate::{CsrGraph, Edge, EdgeList, VertexId};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Values derived from a graph's arrays, computed at most once per owner.
/// The mmap owner fills both from the file header at open, so they are
/// `O(1)` there; heap owners compute them on first use.
#[derive(Debug, Clone, Default)]
pub(crate) struct Derived {
    /// [`GraphRef::num_canonical_edges`].
    pub(crate) canonical_edges: OnceLock<usize>,
    /// FNV-1a 64 over the canonical binary encoding of both arrays (the
    /// `checksum` header field).
    pub(crate) checksum: OnceLock<u64>,
}

/// A borrowed view of a CSR graph, independent of where the arrays live.
///
/// All accessors take `self` by value (the view is `Copy`), which lets
/// returned slices borrow for the full underlying lifetime `'a` rather than
/// the lifetime of a `&GraphRef` temporary.
#[derive(Debug, Clone, Copy)]
pub struct GraphRef<'a> {
    offsets: Offsets<'a>,
    neighbors: &'a [VertexId],
    sorted: bool,
    derived: &'a Derived,
}

impl<'a> From<&'a CsrGraph> for GraphRef<'a> {
    #[inline]
    fn from(graph: &'a CsrGraph) -> Self {
        graph.view()
    }
}

impl<'a> From<&'a crate::storage::MmapCsrGraph> for GraphRef<'a> {
    #[inline]
    fn from(graph: &'a crate::storage::MmapCsrGraph) -> Self {
        graph.view()
    }
}

impl<'a> GraphRef<'a> {
    /// Assembles a view from an owner's arrays. `offsets` must hold
    /// `num_vertices + 1` monotone entries starting at 0 and ending at
    /// `neighbors.len()`.
    #[inline]
    pub(crate) fn new(
        offsets: Offsets<'a>,
        neighbors: &'a [VertexId],
        sorted: bool,
        derived: &'a Derived,
    ) -> Self {
        Self {
            offsets,
            neighbors,
            sorted,
            derived,
        }
    }

    /// The offsets array at its stored width.
    #[inline]
    pub(crate) fn offsets(self) -> Offsets<'a> {
        self.offsets
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges as *half the stored adjacency entries*.
    ///
    /// For graphs built through the canonicalising constructors
    /// ([`CsrGraph::from_edge_list`], [`CsrGraph::from_canonical_edges`]
    /// with genuinely canonical input) this equals the distinct edge count.
    /// For raw CSR input ([`CsrGraph::from_parts`]) the adjacency may still
    /// contain duplicate entries and self loops, which this method counts —
    /// mirroring [`crate::EdgeList::num_edges`] on a non-canonicalised
    /// list. Callers making *cost* decisions (e.g. batch placement) should
    /// use [`GraphRef::num_canonical_edges`] instead.
    #[inline]
    pub fn num_edges(self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of *distinct* undirected, non-loop edges — the canonical edge
    /// count, independent of duplicate adjacency entries or self loops that
    /// raw [`CsrGraph::from_parts`] input may carry.
    ///
    /// This is the contract quantity for workload-size decisions: the batch
    /// scheduler places graphs (fan-out vs intra-graph parallelism) on this
    /// count, so a noisy, non-canonicalised input cannot be misplaced by
    /// its duplicate edges. `O(1)` for mapped graphs (stored in the file
    /// header); heap graphs compute it on the first call — `O(V + E)`, plus
    /// a per-vertex scratch sort for unsorted adjacency — and cache it (the
    /// edge multiset never changes after construction).
    ///
    /// **Contract:** edges are counted from the *lower* endpoint's
    /// adjacency list, which is exact for symmetric adjacency — what every
    /// constructor produces and the extraction algorithms require.
    /// [`CsrGraph::from_parts`] technically admits asymmetric adjacency; an
    /// edge stored only in its higher endpoint's list is not counted.
    /// Validate such inputs with [`CsrGraph::validate_symmetry`] before
    /// relying on this count.
    pub fn num_canonical_edges(self) -> usize {
        *self
            .derived
            .canonical_edges
            .get_or_init(|| self.count_canonical_edges())
    }

    fn count_canonical_edges(self) -> usize {
        let mut count = 0usize;
        let mut scratch: Vec<VertexId> = Vec::new();
        for u in 0..self.num_vertices() as VertexId {
            if self.sorted {
                let mut prev = None;
                for &v in self.neighbors(u) {
                    if v > u && Some(v) != prev {
                        count += 1;
                    }
                    prev = Some(v);
                }
            } else {
                scratch.clear();
                scratch.extend(self.neighbors(u).iter().copied().filter(|&v| v > u));
                scratch.sort_unstable();
                scratch.dedup();
                count += scratch.len();
            }
        }
        count
    }

    /// FNV-1a 64 over the graph's canonical binary encoding: the offsets at
    /// the [`offsets_width`](crate::layout::offsets_width) of the edge
    /// count, then the neighbor ids, all little-endian. Mapped graphs
    /// report the checksum their header stores (what
    /// [`MmapCsrGraph::verify_checksum`](crate::storage::MmapCsrGraph::verify_checksum)
    /// checks the data against); heap graphs hash once and cache.
    pub(crate) fn checksum(self) -> u64 {
        *self
            .derived
            .checksum
            .get_or_init(|| crate::storage::format::checksum_sections(self))
    }

    /// Number of directed adjacency entries (twice the edge count).
    #[inline]
    pub fn num_directed_edges(self) -> usize {
        self.neighbors.len()
    }

    /// Sum of all degrees (equals `num_directed_edges`).
    #[inline]
    pub fn total_degree(self) -> usize {
        self.num_directed_edges()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(self, v: VertexId) -> usize {
        self.offsets.range(v as usize).len()
    }

    /// Neighbours of `v` as a slice borrowing the underlying storage.
    #[inline]
    pub fn neighbors(self, v: VertexId) -> &'a [VertexId] {
        &self.neighbors[self.offsets.range(v as usize)]
    }

    /// The whole neighbor id array, every adjacency list back to back.
    #[inline]
    pub fn adjacency(self) -> &'a [VertexId] {
        self.neighbors
    }

    /// Start of vertex `i`'s adjacency range in the flat neighbor array.
    /// Valid for `i` in `0..=num_vertices()`; the value at `num_vertices()`
    /// equals [`GraphRef::num_directed_edges`].
    #[inline]
    pub fn adjacency_start(self, i: usize) -> usize {
        self.offsets.get(i)
    }

    /// Whether every adjacency list is sorted ascending.
    #[inline]
    pub fn is_sorted(self) -> bool {
        self.sorted
    }

    /// The first adjacency entry that breaks ascending order, as
    /// `(vertex, position in its list)`; `None` when every list is sorted.
    pub(crate) fn first_unsorted(self) -> Option<(VertexId, usize)> {
        (0..self.num_vertices() as VertexId).find_map(|v| {
            let adj = self.neighbors(v);
            (1..adj.len())
                .find(|&i| adj[i] < adj[i - 1])
                .map(|i| (v, i))
        })
    }

    /// Tests whether the edge `{u, v}` exists. Uses binary search when the
    /// adjacency is sorted, linear scan otherwise.
    pub fn has_edge(self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        if u as usize >= n || v as usize >= n {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let adj = self.neighbors(a);
        if self.sorted {
            adj.binary_search(&b).is_ok()
        } else {
            adj.contains(&b)
        }
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(self) -> usize {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.offsets.range(v).len())
            .max()
            .unwrap_or(0)
    }

    /// Iterates over every undirected edge once, in canonical orientation
    /// `(u, v)` with `u < v`.
    pub fn edges(self) -> impl Iterator<Item = Edge> + 'a {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Collects every undirected edge into an [`EdgeList`] (canonical form).
    pub fn to_edge_list(self) -> EdgeList {
        let mut el = EdgeList::with_capacity(self.num_vertices(), self.num_edges());
        for (u, v) in self.edges() {
            el.push(u, v);
        }
        el
    }

    /// Copies both arrays into an owned heap [`CsrGraph`], keeping the
    /// offsets width and the sorted flag.
    pub fn to_csr_graph(self) -> CsrGraph {
        CsrGraph::copy_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::OffsetsWidth;
    use crate::storage::{write_binary_file, MmapCsrGraph};

    fn path4() -> CsrGraph {
        CsrGraph::from_canonical_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    /// One row per graph: the graph, its vertex count and canonical edges
    /// (ascending), its maximum degree, and vertex pairs that are *not*
    /// edges (including an out-of-range id).
    struct Case {
        graph: CsrGraph,
        num_vertices: usize,
        edges: Vec<Edge>,
        max_degree: usize,
        non_edges: Vec<Edge>,
    }

    #[test]
    fn heap_wide_and_mapped_owners_lend_identical_views() {
        let sample6_edges = vec![(0, 1), (0, 2), (0, 5), (1, 2), (2, 3), (3, 4)];
        let sample6 = CsrGraph::from_canonical_edges(6, &sample6_edges);
        let cases = [
            Case {
                graph: path4(),
                num_vertices: 4,
                edges: vec![(0, 1), (1, 2), (2, 3)],
                max_degree: 2,
                non_edges: vec![(0, 3), (0, 99)],
            },
            Case {
                graph: sample6.clone(),
                num_vertices: 6,
                edges: sample6_edges.clone(),
                max_degree: 3,
                non_edges: vec![(1, 5), (0, 99)],
            },
            Case {
                graph: sample6.with_scrambled_adjacency(5),
                num_vertices: 6,
                edges: sample6_edges,
                max_degree: 3,
                non_edges: vec![(1, 5), (4, 0)],
            },
        ];
        for (row, case) in cases.iter().enumerate() {
            let g = &case.graph;
            let m = case.edges.len();
            let wide = g.with_wide_offsets();
            assert_eq!(g.memory_breakdown().width, OffsetsWidth::U32);
            assert_eq!(wide.memory_breakdown().width, OffsetsWidth::U64);
            let path = std::env::temp_dir()
                .join(format!("chordal_graphref_{}_{row}.bin", std::process::id()));
            write_binary_file(g, &path).unwrap();
            let mapped = MmapCsrGraph::open(&path).unwrap();
            mapped.verify_checksum().unwrap();
            for (owner, r) in [
                ("heap", g.view()),
                ("wide", wide.view()),
                ("mapped", mapped.view()),
            ] {
                let at = format!("row {row}, {owner}");
                assert_eq!(r.num_vertices(), case.num_vertices, "{at}");
                assert_eq!(r.num_edges(), m, "{at}");
                assert_eq!(r.num_canonical_edges(), m, "{at}");
                assert_eq!(r.num_directed_edges(), 2 * m, "{at}");
                assert_eq!(r.total_degree(), 2 * m, "{at}");
                assert_eq!(r.is_sorted(), g.is_sorted(), "{at}");
                assert_eq!(r.max_degree(), case.max_degree, "{at}");
                assert_eq!(r.adjacency_start(0), 0, "{at}");
                assert_eq!(r.adjacency_start(case.num_vertices), 2 * m, "{at}");
                for i in 0..=case.num_vertices {
                    assert_eq!(r.adjacency_start(i), g.adjacency_start(i), "{at}");
                }
                for v in 0..case.num_vertices as VertexId {
                    let mut incident: Vec<VertexId> = case
                        .edges
                        .iter()
                        .filter_map(|&(a, b)| (a == v).then_some(b).or((b == v).then_some(a)))
                        .collect();
                    incident.sort_unstable();
                    let mut listed = r.neighbors(v).to_vec();
                    assert_eq!(listed, g.neighbors(v), "{at}: order of {v}");
                    listed.sort_unstable();
                    assert_eq!(listed, incident, "{at}: neighbors of {v}");
                    assert_eq!(r.degree(v), incident.len(), "{at}");
                }
                let mut edges: Vec<Edge> = r.edges().collect();
                assert_eq!(r.to_edge_list().edges(), edges.as_slice(), "{at}");
                edges.sort_unstable();
                assert_eq!(edges, case.edges, "{at}");
                for &(u, v) in &edges {
                    assert!(r.has_edge(u, v) && r.has_edge(v, u), "{at}");
                }
                for &(u, v) in &case.non_edges {
                    assert!(!r.has_edge(u, v), "{at}: ({u}, {v})");
                }
                assert_eq!(r.to_csr_graph(), *g, "{at}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn view_is_copy_and_into_converts() {
        fn takes<'a>(g: impl Into<GraphRef<'a>>) -> usize {
            g.into().num_edges()
        }
        let g = path4();
        let r = GraphRef::from(&g);
        let r2 = r; // Copy
        assert_eq!(r.num_edges(), r2.num_edges());
        assert_eq!(takes(&g), 3);
        assert_eq!(takes(r), 3);
    }

    #[test]
    fn to_edge_list_roundtrips() {
        let g = path4();
        let el = GraphRef::from(&g).to_edge_list();
        assert_eq!(CsrGraph::from_edge_list(&el), g);
    }
}
