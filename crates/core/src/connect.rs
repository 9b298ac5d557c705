//! Component stitching.
//!
//! Algorithm 1 can return a chordal edge set whose induced subgraph has
//! several connected components even when the input graph is connected (the
//! paper notes this happens when the vertex numbering is unfavourable, and
//! recommends a BFS numbering to avoid it). Section III describes a
//! post-pass that connects the components with one original-graph edge per
//! component pair without creating any cycle, so the combined edge set stays
//! chordal. This module implements that post-pass as a spanning forest over
//! the component graph, which generalises the paper's "successively numbered
//! components" description to inputs where consecutive components share no
//! edge.

use chordal_graph::{subgraph::edge_subgraph, traversal::connected_components, Edge, GraphRef};

/// Result of the stitching pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchResult {
    /// Edges added to connect components (a forest over components; empty if
    /// the chordal subgraph was already as connected as the host graph
    /// allows).
    pub added_edges: Vec<Edge>,
    /// Number of connected components before stitching.
    pub components_before: usize,
    /// Number of connected components after stitching.
    pub components_after: usize,
}

/// Connects the components of the chordal subgraph using edges of the host
/// graph, never creating a cycle across components. Returns the added edges
/// and the component counts before/after.
///
/// The combined edge set `chordal_edges ∪ added_edges` is still chordal:
/// every added edge joins two previously disconnected parts at the moment it
/// is (conceptually) added, so no new cycle can pass through it.
pub fn stitch_components<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
) -> StitchResult {
    let graph = graph.into();
    let sub = edge_subgraph(graph, chordal_edges);
    let comps = connected_components(&sub);
    if comps.count <= 1 {
        return StitchResult {
            added_edges: Vec::new(),
            components_before: comps.count,
            components_after: comps.count,
        };
    }
    // Union-find over chordal components; scan host edges and keep one per
    // merged pair (a spanning forest of the component graph).
    let mut parent: Vec<u32> = (0..comps.count as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    let mut added = Vec::new();
    for (u, v) in graph.edges() {
        let cu = comps.labels[u as usize];
        let cv = comps.labels[v as usize];
        if cu == cv {
            continue;
        }
        let ru = find(&mut parent, cu);
        let rv = find(&mut parent, cv);
        if ru != rv {
            parent[ru as usize] = rv;
            added.push((u, v));
        }
    }
    let components_after = comps.count - added.len();
    StitchResult {
        added_edges: added,
        components_before: comps.count,
        components_after,
    }
}

/// Convenience: returns the chordal edge set augmented with the stitching
/// edges.
pub fn stitched_edge_set<'a>(graph: impl Into<GraphRef<'a>>, chordal_edges: &[Edge]) -> Vec<Edge> {
    let mut edges = chordal_edges.to_vec();
    edges.extend(stitch_components(graph, chordal_edges).added_edges);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_chordal;
    use chordal_generators::structured;
    use chordal_graph::builder::graph_from_edges;

    #[test]
    fn already_connected_subgraph_needs_no_stitching() {
        let g = structured::path(6);
        let edges: Vec<Edge> = g.edges().collect();
        let r = stitch_components(&g, &edges);
        assert!(r.added_edges.is_empty());
        assert_eq!(r.components_before, 1);
        assert_eq!(r.components_after, 1);
    }

    #[test]
    fn two_triangles_joined_by_bridge_get_stitched() {
        let g = graph_from_edges(
            6,
            vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        // Chordal edge set missing the bridge (2,3).
        let chordal: Vec<Edge> = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        let r = stitch_components(&g, &chordal);
        assert_eq!(r.added_edges, vec![(2, 3)]);
        assert_eq!(r.components_before, 2);
        assert_eq!(r.components_after, 1);
        let stitched = stitched_edge_set(&g, &chordal);
        assert!(is_chordal(&edge_subgraph(&g, &stitched)));
    }

    #[test]
    fn stitching_never_connects_what_the_host_graph_does_not() {
        // Host graph itself has two components.
        let g = graph_from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        let chordal: Vec<Edge> = vec![(0, 1), (3, 4)];
        let r = stitch_components(&g, &chordal);
        // Components before: {0,1},{2},{3,4},{5} = 4; host graph allows
        // merging down to 2.
        assert_eq!(r.components_before, 4);
        assert_eq!(r.components_after, 2);
        assert_eq!(r.added_edges.len(), 2);
        let stitched = stitched_edge_set(&g, &chordal);
        assert!(is_chordal(&edge_subgraph(&g, &stitched)));
    }

    #[test]
    fn stitching_isolated_vertices_into_a_star() {
        let g = structured::star(5);
        // Empty chordal edge set: every vertex is its own component.
        let r = stitch_components(&g, &[]);
        assert_eq!(r.components_before, 5);
        assert_eq!(r.components_after, 1);
        assert_eq!(r.added_edges.len(), 4);
        let stitched = stitched_edge_set(&g, &[]);
        assert!(is_chordal(&edge_subgraph(&g, &stitched)));
    }

    #[test]
    fn stitched_set_remains_chordal_on_a_grid_extraction() {
        use crate::extract_maximal_chordal_serial;
        let g = structured::grid(5, 5);
        let result = extract_maximal_chordal_serial(&g);
        let stitched = stitched_edge_set(&g, result.edges());
        let sub = edge_subgraph(&g, &stitched);
        assert!(is_chordal(&sub));
        assert_eq!(connected_components(&sub).count, 1);
    }
}
