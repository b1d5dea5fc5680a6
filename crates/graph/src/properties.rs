//! Structural graph properties used by the paper's graph restrictions.
//!
//! Section 2.1 of the paper defines graph restrictions in terms of the
//! largest degree (`Δ ≤ k`), the smallest degree (`δ ≥ k`) and completeness
//! (`K_n`); Section 6 attributes the feasibility of liquid democracy to the
//! absence of "structural asymmetry in the node degrees". This module
//! measures all of these.

use crate::traversal;
use crate::Graph;

/// Maximum degree `Δ`. Returns `None` for the empty vertex set.
pub fn max_degree(g: &Graph) -> Option<usize> {
    g.degrees().max()
}

/// Minimum degree `δ`. Returns `None` for the empty vertex set.
pub fn min_degree(g: &Graph) -> Option<usize> {
    g.degrees().min()
}

/// Whether every vertex has the same degree `d`; returns that degree.
/// A graph with fewer than one vertex is vacuously regular with degree 0.
pub fn regularity(g: &Graph) -> Option<usize> {
    let mut degs = g.degrees();
    let first = degs.next().unwrap_or(0);
    degs.all(|d| d == first).then_some(first)
}

/// Whether the graph is the complete graph `K_n`.
pub fn is_complete(g: &Graph) -> bool {
    // A simple graph with every one of the n(n − 1)/2 possible edges.
    let n = g.n();
    g.m() == n * n.saturating_sub(1) / 2
}

/// Average degree `2m / n`; 0 for the empty vertex set.
pub fn average_degree(g: &Graph) -> f64 {
    if g.n() == 0 {
        0.0
    } else {
        2.0 * g.m() as f64 / g.n() as f64
    }
}

/// The *structural-asymmetry index*: `Δ / max(δ, 1)`.
///
/// Section 6 of the paper concludes that "the types of graphs that yield
/// the best results for delegation over direct voting are graphs that do
/// not have too much structural asymmetry in terms of degrees among nodes".
/// This index is 1 for regular graphs (complete, `d`-regular, circulant) and
/// grows without bound for stars and Barabási–Albert graphs.
pub fn structural_asymmetry(g: &Graph) -> f64 {
    match (max_degree(g), min_degree(g)) {
        (Some(dmax), Some(dmin)) => dmax as f64 / dmin.max(1) as f64,
        _ => 1.0,
    }
}

/// Whether the graph is connected (see [`traversal::is_connected`]).
pub fn is_connected(g: &Graph) -> bool {
    traversal::is_connected(g)
}

/// The diameter: the longest shortest path between any two vertices.
///
/// Returns `None` for disconnected graphs or graphs with fewer than two
/// vertices. Runs BFS from every vertex (`O(n·m)`), intended for the
/// moderate sizes the experiments use.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.n() < 2 || !traversal::is_connected(g) {
        return None;
    }
    let mut best = 0usize;
    for v in 0..g.n() {
        for d in traversal::bfs_distances(g, v).into_iter().flatten() {
            best = best.max(d);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degree_extrema_on_star() {
        let g = generators::star(10);
        assert_eq!(max_degree(&g), Some(9));
        assert_eq!(min_degree(&g), Some(1));
        assert_eq!(structural_asymmetry(&g), 9.0);
    }

    #[test]
    fn complete_graph_properties() {
        let g = generators::complete(7);
        assert!(is_complete(&g));
        assert_eq!(regularity(&g), Some(6));
        assert_eq!(structural_asymmetry(&g), 1.0);
        assert!((average_degree(&g) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn incomplete_graph_is_not_complete() {
        let g = generators::cycle(5);
        assert!(!is_complete(&g));
        assert_eq!(regularity(&g), Some(2));
    }

    #[test]
    fn irregular_graph_has_no_regularity() {
        let g = generators::path(4);
        assert_eq!(regularity(&g), None);
    }

    use crate::Graph;

    #[test]
    fn trivial_graphs_are_complete() {
        assert!(is_complete(&Graph::empty(0)));
        assert!(is_complete(&Graph::empty(1)));
        assert!(!is_complete(&Graph::empty(2)));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(5)), Some(4));
        assert_eq!(diameter(&generators::cycle(6)), Some(3));
        assert_eq!(diameter(&generators::complete(7)), Some(1));
        assert_eq!(diameter(&generators::star(9)), Some(2));
        assert_eq!(diameter(&Graph::empty(1)), None);
        assert_eq!(diameter(&Graph::empty(3)), None); // disconnected
    }

    #[test]
    fn average_degree_empty_vertex_set() {
        assert_eq!(average_degree(&Graph::empty(0)), 0.0);
    }
}
