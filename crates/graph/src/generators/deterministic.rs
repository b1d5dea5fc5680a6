//! Deterministic graph families: complete, star, path, cycle, grid, circulant.

use crate::{Graph, GraphBuilder};

/// The complete graph `K_n`: every pair of voters is connected.
///
/// This is the paper's restriction `K_n` (§2.1) under which Algorithm 1 and
/// Theorem 2 are proved, and the topology assumed by Halpern et al. \[21\].
/// It stores no edge list: adjacency is answered arithmetically, so
/// building it is `O(1)` at any `n`.
///
/// # Examples
///
/// ```
/// let g = ld_graph::generators::complete(6);
/// assert_eq!(g.m(), 15);
/// assert!(g.degrees().all(|d| d == 5));
/// ```
pub fn complete(n: usize) -> Graph {
    Graph::complete(n)
}

/// The star `K_{1, n-1}` with the hub at vertex `n - 1`.
///
/// The hub is placed at the *highest* index because the paper orders voters
/// by competency (`p_i ≤ p_j` for `i < j`) and Figure 1's counterexample
/// puts the most competent voter (competency 2/3) at the center with every
/// leaf (competency 1/3) attached to it. With the hub at `n - 1`, assigning
/// a sorted competency profile automatically reproduces that instance.
///
/// Returns the empty graph for `n ≤ 1`.
///
/// # Examples
///
/// ```
/// let g = ld_graph::generators::star(5);
/// assert_eq!(g.degree(4), 4); // hub
/// assert_eq!(g.degree(0), 1); // leaf
/// ```
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    if n >= 2 {
        let hub = n - 1;
        for leaf in 0..hub {
            b.add_edge(leaf, hub).expect("star edges are valid");
        }
    }
    b.build()
}

/// The path `P_n`: vertices `0 — 1 — … — n-1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 0..n.saturating_sub(1) {
        b.add_edge(v, v + 1).expect("path edges are valid");
    }
    b.build()
}

/// The cycle `C_n`. Returns a path for `n < 3` (a 2-cycle would be a
/// duplicate edge in a simple graph).
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return path(n);
    }
    let mut b = GraphBuilder::with_capacity(n, n);
    for v in 0..n - 1 {
        b.add_edge(v, v + 1).expect("cycle edges are valid");
    }
    b.add_edge(n - 1, 0).expect("cycle closing edge is valid");
    b.build()
}

/// The `rows × cols` grid graph (4-neighbour lattice), a natural
/// bounded-degree (`Δ ≤ 4`) topology.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1))
                    .expect("grid edges are valid");
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c))
                    .expect("grid edges are valid");
            }
        }
    }
    b.build()
}

/// The circulant graph `C_n(offsets)`: vertex `v` is adjacent to
/// `v ± o (mod n)` for every offset `o`. A deterministic `2|offsets|`-regular
/// graph (when all offsets are distinct, nonzero, and `< n/2`).
///
/// Offsets equal to `0` or `≥ n` are ignored; the offset `n/2` (for even
/// `n`) contributes a single edge per vertex pair as required in a simple
/// graph.
///
/// # Examples
///
/// ```
/// let g = ld_graph::generators::circulant(8, &[1, 2]);
/// assert!(g.degrees().all(|d| d == 4));
/// ```
pub fn circulant(n: usize, offsets: &[usize]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &o in offsets {
        if o == 0 || o >= n {
            continue;
        }
        for v in 0..n {
            let w = (v + o) % n;
            if !b.contains_edge(v, w) && v != w {
                b.add_edge(v, w).expect("circulant edges are valid");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn complete_counts() {
        for n in 0..8 {
            let g = complete(n);
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n * n.saturating_sub(1) / 2);
        }
    }

    #[test]
    fn complete_every_pair_adjacent() {
        let g = complete(7);
        for u in 0..7 {
            for v in 0..7 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn star_hub_is_last_vertex() {
        let g = star(10);
        assert_eq!(g.degree(9), 9);
        for leaf in 0..9 {
            assert_eq!(g.degree(leaf), 1);
            assert!(g.has_edge(leaf, 9));
        }
    }

    #[test]
    fn star_degenerate_sizes() {
        assert_eq!(star(0).n(), 0);
        assert_eq!(star(1).m(), 0);
        assert_eq!(star(2).m(), 1);
    }

    #[test]
    fn path_and_cycle_shapes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(cycle(2).m(), 1); // degrades to path
        assert!(cycle(6).degrees().all(|d| d == 2));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        // edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8
        assert_eq!(g.m(), 17);
        assert!(is_connected(&g));
        assert!(g.degrees().all(|d| (2..=4).contains(&d)));
    }

    #[test]
    fn circulant_regularity() {
        let g = circulant(10, &[1, 3]);
        assert!(g.degrees().all(|d| d == 4));
        assert!(is_connected(&g));
    }

    #[test]
    fn circulant_half_offset_is_single_edge() {
        // offset n/2 pairs vertices up once; degree contribution is 1.
        let g = circulant(6, &[3]);
        assert!(g.degrees().all(|d| d == 1));
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn circulant_ignores_invalid_offsets() {
        let g = circulant(5, &[0, 5, 7]);
        assert_eq!(g.m(), 0);
    }
}
