//! Directed graphs for delegation outcomes.

/// A directed graph on vertices `0..n` with adjacency lists.
///
/// In liquid democracy, running a delegation mechanism on a problem instance
/// induces a *delegation graph*: a directed edge `(u, v)` means voter `u`
/// delegates their vote to voter `v`. This type is the general container;
/// the mechanism-specific invariants (out-degree ≤ 1, acyclicity) live in
/// `ld-core`, which uses the analyses provided here:
///
/// * [`DiGraph::sinks`] — voters that keep their vote (weight accumulates
///   at sinks),
/// * [`DiGraph::is_acyclic`] / [`DiGraph::topological_order`] — the paper
///   requires delegation graphs of approval-based mechanisms to be acyclic
///   (guaranteed by the approval margin `α > 0`),
/// * [`DiGraph::longest_path_len`] — the paper's *partition complexity*
///   (Definition 6 calls the longest path of a recycle-sampling graph its
///   partition complexity; for delegation graphs it bounds the dependency
///   depth).
///
/// # Examples
///
/// ```
/// use ld_graph::DiGraph;
///
/// // 0 -> 2 <- 1, 3 isolated
/// let mut g = DiGraph::new(4);
/// g.add_edge(0, 2);
/// g.add_edge(1, 2);
/// assert_eq!(g.sinks(), vec![2, 3]);
/// assert!(g.is_acyclic());
/// assert_eq!(g.longest_path_len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    out: Vec<Vec<usize>>,
    m: usize,
}

impl DiGraph {
    /// Creates a directed graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Adds the directed edge `(u, v)`. Parallel edges and self-loops are
    /// permitted at this layer; higher layers enforce their own invariants.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()` or `v >= self.n()`.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(v < self.n(), "target vertex {v} out of range");
        self.out[u].push(v);
        self.m += 1;
    }

    /// Out-neighbours of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    pub fn successors(&self, u: usize) -> &[usize] {
        &self.out[u]
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.out[u].len()
    }

    /// In-degrees of all vertices.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.n()];
        for targets in &self.out {
            for &v in targets {
                indeg[v] += 1;
            }
        }
        indeg
    }

    /// Vertices with no outgoing edge (ignoring self-loops), in increasing
    /// order. In a delegation graph these are the voters who actually cast
    /// a ballot.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&v| self.out[v].iter().all(|&w| w == v))
            .collect()
    }

    /// Whether the graph contains no directed cycle (self-loops are ignored,
    /// matching the paper's "acyclic up to self cycles").
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// A topological order of the vertices, or `None` if the graph has a
    /// directed cycle. Self-loops are ignored.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.n();
        let mut indeg = vec![0usize; n];
        for (u, targets) in self.out.iter().enumerate() {
            for &v in targets {
                if v != u {
                    indeg[v] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &self.out[u] {
                if v != u {
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        queue.push(v);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Length (in edges) of the longest directed path, or `None` if the
    /// graph is cyclic. Self-loops are ignored.
    ///
    /// For a delegation graph this is the longest delegation chain, which
    /// upper-bounds the paper's partition complexity `c` of the induced
    /// recycle-sampling structure.
    pub fn longest_path(&self) -> Option<usize> {
        let order = self.topological_order()?;
        let mut dist = vec![0usize; self.n()];
        // Process in reverse topological order: dist[u] = 1 + max dist[succ].
        for &u in order.iter().rev() {
            for &v in &self.out[u] {
                if v != u {
                    dist[u] = dist[u].max(dist[v] + 1);
                }
            }
        }
        dist.into_iter().max().or(Some(0))
    }

    /// Like [`DiGraph::longest_path`] but panics on cyclic graphs; shorthand
    /// for the common case where acyclicity is already guaranteed.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a directed cycle (other than self-loops).
    pub fn longest_path_len(&self) -> usize {
        self.longest_path()
            .expect("longest_path_len called on a cyclic graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for v in 0..n.saturating_sub(1) {
            g.add_edge(v, v + 1);
        }
        g
    }

    #[test]
    fn empty_digraph() {
        let g = DiGraph::new(3);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.sinks(), vec![0, 1, 2]);
        assert!(g.is_acyclic());
        assert_eq!(g.longest_path_len(), 0);
    }

    #[test]
    fn chain_has_single_sink_and_full_path() {
        let g = chain(5);
        assert_eq!(g.sinks(), vec![4]);
        assert_eq!(g.longest_path_len(), 4);
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = chain(3);
        g.add_edge(2, 0);
        assert!(!g.is_acyclic());
        assert_eq!(g.topological_order(), None);
        assert_eq!(g.longest_path(), None);
    }

    #[test]
    fn self_loops_do_not_count_as_cycles() {
        let mut g = chain(3);
        g.add_edge(1, 1);
        assert!(g.is_acyclic());
        // A vertex with only a self-loop is a sink.
        let mut h = DiGraph::new(2);
        h.add_edge(0, 0);
        assert_eq!(h.sinks(), vec![0, 1]);
    }

    #[test]
    fn star_delegation_concentrates_on_center() {
        // Leaves 1..=4 all delegate to center 0 — the Figure 1 shape.
        let mut g = DiGraph::new(5);
        for leaf in 1..5 {
            g.add_edge(leaf, 0);
        }
        assert_eq!(g.sinks(), vec![0]);
        assert_eq!(g.in_degrees(), vec![4, 0, 0, 0, 0]);
        assert_eq!(g.longest_path_len(), 1);
    }

    #[test]
    fn topological_order_respects_edges() {
        // A deterministic pseudo-random DAG on 500 vertices (edges only
        // from lower to higher labels, so acyclic by construction). The
        // order check uses an O(n) index map rather than the O(n²)
        // `iter().position()` scan, so the test stays fast at this size.
        let n = 500;
        let mut g = DiGraph::new(n);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for u in 0..n - 1 {
            for _ in 0..3 {
                let v = u + 1 + (next() as usize) % (n - u - 1);
                g.add_edge(u, v);
            }
        }
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), n);
        let mut pos = vec![usize::MAX; n];
        for (idx, &v) in order.iter().enumerate() {
            assert_eq!(pos[v], usize::MAX, "vertex {v} repeated in order");
            pos[v] = idx;
        }
        for (u, targets) in (0..n).map(|u| (u, g.successors(u))) {
            for &v in targets {
                assert!(pos[u] < pos[v], "edge ({u},{v}) violates the order");
            }
        }
    }

    #[test]
    fn longest_path_on_dag_with_branches() {
        let mut g = DiGraph::new(6);
        // 0->1->2->3 and 0->4->3, 5 isolated.
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(0, 4);
        g.add_edge(4, 3);
        assert_eq!(g.longest_path_len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_checks_target() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 5);
    }
}
