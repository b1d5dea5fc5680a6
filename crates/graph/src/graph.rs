//! Compact undirected simple graphs with sorted adjacency lists.

use crate::error::{GraphError, Result};

/// An undirected edge, stored with `u < v`.
pub type Edge = (usize, usize);

/// A compact undirected simple graph on vertices `0..n`.
///
/// Adjacency lists are stored sorted, giving `O(log deg)` edge queries and
/// cache-friendly neighbour iteration. The complete graph `K_n` stores no
/// lists at all: its rows are every other vertex in index order, so every
/// query answers arithmetically in `O(1)` memory. The graph is immutable
/// once built; use [`GraphBuilder`] (or [`Graph::from_edges`]) to
/// construct one. Every way of building a graph that has all `n(n − 1)/2`
/// edges yields the implicit form, so `==` is structural equality.
///
/// In the liquid-democracy model a [`Graph`] is the social network `(V, E)`:
/// an edge means the two voters are aware of each other and may delegate to
/// one another (subject to the mechanism's approval rule).
///
/// # Examples
///
/// ```
/// use ld_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(0, 3));
/// assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
/// assert_eq!(g.nth_neighbor(1, 1), 2);
/// # Ok::<(), ld_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adjacency: Adjacency,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Adjacency {
    /// `K_n`: row `v` is `0..n` without `v`.
    Complete,
    /// Any graph missing at least one edge.
    Listed {
        /// CSR-style offsets into `adj`; `offsets.len() == n + 1`.
        offsets: Vec<usize>,
        /// Concatenated sorted adjacency lists.
        adj: Vec<usize>,
    },
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = ld_graph::Graph::empty(3);
    /// assert_eq!(g.n(), 3);
    /// assert_eq!(g.m(), 0);
    /// ```
    pub fn empty(n: usize) -> Self {
        Graph::listed(vec![0; n + 1], Vec::new())
    }

    /// The complete graph `K_n`, with no adjacency arena.
    pub(crate) fn complete(n: usize) -> Self {
        Graph {
            n,
            adjacency: Adjacency::Complete,
        }
    }

    /// The graph with the given sorted CSR rows, or `K_n` when the rows
    /// hold every edge (for `n ≤ 1` that is the empty row set).
    fn listed(offsets: Vec<usize>, adj: Vec<usize>) -> Self {
        let n = offsets.len() - 1;
        if adj.len() == n * n.saturating_sub(1) {
            Graph::complete(n)
        } else {
            Graph {
                n,
                adjacency: Adjacency::Listed { offsets, adj },
            }
        }
    }

    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`,
    /// [`GraphError::SelfLoop`] for an edge `(v, v)`, and
    /// [`GraphError::DuplicateEdge`] if the same undirected edge appears
    /// twice.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        b.try_build()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        match &self.adjacency {
            Adjacency::Complete => self.n * self.n.saturating_sub(1) / 2,
            Adjacency::Listed { adj, .. } => adj.len() / 2,
        }
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        match &self.adjacency {
            Adjacency::Complete => {
                assert!(v < self.n, "vertex {v} out of range for n = {}", self.n);
                self.n - 1
            }
            Adjacency::Listed { offsets, .. } => offsets[v + 1] - offsets[v],
        }
    }

    /// Iterator over the degrees of all vertices, in vertex order.
    pub fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n()).map(move |v| self.degree(v))
    }

    /// Whether the undirected edge `{u, v}` is present.
    ///
    /// Runs in `O(log deg(u))`, and in `O(1)` on `K_n`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        match &self.adjacency {
            Adjacency::Complete => {
                assert!(u < self.n, "vertex {u} out of range for n = {}", self.n);
                v != u && v < self.n
            }
            Adjacency::Listed { offsets, adj } => {
                adj[offsets[u]..offsets[u + 1]].binary_search(&v).is_ok()
            }
        }
    }

    /// Iterator over the neighbours of `v`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> Neighbors<'_> {
        let inner = match &self.adjacency {
            Adjacency::Complete => NeighborsInner::Complete {
                rows: 0..self.degree(v),
                skip: v,
            },
            Adjacency::Listed { offsets, adj } => {
                NeighborsInner::Listed(adj[offsets[v]..offsets[v + 1]].iter())
            }
        };
        Neighbors { inner }
    }

    /// The neighbour at position `k` of `v`'s sorted row, i.e.
    /// `neighbors(v).nth(k)`, in `O(1)`. On `K_n` it reads no memory:
    /// the row is `0..n` without `v`, so it is `k + (k ≥ v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()` or `k >= self.degree(v)`.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = ld_graph::generators::complete(5);
    /// assert_eq!(g.nth_neighbor(2, 1), 1);
    /// assert_eq!(g.nth_neighbor(2, 2), 3);
    /// ```
    #[inline]
    pub fn nth_neighbor(&self, v: usize, k: usize) -> usize {
        match &self.adjacency {
            Adjacency::Complete => {
                assert!(
                    v < self.n && k < self.n - 1,
                    "row position {k} out of range for vertex {v} of K_{}",
                    self.n
                );
                k + usize::from(k >= v)
            }
            Adjacency::Listed { offsets, adj } => adj[offsets[v]..offsets[v + 1]][k],
        }
    }

    /// The number of leading neighbours of `v`, in increasing order, that
    /// satisfy `pred`, as [`slice::partition_point`] on `v`'s sorted row:
    /// `pred` must hold on a prefix of the row and fail on the rest. The
    /// neighbours that fail it are `nth_neighbor(v, k)` for `k` from the
    /// result up to `degree(v)`. Takes `O(log deg(v))` calls of `pred`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = ld_graph::generators::complete(6);
    /// // Row 2 is [0, 1, 3, 4, 5]; three of its entries are below 4.
    /// assert_eq!(g.partition_neighbors(2, |u| u < 4), 3);
    /// ```
    #[inline]
    pub fn partition_neighbors(&self, v: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
        match &self.adjacency {
            Adjacency::Complete => {
                let (mut lo, mut hi) = (0, self.degree(v));
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if pred(mid + usize::from(mid >= v)) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            Adjacency::Listed { offsets, adj } => {
                adj[offsets[v]..offsets[v + 1]].partition_point(|&u| pred(u))
            }
        }
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = ld_graph::generators::path(3);
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges, vec![(0, 1), (1, 2)]);
    /// ```
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.m() == 0
    }

    /// The subgraph induced by `vertices`: vertex `i` of the result is
    /// `vertices[i]`, and edges are exactly the edges of `self` with both
    /// endpoints selected.
    ///
    /// Duplicate entries in `vertices` are ignored after the first.
    /// Used to carve communities or sampled sub-electorates out of a
    /// larger network.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if a selected vertex does
    /// not exist.
    ///
    /// # Examples
    ///
    /// ```
    /// use ld_graph::generators;
    /// let g = generators::complete(6);
    /// let sub = g.induced_subgraph(&[0, 2, 4])?;
    /// assert_eq!(sub.n(), 3);
    /// assert_eq!(sub.m(), 3); // still a clique
    /// # Ok::<(), ld_graph::GraphError>(())
    /// ```
    pub fn induced_subgraph(&self, vertices: &[usize]) -> Result<Graph> {
        let mut index = std::collections::HashMap::with_capacity(vertices.len());
        let mut selected = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if v >= self.n() {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v,
                    n: self.n(),
                });
            }
            if let std::collections::hash_map::Entry::Vacant(e) = index.entry(v) {
                e.insert(selected.len());
                selected.push(v);
            }
        }
        if matches!(self.adjacency, Adjacency::Complete) {
            return Ok(Graph::complete(selected.len()));
        }
        let mut b = GraphBuilder::new(selected.len());
        for (new_u, &old_u) in selected.iter().enumerate() {
            for old_v in self.neighbors(old_u) {
                if let Some(&new_v) = index.get(&old_v) {
                    if new_u < new_v {
                        b.add_edge(new_u, new_v).expect("induced edges are valid");
                    }
                }
            }
        }
        Ok(b.build())
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::empty(0)
    }
}

/// Iterator over the neighbours of a vertex. Created by [`Graph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: NeighborsInner<'a>,
}

#[derive(Debug, Clone)]
enum NeighborsInner<'a> {
    Complete {
        rows: std::ops::Range<usize>,
        skip: usize,
    },
    Listed(std::slice::Iter<'a, usize>),
}

impl Iterator for Neighbors<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match &mut self.inner {
            NeighborsInner::Complete { rows, skip } => {
                rows.next().map(|k| k + usize::from(k >= *skip))
            }
            NeighborsInner::Listed(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            NeighborsInner::Complete { rows, .. } => rows.size_hint(),
            NeighborsInner::Listed(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Incremental builder for [`Graph`].
///
/// Collects edges, validates them eagerly, and produces the compact sorted
/// representation in `O(n + m log m)` on [`GraphBuilder::build`].
///
/// # Examples
///
/// ```
/// use ld_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(2, 1)?;
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// # Ok::<(), ld_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder expecting roughly `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices of the graph under construction.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Duplicate detection is deferred to [`GraphBuilder::build`] for
    /// performance; use [`GraphBuilder::add_edge`] which checks endpoints
    /// and self-loops eagerly. Duplicates are rejected at build time via
    /// [`GraphBuilder::try_build`]; the infallible [`GraphBuilder::build`]
    /// panics on duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(())
    }

    /// Whether the undirected edge `{u, v}` has already been added.
    ///
    /// Linear scan; intended for generators that add few edges per vertex.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        let key = (u.min(v), u.max(v));
        self.edges.contains(&key)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// # Panics
    ///
    /// Panics if a duplicate edge was added. Generators in this crate
    /// guarantee uniqueness by construction; external callers with untrusted
    /// edge lists should prefer [`GraphBuilder::try_build`].
    pub fn build(self) -> Graph {
        self.try_build()
            .expect("duplicate edge passed to GraphBuilder::build")
    }

    /// Finalizes the builder, returning an error on duplicate edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] if the same undirected edge was
    /// added more than once.
    pub fn try_build(mut self) -> Result<Graph> {
        self.edges.sort_unstable();
        if let Some(w) = self.edges.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge {
                u: w[0].0,
                v: w[0].1,
            });
        }
        let n = self.n;
        let mut deg = vec![0usize; n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0usize; 2 * self.edges.len()];
        for &(u, v) in &self.edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Each vertex's list is filled from edges sorted by (min, max); the
        // entries written at `u` from edges where `u` is the min endpoint are
        // ascending, but entries from edges where `u` is the max endpoint
        // interleave, so sort each list.
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Ok(Graph::listed(offsets, adj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert!(g.is_empty());
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(0).count(), 0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.edges().count(), 0);
        let d = Graph::default();
        assert_eq!(d, g);
    }

    #[test]
    fn from_edges_builds_sorted_adjacency() {
        let g = Graph::from_edges(5, [(3, 1), (0, 4), (1, 0), (2, 1)]).unwrap();
        assert_eq!(g.m(), 4);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(g.nth_neighbor(1, 2), 3);
        assert!(g.has_edge(4, 0));
        assert!(!g.has_edge(4, 1));
    }

    #[test]
    fn edges_iterator_is_canonical_and_complete() {
        let g = Graph::from_edges(4, [(2, 0), (3, 2), (1, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 3)]);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, n: 3 });
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn rejects_duplicate_even_if_reversed() {
        let err = Graph::from_edges(3, [(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn builder_contains_edge_is_orientation_insensitive() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 1).unwrap();
        assert!(b.contains_edge(1, 2));
        assert!(b.contains_edge(2, 1));
        assert!(!b.contains_edge(0, 1));
    }

    #[test]
    fn handshake_lemma_on_manual_graph() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap();
        let degree_sum: usize = g.degrees().sum();
        assert_eq!(degree_sum, 2 * g.m());
    }

    #[test]
    fn neighbors_is_exact_size() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let it = g.neighbors(0);
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn induced_subgraph_basics() {
        // Cycle 0-1-2-3-4-0; select {0, 1, 3}: only edge (0,1) survives.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let sub = g.induced_subgraph(&[0, 1, 3]).unwrap();
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 1);
        assert!(sub.has_edge(0, 1)); // relabelled 0 ↔ 1
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_edge_cases() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        // Empty selection.
        assert_eq!(g.induced_subgraph(&[]).unwrap().n(), 0);
        // Duplicates collapse.
        let sub = g.induced_subgraph(&[1, 1, 0]).unwrap();
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.m(), 1);
        // Out of range.
        assert!(g.induced_subgraph(&[9]).is_err());
        // Full selection reproduces the graph up to relabelling.
        let full = g.induced_subgraph(&[0, 1, 2, 3]).unwrap();
        assert_eq!(full, g);
    }

    /// `K_n` with every row stored, as the builder laid it out before
    /// complete graphs became implicit.
    fn listed_complete(n: usize) -> Graph {
        let offsets = (0..=n).map(|v| v * n.saturating_sub(1)).collect();
        let adj = (0..n)
            .flat_map(|v| (0..n).filter(move |&u| u != v))
            .collect();
        Graph {
            n,
            adjacency: Adjacency::Listed { offsets, adj },
        }
    }

    #[test]
    fn implicit_complete_agrees_with_listed_rows() {
        use crate::{generators, properties, traversal};
        for n in 0..=12usize {
            let implicit = generators::complete(n);
            let listed = listed_complete(n);
            assert!(matches!(implicit.adjacency, Adjacency::Complete));
            assert_eq!(implicit.n(), listed.n());
            assert_eq!(implicit.m(), listed.m(), "n = {n}");
            assert_eq!(implicit.is_empty(), listed.is_empty());
            assert!(implicit.degrees().eq(listed.degrees()));
            assert!(implicit.edges().eq(listed.edges()), "n = {n}");
            for v in 0..n {
                assert_eq!(implicit.degree(v), listed.degree(v));
                let row: Vec<usize> = listed.neighbors(v).collect();
                assert!(implicit.neighbors(v).eq(row.iter().copied()), "row {v}");
                assert_eq!(implicit.neighbors(v).len(), row.len());
                for (k, &u) in row.iter().enumerate() {
                    assert_eq!(implicit.nth_neighbor(v, k), u, "row {v}, position {k}");
                    assert_eq!(listed.nth_neighbor(v, k), u);
                }
                for cut in 0..=n {
                    assert_eq!(
                        implicit.partition_neighbors(v, |u| u < cut),
                        listed.partition_neighbors(v, |u| u < cut),
                        "row {v}, cut {cut}"
                    );
                }
                for u in 0..n + 2 {
                    assert_eq!(
                        implicit.has_edge(v, u),
                        listed.has_edge(v, u),
                        "{{{v}, {u}}}"
                    );
                }
                assert_eq!(
                    traversal::bfs_order(&implicit, v),
                    traversal::bfs_order(&listed, v)
                );
                assert_eq!(
                    traversal::bfs_distances(&implicit, v),
                    traversal::bfs_distances(&listed, v)
                );
            }
            assert_eq!(
                traversal::components(&implicit),
                traversal::components(&listed)
            );
            assert_eq!(
                traversal::component_count(&implicit),
                traversal::component_count(&listed)
            );
            assert_eq!(
                traversal::is_connected(&implicit),
                traversal::is_connected(&listed)
            );
            assert_eq!(
                properties::max_degree(&implicit),
                properties::max_degree(&listed)
            );
            assert_eq!(
                properties::min_degree(&implicit),
                properties::min_degree(&listed)
            );
            assert_eq!(
                properties::regularity(&implicit),
                properties::regularity(&listed)
            );
            assert!(properties::is_complete(&implicit) && properties::is_complete(&listed));
            assert_eq!(
                properties::average_degree(&implicit).to_bits(),
                properties::average_degree(&listed).to_bits()
            );
            assert_eq!(
                properties::structural_asymmetry(&implicit).to_bits(),
                properties::structural_asymmetry(&listed).to_bits()
            );
            assert_eq!(
                properties::diameter(&implicit),
                properties::diameter(&listed)
            );
            // Induced subgraphs: prefixes, a strided pick with duplicates,
            // and out-of-range selections.
            let strided: Vec<usize> = (0..n).step_by(3).chain((0..n).step_by(2)).collect();
            for sel in (0..=n).map(|k| (0..k).collect::<Vec<_>>()).chain([strided]) {
                let a = implicit.induced_subgraph(&sel).unwrap();
                let b = listed.induced_subgraph(&sel).unwrap();
                assert_eq!(a, b, "n = {n}, selection {sel:?}");
                assert!(matches!(a.adjacency, Adjacency::Complete));
            }
            assert_eq!(
                implicit.induced_subgraph(&[n]),
                listed.induced_subgraph(&[n])
            );
        }
    }

    #[test]
    fn every_edge_builds_the_implicit_complete_graph() {
        for n in 0..=12usize {
            let mut pairs: Vec<Edge> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .collect();
            // Any order and orientation: reverse, then flip every other pair.
            pairs.reverse();
            let mut b = GraphBuilder::new(n);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                let (a, c) = if i % 2 == 0 { (v, u) } else { (u, v) };
                b.add_edge(a, c).unwrap();
            }
            let built = b.build();
            assert_eq!(built, crate::generators::complete(n), "n = {n}");
            assert_eq!(Graph::from_edges(n, pairs.clone()).unwrap(), built);
            // One edge short stays listed, and differs.
            if let Some((&first, rest)) = pairs.split_first() {
                let short = Graph::from_edges(n, rest.iter().copied()).unwrap();
                assert!(matches!(short.adjacency, Adjacency::Listed { .. }));
                assert_ne!(short, built);
                assert!(!short.has_edge(first.0, first.1));
            }
        }
        assert_eq!(Graph::empty(0), crate::generators::complete(0));
        assert_eq!(Graph::empty(1), crate::generators::complete(1));
        assert_ne!(Graph::empty(2), crate::generators::complete(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn implicit_row_position_is_bounds_checked() {
        crate::generators::complete(4).nth_neighbor(0, 3);
    }

    #[test]
    fn with_capacity_builder_behaves_like_new() {
        let mut a = GraphBuilder::new(3);
        let mut b = GraphBuilder::with_capacity(3, 2);
        a.add_edge(0, 1).unwrap();
        b.add_edge(0, 1).unwrap();
        assert_eq!(a.build(), b.build());
    }
}
