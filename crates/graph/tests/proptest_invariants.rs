//! Property-based invariants for the graph substrate.

use ld_graph::{generators, properties, traversal, Graph};
use ld_prob::rng::{for_each_case, Rng, StdRng};

/// Handshake lemma: the degree sum equals twice the edge count, for
/// every generator at arbitrary feasible parameters.
#[test]
fn handshake_lemma_all_generators() {
    for_each_case("handshake_lemma_all_generators", 64, |rng| {
        let n = rng.gen_range(2usize..120);
        let seed = rng.gen_range(0u64..1000);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = 2 + (seed as usize % 4) * 2; // even, 2..=8
        let graphs: Vec<Graph> = vec![
            generators::complete(n),
            generators::star(n),
            generators::cycle(n),
            generators::erdos_renyi_gnp(n, 0.3, &mut rng).unwrap(),
            generators::erdos_renyi_gnm(n, n.min(n * (n - 1) / 2), &mut rng).unwrap(),
        ];
        for g in graphs {
            assert_eq!(g.degrees().sum::<usize>(), 2 * g.m());
        }
        if d < n && (n * d).is_multiple_of(2) {
            let g = generators::random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.degrees().sum::<usize>(), 2 * g.m());
        }
    });
}

/// Sorted-adjacency invariant: neighbour lists are strictly increasing
/// and symmetric.
#[test]
fn adjacency_sorted_and_symmetric() {
    for_each_case("adjacency_sorted_and_symmetric", 64, |rng| {
        let n = rng.gen_range(2usize..60);
        let seed = rng.gen_range(0u64..500);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnp(n, 0.4, &mut rng).unwrap();
        for v in 0..n {
            let nb: Vec<usize> = g.neighbors(v).collect();
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted at {}", v);
            for (k, &u) in nb.iter().enumerate() {
                assert_eq!(g.nth_neighbor(v, k), u);
                assert!(g.has_edge(u, v), "asymmetric edge ({}, {})", u, v);
            }
        }
    });
}

/// `random_regular` always returns an exactly d-regular simple graph.
#[test]
fn regular_generator_is_regular() {
    for_each_case("regular_generator_is_regular", 64, |rng| {
        let n = rng.gen_range(6usize..80);
        let dd = rng.gen_range(1usize..5);
        let d = dd * 2; // even degree is always feasible
        if d >= n {
            return;
        }
        let mut rng = StdRng::seed_from_u64((n * 31 + d) as u64);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        assert_eq!(properties::regularity(&g), Some(d));
        // Simplicity: no self-loops possible by type; no duplicate edges
        // because GraphBuilder::build would have panicked.
        assert_eq!(g.m(), n * d / 2);
    });
}

/// `random_bounded_degree` respects the cap for arbitrary parameters.
#[test]
fn bounded_degree_cap() {
    for_each_case("bounded_degree_cap", 64, |rng| {
        let n = rng.gen_range(2usize..100);
        let k = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..100);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = n * k / 3;
        let g = generators::random_bounded_degree(n, k, m, &mut rng).unwrap();
        assert!(properties::max_degree(&g).unwrap_or(0) <= k);
    });
}

/// `random_min_degree` meets the floor for arbitrary parameters.
#[test]
fn min_degree_floor() {
    for_each_case("min_degree_floor", 64, |rng| {
        let n = rng.gen_range(4usize..100);
        let seed = rng.gen_range(0u64..100);
        let k = 1 + (seed as usize) % (n / 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_min_degree(n, k, &mut rng).unwrap();
        assert!(properties::min_degree(&g).unwrap() >= k);
    });
}

/// `from_degree_sequence` realizes any graphical sequence exactly.
/// (Sequences are guaranteed graphical by reading them off a sampled
/// graph first.)
#[test]
fn degree_sequence_round_trip() {
    for_each_case("degree_sequence_round_trip", 64, |rng| {
        let n = rng.gen_range(4usize..60);
        let seed = rng.gen_range(0u64..200);
        let mut rng = StdRng::seed_from_u64(seed);
        let template = generators::erdos_renyi_gnp(n, 0.3, &mut rng).unwrap();
        let degs: Vec<usize> = template.degrees().collect();
        let g = generators::from_degree_sequence(&degs, &mut rng).unwrap();
        for (v, &d) in degs.iter().enumerate() {
            assert_eq!(g.degree(v), d, "vertex {}", v);
        }
        assert_eq!(g.m(), template.m());
    });
}

/// Induced subgraphs preserve adjacency among selected vertices.
#[test]
fn induced_subgraph_preserves_adjacency() {
    for_each_case("induced_subgraph_preserves_adjacency", 64, |rng| {
        let n = rng.gen_range(2usize..40);
        let seed = rng.gen_range(0u64..100);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnp(n, 0.4, &mut rng).unwrap();
        use ld_prob::rng::Rng;
        let selected: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
        let sub = g.induced_subgraph(&selected).unwrap();
        assert_eq!(sub.n(), selected.len());
        for (i, &u) in selected.iter().enumerate() {
            for (j, &v) in selected.iter().enumerate() {
                if i < j {
                    assert_eq!(sub.has_edge(i, j), g.has_edge(u, v), "pair ({}, {})", u, v);
                }
            }
        }
    });
}

/// BFS distances satisfy the triangle property along edges: distances of
/// adjacent vertices differ by at most 1.
#[test]
fn bfs_distance_lipschitz() {
    for_each_case("bfs_distance_lipschitz", 64, |rng| {
        let n = rng.gen_range(2usize..60);
        let seed = rng.gen_range(0u64..200);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnp(n, 0.2, &mut rng).unwrap();
        let dist = traversal::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            match (dist[u], dist[v]) {
                (Some(a), Some(b)) => {
                    let diff = a.abs_diff(b);
                    assert!(diff <= 1, "edge ({u},{v}) distances {a},{b}");
                }
                (None, None) => {}
                _ => panic!("edge ({u},{v}) crosses component boundary"),
            }
        }
    });
}

/// Components partition the vertex set and edges never cross components.
#[test]
fn components_are_a_partition() {
    for_each_case("components_are_a_partition", 64, |rng| {
        let n = rng.gen_range(1usize..80);
        let seed = rng.gen_range(0u64..200);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = (1.5 / n as f64).min(1.0);
        let g = generators::erdos_renyi_gnp(n, p, &mut rng).unwrap();
        let label = traversal::components(&g);
        assert_eq!(label.len(), n);
        for (u, v) in g.edges() {
            assert_eq!(label[u], label[v]);
        }
        let k = traversal::component_count(&g);
        assert!(label.iter().all(|&l| l < k));
    });
}
