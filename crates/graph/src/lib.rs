//! # `ld-graph` — graph substrate for liquid democracy
//!
//! This crate provides the graph machinery the liquid-democracy model of
//! Chatterjee, Gilbert, Schmid, Svoboda and Yeo (*When is Liquid Democracy
//! Possible? On the Manipulation of Variance*, PODC 2025) is defined over:
//!
//! * [`Graph`] — a compact undirected simple graph with sorted adjacency
//!   lists, used to represent the social network of voters `(V, E)`. The
//!   complete graph `K_n` keeps no lists and answers adjacency
//!   arithmetically.
//! * [`generators`] — one generator per graph restriction studied in the
//!   paper (complete `K_n`, random `d`-regular `Rand(n, d)`, bounded maximum
//!   degree `Δ ≤ k`, bounded minimum degree `δ ≥ k`, the star counterexample
//!   of Figure 1) plus the social-network models named in the paper's
//!   discussion section (Barabási–Albert, Watts–Strogatz) and deterministic
//!   baselines (ring, path, grid, circulant, Erdős–Rényi).
//! * [`properties`] — structural measurements: degree extrema,
//!   connectivity, regularity, and the structural-asymmetry
//!   index that Section 6 of the paper identifies as the quantity governing
//!   the feasibility of liquid democracy.
//! * [`traversal`] — BFS/DFS, connected components and related utilities.
//!
//! The directed *delegation graph* a mechanism produces is not built
//! here: `ld_core::delegation::DelegationGraph` keeps one action per
//! voter and computes its topological order, sinks and chains straight
//! from that action vector.
//!
//! Vertices are dense indices `0..n`, matching the paper's convention of
//! ordering voters by competency (`p_i ≤ p_j` for `i < j`).
//!
//! # Examples
//!
//! ```
//! use ld_graph::{generators, Graph};
//!
//! let k5 = generators::complete(5);
//! assert_eq!(k5.degree(0), 4);
//!
//! let mut rng = ld_prob::rng::StdRng::seed_from_u64(7);
//! let reg = generators::random_regular(100, 4, &mut rng)?;
//! assert!(reg.degrees().all(|d| d == 4));
//! # Ok::<(), ld_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;

pub mod generators;
pub mod properties;
pub mod traversal;

pub use error::{GraphError, Result};
pub use graph::{Edge, Graph, GraphBuilder, Neighbors};
