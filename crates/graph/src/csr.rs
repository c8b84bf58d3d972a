//! Static CSR graph with sequential and level-parallel BFS, plus the
//! empirical stretch oracle used to verify spanner guarantees.

use crate::types::{Edge, V};
use bds_par::prefix_sums;

/// Distance sentinel for "unreached".
pub const UNREACHED: u32 = u32::MAX;

/// Compressed-sparse-row undirected graph.
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<V>,
    n: usize,
    m: usize,
}

impl CsrGraph {
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut deg = vec![0usize; n];
        for e in edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let offsets = prefix_sums(&deg);
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as V; offsets[n]];
        for e in edges {
            targets[cursor[e.u as usize]] = e.v;
            cursor[e.u as usize] += 1;
            targets[cursor[e.v as usize]] = e.u;
            cursor[e.v as usize] += 1;
        }
        Self {
            offsets,
            targets,
            n,
            m: edges.len(),
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn m(&self) -> usize {
        self.m
    }

    pub fn degree(&self, v: V) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    pub fn neighbors(&self, v: V) -> &[V] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterate every edge exactly once, in canonical form (`u < v`,
    /// ascending `u`). Each undirected edge is stored in both endpoint
    /// rows; this walks the `u` rows and keeps only the `v > u` half —
    /// the serialization order `bds_graph::wal` snapshots use.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n as V).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| v > u)
                .map(move |&v| Edge { u, v })
        })
    }

    /// Sequential BFS distances from `src`, truncated at `max_dist`
    /// (vertices farther away stay [`UNREACHED`]).
    pub fn bfs(&self, src: V, max_dist: u32) -> Vec<u32> {
        let mut dist = vec![UNREACHED; self.n];
        dist[src as usize] = 0;
        let mut frontier = vec![src];
        let mut d = 0;
        while !frontier.is_empty() && d < max_dist {
            d += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in self.neighbors(u) {
                    if dist[w as usize] == UNREACHED {
                        dist[w as usize] = d;
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// Level-synchronous parallel BFS (the Lemma 3.2 pattern): each level
    /// expands the frontier with a parallel flat-map + atomic claim. Work
    /// O(m), depth O(diameter · log n).
    pub fn par_bfs(&self, src: V, max_dist: u32) -> Vec<u32> {
        // Through the facade so the claim protocol stays visible to
        // the model-check tier (facade-bypass lint enforces this).
        use bds_par::sync::atomic::{AtomicU32, Ordering};
        let dist: Vec<AtomicU32> = (0..self.n).map(|_| AtomicU32::new(UNREACHED)).collect();
        // ordering: Relaxed throughout the BFS — the per-level pool
        // join barrier is the happens-before edge between frontier
        // expansions; the atomics only arbitrate first-writer-wins.
        dist[src as usize].store(0, Ordering::Relaxed);
        let mut frontier = vec![src];
        let mut d = 0;
        while !frontier.is_empty() && d < max_dist {
            d += 1;
            frontier = bds_par::par_flat_map(&frontier, |&u| {
                let mut local = Vec::new();
                for &w in self.neighbors(u) {
                    if dist[w as usize]
                        // ordering: Relaxed — see BFS note above.
                        .compare_exchange(UNREACHED, d, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        local.push(w);
                    }
                }
                local
            });
        }
        dist.into_iter().map(AtomicU32::into_inner).collect()
    }

    /// Number of connected components.
    pub fn components(&self) -> usize {
        let mut seen = vec![false; self.n];
        let mut count = 0;
        for s in 0..self.n {
            if seen[s] {
                continue;
            }
            count += 1;
            let mut stack = vec![s as V];
            seen[s] = true;
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
        count
    }
}

/// Empirical stretch of subgraph `H` w.r.t. graph `G`, both over `n`
/// vertices. A t-spanner satisfies dist_H(u,v) ≤ t·dist_G(u,v) for all
/// pairs, which is equivalent to dist_H(u,v) ≤ t for every *edge*
/// (u,v) ∈ G. We check all edges incident to `samples` random source
/// vertices (all sources if `samples >= n`) and return the maximum ratio
/// dist_H(u,v) / 1 observed. `f64::INFINITY` if some sampled edge is
/// disconnected in H.
pub fn edge_stretch(
    n: usize,
    g_edges: &[Edge],
    h_edges: &[Edge],
    samples: usize,
    seed: u64,
) -> f64 {
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
    let g = CsrGraph::from_edges(n, g_edges);
    let h = CsrGraph::from_edges(n, h_edges);
    let mut sources: Vec<V> = (0..n as V).filter(|&v| g.degree(v) > 0).collect();
    if sources.len() > samples {
        let mut rng = StdRng::seed_from_u64(seed);
        sources.shuffle(&mut rng);
        sources.truncate(samples);
    }
    // One BFS per source: coarse tasks, spread one at a time.
    let max = bds_par::par_map_grain(&sources, 1, |&s| {
        let dh = h.bfs(s, UNREACHED - 1);
        let mut worst = 0u32;
        for &w in g.neighbors(s) {
            let d = dh[w as usize];
            if d == UNREACHED {
                return u32::MAX;
            }
            worst = worst.max(d);
        }
        worst
    })
    .into_iter()
    .max()
    .unwrap_or(0);
    if max == u32::MAX {
        f64::INFINITY
    } else {
        max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Vec<Edge> {
        (0..n - 1).map(|i| Edge::new(i as V, i as V + 1)).collect()
    }

    #[test]
    fn bfs_on_path() {
        let g = CsrGraph::from_edges(6, &path(6));
        let d = g.bfs(0, 100);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        let d = g.bfs(0, 3);
        assert_eq!(d, vec![0, 1, 2, 3, UNREACHED, UNREACHED]);
    }

    #[test]
    fn par_bfs_matches_sequential() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let n = 300;
        let mut edges = Vec::new();
        for _ in 0..900 {
            let a = rng.gen_range(0..n as V);
            let b = rng.gen_range(0..n as V);
            if a != b {
                edges.push(Edge::new(a, b));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let g = CsrGraph::from_edges(n, &edges);
        for s in [0, 7, 100] {
            assert_eq!(g.bfs(s, 1_000_000), g.par_bfs(s, 1_000_000));
        }
    }

    #[test]
    fn iter_edges_recovers_the_input_set() {
        let mut edges = path(6);
        edges.push(Edge::new(0, 5));
        edges.push(Edge::new(1, 4));
        let g = CsrGraph::from_edges(6, &edges);
        let mut got: Vec<Edge> = g.iter_edges().collect();
        got.sort_unstable();
        let mut want = edges;
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(got.iter().all(|e| e.u < e.v));
    }

    #[test]
    fn components_counted() {
        let mut e = path(4);
        e.push(Edge::new(5, 6));
        let g = CsrGraph::from_edges(8, &e);
        assert_eq!(g.components(), 4); // {0..3}, {4}, {5,6}, {7}
    }

    #[test]
    fn stretch_of_spanning_tree_of_cycle() {
        // Cycle 0-1-2-...-9-0; H = path (drop edge (0,9)).
        let mut g: Vec<Edge> = path(10);
        g.push(Edge::new(0, 9));
        let h = path(10);
        let s = edge_stretch(10, &g, &h, 100, 1);
        assert_eq!(s, 9.0); // the dropped edge stretches to the full path
    }

    #[test]
    fn stretch_infinite_when_disconnected() {
        let g = vec![Edge::new(0, 1)];
        let h: Vec<Edge> = vec![];
        assert!(edge_stretch(2, &g, &h, 10, 1).is_infinite());
    }
}
