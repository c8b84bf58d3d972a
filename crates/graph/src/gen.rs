//! Workload generators. The paper evaluates no concrete graphs (it is a
//! theory paper), so the experiment tables (`bds_bench`'s `tables`
//! binary) define their own workload families; these are the standard
//! ones used by the empirical dynamic-graph literature.

use crate::types::{Edge, V};
use crate::union_find::UnionFind;
use bds_dstruct::FxHashSet;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Erdős–Rényi G(n, m): `m` distinct uniform edges.
pub fn gnm(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    assert!(n >= 2);
    let max_m = n * (n - 1) / 2;
    let m = m.min(max_m);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = FxHashSet::default();
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let a = rng.gen_range(0..n as V);
        let b = rng.gen_range(0..n as V);
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if set.insert(e) {
            out.push(e);
        }
    }
    out
}

/// G(n, m) plus a random spanning tree, guaranteeing connectivity.
pub fn gnm_connected(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
    let mut set: FxHashSet<Edge> = FxHashSet::default();
    let mut out = Vec::new();
    // Random spanning tree: random permutation, attach each vertex to a
    // random earlier one.
    let mut perm: Vec<V> = (0..n as V).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let e = Edge::new(perm[i], perm[j]);
        set.insert(e);
        out.push(e);
    }
    for e in gnm(n, m, seed) {
        if out.len() >= m.max(n - 1) {
            break;
        }
        if set.insert(e) {
            out.push(e);
        }
    }
    out
}

/// 2-D grid graph of `rows × cols` vertices (id = r * cols + c).
pub fn grid(rows: usize, cols: usize) -> Vec<Edge> {
    let mut out = Vec::with_capacity(2 * rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as V;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                out.push(Edge::new(id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                out.push(Edge::new(id(r, c), id(r + 1, c)));
            }
        }
    }
    out
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `k` existing vertices chosen proportionally to degree.
pub fn preferential_attachment(n: usize, k: usize, seed: u64) -> Vec<Edge> {
    assert!(n > k && k >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * k);
    let mut endpoints: Vec<V> = Vec::with_capacity(2 * n * k);
    // Seed clique on k+1 vertices.
    for a in 0..=(k as V) {
        for b in (a + 1)..=(k as V) {
            out.push(Edge::new(a, b));
            endpoints.push(a);
            endpoints.push(b);
        }
    }
    for v in (k + 1)..n {
        let mut chosen = FxHashSet::default();
        while chosen.len() < k {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            chosen.insert(t);
        }
        for &t in &chosen {
            out.push(Edge::new(v as V, t));
            endpoints.push(v as V);
            endpoints.push(t);
        }
    }
    out
}

/// A graph with a planted sparse cut: two G(half, m_in) halves joined by
/// exactly `cross` edges. Returns `(edges, cut_size)` where the planted
/// cut is S = {0..half}. Used by the sparsifier quality experiments.
pub fn planted_cut(n: usize, m_in: usize, cross: usize, seed: u64) -> (Vec<Edge>, usize) {
    let half = n / 2;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut edges = gnm_connected(half, m_in, seed);
    let right = gnm_connected(n - half, m_in, seed.wrapping_add(1));
    edges.extend(
        right
            .into_iter()
            .map(|e| Edge::new(e.u + half as V, e.v + half as V)),
    );
    let mut set: FxHashSet<Edge> = edges.iter().copied().collect();
    let mut added = 0;
    while added < cross {
        let a = rng.gen_range(0..half as V);
        let b = rng.gen_range(half as V..n as V);
        let e = Edge::new(a, b);
        if set.insert(e) {
            edges.push(e);
            added += 1;
        }
    }
    (edges, cross)
}

/// Extract a spanning forest (for baselines / H₂ init).
pub fn spanning_forest(n: usize, edges: &[Edge]) -> Vec<Edge> {
    let mut uf = UnionFind::new(n);
    edges
        .iter()
        .copied()
        .filter(|e| uf.union(e.u, e.v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    #[test]
    fn gnm_has_m_distinct_edges() {
        let es = gnm(100, 300, 7);
        assert_eq!(es.len(), 300);
        let set: FxHashSet<Edge> = es.iter().copied().collect();
        assert_eq!(set.len(), 300);
    }

    #[test]
    fn gnm_connected_is_connected() {
        let es = gnm_connected(200, 400, 9);
        let g = CsrGraph::from_edges(200, &es);
        assert_eq!(g.components(), 1);
    }

    #[test]
    fn grid_edge_count() {
        let es = grid(4, 5);
        assert_eq!(es.len(), 4 * 4 + 3 * 5); // horizontal + vertical
    }

    #[test]
    fn pa_graph_properties() {
        let es = preferential_attachment(200, 3, 11);
        let g = CsrGraph::from_edges(200, &es);
        assert_eq!(g.components(), 1);
        // Power-law-ish: max degree well above k.
        let maxdeg = (0..200).map(|v| g.degree(v)).max().unwrap();
        assert!(maxdeg > 10, "max degree {maxdeg}");
    }

    #[test]
    fn planted_cut_counts_cross_edges() {
        let (es, cut) = planted_cut(100, 150, 6, 3);
        let crossing = es.iter().filter(|e| (e.u < 50) != (e.v < 50)).count();
        assert_eq!(crossing, cut);
    }

    #[test]
    fn spanning_forest_spans() {
        let es = gnm_connected(80, 200, 5);
        let f = spanning_forest(80, &es);
        assert_eq!(f.len(), 79);
        let g = CsrGraph::from_edges(80, &f);
        assert_eq!(g.components(), 1);
    }
}
