//! Output oracles: the final published view against the generator's
//! live input, checked where the product is served.

use bds_dstruct::FxHashSet;
use bds_graph::conn::ConnView;
use bds_graph::csr::edge_stretch;
use bds_graph::types::{Edge, V};
use bds_graph::UnionFind;

/// BFS sources sampled for the stretch check.
const STRETCH_SAMPLES: usize = 256;

/// What an oracle checked and how many of those checks failed.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    pub checks: u64,
    pub mismatches: u64,
    pub detail: String,
}

/// Spanner oracle: every published edge is a live input edge, and the
/// sampled stretch of the live input in the published view is at most
/// `2k - 1` (Theorem 1.1).
pub fn spanner(n: usize, live: &[Edge], h: &[Edge], k: u32, seed: u64) -> Verdict {
    let g: FxHashSet<Edge> = live.iter().copied().collect();
    let foreign = h.iter().filter(|e| !g.contains(e)).count() as u64;
    let stretch = edge_stretch(n, live, h, STRETCH_SAMPLES, seed);
    let bound = f64::from(2 * k - 1);
    let too_long = u64::from(stretch > bound);
    Verdict {
        checks: h.len() as u64 + 1,
        mismatches: foreign + too_long,
        detail: format!(
            "|H| = {}, {foreign} edges not in G, sampled stretch {stretch} (bound {bound})",
            h.len()
        ),
    }
}

/// Connectivity oracle: `batch_connected` over a view rebuilt from the
/// published forest must match union-find over the live input on every
/// query pair, and the forest must be a spanning forest of the input.
pub fn conn(n: usize, live: &[Edge], forest: &[Edge], pairs: &[(V, V)]) -> Verdict {
    let g: FxHashSet<Edge> = live.iter().copied().collect();
    let foreign = forest.iter().filter(|e| !g.contains(e)).count() as u64;
    let mut uf = UnionFind::new(n);
    for e in live {
        uf.union(e.u, e.v);
    }
    let view = ConnView::from_edges(n, forest);
    let mut got = Vec::new();
    view.batch_connected(pairs, &mut got);
    let wrong = pairs
        .iter()
        .zip(&got)
        .filter(|(&(u, v), &ans)| uf.same(u, v) != ans)
        .count() as u64;
    let size_off = u64::from(forest.len() + uf.components() != n);
    Verdict {
        checks: pairs.len() as u64 + forest.len() as u64 + 1,
        mismatches: foreign + wrong + size_off,
        detail: format!(
            "{} pairs ({wrong} wrong), forest {} edges ({foreign} not in G), {} components",
            pairs.len(),
            forest.len(),
            uf.components()
        ),
    }
}
