//! Holm–de Lichtenberg–Thorup fully-dynamic spanning forest.
//!
//! This is the workspace's substitute for the \[AABD19\] parallel
//! batch-dynamic connectivity structure that Theorem 1.4 uses to maintain
//! H₂ (the spanning forest over ⊥-vertices). The interface reports exact
//! *forest deltas* — which tree edges entered or left the maintained
//! spanning forest — which is precisely the recourse the ultra-sparse
//! spanner needs to forward.
//!
//! Standard HDT: every edge carries a level ℓ(e) ≤ ⌊log₂ n⌋; `F_i` is a
//! spanning forest of the edges with level ≥ i, F₀ ⊇ F₁ ⊇ …, and each
//! tree of F_i has at most n/2^i vertices. Deleting a tree edge searches
//! for a replacement level by level, promoting the smaller side's tree
//! edges and failed non-tree candidates. Each promotion raises an edge's
//! level, so the search work ([`DynamicForest::scan_steps`]) is amortized
//! O(log n) per update, and each unit of it, like each level's cut, costs
//! O(1) Euler-tour splices: amortized O(log n) splices per update, which
//! with O(log n)-time balanced-tree splices is HDT's O(log² n).
//!
//! Here a splice costs O(smaller side / BLOCK + BLOCK) random work plus
//! O(tour / BLOCK) dense scans and memmoves of one `u32` array
//! ([`crate::euler`]). HDT's splices are lopsided: in a churned
//! 20k-vertex graph a cut's tree spans ~460 blocks while its smaller side
//! spans under four, so the random part stays a few blocks per splice.
//!
//! Since PR 8 the substrate is flat end to end: each level's Euler tour
//! is a blocked flat sequence ([`crate::euler`], de-treaped), the edge →
//! level map is a packed-key [`EdgeTable`] whose value word also carries
//! the is-tree-edge bit, and the per-level non-tree adjacency is one
//! [`FlatList`] per level keyed `(vertex << 32) | neighbor` — a rank
//! query finds "any non-tree neighbor of v at level i" without hash-map
//! chains. All read queries (`connected`, `component_size`,
//! `contains_edge`, …) take `&self`, so epoch'd read mirrors can share
//! the structure.

use crate::edge_table::{pack, unpack, EdgeTable};
use crate::euler::{EulerForest, FLAG_NONTREE, FLAG_TREE};
use crate::flat_list::FlatList;

#[inline]
fn canon(u: u32, v: u32) -> (u32, u32) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Is-tree-edge marker in the `edges` value word (low 16 bits: level).
const TREE_BIT: u64 = 1 << 32;

/// Tree edges added to / removed from the maintained spanning forest by
/// one update.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ForestDelta {
    pub added: Vec<(u32, u32)>,
    pub removed: Vec<(u32, u32)>,
}

/// Fully-dynamic spanning forest over vertices `0..n`.
pub struct DynamicForest {
    n: usize,
    lmax: usize,
    levels: Vec<EulerForest>,
    /// canonical edge -> level | TREE_BIT
    edges: EdgeTable,
    /// number of live tree edges (forest size)
    n_tree: usize,
    /// per-level non-tree incidence, keyed (x << 32) | y, both
    /// directions stored
    nontree: Vec<FlatList<u64, ()>>,
    /// replacement-search work so far (see [`DynamicForest::scan_steps`])
    scan_steps: u64,
}

impl DynamicForest {
    pub fn new(n: usize) -> Self {
        let lmax = (usize::BITS - n.max(2).leading_zeros()) as usize; // ⌊log2 n⌋ + 1
        let levels = (0..=lmax).map(|_| EulerForest::new()).collect();
        let nontree = (0..=lmax).map(|_| FlatList::new()).collect();
        Self {
            n,
            lmax,
            levels,
            edges: EdgeTable::new(),
            n_tree: 0,
            nontree,
            scan_steps: 0,
        }
    }

    /// Bulk-build from an initial edge set: a DSU pass splits the edges
    /// into one spanning forest (laid out tour-at-a-time by
    /// [`EulerForest::bulk_build`]) and the non-tree remainder
    /// (bulk-loaded into the level-0 incidence list), skipping the
    /// per-edge link path entirely. Edges must be distinct non-loops
    /// with endpoints < n.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut f = Self::new(n);
        if edges.is_empty() {
            return f;
        }
        let mut dsu: Vec<u32> = (0..n as u32).collect();
        fn find(d: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while d[r as usize] != r {
                r = d[r as usize];
            }
            let mut c = x;
            while d[c as usize] != r {
                let nx = d[c as usize];
                d[c as usize] = r;
                c = nx;
            }
            r
        }
        let mut forest: Vec<(u32, u32)> = Vec::new();
        let mut loose: Vec<(u32, u32)> = Vec::new();
        let mut entries: Vec<(u32, u32, u64)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            let (a, b) = canon(u, v);
            let (ra, rb) = (find(&mut dsu, a), find(&mut dsu, b));
            if ra != rb {
                dsu[ra as usize] = rb;
                forest.push((a, b));
                entries.push((a, b, TREE_BIT));
            } else {
                loose.push((a, b));
                entries.push((a, b, 0));
            }
        }
        f.edges = EdgeTable::from_batch(&entries);
        f.n_tree = forest.len();
        f.levels[0] = EulerForest::bulk_build(&forest);
        for &(a, b) in &forest {
            f.levels[0].set_arc_flag(a, b, FLAG_TREE, true);
        }
        // Non-tree incidence, both directions, bulk-loaded sorted.
        let mut inc: Vec<(u64, ())> = Vec::with_capacity(loose.len() * 2);
        for &(a, b) in &loose {
            inc.push((pack(a, b), ()));
            inc.push((pack(b, a), ()));
        }
        inc.sort_unstable_by_key(|&(k, ())| k);
        f.nontree[0] = FlatList::from_sorted(inc);
        let mut flagged: Vec<u32> = loose.iter().flat_map(|&(a, b)| [a, b]).collect();
        flagged.sort_unstable();
        flagged.dedup();
        for x in flagged {
            f.levels[0].set_vertex_flag(x, FLAG_NONTREE, true);
        }
        f
    }

    pub fn num_vertices(&self) -> usize {
        self.n
    }

    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.levels[0].connected(u, v)
    }

    pub fn component_size(&self, v: u32) -> u32 {
        self.levels[0].tree_size(v)
    }

    pub fn contains_edge(&self, u: u32, v: u32) -> bool {
        let (a, b) = canon(u, v);
        self.edges.contains(a, b)
    }

    pub fn is_tree_edge(&self, u: u32, v: u32) -> bool {
        let (a, b) = canon(u, v);
        matches!(self.edges.get(a, b), Some(w) if w & TREE_BIT != 0)
    }

    /// Current spanning-forest edges (O(edge-table capacity) scan).
    pub fn forest_edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.n_tree);
        for (a, b, w) in self.edges.iter() {
            if w & TREE_BIT != 0 {
                out.push((a, b));
            }
        }
        out
    }

    /// Number of live spanning-forest edges.
    pub fn num_forest_edges(&self) -> usize {
        self.n_tree
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Replacement-search work since construction: tree edges promoted
    /// plus non-tree candidates examined. HDT's amortization bounds it
    /// by O(log n) per update (each promotion raises an edge's level,
    /// each other candidate ends a level's search), and every unit costs
    /// O(log n) in Euler-tour splices and list edits, which gives the
    /// O(log² n) amortized update time.
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps
    }

    /// Any non-tree neighbor of `x` at level `lvl`, via a rank probe of
    /// the flat incidence list.
    fn first_nontree(&self, x: u32, lvl: u16) -> Option<u32> {
        let list = &self.nontree[lvl as usize];
        let r = list.lower_bound_rank(&pack(x, 0));
        match list.kth(r) {
            Some((k, ())) if unpack(k).0 == x => Some(unpack(k).1),
            _ => None,
        }
    }

    fn add_nontree(&mut self, u: u32, v: u32, lvl: u16) {
        for (x, y) in [(u, v), (v, u)] {
            if self.first_nontree(x, lvl).is_none() {
                self.levels[lvl as usize].set_vertex_flag(x, FLAG_NONTREE, true);
            }
            self.nontree[lvl as usize].insert(pack(x, y), ());
        }
    }

    fn remove_nontree(&mut self, u: u32, v: u32, lvl: u16) {
        for (x, y) in [(u, v), (v, u)] {
            self.nontree[lvl as usize]
                .remove(&pack(x, y))
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                .expect("nontree entry");
            if self.first_nontree(x, lvl).is_none() {
                self.levels[lvl as usize].set_vertex_flag(x, FLAG_NONTREE, false);
            }
        }
    }

    /// Insert edge (u, v). Returns the forest delta (one added tree edge
    /// if the endpoints were previously disconnected).
    pub fn insert_edge(&mut self, u: u32, v: u32) -> ForestDelta {
        assert_ne!(u, v, "self-loops are not supported");
        let e = canon(u, v);
        let mut delta = ForestDelta::default();
        let linked = !self.levels[0].connected(u, v);
        assert!(
            self.edges
                .insert(e.0, e.1, if linked { TREE_BIT } else { 0 })
                .is_none(),
            "insert_edge: edge ({u},{v}) already present"
        );
        if linked {
            self.levels[0].link(e.0, e.1);
            self.levels[0].set_arc_flag(e.0, e.1, FLAG_TREE, true);
            self.n_tree += 1;
            delta.added.push(e);
        } else {
            self.add_nontree(e.0, e.1, 0);
        }
        delta
    }

    /// Delete edge (u, v). Returns the forest delta: if a tree edge was
    /// removed, possibly one replacement edge that was promoted into the
    /// forest.
    pub fn delete_edge(&mut self, u: u32, v: u32) -> ForestDelta {
        let e = canon(u, v);
        let word = self
            .edges
            .remove(e.0, e.1)
            .unwrap_or_else(|| panic!("delete_edge: edge ({u},{v}) not present"));
        let lvl = (word & 0xffff) as u16;
        let mut delta = ForestDelta::default();
        if word & TREE_BIT == 0 {
            self.remove_nontree(e.0, e.1, lvl);
            return delta;
        }
        // Tree edge: remove from F_0..=F_lvl and search for a replacement.
        self.n_tree -= 1;
        delta.removed.push(e);
        self.levels[lvl as usize].set_arc_flag(e.0, e.1, FLAG_TREE, false);
        for i in 0..=lvl {
            self.levels[i as usize].cut(e.0, e.1);
        }
        for i in (0..=lvl).rev() {
            if let Some(rep) = self.replace(e.0, e.1, i) {
                delta.added.push(rep);
                break;
            }
        }
        delta
    }

    /// Search level `i` for a replacement edge reconnecting the trees of
    /// `u` and `v` in F_i. Promotes the smaller tree's level-i tree edges
    /// and failed candidates to level i+1 (the HDT amortization).
    fn replace(&mut self, u: u32, v: u32, i: u16) -> Option<(u32, u32)> {
        let (small, _other) = {
            let su = self.levels[i as usize].tree_size(u);
            let sv = self.levels[i as usize].tree_size(v);
            if su <= sv {
                (u, v)
            } else {
                (v, u)
            }
        };
        let can_promote = (i as usize) < self.lmax;
        // 1. Promote all level-i tree edges inside the smaller tree.
        if can_promote {
            while let Some((a, b)) = self.levels[i as usize].find_flag(small, FLAG_TREE) {
                self.scan_steps += 1;
                let (ca, cb) = canon(a, b);
                debug_assert_eq!(self.edges.get(ca, cb).map(|w| w & 0xffff), Some(i as u64));
                self.edges.insert(ca, cb, (i as u64 + 1) | TREE_BIT);
                self.levels[i as usize].set_arc_flag(a, b, FLAG_TREE, false);
                self.levels[i as usize + 1].link(a, b);
                self.levels[i as usize + 1].set_arc_flag(a, b, FLAG_TREE, true);
            }
        }
        // 2. Scan level-i non-tree edges incident to the smaller tree.
        // Candidates that stay within the smaller tree at the top level
        // cannot be promoted; they are parked here and re-added after the
        // scan so the flag search terminates.
        let mut parked: Vec<(u32, u32)> = Vec::new();
        let mut found: Option<(u32, u32)> = None;
        while let Some((x, _)) = self.levels[i as usize].find_flag(small, FLAG_NONTREE) {
            self.scan_steps += 1;
            let Some(y) = self.first_nontree(x, i) else {
                // Stale flag (should not happen); clear defensively.
                self.levels[i as usize].set_vertex_flag(x, FLAG_NONTREE, false);
                continue;
            };
            self.remove_nontree(x, y, i);
            if self.levels[i as usize].connected(y, small) {
                // Both endpoints inside the smaller tree: promote.
                let (cx, cy) = canon(x, y);
                if can_promote {
                    self.add_nontree(cx, cy, i + 1);
                    self.edges.insert(cx, cy, i as u64 + 1);
                } else {
                    parked.push((cx, cy));
                }
            } else {
                // Replacement found: becomes a tree edge at level i.
                let ec = canon(x, y);
                self.edges.insert(ec.0, ec.1, i as u64 | TREE_BIT);
                self.n_tree += 1;
                for j in 0..=i {
                    self.levels[j as usize].link(ec.0, ec.1);
                }
                self.levels[i as usize].set_arc_flag(ec.0, ec.1, FLAG_TREE, true);
                found = Some(ec);
                break;
            }
        }
        for (x, y) in parked {
            self.add_nontree(x, y, i);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::FxHashSet;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// DSU oracle over an explicit edge set.
    struct Oracle {
        edges: FxHashSet<(u32, u32)>,
        n: u32,
    }
    impl Oracle {
        fn comp_ids(&self) -> Vec<u32> {
            let mut dsu: Vec<u32> = (0..self.n).collect();
            fn find(d: &mut Vec<u32>, x: u32) -> u32 {
                if d[x as usize] != x {
                    let r = find(d, d[x as usize]);
                    d[x as usize] = r;
                }
                d[x as usize]
            }
            for &(u, v) in &self.edges {
                let (a, b) = (find(&mut dsu, u), find(&mut dsu, v));
                if a != b {
                    dsu[a as usize] = b;
                }
            }
            (0..self.n).map(|x| find(&mut dsu, x)).collect()
        }
    }

    fn check_forest_matches(f: &DynamicForest, oracle: &Oracle) {
        // The forest edges must be a subset of live edges, acyclic, and
        // realize exactly the oracle's connectivity.
        let fe = f.forest_edges();
        assert_eq!(fe.len(), f.num_forest_edges());
        for &e in &fe {
            assert!(oracle.edges.contains(&e), "forest edge {e:?} not alive");
        }
        let comp = oracle.comp_ids();
        let mut dsu: Vec<u32> = (0..oracle.n).collect();
        fn find(d: &mut Vec<u32>, x: u32) -> u32 {
            if d[x as usize] != x {
                let r = find(d, d[x as usize]);
                d[x as usize] = r;
            }
            d[x as usize]
        }
        for &(u, v) in &fe {
            let (a, b) = (find(&mut dsu, u), find(&mut dsu, v));
            assert_ne!(a, b, "cycle in reported forest at {u},{v}");
            dsu[a as usize] = b;
        }
        for x in 0..oracle.n {
            for y in (x + 1)..oracle.n {
                let same_f = find(&mut dsu, x) == find(&mut dsu, y);
                let same_o = comp[x as usize] == comp[y as usize];
                assert_eq!(same_f, same_o, "forest connectivity wrong for ({x},{y})");
            }
        }
    }

    #[test]
    fn basic_insert_delete() {
        let mut f = DynamicForest::new(10);
        let d = f.insert_edge(0, 1);
        assert_eq!(d.added, vec![(0, 1)]);
        let d = f.insert_edge(1, 2);
        assert_eq!(d.added, vec![(1, 2)]);
        let d = f.insert_edge(0, 2); // cycle: non-tree
        assert!(d.added.is_empty());
        // Deleting tree edge (0,1) must pull (0,2) in as replacement.
        let d = f.delete_edge(0, 1);
        assert_eq!(d.removed, vec![(0, 1)]);
        assert_eq!(d.added, vec![(0, 2)]);
        assert!(f.connected(0, 1));
        let d = f.delete_edge(0, 2);
        assert_eq!(d.removed, vec![(0, 2)]);
        assert!(d.added.is_empty());
        assert!(!f.connected(0, 2));
        assert!(f.connected(1, 2));
    }

    #[test]
    fn reads_are_shared_ref() {
        // The PR-8 satellite: the whole query surface compiles against
        // &DynamicForest so epoch'd mirrors can share it.
        let mut f = DynamicForest::new(4);
        f.insert_edge(0, 1);
        let r: &DynamicForest = &f;
        assert!(r.connected(0, 1));
        assert_eq!(r.component_size(0), 2);
        assert!(r.contains_edge(1, 0));
        assert!(r.is_tree_edge(0, 1));
        assert_eq!(r.forest_edges(), vec![(0, 1)]);
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let n = 50u32;
        let mut rng = StdRng::seed_from_u64(41);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut seen = FxHashSet::default();
        for _ in 0..160 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && seen.insert(canon(u, v)) {
                edges.push(canon(u, v));
            }
        }
        let bulk = DynamicForest::from_edges(n as usize, &edges);
        let mut inc = DynamicForest::new(n as usize);
        for &(u, v) in &edges {
            inc.insert_edge(u, v);
        }
        assert_eq!(bulk.num_edges(), inc.num_edges());
        assert_eq!(bulk.num_forest_edges(), inc.num_forest_edges());
        for x in 0..n {
            assert_eq!(bulk.component_size(x), inc.component_size(x), "size {x}");
            for y in (x + 1)..n {
                assert_eq!(bulk.connected(x, y), inc.connected(x, y), "({x},{y})");
            }
        }
        // And the bulk-built structure must keep working dynamically.
        let oracle = Oracle {
            edges: edges.iter().copied().collect(),
            n,
        };
        check_forest_matches(&bulk, &oracle);
        let mut bulk = bulk;
        let mut oracle = oracle;
        for &(u, v) in edges.iter().take(60) {
            bulk.delete_edge(u, v);
            oracle.edges.remove(&canon(u, v));
        }
        check_forest_matches(&bulk, &oracle);
    }

    #[test]
    fn randomized_against_oracle() {
        let n = 40u32;
        let mut rng = StdRng::seed_from_u64(2024);
        let mut f = DynamicForest::new(n as usize);
        let mut oracle = Oracle {
            edges: FxHashSet::default(),
            n,
        };
        let mut live: Vec<(u32, u32)> = Vec::new();
        for step in 0..1500 {
            if !live.is_empty() && rng.gen_bool(0.45) {
                let i = rng.gen_range(0..live.len());
                let e = live.swap_remove(i);
                oracle.edges.remove(&e);
                f.delete_edge(e.0, e.1);
            } else {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let e = canon(u, v);
                if oracle.edges.contains(&e) {
                    continue;
                }
                oracle.edges.insert(e);
                live.push(e);
                f.insert_edge(e.0, e.1);
            }
            if step % 50 == 0 {
                check_forest_matches(&f, &oracle);
            }
        }
        check_forest_matches(&f, &oracle);
    }

    #[test]
    fn deltas_replay_to_forest() {
        // Applying the reported deltas to an external set must reproduce
        // forest_edges() exactly — the property the ultra-sparse spanner
        // relies on for recourse accounting.
        let n = 30u32;
        let mut rng = StdRng::seed_from_u64(7);
        let mut f = DynamicForest::new(n as usize);
        let mut shadow: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut live: Vec<(u32, u32)> = Vec::new();
        for _ in 0..800 {
            let delta = if !live.is_empty() && rng.gen_bool(0.45) {
                let i = rng.gen_range(0..live.len());
                let e = live.swap_remove(i);
                f.delete_edge(e.0, e.1)
            } else {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v || live.contains(&canon(u, v)) {
                    continue;
                }
                live.push(canon(u, v));
                f.insert_edge(u, v)
            };
            for e in delta.removed {
                assert!(shadow.remove(&e), "removed edge {e:?} wasn't in shadow");
            }
            for e in delta.added {
                assert!(shadow.insert(e), "added edge {e:?} already in shadow");
            }
            let mut want = f.forest_edges();
            let mut got: Vec<_> = shadow.iter().copied().collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(want, got);
        }
    }

    #[test]
    fn component_sizes() {
        let mut f = DynamicForest::new(8);
        f.insert_edge(0, 1);
        f.insert_edge(1, 2);
        f.insert_edge(5, 6);
        assert_eq!(f.component_size(0), 3);
        assert_eq!(f.component_size(5), 2);
        assert_eq!(f.component_size(7), 1);
    }
}
