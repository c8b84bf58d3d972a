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
//! Each level's search (`replace`) first probes the candidate the
//! standard scan would examine first, before it promotes anything. If
//! there is none, or it leaves the smaller side, the level is settled
//! with no promotion and with the same outcome as standard HDT. Only a
//! level whose first candidate is internal promotes, and that is the
//! work promotions pay for. In a churned 19.5k-vertex graph almost every
//! replacement is the first candidate at level 0, so tree edges stay
//! low and a tree delete cuts and searches about half as many levels.
//! The bound is unchanged: edge levels still only rise, and an elided
//! level costs one probe.
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
        let mut out = Vec::new();
        self.edges
            .scan_into(&mut out, self.n_tree, TREE_BIT, |a, b, _| (a, b));
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
    /// plus non-tree candidates examined. A probe that settles a level
    /// counts as one examined candidate; a probe that finds an internal
    /// candidate is not counted, since the scan then examines (and
    /// counts) the same candidate. HDT's amortization bounds it by
    /// O(log n) per update (each promotion raises an edge's level, each
    /// other candidate ends a level's search), and every unit costs
    /// O(log n) in Euler-tour splices and list edits, which gives the
    /// O(log² n) amortized update time.
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps
    }

    /// Recompute and check the HDT invariants; panics on the first
    /// violation. Every tree edge at level ℓ is linked in F_0..=F_ℓ and
    /// in no higher level; every tree of F_i has at most max(1, n/2^i)
    /// vertices; every level-ℓ non-tree edge appears in both directions
    /// in the level-ℓ incidence list, and its endpoints are connected in
    /// F_ℓ; `FLAG_NONTREE` marks exactly the vertices with level-ℓ
    /// incidence entries, and `FLAG_TREE` exactly the canonical arcs of
    /// level-ℓ tree edges in F_ℓ; the tree-edge count is current.
    #[doc(hidden)]
    pub fn validate(&self) {
        let top = self.levels.len();
        let mut tree_at: Vec<Vec<(u32, u32)>> = vec![Vec::new(); top];
        let mut nontree_at = vec![0usize; top];
        for (a, b, w) in self.edges.iter() {
            let lvl = (w & 0xffff) as usize;
            assert!(lvl < top, "edge ({a},{b}) at level {lvl} > lmax");
            if w & TREE_BIT != 0 {
                for (j, f) in self.levels.iter().enumerate() {
                    assert_eq!(
                        f.has_edge(a, b),
                        j <= lvl,
                        "level-{lvl} tree edge ({a},{b}) vs F_{j}"
                    );
                }
                tree_at[lvl].push((a, b));
            } else {
                let list = &self.nontree[lvl];
                assert!(
                    list.contains(&pack(a, b)) && list.contains(&pack(b, a)),
                    "level-{lvl} non-tree edge ({a},{b}) missing from its list"
                );
                assert!(
                    self.levels[lvl].connected(a, b),
                    "level-{lvl} non-tree edge ({a},{b}) spans two trees of F_{lvl}"
                );
                nontree_at[lvl] += 1;
            }
        }
        assert_eq!(
            self.n_tree,
            tree_at.iter().map(Vec::len).sum::<usize>(),
            "n_tree"
        );
        let mut at_or_above = 0;
        for (lvl, f) in self.levels.iter().enumerate().rev() {
            at_or_above += tree_at[lvl].len();
            assert_eq!(f.num_edges(), at_or_above, "F_{lvl} edge count");
            assert_eq!(
                self.nontree[lvl].len(),
                2 * nontree_at[lvl],
                "stray level-{lvl} incidence entries"
            );
            let cap = (self.n >> lvl).max(1);
            for x in 0..self.n as u32 {
                assert!(
                    f.tree_size(x) as usize <= cap,
                    "tree of {x} in F_{lvl} exceeds {cap} vertices"
                );
            }
            let mut marked: Vec<(u32, u32)> = f.flagged(FLAG_TREE).collect();
            marked.sort_unstable();
            tree_at[lvl].sort_unstable();
            assert_eq!(marked, tree_at[lvl], "FLAG_TREE arcs in F_{lvl}");
            let mut flagged: Vec<(u32, u32)> = f.flagged(FLAG_NONTREE).collect();
            flagged.sort_unstable();
            let mut owners: Vec<(u32, u32)> = self.nontree[lvl]
                .iter()
                .map(|(k, ())| (unpack(k).0, unpack(k).0))
                .collect();
            owners.dedup();
            assert_eq!(flagged, owners, "FLAG_NONTREE vertices in F_{lvl}");
        }
    }

    /// Level of the live edge (u, v).
    #[cfg(test)]
    fn level_of(&self, u: u32, v: u32) -> Option<u16> {
        let (a, b) = canon(u, v);
        self.edges.get(a, b).map(|w| (w & 0xffff) as u16)
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
            // Setting the flag is O(1) and idempotent: no rank probe.
            self.levels[lvl as usize].set_vertex_flag(x, FLAG_NONTREE, true);
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
    /// `u` and `v` in F_i.
    ///
    /// Standard HDT promotes the smaller tree's level-i tree edges to
    /// level i+1, then scans its level-i non-tree edges: each candidate
    /// that stays inside the smaller tree is promoted too, and the first
    /// one that leaves it is the replacement. Here the scan's first
    /// candidate is probed before anything is promoted. Promoting a tree
    /// edge at level i only clears its `FLAG_TREE` arc bit in F_i; F_i's
    /// tours and `FLAG_NONTREE` bits stay as they are, so the probe finds
    /// exactly the candidate the scan would examine first. If there is
    /// none, the level has no replacement and nothing is promoted. If it
    /// leaves the smaller tree, it is the edge standard HDT would pick,
    /// and nothing is promoted either. Only an internal first candidate
    /// runs the promote-then-scan path.
    ///
    /// The amortized bound is unchanged. Promotions exist to keep the two
    /// invariants while internal candidates move up: F_{i+1}'s trees stay
    /// within n/2^(i+1) vertices, and each promoted non-tree edge lies
    /// inside F_{i+1}. A level settled by the probe promotes no non-tree
    /// edge, so it needs no tree edge moved. Levels still only rise, and
    /// the probe costs one flag search and one rank probe per level, the
    /// same O(1) splice-equivalents standard HDT pays to end a level.
    fn replace(&mut self, u: u32, v: u32, i: u16) -> Option<(u32, u32)> {
        let fi = &self.levels[i as usize];
        let small = if fi.tree_size(u) <= fi.tree_size(v) {
            u
        } else {
            v
        };
        // 0. Probe the scan's first candidate before promoting anything.
        let (x, _) = fi.find_flag(small, FLAG_NONTREE)?;
        if let Some(y) = self.first_nontree(x, i) {
            if !fi.connected(y, small) {
                self.scan_steps += 1;
                self.remove_nontree(x, y, i);
                return Some(self.link_replacement(x, y, i));
            }
        }
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
                found = Some(self.link_replacement(x, y, i));
                break;
            }
        }
        for (x, y) in parked {
            self.add_nontree(x, y, i);
        }
        found
    }

    /// Make (x, y), already off the non-tree lists, the level-i
    /// replacement tree edge: linked in F_0..=F_i, flagged in F_i.
    fn link_replacement(&mut self, x: u32, y: u32, i: u16) -> (u32, u32) {
        let (a, b) = canon(x, y);
        self.edges.insert(a, b, i as u64 | TREE_BIT);
        self.n_tree += 1;
        for j in 0..=i {
            self.levels[j as usize].link(a, b);
        }
        self.levels[i as usize].set_arc_flag(a, b, FLAG_TREE, true);
        (a, b)
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
                f.validate();
            }
        }
        check_forest_matches(&f, &oracle);
        f.validate();
    }

    /// A forest over `n` vertices holding `tree` (linked in order, so
    /// each is a level-0 tree edge) and then `nontree`.
    fn forest(n: usize, tree: &[(u32, u32)], nontree: &[(u32, u32)]) -> DynamicForest {
        let mut f = DynamicForest::new(n);
        for &(u, v) in tree {
            assert_eq!(f.insert_edge(u, v).added, vec![canon(u, v)]);
        }
        for &(u, v) in nontree {
            assert!(f.insert_edge(u, v).added.is_empty());
        }
        f.validate();
        f
    }

    #[test]
    fn probe_takes_a_crossing_first_candidate_without_promoting() {
        // Path 0-1-2-3 plus (0, 2). Cutting (1, 2) leaves {0, 1} as the
        // smaller side; its only candidate, (0, 2), leaves it.
        let mut f = forest(8, &[(0, 1), (1, 2), (2, 3)], &[(0, 2)]);
        let d = f.delete_edge(1, 2);
        assert_eq!(d.added, vec![(0, 2)]);
        assert!(f.connected(1, 3));
        assert_eq!(f.level_of(0, 1), Some(0), "smaller side was promoted");
        assert_eq!(f.level_of(0, 2), Some(0));
        assert_eq!(f.scan_steps(), 1);
        f.validate();
    }

    #[test]
    fn probe_falls_back_to_promote_then_scan_on_an_internal_candidate() {
        // Path 0-…-6 plus (0, 2) and (0, 5). Cutting (2, 3) leaves
        // {0, 1, 2} as the smaller side. Its first candidate is internal:
        // vertex 0 lists 2 before 5, and vertex 2 lists only 0.
        let path = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)];
        let mut f = forest(7, &path, &[(0, 2), (0, 5)]);
        let d = f.delete_edge(2, 3);
        assert_eq!(d.added, vec![(0, 5)]);
        assert!(f.connected(2, 3));
        assert!(f.is_tree_edge(0, 5));
        assert_eq!(f.level_of(0, 5), Some(0));
        assert_eq!(f.level_of(0, 1), Some(1));
        assert_eq!(f.level_of(1, 2), Some(1));
        assert_eq!(f.level_of(0, 2), Some(1), "internal candidate not promoted");
        for (u, v) in [(3, 4), (4, 5), (5, 6)] {
            assert_eq!(f.level_of(u, v), Some(0));
        }
        f.validate();
    }

    #[test]
    fn probe_without_a_candidate_splits_and_promotes_nothing() {
        // Path 0-…-4 plus (2, 4). Cutting (1, 2) leaves {0, 1} as the
        // smaller side with no non-tree edge: no replacement exists.
        let mut f = forest(8, &[(0, 1), (1, 2), (2, 3), (3, 4)], &[(2, 4)]);
        let d = f.delete_edge(1, 2);
        assert!(d.added.is_empty());
        assert!(!f.connected(1, 2));
        assert_eq!(f.component_size(0), 2);
        for (u, v) in [(0, 1), (2, 3), (3, 4), (2, 4)] {
            assert_eq!(f.level_of(u, v), Some(0), "({u},{v}) changed level");
        }
        assert_eq!(f.scan_steps(), 0);
        f.validate();
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
            let tree_bit: Vec<(u32, u32)> = f
                .edges
                .iter()
                .filter(|&(_, _, w)| w & TREE_BIT != 0)
                .map(|(a, b, _)| (a, b))
                .collect();
            assert_eq!(
                want, tree_bit,
                "forest_edges = the TREE_BIT filter, in order"
            );
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
