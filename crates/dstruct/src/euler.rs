//! Euler-tour trees on a *flat batched sequence*: each tree of the forest
//! is its Euler tour, stored as an ordered list of small contiguous
//! blocks of node ids (the [`crate::flat_list`] idiom applied to
//! sequences) instead of the treap the seed carried. Supports
//! link/cut/connected/tree-size plus OR-aggregated flag bits used by the
//! HDT connectivity layer ([`crate::hdt`]) to locate tree edges of a
//! given level and vertices carrying non-tree edges.
//!
//! Representation: every vertex present in the forest owns a *vertex
//! node* (payload `(v, v)`), and every tree edge `(u, v)` owns two *arc
//! nodes* (payloads `(u, v)` and `(v, u)`). The tour of a k-vertex tree
//! holds k vertex nodes and 2(k-1) arc nodes, chopped into blocks of at
//! most `BLOCK_MAX` ids. A node records only which block holds it, a
//! block only which tree owns it, and a tree its block ids in tour
//! order (one contiguous `u32` array). That makes the hot read queries —
//! `connected`, `tree_size` — two array loads, `&self`, and shareable by
//! read mirrors, where the treap had to chase parent pointers under
//! `&mut self`.
//!
//! Splices pay for the smaller side. A node's place in its tour is found
//! by a dense scan of its tree's block-id array for its block. A cut
//! carves block boundaries just inside the two arcs (carving the shorter
//! part of a block), then hands the cut-out middle — or the outer
//! remainder, whichever has fewer blocks — to a fresh tree; the other
//! side keeps its tree id and array, edited by one drain. When both arcs
//! share a block, the middle is carved out of it directly. A link
//! rotates the tour with fewer blocks to start at its endpoint and
//! splices it into the other tour just before the other endpoint; the
//! larger tour is never rerooted, and a one-block tour that fits is
//! spliced into the endpoint's block in place. Undersized blocks that
//! meet at a splice seam are merged. So a link or cut costs
//! O(smaller side / BLOCK + BLOCK) random work (relabelling the moved
//! blocks, carving and merging boundary blocks) plus O(tour / BLOCK)
//! dense work (scans and memmoves of one `u32` array), with no
//! priorities, no RNG, and no dependent pointer chases. Flag search
//! scans per-block OR aggregates.

use crate::edge_table::EdgeTable;
use std::ops::Range;

const NIL: u32 = u32::MAX;

/// Hard cap on a block's length: appends open a fresh block past this.
const BLOCK_MAX: usize = 128;
/// Blocks meeting at a splice seam are merged when their combined length
/// stays at or under this (= `BLOCK_MAX / 2`), so splices cannot shred
/// the sequence into dust: every merge-surviving seam pair averages > 32
/// ids.
const BLOCK_MERGE: usize = 64;

/// Freed id arrays up to this capacity are kept for reuse; larger ones
/// are released (see `recycle`).
const RECYCLE_MAX: usize = 16;

/// Flag bit: the vertex owning this node has non-tree edges (at the
/// forest's level, in HDT usage).
pub const FLAG_NONTREE: u8 = 1;
/// Flag bit: this arc's edge has level exactly equal to this forest's
/// level (HDT usage). Set on one arc per edge.
pub const FLAG_TREE: u8 = 2;

#[derive(Clone)]
struct Node {
    a: u32,
    b: u32,
    flags: u8,
    /// Block currently holding this node (NIL while free).
    block: u32,
}

#[derive(Clone, Default)]
struct Block {
    items: Vec<u32>,
    /// Owning tree.
    tree: u32,
    /// OR of item flags.
    agg: u8,
    /// Number of vertex nodes among items.
    vcnt: u32,
}

#[derive(Clone, Default)]
struct Tree {
    /// Block ids in tour order.
    blocks: Vec<u32>,
    /// Total vertex-node count across blocks.
    vcnt: u32,
}

/// Two distinct elements of one slice, both mutable.
fn pair_mut<T>(v: &mut [T], i: u32, j: u32) -> (&mut T, &mut T) {
    let (i, j) = (i as usize, j as usize);
    debug_assert_ne!(i, j);
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Index of `id` in `ids`. Compares a whole chunk of ids per step
/// without branching, which the compiler vectorizes, then pins down the
/// hit inside the one chunk that has it.
fn index_of(ids: &[u32], id: u32) -> Option<usize> {
    const CHUNK: usize = 16;
    let mut chunks = ids.chunks_exact(CHUNK);
    for (c, chunk) in (&mut chunks).enumerate() {
        if chunk.iter().fold(false, |hit, &x| hit | (x == id)) {
            return chunk.iter().position(|&x| x == id).map(|i| c * CHUNK + i);
        }
    }
    let rest = chunks.remainder();
    let base = ids.len() - rest.len();
    rest.iter().position(|&x| x == id).map(|i| base + i)
}

/// Empty a freed block's or tree's id array for reuse. Its allocation
/// is kept only when small (at most `RECYCLE_MAX` ids): recycled slots
/// mostly hold carve pieces and singletons, and must not pin the memory
/// of the large arrays they once held.
fn recycle(ids: &mut Vec<u32>) {
    if ids.capacity() > RECYCLE_MAX {
        *ids = Vec::new();
    } else {
        ids.clear();
    }
}

/// A forest of Euler-tour trees over `u32` vertices, tours stored as
/// flat block sequences. Deterministic; all read queries take `&self`.
pub struct EulerForest {
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    blocks: Vec<Block>,
    free_blocks: Vec<u32>,
    trees: Vec<Tree>,
    free_trees: Vec<u32>,
    /// vertex -> its vertex node (NIL until first touched); grows on
    /// demand so vertex ids need not be pre-declared.
    vnode: Vec<u32>,
    /// directed arc (u, v) -> its arc node
    arc: EdgeTable,
    /// Blocks handed from one tree to another by splices: the per-block
    /// random work the smaller-side rule bounds.
    #[cfg(test)]
    relabels: u64,
}

impl Default for EulerForest {
    fn default() -> Self {
        Self::new()
    }
}

impl EulerForest {
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            trees: Vec::new(),
            free_trees: Vec::new(),
            vnode: Vec::new(),
            arc: EdgeTable::new(),
            #[cfg(test)]
            relabels: 0,
        }
    }

    // ---- slab plumbing ----------------------------------------------

    fn alloc_node(&mut self, a: u32, b: u32) -> u32 {
        let node = Node {
            a,
            b,
            flags: 0,
            block: NIL,
        };
        if let Some(i) = self.free_nodes.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, x: u32) {
        self.nodes[x as usize].block = NIL;
        self.free_nodes.push(x);
    }

    /// An empty block owned by `tree`, recycled from the free list when
    /// one is there.
    fn alloc_block(&mut self, tree: u32) -> u32 {
        let b = if let Some(b) = self.free_blocks.pop() {
            b
        } else {
            self.blocks.push(Block::default());
            (self.blocks.len() - 1) as u32
        };
        let bl = &mut self.blocks[b as usize];
        bl.tree = tree;
        bl.agg = 0;
        bl.vcnt = 0;
        b
    }

    fn free_block(&mut self, b: u32) {
        recycle(&mut self.blocks[b as usize].items);
        self.free_blocks.push(b);
    }

    /// An empty tree, recycled from the free list when one is there.
    fn alloc_tree(&mut self) -> u32 {
        if let Some(t) = self.free_trees.pop() {
            self.trees[t as usize].vcnt = 0;
            t
        } else {
            self.trees.push(Tree::default());
            (self.trees.len() - 1) as u32
        }
    }

    fn free_tree(&mut self, t: u32) {
        recycle(&mut self.trees[t as usize].blocks);
        self.free_trees.push(t);
    }

    #[inline]
    fn tree_of_node(&self, x: u32) -> u32 {
        self.blocks[self.nodes[x as usize].block as usize].tree
    }

    /// Recompute a block's OR-aggregate and vertex count from scratch.
    fn recompute_block(&mut self, b: u32) {
        let mut agg = 0u8;
        let mut vcnt = 0u32;
        let bl = &self.blocks[b as usize];
        for &x in &bl.items {
            let n = &self.nodes[x as usize];
            agg |= n.flags;
            vcnt += (n.a == n.b) as u32;
        }
        let bl = &mut self.blocks[b as usize];
        bl.agg = agg;
        bl.vcnt = vcnt;
    }

    // ---- sequence primitives ----------------------------------------

    /// Index of `x`'s block in its tree's block list, and `x`'s offset
    /// within that block: a scan of one block and a dense scan of the
    /// tree's block ids.
    fn locate(&self, x: u32) -> (usize, usize) {
        let b = self.nodes[x as usize].block;
        let bl = &self.blocks[b as usize];
        let off = bl
            .items
            .iter()
            .position(|&i| i == x)
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            .expect("node missing from its block");
        let idx = index_of(&self.trees[bl.tree as usize].blocks, b)
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            .expect("block missing from its tree");
        (idx, off)
    }

    /// Block `b` just lost ids whose flags OR to `agg`, `vcnt` of them
    /// vertex nodes: fix its aggregates, rescanning only if flags left.
    fn shrunk(&mut self, b: u32, agg: u8, vcnt: u32) {
        if agg != 0 {
            self.recompute_block(b);
        } else {
            self.blocks[b as usize].vcnt -= vcnt;
        }
    }

    /// Move `items[range]` of block `b` into a new block of the same tree
    /// and return it; the caller places it in the tree's block list.
    fn carve(&mut self, b: u32, range: Range<usize>) -> u32 {
        let nb = self.alloc_block(self.blocks[b as usize].tree);
        let (src, dst) = pair_mut(&mut self.blocks, b, nb);
        dst.items.extend(src.items.drain(range));
        for &x in &dst.items {
            let n = &mut self.nodes[x as usize];
            n.block = nb;
            dst.agg |= n.flags;
            dst.vcnt += (n.a == n.b) as u32;
        }
        let (agg, vcnt) = (dst.agg, dst.vcnt);
        self.shrunk(b, agg, vcnt);
        nb
    }

    /// Make a block boundary in tree `t` just before item `off` of its
    /// `i`-th block, carving the shorter part of that block into a new
    /// block when the boundary falls inside it. Returns the index of the
    /// first block after the boundary.
    fn split_at(&mut self, t: u32, i: usize, off: usize) -> usize {
        let b = self.trees[t as usize].blocks[i];
        let len = self.blocks[b as usize].items.len();
        if off == 0 {
            return i;
        }
        if off < len {
            let (range, at) = if off <= len / 2 {
                (0..off, i)
            } else {
                (off..len, i + 1)
            };
            let nb = self.carve(b, range);
            self.trees[t as usize].blocks.insert(at, nb);
        }
        i + 1
    }

    /// Hand the blocks at `range` of tree `t`'s block list to `t`, which
    /// just received them from another tree. This is the only per-block
    /// work a splice does on the side that moves. Returns the number of
    /// vertex nodes the blocks hold.
    fn relabel(&mut self, t: u32, range: Range<usize>) -> u32 {
        #[cfg(test)]
        {
            self.relabels += range.len() as u64;
        }
        let mut vcnt = 0;
        for &b in &self.trees[t as usize].blocks[range] {
            let bl = &mut self.blocks[b as usize];
            bl.tree = t;
            vcnt += bl.vcnt;
        }
        vcnt
    }

    /// Move all of block `src`'s ids into block `dst` at offset `at` and
    /// free `src`, provided the two hold at most `limit` ids together.
    /// Returns whether it did; the caller drops `src` from its block
    /// list.
    fn absorb(&mut self, dst: u32, src: u32, at: usize, limit: usize) -> bool {
        let (d, s) = pair_mut(&mut self.blocks, dst, src);
        if d.items.len() + s.items.len() > limit {
            return false;
        }
        for &x in &s.items {
            self.nodes[x as usize].block = dst;
        }
        d.items.splice(at..at, s.items.drain(..));
        d.agg |= s.agg;
        d.vcnt += s.vcnt;
        self.free_block(src);
        true
    }

    /// Seam merge: blocks `i - 1` and `i` of tree `t` just became
    /// neighbours; merge them if they hold at most `BLOCK_MERGE` ids.
    fn merge_seam(&mut self, t: u32, i: usize) {
        let tb = &self.trees[t as usize].blocks;
        if i == 0 || i >= tb.len() {
            return;
        }
        let (left, right) = (tb[i - 1], tb[i]);
        let at = self.blocks[left as usize].items.len();
        if self.absorb(left, right, at, BLOCK_MERGE) {
            self.trees[t as usize].blocks.remove(i);
        }
    }

    /// Remove `items[range]` (arc nodes about to be freed) from the
    /// `i`-th block of tree `t`, freeing the block if that empties it.
    /// Returns whether it did.
    fn drop_arcs(&mut self, t: u32, i: usize, range: Range<usize>) -> bool {
        let b = self.trees[t as usize].blocks[i];
        let mut agg = 0;
        for x in self.blocks[b as usize].items.drain(range) {
            agg |= self.nodes[x as usize].flags;
        }
        self.shrunk(b, agg, 0);
        if !self.blocks[b as usize].items.is_empty() {
            return false;
        }
        self.trees[t as usize].blocks.remove(i);
        self.free_block(b);
        true
    }

    /// Add a lone node at the front (or back) of tree `t`'s tour.
    fn push_node(&mut self, t: u32, x: u32, front: bool) {
        let tb = &self.trees[t as usize].blocks;
        let end = if front { tb.first() } else { tb.last() };
        let b = match end {
            Some(&b) if self.blocks[b as usize].items.len() < BLOCK_MAX => b,
            _ => {
                let nb = self.alloc_block(t);
                let tb = &mut self.trees[t as usize].blocks;
                if front {
                    tb.insert(0, nb);
                } else {
                    tb.push(nb);
                }
                nb
            }
        };
        let n = &mut self.nodes[x as usize];
        n.block = b;
        let (flags, is_v) = (n.flags, n.a == n.b);
        let bl = &mut self.blocks[b as usize];
        if front {
            bl.items.insert(0, x);
        } else {
            bl.items.push(x);
        }
        bl.agg |= flags;
        bl.vcnt += is_v as u32;
        self.trees[t as usize].vcnt += is_v as u32;
    }

    // ---- public surface ---------------------------------------------

    /// Get (or lazily create, as a singleton tour) the vertex node for
    /// `v`.
    pub fn ensure_vertex(&mut self, v: u32) -> u32 {
        if let Some(&i) = self.vnode.get(v as usize) {
            if i != NIL {
                return i;
            }
        }
        if self.vnode.len() <= v as usize {
            self.vnode.resize(v as usize + 1, NIL);
        }
        let i = self.alloc_node(v, v);
        let t = self.alloc_tree();
        self.push_node(t, i, false);
        self.vnode[v as usize] = i;
        i
    }

    #[inline]
    fn vertex_node(&self, v: u32) -> Option<u32> {
        match self.vnode.get(v as usize) {
            Some(&i) if i != NIL => Some(i),
            _ => None,
        }
    }

    /// Whether `u` and `v` share a tree. `&self`: two array loads per
    /// endpoint, no restructuring — safe to call from shared mirrors.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        match (self.vertex_node(u), self.vertex_node(v)) {
            (Some(nu), Some(nv)) => self.tree_of_node(nu) == self.tree_of_node(nv),
            // A never-touched vertex is its own singleton component.
            _ => false,
        }
    }

    /// Number of vertices in `v`'s tree (1 for never-touched vertices).
    pub fn tree_size(&self, v: u32) -> u32 {
        match self.vertex_node(v) {
            Some(nv) => self.trees[self.tree_of_node(nv) as usize].vcnt,
            None => 1,
        }
    }

    /// Link the trees containing `u` and `v` with edge (u, v).
    /// Panics (debug) if they are already connected.
    pub fn link(&mut self, u: u32, v: u32) {
        debug_assert!(!self.connected(u, v), "link({u},{v}) inside one tree");
        let (nu, nv) = (self.ensure_vertex(u), self.ensure_vertex(v));
        let auv = self.alloc_node(u, v);
        let avu = self.alloc_node(v, u);
        self.arc.insert(u, v, auv as u64);
        self.arc.insert(v, u, avu as u64);
        let (tu, tv) = (self.tree_of_node(nu), self.tree_of_node(nv));
        // s is the endpoint whose tour has fewer blocks, l the other:
        // l's tour X l Y becomes X (l,s) S (s,l) l Y, where S is s's tour
        // rotated to start at s.
        let (ns, ts, nl, tl, arc_in, arc_out) =
            if self.trees[tu as usize].blocks.len() <= self.trees[tv as usize].blocks.len() {
                (nu, tu, nv, tv, avu, auv)
            } else {
                (nv, tv, nu, tu, auv, avu)
            };
        let (j, off) = self.locate(ns);
        if self.trees[ts as usize].blocks.len() == 1 {
            let b = self.trees[ts as usize].blocks[0];
            self.blocks[b as usize].items.rotate_left(off);
        } else {
            let k = self.split_at(ts, j, off);
            let sb = &mut self.trees[ts as usize].blocks;
            sb.rotate_left(k);
            // The rotation makes the old end and the old start neighbours.
            let seam = (sb.len() - k) % sb.len();
            self.merge_seam(ts, seam);
        }
        self.push_node(ts, arc_in, true);
        self.push_node(ts, arc_out, false);
        let mut seg = std::mem::take(&mut self.trees[ts as usize].blocks);
        let (i, off) = self.locate(nl);
        let bl = self.trees[tl as usize].blocks[i];
        if seg.len() == 1 && self.absorb(bl, seg[0], off, BLOCK_MAX) {
            // S fitted into l's block in place.
            seg.clear();
        } else {
            // Open l's tour just before l (l's block is then the k-th),
            // merge S's end blocks into their new neighbours where they
            // fit, and insert the rest of S's block ids.
            let k = self.split_at(tl, i, off);
            if k > 0 {
                let prev = self.trees[tl as usize].blocks[k - 1];
                let at = self.blocks[prev as usize].items.len();
                if self.absorb(prev, seg[0], at, BLOCK_MERGE) {
                    seg.remove(0);
                }
            }
            if let Some(&last) = seg.last() {
                if self.absorb(self.trees[tl as usize].blocks[k], last, 0, BLOCK_MERGE) {
                    seg.pop();
                }
            }
            let moved = seg.len();
            self.trees[tl as usize].blocks.splice(k..k, seg.drain(..));
            self.relabel(tl, k..k + moved);
        }
        let vcnt = self.trees[ts as usize].vcnt;
        self.trees[tl as usize].vcnt += vcnt;
        self.trees[ts as usize].blocks = seg;
        self.free_tree(ts);
    }

    /// Cut the tree edge (u, v). Panics if absent.
    pub fn cut(&mut self, u: u32, v: u32) {
        // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
        let auv = self.arc.remove(u, v).expect("cut: missing arc") as u32;
        // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
        let avu = self.arc.remove(v, u).expect("cut: missing arc") as u32;
        let t = self.tree_of_node(auv);
        let (pu, pv) = (self.locate(auv), self.locate(avu));
        let ((i1, o1), (i2, o2)) = if pu < pv { (pu, pv) } else { (pv, pu) };
        // tour = A x1 B x2 C; resulting trees: B, and A ++ C.
        let nt = self.alloc_tree();
        if i1 == i2 {
            // B lies inside one block: carve it out as B's one-block tour
            // and close the gap the two arcs leave.
            let b = self.trees[t as usize].blocks[i1];
            let nb = self.carve(b, o1 + 1..o2);
            self.trees[nt as usize].blocks.push(nb);
            let vcnt = self.relabel(nt, 0..1);
            self.trees[nt as usize].vcnt = vcnt;
            self.trees[t as usize].vcnt -= vcnt;
            if self.drop_arcs(t, i1, o1..o1 + 2) {
                self.merge_seam(t, i1);
            }
        } else {
            // Carve block boundaries just after x1 and just before x2
            // (the later one first, so the earlier position stays
            // valid): B is then exactly the blocks s..e.
            let mut e = self.split_at(t, i2, o2);
            let before = self.trees[t as usize].blocks.len();
            let s = self.split_at(t, i1, o1 + 1);
            e += self.trees[t as usize].blocks.len() - before;
            let in_b = e - s;
            let outside = self.trees[t as usize].blocks.len() - in_b;
            // The side with fewer blocks moves to the fresh tree.
            let (src, dst) = pair_mut(&mut self.trees, t, nt);
            let ac = if in_b <= outside {
                dst.blocks.extend(src.blocks.drain(s..e));
                t
            } else {
                dst.blocks.extend_from_slice(&src.blocks[..s]);
                dst.blocks.extend_from_slice(&src.blocks[e..]);
                src.blocks.truncate(e);
                src.blocks.drain(..s);
                nt
            };
            let vcnt = self.relabel(nt, 0..in_b.min(outside));
            self.trees[nt as usize].vcnt = vcnt;
            self.trees[t as usize].vcnt -= vcnt;
            // In A ++ C, x1 ends block s-1 and x2 starts block s; drop
            // both, then merge the blocks where A meets C.
            let end = self.blocks[self.trees[ac as usize].blocks[s - 1] as usize]
                .items
                .len();
            let s = s - self.drop_arcs(ac, s - 1, end - 1..end) as usize;
            self.drop_arcs(ac, s, 0..1);
            self.merge_seam(ac, s);
        }
        self.free_node(auv);
        self.free_node(avu);
    }

    /// Set/clear a flag bit on `v`'s vertex node.
    pub fn set_vertex_flag(&mut self, v: u32, bit: u8, on: bool) {
        let nv = self.ensure_vertex(v);
        let f = &mut self.nodes[nv as usize].flags;
        if on {
            *f |= bit;
        } else {
            *f &= !bit;
        }
        let b = self.nodes[nv as usize].block;
        if on {
            self.blocks[b as usize].agg |= bit;
        } else {
            self.recompute_block(b);
        }
    }

    /// Set/clear a flag bit on the (u, v) arc node (the canonical arc of
    /// a tree edge). Panics if the edge is not in the forest.
    pub fn set_arc_flag(&mut self, u: u32, v: u32, bit: u8, on: bool) {
        // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
        let a = self.arc.get(u, v).expect("set_arc_flag: missing arc") as u32;
        let f = &mut self.nodes[a as usize].flags;
        if on {
            *f |= bit;
        } else {
            *f &= !bit;
        }
        let b = self.nodes[a as usize].block;
        if on {
            self.blocks[b as usize].agg |= bit;
        } else {
            self.recompute_block(b);
        }
    }

    /// Find any node in `v`'s tree carrying `bit`; returns its payload
    /// `(a, b)` (a == b for vertex nodes). Scans per-block aggregates,
    /// then one block: O(tour/BLOCK + BLOCK), `&self`.
    pub fn find_flag(&self, v: u32, bit: u8) -> Option<(u32, u32)> {
        let nv = self.vertex_node(v)?;
        let t = self.tree_of_node(nv);
        for &b in &self.trees[t as usize].blocks {
            let bl = &self.blocks[b as usize];
            if bl.agg & bit == 0 {
                continue;
            }
            for &x in &bl.items {
                let n = &self.nodes[x as usize];
                if n.flags & bit != 0 {
                    return Some((n.a, n.b));
                }
            }
        }
        None
    }

    /// All vertices in `v`'s tree, in tour order (O(size) scan; used by
    /// tests and small-component enumeration).
    pub fn tree_vertices(&self, v: u32) -> Vec<u32> {
        let Some(nv) = self.vertex_node(v) else {
            return vec![v];
        };
        let t = self.tree_of_node(nv);
        let tr = &self.trees[t as usize];
        let mut out = Vec::with_capacity(tr.vcnt as usize);
        for &b in &tr.blocks {
            for &x in &self.blocks[b as usize].items {
                let n = &self.nodes[x as usize];
                if n.a == n.b {
                    out.push(n.a);
                }
            }
        }
        out
    }

    /// Number of tree edges in the forest.
    pub(crate) fn num_edges(&self) -> usize {
        self.arc.len() / 2
    }

    /// Payloads `(a, b)` of every live node carrying `bit`, in slab
    /// order (O(nodes) scan, for invariant checks).
    pub(crate) fn flagged(&self, bit: u8) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.nodes
            .iter()
            .filter(move |n| n.block != NIL && n.flags & bit != 0)
            .map(|n| (n.a, n.b))
    }

    /// Whether the forest currently stores the tree edge (u, v).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.arc.contains(u, v)
    }

    /// Bulk-build the tours of a forest given its (acyclic) edge set:
    /// per-component Euler tours are laid out by an iterative DFS and
    /// chopped into near-full blocks, skipping the link-by-link splice
    /// path entirely. Tour *construction* over the components runs
    /// through [`bds_par`]-style parallel mapping at the caller's layer;
    /// here the layout itself is a single linear pass per component.
    pub fn bulk_build(forest_edges: &[(u32, u32)]) -> Self {
        let mut f = Self::new();
        if forest_edges.is_empty() {
            return f;
        }
        // Adjacency over the touched vertices only.
        let mut verts: Vec<u32> = forest_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        verts.sort_unstable();
        verts.dedup();
        // bds:allow(no-unwrap): verts collects exactly the vertices this closure is called with.
        let index = |v: u32| verts.binary_search(&v).unwrap();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); verts.len()];
        for &(u, v) in forest_edges {
            adj[index(u)].push(v);
            adj[index(v)].push(u);
        }
        let mut seen = vec![false; verts.len()];
        for start in 0..verts.len() {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let t = f.alloc_tree();
            // Iterative DFS emitting the Euler tour: vertex node on
            // first entry, arc nodes around each child visit.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            let nv = f.alloc_node(verts[start], verts[start]);
            f.vnode_set(verts[start], nv);
            f.push_node(t, nv, false);
            while let Some(&mut (x, ref mut ei)) = stack.last_mut() {
                if *ei >= adj[x].len() {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        let (pu, pv) = (verts[p], verts[x]);
                        let back = f.alloc_node(pv, pu);
                        f.arc.insert(pv, pu, back as u64);
                        f.push_node(t, back, false);
                    }
                    continue;
                }
                let y = adj[x][*ei];
                *ei += 1;
                let yi = index(y);
                if seen[yi] {
                    continue;
                }
                seen[yi] = true;
                let (xu, yv) = (verts[x], y);
                let fwd = f.alloc_node(xu, yv);
                f.arc.insert(xu, yv, fwd as u64);
                f.push_node(t, fwd, false);
                let nv = f.alloc_node(yv, yv);
                f.vnode_set(yv, nv);
                f.push_node(t, nv, false);
                stack.push((yi, 0));
            }
        }
        f
    }

    fn vnode_set(&mut self, v: u32, node: u32) {
        if self.vnode.len() <= v as usize {
            self.vnode.resize(v as usize + 1, NIL);
        }
        self.vnode[v as usize] = node;
    }

    /// Structural invariant check used by tests: every live tree's
    /// blocks point back at it and at no other tree, free blocks are in
    /// no tree, nodes point back at their blocks, and vertex counts and
    /// per-block aggregates agree with the item arrays.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut free_tree = vec![false; self.trees.len()];
        for &t in &self.free_trees {
            free_tree[t as usize] = true;
        }
        let mut owner = vec![NIL; self.blocks.len()];
        for (ti, tr) in self.trees.iter().enumerate() {
            if free_tree[ti] {
                continue;
            }
            assert!(!tr.blocks.is_empty(), "live tree without blocks");
            let mut vcnt = 0;
            for &b in &tr.blocks {
                let bl = &self.blocks[b as usize];
                assert_eq!(owner[b as usize], NIL, "block {b} listed twice");
                owner[b as usize] = ti as u32;
                assert_eq!(bl.tree, ti as u32, "block tree back-link");
                assert!(!bl.items.is_empty(), "empty block retained");
                assert!(bl.items.len() <= BLOCK_MAX, "oversized block");
                let mut agg = 0u8;
                let mut bv = 0u32;
                for &x in &bl.items {
                    let n = &self.nodes[x as usize];
                    assert_eq!(n.block, b, "node block back-link");
                    agg |= n.flags;
                    bv += (n.a == n.b) as u32;
                }
                assert_eq!(bl.agg, agg, "block agg");
                assert_eq!(bl.vcnt, bv, "block vcnt");
                vcnt += bv;
            }
            assert_eq!(tr.vcnt, vcnt, "tree vcnt");
        }
        for &b in &self.free_blocks {
            assert_eq!(owner[b as usize], NIL, "free block {b} still in a tree");
        }
    }

    /// Block count of `v`'s tree (tests size their tours with it).
    #[cfg(test)]
    fn tree_blocks(&self, v: u32) -> usize {
        self.vertex_node(v).map_or(0, |nv| {
            self.trees[self.tree_of_node(nv) as usize].blocks.len()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_cut_connected() {
        let mut f = EulerForest::new();
        assert!(!f.connected(0, 1));
        f.link(0, 1);
        f.link(1, 2);
        f.link(3, 4);
        assert!(f.connected(0, 2));
        assert!(!f.connected(0, 3));
        assert_eq!(f.tree_size(0), 3);
        assert_eq!(f.tree_size(3), 2);
        f.link(2, 3);
        assert!(f.connected(0, 4));
        assert_eq!(f.tree_size(4), 5);
        f.cut(1, 2);
        assert!(f.connected(0, 1));
        assert!(!f.connected(0, 2));
        assert!(f.connected(2, 4));
        assert_eq!(f.tree_size(2), 3);
        f.check_invariants();
    }

    #[test]
    fn flags_found_across_links() {
        let mut f = EulerForest::new();
        f.link(0, 1);
        f.link(1, 2);
        f.set_vertex_flag(2, FLAG_NONTREE, true);
        assert_eq!(f.find_flag(0, FLAG_NONTREE), Some((2, 2)));
        f.set_vertex_flag(2, FLAG_NONTREE, false);
        assert_eq!(f.find_flag(0, FLAG_NONTREE), None);
        f.set_arc_flag(0, 1, FLAG_TREE, true);
        assert_eq!(f.find_flag(2, FLAG_TREE), Some((0, 1)));
        // Flag survives a link that rotates its tour.
        f.link(2, 7);
        assert_eq!(f.find_flag(7, FLAG_TREE), Some((0, 1)));
        f.check_invariants();
    }

    #[test]
    fn reads_are_shared_ref() {
        // The PR-8 satellite: connected / tree_size / find_flag /
        // tree_vertices compile against &EulerForest.
        let mut f = EulerForest::new();
        f.link(0, 1);
        let r: &EulerForest = &f;
        assert!(r.connected(0, 1));
        assert_eq!(r.tree_size(0), 2);
        assert_eq!(r.find_flag(0, FLAG_TREE), None);
        assert_eq!(r.tree_vertices(9), vec![9]);
    }

    #[test]
    fn randomized_against_dsu_rebuild() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 60u32;
        let mut rng = StdRng::seed_from_u64(99);
        let mut f = EulerForest::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for step in 0..600 {
            if !edges.is_empty() && rng.gen_bool(0.4) {
                let i = rng.gen_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                f.cut(u, v);
            } else {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && !f.connected(u, v) {
                    f.link(u, v);
                    edges.push((u, v));
                }
            }
            if step % 97 == 0 {
                f.check_invariants();
            }
            // Oracle: DSU over current edge set.
            let mut dsu: Vec<u32> = (0..n).collect();
            fn find(dsu: &mut Vec<u32>, x: u32) -> u32 {
                if dsu[x as usize] != x {
                    let r = find(dsu, dsu[x as usize]);
                    dsu[x as usize] = r;
                }
                dsu[x as usize]
            }
            for &(u, v) in &edges {
                let (ru, rv) = (find(&mut dsu, u), find(&mut dsu, v));
                if ru != rv {
                    dsu[ru as usize] = rv;
                }
            }
            for _ in 0..20 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                assert_eq!(
                    f.connected(u, v),
                    find(&mut dsu, u) == find(&mut dsu, v),
                    "connectivity mismatch for ({u},{v})"
                );
            }
            // Tree sizes must equal component sizes for tracked vertices.
            let u = rng.gen_range(0..n);
            let ru = find(&mut dsu, u);
            let comp = (0..n).filter(|&x| find(&mut dsu, x) == ru).count() as u32;
            let ts = f.tree_size(u);
            assert!(
                ts == comp || (ts == 1 && comp == 1),
                "size mismatch {ts} vs {comp}"
            );
        }
        f.check_invariants();
    }

    /// DSU oracle over an explicit edge list: component root per vertex.
    fn dsu_roots(n: u32, edges: &[(u32, u32)]) -> Vec<u32> {
        fn find(d: &mut [u32], mut x: u32) -> u32 {
            while d[x as usize] != x {
                d[x as usize] = d[d[x as usize] as usize];
                x = d[x as usize];
            }
            x
        }
        let mut d: Vec<u32> = (0..n).collect();
        for &(u, v) in edges {
            let (a, b) = (find(&mut d, u), find(&mut d, v));
            d[a.max(b) as usize] = a.min(b);
        }
        (0..n).map(|x| find(&mut d, x)).collect()
    }

    #[test]
    fn multi_block_tours_against_dsu() {
        // Path-biased links (half to a near neighbour, half anywhere) grow
        // long trees whose tours span over a hundred blocks, so cuts and
        // links carve, rotate, move and merge blocks on both the
        // smaller-side and larger-side branches. Vertex flags ride along
        // to check the block aggregates through every splice.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 3000u32;
        let mut rng = StdRng::seed_from_u64(7);
        let mut f = EulerForest::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut flagged = vec![false; n as usize];
        let mut max_blocks = 0;
        for step in 0..6000 {
            // Cut rarely until the forest is nearly spanning, then churn.
            let p_cut = if edges.len() as u32 > n * 19 / 20 {
                0.5
            } else {
                0.1
            };
            if !edges.is_empty() && rng.gen_bool(p_cut) {
                let i = rng.gen_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                f.cut(u, v);
            } else {
                let u = rng.gen_range(0..n);
                let v = if rng.gen_bool(0.5) {
                    (u + rng.gen_range(1..6u32)) % n
                } else {
                    rng.gen_range(0..n)
                };
                if u != v && !f.connected(u, v) {
                    f.link(u, v);
                    edges.push((u, v));
                }
            }
            if rng.gen_bool(0.1) {
                let x = rng.gen_range(0..n);
                flagged[x as usize] = !flagged[x as usize];
                f.set_vertex_flag(x, FLAG_NONTREE, flagged[x as usize]);
            }
            if step % 50 == 0 {
                f.check_invariants();
            }
            let roots = dsu_roots(n, &edges);
            for _ in 0..8 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                assert_eq!(
                    f.connected(u, v),
                    roots[u as usize] == roots[v as usize],
                    "step {step}: connectivity mismatch for ({u},{v})"
                );
            }
            let u = rng.gen_range(0..n);
            let comp: Vec<u32> = (0..n)
                .filter(|&x| roots[x as usize] == roots[u as usize])
                .collect();
            assert_eq!(
                f.tree_size(u),
                comp.len() as u32,
                "step {step}: size of {u}"
            );
            let want_flag = comp.iter().any(|&x| flagged[x as usize]);
            match f.find_flag(u, FLAG_NONTREE) {
                Some((x, y)) => {
                    assert_eq!(x, y, "vertex flag on an arc");
                    assert!(flagged[x as usize], "stale flag at {x}");
                    assert_eq!(roots[x as usize], roots[u as usize], "flag outside tree");
                }
                None => assert!(!want_flag, "step {step}: flag in {u}'s tree not found"),
            }
            if step % 500 == 0 {
                let mut vs = f.tree_vertices(u);
                vs.sort_unstable();
                assert_eq!(vs, comp, "step {step}: tour of {u}");
            }
            max_blocks = max_blocks.max(f.tree_blocks(u));
        }
        f.check_invariants();
        assert!(max_blocks >= 20, "tours stayed small: {max_blocks} blocks");
    }

    #[test]
    fn leaf_splice_relabels_few_blocks() {
        // On a 100,000-vertex path, cutting and re-linking a leaf edge
        // moves only the leaf's side, whichever end of the tour it sits
        // at: vertex 0 starts the tour, vertex n-1 sits in its middle.
        let n = 100_000u32;
        let path: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let mut f = EulerForest::bulk_build(&path);
        assert!(f.tree_blocks(0) > 2000, "{} blocks", f.tree_blocks(0));
        for (leaf, inner) in [(n - 1, n - 2), (0, 1)] {
            let r = f.relabels;
            f.cut(inner, leaf);
            assert!(f.relabels - r <= 3, "cut relabelled {}", f.relabels - r);
            assert!(!f.connected(leaf, inner));
            assert_eq!(f.tree_size(leaf), 1);
            assert_eq!(f.tree_size(inner), n - 1);
            let r = f.relabels;
            f.link(inner, leaf);
            assert!(f.relabels - r <= 3, "link relabelled {}", f.relabels - r);
            assert_eq!(f.tree_size(leaf), n);
        }
        f.check_invariants();
    }

    #[test]
    fn tree_vertices_enumerates_component() {
        let mut f = EulerForest::new();
        f.link(5, 6);
        f.link(6, 7);
        f.link(7, 8);
        let mut vs = f.tree_vertices(7);
        vs.sort_unstable();
        assert_eq!(vs, vec![5, 6, 7, 8]);
    }

    #[test]
    fn bulk_build_matches_incremental() {
        // A path, a star, and a lone edge.
        let edges: &[(u32, u32)] = &[
            (0, 1),
            (1, 2),
            (2, 3),
            (10, 11),
            (10, 12),
            (10, 13),
            (20, 21),
        ];
        let f = EulerForest::bulk_build(edges);
        let mut g = EulerForest::new();
        for &(u, v) in edges {
            g.link(u, v);
        }
        for &(u, v) in &[(0u32, 3u32), (1, 2), (10, 13), (20, 21)] {
            assert!(f.connected(u, v));
        }
        assert!(!f.connected(0, 10));
        assert!(!f.connected(13, 20));
        for v in [0, 1, 10, 20, 21] {
            assert_eq!(f.tree_size(v), g.tree_size(v), "size at {v}");
        }
        for &(u, v) in edges {
            assert!(f.has_edge(u, v) || f.has_edge(v, u), "arc ({u},{v})");
        }
        f.check_invariants();
    }

    #[test]
    fn deep_cut_storm_keeps_blocks_sane() {
        // Long path, then cut every other edge: exercises block splits,
        // boundary merges, and empty-tree recycling.
        let mut f = EulerForest::new();
        let n = 600u32;
        for v in 0..n - 1 {
            f.link(v, v + 1);
        }
        assert_eq!(f.tree_size(0), n);
        for v in (1..n - 1).step_by(2) {
            f.cut(v, v + 1);
        }
        f.check_invariants();
        assert!(f.connected(0, 1));
        assert!(!f.connected(1, 2));
        // Relink a few to make sure the structure still splices.
        for v in (1..101).step_by(2) {
            f.link(v, v + 1);
        }
        assert!(f.connected(0, 101));
        f.check_invariants();
    }
}
