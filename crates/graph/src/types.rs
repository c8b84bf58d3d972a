//! Core vertex/edge/update types shared by every algorithm crate.

use crate::api::BatchError;

/// Vertex identifier. Graphs are over `0..n` for some `n ≤ u32::MAX`.
pub type V = u32;

/// An undirected edge, stored canonically with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    pub u: V,
    pub v: V,
}

impl Edge {
    /// Canonicalizing constructor. Panics on self-loops (the paper's
    /// graphs are simple); untrusted input should go through
    /// [`Edge::try_new`] or [`UpdateBatch::from_pairs`] instead.
    #[inline]
    pub fn new(a: V, b: V) -> Self {
        assert_ne!(a, b, "self-loop ({a},{b})");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// Canonicalizing constructor for untrusted input: `None` on a
    /// self-loop instead of a panic.
    #[inline]
    pub fn try_new(a: V, b: V) -> Option<Self> {
        if a == b {
            None
        } else {
            Some(Edge::new(a, b))
        }
    }

    /// The endpoint that isn't `x`. Panics if `x` is not an endpoint.
    #[inline]
    pub fn other(&self, x: V) -> V {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v);
            self.u
        }
    }

    /// Pack into a `u64` key (useful for hashing / deterministic coins).
    #[inline]
    pub fn key(&self) -> u64 {
        ((self.u as u64) << 32) | self.v as u64
    }
}

impl From<(V, V)> for Edge {
    fn from((a, b): (V, V)) -> Self {
        Edge::new(a, b)
    }
}

/// A batch of edge updates. The paper's model applies a batch of
/// insertions and deletions atomically; an edge must not appear in both
/// lists of one batch.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    pub insertions: Vec<Edge>,
    pub deletions: Vec<Edge>,
}

impl UpdateBatch {
    pub fn insert_only(edges: Vec<Edge>) -> Self {
        Self {
            insertions: edges,
            deletions: Vec::new(),
        }
    }

    pub fn delete_only(edges: Vec<Edge>) -> Self {
        Self {
            insertions: Vec::new(),
            deletions: edges,
        }
    }

    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Build a batch from raw vertex pairs, dropping self-loops and
    /// duplicates (after canonicalization) instead of panicking — the
    /// safe entry point for untrusted input. Cross-list conflicts still
    /// surface through [`UpdateBatch::normalized`].
    pub fn from_pairs(
        insertions: &[(V, V)],
        deletions: &[(V, V)],
    ) -> (Self, crate::api::BatchReport) {
        let mut report = crate::api::BatchReport::default();
        let mut lane = |pairs: &[(V, V)], dup_counter: &mut usize| -> Vec<Edge> {
            let mut out: Vec<Edge> = pairs
                .iter()
                .filter_map(|&(a, b)| {
                    let e = Edge::try_new(a, b);
                    if e.is_none() {
                        report.self_loops_dropped += 1;
                    }
                    e
                })
                .collect();
            let before = out.len();
            out.sort_unstable();
            out.dedup();
            *dup_counter += before - out.len();
            out
        };
        let insertions = lane(insertions, &mut report.duplicate_insertions_dropped);
        let deletions = lane(deletions, &mut report.duplicate_deletions_dropped);
        (
            Self {
                insertions,
                deletions,
            },
            report,
        )
    }

    /// Normalize for the batch-dynamic model: sort and dedupe both lists
    /// and reject an edge appearing in both (a typed [`BatchError`]
    /// instead of a downstream panic deep inside a structure).
    pub fn normalized(&self) -> Result<(UpdateBatch, crate::api::BatchReport), BatchError> {
        let mut report = crate::api::BatchReport::default();
        let mut ins = self.insertions.clone();
        ins.sort_unstable();
        let before = ins.len();
        ins.dedup();
        report.duplicate_insertions_dropped = before - ins.len();
        let mut del = self.deletions.clone();
        del.sort_unstable();
        let before = del.len();
        del.dedup();
        report.duplicate_deletions_dropped = before - del.len();
        // Merge-scan the two sorted lists for a common edge.
        let (mut i, mut j) = (0, 0);
        while i < ins.len() && j < del.len() {
            match ins[i].cmp(&del[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Err(BatchError::EdgeInBothLists(ins[i])),
            }
        }
        Ok((
            UpdateBatch {
                insertions: ins,
                deletions: del,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonicalizes() {
        assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
        assert_eq!(Edge::new(2, 5).u, 2);
        assert_eq!(Edge::new(2, 5).other(2), 5);
        assert_eq!(Edge::new(2, 5).other(5), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(3, 3);
    }
}
