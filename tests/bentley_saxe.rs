//! The Bentley–Saxe wrapper (`bds_core::bentley_saxe`) under both of its
//! instantiations: Theorem 1.1's spanner and Theorem 1.6's sparsifier
//! run the same test bodies.

use batch_spanners::core::bentley_saxe::{BentleySaxe, Slot};
use batch_spanners::gen;
use batch_spanners::graph::csr::edge_stretch;
use batch_spanners::graph::stream::UpdateStream;
use batch_spanners::prelude::*;
use bds_dstruct::FxHashMap;

/// Materialized output: edge -> weight bits (1.0 for the spanner).
type Shadow = FxHashMap<Edge, u64>;

fn output_of<D: Slot>(s: &BentleySaxe<D>, buf: &mut DeltaBuf) -> Shadow {
    s.output_into(buf);
    let mut m = Shadow::default();
    buf.apply_weighted_to(&mut m);
    m
}

fn assert_no_counter_decreased(before: BatchStats, after: BatchStats, ctx: &str) {
    assert!(
        after.scan_steps >= before.scan_steps
            && after.vertices_touched >= before.vertices_touched
            && after.cluster_changes >= before.cluster_changes,
        "{ctx}: stats went backwards: {before:?} -> {after:?}"
    );
}

/// Empty start on n = 16 vertices, whose E₀ holds `cap0` edges: a
/// growth phase of `grow` = (insertions, deletions) batches fills E₀
/// until it overflows into a rebuilt slot, then `churn` batches delete
/// from both E₀ and the slots. Every batch is validated (E₀ position
/// index included), its delta is replayed against a shadow of the
/// output, `check` audits the output against the live set, and no work
/// counter may decrease — a rebuild must keep the counters of the slots
/// it retires.
fn e0_fill_overflow_and_deletions<D: Slot>(
    param: u32,
    cap0: usize,
    grow: (usize, usize),
    churn: (usize, usize),
    check: impl Fn(&[Edge], &BentleySaxe<D>),
) {
    let n = 16;
    let mut s = BentleySaxe::<D>::new(n, param, &[], 3);
    let mut stream = UpdateStream::new(n, &[], 5);
    let (mut shadow, mut d, mut buf) = (Shadow::default(), DeltaBuf::new(), DeltaBuf::new());
    let (mut e0_deletes, mut slot_deletes, mut merges, mut e0_peak) = (0, 0, 0, 0);
    for round in 0..60 {
        let (ins, del) = if round < 10 { grow } else { churn };
        let b = stream.next_batch(ins, del);
        for &e in &b.deletions {
            match s.partition().slot_of(e) {
                Some(0) => e0_deletes += 1,
                Some(_) => slot_deletes += 1,
                None => panic!("stream deleted an edge the structure lacks"),
            }
        }
        let e0_before = s.partition().e0().len();
        let (rebuilds, before) = (s.num_rebuilds(), s.stats());
        s.apply_into(&b, &mut d);
        if s.num_rebuilds() > rebuilds && s.partition().e0().len() < e0_before {
            merges += 1;
        }
        e0_peak = e0_peak.max(s.partition().e0().len());
        assert_no_counter_decreased(before, s.stats(), &format!("round {round}"));
        d.apply_weighted_to(&mut shadow);
        s.validate();
        assert_eq!(output_of(&s, &mut buf), shadow, "round {round}");
        assert_eq!(s.num_live_edges(), stream.live_edges().len());
        check(stream.live_edges(), &s);
    }
    assert!(merges > 0, "E₀ never overflowed into a slot");
    assert!(
        e0_peak <= cap0 && 2 * e0_peak > cap0,
        "E₀ peaked at {e0_peak} of its {cap0} slots"
    );
    assert!(
        e0_deletes > 0 && slot_deletes > 0,
        "{e0_deletes} / {slot_deletes}"
    );
}

/// Build over the first `m` ≤ 2·`cap0` edges of a 16-vertex graph (so
/// they fill slot 1), delete them all, then insert `cap0 + 1` fresh
/// ones: U₀ rebuilds slot 1, whose emptied instance still occupies it.
/// The rebuild must retire that instance, keeping its work counters.
fn emptied_slot_rebuild_keeps_work_counters<D: Slot>(param: u32, cap0: usize, m: usize) {
    let n = 16;
    let edges = gen::gnm(n, 120, 3);
    let (init, rest) = edges.split_at(m);
    let mut s = BentleySaxe::<D>::new(n, param, init, 7);
    assert_eq!(s.partition().slot_of(init[0]), Some(1));
    let mut d = DeltaBuf::new();
    s.delete_into(init, &mut d);
    let before = s.stats();
    assert!(
        before.scan_steps > 0 && before.vertices_touched > 0,
        "the deletions did no work: {before:?}"
    );
    s.insert_into(&rest[..cap0 + 1], &mut d);
    assert_eq!(s.num_rebuilds(), 2, "U₀ did not rebuild slot 1");
    assert_eq!(s.partition().e0().len(), 1);
    assert_no_counter_decreased(before, s.stats(), "rebuild over the emptied slot");
    s.validate();
}

#[test]
fn e0_fill_overflow_and_deletions_keep_position_index_spanner() {
    // n = 16, k = 2: cap₀ = 16^{3/2} = 64.
    e0_fill_overflow_and_deletions::<DecrementalSpanner>(2, 64, (12, 2), (8, 8), |live, s| {
        let st = edge_stretch(16, live, &s.spanner_edges(), 16, 3);
        assert!(st <= 3.0, "stretch {st}");
    });
}

#[test]
fn e0_fill_overflow_and_deletions_keep_position_index_sparsifier() {
    // n = 16: cap₀ = 16.
    e0_fill_overflow_and_deletions::<DecrementalSparsifier>(2, 16, (8, 2), (6, 6), |_, _| {});
}

#[test]
fn emptied_slot_rebuild_keeps_work_counters_spanner() {
    emptied_slot_rebuild_keeps_work_counters::<DecrementalSpanner>(2, 64, 40);
}

#[test]
fn emptied_slot_rebuild_keeps_work_counters_sparsifier() {
    emptied_slot_rebuild_keeps_work_counters::<DecrementalSparsifier>(2, 16, 24);
}
