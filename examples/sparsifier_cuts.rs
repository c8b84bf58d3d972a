//! Scenario: streaming cut monitoring. A service watches the minimum-ish
//! cuts of a mutating network but cannot afford to store it densely: it
//! maintains a (1±ε) spectral sparsifier (Theorem 1.6) and evaluates cuts
//! on the sparsifier instead.
//!
//! Run with: `cargo run --example sparsifier_cuts --release`

use batch_spanners::gen;
use batch_spanners::prelude::*;
use bds_graph::cuts::{cut_size_unit, cut_weight, indicator};
use bds_graph::stream::UpdateStream;

fn main() {
    let n = 1_000;
    // Two dense communities with a planted sparse cut between them.
    let (edges, planted) = gen::planted_cut(n, 6 * n, 40, 5);
    println!(
        "network: n = {n}, m = {}, planted cut of {planted} edges between the halves",
        edges.len()
    );

    let t = 4; // bundle depth: the quality knob
    let mut sp = FullyDynamicSparsifier::builder(n)
        .depth(t)
        .seed(9)
        .build(&edges)
        .expect("valid configuration");
    println!(
        "sparsifier: {} weighted edges ({:.1}% of m)",
        sp.output().len(),
        100.0 * sp.output().len() as f64 / edges.len() as f64
    );

    let half: Vec<V> = (0..n as V / 2).collect();
    let in_s = indicator(n, &half);
    let mut stream = UpdateStream::new(n, &edges, 31);
    let mut delta = DeltaBuf::new();
    for round in 1..=5 {
        let batch = stream.next_batch(100, 100);
        // One atomic mixed batch; the weighted delta lands in the
        // reusable buffer (weight lane populated).
        sp.apply_into(&batch, &mut delta);
        let exact = cut_size_unit(stream.live_edges(), &in_s);
        let approx = cut_weight(&sp.output().edges(), &in_s);
        println!(
            "round {round}: planted cut exact = {exact:.0}, sparsifier estimate = {approx:.0} \
             (ratio {:.2})",
            approx / exact
        );
    }
    println!(
        "done: cut estimates track the exact values on {} stored edges",
        sp.output().len()
    );
}
