//! Experiment-table generator. The paper has no empirical section, so
//! each table checks a claim of the paper, stated in the table's
//! heading; the rows are printed as Markdown.
//!
//! Usage: `cargo run -p bds_bench --bin tables --release -- [e1 e2 … | all]`

use bds_baseline::{baswana_sen, RecomputeBaseline};
use bds_bundle::{BundleSpanner, MonotoneSpanner};
use bds_contract::SparseSpanner;
use bds_core::FullyDynamicSpanner;
use bds_estree::EsTree;
use bds_graph::api::{BatchDynamic, Decremental, DeltaBuf, FullyDynamic};
use bds_graph::csr::edge_stretch;
use bds_graph::cuts::sparsifier_error;
use bds_graph::gen;
use bds_graph::stream::UpdateStream;
use bds_graph::types::{Edge, V};
use bds_sparsify::DecrementalSparsifier;
use bds_ultra::{UltraParams, UltraSparseSpanner};
use std::time::Instant;

/// The standard workload of the experiment suite: a connected G(n, 8n)
/// with a seeded update stream.
fn standard_workload(n: usize, seed: u64) -> (Vec<Edge>, UpdateStream) {
    let edges = gen::gnm_connected(n, 8 * n, seed);
    let stream = UpdateStream::new(n, &edges, seed ^ 0x5eed_cafe);
    (edges, stream)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    println!("# Experiment tables (paper: arXiv:2507.06338)");
    if want("e1") {
        e1_spanner_size();
    }
    if want("e2") {
        e2_stretch();
    }
    if want("e3") {
        e3_amortized_work();
    }
    if want("e5") {
        e5_estree();
    }
    if want("e6") {
        e6_sparse();
    }
    if want("e7") {
        e7_ultra();
    }
    if want("e8") {
        e8_bundle();
    }
    if want("e9") {
        e9_sparsifier();
    }
    if want("e10") {
        e10_recourse();
    }
    if want("e11") {
        e11_cut_prob();
    }
    if want("e12") {
        e12_contraction();
    }
}

fn e1_spanner_size() {
    println!("\n## E1 — Theorem 1.1 spanner size vs bound O(n^{{1+1/k}} log n)");
    println!("| n | k | m | spanner | n^(1+1/k) | size/n^(1+1/k) | Baswana-Sen |");
    println!("|---|---|---|---------|-----------|----------------|-------------|");
    for n in [1 << 10, 1 << 12, 1 << 14] {
        for k in [2u32, 3, 4] {
            let edges = gen::gnm_connected(n, 8 * n, (n + k as usize) as u64);
            let s = FullyDynamicSpanner::new(n, k, &edges, 42);
            let bs = baswana_sen(n, &edges, k, 43);
            let bound = (n as f64).powf(1.0 + 1.0 / k as f64);
            println!(
                "| {n} | {k} | {} | {} | {:.0} | {:.2} | {} |",
                edges.len(),
                s.spanner_size(),
                bound,
                s.spanner_size() as f64 / bound,
                bs.len()
            );
        }
    }
}

fn e2_stretch() {
    println!("\n## E2 — Theorem 1.1 stretch ≤ 2k−1 (measured over sampled sources)");
    println!("| n | k | bound 2k-1 | measured (init) | measured (after 20 batches) |");
    println!("|---|---|-----------|-----------------|------------------------------|");
    for k in [2u32, 3, 4] {
        let n = 1 << 11;
        let (edges, mut stream) = standard_workload(n, 7 + k as u64);
        let mut s = FullyDynamicSpanner::new(n, k, &edges, 11);
        let st0 = edge_stretch(n, &edges, &s.spanner_edges(), 200, 5);
        let mut d = DeltaBuf::new();
        for _ in 0..20 {
            let b = stream.next_batch(64, 64);
            s.apply_into(&b, &mut d);
        }
        let st1 = edge_stretch(n, stream.live_edges(), &s.spanner_edges(), 200, 6);
        println!("| {n} | {k} | {} | {st0} | {st1} |", 2 * k - 1);
    }
}

fn e3_amortized_work() {
    println!("\n## E3 — amortized update cost vs batch size (k=3), vs recompute baseline");
    println!("| n | batch b | dyn µs/edge | dyn scan-steps/edge | recompute µs/edge |");
    println!("|---|---------|-------------|---------------------|-------------------|");
    let n = 1 << 13;
    for b in [1usize, 16, 256, 4096] {
        let (edges, mut stream) = standard_workload(n, 99);
        let mut s = FullyDynamicSpanner::new(n, 3, &edges, 17);
        let rounds = (8192 / b).clamp(4, 64);
        let mut updated = 0usize;
        let mut d = DeltaBuf::new();
        let t0 = Instant::now();
        let pre = s.stats().scan_steps;
        for _ in 0..rounds {
            let batch = stream.next_batch(b / 2 + 1, b / 2);
            updated += batch.len();
            s.apply_into(&batch, &mut d);
        }
        let dyn_us = t0.elapsed().as_micros() as f64 / updated as f64;
        let steps = (s.stats().scan_steps - pre) as f64 / updated as f64;
        // Recompute baseline on the same schedule (fewer rounds; it is slow).
        let (edges, mut stream2) = standard_workload(n, 99);
        let mut base = RecomputeBaseline::new(n, 3, &edges, 19);
        let rr = rounds.min(6);
        let mut upd2 = 0usize;
        let t1 = Instant::now();
        for _ in 0..rr {
            let batch = stream2.next_batch(b / 2 + 1, b / 2);
            upd2 += batch.len();
            base.process_batch(&batch.insertions, &batch.deletions);
        }
        let base_us = t1.elapsed().as_micros() as f64 / upd2 as f64;
        println!("| {n} | {b} | {dyn_us:.1} | {steps:.1} | {base_us:.1} |");
    }
}

fn e5_estree() {
    println!("\n## E5 — Theorem 1.2 decremental BFS: amortized scan work ≈ O(L log n)");
    println!("| n | m | L | deletions | scan-steps/deletion | L·log2(n) |");
    println!("|---|---|---|-----------|---------------------|-----------|");
    let n = 1 << 12;
    for l in [4u32, 8, 16, 32] {
        let edges = gen::gnm_connected(n, 6 * n, l as u64);
        let dirs: Vec<(V, V, u64)> = edges
            .iter()
            .flat_map(|e| {
                [
                    (e.u, e.v, ((e.u as u64) << 32) | e.u as u64),
                    (e.v, e.u, ((e.v as u64) << 32) | e.v as u64),
                ]
            })
            .collect();
        let mut t = EsTree::new(n, 0, l, &dirs);
        let mut live = edges.clone();
        use rand::{seq::SliceRandom, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        live.shuffle(&mut rng);
        let dels = live.len() / 2;
        let steps0 = t.stats().scan_steps;
        for e in live.drain(..dels) {
            t.delete_batch(&[(e.u, e.v), (e.v, e.u)]);
        }
        let per = (t.stats().scan_steps - steps0) as f64 / dels as f64;
        println!(
            "| {n} | {} | {l} | {dels} | {per:.1} | {:.0} |",
            edges.len(),
            l as f64 * (n as f64).log2()
        );
    }
}

fn e6_sparse() {
    println!("\n## E6 — Theorem 1.3 sparse spanner: O(n) edges, Õ(log n) stretch");
    println!("| n | m | spanner | edges/n | stretch | base Thm1.1(k=log n) edges/n |");
    println!("|---|---|---------|---------|---------|------------------------------|");
    for n in [1 << 10, 1 << 12, 1 << 14] {
        let edges = gen::gnm_connected(n, 8 * n, n as u64);
        let s = SparseSpanner::new(n, &edges, 3);
        let k = (n as f64).log2().ceil() as u32;
        let base = FullyDynamicSpanner::new(n, k, &edges, 5);
        let st = edge_stretch(n, &edges, &s.spanner_edges(), 100, 9);
        println!(
            "| {n} | {} | {} | {:.2} | {st} | {:.2} |",
            edges.len(),
            s.spanner_size(),
            s.spanner_size() as f64 / n as f64,
            base.spanner_size() as f64 / n as f64
        );
    }
}

fn e7_ultra() {
    println!("\n## E7 — Theorem 1.4 ultra-sparse: n + O(n/x) edges");
    println!("| n | x | θ | spanner | (size-n)·x/n | H1+H2 | contracted part | stretch |");
    println!("|---|---|---|---------|--------------|-------|-----------------|---------|");
    let n = 1 << 12;
    let edges = gen::gnm_connected(n, 8 * n, 77);
    for x in [2u32, 3, 4, 6] {
        let s = UltraSparseSpanner::new(n, &edges, UltraParams { x }, 100 + x as u64);
        let extra = s.spanner_size() as f64 - n as f64;
        let st = edge_stretch(n, &edges, &s.spanner_edges(), 60, 11);
        println!(
            "| {n} | {x} | {} | {} | {:.2} | {} | {} | {st} |",
            s.theta(),
            s.spanner_size(),
            extra * x as f64 / n as f64,
            s.h1_size() + s.h2_size(),
            s.contracted_spanner_size(),
        );
    }
}

fn e8_bundle() {
    println!("\n## E8 — Theorem 1.5 t-bundle: size O(nt log³n), O(1) recourse/deletion");
    println!("| n | t | bundle size | size/(n·t) | deletions | recourse/deletion |");
    println!("|---|---|-------------|------------|-----------|-------------------|");
    let n = 1 << 10;
    for t in [1u32, 2, 4, 8] {
        let edges = gen::gnm_connected(n, 24 * n, t as u64 * 3);
        // 6 clustering copies per level: the bundle must not swallow the
        // whole graph for the size trend to be visible at this scale.
        let mut b = BundleSpanner::with_params(n, &edges, t, 6, 0.3, 9 + t as u64);
        let init_size = b.bundle_size();
        let mut stream = UpdateStream::new(n, &edges, 13);
        let mut rec = 0usize;
        let mut dels = 0usize;
        let mut d = DeltaBuf::new();
        for _ in 0..40 {
            let batch = stream.next_deletions(64);
            dels += batch.len();
            b.delete_into(&batch, &mut d);
            rec += d.recourse();
        }
        println!(
            "| {n} | {t} | {init_size} | {:.2} | {dels} | {:.2} |",
            init_size as f64 / (n as f64 * t as f64),
            rec as f64 / dels as f64
        );
    }
}

fn e9_sparsifier() {
    println!("\n## E9 — Lemma 6.6 / Theorem 1.6 sparsifier: quality vs t, O(log m) recourse");
    println!("| n | m | t | size | size/m | max cut/quad error | recourse/deletion |");
    println!("|---|---|---|------|--------|--------------------|-------------------|");
    let n = 1 << 10;
    let m = 24 * n;
    for t in [1u32, 2, 4, 8] {
        let edges = gen::gnm_connected(n, m, 31 + t as u64);
        let logn = (n as f64).log2() as usize;
        let mut s =
            DecrementalSparsifier::with_params(n, &edges, t, 6, 0.3, 4 * logn, 41 + t as u64);
        let err = sparsifier_error(n, &edges, &s.sparsifier_edges(), 60, 7);
        let size = s.sparsifier_size();
        let mut stream = UpdateStream::new(n, &edges, 51);
        let mut rec = 0usize;
        let mut dels = 0usize;
        let mut d = DeltaBuf::new();
        for _ in 0..20 {
            let batch = stream.next_deletions(64);
            dels += batch.len();
            s.delete_into(&batch, &mut d);
            rec += d.recourse();
        }
        println!(
            "| {n} | {} | {t} | {size} | {:.3} | {err:.3} | {:.2} |",
            edges.len(),
            size as f64 / edges.len() as f64,
            rec as f64 / dels as f64
        );
    }
}

fn e10_recourse() {
    println!("\n## E10 — Theorem 1.1 recourse and Lemma 3.6 cluster changes");
    println!("| n | k | updates | |δH|/update | bound O(k log²n) | cluster changes/update |");
    println!("|---|---|---------|------------|------------------|------------------------|");
    let n = 1 << 12;
    for k in [2u32, 3, 4] {
        let (edges, mut stream) = standard_workload(n, 3 * k as u64);
        let mut s = FullyDynamicSpanner::new(n, k, &edges, 21);
        let mut rec = 0usize;
        let mut ups = 0usize;
        let mut d = DeltaBuf::new();
        let pre = s.stats().cluster_changes;
        for _ in 0..30 {
            let b = stream.next_batch(32, 32);
            ups += b.len();
            s.apply_into(&b, &mut d);
            rec += d.recourse();
        }
        let cc = (s.stats().cluster_changes - pre) as f64 / ups as f64;
        let logn = (n as f64).log2();
        println!(
            "| {n} | {k} | {ups} | {:.2} | {:.0} | {cc:.2} |",
            rec as f64 / ups as f64,
            k as f64 * logn * logn
        );
    }
}

fn e11_cut_prob() {
    println!("\n## E11 — Lemma 6.5 calibration: P(edge inter-cluster) vs β");
    // On low-diameter graphs a single shifted center captures everything
    // (cut fraction ≈ 0, trivially fine); the classical O(β) trend shows
    // on a high-diameter family, so this table uses a 64×64 grid.
    println!("| graph | β | measured cut fraction (Lemma 6.5: O(β)) |");
    println!("|-------|---|------------------------------------------|");
    let edges = gen::grid(64, 64);
    let n = 64 * 64;
    for beta in [0.05f64, 0.1, 0.2, 0.3, 0.5] {
        let s = MonotoneSpanner::with_params(n, &edges, 1, beta, 71);
        println!("| grid64 | {beta} | {:.3} |", s.cut_fraction(&edges));
    }
    let gedges = gen::gnm_connected(1 << 12, 8 << 12, 61);
    for beta in [0.25f64, 0.5] {
        let s = MonotoneSpanner::with_params(1 << 12, &gedges, 1, beta, 73);
        println!(
            "| gnm(4096) | {beta} | {:.3} (low diameter) |",
            s.cut_fraction(&gedges)
        );
    }
}

fn e12_contraction() {
    println!("\n## E12 — Lemmas 4.1/5.1 contraction quality");
    println!("| n | x | E|V'|/n (≤1/x Lem4.1, ≤2/x Lem5.1) | |H|/n (≤O(x) / ≤1) |");
    println!("|---|---|-------------------------------------|--------------------|");
    let n = 1 << 12;
    let edges = gen::gnm_connected(n, 8 * n, 81);
    for x in [2.0f64, 4.0, 8.0, 16.0] {
        let lvl =
            bds_contract::level::ContractLevel::new(n, &vec![true; n], x, &edges, 91 + x as u64);
        let vprime = lvl.next_vertex_count() as f64 / n as f64;
        let h = lvl.h_size() as f64 / n as f64;
        println!("| {n} | {x} | {vprime:.3} (1/x={:.3}) | {h:.2} |", 1.0 / x);
    }
    println!("| — ultra layers — |");
    for x in [2u32, 4] {
        let s = UltraSparseSpanner::new(n, &edges, UltraParams { x }, 95 + x as u64);
        println!(
            "| {n} | {x} (ultra) | — | H1+H2 = {:.3}·n (≤1) |",
            (s.h1_size() + s.h2_size()) as f64 / n as f64
        );
    }
}
