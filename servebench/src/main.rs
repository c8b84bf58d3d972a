//! `servebench`: the layered serving benchmark.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` runs an untraced and a traced serving phase plus the layer replay
//! at 1 and 2 threads and reports the per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. See `README.md` next to this crate.

#![deny(unsafe_op_in_unsafe_fn)]

mod oracle;
mod replay;
mod serving;
mod stats;
mod trace;
mod workload;

use bds_core::FullyDynamicSpanner;
use bds_graph::conn::BatchConnectivity;
use serving::{PhaseOut, Res};
use stats::{mean, median, peak_rss_mb, percentile, ratio, windowed_p95, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Name, Span, Tracer};
use workload::{Inputs, Product, Served, Size, Spec};

/// Everything a phase or replay needs to know about the run.
#[derive(Clone)]
pub struct Ctx {
    pub spec: Spec,
    pub size: Size,
    pub seed: u64,
    pub inputs: Arc<Inputs>,
    pub work: PathBuf,
    /// Time origin of every span.
    pub origin: Instant,
}

impl Ctx {
    fn new(spec: Spec, size: Size, seed: u64, work: PathBuf) -> Self {
        Ctx {
            spec,
            size,
            seed,
            inputs: Arc::new(workload::inputs(&size, seed)),
            work,
            origin: Instant::now(),
        }
    }
}

/// A finished run: the metrics to print plus the error accounting.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        )
    }
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Res<Args> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut work = PathBuf::from("servebench/out");
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(workload::spec(&val).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {val:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(val.parse::<u64>()?),
            "--seconds" => seconds = Some(val.parse::<f64>()?),
            "--trace" => trace = val.parse::<u8>()? != 0,
            "--work-dir" => work = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        work,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| {
        std::fs::create_dir_all(&a.work)?;
        let cx = Ctx::new(a.spec, Size::FULL, a.seed, a.work);
        println!(
            "servebench {} seed {} seconds {} trace {} | n = {}, m0 = {}, threads = {}",
            cx.spec.name,
            cx.seed,
            a.seconds,
            u8::from(a.trace),
            cx.size.n,
            cx.inputs.init.len(),
            bds_par::threads_available()
        );
        run(&cx, a.seconds, a.trace)
    });
    match result {
        Ok(out) => {
            out.metrics.print_lines();
            for n in &out.notes {
                println!("  note: {n}");
            }
            println!(
                "  error_rate = {} ({} failed of {} attempted)",
                ratio(out.failed as f64, out.attempted as f64),
                out.failed,
                out.attempted
            );
            println!("{}", out.json());
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run `cx`'s workload: end-to-end metrics untraced, or per-layer
/// metrics traced.
pub fn run(cx: &Ctx, seconds: f64, traced: bool) -> Res<Outcome> {
    match (cx.spec.product, traced) {
        (Product::Spanner, false) => untraced::<FullyDynamicSpanner>(cx, seconds),
        (Product::Spanner, true) => traced_run::<FullyDynamicSpanner>(cx, seconds),
        (Product::Conn, false) => untraced::<BatchConnectivity>(cx, seconds),
        (Product::Conn, true) => traced_run::<BatchConnectivity>(cx, seconds),
    }
}

fn untraced<S: Served>(cx: &Ctx, seconds: f64) -> Res<Outcome> {
    let mut off = Tracer::new(false, cx.origin, 0);
    let (prep, mut setup) = serving::setup::<S>(cx, &mut off)?;
    let ph = serving::run(cx, prep, seconds, false)?;
    let metrics = end_to_end(&mut setup, &ph, peak_rss_mb());
    Ok(Outcome {
        metrics,
        attempted: ph.attempted(),
        failed: ph.failed(),
        notes: phase_notes(&ph),
    })
}

/// The end-to-end metrics of one phase, with sample counts as notes.
/// Times are net of host steal: set-up per build, the write phase's
/// rate and latency medians scaled by its unstolen share.
fn end_to_end(setup: &mut [f64], ph: &PhaseOut, rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let net = 1.0 - ph.steal_share;
    let (mut vis, mut bursts) = (ph.visible_ms.clone(), ph.burst_us.clone());
    m.note(
        "setup_s",
        "s",
        median(setup),
        format!("median of {}", setup.len()),
    );
    m.note(
        "updates_per_s",
        "1/s",
        ph.updates_per_s,
        format!("steal {:.2}%", 100.0 * ph.steal_share),
    );
    m.note(
        "visible_p50_ms",
        "ms",
        percentile(&mut vis, 0.5) * net,
        format!("n = {}", vis.len()),
    );
    m.note(
        "read_p50_us",
        "us",
        percentile(&mut bursts, 0.5) * net,
        format!("n = {}", bursts.len()),
    );
    m.add("queries_per_s", "1/s", ph.queries_per_s);
    m.add("output_edges", "count", ph.output_edges() as f64);
    m.add("peak_rss_mb", "MB", rss_mb);
    m
}

fn phase_notes(ph: &PhaseOut) -> Vec<String> {
    let r = &ph.report;
    vec![
        format!(
            "{} updates sent, {} markers ({} unseen, {} slots skipped), {} ingest errors",
            ph.updates_sent,
            ph.markers_sent,
            ph.markers_unseen,
            ph.markers_skipped,
            ph.ingest_errors
        ),
        format!(
            "writer: {} batches, {} raw updates, write phase {:.3} s",
            r.batches, r.raw_updates, ph.write_wall_s
        ),
        format!(
            "oracle against {} live input edges: {}",
            ph.live.len(),
            ph.verdict.detail
        ),
    ]
}

/// The traced run: an untraced and a traced serving phase (their
/// difference is the tracing overhead), then the layer replay at 1 and 2
/// threads. Per-layer numbers come from the traced phase and the replay.
fn traced_run<S: Served>(cx: &Ctx, seconds: f64) -> Res<Outcome> {
    let phase_s = seconds * 0.3;
    let mut off = Tracer::new(false, cx.origin, 0);
    let (prep, mut setup_u) = serving::setup::<S>(cx, &mut off)?;
    let untraced = serving::run(cx, prep, phase_s, false)?;
    let e2e_u = end_to_end(&mut setup_u, &untraced, peak_rss_mb());

    let mut tr = Tracer::new(true, cx.origin, 1);
    let (prep, mut setup_t) = serving::setup::<S>(cx, &mut tr)?;
    let traced = serving::run(cx, prep, phase_s, true)?;
    let e2e_t = end_to_end(&mut setup_t, &traced, peak_rss_mb());

    let r1 = replay::run::<S>(cx, 1, &mut tr)?;
    let r2 = replay::run::<S>(cx, 2, &mut tr)?;

    let mut spans: Vec<Span> = std::mem::take(&mut tr.spans);
    spans.extend(traced.spans.iter().copied());
    let csv = cx.work.join(format!("trace-{}.csv", cx.spec.name));
    trace::write_csv(&csv, &spans)?;

    let mut m = layer_metrics(cx, &traced, &r1, &r2, &spans);
    for (u, t) in e2e_u.0.iter().zip(&e2e_t.0) {
        m.add(
            format!("trace.overhead.{}", u.name),
            u.unit,
            t.value - u.value,
        );
    }

    let mut notes = phase_notes(&traced);
    notes.push(format!(
        "trace: {} spans written to {}",
        spans.len(),
        csv.display()
    ));
    let mut failed = untraced.failed() + traced.failed();
    if r1.counts != r2.counts {
        failed += 1;
        notes.push(format!(
            "BatchStats counts differ between replays: t1 {:?} vs t2 {:?}",
            r1.counts, r2.counts
        ));
    }
    Ok(Outcome {
        metrics: m,
        attempted: untraced.attempted() + traced.attempted() + 1,
        failed,
        notes,
    })
}

/// Mean span duration (ns) per item, over every span called `name`.
fn ns_per_item(spans: &[Span], name: Name) -> f64 {
    let (d, items) = trace::durations(spans, name);
    ratio(d.iter().sum(), items as f64)
}

fn layer_metrics(
    cx: &Ctx,
    ph: &PhaseOut,
    r1: &replay::ReplayOut,
    r2: &replay::ReplayOut,
    spans: &[Span],
) -> Metrics {
    let mut m = Metrics::default();
    let rep = &ph.report;
    let (raw, batches) = (rep.raw_updates as f64, rep.batches as f64);
    let per_update = |ns: u64, r: &replay::ReplayOut| ns as f64 / 1e3 / r.updates.max(1) as f64;

    // loadgen
    let (send, _) = trace::durations(spans, Name::Send);
    m.add("loadgen.send_block_s", "s", send.iter().sum::<f64>() / 1e9);
    m.add("loadgen.visible_p95_ms", "ms", windowed_p95(&ph.visible_ms));
    m.add("loadgen.read_p95_us", "us", windowed_p95(&ph.read_us));
    m.add("loadgen.steal_share", "frac", ph.steal_share);
    m.add(
        "loadgen.late_p99_ms",
        "ms",
        percentile(&mut ph.send_late_ms.clone(), 0.99),
    );
    m.add(
        "loadgen.reader_late_p99_ms",
        "ms",
        percentile(&mut ph.reader_late_ms.clone(), 0.99),
    );

    // serve
    m.add("serve.batches", "count", batches);
    m.add("serve.updates_per_batch", "count", ratio(raw, batches));
    m.add(
        "serve.net_update_frac",
        "frac",
        ratio(raw - (rep.dropped_noops + rep.cancelled_pairs) as f64, raw),
    );
    m.add(
        "serve.apply_ms_mean",
        "ms",
        ratio(rep.apply_ns_total as f64 / 1e6, batches),
    );
    m.add("serve.apply_ms_max", "ms", rep.apply_ns_max as f64 / 1e6);
    m.add(
        "serve.writer_apply_frac",
        "frac",
        ratio(rep.apply_ns_total as f64 / 1e9, ph.write_wall_s),
    );
    m.add("serve.pin_wait_ms", "ms", rep.pin_wait_ns as f64 / 1e6);
    let (mut pins, _) = trace::durations(spans, Name::Pin);
    m.add("serve.pin_us_p99", "us", percentile(&mut pins, 0.99) / 1e3);

    // wal: serving counters on the durable workload, the replay's log
    // elsewhere (see README).
    let replay_wal_ns: f64 = r2.append_sync_ns.iter().sum::<f64>() + r2.append_delta_ns as f64;
    if cx.spec.durable {
        m.add(
            "wal.us_per_batch",
            "us",
            ratio(rep.wal_ns_total as f64 / 1e3, rep.wal_batches as f64),
        );
        m.add("wal.bytes_per_update", "B", ratio(ph.wal_bytes as f64, raw));
    } else {
        m.add(
            "wal.us_per_batch",
            "us",
            ratio(replay_wal_ns / 1e3, r2.batches as f64),
        );
        m.add(
            "wal.bytes_per_update",
            "B",
            ratio(r2.wal_bytes as f64, r2.updates as f64),
        );
    }
    m.add("wal.syncs", "count", rep.wal_syncs as f64);
    m.add("wal.snapshots", "count", rep.wal_snapshots as f64);
    m.add("wal.append_sync_us", "us", mean(&r2.append_sync_ns) / 1e3);
    m.add("wal.snapshot_ms", "ms", mean(&r2.snapshot_ns) / 1e6);

    // shard
    m.add(
        "shard.apply_us_per_update.t1",
        "us",
        per_update(r1.shard_apply_ns, r1),
    );
    m.add(
        "shard.apply_us_per_update.t2",
        "us",
        per_update(r2.shard_apply_ns, r2),
    );
    m.add(
        "shard.overhead_frac.t1",
        "frac",
        ratio(r1.shard_apply_ns as f64, r1.direct_lane_ns as f64),
    );
    m.add(
        "shard.view_apply_us_per_batch",
        "us",
        ratio(r2.view_apply_ns as f64 / 1e3, r2.batches as f64),
    );
    m.add(
        "shard.batch_contains_ns_per_query",
        "ns",
        ns_per_item(spans, Name::BatchContains),
    );
    let (edges, _) = trace::durations(spans, Name::ViewEdges);
    m.add("shard.view_edges_ms", "ms", mean(&edges) / 1e6);
    m.add("shard.lane_skew", "ratio", r2.lane_skew);

    // engine (Theorem 1.1 lanes)
    m.add("engine.build_s.t1", "s", r1.engine_build_ns as f64 / 1e9);
    m.add("engine.build_s.t2", "s", r2.engine_build_ns as f64 / 1e9);
    m.add(
        "engine.apply_us_per_update.t1",
        "us",
        per_update(r1.engine_apply_ns, r1),
    );
    m.add(
        "engine.apply_us_per_update.t2",
        "us",
        per_update(r2.engine_apply_ns, r2),
    );
    let c = &r1.counts;
    let u = r1.updates.max(1) as f64;
    m.add(
        "engine.scan_steps_per_update",
        "count",
        c.scan_steps as f64 / u,
    );
    m.add(
        "engine.vertices_touched_per_update",
        "count",
        c.vertices_touched as f64 / u,
    );
    m.add(
        "engine.cluster_changes_per_update",
        "count",
        c.cluster_changes as f64 / u,
    );
    m.add("engine.recourse_per_update", "count", c.recourse as f64 / u);
    let log_n = (cx.size.n as f64).log2();
    let bound = f64::from(workload::K) * log_n * log_n;
    m.add(
        "engine.work_over_bound",
        "ratio",
        c.scan_steps as f64 / u / bound,
    );

    // conn
    m.add("conn.build_s", "s", r2.conn_build_ns as f64 / 1e9);
    m.add(
        "conn.apply_us_per_update.t1",
        "us",
        per_update(r1.conn_apply_ns, r1),
    );
    m.add(
        "conn.apply_us_per_update.t2",
        "us",
        per_update(r2.conn_apply_ns, r2),
    );
    m.add(
        "conn.recourse_per_update",
        "count",
        c.conn_recourse as f64 / u,
    );
    let (mut rebuilds, _) = trace::durations(spans, Name::ViewRebuild);
    m.add(
        "conn.view_rebuild_ms_p50",
        "ms",
        percentile(&mut rebuilds, 0.5) / 1e6,
    );
    m.add(
        "conn.view_rebuild_ms_p99",
        "ms",
        percentile(&mut rebuilds, 0.99) / 1e6,
    );
    m.add(
        "conn.batch_connected_ns_per_query",
        "ns",
        ns_per_item(spans, Name::BatchConnected),
    );

    // par: t1 time over t2 time; below 1 means the second core costs.
    m.add(
        "par.engine_apply_speedup",
        "ratio",
        ratio(r1.engine_apply_ns as f64, r2.engine_apply_ns as f64),
    );
    m.add(
        "par.shard_apply_speedup",
        "ratio",
        ratio(r1.shard_apply_ns as f64, r2.shard_apply_ns as f64),
    );
    m.add(
        "par.build_speedup",
        "ratio",
        ratio(r1.engine_build_ns as f64, r2.engine_build_ns as f64),
    );

    // dstruct
    for (r, t) in [(r1, "t1"), (r2, "t2")] {
        m.add(
            format!("dstruct.edge_table_build_ns_per_edge.{t}"),
            "ns",
            ratio(r.table_build_ns as f64, r.table_build_edges as f64),
        );
    }
    for (r, t) in [(r1, "t1"), (r2, "t2")] {
        m.add(
            format!("dstruct.edge_table_remove_batch_ns_per_edge.{t}"),
            "ns",
            ratio(r.table_remove_ns as f64, r.table_remove_edges as f64),
        );
    }
    m.add(
        "dstruct.edge_table_get_batch_ns_per_query",
        "ns",
        ratio(r2.table_get_ns as f64, r2.table_get_q as f64),
    );

    // trace: span count and self time per layer over the traced phase,
    // its set-ups and both replays.
    m.add("trace.spans", "count", spans.len() as f64);
    let by_layer = trace::self_ns_by_layer(spans);
    for layer in trace::LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        m.add(format!("trace.self_ms.{layer}"), "ms", ns as f64 / 1e6);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cx(name: &str, traced: bool) -> Ctx {
        let spec = workload::spec(name).expect("known workload");
        let work =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{name}-{traced}"));
        std::fs::create_dir_all(&work).expect("work dir");
        Ctx::new(spec, Size::TINY, 7, work)
    }

    fn tiny(name: &str, traced: bool) -> Outcome {
        run(&tiny_cx(name, traced), 0.5, traced).expect("tiny run")
    }

    fn phase<S: Served>(cx: &Ctx) -> PhaseOut {
        let mut off = Tracer::new(false, cx.origin, 0);
        let (prep, _) = serving::setup::<S>(cx, &mut off).expect("set-up");
        serving::run(cx, prep, 0.5, false).expect("tiny phase")
    }

    /// Each workload end to end at tiny size: every update applied,
    /// every marker seen, the oracle satisfied — and the same oracle
    /// flags the run's own output once its reference loses an edge the
    /// view still publishes.
    #[test]
    fn every_workload_runs_clean_and_the_oracle_has_teeth() {
        for spec in workload::WORKLOADS {
            let cx = tiny_cx(spec.name, false);
            let ph = match spec.product {
                Product::Spanner => phase::<FullyDynamicSpanner>(&cx),
                Product::Conn => phase::<BatchConnectivity>(&cx),
            };
            assert_eq!(ph.failed(), 0, "{}: {:?}", spec.name, phase_notes(&ph));
            let m = end_to_end(&mut [1.0], &ph, 1.0);
            for name in [
                "updates_per_s",
                "visible_p50_ms",
                "read_p50_us",
                "output_edges",
            ] {
                assert!(
                    m.get(name).is_some_and(|v| v > 0.0),
                    "{}: {name}",
                    spec.name
                );
            }
            let dropped = ph.published[0];
            let corrupt: Vec<_> = ph.live.iter().copied().filter(|&e| e != dropped).collect();
            let v = serving::verdict(&cx, &corrupt, &ph.published);
            assert!(v.mismatches > 0, "{}: {}", spec.name, v.detail);
        }
    }

    /// The traced run reports per-layer metrics, and its exact counts
    /// repeat across runs of one seed.
    #[test]
    fn traced_counts_repeat() {
        let a = tiny("spanner_paced_wal", true);
        let b = tiny("spanner_paced_wal", true);
        assert_eq!(a.failed, 0, "{:?}", a.notes);
        for name in [
            "engine.scan_steps_per_update",
            "engine.vertices_touched_per_update",
            "engine.cluster_changes_per_update",
            "engine.recourse_per_update",
            "conn.recourse_per_update",
        ] {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
        }
        assert!(a.metrics.get("trace.overhead.updates_per_s").is_some());
        assert!(a
            .metrics
            .get("shard.apply_us_per_update.t2")
            .is_some_and(|v| v > 0.0));
    }
}
