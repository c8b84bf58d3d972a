//! In-memory span recorder for the traced run.
//!
//! Every span wraps one benchmark-side call into a layer of the stack
//! (`IngestHandle::send`, `ReadHandle::pin`, a burst's queries, a
//! `ConnView` rebuild, each replay call). Spans carry their parent's id,
//! so a layer's *self time* is its spans' durations minus the part their
//! child spans cover. Each thread owns one [`Tracer`]; the run merges
//! them at exit and writes them out as CSV.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to, in report order.
pub const LAYERS: [&str; 8] = [
    "bench", "loadgen", "serve", "shard", "engine", "conn", "wal", "dstruct",
];

/// Every span name the benchmark records. The prefix before the first
/// `.` is the layer the call goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Name {
    Setup,
    Replay,
    Generate,
    Burst,
    Probe,
    Send,
    Pin,
    ServeBuild,
    ShardBuild,
    BatchContains,
    Contains,
    ViewEdges,
    ShardApply,
    ViewApply,
    EngineBuild,
    EngineApply,
    ConnBuild,
    ConnApply,
    ViewRebuild,
    BatchConnected,
    AppendSync,
    AppendDelta,
    Snapshot,
    TableBuild,
    TableRemove,
    TableGet,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Setup => "bench.setup",
            Name::Replay => "bench.replay",
            Name::Generate => "loadgen.generate",
            Name::Burst => "loadgen.burst",
            Name::Probe => "loadgen.probe",
            Name::Send => "serve.send",
            Name::Pin => "serve.pin",
            Name::ServeBuild => "serve.build",
            Name::ShardBuild => "shard.build",
            Name::BatchContains => "shard.batch_contains",
            Name::Contains => "shard.contains",
            Name::ViewEdges => "shard.view_edges",
            Name::ShardApply => "shard.apply_into",
            Name::ViewApply => "shard.view_apply",
            Name::EngineBuild => "engine.build",
            Name::EngineApply => "engine.apply_into",
            Name::ConnBuild => "conn.build",
            Name::ConnApply => "conn.apply_into",
            Name::ViewRebuild => "conn.view_rebuild",
            Name::BatchConnected => "conn.batch_connected",
            Name::AppendSync => "wal.append_sync",
            Name::AppendDelta => "wal.append_delta",
            Name::Snapshot => "wal.snapshot",
            Name::TableBuild => "dstruct.from_batch",
            Name::TableRemove => "dstruct.remove_batch",
            Name::TableGet => "dstruct.get_batch",
        }
    }

    pub fn layer(self) -> &'static str {
        let s = self.as_str();
        s.split('.').next().unwrap_or(s)
    }
}

/// One recorded call. `items` is the call's own size (updates, queries,
/// edges) so ratios can be taken where the work happened.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: returned by [`Tracer::enter`], closed by
/// [`Tracer::exit`].
pub struct Open {
    id: u64,
    parent: u64,
    name: Name,
    start: Option<Instant>,
}

/// Per-thread span recorder. When off, `enter`/`exit` read no clock and
/// record nothing, so the untraced phase runs the same code path.
pub struct Tracer {
    on: bool,
    origin: Instant,
    id_base: u64,
    next: u64,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `thread` keeps span ids unique across the merged threads.
    pub fn new(on: bool, origin: Instant, thread: u64) -> Self {
        Tracer {
            on,
            origin,
            id_base: thread << 40,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: Name) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent: 0,
                name,
                start: None,
            };
        }
        self.next += 1;
        let id = self.id_base + self.next;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Open {
            id,
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Close `open`, recording `items` units of work; returns the span's
    /// duration in ns (0 when tracing is off).
    pub fn exit(&mut self, open: Open, items: u64) -> u64 {
        let Some(start) = open.start else {
            return 0;
        };
        let end = Instant::now();
        self.stack.pop();
        let start_ns = ns_since(self.origin, start);
        let end_ns = ns_since(self.origin, end);
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns,
            end_ns,
            items,
        });
        end_ns.saturating_sub(start_ns)
    }
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Self time per layer (ns): each span's duration minus the durations of
/// its direct children. Children always run on their parent's thread and
/// nest inside it, so the subtraction never double counts.
pub fn self_ns_by_layer(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: HashMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name.layer()).or_default() += own;
    }
    out
}

/// Durations (ns) and summed items of every span called `name`.
pub fn durations(spans: &[Span], name: Name) -> (Vec<f64>, u64) {
    let mut d = Vec::new();
    let mut items = 0;
    for s in spans.iter().filter(|s| s.name == name) {
        d.push(s.dur_ns() as f64);
        items += s.items;
    }
    (d, items)
}

/// Write spans as CSV (`name,id,parent,start_ns,end_ns,items`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name,id,parent,start_ns,end_ns,items")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.name.as_str(),
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns,
            s.items
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 1);
        let outer = t.enter(Name::Burst);
        let inner = t.enter(Name::Pin);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.exit(inner, 1);
        let outer_ns = t.exit(outer, 1);
        let by = self_ns_by_layer(&t.spans);
        assert_eq!(by["serve"], inner_ns);
        assert_eq!(by["loadgen"], outer_ns - inner_ns);
        // Spans are recorded at exit, so the child comes first.
        assert_eq!(t.spans[0].parent, t.spans[1].id);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let s = t.enter(Name::Send);
        assert_eq!(t.exit(s, 1), 0);
        assert!(t.spans.is_empty());
    }
}
