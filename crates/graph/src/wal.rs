//! Write-ahead logging and crash recovery for the sharded engine.
//!
//! The serving pipeline ([`crate::serve::ServeLoop`]) is an in-memory
//! system: kill the process and every applied batch is gone. This
//! module adds the durability layer — a compact binary write-ahead log
//! of applied batches, periodic full snapshots, and a recovery path
//! that rebuilds a [`ShardedEngine`] equal to the one that crashed —
//! using nothing beyond `std::fs`.
//!
//! # Log format
//!
//! A log file is a 44-byte header followed by length-prefixed records:
//!
//! ```text
//! header:  "BDSWAL01" | engine_id u64 | layout_epoch u64 | n u64 | base_seq u64 | crc u32
//! record:  len u32 | crc u32 | body
//! body:    kind u8 | seq u64 | payload
//! ```
//!
//! All integers are little-endian; `crc` is CRC-32 (IEEE) over the
//! header fields / record body. Three record kinds exist, split across
//! the two data planes of the engine:
//!
//! - **`Seed`** — the engine's *output* edge set at `base_seq`, written
//!   once at log creation. Followers ([`FollowerView`]) start here.
//! - **`Batch`** — an applied *input* [`UpdateBatch`], stamped with the
//!   engine sequence it produced. Recovery replays these.
//! - **`Delta`** — the merged *output* [`DeltaBuf`] of one batch
//!   (weights and tagged aux lane included). Followers apply these.
//!
//! # Write-ahead ordering
//!
//! [`crate::serve::ServeLoopBuilder::durability`] appends the `Batch`
//! record *before* the batch's view swap is published, so no reader can
//! ever observe a state the log does not explain. The fsync policy
//! ([`FsyncPolicy`]) decides when appended bytes are forced to disk:
//!
//! - [`FsyncPolicy::EveryBatch`] — no acknowledged batch is ever lost,
//!   at one `fdatasync` per batch (the dominant cost at small batches).
//! - [`FsyncPolicy::EveryN`] — bounded loss window of N−1 batches; the
//!   sync cost amortizes away.
//! - [`FsyncPolicy::Manual`] — the OS decides (or the caller calls
//!   [`WalWriter::sync`]); a *process* crash loses nothing (the bytes
//!   are in the page cache), a *machine* crash loses the unsynced tail.
//!
//! # Recovery semantics
//!
//! [`recover`] loads a [`Snapshot`], verifies it matches the log
//! (engine identity and layout epoch — typed [`RecoverError`]s
//! otherwise, never a panic), rebuilds the engine from the snapshot
//! edges, and replays the log's `Batch` records with seq beyond the
//! snapshot, in order, checking contiguity. The recovered engine
//! adopts the logged identity, so views and logs bind to it as if the
//! crash never happened.
//!
//! A record whose bytes end early at EOF is a **torn tail** — the
//! normal shape of a crash mid-append — and recovery stops cleanly
//! before it ([`Recovered::torn_tail`]). A *complete* record whose CRC
//! does not match is **corruption**: [`recover`] fails with
//! [`RecoverError::Corrupt`], while [`recover_prefix`] keeps the valid
//! prefix and reports the corruption. (A corrupted length field that
//! claims more bytes than the file holds is indistinguishable from a
//! torn tail and is treated as one.)
//!
//! # Quickstart
//!
//! ```no_run
//! use bds_graph::shard::{MirrorSpanner, ShardedEngineBuilder};
//! use bds_graph::types::{Edge, UpdateBatch};
//! use bds_graph::wal::{recover, FsyncPolicy, Snapshot, WalWriter};
//! use bds_graph::api::{DeltaBuf, FullyDynamic};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 100;
//! let mut engine = ShardedEngineBuilder::new(n)
//!     .shards(2)
//!     .build_with(&[], move |_, es| MirrorSpanner::build(n, es))?;
//!
//! // Log every applied batch, write-ahead.
//! Snapshot::of(&engine).write_to("spanner.snap".as_ref())?;
//! let mut wal = WalWriter::create(
//!     "spanner.wal".as_ref(),
//!     engine.engine_id(),
//!     engine.layout_epoch(),
//!     n as u64,
//!     engine.seq(),
//!     FsyncPolicy::EveryBatch,
//! )?;
//! let mut out = DeltaBuf::new();
//! let batch = UpdateBatch {
//!     insertions: vec![Edge::new(1, 2), Edge::new(2, 3)],
//!     deletions: vec![],
//! };
//! wal.append_batch(engine.seq() + 1, &batch)?;
//! engine.apply_into(&batch, &mut out);
//!
//! // ... crash ...
//!
//! let recovered = recover(
//!     "spanner.snap".as_ref(),
//!     "spanner.wal".as_ref(),
//!     ShardedEngineBuilder::new(n).shards(2),
//!     move |_, es| MirrorSpanner::build(n, es),
//! )?;
//! assert_eq!(recovered.seq, 1);
//! # Ok(())
//! # }
//! ```

use crate::api::{AuxTag, BatchDynamic, ConfigError, DeltaBuf, FullyDynamic, SpannerView};
use crate::shard::{Partitioner, ShardedEngine, ShardedEngineBuilder};
use crate::types::{Edge, UpdateBatch};
use bds_dstruct::FxHashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — hand-rolled, table-driven
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        // INVARIANT: `i < 256` by the loop bound; the cast drops no bits.
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // INVARIANT: `i < 256` by the loop bound, in range for the table.
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the checksum every header and record body
/// in the log carries.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        // INVARIANT: the index is masked to `& 0xFF`, always < 256;
        // `b as u32` widens from u8.
        c = (c >> 8) ^ CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// ---------------------------------------------------------------------------
// Binary encoding helpers
// ---------------------------------------------------------------------------

const LOG_MAGIC: &[u8; 8] = b"BDSWAL01";
const SNAP_MAGIC: &[u8; 8] = b"BDSSNP01";
/// Header: magic + 4 × u64 + crc.
const HEADER_LEN: usize = 8 + 32 + 4;
/// Record prefix: len + crc.
const PREFIX_LEN: usize = 8;
/// Smallest legal body: kind + seq.
const MIN_BODY: u32 = 9;
/// Largest legal body — a sanity cap so a corrupted length field cannot
/// drive a multi-gigabyte allocation.
const MAX_BODY: u32 = 1 << 30;

const KIND_SEED: u8 = 0;
const KIND_BATCH: u8 = 1;
const KIND_DELTA: u8 = 2;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_edges(buf: &mut Vec<u8>, edges: &[Edge]) {
    put_u64(buf, edges.len() as u64);
    for e in edges {
        put_u32(buf, e.u);
        put_u32(buf, e.v);
    }
}

/// Bounds-checked little-endian cursor over a byte slice; every getter
/// returns `None` past the end, so payload decoding can never panic on
/// corrupt input.
struct Rd<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b, i: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.i)?;
        self.i += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s: [u8; 4] = self.b.get(self.i..self.i + 4)?.try_into().ok()?;
        self.i += 4;
        Some(u32::from_le_bytes(s))
    }

    fn u64(&mut self) -> Option<u64> {
        let s: [u8; 8] = self.b.get(self.i..self.i + 8)?.try_into().ok()?;
        self.i += 8;
        Some(u64::from_le_bytes(s))
    }

    /// A length field about to drive a `Vec` reservation: reject any
    /// count the remaining bytes cannot possibly hold.
    fn len(&mut self, elem_bytes: usize) -> Option<usize> {
        let v = self.u64()?;
        let remaining = (self.b.len() - self.i) as u64;
        if v.checked_mul(elem_bytes as u64)? > remaining {
            return None;
        }
        Some(v as usize)
    }

    fn edges(&mut self) -> Option<Vec<Edge>> {
        let m = self.len(8)?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push(Edge {
                u: self.u32()?,
                v: self.u32()?,
            });
        }
        Some(edges)
    }

    fn done(&self) -> bool {
        self.i == self.b.len()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One parsed log record. `Seed`/`Delta` live on the output plane
/// (what the engine *produces*, consumed by [`FollowerView`]);
/// `Batch` lives on the input plane (what was *applied*, consumed by
/// [`recover`]).
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// The engine's output edge set at `seq` (log creation time).
    Seed { seq: u64, edges: Vec<Edge> },
    /// An applied input batch; `seq` is the engine sequence it produced.
    Batch { seq: u64, batch: UpdateBatch },
    /// The merged output delta of one batch (carries its own stamped
    /// seq, weights, and tagged aux lane).
    Delta { delta: DeltaBuf },
}

/// Equality over the *serialized* state — what a round-trip preserves.
/// (Deltas compare their observable lanes; internal scratch is ignored.)
impl PartialEq for WalRecord {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WalRecord::Seed { seq: a, edges: ea }, WalRecord::Seed { seq: b, edges: eb }) => {
                a == b && ea == eb
            }
            (WalRecord::Batch { seq: a, batch: ba }, WalRecord::Batch { seq: b, batch: bb }) => {
                a == b && ba.insertions == bb.insertions && ba.deletions == bb.deletions
            }
            (WalRecord::Delta { delta: a }, WalRecord::Delta { delta: b }) => {
                a.seq() == b.seq()
                    && a.is_weighted() == b.is_weighted()
                    && a.inserted() == b.inserted()
                    && a.deleted() == b.deleted()
                    && a.aux() == b.aux()
                    && a.inserted_weighted()
                        .map(|(_, w)| w.to_bits())
                        .eq(b.inserted_weighted().map(|(_, w)| w.to_bits()))
                    && a.deleted_weighted()
                        .map(|(_, w)| w.to_bits())
                        .eq(b.deleted_weighted().map(|(_, w)| w.to_bits()))
            }
            _ => false,
        }
    }
}

impl WalRecord {
    /// The engine batch sequence this record belongs to.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Seed { seq, .. } | WalRecord::Batch { seq, .. } => *seq,
            WalRecord::Delta { delta } => delta.seq(),
        }
    }
}

fn encode_body(out: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Seed { seq, edges } => {
            out.push(KIND_SEED);
            put_u64(out, *seq);
            put_edges(out, edges);
        }
        WalRecord::Batch { seq, batch } => {
            out.push(KIND_BATCH);
            put_u64(out, *seq);
            put_edges(out, &batch.insertions);
            put_edges(out, &batch.deletions);
        }
        WalRecord::Delta { delta } => {
            out.push(KIND_DELTA);
            put_u64(out, delta.seq());
            // INVARIANT: `bool as u8` is exactly 0 or 1.
            out.push(delta.is_weighted() as u8);
            put_edges(out, delta.inserted());
            put_edges(out, delta.deleted());
            if delta.is_weighted() {
                for (_, w) in delta.inserted_weighted() {
                    put_u64(out, w.to_bits());
                }
                for (_, w) in delta.deleted_weighted() {
                    put_u64(out, w.to_bits());
                }
            }
            put_u64(out, delta.aux().len() as u64);
            for &(tag, e) in delta.aux() {
                // INVARIANT: `AuxTag` is a fieldless `repr(u8)` enum; the
                // discriminant fits a u8 by construction.
                out.push(tag as u8);
                put_u32(out, e.u);
                put_u32(out, e.v);
            }
        }
    }
}

fn decode_body(body: &[u8]) -> Option<WalRecord> {
    let mut r = Rd::new(body);
    let kind = r.u8()?;
    let seq = r.u64()?;
    let rec = match kind {
        KIND_SEED => WalRecord::Seed {
            seq,
            edges: r.edges()?,
        },
        KIND_BATCH => WalRecord::Batch {
            seq,
            batch: UpdateBatch {
                insertions: r.edges()?,
                deletions: r.edges()?,
            },
        },
        KIND_DELTA => {
            let weighted = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let ins = r.edges()?;
            let del = r.edges()?;
            let mut delta = DeltaBuf::new();
            if weighted {
                for &e in &ins {
                    delta.push_ins_w(e, f64::from_bits(r.u64()?));
                }
                for &e in &del {
                    delta.push_del_w(e, f64::from_bits(r.u64()?));
                }
            } else {
                for &e in &ins {
                    delta.push_ins(e);
                }
                for &e in &del {
                    delta.push_del(e);
                }
            }
            let n_aux = r.len(9)?;
            for _ in 0..n_aux {
                let tag = AuxTag::from_u8(r.u8()?)?;
                delta.push_aux(
                    tag,
                    Edge {
                        u: r.u32()?,
                        v: r.u32()?,
                    },
                );
            }
            delta.stamp_seq(seq);
            WalRecord::Delta { delta }
        }
        _ => return None,
    };
    // Trailing bytes after a fully decoded payload mean the encoder and
    // decoder disagree — treat as corruption, not silence.
    r.done().then_some(rec)
}

/// Outcome of parsing one record at an offset.
enum Parsed {
    /// A record and the offset just past it.
    Record(Box<WalRecord>, usize),
    /// The bytes end before the record does (torn tail, or a writer
    /// still appending).
    Incomplete,
    /// A complete record that fails its checksum (or a malformed body).
    Corrupt,
}

fn parse_record(data: &[u8], at: usize) -> Parsed {
    let Some(prefix) = data.get(at..at + PREFIX_LEN) else {
        return Parsed::Incomplete;
    };
    // INVARIANT: `prefix` is exactly 8 bytes (`get` above); in range.
    // bds:allow(no-unwrap): fixed 4-byte subslices of the checked prefix.
    let len = u32::from_le_bytes(prefix[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
    if !(MIN_BODY..=MAX_BODY).contains(&len) {
        return Parsed::Corrupt;
    }
    let body_at = at + PREFIX_LEN;
    let Some(body) = data.get(body_at..body_at + len as usize) else {
        // A corrupted length that claims more bytes than exist is
        // indistinguishable from a crash mid-append; callers treat it
        // as a torn tail.
        return Parsed::Incomplete;
    };
    if crc32(body) != crc {
        return Parsed::Corrupt;
    }
    match decode_body(body) {
        Some(rec) => Parsed::Record(Box::new(rec), body_at + len as usize),
        None => Parsed::Corrupt,
    }
}

fn append_record(file: &mut File, scratch: &mut Vec<u8>, rec: &WalRecord) -> io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; PREFIX_LEN]);
    encode_body(scratch, rec);
    // INVARIANT: the 8-byte prefix was just reserved, and bodies stay
    // under `MAX_BODY`, so the subtraction is safe and fits u32.
    let body_len = (scratch.len() - PREFIX_LEN) as u32;
    let crc = crc32(&scratch[PREFIX_LEN..]);
    // INVARIANT: both subslices lie inside the reserved 8-byte prefix.
    scratch[0..4].copy_from_slice(&body_len.to_le_bytes());
    scratch[4..8].copy_from_slice(&crc.to_le_bytes());
    file.write_all(scratch)
}

// ---------------------------------------------------------------------------
// Log header
// ---------------------------------------------------------------------------

/// The identity block at the head of every log file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHeader {
    /// [`ShardedEngine::engine_id`] of the logged engine.
    pub engine_id: u64,
    /// [`ShardedEngine::layout_epoch`] at log creation.
    pub layout_epoch: u64,
    /// Vertex count.
    pub n: u64,
    /// Engine sequence at log creation; `Batch` records start at
    /// `base_seq + 1`.
    pub base_seq: u64,
}

fn encode_header(buf: &mut Vec<u8>, h: &LogHeader) {
    buf.extend_from_slice(LOG_MAGIC);
    let fields_at = buf.len();
    put_u64(buf, h.engine_id);
    put_u64(buf, h.layout_epoch);
    put_u64(buf, h.n);
    put_u64(buf, h.base_seq);
    // INVARIANT: `fields_at` marks where the fields started being
    // appended above, so it is within `buf`.
    let crc = crc32(&buf[fields_at..]);
    put_u32(buf, crc);
}

fn parse_header(data: &[u8]) -> Result<LogHeader, RecoverError> {
    let Some(raw) = data.get(..HEADER_LEN) else {
        return Err(RecoverError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "log file ends before its header",
        )));
    };
    // INVARIANT: `raw` is exactly `HEADER_LEN == 44` bytes (the `get`
    // above), covering the magic, the fields, and the trailing crc.
    if &raw[..8] != LOG_MAGIC {
        return Err(RecoverError::Corrupt { seq: 0, offset: 0 });
    }
    // INVARIANT: `raw.len() == HEADER_LEN > 8`, so the skip is in range.
    let mut r = Rd::new(&raw[8..]);
    let trunc = || RecoverError::Corrupt { seq: 0, offset: 8 };
    let h = LogHeader {
        engine_id: r.u64().ok_or_else(trunc)?,
        layout_epoch: r.u64().ok_or_else(trunc)?,
        n: r.u64().ok_or_else(trunc)?,
        base_seq: r.u64().ok_or_else(trunc)?,
    };
    let crc = r.u32().ok_or_else(trunc)?;
    // INVARIANT: `raw.len() == HEADER_LEN` (checked above), so the
    // fields subslice is in range.
    if crc32(&raw[8..HEADER_LEN - 4]) != crc {
        return Err(RecoverError::Corrupt { seq: 0, offset: 8 });
    }
    Ok(h)
}

// ---------------------------------------------------------------------------
// Fsync policy & config
// ---------------------------------------------------------------------------

/// When [`WalWriter::append_batch`] forces appended bytes to disk. See
/// the [module docs](self) for the durability trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every batch append: zero loss window.
    EveryBatch,
    /// `fdatasync` after every N batch appends: loss window of N−1
    /// acknowledged batches on machine crash (0 is treated as 1).
    EveryN(u32),
    /// Never sync implicitly; the caller decides via
    /// [`WalWriter::sync`]. Process crashes still lose nothing — the
    /// bytes are in the OS page cache.
    Manual,
}

/// Durability configuration for
/// [`crate::serve::ServeLoopBuilder::durability`]: where the log lives,
/// when it syncs, and how often a full snapshot is cut.
///
/// Built only through its methods, so a snapshot cadence always comes
/// with the path it writes to:
///
/// ```compile_fail
/// use bds_graph::wal::{FsyncPolicy, WalConfig};
/// let _ = WalConfig {
///     log_path: "spanner.wal".into(),
///     fsync: FsyncPolicy::EveryBatch,
///     snapshot_path: None,
///     snapshot_every: 3,
/// };
/// ```
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Log file path (created/truncated at build).
    pub(crate) log_path: PathBuf,
    /// Sync policy for batch appends (default [`FsyncPolicy::EveryBatch`]).
    pub(crate) fsync: FsyncPolicy,
    /// Snapshot file path and cadence; see [`WalConfig::snapshot`].
    pub(crate) snapshot: Option<(PathBuf, u64)>,
}

impl WalConfig {
    pub fn new(log_path: impl Into<PathBuf>) -> Self {
        WalConfig {
            log_path: log_path.into(),
            fsync: FsyncPolicy::EveryBatch,
            snapshot: None,
        }
    }

    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Write an initial snapshot to `path` at build, then cut a fresh
    /// one every `every` batches (0 = only the initial one). Snapshots
    /// are written to a temp file and renamed into place, so a crash
    /// mid-snapshot never destroys the old one.
    pub fn snapshot(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.snapshot = Some((path.into(), every));
        self
    }
}

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

/// Append-only writer over one log file. Creating it writes the header;
/// each `append_*` writes one record with one `write_all` call, and
/// [`WalWriter::append_batch`] applies the [`FsyncPolicy`].
pub struct WalWriter {
    file: File,
    path: PathBuf,
    scratch: Vec<u8>,
    policy: FsyncPolicy,
    since_sync: u32,
    batches: u64,
    syncs: u64,
}

impl WalWriter {
    /// Create (truncating) the log at `path` and write its header.
    pub fn create(
        path: &Path,
        engine_id: u64,
        layout_epoch: u64,
        n: u64,
        base_seq: u64,
        policy: FsyncPolicy,
    ) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut scratch = Vec::with_capacity(256);
        encode_header(
            &mut scratch,
            &LogHeader {
                engine_id,
                layout_epoch,
                n,
                base_seq,
            },
        );
        file.write_all(&scratch)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            scratch,
            policy,
            since_sync: 0,
            batches: 0,
            syncs: 0,
        })
    }

    /// Write the output-plane seed record ([`WalRecord::Seed`]) —
    /// done once, right after creation, so followers can start.
    pub fn append_seed(&mut self, seq: u64, edges: &[Edge]) -> io::Result<()> {
        let rec = WalRecord::Seed {
            seq,
            edges: edges.to_vec(),
        };
        append_record(&mut self.file, &mut self.scratch, &rec)
    }

    /// Append an input batch about to be applied as engine sequence
    /// `seq`, then apply the fsync policy. Call this *before* applying
    /// the batch (write-ahead).
    pub fn append_batch(&mut self, seq: u64, batch: &UpdateBatch) -> io::Result<()> {
        // Borrow the batch rather than cloning it into a WalRecord:
        // this is the hot path.
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; PREFIX_LEN]);
        self.scratch.push(KIND_BATCH);
        put_u64(&mut self.scratch, seq);
        put_edges(&mut self.scratch, &batch.insertions);
        put_edges(&mut self.scratch, &batch.deletions);
        // INVARIANT: the 8-byte prefix was just reserved, and a batch
        // body stays under `MAX_BODY`, so the length fits u32.
        let body_len = (self.scratch.len() - PREFIX_LEN) as u32;
        let crc = crc32(&self.scratch[PREFIX_LEN..]);
        // INVARIANT: both subslices lie inside the reserved prefix.
        self.scratch[0..4].copy_from_slice(&body_len.to_le_bytes());
        self.scratch[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&self.scratch)?;
        self.batches += 1;
        match self.policy {
            FsyncPolicy::EveryBatch => self.sync()?,
            FsyncPolicy::EveryN(every) => {
                self.since_sync += 1;
                if self.since_sync >= every.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Manual => {}
        }
        Ok(())
    }

    /// Append the merged output delta of the batch just applied (for
    /// followers). Does not itself sync — the batch record is the
    /// recovery anchor.
    pub fn append_delta(&mut self, delta: &DeltaBuf) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; PREFIX_LEN]);
        self.scratch.push(KIND_DELTA);
        put_u64(&mut self.scratch, delta.seq());
        // INVARIANT: `bool as u8` is exactly 0 or 1.
        self.scratch.push(delta.is_weighted() as u8);
        put_edges(&mut self.scratch, delta.inserted());
        put_edges(&mut self.scratch, delta.deleted());
        if delta.is_weighted() {
            for (_, w) in delta.inserted_weighted() {
                put_u64(&mut self.scratch, w.to_bits());
            }
            for (_, w) in delta.deleted_weighted() {
                put_u64(&mut self.scratch, w.to_bits());
            }
        }
        put_u64(&mut self.scratch, delta.aux().len() as u64);
        for &(tag, e) in delta.aux() {
            // INVARIANT: `AuxTag` is a fieldless `repr(u8)` enum; the
            // discriminant fits a u8 by construction.
            self.scratch.push(tag as u8);
            put_u32(&mut self.scratch, e.u);
            put_u32(&mut self.scratch, e.v);
        }
        // INVARIANT: the 8-byte prefix was just reserved, and a merged
        // delta stays under `MAX_BODY`, so the length fits u32.
        let body_len = (self.scratch.len() - PREFIX_LEN) as u32;
        let crc = crc32(&self.scratch[PREFIX_LEN..]);
        // INVARIANT: both subslices lie inside the reserved prefix.
        self.scratch[0..4].copy_from_slice(&body_len.to_le_bytes());
        self.scratch[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&self.scratch)
    }

    /// Force everything appended so far to disk (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Drop every record `snap` already covers (seq ≤ `snap.seq`),
    /// rewriting the log in place so it no longer grows without bound
    /// across snapshot cuts.
    ///
    /// The rewrite is atomic: records are copied to a sibling temp
    /// file, synced, and renamed over the log — a crash mid-compaction
    /// leaves the original log intact. The new header's `base_seq` is
    /// `snap.seq`, and the output-plane `Seed` (if the log had one) is
    /// rolled forward through the dropped `Delta` records so a
    /// [`FollowerView`] opening the compacted log still sees the full
    /// output edge set before tailing. Retained records are untouched,
    /// so `recover(snapshot, compacted log)` rebuilds the exact engine
    /// `recover(snapshot, original log)` would have.
    ///
    /// `snap` must come from the logged engine (same `engine_id` and
    /// `layout_epoch`) — mismatches fail without touching the log. A
    /// snapshot at or before the log's `base_seq` covers nothing and
    /// returns `Ok(0)`.
    ///
    /// A [`FollowerView`] holding the *old* log open notices the
    /// rename on its next idle poll (the new header's raised
    /// `base_seq` marks the generation change) and re-opens the path
    /// itself — see [`FollowerView::catch_up`].
    ///
    /// Returns the number of records dropped.
    pub fn compact(&mut self, snap: &Snapshot) -> Result<u64, RecoverError> {
        self.sync()?;
        let mut reader = WalReader::open(&self.path)?;
        let header = *reader.header();
        if header.engine_id != snap.engine_id {
            return Err(RecoverError::EngineMismatch {
                snapshot: snap.engine_id,
                log: header.engine_id,
            });
        }
        if header.layout_epoch != snap.layout_epoch {
            return Err(RecoverError::LayoutMismatch {
                snapshot: snap.layout_epoch,
                log: header.layout_epoch,
            });
        }
        if snap.seq <= header.base_seq {
            return Ok(0);
        }
        let mut seed: Option<FxHashSet<Edge>> = None;
        let mut dropped = 0u64;
        let mut retained: Vec<WalRecord> = Vec::new();
        while let Some(rec) = reader.next_record()? {
            if rec.seq() > snap.seq {
                retained.push(rec);
                continue;
            }
            dropped += 1;
            match rec {
                WalRecord::Seed { edges, .. } => {
                    seed = Some(edges.into_iter().collect());
                }
                WalRecord::Delta { delta } => {
                    if let Some(set) = seed.as_mut() {
                        for &e in delta.deleted() {
                            set.remove(&e);
                        }
                        for &e in delta.inserted() {
                            set.insert(e);
                        }
                    }
                }
                WalRecord::Batch { .. } => {}
            }
        }
        let tmp = self.path.with_extension("compact-tmp");
        let mut file = File::create(&tmp)?;
        self.scratch.clear();
        encode_header(
            &mut self.scratch,
            &LogHeader {
                engine_id: header.engine_id,
                layout_epoch: header.layout_epoch,
                n: header.n,
                base_seq: snap.seq,
            },
        );
        file.write_all(&self.scratch)?;
        if let Some(set) = seed {
            let mut edges: Vec<Edge> = set.into_iter().collect();
            edges.sort_unstable();
            let rec = WalRecord::Seed {
                seq: snap.seq,
                edges,
            };
            append_record(&mut file, &mut self.scratch, &rec)?;
        }
        for rec in &retained {
            append_record(&mut file, &mut self.scratch, rec)?;
        }
        file.sync_data()?;
        fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.since_sync = 0;
        Ok(dropped)
    }

    /// Batch records appended so far.
    pub fn batches_appended(&self) -> u64 {
        self.batches
    }

    /// Explicit + policy-driven syncs performed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

// ---------------------------------------------------------------------------
// WalReader
// ---------------------------------------------------------------------------

/// Cursor over a complete log file (loaded into memory — this is the
/// recovery path, not a tailer; see [`FollowerView`] for tailing).
pub struct WalReader {
    data: Vec<u8>,
    pos: usize,
    header: LogHeader,
    last_seq: u64,
    torn_tail: bool,
}

impl WalReader {
    /// Load and parse the log at `path` up to its header.
    pub fn open(path: &Path) -> Result<Self, RecoverError> {
        let data = fs::read(path)?;
        let header = parse_header(&data)?;
        Ok(WalReader {
            data,
            pos: HEADER_LEN,
            header,
            last_seq: header.base_seq,
            torn_tail: false,
        })
    }

    pub fn header(&self) -> &LogHeader {
        &self.header
    }

    /// The next record, `Ok(None)` at a clean end of log (including a
    /// torn tail — check [`WalReader::torn_tail`]), or
    /// [`RecoverError::Corrupt`] for a checksum-failing record.
    pub fn next_record(&mut self) -> Result<Option<WalRecord>, RecoverError> {
        if self.pos >= self.data.len() {
            return Ok(None);
        }
        match parse_record(&self.data, self.pos) {
            Parsed::Record(rec, next) => {
                self.pos = next;
                self.last_seq = rec.seq();
                Ok(Some(*rec))
            }
            Parsed::Incomplete => {
                self.torn_tail = true;
                Ok(None)
            }
            Parsed::Corrupt => Err(RecoverError::Corrupt {
                seq: self.last_seq,
                offset: self.pos as u64,
            }),
        }
    }

    /// True once iteration hit bytes that end before their record does
    /// (crash mid-append).
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Byte offset the next [`WalReader::next_record`] will parse at.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A full input-plane snapshot of a [`ShardedEngine`]: its live input
/// edges, stamped with the engine identity, layout epoch, and batch
/// sequence it was cut at.
///
/// ```text
/// "BDSSNP01" | engine_id u64 | layout_epoch u64 | seq u64 | n u64 | m u64 | edges | crc u32
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub engine_id: u64,
    pub layout_epoch: u64,
    pub seq: u64,
    pub n: u64,
    edges: Vec<Edge>,
}

impl Snapshot {
    /// Cut a snapshot of `engine`'s current live input edges.
    pub fn of<S: FullyDynamic + Send, P: Partitioner>(engine: &ShardedEngine<S, P>) -> Self {
        Snapshot {
            engine_id: engine.engine_id(),
            layout_epoch: engine.layout_epoch(),
            seq: engine.seq(),
            n: engine.num_vertices() as u64,
            edges: engine.live_input_edges().collect(),
        }
    }

    /// The snapshotted live input edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Serialize to `path` atomically: the bytes go to `path` + `.tmp`,
    /// are synced, and renamed into place — a crash mid-write never
    /// destroys an existing snapshot.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::with_capacity(64 + self.edges.len() * 8);
        buf.extend_from_slice(SNAP_MAGIC);
        put_u64(&mut buf, self.engine_id);
        put_u64(&mut buf, self.layout_epoch);
        put_u64(&mut buf, self.seq);
        put_u64(&mut buf, self.n);
        put_edges(&mut buf, &self.edges);
        // INVARIANT: `buf` starts with the 8-byte magic appended above.
        let crc = crc32(&buf[8..]);
        put_u32(&mut buf, crc);
        let tmp = path.with_extension("tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&buf)?;
        file.sync_data()?;
        fs::rename(&tmp, path)
    }

    /// Deserialize from `path`; checksum or format violations are
    /// [`RecoverError::Corrupt`] (offset within the snapshot file).
    pub fn read_from(path: &Path) -> Result<Self, RecoverError> {
        let data = fs::read(path)?;
        let corrupt = |offset: usize| RecoverError::Corrupt {
            seq: 0,
            offset: offset as u64,
        };
        // INVARIANT: the length check short-circuits before the magic
        // read, so every slice below has `data.len() >= 12` behind it.
        if data.len() < 8 + 4 || &data[..8] != SNAP_MAGIC {
            return Err(corrupt(0));
        }
        // INVARIANT: `data.len() >= 12` (checked above), so the body
        // subslice is in range.
        let body = &data[8..data.len() - 4];
        // INVARIANT: `data.len() >= 12`, so the last-4-bytes slice is
        // in range too.
        // bds:allow(no-unwrap): exactly the last 4 bytes of a buffer
        // already checked to hold magic + crc; infallible.
        let crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
        if crc32(body) != crc {
            return Err(corrupt(8));
        }
        let mut r = Rd::new(body);
        let snap = (|| {
            Some(Snapshot {
                engine_id: r.u64()?,
                layout_epoch: r.u64()?,
                seq: r.u64()?,
                n: r.u64()?,
                edges: r.edges()?,
            })
        })()
        .filter(|_| r.done())
        .ok_or_else(|| corrupt(8))?;
        Ok(snap)
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Why recovery refused or stopped. Every failure mode is typed — the
/// recovery path never panics on bad bytes.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem failure reading the artifacts.
    Io(io::Error),
    /// A complete record (or header) failed its checksum, or a
    /// checksum-valid body was malformed. `seq` is the last
    /// checksum-valid sequence before it; `offset` the byte offset of
    /// the offending record.
    Corrupt { seq: u64, offset: u64 },
    /// Snapshot and log were cut from different engines.
    EngineMismatch { snapshot: u64, log: u64 },
    /// Snapshot and log disagree on the layout epoch (a reshard or
    /// rebalance happened between them; their sequences describe
    /// different shard layouts).
    LayoutMismatch { snapshot: u64, log: u64 },
    /// `Batch` records are not contiguous past the snapshot — the log
    /// is missing batches the snapshot does not cover.
    SeqGap { expected: u64, found: u64 },
    /// Rebuilding the engine from the snapshot failed.
    Config(ConfigError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "wal io error: {e}"),
            RecoverError::Corrupt { seq, offset } => write!(
                f,
                "corrupt record at byte offset {offset} (last valid seq {seq})"
            ),
            RecoverError::EngineMismatch { snapshot, log } => write!(
                f,
                "snapshot is from engine {snapshot} but the log is from engine {log}"
            ),
            RecoverError::LayoutMismatch { snapshot, log } => write!(
                f,
                "snapshot layout epoch {snapshot} does not match log layout epoch {log}"
            ),
            RecoverError::SeqGap { expected, found } => write!(
                f,
                "log is not contiguous past the snapshot: expected batch seq {expected}, found {found}"
            ),
            RecoverError::Config(e) => write!(f, "engine rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            RecoverError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<ConfigError> for RecoverError {
    fn from(e: ConfigError) -> Self {
        RecoverError::Config(e)
    }
}

/// A successfully recovered engine plus what recovery observed.
pub struct Recovered<S, P: Partitioner> {
    /// The rebuilt engine, carrying the *logged* identity, layout
    /// epoch, and batch sequence — views and new logs bind to it as the
    /// same logical engine.
    pub engine: ShardedEngine<S, P>,
    /// Engine sequence after replay.
    pub seq: u64,
    /// `Batch` records replayed beyond the snapshot.
    pub replayed: usize,
    /// The log ended mid-record (crash during an append). The
    /// incomplete record was never acknowledged under
    /// [`FsyncPolicy::EveryBatch`]; under weaker policies it falls in
    /// the documented loss window.
    pub torn_tail: bool,
}

/// Detail of a corruption [`recover_prefix`] stopped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// Last checksum-valid sequence before the corruption.
    pub seq: u64,
    /// Byte offset of the corrupt record.
    pub offset: u64,
}

/// Strict recovery: rebuild the engine from `snapshot_path` and replay
/// the log's `Batch` records, failing on any mismatch, gap, or
/// corruption (see [`RecoverError`]). The builder must describe the
/// same configuration (vertex count, shards, partitioner, factory
/// determinism) the crashed engine ran with — the shard count and
/// partitioner are not serialized, so this is the caller's contract.
pub fn recover<S, P, F, E>(
    snapshot_path: &Path,
    log_path: &Path,
    builder: ShardedEngineBuilder<P>,
    factory: F,
) -> Result<Recovered<S, P>, RecoverError>
where
    S: FullyDynamic + Send,
    P: Partitioner,
    F: FnMut(usize, &[Edge]) -> Result<S, E> + Send + 'static,
    ConfigError: From<E>,
{
    let (recovered, corruption) = recover_inner(snapshot_path, log_path, builder, factory, true)?;
    debug_assert!(
        corruption.is_none(),
        "strict recovery surfaces corruption as Err"
    );
    Ok(recovered)
}

/// Tolerant recovery: like [`recover`], but a corrupt record stops the
/// replay at the last checksum-valid prefix and reports the
/// [`Corruption`] instead of failing. Identity and contiguity
/// violations (and unreadable header/snapshot) still fail — those mean
/// the artifacts do not belong together, not that bytes rotted.
pub fn recover_prefix<S, P, F, E>(
    snapshot_path: &Path,
    log_path: &Path,
    builder: ShardedEngineBuilder<P>,
    factory: F,
) -> Result<(Recovered<S, P>, Option<Corruption>), RecoverError>
where
    S: FullyDynamic + Send,
    P: Partitioner,
    F: FnMut(usize, &[Edge]) -> Result<S, E> + Send + 'static,
    ConfigError: From<E>,
{
    recover_inner(snapshot_path, log_path, builder, factory, false)
}

fn recover_inner<S, P, F, E>(
    snapshot_path: &Path,
    log_path: &Path,
    builder: ShardedEngineBuilder<P>,
    factory: F,
    strict: bool,
) -> Result<(Recovered<S, P>, Option<Corruption>), RecoverError>
where
    S: FullyDynamic + Send,
    P: Partitioner,
    F: FnMut(usize, &[Edge]) -> Result<S, E> + Send + 'static,
    ConfigError: From<E>,
{
    let snap = Snapshot::read_from(snapshot_path)?;
    let mut log = WalReader::open(log_path)?;
    let h = *log.header();
    if snap.engine_id != h.engine_id {
        return Err(RecoverError::EngineMismatch {
            snapshot: snap.engine_id,
            log: h.engine_id,
        });
    }
    if snap.layout_epoch != h.layout_epoch {
        return Err(RecoverError::LayoutMismatch {
            snapshot: snap.layout_epoch,
            log: h.layout_epoch,
        });
    }
    if snap.n != h.n {
        return Err(RecoverError::Config(ConfigError::InvalidParam {
            name: "n",
            reason: "snapshot and log disagree on the vertex count",
        }));
    }
    let mut engine = builder.build_with(snap.edges(), factory)?;
    if engine.num_vertices() as u64 != h.n {
        return Err(RecoverError::Config(ConfigError::InvalidParam {
            name: "n",
            reason: "builder vertex count does not match the logged engine",
        }));
    }
    let mut cur = snap.seq;
    let mut replayed = 0usize;
    let mut scratch = DeltaBuf::new();
    let mut corruption = None;
    loop {
        let rec = match log.next_record() {
            Ok(rec) => rec,
            Err(RecoverError::Corrupt { seq, offset }) if !strict => {
                corruption = Some(Corruption { seq, offset });
                break;
            }
            Err(e) => return Err(e),
        };
        let Some(rec) = rec else { break };
        let WalRecord::Batch { seq, batch } = rec else {
            continue; // output-plane records (Seed/Delta) are for followers
        };
        if seq <= cur {
            continue; // already covered by the snapshot
        }
        if seq != cur + 1 {
            return Err(RecoverError::SeqGap {
                expected: cur + 1,
                found: seq,
            });
        }
        engine.apply_into(&batch, &mut scratch);
        cur = seq;
        replayed += 1;
    }
    engine.restore_identity(h.engine_id, snap.layout_epoch, cur);
    Ok((
        Recovered {
            engine,
            seq: cur,
            replayed,
            torn_tail: log.torn_tail(),
        },
        corruption,
    ))
}

// ---------------------------------------------------------------------------
// FollowerView
// ---------------------------------------------------------------------------

/// A read-only mirror that *tails* a log file: it seeds from the log's
/// `Seed` record and applies `Delta` records as the primary appends
/// them — a view on another thread (or process) trailing the serving
/// pipeline with no channel to it.
///
/// [`FollowerView::catch_up`] is incremental and cheap to poll: it
/// reads whatever complete records have appeared since the last call
/// and stops cleanly at a partially written one (the writer may be
/// mid-append; the partial record is retried next call). Open it after
/// the log exists — [`crate::serve::ServeLoopBuilder::durability`]
/// writes the header and seed record at build time.
pub struct FollowerView {
    file: File,
    /// The log path, kept so an idle poll can detect that
    /// [`WalWriter::compact`] renamed a new generation over it (the
    /// open `file` handle pins the *old* inode forever otherwise).
    path: PathBuf,
    header: LogHeader,
    /// Unconsumed bytes (a partial record tail between catch-ups).
    buf: Vec<u8>,
    /// Parse position within `buf`.
    pos: usize,
    /// Absolute file offset of `buf[0]`.
    base: u64,
    view: SpannerView,
    seeded: bool,
}

impl FollowerView {
    /// Open the log at `path` and parse its header (the header must be
    /// fully written; records may still be arriving).
    pub fn open(path: &Path) -> Result<Self, RecoverError> {
        let mut file = File::open(path)?;
        let mut buf = Vec::with_capacity(4096);
        file.read_to_end(&mut buf)?;
        let header = parse_header(&buf)?;
        let n = header.n as usize;
        Ok(FollowerView {
            file,
            path: path.to_path_buf(),
            header,
            buf,
            pos: HEADER_LEN,
            base: 0,
            view: SpannerView::new(n),
            seeded: false,
        })
    }

    pub fn header(&self) -> &LogHeader {
        &self.header
    }

    /// The engine batch sequence the mirrored view is at.
    pub fn seq(&self) -> u64 {
        self.view.seq()
    }

    /// True once the `Seed` record has been consumed (the view is
    /// meaningful from then on).
    pub fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// The mirrored output view (empty until seeded).
    pub fn view(&self) -> &SpannerView {
        &self.view
    }

    /// Read every complete record appended since the last call and
    /// advance the view. Returns the number of deltas applied. Stops
    /// cleanly at a partial record (retried next call); a complete
    /// record with a bad checksum is [`RecoverError::Corrupt`].
    ///
    /// When the open handle yields no new bytes, the poll also checks
    /// whether [`WalWriter::compact`] renamed a new log generation
    /// over the path; if so the follower re-opens it and — if its view
    /// predates the new `base_seq` — re-seeds from the rolled-forward
    /// `Seed` record, all within this same call.
    pub fn catch_up(&mut self) -> Result<usize, RecoverError> {
        if self.file.read_to_end(&mut self.buf)? == 0 {
            // The old inode is idle: cheap moment to look for a
            // compaction rewrite of the path (a writer that is
            // actively appending can't be mid-compact).
            self.check_rewrite()?;
        }
        let mut applied = 0usize;
        loop {
            match parse_record(&self.buf, self.pos) {
                Parsed::Incomplete => break,
                Parsed::Corrupt => {
                    return Err(RecoverError::Corrupt {
                        seq: self.view.seq(),
                        offset: self.base + self.pos as u64,
                    });
                }
                Parsed::Record(rec, next) => {
                    self.pos = next;
                    match *rec {
                        WalRecord::Seed { seq, edges } => {
                            if !self.seeded {
                                let mut seed = DeltaBuf::new();
                                for &e in &edges {
                                    seed.push_ins(e);
                                }
                                self.view.apply(&seed); // unsequenced: no seq check
                                self.view.resync_seq(seq);
                                self.seeded = true;
                            }
                        }
                        WalRecord::Batch { .. } => {} // input plane; not ours
                        WalRecord::Delta { delta } => {
                            if !self.seeded || (delta.seq() != 0 && delta.seq() <= self.view.seq())
                            {
                                continue; // pre-seed or already-applied
                            }
                            if delta.seq() != 0 && delta.seq() != self.view.seq() + 1 {
                                return Err(RecoverError::SeqGap {
                                    expected: self.view.seq() + 1,
                                    found: delta.seq(),
                                });
                            }
                            self.view.apply(&delta);
                            applied += 1;
                        }
                    }
                }
            }
        }
        // Compact consumed bytes so the buffer stays a partial-tail
        // scratch, not an ever-growing copy of the log.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
        Ok(applied)
    }

    /// Detect that the path now names a different log *generation*
    /// than the inode this follower holds open, and switch to it.
    ///
    /// [`WalWriter::compact`] publishes the rewritten log with an
    /// atomic rename, so the two generations are distinguished purely
    /// by header content: same `engine_id` and `layout_epoch`, and a
    /// strictly larger `base_seq` (a compaction that would not raise
    /// `base_seq` never rewrites). A header identical in `base_seq` is
    /// therefore the same generation — nothing to do. Transient states
    /// (path briefly missing mid-rename, header not yet fully written)
    /// are silently retried on the next poll; the old inode stays
    /// valid throughout. A header naming a different engine or layout
    /// is a real foul-up and surfaces as the matching mismatch error.
    ///
    /// On switch, unconsumed bytes from the old inode are discarded:
    /// every record they contained is either covered by the new
    /// generation's rolled-forward `Seed` (seq ≤ `base_seq`, and the
    /// view below re-seeds) or retained verbatim in the new log
    /// (seq > `base_seq`, replayed by the normal tail loop).
    fn check_rewrite(&mut self) -> Result<(), RecoverError> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(_) => return Ok(()), // mid-rename; retry next poll
        };
        let mut head = [0u8; HEADER_LEN];
        if file.read_exact(&mut head).is_err() {
            return Ok(()); // header not fully written yet
        }
        let Ok(header) = parse_header(&head) else {
            return Ok(()); // partial/garbled new file; retry
        };
        if header.engine_id != self.header.engine_id {
            return Err(RecoverError::EngineMismatch {
                snapshot: self.header.engine_id,
                log: header.engine_id,
            });
        }
        if header.layout_epoch != self.header.layout_epoch {
            return Err(RecoverError::LayoutMismatch {
                snapshot: self.header.layout_epoch,
                log: header.layout_epoch,
            });
        }
        if header.base_seq == self.header.base_seq {
            return Ok(()); // same generation
        }
        let mut buf = head.to_vec();
        file.read_to_end(&mut buf)?;
        self.file = file;
        self.buf = buf;
        self.pos = HEADER_LEN;
        self.base = 0;
        if self.view.seq() < header.base_seq {
            // This view predates records compaction dropped; start
            // over from the rolled-forward Seed in the new log.
            self.view = SpannerView::new(header.n as usize);
            self.seeded = false;
        }
        self.header = header;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect()
    }

    fn roundtrip(rec: &WalRecord) -> WalRecord {
        let mut buf = vec![0u8; PREFIX_LEN];
        encode_body(&mut buf, rec);
        let body_len = (buf.len() - PREFIX_LEN) as u32;
        let crc = crc32(&buf[PREFIX_LEN..]);
        buf[0..4].copy_from_slice(&body_len.to_le_bytes());
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        match parse_record(&buf, 0) {
            Parsed::Record(rec, next) => {
                assert_eq!(next, buf.len());
                *rec
            }
            _ => panic!("roundtrip failed to parse"),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn header_roundtrips_and_rejects_flips() {
        let h = LogHeader {
            engine_id: 7,
            layout_epoch: 3,
            n: 100,
            base_seq: 42,
        };
        let mut buf = Vec::new();
        encode_header(&mut buf, &h);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(parse_header(&buf).unwrap(), h);
        // Truncated header -> Io(UnexpectedEof), not a panic.
        assert!(matches!(
            parse_header(&buf[..HEADER_LEN - 1]),
            Err(RecoverError::Io(_))
        ));
        // Any single-bit flip in the fields or crc is caught.
        for byte in 8..HEADER_LEN {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            assert!(
                matches!(parse_header(&bad), Err(RecoverError::Corrupt { .. })),
                "flip at byte {byte} undetected"
            );
        }
        // Magic flip is caught as corruption at offset 0.
        let mut bad = buf.clone();
        bad[0] ^= 1;
        assert!(matches!(
            parse_header(&bad),
            Err(RecoverError::Corrupt { seq: 0, offset: 0 })
        ));
    }

    #[test]
    fn records_roundtrip_exactly() {
        let seed = WalRecord::Seed {
            seq: 5,
            edges: edges(&[(0, 1), (2, 7)]),
        };
        assert_eq!(roundtrip(&seed), seed);

        let batch = WalRecord::Batch {
            seq: 6,
            batch: UpdateBatch {
                insertions: edges(&[(1, 2)]),
                deletions: edges(&[(0, 1), (3, 4)]),
            },
        };
        assert_eq!(roundtrip(&batch), batch);

        // Unweighted delta with a tagged aux lane.
        let mut d = DeltaBuf::new();
        d.push_ins(Edge::new(1, 2));
        d.push_del(Edge::new(3, 4));
        d.push_aux(AuxTag::ResidualDeleted, Edge::new(5, 6));
        d.stamp_seq(9);
        let rec = WalRecord::Delta { delta: d };
        let WalRecord::Delta { delta: back } = roundtrip(&rec) else {
            panic!("kind changed");
        };
        let WalRecord::Delta { delta: d } = rec else {
            unreachable!()
        };
        assert_eq!(back.seq(), 9);
        assert_eq!(back.inserted(), d.inserted());
        assert_eq!(back.deleted(), d.deleted());
        assert_eq!(back.aux(), d.aux());
        assert!(!back.is_weighted());

        // Weighted delta: weight bits must survive exactly.
        let mut w = DeltaBuf::new();
        w.push_ins_w(Edge::new(0, 9), 2.5);
        w.push_del_w(Edge::new(1, 8), 0.125);
        w.stamp_seq(10);
        let WalRecord::Delta { delta: back } = roundtrip(&WalRecord::Delta { delta: w.clone() })
        else {
            panic!("kind changed");
        };
        assert!(back.is_weighted());
        assert_eq!(
            back.inserted_weighted().collect::<Vec<_>>(),
            w.inserted_weighted().collect::<Vec<_>>()
        );
        assert_eq!(
            back.deleted_weighted().collect::<Vec<_>>(),
            w.deleted_weighted().collect::<Vec<_>>()
        );
    }

    #[test]
    fn torn_and_corrupt_records_are_distinguished() {
        let rec = WalRecord::Batch {
            seq: 1,
            batch: UpdateBatch::insert_only(edges(&[(0, 1), (1, 2), (2, 3)])),
        };
        let mut buf = vec![0u8; PREFIX_LEN];
        encode_body(&mut buf, &rec);
        let body_len = (buf.len() - PREFIX_LEN) as u32;
        let crc = crc32(&buf[PREFIX_LEN..]);
        buf[0..4].copy_from_slice(&body_len.to_le_bytes());
        buf[4..8].copy_from_slice(&crc.to_le_bytes());

        // Every strict prefix is Incomplete (torn tail), never Corrupt.
        for cut in 0..buf.len() {
            assert!(
                matches!(parse_record(&buf[..cut], 0), Parsed::Incomplete),
                "truncation at {cut} misread"
            );
        }
        // Every single-byte flip in the body or prefix is Corrupt or —
        // for length-field flips that claim more bytes than exist —
        // Incomplete. Never a valid record, never a panic.
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                match parse_record(&bad, 0) {
                    Parsed::Record(..) => panic!("flip at byte {byte} bit {bit} undetected"),
                    Parsed::Incomplete => assert!(
                        byte < 4,
                        "only a length-field flip may look torn (byte {byte})"
                    ),
                    Parsed::Corrupt => {}
                }
            }
        }
    }

    #[test]
    fn oversized_and_undersized_lengths_are_corrupt() {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_BODY + 1);
        put_u32(&mut buf, 0);
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(parse_record(&buf, 0), Parsed::Corrupt));
        let mut buf = Vec::new();
        put_u32(&mut buf, MIN_BODY - 1);
        put_u32(&mut buf, 0);
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(parse_record(&buf, 0), Parsed::Corrupt));
    }

    #[test]
    fn payload_length_fields_cannot_overallocate() {
        // A CRC-valid body whose edge count claims more elements than
        // the body holds must decode to None (-> Corrupt), not reserve
        // gigabytes or panic.
        let mut body = vec![KIND_SEED];
        put_u64(&mut body, 1); // seq
        put_u64(&mut body, u64::MAX); // edge count
        assert!(decode_body(&body).is_none());
    }

    #[test]
    fn trailing_garbage_after_payload_is_corrupt() {
        let mut body = vec![KIND_SEED];
        put_u64(&mut body, 1);
        put_edges(&mut body, &edges(&[(0, 1)]));
        assert!(decode_body(&body).is_some());
        body.push(0xAB);
        assert!(decode_body(&body).is_none());
    }

    #[test]
    fn unknown_kind_and_unknown_aux_tag_are_corrupt() {
        let mut body = vec![3u8]; // no such kind
        put_u64(&mut body, 1);
        assert!(decode_body(&body).is_none());

        let mut body = vec![KIND_DELTA];
        put_u64(&mut body, 1);
        body.push(0); // unweighted
        put_edges(&mut body, &[]);
        put_edges(&mut body, &[]);
        put_u64(&mut body, 1); // one aux entry
        body.push(0xFF); // no such tag
        put_u32(&mut body, 0);
        put_u32(&mut body, 1);
        assert!(decode_body(&body).is_none());
    }
}
