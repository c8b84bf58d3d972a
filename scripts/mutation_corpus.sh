#!/usr/bin/env bash
# Mutation corpus — proof that every verification tier has teeth.
#
# Each mutant weakens exactly one load-bearing line of product code in
# a scratch copy of the working tree, then runs the one catcher
# (repo lint, mini-loom model check, or a tier-3/4 test suite) that is
# supposed to own that failure mode. The catcher MUST fail on the
# mutated tree; if it passes, the tier it represents has gone vacuous
# and this script exits nonzero. What the catcher runs is built first
# (`cargo test --no-run`, or `cargo build` for the lint): a mutated
# tree that does not compile is an error (exit 2), never a catch.
#
# Usage:
#   scripts/mutation_corpus.sh            # run every mutant
#   scripts/mutation_corpus.sh a d        # run a subset (CI matrix)
#   scripts/mutation_corpus.sh --list     # enumerate the corpus
#
# Mutants:
#   a  dbuf publish store SeqCst -> Relaxed      caught by: model check (bds_par)
#   b  dbuf pin increment SeqCst -> Relaxed      caught by: model check (bds_par)
#   c  WAL decode drops the seq stamp            caught by: wal unit tests (tier 3)
#   d  FsyncPolicy::EveryBatch stops syncing     caught by: recovery suite (tier 4)
#   e  WAL append_batch stamps the delta tag     caught by: bds_lint wal-drift (tier 1)
#   f  coalescer swap-remove index off by one    caught by: model check (bds_graph)
#   g  pool completion decrement AcqRel -> Relaxed  caught by: model check (bds_par)
#   h  Euler splice skips relabelling the last moved block  caught by: euler unit tests (bds_dstruct)
#   i  EdgeTable backward shift skips entries homed at the hole  caught by: edge_table unit tests (bds_dstruct)
#   j  Bentley–Saxe rebuild overwrites an emptied slot unretired  caught by: bentley_saxe suite (tier 3)
#   k  contracted edge reborn within a batch drops its rep event  caught by: bds_ultra unit tests (shared index)
#   l  serve collect pulls one raw update past the batch size  caught by: serve batch-bound unit test (bds_graph)
#   m  HDT probe accepts an internal first candidate  caught by: hdt unit tests (bds_dstruct)
#   n  decremental selection keeps the shortcut entry  caught by: decremental unit tests (bds_core)
#   o  bulk SpannerSet counts each distinct edge once  caught by: bds_core unit tests
#   p  EdgeTable scan advances its cursor on empty slots  caught by: bds_dstruct unit tests
#   q  decremental cluster hook drops a child's next-level recheck  caught by: decremental unit tests (bds_core)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
scratch=""
trap '[ -z "$scratch" ] || rm -rf "$scratch"' EXIT

describe() {
  case "$1" in
    a) echo "dbuf publish store SeqCst -> Relaxed (torn publish becomes possible)" ;;
    b) echo "dbuf pin increment SeqCst -> Relaxed (writer can miss a reader's pin)" ;;
    c) echo "WAL decode_body drops the delta seq stamp (followers lose ordering)" ;;
    d) echo "FsyncPolicy::EveryBatch silently stops syncing (durability contract broken)" ;;
    e) echo "WAL append_batch stamps KIND_DELTA (encode/decode tag drift)" ;;
    f) echo "coalescer cancel swap-remove reindexes off by one (pending map corrupt)" ;;
    g) echo "pool completion decrement AcqRel -> Relaxed (caller returns before a share's writes are visible)" ;;
    h) echo "Euler splice skips relabelling the last moved block (that block still claims its old tree)" ;;
    i) echo "EdgeTable backward-shift test >= -> > (an entry homed exactly at the hole is left behind an EMPTY)" ;;
    j) echo "Bentley–Saxe build_slot skips retiring slot j's emptied occupant (its work counters vanish)" ;;
    k) echo "ContractedEdges drops the (key, old_rep, new_rep) event of a contracted edge that died and was reborn in one batch (the rep chain goes stale)" ;;
    l) echo "ServeLoop::collect loop bound < -> <= (every full batch holds one raw update more than the configured size)" ;;
    m) echo "HDT replace's probe skips the leaves-the-smaller-tree test (an internal first candidate is linked as the replacement, closing a cycle)" ;;
    n) echo "DecrementalSpanner::selection stops skipping v's shortcut entry (a key range holding only the shortcut selects (v, p-node))" ;;
    o) echo "SpannerSet::from_reasons drops the run increment (an edge with several reasons is counted once, so removing one reason drops it)" ;;
    p) echo "EdgeTable::scan_into advances its cursor on empty slots too (the scan keeps holes, or runs past its sized buffer)" ;;
    q) echo "DecrementalSpanner's cluster hook stops queueing w when its parent's entry moves (w keeps its old cluster after its parent is re-clustered)" ;;
    *) echo "unknown mutant '$1'" >&2; exit 2 ;;
  esac
}

# Per-mutant definition: target file, unique needle locating the line,
# substring swap to apply, and the catcher command that must fail.
plan() {
  case "$1" in
    a)
      file="crates/par/src/sync/dbuf.rs"
      needle='self.buf.front.store(self.back, Ordering::SeqCst);'
      from='Ordering::SeqCst'
      to='Ordering::Relaxed'
      catcher='RUSTFLAGS="--cfg bds_model" cargo test -q -p bds_par --lib model_'
      ;;
    b)
      file="crates/par/src/sync/dbuf.rs"
      needle='self.pins[f].fetch_add(1, Ordering::SeqCst);'
      from='Ordering::SeqCst'
      to='Ordering::Relaxed'
      catcher='RUSTFLAGS="--cfg bds_model" cargo test -q -p bds_par --lib model_'
      ;;
    c)
      file="crates/graph/src/wal.rs"
      needle='delta.stamp_seq(seq);'
      from='delta.stamp_seq(seq);'
      to=''
      catcher='cargo test -q -p bds_graph --lib wal'
      ;;
    d)
      file="crates/graph/src/wal.rs"
      needle='FsyncPolicy::EveryBatch => self.sync()?,'
      from='self.sync()?'
      to='{}'
      catcher='cargo test -q --test recovery follower_tails'
      ;;
    e)
      file="crates/graph/src/wal.rs"
      needle='self.scratch.push(KIND_BATCH);'
      from='KIND_BATCH'
      to='KIND_DELTA'
      catcher='cargo run -q -p bds_lint'
      ;;
    f)
      file="crates/graph/src/serve.rs"
      needle='map.insert(moved, i);'
      from='map.insert(moved, i);'
      to='map.insert(moved, i + 1);'
      catcher='RUSTFLAGS="--cfg bds_model" cargo test -q -p bds_graph --lib model_'
      ;;
    g)
      file="crates/par/src/pool.rs"
      needle='task.pending.fetch_sub(1, Ordering::AcqRel);'
      from='Ordering::AcqRel'
      to='Ordering::Relaxed'
      catcher='RUSTFLAGS="--cfg bds_model" cargo test -q -p bds_par --lib model_pool'
      ;;
    h)
      file="crates/dstruct/src/euler.rs"
      needle='for &b in &self.trees[t as usize].blocks[range] {'
      from='[range]'
      to='[range.start..range.end - 1]'
      catcher='cargo test -q -p bds_dstruct euler'
      ;;
    i)
      file="crates/dstruct/src/edge_table.rs"
      needle='(j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask)'
      from='>='
      to='>'
      catcher='cargo test -q -p bds_dstruct edge_table'
      ;;
    j)
      file="crates/core/src/bentley_saxe.rs"
      needle='let stale = self.drain_slot(j);'
      from='self.drain_slot(j)'
      to='Vec::<Edge>::new()'
      catcher='cargo test -q --test bentley_saxe emptied_slot'
      ;;
    k)
      # Caught through Theorem 1.4: the shared index is ultra's too.
      file="crates/contract/src/contracted.rs"
      needle='Some(old_rep) if old_rep != e => self.events.push((key, old_rep, e)),'
      from='self.events.push((key, old_rep, e))'
      to='{}'
      catcher='cargo test -q -p bds_ultra'
      ;;
    l)
      file="crates/graph/src/serve.rs"
      needle='while pulled < self.batch_size {'
      from='<'
      to='<='
      catcher='cargo test -q -p bds_graph --lib serve::tests::batches_hold_at_most_the_configured_raw_updates'
      ;;
    m)
      file="crates/dstruct/src/hdt.rs"
      needle='if !fi.connected(y, small) {'
      from='fi.connected(y, small)'
      to='false'
      catcher='cargo test -q -p bds_dstruct --lib hdt'
      ;;
    n)
      file="crates/core/src/decremental.rs"
      needle='!self.sg.is_p(src)).then('
      from='self.sg.is_p(src)'
      to='false'
      catcher='cargo test -q -p bds_core --lib decremental'
      ;;
    o)
      file="crates/core/src/spanner_set.rs"
      needle='if *last == key => *count += 1,'
      from='*count += 1'
      to='{}'
      catcher='cargo test -q -p bds_core --lib'
      ;;
    p)
      file="crates/dstruct/src/edge_table.rs"
      needle='k += usize::from((s.key != EMPTY) & (s.val & mask == mask));'
      from='(s.key != EMPTY) & '
      to=''
      catcher='cargo test -q -p bds_dstruct --lib'
      ;;
    q)
      file="crates/core/src/decremental.rs"
      needle="self.pending.push(w); // w's cluster follows its parent's"
      from='self.pending.push(w);'
      to=''
      catcher='cargo test -q -p bds_core --lib decremental'
      ;;
    *) echo "unknown mutant '$1'" >&2; exit 2 ;;
  esac
}

run_mutant() {
  local id="$1"
  local file needle from to catcher
  plan "$id"
  echo "=== mutant $id: $(describe "$id")"

  scratch="$(mktemp -d)"
  # Copy the *working tree* (not HEAD) so the corpus also runs against
  # uncommitted changes; target/ and .git/ are dead weight.
  tar -C "$repo" --exclude=./target --exclude=./.git -cf - . | tar -xf - -C "$scratch"

  local target="$scratch/$file"
  local hits
  hits="$(grep -cF "$needle" "$target" || true)"
  if [ "$hits" != 1 ]; then
    echo "::error::mutant $id: needle matched $hits lines in $file (need exactly 1)"
    exit 2
  fi
  local ln orig mutated
  ln="$(grep -nF "$needle" "$target" | head -1 | cut -d: -f1)"
  orig="$(sed -n "${ln}p" "$target")"
  mutated="${orig/"$from"/"$to"}"
  if [ "$mutated" = "$orig" ]; then
    echo "::error::mutant $id: substitution produced no change"
    exit 2
  fi
  # Whole-line replacement via a temp file keeps sed escaping out of it.
  { sed -n "1,$((ln - 1))p" "$target"; printf '%s\n' "$mutated"; sed -n "$((ln + 1)),\$p" "$target"; } \
    > "$target.mut" && mv "$target.mut" "$target"
  echo "--- mutated $file:$ln"
  echo "---   was: $orig"
  echo "---   now: $mutated"

  local build
  case "$catcher" in
    *"cargo test"*) build="${catcher/cargo test/cargo test --no-run}" ;;
    *) build="cargo build -q" ;;
  esac
  if ! (cd "$scratch" && eval "$build"); then
    echo "::error::mutant $id: the mutated tree does not build [$build]; a compile error is not a catch"
    exit 2
  fi

  if (cd "$scratch" && eval "$catcher"); then
    echo "::error::mutant $id survived — catcher [$catcher] passed on the mutated tree"
    exit 1
  fi
  echo "=== mutant $id caught: catcher failed as required"
  rm -rf "$scratch"
  scratch=""
}

main() {
  local all=(a b c d e f g h i j k l m n o p q)
  if [ "${1:-}" = "--list" ]; then
    for id in "${all[@]}"; do
      echo "$id  $(describe "$id")"
    done
    exit 0
  fi
  local ids=("$@")
  [ ${#ids[@]} -gt 0 ] || ids=("${all[@]}")
  for id in "${ids[@]}"; do
    run_mutant "$id"
  done
  echo "mutation corpus: all ${#ids[@]} mutant(s) caught"
}

main "$@"
