#!/usr/bin/env bash
# "One of each, on both clocks": the virtual-time worker pool lives once, in
# eoml-simtime, with one file mover (eoml-transfer) and one task batch
# (eoml-executor) on top of it; the wall-clock worker pool lives once, in
# eoml-util's pool.rs, and is the one thread source; what a driver
# remembers lives once, in eoml-core's run journal; and the real driver is
# one pass of that pool, a worker carrying each granule from download to
# shipped file. Fails when a second copy of the slot/queue/retry loop or of
# the append / already-done / halt ledger creeps back into the non-test part
# of crates/{transfer,executor,core}/src, when the non-test part of any
# crates/*/src file but util/src/pool.rs starts threads, when realrun.rs
# grows a second pass or a directory crawl or allocates a granule's buffers
# afresh or reaches a step through JSON (a compute endpoint or a flow runner)
# or a lock on the worker's set, or when a by-name scan returns to the
# provenance log, and prints the per-crate non-test line counts ROADMAP wants
# to see fall. Spans live once, in eoml-obs: no `struct Span` / `Vec<Span>` in any other crate's source
# (core's Telemetry keeps only the Fig. 6 activity series and forwards every
# interval to the hub); library code reads no environment variable
# (`EOML_*` knobs belong to examples, tests and binaries); and `unsafe` and
# run-time CPU feature checks stay in the few files that own the byte path's
# hardware kernels (DESIGN §23). No Cargo.toml names crossbeam or
# parking_lot: std's channel and locks are all the one pool needs. The hub
# records one way (DESIGN §8): no live event sink subscribes to it. No
# manifest under crates/ but the rayon shim's own names rayon. No knob sets
# the journal's snapshot cadence.
#
# "Non-test part" of a file = the lines before its first `#[cfg(test)]`.
set -euo pipefail
cd "$(dirname "$0")/.."

nontest() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

# Matching lines in a file's non-test part. `grep -c` reads to the end: a
# `grep -q` would close the pipe early and fail the pipeline under pipefail.
hits() { nontest "$2" | grep -cE "$1" || true; }

# Files under the given directories whose non-test part matches the pattern.
callers() {
  local pattern=$1 f
  shift
  find "$@" -name '*.rs' | sort | while read -r f; do
    if [ "$(hits "$pattern" "$f")" -gt 0 ]; then echo "$f"; fi
  done
}

# Matches of the pattern in the non-test part of the files under the dirs.
count() {
  local pattern=$1 f n=0
  shift
  while read -r f; do
    n=$((n + $(hits "$pattern" "$f")))
  done < <(find "$@" -name '*.rs' | sort)
  echo "$n"
}

fail=0
complain() { echo "one-of-each: $*" >&2; fail=1; }

src=(crates/transfer/src crates/executor/src crates/core/src)

flow_callers=$(callers '(^|[^_[:alnum:]])start_flow\(' "${src[@]}" | grep -v '/flownet\.rs$' || true)
if [ "$(echo "$flow_callers" | grep -c .)" -gt 1 ]; then
  complain "start_flow( is called outside flownet.rs from more than one file:"$'\n'"$flow_callers"
fi

if [ "$(count '(^|[^_[:alnum:]])submit_task\(' crates/core/src)" -ne 0 ]; then
  complain "submit_task( is called in crates/core (use eoml_executor::open_batch)"
fi
if [ "$(count '(^|[^_[:alnum:]])submit_task\(' crates/executor/src)" -gt 1 ]; then
  complain "submit_task( is called more than once in crates/executor"
fi

# A worker counter next to a `Simulation` is a second virtual-time pool.
counters=$(callers '(^|[^_[:alnum:]])(active|in_flight|[_[:alnum:]]*_active) \+= 1' "${src[@]}" |
  while read -r f; do
    if [ "$(hits 'Simulation<' "$f")" -gt 0 ]; then echo "$f"; fi
  done)
if [ -n "$counters" ]; then
  complain "hand-rolled worker counter (active/in_flight/_active += 1) in:"$'\n'"$counters"
fi

# Starting threads anywhere but util/src/pool.rs is a second wall-clock
# pool (DESIGN §17): the executor, the model's batch calls and the
# service's shards all run on it, and the compute endpoint runs each task
# on the submitting thread.
threads=$(callers 'thread::(scope\(|spawn\(|Builder)' crates/*/src |
  grep -v '^crates/util/src/pool\.rs$' || true)
if [ -n "$threads" ]; then
  complain "threads started outside util/src/pool.rs in:"$'\n'"$threads"
fi

# The run journal (core/src/run_journal.rs) is the only thing in core's
# drivers that appends to a journal or knows that the run stopped. (chaos.rs
# appends `IngestAcked` to the *destination's* journal: a different journal.)
for driver in campaign streaming realrun; do
  for pattern in '\.append\(' 'fn [a-z_]*_record\b' 'halted'; do
    if [ "$(hits "$pattern" "crates/core/src/$driver.rs")" -ne 0 ]; then
      complain "/$pattern/ in crates/core/src/$driver.rs (the ledger is RunJournal's)"
    fi
  done
done

# The real driver is one pass over the granules (DESIGN §21): one
# `executor.run(` and no crawler in the non-test part of realrun.rs.
realrun=crates/core/src/realrun.rs
if [ "$(hits 'executor\.run\(' "$realrun")" -ne 1 ]; then
  complain "$realrun must have exactly one executor.run( (one pass per run)"
fi
if [ "$(hits 'DirectoryCrawler' "$realrun")" -ne 0 ]; then
  complain "DirectoryCrawler in $realrun (a worker hands its own tile file to its flow)"
fi

# The real driver calls its steps directly (DESIGN §17): no JSON stand-in for
# Globus Compute or Flows in the non-test part of realrun.rs, and no lock
# around the buffer set a worker owns (DESIGN §24).
for pattern in 'serde_json' 'json!' 'eoml_compute' 'eoml_flows' 'Arc<Mutex<BufferSet>>'; do
  if [ "$(hits "$pattern" "$realrun")" -ne 0 ]; then
    complain "/$pattern/ in $realrun (call the step as a typed function on the worker's set)"
  fi
done

# A worker carries each granule in the buffer set it keeps (DESIGN §24): the
# non-test part of realrun.rs calls no form that allocates a granule's
# planes, tiles or radiance afresh, and builds no synthesis scratch of its
# own (the lattice-row caches and line buffers live in the set, DESIGN §25).
per_granule='\.synthesize\(|decode_from\(|extract_tiles\(|write_tiles_nc\(|preprocess_granule_files\('
per_granule+='|(radiance|slab|tile)[_[:alnum:]]*[[:space:]]*(:[^=]*)?=[[:space:]]*Vec::new\('
per_granule+='|SynthScratch[[:space:]]*(::|\{)|synthesize_into\(.*(Default::default|::new)\('
if [ "$(hits "$per_granule" "$realrun")" -ne 0 ]; then
  complain "$realrun allocates per granule (use the worker's buffer set):"$'\n'"$(nontest "$realrun" | grep -nE "$per_granule")"
fi

# The provenance log answers by-name queries from its index (DESIGN §19): a
# scan of the records for a name is the quadratic simulator coming back.
if [ "$(hits '\.filter\(\|r\| r\.artifact ==' crates/core/src/provenance.rs)" -ne 0 ]; then
  complain "crates/core/src/provenance.rs scans the records for a name (use producer_indices)"
fi

# One span model (DESIGN §22): the span store is eoml-obs's.
spans=$(callers '(struct Span\b|Vec<Span>)' crates/*/src | grep -v '^crates/obs/src/' || true)
if [ -n "$spans" ]; then
  complain "a span list outside crates/obs/src (record into the hub) in:"$'\n'"$spans"
fi

# The hub records one way (DESIGN §8): spans and metrics go into the
# collector and the registry, and readers take snapshots.
sinks=$(callers '(add_sink\(|EventSink|ProgressSink)' crates/*/src || true)
if [ -n "$sinks" ]; then
  complain "a live event sink on the hub (read a snapshot instead) in:"$'\n'"$sinks"
fi

# Library code takes its settings as arguments, never from the environment.
envs=$(callers 'env::var\(' crates/*/src || true)
if [ -n "$envs" ]; then
  complain "env::var( in library code (read EOML_* in examples, tests or binaries) in:"$'\n'"$envs"
fi

# `unsafe` lives in an allowlist (DESIGN §23): the counting allocator, the
# carry-less CRC, the little-endian byte views and the AVX2 conv twin; and
# only the CRC and the conv ask the CPU what it has.
unsafe_files=$(callers '(^|[^_[:alnum:]])unsafe([^_[:alnum:]]|$)' crates/*/src |
  grep -vxE 'crates/(obs/src/resource|util/src/hash|util/src/bytes|ricc/src/tensor)\.rs' || true)
if [ -n "$unsafe_files" ]; then
  complain "unsafe outside the allowlist (DESIGN §23) in:"$'\n'"$unsafe_files"
fi
detect_files=$(callers 'is_x86_feature_detected!' crates/*/src |
  grep -vxE 'crates/(util/src/hash|ricc/src/tensor)\.rs' || true)
if [ -n "$detect_files" ]; then
  complain "is_x86_feature_detected! outside hash.rs and tensor.rs in:"$'\n'"$detect_files"
fi

# Channels and locks come from std (the pool's mpsc, the registry's RwLock).
manifests=$(find . -name Cargo.toml -not -path '*/target/*' | sort |
  xargs grep -lE '(^|[^_[:alnum:]])(crossbeam|parking_lot)([^_[:alnum:]]|$)' || true)
if [ -n "$manifests" ]; then
  complain "crossbeam or parking_lot named in:"$'\n'"$manifests"
fi

# Threads come from the one pool, not from a data-parallel library: only the
# rayon shim's own manifest names rayon (the benchmark's extraction probe
# still calls its inline `install`).
manifests=$(find crates -name Cargo.toml -not -path '*/target/*' -not -path 'crates/shims/rayon/*' |
  sort | xargs grep -lE '(^|[^_[:alnum:]])rayon([^_[:alnum:]]|$)' || true)
if [ -n "$manifests" ]; then
  complain "rayon named in:"$'\n'"$manifests"
fi

# The journal derives its snapshot cadence from the bytes it writes
# (DESIGN §10): no config field, builder or open variant sets it. Files under
# a `tests/` directory are tests throughout.
knobs=$(callers 'snapshot_every' crates src examples | grep -v '/tests/' || true)
if [ -n "$knobs" ]; then
  complain "snapshot_every outside tests (the cadence is derived, DESIGN §10) in:"$'\n'"$knobs"
fi

lines() {
  local n=0 f
  while read -r f; do
    n=$((n + $(nontest "$f" | wc -l)))
  done < <(find "crates/$1/src" -name '*.rs' | sort)
  echo "$n"
}

echo "non-test lines (before the first #[cfg(test)] of each file):"
total=0
for crate in simtime transfer executor core; do
  n=$(lines "$crate")
  printf '  %-9s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '  %-9s %6d\n' total "$total"
printf '  %-9s %6d\n' realrun "$(nontest "$realrun" | wc -l)"
printf '  %-9s %6d\n' telemetry "$(nontest crates/core/src/telemetry.rs | wc -l)"
printf '  %-9s %6d\n' journal "$(lines journal)"
printf '  %-9s %6d\n' compute "$(lines compute)"
printf '  %-9s %6d\n' obs "$(lines obs)"
printf 'workspace lines (every *.rs outside target/): %d\n' \
  "$(find . -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l)"

exit "$fail"
