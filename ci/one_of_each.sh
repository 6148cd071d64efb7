#!/usr/bin/env bash
# "One of each, on both clocks": the virtual-time worker pool lives once, in
# eoml-simtime, with one file mover (eoml-transfer) and one task batch
# (eoml-executor) on top of it; the wall-clock worker pool lives once, in
# eoml-executor's pool.rs; what a driver remembers lives once, in
# eoml-core's run journal; and the real driver is one pass of that pool, a
# worker carrying each granule from download to shipped file. Fails when a
# second copy of the slot/queue/retry loop or of the append / already-done /
# halt ledger creeps back into the non-test part of
# crates/{transfer,executor,core}/src, when the executor or a driver starts
# threads of its own, when realrun.rs grows a second pass or a directory
# crawl, or when a by-name scan returns to the provenance log, and prints the
# per-crate non-test line counts ROADMAP wants to see fall.
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

# Starting threads anywhere but executor/src/pool.rs is a second wall-clock
# pool. (The compute endpoint's service threads live in crates/compute.)
threads=$(callers 'thread::(scope\(|spawn\(|Builder)' crates/executor/src crates/core/src |
  grep -v '^crates/executor/src/pool\.rs$' || true)
if [ -n "$threads" ]; then
  complain "threads started outside executor/src/pool.rs in:"$'\n'"$threads"
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

# The provenance log answers by-name queries from its index (DESIGN §19): a
# scan of the records for a name is the quadratic simulator coming back.
if [ "$(hits '\.filter\(\|r\| r\.artifact ==' crates/core/src/provenance.rs)" -ne 0 ]; then
  complain "crates/core/src/provenance.rs scans the records for a name (use producer_indices)"
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
printf '  %-9s %6d\n' journal "$(lines journal)"

exit "$fail"
