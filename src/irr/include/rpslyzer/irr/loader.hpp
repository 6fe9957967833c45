#pragma once
// IRR dump loading and multi-IRR merging.
//
// The paper parses 13 IRRs and resolves conflicts by priority: authoritative
// regional/national registries first, then RADB, then other databases,
// ordered by size within each group (§4, Table 1). Loading here takes an
// ordered source list; the first definition of an object key wins.
//
// Real dumps are dirty in more ways than bad syntax: a mirror can be
// missing, a transfer can die mid-file, a corrupt dump can present one
// endless pseudo-object. Loading therefore tracks a per-source *outcome* —
// ok / degraded (unavailable, skipped) / quarantined (present but failed
// integrity checks mid-load) — and keeps going, mirroring the paper's
// missing-dump tolerance (§4): one bad registry never takes down the other
// twelve. Failpoint sites ("irr.open", "irr.read", "irr.parse", "irr.merge";
// see util/failpoint.hpp) make every failure deterministic to test.

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rpslyzer/ir/objects.hpp"
#include "rpslyzer/util/diagnostics.hpp"

namespace rpslyzer::irr {

/// One IRR dump: a name (e.g. "RIPE") and where its RPSL text lives.
struct IrrSource {
  std::string name;
  std::filesystem::path path;
};

/// Per-IRR census used for Table 1.
struct IrrCounts {
  std::string name;
  std::size_t bytes = 0;
  std::size_t objects = 0;       // raw objects lexed (any class)
  std::size_t aut_nums = 0;
  std::size_t routes = 0;        // route + route6
  std::size_t imports = 0;       // import + mp-import attributes
  std::size_t exports = 0;       // export + mp-export attributes
  std::size_t as_sets = 0;
  std::size_t route_sets = 0;
  std::size_t peering_sets = 0;
  std::size_t filter_sets = 0;
};

/// How loading one source ended.
enum class SourceStatus : std::uint8_t {
  kOk,           // parsed and merged completely
  kDegraded,     // dump unavailable; skipped with a warning (paper §4)
  kQuarantined,  // dump present but failed mid-load; none of it was merged
};

struct SourceOutcome {
  std::string name;
  SourceStatus status = SourceStatus::kOk;
  std::string detail;  // human-readable reason for degraded/quarantined
};

const char* to_string(SourceStatus s) noexcept;

/// Knobs for integrity checks and parallelism during loading.
struct LoadOptions {
  /// A single raw object larger than this is treated as dump corruption
  /// (e.g. lost blank-line separators) and quarantines the source.
  /// 0 disables the guard.
  std::size_t max_object_bytes = 8u << 20;

  /// Workers draining the load's one queue: they read sources, cut each
  /// dump into blank-line-separated shards, lex/parse the shards of every
  /// source, and merge finished sources in priority order. The count only
  /// sizes the pool; the queue, and its result, are the same at every
  /// count. A worker reads a source only when nothing already read needs
  /// it, so one worker holds at most one dump's text at a time.
  /// 0 = hardware_concurrency.
  unsigned threads = 0;

  /// Target shard size for within-dump parse parallelism. Shards are cut
  /// only at true object boundaries, so a single object larger than this
  /// becomes one oversized shard rather than being split.
  std::size_t shard_target_bytes = 1u << 20;
};

struct LoadResult {
  ir::Ir ir;                      // merged, priority-resolved corpus
  std::vector<IrrCounts> counts;  // per source, in priority order
  std::vector<SourceOutcome> outcomes;  // per source, in priority order
  util::Diagnostics diagnostics;
  std::size_t raw_route_objects = 0;  // before (prefix, origin) dedup

  std::size_t count_with(SourceStatus status) const noexcept;
  const SourceOutcome* outcome(std::string_view name) const noexcept;
};

/// Route objects dedup on (prefix, origin) across IRRs; this is the key set
/// load_irrs maintains incrementally and merge_into can share.
using RouteKeySet = std::set<std::pair<net::Prefix, ir::Asn>>;

/// Parse one dump: the one-source case of load_irrs' queue, without the
/// object-size guard. The dump is cut into blank-line-separated shards
/// that are lexed/parsed on `threads` workers (0 = hardware_concurrency),
/// and the fragments are merged in shard order — maps first-wins, routes
/// concatenated undeduplicated — so the returned Ir, `diagnostics`
/// (including line numbers; all lexer diagnostics before any parser
/// diagnostic), and `counts` do not depend on the thread count or shard
/// size. `counts` may be null. The "irr.parse" failpoint is evaluated
/// exactly once, before the cut; a shard exception is rethrown after the
/// diagnostics of the shards up to it are delivered.
ir::Ir parse_dump(std::string_view text, std::string_view source,
                  util::Diagnostics& diagnostics, IrrCounts* counts = nullptr,
                  unsigned threads = 1, std::size_t shard_target_bytes = 1u << 20);

/// Merge `src` into `dst` with first-wins priority (dst's existing objects
/// are kept). Route objects are deduplicated by (prefix, origin). When
/// `seen` is given it must already cover dst's routes; it is updated in
/// place, letting repeated merges (load_irrs) skip the per-call rebuild.
void merge_into(ir::Ir& dst, ir::Ir&& src, RouteKeySet* seen = nullptr);

/// Load and merge dump files in priority order. Unavailable files degrade
/// (warning, skipped); files failing mid-read, integrity guards, or parser
/// exceptions are quarantined (error, nothing merged). Either way the
/// remaining sources still load.
///
/// Every thread count runs one queue over all sources. A worker reads a
/// source with one sized read and checks it against the integrity guards;
/// once every earlier source has been read, the source takes its
/// "irr.parse" turn and the worker cuts it into shards. Shards of every
/// source are parsed by whichever worker is free, earliest source first,
/// and a source is merged as soon as its last shard is done and every
/// earlier source is merged, while later shards still parse. Outcomes,
/// diagnostics (by source; lexer before parser), counts, and the merged
/// corpus therefore do not depend on options.threads. A worker reads only
/// when nothing already read needs it: one worker holds at most one dump's
/// text, and releases it before reading the next. A fault in one shard
/// quarantines only that source. The "irr.parse" and "irr.merge"
/// failpoints fire once per source, in priority order, on whichever worker
/// holds that turn; "irr.open"/"irr.read" fire per source on the worker
/// that reads it, so with several workers their N* budgets land on a
/// nondeterministic *subset* of sources (unbounded actions behave
/// identically at every thread count).
LoadResult load_irrs(const std::vector<IrrSource>& sources,
                     const LoadOptions& options = {});

/// The same pipeline over dumps already in memory (IRR name -> text, in
/// priority order): only the file read is skipped, so the "irr.open" and
/// "irr.read" failpoints never fire, while the object-size guard, parser
/// quarantine and priority merge behave as for files.
LoadResult load_irrs(const std::vector<std::pair<std::string, std::string>>& dumps,
                     const LoadOptions& options = {});

/// The paper's 13 IRRs in priority order (Table 1): names only; callers
/// supply the directory holding "<name>.db" files.
std::vector<IrrSource> table1_sources(const std::filesystem::path& directory);

}  // namespace rpslyzer::irr
