#pragma once
// NRTM-style journal batches: serial-numbered ADD/DEL operations carrying
// RPSL paragraphs, one batch per file.
//
// IRRd mirrors propagate IRR churn as NRTM streams — a monotonically
// serial-numbered sequence of ADD/DEL object operations per source. The
// delta pipeline consumes the same shape from journal files:
//
//   %START <first-serial>
//
//   ADD <serial> <SOURCE>
//
//   aut-num: AS64500
//   ...
//
//   DEL <serial> <SOURCE>
//
//   route: 192.0.2.0/24
//   origin: AS64500
//
//   %END <last-serial>
//
// Parsing is strict and atomic: a batch either parses completely or is
// refused with a reason, never partially. Refusals cover CRLF line endings,
// missing/mismatched %START/%END framing, truncation (EOF before %END),
// trailing content after %END, empty batches, non-increasing serials within
// a batch, and paragraphs that do not lex to exactly one clean RPSL object
// (interleaved garbage). Serial *gaps* between batches are legal — NRTM
// serials are sparse in the wild — and replayed serials (<= the consumer's
// last applied serial) are skipped idempotently at apply time, not here.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/util/arena.hpp"

namespace rpslyzer::delta {

/// One journal operation: add/replace or delete the object described by the
/// attached RPSL paragraph in the named source.
struct JournalOp {
  enum class Kind : std::uint8_t { kAdd, kDel };

  Kind kind = Kind::kAdd;
  std::uint64_t serial = 0;
  std::string source;     // IRR source name, e.g. "RADB"
  std::string paragraph;  // one RPSL object, '\n' endings, trailing '\n'

  friend bool operator==(const JournalOp&, const JournalOp&) = default;
};

/// One journal batch (one file): a contiguous run of operations framed by
/// %START/%END serials. Serials are strictly increasing within a batch.
struct JournalBatch {
  std::uint64_t first_serial = 0;
  std::uint64_t last_serial = 0;
  std::vector<JournalOp> ops;

  friend bool operator==(const JournalBatch&, const JournalBatch&) = default;
};

/// Parse one journal file's text. Returns nullopt and fills *error (when
/// given) on any malformation; a returned batch is complete and every
/// paragraph lexes to exactly one clean RPSL object.
std::optional<JournalBatch> parse_journal(std::string_view text,
                                          std::string* error = nullptr);

/// The one object a journal paragraph lexes to, with views into `paragraph`
/// and `arena`. Anything else (more or fewer objects, or lexer diagnostics)
/// is interleaved garbage: nullopt, and *error (when given) says why.
std::optional<rpsl::RawObjectView> lex_paragraph(std::string_view paragraph,
                                                 std::string_view source, util::Arena& arena,
                                                 std::string* error = nullptr);

/// Render a batch back to canonical journal text. parse_journal() of the
/// result reproduces the batch exactly (paragraphs are normalized to end in
/// one '\n').
std::string render_journal(const JournalBatch& batch);

/// Canonical file name for a batch: "batch-%09<first-serial>.nrtm". Zero
/// padding makes lexicographic directory order equal serial order.
std::string journal_file_name(std::uint64_t first_serial);

/// All "*.nrtm" files in `dir`, sorted by file name (= serial order for
/// canonically named files). Missing directory yields an empty list.
std::vector<std::filesystem::path> list_journal_files(const std::filesystem::path& dir);

}  // namespace rpslyzer::delta
