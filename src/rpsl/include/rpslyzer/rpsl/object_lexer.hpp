#pragma once
// The RPSL object lexer: splits whois-style IRR dump text into objects and
// attribute-value pairs (RFC 2622 §2 "RPSL is object oriented...").
//
// Handles:
//  * objects separated by blank lines;
//  * "attribute: value" lines; the first attribute names the object class;
//  * continuation lines starting with whitespace or '+' (an empty '+' line
//    continues with an empty line of text);
//  * '#' end-of-line comments;
//  * '%' full-line server remarks (RIPE-style dumps interleave them);
//  * line-number tracking for diagnostics.
//
// Two front ends share one core:
//  * lex_objects_view — the zero-copy hot path. Attribute names and values
//    are string_view slices into the caller's dump buffer; only the rare
//    cases that cannot be sliced (uppercase attribute names, continuation
//    joins) spill into the caller's Arena. Views are valid while (dump
//    buffer, arena) both outlive them — the loader keeps both alive per
//    shard until phase-B materialization is done.
//  * lex_objects — the owning convenience wrapper (std::string fields) for
//    callers that persist raw objects past the dump buffer (synth churn,
//    delta journal validation, tests).

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rpslyzer/util/arena.hpp"
#include "rpslyzer/util/diagnostics.hpp"

namespace rpslyzer::rpsl {

/// One attribute of a raw RPSL object, as slices. `value` has comments
/// stripped and continuation lines joined with single spaces.
struct RawAttributeView {
  std::string_view name;   // lowercased attribute name
  std::string_view value;  // joined, comment-stripped, trimmed value
  std::size_t line = 0;
};

/// One RPSL object as read from a dump, before interpretation; every view
/// points into the dump buffer or the lexing arena.
struct RawObjectView {
  std::string_view class_name;  // lowercased first attribute name
  std::string_view key;         // first attribute's value (the object's name)
  std::span<const RawAttributeView> attributes;
  std::string_view source;      // IRR name this object came from
  std::size_t line = 0;         // line of the first attribute

  /// First value of attribute `name` (lowercase), or empty view.
  std::string_view first(std::string_view name) const noexcept;
  /// All values of attribute `name` in order.
  std::vector<std::string_view> all(std::string_view name) const;
};

/// One attribute of a raw RPSL object, owning storage.
struct RawAttribute {
  std::string name;   // lowercased attribute name
  std::string value;  // joined, comment-stripped, trimmed value
  std::size_t line = 0;
};

/// One RPSL object with owning storage, for callers that keep raw objects
/// alive past the dump buffer.
struct RawObject {
  std::string class_name;  // lowercased first attribute name
  std::string key;         // first attribute's value (the object's name)
  std::vector<RawAttribute> attributes;
  std::string source;      // IRR name this object came from
  std::size_t line = 0;    // line of the first attribute

  /// First value of attribute `name` (lowercase), or empty view.
  std::string_view first(std::string_view name) const noexcept;
  /// All values of attribute `name` in order.
  std::vector<std::string_view> all(std::string_view name) const;
};

/// Split a full dump into raw objects without copying attribute bytes.
/// `source` labels diagnostics and the resulting objects. Malformed lines
/// (no colon before any attribute ends) raise diagnostics but do not abort
/// the dump. `line_offset` is added to every reported line number — shard
/// lexing passes the number of lines preceding the shard so diagnostics
/// and object positions match a lex of the whole text. The returned views
/// (and the objects' attribute spans) borrow `text` and `arena`.
std::vector<RawObjectView> lex_objects_view(std::string_view text,
                                            std::string_view source,
                                            util::Diagnostics& diagnostics,
                                            util::Arena& arena,
                                            std::size_t line_offset = 0);

/// Owning wrapper over lex_objects_view: identical object sequence and
/// diagnostics, with each object copied into std::string storage.
std::vector<RawObject> lex_objects(std::string_view text, std::string_view source,
                                   util::Diagnostics& diagnostics,
                                   std::size_t line_offset = 0);

/// Canonical paragraph rendering of a RawObject or RawObjectView: one
/// "name: value" line per attribute, in declaration order, comments already
/// stripped and continuations already joined by the lexer. Re-lexing the
/// rendering reproduces the same object (up to line numbers), so a dump
/// written this way parses like the text it was lexed from. The delta
/// store keeps its paragraphs in this form and churn journals emit it.
/// The result is sized exactly because the store keeps it: at pipebench
/// scale 4 it holds 152k paragraphs, whose append-growth slack was 15 MB.
template <typename Raw>
std::string render_paragraph(const Raw& raw) {
  std::size_t size = 0;
  for (const auto& attr : raw.attributes) size += attr.name.size() + attr.value.size() + 3;
  std::string out;
  out.reserve(size);
  for (const auto& attr : raw.attributes) {
    out += attr.name;
    out += ':';
    if (!attr.value.empty()) {
      out += ' ';
      out += attr.value;
    }
    out += '\n';
  }
  return out;
}

/// One parse shard: a slice of dump text that starts at an object boundary
/// plus the number of lines before it (feed to lex_objects' line_offset).
struct Shard {
  std::string_view text;
  std::size_t line_offset = 0;
};

/// Cut a dump into shards of roughly `target_bytes` each, splitting only
/// *after* a blank line — the one place the lexer's cross-line state
/// (current object, in-object flag) is provably empty. "Blank" matches the
/// lexer's separator rule exactly: the line is empty after trimming ASCII
/// whitespace, which covers CRLF endings and whitespace-only lines;
/// comment-only ('#') and server-remark ('%') lines keep an object open and
/// therefore never become boundaries. A single object larger than the
/// target simply yields an oversized shard; the final line needs no
/// trailing newline. Concatenating the shard texts reproduces `text`
/// byte-for-byte, and lexing each shard with its line_offset yields the
/// same object sequence and diagnostics as lexing `text` whole. Each cut
/// jumps `target_bytes` ahead and scans only to the next blank line, and
/// line offsets come from a vectorized newline count, so cutting costs
/// far less than a line-by-line pass over the dump.
std::vector<Shard> shard_objects(std::string_view text, std::size_t target_bytes);

}  // namespace rpslyzer::rpsl
