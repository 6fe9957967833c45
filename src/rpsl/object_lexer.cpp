#include "rpslyzer/rpsl/object_lexer.hpp"

#include <cstdint>
#include <cstring>

#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::rpsl {

namespace {

using util::trim;

/// Strip a '#' comment, respecting nothing else: RPSL has no string literals
/// in attribute values, so the first '#' always begins a comment.
std::string_view strip_comment(std::string_view line) noexcept {
  const std::size_t hash = line.find('#');
  return hash == std::string_view::npos ? line : line.substr(0, hash);
}

bool is_attribute_start(std::string_view line) noexcept {
  // An attribute line starts with a letter (or '*' for some legacy dumps)
  // and contains a colon.
  if (line.empty()) return false;
  const char c = line.front();
  return util::is_alpha(c) || c == '*';
}

/// Valid attribute names: letters, digits, '-', '_' (we also accept a legacy
/// leading '*').
bool valid_attribute_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  for (char c : name) {
    if (!util::is_alnum(c) && c != '-' && c != '_' && c != '*') return false;
  }
  return true;
}

/// Lowercase `name` without copying when it already is: dump attribute
/// names are overwhelmingly lowercase, so the common case stays a slice of
/// the dump buffer and only the exceptions spill into the arena.
std::string_view lower_view(std::string_view name, util::Arena& arena) {
  std::size_t i = 0;
  while (i < name.size() && !(name[i] >= 'A' && name[i] <= 'Z')) ++i;
  if (i == name.size()) return name;
  char* buf = arena.alloc_chars(name.size());
  std::memcpy(buf, name.data(), i);
  for (std::size_t j = i; j < name.size(); ++j) buf[j] = util::to_lower(name[j]);
  return {buf, name.size()};
}

/// Join `value` and a continuation fragment with one space, in the arena.
/// Continuations are rare enough that re-copying the accumulated value per
/// fragment beats reserving growth room for every attribute.
std::string_view join_continuation(std::string_view value, std::string_view cont,
                                   util::Arena& arena) {
  if (cont.empty()) return value;
  if (value.empty()) return cont;
  char* buf = arena.alloc_chars(value.size() + 1 + cont.size());
  std::memcpy(buf, value.data(), value.size());
  buf[value.size()] = ' ';
  std::memcpy(buf + value.size() + 1, cont.data(), cont.size());
  return {buf, value.size() + 1 + cont.size()};
}

/// Number of '\n' bytes in `text`. The fixed-size inner loop with a byte
/// counter (a block never holds more than 255 newlines) is the shape the
/// compiler vectorizes, which makes this several times faster than
/// std::count or a memchr loop.
std::size_t count_newlines(std::string_view text) noexcept {
  constexpr std::size_t kBlock = 240;
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + kBlock <= text.size(); i += kBlock) {
    std::uint8_t block = 0;
    for (std::size_t j = 0; j < kBlock; ++j) block += text[i + j] == '\n' ? 1 : 0;
    count += block;
  }
  for (; i < text.size(); ++i) count += text[i] == '\n' ? 1 : 0;
  return count;
}

}  // namespace

std::string_view RawObjectView::first(std::string_view name) const noexcept {
  for (const auto& attr : attributes) {
    if (attr.name == name) return attr.value;
  }
  return {};
}

std::vector<std::string_view> RawObjectView::all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& attr : attributes) {
    if (attr.name == name) out.push_back(attr.value);
  }
  return out;
}

std::string_view RawObject::first(std::string_view name) const noexcept {
  for (const auto& attr : attributes) {
    if (attr.name == name) return attr.value;
  }
  return {};
}

std::vector<std::string_view> RawObject::all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& attr : attributes) {
    if (attr.name == name) out.push_back(attr.value);
  }
  return out;
}

std::vector<RawObjectView> lex_objects_view(std::string_view text,
                                            std::string_view source,
                                            util::Diagnostics& diagnostics,
                                            util::Arena& arena,
                                            std::size_t line_offset) {
  std::vector<RawObjectView> objects;
  // Attributes of the object being lexed; copied into an arena span when
  // the object closes, so the scratch vector's capacity is reused for the
  // whole dump instead of allocated per object.
  std::vector<RawAttributeView> scratch;
  RawObjectView current;
  current.source = source;
  bool in_object = false;

  auto finish_object = [&] {
    if (in_object && !scratch.empty()) {
      auto* stored = arena.alloc_array<RawAttributeView>(scratch.size());
      std::memcpy(stored, scratch.data(), scratch.size() * sizeof(RawAttributeView));
      current.attributes = {stored, scratch.size()};
      current.class_name = stored[0].name;
      current.key = stored[0].value;
      objects.push_back(current);
    }
    current = RawObjectView{};
    current.source = source;
    scratch.clear();
    in_object = false;
  };

  std::size_t line_no = line_offset;
  std::size_t pos = 0;
  while (pos < text.size()) {
    // Extract one line (the final line may lack a trailing newline).
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    // Server remarks never terminate an object; they are interleaved noise.
    if (!line.empty() && line.front() == '%') continue;

    std::string_view content = strip_comment(line);
    if (trim(content).empty()) {
      // A blank (or comment-only) line ends the current object. Note an
      // all-comment line ('#...') also separates objects in practice.
      if (trim(line).empty()) {
        finish_object();
      }
      // A line that only held a comment keeps the object open.
      continue;
    }

    const char first_char = content.front();
    if (first_char == ' ' || first_char == '\t' || first_char == '+') {
      // Continuation of the previous attribute's value.
      std::string_view cont = content;
      if (first_char == '+') cont.remove_prefix(1);
      cont = trim(cont);
      if (!in_object || scratch.empty()) {
        diagnostics.error(util::DiagnosticKind::kSyntaxError,
                          "continuation line outside any attribute", {},
                          {std::string(source), line_no});
        continue;
      }
      if (!cont.empty()) {
        auto& value = scratch.back().value;
        value = join_continuation(value, cont, arena);
      }
      continue;
    }

    if (!is_attribute_start(content)) {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "line does not start an attribute: '" + std::string(trim(content)) + "'",
                        std::string{},  // matches the owning lexer: the key is
                        // only derived when the object closes
                        {std::string(source), line_no});
      continue;
    }

    const std::size_t colon = content.find(':');
    if (colon == std::string_view::npos) {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "attribute line missing ':': '" + std::string(trim(content)) + "'",
                        std::string{},
                        {std::string(source), line_no});
      continue;
    }

    std::string_view name = lower_view(trim(content.substr(0, colon)), arena);
    if (!valid_attribute_name(name)) {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "invalid attribute name: '" + std::string(name) + "'",
                        std::string{},
                        {std::string(source), line_no});
      continue;
    }

    if (!in_object) {
      in_object = true;
      current.line = line_no;
    }
    scratch.push_back({name, trim(content.substr(colon + 1)), line_no});
  }
  finish_object();
  return objects;
}

std::vector<RawObject> lex_objects(std::string_view text, std::string_view source,
                                   util::Diagnostics& diagnostics,
                                   std::size_t line_offset) {
  util::Arena arena;
  std::vector<RawObjectView> views =
      lex_objects_view(text, source, diagnostics, arena, line_offset);
  std::vector<RawObject> objects;
  objects.reserve(views.size());
  for (const RawObjectView& view : views) {
    RawObject object;
    object.class_name = std::string(view.class_name);
    object.key = std::string(view.key);
    object.source = std::string(view.source);
    object.line = view.line;
    object.attributes.reserve(view.attributes.size());
    for (const RawAttributeView& attr : view.attributes) {
      object.attributes.push_back(
          {std::string(attr.name), std::string(attr.value), attr.line});
    }
    objects.push_back(std::move(object));
  }
  return objects;
}

std::vector<Shard> shard_objects(std::string_view text, std::size_t target_bytes) {
  std::vector<Shard> shards;
  if (text.empty()) return shards;
  if (target_bytes == 0) target_bytes = 1;

  // A cut goes after the first blank line that ends at or past
  // shard_start + target_bytes and is not the last line. Every line ending
  // earlier is too short a shard, so the scan jumps to the line holding
  // byte shard_start + target_bytes - 1 (that line's '\n' is the first
  // eligible end) and walks forward from there to the next blank line.
  std::size_t shard_start = 0;       // byte offset of the current shard
  std::size_t shard_first_line = 0;  // lines before the current shard
  while (text.size() - shard_start > target_bytes) {
    const std::size_t last = shard_start + target_bytes - 1;
    std::size_t line = shard_start;
    if (last > shard_start) {
      const std::size_t newline = text.rfind('\n', last - 1);
      if (newline != std::string_view::npos && newline >= shard_start) line = newline + 1;
    }
    std::size_t cut = std::string_view::npos;
    while (line < text.size()) {
      const std::size_t eol = text.find('\n', line);
      if (eol == std::string_view::npos) break;  // the final line: never a cut
      // The lexer treats a line as an object separator iff it is empty after
      // trimming; trim's whitespace set includes '\r', so CRLF blank lines
      // and whitespace-only lines qualify here exactly as they do there.
      if (trim(text.substr(line, eol - line)).empty()) {
        cut = eol + 1;
        break;
      }
      line = eol + 1;
    }
    if (cut == std::string_view::npos || cut >= text.size()) break;
    const std::string_view shard = text.substr(shard_start, cut - shard_start);
    shards.push_back({shard, shard_first_line});
    shard_first_line += count_newlines(shard);
    shard_start = cut;
  }
  shards.push_back({text.substr(shard_start), shard_first_line});
  return shards;
}

}  // namespace rpslyzer::rpsl
