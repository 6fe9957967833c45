#include "rpslyzer/delta/journal.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::delta {

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool is_blank(std::string_view line) {
  return line.find_first_not_of(" \t") == std::string_view::npos;
}

std::optional<std::uint64_t> parse_serial(std::string_view token) {
  if (token.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) return std::nullopt;
  return value;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// "ADD <serial> <SOURCE>" / "DEL <serial> <SOURCE>" — exactly three
/// whitespace-separated tokens, or nullopt.
std::optional<JournalOp> parse_op_header(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t start = line.find_first_not_of(" \t", pos);
    if (start == std::string_view::npos) break;
    std::size_t end = line.find_first_of(" \t", start);
    if (end == std::string_view::npos) end = line.size();
    tokens.push_back(line.substr(start, end - start));
    pos = end;
  }
  if (tokens.size() != 3) return std::nullopt;
  JournalOp op;
  if (tokens[0] == "ADD") {
    op.kind = JournalOp::Kind::kAdd;
  } else if (tokens[0] == "DEL") {
    op.kind = JournalOp::Kind::kDel;
  } else {
    return std::nullopt;
  }
  const auto serial = parse_serial(tokens[1]);
  if (!serial.has_value()) return std::nullopt;
  op.serial = *serial;
  op.source = std::string(tokens[2]);
  return op;
}

}  // namespace

std::optional<rpsl::RawObjectView> lex_paragraph(std::string_view paragraph,
                                                 std::string_view source, util::Arena& arena,
                                                 std::string* error) {
  util::Diagnostics diags;
  const auto objects = rpsl::lex_objects_view(paragraph, source, diags, arena);
  if (objects.size() != 1) {
    fail(error, "paragraph lexes to " + std::to_string(objects.size()) + " objects, expected 1");
    return std::nullopt;
  }
  if (!diags.empty()) {
    fail(error, "malformed paragraph: " + diags.all().front().message);
    return std::nullopt;
  }
  return objects.front();
}

std::optional<JournalBatch> parse_journal(std::string_view text, std::string* error) {
  if (text.find('\r') != std::string_view::npos) {
    fail(error, "CRLF line endings are not valid journal text");
    return std::nullopt;
  }
  const std::vector<std::string_view> lines = split_lines(text);

  std::size_t i = 0;
  while (i < lines.size() && is_blank(lines[i])) ++i;
  if (i >= lines.size() || !lines[i].starts_with("%START ")) {
    fail(error, "missing %START header");
    return std::nullopt;
  }
  const auto start_serial = parse_serial(util::trim(lines[i].substr(7)));
  if (!start_serial.has_value()) {
    fail(error, "unparseable %START serial");
    return std::nullopt;
  }
  ++i;

  JournalBatch batch;
  batch.first_serial = *start_serial;
  util::Arena arena;  // lexer spills of every paragraph, freed with the batch parse
  std::optional<std::uint64_t> end_serial;

  while (i < lines.size()) {
    if (is_blank(lines[i])) {
      ++i;
      continue;
    }
    if (lines[i].starts_with("%END")) {
      const auto serial = parse_serial(util::trim(lines[i].substr(4)));
      if (!serial.has_value()) {
        fail(error, "unparseable %END serial");
        return std::nullopt;
      }
      end_serial = *serial;
      ++i;
      break;
    }
    auto op = parse_op_header(lines[i]);
    if (!op.has_value()) {
      fail(error, "expected ADD/DEL header or %END, got \"" + std::string(lines[i]) + "\"");
      return std::nullopt;
    }
    if (!batch.ops.empty() && op->serial <= batch.ops.back().serial) {
      fail(error, "serial " + std::to_string(op->serial) +
                      " does not increase over previous op serial " +
                      std::to_string(batch.ops.back().serial));
      return std::nullopt;
    }
    ++i;
    while (i < lines.size() && is_blank(lines[i])) ++i;
    std::string paragraph;
    while (i < lines.size() && !is_blank(lines[i])) {
      paragraph += lines[i];
      paragraph += '\n';
      ++i;
    }
    if (paragraph.empty()) {
      fail(error, "op serial " + std::to_string(op->serial) + " has no paragraph");
      return std::nullopt;
    }
    std::string problem;
    if (!lex_paragraph(paragraph, "journal", arena, &problem)) {
      fail(error, "op serial " + std::to_string(op->serial) + ": " + problem);
      return std::nullopt;
    }
    op->paragraph = std::move(paragraph);
    batch.ops.push_back(std::move(*op));
  }

  if (!end_serial.has_value()) {
    fail(error, "truncated journal: missing %END");
    return std::nullopt;
  }
  for (; i < lines.size(); ++i) {
    if (!is_blank(lines[i])) {
      fail(error, "trailing content after %END");
      return std::nullopt;
    }
  }
  if (batch.ops.empty()) {
    fail(error, "empty batch");
    return std::nullopt;
  }
  if (batch.ops.front().serial != batch.first_serial) {
    fail(error, "%START serial does not match first op serial");
    return std::nullopt;
  }
  batch.last_serial = batch.ops.back().serial;
  if (*end_serial != batch.last_serial) {
    fail(error, "%END serial does not match last op serial");
    return std::nullopt;
  }
  return batch;
}

std::string render_journal(const JournalBatch& batch) {
  std::string out;
  out += "%START " + std::to_string(batch.first_serial) + "\n\n";
  for (const JournalOp& op : batch.ops) {
    out += op.kind == JournalOp::Kind::kAdd ? "ADD " : "DEL ";
    out += std::to_string(op.serial);
    out += ' ';
    out += op.source;
    out += "\n\n";
    out += op.paragraph;
    if (!op.paragraph.ends_with('\n')) out += '\n';
    out += '\n';
  }
  out += "%END " + std::to_string(batch.last_serial) + "\n";
  return out;
}

std::string journal_file_name(std::uint64_t first_serial) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "batch-%09llu.nrtm",
                static_cast<unsigned long long>(first_serial));
  return buffer;
}

std::vector<std::filesystem::path> list_journal_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() == ".nrtm") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.filename() < b.filename(); });
  return files;
}

}  // namespace rpslyzer::delta
