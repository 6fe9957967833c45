#include "rpslyzer/repl/protocol.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "rpslyzer/util/rand.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::repl {

std::chrono::milliseconds heartbeat_interval(std::chrono::milliseconds base,
                                             std::uint64_t seed,
                                             std::uint64_t tick) noexcept {
  if (base.count() <= 0) base = std::chrono::milliseconds(1);
  // The seed perturbation ("repl.bea") decorrelates heartbeat jitter from
  // the reconnect ladder (util::kReconnectStream) under the same base seed.
  const std::uint64_t z = util::splitmix64_at(seed ^ 0x7265706c2e626561ULL, tick);
  // [0.80, 1.20]·base, never below 1ms.
  const std::uint64_t b = static_cast<std::uint64_t>(base.count());
  const std::uint64_t jittered = b * (800 + z % 401) / 1000;
  return std::chrono::milliseconds(std::max<std::uint64_t>(jittered, 1));
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

std::optional<std::uint64_t> parse_hex64(std::string_view text) noexcept {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

std::string render_info(const GenerationInfo& info) {
  std::string out;
  out.reserve(160);
  out += "gen: " + std::to_string(info.gen) + "\n";
  out += "build-id: " + std::to_string(info.build_id) + "\n";
  out += "checksum: " + hex64(info.checksum) + "\n";
  out += "digest: " + hex64(info.digest) + "\n";
  out += "size: " + std::to_string(info.size) + "\n";
  out += "chunk-bytes: " + std::to_string(info.chunk_bytes) + "\n";
  return out;
}

std::optional<GenerationInfo> parse_info(std::string_view payload) {
  GenerationInfo info;
  // Bitmask of the six required fields; a duplicate key or any parse
  // failure aborts — a garbled announcement must never start a transfer.
  unsigned seen = 0;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t colon = line.find(": ");
    if (colon == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, colon);
    const std::string_view value = line.substr(colon + 2);
    std::optional<std::uint64_t> parsed;
    unsigned bit = 0;
    if (key == "gen") {
      bit = 1u << 0;
      parsed = util::parse_u64(value);
      if (parsed) info.gen = *parsed;
    } else if (key == "build-id") {
      bit = 1u << 1;
      parsed = util::parse_u64(value);
      if (parsed) info.build_id = *parsed;
    } else if (key == "checksum") {
      bit = 1u << 2;
      parsed = parse_hex64(value);
      if (parsed) info.checksum = *parsed;
    } else if (key == "digest") {
      bit = 1u << 3;
      parsed = parse_hex64(value);
      if (parsed) info.digest = *parsed;
    } else if (key == "size") {
      bit = 1u << 4;
      parsed = util::parse_u64(value);
      if (parsed) info.size = *parsed;
    } else if (key == "chunk-bytes") {
      bit = 1u << 5;
      parsed = util::parse_u64(value);
      if (parsed) info.chunk_bytes = *parsed;
    } else {
      continue;  // unknown keys are forward-compatible noise
    }
    if (!parsed || (seen & bit) != 0) return std::nullopt;
    seen |= bit;
  }
  if (seen != 0x3f) return std::nullopt;
  if (info.gen == 0 || info.size == 0 || info.chunk_bytes == 0) return std::nullopt;
  return info;
}

std::string render_digest(const MetricDigest& digest) {
  std::string out;
  out.reserve(96 + digest.latency_buckets.size() * 8);
  out += "v1";
  out += ";qt=" + std::to_string(digest.queries_total);
  out += ";ch=" + std::to_string(digest.cache_hits);
  out += ";cm=" + std::to_string(digest.cache_misses);
  out += ";rd=" + std::to_string(digest.recorder_drops);
  out += ";hb=" + std::to_string(digest.heartbeat_ms);
  out += ";lc=" + std::to_string(digest.latency_count);
  out += ";ls=" + std::to_string(digest.latency_sum_micros);
  out += ";lb=";
  for (std::size_t i = 0; i < digest.latency_buckets.size(); ++i) {
    if (i != 0) out += ':';
    out += std::to_string(digest.latency_buckets[i]);
  }
  return out;
}

std::optional<MetricDigest> parse_digest(std::string_view token) {
  if (token.substr(0, 2) != "v1") return std::nullopt;
  if (token.size() > 2 && token[2] != ';') return std::nullopt;
  MetricDigest digest;
  unsigned seen = 0;
  std::size_t pos = token.size() > 2 ? 3 : token.size();
  while (pos < token.size()) {
    std::size_t sep = token.find(';', pos);
    if (sep == std::string_view::npos) sep = token.size();
    const std::string_view field = token.substr(pos, sep - pos);
    pos = sep + 1;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    std::uint64_t* slot = nullptr;
    unsigned bit = 0;
    if (key == "qt") {
      slot = &digest.queries_total;
      bit = 1u << 0;
    } else if (key == "ch") {
      slot = &digest.cache_hits;
      bit = 1u << 1;
    } else if (key == "cm") {
      slot = &digest.cache_misses;
      bit = 1u << 2;
    } else if (key == "rd") {
      slot = &digest.recorder_drops;
      bit = 1u << 3;
    } else if (key == "hb") {
      slot = &digest.heartbeat_ms;
      bit = 1u << 4;
    } else if (key == "lc") {
      slot = &digest.latency_count;
      bit = 1u << 5;
    } else if (key == "ls") {
      slot = &digest.latency_sum_micros;
      bit = 1u << 6;
    } else if (key == "lb") {
      bit = 1u << 7;
      if ((seen & bit) != 0) return std::nullopt;
      seen |= bit;
      std::size_t bpos = 0;
      while (bpos <= value.size() && !value.empty()) {
        std::size_t bsep = value.find(':', bpos);
        if (bsep == std::string_view::npos) bsep = value.size();
        const auto count = util::parse_u64(value.substr(bpos, bsep - bpos));
        if (!count) return std::nullopt;
        digest.latency_buckets.push_back(*count);
        bpos = bsep + 1;
        if (bsep == value.size()) break;
      }
      continue;
    } else {
      continue;  // unknown keys are forward-compatible noise
    }
    if ((seen & bit) != 0) return std::nullopt;  // duplicate key
    const auto parsed = util::parse_u64(value);
    if (!parsed) return std::nullopt;
    *slot = *parsed;
    seen |= bit;
  }
  // Every numeric field is required; `lb` may be absent (an edge whose
  // histogram layout the origin cannot merge may omit the buckets).
  if ((seen & 0x7f) != 0x7f) return std::nullopt;
  return digest;
}

}  // namespace rpslyzer::repl
