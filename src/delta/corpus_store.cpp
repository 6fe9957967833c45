#include "rpslyzer/delta/corpus_store.hpp"

#include <variant>

#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::delta {

namespace {

/// Canonical paragraph rendering: one "name: value" line per attribute, in
/// declaration order, comments already stripped and continuations already
/// joined by the lexer. Re-lexing the rendering reproduces the same
/// RawObject (up to line numbers), which is what makes the store's dump
/// rendering parse-equivalent to the original text.
std::string render_paragraph(const rpsl::RawObject& raw) {
  std::string out;
  for (const rpsl::RawAttribute& attr : raw.attributes) {
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

struct Classified {
  ObjectClass cls = ObjectClass::kOther;
  std::string identity;
  ir::Asn asn = 0;
  std::string name;
  std::pair<net::Prefix, ir::Asn> route_key{};
};

Classified classify(const rpsl::ParsedObject& object, const rpsl::RawObject& raw) {
  Classified c;
  if (const auto* an = std::get_if<ir::AutNum>(&object)) {
    c.cls = ObjectClass::kAutNum;
    c.asn = an->asn;
    c.identity = "aut-num:AS" + std::to_string(an->asn);
  } else if (const auto* as = std::get_if<ir::AsSet>(&object)) {
    c.cls = ObjectClass::kAsSet;
    c.name = ir::to_string(as->name);
    c.identity = "as-set:" + c.name;
  } else if (const auto* rs = std::get_if<ir::RouteSet>(&object)) {
    c.cls = ObjectClass::kRouteSet;
    c.name = ir::to_string(rs->name);
    c.identity = "route-set:" + c.name;
  } else if (const auto* ps = std::get_if<ir::PeeringSet>(&object)) {
    c.cls = ObjectClass::kPeeringSet;
    c.name = ir::to_string(ps->name);
    c.identity = "peering-set:" + c.name;
  } else if (const auto* fs = std::get_if<ir::FilterSet>(&object)) {
    c.cls = ObjectClass::kFilterSet;
    c.name = ir::to_string(fs->name);
    c.identity = "filter-set:" + c.name;
  } else if (const auto* route = std::get_if<ir::RouteObject>(&object)) {
    c.cls = ObjectClass::kRoute;
    c.route_key = {route->prefix, route->origin};
    c.identity =
        "route:" + route->prefix.to_string() + ":AS" + std::to_string(route->origin);
  } else {
    // Unmodeled class, or a modeled class whose key failed to parse — the
    // loader would skip it too; it survives only in the text store.
    c.cls = ObjectClass::kOther;
    c.identity = raw.class_name + ":" + raw.key;
  }
  return c;
}

/// Copy every object of `from` whose key `into` does not hold yet.
template <typename Map>
void insert_absent(Map& into, const Map& from) {
  for (const auto& [key, object] : from) into.try_emplace(key, object);
}

/// The object `key` resolves to in a keyed map, or null.
template <typename Map, typename Key>
const typename Map::mapped_type* find_in(const Map& map, const Key& key) {
  const auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

template <typename Map, typename Key>
void CorpusStore::refresh(Map SourceState::*objects, const Key& key) {
  // Re-insert rather than assign: a name key then takes the winning
  // source's spelling, as merging the sources from scratch would.
  Map& merged = merged_.*objects;
  merged.erase(key);
  for (const SourceState& src : sources_) {
    const Map& from = src.*objects;
    if (const auto it = from.find(key); it != from.end()) {
      merged.emplace(it->first, it->second);
      return;
    }
  }
}

void CorpusStore::refresh_merged(const PreparedOp& op) {
  switch (op.cls) {
    case ObjectClass::kAutNum:
      refresh(&SourceState::aut_nums, op.asn);
      break;
    case ObjectClass::kAsSet:
      refresh(&SourceState::as_sets, op.name);
      break;
    case ObjectClass::kRouteSet:
      refresh(&SourceState::route_sets, op.name);
      break;
    case ObjectClass::kPeeringSet:
      refresh(&SourceState::peering_sets, op.name);
      break;
    case ObjectClass::kFilterSet:
      refresh(&SourceState::filter_sets, op.name);
      break;
    case ObjectClass::kRoute:
      refresh(&SourceState::routes, op.route_key);
      break;
    case ObjectClass::kOther:
      break;
  }
}

void CorpusStore::init(const std::vector<std::pair<std::string, std::string>>& dumps) {
  sources_.clear();
  sources_.reserve(dumps.size());
  for (const auto& [name, text] : dumps) {
    SourceState src;
    src.name = name;
    util::Diagnostics diags;
    for (const rpsl::RawObject& raw : rpsl::lex_objects(text, name, diags)) {
      util::Diagnostics object_diags;
      rpsl::ParsedObject object = rpsl::parse_object(raw, object_diags);
      Classified c = classify(object, raw);
      if (src.texts.contains(c.identity)) continue;  // first definition wins
      PreparedOp op;
      op.kind = JournalOp::Kind::kAdd;
      op.source_index = sources_.size();
      op.cls = c.cls;
      op.identity = std::move(c.identity);
      op.text = render_paragraph(raw);
      op.object = std::move(object);
      op.asn = c.asn;
      op.name = std::move(c.name);
      op.route_key = c.route_key;
      store_object(src, op);
    }
    sources_.push_back(std::move(src));
  }
  // The first (highest-priority) definition of each key wins, as in
  // irr::merge_into. Later mutations refresh one key at a time.
  merged_ = {};
  for (const SourceState& src : sources_) {
    insert_absent(merged_.aut_nums, src.aut_nums);
    insert_absent(merged_.as_sets, src.as_sets);
    insert_absent(merged_.route_sets, src.route_sets);
    insert_absent(merged_.peering_sets, src.peering_sets);
    insert_absent(merged_.filter_sets, src.filter_sets);
    insert_absent(merged_.routes, src.routes);
  }
}

std::optional<std::size_t> CorpusStore::source_index(std::string_view name) const {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (util::iequals(sources_[i].name, name)) return i;
  }
  return std::nullopt;
}

std::optional<std::vector<PreparedOp>> CorpusStore::prepare(const JournalBatch& batch,
                                                            std::uint64_t applied_serial,
                                                            std::size_t* skipped,
                                                            std::string* error) const {
  if (skipped != nullptr) *skipped = 0;
  std::vector<PreparedOp> out;
  out.reserve(batch.ops.size());
  for (const JournalOp& jop : batch.ops) {
    if (jop.serial <= applied_serial) {
      if (skipped != nullptr) ++*skipped;  // idempotent replay
      continue;
    }
    const auto idx = source_index(jop.source);
    if (!idx.has_value()) {
      if (error != nullptr) {
        *error = "op serial " + std::to_string(jop.serial) + ": unknown source \"" +
                 jop.source + "\"";
      }
      return std::nullopt;
    }
    util::Diagnostics lex_diags;
    const auto raws =
        rpsl::lex_objects(jop.paragraph, sources_[*idx].name, lex_diags);
    if (raws.size() != 1 || !lex_diags.empty()) {
      if (error != nullptr) {
        *error = "op serial " + std::to_string(jop.serial) + ": unusable paragraph";
      }
      return std::nullopt;
    }
    // Parse diagnostics are tolerated exactly like the loader tolerates
    // them: a recoverable problem still yields an object; a fatal one
    // classifies as kOther (text only).
    util::Diagnostics parse_diags;
    rpsl::ParsedObject object = rpsl::parse_object(raws[0], parse_diags);
    Classified c = classify(object, raws[0]);
    PreparedOp op;
    op.kind = jop.kind;
    op.serial = jop.serial;
    op.source_index = *idx;
    op.cls = c.cls;
    op.identity = std::move(c.identity);
    op.asn = c.asn;
    op.name = std::move(c.name);
    op.route_key = c.route_key;
    if (jop.kind == JournalOp::Kind::kAdd) {
      op.text = render_paragraph(raws[0]);
      op.object = std::move(object);
    }
    out.push_back(std::move(op));
  }
  return out;
}

void CorpusStore::store_object(SourceState& src, const PreparedOp& op) {
  src.texts.insert_or_assign(op.identity, op.text);
  switch (op.cls) {
    case ObjectClass::kAutNum:
      src.aut_nums.insert_or_assign(op.asn, std::get<ir::AutNum>(op.object));
      break;
    case ObjectClass::kAsSet:
      src.as_sets.insert_or_assign(op.name, std::get<ir::AsSet>(op.object));
      break;
    case ObjectClass::kRouteSet:
      src.route_sets.insert_or_assign(op.name, std::get<ir::RouteSet>(op.object));
      break;
    case ObjectClass::kPeeringSet:
      src.peering_sets.insert_or_assign(op.name, std::get<ir::PeeringSet>(op.object));
      break;
    case ObjectClass::kFilterSet:
      src.filter_sets.insert_or_assign(op.name, std::get<ir::FilterSet>(op.object));
      break;
    case ObjectClass::kRoute:
      src.routes.insert_or_assign(op.route_key, std::get<ir::RouteObject>(op.object));
      break;
    case ObjectClass::kOther:
      break;
  }
}

void CorpusStore::erase_object(SourceState& src, const PreparedOp& op) {
  src.texts.erase(op.identity);
  switch (op.cls) {
    case ObjectClass::kAutNum:
      src.aut_nums.erase(op.asn);
      break;
    case ObjectClass::kAsSet:
      src.as_sets.erase(op.name);
      break;
    case ObjectClass::kRouteSet:
      src.route_sets.erase(op.name);
      break;
    case ObjectClass::kPeeringSet:
      src.peering_sets.erase(op.name);
      break;
    case ObjectClass::kFilterSet:
      src.filter_sets.erase(op.name);
      break;
    case ObjectClass::kRoute:
      src.routes.erase(op.route_key);
      break;
    case ObjectClass::kOther:
      break;
  }
}

CorpusStore::UndoLog CorpusStore::apply(const std::vector<PreparedOp>& ops) {
  UndoLog undo;
  undo.reserve(ops.size());
  for (const PreparedOp& op : ops) {
    SourceState& src = sources_[op.source_index];
    UndoEntry entry;
    entry.source_index = op.source_index;
    entry.cls = op.cls;
    entry.identity = op.identity;
    entry.asn = op.asn;
    entry.name = op.name;
    entry.route_key = op.route_key;
    if (const auto it = src.texts.find(op.identity); it != src.texts.end()) {
      entry.old_text = it->second;
      switch (op.cls) {
        case ObjectClass::kAutNum:
          entry.old_object = src.aut_nums.at(op.asn);
          break;
        case ObjectClass::kAsSet:
          entry.old_object = src.as_sets.at(op.name);
          break;
        case ObjectClass::kRouteSet:
          entry.old_object = src.route_sets.at(op.name);
          break;
        case ObjectClass::kPeeringSet:
          entry.old_object = src.peering_sets.at(op.name);
          break;
        case ObjectClass::kFilterSet:
          entry.old_object = src.filter_sets.at(op.name);
          break;
        case ObjectClass::kRoute:
          entry.old_object = src.routes.at(op.route_key);
          break;
        case ObjectClass::kOther:
          break;
      }
    }
    undo.push_back(std::move(entry));
    if (op.kind == JournalOp::Kind::kAdd) {
      store_object(src, op);
    } else {
      erase_object(src, op);  // DEL of an absent identity is a clean no-op
    }
    refresh_merged(op);
  }
  return undo;
}

void CorpusStore::revert(UndoLog&& undo) {
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    UndoEntry& entry = *it;
    SourceState& src = sources_[entry.source_index];
    PreparedOp op;
    op.source_index = entry.source_index;
    op.cls = entry.cls;
    op.identity = std::move(entry.identity);
    op.asn = entry.asn;
    op.name = std::move(entry.name);
    op.route_key = entry.route_key;
    if (!entry.old_text.has_value()) {
      erase_object(src, op);
    } else {
      op.text = std::move(*entry.old_text);
      op.object = std::move(entry.old_object);
      store_object(src, op);
    }
    refresh_merged(op);
  }
  undo.clear();
}

const ir::AutNum* CorpusStore::merged_aut_num(ir::Asn asn) const {
  return find_in(merged_.aut_nums, asn);
}

const ir::AsSet* CorpusStore::merged_as_set(std::string_view name) const {
  return find_in(merged_.as_sets, std::string(name));
}

const ir::RouteSet* CorpusStore::merged_route_set(std::string_view name) const {
  return find_in(merged_.route_sets, std::string(name));
}

const ir::PeeringSet* CorpusStore::merged_peering_set(std::string_view name) const {
  return find_in(merged_.peering_sets, std::string(name));
}

const ir::FilterSet* CorpusStore::merged_filter_set(std::string_view name) const {
  return find_in(merged_.filter_sets, std::string(name));
}

const ir::RouteObject* CorpusStore::merged_route(
    const std::pair<net::Prefix, ir::Asn>& key) const {
  return find_in(merged_.routes, key);
}

ir::Ir CorpusStore::materialize() const {
  ir::Ir out;
  out.aut_nums = merged_.aut_nums;
  out.as_sets = merged_.as_sets;
  out.route_sets = merged_.route_sets;
  out.peering_sets = merged_.peering_sets;
  out.filter_sets = merged_.filter_sets;
  out.routes.reserve(merged_.routes.size());
  for (const auto& [key, route] : merged_.routes) out.routes.push_back(route);
  return out;
}

std::vector<std::pair<std::string, std::string>> CorpusStore::source_texts() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(sources_.size());
  for (const SourceState& src : sources_) {
    std::string text;
    for (const auto& [identity, paragraph] : src.texts) {
      text += paragraph;
      text += '\n';
    }
    out.emplace_back(src.name, std::move(text));
  }
  return out;
}

std::size_t CorpusStore::object_count() const noexcept {
  std::size_t total = 0;
  for (const SourceState& src : sources_) total += src.texts.size();
  return total;
}

}  // namespace rpslyzer::delta
