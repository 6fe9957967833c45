#include "rpslyzer/delta/corpus_store.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <malloc.h>
#include <variant>

#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/util/pool.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::delta {

namespace {

/// A merged key as it reads in an identity.
std::string key_text(ir::Asn asn) { return "AS" + std::to_string(asn); }
const std::string& key_text(const std::string& name) { return name; }
std::string key_text(const std::pair<net::Prefix, ir::Asn>& key) {
  return key.first.to_string() + ":" + key_text(key.second);
}

bool modeled(const rpsl::ParsedObject& object) {
  return !std::holds_alternative<std::monostate>(object);
}

/// A stored object's parsed value: on the heap when modeled, so that the
/// table entry of an unmodeled object costs one null pointer over its text.
std::unique_ptr<rpsl::ParsedObject> boxed(rpsl::ParsedObject object) {
  return modeled(object) ? std::make_unique<rpsl::ParsedObject>(std::move(object)) : nullptr;
}

/// The object `key` resolves to in a keyed map, or null.
template <typename Map, typename Key>
const typename Map::mapped_type* find_in(const Map& map, const Key& key) {
  const auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

template <typename Fn>
void CorpusStore::visit_slot(const rpsl::ParsedObject& object, Fn&& fn) {
  std::visit(
      util::overloaded{
          [](std::monostate) {},
          [&](const ir::AutNum& an) { fn(&MergedMaps::aut_nums, "aut-num", an.asn, an); },
          [&](const ir::AsSet& set) {
            fn(&MergedMaps::as_sets, "as-set", ir::to_string(set.name), set);
          },
          [&](const ir::RouteSet& set) {
            fn(&MergedMaps::route_sets, "route-set", ir::to_string(set.name), set);
          },
          [&](const ir::PeeringSet& set) {
            fn(&MergedMaps::peering_sets, "peering-set", ir::to_string(set.name), set);
          },
          [&](const ir::FilterSet& set) {
            fn(&MergedMaps::filter_sets, "filter-set", ir::to_string(set.name), set);
          },
          [&](const ir::RouteObject& route) {
            fn(&MergedMaps::routes, "route", std::pair{route.prefix, route.origin}, route);
          },
      },
      object);
}

std::string CorpusStore::identity_of(const rpsl::ParsedObject& object,
                                     const rpsl::RawObjectView& raw) {
  std::string identity;
  visit_slot(object, [&](auto, std::string_view class_name, const auto& key, const auto&) {
    identity = std::string(class_name) + ":" + key_text(key);
  });
  // Unmodeled class, or a modeled class whose key failed to parse — the
  // loader would skip it too; it survives only as text.
  if (identity.empty()) identity = std::string(raw.class_name) + ":" + std::string(raw.key);
  return identity;
}

void CorpusStore::refresh(const std::string& identity, const rpsl::ParsedObject& keyed) {
  // Re-insert rather than assign: a name key then takes the winning
  // source's spelling, as merging the sources from scratch would.
  visit_slot(keyed, [&](auto slot, std::string_view, const auto& key, const auto&) {
    (merged_.*slot).erase(key);
  });
  for (const SourceState& src : sources_) {
    const auto it = src.objects.find(identity);
    if (it == src.objects.end() || it->second.object == nullptr) continue;
    visit_slot(*it->second.object,
               [&](auto slot, std::string_view, const auto& key, const auto& value) {
                 (merged_.*slot).emplace(key, value);
               });
    return;
  }
}

void CorpusStore::init(const std::vector<std::pair<std::string, std::string>>& dumps) {
  // Pool workers allocate in malloc arenas of their own, which the calling
  // thread never allocates from, and a new pool need not land on the
  // arenas where an earlier store freed its objects. So hand every arena's
  // free pages back before the load, and after it (the workers' scratch).
  // At pipebench scale 4 a pipeline built after another was destroyed
  // peaked 10-18 MB higher without the first trim, and a first pipeline
  // 6 MB higher without the second.
  malloc_trim(0);

  // Cut every dump as the loader does; shard s belongs to dump owner[s].
  std::vector<rpsl::Shard> shards;
  std::vector<std::size_t> owner;
  for (std::size_t d = 0; d < dumps.size(); ++d) {
    for (const rpsl::Shard& shard :
         rpsl::shard_objects(dumps[d].second, irr::LoadOptions{}.shard_target_bytes)) {
      shards.push_back(shard);
      owner.push_back(d);
    }
  }

  // Lex, parse, identify and render every shard on the pool, each into a
  // table of its own; diagnostics are discarded. Its nodes move into the
  // source's table below, so what a worker allocates is what the store keeps.
  std::vector<ir::NameMap<StoredObject>> parts(shards.size());
  std::vector<std::exception_ptr> errors(shards.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t) {
    for (std::size_t s = next++; s < shards.size(); s = next++) {
      try {
        util::Arena arena;
        util::Diagnostics lex_diags;
        for (const rpsl::RawObjectView& raw :
             rpsl::lex_objects_view(shards[s].text, dumps[owner[s]].first, lex_diags, arena,
                                    shards[s].line_offset)) {
          util::Diagnostics object_diags;
          rpsl::ParsedObject object = rpsl::parse_object(raw, object_diags);
          std::string identity = identity_of(object, raw);
          parts[s].try_emplace(std::move(identity),  // first definition wins
                               StoredObject{rpsl::render_paragraph(raw), boxed(std::move(object))});
        }
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
  };
  util::run_on_pool(std::min<std::size_t>(util::resolve_threads(0), shards.size()), work);

  sources_.clear();
  sources_.resize(dumps.size());
  for (std::size_t d = 0; d < dumps.size(); ++d) sources_[d].name = dumps[d].first;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (errors[s]) std::rethrow_exception(errors[s]);
    sources_[owner[s]].objects.merge(parts[s]);  // keeps an earlier shard's definition
  }
  malloc_trim(0);  // the workers' scratch: lexer arenas, view vectors, parse temporaries
  // The first (highest-priority) definition of each key wins, as in
  // irr::merge_into. Later mutations refresh one key at a time.
  merged_ = {};
  for (const SourceState& src : sources_) {
    for (const auto& [identity, stored] : src.objects) {
      if (stored.object == nullptr) continue;
      visit_slot(*stored.object,
                 [&](auto slot, std::string_view, const auto& key, const auto& value) {
                   (merged_.*slot).try_emplace(key, value);
                 });
    }
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
    util::Arena arena;
    const auto raw = lex_paragraph(jop.paragraph, sources_[*idx].name, arena);
    if (!raw.has_value()) {
      if (error != nullptr) {
        *error = "op serial " + std::to_string(jop.serial) + ": unusable paragraph";
      }
      return std::nullopt;
    }
    // Parse diagnostics are tolerated exactly like the loader tolerates
    // them: a recoverable problem still yields an object; a fatal one
    // leaves monostate (text only).
    util::Diagnostics parse_diags;
    PreparedOp op;
    op.kind = jop.kind;
    op.serial = jop.serial;
    op.source_index = *idx;
    op.object = rpsl::parse_object(*raw, parse_diags);
    op.identity = identity_of(op.object, *raw);
    if (jop.kind == JournalOp::Kind::kAdd) op.text = rpsl::render_paragraph(*raw);
    out.push_back(std::move(op));
  }
  return out;
}

PreparedOp CorpusStore::exchange(PreparedOp op) {
  ir::NameMap<StoredObject>& objects = sources_[op.source_index].objects;
  PreparedOp inverse{JournalOp::Kind::kDel, op.serial, op.source_index, op.identity, {}, {}};
  auto it = objects.find(op.identity);
  if (it != objects.end()) {
    inverse.kind = JournalOp::Kind::kAdd;
    inverse.text = std::move(it->second.text);
    if (it->second.object != nullptr) inverse.object = std::move(*it->second.object);
  }
  if (op.kind == JournalOp::Kind::kDel) {
    if (it != objects.end()) objects.erase(it);  // DEL of an absent identity is a no-op
    refresh(op.identity, inverse.object);
    return inverse;
  }
  if (it == objects.end()) it = objects.try_emplace(op.identity).first;
  it->second.text = std::move(op.text);
  it->second.object = boxed(std::move(op.object));
  // The old and the new object name the same merged key when both are
  // modeled; either one alone names it.
  refresh(op.identity, it->second.object != nullptr ? *it->second.object : inverse.object);
  return inverse;
}

CorpusStore::UndoLog CorpusStore::apply(const std::vector<PreparedOp>& ops) {
  UndoLog undo;
  undo.reserve(ops.size());
  for (const PreparedOp& op : ops) undo.push_back(exchange(op));
  return undo;
}

void CorpusStore::revert(UndoLog&& undo) {
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) exchange(std::move(*it));
  undo.clear();
}

const ir::AutNum* CorpusStore::merged_aut_num(ir::Asn asn) const {
  return find_in(merged_.aut_nums, asn);
}

const ir::AsSet* CorpusStore::merged_as_set(std::string_view name) const {
  return find_in(merged_.as_sets, name);
}

const ir::RouteSet* CorpusStore::merged_route_set(std::string_view name) const {
  return find_in(merged_.route_sets, name);
}

const ir::PeeringSet* CorpusStore::merged_peering_set(std::string_view name) const {
  return find_in(merged_.peering_sets, name);
}

const ir::FilterSet* CorpusStore::merged_filter_set(std::string_view name) const {
  return find_in(merged_.filter_sets, name);
}

const ir::RouteObject* CorpusStore::merged_route(
    const std::pair<net::Prefix, ir::Asn>& key) const {
  return find_in(merged_.routes, key);
}

rpsl::ParsedObject CorpusStore::merged_object(const rpsl::ParsedObject& keyed) const {
  rpsl::ParsedObject out;
  visit_slot(keyed, [&](auto slot, std::string_view, const auto& key, const auto&) {
    if (const auto* found = find_in(merged_.*slot, key)) out = *found;
  });
  return out;
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
    for (const auto& [identity, stored] : src.objects) {
      text += stored.text;
      text += '\n';
    }
    out.emplace_back(src.name, std::move(text));
  }
  return out;
}

std::size_t CorpusStore::object_count() const noexcept {
  std::size_t total = 0;
  for (const SourceState& src : sources_) total += src.objects.size();
  return total;
}

}  // namespace rpslyzer::delta
