#pragma once
// Interpretation of raw RPSL objects into the typed IR (§3: "For each object
// type, it decomposes all routing-related attributes ... into interpretable
// representations").

#include <optional>
#include <variant>

#include "rpslyzer/ir/objects.hpp"
#include "rpslyzer/rpsl/expr_parser.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"

namespace rpslyzer::rpsl {

/// The result of interpreting one raw object. monostate = a class we do not
/// model (person, mntner, inetnum, ...), which is not an error.
using ParsedObject = std::variant<std::monostate, ir::AutNum, ir::AsSet, ir::RouteSet,
                                  ir::PeeringSet, ir::FilterSet, ir::RouteObject>;

/// Interpret one raw object; diagnostics are recorded for recoverable
/// problems (bad members, bad rules) and fatal ones (unparseable key).
/// The view overload is the hot path (no owning copies on the way in);
/// the RawObject overload adapts owning objects for callers that keep raw
/// paragraphs alive (tests).
ParsedObject parse_object(const RawObjectView& raw, util::Diagnostics& diagnostics);
ParsedObject parse_object(const RawObject& raw, util::Diagnostics& diagnostics);

/// Parse one import/export attribute value into a Rule. Exposed for tests
/// and tools that process rules outside full objects.
ir::Rule parse_rule(std::string_view text, ir::Rule::Direction direction, bool mp,
                    const ParseContext& ctx);

}  // namespace rpslyzer::rpsl
