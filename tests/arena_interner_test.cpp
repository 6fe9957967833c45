// Property tests for the zero-copy memory primitives: the chunked bump
// Arena and the flat open-addressing SymbolTable (see DESIGN.md "Memory
// architecture"). The interner tests cover both modes, resize under load,
// canon semantics, and an injected degenerate hash that piles every key
// into one collision chain.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "rpslyzer/util/arena.hpp"
#include "rpslyzer/util/interner.hpp"
#include "rpslyzer/util/rand.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::util {
namespace {

// ---------------------------------------------------------------------------
// Arena

TEST(Arena, AlignmentIsHonored) {
  Arena arena;
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    // Offset the cursor by one byte first so alignment actually has to work.
    arena.alloc_chars(1);
    void* p = arena.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align=" << align;
  }
}

TEST(Arena, GrowsAcrossChunksAndKeepsOldAllocationsValid) {
  Arena arena(64);  // tiny first chunk to force growth quickly
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  for (int i = 0; i < 200; ++i) {
    std::string s(17, static_cast<char>('a' + (i % 26)));
    s += std::to_string(i);
    expected.push_back(s);
    views.push_back(arena.copy(s));
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], expected[i]);
  }
}

TEST(Arena, CopyOfEmptyStringIsEmptyWithoutAllocating) {
  Arena arena;
  const std::size_t before = arena.used_bytes();
  std::string_view v = arena.copy("");
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(arena.used_bytes(), before);
}

TEST(Arena, MoveTransfersOwnership) {
  Arena a(64);
  std::string_view kept = a.copy("survives the move");
  Arena b(std::move(a));
  EXPECT_EQ(kept, "survives the move");
  EXPECT_GT(b.used_bytes(), 0u);
  // The moved-from arena is hollow but usable.
  std::string_view fresh = a.copy("new life");
  EXPECT_EQ(fresh, "new life");

  Arena c(64);
  c = std::move(b);
  EXPECT_EQ(kept, "survives the move");  // views chase the chunks, not the Arena
  EXPECT_GT(c.used_bytes(), 0u);
}

TEST(Arena, ResetKeepsLargestChunkAndReusesIt) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) arena.copy("some moderately long spelling");
  ASSERT_GT(arena.chunk_count(), 1u);
  arena.reset();
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.used_bytes(), 0u);
  // One warm cycle: refill (may grow once more — the kept chunk only held
  // the tail of the previous load) and reset again. The chunk kept now is
  // geometrically sized past the whole load, so the next refill is
  // allocation-free.
  for (int i = 0; i < 100; ++i) arena.copy("some moderately long spelling");
  arena.reset();
  const std::size_t reserved = arena.reserved_bytes();
  for (int i = 0; i < 100; ++i) arena.copy("some moderately long spelling");
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(Arena, AllocArrayIsTypedAndAligned) {
  Arena arena;
  arena.alloc_chars(3);  // misalign the cursor
  auto* words = arena.alloc_array<std::uint64_t>(8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words) % alignof(std::uint64_t), 0u);
  for (int i = 0; i < 8; ++i) words[i] = i;  // must be writable storage
  EXPECT_EQ(words[7], 7u);
}

// ---------------------------------------------------------------------------
// SymbolTable — exact mode

TEST(SymbolTable, ExactModeInternsPerSpelling) {
  SymbolTable table(SymbolTable::Mode::kExact);
  const Symbol a = table.intern("AS-EXAMPLE");
  const Symbol b = table.intern("as-example");
  const Symbol c = table.intern("AS-EXAMPLE");
  EXPECT_NE(a, b);  // distinct spellings, distinct ids
  EXPECT_EQ(a, c);  // idempotent
  EXPECT_EQ(table.view(a), "AS-EXAMPLE");
  EXPECT_EQ(table.view(b), "as-example");
  // canon: first-seen spelling represents the case-insensitive class.
  EXPECT_EQ(table.canon(a), table.canon(b));
  EXPECT_EQ(table.canon(b), a);
}

TEST(SymbolTable, DefaultSymbolViewsEmptyInExactMode) {
  SymbolTable table(SymbolTable::Mode::kExact);
  EXPECT_EQ(table.view(Symbol{}), "");
  EXPECT_EQ(table.intern(""), Symbol{});  // the reserved id 0
}

TEST(SymbolTable, FindDoesNotInsert) {
  SymbolTable table(SymbolTable::Mode::kExact);
  const std::uint32_t before = table.size();
  EXPECT_FALSE(table.find("NEVER-INTERNED").has_value());
  EXPECT_FALSE(table.find_canon("NEVER-INTERNED").has_value());
  EXPECT_EQ(table.size(), before);
  const Symbol s = table.intern("NEVER-INTERNED");
  EXPECT_EQ(table.find("NEVER-INTERNED"), s);
  EXPECT_EQ(table.find_canon("never-interned"), s);
}

TEST(SymbolTable, CanonMatchesIEqualsOverRandomPairs) {
  // The load-bearing equivalence: canon(a) == canon(b) ⇔ iequals(view(a),
  // view(b)), exercised over randomly cased variants of a small vocabulary.
  SymbolTable table(SymbolTable::Mode::kExact);
  SplitMix64 rng(7);
  std::vector<Symbol> symbols;
  for (int word = 0; word < 20; ++word) {
    std::string base = "AS-WORD" + std::to_string(word);
    for (int variant = 0; variant < 10; ++variant) {
      std::string spelled = base;
      for (char& c : spelled) {
        if (rng.next() & 1) c = to_lower(c);
      }
      symbols.push_back(table.intern(spelled));
    }
  }
  for (const Symbol a : symbols) {
    for (const Symbol b : symbols) {
      EXPECT_EQ(table.canon(a) == table.canon(b),
                iequals(table.view(a), table.view(b)))
          << table.view(a) << " vs " << table.view(b);
    }
  }
}

// ---------------------------------------------------------------------------
// SymbolTable — fold mode

TEST(SymbolTable, FoldModeAssignsDenseIdsPerClass) {
  SymbolTable table(SymbolTable::Mode::kCaseFold);
  EXPECT_EQ(table.size(), 0u);  // no reserved empty symbol: ids stay dense
  const Symbol a = table.intern("AS-First");
  const Symbol b = table.intern("as-first");
  const Symbol c = table.intern("AS-SECOND");
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b, a);  // same case-insensitive class
  EXPECT_EQ(c.id, 1u);
  EXPECT_EQ(table.view(a), "AS-First");  // first spelling kept
  EXPECT_EQ(table.canon(a), a);          // canon is the identity here
}

// ---------------------------------------------------------------------------
// Resize, copy, and collision behaviour

TEST(SymbolTable, SurvivesResizeWithStableIdsAndViews) {
  SymbolTable table(SymbolTable::Mode::kExact);
  std::vector<Symbol> symbols;
  std::vector<std::string> spellings;
  for (int i = 0; i < 5000; ++i) {  // far past the initial 64-cell capacity
    spellings.push_back("SYM-" + std::to_string(i));
    symbols.push_back(table.intern(spellings.back()));
  }
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(table.view(symbols[i]), spellings[i]);
    EXPECT_EQ(table.find(spellings[i]), symbols[i]);
  }
  EXPECT_GT(table.pool_bytes(), 0u);
}

TEST(SymbolTable, CopyReproducesIdsAndCanonAssignments) {
  SymbolTable table(SymbolTable::Mode::kExact);
  for (int i = 0; i < 300; ++i) {
    table.intern("Mixed-" + std::to_string(i));
    table.intern("MIXED-" + std::to_string(i));  // same class, later spelling
  }
  SymbolTable copy(table);
  ASSERT_EQ(copy.size(), table.size());
  for (std::uint32_t id = 0; id < table.size(); ++id) {
    EXPECT_EQ(copy.view(Symbol{id}), table.view(Symbol{id}));
    EXPECT_EQ(copy.canon(Symbol{id}), table.canon(Symbol{id}));
  }
}

std::uint64_t degenerate_hash(std::string_view, bool) noexcept { return 42; }

TEST(SymbolTable, AdversarialEqualHashKeysStillResolveByBytes) {
  // Every key lands in the same collision chain; correctness must come
  // from the byte comparison, not hash spread. This also forces maximal
  // probe-chain length through several resizes.
  SymbolTable table(SymbolTable::Mode::kExact, &degenerate_hash);
  std::vector<Symbol> symbols;
  std::vector<std::string> spellings;
  for (int i = 0; i < 200; ++i) {
    spellings.push_back("CLASH-" + std::to_string(i));
    symbols.push_back(table.intern(spellings.back()));
  }
  std::set<std::uint32_t> ids;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    ids.insert(symbols[i].id);
    EXPECT_EQ(table.view(symbols[i]), spellings[i]);
    EXPECT_EQ(table.find(spellings[i]), symbols[i]);
    EXPECT_EQ(table.intern(spellings[i]), symbols[i]);
  }
  EXPECT_EQ(ids.size(), symbols.size());  // no two spellings merged
  EXPECT_FALSE(table.find("CLASH-absent").has_value());
}

TEST(SymbolTable, ReserveAvoidsMidBuildRehash) {
  SymbolTable table(SymbolTable::Mode::kCaseFold);
  table.reserve(10000);
  std::vector<Symbol> symbols;
  for (int i = 0; i < 10000; ++i) symbols.push_back(table.intern("R" + std::to_string(i)));
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(table.view(symbols[i]), "R" + std::to_string(i));
  }
}

TEST(SymbolTable, FuzzRandomInternFindAgainstReferenceMap) {
  SymbolTable table(SymbolTable::Mode::kExact);
  std::map<std::string, Symbol> reference;
  SplitMix64 rng(0xfeed);
  for (int step = 0; step < 20000; ++step) {
    std::string key = "K" + std::to_string(rng.next() % 3000);
    if (rng.next() % 3 == 0) {
      auto found = table.find(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_FALSE(found.has_value()) << key;
      } else {
        EXPECT_EQ(found, it->second) << key;
      }
    } else {
      const Symbol s = table.intern(key);
      auto [it, fresh] = reference.emplace(key, s);
      if (!fresh) {
        EXPECT_EQ(it->second, s) << key;
      }
      EXPECT_EQ(table.view(s), key);
    }
  }
  EXPECT_EQ(table.size(), reference.size() + 1);  // +1: the reserved ""
}

TEST(SymbolTable, ConcurrentInternOfSharedVocabularyConverges) {
  // Hammer one table from several threads over an overlapping vocabulary;
  // under TSan this doubles as the data-race check for the lock-free read
  // path racing the locked insert path.
  SymbolTable table(SymbolTable::Mode::kExact);
  constexpr int kThreads = 4;
  constexpr int kWords = 500;
  std::vector<std::vector<Symbol>> seen(kThreads, std::vector<Symbol>(kWords));
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      SplitMix64 rng(t);
      for (int i = 0; i < kWords; ++i) {
        const int word = static_cast<int>(rng.next() % kWords);
        seen[t][word] = table.intern("W" + std::to_string(word));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  // Every thread that interned word w must have gotten the same id.
  for (int w = 0; w < kWords; ++w) {
    Symbol expected{};
    for (int t = 0; t < kThreads; ++t) {
      if (seen[t][w] == Symbol{}) continue;
      if (expected == Symbol{}) expected = seen[t][w];
      EXPECT_EQ(seen[t][w], expected) << "word " << w;
    }
  }
}

}  // namespace
}  // namespace rpslyzer::util
