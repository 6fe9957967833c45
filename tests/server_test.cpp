#include "rpslyzer/server/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/server/cache.hpp"
#include "rpslyzer/server/client.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::server {
namespace {

namespace fp = util::failpoint;

// ---------------------------------------------------------------------------
// ResponseCache
// ---------------------------------------------------------------------------

TEST(ResponseCache, HitMissAndLru) {
  ResponseCache cache(/*capacity=*/2, /*shards=*/1);
  EXPECT_FALSE(cache.get("a", 1).has_value());
  cache.put("a", 1, "A\n");
  cache.put("b", 1, "B\n");
  EXPECT_EQ(cache.get("a", 1), "A\n");  // touches "a": "b" is now LRU
  cache.put("c", 1, "C\n");             // evicts "b"
  EXPECT_EQ(cache.get("a", 1), "A\n");
  EXPECT_FALSE(cache.get("b", 1).has_value());
  EXPECT_EQ(cache.get("c", 1), "C\n");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ResponseCache, GenerationInvalidates) {
  ResponseCache cache(8, 2);
  cache.put("q", 1, "old\n");
  EXPECT_EQ(cache.get("q", 1), "old\n");
  // A reload bumps the generation: the stale entry must not be served.
  EXPECT_FALSE(cache.get("q", 2).has_value());
  EXPECT_EQ(cache.stats().invalidated, 1u);
  cache.put("q", 2, "new\n");
  EXPECT_EQ(cache.get("q", 2), "new\n");
}

TEST(ResponseCache, ZeroCapacityIsNoop) {
  ResponseCache cache(0);
  cache.put("q", 1, "x\n");
  EXPECT_FALSE(cache.get("q", 1).has_value());
}

TEST(ResponseCache, NormalizeQueryKey) {
  EXPECT_EQ(normalize_query_key("!gAS64500"), "gas64500");
  EXPECT_EQ(normalize_query_key("  gAS64500 \r"), "gas64500");
  EXPECT_EQ(normalize_query_key("!iAS-CONE,1"), "ias-cone,1");
}

// ---------------------------------------------------------------------------
// ServerStats (registry-backed)
// ---------------------------------------------------------------------------

TEST(ServerStats, LatencyPercentiles) {
  rpslyzer::obs::MetricsRegistry registry;
  ServerStats stats(registry, ServerStats::default_latency_bounds());
  ServerStats::Snapshot empty = stats.snapshot();
  EXPECT_EQ(empty.latency_percentile_micros(99, stats.latency.bounds()), 0u);
  for (int i = 0; i < 99; ++i) stats.latency.observe(3e-6);  // bucket (2µs,4µs]
  stats.latency.observe(5e-3);  // bucket (4096µs,8192µs]
  ServerStats::Snapshot snap = stats.snapshot();
  EXPECT_EQ(snap.latency.count, 100u);
  EXPECT_EQ(snap.latency_percentile_micros(50, stats.latency.bounds()), 4u);
  EXPECT_EQ(snap.latency_percentile_micros(99, stats.latency.bounds()), 4u);
  EXPECT_EQ(snap.latency_percentile_micros(100, stats.latency.bounds()), 8192u);
  EXPECT_GT(snap.latency_mean_micros(), 3u);
}

TEST(ServerStats, SnapshotSubsetsNeverExceedTotals) {
  rpslyzer::obs::MetricsRegistry registry;
  ServerStats stats(registry, ServerStats::default_latency_bounds());
  // Writers bump the total before the subset; snapshot() reads the subset
  // first. Hammer both from a writer thread while snapshotting and assert
  // the invariant admin <= total holds in every observed snapshot.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      stats.queries_total.inc();
      stats.admin_queries.inc();
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const ServerStats::Snapshot snap = stats.snapshot();
    ASSERT_LE(snap.admin_queries, snap.queries_total);
    ASSERT_LE(snap.queries_errors, snap.queries_total);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// ---------------------------------------------------------------------------
// Loopback integration
// ---------------------------------------------------------------------------

// Two corpus versions: a reload swaps AS64500's second prefix, so responses
// observably change across generations.
constexpr const char* kCorpusV1 =
    "aut-num: AS64500\n"
    "import: from AS64501 accept ANY\n"
    "export: to AS64501 announce AS-CONE\n\n"
    "as-set: AS-CONE\nmembers: AS64500, AS-SUB\n\n"
    "as-set: AS-SUB\nmembers: AS64502\n\n"
    "route: 10.0.0.0/8\norigin: AS64500\n\n"
    "route: 10.64.0.0/16\norigin: AS64500\n\n"
    "route6: 2001:db8::/32\norigin: AS64500\n\n"
    "route: 198.51.100.0/24\norigin: AS64502\n";
constexpr const char* kCorpusV2 =
    "aut-num: AS64500\n"
    "import: from AS64501 accept ANY\n\n"
    "as-set: AS-CONE\nmembers: AS64500, AS-SUB\n\n"
    "as-set: AS-SUB\nmembers: AS64502\n\n"
    "route: 10.0.0.0/8\norigin: AS64500\n\n"
    "route: 172.16.0.0/12\norigin: AS64500\n\n"
    "route6: 2001:db8::/32\norigin: AS64500\n\n"
    "route: 198.51.100.0/24\norigin: AS64502\n";

/// Bundles the Ir with its Index (and empty AS relations) so a shared_ptr
/// keeps everything alive; the compiled snapshot built over aliasing
/// pointers then owns the bundle, exactly the contract CorpusLoader
/// documents.
struct OwnedCorpus {
  util::Diagnostics diag;
  ir::Ir ir;
  irr::Index index;
  relations::AsRelations relations;

  explicit OwnedCorpus(const char* text)
      : ir(irr::parse_dump(text, "TEST", diag)), index(ir) {}
};

std::shared_ptr<const compile::CompiledPolicySnapshot> make_corpus(const char* text) {
  auto owned = std::make_shared<OwnedCorpus>(text);
  return compile::CompiledPolicySnapshot::build(
      std::shared_ptr<const irr::Index>(owned, &owned->index),
      std::shared_ptr<const relations::AsRelations>(owned, &owned->relations));
}

ServerConfig test_config() {
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.worker_threads = 3;
  config.cache_capacity = 64;
  config.idle_timeout = std::chrono::milliseconds(0);
  return config;
}

TEST(Server, PipelinedQueriesFromConcurrentConnectionsMatchEngine) {
  Server server(test_config(), [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  // The in-process ground truth the daemon must reproduce byte for byte.
  const auto reference = make_corpus(kCorpusV1);
  query::QueryEngine engine(*reference);
  const std::vector<std::string> queries = {
      "!gAS64500", "!6AS64500",  "!iAS-CONE", "!iAS-CONE,1", "!iRS-NOPE",
      "!aAS-CONE", "!a4AS-CONE", "!a6AS-CONE", "!aAS64502",  "!oAS64500",
      "!gAS99",    "!gBOGUS",    "!zUNSUPPORTED", "gas64500", "!6as64500"};
  std::vector<std::string> expected;
  expected.reserve(queries.size());
  for (const auto& query : queries) expected.push_back(engine.evaluate(query));

  constexpr int kConnections = 8;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&] {
      auto client = Client::connect("127.0.0.1", server.port());
      if (!client) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Pipeline the whole mix, then read all responses in order.
        for (const auto& query : queries) {
          if (!client->send_line(query)) {
            ++failures;
            return;
          }
        }
        for (const auto& want : expected) {
          auto got = client->read_response();
          if (!got) {
            ++failures;
            return;
          }
          if (*got != want) ++mismatches;
        }
      }
      client->send_line("!q");
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const auto& stats = server.stats();
  EXPECT_EQ(stats.connections_accepted.value(), kConnections);
  EXPECT_GE(stats.queries_total.value(),
            static_cast<std::uint64_t>(kConnections * kRounds * queries.size()));
  EXPECT_GT(server.cache_stats().hits, 0u);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().connections_open.value(), 0);
}

TEST(Server, ReloadSwapsCorpusAndInvalidatesCache) {
  std::atomic<int> loads{0};
  auto loader = [&loads]() {
    return make_corpus(loads++ == 0 ? kCorpusV1 : kCorpusV2);
  };
  Server server(test_config(), loader);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());

  const std::string want_v1 = query::QueryEngine(*make_corpus(kCorpusV1)).evaluate("!gAS64500");
  const std::string want_v2 = query::QueryEngine(*make_corpus(kCorpusV2)).evaluate("!gAS64500");
  ASSERT_NE(want_v1, want_v2);

  ASSERT_TRUE(client->send_line("!gAS64500"));
  EXPECT_EQ(client->read_response(), want_v1);
  ASSERT_TRUE(client->send_line("!gAS64500"));  // second hit comes from cache
  EXPECT_EQ(client->read_response(), want_v1);
  EXPECT_EQ(server.cache_stats().hits, 1u);

  ASSERT_TRUE(client->send_line("!reload"));
  EXPECT_EQ(client->read_response(), "C\n");
  EXPECT_EQ(server.generation(), 2u);

  // Same query, new generation: the stale entry must not be served.
  ASSERT_TRUE(client->send_line("!gAS64500"));
  EXPECT_EQ(client->read_response(), want_v2);

  // The swap is visible through the admin stats query too.
  ASSERT_TRUE(client->send_line("!stats"));
  auto stats_response = client->read_response();
  ASSERT_TRUE(stats_response.has_value());
  EXPECT_NE(stats_response->find("generation: 2"), std::string::npos);
  EXPECT_NE(stats_response->find("reloads: 1"), std::string::npos);
  EXPECT_GE(server.cache_stats().invalidated, 1u);

  client->send_line("!q");
  server.stop();
  EXPECT_EQ(server.stats().connections_open.value(), 0);
}

TEST(Server, AdminCommandsAndProtocolEdges) {
  Server server(test_config(), [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // "!!" elicits no response; the next query must answer immediately after.
  ASSERT_TRUE(client->send_line("!!"));
  ASSERT_TRUE(client->send_line("!t30"));
  EXPECT_EQ(client->read_response(), "C\n");
  ASSERT_TRUE(client->send_line("!gAS64502"));
  EXPECT_EQ(client->read_response(), "A16\n198.51.100.0/24\nC\n");
  // !q closes after pending responses drain.
  ASSERT_TRUE(client->send_line("!6AS64502"));
  ASSERT_TRUE(client->send_line("!q"));
  EXPECT_EQ(client->read_response(), "C\n");
  EXPECT_FALSE(client->read_response().has_value());  // EOF

  // Over-long lines are refused without crashing the connection budget.
  auto hog = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(hog.has_value());
  ASSERT_TRUE(hog->send_line("!g" + std::string(8192, 'x')));
  auto refusal = hog->read_response();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->front(), 'F');
  EXPECT_FALSE(hog->read_response().has_value());  // server closed

  server.stop();
  EXPECT_EQ(server.stats().connections_open.value(), 0);
}

TEST(Server, MetricsQueryServesPrometheusExposition) {
  Server server(test_config(), [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // Drive a little traffic first so the page has non-zero series.
  ASSERT_TRUE(client->send_line("!gAS64500"));
  ASSERT_TRUE(client->read_response().has_value());
  ASSERT_TRUE(client->send_line("!gAS64500"));  // cache hit
  ASSERT_TRUE(client->read_response().has_value());

  ASSERT_TRUE(client->send_line("!metrics"));
  auto framed = client->read_response();
  ASSERT_TRUE(framed.has_value());
  ASSERT_EQ(framed->front(), 'A');
  const std::size_t newline = framed->find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string page = framed->substr(newline + 1);

  // Valid exposition structure: every sample line's family has HELP + TYPE.
  EXPECT_NE(page.find("# HELP rpslyzer_server_queries_total "), std::string::npos);
  EXPECT_NE(page.find("# TYPE rpslyzer_server_queries_total counter\n"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE rpslyzer_server_query_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(page.find("rpslyzer_server_query_latency_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  // Series spanning server, cache, and (global registry) query engine.
  EXPECT_NE(page.find("rpslyzer_server_connections_open 1\n"), std::string::npos);
  EXPECT_NE(page.find("rpslyzer_cache_hits_total 1\n"), std::string::npos);
  EXPECT_NE(page.find("rpslyzer_server_generation 1\n"), std::string::npos);
  EXPECT_NE(page.find("rpslyzer_query_evaluations_total{op=\"g\"}"), std::string::npos);

  // The acceptance bar: at least 15 distinct metric families on the page.
  std::size_t families = 0;
  for (std::size_t pos = page.find("# TYPE "); pos != std::string::npos;
       pos = page.find("# TYPE ", pos + 1)) {
    ++families;
  }
  EXPECT_GE(families, 15u) << page;

  // !stats coherence: admin/error counts can never exceed the total.
  ASSERT_TRUE(client->send_line("!stats"));
  auto stats_response = client->read_response();
  ASSERT_TRUE(stats_response.has_value());
  const ServerStats::Snapshot snap = server.stats().snapshot();
  EXPECT_LE(snap.admin_queries, snap.queries_total);
  EXPECT_LE(snap.queries_errors, snap.queries_total);

  client->send_line("!q");
  server.stop();
}

TEST(Server, MaxConnectionGuardRefusesExtras) {
  ServerConfig config = test_config();
  config.max_connections = 2;
  Server server(config, [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto first = Client::connect("127.0.0.1", server.port());
  auto second = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Ensure both are registered before the third knocks.
  ASSERT_TRUE(first->send_line("!gAS64502"));
  ASSERT_TRUE(first->read_response().has_value());
  ASSERT_TRUE(second->send_line("!gAS64502"));
  ASSERT_TRUE(second->read_response().has_value());

  auto third = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(third.has_value());  // TCP accept succeeds, then refusal
  auto refusal = third->read_response();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(*refusal, "F too many connections\n");
  EXPECT_FALSE(third->read_response().has_value());  // closed
  EXPECT_EQ(server.stats().connections_rejected.value(), 1u);

  server.stop();
}

TEST(Server, IdleConnectionsAreReaped) {
  ServerConfig config = test_config();
  config.idle_timeout = std::chrono::milliseconds(200);
  Server server(config, [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // Do nothing: the sweep must close us. read_response returns EOF.
  EXPECT_FALSE(client->read_response().has_value());
  EXPECT_EQ(server.stats().connections_idle_closed.value(), 1u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Flight recorder + trace propagation (PR 8)
// ---------------------------------------------------------------------------

TEST(Server, TraceIdPrefixDrivesTheFlightRecorder) {
  Server server(test_config(), [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string want = query::QueryEngine(*make_corpus(kCorpusV1)).evaluate("!gAS64500");

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // Client-supplied trace id: the prefix must be stripped before evaluation
  // (and before the cache key), so the response is byte-identical to the
  // bare query's.
  ASSERT_TRUE(client->send_line("!id ab !gAS64500"));
  EXPECT_EQ(client->read_response(), want);
  ASSERT_TRUE(client->send_line("!id AB !gAS64500"));  // same id, cache hit
  EXPECT_EQ(client->read_response(), want);
  EXPECT_EQ(server.cache_stats().hits, 1u);

  // `!trace <id>` reconstructs both queries with the full stage breakdown.
  ASSERT_TRUE(client->send_line("!trace ab"));
  auto framed = client->read_response();
  ASSERT_TRUE(framed.has_value());
  ASSERT_EQ(framed->front(), 'A');
  EXPECT_NE(framed->find("trace: 00000000000000ab"), std::string::npos);
  EXPECT_NE(framed->find("records: 2"), std::string::npos);
  EXPECT_NE(framed->find("verb: !gAS64500"), std::string::npos);
  EXPECT_NE(framed->find("cache: miss"), std::string::npos);
  EXPECT_NE(framed->find("cache: hit"), std::string::npos);
  EXPECT_NE(framed->find("generation: 1"), std::string::npos);
  EXPECT_NE(framed->find("stage-queue-us: "), std::string::npos);
  EXPECT_NE(framed->find("stage-eval-us: "), std::string::npos);
  EXPECT_NE(framed->find("stage-total-us: "), std::string::npos);

  // Unknown id → not found; garbled id / garbled prefix → errors.
  ASSERT_TRUE(client->send_line("!trace dead"));
  EXPECT_EQ(client->read_response(), "D\n");
  ASSERT_TRUE(client->send_line("!trace xyz"));
  EXPECT_EQ(client->read_response(), "F usage: !trace <hex-id>\n");
  ASSERT_TRUE(client->send_line("!id zz !gAS64500"));
  EXPECT_EQ(client->read_response(), "F invalid trace id (expect 1-16 hex digits)\n");
  ASSERT_TRUE(client->send_line("!id 0 !gAS64500"));  // 0 means "no context"
  EXPECT_EQ(client->read_response(), "F invalid trace id (expect 1-16 hex digits)\n");

  // Without a handler wired (no replication origin), !fleet refuses.
  ASSERT_TRUE(client->send_line("!fleet"));
  EXPECT_EQ(client->read_response(), "F fleet aggregation not enabled\n");

  client->send_line("!q");
  server.stop();
}

TEST(Server, SlowQueriesLandInTheSlowLog) {
  fp::clear_all();
  ServerConfig config = test_config();
  config.slow_threshold = std::chrono::milliseconds(10);
  Server server(config, [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // One stalled evaluation crosses the 10 ms threshold; the next is fast
  // and must stay out of the slow log.
  ASSERT_TRUE(fp::set("server.dispatch", "1*delay(30ms)"));
  ASSERT_TRUE(client->send_line("!id feed !gAS64500"));
  ASSERT_TRUE(client->read_response().has_value());
  ASSERT_TRUE(client->send_line("!gAS64502"));
  ASSERT_TRUE(client->read_response().has_value());
  fp::clear_all();

  ASSERT_TRUE(client->send_line("!slow"));
  auto framed = client->read_response();
  ASSERT_TRUE(framed.has_value());
  ASSERT_EQ(framed->front(), 'A');
  EXPECT_NE(framed->find("slow-queries: 1"), std::string::npos);
  EXPECT_NE(framed->find("threshold-ms: 10"), std::string::npos);
  EXPECT_NE(framed->find("trace=000000000000feed"), std::string::npos);
  EXPECT_NE(framed->find("verb=!gAS64500"), std::string::npos);

  client->send_line("!q");
  server.stop();
}

TEST(Server, DeadlineMissSnapshotsTheFlightRecorder) {
  fp::clear_all();
  ServerConfig config = test_config();
  config.query_deadline = std::chrono::milliseconds(100);
  config.metrics_snapshot_path = ::testing::TempDir() + "metrics.prom";
  config.metrics_snapshot_interval = std::chrono::milliseconds(0);
  Server server(config, [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // The worker stalls well past the deadline; the sweep answers for it.
  ASSERT_TRUE(fp::set("server.dispatch", "1*delay(800ms)"));
  ASSERT_TRUE(client->send_line("!id deadbeef !gAS64500"));
  EXPECT_EQ(client->read_response(), "F timeout\n");
  fp::clear_all();

  // The miss dumped the ring next to the metrics file, named after the
  // offending trace id, with the timed-out query marked outcome=T.
  const std::string path =
      ::testing::TempDir() + "flight-deadline-00000000deadbeef.log";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("reason: deadline"), std::string::npos);
  EXPECT_NE(contents.str().find("trace: 00000000deadbeef"), std::string::npos);
  EXPECT_NE(contents.str().find("outcome=T"), std::string::npos);
  EXPECT_EQ(server.stats().queries_timed_out.value(), 1u);

  client->send_line("!q");
  server.stop();
  std::remove(path.c_str());
}

TEST(Server, StartFailsWhenLoaderFails) {
  Server server(test_config(),
                []() -> std::shared_ptr<const compile::CompiledPolicySnapshot> {
                  return nullptr;
                });
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace rpslyzer::server
