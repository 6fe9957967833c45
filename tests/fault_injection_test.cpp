// Fault injection: the failpoint framework itself, quarantined ingestion,
// degraded-mode serving, per-query deadlines, and slow-client backpressure.
//
// Every test drives a failure through a named failpoint site (see
// util/failpoint.hpp) and asserts the degradation contract: one bad source
// never takes down the other twelve, a failed reload never takes down the
// daemon, and one stalled query or slow client never takes down the
// connection's neighbours.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/server/client.hpp"
#include "rpslyzer/server/server.hpp"
#include "rpslyzer/util/backoff.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer {
namespace {

namespace fp = util::failpoint;

/// Every test starts and ends with no failpoint armed, so a failing test
/// cannot poison its neighbours through the process-global registry.
class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }
};

// ---------------------------------------------------------------------------
// Failpoint framework
// ---------------------------------------------------------------------------

TEST_F(FaultInjection, NothingArmedMeansNoHit) {
  EXPECT_FALSE(fp::any_armed());
  EXPECT_FALSE(fp::hit("irr.read"));
  EXPECT_EQ(fp::hit_count("irr.read"), 0u);
}

TEST_F(FaultInjection, ErrorActionWithMessage) {
  ASSERT_TRUE(fp::set("irr.read", "error(disk on fire)"));
  EXPECT_TRUE(fp::any_armed());
  const fp::Hit hit = fp::hit("irr.read");
  ASSERT_TRUE(hit.is_error());
  EXPECT_EQ(hit.message, "disk on fire");
  EXPECT_FALSE(fp::hit("some.other.site"));  // only the named site fires
  EXPECT_TRUE(fp::hit("irr.read").is_error());  // unlimited: still armed
  EXPECT_EQ(fp::hit_count("irr.read"), 2u);
}

TEST_F(FaultInjection, NTimesBudgetExpires) {
  ASSERT_TRUE(fp::set("irr.read", "2*error"));
  EXPECT_TRUE(fp::hit("irr.read").is_error());
  EXPECT_TRUE(fp::hit("irr.read").is_error());
  EXPECT_FALSE(fp::hit("irr.read"));  // budget exhausted: site disarmed
  EXPECT_FALSE(fp::any_armed());
  EXPECT_EQ(fp::hit_count("irr.read"), 2u);  // post-disarm misses not counted
}

TEST_F(FaultInjection, DelayActionSleeps) {
  ASSERT_TRUE(fp::set("server.send", "1*delay(30ms)"));
  const auto t0 = std::chrono::steady_clock::now();
  const fp::Hit hit = fp::hit("server.send");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(hit.kind, fp::Hit::Kind::kDelay);
  EXPECT_GE(elapsed, std::chrono::milliseconds(30));
}

TEST_F(FaultInjection, TruncateActionCarriesByteCount) {
  ASSERT_TRUE(fp::set("irr.parse", "truncate(4096)"));
  const fp::Hit hit = fp::hit("irr.parse");
  ASSERT_TRUE(hit.is_truncate());
  EXPECT_EQ(hit.truncate_at, 4096u);
}

TEST_F(FaultInjection, OffAndClearDisarm) {
  ASSERT_TRUE(fp::set("a.site", "error"));
  ASSERT_TRUE(fp::set("a.site", "off"));
  EXPECT_FALSE(fp::hit("a.site"));
  ASSERT_TRUE(fp::set("b.site", "error"));
  fp::clear("b.site");
  EXPECT_FALSE(fp::hit("b.site"));
  EXPECT_FALSE(fp::any_armed());
}

TEST_F(FaultInjection, MalformedSpecsAreRejected) {
  std::string error;
  EXPECT_FALSE(fp::set("s", "explode", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fp::set("s", "delay(abc)", &error));
  EXPECT_FALSE(fp::set("s", "truncate()", &error));
  EXPECT_FALSE(fp::set("s", "x*error", &error));
  EXPECT_FALSE(fp::any_armed());  // nothing leaked from failed sets
}

TEST_F(FaultInjection, ConfigureIsAtomic) {
  std::string error;
  // One bad clause rejects the whole spec: no site may be half-armed.
  EXPECT_FALSE(fp::configure("irr.read=error;server.send=bogus", &error));
  EXPECT_FALSE(fp::any_armed());
  EXPECT_TRUE(
      fp::configure("irr.read=error;server.send=delay(5ms);trailing.ok=off;", &error))
      << error;
  EXPECT_TRUE(fp::hit("irr.read").is_error());
  const auto active = fp::active();
  EXPECT_EQ(active.size(), 2u);
}

// ---------------------------------------------------------------------------
// util::backoff (pure function), as the server schedules reload retries
// ---------------------------------------------------------------------------

TEST_F(FaultInjection, BackoffIsDeterministicCappedAndJittered) {
  using std::chrono::milliseconds;
  const milliseconds initial(100);
  const milliseconds cap(2000);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const auto a = util::backoff(attempt, initial, cap, 42);
    const auto b = util::backoff(attempt, initial, cap, 42);
    EXPECT_EQ(a, b) << "same inputs must give the same delay";
    EXPECT_GE(a, milliseconds(1));
    EXPECT_LE(a, cap);
    // Jitter stays within [0.75, 1.25] of the capped exponential step.
    const std::int64_t base =
        std::min<std::int64_t>(cap.count(), initial.count() << std::min(attempt, 20u));
    EXPECT_GE(a.count(), base * 3 / 4);
    EXPECT_LE(a.count(), base * 5 / 4);
  }
  // Different seeds decorrelate the schedule (jitter actually jitters).
  bool any_difference = false;
  for (std::uint64_t seed = 0; seed < 16 && !any_difference; ++seed) {
    any_difference = util::backoff(3, initial, cap, seed) !=
                     util::backoff(3, initial, cap, seed + 1);
  }
  EXPECT_TRUE(any_difference);
  // Degenerate knobs are clamped, never UB or zero.
  EXPECT_GE(util::backoff(50, milliseconds(0), milliseconds(0), 7).count(), 1);
}

// ---------------------------------------------------------------------------
// Quarantined ingestion
// ---------------------------------------------------------------------------

class QuarantineFiles : public FaultInjection {
 protected:
  void SetUp() override {
    FaultInjection::SetUp();
    dir_ = std::filesystem::temp_directory_path() /
           ("rpslyzer-fault-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    FaultInjection::TearDown();
  }

  void write(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out << text;
  }

  /// All 13 Table-1 dumps present, each with one distinctive aut-num
  /// (AS64500 + index) and one route.
  void write_full_corpus() {
    const auto sources = irr::table1_sources(dir_);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      write(sources[i].path.filename().string(),
            "aut-num: AS" + std::to_string(64500 + i) + "\nas-name: FROM-" +
                sources[i].name + "\n\n" + "route: 10." + std::to_string(i) +
                ".0.0/16\norigin: AS" + std::to_string(64500 + i) + "\n");
    }
  }

  /// Position (priority order, as in write_full_corpus) of the one
  /// quarantined source. Sources are read concurrently, so which read takes
  /// a "1*" failpoint's only hit varies from run to run.
  static std::size_t quarantined_index(const irr::LoadResult& result) {
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      if (result.outcomes[i].status == irr::SourceStatus::kQuarantined) return i;
    }
    return result.outcomes.size();
  }

  std::filesystem::path dir_;
};

TEST_F(QuarantineFiles, MidReadFaultQuarantinesOneSourceOthersLoad) {
  write_full_corpus();
  // The first read dies mid-dump; the other 12 load.
  ASSERT_TRUE(fp::set("irr.read", "1*error(connection reset)"));
  irr::LoadResult result = irr::load_irrs(irr::table1_sources(dir_));

  EXPECT_EQ(result.count_with(irr::SourceStatus::kQuarantined), 1u);
  EXPECT_EQ(result.count_with(irr::SourceStatus::kOk), 12u);
  const std::size_t faulted = quarantined_index(result);
  ASSERT_LT(faulted, result.outcomes.size());
  EXPECT_NE(result.outcomes[faulted].detail.find("connection reset"), std::string::npos);

  // Nothing from the quarantined dump was merged; everything else was.
  EXPECT_EQ(result.ir.aut_nums.count(static_cast<ir::Asn>(64500 + faulted)), 0u);
  EXPECT_EQ(result.ir.aut_nums.size(), 12u);
  EXPECT_EQ(result.ir.routes.size(), 12u);
  EXPECT_GE(result.diagnostics.error_count(), 1u);

  // Recovery: with the fault cleared (the 1* budget is already spent), a
  // fresh load is complete and clean.
  irr::LoadResult recovered = irr::load_irrs(irr::table1_sources(dir_));
  EXPECT_EQ(recovered.count_with(irr::SourceStatus::kOk), 13u);
  EXPECT_EQ(recovered.ir.aut_nums.size(), 13u);
  EXPECT_EQ(recovered.diagnostics.error_count(), 0u);
}

TEST_F(QuarantineFiles, InjectedTruncationIsDetectedNotSilent) {
  write_full_corpus();
  ASSERT_TRUE(fp::set("irr.read", "1*truncate(10)"));
  irr::LoadResult result = irr::load_irrs(irr::table1_sources(dir_));
  // The truncated source is quarantined — a short dump is never merged as
  // if it were complete (the silent-truncation regression this PR fixes).
  EXPECT_EQ(result.count_with(irr::SourceStatus::kQuarantined), 1u);
  EXPECT_EQ(result.count_with(irr::SourceStatus::kOk), 12u);
  const std::size_t faulted = quarantined_index(result);
  ASSERT_LT(faulted, result.outcomes.size());
  EXPECT_NE(result.outcomes[faulted].detail.find("truncation"), std::string::npos);
  EXPECT_EQ(result.ir.aut_nums.count(static_cast<ir::Asn>(64500 + faulted)), 0u);
}

TEST_F(QuarantineFiles, DirectoryAsDumpIsQuarantined) {
  write("ripe.db", "aut-num: AS1\n");
  std::filesystem::create_directories(dir_ / "radb.db");
  irr::LoadResult result = irr::load_irrs(irr::table1_sources(dir_));
  const irr::SourceOutcome* radb = result.outcome("RADB");
  ASSERT_NE(radb, nullptr);
  EXPECT_EQ(radb->status, irr::SourceStatus::kQuarantined);
  EXPECT_NE(radb->detail.find("not a regular file"), std::string::npos);
  EXPECT_EQ(result.outcome("RIPE")->status, irr::SourceStatus::kOk);
  EXPECT_EQ(result.ir.aut_nums.size(), 1u);
}

TEST_F(QuarantineFiles, PathologicalObjectTripsByteGuard) {
  write("ripe.db", "aut-num: AS1\n\naut-num: AS2\n");
  // A dump that lost its separators: one endless pseudo-object.
  std::string corrupt = "aut-num: AS3\n";
  for (int i = 0; i < 100; ++i) corrupt += "remarks: filler filler filler\n";
  write("radb.db", corrupt);

  irr::LoadOptions options;
  options.max_object_bytes = 256;
  irr::LoadResult result = irr::load_irrs(irr::table1_sources(dir_), options);
  const irr::SourceOutcome* radb = result.outcome("RADB");
  ASSERT_NE(radb, nullptr);
  EXPECT_EQ(radb->status, irr::SourceStatus::kQuarantined);
  EXPECT_NE(radb->detail.find("pathological object"), std::string::npos);
  EXPECT_EQ(result.ir.aut_nums.count(3), 0u);
  EXPECT_EQ(result.ir.aut_nums.size(), 2u);  // RIPE still loads

  // The guard is a knob: with it disabled the same dump loads.
  options.max_object_bytes = 0;
  irr::LoadResult permissive = irr::load_irrs(irr::table1_sources(dir_), options);
  EXPECT_EQ(permissive.outcome("RADB")->status, irr::SourceStatus::kOk);
  EXPECT_EQ(permissive.ir.aut_nums.count(3), 1u);
}

TEST_F(QuarantineFiles, ParserExceptionQuarantinesSource) {
  write_full_corpus();
  ASSERT_TRUE(fp::set("irr.parse", "1*error(lexer blew up)"));
  irr::LoadResult result = irr::load_irrs(irr::table1_sources(dir_));
  EXPECT_EQ(result.count_with(irr::SourceStatus::kQuarantined), 1u);
  EXPECT_EQ(result.count_with(irr::SourceStatus::kOk), 12u);
  const irr::SourceOutcome* apnic = result.outcome("APNIC");
  ASSERT_NE(apnic, nullptr);
  EXPECT_NE(apnic->detail.find("lexer blew up"), std::string::npos);
  // The census must not carry partial numbers for a quarantined source.
  EXPECT_EQ(result.counts[0].aut_nums, 0u);
  EXPECT_EQ(result.counts[0].name, "APNIC");
}

TEST_F(QuarantineFiles, ParseTruncationIsSilentlyTolerated) {
  // irr.parse=truncate models a *undetected* short dump: the parser sees
  // less text and must produce a clean, smaller corpus — no quarantine.
  write("ripe.db", "aut-num: AS1\n\naut-num: AS2\n");
  ASSERT_TRUE(fp::set("irr.parse", "truncate(13)"));  // keeps only AS1's line
  irr::LoadResult result = irr::load_irrs(irr::table1_sources(dir_));
  EXPECT_EQ(result.outcome("RIPE")->status, irr::SourceStatus::kOk);
  EXPECT_EQ(result.ir.aut_nums.size(), 1u);
}

// ---------------------------------------------------------------------------
// Degraded-mode serving
// ---------------------------------------------------------------------------

constexpr const char* kCorpusV1 =
    "aut-num: AS64500\n"
    "import: from AS64501 accept ANY\n\n"
    "route: 10.0.0.0/8\norigin: AS64500\n\n"
    "route: 10.64.0.0/16\norigin: AS64500\n";
constexpr const char* kCorpusV2 =
    "aut-num: AS64500\n"
    "import: from AS64501 accept ANY\n\n"
    "route: 10.0.0.0/8\norigin: AS64500\n\n"
    "route: 172.16.0.0/12\norigin: AS64500\n";

struct OwnedCorpus {
  util::Diagnostics diag;
  ir::Ir ir;
  irr::Index index;
  relations::AsRelations relations;

  explicit OwnedCorpus(const std::string& text)
      : ir(irr::parse_dump(text, "TEST", diag)), index(ir) {}
};

std::shared_ptr<const compile::CompiledPolicySnapshot> make_corpus(
    const std::string& text) {
  auto owned = std::make_shared<OwnedCorpus>(text);
  return compile::CompiledPolicySnapshot::build(
      std::shared_ptr<const irr::Index>(owned, &owned->index),
      std::shared_ptr<const relations::AsRelations>(owned, &owned->relations));
}

server::ServerConfig test_config() {
  server::ServerConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.cache_capacity = 64;
  config.idle_timeout = std::chrono::milliseconds(0);
  return config;
}

TEST_F(FaultInjection, FailedReloadDegradesThenBackoffRetryRecovers) {
  // Loads: #1 ok (v1), #2 and #3 throw, #4+ ok (v2). The daemon must keep
  // serving v1 throughout the outage and converge to v2 on its own.
  std::atomic<int> loads{0};
  auto loader = [&loads]() -> std::shared_ptr<const compile::CompiledPolicySnapshot> {
    const int n = ++loads;
    if (n == 1) return make_corpus(kCorpusV1);
    if (n <= 3) throw std::runtime_error("mirror unreachable");
    return make_corpus(kCorpusV2);
  };
  server::ServerConfig config = test_config();
  config.reload_retry_initial = std::chrono::milliseconds(50);
  config.reload_retry_max = std::chrono::milliseconds(200);
  server::Server server(config, loader);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.health().state, server::Health::kHealthy);

  const std::string want_v1 = query::QueryEngine(*make_corpus(kCorpusV1)).evaluate("!gAS64500");
  const std::string want_v2 = query::QueryEngine(*make_corpus(kCorpusV2)).evaluate("!gAS64500");
  ASSERT_NE(want_v1, want_v2);

  auto client = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->send_line("!gAS64500"));
  EXPECT_EQ(client->read_response(), want_v1);

  // The explicit reload fails loudly...
  ASSERT_TRUE(client->send_line("!reload"));
  auto reload_response = client->read_response();
  ASSERT_TRUE(reload_response.has_value());
  EXPECT_EQ(reload_response->rfind("F reload failed: ", 0), 0u) << *reload_response;
  EXPECT_NE(reload_response->find("mirror unreachable"), std::string::npos);

  // ...but the daemon keeps serving the stale generation, and says so.
  ASSERT_TRUE(client->send_line("!gAS64500"));
  EXPECT_EQ(client->read_response(), want_v1);
  ASSERT_TRUE(client->send_line("!health"));
  auto health_response = client->read_response();
  ASSERT_TRUE(health_response.has_value());
  EXPECT_NE(health_response->find("status: degraded"), std::string::npos)
      << *health_response;
  EXPECT_NE(health_response->find("mirror unreachable"), std::string::npos);
  EXPECT_NE(health_response->find("stale-generation-age-ms:"), std::string::npos);
  EXPECT_EQ(server.generation(), 1u);

  // The event loop retries on its own: attempt #3 fails too, #4 succeeds.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.health().state != server::Health::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.health().state, server::Health::kHealthy);
  EXPECT_EQ(server.generation(), 2u);
  EXPECT_GE(server.stats().reload_failures.value(), 2u);
  EXPECT_GE(server.stats().reload_retries.value(), 2u);

  // Recovery is complete: responses are byte-identical to a clean v2 engine.
  ASSERT_TRUE(client->send_line("!gAS64500"));
  EXPECT_EQ(client->read_response(), want_v2);
  ASSERT_TRUE(client->send_line("!health"));
  auto healthy = client->read_response();
  ASSERT_TRUE(healthy.has_value());
  EXPECT_NE(healthy->find("status: healthy"), std::string::npos) << *healthy;

  // The extended stats mirror the episode.
  ASSERT_TRUE(client->send_line("!stats"));
  auto stats_response = client->read_response();
  ASSERT_TRUE(stats_response.has_value());
  EXPECT_NE(stats_response->find("health: healthy"), std::string::npos);
  EXPECT_NE(stats_response->find("reload-failures: "), std::string::npos);

  client->send_line("!q");
  server.stop();
}

TEST_F(FaultInjection, HealthReportsHealthyOnCleanStart) {
  server::Server server(test_config(), [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto client = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->send_line("!health"));
  auto response = client->read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("status: healthy"), std::string::npos) << *response;
  EXPECT_NE(response->find("generation: 1"), std::string::npos);
  server.stop();
}

// ---------------------------------------------------------------------------
// Per-query deadlines
// ---------------------------------------------------------------------------

TEST_F(FaultInjection, StalledWorkerTimesOutWithoutStallingNeighbours) {
  server::ServerConfig config = test_config();
  config.worker_threads = 2;
  config.query_deadline = std::chrono::milliseconds(150);
  server::Server server(config, [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string want = query::QueryEngine(*make_corpus(kCorpusV1)).evaluate("!gAS64500");

  auto slow = server::Client::connect("127.0.0.1", server.port());
  auto fast = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(fast.has_value());

  // Exactly one dispatch stalls for far longer than the deadline; it will
  // be the slow client's query because it is the only one in flight.
  ASSERT_TRUE(fp::set("server.dispatch", "1*delay(1000ms)"));
  ASSERT_TRUE(slow->send_line("!gAS64500"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The other connection keeps getting correct answers meanwhile.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fast->send_line("!gAS64500"));
    EXPECT_EQ(fast->read_response(), want);
  }

  // The stalled query is answered by the deadline sweep, not the worker.
  auto timed_out = slow->read_response();
  ASSERT_TRUE(timed_out.has_value());
  EXPECT_EQ(*timed_out, "F timeout\n");
  EXPECT_EQ(server.stats().queries_timed_out.value(), 1u);

  // The connection survives its timeout and the late worker result is
  // discarded: the next query gets exactly one, correct, response.
  ASSERT_TRUE(slow->send_line("!gAS64500"));
  EXPECT_EQ(slow->read_response(), want);
  ASSERT_TRUE(slow->send_line("!gAS64500"));
  EXPECT_EQ(slow->read_response(), want);

  slow->send_line("!q");
  fast->send_line("!q");
  server.stop();
}

// ---------------------------------------------------------------------------
// Slow-client backpressure
// ---------------------------------------------------------------------------

TEST_F(FaultInjection, SlowClientIsPausedThenDisconnected) {
  // A corpus whose !g answer is ~50 KB, so a handful of pipelined queries
  // overflow both the kernel socket buffers and the server's output cap.
  std::string big;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 100; ++j) {
      big += "route: 10." + std::to_string(i) + "." + std::to_string(j) +
             ".0/24\norigin: AS64500\n\n";
    }
  }
  big += "aut-num: AS64500\n";

  server::ServerConfig config = test_config();
  config.max_output_buffer_bytes = 64 * 1024;
  config.write_stall_grace = std::chrono::milliseconds(150);
  server::Server server(config, [&big] { return make_corpus(big); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // Keep the receive window tiny so the kernel cannot mask the stall by
  // absorbing megabytes of responses into auto-tuned socket buffers.
  const int rcvbuf = 8 * 1024;
  ::setsockopt(client->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  // Pipeline tens of megabytes of responses and then never read them.
  for (int i = 0; i < 512; ++i) ASSERT_TRUE(client->send_line("!gAS64500"));

  // The server must pause reads, wait out the grace, and drop us — without
  // ever holding more than (cap + one response) of our output in memory.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().slow_client_disconnects.value() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().slow_client_disconnects.value(), 1u);
  EXPECT_GE(server.stats().reads_paused.value(), 1u);
  EXPECT_EQ(server.stats().connections_open.value(), 0);

  // A well-behaved client on the same server is unaffected.
  auto good = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(good.has_value());
  ASSERT_TRUE(good->send_line("!gAS64500"));
  auto response = good->read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->front(), 'A');
  good->send_line("!q");
  server.stop();
}

// ---------------------------------------------------------------------------
// Input bounding
// ---------------------------------------------------------------------------

TEST_F(FaultInjection, UnterminatedOversizedLineIsRefusedAndClosed) {
  server::ServerConfig config = test_config();
  config.max_line_bytes = 1024;
  server::Server server(config, [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  // Stream an endless line with no newline: the server must refuse it from
  // the read path instead of buffering until the peer feels like stopping.
  const std::string chunk(4096, 'x');
  for (int i = 0; i < 16; ++i) {
    if (!client->send_raw(chunk)) break;  // server may already have closed
  }
  auto refusal = client->read_response();
  if (refusal.has_value()) {  // we may race the close and see only EOF
    EXPECT_EQ(*refusal, "F line too long\n");
    EXPECT_FALSE(client->read_response().has_value());
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Cache and client failpoints keep the system correct, just slower
// ---------------------------------------------------------------------------

TEST_F(FaultInjection, CacheFaultsAreCorrectnessNeutral) {
  ASSERT_TRUE(fp::configure("cache.get=error;cache.put=error"));
  server::Server server(test_config(), [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string want = query::QueryEngine(*make_corpus(kCorpusV1)).evaluate("!gAS64500");
  auto client = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->send_line("!gAS64500"));
    EXPECT_EQ(client->read_response(), want);
  }
  EXPECT_EQ(server.cache_stats().hits, 0u);  // every lookup bypassed
  client->send_line("!q");
  server.stop();
}

TEST_F(FaultInjection, ClientSendAndReadFaultsFailGracefully) {
  server::Server server(test_config(), [] { return make_corpus(kCorpusV1); });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto client = server::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());

  ASSERT_TRUE(fp::set("client.send", "1*error"));
  EXPECT_FALSE(client->send_line("!gAS64500"));
  ASSERT_TRUE(client->send_line("!gAS64500"));  // budget spent: works again

  ASSERT_TRUE(fp::set("client.read", "1*error"));
  EXPECT_FALSE(client->read_response().has_value());
  server.stop();
}

}  // namespace
}  // namespace rpslyzer
