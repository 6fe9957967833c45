// Origin/edge snapshot replication. The pure half (backoff ladders,
// heartbeat jitter, announcement codec) is tested without a clock or a
// socket; the publisher half over its framed handler contract; and the
// integrated half with a real origin daemon and a real ReplicationClient,
// driving torn transfers and digest mismatches through the `repl.fetch` /
// `repl.verify` failpoints. Every failure path must leave the edge serving
// its last-good generation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/persist/arena.hpp"
#include "rpslyzer/persist/snapshot_io.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/repl/edge.hpp"
#include "rpslyzer/repl/protocol.hpp"
#include "rpslyzer/repl/publisher.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/server/client.hpp"
#include "rpslyzer/server/server.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/backoff.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer {
namespace {

namespace fp = util::failpoint;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Pure protocol math (the edge's reconnect stream of util::backoff)
// ---------------------------------------------------------------------------

TEST(ReconnectBackoff, IsDeterministicCappedAndJittered) {
  const milliseconds initial(100);
  const milliseconds cap(2000);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const auto a = util::backoff(attempt, initial, cap, 42 ^ util::kReconnectStream);
    const auto b = util::backoff(attempt, initial, cap, 42 ^ util::kReconnectStream);
    EXPECT_EQ(a, b) << "same inputs must give the same delay";
    EXPECT_GE(a, milliseconds(1));
    EXPECT_LE(a, cap);
    // Jitter stays within [0.75, 1.25] of the capped exponential step.
    const std::int64_t base =
        std::min<std::int64_t>(cap.count(), initial.count() << std::min(attempt, 20u));
    EXPECT_GE(a.count(), base * 3 / 4);
    EXPECT_LE(a.count(), base * 5 / 4);
  }
  // Different seeds decorrelate the schedule.
  bool any_difference = false;
  for (std::uint64_t seed = 0; seed < 16 && !any_difference; ++seed) {
    any_difference = util::backoff(3, initial, cap, seed ^ util::kReconnectStream) !=
                     util::backoff(3, initial, cap, (seed + 1) ^ util::kReconnectStream);
  }
  EXPECT_TRUE(any_difference);
  // Degenerate knobs are clamped, never UB or zero.
  EXPECT_GE(
      util::backoff(50, milliseconds(0), milliseconds(0), 7 ^ util::kReconnectStream).count(),
      1);
}

TEST(ReconnectBackoff, DoesNotPhaseLockWithReloadBackoff) {
  // An edge daemon runs both ladders off the same seed (its generation or
  // id hash); they must not produce identical schedules.
  const milliseconds initial(100);
  const milliseconds cap(60000);
  bool any_difference = false;
  for (unsigned attempt = 0; attempt < 8 && !any_difference; ++attempt) {
    any_difference = util::backoff(attempt, initial, cap, 42 ^ util::kReconnectStream) !=
                     util::backoff(attempt, initial, cap, 42);
  }
  EXPECT_TRUE(any_difference);
}

TEST(HeartbeatInterval, JitterStaysInBoundsAndVariesByTick) {
  const milliseconds base(1000);
  bool any_difference = false;
  for (std::uint64_t tick = 0; tick < 32; ++tick) {
    const auto a = repl::heartbeat_interval(base, 7, tick);
    EXPECT_EQ(a, repl::heartbeat_interval(base, 7, tick)) << "deterministic in (seed, tick)";
    EXPECT_GE(a.count(), 800);
    EXPECT_LE(a.count(), 1200);
    any_difference = any_difference || a != repl::heartbeat_interval(base, 7, tick + 1);
  }
  EXPECT_TRUE(any_difference) << "jitter must actually jitter";
  // Fleet hygiene: two edges with different seeds drift apart.
  bool seeds_differ = false;
  for (std::uint64_t tick = 0; tick < 16 && !seeds_differ; ++tick) {
    seeds_differ =
        repl::heartbeat_interval(base, 1, tick) != repl::heartbeat_interval(base, 2, tick);
  }
  EXPECT_TRUE(seeds_differ);
  EXPECT_GE(repl::heartbeat_interval(milliseconds(0), 3, 0).count(), 1);
}

TEST(ReplProtocol, Hex64RoundTripAndRejection) {
  for (const std::uint64_t v : {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
    const std::string h = repl::hex64(v);
    EXPECT_EQ(h.size(), 16u);
    const auto parsed = repl::parse_hex64(h);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(repl::parse_hex64("abc"));                 // wrong width
  EXPECT_FALSE(repl::parse_hex64("00000000000000zz"));    // bad digit
  EXPECT_FALSE(repl::parse_hex64("00000000000000AB"));    // uppercase refused
  EXPECT_FALSE(repl::parse_hex64("0000000000000000 "));   // wrong width again
}

TEST(ReplProtocol, InfoRoundTripAndGarbledAnnouncementsRefused) {
  repl::GenerationInfo info;
  info.gen = 42;
  info.build_id = 7;
  info.checksum = 0x1111222233334444ull;
  info.digest = 0x5555666677778888ull;
  info.size = 290640;
  info.chunk_bytes = 262144;

  const std::string payload = repl::render_info(info);
  const auto parsed = repl::parse_info(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->gen, info.gen);
  EXPECT_EQ(parsed->build_id, info.build_id);
  EXPECT_EQ(parsed->checksum, info.checksum);
  EXPECT_EQ(parsed->digest, info.digest);
  EXPECT_EQ(parsed->size, info.size);
  EXPECT_EQ(parsed->chunk_bytes, info.chunk_bytes);
  EXPECT_TRUE(parsed->same_content(info));

  // Unknown keys are forward-compatible noise.
  EXPECT_TRUE(repl::parse_info(payload + "future-key: whatever\n").has_value());
  // A half-garbled announcement can never start a transfer.
  EXPECT_FALSE(repl::parse_info(""));
  EXPECT_FALSE(repl::parse_info("gen: 42\n"));                          // missing fields
  EXPECT_FALSE(repl::parse_info(payload + "gen: 43\n"));                // duplicate key
  std::string bad = payload;
  bad.replace(bad.find("size: 290640"), 12, "size: 29064x");            // bad digit
  EXPECT_FALSE(repl::parse_info(bad));
  std::string zero = payload;
  zero.replace(zero.find("gen: 42"), 7, "gen: 0");                      // gen 0 reserved
  EXPECT_FALSE(repl::parse_info(zero));
}

// ---------------------------------------------------------------------------
// Shared tiny corpus
// ---------------------------------------------------------------------------

struct Corpus {
  std::shared_ptr<Rpslyzer> lyzer;
  std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot;

  explicit Corpus(std::uint32_t seed = 33) {
    synth::SynthConfig config;
    config.seed = seed;
    config.tier1_count = 3;
    config.tier2_count = 6;
    config.tier3_count = 15;
    config.stub_count = 60;
    config.collectors = 2;
    synth::InternetGenerator generator(config);
    std::vector<std::pair<std::string, std::string>> ordered;
    for (const auto& name : synth::irr_names()) {
      ordered.emplace_back(name, generator.irr_dumps().at(name));
    }
    lyzer = std::make_shared<Rpslyzer>(
        Rpslyzer::from_texts(ordered, generator.caida_serial1()));
    snapshot = lyzer->snapshot();
  }
};

Corpus& corpus() {
  static Corpus c;
  return c;
}

// ---------------------------------------------------------------------------
// Publisher handler contract (no sockets)
// ---------------------------------------------------------------------------

TEST(Publisher, AnnouncesNothingBeforeFirstPublish) {
  repl::Publisher pub;
  EXPECT_EQ(pub.handle(".info"), "D\n");
  EXPECT_EQ(pub.handle(".fetch 1 0 100"), "F nothing published yet\n");
  EXPECT_EQ(pub.current_info().gen, 0u);
  EXPECT_NE(pub.handle("").find("role: origin"), std::string::npos);
}

TEST(Publisher, DeduplicatesIdenticalContentByChecksum) {
  repl::Publisher pub;
  EXPECT_EQ(pub.publish(*corpus().snapshot), 1u);
  // Same content again (even via a different snapshot object with a fresh
  // build id, as a reload of unchanged dumps would produce): same gen.
  Corpus again(33);
  EXPECT_EQ(pub.publish(*again.snapshot), 1u);
  EXPECT_EQ(pub.current_info().gen, 1u);
  // Different content bumps the generation.
  Corpus changed(34);
  EXPECT_EQ(pub.publish(*changed.snapshot), 2u);
}

TEST(Publisher, ChunkedFetchReassemblesToTheExactImage) {
  repl::Publisher pub(8192);
  pub.publish(*corpus().snapshot);
  const repl::GenerationInfo info = pub.current_info();
  ASSERT_GT(info.size, info.chunk_bytes) << "corpus must need several chunks";

  std::string image;
  std::uint64_t offset = 0;
  while (offset < info.size) {
    const std::uint64_t len = std::min<std::uint64_t>(info.chunk_bytes, info.size - offset);
    const std::string resp = pub.handle(".fetch " + std::to_string(info.gen) + " " +
                                        std::to_string(offset) + " " + std::to_string(len));
    ASSERT_EQ(resp.front(), 'A') << resp;
    const std::size_t nl = resp.find('\n');
    ASSERT_NE(nl, std::string::npos);
    ASSERT_EQ(resp.substr(1, nl - 1), std::to_string(len)) << "exact chunk length";
    ASSERT_EQ(resp.substr(resp.size() - 2), "C\n");
    image += resp.substr(nl + 1, resp.size() - nl - 3);
    offset += len;
  }
  ASSERT_EQ(image.size(), info.size);
  EXPECT_EQ(persist::digest64(std::string_view(image)), info.digest);
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, image.data() + persist::kChecksumOffset, sizeof(checksum));
  EXPECT_EQ(checksum, info.checksum) << "announced checksum is the header field";
}

TEST(Publisher, RefusesBadRangesWrongGenerationsAndMalformedVerbs) {
  repl::Publisher pub(8192);
  pub.publish(*corpus().snapshot);
  const repl::GenerationInfo info = pub.current_info();
  const std::string gen = std::to_string(info.gen);
  EXPECT_EQ(pub.handle(".fetch " + gen + " 0 0"), "F bad range\n");
  EXPECT_EQ(pub.handle(".fetch " + gen + " " + std::to_string(info.size) + " 1"),
            "F bad range\n");
  EXPECT_EQ(pub.handle(".fetch " + gen + " 0 " + std::to_string(info.chunk_bytes + 1)),
            "F bad range\n") << "a chunk larger than announced is refused";
  EXPECT_EQ(pub.handle(".fetch 99 0 100"), "F generation 99 is not current\n");
  EXPECT_EQ(pub.handle(".fetch 1 0"), "F fetch expects <gen> <offset> <length>\n");
  EXPECT_EQ(pub.handle(".fetch a b c"), "F fetch expects numeric <gen> <offset> <length>\n");
  EXPECT_EQ(pub.handle(".nonsense"), "F unknown repl verb\n");
  EXPECT_EQ(pub.handle(".beat e1 notanumber healthy 1.0"),
            "F beat expects a numeric generation\n");
}

TEST(Publisher, HeartbeatsPopulateTheFleetTable) {
  repl::Publisher pub;
  pub.publish(*corpus().snapshot);
  EXPECT_EQ(pub.handle(".beat edge-a 1 healthy 12.5"), "C\n");
  EXPECT_EQ(pub.handle(".beat edge-b 1 degraded 0.0"), "C\n");
  EXPECT_EQ(pub.handle(".beat edge-a 1 healthy 14.0"), "C\n");  // update, not dup
  const std::string page = pub.handle("");
  EXPECT_NE(page.find("edges: 2"), std::string::npos) << page;
  EXPECT_NE(page.find("edge: edge-a gen=1 health=healthy qps=14.0"), std::string::npos)
      << page;
  EXPECT_NE(page.find("edge: edge-b gen=1 health=degraded"), std::string::npos) << page;
  EXPECT_NE(pub.stats_line().find("role=origin gen=1 edges=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Heartbeat metric digests + fleet aggregation (PR 8)
// ---------------------------------------------------------------------------

repl::MetricDigest test_digest(std::uint64_t queries, std::uint64_t hits,
                               std::uint64_t misses,
                               std::vector<std::uint64_t> buckets) {
  repl::MetricDigest digest;
  digest.queries_total = queries;
  digest.cache_hits = hits;
  digest.cache_misses = misses;
  digest.recorder_drops = 2;
  digest.heartbeat_ms = 100;
  digest.latency_sum_micros = queries * 50;
  digest.latency_buckets = std::move(buckets);
  for (const std::uint64_t count : digest.latency_buckets) {
    digest.latency_count += count;
  }
  return digest;
}

TEST(ReplProtocol, DigestRoundTripAndGarbledTokensRefused) {
  const repl::MetricDigest digest = test_digest(100, 60, 40, {90, 9, 1});
  const std::string token = repl::render_digest(digest);
  EXPECT_EQ(token.find(' '), std::string::npos) << "must survive split_fields";
  const auto parsed = repl::parse_digest(token);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->queries_total, 100u);
  EXPECT_EQ(parsed->cache_hits, 60u);
  EXPECT_EQ(parsed->cache_misses, 40u);
  EXPECT_EQ(parsed->recorder_drops, 2u);
  EXPECT_EQ(parsed->heartbeat_ms, 100u);
  EXPECT_EQ(parsed->latency_count, 100u);
  EXPECT_EQ(parsed->latency_sum_micros, 5000u);
  EXPECT_EQ(parsed->latency_buckets, (std::vector<std::uint64_t>{90, 9, 1}));

  // Unknown keys are forward-compatible noise; `lb` is optional.
  EXPECT_TRUE(repl::parse_digest(token + ";zz=5").has_value());
  EXPECT_TRUE(
      repl::parse_digest("v1;qt=1;ch=1;cm=0;rd=0;hb=50;lc=1;ls=9").has_value());

  // A garbled digest refuses the whole token.
  EXPECT_FALSE(repl::parse_digest(""));
  EXPECT_FALSE(repl::parse_digest("v2;qt=1;ch=1;cm=0;rd=0;hb=50;lc=1;ls=9"));
  EXPECT_FALSE(repl::parse_digest("v1;qt=1;ch=1;cm=0;rd=0;hb=50;lc=1"));  // ls missing
  EXPECT_FALSE(repl::parse_digest(token + ";qt=7"));                      // duplicate
  EXPECT_FALSE(repl::parse_digest("v1;qt=bogus;ch=1;cm=0;rd=0;hb=50;lc=1;ls=9"));
  EXPECT_FALSE(repl::parse_digest("v1;qt=1;ch=1;cm=0;rd=0;hb=50;lc=1;ls=9;lb=1:x"));
}

TEST(Publisher, BeatDigestsFeedFleetAggregation) {
  repl::Publisher pub;
  pub.publish(*corpus().snapshot);
  pub.set_latency_bounds({0.001, 0.01});  // 2 bounds → 3 buckets incl. +Inf

  const repl::MetricDigest da = test_digest(100, 60, 40, {90, 9, 1});
  const repl::MetricDigest db = test_digest(50, 30, 20, {40, 9, 1});
  EXPECT_EQ(pub.handle(".beat edge-a 1 healthy 12.5 " + repl::render_digest(da)),
            "C\n");
  EXPECT_EQ(pub.handle(".beat edge-b 1 healthy 4.5 " + repl::render_digest(db)),
            "C\n");
  // A garbled digest refuses the beat and must not register the edge.
  EXPECT_EQ(pub.handle(".beat edge-c 1 healthy 1.0 v1;qt=bogus"),
            "F beat digest is malformed\n");

  const std::string page = pub.fleet_payload();
  EXPECT_NE(page.find("edges: 2 stale=0"), std::string::npos) << page;
  // The invariant the chaos harness reconciles: lookups = hits + evaluations,
  // each the sum over non-stale edges.
  EXPECT_NE(page.find("totals: queries=150 lookups=150 hits=90 evaluations=60 "
                      "recorder-drops=4"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("samples=150"), std::string::npos) << page;
  EXPECT_NE(page.find("edge: edge-a gen=1 health=healthy qps=12.5 queries=100 "
                      "hits=60 evaluations=40"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("edge: edge-b gen=1"), std::string::npos) << page;

  // A legacy 4-field beat refreshes liveness but keeps the stored digest.
  EXPECT_EQ(pub.handle(".beat edge-a 1 healthy 13.0"), "C\n");
  EXPECT_NE(pub.fleet_payload().find("totals: queries=150"), std::string::npos);

  // The Prometheus page carries per-edge labelled series and the merged
  // fleet histogram.
  const std::string prom = pub.fleet_prometheus();
  EXPECT_NE(prom.find("rpslyzer_fleet_edges 2\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("rpslyzer_fleet_queries_total{edge=\"edge-a\"} 100\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("rpslyzer_fleet_cache_hits_total{edge=\"edge-b\"} 30\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE rpslyzer_fleet_latency_seconds histogram\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("rpslyzer_fleet_latency_seconds_bucket{le=\"+Inf\"} 150\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("rpslyzer_fleet_latency_seconds_count 150\n"),
            std::string::npos)
      << prom;
}

TEST(Publisher, StaleEdgesDropOutOfFleetTotals) {
  repl::Publisher pub;
  pub.publish(*corpus().snapshot);
  pub.set_latency_bounds({0.001, 0.01});

  // hb=100 in the digest → stale after 4×max(100, 250) = 1000 ms.
  const repl::MetricDigest da = test_digest(100, 60, 40, {90, 9, 1});
  const repl::MetricDigest db = test_digest(50, 30, 20, {40, 9, 1});
  EXPECT_EQ(pub.handle(".beat edge-a 1 healthy 12.5 " + repl::render_digest(da)),
            "C\n");
  std::this_thread::sleep_for(milliseconds(1100));
  EXPECT_EQ(pub.handle(".beat edge-b 1 healthy 4.5 " + repl::render_digest(db)),
            "C\n");

  // The SIGKILLed-edge contract: the silent edge's row stays visible but
  // stale-marked, and its counters leave the totals and the merged
  // histogram rather than poisoning the fleet p99.
  const std::string page = pub.fleet_payload();
  EXPECT_NE(page.find("edges: 2 stale=1"), std::string::npos) << page;
  EXPECT_NE(page.find("totals: queries=50 lookups=50 hits=30 evaluations=20"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("samples=50"), std::string::npos) << page;
  const std::size_t row_a = page.find("edge: edge-a ");
  ASSERT_NE(row_a, std::string::npos);
  EXPECT_NE(page.find("stale=1", row_a), std::string::npos) << page;
  EXPECT_NE(pub.fleet_prometheus().find("rpslyzer_fleet_edges_stale 1\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Integrated origin daemon + edge client
// ---------------------------------------------------------------------------

server::ServerConfig origin_config() {
  server::ServerConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.idle_timeout = milliseconds(0);
  return config;
}

/// One origin daemon publishing through the library decorator exactly as
/// `serve --publish` does: every successful load republishes.
struct Origin {
  std::shared_ptr<repl::Publisher> publisher;
  std::unique_ptr<server::Server> daemon;

  explicit Origin(std::shared_ptr<const compile::CompiledPolicySnapshot> snap)
      : publisher(std::make_shared<repl::Publisher>(
            8192, std::make_shared<server::LoaderSource>([snap] { return snap; }))),
        daemon(std::make_unique<server::Server>(origin_config(), publisher)) {
    std::string error;
    if (!daemon->start(&error)) throw std::runtime_error("origin start: " + error);
  }
};

/// Holds a loopback TCP port without listening on it: a connect() to it is
/// refused, and no other socket is bound to it by a port-0 bind, while this
/// lives. A dead origin's port is otherwise free for the kernel to hand to
/// the next server that binds port 0 (say, a test running in parallel),
/// which an edge still dialing that port would then reach.
class PortHold {
 public:
  explicit PortHold(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) return;
    int one = 1;  // the dead origin's connections may linger in TIME_WAIT
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bound_ = ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  PortHold(const PortHold&) = delete;
  PortHold& operator=(const PortHold&) = delete;
  ~PortHold() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool bound() const noexcept { return bound_; }

 private:
  int fd_;
  bool bound_ = false;
};

repl::EdgeConfig edge_config(std::uint16_t port, const std::filesystem::path& dir) {
  repl::EdgeConfig config;
  config.origin_port = port;
  config.state_dir = dir;
  config.edge_id = "test-edge";
  config.poll_interval = milliseconds(50);
  config.heartbeat_period = milliseconds(40);
  config.backoff_initial = milliseconds(20);
  config.backoff_max = milliseconds(200);
  return config;
}

class ReplIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::clear_all();
    dir_ = std::filesystem::temp_directory_path() /
           ("rpslyzer-repl-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    fp::clear_all();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

TEST_F(ReplIntegration, EdgeDownloadsVerifiesActivatesAndHeartbeats) {
  Origin origin(corpus().snapshot);
  repl::ReplicationClient client(edge_config(origin.daemon->port(), dir_));
  std::atomic<int> activations{0};
  client.set_activation_callback([&](const repl::Current&) { ++activations; });
  client.set_local_state([] {
    repl::LocalState state;
    state.health = "healthy";
    state.queries_total = 100;
    return state;
  });
  client.start();
  ASSERT_TRUE(client.wait_for_snapshot(milliseconds(10000)));
  const auto cur = client.current();
  ASSERT_TRUE(cur.has_value());
  EXPECT_EQ(cur->gen, 1u);
  EXPECT_EQ(activations.load(), 1);
  EXPECT_TRUE(client.origin_up());

  // The downloaded file is a loadable snapshot with the repl source label,
  // answering queries identically to the origin's in-memory snapshot.
  auto loaded = persist::open_snapshot(cur->path, "repl:" + std::to_string(cur->gen));
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->source(), "repl:1");
  // (Query-engine byte-identity over a loaded snapshot is covered by
  // persist_test; the whole-file digest already proves byte identity here.)

  // Heartbeats reach the origin's fleet table.
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    seen = origin.publisher->handle("").find("edge: test-edge gen=1") != std::string::npos;
    if (!seen) std::this_thread::sleep_for(milliseconds(20));
  }
  EXPECT_TRUE(seen) << origin.publisher->handle("");

  // The edge status page reflects a healthy replica.
  const std::string status = client.status_payload();
  EXPECT_NE(status.find("role: edge"), std::string::npos);
  EXPECT_NE(status.find("origin-up: 1"), std::string::npos);
  EXPECT_NE(status.find("gen: 1"), std::string::npos);
  client.stop();
}

TEST_F(ReplIntegration, TruncatedTransferResumesAtItsOffset) {
  Origin origin(corpus().snapshot);
  // First chunk torn after 1000 bytes: the sync fails, the partial stays,
  // and the next poll resumes from byte 1000 instead of restarting.
  ASSERT_TRUE(fp::set("repl.fetch", "1*truncate(1000)"));
  repl::ReplicationClient client(edge_config(origin.daemon->port(), dir_));
  client.start();
  ASSERT_TRUE(client.wait_for_snapshot(milliseconds(10000)));
  const std::string status = client.status_payload();
  EXPECT_NE(status.find("resumes: 1"), std::string::npos) << status;
  EXPECT_NE(status.find("sync-failures: 1"), std::string::npos) << status;
  // The resumed file still verifies byte-perfect.
  const auto cur = client.current();
  ASSERT_TRUE(cur.has_value());
  EXPECT_NE(persist::open_snapshot(cur->path), nullptr);
  client.stop();
}

TEST_F(ReplIntegration, FetchErrorsBackOffWithoutPoisoningTheNextSync) {
  Origin origin(corpus().snapshot);
  ASSERT_TRUE(fp::set("repl.fetch", "2*error(injected fetch fault)"));
  repl::ReplicationClient client(edge_config(origin.daemon->port(), dir_));
  client.start();
  ASSERT_TRUE(client.wait_for_snapshot(milliseconds(10000)));
  EXPECT_NE(client.status_payload().find("sync-failures: 2"), std::string::npos)
      << client.status_payload();
  client.stop();
}

TEST_F(ReplIntegration, DigestMismatchIsRefusedThenRetried) {
  Origin origin(corpus().snapshot);
  // The first completed download fails whole-file verification; the edge
  // must throw the poison away and succeed on the retry.
  ASSERT_TRUE(fp::set("repl.verify", "1*error"));
  repl::ReplicationClient client(edge_config(origin.daemon->port(), dir_));
  client.start();
  ASSERT_TRUE(client.wait_for_snapshot(milliseconds(10000)));
  const std::string status = client.status_payload();
  EXPECT_NE(status.find("verify-failures: 1"), std::string::npos) << status;
  const auto cur = client.current();
  ASSERT_TRUE(cur.has_value());
  EXPECT_NE(persist::open_snapshot(cur->path), nullptr);
  client.stop();
}

TEST_F(ReplIntegration, EdgeServesLastGoodThroughOriginOutageAndRecoversFromDisk) {
  std::uint16_t port = 0;
  std::optional<PortHold> outage;  // keeps the dead origin's port dead
  {
    Origin origin(corpus().snapshot);
    port = origin.daemon->port();
    repl::ReplicationClient client(edge_config(port, dir_));
    client.start();
    ASSERT_TRUE(client.wait_for_snapshot(milliseconds(10000)));
    client.stop();
    origin.daemon->stop();
    outage.emplace(port);
    ASSERT_TRUE(outage->bound()) << "port " << port;
  }  // origin gone, edge process "crashed"

  // A fresh client on the same state dir recovers last-good without any
  // origin at all, and keeps serving while sync attempts fail.
  repl::ReplicationClient client(edge_config(port, dir_));
  EXPECT_TRUE(client.recover_last_good());
  const auto cur = client.current();
  ASSERT_TRUE(cur.has_value());
  EXPECT_EQ(cur->gen, 1u);
  EXPECT_NE(persist::open_snapshot(cur->path), nullptr);
  client.start();
  std::this_thread::sleep_for(milliseconds(150));
  EXPECT_FALSE(client.origin_up());
  EXPECT_TRUE(client.current().has_value()) << "outage must not drop last-good";
  client.stop();

  // A corrupted last-good file is discarded, not served.
  {
    std::fstream f(dir_ / "current.rps", std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x5a');
  }
  repl::ReplicationClient fresh(edge_config(port, dir_));
  EXPECT_FALSE(fresh.recover_last_good());
  EXPECT_FALSE(fresh.current().has_value());
}

TEST_F(ReplIntegration, DaemonAnswersReplVerbsOnlyWhenWired) {
  Origin origin(corpus().snapshot);
  auto conn = server::Client::connect("127.0.0.1", origin.daemon->port());
  ASSERT_TRUE(conn.has_value());
  ASSERT_TRUE(conn->send_line("!repl"));
  auto resp = conn->read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->find("role: origin"), std::string::npos);
  // !stats grows the repl line.
  ASSERT_TRUE(conn->send_line("!stats"));
  resp = conn->read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->find("repl: role=origin gen=1"), std::string::npos) << *resp;

  // A daemon with no repl role refuses the verbs.
  server::Server plain(origin_config(), [] { return corpus().snapshot; });
  std::string error;
  ASSERT_TRUE(plain.start(&error)) << error;
  auto conn2 = server::Client::connect("127.0.0.1", plain.port());
  ASSERT_TRUE(conn2.has_value());
  ASSERT_TRUE(conn2->send_line("!repl.info"));
  resp = conn2->read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(*resp, "F replication not enabled\n");
  plain.stop();
}

}  // namespace
}  // namespace rpslyzer
