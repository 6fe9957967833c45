// How generations reach rpslyzerd: each server::GenerationSource the daemon
// can be built from, run in process against a real Server. Sources: the
// plain loader, the journal follower, the replication edge, and the
// publisher decorating a loader or a follower. Also the lifetime rules the
// follower and edge threads race against: attach() after the first load,
// detach() before any fd closes. The admin answers each mode composes
// (`!stats` extra lines, `!metrics` extra families, `!repl`, `!fleet`) are
// pinned byte for byte.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <unistd.h>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/delta/follower.hpp"
#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/delta/pipeline.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/repl/edge.hpp"
#include "rpslyzer/repl/publisher.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/server/client.hpp"
#include "rpslyzer/server/server.hpp"
#include "rpslyzer/synth/churn.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer {
namespace {

namespace fp = util::failpoint;
using std::chrono::milliseconds;
using Snapshot = std::shared_ptr<const compile::CompiledPolicySnapshot>;

// ---------------------------------------------------------------------------
// Corpora, servers and a wire helper
// ---------------------------------------------------------------------------

/// A small synthetic Internet; `seed` varies the content.
struct Corpus {
  std::map<std::string, std::string> dumps;
  std::vector<std::pair<std::string, std::string>> ordered;
  std::string relationships;
  Snapshot snapshot;

  explicit Corpus(std::uint32_t seed) {
    synth::SynthConfig config;
    config.seed = seed;
    config.tier1_count = 3;
    config.tier2_count = 6;
    config.tier3_count = 15;
    config.stub_count = 60;
    config.collectors = 2;
    synth::InternetGenerator generator(config);
    for (const auto& name : synth::irr_names()) {
      dumps.emplace(name, generator.irr_dumps().at(name));
      ordered.emplace_back(name, generator.irr_dumps().at(name));
    }
    relationships = generator.caida_serial1();
    auto lyzer = std::make_shared<Rpslyzer>(Rpslyzer::from_texts(ordered, relationships));
    auto snap = lyzer->snapshot();
    snapshot = Snapshot(std::move(lyzer), snap.get());
  }
};

const Corpus& corpus_a() {
  static const Corpus c(33);
  return c;
}

const Corpus& corpus_b() {
  static const Corpus c(34);
  return c;
}

/// Serves corpus A on the first load and corpus B on every later one.
std::shared_ptr<server::LoaderSource> a_then_b() {
  auto loads = std::make_shared<std::atomic<int>>(0);
  return std::make_shared<server::LoaderSource>([loads] {
    return loads->fetch_add(1) == 0 ? corpus_a().snapshot : corpus_b().snapshot;
  });
}

server::ServerConfig test_config() {
  server::ServerConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.idle_timeout = milliseconds(0);
  return config;
}

std::unique_ptr<server::Server> started(std::shared_ptr<server::GenerationSource> source) {
  auto daemon = std::make_unique<server::Server>(test_config(), std::move(source));
  std::string error;
  EXPECT_TRUE(daemon->start(&error)) << error;
  return daemon;
}

/// One query's exact framed answer.
std::string ask(const server::Server& daemon, const std::string& query) {
  auto conn = server::Client::connect("127.0.0.1", daemon.port());
  if (!conn || !conn->send_line(query)) return "<no connection>";
  return conn->read_response().value_or("<no response>");
}

/// The `!stats` payload past the server's own last line — what the source
/// composed into it.
std::string stats_extra(const server::Server& daemon) {
  const std::string page = daemon.stats_payload();
  const std::size_t own_end = page.find('\n', page.find("\nreload-failures: ") + 1);
  return own_end == std::string::npos ? std::string() : page.substr(own_end + 1);
}

bool eventually(const std::function<bool()>& done, milliseconds budget = milliseconds(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return true;
}

class SourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::clear_all();
    dir_ = std::filesystem::temp_directory_path() /
           ("rpslyzer-source-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "journal");
  }
  void TearDown() override {
    fp::clear_all();
    std::filesystem::remove_all(dir_);
  }

  /// A follower over corpus A's delta pipeline, polling dir_/journal.
  std::shared_ptr<delta::JournalFollower> follower() {
    pipeline_ = std::make_shared<delta::DeltaPipeline>(corpus_a().ordered,
                                                       corpus_a().relationships);
    delta::FollowerConfig config;
    config.directory = dir_ / "journal";
    config.poll_interval = milliseconds(20);
    return std::make_shared<delta::JournalFollower>(pipeline_, config);
  }

  /// Writes `count` churn batches against corpus A into the journal dir
  /// (tmp + rename, as `journal synth` does, so no poll sees a torn file).
  void write_batches(std::size_t count) {
    synth::ChurnConfig config;
    config.seed = 91;
    config.ops_per_batch = 4;
    config.start_serial = next_serial_;
    synth::ChurnGenerator churn(corpus_a().dumps, config);
    for (std::size_t i = 0; i < count; ++i) {
      const delta::JournalBatch batch = churn.next_batch();
      const auto path = dir_ / "journal" / delta::journal_file_name(batch.first_serial);
      {
        std::ofstream out(path.string() + ".tmp", std::ios::binary);
        out << delta::render_journal(batch);
      }
      std::filesystem::rename(path.string() + ".tmp", path);
      next_serial_ = batch.last_serial + 1;
    }
  }

  repl::EdgeConfig edge_config(std::uint16_t origin_port) const {
    repl::EdgeConfig config;
    config.origin_port = origin_port;
    config.state_dir = dir_ / "edge";
    config.edge_id = "source-edge";
    config.poll_interval = milliseconds(50);
    config.heartbeat_period = milliseconds(40);
    config.backoff_initial = milliseconds(20);
    config.backoff_max = milliseconds(200);
    return config;
  }

  std::filesystem::path dir_;
  std::shared_ptr<delta::DeltaPipeline> pipeline_;
  std::uint64_t next_serial_ = 1;
};

// ---------------------------------------------------------------------------
// One test per source
// ---------------------------------------------------------------------------

TEST_F(SourceTest, LoaderSourceComposesNothing) {
  auto daemon =
      started(std::make_shared<server::LoaderSource>([] { return corpus_a().snapshot; }));
  EXPECT_EQ(stats_extra(*daemon), "");
  EXPECT_EQ(ask(*daemon, "!repl"), "F replication not enabled\n");
  EXPECT_EQ(ask(*daemon, "!repl.info"), "F replication not enabled\n");
  EXPECT_EQ(ask(*daemon, "!fleet"), "F fleet aggregation not enabled\n");
  EXPECT_EQ(daemon->metrics_payload().find("rpslyzer_fleet_"), std::string::npos);
  EXPECT_EQ(daemon->stats().snapshot().reloads, 0u);
}

TEST_F(SourceTest, JournalSourceReloadsOnEachPublishedBatch) {
  auto source = follower();
  std::atomic<int> activations{0};
  source->set_activation_callback([&](std::uint64_t) { ++activations; });
  auto daemon = started(source);
  EXPECT_EQ(daemon->generation(), 1u);
  EXPECT_EQ(stats_extra(*daemon), source->stats_line());
  EXPECT_NE(stats_extra(*daemon).find(" files_done=0"), std::string::npos);

  write_batches(1);
  ASSERT_TRUE(eventually([&] { return daemon->generation() == 2; }));
  EXPECT_EQ(activations.load(), 1);
  EXPECT_EQ(stats_extra(*daemon), source->stats_line());
  EXPECT_NE(stats_extra(*daemon).find(" batches=1 "), std::string::npos) << stats_extra(*daemon);
  EXPECT_EQ(ask(*daemon, "!repl"), "F replication not enabled\n");
  EXPECT_EQ(ask(*daemon, "!fleet"), "F fleet aggregation not enabled\n");
  EXPECT_EQ(daemon->metrics_payload().find("rpslyzer_fleet_"), std::string::npos);
  daemon->stop();
}

TEST_F(SourceTest, PublisherOverLoaderPublishesEveryLoad) {
  auto publisher = std::make_shared<repl::Publisher>(8192, a_then_b());
  auto daemon = started(publisher);
  EXPECT_EQ(publisher->current_info().gen, 1u);
  EXPECT_EQ(stats_extra(*daemon), "repl: role=origin gen=1 edges=0");
  EXPECT_EQ(ask(*daemon, "!repl"), publisher->handle(""));
  EXPECT_EQ(ask(*daemon, "!repl.info"), publisher->handle(".info"));
  EXPECT_EQ(ask(*daemon, "!repl.info").rfind("A", 0), 0u);
  EXPECT_EQ(ask(*daemon, "!fleet"), query::frame_response(publisher->fleet_payload()));
  const std::string metrics = daemon->metrics_payload();
  const std::string fleet = publisher->fleet_prometheus();
  ASSERT_GE(metrics.size(), fleet.size());
  EXPECT_EQ(metrics.substr(metrics.size() - fleet.size()), fleet);
  EXPECT_NE(fleet.find("rpslyzer_fleet_"), std::string::npos);

  // A reload with new content publishes generation 2; reloading the same
  // content again is deduplicated by checksum.
  EXPECT_EQ(ask(*daemon, "!reload"), "C\n");
  EXPECT_EQ(publisher->current_info().gen, 2u);
  EXPECT_EQ(ask(*daemon, "!reload"), "C\n");
  EXPECT_EQ(publisher->current_info().gen, 2u);
  EXPECT_EQ(daemon->generation(), 3u);
  EXPECT_EQ(stats_extra(*daemon), "repl: role=origin gen=2 edges=0");
}

TEST_F(SourceTest, PublisherOverJournalPrependsItsLineAndRepublishesEachBatch) {
  auto source = follower();
  auto publisher = std::make_shared<repl::Publisher>(8192, source);
  auto daemon = started(publisher);
  EXPECT_EQ(stats_extra(*daemon), "repl: role=origin gen=1 edges=0\n" + source->stats_line());
  EXPECT_EQ(ask(*daemon, "!fleet"), query::frame_response(publisher->fleet_payload()));

  write_batches(1);
  ASSERT_TRUE(eventually([&] { return daemon->generation() == 2; }));
  EXPECT_EQ(publisher->current_info().gen, 2u);
  EXPECT_EQ(stats_extra(*daemon), "repl: role=origin gen=2 edges=0\n" + source->stats_line());
  const std::string metrics = daemon->metrics_payload();
  const std::string fleet = publisher->fleet_prometheus();
  EXPECT_EQ(metrics.substr(metrics.size() - fleet.size()), fleet);
}

TEST_F(SourceTest, EdgeSourceServesFollowsAndReportsTheReplicatedGeneration) {
  auto publisher = std::make_shared<repl::Publisher>(8192, a_then_b());
  auto origin = started(publisher);
  auto edge = std::make_shared<repl::ReplicationClient>(edge_config(origin->port()));
  edge->start();
  ASSERT_TRUE(edge->wait_for_snapshot(milliseconds(10000)));
  auto daemon = started(edge);

  EXPECT_EQ(daemon->generation(), 1u);
  EXPECT_NE(ask(*daemon, "!stats").find("source=repl:1"), std::string::npos);
  EXPECT_EQ(stats_extra(*daemon), edge->stats_line());
  EXPECT_EQ(stats_extra(*daemon).rfind("repl: role=edge gen=1 origin-up=", 0), 0u);
  const std::string status = ask(*daemon, "!repl");
  EXPECT_EQ(status.rfind("A", 0), 0u);
  EXPECT_NE(status.find("\nrole: edge\norigin: 127.0.0.1:"), std::string::npos) << status;
  EXPECT_EQ(ask(*daemon, "!repl.info"), "F this instance is not an origin\n");
  EXPECT_EQ(ask(*daemon, "!fleet"), "F fleet aggregation not enabled\n");
  EXPECT_EQ(daemon->metrics_payload().find("rpslyzer_fleet_"), std::string::npos);

  // Heartbeats carry the attached server's health.
  EXPECT_TRUE(eventually([&] {
    return publisher->handle("").find("edge: source-edge gen=1 health=healthy") !=
           std::string::npos;
  })) << publisher->handle("");
  // Nothing changed between load and attach, so attach added no reload.
  EXPECT_EQ(daemon->stats().snapshot().reloads, 0u);
  EXPECT_EQ(daemon->generation(), 1u);

  // A new origin generation activates on the edge and reloads its server.
  origin->request_reload();
  ASSERT_TRUE(eventually([&] { return daemon->generation() == 2; }));
  EXPECT_TRUE(eventually(
      [&] { return ask(*daemon, "!stats").find("source=repl:2") != std::string::npos; }));
  daemon->stop();
  origin->stop();
}

/// Fires one origin publish from inside the edge's first load(), so that
/// generation activates after load() and before attach() — the window a
/// server starting on a cold edge leaves open.
class ActivateDuringFirstLoad final : public server::GenerationSource {
 public:
  ActivateDuringFirstLoad(std::shared_ptr<repl::ReplicationClient> edge,
                          std::function<void()> activate)
      : edge_(std::move(edge)), activate_(std::move(activate)) {}

  Snapshot load() override {
    Snapshot snap = edge_->load();
    if (activate_) std::exchange(activate_, nullptr)();
    return snap;
  }
  void attach(server::Server& server) override { edge_->attach(server); }
  void detach() override { edge_->detach(); }

 private:
  std::shared_ptr<repl::ReplicationClient> edge_;
  std::function<void()> activate_;
};

TEST_F(SourceTest, EdgeActivationBetweenLoadAndAttachIsNotLost) {
  auto publisher = std::make_shared<repl::Publisher>(8192, a_then_b());
  auto origin = started(publisher);
  auto edge = std::make_shared<repl::ReplicationClient>(edge_config(origin->port()));
  edge->start();
  ASSERT_TRUE(edge->wait_for_snapshot(milliseconds(10000)));
  bool activated = false;
  auto source = std::make_shared<ActivateDuringFirstLoad>(edge, [&] {
    origin->request_reload();  // publishes generation 2
    activated = eventually([&] { return edge->current()->gen == 2; });
  });

  auto daemon = started(source);
  ASSERT_TRUE(activated);
  // The server loaded generation 1; attach() must replay the activation of
  // generation 2 that no server was there to hear.
  EXPECT_TRUE(eventually([&] { return daemon->generation() == 2; }))
      << "edge still serves " << ask(*daemon, "!stats");
  EXPECT_TRUE(eventually(
      [&] { return ask(*daemon, "!stats").find("source=repl:2") != std::string::npos; }));
  daemon->stop();
  origin->stop();
}

TEST_F(SourceTest, EdgeColdStartsFromLastGoodWithoutAnOrigin) {
  {
    auto origin = started(std::make_shared<repl::Publisher>(8192, a_then_b()));
    repl::ReplicationClient first(edge_config(origin->port()));
    first.start();
    ASSERT_TRUE(first.wait_for_snapshot(milliseconds(10000)));
    first.stop();
    origin->stop();
  }
  // Port 1 on loopback refuses connections and is outside the ephemeral
  // range, so no test server can take it: the origin stays unreachable.
  auto edge = std::make_shared<repl::ReplicationClient>(edge_config(1));
  ASSERT_TRUE(edge->recover_last_good());
  auto daemon = started(edge);
  EXPECT_EQ(daemon->generation(), 1u);
  EXPECT_NE(ask(*daemon, "!stats").find("source=repl:1"), std::string::npos);
  EXPECT_EQ(stats_extra(*daemon), "repl: role=edge gen=1 origin-up=0");
  // attach() started the agent; it keeps failing to sync and keeps serving.
  EXPECT_TRUE(eventually([&] {
    return edge->status_payload().find("sync-failures: 0\n") == std::string::npos;
  }));
  EXPECT_EQ(ask(*daemon, "!repl.info"), "F this instance is not an origin\n");
  EXPECT_EQ(daemon->generation(), 1u);
  daemon->stop();
}

TEST_F(SourceTest, StopWhileTheFollowerAppliesSendsNoReloadAfterDetach) {
  // Every apply takes 25 ms, so stop() lands while batches are in flight.
  ASSERT_TRUE(fp::set("delta.apply", "delay(25ms)"));
  write_batches(12);
  auto source = follower();
  std::atomic<int> activations{0};
  source->set_activation_callback([&](std::uint64_t) { ++activations; });
  auto daemon = started(source);
  ASSERT_TRUE(eventually([&] { return activations.load() >= 2; }));
  daemon->stop();

  // detach() joined the poll thread: nothing more is applied or announced.
  const int at_stop = activations.load();
  const std::uint64_t serial_at_stop = pipeline_->applied_serial();
  std::this_thread::sleep_for(milliseconds(150));
  EXPECT_EQ(activations.load(), at_stop);
  EXPECT_EQ(pipeline_->applied_serial(), serial_at_stop);
  ASSERT_LT(serial_at_stop, next_serial_ - 1) << "stop() should land before the journal drains";

  // With the server gone, a poll applies the rest without calling into it
  // (the sanitizer builds turn any such call into a use-after-free).
  daemon.reset();
  fp::clear_all();
  const std::size_t rest = source->poll_now();
  EXPECT_GT(rest, 0u);
  EXPECT_EQ(activations.load(), at_stop + static_cast<int>(rest));
  EXPECT_EQ(pipeline_->applied_serial(), next_serial_ - 1);
}

}  // namespace
}  // namespace rpslyzer
