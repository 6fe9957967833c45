#pragma once
// Journal directory follower: polls a directory for NRTM batch files and
// feeds them to the DeltaPipeline in file-name (= serial) order.
//
// Files are processed exactly once after a successful apply or full serial
// replay. A file that fails to *parse* is poisoned by (name, size): the
// follower stops at it — preserving serial order — and retries only when
// its size changes (a writer completing a truncated upload) or it
// disappears. A file whose *apply* is refused (failpoint, internal fault)
// is retried every poll, because those refusals are transient by design.
// Either way the last-good generation keeps serving.
// As a server::GenerationSource, attach() starts the poll thread (each
// published batch reloads the server) and detach() joins it.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "rpslyzer/delta/pipeline.hpp"
#include "rpslyzer/server/server.hpp"

namespace rpslyzer::delta {

struct FollowerConfig {
  std::filesystem::path directory;
  std::chrono::milliseconds poll_interval{1000};
};

class JournalFollower final : public server::GenerationSource {
 public:
  JournalFollower(std::shared_ptr<DeltaPipeline> pipeline, FollowerConfig config);
  ~JournalFollower() override;

  JournalFollower(const JournalFollower&) = delete;
  JournalFollower& operator=(const JournalFollower&) = delete;

  /// Invoked after every batch that published a new generation, with the
  /// new serial, before the attached server is asked to reload.
  void set_activation_callback(std::function<void(std::uint64_t serial)> callback);

  /// One synchronous scan of the directory (also what the poll thread
  /// runs). Returns the number of batches that published a generation.
  std::size_t poll_now();

  /// One-line status for !stats, composed with the pipeline's line.
  std::string stats_line() const override;

  std::shared_ptr<const compile::CompiledPolicySnapshot> load() override {
    return pipeline_->current_snapshot();
  }
  void attach(server::Server& server) override;
  void detach() override;

 private:
  void run();

  std::shared_ptr<DeltaPipeline> pipeline_;
  FollowerConfig config_;
  std::function<void(std::uint64_t)> callback_;

  mutable std::mutex mutex_;  // guards the fields below
  std::set<std::string> done_;
  std::optional<std::pair<std::string, std::uintmax_t>> poisoned_;
  std::string last_error_;
  server::Server* server_ = nullptr;  // set between attach() and detach()

  std::mutex thread_mutex_;
  std::condition_variable wake_;
  std::thread thread_;
  bool stop_requested_ = false;
};

}  // namespace rpslyzer::delta
