#include "rpslyzer/delta/follower.hpp"

#include <fstream>
#include <sstream>

namespace rpslyzer::delta {

namespace {

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

}  // namespace

JournalFollower::JournalFollower(std::shared_ptr<DeltaPipeline> pipeline,
                                 FollowerConfig config)
    : pipeline_(std::move(pipeline)), config_(std::move(config)) {}

JournalFollower::~JournalFollower() { detach(); }

void JournalFollower::set_activation_callback(
    std::function<void(std::uint64_t serial)> callback) {
  callback_ = std::move(callback);
}

void JournalFollower::attach(server::Server& server) {
  std::scoped_lock lock(mutex_, thread_mutex_);
  server_ = &server;
  stop_requested_ = false;
  if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
}

void JournalFollower::detach() {
  {
    std::scoped_lock lock(mutex_, thread_mutex_);
    server_ = nullptr;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(thread_mutex_);
  stop_requested_ = false;  // poll_now() stays usable without the thread
}

void JournalFollower::run() {
  while (true) {
    poll_now();
    std::unique_lock<std::mutex> lock(thread_mutex_);
    if (stop_requested_) return;
    wake_.wait_for(lock, config_.poll_interval, [this] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

std::size_t JournalFollower::poll_now() {
  std::size_t published = 0;
  for (const std::filesystem::path& file : list_journal_files(config_.directory)) {
    {
      std::lock_guard<std::mutex> lock(thread_mutex_);
      if (stop_requested_) break;  // detach() is waiting: stop between batches
    }
    const std::string name = file.filename().string();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (done_.contains(name)) continue;
    }
    const auto text = read_file(file);
    if (!text.has_value()) break;  // transient read failure: retry next poll
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (poisoned_.has_value() && poisoned_->first == name &&
          poisoned_->second == text->size()) {
        break;  // still malformed, still blocking serial order
      }
    }
    std::string error;
    const auto batch = parse_journal(*text, &error);
    if (!batch.has_value()) {
      std::lock_guard<std::mutex> lock(mutex_);
      poisoned_ = {name, text->size()};
      last_error_ = name + ": " + error;
      break;
    }
    const ApplyResult result = pipeline_->apply(*batch);
    if (result.refused) {
      // Transient by contract (failpoints, internal faults roll back
      // atomically); retry this file on the next poll, keep order.
      std::lock_guard<std::mutex> lock(mutex_);
      last_error_ = name + ": " + result.error;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_.insert(name);
      poisoned_.reset();
      last_error_.clear();
    }
    if (result.applied) {
      ++published;
      if (callback_) callback_(pipeline_->applied_serial());
      std::lock_guard<std::mutex> lock(mutex_);  // held so detach() cannot race the call
      if (server_ != nullptr) server_->request_reload();
    }
  }
  return published;
}

std::string JournalFollower::stats_line() const {
  std::string line = pipeline_->stats_line();
  std::lock_guard<std::mutex> lock(mutex_);
  line += " journal=" + config_.directory.string() +
          " files_done=" + std::to_string(done_.size());
  if (poisoned_.has_value()) line += " poisoned=" + poisoned_->first;
  if (!last_error_.empty()) line += " follower_error=\"" + last_error_ + "\"";
  return line;
}

}  // namespace rpslyzer::delta
