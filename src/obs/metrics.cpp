#include "rpslyzer/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace rpslyzer::obs {

namespace detail {
std::atomic<bool> metrics_enabled{true};
}  // namespace detail

void set_metrics_enabled(bool on) noexcept {
  detail::metrics_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

std::size_t Histogram::bucket_for(double v) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());  // end() = overflow
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  snap.buckets.resize(bounds_.size() + 1);
  // Retry until the count is stable across the pass and accounts for every
  // bucket increment the pass saw, so the sum belongs to the same samples; a
  // handful of attempts suffices unless the histogram is under sustained
  // fire. Either way the count reported is the one the buckets read add up
  // to, so count and buckets never disagree; only the sum may be off by the
  // writers in flight.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint64_t before = count_.load(std::memory_order_acquire);
    std::uint64_t bucket_total = 0;
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      bucket_total += snap.buckets[i];
    }
    snap.sum = sum_.load(std::memory_order_relaxed);
    const std::uint64_t after = count_.load(std::memory_order_acquire);
    snap.count = bucket_total;
    if (before == after && bucket_total == after) break;
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::percentile(double p,
                                       const std::vector<double>& bounds) const noexcept {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  std::uint64_t rank =
      static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Overflow-bucket hits clamp to the last finite bound.
      return i < bounds.size() ? bounds[i] : (bounds.empty() ? 0 : bounds.back());
    }
  }
  return bounds.empty() ? 0 : bounds.back();
}

std::vector<double> exponential_bounds(double start, double factor, std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

namespace {

/// Prometheus label values escape backslash, double quote, and newline.
/// Everything else — including multi-byte UTF-8 sequences — passes through
/// byte-identical, per the text exposition format.
void append_escaped(std::string& out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

/// HELP text escapes backslash and newline only (no quote escaping — HELP is
/// not quoted). An unescaped newline here would split the header line and
/// corrupt every sample after it.
void append_escaped_help(std::string& out, std::string_view help) {
  for (char c : help) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

void append_labels(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    append_escaped(out, value);
    out += '"';
  }
  out += '}';
}

void append_number(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && std::abs(v) < 9.0e15) {
    out += std::to_string(static_cast<std::int64_t>(v));
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out += buffer;
}

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

std::string sample_line(std::string_view name, std::string_view suffix,
                        const Labels& labels, double value) {
  std::string line(name);
  line += suffix;
  append_labels(line, labels);
  line += ' ';
  append_number(line, value);
  line += '\n';
  return line;
}

}  // namespace

void CollectSink::sample(std::string_view name, std::string_view help, MetricType type,
                         const Labels& labels, double value) {
  GatheredFamily& family = families_[std::string(name)];
  if (family.lines.empty()) family.type = type;
  // First *non-empty* help wins: merging a name-only registration with a
  // documented one (disjoint label sets across registries) keeps the docs.
  if (family.help.empty() && !help.empty()) family.help = std::string(help);
  family.lines.push_back(sample_line(name, "", labels, value));
}

void CollectSink::counter(std::string_view name, std::string_view help,
                          const Labels& labels, double value) {
  sample(name, help, MetricType::kCounter, labels, value);
}

void CollectSink::gauge(std::string_view name, std::string_view help,
                        const Labels& labels, double value) {
  sample(name, help, MetricType::kGauge, labels, value);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // leaked on purpose
  return *instance;
}

namespace {

bool labels_equal(const Labels& a, const Labels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second != b[i].second) return false;
  }
  return true;
}

/// Lexicographic (key, value) order, so exposition is deterministic no
/// matter what order instances were first touched in.
bool labels_less(const Labels& a, const Labels& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = families_.try_emplace(std::string(name));
  StoredFamily& family = it->second;
  if (inserted) {
    family.help = std::string(help);
    family.type = MetricType::kCounter;
  }
  for (auto& existing : family.instances) {
    if (labels_equal(existing.labels, labels) && existing.counter) {
      return *existing.counter;
    }
  }
  family.instances.push_back(
      Instance{labels, std::make_unique<Counter>(), nullptr, nullptr});
  return *family.instances.back().counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = families_.try_emplace(std::string(name));
  StoredFamily& family = it->second;
  if (inserted) {
    family.help = std::string(help);
    family.type = MetricType::kGauge;
  }
  for (auto& existing : family.instances) {
    if (labels_equal(existing.labels, labels) && existing.gauge) return *existing.gauge;
  }
  family.instances.push_back(
      Instance{labels, nullptr, std::make_unique<Gauge>(), nullptr});
  return *family.instances.back().gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                      std::vector<double> bounds, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = families_.try_emplace(std::string(name));
  StoredFamily& family = it->second;
  if (inserted) {
    family.help = std::string(help);
    family.type = MetricType::kHistogram;
  }
  for (auto& existing : family.instances) {
    if (labels_equal(existing.labels, labels) && existing.histogram) {
      return *existing.histogram;
    }
  }
  family.instances.push_back(
      Instance{labels, nullptr, nullptr, std::make_unique<Histogram>(std::move(bounds))});
  return *family.instances.back().histogram;
}

void MetricsRegistry::register_collector(Collector fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

void MetricsRegistry::gather(GatheredFamilies& out) const {
  std::vector<Collector> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, family] : families_) {
      GatheredFamily& gathered = out[name];
      if (gathered.lines.empty()) gathered.type = family.type;
      if (gathered.help.empty() && !family.help.empty()) gathered.help = family.help;
      // Render instances in label order, not first-touch order, so the page
      // is byte-stable across runs that register instances from racing
      // threads. Histogram instances emit their bucket/sum/count block as a
      // unit, which sorting whole instances (not lines) preserves.
      std::vector<const Instance*> ordered;
      ordered.reserve(family.instances.size());
      for (const Instance& inst : family.instances) ordered.push_back(&inst);
      std::sort(ordered.begin(), ordered.end(),
                [](const Instance* a, const Instance* b) {
                  return labels_less(a->labels, b->labels);
                });
      for (const Instance* inst_ptr : ordered) {
        const Instance& inst = *inst_ptr;
        if (inst.counter) {
          gathered.lines.push_back(sample_line(
              name, "", inst.labels, static_cast<double>(inst.counter->value())));
        } else if (inst.gauge) {
          gathered.lines.push_back(sample_line(
              name, "", inst.labels, static_cast<double>(inst.gauge->value())));
        } else if (inst.histogram) {
          const Histogram::Snapshot snap = inst.histogram->snapshot();
          const std::vector<double>& bounds = inst.histogram->bounds();
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i <= bounds.size(); ++i) {
            cumulative += snap.buckets[i];
            Labels with_le = inst.labels;
            if (i < bounds.size()) {
              char le[32];
              std::snprintf(le, sizeof(le), "%g", bounds[i]);
              with_le.emplace_back("le", le);
            } else {
              with_le.emplace_back("le", "+Inf");
            }
            gathered.lines.push_back(sample_line(name, "_bucket", with_le,
                                                 static_cast<double>(cumulative)));
          }
          gathered.lines.push_back(sample_line(name, "_sum", inst.labels, snap.sum));
          gathered.lines.push_back(sample_line(name, "_count", inst.labels,
                                               static_cast<double>(snap.count)));
        }
      }
    }
    collectors = collectors_;
  }
  // Collectors run outside the lock: they may take other locks (cache
  // shards, the failpoint registry) and must never nest under ours.
  CollectSink sink(out);
  for (const Collector& collect : collectors) collect(sink);
}

std::string MetricsRegistry::to_prometheus() const { return obs::to_prometheus({this}); }

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (Instance& inst : family.instances) {
      if (inst.counter) inst.counter->reset();
      if (inst.gauge) inst.gauge->reset();
      if (inst.histogram) inst.histogram->reset();
    }
  }
  collectors_.clear();
}

std::string to_prometheus(std::initializer_list<const MetricsRegistry*> registries) {
  GatheredFamilies families;
  for (const MetricsRegistry* registry : registries) {
    if (registry != nullptr) registry->gather(families);
  }
  std::string out;
  for (auto& [name, family] : families) {
    out += "# HELP " + name + " ";
    append_escaped_help(out, family.help.empty() ? std::string_view("(undocumented)")
                                                 : std::string_view(family.help));
    out += '\n';
    out += "# TYPE " + name + " ";
    out += type_name(family.type);
    out += '\n';
    // Counter/gauge families sort their sample lines so merged pages (and
    // collector output) are deterministic; histogram families keep their
    // per-instance bucket ordering, with instances already label-sorted at
    // gather time.
    if (family.type != MetricType::kHistogram) {
      std::sort(family.lines.begin(), family.lines.end());
    }
    for (const std::string& line : family.lines) out += line;
  }
  return out;
}

}  // namespace rpslyzer::obs
