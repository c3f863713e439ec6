#include "perfbench/src/bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <malloc.h>

namespace perfbench {

std::string SeededRng::Word() {
  static constexpr const char* kWords[] = {
      "market",  "weather", "travel", "sports", "review", "search",
      "mail",    "photos",  "video",  "music",  "games",  "finance",
      "local",   "health",  "news",   "movies", "autos",  "shopping",
      "answers", "groups",  "maps",   "jobs",   "people", "science"};
  return kWords[Below(sizeof(kWords) / sizeof(kWords[0]))];
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double total = 0;
  for (double v : values) {
    total += v;
  }
  return total / static_cast<double>(values.size());
}

double ResidentMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {

size_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

}  // namespace

MemoryReading::MemoryReading()
    : resident_mb_(ResidentMb()), heap_bytes_(HeapInUseBytes()) {}

double MemoryReading::ProgramMb(
    std::map<std::string, std::string>* facts) const {
  const double benchmark_mb = (static_cast<double>(heap_bytes_) -
                               static_cast<double>(HeapInUseBytes())) /
                              (1 << 20);
  (*facts)["process_rss_mb"] = JsonNumber(resident_mb_);
  (*facts)["benchmark_heap_mb"] = JsonNumber(benchmark_mb);
  return resident_mb_ - benchmark_mb;
}

void ReleaseFreeHeap() { malloc_trim(0); }

std::string FilesystemType(const std::string& path) {
  std::error_code ec;
  std::string target = std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream in("/proc/self/mounts");
  std::string device, mount, type, best_type = "unknown";
  size_t best_len = 0;
  std::string rest;
  while (in >> device >> mount >> type) {
    std::getline(in, rest);
    bool prefix = target == mount ||
                  (target.rfind(mount, 0) == 0 &&
                   (mount == "/" || target[mount.size()] == '/'));
    if (prefix && mount.size() >= best_len) {
      best_len = mount.size();
      best_type = type;
    }
  }
  return best_type;
}

uint32_t SpanRecorder::NameId(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  totals_.emplace_back();
  return id;
}

void SpanRecorder::Begin(std::string_view name, uint64_t id) {
  Open open{NameId(name), -1, id, 0, 0};
  if (spans_.size() < max_kept_) {
    open.kept = static_cast<int32_t>(spans_.size());
    Span span;
    span.name = open.name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back().kept;
    spans_.push_back(span);
  }
  open.start_ns = SteadyNs();
  open_.push_back(open);
}

void SpanRecorder::End() {
  int64_t end = SteadyNs();
  Open open = open_.back();
  open_.pop_back();
  int64_t duration = end - open.start_ns;
  Totals& totals = totals_[open.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.child_ns += open.child_ns;
  if (!open_.empty()) {
    open_.back().child_ns += duration;
  }
  if (open.kept >= 0) {
    spans_[open.kept].start_ns = open.start_ns;
    spans_[open.kept].end_ns = end;
  }
  ++recorded_;
}

SpanRecorder::Totals SpanRecorder::TotalsFor(std::string_view name) const {
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? Totals{} : totals_[it->second];
}

double SpanRecorder::MeanUs(std::string_view name) const {
  Totals t = TotalsFor(name);
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.total_ns) / 1e3 /
                            static_cast<double>(t.count);
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  for (const Span& span : spans_) {
    out << "{\"name\":" << JsonString(names_[span.name])
        << ",\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"host_us_per_update", "us"},   {"host_sessions_per_core", "sessions"},
      {"request_p50_us", "us"},       {"request_p99_us", "us"},
      {"sync_p50_ms", "ms"},          {"sync_p99_ms", "ms"},
      {"bytes_per_update", "B"},      {"apply_us_per_update", "us"},
      {"deliveries_per_s", "1/s"},    {"setup_s", "s"},
      {"rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"host.route_poll_empty_us", "us"},
      {"host.route_poll_content_us", "us"},
      {"host.create_session_us", "us"},
      {"host.close_session_us", "us"},
      {"obs.route_registered_us", "us"},
      {"obs.route_lite_us", "us"},
      {"obs.registry_families", "count"},
      {"http.parse_us", "us"},
      {"http.serialize_us", "us"},
      {"crypto.hmac_verify_us", "us"},
      {"browser.mutate_us", "us"},
      {"core.gen_clone_us", "us"},
      {"core.gen_absolutize_us", "us"},
      {"core.gen_cache_rewrite_us", "us"},
      {"core.gen_event_rewrite_us", "us"},
      {"core.gen_extract_us", "us"},
      {"core.gen_serialize_us", "us"},
      {"core.generate_us", "us"},
      {"core.serialize_cache_hit_ratio", "ratio"},
      {"core.reuse_ratio", "ratio"},
      {"delta.patch_ratio", "ratio"},
      {"delta.fallback_no_base", "count"},
      {"delta.fallback_oversize", "count"},
      {"delta.materialize_us", "us"},
      {"delta.diff_us", "us"},
      {"delta.encode_us", "us"},
      {"protocol.snapshot_encode_us", "us"},
      {"protocol.snapshot_decode_us", "us"},
      {"snippet.apply_us", "us"},
      {"snippet.patches_applied", "count"},
      {"snippet.resyncs", "count"},
      {"snippet.wasted_poll_bytes", "B"},
      {"transport.frames_sent", "count"},
      {"transport.frame_bytes", "B"},
      {"transport.downgrades", "count"},
      {"transport.frame_errors", "count"},
      {"transport.sync_p50_ms_poll", "ms"},
      {"transport.sync_p50_ms_frames", "ms"},
      {"persist.wal_records", "count"},
      {"persist.wal_bytes", "B"},
      {"persist.checkpoints", "count"},
      {"persist.checkpoint_us", "us"},
      {"persist.wal_append_us", "us"},
      {"net.loop_run_us", "us"},
      {"net.events_run", "count"},
      {"net.messages", "count"},
      {"net.bytes", "B"},
      {"driver.build_us", "us"},
      {"driver.lateness_p99_us", "us"},
      {"trace.attributed_share", "ratio"},
      {"trace.host_us_per_update", "us"},
      {"trace.request_p50_us", "us"},
  };
  return kMetrics;
}

void WriteSpans(const SpanRecorder& spans, const RunOptions& options) {
  if (spans.enabled()) {
    spans.WriteJsonl(options.work_dir + "/results/spans-" + options.workload +
                     "-seed" + std::to_string(options.seed) + ".jsonl");
  }
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
