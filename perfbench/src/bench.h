// Shared pieces of the repository benchmark: the driver clock, seeded
// randomness, sample statistics, the span recorder used by traced runs, and
// the metric sink that prints the final result line.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread: excludes time blocked on I/O.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// The open-loop schedule's clock: steady time minus the intervals the driver
// spent checking outputs. The oracle runs between requests on the only
// thread, so pausing the schedule while it runs is equivalent to an oracle
// that takes no time; without the pause every check would show up as
// lateness on the next request.
class DriverClock {
 public:
  int64_t Now() const { return SteadyNs() - paused_ns_; }
  void Pause() { pause_start_ = SteadyNs(); }
  void Resume() { paused_ns_ += SteadyNs() - pause_start_; }

 private:
  int64_t paused_ns_ = 0;
  int64_t pause_start_ = 0;
};

// splitmix64: a small, fully specified generator, so the same seed yields
// the same inputs on every standard library. The seed is mixed first:
// splitmix64 states one increment apart give the same sequence shifted by
// one draw, which would make neighbouring seeds near-identical.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) { state_ = Next(); }
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::string Word();

 private:
  uint64_t state_;
};

// Sample percentile by linear interpolation between closest ranks; `p` in
// [0, 100]. Sorts a copy. Empty input gives 0.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Number of equal blocks of simulated time a run is cut into. Rates and
// latency percentiles are computed per block and reported as the median
// over blocks, so a burst of interference from outside the process moves
// one block rather than the run's result. With ten blocks the run-to-run
// spread of request_p99_us was about twice that with forty.
inline constexpr int kBlocks = 40;

// Resident set size of this process in MiB (VmRSS).
double ResidentMb();
// The process's memory at the end of a measured phase. rss_mb is the
// program's share of it: the resident set less the heap bytes the benchmark
// itself held then (oracles, inputs, samples), found as the drop in the
// allocator's in-use bytes (mallinfo2) when the caller frees them.
class MemoryReading {
 public:
  MemoryReading();
  // Call once the benchmark's own memory is freed. Records the process's
  // resident set and the benchmark's heap in `facts`.
  double ProgramMb(std::map<std::string, std::string>* facts) const;

 private:
  double resident_mb_;
  size_t heap_bytes_;
};
// Returns the allocator's free pages to the system (malloc_trim), so what
// torn-down setup worlds left in the heap does not count as resident.
void ReleaseFreeHeap();
// Filesystem type (from /proc/self/mounts) of the mount holding `path`.
std::string FilesystemType(const std::string& path);

// Spans recorded by the benchmark's own files in traced runs. Each span has
// a name, start and end on the steady clock, a parent (the span open around
// it) and a shared id naming the request or update it belongs to. Raw spans
// are kept in memory up to a cap and written out at the end; every span,
// kept or not, feeds the per-name totals, so self times cover the whole run.
class SpanRecorder {
 public:
  struct Span {
    uint32_t name = 0;
    int32_t parent = -1;  // index into the kept spans, -1 = root / not kept
    uint64_t id = 0;      // request / update id
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t child_ns = 0;  // time covered by direct children
  };

  explicit SpanRecorder(bool enabled, size_t max_kept = 100000)
      : enabled_(enabled), max_kept_(max_kept) {}
  bool enabled() const { return enabled_; }

  // Spans nest strictly: End closes the most recently begun open span.
  void Begin(std::string_view name, uint64_t id);
  void End();

  Totals TotalsFor(std::string_view name) const;
  // Mean duration of one span of `name`, microseconds.
  double MeanUs(std::string_view name) const;
  uint64_t recorded() const { return recorded_; }
  // Writes the kept spans as JSON lines.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Open {
    uint32_t name;
    int32_t kept;  // index into spans_, -1 = not kept
    uint64_t id;
    int64_t start_ns;
    int64_t child_ns;
  };
  uint32_t NameId(std::string_view name);

  bool enabled_;
  size_t max_kept_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  uint64_t recorded_ = 0;
};

// RAII span over one public call; free when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name, uint64_t id)
      : recorder_(recorder->enabled() ? recorder : nullptr) {
    if (recorder_ != nullptr) {
      recorder_->Begin(name, id);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

// One metric the benchmark can print: name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};
// The end-to-end metrics every untraced run prints, and the per-layer
// metrics every traced run prints, in output order (BENCHMARK.json lists the
// same names). A per-layer metric a workload does not exercise prints 0.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// Shortest round-trip decimal form of `value` (JSON-safe: non-finite -> 0).
std::string JsonNumber(double value);
std::string JsonString(std::string_view text);

// Everything a workload reports back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  // Sim-provenance figures that must repeat exactly for one seed.
  std::map<std::string, double> sim;
  // Environment and workload facts for the result record (JSON values).
  std::map<std::string, std::string> facts;
  std::vector<std::string> failures;  // first few failure descriptions
  void Fail(std::string what) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(std::move(what));
    }
  }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

// Traced runs write their kept spans to
// <work_dir>/results/spans-<workload>-seed<n>.jsonl.
void WriteSpans(const SpanRecorder& spans, const RunOptions& options);

RunResult RunReplay(const RunOptions& options);
RunResult RunCobrowse(const RunOptions& options);
// Oracle and determinism self-checks; returns the process exit code.
int RunSelfTest(const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
