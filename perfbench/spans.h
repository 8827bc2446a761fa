#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Benchmark-side spans. The benchmark wraps each call it makes into a
// tabrep layer's public API in a span (name, start, end, the span that
// caused it, and the request it belongs to), keeps them in memory, and
// writes them out once when the run ends. The reader parses that file
// back; the layer table is computed from what the reader returns, so a
// run that prints a table has round-tripped its own span file.
//
// File format (text, one record per line):
//   perfbench-spans 1
//   <id> <parent> <trace> <thread> <start_ns> <end_ns> <name>
// ids start at 1; parent 0 means a root span. Names contain no
// whitespace.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t trace = 0;   // request / work-item identifier; 0 = none
  uint32_t thread = 0;
  int64_t start_ns = 0;  // steady_clock
  int64_t end_ns = 0;
  std::string name;

  bool operator==(const SpanRecord& other) const = default;
};

/// Process-wide span store. Disabled (every call a no-op returning 0)
/// unless Enable() was called, so untraced runs pay one branch.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a closed span and returns its id (0 when disabled).
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent = 0, uint64_t trace = 0);
  /// Reserves an id for a span whose end is not known yet (a parent
  /// whose children close first); Finish() records it.
  uint64_t Reserve();
  void Finish(uint64_t id, const char* name, int64_t start_ns,
              int64_t end_ns, uint64_t parent = 0, uint64_t trace = 0);

  std::vector<SpanRecord> Snapshot() const;

 private:
  SpanRecorder() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Steady-clock nanoseconds (the clock every span uses).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII span around one call on the current thread. Nested scopes on
/// the same thread become children automatically.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t trace_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Writes `spans` in the format above. Returns false (with `error`
/// filled) when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                std::string* error);
/// Parses a span file. Returns false on a missing file, a bad header or
/// any malformed line (with the line number in `error`).
bool ReadSpans(const std::string& path, std::vector<SpanRecord>* spans,
               std::string* error);

/// One row of the layer table: all spans (or registry aggregates) of
/// one name, summed, under one parent row.
struct LayerRow {
  std::string name;
  std::string parent;  // empty = top level
  uint64_t count = 0;
  double total_us = 0.0;
};

/// Sums spans by name; a row's parent is the name of its spans'
/// parent span (the first one seen when a name has several).
std::vector<LayerRow> AggregateSpans(const std::vector<SpanRecord>& spans);

/// Renders the table: per row its total, self time (total minus its
/// children's totals), share of its parent, and coverage (children /
/// total); every row with children gets an explicit "unattributed"
/// child row holding its self time.
std::string RenderLayerTable(const std::vector<LayerRow>& rows);

/// Self time / total of the row `name`: the share its children do not
/// cover (1 for a childless row, 0 when the row is absent).
double UnattributedFrac(const std::vector<LayerRow>& rows,
                        const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
