#include "spans.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr const char* kHeader = "perfbench-spans 1";

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

thread_local uint64_t t_current_span = 0;

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

uint64_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                           uint64_t parent, uint64_t trace) {
  if (!enabled()) return 0;
  const uint64_t id = Reserve();
  Finish(id, name, start_ns, end_ns, parent, trace);
  return id;
}

uint64_t SpanRecorder::Reserve() {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Finish(uint64_t id, const char* name, int64_t start_ns,
                          int64_t end_ns, uint64_t parent, uint64_t trace) {
  if (!enabled() || id == 0) return;
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.trace = trace;
  r.thread = ThreadIndex();
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.name = name;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(r));
}

std::vector<SpanRecord> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t trace)
    : name_(name), trace_(trace) {
  SpanRecorder& rec = SpanRecorder::Get();
  if (!rec.enabled()) return;
  id_ = rec.Reserve();
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const int64_t end = NowNs();
  t_current_span = parent_;
  SpanRecorder::Get().Finish(id_, name_, start_ns_, end, parent_, trace_);
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  std::fprintf(f, "%s\n", kHeader);
  for (const SpanRecord& s : spans) {
    std::fprintf(f, "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu32
                    " %" PRId64 " %" PRId64 " %s\n",
                 s.id, s.parent, s.trace, s.thread, s.start_ns, s.end_ns,
                 s.name.c_str());
  }
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool ReadSpans(const std::string& path, std::vector<SpanRecord>* spans,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    *error = path + ": missing header '" + kHeader + "'";
    return false;
  }
  spans->clear();
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    SpanRecord s;
    std::string extra;
    if (!(fields >> s.id >> s.parent >> s.trace >> s.thread >> s.start_ns >>
          s.end_ns >> s.name) ||
        (fields >> extra) || s.id == 0 || s.end_ns < s.start_ns) {
      *error = path + ":" + std::to_string(line_no) + ": malformed span";
      return false;
    }
    spans->push_back(std::move(s));
  }
  return true;
}

std::vector<LayerRow> AggregateSpans(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  std::vector<LayerRow> rows;
  std::map<std::string, size_t> index;
  for (const SpanRecord& s : spans) {
    auto [it, inserted] = index.emplace(s.name, rows.size());
    if (inserted) {
      LayerRow row;
      row.name = s.name;
      auto parent = by_id.find(s.parent);
      if (parent != by_id.end()) row.parent = parent->second->name;
      rows.push_back(std::move(row));
    }
    LayerRow& row = rows[it->second];
    ++row.count;
    row.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  return rows;
}

namespace {

double ChildrenTotal(const std::vector<LayerRow>& rows,
                     const std::string& name, bool* has_children) {
  double sum = 0.0;
  *has_children = false;
  for (const LayerRow& r : rows) {
    if (r.parent == name) {
      sum += r.total_us;
      *has_children = true;
    }
  }
  return sum;
}

void RenderSubtree(const std::vector<LayerRow>& rows, const LayerRow& row,
                   double parent_total, int depth, std::string* out) {
  bool has_children = false;
  const double children = ChildrenTotal(rows, row.name, &has_children);
  const double self = row.total_us - children;
  char buf[256];
  const std::string label = std::string(2 * depth, ' ') + row.name;
  const double share = parent_total > 0.0 ? row.total_us / parent_total : 1.0;
  char coverage[32] = "-";
  if (has_children && row.total_us > 0.0) {
    std::snprintf(coverage, sizeof(coverage), "%.3f", children / row.total_us);
  }
  std::snprintf(buf, sizeof(buf), "%-40s %10llu %14.1f %14.1f %8.3f %9s\n",
                label.c_str(), static_cast<unsigned long long>(row.count),
                row.total_us, self, share, coverage);
  *out += buf;
  if (!has_children) return;
  for (const LayerRow& child : rows) {
    if (child.parent == row.name) {
      RenderSubtree(rows, child, row.total_us, depth + 1, out);
    }
  }
  const std::string un = std::string(2 * (depth + 1), ' ') + "unattributed";
  std::snprintf(buf, sizeof(buf), "%-40s %10s %14.1f %14.1f %8.3f %9s\n",
                un.c_str(), "-", self, self,
                row.total_us > 0.0 ? self / row.total_us : 0.0, "-");
  *out += buf;
}

}  // namespace

std::string RenderLayerTable(const std::vector<LayerRow>& rows) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-40s %10s %14s %14s %8s %9s\n", "layer",
                "count", "total_us", "self_us", "of_parent", "coverage");
  out += buf;
  for (const LayerRow& row : rows) {
    bool parent_known = false;
    for (const LayerRow& p : rows) parent_known |= (p.name == row.parent);
    if (!parent_known) RenderSubtree(rows, row, 0.0, 0, &out);
  }
  return out;
}

double UnattributedFrac(const std::vector<LayerRow>& rows,
                        const std::string& name) {
  for (const LayerRow& row : rows) {
    if (row.name != name) continue;
    bool has_children = false;
    const double children = ChildrenTotal(rows, name, &has_children);
    return row.total_us > 0.0 ? (row.total_us - children) / row.total_us : 0.0;
  }
  return 0.0;
}

}  // namespace perfbench
