// Round-trip test for the span file: what WriteSpans writes, ReadSpans
// returns unchanged; malformed files are rejected, not half-read.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::SpanRecord;
  const std::string path = "spans_test.txt";

  std::vector<SpanRecord> spans = {
      {1, 0, 7, 1, 1000, 5000, "loadgen.request"},
      {2, 1, 7, 2, 1500, 4900, "net.Client"},
      {3, 0, 0, 1, -20, 0, "serve.Cluster.PublishWeights"},
      {4, 3, 18446744073709551615ull, 4294967295u, 9223372036854775000ll,
       9223372036854775807ll, "x"},
  };
  std::string error;
  Expect(perfbench::WriteSpans(path, spans, &error), "write");
  std::vector<SpanRecord> read;
  Expect(perfbench::ReadSpans(path, &read, &error), "read");
  Expect(read == spans, "round trip preserves every field");

  // Recorded spans nest by thread and survive the round trip too.
  perfbench::SpanRecorder& rec = perfbench::SpanRecorder::Get();
  rec.Enable(true);
  {
    perfbench::ScopedSpan outer("outer", 3);
    perfbench::ScopedSpan inner("inner", 3);
  }
  rec.Enable(false);
  const std::vector<SpanRecord> recorded = rec.Snapshot();
  Expect(recorded.size() == 2 && recorded[0].name == "inner" &&
             recorded[0].parent == recorded[1].id && recorded[1].parent == 0,
         "nested scopes record parent links");
  Expect(perfbench::WriteSpans(path, recorded, &error) &&
             perfbench::ReadSpans(path, &read, &error) && read == recorded,
         "recorded spans round-trip");

  const std::vector<perfbench::LayerRow> rows =
      perfbench::AggregateSpans(spans);
  Expect(rows.size() == 4 && rows[1].parent == "loadgen.request" &&
             rows[1].total_us == 3.4,
         "aggregation sums durations under the parent's name");
  Expect(perfbench::UnattributedFrac(rows, "loadgen.request") ==
             (4.0 - 3.4) / 4.0,
         "unattributed share is what children leave uncovered");

  const char* bad_files[] = {
      "",                                       // no header
      "perfbench-spans 2\n",                    // wrong version
      "perfbench-spans 1\n1 0 0 1 5 4 a\n",     // ends before it starts
      "perfbench-spans 1\n1 0 0 1 5\n",         // truncated line
      "perfbench-spans 1\n1 0 0 1 5 6 a b\n",   // trailing field
      "perfbench-spans 1\n0 0 0 1 5 6 a\n",     // id 0
  };
  for (const char* content : bad_files) {
    std::ofstream(path) << content;
    Expect(!perfbench::ReadSpans(path, &read, &error), content);
  }
  Expect(!perfbench::ReadSpans("no/such/dir/spans.txt", &read, &error),
         "missing file");
  std::remove(path.c_str());

  if (failures == 0) std::printf("spans_test: OK\n");
  return failures == 0 ? 0 : 1;
}
