// In-memory span log for the traced run.
//
// A span is one timed call the benchmark makes into a layer: a set-up, a
// run, a sampled Kernel::Step, a sampled Transform call or a probe. Spans are
// kept in memory while the run measures and written as one JSON file when it
// ends, so writing never lands inside a timed region.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock since the first call in this process.
uint64_t NowNs();

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  // index of the enclosing span, -1 for a root
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  // Opens a span now and returns its id; End(id) closes it.
  int Begin(std::string name, int parent = -1);
  void End(int id);
  // Records a span whose times were taken elsewhere.
  int Add(std::string name, int parent, uint64_t start_ns, uint64_t end_ns);

  // {"spans": [{"id", "name", "parent", "start_ns", "end_ns"}...]}; false if
  // the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
