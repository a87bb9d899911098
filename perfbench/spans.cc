#include "perfbench/spans.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

uint64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - epoch)
                                   .count());
}

int SpanLog::Begin(std::string name, int parent) {
  uint64_t now = NowNs();
  return Add(std::move(name), parent, now, now);
}

void SpanLog::End(int id) { spans_[id].end_ns = NowNs(); }

int SpanLog::Add(std::string name, int parent, uint64_t start_ns,
                 uint64_t end_ns) {
  spans_.push_back(Span{std::move(name), parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(std::fopen(path.c_str(), "w"),
                                                      &std::fclose);
  if (out == nullptr) {
    return false;
  }
  std::fputs("{\"spans\": [\n", out.get());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %llu, \"end_ns\": %llu}%s\n",
                 i, s.name.c_str(), s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", out.get());
  return std::ferror(out.get()) == 0;
}

}  // namespace perfbench
