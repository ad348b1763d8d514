#include "trace.h"

#include <cinttypes>
#include <cstdio>

#include "common.h"

namespace pqsbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(const char* name) {
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRIu64
                 ", \"end_ns\": %" PRIu64 ", \"parent\": %" PRId64 "}%s\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pqsbench
