// Spans for the traced run: each has a name, a start and end on the
// steady clock, and the span that encloses it. They are recorded around
// the benchmark's own calls into the library's public functions, kept in
// memory, and written out as JSON when the run ends. Recording is off in
// untraced runs, where Scope costs one branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pqsbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  // index into spans(), -1 for a root span
  };

  // One recorder per process, used from the main thread only.
  static Tracer& instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::int64_t open(const char* name);
  void close(std::int64_t id);

  // Writes every span as JSON; false if the file cannot be written.
  bool write_json(const std::string& path) const;

  // RAII span; a no-op while the tracer is disabled.
  class Scope {
   public:
    explicit Scope(const char* name)
        : id_(instance().enabled() ? instance().open(name) : -1) {}
    ~Scope() {
      if (id_ >= 0) instance().close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::int64_t id_;
  };

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

}  // namespace pqsbench
