// In-memory spans recorded by the benchmark around its calls into each
// layer, written out at the end as Chrome trace-event JSON plus a per-layer
// self-time table. Timestamps are CLOCK_MONOTONIC (steady_clock) nanoseconds,
// which Linux shares across processes, so spans reported by child processes
// line up with the parent's.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span in the same process, or -1
  int pid = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per span.
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }

  /// RAII span: opened on construction under the innermost open span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  /// Spans recorded by another process, already carrying their own ids.
  void adopt(std::vector<Span> spans);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microsecond units).
  [[nodiscard]] std::string chrome_json(const std::string& metadata) const;

  struct Row {
    std::string name;
    std::uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;  ///< total minus the time covered by child spans
  };
  /// Per span name: call count, total and self time, by descending self time.
  [[nodiscard]] std::vector<Row> table() const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< indices into spans_ of the open spans
  int next_id_ = 0;
};

/// One span as a single text line ("span <id> <parent> <start> <end> <name>")
/// for the child-to-parent pipe, and back.
std::string span_line(const Span& s);
bool parse_span_line(const std::string& line, int pid, Span& out);

}  // namespace perfbench
