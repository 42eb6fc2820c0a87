// In-memory span recorder for the traced run. Spans are kept in a vector
// (name, start, end, parent, thread) and written out once, at exit, as
// Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) and
// chrome://tracing open directly. While disabled, begin() is one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int tid = 0;
};

class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }

  /// Opens a span under the calling thread's innermost open span and
  /// returns its id (-1 while disabled).
  int begin(const char* name);
  void end(int id);

  /// Per span name: total duration minus the time its child spans cover,
  /// in ms, summed over all spans of that name.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Writes every span as Chrome trace-event JSON. Returns false on an
  /// I/O error.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::int64_t origin_ns_ = -1;  // guarded by mu_
};

/// The process-wide tracer the wrappers and episodes record into.
Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(tracer().begin(name)) {}
  ~ScopedSpan() { tracer().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
