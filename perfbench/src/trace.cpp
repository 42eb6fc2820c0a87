#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "probes.h"

namespace perfbench {
namespace {

thread_local std::vector<int> tl_open;  // this thread's open span ids

int this_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  const std::int64_t now = steady_ns();
  const int parent = tl_open.empty() ? -1 : tl_open.back();
  int id = 0;
  {
    std::lock_guard lock(mu_);
    if (origin_ns_ < 0) origin_ns_ = now;
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now, now, parent, this_tid()});
  }
  tl_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t now = steady_ns();
  if (!tl_open.empty() && tl_open.back() == id) tl_open.pop_back();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms() const {
  std::lock_guard lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t self =
        std::max<std::int64_t>(0, s.end_ns - s.start_ns - child_ns[i]);
    out[s.name] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
