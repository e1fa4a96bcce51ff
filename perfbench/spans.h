// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark itself, around the calls it makes into
// the simulator's public API (workload -> run -> testbed_build / run_download
// / step_loop / tcptrace / sketch_fold / checkpoint_write). Each span keeps
// its name, start and end (host ns since the recorder was created), its
// parent, the run it belongs to, and the heap allocations made inside it
// (from the bench operator-new interposer). Nothing is written until the run
// ends; a null recorder makes every Scope a no-op, which is how the timed
// (untraced) passes run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "alloc_interposer.h"

namespace mpr::perfbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0;

  struct Span {
    const char* name{""};
    std::uint32_t id{0};      // 1-based; 0 means "no span"
    std::uint32_t parent{kNoParent};
    std::uint32_t run{0};
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::uint64_t allocs{0};  // heap allocations between begin and end

    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
  };

  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint32_t run) {
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.run = run;
    s.allocs = bench::heap_allocations();
    s.start_ns = now_ns();
    spans_.push_back(s);
    return s.id;
  }

  void end(std::uint32_t id) {
    Span& s = spans_[id - 1];
    s.end_ns = now_ns();
    s.allocs = bench::heap_allocations() - s.allocs;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span. Returns false if the file cannot be
  /// written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"run\":%u,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"allocs\":%llu}\n",
                   s.name, s.id, s.parent, s.run, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.allocs));
    }
    return std::fclose(f) == 0;
  }

  /// Per span name: count, total time and self time (total minus the time
  /// covered by direct children), in recording order of first appearance.
  struct NameTotals {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
    std::uint64_t allocs{0};
  };
  [[nodiscard]] std::vector<std::pair<std::string, NameTotals>> totals_by_name() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_ns[s.parent - 1] += s.duration_ns();
    }
    std::vector<std::pair<std::string, NameTotals>> out;
    std::map<std::string, std::size_t> index;
    for (const Span& s : spans_) {
      auto [it, fresh] = index.emplace(s.name, out.size());
      if (fresh) out.emplace_back(s.name, NameTotals{});
      NameTotals& t = out[it->second].second;
      ++t.count;
      t.total_ns += s.duration_ns();
      t.self_ns += s.duration_ns() - child_ns[s.id - 1];
      t.allocs += s.allocs;
    }
    return out;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `rec` is null (tracing off).
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, std::uint32_t parent, std::uint32_t run)
      : rec_{rec}, id_{rec != nullptr ? rec->begin(name, parent, run) : 0} {}
  ~Scope() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

}  // namespace mpr::perfbench
