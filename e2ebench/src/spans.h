// In-memory span recorder for the traced benchmark run. Spans are taken
// around calls into a layer's public function, grouped by the id of the
// solve or job they belong to, and written out once at the end as
// Chrome-trace JSON together with per-layer self times.
#ifndef EMP_E2EBENCH_SPANS_H_
#define EMP_E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

class SpanRecorder {
 public:
  SpanRecorder();

  /// Microseconds since the recorder was created.
  int64_t NowMicros() const;
  /// Converts a steady-clock time in seconds (NowSeconds()) to the
  /// recorder's microsecond timeline.
  int64_t ToMicros(double steady_seconds) const;

  /// Opens a span and returns its handle; `parent` is a handle or -1.
  int Begin(const std::string& name, int64_t id, int parent);
  void End(int handle);
  /// Records a span whose interval is already known.
  int Add(const std::string& name, int64_t id, int parent, int64_t start_us,
          int64_t end_us);

  /// Self time per span name, in milliseconds: each span's duration minus
  /// the part of its interval covered by its direct children.
  std::map<std::string, double> SelfMillisByName() const;
  /// Total duration of all spans named `name`, in milliseconds.
  double TotalMillis(const std::string& name) const;

  /// Chrome-trace JSON (object format); one thread row per id, and the
  /// per-layer self times under "otherData".
  std::string ToChromeJson() const;

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const std::string& name, int64_t id,
          int parent)
        : recorder_(recorder),
          handle_(recorder != nullptr ? recorder->Begin(name, id, parent)
                                      : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->End(handle_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int handle() const { return handle_; }

   private:
    SpanRecorder* recorder_;
    int handle_;
  };

 private:
  struct Span {
    std::string name;
    int64_t id = 0;
    int parent = -1;
    int64_t start_us = 0;
    int64_t end_us = -1;
  };
  double origin_seconds_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // EMP_E2EBENCH_SPANS_H_
