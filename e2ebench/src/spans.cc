#include "spans.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json_writer.h"
#include "support.h"

namespace e2e {

SpanRecorder::SpanRecorder() : origin_seconds_(NowSeconds()) {}

int64_t SpanRecorder::NowMicros() const { return ToMicros(NowSeconds()); }

int64_t SpanRecorder::ToMicros(double steady_seconds) const {
  return static_cast<int64_t>(
      std::llround((steady_seconds - origin_seconds_) * 1e6));
}

int SpanRecorder::Begin(const std::string& name, int64_t id, int parent) {
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, now, -1});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int handle) {
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(handle)].end_us = now;
}

int SpanRecorder::Add(const std::string& name, int64_t id, int parent,
                      int64_t start_us, int64_t end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, start_us, std::max(start_us, end_us)});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::SelfMillisByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_us >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_us;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, s.end_us);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self_ms[s.name] += static_cast<double>(s.end_us - s.start_us - covered) /
                       1e3;
  }
  return self_ms;
}

double SpanRecorder::TotalMillis(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_us >= 0) {
      total += static_cast<double>(s.end_us - s.start_us) / 1e3;
    }
  }
  return total;
}

std::string SpanRecorder::ToChromeJson() const {
  const std::map<std::string, double> self_ms = SelfMillisByName();
  std::lock_guard<std::mutex> lock(mu_);
  emp::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const Span& s : spans_) {
    if (s.end_us < 0) continue;
    w.BeginInlineObject();
    w.Key("name");
    w.String(s.name);
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Int(s.start_us);
    w.Key("dur");
    w.Int(s.end_us - s.start_us);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(s.id);
    w.Key("args");
    w.BeginInlineObject();
    w.Key("id");
    w.Int(s.id);
    w.Key("parent");
    w.String(s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name
                           : "");
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("otherData");
  w.BeginObject();
  w.Key("self_ms_by_layer");
  w.BeginObject();
  for (const auto& [name, ms] : self_ms) {
    w.Key(name);
    w.Double(ms, 17);
  }
  w.EndObject();
  w.EndObject();
  w.EndObject();
  return std::move(w).TakeString() + "\n";
}

}  // namespace e2e
