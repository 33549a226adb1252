// Helpers of the end-to-end benchmark: timing, order statistics, a
// minimal JSON writer and an in-memory span tracer.  Flags are parsed
// with bench/bench_util.h.
//
// Kept beside the benchmark so the benchmark builds as a package of its
// own; the library under test is linked, never modified.

#ifndef NOKXML_E2EBENCH_HARNESS_H_
#define NOKXML_E2EBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace nok {
namespace e2e {

// ---------------------------------------------------------------------------
// Timing and order statistics.

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// a / b, or 0 when b is 0 (a per-unit rate over an empty denominator).
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// ---------------------------------------------------------------------------
// JSON output (objects of numbers, strings and nested objects only).

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full precision, so a measured value keeps all its digits.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.Render());
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out once at the end.

/// Records nested spans (name, start, end, parent) around the
/// benchmark's calls into the library.  Every span carries the "row" it
/// belongs to — a query id such as "Q10" or an update batch such as
/// "B3.update" — so per-layer numbers can be cited per query.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string row;
    int parent = -1;
    double start = 0;  ///< Seconds since the tracer was created.
    double end = 0;
  };

  Tracer() : origin_(NowSeconds()) {}

  void set_row(std::string row) { row_ = std::move(row); }

  int Begin(const std::string& name) {
    Span span;
    span.name = name;
    span.row = row_;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = NowSeconds() - origin_;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes span `id`, the innermost open one.
  void End(int id) {
    spans_[static_cast<size_t>(id)].end = NowSeconds() - origin_;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part its direct
  /// children cover.
  std::vector<double> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= span.end - span.start;
      }
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string ToChromeJson() const {
    std::string out = "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject args;
      args.Str("row", s.row).Int("id", i);
      if (s.parent >= 0) args.Int("parent", static_cast<uint64_t>(s.parent));
      JsonObject event;
      event.Str("name", s.name)
          .Str("ph", "X")
          .Int("pid", 1)
          .Int("tid", 1)
          .Num("ts", s.start * 1e6)
          .Num("dur", (s.end - s.start) * 1e6)
          .Obj("args", args);
      out += (i == 0 ? "  " : ",\n  ") + event.Render();
    }
    return out + "\n]}\n";
  }

 private:
  double origin_;
  std::string row_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace e2e
}  // namespace nok

#endif  // NOKXML_E2EBENCH_HARNESS_H_
