#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

namespace tigervector::obs {

namespace {
thread_local QueryTrace* g_current_trace = nullptr;
thread_local uint32_t g_span_depth = 0;
}  // namespace

uint32_t ThreadSlot() {
  static std::atomic<uint32_t> next_slot{0};
  thread_local const uint32_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) + 1;
  return slot;
}

void QueryTrace::RecordSpan(const char* name, uint32_t depth, double micros) {
  // Legacy duration-only entry point: place the span as ending "now".
  const double end_micros =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                origin_)
          .count();
  RecordSpanAt(name, depth, std::max(0.0, end_micros - micros), micros);
}

void QueryTrace::RecordSpanAt(const char* name, uint32_t depth, double start_micros,
                              double micros) {
  const uint32_t tid = ThreadSlot();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, depth, micros, start_micros, tid});
}

void QueryTrace::AddCounter(const char* name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

std::vector<QueryTrace::Span> QueryTrace::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, uint64_t> QueryTrace::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::string QueryTrace::Render() const {
  std::map<std::string, double> micros;
  std::map<std::string, size_t> calls;
  std::map<std::string, uint64_t> counters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      micros[s.name] += s.micros;
      ++calls[s.name];
    }
    counters = counters_;
  }
  std::ostringstream out;
  out << "stage                              total_ms     calls\n";
  for (const auto& [name, us] : micros) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-34s %9.3f %9zu\n", name.c_str(), us / 1e3,
                  calls[name]);
    out << line;
  }
  for (const auto& [name, value] : counters) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-34s %9llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out << line;
  }
  return out.str();
}

void QueryTrace::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  counters_.clear();
}

QueryTrace* CurrentTrace() { return g_current_trace; }

ScopedTraceActivation::ScopedTraceActivation(QueryTrace* trace)
    : prev_(g_current_trace), prev_depth_(g_span_depth) {
  if (trace != nullptr) {
    g_current_trace = trace;
    // Spans recorded on a worker thread start a fresh depth chain; the
    // per-span thread slot keeps concurrent workers' chains attributable.
    if (trace != prev_) g_span_depth = 0;
  }
}

ScopedTraceActivation::~ScopedTraceActivation() {
  g_current_trace = prev_;
  g_span_depth = prev_depth_;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name), trace_(g_current_trace) {
  if (trace_ != nullptr) {
    depth_ = g_span_depth++;
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  --g_span_depth;
  const auto end = std::chrono::steady_clock::now();
  const double micros =
      std::chrono::duration<double, std::micro>(end - start_).count();
  const double start_micros =
      std::chrono::duration<double, std::micro>(start_ - trace_->origin()).count();
  trace_->RecordSpanAt(name_, depth_, std::max(0.0, start_micros), micros);
}

void RecordSpanMicros(const char* name, double micros) {
  QueryTrace* trace = g_current_trace;
  if (trace == nullptr) return;
  trace->RecordSpan(name, g_span_depth, micros);
}

}  // namespace tigervector::obs
