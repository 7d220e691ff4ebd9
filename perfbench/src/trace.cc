#include "src/trace.h"

#include <time.h>

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

thread_local int64_t tls_current_span = 0;
thread_local int64_t tls_current_request = 0;

uint32_t ThreadNumber() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out->push_back(c);
  }
}

}  // namespace

double SpanRecord::Count(const std::string& key) const {
  for (const auto& [k, v] : counts) {
    if (k == key) return v;
  }
  return 0.0;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void Tracer::Record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof(head),
                    "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"name\":\"",
                    s.thread, s.start_ns / 1e3,
                    (s.end_ns - s.start_ns) / 1e3);
      out += head;
      AppendEscaped(&out, s.name);
      char ids[160];
      std::snprintf(ids, sizeof(ids),
                    "\",\"args\":{\"id\":%lld,\"parent\":%lld,"
                    "\"request\":%lld",
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.request));
      out += ids;
      for (const auto& [k, v] : s.counts) {
        out += ",\"";
        AppendEscaped(&out, k);
        char num[64];
        std::snprintf(num, sizeof(num), "\":%.17g", v);
        out += num;
      }
      out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
    }
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

Span::Span(const char* name, int64_t request)
    : name_(name), start_ns_(Tracer::Get().NowNs()) {
  saved_request_ = tls_current_request;
  if (request != 0) tls_current_request = request;
  if (!Tracer::Get().enabled()) return;
  id_ = Tracer::Get().NextId();
  parent_ = tls_current_span;
  request_ = tls_current_request;
  tls_current_span = id_;
}

Span::~Span() {
  tls_current_request = saved_request_;
  if (id_ == 0) return;
  tls_current_span = parent_;
  SpanRecord r;
  r.name = name_;
  r.start_ns = start_ns_;
  r.end_ns = Tracer::Get().NowNs();
  r.id = id_;
  r.parent = parent_;
  r.request = request_;
  r.thread = ThreadNumber();
  r.counts = std::move(counts_);
  Tracer::Get().Record(std::move(r));
}

void Span::Count(const char* key, double value) {
  if (id_ != 0) counts_.emplace_back(key, value);
}

double Span::ElapsedMs() const {
  return (Tracer::Get().NowNs() - start_ns_) / 1e6;
}

}  // namespace perfbench
