#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "hpsbench.hpp"

namespace hpsbench {

void Result::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

Tail supported_tail(const std::vector<double>& sorted) {
  Tail t;
  t.n = sorted.size();
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(t.n) * (1 - pct / 100) >= 10) {
      t.pct = pct;
      t.value = quantile(sorted, pct / 100);
      return t;
    }
  }
  return t;
}

void Digest::add_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const core::TraceOutcome& o) {
  for (int si = 0; si < static_cast<int>(core::Scheme::kNumSchemes); ++si) {
    const core::SchemeOutcome& so = o.scheme[si];
    const std::int64_t fields[5] = {o.spec_id, si, so.total_time, so.comm_time,
                                    static_cast<std::int64_t>(so.fail_kind)};
    add_bytes(fields, sizeof fields);
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, std::int64_t trace_id) : log_(log) {
  Span s;
  s.name = std::move(name);
  s.parent = log.open_.empty() ? -1 : log.open_.back();
  s.trace_id = trace_id;
  s.start = log.now();
  id_ = static_cast<int>(log.spans_.size());
  log.spans_.push_back(std::move(s));
  log.open_.push_back(id_);
}

SpanLog::Scope::~Scope() {
  log_.spans_[static_cast<std::size_t>(id_)].end = log_.now();
  log_.open_.pop_back();
}

std::map<std::string, double> SpanLog::self_seconds(int root) const {
  // Spans are stored in open order, so a parent always precedes its children.
  std::vector<bool> inside(spans_.size(), false);
  std::vector<double> self(spans_.size(), 0);
  for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    inside[i] = static_cast<int>(i) == root ||
                (s.parent >= root && inside[static_cast<std::size_t>(s.parent)]);
    if (!inside[i]) continue;
    self[i] += s.end - s.start;
    if (static_cast<int>(i) != root) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (inside[i]) by_name[spans_[i].name] += self[i];
  return by_name;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\", \"id\": %zu, \"parent\": %d, \"trace_id\": %lld, \"start_s\": %.9f, "
                  "\"end_s\": %.9f}\n",
                  i, s.parent, static_cast<long long>(s.trace_id), s.start, s.end);
    os << "{\"name\": \"" << s.name << buf;
  }
  if (!os) throw hps::Error("cannot write spans to " + path);
}

}  // namespace hpsbench
