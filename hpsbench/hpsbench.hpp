// hpsbench: the repository benchmark. Four workloads measure the two
// end-to-end paths of hpcsweep — the study pipeline and a served request —
// from outside: the harness only times calls into each module's public
// functions and changes nothing under src/. See README.md for the workloads,
// the metrics and how to compare two sets of runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "serve/metrics.hpp"

namespace hpsbench {

using namespace hps;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::uint64_t seed = 42;
  double seconds = 15;  ///< measurement window of one workload
  bool traced = false;  ///< add the traced pass and report per-layer metrics
  bool smoke = false;   ///< one trace per study workload, one pass, 2 s of serve load
  std::string run_dir;     ///< scratch directory, removed when the run ends
  std::string spans_path;  ///< traced runs write their spans here (JSON lines)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports back to the parent process.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  ///< prediction digest (hex), equal across passes
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> details;  ///< printed and written to --out, not gated

  void fail(const std::string& why);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
};

// ---------------------------------------------------------------- statistics

double median(std::vector<double> v);
/// Linear-interpolated q-quantile of ascending samples; 0 when empty.
double quantile(const std::vector<double>& sorted, double q);

/// The highest of p99.99 / p99.9 / p99 / p90 / p50 that has at least ten
/// samples beyond it, so a tail is never read off a handful of points.
/// `pct` is 0 when even the median lacks that support.
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t n = 0;
};
Tail supported_tail(const std::vector<double>& sorted);

// ------------------------------------------------------------------- digest

/// FNV-1a over (spec, scheme, predicted total, predicted comm, fail kind) of
/// every outcome: two runs predicted the same thing iff their digests match.
class Digest {
 public:
  void add(const core::TraceOutcome& o);
  void add_bytes(const void* p, std::size_t n);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// -------------------------------------------------------------------- spans

/// In-memory span recorder for the traced pass. A span has a name, start,
/// end, the span that caused it, and a trace id (the corpus spec id).
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t trace_id = -1;
    double start = 0, end = 0;  ///< seconds since the log was created
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::int64_t trace_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  /// Summed self time (duration minus the time covered by child spans) per
  /// span name, over every span that descends from span `root`.
  std::map<std::string, double> self_seconds(int root) const;
  double duration(int id) const { return spans_[static_cast<std::size_t>(id)].end -
                                         spans_[static_cast<std::size_t>(id)].start; }
  int last_opened() const { return static_cast<int>(spans_.size()) - 1; }
  /// One JSON object per span. Throws hps::Error when the file cannot be written.
  void write_jsonl(const std::string& path) const;

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ------------------------------------------------------ traced layer path

/// Simulator effort summed over the traced pass, per scheme (index =
/// core::Scheme). max_queue_depth and max_active are maxima.
struct SimCounters {
  std::uint64_t des_events[4] = {};
  std::uint64_t max_queue_depth[4] = {};
  std::uint64_t packets[4] = {};
  std::uint64_t stalls[4] = {};
  std::uint64_t max_active[4] = {};
  std::uint64_t messages = 0;
  std::uint64_t rate_updates = 0;
  std::uint64_t solver_visits = 0;
};

/// One trace through the schemes with every layer called directly, inside
/// a span, in the order core::run_all_schemes calls them: features, MFACT
/// classification, machine instance, then one replay per simulator. The
/// outcome must equal run_all_schemes' (the caller compares digests).
core::TraceOutcome traced_all_schemes(const trace::Trace& t, int spec_id,
                                      const core::RunOptions& ro, SpanLog& log,
                                      SimCounters& sim);

/// Per-layer metrics shared by every workload: each layer's share of the
/// traced pass rooted at span `root`, the simulator counters and rates, the
/// Fig. 1 cost ratios and the per-scheme prediction error of `outcomes`.
void report_layers(Result& r, const SpanLog& log, int root, const SimCounters& sim,
                   const std::vector<core::TraceOutcome>& outcomes);

/// Time the study cache codec and the run-ledger rendering over `outcomes`
/// (the persistence core::run_study performs after a study) and report their
/// throughput. Flags a codec round trip that changes an outcome.
void report_persistence(Result& r, const std::vector<core::TraceOutcome>& outcomes);

/// Serving-layer metrics between two kMetrics scrapes of the daemon: each
/// phase's share of the summed request latency, and the cache and study
/// counters. The study workloads serve nothing and pass two empty scrapes,
/// which reads 0 throughout, so every workload reports the same metrics.
void report_serving(Result& r, const serve::MetricsReply& before,
                    const serve::MetricsReply& after);

/// Mean |predicted total / measured total - 1| over the ok outcomes of one
/// scheme; -1 when none ran.
double mean_error(const std::vector<core::TraceOutcome>& outcomes, core::Scheme s);
/// The same error averaged over the schemes that ran (0 when none did).
double mean_error(const std::vector<core::TraceOutcome>& outcomes);

/// Count attempted/failed trace×scheme outcomes into `r`. With `mfact_only`
/// the three simulator rows must be skipped, otherwise all four must be ok.
void tally_outcomes(Result& r, const std::vector<core::TraceOutcome>& outcomes,
                    bool mfact_only);

// ---------------------------------------------------------------- workloads

inline const char* const kWorkloads[] = {"a2a-sim", "halo-sim", "model-corpus", "serve-mix"};

/// Run one workload in this process.
Result run_study_workload(const std::string& name, const Options& opt);
Result run_serve_mix(const Options& opt);

}  // namespace hpsbench
