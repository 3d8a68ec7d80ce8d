// serve-mix: an embedded hpcsweepd under an open-loop request mix.
//
// Set-up starts the daemon (2 dispatchers, durable spill cache in the run
// directory) and warms eight hot study keys. The load then comes from four
// client threads, each holding at most one connection and opening a fresh
// one every 64 requests: request i is due at start + i / rate whether or not
// earlier requests finished, and its latency is timed from that due time, so
// a stall also charges the requests queued behind it. 98% of requests ask
// for a hot key (cache hit: decode, lookup and stream); every 50th asks for a
// fresh seed (miss: queueing, study execution, cache insert and a spill
// write beside those reads). Phase A holds a fixed rate; phase B bisects the
// highest rate that still meets the latency limits.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <sys/resource.h>

#include "common/rng.hpp"
#include "core/study.hpp"
#include "hpsbench.hpp"
#include "obs/ledger.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads/corpus.hpp"

namespace hpsbench {

namespace {

constexpr int kHotKeys = 8;
constexpr int kHotLimit = 12;
constexpr int kMissLimit = 2;
constexpr double kScale = 0.05;
constexpr std::uint64_t kMissEvery = 50;  // 2% misses
constexpr int kClients = 4;               // threads, and so connections
// The daemon runs a thread per connection and each new thread costs it a
// telemetry shard it never frees, so a connection per request would grow
// the daemon by ~32 KB per request; clients reuse connections instead.
constexpr int kRequestsPerConnection = 64;
constexpr double kFixedRps = 2000;
// A rate is sustainable when all of these hold over its step.
constexpr double kHitP99LimitMs = 5;
constexpr double kMissP90LimitMs = 50;
constexpr double kLateP99LimitMs = 5;
constexpr double kFailShareLimit = 0.001;

std::uint64_t hot_seed(const Options& opt, int h) {
  return hps::mix_seed(opt.seed, 0x407000u + static_cast<std::uint64_t>(h));
}

serve::Request study_request(std::uint64_t seed, int limit) {
  serve::Request req;
  req.kind = serve::Request::Kind::kStudy;
  req.seed = seed;
  req.duration_scale = kScale;
  req.limit = limit;
  return req;
}

/// Per-scheme sums of |predicted total / measured total - 1| over served
/// ledger records, and their counts.
using ErrorSums = std::map<std::string, std::pair<double, int>>;

void add_errors(ErrorSums& err, const std::vector<std::string>& records) {
  for (const std::string& line : records) {
    const obs::LedgerRecord rec = obs::parse_ledger_line(line);
    if (!rec.ok || rec.measured_total_ns <= 0) continue;
    auto& [sum, n] = err[rec.scheme];
    sum += std::fabs(static_cast<double>(rec.predicted_total_ns) / rec.measured_total_ns - 1);
    ++n;
  }
}

/// FNV over the records' predicted fields (wall_seconds differs per run).
std::string records_digest(const std::vector<std::string>& records) {
  Digest d;
  for (const std::string& line : records) {
    const obs::LedgerRecord rec = obs::parse_ledger_line(line);
    const std::int64_t f[3] = {rec.spec_id, rec.predicted_total_ns, rec.predicted_comm_ns};
    d.add_bytes(f, sizeof f);
    d.add_bytes(rec.scheme.data(), rec.scheme.size());
    d.add_bytes(rec.fail_kind.data(), rec.fail_kind.size());
  }
  return d.hex();
}

class Daemon {
 public:
  Daemon(const std::string& dir, int generation) {
    serve::ServerOptions so;
    so.socket_path = dir + "/d" + std::to_string(generation) + ".sock";
    so.cache_dir = dir + "/cache" + std::to_string(generation);
    so.dispatchers = 2;
    so.threads_per_study = 1;
    so.queue_capacity = 64;
    so.install_signal_guard = false;
    socket_ = so.socket_path;
    server_ = std::make_unique<serve::Server>(std::move(so));
    runner_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        // The daemon stops serving; the requests that follow fail and count.
        std::fprintf(stderr, "hpsbench: daemon stopped: %s\n", e.what());
      }
    });
  }
  ~Daemon() {
    server_->shutdown();
    runner_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  serve::MetricsReply metrics() { return serve::Client::connect_unix(socket_).metrics(); }

 private:
  std::string socket_;
  std::unique_ptr<serve::Server> server_;
  std::thread runner_;
};

/// The first reply of each hot key: the reference every later hit must match.
struct HotKeys {
  std::vector<std::string> records[kHotKeys];
  std::string digest[kHotKeys];
};

/// Warm every hot key over two connections, so both dispatchers compute.
HotKeys warm(Daemon& d, const Options& opt, Result& r) {
  HotKeys hot;
  std::mutex mu;
  std::vector<std::thread> ts;
  for (int w = 0; w < 2; ++w) {
    ts.emplace_back([&, w] {
      for (int h = w; h < kHotKeys; h += 2) {
        try {
          serve::Client cl = serve::Client::connect_unix(d.socket());
          auto reply = cl.study(study_request(hot_seed(opt, h), kHotLimit));
          const std::lock_guard<std::mutex> lk(mu);
          if (reply.summary.status != serve::Status::kOk)
            r.fail("hot key " + std::to_string(h) + " warm-up: " +
                   serve::status_name(reply.summary.status));
          hot.digest[h] = records_digest(reply.records);
          hot.records[h] = std::move(reply.records);
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lk(mu);
          r.fail(std::string("hot key warm-up: ") + e.what());
        }
      }
    });
  }
  for (std::thread& t : ts) t.join();
  return hot;
}

struct Load {
  std::vector<double> hit_ms, miss_ms, late_ms, connect_ms;
  std::uint64_t sent = 0, failed = 0;
  std::vector<std::string> problems;
  ErrorSums miss_errors;  ///< prediction error of the served misses

  std::vector<double> all_ms() const {
    std::vector<double> v = hit_ms;
    v.insert(v.end(), miss_ms.begin(), miss_ms.end());
    std::sort(v.begin(), v.end());
    return v;
  }
  /// Limits of a sustainable rate (see the constants above).
  bool meets_limits() const {
    const double fail_share = sent > 0 ? static_cast<double>(failed) / sent : 1;
    return fail_share <= kFailShareLimit && quantile(hit_ms, 0.99) <= kHitP99LimitMs &&
           quantile(miss_ms, 0.90) <= kMissP90LimitMs && quantile(late_ms, 0.99) <= kLateP99LimitMs;
  }
};

/// Offer `rps` for `seconds` in an open loop and wait for every reply.
/// `step` keeps each step's fresh miss seeds apart.
Load offer(const std::string& socket, const Options& opt, const HotKeys& hot, double rps,
           double seconds, std::uint64_t step) {
  const std::uint64_t total = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rps * seconds));
  std::atomic<std::uint64_t> next{0};
  std::mutex mu;
  Load load;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> ts;
  for (int c = 0; c < kClients; ++c) {
    ts.emplace_back([&] {
      Load mine;
      std::optional<serve::Client> conn;
      int uses = 0;
      for (std::uint64_t i = next++; i < total; i = next++) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(i / rps));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent_at = Clock::now();
        const bool miss = i % kMissEvery == kMissEvery - 1;
        const int h = static_cast<int>((i * 5) % kHotKeys);
        const serve::Request req =
            miss ? study_request(hps::mix_seed(opt.seed, (step << 32) | i), kMissLimit)
                 : study_request(hot_seed(opt, h), kHotLimit);
        ++mine.sent;
        try {
          if (!conn || uses == kRequestsPerConnection) {
            conn.reset();
            conn.emplace(serve::Client::connect_unix(socket));
            uses = 0;
            mine.connect_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - sent_at).count());
          }
          ++uses;
          const serve::Client::StudyReply reply = conn->study(req);
          const double ms = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
          mine.late_ms.push_back(std::chrono::duration<double, std::milli>(sent_at - due).count());
          const std::size_t want = static_cast<std::size_t>(miss ? kMissLimit : kHotLimit) * 4;
          if (reply.summary.status != serve::Status::kOk || reply.records.size() != want) {
            ++mine.failed;
            continue;
          }
          if (!miss && !reply.summary.cache_hit)
            mine.problems.push_back("hot key " + std::to_string(h) + " missed the cache");
          // Hits replay the cached bytes: check a deterministic sample in full.
          if (!miss && i % 16 == 0 && records_digest(reply.records) != hot.digest[h])
            mine.problems.push_back("hot key " + std::to_string(h) + " reply changed");
          (miss ? mine.miss_ms : mine.hit_ms).push_back(ms);
          if (miss) add_errors(mine.miss_errors, reply.records);
        } catch (const std::exception&) {
          ++mine.failed;
          conn.reset();
        }
      }
      const std::lock_guard<std::mutex> lk(mu);
      load.hit_ms.insert(load.hit_ms.end(), mine.hit_ms.begin(), mine.hit_ms.end());
      load.miss_ms.insert(load.miss_ms.end(), mine.miss_ms.begin(), mine.miss_ms.end());
      load.late_ms.insert(load.late_ms.end(), mine.late_ms.begin(), mine.late_ms.end());
      load.connect_ms.insert(load.connect_ms.end(), mine.connect_ms.begin(), mine.connect_ms.end());
      load.problems.insert(load.problems.end(), mine.problems.begin(), mine.problems.end());
      load.sent += mine.sent;
      load.failed += mine.failed;
      for (const auto& [scheme, e] : mine.miss_errors) {
        load.miss_errors[scheme].first += e.first;
        load.miss_errors[scheme].second += e.second;
      }
    });
  }
  for (std::thread& t : ts) t.join();
  for (auto* v : {&load.hit_ms, &load.miss_ms, &load.late_ms, &load.connect_ms})
    std::sort(v->begin(), v->end());
  return load;
}

/// Histogram accumulated between two scrapes of the daemon's registry.
telemetry::HistogramData between(const serve::MetricsReply& before,
                                 const serve::MetricsReply& after, const std::string& name) {
  telemetry::HistogramData d;
  const auto* a = after.find(name);
  if (a == nullptr) return d;
  d = a->data;
  if (const auto* b = before.find(name); b != nullptr && b->data.buckets.size() == d.buckets.size()) {
    for (std::size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= b->data.buckets[i];
    d.count -= b->data.count;
    d.sum -= b->data.sum;
  }
  return d;
}

/// Compare the served records of a study with in-process outcomes of it.
void check_served(Result& r, const std::vector<std::string>& served,
                  const std::vector<core::TraceOutcome>& outcomes, const char* what) {
  const auto expect = core::ledger_records(outcomes, 0);
  if (served.size() != expect.size()) {
    r.fail(std::string(what) + ": served " + std::to_string(served.size()) + " records, expected " +
           std::to_string(expect.size()));
    return;
  }
  for (std::size_t i = 0; i < served.size(); ++i) {
    const obs::LedgerRecord got = obs::parse_ledger_line(served[i]);
    const obs::LedgerRecord& want = expect[i];
    if (got.spec_id != want.spec_id || got.scheme != want.scheme || got.ok != want.ok ||
        got.predicted_total_ns != want.predicted_total_ns ||
        got.predicted_comm_ns != want.predicted_comm_ns) {
      r.fail(std::string(what) + ": spec " + std::to_string(want.spec_id) + " " + want.scheme +
             " differs from the served prediction");
      return;
    }
  }
}

void detail_latencies(Result& r, const char* name, const std::vector<double>& sorted) {
  const Tail t = supported_tail(sorted);
  r.detail(std::string("serve.") + name + "_p50_ms", quantile(sorted, 0.5), "ms");
  if (t.pct > 50) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "serve.%s_p%g_ms", name, t.pct);
    r.detail(buf, t.value, "ms");
  }
  r.detail(std::string("serve.") + name + "_samples", static_cast<double>(t.n), "count");
}

}  // namespace

void report_serving(Result& r, const serve::MetricsReply& before,
                    const serve::MetricsReply& after) {
  const telemetry::HistogramData req = between(before, after, serve::kRequestMetric);
  for (const char* phase : {"decode", "clamp", "cache_lookup", "queue_wait", "coalesce_wait",
                            "execute", "cache_insert", "stream"}) {
    const telemetry::HistogramData d =
        between(before, after, std::string(serve::kPhaseMetricPrefix) + phase);
    r.layer(std::string("serve.phase_share.") + phase, req.sum > 0 ? 100 * d.sum / req.sum : 0, "%");
  }
  const serve::Stats& s0 = before.stats;
  const serve::Stats& s1 = after.stats;
  const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  const double lookups = hits + static_cast<double>(s1.cache_misses - s0.cache_misses);
  r.layer("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  r.layer("serve.coalesced", static_cast<double>(s1.coalesced - s0.coalesced), "count");
  r.layer("serve.studies_run", static_cast<double>(s1.studies_run - s0.studies_run), "count");
  r.layer("serve.cache_spilled", static_cast<double>(s1.cache_spilled - s0.cache_spilled), "count");
}

Result run_serve_mix(const Options& opt) {
  Result r;
  const int setups = opt.smoke ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  HotKeys hot;
  for (int k = 0; k < setups; ++k) {
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt.run_dir, k);
    hot = warm(*daemon, opt, r);
    setup_s.push_back(seconds_since(t0));
  }

  // The served answer for a hot key equals an in-process study of it.
  core::StudyOptions so;
  so.corpus.seed = hot_seed(opt, 0);
  so.corpus.duration_scale = kScale;
  so.corpus.limit = kHotLimit;
  so.threads = 1;
  const core::StudyResult ref = core::run_study(so);
  check_served(r, hot.records[0], ref.outcomes, "hot key 0");

  Digest digest;
  ErrorSums err;
  for (int h = 0; h < kHotKeys; ++h) {
    digest.add_bytes(hot.digest[h].data(), hot.digest[h].size());
    add_errors(err, hot.records[h]);
  }
  r.digest = digest.hex();

  // Phase A: the fixed rate. A traced run keeps half the window for the
  // traced reference study.
  const double window = opt.seconds;
  const double phase_a = opt.traced ? window / 2 : window * 0.55;
  const serve::MetricsReply m0 = daemon->metrics();
  const Load a = offer(daemon->socket(), opt, hot, kFixedRps, phase_a, 0);
  const serve::MetricsReply m1 = daemon->metrics();
  // Memory after the fixed-rate load; phase B's volume depends on the rates
  // the host sustains, so it stays out of the reading.
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  r.attempted += a.sent;
  r.failed += a.failed;
  for (const std::string& p : a.problems) r.fail(p);
  if (a.hit_ms.empty() || a.miss_ms.empty()) r.fail("phase A served no hits or no misses");

  detail_latencies(r, "hit", a.hit_ms);
  detail_latencies(r, "miss", a.miss_ms);
  r.detail("serve.gen_late_p99_ms", quantile(a.late_ms, 0.99), "ms");
  r.detail("serve.connect_p50_ms", quantile(a.connect_ms, 0.5), "ms");
  const std::vector<double> all = a.all_ms();
  // Mean error of every prediction served (hot keys and phase-A misses)
  // against the synthesized ground truth, per scheme, averaged over schemes.
  for (const auto& [scheme, e] : a.miss_errors) {
    err[scheme].first += e.first;
    err[scheme].second += e.second;
  }
  double err_mean = 0;
  for (const auto& [scheme, e] : err) err_mean += e.first / e.second / err.size();

  if (!opt.traced) {
    // Phase B: bisect the highest sustainable rate between a rate that met
    // the limits and one assumed beyond reach.
    double lo = a.meets_limits() ? kFixedRps : 0, hi = 4 * kFixedRps;
    const int steps = opt.smoke ? 1 : 6;
    const double step_s = (window - phase_a) / steps;
    for (int s = 1; s <= steps; ++s) {
      const double mid = (lo + hi) / 2;
      // Probes beyond capacity may be refused; they count against the
      // step's limits, not as failed operations of the run.
      const Load b = offer(daemon->socket(), opt, hot, mid, step_s, static_cast<std::uint64_t>(s));
      for (const std::string& p : b.problems) r.fail(p);
      (b.meets_limits() ? lo : hi) = mid;
    }
    r.detail("serve.max_rps", lo, "1/s");
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("latency_p50_ms", quantile(all, 0.5), "ms");
    r.e2e("compute_ms", quantile(a.miss_ms, 0.5), "ms");
    r.e2e("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024, "MB");
    r.e2e("err_mean", err_mean, "ratio");
    return r;
  }

  report_serving(r, m0, m1);

  // The miss path's execute phase, split into the study layers: the hot-key
  // study once more, layer by layer inside spans.
  SpanLog log;
  SimCounters sim;
  std::vector<core::TraceOutcome> outcomes;
  int root = -1;
  {
    SpanLog::Scope whole(log, "pass", -1);
    root = log.last_opened();
    for (const workloads::TraceSpec& spec : workloads::build_corpus_specs(so.corpus)) {
      SpanLog::Scope per_trace(log, "trace", spec.id);
      std::optional<trace::Trace> t;
      {
        SpanLog::Scope g(log, "workloads.generate", spec.id);
        t.emplace(workloads::generate_spec(spec));
      }
      outcomes.push_back(traced_all_schemes(*t, spec.id, core::RunOptions{}, log, sim));
    }
  }
  check_served(r, hot.records[0], outcomes, "traced hot key 0");
  report_layers(r, log, root, sim, outcomes);
  r.layer("bench.trace_overhead", log.duration(root) / ref.wall_seconds - 1, "ratio");
  report_persistence(r, outcomes);
  if (!opt.spans_path.empty()) log.write_jsonl(opt.spans_path);
  return r;
}

}  // namespace hpsbench
