// The three study workloads. Set-up generates the workload's traces and
// writes them as HPST files; every pass loads each file and runs it through
// core::run_all_schemes single-threaded, the path core::run_study takes for
// one trace.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>

#include <malloc.h>

#include "common/error.hpp"
#include "hpsbench.hpp"
#include "trace/io.hpp"
#include "workloads/corpus.hpp"

namespace hpsbench {

namespace {

/// Trace shapes (application, ranks, machine, size, iterations) come from
/// the paper's Table I corpus as built with its default seed, so every
/// workload seed selects the same work; the workload seed re-draws each
/// trace's generator seed, which moves compute jitter, skew and contention.
constexpr std::uint64_t kShapeSeed = 42;

struct Item {
  workloads::TraceSpec spec;
  std::string path;
  std::uint64_t events = 0;
};

struct Plan {
  double scale = 0.05;
  bool mfact_only = false;
  std::vector<Item> items;
};

Plan plan_for(const std::string& name, const Options& opt) {
  Plan p;
  std::set<std::string> apps;
  hps::Rank lo = 0, hi = 1 << 30;
  bool one_per_app = false;
  if (name == "a2a-sim") {
    // Alltoall traffic: one giant max-min component that floods link queues.
    apps = {"FT", "IS", "BigFFT"};
    lo = 65;
    hi = 256;
  } else if (name == "halo-sim") {
    // Many small neighbour messages over a 513-1024-rank fabric. MG and CNS
    // are left out: each alone replays longer than a whole pass of these ten.
    apps = {"AMG", "MiniFE", "MultiGrid", "FillBoundary", "LULESH",
            "Nekbone", "BT", "SP", "LU", "CG"};
    lo = 513;
    hi = 1024;
    one_per_app = true;
  } else if (name == "model-corpus") {
    // The cheap half of the trade-off: the whole corpus through MFACT only,
    // at the duration scale EXPERIMENTS.md uses.
    p.scale = 0.35;
    p.mfact_only = true;
  } else {
    throw hps::Error("unknown study workload " + name);
  }

  workloads::CorpusOptions shapes_opt;
  shapes_opt.seed = kShapeSeed;
  shapes_opt.duration_scale = p.scale;
  workloads::CorpusOptions seeded_opt = shapes_opt;
  seeded_opt.seed = opt.seed;
  const auto shapes = workloads::build_corpus_specs(shapes_opt);
  const auto seeded = workloads::build_corpus_specs(seeded_opt);

  // The simulation workloads take the first trace of each (application,
  // rank count) in range, or of each application with one_per_app.
  std::set<std::pair<std::string, hps::Rank>> taken;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    workloads::TraceSpec spec = shapes[i];
    const hps::Rank ranks = spec.params.ranks;
    if (!p.mfact_only &&
        (!apps.count(spec.app) || ranks < lo || ranks > hi ||
         !taken.insert({spec.app, one_per_app ? 0 : ranks}).second))
      continue;
    spec.params.seed = seeded[i].params.seed;
    Item item;
    item.path = opt.run_dir + "/" + std::to_string(spec.id) + ".hpst";
    item.spec = std::move(spec);
    p.items.push_back(std::move(item));
    if (opt.smoke) break;
  }
  return p;
}

double set_up(Plan& p) {
  const Clock::time_point t0 = Clock::now();
  for (Item& it : p.items) {
    const trace::Trace t = workloads::generate_spec(it.spec);
    it.events = t.total_events();
    trace::save(t, it.path);
  }
  return seconds_since(t0);
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the next read
/// covers only what follows.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set size since the last reset, in MB.
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  for (std::string line; std::getline(is, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  return 0;
}

/// Run every trace once, untimed, so allocators and pools are warm, and
/// measure the memory each trace needs: its peak resident set, starting from
/// the live heap (free pages go back first, so one trace's transient does not
/// carry into the next trace's reading).
std::vector<double> warm_up(const Plan& p, const core::RunOptions& ro) {
  std::vector<double> peak_mb;
  for (const Item& it : p.items) {
    ::malloc_trim(0);
    reset_peak_rss();
    core::run_all_schemes(trace::load(it.path), ro);
    peak_mb.push_back(peak_rss_mb());
  }
  return peak_mb;
}

struct Pass {
  double seconds = 0;
  std::string digest;
  std::vector<core::TraceOutcome> outcomes;
  std::vector<double> trace_seconds;  ///< per item
};

Pass run_pass(const Plan& p, const core::RunOptions& ro) {
  Pass pass;
  Digest d;
  const Clock::time_point t0 = Clock::now();
  for (const Item& it : p.items) {
    const Clock::time_point t = Clock::now();
    core::TraceOutcome o = core::run_all_schemes(trace::load(it.path), ro);
    pass.trace_seconds.push_back(seconds_since(t));
    o.spec_id = it.spec.id;
    d.add(o);
    pass.outcomes.push_back(std::move(o));
  }
  pass.seconds = seconds_since(t0);
  pass.digest = d.hex();
  return pass;
}

Pass run_traced_pass(const Plan& p, const core::RunOptions& ro, SpanLog& log, int& root,
                     SimCounters& sim) {
  Pass pass;
  Digest d;
  {
    SpanLog::Scope whole(log, "pass", -1);
    root = log.last_opened();
    for (const Item& it : p.items) {
      SpanLog::Scope per_trace(log, "trace", it.spec.id);
      std::optional<trace::Trace> t;
      {
        SpanLog::Scope s(log, "trace.load", it.spec.id);
        t.emplace(trace::load(it.path));
      }
      core::TraceOutcome o = traced_all_schemes(*t, it.spec.id, ro, log, sim);
      d.add(o);
      pass.outcomes.push_back(std::move(o));
    }
  }
  pass.seconds = log.duration(root);
  pass.digest = d.hex();
  return pass;
}

/// Outcomes must describe the traces set-up wrote.
void check_outcomes(Result& r, const Plan& p, const Pass& pass) {
  for (std::size_t i = 0; i < p.items.size(); ++i) {
    const Item& it = p.items[i];
    const core::TraceOutcome& o = pass.outcomes[i];
    if (o.app != it.spec.app || o.ranks != it.spec.params.ranks || o.events != it.events)
      r.fail("spec " + std::to_string(it.spec.id) + " outcome does not match its trace");
  }
}

}  // namespace

Result run_study_workload(const std::string& name, const Options& opt) {
  Result r;
  Plan plan = plan_for(name, opt);
  if (plan.items.empty()) {
    r.fail("no traces selected");
    return r;
  }
  core::RunOptions ro;
  ro.mfact_only = plan.mfact_only;

  // Set up at least three times and for at least a second, so a set-up of a
  // few milliseconds still yields a steady median.
  std::vector<double> setup_s;
  const Clock::time_point s0 = Clock::now();
  do {
    setup_s.push_back(set_up(plan));
  } while (!opt.smoke && setup_s.size() < 50 && (setup_s.size() < 3 || seconds_since(s0) < 1));

  const std::vector<double> peak_mb = warm_up(plan, ro);

  // Untraced passes fill the window; a traced run keeps room for its pass.
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  const std::size_t min_passes = opt.traced ? 1 : 3;
  for (;;) {
    passes.push_back(run_pass(plan, ro));
    const double reserve = opt.traced ? passes.back().seconds : 0;
    if (opt.smoke || (passes.size() >= min_passes &&
                      seconds_since(t0) + passes.back().seconds + reserve > opt.seconds))
      break;
  }
  for (const Pass& p : passes) {
    if (p.digest != passes.front().digest) r.fail("prediction digest differs between passes");
  }
  check_outcomes(r, plan, passes.front());
  tally_outcomes(r, passes.front().outcomes, plan.mfact_only);
  r.digest = passes.front().digest;

  std::vector<double> secs;
  for (const Pass& p : passes) secs.push_back(p.seconds);
  const double pass_s = median(secs);
  std::fprintf(stderr, "hpsbench: %s: %zu traces, %zu passes, median pass %.3f s\n",
               name.c_str(), plan.items.size(), passes.size(), pass_s);

  if (!opt.traced) {
    // A trace's host time is its minimum over the passes: the computation is
    // deterministic and interference from other tenants only ever adds time.
    std::vector<double> best(plan.items.size(), 1e300);
    for (const Pass& p : passes)
      for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], p.trace_seconds[i]);
    double total = 0;
    for (const double b : best) total += b;
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("latency_p50_ms", median(best) * 1e3, "ms");
    r.e2e("compute_ms", total * 1e3, "ms");
    r.e2e("peak_rss_mb", median(peak_mb), "MB");
    r.e2e("err_mean", mean_error(passes.front().outcomes), "ratio");
    return r;
  }

  SpanLog log;
  SimCounters sim;
  int root = -1;
  const Pass traced = run_traced_pass(plan, ro, log, root, sim);
  if (traced.digest != r.digest) r.fail("traced pass predicts differently from untraced passes");
  report_layers(r, log, root, sim, traced.outcomes);
  r.layer("bench.trace_overhead", traced.seconds / pass_s - 1, "ratio");
  report_persistence(r, traced.outcomes);
  report_serving(r, {}, {});
  if (!opt.spans_path.empty()) log.write_jsonl(opt.spans_path);
  return r;
}

}  // namespace hpsbench
