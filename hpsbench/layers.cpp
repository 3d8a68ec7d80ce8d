// The traced layer path and the per-layer metrics every workload reports.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/study.hpp"
#include "hpsbench.hpp"
#include "machine/machine.hpp"
#include "mfact/classify.hpp"
#include "obs/ledger.hpp"
#include "simmpi/replayer.hpp"
#include "trace/features.hpp"

namespace hpsbench {

namespace {

using core::Scheme;

constexpr Scheme kSims[] = {Scheme::kPacket, Scheme::kFlow, Scheme::kPacketFlow};

simmpi::NetModelKind net_kind(Scheme s) {
  switch (s) {
    case Scheme::kPacket: return simmpi::NetModelKind::kPacket;
    case Scheme::kFlow: return simmpi::NetModelKind::kFlow;
    default: return simmpi::NetModelKind::kPacketFlow;
  }
}

std::string replay_span(Scheme s) { return std::string("simmpi.replay.") + core::scheme_name(s); }

/// Layer spans of the traced pass, named `<module>.<layer>[.<scheme>]`.
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "workloads.generate", "trace.load",         "trace.features",
      "mfact.classify",     "machine.instance",   replay_span(Scheme::kPacket),
      replay_span(Scheme::kFlow), replay_span(Scheme::kPacketFlow)};
  return names;
}

/// Metric name of a layer's share: the layer name with "_share" after the
/// layer part, e.g. simmpi.replay.flow -> simmpi.replay_share.flow.
std::string share_name(const std::string& layer) {
  const std::size_t first = layer.find('.');
  const std::size_t second = layer.find('.', first + 1);
  if (second == std::string::npos) return layer + "_share";
  return layer.substr(0, second) + "_share" + layer.substr(second);
}

}  // namespace

core::TraceOutcome traced_all_schemes(const trace::Trace& t, int spec_id,
                                      const core::RunOptions& ro, SpanLog& log,
                                      SimCounters& sim) {
  core::TraceOutcome out;
  out.spec_id = spec_id;
  out.app = t.meta().app;
  out.machine = t.meta().machine;
  out.ranks = t.nranks();
  {
    // Each of these walks every event of the trace.
    SpanLog::Scope s(log, "trace.features", spec_id);
    out.events = t.total_events();
    out.measured_total = t.measured_total();
    out.measured_comm = t.measured_comm_mean();
    out.features = trace::extract_features(t.meta(), trace::compute_stats(t));
  }

  // run_all_schemes resolves the machine before MFACT and builds its
  // topology after; both are independent of MFACT, so one span covers them.
  std::optional<machine::MachineInstance> mi;
  machine::MachineConfig mc;
  {
    SpanLog::Scope s(log, "machine.instance", spec_id);
    mc = machine::machine_by_name(t.meta().machine);
    mi.emplace(mc, t.nranks(), t.meta().ranks_per_node);
  }

  {
    core::SchemeOutcome& so = out.of(Scheme::kMfact);
    so.attempted = true;
    SpanLog::Scope s(log, "mfact.classify", spec_id);
    try {
      const mfact::Classification cl =
          mfact::classify(t, mc.net.link_bandwidth, mc.net.end_to_end_latency, ro.classify);
      so.wall_seconds = cl.mfact_wall_seconds;
      so.total_time = cl.sweep[mfact::kSweepBase].total_time;
      so.comm_time = cl.sweep[mfact::kSweepBase].comm_time_mean;
      so.ok = true;
      out.app_class = cl.app_class;
      out.group = cl.group;
      out.features[trace::kF_CL] = cl.group == mfact::SensitivityGroup::kCommSensitive ? 1.0 : 0.0;
    } catch (const std::exception& e) {
      so.error = e.what();
      so.fail_kind = robust::FailKind::kError;
    }
  }

  for (const Scheme s : kSims) {
    core::SchemeOutcome& so = out.of(s);
    if (ro.mfact_only) {
      so.error = "skipped: MFACT-only run";
      so.fail_kind = robust::FailKind::kSkipped;
      continue;
    }
    so.attempted = true;
    SpanLog::Scope span(log, replay_span(s), spec_id);
    try {
      const simmpi::ReplayResult rr = simmpi::replay_trace(t, *mi, net_kind(s), ro.replay);
      so.wall_seconds = rr.wall_seconds;
      so.total_time = rr.total_time;
      so.comm_time = rr.comm_time_mean;
      so.des_events = rr.engine.events_processed;
      so.net = rr.net;
      so.ok = true;
      const int si = static_cast<int>(s);
      sim.des_events[si] += rr.engine.events_processed;
      sim.max_queue_depth[si] = std::max<std::uint64_t>(sim.max_queue_depth[si],
                                                        rr.engine.max_queue_depth);
      sim.packets[si] += rr.net.packets;
      sim.stalls[si] += rr.net.queue_events;
      sim.max_active[si] = std::max(sim.max_active[si], rr.net.max_active);
      if (s == Scheme::kFlow) {
        sim.messages += rr.net.messages;
        sim.rate_updates += rr.net.rate_updates;
        sim.solver_visits += rr.net.ripple_iterations;
      }
    } catch (const std::exception& e) {
      so.error = e.what();
      so.fail_kind = robust::FailKind::kError;
    }
  }
  return out;
}

double mean_error(const std::vector<core::TraceOutcome>& outcomes, Scheme s) {
  double sum = 0;
  int n = 0;
  for (const core::TraceOutcome& o : outcomes) {
    const core::SchemeOutcome& so = o.of(s);
    if (!so.ok || o.measured_total <= 0) continue;
    sum += std::fabs(static_cast<double>(so.total_time) / static_cast<double>(o.measured_total) - 1);
    ++n;
  }
  return n > 0 ? sum / n : -1;
}

double mean_error(const std::vector<core::TraceOutcome>& outcomes) {
  double sum = 0;
  int n = 0;
  for (int si = 0; si < static_cast<int>(Scheme::kNumSchemes); ++si) {
    const double err = mean_error(outcomes, static_cast<Scheme>(si));
    if (err < 0) continue;
    sum += err;
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

void tally_outcomes(Result& r, const std::vector<core::TraceOutcome>& outcomes,
                    bool mfact_only) {
  for (const core::TraceOutcome& o : outcomes) {
    for (int si = 0; si < static_cast<int>(Scheme::kNumSchemes); ++si) {
      const core::SchemeOutcome& so = o.scheme[si];
      const char* scheme = core::scheme_name(static_cast<Scheme>(si));
      if (mfact_only && si != static_cast<int>(Scheme::kMfact)) {
        if (so.fail_kind != robust::FailKind::kSkipped)
          r.fail("spec " + std::to_string(o.spec_id) + " " + scheme + " ran in an MFACT-only pass");
        continue;
      }
      ++r.attempted;
      if (!so.ok) {
        ++r.failed;
        std::fprintf(stderr, "hpsbench: spec %d %s failed: %s\n", o.spec_id, scheme,
                     so.error.c_str());
      } else if (so.total_time <= 0) {
        r.fail("spec " + std::to_string(o.spec_id) + " " + scheme + " predicted no time");
      }
    }
  }
}

void report_layers(Result& r, const SpanLog& log, int root, const SimCounters& sim,
                   const std::vector<core::TraceOutcome>& outcomes) {
  const std::map<std::string, double> self = log.self_seconds(root);
  const double pass = log.duration(root);
  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double covered = 0;
  for (const std::string& name : layer_names()) {
    covered += self_of(name);
    r.layer(share_name(name), 100 * self_of(name) / pass, "%");
  }
  r.layer("bench.layer_coverage", covered / pass, "ratio");

  std::uint64_t events = 0;
  for (const core::TraceOutcome& o : outcomes) events += o.events;
  r.layer("trace.events", static_cast<double>(events), "count");

  const double mfact_s = self_of("mfact.classify");
  for (const Scheme s : kSims) {
    const int si = static_cast<int>(s);
    const std::string sfx = std::string(".") + core::scheme_name(s);
    const double replay_s = self_of(replay_span(s));
    r.layer("des.events" + sfx, static_cast<double>(sim.des_events[si]), "count");
    r.layer("des.events_per_s" + sfx, replay_s > 0 ? sim.des_events[si] / replay_s : 0, "1/s");
    r.layer("des.max_queue_depth" + sfx, static_cast<double>(sim.max_queue_depth[si]), "count");
    if (s != Scheme::kFlow) r.layer("simnet.packets" + sfx, static_cast<double>(sim.packets[si]), "count");
    r.layer("simnet.stalls" + sfx, static_cast<double>(sim.stalls[si]), "count");
    r.layer("simnet.max_active" + sfx, static_cast<double>(sim.max_active[si]), "count");
    // Fig. 1 / Table II: simulator host time as a multiple of MFACT's.
    r.layer("cost_ratio" + sfx, mfact_s > 0 ? replay_s / mfact_s : 0, "ratio");
  }
  r.layer("simnet.messages", static_cast<double>(sim.messages), "count");
  r.layer("simnet.rate_updates.flow", static_cast<double>(sim.rate_updates), "count");
  r.layer("simnet.solver_visits.flow", static_cast<double>(sim.solver_visits), "count");
  r.layer("simnet.visits_per_update.flow",
          sim.rate_updates > 0 ? static_cast<double>(sim.solver_visits) / sim.rate_updates : 0,
          "ratio");

  // The accuracy axis, per scheme; 0 marks a scheme the workload does not run.
  for (int si = 0; si < static_cast<int>(Scheme::kNumSchemes); ++si) {
    const double err = mean_error(outcomes, static_cast<Scheme>(si));
    r.layer(std::string("err_mean.") + core::scheme_name(static_cast<Scheme>(si)),
            std::max(0.0, err), "ratio");
  }
}

void report_persistence(Result& r, const std::vector<core::TraceOutcome>& outcomes) {
  // Repeat until the timed work is long enough for a steady rate: one pass
  // over a handful of outcomes takes microseconds.
  constexpr double kMinSeconds = 0.05;
  std::uint64_t bytes = 0, rounds = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (const core::TraceOutcome& o : outcomes) {
      const std::string rec = core::serialize_outcome(o);
      const core::TraceOutcome back = core::deserialize_outcome(rec);
      bytes += rec.size();
      if (rounds == 0) {
        Digest a, b;
        a.add(o);
        b.add(back);
        if (a.hex() != b.hex())
          r.fail("cache codec round trip changed spec " + std::to_string(o.spec_id));
      }
    }
    ++rounds;
  } while (seconds_since(t0) < kMinSeconds);
  const double codec_s = seconds_since(t0);
  r.layer("core.cache_bytes", static_cast<double>(bytes / rounds), "bytes");
  r.layer("core.codec_mb_per_s", static_cast<double>(bytes) / 1e6 / codec_s, "MB/s");

  std::uint64_t lines = 0;
  const Clock::time_point t1 = Clock::now();
  do {
    for (const obs::LedgerRecord& rec : core::ledger_records(outcomes, 0)) {
      if (obs::to_json_line(rec).empty()) r.fail("empty ledger line");
      ++lines;
    }
  } while (seconds_since(t1) < kMinSeconds);
  r.layer("obs.ledger_lines_per_s", static_cast<double>(lines) / seconds_since(t1), "1/s");
}

}  // namespace hpsbench
