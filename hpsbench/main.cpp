// hpsbench — the repository benchmark.
//
// Usage:
//   hpsbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//            [--out FILE] [--tmp DIR] [--smoke]
//
// Without --workload all four workloads run; without --trace each runs once
// untraced (end-to-end metrics) and once traced (per-layer metrics). Every
// run happens in its own forked child, so no run inherits another's memory
// or allocator state. Every metric is printed as `workload metric value unit`; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. --out appends one JSON line per run, with
// the prediction digest, for comparing two sets of runs (see run.py
// --compare). Scratch files live under --tmp (default .bench_build) and are
// removed at exit; a traced run leaves its spans in DIR/spans-<workload>.jsonl.
// Exit status: 0 when every run was correct, 1 when not, 2 on bad usage.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "hpsbench.hpp"

namespace {

using namespace hpsbench;

struct Run {
  std::string workload;
  bool traced = false;
  Result result;
};

/// A child that runs longer than this is killed and its run fails.
constexpr unsigned kChildTimeoutS = 170;

std::string clean(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

void write_result(int fd, const Result& r) {
  std::ostringstream os;
  os.precision(17);
  os << "correct " << r.correct << "\nattempted " << r.attempted << "\nfailed " << r.failed
     << "\ndigest " << (r.digest.empty() ? "-" : r.digest) << "\n";
  for (const std::string& p : r.problems) os << "problem " << clean(p) << "\n";
  const auto put = [&](const char* kind, const std::vector<Metric>& ms) {
    for (const Metric& m : ms) os << kind << " " << m.name << " " << m.value << " " << m.unit << "\n";
  };
  put("e2e", r.end_to_end);
  put("layer", r.per_layer);
  put("detail", r.details);
  const std::string s = os.str();
  for (std::size_t off = 0; off < s.size();) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

Result read_result(const std::string& text) {
  Result r;
  std::istringstream is(text);
  std::string kind;
  while (is >> kind) {
    if (kind == "correct") is >> r.correct;
    else if (kind == "attempted") is >> r.attempted;
    else if (kind == "failed") is >> r.failed;
    else if (kind == "digest") is >> r.digest;
    else if (kind == "problem") {
      std::string p;
      std::getline(is >> std::ws, p);
      r.problems.push_back(p);
    } else {
      Metric m;
      is >> m.name >> m.value >> m.unit;
      (kind == "e2e" ? r.end_to_end : kind == "layer" ? r.per_layer : r.details).push_back(m);
    }
  }
  return r;
}

/// Fork, run one workload in the child, and collect its result and peak RSS.
Result run_in_child(const std::string& workload, const Options& opt) {
  int fds[2];
  if (::pipe(fds) != 0) {
    Result r;
    r.fail(std::string("pipe: ") + std::strerror(errno));
    return r;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    ::alarm(kChildTimeoutS);
    Result r;
    try {
      std::filesystem::create_directories(opt.run_dir);
      r = workload == "serve-mix" ? run_serve_mix(opt) : run_study_workload(workload, opt);
    } catch (const std::exception& e) {
      r.fail(std::string("workload threw: ") + e.what());
    }
    write_result(fds[1], r);
    ::close(fds[1]);
    std::_Exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Result r = read_result(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
    r.fail(WIFSIGNALED(status) ? "workload died of signal " + std::to_string(WTERMSIG(status))
                               : "workload reported nothing");
    if (r.attempted == 0) r.attempted = r.failed = 1;  // the workload itself failed
  }
  return r;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out;
  char buf[64];
  for (const Metric& m : ms) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (out.empty() ? "" : ", ") + json_string(m.name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return "{" + out + "}";
}

/// A metric that is not a finite number would make the output invalid JSON.
void check_finite(Result& r) {
  for (auto* ms : {&r.end_to_end, &r.per_layer, &r.details})
    for (Metric& m : *ms)
      if (!std::isfinite(m.value)) {
        r.fail("metric " + m.name + " is not finite");
        m.value = 0;
      }
}

int usage() {
  std::fprintf(stderr,
               "usage: hpsbench [--workload a2a-sim|halo-sim|model-corpus|serve-mix] "
               "[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--tmp DIR] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> workloads(std::begin(kWorkloads), std::end(kWorkloads));
  std::vector<bool> modes = {false, true};
  std::string out_path;
  std::string tmp = ".bench_build";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      opt.seconds = 2;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      if (std::find(workloads.begin(), workloads.end(), v) == workloads.end()) return usage();
      workloads = {v};
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
      if (!(opt.seconds > 0)) return usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      modes = {v == "1"};
    } else if (a == "--out") {
      out_path = v;
    } else if (a == "--tmp") {
      tmp = v;
    } else {
      return usage();
    }
  }

  const std::string root = tmp + "/run-" + std::to_string(::getpid());
  std::vector<Run> runs;
  for (const std::string& w : workloads) {
    for (const bool traced : modes) {
      Options o = opt;
      o.traced = traced;
      o.run_dir = root + "/" + w + (traced ? "-traced" : "");
      if (traced) o.spans_path = tmp + "/spans-" + w + ".jsonl";
      std::fprintf(stderr, "hpsbench: %s%s, seed %llu\n", w.c_str(), traced ? " (traced)" : "",
                   static_cast<unsigned long long>(opt.seed));
      Run run{w, traced, run_in_child(w, o)};
      check_finite(run.result);
      runs.push_back(std::move(run));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> gated;
  for (const Run& run : runs) {
    const Result& r = run.result;
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& p : r.problems)
      std::fprintf(stderr, "hpsbench: %s: INCORRECT: %s\n", run.workload.c_str(), p.c_str());
    std::printf("%-13s %-38s %-22s %s\n", run.workload.c_str(), "prediction_digest",
                r.digest.c_str(), "-");
    for (const auto* ms : {&r.end_to_end, &r.per_layer, &r.details})
      for (const Metric& m : *ms)
        std::printf("%-13s %-38s %-22.10g %s\n", run.workload.c_str(), m.name.c_str(), m.value,
                    m.unit.c_str());
    const std::string prefix = workloads.size() > 1 ? run.workload + "/" : "";
    for (const Metric& m : run.traced ? r.per_layer : r.end_to_end)
      gated.push_back({prefix + m.name, m.value, m.unit});

    if (!out_path.empty()) {
      std::ofstream os(out_path, std::ios::app);
      std::string problems;
      for (const std::string& p : r.problems) problems += (problems.empty() ? "" : ", ") + json_string(p);
      os << "{\"workload\": " << json_string(run.workload) << ", \"seed\": " << opt.seed
         << ", \"trace\": " << (run.traced ? 1 : 0) << ", \"correct\": "
         << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
         << ", \"failed\": " << r.failed << ", \"digest\": " << json_string(r.digest)
         << ", \"problems\": [" << problems << "], \"metrics\": "
         << json_metrics(run.traced ? r.per_layer : r.end_to_end)
         << ", \"details\": " << json_metrics(r.details) << "}\n";
      if (!os) std::fprintf(stderr, "hpsbench: cannot append to %s\n", out_path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics(gated).c_str());
  return correct ? 0 : 1;
}
