// End-to-end benchmark harness: runs one workload for one seed and prints
// every metric by name, then a last line of JSON with the result.
//
//   perfbench --workload <fattree_dedup|ibgp_failures|serve_deltas>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--commit <id>]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, a Chrome trace-event file of the spans it recorded
// around each call into the library, and the tracing overhead. perfbench/
// README.md describes the workloads and metrics.
//
// Batch workloads drive the library the way plankton_verify does, one fresh
// process per verification (the harness re-executes itself with --child):
// read the config file, parse it, construct the Verifier, verify. The serve
// workload spawns the real plankton_serve daemon and speaks PKS1 to it over
// a Unix socket with one closed-loop client.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "eqclass/pec_dedup.hpp"
#include "pec/pec.hpp"
#include "sched/deps.hpp"
#include "serve/serve.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace plankton;
using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py checks every result against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"update_ms", "ms"},  {"verdict_ms", "ms"},
    {"throughput_rps", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"config.parse_s", "s"},        {"config.bytes", "bytes"},
    {"pec.partition_s", "s"},       {"pec.count", "count"},
    {"deps.graph_s", "s"},          {"deps.sccs", "count"},
    {"eqclass.dedup_s", "s"},       {"eqclass.classify_s", "s"},
    {"eqclass.cone_s", "s"},        {"eqclass.classes", "count"},
    {"eqclass.deduped", "count"},   {"rpvp.explore_s", "s"},
    {"rpvp.tail_s", "s"},           {"rpvp.states_per_s", "1/s"},
    {"rpvp.revisit_ratio", "ratio"}, {"rpvp.ad_cache_hit_ratio", "ratio"},
    {"rpvp.model_mb", "MB"},        {"rpvp.states", "count"},
    {"rpvp.states_stored", "count"}, {"rpvp.failure_sets", "count"},
    {"rpvp.por_pruned", "count"},   {"rpvp.frontier_peak", "count"},
    {"policy.checks", "count"},     {"policy.suppressed_ratio", "ratio"},
    {"sched.parallel_eff", "ratio"}, {"sched.other_s", "s"},
    {"serve.load_s", "s"},          {"serve.apply_delta_s", "s"},
    {"serve.delta_rest_s", "s"},    {"serve.wire_ms", "ms"},
    {"serve.hit_rtt_ms", "ms"},     {"serve.hit_ratio", "ratio"},
    {"serve.moved_per_delta", "count"}, {"trace.overhead_s", "s"},
};

/// Per-key samples. A per-layer metric is the median of its samples; the
/// end-to-end timings other than setup_s are trimmed means (see kTrim).
using Samples = std::map<std::string, std::vector<double>>;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::string self_dir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

/// A spawned program; killed and reaped on destruction if still running.
class Process {
 public:
  /// `capture` pipes the child's stdout to read_line(); otherwise its stdout
  /// goes to our stderr so it cannot interleave with the result lines.
  Process(const std::vector<std::string>& argv, bool capture) {
    int fds[2] = {-1, -1};
    if (capture && ::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(capture ? fds[1] : STDERR_FILENO, STDOUT_FILENO);
      if (capture) {
        ::close(fds[0]);
        ::close(fds[1]);
      }
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    if (capture) {
      ::close(fds[1]);
      if (pid_ > 0) {
        out_ = ::fdopen(fds[0], "r");
      } else {
        ::close(fds[0]);
      }
    }
  }
  ~Process() {
    if (out_ != nullptr) std::fclose(out_);
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] bool started() const { return pid_ > 0; }
  [[nodiscard]] int pid() const { return static_cast<int>(pid_); }

  bool read_line(std::string& line) {
    if (out_ == nullptr) return false;
    char* buf = nullptr;
    std::size_t cap = 0;
    const ssize_t n = ::getline(&buf, &cap, out_);
    if (n > 0) line.assign(buf, static_cast<std::size_t>(n) - (buf[n - 1] == '\n'));
    std::free(buf);
    return n > 0;
  }

  struct Exit {
    bool ok = false;  ///< exited normally with status 0
    double peak_rss_mb = 0;
  };
  /// Waits for the child; its peak RSS comes from wait4's rusage.
  Exit wait() {
    Exit e;
    if (pid_ <= 0 || reaped_) return e;
    int status = 0;
    rusage ru{};
    if (::wait4(pid_, &status, 0, &ru) == pid_) {
      reaped_ = true;
      e.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      e.peak_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
    }
    return e;
  }

 private:
  pid_t pid_ = -1;
  FILE* out_ = nullptr;
  bool reaped_ = false;
};

// ---------------------------------------------------------------------------
// Per-layer numbers of one verification
// ---------------------------------------------------------------------------

/// The per-layer metrics a VerifyResult carries. `verify_s` is the wall time
/// of the call as the benchmark measured it; `threads` the worker count.
std::map<std::string, double> verify_layers(const VerifyResult& r,
                                            double verify_s, int threads) {
  double explore = 0;
  double tail = 0;
  for (const PecReport& rep : r.reports) {
    if (rep.translated_from != kNoPec) continue;
    const double s = static_cast<double>(rep.result.stats.elapsed.count()) / 1e9;
    explore += s;
    tail = std::max(tail, s);
  }
  const SearchStats& t = r.total;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double dedup = static_cast<double>(r.dedup_fingerprint_time.count()) / 1e9;
  const auto states = static_cast<double>(t.states_explored);
  return {
      {"eqclass.dedup_s", dedup},
      {"eqclass.classes", static_cast<double>(r.pec_classes)},
      {"eqclass.deduped", static_cast<double>(r.pecs_deduped)},
      {"rpvp.explore_s", explore},
      {"rpvp.tail_s", tail},
      {"rpvp.states_per_s", ratio(states, explore)},
      {"rpvp.revisit_ratio", ratio(static_cast<double>(t.revisits_skipped), states)},
      {"rpvp.ad_cache_hit_ratio",
       ratio(static_cast<double>(t.ad_cache_hits),
             static_cast<double>(t.ad_cache_hits + t.ad_cache_misses))},
      {"rpvp.model_mb", static_cast<double>(t.model_bytes()) / 1e6},
      {"rpvp.states", states},
      {"rpvp.states_stored", static_cast<double>(t.states_stored)},
      {"rpvp.failure_sets", static_cast<double>(t.failure_sets)},
      {"rpvp.por_pruned", static_cast<double>(t.por_pruned)},
      {"rpvp.frontier_peak", static_cast<double>(t.frontier_peak)},
      {"policy.checks", static_cast<double>(t.policy_checks)},
      {"policy.suppressed_ratio",
       ratio(static_cast<double>(t.suppressed_checks),
             static_cast<double>(t.policy_checks + t.suppressed_checks))},
      {"sched.parallel_eff", ratio(explore, verify_s * threads)},
      {"sched.other_s", verify_s - dedup - tail},
  };
}

/// Times `fn` under a span named `name`.
template <typename Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn) {
  const Tracer::Scope span(tracer, name);
  const std::int64_t t0 = now_ns();
  fn();
  return seconds_since(t0);
}

/// Times the library's layer entry points on a parsed network: the PEC
/// partition, the dependency graph, the cone fingerprints and the dedup
/// classing (with every routed PEC a target, as the `loop` query has it).
std::map<std::string, double> probe_layers(Tracer& tracer, const Network& net) {
  PecSet pecs;
  PecDependencies deps;
  std::map<std::string, double> out;
  out["pec.partition_s"] = timed(tracer, "pec.partition", [&] { pecs = compute_pecs(net); });
  out["deps.graph_s"] =
      timed(tracer, "deps.graph", [&] { deps = compute_dependencies(net, pecs); });
  out["eqclass.cone_s"] =
      timed(tracer, "eqclass.cone", [&] { (void)compute_pec_fingerprints(net, pecs); });
  std::vector<std::uint8_t> routed(pecs.pecs.size(), 0);
  for (const PecId p : pecs.routed()) routed[p] = 1;
  const LoopFreedomPolicy loop;
  out["eqclass.classify_s"] = timed(tracer, "eqclass.classify", [&] {
    (void)compute_pec_classes(net, pecs, deps, loop, routed, routed);
  });
  out["pec.count"] = static_cast<double>(pecs.pecs.size());
  out["deps.sccs"] = static_cast<double>(deps.sccs.size());
  return out;
}

// ---------------------------------------------------------------------------
// Batch child: one verification in a fresh process
// ---------------------------------------------------------------------------

/// A config read from disk, parsed, with its Verifier (which references the
/// network, so both live in one heap object that never moves).
struct Loaded {
  ParsedNetwork parsed;
  std::unique_ptr<Verifier> verifier;
};

std::unique_ptr<Loaded> load_config(Tracer& tracer, const std::string& path,
                                    const VerifyOptions& opts) {
  const Tracer::Scope span(tracer, "setup");
  std::string text;
  {
    const Tracer::Scope read(tracer, "config.read");
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  auto loaded = std::make_unique<Loaded>();
  {
    const Tracer::Scope parse(tracer, "config.parse");
    loaded->parsed = parse_network_config(text);
  }
  const Tracer::Scope ctor(tracer, "verifier.ctor");
  loaded->verifier = std::make_unique<Verifier>(loaded->parsed.net, opts);
  return loaded;
}

/// Protocol on stdout, one item a line: "ready <s>" once the Verifier exists,
/// with the time this cold process took to read, parse and construct it,
/// then "update <s>" per warm reload, "verify <s>", "count <k> <v>",
/// "stat <k> <v>" and, traced, "span ..." lines.
int run_child(const std::string& path, bool setup_only, int failures, int cores,
              bool trace) {
  Tracer tracer;
  tracer.enable(trace);
  VerifyOptions opts;
  opts.cores = cores;
  opts.explore.max_failures = failures;
  const std::int64_t setup_start = now_ns();
  std::unique_ptr<Loaded> loaded = load_config(tracer, path, opts);
  std::printf("ready %.9f\n", seconds_since(setup_start));
  std::fflush(stdout);
  if (setup_only) return 0;

  // Warm reloads: what taking a changed config file costs in-process.
  const std::int64_t reload_start = now_ns();
  for (int n = 0; n < 3 || (seconds_since(reload_start) < 0.25 && n < 50); ++n) {
    loaded.reset();
    const std::int64_t t0 = now_ns();
    loaded = load_config(tracer, path, opts);
    std::printf("update %.9f\n", seconds_since(t0));
  }

  std::string error;
  const std::unique_ptr<Policy> policy = serve::make_policy(loaded->parsed.net, "loop", error);
  if (policy == nullptr) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  VerifyResult r;
  const double verify_s =
      timed(tracer, "verify", [&] { r = loaded->verifier->verify(*policy); });
  std::printf("verify %.9f\n", verify_s);
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"verdict", static_cast<std::uint64_t>(r.verdict)},
      {"pecs", r.pecs_total},
      {"verified", r.pecs_verified},
      {"classes", r.pec_classes},
      {"deduped", r.pecs_deduped},
      {"states", r.total.states_explored},
      {"states_stored", r.total.states_stored},
      {"failure_sets", r.total.failure_sets},
  };
  for (const auto& [k, v] : counts) {
    std::printf("count %s %llu\n", k, static_cast<unsigned long long>(v));
  }
  if (trace) {
    std::map<std::string, double> stats = verify_layers(r, verify_s, cores);
    stats.merge(probe_layers(tracer, loaded->parsed.net));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    stats["config.parse_s"] =
        timed(tracer, "config.parse", [&] { (void)parse_network_config(text.view()); });
    stats["config.bytes"] = static_cast<double>(text.view().size());
    for (const auto& [k, v] : stats) std::printf("stat %s %.17g\n", k.c_str(), v);
    for (const Span& s : tracer.spans()) std::printf("%s\n", span_line(s).c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The plankton_serve daemon
// ---------------------------------------------------------------------------

/// One daemon process plus the client connection to it.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path)
      : path_(socket_path),
        proc_({self_dir() + "/plankton_serve", "--socket", socket_path}, false) {}
  ~Daemon() {
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Polls until the daemon listens (it binds after start-up).
  bool connect(std::string& error) {
    const std::int64_t start = now_ns();
    while (proc_.started() && seconds_since(start) < 30) {
      fd_ = serve::connect_unix(path_, error);
      if (fd_ >= 0) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    error = "plankton_serve did not accept connections: " + error;
    return false;
  }

  /// One request-reply exchange; RTT in seconds, under spans when traced.
  bool call(Tracer& tracer, sched::MsgType type, const std::string& payload,
            serve::VerdictReplyMsg& reply, double& rtt, std::string& error) {
    const std::int64_t t0 = now_ns();
    bool sent = false;
    {
      const Tracer::Scope span(tracer, "wire.send");
      sent = serve::send_frame(fd_, type, payload);
    }
    if (!sent) {
      error = "send_frame failed";
      return false;
    }
    sched::Frame frame;
    {
      const Tracer::Scope span(tracer, "wire.recv");
      if (!serve::recv_frame(fd_, dec_, frame, error)) return false;
    }
    rtt = seconds_since(t0);
    if (frame.type != sched::MsgType::kVerdictReply ||
        !serve::decode_verdict_reply(frame.payload, reply)) {
      error = "malformed reply";
      return false;
    }
    return true;
  }

  /// Orderly kShutdown, then the exit status and peak RSS.
  Process::Exit shutdown() {
    Tracer off;
    serve::VerdictReplyMsg reply;
    double rtt = 0;
    std::string error;
    if (fd_ >= 0) (void)call(off, sched::MsgType::kShutdown, "", reply, rtt, error);
    return proc_.wait();
  }

 private:
  std::string path_;
  Process proc_;
  int fd_ = -1;
  sched::FrameDecoder dec_;
};

serve::QueryMsg loop_query(int failures) {
  serve::QueryMsg q;
  q.policy_spec = "loop";
  q.max_failures = static_cast<std::uint32_t>(failures);
  return q;
}

std::vector<std::string> reply_problems(const serve::VerdictReplyMsg& r,
                                        Verdict want) {
  std::vector<std::string> problems;
  if (!r.ok) problems.push_back("daemon refused: " + r.error);
  expect_verdict(problems, static_cast<Verdict>(r.verdict), want);
  return problems;
}

/// In-process split of the delta path: drives a ServeState with the same
/// deltas the daemon received and splits each apply_delta into the parse and
/// the cone fingerprints (timed again from the benchmark on the resulting
/// config) and the rest. `moved[i]` names the prefix delta i moved; then the
/// other layers are probed too, and that PEC is re-verified alone, as the
/// daemon's next query does, to measure the explorer on it.
void split_deltas(Tracer& tracer, const std::string& config,
                  const std::vector<serve::ApplyDeltaMsg>& deltas,
                  const std::vector<std::optional<Prefix>>& moved, Samples& out,
                  Tally& tally) {
  serve::ServeState state{VerifyOptions{}};
  std::string error;
  if (!state.load(config, error)) {
    tally.record({"in-process load: " + error});
    return;
  }
  const LoopFreedomPolicy loop;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    bool ok = false;
    const double apply_s = timed(tracer, "serve.apply_delta",
                                 [&] { ok = state.apply_delta(deltas[i], error); });
    if (!ok) {
      tally.record({"in-process delta: " + error});
      return;
    }
    const double parse_s = timed(tracer, "config.parse",
                                 [&] { (void)parse_network_config(state.config_text()); });
    std::map<std::string, double> layers;
    if (moved[i]) {
      layers = probe_layers(tracer, state.net());
    } else {
      layers["eqclass.cone_s"] = timed(tracer, "eqclass.cone", [&] {
        (void)compute_pec_fingerprints(state.net(), state.verifier().pecs());
      });
    }
    out["serve.apply_delta_s"].push_back(apply_s);
    out["serve.delta_rest_s"].push_back(apply_s - parse_s - layers["eqclass.cone_s"]);
    if (!moved[i]) continue;
    layers["config.parse_s"] = parse_s;
    Verifier verifier(state.net(), VerifyOptions{});
    const PecId pec = verifier.pecs().find(moved[i]->addr());
    VerifyResult r;
    const double verify_s = timed(tracer, "verifier.verify_pecs",
                                  [&] { r = verifier.verify_pecs({pec}, loop); });
    layers.merge(verify_layers(r, verify_s, 1));
    for (const auto& [k, v] : layers) out[k].push_back(v);
  }
}

// ---------------------------------------------------------------------------
// Workload runs
// ---------------------------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  Tally tally;
  Tracer tracer;
  Samples samples;   ///< end-to-end samples (and per-layer ones, traced)
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable lines before the result
};

constexpr int kSetupSpawns = 31;  ///< extra set-ups per run, for a steady median

/// Serve-layer probe for the batch workloads' networks (traced runs): load
/// the config into a daemon, answer one cold query, then three comment-line
/// deltas (they re-parse and re-fingerprint everything but move no PEC, so
/// every later query is a cache hit) and warm all-hit queries.
void serve_probe(Run& run, const BatchWorkload& w) {
  Daemon d(run.work_dir + "/probe.sock");
  std::string error;
  if (!d.connect(error)) {
    run.tally.record({error});
    return;
  }
  serve::VerdictReplyMsg reply;
  double rtt = 0;
  const auto call = [&](sched::MsgType type, const std::string& payload) {
    const bool ok = d.call(run.tracer, type, payload, reply, rtt, error);
    if (!ok) run.tally.record({"serve probe: " + error});
    return ok;
  };
  if (!call(sched::MsgType::kLoadNet, serve::encode_load_net({w.config}))) return;
  run.tally.record(reply_problems(reply, Verdict::kHolds));
  run.samples["serve.load_s"].push_back(rtt);
  const std::string query = serve::encode_query(loop_query(w.max_failures));
  if (!call(sched::MsgType::kQuery, query)) return;
  std::vector<std::string> cold = reply_problems(reply, Verdict::kHolds);
  expect_eq(cold, "cold reverified", reply.reverified, w.expect.verified);
  run.tally.record(cold);

  std::vector<serve::ApplyDeltaMsg> deltas;
  std::uint64_t hits = 0;
  std::uint64_t targets = 0;
  for (int i = 0; i < 3; ++i) {
    serve::ApplyDeltaMsg delta;
    delta.ops.push_back({true, "# perfbench probe " + std::to_string(i)});
    deltas.push_back(delta);
    if (!call(sched::MsgType::kApplyDelta, serve::encode_apply_delta(delta))) return;
    std::vector<std::string> p = reply_problems(reply, Verdict::kHolds);
    expect_eq(p, "moved", reply.moved, 0);
    run.tally.record(p);
    run.samples["serve.moved_per_delta"].push_back(static_cast<double>(reply.moved));
    for (int h = 0; h < 5; ++h) {
      if (!call(sched::MsgType::kQuery, query)) return;
      std::vector<std::string> q = reply_problems(reply, Verdict::kHolds);
      expect_eq(q, "all-hit reverified", reply.reverified, 0);
      run.tally.record(q);
      hits += reply.cache_hits;
      targets += reply.targets;
      run.samples["serve.hit_rtt_ms"].push_back(rtt * 1e3);
      run.samples["serve.wire_ms"].push_back(rtt * 1e3 - static_cast<double>(reply.wall_ns) / 1e6);
    }
  }
  run.samples["serve.hit_ratio"].push_back(
      targets > 0 ? static_cast<double>(hits) / static_cast<double>(targets) : 0);
  if (!d.shutdown().ok) run.tally.record({"plankton_serve exited uncleanly"});

  Samples split;
  split_deltas(run.tracer, w.config, deltas,
               std::vector<std::optional<Prefix>>(deltas.size()), split, run.tally);
  for (const char* k : {"serve.apply_delta_s", "serve.delta_rest_s"}) {
    run.samples[k] = split[k];
  }
}

bool run_batch(Run& run) {
  const std::optional<BatchWorkload> w = make_batch(run.workload, run.seed);
  if (!w) return false;
  const std::string path =
      run.work_dir + "/" + run.workload + "-" + std::to_string(run.seed) + ".conf";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w->config;
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return false;
    }
  }
  const std::string exe = self_dir() + "/perfbench";
  const auto spawn = [&](bool setup_only, bool traced) {
    return std::make_unique<Process>(
        std::vector<std::string>{exe, "--child", path, "--failures",
                                 std::to_string(w->max_failures), "--cores",
                                 std::to_string(w->cores), "--trace",
                                 traced ? "1" : "0", setup_only ? "--setup-only" : "--verify"},
        true);
  };

  // setup_s is timed inside each child, so process start-up is not in it.
  Samples& s = run.samples;
  for (int i = 0; i < kSetupSpawns; ++i) {
    auto child = spawn(true, false);
    std::string line;
    std::string tag;
    double setup_s = 0;
    if (child->read_line(line)) std::istringstream(line) >> tag >> setup_s;
    if (tag != "ready" || !child->wait().ok) {
      run.tally.record({"set-up child failed"});
      return true;
    }
    s["setup_s"].push_back(setup_s);
  }

  // Traced runs alternate untraced and traced children so the overhead of
  // the spans shows as the difference of their verify times.
  const std::int64_t start = now_ns();
  for (int k = 0; k < (run.trace ? 4 : 3) || seconds_since(start) < run.seconds; ++k) {
    const bool traced = run.trace && k % 2 == 1;
    auto child = spawn(false, traced);
    BatchCounts got;
    std::vector<Span> spans;
    std::map<std::string, double> stats;
    std::optional<double> verify_s;
    std::string line;
    while (child->read_line(line)) {
      std::istringstream in(line);
      std::string tag;
      std::string key;
      double v = 0;
      in >> tag;
      if (tag == "ready" && in >> v) {
        s["setup_s"].push_back(v);
      } else if (tag == "update" && in >> v) {
        s["update_ms"].push_back(v * 1e3);
      } else if (tag == "verify" && in >> v) {
        verify_s = v;
      } else if (tag == "stat" && in >> key >> v) {
        stats[key] = v;
      } else if (tag == "span") {
        Span sp;
        if (parse_span_line(line, child->pid(), sp)) spans.push_back(sp);
      } else if (tag == "count" && in >> key >> v) {
        const auto n = static_cast<std::uint64_t>(v);
        if (key == "verdict") got.verdict = static_cast<Verdict>(n);
        if (key == "pecs") got.pecs = n;
        if (key == "verified") got.verified = n;
        if (key == "classes") got.classes = n;
        if (key == "deduped") got.deduped = n;
        if (key == "states") got.states = n;
        if (key == "states_stored") got.states_stored = n;
        if (key == "failure_sets") got.failure_sets = n;
      }
    }
    const Process::Exit exit = child->wait();
    if (!exit.ok || !verify_s) {
      run.tally.record({"verifier child failed"});
      continue;
    }
    run.tally.record(check_batch(got, w->expect));
    s[traced ? "verify_traced_s" : "verify_s"].push_back(*verify_s);
    s["peak_rss_mb"].push_back(exit.peak_rss_mb);
    for (const auto& [key, v] : stats) s[key].push_back(v);
    run.tracer.adopt(std::move(spans));
  }

  const double verify = trimmed_mean(s["verify_s"], kTrim);
  run.metrics["setup_s"] = median(s["setup_s"]);
  run.metrics["update_ms"] = trimmed_mean(s["update_ms"], kTrim);
  run.metrics["verdict_ms"] = verify * 1e3;
  run.metrics["throughput_rps"] = static_cast<double>(w->expect.verified) / verify;
  run.metrics["peak_rss_mb"] = median(s["peak_rss_mb"]);
  run.notes.push_back("reload: " + describe(s["update_ms"], 1, "ms"));
  run.notes.push_back("verify: " + describe(s["verify_s"], 1e3, "ms"));
  if (run.trace) {
    s["trace.overhead_s"].push_back(trimmed_mean(s["verify_traced_s"], kTrim) - verify);
    serve_probe(run, *w);
  }
  return true;
}

bool run_serve(Run& run) {
  const ServeWorkload w = make_serve();
  DeltaStream stream(w.net, w.prefixes, w.origins, run.seed);
  Samples& s = run.samples;
  const std::string socket = run.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::string load = serve::encode_load_net({w.config});
  const std::string query = serve::encode_query(loop_query(0));
  std::string error;
  serve::VerdictReplyMsg reply;
  double rtt = 0;

  // Set-up: spawn the daemon until the kLoadNet reply arrives, repeated for a
  // steady median; the last daemon serves the closed loop.
  std::unique_ptr<Daemon> d;
  for (int i = 0; i <= kSetupSpawns; ++i) {
    if (d && !d->shutdown().ok) run.tally.record({"plankton_serve exited uncleanly"});
    d.reset();
    const std::int64_t t0 = now_ns();
    d = std::make_unique<Daemon>(socket);
    if (!d->connect(error) ||
        !d->call(run.tracer, sched::MsgType::kLoadNet, load, reply, rtt, error)) {
      run.tally.record({error});
      return true;
    }
    s["setup_s"].push_back(seconds_since(t0));
    s["serve.load_s"].push_back(rtt);
    run.tally.record(reply_problems(reply, Verdict::kHolds));
  }
  const auto call = [&](const char* span, sched::MsgType type, const std::string& payload) {
    const Tracer::Scope scope(run.tracer, span);
    if (d->call(run.tracer, type, payload, reply, rtt, error)) return true;
    run.tally.record({error});
    return false;
  };
  if (!call("serve.query", sched::MsgType::kQuery, query)) return true;
  std::vector<std::string> cold = reply_problems(reply, Verdict::kHolds);
  expect_eq(cold, "cold reverified", reply.reverified, w.routed_pecs);
  run.tally.record(cold);

  // Closed loop: delta, the query that re-verifies it, then (after a benign
  // delta) all-hit queries. The mix (3 all-hit queries per change, a loop
  // every kLoopStride-th delta) is an assumption, not a measured trace; no
  // end-to-end metric depends on kHitQueries. Traced runs trace every other
  // block of kLoopStride rounds, so traced and untraced rounds see one mix.
  constexpr int kHitQueries = 3;
  constexpr std::size_t kMinRounds = 220;  // >= 10 samples beyond p95
  std::vector<serve::ApplyDeltaMsg> sent;
  std::vector<std::optional<Prefix>> moved;
  std::uint64_t hits = 0;
  std::uint64_t targets = 0;
  const std::int64_t start = now_ns();
  for (std::size_t r = 0; r < kMinRounds || seconds_since(start) < run.seconds; ++r) {
    const std::optional<ServeRound> round = stream.next();
    if (!round) {
      run.notes.push_back("delta stream exhausted after " + std::to_string(r) + " rounds");
      break;
    }
    const bool traced = run.trace && (r / DeltaStream::kLoopStride) % 2 == 1;
    run.tracer.enable(traced);
    if (!call("serve.delta", sched::MsgType::kApplyDelta,
              serve::encode_apply_delta(round->delta))) {
      break;
    }
    std::vector<std::string> dp = reply_problems(reply, Verdict::kHolds);
    expect_eq(dp, "moved", reply.moved, 1);
    run.tally.record(dp);
    const double delta_ms = rtt * 1e3;
    s["update_ms"].push_back(delta_ms);
    s["serve.moved_per_delta"].push_back(static_cast<double>(reply.moved));
    sent.push_back(round->delta);
    moved.push_back(w.prefixes[round->prefix]);
    if (!call("serve.query", sched::MsgType::kQuery, query)) break;
    std::vector<std::string> qp = reply_problems(reply, round->expect);
    // Exactly the moved PEC misses the cache: a stream that collapsed into
    // cached cones would show here as reverified == 0.
    expect_eq(qp, "reverified", reply.reverified, 1);
    expect_eq(qp, "cache_hits", reply.cache_hits, w.routed_pecs - 1);
    run.tally.record(qp);
    s[traced ? "verdict_traced_ms" : "verdict_ms"].push_back(rtt * 1e3);
    s["change_ms"].push_back(delta_ms + rtt * 1e3);
    hits += reply.cache_hits;
    targets += reply.targets;
    if (round->adds_loop) continue;
    for (int h = 0; h < kHitQueries; ++h) {
      if (!call("serve.hit", sched::MsgType::kQuery, query)) break;
      std::vector<std::string> hp = reply_problems(reply, Verdict::kHolds);
      expect_eq(hp, "all-hit reverified", reply.reverified, 0);
      run.tally.record(hp);
      s["serve.hit_rtt_ms"].push_back(rtt * 1e3);
      s["serve.wire_ms"].push_back(rtt * 1e3 - static_cast<double>(reply.wall_ns) / 1e6);
    }
  }
  run.tracer.enable(run.trace);
  const Process::Exit exit = d->shutdown();
  if (!exit.ok) run.tally.record({"plankton_serve exited uncleanly"});
  d.reset();

  run.metrics["setup_s"] = median(s["setup_s"]);
  run.metrics["update_ms"] = trimmed_mean(s["update_ms"], kTrim);
  run.metrics["verdict_ms"] = trimmed_mean(s["verdict_ms"], kTrim);
  // Verified changes per second: a delta plus the query that re-verifies it.
  run.metrics["throughput_rps"] = 1e3 / trimmed_mean(s["change_ms"], kTrim);
  run.metrics["peak_rss_mb"] = exit.peak_rss_mb;
  run.notes.push_back("delta rtt: " + describe(s["update_ms"], 1, "ms"));
  run.notes.push_back("post-delta query rtt: " + describe(s["verdict_ms"], 1, "ms"));
  run.notes.push_back("all-hit query rtt: " + describe(s["serve.hit_rtt_ms"], 1, "ms"));
  // Over the post-delta queries only, so the all-hit queries cannot lift it.
  s["serve.hit_ratio"].push_back(
      targets > 0 ? static_cast<double>(hits) / static_cast<double>(targets) : 0);
  if (run.trace) {
    s["trace.overhead_s"].push_back(
        (trimmed_mean(s["verdict_traced_ms"], kTrim) - run.metrics["verdict_ms"]) / 1e3);
    // The in-process split replays the first rounds of the same stream.
    constexpr std::size_t kSplitRounds = 100;
    sent.resize(std::min(sent.size(), kSplitRounds));
    moved.resize(sent.size());
    split_deltas(run.tracer, w.config, sent, moved, s, run.tally);
    s["config.bytes"].assign(1, static_cast<double>(w.config.size()));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string host_tags(const std::string& commit) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\",\"commit\":\"%s\"}",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, commit.c_str());
  return buf;
}

void print_result(Run& run, const std::string& commit) {
  std::vector<std::string> problems;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::printf("WARNING: %s build; timings are not comparable to Release\n",
                PERFBENCH_BUILD_TYPE);
  }
  std::printf("host %s\n", host_tags(commit).c_str());
  std::printf("workload %s seed %llu seconds %.0f trace %d\n", run.workload.c_str(),
              static_cast<unsigned long long>(run.seed), run.seconds, run.trace ? 1 : 0);
  for (const std::string& n : run.notes) std::printf("  %s\n", n.c_str());

  std::vector<MetricDef> defs;
  if (run.trace) {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    for (const MetricDef& m : defs) {
      const auto it = run.samples.find(m.name);
      if (it != run.samples.end() && !it->second.empty()) {
        run.metrics[m.name] = median(it->second);
      }
    }
    std::printf("  %-24s %8s %12s %12s\n", "span", "calls", "total_s", "self_s");
    for (const Tracer::Row& row : run.tracer.table()) {
      std::printf("  %-24s %8llu %12.6f %12.6f\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.calls), row.total_s, row.self_s);
    }
    const std::string trace_path = run.work_dir + "/trace-" + run.workload + "-" +
                                   std::to_string(run.seed) + ".json";
    std::ofstream out(trace_path, std::ios::trunc);
    out << run.tracer.chrome_json(host_tags(commit));
    std::printf("  chrome trace: %s\n", trace_path.c_str());
  } else {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }

  std::string json = "{";
  for (const MetricDef& m : defs) {
    const auto it = run.metrics.find(m.name);
    double v = it == run.metrics.end() ? std::nan("") : it->second;
    if (!std::isfinite(v) || (!run.trace && v <= 0)) {
      problems.push_back(std::string("metric ") + m.name + " not measured");
      v = 0;
    }
    if (!valid_metric_name(m.name)) problems.push_back(std::string("bad name ") + m.name);
    std::printf("  %-26s %.6g %s\n", m.name, v, m.unit);
    json += std::string(json.size() > 1 ? "," : "") + "\"" + m.name +
            "\":{\"value\":" + json_number(v) + ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}";
  for (const std::string& p : problems) run.tally.record({p});
  for (const std::string& r : run.tally.reasons) std::printf("FAILED: %s\n", r.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              run.tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed), json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--commit <id>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&](const char* k, const char* fallback) {
    const auto it = args.find(k);
    return it == args.end() ? std::string(fallback) : it->second;
  };
  if (args.count("--child") != 0) {
    // Child arguments: --child <config> --failures n --cores n --trace t <mode>
    const bool setup_only = std::string(argv[argc - 1]) == "--setup-only";
    return run_child(arg("--child", ""), setup_only, std::atoi(arg("--failures", "0").c_str()),
                     std::atoi(arg("--cores", "1").c_str()), arg("--trace", "0") == "1");
  }
  ::signal(SIGPIPE, SIG_IGN);

  Run run;
  run.workload = arg("--workload", "");
  run.seed = std::strtoull(arg("--seed", "1").c_str(), nullptr, 10);
  run.seconds = std::atof(arg("--seconds", "10").c_str());
  run.trace = arg("--trace", "0") == "1";
  run.work_dir = arg("--work-dir", "");
  if (run.work_dir.empty() || run.seconds <= 0) return usage();
  run.tracer.enable(run.trace);

  const bool known =
      run.workload == "serve_deltas" ? run_serve(run) : run_batch(run);
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", run.workload.c_str());
    return usage();
  }
  print_result(run, arg("--commit", "unknown"));
  return 0;
}
