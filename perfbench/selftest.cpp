// Self-test of the benchmark's own arithmetic and checks:
//
//   python3 perfbench/run.py --selftest
//
// Covers the percentile and sample-count rules, the metric-name charset (also
// applied to every name in BENCHMARK.json), that a wrong known answer counts
// as a failed operation, the self time of nested spans, and that the serve
// delta stream keeps its known answers when driven through a ServeState.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload/fat_tree.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using plankton::Verdict;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_percentiles() {
  check(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "median of an even sample interpolates");
  check(near(median({5, 1, 3}), 3), "median of an odd sample is the middle one");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // numpy.percentile(range(1, 101), 95) == 95.05
  check(near(percentile(hundred, 0.95), 95.05), "p95 of 1..100 is 95.05");
  check(near(percentile({7}, 0.95), 7), "a single sample is every percentile");
  check(std::isnan(percentile({}, 0.5)), "an empty sample has no percentile");

  check(near(trimmed_mean({100, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.1), 5.5),
        "a 10% trimmed mean of 10 samples drops one at each end");
  check(near(trimmed_mean({1, 2, 9}, 0.1), 4), "too few samples to trim: the plain mean");
  check(std::isnan(trimmed_mean({}, 0.1)), "an empty sample has no mean");

  check(samples_beyond(200, 0.95) == 10, "200 samples: 10 beyond p95");
  check(samples_beyond(199, 0.95) == 10, "199 samples: 10 beyond p95");
  check(samples_beyond(181, 0.95) == 9, "181 samples: 9 beyond p95");
  check(samples_beyond(10, 0.5) == 5, "10 samples: 5 beyond the median");
  check(samples_beyond(0, 0.5) == 0, "no samples: none beyond");
  check(highest_tail(1000) == 0.99, "1000 samples report p99");
  check(highest_tail(220) == 0.95, "220 samples report p95");
  check(highest_tail(41) == 0.75, "41 samples report p75");
  check(highest_tail(30) == 0.0, "30 samples report only the median");
}

void test_names() {
  for (const char* ok : {"setup_s", "rpvp.states_per_s", "a-b.c_9", "9lives"}) {
    check(valid_metric_name(ok), std::string("accepts ") + ok);
  }
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a\"b", "é"}) {
    check(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  }
  check(valid_metric_name(std::string(64, 'a')), "accepts 64 characters");
  check(!valid_metric_name(std::string(65, 'a')), "rejects 65 characters");

  std::ifstream in("BENCHMARK.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string spec = buf.str();
  check(!spec.empty(), "BENCHMARK.json is readable from the checkout root");
  const std::regex name_re("\"name\": \"([^\"]*)\"");
  std::set<std::string> seen;
  for (std::sregex_iterator it(spec.begin(), spec.end(), name_re), end; it != end; ++it) {
    const std::string name = (*it)[1];
    check(valid_metric_name(name), "BENCHMARK.json name '" + name + "' is valid");
    check(seen.insert(name).second, "BENCHMARK.json name '" + name + "' is unique");
  }
  check(seen.size() > 5, "BENCHMARK.json lists its names");
}

void test_json_number() {
  for (const double v : {0.1, 1.0 / 3.0, 2187.1664690000002, 1e-7}) {
    check(std::strtod(json_number(v).c_str(), nullptr) == v,
          "json_number keeps every digit of " + json_number(v));
  }
}

void test_wrong_answer_fails() {
  plankton::FatTreeOptions o;
  o.k = 4;
  const std::string config = plankton::serve::render_config(plankton::make_fat_tree(o).net);
  const plankton::ParsedNetwork parsed = plankton::parse_network_config(config);
  plankton::Verifier verifier(parsed.net, plankton::VerifyOptions{});
  const plankton::VerifyResult r = verifier.verify(plankton::LoopFreedomPolicy{});
  BatchCounts got{r.verdict,           r.pecs_total,           r.pecs_verified,
                  r.pec_classes,       r.pecs_deduped,         r.total.states_explored,
                  r.total.states_stored, r.total.failure_sets};

  Tally right;
  right.record(check_batch(got, got));
  check(right.attempted == 1 && right.failed == 0, "the known answer passes");

  BatchCounts wrong_verdict = got;
  wrong_verdict.verdict = Verdict::kViolated;
  Tally tally;
  tally.record(check_batch(got, wrong_verdict));
  check(tally.attempted == 1 && tally.failed == 1,
        "a wrong expected verdict counts as a failed operation");
  check(!tally.reasons.empty() &&
            tally.reasons.front() == "verdict holds, expected violated",
        "the failure names the verdict mismatch");

  BatchCounts wrong_count = got;
  ++wrong_count.states;
  tally.record(check_batch(got, wrong_count));
  check(tally.attempted == 2 && tally.failed == 2,
        "a wrong exact count counts as a failed operation");
}

void test_self_time() {
  Tracer t;
  t.adopt({{"parent", 0, 100, 0, -1, 1}, {"child", 10, 40, 1, 0, 1},
           {"child", 50, 60, 2, 0, 1}, {"parent", 0, 100, 0, -1, 2}});
  for (const Tracer::Row& row : t.table()) {
    if (row.name == "parent") {
      check(row.calls == 2 && near(row.self_s, 160e-9),
            "self time subtracts the children of the same process only");
    } else {
      check(row.calls == 2 && near(row.self_s, 40e-9), "leaf self time is its total");
    }
  }
  Span s;
  check(parse_span_line(span_line({"config.parse", 5, 9, 3, 1, 0}), 42, s) &&
            s.name == "config.parse" && s.start_ns == 5 && s.end_ns == 9 &&
            s.id == 3 && s.parent == 1 && s.pid == 42,
        "span lines round-trip");
}

void test_delta_stream() {
  const ServeWorkload w = make_serve();
  DeltaStream stream(w.net, w.prefixes, w.origins, 7);
  plankton::serve::ServeState state{plankton::VerifyOptions{}};
  std::string error;
  check(state.load(w.config, error), "serve config loads: " + error);
  plankton::serve::QueryMsg loop;
  loop.policy_spec = "loop";
  (void)state.query(loop);
  std::set<std::string> added;
  for (std::uint64_t r = 0; r < 2 * DeltaStream::kLoopStride + 2; ++r) {
    const std::optional<ServeRound> round = stream.next();
    if (!round) {
      check(false, "stream yields rounds");
      return;
    }
    const std::string at = "round " + std::to_string(r);
    check(round->adds_loop == (r % DeltaStream::kLoopStride == DeltaStream::kLoopStride - 1),
          at + ": loops come at the fixed stride");
    check(round->expect == (round->adds_loop ? Verdict::kViolated : Verdict::kHolds),
          at + ": known answer follows the loop");
    for (const plankton::serve::DeltaOp& op : round->delta.ops) {
      if (op.add && !round->adds_loop) {
        check(added.insert(op.line).second, at + ": benign static is new: " + op.line);
      }
    }
    check(state.apply_delta(round->delta, error), at + ": delta applies: " + error);
    check(state.last_moved() == 1, at + ": delta moves one PEC");
    const plankton::serve::VerdictReplyMsg reply = state.query(loop);
    check(static_cast<Verdict>(reply.verdict) == round->expect, at + ": verdict is the known answer");
    check(reply.reverified == 1, at + ": the moved PEC misses the cache");
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_names();
  test_json_number();
  test_wrong_answer_fails();
  test_self_time();
  test_delta_stream();
  std::printf("%s (%d failures)\n", failures == 0 ? "selftest passed" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
