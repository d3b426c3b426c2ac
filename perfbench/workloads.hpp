// Seeded inputs and known answers for the three benchmark workloads.
//
// The program under test only ever sees what these functions produce:
// rendered config text for the batch workloads, and a config plus a stream
// of line-level deltas for the serve workload. A seed fixes every input.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checker/budget.hpp"
#include "config/network.hpp"
#include "serve/serve.hpp"

namespace perfbench {

/// splitmix64: the single source of randomness for every generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Tally of attempted and failed operations. A failed operation is any reply
/// that is an error or refusal, an inconclusive verdict, a verdict other than
/// the known answer, or a count that differs from its exact expected value.
/// Each failure is recorded with the reason, so a run names what went wrong.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  ///< first few failure reasons

  /// Counts one operation; `problems` empty means it met its known answer.
  void record(const std::vector<std::string>& problems);
};

/// Appends a problem when `got != want`.
void expect_eq(std::vector<std::string>& problems, const std::string& what,
               std::uint64_t got, std::uint64_t want);

/// Appends a problem unless `got` is the known answer `want`.
void expect_verdict(std::vector<std::string>& problems, plankton::Verdict got,
                    plankton::Verdict want);

// ---------------------------------------------------------------------------
// Batch workloads (fattree_dedup, ibgp_failures)
// ---------------------------------------------------------------------------

/// Exact, scheduling-independent results of one batch verification.
struct BatchCounts {
  plankton::Verdict verdict = plankton::Verdict::kHolds;
  std::uint64_t pecs = 0;          ///< VerifyResult::pecs_total
  std::uint64_t verified = 0;      ///< VerifyResult::pecs_verified
  std::uint64_t classes = 0;       ///< VerifyResult::pec_classes
  std::uint64_t deduped = 0;       ///< VerifyResult::pecs_deduped
  std::uint64_t states = 0;        ///< SearchStats::states_explored
  std::uint64_t states_stored = 0; ///< SearchStats::states_stored
  std::uint64_t failure_sets = 0;  ///< SearchStats::failure_sets
};

/// Compares observed counts with the workload's known answer.
std::vector<std::string> check_batch(const BatchCounts& got,
                                     const BatchCounts& want);

/// A batch workload verifies the `loop` policy over every PEC.
struct BatchWorkload {
  std::string config;       ///< plankton config text, as a user would write it
  int max_failures = 0;
  int cores = 4;
  BatchCounts expect;
};

/// `fattree_dedup` or `ibgp_failures`; nullopt for any other name. The seed
/// permutes device names, which changes the text the program reads but none
/// of the exact counts.
std::optional<BatchWorkload> make_batch(const std::string& name,
                                        std::uint64_t seed);

// ---------------------------------------------------------------------------
// Serve workload (serve_deltas)
// ---------------------------------------------------------------------------

/// One round of the closed loop: a delta, then the query that re-verifies it.
struct ServeRound {
  plankton::serve::ApplyDeltaMsg delta;
  plankton::Verdict expect = plankton::Verdict::kHolds;
  bool adds_loop = false;
  std::size_t prefix = 0;  ///< index of the prefix whose PEC the delta moves
};

/// Seeded delta generator over an OSPF network with one originated prefix
/// per origin device. Benign deltas replace a prefix's static route with one
/// along a shortest path (loop-free by construction) that this stream has not
/// installed before, so every benign delta moves that PEC to a cone the
/// daemon has never seen. Every `kLoopStride`-th round instead installs a
/// two-node forwarding loop for one prefix (known answer: violated), and the
/// round after it removes the loop together with a fresh benign static.
class DeltaStream {
 public:
  static constexpr std::uint64_t kLoopStride = 10;

  DeltaStream(const plankton::Network& net,
              const std::vector<plankton::Prefix>& prefixes,
              const std::vector<plankton::NodeId>& origins, std::uint64_t seed);

  /// Next round; nullopt once no unused benign static is left.
  std::optional<ServeRound> next();

 private:
  struct Edge {
    plankton::NodeId from;
    plankton::NodeId to;
  };
  std::string static_line(std::size_t prefix, Edge e) const;
  /// Removes `prefix`'s installed lines and installs an unused benign static;
  /// false when none is left for that prefix.
  bool replace_with_benign(std::size_t prefix, ServeRound& round);

  const plankton::Network& net_;
  std::vector<plankton::Prefix> prefixes_;
  std::vector<plankton::NodeId> origins_;
  Rng rng_;
  std::vector<std::vector<Edge>> unused_;        ///< shuffled benign statics
  std::vector<std::vector<std::string>> installed_;  ///< lines per prefix
  std::uint64_t round_ = 0;
  std::optional<std::size_t> loop_open_;         ///< prefix holding a loop
};

struct ServeWorkload {
  plankton::Network net;  ///< k=12 fat tree with perturbed link costs
  std::vector<plankton::Prefix> prefixes;
  std::vector<plankton::NodeId> origins;
  std::string config;
  std::uint64_t routed_pecs = 0;  ///< targets of every `loop` query
};

ServeWorkload make_serve();

}  // namespace perfbench
