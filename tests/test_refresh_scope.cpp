// Refresh scope (docs/architecture.md "Refresh scope"): the explorer
// refreshes and scans only the session edges RoutingProcess::can_transmit
// admits. Two properties pin it down:
//
//  * Peer-scope differential oracle: a decorator that forwards every call to
//    the real BgpProcess but answers can_transmit with true forces the
//    all-peer scope. Both arms must observe the identical run — verdict,
//    state counts, failure sets, policy checks and violation trail text —
//    over seeded random iBGP-mesh + eBGP-border networks with route maps,
//    with and without a bound upstream resolver. The corpus scales with
//    PLANKTON_DIFF_SEEDS.
//  * iBGP over OSPF end to end: a Verifier run on an AS topology with a full
//    iBGP mesh keeps the exact state counts the all-peer scope produced, at
//    1 and 4 cores.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"
#include "workload/as_topo.hpp"

namespace plankton {
namespace {

/// Forwards everything to `inner` except can_transmit, which it answers with
/// true: every live session edge is in scope.
class AllPeerScope final : public RoutingProcess {
 public:
  explicit AllPeerScope(std::unique_ptr<RoutingProcess> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] Protocol protocol() const override { return inner_->protocol(); }
  [[nodiscard]] const std::vector<NodeId>& members() const override {
    return inner_->members();
  }
  [[nodiscard]] const std::vector<NodeId>& origins() const override {
    return inner_->origins();
  }
  [[nodiscard]] RouteId origin_route(NodeId o, ModelContext& ctx) const override {
    return inner_->origin_route(o, ctx);
  }
  void prepare(const FailureSet& failures, ModelContext& ctx) override {
    inner_->prepare(failures, ctx);
  }
  [[nodiscard]] std::span<const NodeId> peers(NodeId n) const override {
    return inner_->peers(n);
  }
  [[nodiscard]] RouteId advertised(NodeId p, NodeId n, RouteId r,
                                   ModelContext& ctx) const override {
    return inner_->advertised(p, n, r, ctx);
  }
  [[nodiscard]] bool cacheable() const override { return inner_->cacheable(); }
  [[nodiscard]] int compare(NodeId n, RouteId a, RouteId b,
                            const ModelContext& ctx) const override {
    return inner_->compare(n, a, b, ctx);
  }
  [[nodiscard]] bool valid(NodeId n, RouteId cur, const StateView& s,
                           ModelContext& ctx) const override {
    return inner_->valid(n, cur, s, ctx);
  }
  [[nodiscard]] bool can_transmit(NodeId, NodeId) const override { return true; }
  [[nodiscard]] bool merge_equal_updates() const override {
    return inner_->merge_equal_updates();
  }
  [[nodiscard]] RouteId merge(NodeId n, std::span<const RouteId> updates,
                              ModelContext& ctx) const override {
    return inner_->merge(n, updates, ctx);
  }
  [[nodiscard]] NodeId deterministic_node(std::span<const NodeId> enabled,
                                          const StateView& s, ModelContext& ctx,
                                          bool& tie_ok) const override {
    return inner_->deterministic_node(enabled, s, ctx, tie_ok);
  }

 private:
  std::unique_ptr<RoutingProcess> inner_;
};

/// A fixed IGP outcome over the internal routers' physical links: hop-count
/// shortest paths, costs skewed per variant, and in variant 1 one router
/// pair made mutually unreachable (its iBGP session goes down).
class FixedIgp final : public UpstreamResolver {
 public:
  FixedIgp(const Network& net, std::size_t internals, int variant,
           std::mt19937_64& rng)
      : net_(net), variant_(variant) {
    const std::size_t n = net.topo.node_count();
    hops_.assign(n, std::vector<std::uint32_t>(n, kInfiniteCost));
    for (NodeId src = 0; src < internals; ++src) {
      std::deque<NodeId> queue{src};
      hops_[src][src] = 0;
      while (!queue.empty()) {
        const NodeId a = queue.front();
        queue.pop_front();
        for (const Adjacency& adj : net.topo.neighbors(a)) {
          if (adj.neighbor >= internals) continue;
          if (hops_[src][adj.neighbor] != kInfiniteCost) continue;
          hops_[src][adj.neighbor] = hops_[src][a] + 1;
          queue.push_back(adj.neighbor);
        }
      }
    }
    nexthops_.assign(n, std::vector<std::vector<NodeId>>(n));
    for (NodeId from = 0; from < internals; ++from) {
      for (NodeId to = 0; to < internals; ++to) {
        if (from == to) continue;
        for (const Adjacency& adj : net.topo.neighbors(from)) {
          if (adj.neighbor < internals &&
              hops_[adj.neighbor][to] + 1 == hops_[from][to]) {
            nexthops_[from][to].push_back(adj.neighbor);
          }
        }
      }
    }
    if (variant_ == 1 && internals > 2) {
      cut_a_ = static_cast<NodeId>(rng() % internals);
      cut_b_ = static_cast<NodeId>((cut_a_ + 1 + rng() % (internals - 1)) % internals);
    }
  }

  [[nodiscard]] std::uint32_t igp_cost(NodeId from, IpAddr target) const override {
    const NodeId to = owner(target);
    if (to == kNoNode || hops_[from][to] == kInfiniteCost) return kInfiniteCost;
    if ((from == cut_a_ && to == cut_b_) || (from == cut_b_ && to == cut_a_)) {
      return kInfiniteCost;
    }
    return hops_[from][to] * 10 + (from * 7 + to * 3 + variant_) % 5;
  }

  [[nodiscard]] std::span<const NodeId> nexthops_towards(
      NodeId from, IpAddr target) const override {
    const NodeId to = owner(target);
    if (to == kNoNode) return {};
    return nexthops_[from][to];
  }

  [[nodiscard]] std::uint64_t outcome_hash() const override {
    return 0x16b0 + static_cast<std::uint64_t>(variant_);
  }

 private:
  [[nodiscard]] NodeId owner(IpAddr a) const {
    for (NodeId n = 0; n < net_.topo.node_count(); ++n) {
      if (net_.device(n).loopback == a) return n;
    }
    return kNoNode;
  }

  const Network& net_;
  int variant_;
  NodeId cut_a_ = kNoNode;
  NodeId cut_b_ = kNoNode;
  std::vector<std::vector<std::uint32_t>> hops_;
  std::vector<std::vector<std::vector<NodeId>>> nexthops_;
};

/// Two alternative upstream outcomes for every failure set.
class TwoOutcomes final : public UpstreamProvider {
 public:
  TwoOutcomes(const Network& net, std::size_t internals, std::mt19937_64& rng)
      : a_(net, internals, 0, rng), b_(net, internals, 1, rng) {}
  [[nodiscard]] std::vector<const UpstreamResolver*> outcomes(
      const FailureSet&) const override {
    return {&a_, &b_};
  }

 private:
  FixedIgp a_;
  FixedIgp b_;
};

struct ScopeInstance {
  Network net;
  std::size_t internals = 0;
  Prefix prefix{IpAddr(203, 0, 113, 0), 24};
  std::unique_ptr<Policy> policy;
  ExploreOptions opts;
};

void add_session(Network& net, NodeId a, NodeId b, bool ibgp) {
  BgpSession sa;
  sa.peer = b;
  sa.ibgp = ibgp;
  net.device(a).bgp->sessions.push_back(sa);
  BgpSession sb;
  sb.peer = a;
  sb.ibgp = ibgp;
  net.device(b).bgp->sessions.push_back(sb);
}

/// Internal routers 0..k-1 in one AS with a full iBGP mesh over a random
/// connected physical graph; external routers in their own ASes attached
/// over eBGP to one or two internal borders. Externals (and sometimes one
/// internal) originate the prefix; random local-pref imports and prepend
/// exports create competing routes.
ScopeInstance make_instance(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScopeInstance inst;
  Network& net = inst.net;
  inst.internals = 3 + rng() % 4;
  const std::size_t externals = 1 + rng() % 3;
  for (std::size_t i = 0; i < inst.internals; ++i) {
    const NodeId id = net.add_device(
        "r" + std::to_string(i), IpAddr(10, 255, static_cast<std::uint8_t>(i), 1));
    net.device(id).bgp.emplace();
    net.device(id).bgp->asn = 65000;
  }
  for (std::size_t i = 1; i < inst.internals; ++i) {
    net.topo.add_link(static_cast<NodeId>(i), static_cast<NodeId>(rng() % i));
  }
  for (std::size_t c = 0; c < inst.internals / 2; ++c) {
    const auto a = static_cast<NodeId>(rng() % inst.internals);
    const auto b = static_cast<NodeId>(rng() % inst.internals);
    if (a != b && net.topo.find_link(a, b) == kNoLink) net.topo.add_link(a, b);
  }
  for (NodeId a = 0; a < inst.internals; ++a) {
    for (NodeId b = a + 1; b < inst.internals; ++b) add_session(net, a, b, true);
  }
  bool originated = false;
  for (std::size_t e = 0; e < externals; ++e) {
    const NodeId x = net.add_device(
        "x" + std::to_string(e), IpAddr(10, 254, static_cast<std::uint8_t>(e), 1));
    net.device(x).bgp.emplace();
    net.device(x).bgp->asn = 65100 + static_cast<std::uint32_t>(e);
    const auto border = static_cast<NodeId>(rng() % inst.internals);
    net.topo.add_link(x, border);
    add_session(net, x, border, false);
    if (rng() % 3 == 0) {
      const auto second = static_cast<NodeId>(rng() % inst.internals);
      if (second != border) {
        net.topo.add_link(x, second);
        add_session(net, x, second, false);
      }
    }
    if (rng() % 3 != 0 || (e + 1 == externals && !originated)) {
      net.device(x).bgp->originated.push_back(inst.prefix);
      originated = true;
    }
  }
  if (rng() % 4 == 0) {
    net.device(static_cast<NodeId>(rng() % inst.internals))
        .bgp->originated.push_back(inst.prefix);
  }
  for (NodeId v = 0; v < net.topo.node_count(); ++v) {
    for (auto& s : net.device(v).bgp->sessions) {
      if (rng() % 3 == 0) {
        RouteMapClause clause;
        clause.action.set_local_pref = 50 + 50 * (rng() % 4);
        s.import.clauses.push_back(clause);
      }
      if (rng() % 4 == 0) {
        RouteMapClause clause;
        clause.action.prepend = static_cast<std::uint8_t>(1 + rng() % 2);
        s.export_.clauses.push_back(clause);
      }
    }
  }
  if (rng() % 2 == 0) {
    inst.policy = std::make_unique<ReachabilityPolicy>(
        std::vector<NodeId>{static_cast<NodeId>(rng() % inst.internals)});
  } else {
    inst.policy = std::make_unique<LoopFreedomPolicy>();
  }
  inst.opts.max_failures = static_cast<int>(rng() % 2);
  inst.opts.deterministic_nodes = rng() % 2 == 0;
  inst.opts.por = rng() % 2 == 0;
  inst.opts.lec_failures = rng() % 2 == 0;
  inst.opts.find_all_violations = rng() % 2 == 0;
  // §4.1.3's component filter couples nodes by can_transmit too; with it on,
  // the all-peer arm would merge components rather than widen the refresh.
  inst.opts.decision_independence = false;
  inst.opts.budget.max_states = 200000;
  return inst;
}

struct ScopeFingerprint {
  Verdict verdict = Verdict::kHolds;
  std::uint64_t states_explored = 0;
  std::uint64_t states_stored = 0;
  std::uint64_t failure_sets = 0;
  std::uint64_t policy_checks = 0;
  std::vector<std::string> violations;  ///< message + trail text, in order

  friend bool operator==(const ScopeFingerprint&, const ScopeFingerprint&) = default;
};

ScopeFingerprint run_arm(const ScopeInstance& inst, const Pec& pec,
                         const UpstreamProvider* upstream, bool all_peers) {
  std::vector<PrefixTask> tasks = make_tasks(inst.net, pec);
  if (all_peers) {
    for (PrefixTask& t : tasks) {
      t.process = std::make_unique<AllPeerScope>(std::move(t.process));
    }
  }
  Explorer ex(inst.net, pec, std::move(tasks), *inst.policy, inst.opts, upstream);
  const ExploreResult r = ex.run();
  ScopeFingerprint fp;
  fp.verdict = r.verdict();
  fp.states_explored = r.stats.states_explored;
  fp.states_stored = r.stats.states_stored;
  fp.failure_sets = r.stats.failure_sets;
  fp.policy_checks = r.stats.policy_checks;
  for (const Violation& v : r.violations) {
    fp.violations.push_back(v.message + "\n" + v.trail_text);
  }
  return fp;
}

int instance_count() {
  const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
  if (v != nullptr && std::atoi(v) > 0) return std::atoi(v);
  return 200;
}

TEST(PeerScopeOracle, TransmitScopeMatchesAllPeerScope) {
  int violated = 0;
  int held = 0;
  int explored = 0;
  const int count = instance_count();
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = 0x5c09e000 + static_cast<std::uint64_t>(i);
    const ScopeInstance inst = make_instance(seed);
    const PecSet pecs = compute_pecs(inst.net);
    const Pec& pec = pecs.pecs[pecs.find(inst.prefix.addr())];
    ASSERT_TRUE(pec.has_routing()) << "seed " << seed;
    std::mt19937_64 rng(seed ^ 0xface);
    const TwoOutcomes bound(inst.net, inst.internals, rng);
    for (const UpstreamProvider* upstream :
         {static_cast<const UpstreamProvider*>(nullptr),
          static_cast<const UpstreamProvider*>(&bound)}) {
      const ScopeFingerprint scoped = run_arm(inst, pec, upstream, false);
      const ScopeFingerprint all = run_arm(inst, pec, upstream, true);
      EXPECT_EQ(scoped, all) << "seed " << seed << " upstream "
                             << (upstream != nullptr ? "bound" : "none");
      if (scoped.states_explored > 0) ++explored;
      if (scoped.verdict == Verdict::kViolated) ++violated;
      if (scoped.verdict == Verdict::kHolds) ++held;
    }
  }
  // A few instances stop at the root (the policy source is an origin).
  EXPECT_GT(explored, count) << "most runs must take transitions";
  EXPECT_GT(violated, 0) << "the corpus must include violated instances";
  EXPECT_GT(held, 0) << "the corpus must include holding instances";
}

TEST(IbgpOverOspf, ExactCountsAtOneAndFourCores) {
  // A 24-router cut of the AS3967 generator: the full 79-router network
  // (857,152 states; its counts are checked on every benchmark run) takes
  // minutes under the sanitizers.
  AsTopo topo = make_as_topo("AS3967", 24);
  add_ibgp_mesh(topo);
  for (const int cores : {1, 4}) {
    VerifyOptions vo;
    vo.cores = cores;
    vo.explore.max_failures = 1;
    Verifier verifier(topo.net, vo);
    const VerifyResult r = verifier.verify(LoopFreedomPolicy());
    EXPECT_EQ(r.verdict, Verdict::kHolds) << "cores " << cores;
    EXPECT_EQ(r.total.states_explored, 22129u) << "cores " << cores;
    EXPECT_EQ(r.total.states_stored, 23104u) << "cores " << cores;
    EXPECT_EQ(r.total.failure_sets, 975u) << "cores " << cores;
  }
}

}  // namespace
}  // namespace plankton
