#include "eqclass/pec_dedup.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "netbase/hash.hpp"

namespace plankton {
namespace {

// ---------------------------------------------------------------------------
// Route-map canonicalization: the evaluation footprint on one PEC's prefixes.
//
// Only routes for the PEC's own prefixes ever flow through a session's maps
// during this PEC's exploration, so two maps are interchangeable iff they
// treat *those* prefixes identically. Clauses whose prefix match can never
// fire for any PEC prefix are inert here (first-match-wins falls through
// them) and are dropped; fireable clauses keep a per-prefix-index match
// bitmask in place of the concrete prefix value. This is what lets PECs that
// differ only in address bits — the classic many-prefixes-same-treatment
// configuration — share one canonical form.
// ---------------------------------------------------------------------------
std::uint64_t canonical_route_map(const RouteMap& rm, const Pec& pec) {
  std::uint64_t h = hash_mix(rm.default_permit ? 0xD1 : 0xD0);
  if (rm.clauses.empty()) return h;  // trivial map: one mix, no scan
  for (const RouteMapClause& c : rm.clauses) {
    std::uint64_t match_bits = 0;
    if (c.match.prefix) {
      for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
        const Prefix& p = pec.prefixes[pi].prefix;
        const bool m = c.match.prefix_mode == RouteMapMatch::PrefixMode::kExact
                           ? *c.match.prefix == p
                           : c.match.prefix->covers(p);
        if (m) match_bits |= std::uint64_t{1} << pi;
      }
      if (match_bits == 0) continue;  // inert for every prefix of this PEC
    } else {
      match_bits = ~std::uint64_t{0};  // no prefix condition: all prefixes
    }
    h = hash_combine(h, match_bits);
    h = hash_combine(h, c.match.community ? 0x100u + *c.match.community : 1u);
    h = hash_combine(h, c.match.max_path_len ? 0x10000u + *c.match.max_path_len : 1u);
    h = hash_combine(h, c.action.permit ? 2u : 1u);
    h = hash_combine(h,
                     c.action.set_local_pref ? 0x1000000ull + *c.action.set_local_pref : 1u);
    h = hash_combine(h, c.action.add_community ? 0x200u + *c.action.add_community : 1u);
    h = hash_combine(h, c.action.prepend);
  }
  return h;
}

/// Caches canonical_route_map across the many per-PEC fingerprint passes of
/// one thread. A map with no prefix-matching clause has a
/// PEC-independent canonical form (its footprint bitmask is all-ones for
/// every PEC) — hash it once; only prefix-matching maps re-canonicalize per
/// PEC. On map-heavy fabrics (eBGP on every link) this removes the dominant
/// fingerprinting cost.
class RouteMapCanon {
 public:
  std::uint64_t of(const RouteMap& rm, const Pec& pec) {
    const auto it = pec_free_.find(&rm);
    if (it != pec_free_.end()) {
      if (it->second.pec_independent) return it->second.hash;
      return canonical_route_map(rm, pec);
    }
    Entry e;
    e.pec_independent =
        std::none_of(rm.clauses.begin(), rm.clauses.end(),
                     [](const RouteMapClause& c) { return c.match.prefix.has_value(); });
    const std::uint64_t h = canonical_route_map(rm, pec);
    if (e.pec_independent) e.hash = h;
    pec_free_.emplace(&rm, e);
    return h;
  }

 private:
  struct Entry {
    bool pec_independent = false;
    std::uint64_t hash = 0;
  };
  std::unordered_map<const RouteMap*, Entry> pec_free_;
};

/// /32 loopback local delivery (dataplane/fib.cpp): node n delivers prefix
/// `pi` of `pec` locally when it owns the loopback.
bool loopback_delivers(const Network& net, const Pec& pec, std::size_t pi,
                       NodeId n) {
  const Prefix& p = pec.prefixes[pi].prefix;
  return p.length() == 32 && net.device(n).loopback == p.addr();
}

// ---------------------------------------------------------------------------
// Per-PEC canonical fingerprint via color refinement with hash-valued colors.
//
// Unlike DecPartition (which renumbers colors densely), the colors here stay
// raw hashes: a hash color is a pure function of the node's configuration
// role, its slice of the PEC, the policy salts, and the (recursively hashed)
// neighborhood — never of the node id — so equal structure yields equal
// color values across different PECs. That invariance is what makes the
// color multiset a canonical form, and the (color, id) sort a canonical
// candidate bijection.
//
// Every multiset (a node's neighborhood, a node's slice of the PEC, the final
// color multiset) is folded as a sum of well-mixed hashes instead of a sorted
// chain: addition commutes, so the kernel never sorts and, with its buffers
// reused across PECs, never allocates. A sum can collide where a sorted chain
// would not; that only costs a merge, because validation below is exact.
// ---------------------------------------------------------------------------

/// The PEC-independent half of the refinement input, built once per call:
/// topology links as CSR arrays (node n's edges are [offset[n], offset[n+1]),
/// labelled with both directions' costs) and each node's protocol role.
struct RefineGraph {
  std::vector<std::uint32_t> offset;
  std::vector<NodeId> to;
  std::vector<std::uint64_t> label;
  std::vector<std::uint64_t> role;

  explicit RefineGraph(const Network& net) {
    const std::size_t n_nodes = net.topo.node_count();
    offset.reserve(n_nodes + 1);
    role.reserve(n_nodes);
    offset.push_back(0);
    for (NodeId n = 0; n < n_nodes; ++n) {
      for (const Adjacency& adj : net.topo.neighbors(n)) {
        to.push_back(adj.neighbor);
        label.push_back(hash_combine(hash_combine(0x701070ull, adj.cost),
                                     net.topo.link(adj.link).cost_from(adj.neighbor)));
      }
      offset.push_back(static_cast<std::uint32_t>(to.size()));
      const DeviceConfig& dev = net.device(n);
      role.push_back(hash_combine(hash_mix(dev.ospf.enabled ? 2 : 1), dev.bgp ? 2u : 1u));
    }
  }
};

/// A PEC-specific refinement edge: a BGP session (its label carries the
/// session's maps canonicalized on this PEC) or a static route's
/// via-neighbor relation.
struct SideEdge {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint64_t label = 0;
};

/// One thread's refinement kernel. `canon_` is a mutable memo, so every
/// thread owns its own Refiner.
class Refiner {
 public:
  Refiner(const Network& net, const RefineGraph& graph, const Policy& policy)
      : net_(net),
        graph_(graph),
        sources_(policy.sources()),
        interesting_(policy.interesting()) {}

  /// Refines `pec` until its partition is stable and returns the canonical
  /// fingerprint. The final colors stay readable through colors().
  std::uint64_t refine(const Pec& pec) {
    seed(pec);
    const std::size_t n_nodes = color_.size();
    // Each round's color is a function of the previous round's, so the
    // partition only ever gets finer; when the number of distinct colors
    // stops growing, it is stable.
    std::size_t distinct = distinct_colors();
    for (std::size_t round = 0; round < n_nodes; ++round) {
      // next[n] = hash_combine(color[n], Σ hash_combine(label, color[to]))
      // over n's edges; hash_combine(l, c) == hash_mix(l ^ hash_mix(c)), so
      // each color is mixed once per round, not once per edge.
      for (NodeId n = 0; n < n_nodes; ++n) mixed_[n] = hash_mix(color_[n]);
      for (NodeId n = 0; n < n_nodes; ++n) {
        std::uint64_t sum = 0;
        for (std::uint32_t e = graph_.offset[n]; e < graph_.offset[n + 1]; ++e) {
          sum += hash_mix(graph_.label[e] ^ mixed_[graph_.to[e]]);
        }
        next_[n] = sum;
      }
      for (const SideEdge& e : side_) next_[e.from] += hash_mix(e.label ^ mixed_[e.to]);
      for (NodeId n = 0; n < n_nodes; ++n) next_[n] = hash_combine(color_[n], next_[n]);
      color_.swap(next_);
      const std::size_t d = distinct_colors();
      if (d == distinct) break;
      distinct = d;
    }

    // Canonical form: color multiset + prefix structure. (Prefix *values*
    // are deliberately absent — only lengths and the footprints already
    // folded into the colors matter to the exploration.)
    std::uint64_t sum = 0;
    for (const std::uint64_t c : color_) sum += hash_mix(c);
    std::uint64_t fp = hash_combine(hash_combine(0xF1F0ull, n_nodes), sum);
    fp = hash_combine(fp, pec.prefixes.size());
    for (const PecPrefix& pp : pec.prefixes) fp = hash_combine(fp, pp.prefix.length());
    return fp;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& colors() const { return color_; }

 private:
  /// Base colors and the PEC's side edges. Base color = configuration role
  /// + PEC slice + policy salts. Sources and interesting nodes get
  /// position-unique salts, so they sit alone in their color class and the
  /// canonical bijection can only map them to themselves.
  void seed(const Pec& pec) {
    const std::size_t n_nodes = graph_.role.size();
    slice_.assign(n_nodes, 0);
    side_.clear();
    for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
      const PecPrefix& pp = pec.prefixes[pi];
      for (const NodeId n : pp.ospf_origins) slice_[n] += hash_mix(0x10 + pi * 8);
      for (const NodeId n : pp.bgp_origins) slice_[n] += hash_mix(0x11 + pi * 8);
      if (pp.prefix.length() == 32) {
        for (NodeId n = 0; n < n_nodes; ++n) {
          if (loopback_delivers(net_, pec, pi, n)) slice_[n] += hash_mix(0x12 + pi * 8);
        }
      }
      for (const auto& [dev, idx] : pp.static_routes) {
        const StaticRoute& sr = net_.device(dev).statics[idx];
        // via_neighbor is a relation (a side edge); drop/forward is a label.
        slice_[dev] += hash_combine(0x13 + pi * 8, sr.drop ? 2u : 1u);
        if (sr.via_neighbor != kNoNode) {
          side_.push_back({dev, sr.via_neighbor, hash_combine(0x57A7ull, pi)});
        }
      }
    }
    color_.resize(n_nodes);
    for (NodeId n = 0; n < n_nodes; ++n) {
      color_[n] = hash_combine(graph_.role[n], slice_[n]);
      const auto& dev = net_.device(n);
      if (!dev.bgp) continue;
      for (const BgpSession& s : dev.bgp->sessions) {
        std::uint64_t label = hash_mix(s.ibgp ? 0xB6B1ull : 0xB6B0ull);
        label = hash_combine(label, canon_.of(s.import, pec));
        label = hash_combine(label, canon_.of(s.export_, pec));
        side_.push_back({n, s.peer, label});
      }
    }
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      color_[sources_[i]] = hash_combine(color_[sources_[i]], 0x50AD0000ull + i);
    }
    for (std::size_t i = 0; i < interesting_.size(); ++i) {
      color_[interesting_[i]] = hash_combine(color_[interesting_[i]], 0x17770000ull + i);
    }
    next_.resize(n_nodes);
    mixed_.resize(n_nodes);
  }

  std::size_t distinct_colors() {
    scratch_.assign(color_.begin(), color_.end());
    std::sort(scratch_.begin(), scratch_.end());
    return static_cast<std::size_t>(std::unique(scratch_.begin(), scratch_.end()) -
                                    scratch_.begin());
  }

  const Network& net_;
  const RefineGraph& graph_;
  std::span<const NodeId> sources_;
  std::span<const NodeId> interesting_;
  RouteMapCanon canon_;
  std::vector<SideEdge> side_;
  std::vector<std::uint64_t> slice_, color_, next_, mixed_, scratch_;
};

/// One PEC's refinement result as compute_pec_classes consumes it.
struct PecShape {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> colors;  ///< final refined color per node
  /// Nodes ordered by (final color, id): the canonical order used to build
  /// the candidate bijection between two PECs with equal fingerprints.
  std::vector<NodeId> canon;
};

void compute_shape(Refiner& refiner, const Pec& pec, PecShape& out) {
  out.fingerprint = refiner.refine(pec);
  out.colors.assign(refiner.colors().begin(), refiner.colors().end());
  out.canon.resize(out.colors.size());
  for (NodeId n = 0; n < out.canon.size(); ++n) out.canon[n] = n;
  const auto& colors = out.colors;
  std::sort(out.canon.begin(), out.canon.end(), [&](NodeId a, NodeId b) {
    return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
  });
}

/// Computes the shape of every PEC in `queue` and hands each to `consume` on
/// the calling thread, strictly in queue order. With `threads` > 1 (and at
/// least that many PECs), threads - 1 helpers compute shapes ahead into a
/// window of 4 × threads slots, and the caller computes too whenever the
/// next slot in order is still unclaimed. The window bounds memory to a few
/// dozen color vectors whatever the PEC count. A shape is a pure function of
/// its PEC and consumption is ordered, so what `consume` sees does not depend
/// on the thread count.
template <typename Consume>
void for_each_shape(const Network& net, const PecSet& pecs, const Policy& policy,
                    const RefineGraph& graph, std::span<const PecId> queue,
                    int threads, Consume&& consume) {
  const std::size_t n = queue.size();
  const std::size_t t = threads > 1 ? static_cast<std::size_t>(threads) : 1;
  const std::size_t helpers = n >= t ? t - 1 : 0;
  const std::size_t window = helpers == 0 ? 1 : 4 * t;
  std::vector<PecShape> slots(window);
  std::vector<std::uint8_t> ready(window, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t next_claim = 0;  // guarded by mu, as are ready and consumed
  std::size_t consumed = 0;

  const auto claimable = [&] { return next_claim < n && next_claim < consumed + window; };
  // Computes the claimed shape `i` outside the lock; returns with it held.
  const auto compute = [&](Refiner& refiner, std::unique_lock<std::mutex>& lock) {
    const std::size_t i = next_claim++;
    lock.unlock();
    compute_shape(refiner, pecs.pecs[queue[i]], slots[i % window]);
    lock.lock();
    ready[i % window] = 1;
    cv.notify_all();
  };

  std::vector<std::thread> pool;
  // Stops and joins the helpers on every exit path, an exception in
  // `consume` included.
  struct Joiner {
    std::vector<std::thread>& pool;
    std::mutex& mu;
    std::condition_variable& cv;
    std::size_t& next_claim;
    std::size_t n;
    ~Joiner() {
      {
        const std::lock_guard<std::mutex> lock(mu);
        next_claim = n;
      }
      cv.notify_all();
      for (std::thread& th : pool) th.join();
    }
  } joiner{pool, mu, cv, next_claim, n};
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.emplace_back([&] {
      Refiner refiner(net, graph, policy);
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        cv.wait(lock, [&] { return next_claim >= n || claimable(); });
        if (next_claim >= n) return;
        compute(refiner, lock);
      }
    });
  }

  Refiner refiner(net, graph, policy);
  for (std::size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      while (ready[i % window] == 0) {
        if (claimable()) {
          compute(refiner, lock);
        } else {
          cv.wait(lock);
        }
      }
    }
    consume(queue[i], slots[i % window]);
    {
      const std::lock_guard<std::mutex> lock(mu);
      ready[i % window] = 0;
      ++consumed;
    }
    cv.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Validation: prove the candidate bijection is a configuration isomorphism.
// The fingerprint is a hash — collisions and refinement-blind asymmetries
// both die here, degrading the member to its own class instead of producing
// an unsound verdict transfer.
// ---------------------------------------------------------------------------

bool sorted_equal(std::vector<std::uint64_t>& a, std::vector<std::uint64_t>& b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// Validates candidate bijections against one network and policy. Scratch
/// buffers are reused across candidates; `canon_` is a mutable memo.
class IsoValidator {
 public:
  IsoValidator(const Network& net, const Policy& policy)
      : net_(net),
        policy_(policy),
        stamp_(net.topo.node_count(), 0),
        cost_(net.topo.node_count()) {}

  /// pi maps nodes of `a`'s exploration onto `b`'s.
  bool validate(const Pec& a, const Pec& b, std::span<const NodeId> pi) {
    const std::size_t n_nodes = net_.topo.node_count();

    // Policy fixed points: declared special nodes must be preserved exactly —
    // the policy predicate is only renaming-invariant over undeclared nodes
    // (the same contract policy pruning and DEC merging already assume).
    for (const NodeId s : policy_.sources()) {
      if (pi[s] != s) return false;
    }
    for (const NodeId s : policy_.interesting()) {
      if (pi[s] != s) return false;
    }

    // Prefix structure. Prefix lengths are pairwise distinct inside a PEC
    // (every contributing prefix covers the whole PEC range), so index-wise
    // pairing is the canonical one.
    if (a.prefixes.size() != b.prefixes.size()) return false;
    for (std::size_t i = 0; i < a.prefixes.size(); ++i) {
      if (a.prefixes[i].prefix.length() != b.prefixes[i].prefix.length()) {
        return false;
      }
    }

    if (!topology_preserved(pi)) return false;

    // Device configuration equivalence under pi.
    for (NodeId n = 0; n < n_nodes; ++n) {
      const auto& da = net_.device(n);
      const auto& db = net_.device(pi[n]);
      if (da.ospf.enabled != db.ospf.enabled) return false;
      if (da.bgp.has_value() != db.bgp.has_value()) return false;
      if (!da.bgp) continue;
      la_.clear();
      lb_.clear();
      for (const BgpSession& s : da.bgp->sessions) {
        std::uint64_t h = hash_combine(pi[s.peer], s.ibgp ? 2u : 1u);
        h = hash_combine(h, canon_.of(s.import, a));
        la_.push_back(hash_combine(h, canon_.of(s.export_, a)));
      }
      for (const BgpSession& s : db.bgp->sessions) {
        std::uint64_t h = hash_combine(s.peer, s.ibgp ? 2u : 1u);
        h = hash_combine(h, canon_.of(s.import, b));
        lb_.push_back(hash_combine(h, canon_.of(s.export_, b)));
      }
      if (!sorted_equal(la_, lb_)) return false;
    }

    // Per-prefix slice correspondence.
    const auto same_mapped = [&](const std::vector<NodeId>& va,
                                 const std::vector<NodeId>& vb) {
      la_.clear();
      for (const NodeId x : va) la_.push_back(pi[x]);
      lb_.assign(vb.begin(), vb.end());
      return sorted_equal(la_, lb_);
    };
    for (std::size_t i = 0; i < a.prefixes.size(); ++i) {
      const PecPrefix& pa = a.prefixes[i];
      const PecPrefix& pb = b.prefixes[i];
      if (!same_mapped(pa.ospf_origins, pb.ospf_origins)) return false;
      if (!same_mapped(pa.bgp_origins, pb.bgp_origins)) return false;
      la_.clear();
      lb_.clear();
      for (const auto& [dev, idx] : pa.static_routes) {
        const StaticRoute& sr = net_.device(dev).statics[idx];
        if (sr.via_ip) return false;  // recursive: outcome-coupled, never dedup
        la_.push_back(hash_combine(hash_combine(pi[dev], sr.drop ? 2u : 1u),
                                   sr.drop ? kNoNode : pi[sr.via_neighbor]));
      }
      for (const auto& [dev, idx] : pb.static_routes) {
        const StaticRoute& sr = net_.device(dev).statics[idx];
        if (sr.via_ip) return false;
        lb_.push_back(hash_combine(hash_combine(std::uint64_t{dev}, sr.drop ? 2u : 1u),
                                   sr.drop ? kNoNode : sr.via_neighbor));
      }
      if (!sorted_equal(la_, lb_)) return false;
      // /32 loopback local delivery must be preserved node-by-node.
      if (pa.prefix.length() == 32 || pb.prefix.length() == 32) {
        for (NodeId n = 0; n < n_nodes; ++n) {
          if (loopback_delivers(net_, a, i, n) != loopback_delivers(net_, b, i, pi[n])) {
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  /// Topology automorphism, exact and O(E): for every node n, the links of
  /// pi[n] are stamped by neighbor with their out cost, then each link of n
  /// must consume the stamp of its mapped neighbor with an equal out cost.
  /// Equal degrees and all stamps consumed make the out-links identical; a
  /// link's back cost is checked as the out cost at its other end. A
  /// neighbor stamped twice means parallel links at pi[n], where out costs
  /// alone cannot tell which back cost belongs to which link, so that node
  /// compares sorted (mapped neighbor, cost out, cost back) tuples instead.
  bool topology_preserved(std::span<const NodeId> pi) {
    const Topology& topo = net_.topo;
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      const auto own = topo.neighbors(n);
      const auto image = topo.neighbors(pi[n]);
      if (own.size() != image.size()) return false;
      if (++epoch_ == 0) {  // wrapped: every stale stamp must read as empty
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
      }
      bool parallel = false;
      for (const Adjacency& adj : image) {
        if (stamp_[adj.neighbor] == epoch_) {
          parallel = true;
          break;
        }
        stamp_[adj.neighbor] = epoch_;
        cost_[adj.neighbor] = adj.cost;
      }
      if (parallel) {
        if (!link_multisets_equal(n, pi)) return false;
        continue;
      }
      for (const Adjacency& adj : own) {
        const NodeId m = pi[adj.neighbor];
        if (stamp_[m] != epoch_ || cost_[m] != adj.cost) return false;
        stamp_[m] = 0;  // consumed: a second link onto m needs a second stamp
      }
    }
    return true;
  }

  /// Parallel-link fallback: the multisets of (mapped neighbor, cost out,
  /// cost back) at n and at pi[n] must be equal, compared exactly.
  bool link_multisets_equal(NodeId n, std::span<const NodeId> pi) {
    const Topology& topo = net_.topo;
    const auto links = [&](NodeId x, bool mapped, std::vector<LinkKey>& out) {
      out.clear();
      for (const Adjacency& adj : topo.neighbors(x)) {
        out.push_back({mapped ? pi[adj.neighbor] : adj.neighbor, adj.cost,
                       topo.link(adj.link).cost_from(adj.neighbor)});
      }
      std::sort(out.begin(), out.end());
    };
    links(n, true, links_a_);
    links(pi[n], false, links_b_);
    return links_a_ == links_b_;
  }

  using LinkKey = std::tuple<NodeId, std::uint32_t, std::uint32_t>;

  const Network& net_;
  const Policy& policy_;
  RouteMapCanon canon_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> cost_;
  std::vector<std::uint64_t> la_, lb_;
  std::vector<LinkKey> links_a_, links_b_;
};

// ---------------------------------------------------------------------------
// Serve-layer fingerprints (PecFingerprint in the header): `canon` reuses
// the Refiner against an empty policy; `residue` pins the identities canon
// abstracts away. Everything hashes config *values* through the constexpr
// mixers so the result is stable across processes and runs.
// ---------------------------------------------------------------------------

/// check() never consulted — fingerprints only read sources()/interesting(),
/// both empty here so the canon half is policy-independent.
class NullFingerprintPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "fingerprint-null"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

std::uint64_t hash_str(std::uint64_t h, std::string_view s) {
  h = hash_combine(h, s.size());
  for (const char c : s) h = hash_combine(h, static_cast<unsigned char>(c));
  return h;
}

std::uint64_t hash_prefix_value(std::uint64_t h, const Prefix& p) {
  return hash_combine(hash_combine(h, p.addr().value()), p.length());
}

/// True when `p`'s address range intersects [lo, hi] — the config entry can
/// influence routing for some address of the PEC.
bool intersects(const Prefix& p, IpAddr lo, IpAddr hi) {
  return p.first() <= hi && p.last() >= lo;
}

std::uint64_t hash_static_value(std::uint64_t h, const StaticRoute& sr) {
  h = hash_prefix_value(h, sr.dst);
  h = hash_combine(h, sr.via_neighbor);
  h = hash_combine(h, sr.via_ip ? sr.via_ip->value() : 0u);
  return hash_combine(h, sr.drop ? 2u : 1u);
}

/// Route-map residue restricted to one PEC: default-permit plus the full
/// concrete content of every clause that can *fire* for the PEC's range —
/// clauses with no prefix condition, or whose prefix range intersects it.
/// Routes flowing during a PEC's exploration carry prefixes that cover the
/// whole [lo, hi] range, so a clause whose prefix misses the range can never
/// match one (exact or or-longer) and first-match-wins falls through it:
/// editing such a clause must not move this PEC.
std::uint64_t route_map_residue(std::uint64_t h, const RouteMap& rm, IpAddr lo,
                                IpAddr hi) {
  h = hash_combine(h, rm.default_permit ? 2u : 1u);
  for (const RouteMapClause& c : rm.clauses) {
    if (c.match.prefix) {
      if (!intersects(*c.match.prefix, lo, hi)) continue;
      h = hash_prefix_value(hash_combine(h, 0xA1), *c.match.prefix);
      h = hash_combine(h, c.match.prefix_mode == RouteMapMatch::PrefixMode::kExact
                              ? 1u : 2u);
    } else {
      h = hash_combine(h, 0xA0);
    }
    h = hash_combine(h, c.match.community ? 0x100u + *c.match.community : 1u);
    h = hash_combine(h, c.match.max_path_len ? 0x10000u + *c.match.max_path_len : 1u);
    h = hash_combine(h, c.action.permit ? 2u : 1u);
    h = hash_combine(h, c.action.set_local_pref
                            ? 0x1000000ull + *c.action.set_local_pref : 1u);
    h = hash_combine(h, c.action.add_community ? 0x200u + *c.action.add_community : 1u);
    h = hash_combine(h, c.action.prepend);
  }
  return h;
}

/// Network-wide residue: device identities, protocol roles, session topology,
/// and link costs — the slice of config that feeds IGP path selection and
/// BGP propagation for *every* address, so a change here must move every
/// fingerprint. Prefix-valued config (originated prefixes, static routes,
/// route-map clause contents) is deliberately absent: it is folded into each
/// PEC's residue by range intersection below, so a delta touching prefix X
/// moves only the PECs X can influence. That scoping is what buys the serve
/// daemon its cache-hit ratio on deltas.
std::uint64_t network_residue(const Network& net) {
  std::uint64_t h = hash_mix(0x4E575245ull);  // "NWRE"
  h = hash_combine(h, net.topo.node_count());
  for (NodeId n = 0; n < net.topo.node_count(); ++n) {
    const DeviceConfig& dev = net.device(n);
    h = hash_str(h, dev.name);
    h = hash_combine(h, dev.loopback.value());
    h = hash_combine(h, dev.ospf.enabled ? 2u : 1u);
    h = hash_combine(h, dev.ospf.advertise_loopback ? 2u : 1u);
    h = hash_combine(h, dev.ospf.redistribute_static ? 2u : 1u);
    if (dev.bgp) {
      h = hash_combine(h, dev.bgp->asn);
      h = hash_combine(h, dev.bgp->redistribute_ospf ? 2u : 1u);
      h = hash_combine(h, dev.bgp->sessions.size());
      for (const BgpSession& s : dev.bgp->sessions) {
        h = hash_combine(h, s.peer);
        h = hash_combine(h, s.ibgp ? 2u : 1u);
      }
    } else {
      h = hash_combine(h, 0xB0);
    }
  }
  h = hash_combine(h, net.topo.link_count());
  for (const Link& l : net.topo.links()) {
    h = hash_combine(hash_combine(h, l.a), l.b);
    h = hash_combine(hash_combine(h, l.cost_ab), l.cost_ba);
  }
  return h;
}

/// The prefix-valued config visible from [lo, hi]: every originated prefix,
/// static route, and fireable route-map clause whose range intersects the
/// PEC's. Each entry is tagged with its device id and a category marker so
/// the fold is self-delimiting (an entry moving between devices or
/// categories cannot alias).
std::uint64_t scoped_residue(const Network& net, std::uint64_t h, IpAddr lo,
                             IpAddr hi) {
  for (NodeId n = 0; n < net.topo.node_count(); ++n) {
    const DeviceConfig& dev = net.device(n);
    for (const Prefix& p : dev.ospf.originated) {
      if (intersects(p, lo, hi)) {
        h = hash_prefix_value(hash_combine(hash_combine(h, 0xE1), n), p);
      }
    }
    for (const StaticRoute& sr : dev.statics) {
      if (intersects(sr.dst, lo, hi)) {
        h = hash_static_value(hash_combine(hash_combine(h, 0xE3), n), sr);
      }
    }
    if (!dev.bgp) continue;
    for (const Prefix& p : dev.bgp->originated) {
      if (intersects(p, lo, hi)) {
        h = hash_prefix_value(hash_combine(hash_combine(h, 0xE2), n), p);
      }
    }
    for (const BgpSession& s : dev.bgp->sessions) {
      h = hash_combine(hash_combine(h, 0xE4), n);
      h = hash_combine(h, s.peer);
      h = route_map_residue(h, s.import, lo, hi);
      h = route_map_residue(h, s.export_, lo, hi);
    }
  }
  return h;
}

}  // namespace

std::uint64_t PecFingerprint::combined() const {
  return hash_combine(canon, residue);
}

std::vector<PecFingerprint> compute_pec_fingerprints(const Network& net,
                                                     const PecSet& pecs) {
  std::vector<PecFingerprint> out(pecs.pecs.size());
  const NullFingerprintPolicy null_policy;
  const RefineGraph graph(net);
  Refiner refiner(net, graph, null_policy);
  const std::uint64_t net_res = network_residue(net);
  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    const Pec& pec = pecs.pecs[p];
    out[p].canon = refiner.refine(pec);
    // Per-PEC residue: the address range, concrete prefix values, the
    // identity-bearing slice (who originates, which static routes by value),
    // and the range-intersecting prefix-valued config.
    std::uint64_t h = hash_combine(net_res, pec.lo.value());
    h = hash_combine(h, pec.hi.value());
    h = hash_combine(h, pec.prefixes.size());
    for (const PecPrefix& pp : pec.prefixes) {
      h = hash_prefix_value(h, pp.prefix);
      h = hash_combine(h, pp.ospf_origins.size());
      for (const NodeId n : pp.ospf_origins) h = hash_combine(h, n);
      h = hash_combine(h, pp.bgp_origins.size());
      for (const NodeId n : pp.bgp_origins) h = hash_combine(h, n);
      h = hash_combine(h, pp.static_routes.size());
      // By value, not index: deleting an unrelated static from the same
      // device shifts indices and must not move this PEC.
      for (const auto& [dev, idx] : pp.static_routes) {
        h = hash_static_value(hash_combine(h, dev),
                              net.device(dev).statics[idx]);
      }
    }
    out[p].residue = scoped_residue(net, h, pec.lo, pec.hi);
  }
  return out;
}

bool is_pec_isomorphism(const Network& net, const Pec& a, const Pec& b,
                        const Policy& policy, std::span<const NodeId> pi) {
  return IsoValidator(net, policy).validate(a, b, pi);
}

PecClassSet compute_pec_classes(const Network& net, const PecSet& pecs,
                                const PecDependencies& deps,
                                const Policy& policy,
                                std::span<const std::uint8_t> needed,
                                std::span<const std::uint8_t> is_target,
                                int threads) {
  const auto start = std::chrono::steady_clock::now();
  PecClassSet out;
  out.rep_of.assign(pecs.pecs.size(), kNoPec);
  out.members_of.resize(pecs.pecs.size());

  // A PEC is dedup-eligible when its exploration is self-contained: it reads
  // no upstream converged outcomes (depends_on empty, no self-loop) and no
  // needed PEC will read its outcomes (record_outcomes stays off, so the
  // §4.2/§4.3 pruning configuration is identical across the whole class).
  auto eligible = [&](PecId p) {
    if (needed[p] == 0 || is_target[p] == 0) return false;
    if (!deps.depends_on[p].empty() || deps.self_loop[p] != 0) return false;
    for (const PecId q : deps.dependents[p]) {
      if (needed[q] != 0) return false;
    }
    for (const PecPrefix& pp : pecs.pecs[p].prefixes) {
      for (const auto& [dev, idx] : pp.static_routes) {
        if (net.device(dev).statics[idx].via_ip) return false;
      }
    }
    return true;
  };
  std::vector<PecId> queue;
  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    if (needed[p] == 0) continue;
    out.rep_of[p] = p;
    if (eligible(p)) {
      queue.push_back(p);
    } else if (is_target[p] != 0) {
      ++out.stats.classes;  // ineligible target: singleton
    }
  }

  struct Class {
    PecId rep = 0;
    std::vector<std::uint64_t> colors;  ///< representative's refined colors
    std::vector<NodeId> canon;          ///< representative's canonical order
  };
  std::unordered_map<std::uint64_t, std::vector<Class>> buckets;
  std::vector<NodeId> pi(net.topo.node_count());
  IsoValidator validator(net, policy);
  const auto consume = [&](PecId p, PecShape& shape) {
    auto& bucket = buckets[shape.fingerprint];
    for (Class& cls : bucket) {
      // Candidate bijection: i-th node in the representative's canonical
      // (color, id) order maps to the i-th in the member's. Equal color
      // multisets (same fingerprint) make the pairing color-aligned.
      bool color_aligned = true;
      for (std::size_t i = 0; i < shape.canon.size(); ++i) {
        if (cls.colors[cls.canon[i]] != shape.colors[shape.canon[i]]) {
          color_aligned = false;
          break;
        }
        pi[cls.canon[i]] = shape.canon[i];
      }
      if (!color_aligned) continue;  // hash-collision bucket: not the same shape
      if (!validator.validate(pecs.pecs[cls.rep], pecs.pecs[p], pi)) continue;
      out.rep_of[p] = cls.rep;
      out.members_of[cls.rep].push_back(p);
      ++out.stats.deduped;
      return;
    }
    bucket.push_back(Class{p, std::move(shape.colors), std::move(shape.canon)});
    ++out.stats.classes;
  };
  if (!queue.empty()) {
    const RefineGraph graph(net);
    for_each_shape(net, pecs, policy, graph, queue, threads, consume);
  }

  // Singletons = classes that never gained a member (ineligible targets and
  // unmatched eligible PECs alike) — the honest-fallback count.
  std::size_t multi = 0;
  for (const auto& members : out.members_of) {
    if (!members.empty()) ++multi;
  }
  out.stats.singletons = out.stats.classes - multi;
  out.stats.fingerprint_time = std::chrono::steady_clock::now() - start;
  return out;
}

}  // namespace plankton
