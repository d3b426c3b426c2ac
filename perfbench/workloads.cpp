#include "workloads.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

#include "netbase/hash.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"

namespace perfbench {

using plankton::NodeId;
using plankton::Verdict;

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  return plankton::hash_mix(state_);
}

void Tally::record(const std::vector<std::string>& problems) {
  ++attempted;
  if (problems.empty()) return;
  ++failed;
  for (const std::string& p : problems) {
    if (reasons.size() < 8) reasons.push_back(p);
  }
}

void expect_eq(std::vector<std::string>& problems, const std::string& what,
               std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    problems.push_back(what + " = " + std::to_string(got) + ", expected " +
                       std::to_string(want));
  }
}

void expect_verdict(std::vector<std::string>& problems, Verdict got,
                    Verdict want) {
  if (got != want) {
    problems.push_back(std::string("verdict ") + plankton::to_string(got) +
                       ", expected " + plankton::to_string(want));
  }
}

std::vector<std::string> check_batch(const BatchCounts& got,
                                     const BatchCounts& want) {
  std::vector<std::string> problems;
  expect_verdict(problems, got.verdict, want.verdict);
  expect_eq(problems, "pecs", got.pecs, want.pecs);
  expect_eq(problems, "pecs_verified", got.verified, want.verified);
  expect_eq(problems, "classes", got.classes, want.classes);
  expect_eq(problems, "deduped", got.deduped, want.deduped);
  expect_eq(problems, "states", got.states, want.states);
  expect_eq(problems, "states_stored", got.states_stored, want.states_stored);
  expect_eq(problems, "failure_sets", got.failure_sets, want.failure_sets);
  return problems;
}

namespace {

/// Renders `net` with its device names permuted by `rng`. Node ids keep their
/// declaration order, so the network is the same graph under new labels.
std::string render_relabeled(const plankton::Network& net, Rng& rng) {
  const std::size_t n = net.topo.node_count();
  std::vector<std::string> names;
  names.reserve(n);
  for (NodeId i = 0; i < n; ++i) names.push_back(net.topo.name(i));
  std::vector<std::string> shuffled = names;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(static_cast<std::uint32_t>(i))]);
  }
  std::unordered_map<std::string, std::string> rename;
  for (std::size_t i = 0; i < n; ++i) rename.emplace(names[i], shuffled[i]);

  const std::string text = plankton::serve::render_config(net);
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find_first_of(" \n", pos);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    const std::string token = text.substr(pos, stop - pos);
    const auto it = rename.find(token);
    out += it == rename.end() ? token : it->second;
    if (stop < text.size()) out += text[stop];
    pos = stop + 1;
  }
  return out;
}

}  // namespace

std::optional<BatchWorkload> make_batch(const std::string& name,
                                        std::uint64_t seed) {
  Rng rng(seed);
  BatchWorkload w;
  if (name == "fattree_dedup") {
    // Uniform costs: every edge prefix is isomorphic, so dedup collapses the
    // 512 target PECs into one class and the explorer barely runs.
    plankton::FatTreeOptions o;
    o.k = 32;
    w.config = render_relabeled(plankton::make_fat_tree(o).net, rng);
    w.expect = {Verdict::kHolds, 545, 512, 1, 511, 1279, 1280, 1};
  } else if (name == "ibgp_failures") {
    // iBGP over OSPF: the external prefix depends on every loopback PEC, so
    // no two PECs are isomorphic and dedup cannot help; every single-link
    // failure set is explored.
    plankton::AsTopo topo = plankton::make_as_topo("AS3967");
    plankton::add_ibgp_mesh(topo);
    w.config = render_relabeled(topo.net, rng);
    w.max_failures = 1;
    w.expect = {Verdict::kHolds, 161, 80, 80, 0, 857152, 868032, 10880};
  } else {
    return std::nullopt;
  }
  return w;
}

ServeWorkload make_serve() {
  plankton::FatTreeOptions o;
  o.k = 12;
  plankton::FatTree ft = plankton::make_fat_tree(o);
  // Perturbed costs break the symmetry, so every PEC is its own dedup class
  // and each re-verification explores for real. The perturbation is fixed
  // and the seed drives the delta stream only, so runs with different seeds
  // measure the same network.
  for (plankton::LinkId l = 0; l < ft.net.topo.link_count(); ++l) {
    const std::uint32_t c = 10 + (l * 7) % 11;
    ft.net.topo.set_link_cost(l, c, c);
  }
  ServeWorkload w;
  w.config = plankton::serve::render_config(ft.net);
  w.prefixes = ft.edge_prefixes;
  w.origins = ft.edges;
  w.routed_pecs = ft.edge_prefixes.size();
  w.net = std::move(ft.net);
  return w;
}

DeltaStream::DeltaStream(const plankton::Network& net,
                         const std::vector<plankton::Prefix>& prefixes,
                         const std::vector<NodeId>& origins, std::uint64_t seed)
    : net_(net),
      prefixes_(prefixes),
      origins_(origins),
      rng_(seed ^ 0x5e7e5eedull),
      unused_(prefixes.size()),
      installed_(prefixes.size()) {
  const std::size_t n = net.topo.node_count();
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t p = 0; p < prefixes.size(); ++p) {
    // Dijkstra towards the origin: dist[x] is x's OSPF cost to the prefix.
    std::vector<std::uint64_t> dist(n, kInf);
    using Item = std::pair<std::uint64_t, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[origins[p]] = 0;
    heap.push({0, origins[p]});
    while (!heap.empty()) {
      const auto [d, y] = heap.top();
      heap.pop();
      if (d != dist[y]) continue;
      for (const plankton::Adjacency& adj : net.topo.neighbors(y)) {
        const NodeId x = adj.neighbor;
        const std::uint64_t via = d + net.topo.link(adj.link).cost_from(x);
        if (via < dist[x]) {
          dist[x] = via;
          heap.push({via, x});
        }
      }
    }
    // A static x -> y with y on a shortest path keeps every forwarding path
    // strictly descending in distance, hence loop-free.
    std::vector<Edge>& edges = unused_[p];
    for (NodeId x = 0; x < n; ++x) {
      if (x == origins[p]) continue;
      for (const plankton::Adjacency& adj : net.topo.neighbors(x)) {
        if (adj.cost + dist[adj.neighbor] == dist[x]) {
          edges.push_back({x, adj.neighbor});
        }
      }
    }
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng_.below(static_cast<std::uint32_t>(i))]);
    }
  }
}

std::string DeltaStream::static_line(std::size_t prefix, Edge e) const {
  return "static " + net_.topo.name(e.from) + " " + prefixes_[prefix].str() +
         " via " + net_.topo.name(e.to);
}

bool DeltaStream::replace_with_benign(std::size_t prefix, ServeRound& round) {
  if (unused_[prefix].empty()) return false;
  for (std::string& line : installed_[prefix]) {
    round.delta.ops.push_back({false, std::move(line)});
  }
  installed_[prefix].assign(1, static_line(prefix, unused_[prefix].back()));
  unused_[prefix].pop_back();
  round.delta.ops.push_back({true, installed_[prefix].front()});
  return true;
}

std::optional<ServeRound> DeltaStream::next() {
  ServeRound round;
  const std::uint64_t r = round_++;
  if (loop_open_) {
    const std::size_t p = *loop_open_;
    loop_open_.reset();
    round.prefix = p;
    if (!replace_with_benign(p, round)) return std::nullopt;
    return round;
  }
  const auto pick = static_cast<std::size_t>(
      rng_.below(static_cast<std::uint32_t>(prefixes_.size())));
  if (r % kLoopStride == kLoopStride - 1) {
    // Two adjacent non-origin devices pointing the prefix at each other.
    const std::size_t p = pick;
    Edge e{};
    do {
      const plankton::Link& l = net_.topo.link(static_cast<plankton::LinkId>(
          rng_.below(static_cast<std::uint32_t>(net_.topo.link_count()))));
      e = {l.a, l.b};
    } while (e.from == origins_[p] || e.to == origins_[p]);
    for (std::string& line : installed_[p]) {
      round.delta.ops.push_back({false, std::move(line)});
    }
    installed_[p] = {static_line(p, e), static_line(p, {e.to, e.from})};
    for (const std::string& line : installed_[p]) {
      round.delta.ops.push_back({true, line});
    }
    round.expect = Verdict::kViolated;
    round.adds_loop = true;
    round.prefix = p;
    loop_open_ = p;
    return round;
  }
  // Benign: the drawn prefix, or the next one that still has unused statics.
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    round.prefix = (pick + i) % prefixes_.size();
    if (replace_with_benign(round.prefix, round)) return round;
  }
  return std::nullopt;
}

}  // namespace perfbench
