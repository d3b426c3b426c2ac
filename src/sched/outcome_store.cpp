#include "sched/outcome_store.hpp"

#include <algorithm>
#include <cstring>

#include "netbase/hash.hpp"
#include "sched/wire.hpp"

namespace plankton {
namespace {

using wire::get_int;
using wire::put_int;

constexpr std::uint32_t kWireMagic = 0x504b4f31;  // "PKO1"

}  // namespace

/// One outcome per upstream PEC, answering IGP-cost and next-hop queries by
/// locating the PEC of the queried address.
class OutcomeStore::Composite final : public UpstreamResolver {
 public:
  Composite(const OutcomeStore& store, std::vector<std::pair<PecId, const PecOutcome*>> picks)
      : store_(store), picks_(std::move(picks)) {
    std::uint64_t h = 0x5eed;
    for (const auto& [pec, out] : picks_) {
      h = hash_combine(h, hash_combine(pec, out->hash));
    }
    hash_ = h;
    // Sorted after hashing, so the identity keeps the dependency order.
    std::sort(picks_.begin(), picks_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  [[nodiscard]] std::uint32_t igp_cost(NodeId from, IpAddr target) const override {
    const PecOutcome* out = outcome_for(target);
    if (out == nullptr || from >= out->igp_cost.size()) return kInfiniteCost;
    return out->igp_cost[from];
  }

  [[nodiscard]] std::span<const NodeId> nexthops_towards(
      NodeId from, IpAddr target) const override {
    const PecOutcome* out = outcome_for(target);
    if (out == nullptr) return {};
    const FibEntry& e = out->dp.at(from);
    if (e.kind != FwdKind::kForward) return {};
    return e.nexthops;
  }

  [[nodiscard]] std::uint64_t outcome_hash() const override { return hash_; }

 private:
  [[nodiscard]] const PecOutcome* outcome_for(IpAddr target) const {
    const PecId pec = store_.pecs_.find(target);
    const auto it = std::lower_bound(
        picks_.begin(), picks_.end(), pec,
        [](const auto& pick, PecId id) { return pick.first < id; });
    return it != picks_.end() && it->first == pec ? it->second : nullptr;
  }

  const OutcomeStore& store_;
  std::vector<std::pair<PecId, const PecOutcome*>> picks_;  ///< sorted by PecId
  std::uint64_t hash_ = 0;
};

OutcomeStore::OutcomeStore(const Network& net, const PecSet& pecs)
    : net_(net), pecs_(pecs) {}

OutcomeStore::~OutcomeStore() = default;

void OutcomeStore::put(PecId pec, std::vector<PecOutcome> outcomes) {
  const std::scoped_lock lock(mu_);
  outcomes_[pec] = std::move(outcomes);
}

bool OutcomeStore::has(PecId pec) const {
  const std::scoped_lock lock(mu_);
  return outcomes_.contains(pec);
}

std::span<const PecOutcome> OutcomeStore::get(PecId pec) const {
  const std::scoped_lock lock(mu_);
  const auto it = outcomes_.find(pec);
  if (it == outcomes_.end()) return {};
  return it->second;
}

void OutcomeStore::evict(PecId pec) {
  const std::scoped_lock lock(mu_);
  outcomes_.erase(pec);
}

std::size_t OutcomeStore::bytes() const {
  const std::scoped_lock lock(mu_);
  std::size_t total = 0;
  for (const auto& [pec, outs] : outcomes_) {
    total += outs.capacity() * sizeof(PecOutcome);
    for (const PecOutcome& o : outs) {
      total += o.igp_cost.capacity() * sizeof(std::uint32_t);
      total += o.dp.bytes();
    }
  }
  return total;
}

std::string OutcomeStore::serialize(std::span<const PecOutcome> outcomes) const {
  std::string out;
  put_int(out, kWireMagic);
  put_int(out, static_cast<std::uint32_t>(net_.topo.link_count()));
  put_int(out, static_cast<std::uint64_t>(outcomes.size()));
  for (const PecOutcome& o : outcomes) {
    put_int(out, o.upstream_hash);
    put_int(out, o.hash);
    put_int(out, static_cast<std::uint32_t>(o.failures.count()));
    for (const LinkId l : o.failures.ids()) put_int(out, l);
    put_int(out, static_cast<std::uint32_t>(o.igp_cost.size()));
    for (const std::uint32_t c : o.igp_cost) put_int(out, c);
    put_int(out, static_cast<std::uint32_t>(o.dp.entries.size()));
    for (const FibEntry& e : o.dp.entries) {
      put_int(out, static_cast<std::uint8_t>(e.kind));
      put_int(out, static_cast<std::uint8_t>(e.source));
      put_int(out, e.prefix_idx);
      put_int(out, static_cast<std::uint32_t>(e.nexthops.size()));
      for (const NodeId n : e.nexthops) put_int(out, n);
    }
  }
  return out;
}

bool OutcomeStore::deserialize(std::string_view data,
                               std::vector<PecOutcome>& out) const {
  out.clear();
  // The contract: corrupt or truncated input returns false and leaves `out`
  // empty. Every length field is validated against the bytes actually left
  // before it sizes an allocation, so hostile counts cannot OOM the process.
  const auto fail = [&out] {
    out.clear();
    return false;
  };
  const auto fits = [&data](std::uint64_t count, std::size_t elem_size) {
    return count <= data.size() / elem_size;
  };
  std::uint32_t magic = 0;
  std::uint32_t links = 0;
  std::uint64_t count = 0;
  if (!get_int(data, magic) || magic != kWireMagic) return fail();
  if (!get_int(data, links) || links != net_.topo.link_count()) return fail();
  if (!get_int(data, count)) return fail();
  for (std::uint64_t i = 0; i < count; ++i) {
    PecOutcome o;
    std::uint32_t failed = 0;
    if (!get_int(data, o.upstream_hash) || !get_int(data, o.hash) ||
        !get_int(data, failed)) {
      return fail();
    }
    o.failures = FailureSet(links);
    if (!fits(failed, sizeof(LinkId))) return fail();
    for (std::uint32_t f = 0; f < failed; ++f) {
      LinkId l = kNoLink;
      if (!get_int(data, l) || l >= links) return fail();
      o.failures.fail(l);
    }
    // Consumers index igp_cost and dp.entries by NodeId (Composite resolvers
    // do so unchecked for the data plane), so both must cover every node.
    const auto nodes = static_cast<std::uint32_t>(net_.topo.node_count());
    std::uint32_t igp = 0;
    if (!get_int(data, igp) || igp != nodes ||
        !fits(igp, sizeof(std::uint32_t))) {
      return fail();
    }
    o.igp_cost.resize(igp);
    for (std::uint32_t c = 0; c < igp; ++c) {
      if (!get_int(data, o.igp_cost[c])) return fail();
    }
    std::uint32_t entries = 0;
    // 7 = the fixed bytes of one serialized entry (kind, source, prefix_idx,
    // nexthop count).
    if (!get_int(data, entries) || entries != nodes || !fits(entries, 7)) {
      return fail();
    }
    o.dp.entries.resize(entries);
    for (std::uint32_t e = 0; e < entries; ++e) {
      FibEntry& fe = o.dp.entries[e];
      std::uint8_t kind = 0;
      std::uint8_t source = 0;
      std::uint32_t nexthops = 0;
      if (!get_int(data, kind) || !get_int(data, source) ||
          !get_int(data, fe.prefix_idx) || !get_int(data, nexthops)) {
        return fail();
      }
      if (kind > static_cast<std::uint8_t>(FwdKind::kForward)) return fail();
      if (source > static_cast<std::uint8_t>(Protocol::kIbgp)) return fail();
      fe.kind = static_cast<FwdKind>(kind);
      fe.source = static_cast<Protocol>(source);
      if (!fits(nexthops, sizeof(NodeId))) return fail();
      fe.nexthops.resize(nexthops);
      for (std::uint32_t n = 0; n < nexthops; ++n) {
        if (!get_int(data, fe.nexthops[n])) return fail();
      }
    }
    out.push_back(std::move(o));
  }
  if (!data.empty()) return fail();  // trailing garbage
  return true;
}

std::vector<const UpstreamResolver*> OutcomeStore::combos(
    std::span<const PecId> deps, const FailureSet& failures) const {
  const std::scoped_lock lock(mu_);
  // Collect, per dependency, the outcomes recorded under this failure set.
  std::vector<std::vector<const PecOutcome*>> choices;
  for (const PecId dep : deps) {
    const auto it = outcomes_.find(dep);
    if (it == outcomes_.end()) return {};
    std::vector<const PecOutcome*> matching;
    for (const PecOutcome& out : it->second) {
      if (out.failures == failures) matching.push_back(&out);
    }
    if (matching.empty()) return {};
    choices.push_back(std::move(matching));
  }
  // Cross product (usually 1x1x...x1: real networks converge deterministically
  // for the recursive PECs, §6).
  std::vector<const UpstreamResolver*> result;
  std::vector<std::size_t> idx(choices.size(), 0);
  while (true) {
    std::vector<std::pair<PecId, const PecOutcome*>> picks;
    picks.reserve(deps.size());
    for (std::size_t i = 0; i < deps.size(); ++i) {
      picks.emplace_back(deps[i], choices[i][idx[i]]);
    }
    resolvers_.push_back(std::make_unique<Composite>(*this, std::move(picks)));
    result.push_back(resolvers_.back().get());
    // Advance the mixed-radix counter.
    std::size_t i = 0;
    while (i < idx.size()) {
      if (++idx[i] < choices[i].size()) break;
      idx[i] = 0;
      ++i;
    }
    if (i == idx.size()) break;
  }
  return result;
}

}  // namespace plankton
