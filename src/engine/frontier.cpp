#include "engine/frontier.hpp"

#include <algorithm>
#include <cassert>

namespace plankton {

// ---------------------------------------------------------------------------
// Frontier
// ---------------------------------------------------------------------------

void Frontier::add_entry(Entry e) {
  if (order_ == FrontierOrder::kFifo) {
    // Reclaim the consumed prefix wholesale once it dominates the vector;
    // amortized O(1) per push, no deque indirection.
    if (head_ > 64 && head_ * 2 > pending_.size()) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    pending_.push_back(e);
  } else if (order_ == FrontierOrder::kPriority) {
    pending_.push_back(e);
    std::push_heap(pending_.begin(), pending_.end(), heap_after);
  } else {
    pending_.push_back(e);
  }
  ++live_;
  peak_ = std::max(peak_, live_);
}

std::int32_t Frontier::push(std::int32_t parent, const SearchMove& move,
                            std::uint64_t key) {
  PathNode node;
  node.parent = parent;
  node.depth = depth(parent) + 1;
  node.move = move;
  const auto id = static_cast<std::int32_t>(arena_.size());
  arena_.push_back(node);
  add_entry(Entry{id, key, node.depth, next_seq_++});
  return id;
}

void Frontier::push_root() { add_entry(Entry{kRoot, 0, 0, next_seq_++}); }

std::int32_t Frontier::pop() {
  assert(live_ > 0);
  --live_;
  ++pops_;
  switch (order_) {
    case FrontierOrder::kFifo:
      return pending_[head_++].id;
    case FrontierOrder::kPriority: {
      std::pop_heap(pending_.begin(), pending_.end(), heap_after);
      const std::int32_t id = pending_.back().id;
      pending_.pop_back();
      return id;
    }
    case FrontierOrder::kRandomRestart: {
      bool restart = false;
      if (restart_interval_ != 0) {
        if (restart_policy_ == RestartPolicy::kFixedPeriod) {
          restart = pops_ % restart_interval_ == 0;
        } else if (pops_ >= next_restart_) {
          // Luby schedule: successive restart gaps of interval × u_k where
          // u = 1,1,2,1,1,2,4,… — log-optimal for unknown runtime
          // distributions, and far less periodic than the fixed schedule.
          restart = true;
          next_restart_ +=
              std::uint64_t{restart_interval_} * luby_value(++luby_index_);
        }
      }
      std::size_t pick;
      if (restart) {
        // Restart: jump to the shallowest pending state (nearest the phase
        // root), diversifying away from the current deep region.
        pick = 0;
        for (std::size_t i = 1; i < pending_.size(); ++i) {
          if (pending_[i].depth < pending_[pick].depth) pick = i;
        }
      } else {
        pick = static_cast<std::size_t>(rng_() % pending_.size());
      }
      const std::int32_t id = pending_[pick].id;
      pending_[pick] = pending_.back();
      pending_.pop_back();
      return id;
    }
  }
  return kRoot;  // unreachable
}

std::uint32_t luby_value(std::uint32_t i) {
  // u_i = 2^(k-1) when i == 2^k - 1; else u_{i - 2^(k-1) + 1} for the k
  // with 2^(k-1) <= i < 2^k - 1 (Luby, Sinclair & Zuckerman 1993).
  for (std::uint32_t k = 1; k < 32; ++k) {
    const std::uint32_t pow = std::uint32_t{1} << k;
    if (i == pow - 1) return pow >> 1;
    if (i < pow - 1) return luby_value(i - (pow >> 1) + 1);
  }
  return 1;
}

std::size_t Frontier::bytes() const {
  return arena_.capacity() * sizeof(PathNode) +
         pending_.capacity() * sizeof(Entry) +
         sleep_pool_.capacity() * sizeof(std::uint64_t);
}

}  // namespace plankton
