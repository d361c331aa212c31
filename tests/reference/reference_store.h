// Naive reference twin of cluster/replica_store.h for the differential harness.
//
// Models the store before preloaded records became an implicit base layer: a
// std::map from key to value, where a preload writes every owned record
// eagerly through the same last-write-wins apply as any other write. The
// harness drives both with the same preload and the same apply/read stream
// and demands identical read results and counters after every step.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cluster/versioned_value.h"

namespace harmony::testing {

class ReferenceStore {
 public:
  bool apply(cluster::Key key, const cluster::VersionedValue& value) {
    const auto [it, inserted] = map_.emplace(key, value);
    if (inserted) {
      stored_bytes_ += value.size_bytes;
      ++writes_applied_;
      return true;
    }
    if (value.version.newer_than(it->second.version)) {
      stored_bytes_ += value.size_bytes;
      stored_bytes_ -= it->second.size_bytes;
      it->second = value;
      ++writes_applied_;
      return true;
    }
    ++writes_superseded_;
    return false;
  }

  std::optional<cluster::VersionedValue> read(cluster::Key key) const {
    ++reads_;
    return peek(key);
  }

  /// The stored value without counting a read (for picking test versions).
  std::optional<cluster::VersionedValue> peek(cluster::Key key) const {
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  /// Eager preload: record k (owned[k]) is Version{0, seq0 + k} of `size`
  /// bytes, applied in key order.
  void preload(const std::vector<bool>& owned, std::uint64_t seq0,
               std::uint32_t size) {
    for (std::uint64_t k = 0; k < owned.size(); ++k) {
      if (owned[k]) apply(k, {cluster::Version{0, seq0 + k}, size});
    }
  }

  std::size_t key_count() const { return map_.size(); }
  std::uint64_t stored_bytes() const { return stored_bytes_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes_applied() const { return writes_applied_; }
  std::uint64_t writes_superseded() const { return writes_superseded_; }

 private:
  std::map<cluster::Key, cluster::VersionedValue> map_;
  std::uint64_t stored_bytes_ = 0;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_applied_ = 0;
  std::uint64_t writes_superseded_ = 0;
};

}  // namespace harmony::testing
