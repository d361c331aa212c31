// Per-node key/value storage with last-write-wins reconciliation.
//
// Values are metadata-only (version + size): the experiments measure
// consistency, latency and cost, none of which depend on payload bytes, and
// dropping payloads lets a laptop-scale simulation carry millions of keys.
//
// Storage is a common/flat_table.h open-addressing table (linear probing,
// power-of-two capacity, never-erase). Every replica-level read, digest, and
// write hits this map, so the flat layout beats the node-per-entry
// std::unordered_map it replaced: one probe sequence over contiguous
// 32-byte entries, no per-insert allocation between growth doublings.
#pragma once

#include <cstdint>
#include <optional>

#include "cluster/versioned_value.h"
#include "common/flat_table.h"

namespace harmony::cluster {

class ReplicaStore {
 public:
  /// LWW-apply a write; returns true if it superseded the stored version.
  bool apply(Key key, const VersionedValue& value);

  std::optional<VersionedValue> read(Key key) const;

  /// Pre-size for `expected_keys` keys in total, resident ones included
  /// (one allocation instead of a doubling cascade; see FlatTable::reserve).
  /// Cluster::preload_range passes each store its exact final count.
  void reserve(std::size_t expected_keys) { table_.reserve(expected_keys); }

  std::size_t key_count() const { return table_.size(); }
  std::uint64_t stored_bytes() const { return stored_bytes_; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes_applied() const { return writes_applied_; }
  std::uint64_t writes_superseded() const { return writes_superseded_; }

 private:
  FlatTable<VersionedValue> table_{1024};
  std::uint64_t stored_bytes_ = 0;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_applied_ = 0;
  std::uint64_t writes_superseded_ = 0;
};

}  // namespace harmony::cluster
