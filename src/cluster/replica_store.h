// Per-node key/value storage with last-write-wins reconciliation.
//
// Values are metadata-only (version + size): the experiments measure
// consistency, latency and cost, none of which depend on payload bytes, and
// dropping payloads lets a laptop-scale simulation carry millions of keys.
//
// Two layers, and a key lives in exactly one of them:
//   * the base layer holds the preloaded dataset implicitly: one ownership
//     bit per key of [0, count), and a formula for the values (key k holds
//     Version{0, seq0 + k} of `size` bytes). It costs one bit per
//     record, so loading a million records allocates ~128 KB per node
//     instead of a 32 MB table;
//   * the table, a common/flat_table.h open-addressing map (linear probing,
//     power-of-two capacity, never-erase), holds every key written since.
//     A write that wins against a base value clears the key's bit and moves
//     the key into the table, so the table follows the written working set.
// Every counter (key_count, stored_bytes, writes_applied/superseded) equals
// what loading each record through apply() would have produced.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/versioned_value.h"
#include "common/flat_table.h"

namespace harmony::cluster {

class ReplicaStore {
 public:
  /// LWW-apply a write; returns true if it superseded the stored version.
  bool apply(Key key, const VersionedValue& value);

  std::optional<VersionedValue> read(Key key) const;

  /// Start an (empty) base layer over keys [0, count): key k's value would
  /// be Version{0, seq0 + k} of `size` bytes, once own_base(k) claims it.
  /// Only on a store nothing was written to yet.
  void begin_base(std::uint64_t count, std::uint64_t seq0, std::uint32_t size);
  /// Preload base key `key` (< the begun count, not yet owned) here: the
  /// same accounting as apply() inserting its base value.
  void own_base(Key key) {
    base_bits_[key >> 6] |= std::uint64_t{1} << (key & 63);
    ++base_keys_;
    stored_bytes_ += base_size_;
    ++writes_applied_;
  }

  std::size_t key_count() const { return table_.size() + base_keys_; }
  std::uint64_t stored_bytes() const { return stored_bytes_; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes_applied() const { return writes_applied_; }
  std::uint64_t writes_superseded() const { return writes_superseded_; }

 private:
  bool owns_base(Key key) const {
    return key < base_count_ &&
           (base_bits_[key >> 6] >> (key & 63) & 1) != 0;
  }
  VersionedValue base_value(Key key) const {
    return {Version{0, base_seq0_ + key}, base_size_};
  }

  FlatTable<VersionedValue> table_{1024};
  std::vector<std::uint64_t> base_bits_;  ///< ownership, one bit per key
  std::uint64_t base_count_ = 0;
  std::uint64_t base_seq0_ = 0;
  std::uint32_t base_size_ = 0;
  std::size_t base_keys_ = 0;  ///< bits set in base_bits_
  std::uint64_t stored_bytes_ = 0;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_applied_ = 0;
  std::uint64_t writes_superseded_ = 0;
};

}  // namespace harmony::cluster
