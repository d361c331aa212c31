#include "cluster/replica_store.h"

#include "common/check.h"

namespace harmony::cluster {

bool ReplicaStore::apply(Key key, const VersionedValue& value) {
  if (owns_base(key)) {
    const VersionedValue base = base_value(key);
    if (!value.version.newer_than(base.version)) {
      ++writes_superseded_;
      return false;
    }
    // The write wins: the key leaves the base layer for the table.
    base_bits_[key >> 6] &= ~(std::uint64_t{1} << (key & 63));
    --base_keys_;
    *table_.insert(key).first = value;
    stored_bytes_ += value.size_bytes;
    stored_bytes_ -= base.size_bytes;
    ++writes_applied_;
    return true;
  }
  const auto [stored, inserted] = table_.insert(key);
  if (inserted) {
    *stored = value;
    stored_bytes_ += value.size_bytes;
    ++writes_applied_;
    return true;
  }
  if (value.version.newer_than(stored->version)) {
    stored_bytes_ += value.size_bytes;
    stored_bytes_ -= stored->size_bytes;
    *stored = value;
    ++writes_applied_;
    return true;
  }
  // Older than what we have: LWW drops it (Cassandra reconciliation).
  ++writes_superseded_;
  return false;
}

std::optional<VersionedValue> ReplicaStore::read(Key key) const {
  ++reads_;
  // Table first: a written key is never in the base layer, and hot keys are
  // written ones.
  if (const VersionedValue* v = table_.find(key)) return *v;
  if (owns_base(key)) return base_value(key);
  return std::nullopt;
}

void ReplicaStore::begin_base(std::uint64_t count, std::uint64_t seq0,
                              std::uint32_t size) {
  HARMONY_CHECK_MSG(table_.empty() && base_count_ == 0,
                    "preload needs an empty replica store with no base layer "
                    "(preload_range runs once, before any write)");
  base_bits_.assign((count + 63) / 64, 0);
  base_count_ = count;
  base_seq0_ = seq0;
  base_size_ = size;
}

}  // namespace harmony::cluster
