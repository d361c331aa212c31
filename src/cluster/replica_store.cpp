#include "cluster/replica_store.h"

namespace harmony::cluster {

bool ReplicaStore::apply(Key key, const VersionedValue& value) {
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
  const VersionedValue* v = table_.find(key);
  if (v == nullptr) return std::nullopt;
  return *v;
}

}  // namespace harmony::cluster
