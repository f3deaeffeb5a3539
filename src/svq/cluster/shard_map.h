#ifndef SVQ_CLUSTER_SHARD_MAP_H_
#define SVQ_CLUSTER_SHARD_MAP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svq/common/result.h"
#include "svq/io/env.h"

namespace svq::cluster {

/// One svqd backend address.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;

  friend bool operator==(const ShardEndpoint&,
                         const ShardEndpoint&) = default;
};

/// The cluster's partitioning contract: which svqd backend owns which
/// video. The map is versioned (operators bump `version` on every
/// rewrite) and persisted as a single checksummed file written with the
/// crash-safe WriteFileAtomic protocol, so a router restart either sees a
/// complete map or the previous one — never a torn mixture
/// (docs/cluster.md).
///
/// Partitions must be disjoint by construction: `assignments` maps each
/// video name to exactly one shard index. Videos absent from the map are
/// routed to the first healthy shard (which then answers NotFound exactly
/// as a single svqd would).
struct ShardMap {
  uint64_t version = 0;
  std::vector<ShardEndpoint> shards;
  /// video name -> index into `shards`.
  std::map<std::string, uint32_t> assignments;

  /// Index of the shard owning `video`; negative when unassigned.
  int ShardOf(const std::string& video) const;

  /// Structural checks: at least one shard, every assignment in range.
  Status Validate() const;

  friend bool operator==(const ShardMap&, const ShardMap&) = default;
};

/// Contiguous-by-sorted-name assignment of `names` across `shards`:
/// sorts the names and gives shard 0 the lexicographically first chunk,
/// shard 1 the next, and so on (remainder spread over the leading
/// shards). Contiguity in sorted-name order is what makes the router's
/// cross-shard merge reproduce the single-node oracle's tie order: a node
/// breaks equal-score ties by (video name, clip begin), so
/// (shard index, per-shard rank) induces the same order on them.
Result<ShardMap> AssignContiguous(std::vector<std::string> names,
                                  std::vector<ShardEndpoint> shards,
                                  uint64_t version = 1);

/// Persists `map` at `path`: serialized payload + "SVQF" checksum footer,
/// written via WriteFileAtomic. Errors: InvalidArgument (Validate fails),
/// IOError.
Status SaveShardMap(io::Env* env, const std::string& path,
                    const ShardMap& map);

/// Loads a map previously written by SaveShardMap. Errors: IOError
/// (unreadable), Corruption (bad footer/CRC, truncated or malformed
/// payload, bad magic/version), InvalidArgument (structurally invalid).
Result<ShardMap> LoadShardMap(const std::string& path);

}  // namespace svq::cluster

#endif  // SVQ_CLUSTER_SHARD_MAP_H_
