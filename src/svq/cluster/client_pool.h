#ifndef SVQ_CLUSTER_CLIENT_POOL_H_
#define SVQ_CLUSTER_CLIENT_POOL_H_

#include <unistd.h>

#include <mutex>
#include <utility>
#include <vector>

#include "svq/cluster/shard_map.h"

namespace svq::cluster {

/// Idle wire connections to one svqd backend: non-blocking sockets that
/// finished a clean round trip. A backend call checks one out for one
/// request and returns it afterwards, so concurrent requests to the same
/// backend each get their own connection.
///
/// A connection whose request failed at the transport layer is closed,
/// never returned (its stream state is unknown); the next call dials
/// afresh under the router's connect timeout.
class ClientPool {
 public:
  explicit ClientPool(ShardEndpoint endpoint)
      : endpoint_(std::move(endpoint)) {}
  ~ClientPool() { Clear(); }

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  const ShardEndpoint& endpoint() const { return endpoint_; }

  /// An idle connected socket, or -1 when none is pooled (dial one).
  int Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_.empty()) return -1;
    const int fd = idle_.back();
    idle_.pop_back();
    return fd;
  }

  /// Takes back a socket after a clean round trip; surplus ones close.
  void Release(int fd) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (idle_.size() < kMaxIdle) {
        idle_.push_back(fd);
        return;
      }
    }
    ::close(fd);
  }

  /// Closes every idle connection (shutdown path).
  void Clear() {
    std::vector<int> idle;
    {
      std::lock_guard<std::mutex> lock(mu_);
      idle.swap(idle_);
    }
    for (const int fd : idle) ::close(fd);
  }

 private:
  /// Idle connections kept. Each holds one of the backend's connection
  /// slots, so a burst beyond this redials rather than pinning more.
  static constexpr size_t kMaxIdle = 8;

  const ShardEndpoint endpoint_;

  std::mutex mu_;
  std::vector<int> idle_;
};

}  // namespace svq::cluster

#endif  // SVQ_CLUSTER_CLIENT_POOL_H_
