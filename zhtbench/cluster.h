// A ZHT cluster in this process over cached TCP on localhost: one
// multi-reactor EpollServer per instance in front of a ZhtServer, one shard
// per reactor, static uniform membership, no managers. With tracing on,
// every server's peer link is a TracedTransport, its async handler is timed
// from outside, and its partition stores are TracedStores.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/zht_client.h"
#include "core/zht_server.h"
#include "net/epoll_server.h"
#include "trace.h"
#include "workload.h"

namespace zht::zbench {

// The deployment-wide options every server and client of `spec` shares.
ClusterOptions ClusterOptionsFor(const WorkloadSpec& spec);

// The partition-store factory for `spec`: in-memory NoVoHT, or persistent
// NoVoHT logs with group commit under `data_dir`.
StoreFactory StoreFactoryFor(const WorkloadSpec& spec,
                             const std::string& data_dir);

// Path of the log holding (instance, partition) under `data_dir`, as
// MakeNoVoHTStoreFactory names it.
std::string PartitionLogPath(const std::string& data_dir, InstanceId self,
                             PartitionId partition);

class Cluster {
 public:
  // Starts every instance; `tracer` and `stores` are null in untraced runs.
  // A non-null `lag_async` delays asynchronous replication legs while it
  // is set (check self-test only).
  Cluster(const WorkloadSpec& spec, const std::string& data_dir,
          Tracer* tracer, StoreRegistry* stores,
          const std::atomic<bool>* lag_async);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  bool ok() const { return ok_; }
  const MembershipTable& table() const { return table_; }
  std::size_t size() const { return instances_.size(); }
  ZhtServer& server(std::size_t i) { return *instances_[i]->server; }

  // A client transport: TracedTransport when tracing, else a TcpClient.
  std::unique_ptr<ClientTransport> MakeClientTransport() const;
  ZhtClientOptions ClientOptions(std::uint64_t client_id) const;

  // Stops the event loops, drains replication and destroys the servers
  // (closing every store). Idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Instance {
    std::unique_ptr<EpollServer> net;
    std::unique_ptr<ClientTransport> peer_link;
    std::unique_ptr<ClientTransport> lag_link;  // wraps peer_link
    std::unique_ptr<ZhtServer> server;
  };

  WorkloadSpec spec_;
  Tracer* tracer_;
  MembershipTable table_;
  std::vector<std::unique_ptr<Instance>> instances_;
  bool ok_ = false;
};

}  // namespace zht::zbench
