#include "cluster.h"

#include <chrono>
#include <thread>

#include "core/local_cluster.h"
#include "novoht/novoht.h"

namespace zht::zbench {

namespace {

// Holds asynchronous replication legs (replica index 2 and beyond) for
// kLagMs while `lag` is set, so a third copy is certain to trail the ack.
// Only the check self-test (--teeth) installs it.
class LaggingLink final : public ClientTransport {
 public:
  static constexpr int kLagMs = 300;
  LaggingLink(ClientTransport* inner, const std::atomic<bool>* lag)
      : inner_(inner), lag_(lag) {}
  Result<Response> Call(const NodeAddress& to, const Request& request,
                        Nanos timeout) override {
    if (request.replica_index >= 2 && lag_->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kLagMs));
    }
    return inner_->Call(to, request, timeout);
  }
  Result<std::vector<Response>> CallBatch(const NodeAddress& to,
                                          std::span<const Request> requests,
                                          Nanos timeout) override {
    return inner_->CallBatch(to, requests, timeout);
  }
  void Invalidate(const NodeAddress& to) override { inner_->Invalidate(to); }

 private:
  ClientTransport* inner_;
  const std::atomic<bool>* lag_;
};

bool IsDataOp(OpCode op) {
  return op == OpCode::kInsert || op == OpCode::kLookup ||
         op == OpCode::kRemove || op == OpCode::kAppend;
}

}  // namespace

ClusterOptions ClusterOptionsFor(const WorkloadSpec& spec) {
  ClusterOptions cluster;
  cluster.num_replicas = spec.replicas;
  // Generous budgets: a timeout would turn a slow moment on a shared host
  // into a failed or retried operation.
  cluster.op_timeout = 5 * kNanosPerSec;
  cluster.peer_timeout = 5 * kNanosPerSec;
  cluster.durability =
      spec.durable ? DurabilityMode::kGroupCommit : DurabilityMode::kNone;
  cluster.hot_cache_entries = spec.cache_entries;
  return cluster;
}

StoreFactory StoreFactoryFor(const WorkloadSpec& spec,
                             const std::string& data_dir) {
  if (spec.durable) {
    return MakeNoVoHTStoreFactory(data_dir, ClusterOptionsFor(spec));
  }
  return [](InstanceId, PartitionId) -> std::unique_ptr<KVStore> {
    auto store = NoVoHT::Open(NoVoHTOptions{});
    if (!store.ok()) return nullptr;
    return std::move(*store);
  };
}

std::string PartitionLogPath(const std::string& data_dir, InstanceId self,
                             PartitionId partition) {
  return data_dir + "/i" + std::to_string(self) + "_p" +
         std::to_string(partition) + ".novoht";
}

Cluster::Cluster(const WorkloadSpec& spec, const std::string& data_dir,
                 Tracer* tracer, StoreRegistry* stores,
                 const std::atomic<bool>* lag_async)
    : spec_(spec), tracer_(tracer) {
  std::vector<NodeAddress> addresses;
  for (int i = 0; i < spec.instances; ++i) {
    auto inst = std::make_unique<Instance>();
    Instance* raw = inst.get();
    AsyncRequestHandler handler;
    if (tracer == nullptr) {
      handler = [raw](Request&& request, ResponseCallback done) {
        raw->server->HandleAsync(std::move(request), std::move(done));
      };
    } else {
      // Server service time, timed at the handler boundary: ingress to the
      // response callback, split by client- and server-origin data ops.
      handler = [raw, tracer](Request&& request, ResponseCallback done) {
        if (!IsDataOp(request.op)) {
          raw->server->HandleAsync(std::move(request), std::move(done));
          return;
        }
        const SpanKind kind = request.server_origin
                                  ? SpanKind::kServerReplica
                              : request.op == OpCode::kLookup
                                  ? SpanKind::kServerLookup
                                  : SpanKind::kServerWrite;
        const std::uint64_t key_hash = HashKey(request.key);
        const auto op = static_cast<std::uint8_t>(request.op);
        const std::int64_t start = NowNs();
        raw->server->HandleAsync(
            std::move(request), [tracer, kind, key_hash, op, start,
                                 done = std::move(done)](Response&& resp) {
              tracer->Record(kind, start, NowNs(), 0, key_hash, op);
              done(std::move(resp));
            });
      };
    }
    EpollServerOptions net_options;
    net_options.enable_udp = false;
    net_options.num_reactors = spec.reactors;
    auto net = EpollServer::Create(net_options, std::move(handler));
    if (!net.ok()) return;
    inst->net = std::move(*net);
    addresses.push_back(inst->net->address());
    instances_.push_back(std::move(inst));
  }
  table_ = MembershipTable::CreateUniform(
      static_cast<std::uint32_t>(64 * spec.instances), addresses);

  StoreFactory factory = StoreFactoryFor(spec, data_dir);
  if (stores != nullptr) factory = stores->Wrap(std::move(factory), tracer);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    Instance& inst = *instances_[i];
    if (tracer != nullptr) {
      inst.peer_link = std::make_unique<TracedTransport>(tracer, /*peer=*/true);
    } else {
      inst.peer_link = std::make_unique<TcpClient>();
    }
    ClientTransport* link = inst.peer_link.get();
    if (lag_async != nullptr) {
      inst.lag_link = std::make_unique<LaggingLink>(link, lag_async);
      link = inst.lag_link.get();
    }
    ZhtServerOptions options;
    options.self = static_cast<InstanceId>(i);
    options.cluster = ClusterOptionsFor(spec);
    options.num_shards = static_cast<std::size_t>(spec.reactors);
    options.store_factory = factory;
    inst.server =
        std::make_unique<ZhtServer>(table_, options, link);
    LocalCluster::WireReactors(*inst.server, *inst.net);
  }
  ok_ = true;
}

Cluster::~Cluster() { Shutdown(); }

void Cluster::Shutdown() {
  // Drain replication while every peer still answers, then stop the loops
  // so nothing new arrives, then close the servers and their stores.
  for (auto& inst : instances_) {
    if (inst->server) inst->server->FlushAsyncReplication();
  }
  for (auto& inst : instances_) {
    if (inst->net) inst->net->Stop();
  }
  for (auto& inst : instances_) inst->server.reset();
  instances_.clear();
}

std::unique_ptr<ClientTransport> Cluster::MakeClientTransport() const {
  if (tracer_ != nullptr) {
    return std::make_unique<TracedTransport>(tracer_, /*peer=*/false);
  }
  return std::make_unique<TcpClient>();
}

ZhtClientOptions Cluster::ClientOptions(std::uint64_t client_id) const {
  ZhtClientOptions options;
  options.cluster = ClusterOptionsFor(spec_);
  options.client_id = client_id;
  return options;
}

}  // namespace zht::zbench
