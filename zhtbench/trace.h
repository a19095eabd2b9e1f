// Benchmark-side tracing. Spans are recorded around the calls the benchmark
// makes into each layer's public interface — the client call, the client
// transport, the peer link handed to every server, the server's async
// handler, and the partition stores — never inside the program. Every span
// feeds a per-kind aggregate (count and total time); the first `capacity`
// spans are also kept in memory and written out at the end.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/zht_server.h"
#include "net/tcp_client.h"
#include "novoht/novoht.h"

namespace zht::zbench {

enum class SpanKind : std::uint8_t {
  kClientOp = 0,      // one ZhtClient call, end to end
  kClientCall,        // client transport Call (one RPC attempt)
  kServerLookup,      // ZhtServer::HandleAsync → done, client lookup
  kServerWrite,       // same, client insert/append/remove
  kServerReplica,     // same, for a server-origin replication leg
  kPeerSync,          // peer-link Call of a synchronous replication leg
  kPeerAsync,         // peer-link Call of an asynchronous leg
  kPeerOther,         // peer-link batch or control call
  kStorePut,
  kStoreGet,
  kStoreAppend,
  kStoreRemove,
  kDurableWait,       // NotifyDurable → callback
  kCount,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;   // relative to the tracer's epoch
  std::int64_t dur_ns = 0;
  std::uint64_t op_id = 0;     // client op, where attributable (0 = unknown)
  std::uint64_t key_hash = 0;  // for attribution by key and interval
  SpanKind kind = SpanKind::kClientOp;
  std::uint8_t detail = 0;     // opcode
};

// The client op running on this thread (0 outside an op). Transport spans
// on the same thread carry it.
extern thread_local std::uint64_t tls_op_id;

std::int64_t NowNs();
std::uint64_t HashKey(std::string_view key);

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  void Record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t op_id, std::uint64_t key_hash, std::uint8_t detail);

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };
  Totals TotalsOf(SpanKind kind) const;

  // Writes kept spans as JSON lines; returns false on an I/O error.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Agg {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::int64_t epoch_ns_;
  std::array<Agg, static_cast<std::size_t>(SpanKind::kCount)> aggs_;
  std::vector<Span> kept_;
  std::atomic<std::uint64_t> next_{0};
};

// A client transport or server peer link that times every Call.
class TracedTransport final : public ClientTransport {
 public:
  // `peer` selects the peer-link span kinds (sync/async/other by the
  // leg's replica index) instead of kClientCall.
  TracedTransport(Tracer* tracer, bool peer);

  Result<Response> Call(const NodeAddress& to, const Request& request,
                        Nanos timeout) override;
  Result<std::vector<Response>> CallBatch(const NodeAddress& to,
                                          std::span<const Request> requests,
                                          Nanos timeout) override;
  void Invalidate(const NodeAddress& to) override { inner_.Invalidate(to); }

  const TcpClient& tcp() const { return inner_; }

 private:
  Tracer* tracer_;
  bool peer_;
  TcpClient inner_;
};

// KVStore decorator that times Put/Get/Append/Remove and the durability
// wait, and counts mutations. Wraps every partition store the benchmark's
// StoreFactory builds.
class TracedStore final : public KVStore {
 public:
  TracedStore(std::unique_ptr<KVStore> inner, Tracer* tracer,
              std::atomic<std::uint64_t>* mutations);

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Remove(std::string_view key) override;
  Status Append(std::string_view key, std::string_view value) override;
  Status Clear() override { return inner_->Clear(); }
  std::uint64_t Size() const override { return inner_->Size(); }
  void ForEach(const std::function<void(std::string_view, std::string_view)>&
                   fn) const override {
    inner_->ForEach(fn);
  }
  bool persistent() const override { return inner_->persistent(); }
  bool supports_append() const override { return inner_->supports_append(); }
  std::uint64_t last_commit_token() const override {
    return inner_->last_commit_token();
  }
  Status WaitDurable(std::uint64_t token) override {
    return inner_->WaitDurable(token);
  }
  void NotifyDurable(std::uint64_t token,
                     std::function<void(Status)> done) override;
  bool durability_metrics(StoreDurabilityMetrics* out) const override {
    return inner_->durability_metrics(out);
  }

  // The wrapped NoVoHT (every store the benchmark builds is one).
  const NoVoHT* novoht() const { return novoht_; }

 private:
  std::unique_ptr<KVStore> inner_;
  const NoVoHT* novoht_;
  Tracer* tracer_;
  std::atomic<std::uint64_t>* mutations_;
};

// Every TracedStore a factory built, for NoVoHT::stats() sums.
class StoreRegistry {
 public:
  StoreFactory Wrap(StoreFactory inner, Tracer* tracer);
  NoVoHTStats Sum() const;
  std::uint64_t mutations() const {
    return mutations_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<const TracedStore*> stores_;  // owned by the servers
  std::atomic<std::uint64_t> mutations_{0};
};

}  // namespace zht::zbench
