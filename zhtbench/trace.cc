#include "trace.h"

#include <chrono>
#include <cstdio>

namespace zht::zbench {

thread_local std::uint64_t tls_op_id = 0;

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

constexpr const char* kSpanNames[] = {
    "client.op",    "client.call",   "server.lookup", "server.write",
    "server.replica", "peer.sync",   "peer.async",    "peer.other",
    "store.put",    "store.get",     "store.append",  "store.remove",
    "store.durable_wait",
};
static_assert(std::size(kSpanNames) ==
              static_cast<std::size_t>(SpanKind::kCount));

}  // namespace

const char* SpanKindName(SpanKind kind) {
  return kSpanNames[static_cast<std::size_t>(kind)];
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t HashKey(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Tracer::Tracer(std::size_t capacity) : epoch_ns_(NowNs()), kept_(capacity) {}

void Tracer::Record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t op_id, std::uint64_t key_hash,
                    std::uint8_t detail) {
  const std::int64_t dur = end_ns - start_ns;
  Agg& agg = aggs_[static_cast<std::size_t>(kind)];
  agg.count.fetch_add(1, kRelaxed);
  agg.sum_ns.fetch_add(static_cast<std::uint64_t>(dur), kRelaxed);
  const std::uint64_t slot = next_.fetch_add(1, kRelaxed);
  if (slot < kept_.size()) {
    kept_[slot] = Span{start_ns - epoch_ns_, dur, op_id, key_hash, kind,
                       detail};
  }
}

Tracer::Totals Tracer::TotalsOf(SpanKind kind) const {
  const Agg& agg = aggs_[static_cast<std::size_t>(kind)];
  Totals totals;
  totals.count = agg.count.load(kRelaxed);
  totals.sum_ns = agg.sum_ns.load(kRelaxed);
  return totals;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t n =
      std::min<std::uint64_t>(next_.load(kRelaxed), kept_.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "{\"span\":\"%s\",\"start_ns\":%lld,\"dur_ns\":%lld,"
                 "\"op\":%llu,\"key\":\"%016llx\",\"opcode\":%u}\n",
                 SpanKindName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.dur_ns),
                 static_cast<unsigned long long>(s.op_id),
                 static_cast<unsigned long long>(s.key_hash),
                 static_cast<unsigned>(s.detail));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

TracedTransport::TracedTransport(Tracer* tracer, bool peer)
    : tracer_(tracer), peer_(peer) {}

Result<Response> TracedTransport::Call(const NodeAddress& to,
                                       const Request& request, Nanos timeout) {
  const std::int64_t start = NowNs();
  auto result = inner_.Call(to, request, timeout);
  SpanKind kind = SpanKind::kClientCall;
  if (peer_) {
    // With sync_secondary, leg 1 blocks the ack and later legs go through
    // the async queue.
    kind = request.op == OpCode::kBatch ? SpanKind::kPeerOther
           : request.replica_index == 1 ? SpanKind::kPeerSync
                                        : SpanKind::kPeerAsync;
  }
  tracer_->Record(kind, start, NowNs(), tls_op_id, HashKey(request.key),
                  static_cast<std::uint8_t>(request.op));
  return result;
}

Result<std::vector<Response>> TracedTransport::CallBatch(
    const NodeAddress& to, std::span<const Request> requests, Nanos timeout) {
  const std::int64_t start = NowNs();
  auto result = inner_.CallBatch(to, requests, timeout);
  tracer_->Record(peer_ ? SpanKind::kPeerOther : SpanKind::kClientCall, start,
                  NowNs(), tls_op_id, 0, static_cast<std::uint8_t>(OpCode::kBatch));
  return result;
}

// ---------------------------------------------------------------------------

TracedStore::TracedStore(std::unique_ptr<KVStore> inner, Tracer* tracer,
                         std::atomic<std::uint64_t>* mutations)
    : inner_(std::move(inner)),
      novoht_(dynamic_cast<const NoVoHT*>(inner_.get())),
      tracer_(tracer),
      mutations_(mutations) {}

Status TracedStore::Put(std::string_view key, std::string_view value) {
  const std::int64_t start = NowNs();
  Status status = inner_->Put(key, value);
  tracer_->Record(SpanKind::kStorePut, start, NowNs(), 0, HashKey(key),
                  static_cast<std::uint8_t>(OpCode::kInsert));
  mutations_->fetch_add(1, kRelaxed);
  return status;
}

Result<std::string> TracedStore::Get(std::string_view key) {
  const std::int64_t start = NowNs();
  auto result = inner_->Get(key);
  tracer_->Record(SpanKind::kStoreGet, start, NowNs(), 0, HashKey(key),
                  static_cast<std::uint8_t>(OpCode::kLookup));
  return result;
}

Status TracedStore::Remove(std::string_view key) {
  const std::int64_t start = NowNs();
  Status status = inner_->Remove(key);
  tracer_->Record(SpanKind::kStoreRemove, start, NowNs(), 0, HashKey(key),
                  static_cast<std::uint8_t>(OpCode::kRemove));
  mutations_->fetch_add(1, kRelaxed);
  return status;
}

Status TracedStore::Append(std::string_view key, std::string_view value) {
  const std::int64_t start = NowNs();
  Status status = inner_->Append(key, value);
  tracer_->Record(SpanKind::kStoreAppend, start, NowNs(), 0, HashKey(key),
                  static_cast<std::uint8_t>(OpCode::kAppend));
  mutations_->fetch_add(1, kRelaxed);
  return status;
}

void TracedStore::NotifyDurable(std::uint64_t token,
                                std::function<void(Status)> done) {
  const std::int64_t start = NowNs();
  inner_->NotifyDurable(
      token, [this, start, done = std::move(done)](Status status) {
        tracer_->Record(SpanKind::kDurableWait, start, NowNs(), 0, 0, 0);
        done(std::move(status));
      });
}

// ---------------------------------------------------------------------------

StoreFactory StoreRegistry::Wrap(StoreFactory inner, Tracer* tracer) {
  return [this, inner = std::move(inner), tracer](
             InstanceId self, PartitionId partition) -> std::unique_ptr<KVStore> {
    auto store = inner(self, partition);
    if (!store) return nullptr;
    auto traced =
        std::make_unique<TracedStore>(std::move(store), tracer, &mutations_);
    std::lock_guard<std::mutex> lock(mu_);
    stores_.push_back(traced.get());
    return traced;
  };
}

NoVoHTStats StoreRegistry::Sum() const {
  NoVoHTStats sum;
  std::lock_guard<std::mutex> lock(mu_);
  for (const TracedStore* store : stores_) {
    if (store->novoht() == nullptr) continue;
    const NoVoHTStats s = store->novoht()->stats();
    sum.gc_runs += s.gc_runs;
    sum.gc_nanos_total += s.gc_nanos_total;
  }
  return sum;
}

}  // namespace zht::zbench
