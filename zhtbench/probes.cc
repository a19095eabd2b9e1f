#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "cluster.h"
#include "core/zht_server.h"
#include "net/epoll_server.h"
#include "net/tcp_client.h"
#include "novoht/novoht.h"
#include "trace.h"

namespace zht::zbench {

namespace {

// Keeps timed results observable so the loops cannot be folded away.
volatile std::uint64_t g_sink = 0;

struct Sample {
  OpStream::Op op;
  Request request;
  Response response;
};

std::vector<Sample> MakeSamples(const Inputs& inputs, std::uint64_t seed,
                                std::size_t n) {
  const WorkloadSpec& spec = inputs.spec();
  OpStream stream(spec, 0, seed ^ 0x70726f6265ULL);
  std::vector<Sample> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    Sample& s = samples[i];
    s.op = stream.Next();
    s.request.op = s.op.op;
    s.request.seq = i + 1;
    s.request.epoch = 1;
    s.request.client_id = 0x5a48;
    s.request.key = inputs.Key(s.op.index);
    if (s.op.op == OpCode::kInsert) {
      s.request.value = inputs.Value(s.op.index, 2);
    } else if (s.op.op == OpCode::kAppend) {
      s.request.value = Inputs::Token(s.op.index, 1);
    }
    s.response.seq = s.request.seq;
    s.response.epoch = 1;
    if (s.op.op == OpCode::kLookup) {
      s.response.value = s.op.index < spec.keys
                             ? inputs.Value(s.op.index, 1)
                             : Inputs::Token(s.op.index, 0);
    }
  }
  return samples;
}

// Runs `pass` (which handles `items` items) until at least 50 ms have
// passed; returns nanoseconds per item.
template <typename Pass>
double NsPerItem(std::size_t items, Pass&& pass) {
  const std::int64_t start = NowNs();
  std::uint64_t passes = 0;
  std::int64_t elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = NowNs() - start;
  } while (elapsed < 50'000'000);
  return static_cast<double>(elapsed) / static_cast<double>(passes * items);
}

void ProbeSerialize(const std::vector<Sample>& samples, ProbeResults* out) {
  std::vector<std::string> requests, responses;
  for (const Sample& s : samples) {
    requests.push_back(s.request.Encode());
    responses.push_back(s.response.Encode());
  }
  const std::size_t n = samples.size();
  out->request_encode_ns = NsPerItem(n, [&] {
    for (const Sample& s : samples) g_sink = g_sink + s.request.Encode().size();
  });
  out->request_decode_ns = NsPerItem(n, [&] {
    for (const std::string& wire : requests) {
      auto decoded = Request::Decode(wire);
      if (!decoded.ok()) {
        out->ok = false;
        return;
      }
      g_sink = g_sink + decoded->key.size();
    }
  });
  out->response_encode_ns = NsPerItem(n, [&] {
    for (const Sample& s : samples) {
      g_sink = g_sink + s.response.Encode().size();
    }
  });
  out->response_decode_ns = NsPerItem(n, [&] {
    for (const std::string& wire : responses) {
      auto decoded = Response::Decode(wire);
      if (!decoded.ok()) {
        out->ok = false;
        return;
      }
      g_sink = g_sink + decoded->value.size();
    }
  });
}

void ProbeRoute(const std::vector<Sample>& samples, const MembershipTable& table,
                int replicas, ProbeResults* out) {
  out->route_ns = NsPerItem(samples.size(), [&] {
    for (const Sample& s : samples) {
      const PartitionId p = table.PartitionOfKey(s.request.key);
      g_sink = g_sink + p + table.ReplicaChain(p, replicas).size();
    }
  });
}

// Blocking Handle() on a standalone single-shard r=0 server whose shard is
// unbound, so every request runs on this thread (completion may come from
// a group-commit flusher).
void ProbeDirectServer(const Inputs& inputs, const std::string& dir,
                       std::uint64_t seed, ProbeResults* out) {
  const WorkloadSpec& spec = inputs.spec();
  MembershipTable table = MembershipTable::CreateUniform(
      64, {NodeAddress{"127.0.0.1", 9}});
  ZhtServerOptions options;
  options.cluster = ClusterOptionsFor(spec);
  options.cluster.num_replicas = 0;
  options.num_shards = 1;
  options.store_factory = StoreFactoryFor(spec, dir);
  TcpClient unused_peer;  // r=0: no peer traffic
  ZhtServer server(table, options, &unused_peer);

  const std::uint64_t keys = std::min<std::uint64_t>(spec.keys, 20000);
  const std::size_t n = spec.value_bytes > 4096 ? 2000 : 20000;
  auto make = [&](OpCode op, std::uint64_t index, std::uint32_t version) {
    Request request;
    request.op = op;
    request.seq = index + 1;
    request.epoch = table.epoch();
    request.key = inputs.Key(index);
    if (op == OpCode::kInsert) request.value = inputs.Value(index, version);
    return request;
  };
  for (std::uint64_t i = 0; i < keys; ++i) {
    if (!server.Handle(make(OpCode::kInsert, i, 1)).ok()) out->ok = false;
  }
  ZipfSampler sampler(keys, spec.zipf);
  Rng rng(seed ^ 0x646972656374ULL);
  std::vector<std::uint64_t> picks(n);
  for (auto& pick : picks) pick = sampler.Sample(rng);

  std::vector<Request> lookups, inserts;
  for (std::uint64_t index : picks) {
    lookups.push_back(make(OpCode::kLookup, index, 0));
    inserts.push_back(make(OpCode::kInsert, index, 2));
  }
  std::int64_t start = NowNs();
  for (Request& request : lookups) {
    Response resp = server.Handle(std::move(request));
    if (!resp.ok()) out->ok = false;
  }
  out->direct_lookup_us = (NowNs() - start) / 1e3 / static_cast<double>(n);
  start = NowNs();
  for (Request& request : inserts) {
    if (!server.Handle(std::move(request)).ok()) out->ok = false;
  }
  out->direct_insert_us = (NowNs() - start) / 1e3 / static_cast<double>(n);
}

// A bare NoVoHT with the options the cluster's stores use.
void ProbeNoVoHT(const Inputs& inputs, const std::string& dir,
                 ProbeResults* out) {
  const WorkloadSpec& spec = inputs.spec();
  NoVoHTOptions options;
  if (spec.durable) {
    options.path = dir + "/bare.novoht";
    options.durability = DurabilityMode::kGroupCommit;
    options.wait_for_durable = false;
  }
  auto store = NoVoHT::Open(options);
  if (!store.ok()) {
    out->ok = false;
    return;
  }
  const std::uint64_t keys = std::min<std::uint64_t>(spec.keys, 20000);
  const std::size_t n = spec.value_bytes > 4096 ? 2000 : 20000;
  std::vector<std::string> k(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    k[i] = inputs.Key(i % keys);
    v[i] = inputs.Value(i % keys, static_cast<std::uint32_t>(i / keys + 1));
  }
  std::int64_t start = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    if (!(*store)->Put(k[i], v[i]).ok()) out->ok = false;
  }
  out->novoht_put_us = (NowNs() - start) / 1e3 / static_cast<double>(n);
  start = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    auto value = (*store)->Get(k[i]);
    if (!value.ok()) {
      out->ok = false;
      return;
    }
    g_sink = g_sink + value->size();
  }
  out->novoht_get_us = (NowNs() - start) / 1e3 / static_cast<double>(n);
}

// TcpClient::Call to an EpollServer whose handler answers at once with a
// canned response of the workload's size: the network floor.
void ProbeBareRtt(const std::vector<Sample>& samples, ProbeResults* out) {
  EpollServerOptions options;
  options.enable_udp = false;
  // The canned response is the sample's own response (value included).
  auto canned = EpollServer::Create(
      options, [&samples](Request&& request) {
        return samples[(request.seq - 1) % samples.size()].response;
      });
  if (!canned.ok() || !(*canned)->Start().ok()) {
    out->ok = false;
    return;
  }
  TcpClient client;
  const std::size_t n =
      samples.front().response.value.size() > 4096 ||
              samples.front().request.value.size() > 4096
          ? 2000
          : 20000;
  std::vector<std::int64_t> rtts;
  rtts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i % samples.size()];
    const std::int64_t start = NowNs();
    auto resp = client.Call((*canned)->address(), s.request, 5 * kNanosPerSec);
    rtts.push_back(NowNs() - start);
    if (!resp.ok()) out->ok = false;
  }
  (*canned)->Stop();
  std::nth_element(rtts.begin(), rtts.begin() + n / 2, rtts.end());
  out->bare_rtt_us = rtts[n / 2] / 1e3;
}

}  // namespace

ProbeResults RunProbes(const Inputs& inputs, const MembershipTable& table,
                       const std::string& dir, std::uint64_t seed) {
  ProbeResults out;
  const std::vector<Sample> samples = MakeSamples(inputs, seed, 2048);
  ProbeSerialize(samples, &out);
  ProbeRoute(samples, table, inputs.spec().replicas, &out);
  ProbeNoVoHT(inputs, dir, &out);
  ProbeDirectServer(inputs, dir, seed, &out);
  ProbeBareRtt(samples, &out);
  return out;
}

}  // namespace zht::zbench
