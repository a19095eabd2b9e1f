// zhtbench: one end-to-end ZHT benchmark. Runs one named workload against
// a ZHT cluster over cached TCP in this process, with closed-loop ZhtClient
// threads, checks every result against the generator's own model, and
// prints one JSON object as the last line of standard output:
//
//   zhtbench --workload NAME --seed N --seconds S --trace 0|1
//            [--out DIR] [--teeth MODE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with benchmark-side spans on and reports the per-layer metrics
// (see README.md for every metric and the end-to-end metric it explains).
// --teeth makes the checks fail on purpose (self-test of the checks).
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster.h"
#include "probes.h"
#include "trace.h"
#include "workload.h"

namespace zht::zbench {
namespace {

constexpr int kWatchdogSeconds = 170;
// The measured window is cut into slices of this length; each end-to-end
// figure is the median over the slices of that slice's figure, so a short
// stall of a shared host moves at most a few slices, not the result.
constexpr std::int64_t kSliceNs = 1'000'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  // "" | wrong-expected | lag-async | skip-flush
  std::string teeth;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--teeth") {
      args->teeth = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return !args->workload.empty() && args->seconds >= 1 &&
         args->seconds <= 120 &&
         (args->teeth.empty() || args->teeth == "wrong-expected" ||
          args->teeth == "lag-async" || args->teeth == "skip-flush");
}

// Reads one numeric field ("VmHWM:", "write_bytes:") from a /proc file.
std::uint64_t ProcField(const char* path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtoull(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

template <typename T>
double Percentile(std::vector<T>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;
  return static_cast<double>(values[std::min(index, values.size() - 1)]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// ---- the model's expectations ---------------------------------------------

struct Expectations {
  const Inputs& inputs;
  const Model& model;

  std::string ValueOf(std::uint64_t index) const {
    const std::uint64_t keys = inputs.spec().keys;
    return index < keys ? inputs.Value(index, model.versions[index])
                        : model.ledgers[index - keys];
  }
  std::uint64_t count() const {
    return inputs.spec().keys + inputs.spec().ledgers;
  }
};

// Every key and ledger index, grouped by partition.
std::vector<std::vector<std::uint64_t>> IndicesByPartition(
    const Expectations& expect, const MembershipTable& table) {
  std::vector<std::vector<std::uint64_t>> by_partition(table.num_partitions());
  for (std::uint64_t i = 0; i < expect.count(); ++i) {
    by_partition[table.PartitionOfKey(expect.inputs.Key(i))].push_back(i);
  }
  return by_partition;
}

// True when `pairs` holds exactly the model's pairs for `indices`; keys whose
// outcome is unknown (a failed write) are skipped, and then so is the size.
bool MatchesModel(std::vector<std::pair<std::string, std::string>> pairs,
                  const std::vector<std::uint64_t>& indices,
                  const Expectations& expect, std::string* why) {
  std::sort(pairs.begin(), pairs.end());
  bool any_uncertain = false;
  for (std::uint64_t index : indices) {
    if (expect.model.uncertain[index]) {
      any_uncertain = true;
      continue;
    }
    const std::string key = expect.inputs.Key(index);
    auto it = std::lower_bound(
        pairs.begin(), pairs.end(), key,
        [](const auto& pair, const std::string& k) { return pair.first < k; });
    if (it == pairs.end() || it->first != key) {
      *why = "key " + key + " missing";
      return false;
    }
    if (it->second != expect.ValueOf(index)) {
      *why = "key " + key + " holds a value the model does not";
      return false;
    }
  }
  if (!any_uncertain && pairs.size() != indices.size()) {
    *why = "holds " + std::to_string(pairs.size()) + " pairs, model has " +
           std::to_string(indices.size());
    return false;
  }
  return true;
}

// ---- closed-loop clients ----------------------------------------------------

struct Phase {
  std::atomic<int> value{0};  // 0 warm-up, 1 measured window, 2 stop
  std::atomic<int> warmed{0};
  std::atomic<std::int64_t> start_ns{0};  // of the window; set before value=1
};

// The ops of one client that ended in one slice of the measured window
// (ops that ended after the window count in its last slice).
struct Slice {
  std::vector<std::uint32_t> read_ns, write_ns;
  std::uint64_t ops = 0;
};

struct ClientResult {
  std::vector<Slice> slices;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  std::uint64_t window_writes = 0;      // acked, measured window
  std::uint64_t window_user_bytes = 0;  // acked key + value bytes
  std::uint64_t acked_writes = 0;       // acked, whole run
  std::string first_error;
};

struct ClientContext {
  int id = 0;
  const Inputs* inputs = nullptr;
  Model* model = nullptr;
  ZhtClient* client = nullptr;
  Tracer* tracer = nullptr;
  Phase* phase = nullptr;
  std::uint64_t seed = 0;
  bool corrupt_one_expectation = false;
};

void RunClient(const ClientContext& ctx, ClientResult* out) {
  const WorkloadSpec& spec = ctx.inputs->spec();
  OpStream stream(spec, ctx.id, ctx.seed);
  auto slice_of = [&](std::int64_t end) -> Slice& {
    const std::int64_t since =
        end - ctx.phase->start_ns.load(std::memory_order_relaxed);
    const std::size_t index =
        static_cast<std::size_t>(std::max<std::int64_t>(0, since) / kSliceNs);
    return out->slices[std::min(index, out->slices.size() - 1)];
  };
  auto elapsed = [](std::int64_t start, std::int64_t end) {
    return static_cast<std::uint32_t>(
        std::min<std::int64_t>(end - start, UINT32_MAX));
  };
  Model& model = *ctx.model;
  bool corrupt = ctx.corrupt_one_expectation;
  std::uint64_t seq = 0;
  int warm = 0;
  for (;;) {
    const int phase = ctx.phase->value.load(std::memory_order_acquire);
    if (phase == 2) break;
    if (phase == 0 && ++warm == spec.warmup_ops) {
      ctx.phase->warmed.fetch_add(1, std::memory_order_release);
    }
    const bool measured = phase == 1;
    const OpStream::Op op = stream.Next();
    const std::string key = ctx.inputs->Key(op.index);
    tls_op_id = (static_cast<std::uint64_t>(ctx.id + 1) << 48) | ++seq;

    bool ok = true;
    std::int64_t start = 0, end = 0;
    if (op.op == OpCode::kLookup) {
      start = NowNs();
      auto got = ctx.client->Lookup(key);
      end = NowNs();
      ok = got.ok();
      if (ok && !model.uncertain[op.index]) {
        std::string expected = Expectations{*ctx.inputs, model}.ValueOf(op.index);
        if (corrupt && measured) {
          expected[0] ^= 1;  // --teeth wrong-expected
          corrupt = false;
        }
        if (*got != expected) {
          ++out->wrong;
          if (out->first_error.empty()) {
            out->first_error = "lookup of " + key + " returned a wrong value";
          }
        }
      }
      if (measured) slice_of(end).read_ns.push_back(elapsed(start, end));
    } else {
      std::string value;
      if (op.op == OpCode::kInsert) {
        value = ctx.inputs->Value(op.index, model.versions[op.index] + 1);
      } else {
        const std::uint64_t ledger = op.index - spec.keys;
        value = Inputs::Token(op.index, model.tokens[ledger]);
      }
      start = NowNs();
      Status status = op.op == OpCode::kInsert ? ctx.client->Insert(key, value)
                                               : ctx.client->Append(key, value);
      end = NowNs();
      ok = status.ok();
      if (ok) {
        if (op.op == OpCode::kInsert) {
          ++model.versions[op.index];
        } else {
          const std::uint64_t ledger = op.index - spec.keys;
          ++model.tokens[ledger];
          model.ledgers[ledger] += value;
        }
        ++out->acked_writes;
        if (measured) {
          ++out->window_writes;
          out->window_user_bytes += key.size() + value.size();
        }
      } else {
        model.uncertain[op.index] = 1;  // may or may not have applied
      }
      if (measured) slice_of(end).write_ns.push_back(elapsed(start, end));
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->Record(SpanKind::kClientOp, start, end, tls_op_id,
                         HashKey(key), static_cast<std::uint8_t>(op.op));
    }
    tls_op_id = 0;
    if (measured) {
      ++slice_of(end).ops;
      ++out->attempted;
      if (!ok) {
        ++out->failed;
        if (out->first_error.empty()) {
          out->first_error = std::string(OpCodeName(op.op)) + " of " + key +
                             " failed";
        }
      }
    }
  }
}

// Inserts every key at version 1 and every ledger with its first token,
// through batched calls of about 1 MiB. Returns the number of acked writes.
std::uint64_t Preload(Cluster& cluster, const Inputs& inputs,
                      std::uint64_t client_id, std::string* error) {
  const WorkloadSpec& spec = inputs.spec();
  auto transport = cluster.MakeClientTransport();
  ZhtClient loader(cluster.table(), cluster.ClientOptions(client_id),
                   transport.get());
  const std::size_t chunk =
      std::clamp<std::size_t>((1u << 20) / spec.value_bytes, 1, 256);
  const std::uint64_t total = spec.keys + spec.ledgers;
  std::uint64_t acked = 0;
  for (std::uint64_t first = 0; first < total; first += chunk) {
    std::vector<KeyValue> pairs;
    for (std::uint64_t i = first; i < std::min(total, first + chunk); ++i) {
      pairs.push_back({inputs.Key(i), i < spec.keys ? inputs.Value(i, 1)
                                                    : Inputs::Token(i, 0)});
    }
    for (const Status& status : loader.MultiInsert(pairs)) {
      if (!status.ok()) {
        *error = "preload insert failed: " + status.ToString();
        return acked;
      }
      ++acked;
    }
  }
  return acked;
}

// ---- per-layer snapshots ------------------------------------------------------

struct LayerSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, HistogramData> histograms;
  std::vector<Tracer::Totals> spans;
  std::uint64_t client_connects = 0;
  NoVoHTStats novoht;
  std::uint64_t write_bytes = 0;
};

LayerSnapshot TakeSnapshot(Cluster& cluster, const Tracer& tracer,
                           const StoreRegistry& stores,
                           const std::vector<const TracedTransport*>& clients) {
  LayerSnapshot snap;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const MetricsSnapshot metrics = cluster.server(i).MetricsSnapshotNow();
    for (const MetricValue& entry : metrics.entries) {
      if (entry.kind == MetricKind::kHistogram) {
        snap.histograms[entry.name].Merge(entry.histogram);
      } else {
        snap.counters[entry.name] += entry.value;
      }
    }
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
    snap.spans.push_back(tracer.TotalsOf(static_cast<SpanKind>(k)));
  }
  for (const TracedTransport* t : clients) {
    snap.client_connects += t->tcp().connects();
  }
  snap.novoht = stores.Sum();
  snap.write_bytes = ProcField("/proc/self/io", "write_bytes:");
  return snap;
}

// after - before, bucket by bucket (snapshots of one cumulative recorder).
HistogramData Delta(const HistogramData& after, const HistogramData& before) {
  HistogramData d;
  std::size_t j = 0;
  for (const auto& [index, n] : after.buckets) {
    while (j < before.buckets.size() && before.buckets[j].first < index) ++j;
    std::uint64_t prior = 0;
    if (j < before.buckets.size() && before.buckets[j].first == index) {
      prior = before.buckets[j].second;
    }
    if (n > prior) d.buckets.emplace_back(index, n - prior);
  }
  for (const auto& [index, n] : d.buckets) d.count += n;
  d.sum = after.sum > before.sum ? after.sum - before.sum : 0;
  if (!d.buckets.empty()) {
    d.min = HistogramData::BucketLower(d.buckets.front().first);
    d.max = HistogramData::BucketUpper(d.buckets.back().first) - 1;
  }
  return d;
}

struct SpanDelta {
  std::uint64_t count = 0;
  double sum_ns = 0;
  double MeanUs() const { return count == 0 ? 0.0 : sum_ns / count / 1e3; }
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void Print(std::FILE* f) const {
    for (const Entry& e : entries_) {
      std::fprintf(f, "  %-40s %14.3f %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void AddLayerMetrics(const LayerSnapshot& before, const LayerSnapshot& after,
                     std::uint64_t ops, std::uint64_t writes,
                     std::uint64_t user_bytes, double seconds,
                     Metrics* metrics) {
  auto span = [&](SpanKind kind) {
    const std::size_t k = static_cast<std::size_t>(kind);
    return SpanDelta{after.spans[k].count - before.spans[k].count,
                     static_cast<double>(after.spans[k].sum_ns -
                                         before.spans[k].sum_ns)};
  };
  auto counter = [&](const std::string& name) {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    const double va = a == after.counters.end() ? 0.0 : a->second;
    const double vb = b == before.counters.end() ? 0.0 : b->second;
    return va - vb;
  };
  auto hist = [&](const std::string& name) {
    auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return HistogramData{};
    auto b = before.histograms.find(name);
    return b == before.histograms.end() ? a->second : Delta(a->second, b->second);
  };
  auto per = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const double dops = static_cast<double>(ops);
  const double dwrites = static_cast<double>(writes);

  const SpanDelta op = span(SpanKind::kClientOp);
  const SpanDelta call = span(SpanKind::kClientCall);
  const SpanDelta lookup = span(SpanKind::kServerLookup);
  const SpanDelta write = span(SpanKind::kServerWrite);
  const SpanDelta put = span(SpanKind::kStorePut);
  const SpanDelta append = span(SpanKind::kStoreAppend);
  const SpanDelta leg = span(SpanKind::kPeerSync);
  const double service_us =
      per(lookup.sum_ns + write.sum_ns, lookup.count + write.count) / 1e3;
  const double mutation_us =
      per(put.sum_ns + append.sum_ns, put.count + append.count) / 1e3;

  metrics->Add("trace.ops_per_s", dops / seconds, "ops/s");
  metrics->Add("client.op_us", op.MeanUs(), "us");
  metrics->Add("client.self_us", per(op.sum_ns - call.sum_ns, op.count) / 1e3,
               "us");
  metrics->Add("client.calls_per_op", per(call.count, op.count), "ratio");
  metrics->Add("net.call_us", call.MeanUs(), "us");
  metrics->Add("net.wire_us", call.MeanUs() - service_us, "us");
  metrics->Add("net.connects",
               static_cast<double>(after.client_connects -
                                   before.client_connects),
               "count");
  const HistogramData lookup_h = hist("server.op.lookup.latency_ns");
  const HistogramData insert_h = hist("server.op.insert.latency_ns");
  metrics->Add("server.lookup_us", lookup_h.Mean() / 1e3, "us");
  metrics->Add("server.lookup_p99_us", lookup_h.Percentile(99) / 1e3, "us");
  metrics->Add("server.insert_us", insert_h.Mean() / 1e3, "us");
  metrics->Add("server.insert_p99_us", insert_h.Percentile(99) / 1e3, "us");
  metrics->Add("server.append_us",
               hist("server.op.append.latency_ns").Mean() / 1e3, "us");
  const double hits = counter("server.cache.hit");
  metrics->Add("server.cache_hit_ratio",
               per(hits, hits + counter("server.cache.miss")), "ratio");
  metrics->Add("server.cache_invalidations_per_write",
               per(counter("server.cache.invalidate"), dwrites), "ratio");
  metrics->Add("server.forwards_per_op", per(counter("reactor.forwards"), dops),
               "ratio");
  metrics->Add("server.mailbox_depth_p99",
               hist("server.mailbox.depth").Percentile(99), "count");
  metrics->Add("server.sync_legs_per_write",
               per(counter("server.replication.sync"), dwrites), "ratio");
  metrics->Add("server.async_legs_per_write",
               per(counter("server.replication.async"), dwrites), "ratio");
  metrics->Add("server.leg_us", leg.MeanUs(), "us");
  metrics->Add("server.write_hop_us",
               write.MeanUs() - mutation_us - leg.MeanUs(), "us");
  metrics->Add("novoht.put_us", put.MeanUs(), "us");
  metrics->Add("novoht.get_us", span(SpanKind::kStoreGet).MeanUs(), "us");
  metrics->Add("novoht.append_us", append.MeanUs(), "us");
  metrics->Add("novoht.durable_wait_us", span(SpanKind::kDurableWait).MeanUs(),
               "us");
  metrics->Add("novoht.fsync_us",
               hist("novoht.group_commit.fsync_micros").Mean(), "us");
  metrics->Add("novoht.commit_batch",
               hist("novoht.group_commit.batch_size").Mean(), "count");
  metrics->Add("novoht.gc_runs",
               static_cast<double>(after.novoht.gc_runs - before.novoht.gc_runs),
               "count");
  metrics->Add("novoht.gc_ms",
               (after.novoht.gc_nanos_total - before.novoht.gc_nanos_total) / 1e6,
               "ms");
  metrics->Add("novoht.write_bytes_per_user_byte",
               per(static_cast<double>(after.write_bytes - before.write_bytes),
                   static_cast<double>(user_bytes)),
               "ratio");
}

void AddProbeMetrics(const ProbeResults& p, Metrics* metrics) {
  metrics->Add("serialize.request_encode_ns", p.request_encode_ns, "ns");
  metrics->Add("serialize.request_decode_ns", p.request_decode_ns, "ns");
  metrics->Add("serialize.response_encode_ns", p.response_encode_ns, "ns");
  metrics->Add("serialize.response_decode_ns", p.response_decode_ns, "ns");
  metrics->Add("membership.route_ns", p.route_ns, "ns");
  metrics->Add("net.bare_rtt_us", p.bare_rtt_us, "us");
  metrics->Add("server.direct_lookup_us", p.direct_lookup_us, "us");
  metrics->Add("server.direct_insert_us", p.direct_insert_us, "us");
  metrics->Add("novoht.direct_put_us", p.novoht_put_us, "us");
  metrics->Add("novoht.direct_get_us", p.novoht_get_us, "us");
}

// Aborts a run that outlives its budget (a hang must not hold the caller).
class Watchdog {
 public:
  Watchdog() : thread_([this] { Watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Watch() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(kWatchdogSeconds),
                      [this] { return done_; })) {
      std::fprintf(stderr, "zhtbench: run exceeded %d s, aborting\n",
                   kWatchdogSeconds);
      std::_Exit(3);
    }
  }
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

int Run(const Args& args, std::int64_t process_start) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s (known: %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  Watchdog watchdog;
  namespace fs = std::filesystem;
  const std::string data_dir =
      args.out + "/data-" + std::to_string(static_cast<long>(::getpid()));
  std::error_code ec;
  fs::remove_all(data_dir, ec);
  fs::create_directories(data_dir + "/probe", ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", data_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{data_dir};

  const Inputs inputs(*spec, args.seed);
  Model model(*spec);
  const Expectations expect{inputs, model};
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(100000);
  StoreRegistry stores;
  std::atomic<bool> lag{false};
  const bool lagging = args.teeth == "lag-async" || args.teeth == "skip-flush";

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  std::uint64_t acked_total = 0, window_writes = 0, window_bytes = 0;
  // Per slice of the measured window: ops/s and client-side percentiles.
  std::vector<double> ops_per_s, read_p50, read_p99, write_p50, write_p99;
  std::size_t reads_timed = 0, writes_timed = 0;
  double setup_s = 0, window_s = 0, peak_rss_mb = 0;
  Metrics metrics;
  MembershipTable table;
  std::vector<std::vector<std::uint64_t>> by_partition;
  {
    Cluster cluster(*spec, data_dir, tracer.get(),
                    args.trace ? &stores : nullptr, lagging ? &lag : nullptr);
    if (!cluster.ok()) {
      std::fprintf(stderr, "cluster start failed\n");
      return 1;
    }
    table = cluster.table();
    by_partition = IndicesByPartition(expect, table);
    std::string error;
    const std::uint64_t client_base = args.seed * 1000 + 1;
    acked_total = Preload(cluster, inputs, client_base, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }

    const int n = spec->clients;
    std::vector<std::unique_ptr<ClientTransport>> transports;
    std::vector<std::unique_ptr<ZhtClient>> clients;
    std::vector<const TracedTransport*> traced;
    for (int c = 0; c < n; ++c) {
      transports.push_back(cluster.MakeClientTransport());
      if (tracer) {
        traced.push_back(static_cast<TracedTransport*>(transports.back().get()));
      }
      clients.push_back(std::make_unique<ZhtClient>(
          cluster.table(), cluster.ClientOptions(client_base + 1 + c),
          transports.back().get()));
    }
    // Home client c's connections on reactor c: the server places a
    // connection on the reactor that owns its first request's key, so the
    // first lookup goes to a key of shard c (shard = partition % reactors).
    // Otherwise which reactors the clients share would depend on the seed.
    for (int c = 0; c < n; ++c) {
      std::uint64_t index = static_cast<std::uint64_t>(c);
      while (index < spec->keys &&
             table.PartitionOfKey(inputs.Key(index)) % spec->reactors !=
                 static_cast<std::uint32_t>(c % spec->reactors)) {
        index += static_cast<std::uint64_t>(n);
      }
      if (index >= spec->keys) index = static_cast<std::uint64_t>(c);
      auto got = clients[c]->Lookup(inputs.Key(index));
      if (!got.ok() || *got != expect.ValueOf(index)) {
        errors.push_back("first lookup of client " + std::to_string(c) +
                         " did not return the preloaded value");
      }
    }
    Phase phase;
    std::vector<ClientResult> results(n);
    for (ClientResult& r : results) r.slices.resize(args.seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
      ClientContext ctx;
      ctx.id = c;
      ctx.inputs = &inputs;
      ctx.model = &model;
      ctx.client = clients[c].get();
      ctx.tracer = tracer.get();
      ctx.phase = &phase;
      ctx.seed = args.seed;
      ctx.corrupt_one_expectation = c == 0 && args.teeth == "wrong-expected";
      threads.emplace_back(RunClient, ctx, &results[c]);
    }
    while (phase.warmed.load(std::memory_order_acquire) < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    setup_s = (NowNs() - process_start) / 1e9;

    LayerSnapshot before;
    if (tracer) before = TakeSnapshot(cluster, *tracer, stores, traced);
    const std::int64_t t0 = NowNs();
    phase.start_ns.store(t0, std::memory_order_relaxed);
    phase.value.store(1, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::seconds(args.seconds));
    phase.value.store(2, std::memory_order_release);
    const std::int64_t t1 = NowNs();
    for (std::thread& t : threads) t.join();
    window_s = (t1 - t0) / 1e9;
    peak_rss_mb = ProcField("/proc/self/status", "VmHWM:") / 1024.0;

    for (ClientResult& r : results) {
      attempted += r.attempted;
      failed += r.failed;
      wrong += r.wrong;
      acked_total += r.acked_writes;
      window_writes += r.window_writes;
      window_bytes += r.window_user_bytes;
      if (!r.first_error.empty()) errors.push_back(r.first_error);
    }
    for (int s = 0; s < args.seconds; ++s) {
      std::uint64_t ops = 0;
      std::vector<std::uint32_t> reads, writes;
      for (ClientResult& r : results) {
        Slice& slice = r.slices[s];
        ops += slice.ops;
        reads.insert(reads.end(), slice.read_ns.begin(), slice.read_ns.end());
        writes.insert(writes.end(), slice.write_ns.begin(), slice.write_ns.end());
        slice = Slice{};
      }
      reads_timed += reads.size();
      writes_timed += writes.size();
      ops_per_s.push_back(static_cast<double>(ops) * 1e9 / kSliceNs);
      read_p50.push_back(Percentile(reads, 50) / 1e3);
      read_p99.push_back(Percentile(reads, 99) / 1e3);
      write_p50.push_back(Percentile(writes, 50) / 1e3);
      write_p99.push_back(Percentile(writes, 99) / 1e3);
    }
    if (tracer) {
      const LayerSnapshot after = TakeSnapshot(cluster, *tracer, stores, traced);
      AddLayerMetrics(before, after, attempted, window_writes, window_bytes,
                      window_s, &metrics);
    }

    if (lagging) {
      // One more write whose third copy is certain to trail its ack.
      lag.store(true);
      const std::uint64_t index = 0;  // owned by client 0
      const std::string value = inputs.Value(index, model.versions[index] + 1);
      if (clients[0]->Insert(inputs.Key(index), value).ok()) {
        ++model.versions[index];
        ++acked_total;
      } else {
        errors.push_back("final lagged insert failed");
      }
    }

    // Final state: every chain member of every partition holds exactly the
    // model's pairs, once asynchronous replication has drained.
    if (args.teeth != "skip-flush") {
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        cluster.server(i).FlushAsyncReplication();
      }
    }
    if (!spec->durable) {
      for (PartitionId p = 0; p < table.num_partitions(); ++p) {
        for (InstanceId m : table.ReplicaChain(p, spec->replicas)) {
          std::string why;
          if (!MatchesModel(cluster.server(m).PartitionPairs(p),
                            by_partition[p], expect, &why)) {
            errors.push_back("instance " + std::to_string(m) + " partition " +
                             std::to_string(p) + ": " + why);
            p = table.num_partitions() - 1;  // report the first only
            break;
          }
        }
      }
    }
    // Every acked write took one synchronous leg per sync replica and one
    // queued leg per further replica.
    std::uint64_t sync_legs = 0, async_legs = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      sync_legs += cluster.server(i).stats().replications_sync;
      async_legs += cluster.server(i).stats().replications_async;
    }
    const std::uint64_t sync_per = spec->replicas > 0 ? 1 : 0;
    const std::uint64_t async_per =
        spec->replicas > 1 ? static_cast<std::uint64_t>(spec->replicas - 1) : 0;
    if (sync_legs != acked_total * sync_per ||
        async_legs != acked_total * async_per) {
      errors.push_back("replication legs sync=" + std::to_string(sync_legs) +
                       " async=" + std::to_string(async_legs) + " for " +
                       std::to_string(acked_total) + " acked writes");
    }
    if (tracer && stores.mutations() !=
                      acked_total * static_cast<std::uint64_t>(spec->replicas + 1)) {
      errors.push_back("stores applied " + std::to_string(stores.mutations()) +
                       " mutations for " + std::to_string(acked_total) +
                       " acked writes");
    }
    cluster.Shutdown();
  }

  if (spec->durable) {
    // Every acked write survives: each partition log, reopened, holds
    // exactly the model's pairs.
    for (PartitionId p = 0; p < table.num_partitions(); ++p) {
      for (InstanceId m : table.ReplicaChain(p, spec->replicas)) {
        NoVoHTOptions options;
        options.path = PartitionLogPath(data_dir, m, p);
        auto store = NoVoHT::Open(options);
        std::vector<std::pair<std::string, std::string>> pairs;
        if (store.ok()) {
          (*store)->ForEach([&pairs](std::string_view k, std::string_view v) {
            pairs.emplace_back(std::string(k), std::string(v));
          });
        }
        std::string why;
        if (!store.ok()) {
          why = "cannot reopen: " + store.status().ToString();
        } else if (MatchesModel(std::move(pairs), by_partition[p], expect,
                                &why)) {
          continue;
        }
        errors.push_back("log " + options.path + ": " + why);
        p = table.num_partitions() - 1;
        break;
      }
    }
  }

  if (args.trace) {
    const ProbeResults probes =
        RunProbes(inputs, table, data_dir + "/probe", args.seed);
    if (!probes.ok) errors.push_back("a per-layer probe failed");
    AddProbeMetrics(probes, &metrics);
    std::error_code ignored;
    fs::create_directories(args.out, ignored);
    // One trace per workload: the latest traced run replaces the last.
    const std::string base = args.out + "/trace-" + spec->name;
    if (!tracer->WriteSpans(base + ".spans.jsonl")) {
      std::fprintf(stderr, "cannot write %s.spans.jsonl\n", base.c_str());
    }
    std::FILE* f = std::fopen((base + ".layers.json").c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", metrics.Json().c_str());
      std::fclose(f);
    }
  } else {
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("ops_per_s", Median(ops_per_s), "ops/s");
    metrics.Add("read_p50_us", Median(read_p50), "us");
    metrics.Add("read_p99_us", Median(read_p99), "us");
    metrics.Add("write_p50_us", Median(write_p50), "us");
    metrics.Add("write_p99_us", Median(write_p99), "us");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  }

  const bool correct = wrong == 0 && errors.empty();
  std::fprintf(stderr,
               "zhtbench %s seed=%llu trace=%d: %llu ops in %.2f s, %llu failed,"
               " %llu wrong reads, %zu reads / %zu writes timed\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, static_cast<unsigned long long>(attempted),
               window_s, static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(wrong), reads_timed,
               writes_timed);
  if (!ops_per_s.empty()) {
    std::fprintf(stderr, "  ops/s by slice:");
    for (double v : ops_per_s) std::fprintf(stderr, " %.0f", v);
    std::fprintf(stderr, "\n");
  }
  for (const std::string& e : errors) std::fprintf(stderr, "  check: %s\n", e.c_str());
  metrics.Print(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace zht::zbench

int main(int argc, char** argv) {
  const std::int64_t process_start = zht::zbench::NowNs();
  zht::zbench::Args args;
  if (!zht::zbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: zhtbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--teeth wrong-expected|lag-async|"
                 "skip-flush]\n  workloads: %s\n",
                 zht::zbench::WorkloadNames().c_str());
    return 2;
  }
  return zht::zbench::Run(args, process_start);
}
