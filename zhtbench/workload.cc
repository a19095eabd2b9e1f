#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace zht::zbench {

namespace {

// Sizing notes are in README.md. Every workload keeps the hot-key cache on.
const WorkloadSpec kWorkloads[] = {
    {.name = "small-read-zipf",
     .value_bytes = 134,
     .lookup = 0.95,
     .insert = 0.05,
     .zipf = 0.99,
     .keys = 100000,
     .instances = 1,
     .reactors = 2,
     .clients = 2,
     .cache_entries = 4096,
     .warmup_ops = 20000},
    {.name = "replicated-write",
     .value_bytes = 134,
     .lookup = 0.2,
     .insert = 0.6,
     .append = 0.2,
     .keys = 20000,
     .ledgers = 4096,
     .replicas = 2,
     .instances = 3,
     .reactors = 1,
     .clients = 1,
     .cache_entries = 4096,
     .warmup_ops = 10000},
    {.name = "durable-large",
     .value_bytes = 64 * 1024,
     .lookup = 0.5,
     .insert = 0.5,
     .zipf = 0.5,
     .keys = 1024,
     .durable = true,
     .instances = 1,
     .reactors = 2,
     .clients = 2,
     .cache_entries = 4096,
     .warmup_ops = 1500},
};

constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kPoolBytes = 1 << 20;

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

Inputs::Inputs(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  Rng rng(Mix(seed) ^ 0x706f6f6cULL);
  pool_.resize(kPoolBytes + spec.value_bytes);
  for (char& c : pool_) c = kAlphabet[rng.Below(sizeof(kAlphabet) - 1)];
}

std::string Inputs::Key(std::uint64_t index) const {
  // Odd multiplier modulo 2^48 is a bijection, so keys never collide;
  // 2^48 < 10^15 keeps every key at exactly 15 digits.
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 48) - 1;
  const std::uint64_t scrambled =
      ((index + (seed_ & 0xffffff) * 1000003ULL) * 0x9E3779B97F4BULL) & kMask;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%015llu",
                static_cast<unsigned long long>(scrambled));
  return std::string(buf, 15);
}

std::string Inputs::Value(std::uint64_t index, std::uint32_t version) const {
  std::string value(spec_.value_bytes, '\0');
  char header[kHeaderBytes + 1];
  std::snprintf(header, sizeof(header), "%010llu.%08u.",
                static_cast<unsigned long long>(index % 10000000000ULL),
                version % 100000000U);
  const std::size_t head = std::min(kHeaderBytes, value.size());
  value.replace(0, head, header, head);
  const std::size_t offset =
      Mix(seed_ ^ Mix(index * 0x100000001ULL + version)) % kPoolBytes;
  value.replace(head, value.size() - head, pool_, offset, value.size() - head);
  return value;
}

std::string Inputs::Token(std::uint64_t index, std::uint32_t n) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%08llx%07u;",
                static_cast<unsigned long long>(index & 0xffffffffULL),
                n % 10000000U);
  return std::string(buf, 16);
}

Model::Model(const WorkloadSpec& spec)
    : versions(spec.keys, 1),
      tokens(spec.ledgers, 1),
      ledgers(spec.ledgers),
      uncertain(spec.keys + spec.ledgers, 0) {
  // The preload writes version 1 of every key and token 0 of every ledger.
  for (std::uint64_t j = 0; j < spec.ledgers; ++j) {
    ledgers[j] = Inputs::Token(spec.keys + j, 0);
  }
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n) {
  if (s <= 0.0) return;
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (cdf_.empty()) return rng.Below(n_);
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf_.begin()),
                                 n_ - 1);
}

OpStream::OpStream(const WorkloadSpec& spec, int client, std::uint64_t seed)
    : spec_(spec),
      client_(static_cast<std::uint64_t>(client)),
      stride_(static_cast<std::uint64_t>(spec.clients)),
      owned_keys_((spec.keys + stride_ - 1 - client_) / stride_),
      owned_ledgers_(spec.ledgers > client_
                         ? (spec.ledgers + stride_ - 1 - client_) / stride_
                         : 0),
      sampler_(owned_keys_, spec.zipf),
      rng_(Mix(seed * 0x2545F4914F6CDD1DULL + client_ + 1)) {}

std::uint64_t OpStream::PickKey() {
  return sampler_.Sample(rng_) * stride_ + client_;
}

std::uint64_t OpStream::PickLedger() {
  return spec_.keys + rng_.Below(owned_ledgers_) * stride_ + client_;
}

OpStream::Op OpStream::Next() {
  const double u = rng_.NextDouble();
  if (u < spec_.lookup) {
    const bool ledger =
        owned_ledgers_ > 0 &&
        rng_.Below(owned_keys_ + owned_ledgers_) >= owned_keys_;
    return {OpCode::kLookup, ledger ? PickLedger() : PickKey()};
  }
  if (u < spec_.lookup + spec_.insert || owned_ledgers_ == 0) {
    return {OpCode::kInsert, PickKey()};
  }
  return {OpCode::kAppend, PickLedger()};
}

}  // namespace zht::zbench
