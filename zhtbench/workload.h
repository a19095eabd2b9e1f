// Workload definitions, the generator's deterministic inputs, and the
// independent model every result is checked against.
//
// Keys are 15 ASCII digits, a bijective scramble of a key index. Each
// insert writes a fresh version of its key; the value is a pure function of
// (key index, version), so a lookup can be checked byte for byte against
// the version the model holds. Appends go to separate ledger keys; a ledger
// is the in-order concatenation of its acked 16-byte tokens. Each key and
// ledger is owned by exactly one client thread (index mod clients), so
// the model is exact with no cross-thread ordering to reason about.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "serialize/envelope.h"

namespace zht::zbench {

struct WorkloadSpec {
  std::string name;
  std::size_t value_bytes = 134;
  double lookup = 1.0;  // op mix: fractions of lookup / insert / append
  double insert = 0.0;
  double append = 0.0;
  double zipf = 0.0;           // key skew; 0 = uniform
  std::uint64_t keys = 0;      // insert/lookup key space
  std::uint64_t ledgers = 0;   // append-only keys
  int replicas = 0;
  bool durable = false;        // NoVoHT logs with group commit
  int instances = 1;
  int reactors = 1;            // per instance (= shards per instance)
  int clients = 1;             // closed-loop client threads
  std::size_t cache_entries = 0;  // hot-key cache, per shard
  int warmup_ops = 0;          // per client, before the measured window
};

// The three workloads, by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(std::string_view name);
std::string WorkloadNames();

// Deterministic inputs derived from the seed.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  // Key of insert/lookup index i (i < keys) or of ledger j (index keys + j).
  std::string Key(std::uint64_t index) const;
  // Value of `index` at `version`: a 20-byte header naming both, then a
  // slice of the seeded byte pool chosen by (index, version).
  std::string Value(std::uint64_t index, std::uint32_t version) const;
  // The n-th token appended to ledger `index` (16 bytes).
  static std::string Token(std::uint64_t index, std::uint32_t n);

 private:
  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::string pool_;
};

// Zipf(s) sampler over [0, n) by inverse CDF on a precomputed table;
// s = 0 gives the uniform distribution.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);
  std::uint64_t Sample(Rng& rng) const;

 private:
  std::uint64_t n_;
  std::vector<double> cdf_;  // empty when uniform
};

// One client's closed-loop operation sequence. Client c of C owns key
// indices c, c+C, ... and ledgers likewise; inserts and lookups pick keys by
// the workload's skew (zipf rank r maps to index r*C + c), and lookups on a
// workload with ledgers read a ledger with probability ledgers/(keys +
// ledgers), i.e. uniformly over everything the client owns.
class OpStream {
 public:
  struct Op {
    OpCode op = OpCode::kLookup;
    std::uint64_t index = 0;  // key index, or keys + ledger index
  };
  OpStream(const WorkloadSpec& spec, int client, std::uint64_t seed);
  Op Next();

 private:
  std::uint64_t PickKey();
  std::uint64_t PickLedger();

  const WorkloadSpec& spec_;
  std::uint64_t client_;
  std::uint64_t stride_;
  std::uint64_t owned_keys_;
  std::uint64_t owned_ledgers_;
  ZipfSampler sampler_;
  Rng rng_;
};

// What the cluster must hold. Slots are written only by the client thread
// that owns them and read by the main thread after the clients joined.
struct Model {
  explicit Model(const WorkloadSpec& spec);
  std::vector<std::uint32_t> versions;  // per key: acked version
  std::vector<std::uint32_t> tokens;    // per ledger: acked token count
  std::vector<std::string> ledgers;     // per ledger: acked tokens, in order
  std::vector<char> uncertain;  // per key or ledger: a write failed, so its
                                // outcome is unknown and it is not checked
};

}  // namespace zht::zbench
