// Direct per-layer timings for the traced run: each layer's public
// interface driven on its own, with the workload's keys, values and mix,
// outside the cluster (which is shut down by then, so nothing contends).
#pragma once

#include <string>

#include "membership/membership_table.h"
#include "workload.h"

namespace zht::zbench {

struct ProbeResults {
  double request_encode_ns = 0;
  double request_decode_ns = 0;
  double response_encode_ns = 0;
  double response_decode_ns = 0;
  double route_ns = 0;           // PartitionOfKey + ReplicaChain
  double direct_lookup_us = 0;   // ZhtServer::Handle, no network
  double direct_insert_us = 0;
  double novoht_put_us = 0;      // bare NoVoHT
  double novoht_get_us = 0;
  double bare_rtt_us = 0;        // TcpClient → canned-response EpollServer
  bool ok = true;
};

// `table` is the cluster's membership; `dir` is a working directory for
// persistent stores.
ProbeResults RunProbes(const Inputs& inputs, const MembershipTable& table,
                       const std::string& dir, std::uint64_t seed);

}  // namespace zht::zbench
