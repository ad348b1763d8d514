// The four workloads. Each run measures whole rounds until --seconds
// have passed; every round regenerates its inputs from (seed, round),
// builds a fresh deployment, measures, and checks every reply against the
// oracles in oracle.h. With --trace 1 the run instead reports per-module
// metrics (probes.h) and the tracing overhead.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "quorum/quorum_system.h"
#include "replica/fault.h"
#include "replica/read_rules.h"
#include "serve/kv_service.h"
#include "workload/open_loop.h"

namespace pqsbench {

// The make-up of one KV workload (see README.md for the figures).
struct KvSpec {
  std::string name;
  // Through net::KvServer + net::Client, with the whole process on one CPU
  // (see README.md, "Machine").
  bool tcp = false;
  std::shared_ptr<const pqs::quorum::QuorumSystem> quorums;
  std::int64_t n = 0;
  std::int64_t q = 0;
  std::int64_t b = 0;  // servers in kForge mode (the first b slots)
  std::int64_t k = 1;  // masking threshold
  pqs::replica::ReadMode read_mode = pqs::replica::ReadMode::kPlain;
  std::uint32_t shards = 4;
  std::uint32_t workers = 1;
  pqs::workload::OpenLoopSpec mix;
  std::uint64_t prefill_keys = 0;    // keys 1..prefill_keys written first
  std::uint64_t batch = 1;           // requests per closed-loop sample
  std::uint64_t latency_batches = 0; // closed-loop samples per round
  std::uint64_t throughput_ops = 0;  // pipelined requests per round

  std::optional<pqs::replica::FaultPlan> faults() const;
};

bool is_kv_workload(const std::string& name);
// The spec of a KV workload; the plain R(100,20) deployment for any other
// name (the probes of epsilon-mc use it).
KvSpec kv_spec(const std::string& name);

// One round's inputs: prefill writes (positions 0..prefill-1, value
// -key, so never equal to a generated value) then `generated` operations
// from spec.mix, all in submission order.
struct RoundInputs {
  std::vector<pqs::workload::Operation> ops;
  std::uint64_t prefill = 0;
};
RoundInputs generate(const KvSpec& spec, std::uint64_t seed,
                     std::uint64_t generated);
pqs::serve::KvService::Config service_config(const KvSpec& spec,
                                             std::uint64_t seed);
// The request for operation number `position` (echoed as request_id).
pqs::serve::Request request_of(const pqs::workload::Operation& op,
                               std::uint64_t position, std::uint64_t now,
                               bool wants_reply);
// Submits the prefill writes, without replies.
void prefill(pqs::serve::KvService& service, const RoundInputs& in);

RunResult run_kv(const KvSpec& spec, const Args& args);
RunResult run_epsilon_mc(const Args& args);
// Prints the reference figures README.md records (not gated metrics).
int run_reference(const Args& args);

// Cross-checks the oracle's closed forms against the library's core::
// closed forms for the spec's parameters.
void check_closed_forms(const KvSpec& spec, RunResult& result);

}  // namespace pqsbench
