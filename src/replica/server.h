// A replicated-variable server.
//
// Each server stores, per variable, the highest-timestamped record it has
// accepted, exactly as in the paper's access protocol (Section 3.1): writes
// install (value, timestamp) pairs, reads return the stored pair. The server
// is network-agnostic — process() returns the messages to transmit — so the
// same implementation runs under the discrete-event SimCluster, the direct
// InstantCluster, and the gossip engine.
//
// Fault behaviour is injected via FaultMode (see fault.h).
//
// Record store. One flat open-addressing table (util::FlatTable) holds one
// 40-byte slot per variable, keyed by the record's own variable. Besides
// the latest record, the server keeps the first record it ever accepted
// per variable, which is what kStaleReplay serves and what kForge and
// kCollude servers lie about. The two coincide until the first superseding
// write, so a slot's mark says where the first record is:
//   kFirstIsLatest  the slot holds the latest record, which is also the
//                   first;
//   kFirstAside     the slot holds the latest record; the first was copied
//                   into the small side table when it was superseded;
//   kFirstOnly      the slot holds a record accepted only while faulty:
//                   the first record, with no latest (find() is nullptr).
// Modes only choose which of the two a read or gossip round uses, so
// set_mode flips keep every record. snapshot() and gossip_records() list
// records in slot order, which is deterministic for a given insert
// sequence. find() points into the store and stays valid until the next
// write or adoption.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "math/rng.h"
#include "quorum/membership.h"
#include "replica/fault.h"
#include "replica/message.h"
#include "stats/counters.h"
#include "util/flat_table.h"

namespace pqs::replica {

struct Outbound {
  std::uint32_t to = 0;
  Message message;
};

class Server {
 public:
  Server(std::uint32_t id, FaultMode mode, math::Rng rng,
         std::shared_ptr<const ColludePlan> collude_plan = nullptr);

  std::uint32_t id() const { return id_; }
  FaultMode mode() const { return mode_; }
  void set_mode(FaultMode mode) { mode_ = mode; }

  // Handles one message from `from` (a client or a peer server) and returns
  // the replies to send. Crashed servers return nothing and change nothing.
  std::vector<Outbound> process(std::uint32_t from, const Message& message);

  // As process(), but appends the replies to `out` (which is cleared
  // first) so its capacity is reused across deliveries — the per-delivery
  // entry point of the pooled SimCluster network path. process() routes
  // through this, so the two cannot diverge.
  void process_into(std::uint32_t from, const Message& message,
                    std::vector<Outbound>& out);

  // Direct-call entry points for the zero-allocation protocol path
  // (InstantCluster): the same state transitions and fault behaviours as
  // process(), minus the Outbound vector. apply_write returns whether the
  // server acknowledges; serve_read fills `reply` and returns whether the
  // server answers at all. process() routes through these, so the wire and
  // direct paths cannot diverge.
  bool apply_write(const WriteRequest& w);
  bool serve_read(const ReadRequest& r, ReadReply& reply);

  // Current record for a variable (nullptr if none). Test/analysis access;
  // reflects the server's true state regardless of its advertised lies.
  const crypto::SignedRecord* find(VariableId variable) const;

  // Gossip-path adoption: installs the record if it is newer than what is
  // stored. Correct servers only; the gossip engine skips faulty ones.
  // Returns true if the record was adopted.
  bool adopt(const crypto::SignedRecord& record);

  // All records currently stored (for anti-entropy exchange).
  std::vector<crypto::SignedRecord> snapshot() const;

  // What this server pushes during a gossip round — honest state for
  // correct servers, stale or fabricated records for Byzantine ones,
  // nothing for crashed/suppressing servers.
  std::vector<crypto::SignedRecord> gossip_records();

  // When set, gossip adoption verifies the writer MAC first (the
  // Byzantine-safe diffusion of [MMR99]); client writes are unaffected.
  void set_gossip_verifier(std::optional<crypto::Verifier> verifier) {
    gossip_verifier_ = std::move(verifier);
  }

  // Dynamic membership: the server's current view of the fleet. The
  // default view is empty (capacity 0, "not yet told") — gossip skips
  // pushing it, so static deployments keep their exact rng streams.
  // install_membership is the authoritative reconfiguration path (the
  // cluster applying a change); merge_membership is the gossip path
  // (lattice join, returns whether the view changed).
  const quorum::MembershipView& membership() const { return membership_; }
  void install_membership(const quorum::MembershipView& view) {
    membership_ = view;
  }
  bool merge_membership(const quorum::MembershipView& view) {
    return membership_.merge(view);
  }

  std::uint64_t writes_accepted() const { return writes_accepted_; }
  std::uint64_t reads_served() const { return reads_served_; }
  // Writes this server acknowledged but did not adopt because it already
  // held a higher-timestamped record — the server-side trace of
  // multi-writer timestamp conflicts (depends on which quorums the
  // contending writes actually landed on).
  std::uint64_t writes_superseded() const { return writes_superseded_; }
  // The counters above as one stats-layer value, so cluster snapshots
  // (InstantCluster/SimCluster::contention_snapshot) aggregate without
  // reaching into individual accessors.
  stats::ServerCounters counters() const {
    return {writes_accepted_, reads_served_, writes_superseded_};
  }

 private:
  void handle_write(std::uint32_t from, const WriteRequest& w,
                    std::vector<Outbound>& out);
  void handle_read(std::uint32_t from, const ReadRequest& r,
                   std::vector<Outbound>& out);

  enum Mark : std::uint8_t { kFirstIsLatest = 0, kFirstAside, kFirstOnly };
  struct VariableOf {
    VariableId operator()(const crypto::SignedRecord& r) const {
      return r.variable;
    }
  };
  using RecordTable = util::FlatTable<crypto::SignedRecord, VariableOf>;

  // The first record accepted for the slot's variable.
  const crypto::SignedRecord& first_of(const crypto::SignedRecord& slot) const;

  std::uint32_t id_;
  FaultMode mode_;
  math::Rng rng_;
  std::shared_ptr<const ColludePlan> collude_plan_;
  std::optional<crypto::Verifier> gossip_verifier_;
  quorum::MembershipView membership_;
  RecordTable store_;
  // First records of kFirstAside slots.
  RecordTable first_aside_;
  std::uint64_t writes_accepted_ = 0;
  std::uint64_t reads_served_ = 0;
  std::uint64_t writes_superseded_ = 0;
};

// One counters() entry per server, as a cluster-level snapshot — the
// shared body of InstantCluster/SimCluster::contention_snapshot (stats
// cannot depend on replica, so the aggregation lives here).
stats::ContentionSnapshot snapshot_counters(
    const std::vector<std::unique_ptr<Server>>& servers);

}  // namespace pqs::replica
