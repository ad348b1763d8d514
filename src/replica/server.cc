#include "replica/server.h"

#include <utility>

#include "util/require.h"

namespace pqs::replica {

Server::Server(std::uint32_t id, FaultMode mode, math::Rng rng,
               std::shared_ptr<const ColludePlan> collude_plan)
    : id_(id), mode_(mode), rng_(rng), collude_plan_(std::move(collude_plan)) {
  if (mode == FaultMode::kCollude) {
    PQS_REQUIRE(collude_plan_ != nullptr, "colluders need a shared plan");
  }
}

std::vector<Outbound> Server::process(std::uint32_t from,
                                      const Message& message) {
  std::vector<Outbound> out;
  process_into(from, message, out);
  return out;
}

void Server::process_into(std::uint32_t from, const Message& message,
                          std::vector<Outbound>& out) {
  out.clear();
  if (mode_ == FaultMode::kCrash) return;
  if (const auto* w = std::get_if<WriteRequest>(&message)) {
    handle_write(from, *w, out);
    return;
  }
  if (const auto* r = std::get_if<ReadRequest>(&message)) {
    handle_read(from, *r, out);
    return;
  }
  if (const auto* g = std::get_if<GossipPush>(&message)) {
    // Correct servers adopt fresher gossip; faulty ones ignore it. With a
    // gossip verifier installed, adoption is Byzantine-safe: records whose
    // writer MAC does not verify are discarded ([MMR99]).
    if (mode_ == FaultMode::kCorrect) {
      if (!gossip_verifier_ || gossip_verifier_->verify(g->record)) {
        adopt(g->record);
      }
    }
    return;
  }
  // WriteAck / ReadReply are client-bound; a server receiving one ignores it.
}

void Server::handle_write(std::uint32_t from, const WriteRequest& w,
                          std::vector<Outbound>& out) {
  if (apply_write(w)) out.push_back({from, WriteAck{w.op, id_}});
}

void Server::handle_read(std::uint32_t from, const ReadRequest& r,
                         std::vector<Outbound>& out) {
  ReadReply reply;
  if (serve_read(r, reply)) out.push_back({from, reply});
}

bool Server::apply_write(const WriteRequest& w) {
  switch (mode_) {
    case FaultMode::kCorrect:
      if (!adopt(w.record)) ++writes_superseded_;
      ++writes_accepted_;
      return true;
    case FaultMode::kSuppress:
      return false;  // omission: never acknowledges
    case FaultMode::kStaleReplay:
    case FaultMode::kForge:
    case FaultMode::kCollude:
      // Pretends to accept (acks) but does not durably adopt; it keeps the
      // record only as the variable's first, so stale replay has something
      // genuine.
      store_.try_emplace(w.record, kFirstOnly);
      return true;
    case FaultMode::kCrash:
      break;
  }
  return false;
}

bool Server::serve_read(const ReadRequest& r, ReadReply& reply) {
  reply = ReadReply{};
  reply.op = r.op;
  reply.server = id_;
  switch (mode_) {
    case FaultMode::kCorrect: {
      ++reads_served_;
      if (const auto* rec = find(r.variable)) {
        reply.has_value = true;
        reply.record = *rec;
      }
      return true;
    }
    case FaultMode::kSuppress:
      return false;
    case FaultMode::kStaleReplay: {
      if (const auto* slot = store_.find(r.variable)) {
        reply.has_value = true;
        reply.record = first_of(*slot);  // genuine tag, stale timestamp
      }
      return true;
    }
    case FaultMode::kForge: {
      reply.has_value = true;
      reply.record.variable = r.variable;
      reply.record.value = static_cast<std::int64_t>(rng_.next() >> 1);
      reply.record.timestamp = (~0ULL >> 8) - rng_.below(1024);
      reply.record.writer = 0;
      reply.record.tag = rng_.next();  // cannot compute a valid tag
      return true;
    }
    case FaultMode::kCollude: {
      reply.has_value = true;
      reply.record = collude_plan_->forged(r.variable);
      return true;
    }
    case FaultMode::kCrash:
      break;
  }
  return false;
}

const crypto::SignedRecord* Server::find(VariableId variable) const {
  const auto* slot = store_.find(variable);
  return slot == nullptr || store_.mark(*slot) == kFirstOnly ? nullptr : slot;
}

const crypto::SignedRecord& Server::first_of(
    const crypto::SignedRecord& slot) const {
  if (store_.mark(slot) != kFirstAside) return slot;
  const auto* first = first_aside_.find(slot.variable);
  PQS_CHECK(first != nullptr);
  return *first;
}

bool Server::adopt(const crypto::SignedRecord& record) {
  const auto [slot, inserted] = store_.try_emplace(record, kFirstIsLatest);
  if (inserted) return true;
  const Mark mark = static_cast<Mark>(store_.mark(*slot));
  // A record held only while faulty never counted as the latest, so the
  // first honest record replaces it whatever its timestamp.
  if (mark != kFirstOnly && record.timestamp <= slot->timestamp) return false;
  if (mark != kFirstAside) {
    first_aside_.try_emplace(*slot);
    store_.set_mark(*slot, kFirstAside);
  }
  *slot = record;
  return true;
}

std::vector<crypto::SignedRecord> Server::snapshot() const {
  std::vector<crypto::SignedRecord> out;
  out.reserve(store_.size());
  store_.for_each([&out](const crypto::SignedRecord& slot, std::uint8_t mark) {
    if (mark != kFirstOnly) out.push_back(slot);
  });
  return out;
}

stats::ContentionSnapshot snapshot_counters(
    const std::vector<std::unique_ptr<Server>>& servers) {
  stats::ContentionSnapshot snap(static_cast<std::uint32_t>(servers.size()));
  for (std::uint32_t u = 0; u < servers.size(); ++u) {
    snap.server(u) = servers[u]->counters();
  }
  return snap;
}

std::vector<crypto::SignedRecord> Server::gossip_records() {
  switch (mode_) {
    case FaultMode::kCorrect:
      return snapshot();
    case FaultMode::kStaleReplay: {
      std::vector<crypto::SignedRecord> out;
      out.reserve(store_.size());
      store_.for_each([&](const crypto::SignedRecord& slot, std::uint8_t) {
        out.push_back(first_of(slot));
      });
      return out;
    }
    case FaultMode::kForge: {
      std::vector<crypto::SignedRecord> out;
      store_.for_each([&](const crypto::SignedRecord& slot, std::uint8_t) {
        crypto::SignedRecord fake;
        fake.variable = slot.variable;
        fake.value = static_cast<std::int64_t>(rng_.next() >> 1);
        fake.timestamp = (~0ULL >> 8) - rng_.below(1024);
        fake.writer = 0;
        fake.tag = rng_.next();
        out.push_back(fake);
      });
      return out;
    }
    case FaultMode::kCollude: {
      std::vector<crypto::SignedRecord> out;
      store_.for_each([&](const crypto::SignedRecord& slot, std::uint8_t) {
        out.push_back(collude_plan_->forged(slot.variable));
      });
      return out;
    }
    case FaultMode::kSuppress:
    case FaultMode::kCrash:
      break;
  }
  return {};
}

}  // namespace pqs::replica
