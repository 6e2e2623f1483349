#include "src/kernel/location.h"

#include <algorithm>
#include <set>

#include "src/kernel/eden_system.h"
#include "src/kernel/node_kernel.h"

namespace eden {

std::string_view LocationBackendName(LocationBackend backend) {
  switch (backend) {
    case LocationBackend::kBroadcast:
      return "broadcast";
    case LocationBackend::kDirectory:
      return "directory";
  }
  return "unknown";
}

std::unique_ptr<LocationService> LocationService::Create(
    NodeKernel& kernel, LocationBackend backend) {
  if (backend == LocationBackend::kDirectory) {
    return std::make_unique<DirectoryLocation>(kernel);
  }
  return std::make_unique<BroadcastLocation>(kernel);
}

// ---------------------------------------------------------------------------
// BroadcastLocation (the paper's protocol, section 4.3)
// ---------------------------------------------------------------------------

void BroadcastLocation::QueryRound(uint64_t query_id, const ObjectName& name,
                                   int attempt,
                                   const std::vector<StationId>& avoid,
                                   const SpanContext& locate_span) {
  (void)attempt;
  (void)avoid;  // broadcast replies are filtered by the invokers themselves
  kernel_.counters_.locate_queries_broadcast->Increment();
  LocateRequestMsg msg;
  msg.query_id = query_id;
  msg.reply_to = kernel_.station();
  msg.name = name;
  msg.span = locate_span;
  kernel_.transport_->SendBestEffort(kBroadcastStation, msg.Encode());
}

// ---------------------------------------------------------------------------
// DirectoryLocation (partitioned directory, DESIGN.md §13)
// ---------------------------------------------------------------------------

DirectoryLocation::DirectoryLocation(NodeKernel& kernel)
    : LocationService(kernel) {
  entries_gauge_ = &kernel.metrics_.gauge("kernel.directory.entries");
  last_members_ = kernel.system().members();
  last_fanout_ = EffectiveFanout(last_members_);
}

std::vector<StationId> DirectoryLocation::HomesWith(
    const ObjectName& name, const std::vector<Member>& members,
    int fanout) const {
  if (members.empty()) {
    return {};
  }
  return kernel_.system().placement().HomesOf(name, members, fanout);
}

int DirectoryLocation::EffectiveFanout(const std::vector<Member>& members) {
  int configured = kernel_.config_.locate.directory_fanout;
  if (configured > 0) {
    return configured;
  }
  // Auto fanout: once the installation is big enough that a home crash is
  // routine (16+ members), record every residence at two homes.
  int target = members.size() >= 16 ? 2 : 1;
  SimDuration dwell = kernel_.config_.locate.fanout_dwell;
  if (dwell <= 0) {
    return target;  // legacy: flip the instant the boundary is crossed
  }
  if (stable_fanout_ == 0) {
    // First sighting: adopt without dwelling (there is nothing to re-fan).
    stable_fanout_ = target;
    return stable_fanout_;
  }
  if (target == stable_fanout_) {
    // Back on the committed side: any pending flip was a flap, cancel it.
    pending_fanout_ = 0;
    return stable_fanout_;
  }
  SimTime now = kernel_.sim().now();
  if (pending_fanout_ != target) {
    pending_fanout_ = target;
    pending_since_ = now;
  }
  if (now - pending_since_ >= dwell) {
    stable_fanout_ = pending_fanout_;
    pending_fanout_ = 0;
  }
  return stable_fanout_;
}

std::vector<StationId> DirectoryLocation::HomesOf(const ObjectName& name) {
  const std::vector<Member>& members = kernel_.system().members();
  return HomesWith(name, members, EffectiveFanout(members));
}

void DirectoryLocation::OnMembershipChange() {
  const std::vector<Member>& members = kernel_.system().members();
  if (members == last_members_) {
    return;
  }
  std::vector<Member> previous = std::move(last_members_);
  last_members_ = members;
  // The previous reconciliation's fanout frames the old home sets; a dwell
  // commit between reconciliations only shifts duplicates (receivers merge
  // by epoch) or costs one healable fallback, never loses a record.
  int new_fanout = EffectiveFanout(members);
  int old_fanout = last_fanout_ == 0 ? new_fanout : last_fanout_;
  last_fanout_ = new_fanout;
  if (partition_.empty()) {
    return;
  }
  StationId self = kernel_.station();
  for (auto it = partition_.begin(); it != partition_.end();) {
    const ObjectName& name = it->first;
    std::vector<StationId> new_homes = HomesWith(name, members, new_fanout);
    bool still_home =
        std::find(new_homes.begin(), new_homes.end(), self) != new_homes.end();
    std::vector<StationId> old_homes = HomesWith(name, previous, old_fanout);
    DirectoryUpdateMsg msg;
    msg.name = name;
    msg.host = it->second.host;
    msg.epoch = it->second.epoch;
    msg.active = it->second.active;
    for (StationId home : new_homes) {
      if (home == self) {
        continue;
      }
      // Still a home: top up only the *newly* responsible homes. Leaving the
      // home set: push the record to every new home — the receivers merge by
      // epoch, so a duplicate is harmless and a miss would cost a fallback
      // broadcast. Handoffs ride the reliable transport for the same reason.
      if (still_home && std::find(old_homes.begin(), old_homes.end(), home) !=
                            old_homes.end()) {
        continue;
      }
      kernel_.transport_->SendReliable(home, msg.Encode());
      kernel_.counters_.directory_handoffs->Increment();
    }
    if (still_home) {
      ++it;
    } else {
      it = partition_.erase(it);
    }
  }
  UpdateEntriesGauge();
}

void DirectoryLocation::UpdateEntriesGauge() {
  entries_gauge_->Set(static_cast<int64_t>(partition_.size()));
}

bool DirectoryLocation::ApplyUpdate(const ObjectName& name,
                                    const ResidenceRecord& record) {
  auto it = partition_.find(name);
  bool newer = it == partition_.end() || record.epoch > it->second.epoch ||
               (record.epoch == it->second.epoch && record.active &&
                !it->second.active);
  if (!newer) {
    kernel_.counters_.directory_stale_updates->Increment();
    return false;
  }
  partition_[name] = record;
  kernel_.counters_.directory_updates->Increment();
  UpdateEntriesGauge();
  return true;
}

void DirectoryLocation::ApplyRemoval(const ObjectName& name, uint64_t epoch) {
  auto it = partition_.find(name);
  if (it == partition_.end()) {
    return;
  }
  if (it->second.epoch > epoch) {
    // A residence acquired after this destruction (an in-flight move's
    // update raced the tombstone): the record outlives the removal.
    kernel_.counters_.directory_stale_updates->Increment();
    return;
  }
  partition_.erase(it);
  kernel_.counters_.directory_updates->Increment();
  UpdateEntriesGauge();
}

const ResidenceRecord* DirectoryLocation::LookupLocal(
    const ObjectName& name, const std::vector<StationId>& avoid) {
  auto it = partition_.find(name);
  if (it == partition_.end()) {
    return nullptr;
  }
  for (StationId host : avoid) {
    if (it->second.host == host) {
      // The invoker proved this host dead or ignorant: drop the stale record
      // so the fallback round can relearn the truth.
      partition_.erase(it);
      UpdateEntriesGauge();
      return nullptr;
    }
  }
  return &it->second;
}

void DirectoryLocation::BeginFallback(uint64_t query_id, Query& query,
                                      const char* reason) {
  (void)query_id;
  if (query.fallback) {
    return;
  }
  query.fallback = true;
  kernel_.counters_.directory_fallbacks->Increment();
  if (query.round_span.valid()) {
    kernel_.EndSpan(query.round_span, reason);
    query.round_span = SpanContext{};
  }
}

void DirectoryLocation::QueryRound(uint64_t query_id, const ObjectName& name,
                                   int attempt,
                                   const std::vector<StationId>& avoid,
                                   const SpanContext& locate_span) {
  Query& query = pending_[query_id];
  query.name = name;
  if (query.round_span.valid()) {
    // The previous lookup round timed out (home crashed, message lost).
    kernel_.EndSpan(query.round_span, "timeout");
    query.round_span = SpanContext{};
  }
  // A round that timed out without an answer is indistinguishable from a
  // crashed home: later rounds broadcast rather than re-ask a silent home.
  if (attempt > 0) {
    BeginFallback(query_id, query, "round_timeout");
  }
  if (query.fallback) {
    kernel_.counters_.locate_queries_broadcast->Increment();
    LocateRequestMsg msg;
    msg.query_id = query_id;
    msg.reply_to = kernel_.station();
    msg.name = name;
    msg.span = locate_span;
    kernel_.transport_->SendBestEffort(kBroadcastStation, msg.Encode());
    return;
  }

  kernel_.counters_.locate_queries_directory->Increment();
  query.round_span = kernel_.ChildSpan(locate_span, SpanKind::kDirectory, name,
                                       "directory lookup");
  std::vector<StationId> homes = HomesOf(name);
  StationId self = kernel_.station();
  bool remote_sent = false;
  for (StationId home : homes) {
    if (home == self) {
      continue;
    }
    DirectoryLookupMsg msg;
    msg.query_id = query_id;
    msg.reply_to = self;
    msg.name = name;
    msg.avoid_hosts = avoid;
    msg.span = query.round_span;
    kernel_.transport_->SendBestEffort(home, msg.Encode());
    remote_sent = true;
  }
  if (std::find(homes.begin(), homes.end(), self) != homes.end()) {
    // The kernel only locates objects it neither hosts nor holds, so a local
    // record naming this node is stale: resolving to it would re-enter the
    // locate synchronously, without end. Drop it like an avoided host.
    std::vector<StationId> stale = avoid;
    stale.push_back(self);
    if (const ResidenceRecord* record = LookupLocal(name, stale)) {
      ResidenceRecord hit = *record;
      // Resolves synchronously: EndQuery erases pending_[query_id], so no
      // touching `query` past this point.
      kernel_.ResolveLocate(query_id, hit.host, hit.epoch, hit.active);
      return;
    }
    if (!remote_sent) {
      // This node is the only home and its partition has no record: fall
      // back immediately instead of burning the round timer on ourselves.
      BeginFallback(query_id, query, "self_miss");
      kernel_.RetryLocateNow(query_id);
      return;
    }
  }
}

void DirectoryLocation::EndQuery(uint64_t query_id, std::string_view status) {
  auto it = pending_.find(query_id);
  if (it == pending_.end()) {
    return;
  }
  kernel_.EndSpan(it->second.round_span, status);
  pending_.erase(it);
}

void DirectoryLocation::NoteResidence(const ObjectName& name,
                                      const ResidenceRecord& record) {
  if (!kernel_.config_.locate.directory_repair) {
    return;
  }
  // A fallback broadcast just relearned this residence from the host's own
  // inventory: push it back to the home(s) so the directory reconstructs
  // itself and the next query is O(1) again.
  kernel_.counters_.directory_repairs->Increment();
  PublishResidence(name, record);
}

void DirectoryLocation::PublishResidence(const ObjectName& name,
                                         const ResidenceRecord& record) {
  StationId self = kernel_.station();
  DirectoryUpdateMsg msg;
  msg.name = name;
  msg.host = record.host;
  msg.epoch = record.epoch;
  msg.active = record.active;
  for (StationId home : HomesOf(name)) {
    if (home == self) {
      ApplyUpdate(name, record);
    } else {
      kernel_.transport_->SendBestEffort(home, msg.Encode());
    }
  }
}

void DirectoryLocation::PublishRemoval(const ObjectName& name,
                                       uint64_t epoch) {
  StationId self = kernel_.station();
  DirectoryUpdateMsg msg;
  msg.name = name;
  msg.epoch = epoch;
  msg.removal = true;
  for (StationId home : HomesOf(name)) {
    if (home == self) {
      ApplyRemoval(name, epoch);
    } else {
      kernel_.transport_->SendBestEffort(home, msg.Encode());
    }
  }
}

void DirectoryLocation::HandleDirectoryLookup(StationId src,
                                              const DirectoryLookupMsg& msg) {
  (void)src;
  kernel_.counters_.directory_lookups->Increment();
  DirectoryReplyMsg reply;
  reply.query_id = msg.query_id;
  reply.name = msg.name;
  if (const ResidenceRecord* record = LookupLocal(msg.name, msg.avoid_hosts)) {
    reply.known = true;
    reply.host = record->host;
    reply.epoch = record->epoch;
    reply.active = record->active;
  }
  kernel_.transport_->SendBestEffort(msg.reply_to, reply.Encode());
}

void DirectoryLocation::HandleDirectoryReply(const DirectoryReplyMsg& msg) {
  auto it = pending_.find(msg.query_id);
  if (it == pending_.end()) {
    return;  // resolved already, or the locate gave up
  }
  Query& query = it->second;
  if (msg.known) {
    if (query.round_span.valid()) {
      kernel_.EndSpan(query.round_span);
      query.round_span = SpanContext{};
    }
    kernel_.ResolveLocate(msg.query_id, msg.host, msg.epoch, msg.active);
    return;
  }
  if (query.fallback) {
    return;  // another home already sent us broadcasting
  }
  // The home is alive and authoritatively knows nothing (cold partition
  // after a crash, or a racing move): burn this round and broadcast now.
  BeginFallback(msg.query_id, query, "home_unknown");
  kernel_.RetryLocateNow(msg.query_id);
}

void DirectoryLocation::HandleDirectoryUpdate(StationId src,
                                              const DirectoryUpdateMsg& msg) {
  (void)src;
  if (msg.removal) {
    ApplyRemoval(msg.name, msg.epoch);
  } else {
    ApplyUpdate(msg.name, ResidenceRecord{msg.host, msg.epoch, msg.active});
  }
}

void DirectoryLocation::OnNodeFailed() {
  // pending_ is ordered by query id, so the round spans close in the same
  // sequence on every run.
  for (auto& [query_id, query] : pending_) {
    kernel_.EndSpan(query.round_span, "node_failed");
  }
  pending_.clear();
  partition_.clear();
  UpdateEntriesGauge();
}

const ResidenceRecord* DirectoryLocation::DirectoryEntry(
    const ObjectName& name) const {
  auto it = partition_.find(name);
  return it == partition_.end() ? nullptr : &it->second;
}

}  // namespace eden
