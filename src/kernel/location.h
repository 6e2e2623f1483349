// LocationService: the pluggable object-location backend of the kernel
// (DESIGN.md §13). The paper resolves locations by broadcasting to every
// node (section 4.3); at the 256-node installations the ROADMAP targets the
// broadcast is the classic non-scaler, so the kernel now talks to this
// interface and two backends implement it:
//
//  * BroadcastLocation — the paper's protocol, kept as the ablation baseline
//    and as the directory backend's fallback: one best-effort broadcast per
//    round, holders reply (active immediately, passive/mirror delayed).
//  * DirectoryLocation — a partitioned directory: each ObjectName hashes to
//    a *home node* whose volatile partition records the object's current
//    residence with an epoch stamp (the simulation time at which the host
//    acquired the object). Moves, reincarnations and mirror promotions
//    publish a versioned update to the home; lookups cost O(1) messages
//    regardless of node count. A miss (cold home, crashed-and-restarted
//    home, racing move) falls back to one broadcast round, and the learned
//    residence is pushed back to the home — so the directory reconstructs
//    itself lazily from the hosts' own inventories after a home-node crash.
//
// Epoch rule, everywhere a residence record lands (home partition, location
// caches, forwarding hints): a strictly newer epoch wins, an older one is
// dropped, and at equal epochs an active sighting beats a passive one.
// Passive holders stamp epoch 0, so they only ever fill empty slots.
//
// The kernel owns the shared locate machinery (PendingLocate timers, retry
// budget, waiting invocations); a backend implements one *query round* plus
// the publish/lookup message handlers. Everything a backend sends rides the
// best-effort transport: a lost update or reply is repaired lazily by the
// fallback path, never retransmitted.
#ifndef EDEN_SRC_KERNEL_LOCATION_H_
#define EDEN_SRC_KERNEL_LOCATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/kernel/message.h"
#include "src/kernel/name.h"
#include "src/kernel/placement.h"
#include "src/metrics/metrics.h"
#include "src/net/lan.h"
#include "src/sim/time.h"
#include "src/trace/span.h"

namespace eden {

class NodeKernel;

enum class LocationBackend : uint8_t {
  kBroadcast = 0,
  kDirectory = 1,
};

std::string_view LocationBackendName(LocationBackend backend);

// Locate knobs, set on a node through the builder (`WithLocation`) and held
// as KernelConfig::locate.
struct LocateConfig {
  LocationBackend backend = LocationBackend::kDirectory;
  // Per-round timeout and round budget (shared by both backends; a directory
  // miss's broadcast fallback consumes a round from the same budget).
  SimDuration timeout = Milliseconds(50);
  int max_attempts = 3;
  // Passive holders delay their broadcast replies so an active host wins.
  SimDuration passive_reply_delay = Milliseconds(2);
  // Directory backend: number of home nodes each object's residence is
  // recorded at (>1 tolerates home crashes without fallback broadcasts).
  // 0 = auto: 2 once the installation reaches 16 members, else 1 — big
  // installations get crash-tolerant lookups by default, small ones don't
  // pay the double-publish tax.
  int directory_fanout = 0;
  // Hysteresis for the auto fanout flip (directory_fanout == 0 only). With a
  // membership hovering around the 16-member boundary — a rolling restart, a
  // flapping node — the instant flip re-fans every record's home set on each
  // crossing, a cluster-wide handoff wave each way. A non-zero dwell makes
  // the flip commit only after the member count has stayed on the far side
  // of the boundary for this long; crossings shorter than the dwell change
  // nothing. 0 = flip immediately (bit-identical legacy behavior).
  SimDuration fanout_dwell = 0;
  // After a fallback broadcast resolves, push the learned residence back to
  // the home node(s) so the next query hits the directory again.
  bool directory_repair = true;
};

// One node's view of where an object lives: a home-partition record, a
// location-cache entry, or a forwarding hint.
struct ResidenceRecord {
  StationId host = kNoStation;
  // Simulation time at which `host` acquired the object (create, move-in,
  // reincarnation); 0 for passive sightings. Monotone along any causal chain
  // of residence changes, so "newer epoch wins" is a safe merge rule.
  uint64_t epoch = 0;
  bool active = false;
};

class LocationService {
 public:
  static std::unique_ptr<LocationService> Create(NodeKernel& kernel,
                                                 LocationBackend backend);
  virtual ~LocationService() = default;

  virtual LocationBackend backend() const = 0;

  // --- Client side -----------------------------------------------------------
  // Issues resolution round `attempt` (0-based) for the pending locate
  // `query_id`. Resolution flows back through NodeKernel::ResolveLocate —
  // possibly synchronously (the kernel arms the round timer first). `avoid`
  // lists hosts the waiting invocations proved dead, so stale records
  // pointing there are dropped rather than returned.
  virtual void QueryRound(uint64_t query_id, const ObjectName& name,
                          int attempt, const std::vector<StationId>& avoid,
                          const SpanContext& locate_span) = 0;
  // The locate under `query_id` is over (resolved, budget spent, node
  // failed): drop per-query state and close any open round span.
  virtual void EndQuery(uint64_t query_id, std::string_view status) {}
  // Residence learned outside the backend's own replies (a broadcast locate
  // reply): lets the directory repair its home partition.
  virtual void NoteResidence(const ObjectName& name,
                             const ResidenceRecord& record) {}

  // --- Host side -------------------------------------------------------------
  // This node acquired (or reincarnated, or received) the object: publish the
  // new residence. No-op for the broadcast backend — holders answer queries
  // from their inventories instead.
  virtual void PublishResidence(const ObjectName& name,
                                const ResidenceRecord& record) {}
  // The object was destroyed; `epoch` is the destruction time.
  virtual void PublishRemoval(const ObjectName& name, uint64_t epoch) {}

  // --- Wire ------------------------------------------------------------------
  virtual void HandleDirectoryLookup(StationId src,
                                     const DirectoryLookupMsg& msg) {}
  virtual void HandleDirectoryReply(const DirectoryReplyMsg& msg) {}
  virtual void HandleDirectoryUpdate(StationId src,
                                     const DirectoryUpdateMsg& msg) {}

  // --- Lifecycle / introspection --------------------------------------------
  // Node failure: all backend state is volatile and dies with the node.
  virtual void OnNodeFailed() {}
  // The member set changed (join/drain/depart, DESIGN.md §16). The directory
  // backend re-checks which records this node still homes and hands the rest
  // off; the broadcast backend doesn't care.
  virtual void OnMembershipChange() {}
  // Size of this node's home partition (0 for the broadcast backend).
  virtual size_t directory_entries() const { return 0; }
  // This node's partition record for `name`, or nullptr (tests).
  virtual const ResidenceRecord* DirectoryEntry(const ObjectName& name) const {
    return nullptr;
  }
  // The home node(s) `name` hashes to (empty for the broadcast backend).
  virtual std::vector<StationId> HomesOf(const ObjectName& name) { return {}; }

 protected:
  explicit LocationService(NodeKernel& kernel) : kernel_(kernel) {}
  NodeKernel& kernel_;
};

// The paper's broadcast protocol: every query round is one best-effort
// broadcast; active hosts answer immediately, passive checkpoint holders
// after passive_reply_delay, mirror-only holders after twice that.
class BroadcastLocation : public LocationService {
 public:
  explicit BroadcastLocation(NodeKernel& kernel) : LocationService(kernel) {}
  LocationBackend backend() const override {
    return LocationBackend::kBroadcast;
  }
  void QueryRound(uint64_t query_id, const ObjectName& name, int attempt,
                  const std::vector<StationId>& avoid,
                  const SpanContext& locate_span) override;
};

// The partitioned directory. This node plays two roles at once: home node
// for the slice of the name space that hashes here (`partition_`), and
// client issuing lookups for its own kernel's locates (`pending_`).
class DirectoryLocation : public LocationService {
 public:
  explicit DirectoryLocation(NodeKernel& kernel);
  LocationBackend backend() const override {
    return LocationBackend::kDirectory;
  }

  void QueryRound(uint64_t query_id, const ObjectName& name, int attempt,
                  const std::vector<StationId>& avoid,
                  const SpanContext& locate_span) override;
  void EndQuery(uint64_t query_id, std::string_view status) override;
  void NoteResidence(const ObjectName& name,
                     const ResidenceRecord& record) override;

  void PublishResidence(const ObjectName& name,
                        const ResidenceRecord& record) override;
  void PublishRemoval(const ObjectName& name, uint64_t epoch) override;

  void HandleDirectoryLookup(StationId src,
                             const DirectoryLookupMsg& msg) override;
  void HandleDirectoryReply(const DirectoryReplyMsg& msg) override;
  void HandleDirectoryUpdate(StationId src,
                             const DirectoryUpdateMsg& msg) override;

  void OnNodeFailed() override;
  void OnMembershipChange() override;
  size_t directory_entries() const override { return partition_.size(); }
  const ResidenceRecord* DirectoryEntry(const ObjectName& name) const override;
  std::vector<StationId> HomesOf(const ObjectName& name) override;

 private:
  struct Query {
    ObjectName name;
    // A home answered "unknown" (or the only home is this node and its
    // partition missed): remaining rounds broadcast instead.
    bool fallback = false;
    // kDirectory span covering the current lookup round; closed on reply,
    // fallback, or when the next round opens.
    SpanContext round_span;
  };

  // Homes of `name` under an explicit member list and fanout (the system
  // placement policy decides which members). HomesOf uses the current
  // members and the effective fanout; OnMembershipChange diffs against the
  // previous snapshots of both.
  std::vector<StationId> HomesWith(const ObjectName& name,
                                   const std::vector<Member>& members,
                                   int fanout) const;
  // The fanout in force right now: the configured value when pinned, else
  // the auto value (2 at >= 16 members, else 1) run through the
  // fanout_dwell hysteresis. Deterministic across nodes: the dwell state
  // only changes at membership transitions (delivered to every node in the
  // same event) and the committed value is a pure function of that shared
  // state and the current time.
  int EffectiveFanout(const std::vector<Member>& members);
  // Applies the epoch merge rule to this node's partition. Returns true if
  // the record was applied (inserted or superseded an older one).
  bool ApplyUpdate(const ObjectName& name, const ResidenceRecord& record);
  void ApplyRemoval(const ObjectName& name, uint64_t epoch);
  // Local lookup when this node is one of the homes. Drops entries pointing
  // at `avoid` hosts, exactly like the remote handler.
  const ResidenceRecord* LookupLocal(const ObjectName& name,
                                     const std::vector<StationId>& avoid);
  void UpdateEntriesGauge();
  void BeginFallback(uint64_t query_id, Query& query, const char* reason);

  // This node's slice of the directory. Ordered so OnNodeFailed's span
  // closing and any future inventory dump iterate deterministically.
  std::map<ObjectName, ResidenceRecord> partition_;
  // Client-side per-query state, keyed (and iterated on failure) by query id.
  std::map<uint64_t, Query> pending_;
  // Member set this node's partition was last reconciled against, so a
  // membership change hands off only the records whose home set actually
  // changed instead of re-pushing everything.
  std::vector<Member> last_members_;
  // Fanout-dwell hysteresis state (see LocateConfig::fanout_dwell).
  // stable_fanout_ is the committed auto fanout; pending_fanout_ (0 = none)
  // is a flip waiting out its dwell since pending_since_. last_fanout_
  // snapshots the fanout the partition was last reconciled under, so a
  // membership diff compares old homes at the old fanout with new homes at
  // the new one.
  int stable_fanout_ = 0;
  int pending_fanout_ = 0;
  SimTime pending_since_ = 0;
  int last_fanout_ = 0;
  Gauge* entries_gauge_ = nullptr;
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_LOCATION_H_
