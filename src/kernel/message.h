// Kernel-to-kernel wire messages. Each message is encoded with a one-byte
// kind tag followed by its fields; everything rides the reliable (or, for
// location broadcasts, best-effort) transport.
#ifndef EDEN_SRC_KERNEL_MESSAGE_H_
#define EDEN_SRC_KERNEL_MESSAGE_H_

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/kernel/capability.h"
#include "src/kernel/checkpoint.h"
#include "src/kernel/invoke.h"
#include "src/kernel/representation.h"
#include "src/net/lan.h"
#include "src/trace/span.h"

namespace eden {

enum class MessageKind : uint8_t {
  kInvokeRequest = 1,
  kInvokeReply = 2,
  // "I don't host this object (any more); try `new_host`, or re-locate if I
  // have no forwarding address."
  kInvokeRedirect = 3,
  kLocateRequest = 4,   // broadcast
  kLocateReply = 5,
  kMoveTransfer = 6,
  kMoveAck = 7,
  kCheckpointPut = 8,   // remote write of long-term state to a checksite
  kCheckpointAck = 9,
  kCheckpointErase = 10,  // destroy: remove long-term state
  kReplicaFetch = 11,   // pull a frozen object's representation for caching
  kReplicaReply = 12,
  // Peer-health probe (DESIGN.md §11). Carries nothing: the transport-level
  // ack of this reliable send is the "peer is alive" answer, so no reply
  // message exists.
  kPing = 13,
  // Partitioned directory location service (DESIGN.md §13). All three ride
  // best-effort: a lost update or reply is repaired lazily by the broadcast
  // fallback, never retransmitted.
  kDirectoryUpdate = 14,  // residence publish to the object's home node(s)
  kDirectoryLookup = 15,
  kDirectoryReply = 16,
  // Lease-based read caching of mutable objects (DESIGN.md §15). The home
  // node pushes a grant (with a representation snapshot) to a reader; writes
  // recall outstanding leases, holders answer with a release. All three ride
  // the reliable transport — a recall lost under a partition is bounded by
  // the lease's expiry, never by an unbounded retry.
  kLeaseGrant = 17,
  kLeaseRecall = 18,
  kLeaseRelease = 19,
};

// Reads the kind tag without consuming the rest.
StatusOr<MessageKind> PeekMessageKind(BytesView message);

constexpr StationId kNoStationRequest = 0xfffffffeu;

// An invocation id is the invoking station above a per-station sequence
// number of this many bits, so `id >> kInvocationSeqBits` names the client.
constexpr int kInvocationSeqBits = 40;

struct InvokeRequestMsg {
  uint64_t invocation_id = 0;
  StationId reply_to = 0;
  Capability target;
  std::string operation;
  InvokeArgs args;
  // Hosts the invoker found dead or ignorant while chasing this object. The
  // receiving kernel invalidates any forwarding address pointing at one of
  // them (the active copy is gone; checkpoints are now authoritative).
  std::vector<StationId> avoid_hosts;
  // Causal context of the invoking client's span (DESIGN.md §12). Encoded
  // fixed-width — all-zero when tracing is off — so the message size never
  // depends on whether a collector is attached.
  SpanContext span;
  // The invoker's acknowledgement (DESIGN.md §7): every invocation it issued
  // with a smaller id has finished, so the host may drop their cached replies
  // and must not execute them again. It is the invoker's oldest pending id,
  // never above `invocation_id`; forwarding keeps the original mark. Encoded
  // as the varint `invocation_id - low_water`, one byte in a closed loop.
  uint64_t low_water = 0;

  Bytes Encode() const;
  static StatusOr<InvokeRequestMsg> Decode(BytesView message);
};

struct InvokeReplyMsg {
  uint64_t invocation_id = 0;
  InvokeResult result;
  // Tells the invoking kernel the target is frozen, so it may cache a
  // replica (paper section 4.3).
  bool target_frozen = false;
  // Lease renewal piggyback (DESIGN.md §15): when nonzero, the home extends
  // the invoker's read lease on the target to this absolute expiry. Encoded
  // fixed-width — always present, zero when leases are off — so message
  // sizes never depend on the lease configuration.
  uint64_t lease_renew_expiry = 0;

  Bytes Encode() const;
  static StatusOr<InvokeReplyMsg> Decode(BytesView message);
};

constexpr StationId kNoStation = 0xfffffffeu;

struct InvokeRedirectMsg {
  uint64_t invocation_id = 0;
  ObjectName name;
  // kNoStation when the sender has no forwarding address.
  StationId new_host = kNoStation;
  // Version stamp of the forwarding hint: the time `new_host` acquired the
  // object, as reported by its move ack. The invoker's location cache merges
  // by epoch (newer wins), so a hint older than what the cache already holds
  // is dropped rather than followed. 0 = unversioned.
  uint64_t epoch = 0;

  Bytes Encode() const;
  static StatusOr<InvokeRedirectMsg> Decode(BytesView message);
};

struct LocateRequestMsg {
  uint64_t query_id = 0;
  StationId reply_to = 0;
  ObjectName name;
  // Causal context of the locate span driving this broadcast (fixed-width).
  SpanContext span;

  Bytes Encode() const;
  static StatusOr<LocateRequestMsg> Decode(BytesView message);
};

struct LocateReplyMsg {
  uint64_t query_id = 0;
  ObjectName name;
  StationId host = 0;
  // True if the object is active at `host`; false if `host` merely holds its
  // checkpoint (and would reincarnate it on demand).
  bool active = false;
  // Residence-acquisition time at `host` (0 for passive holders): lets the
  // directory backend push a correctly-versioned repair to the home node
  // after a fallback broadcast.
  uint64_t epoch = 0;

  Bytes Encode() const;
  static StatusOr<LocateReplyMsg> Decode(BytesView message);
};

struct MoveTransferMsg {
  uint64_t transfer_id = 0;
  StationId source = 0;
  ObjectName name;
  std::string type_name;
  Representation representation;
  CheckpointPolicy policy;
  bool frozen = false;
  // Causal context of the source-side move span (fixed-width).
  SpanContext span;
  // The source's at-most-once reply cache entries for this object, carried
  // so a retried request that lands at the new home after the move is
  // re-replied there instead of re-executed.
  struct CachedReplyEntry {
    uint64_t invocation_id = 0;
    InvokeResult result;
    bool frozen = false;
  };
  std::vector<CachedReplyEntry> cached_replies;
  // The source's per-client acknowledgement floors (client = invocation id
  // >> kInvocationSeqBits, floor = that client's highest low-water mark seen),
  // so a stale retry is refused at the new home as it was at the old one.
  struct ReplyFloorEntry {
    uint64_t client = 0;
    uint64_t floor = 0;
  };
  std::vector<ReplyFloorEntry> reply_floors;

  Bytes Encode() const;
  static StatusOr<MoveTransferMsg> Decode(BytesView message);
};

struct MoveAckMsg {
  uint64_t transfer_id = 0;
  ObjectName name;
  bool accepted = false;
  // The residence epoch the destination minted at move-in (0 on refusal).
  // The source stamps its forwarding hint with this — not with its own
  // clock, which could overtake a later move's epoch and pin a stale hint.
  uint64_t epoch = 0;

  Bytes Encode() const;
  static StatusOr<MoveAckMsg> Decode(BytesView message);
};

struct CheckpointPutMsg {
  uint64_t request_id = 0;
  StationId reply_to = 0;
  ObjectName name;
  // Encoded checkpoint record: a base record (full representation) when
  // delta_seq == 0, else link `delta_seq` of the object's delta chain.
  // Refcounted so the receiving checksite stores it without another copy.
  SharedBytes record;
  // Mirror copies are redundancy only: they do not answer locate queries, so
  // a mirrored object still has a single authoritative passive home.
  bool is_mirror = false;
  // 0 = base record; k > 0 = k-th delta since the last base. The checksite
  // rejects a delta whose predecessor is missing, so stored chains are
  // always contiguous.
  uint64_t delta_seq = 0;
  // Causal context of the checkpoint span at the object's host, so the
  // checksite's store-write span links across nodes (fixed-width).
  SpanContext span;

  Bytes Encode() const;
  static StatusOr<CheckpointPutMsg> Decode(BytesView message);
};

struct CheckpointAckMsg {
  uint64_t request_id = 0;
  bool ok = false;

  Bytes Encode() const;
  static StatusOr<CheckpointAckMsg> Decode(BytesView message);
};

struct CheckpointEraseMsg {
  ObjectName name;

  Bytes Encode() const;
  static StatusOr<CheckpointEraseMsg> Decode(BytesView message);
};

struct ReplicaFetchMsg {
  uint64_t request_id = 0;
  StationId reply_to = 0;
  ObjectName name;
  // Causal context of the invocation whose reply prompted the fetch.
  SpanContext span;

  Bytes Encode() const;
  static StatusOr<ReplicaFetchMsg> Decode(BytesView message);
};

struct ReplicaReplyMsg {
  uint64_t request_id = 0;
  ObjectName name;
  bool ok = false;
  std::string type_name;
  Representation representation;

  Bytes Encode() const;
  static StatusOr<ReplicaReplyMsg> Decode(BytesView message);
};

struct PingMsg {
  Bytes Encode() const;
  static StatusOr<PingMsg> Decode(BytesView message);
};

// Residence publish to a home node (DESIGN.md §13). Sent by the host that
// acquired the object (create, move-in, reincarnation), by a fallback
// resolver repairing the directory, or — with `removal` — by the destroyer.
struct DirectoryUpdateMsg {
  ObjectName name;
  StationId host = kNoStation;
  // Residence-acquisition time at `host`; the home merges by epoch (strictly
  // newer wins, equal-epoch active beats passive, 0 only fills empty slots).
  uint64_t epoch = 0;
  bool active = false;
  // Tombstone: drop the record if its epoch is <= this update's epoch.
  bool removal = false;

  Bytes Encode() const;
  static StatusOr<DirectoryUpdateMsg> Decode(BytesView message);
};

struct DirectoryLookupMsg {
  uint64_t query_id = 0;
  StationId reply_to = 0;
  ObjectName name;
  // Hosts the querying invocations proved dead: the home drops a record
  // pointing at one of them instead of returning the stale answer.
  std::vector<StationId> avoid_hosts;
  // Causal context of the locate round driving this lookup (fixed-width).
  SpanContext span;

  Bytes Encode() const;
  static StatusOr<DirectoryLookupMsg> Decode(BytesView message);
};

// Read-lease grant pushed by an object's home node (DESIGN.md §15). Carries
// a snapshot of the representation; the holder installs it as a local cached
// copy and serves read-class invocations from it until `expiry`.
struct LeaseGrantMsg {
  ObjectName name;
  std::string type_name;
  Representation representation;
  // Absolute virtual-time expiry of the lease.
  uint64_t expiry = 0;
  // Lease version: (epoch, seq) compared lexicographically. `epoch` is the
  // home's residence epoch for the object (so grants from a pre-move or
  // pre-crash home lose to later recalls); `seq` is a per-object counter at
  // that home. A holder that released in answer to recall (e, s) refuses any
  // grant versioned <= (e, s) — a late grant can never resurrect a lease the
  // writer already believes recalled.
  uint64_t epoch = 0;
  uint64_t seq = 0;

  Bytes Encode() const;
  static StatusOr<LeaseGrantMsg> Decode(BytesView message);
};

// Home -> holder: give the lease back (a write is waiting). The holder drops
// its cached copy immediately and answers with LeaseRelease; if this message
// is lost (partition), the home's backstop timer waits out the lease expiry
// instead — the writer is delayed, never fed stale state.
struct LeaseRecallMsg {
  ObjectName name;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  // Causal context of the home-side kLease span (fixed-width), so the
  // recall's wire legs and the holder-side handling link into the writing
  // invocation's trace.
  SpanContext span;

  Bytes Encode() const;
  static StatusOr<LeaseRecallMsg> Decode(BytesView message);
};

// Holder -> home: lease dropped. Sent in answer to a recall (echoing its
// version) and voluntarily when a holder discards an expired entry.
struct LeaseReleaseMsg {
  ObjectName name;
  StationId holder = kNoStation;
  uint64_t epoch = 0;
  uint64_t seq = 0;

  Bytes Encode() const;
  static StatusOr<LeaseReleaseMsg> Decode(BytesView message);
};

struct DirectoryReplyMsg {
  uint64_t query_id = 0;
  ObjectName name;
  // False when the home has no record: the querier falls back to one
  // broadcast round and repairs the home from whatever answers.
  bool known = false;
  StationId host = kNoStation;
  uint64_t epoch = 0;
  bool active = false;

  Bytes Encode() const;
  static StatusOr<DirectoryReplyMsg> Decode(BytesView message);
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_MESSAGE_H_
