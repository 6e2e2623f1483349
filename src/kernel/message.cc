#include "src/kernel/message.h"

namespace eden {

namespace {

BufferWriter StartMessage(MessageKind kind) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(kind));
  return writer;
}

// Consumes and validates the kind tag.
Status ExpectKind(BufferReader& reader, MessageKind kind) {
  EDEN_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadU8());
  if (tag != static_cast<uint8_t>(kind)) {
    return InvalidArgumentError("unexpected message kind");
  }
  return OkStatus();
}

}  // namespace

StatusOr<MessageKind> PeekMessageKind(BytesView message) {
  if (message.empty()) {
    return InvalidArgumentError("empty message");
  }
  uint8_t tag = message[0];
  if (tag < static_cast<uint8_t>(MessageKind::kInvokeRequest) ||
      tag > static_cast<uint8_t>(MessageKind::kLeaseRelease)) {
    return InvalidArgumentError("unknown message kind");
  }
  return static_cast<MessageKind>(tag);
}

Bytes InvokeRequestMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kInvokeRequest);
  writer.WriteU64(invocation_id);
  writer.WriteU32(reply_to);
  target.Encode(writer);
  writer.WriteString(operation);
  args.Encode(writer);
  writer.WriteVarint(avoid_hosts.size());
  for (StationId host : avoid_hosts) {
    writer.WriteU32(host);
  }
  span.Encode(writer);
  writer.WriteVarint(invocation_id - low_water);
  return writer.Take();
}

StatusOr<InvokeRequestMsg> InvokeRequestMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kInvokeRequest));
  InvokeRequestMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.invocation_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.target, Capability::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.operation, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(msg.args, InvokeArgs::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(uint64_t avoid_count, reader.ReadVarint());
  if (avoid_count > 64) {
    return InvalidArgumentError("implausible avoid-host count");
  }
  for (uint64_t i = 0; i < avoid_count; i++) {
    EDEN_ASSIGN_OR_RETURN(StationId host, reader.ReadU32());
    msg.avoid_hosts.push_back(host);
  }
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(uint64_t low_water_delta, reader.ReadVarint());
  if (low_water_delta > msg.invocation_id) {
    return InvalidArgumentError("low-water mark above the invocation id");
  }
  msg.low_water = msg.invocation_id - low_water_delta;
  return msg;
}

Bytes InvokeReplyMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kInvokeReply);
  writer.WriteU64(invocation_id);
  result.Encode(writer);
  writer.WriteBool(target_frozen);
  writer.WriteU64(lease_renew_expiry);
  return writer.Take();
}

StatusOr<InvokeReplyMsg> InvokeReplyMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kInvokeReply));
  InvokeReplyMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.invocation_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.result, InvokeResult::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.target_frozen, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.lease_renew_expiry, reader.ReadU64());
  return msg;
}

Bytes InvokeRedirectMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kInvokeRedirect);
  writer.WriteU64(invocation_id);
  name.Encode(writer);
  writer.WriteU32(new_host);
  writer.WriteU64(epoch);
  return writer.Take();
}

StatusOr<InvokeRedirectMsg> InvokeRedirectMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kInvokeRedirect));
  InvokeRedirectMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.invocation_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.new_host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  return msg;
}

Bytes LocateRequestMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLocateRequest);
  writer.WriteU64(query_id);
  writer.WriteU32(reply_to);
  name.Encode(writer);
  span.Encode(writer);
  return writer.Take();
}

StatusOr<LocateRequestMsg> LocateRequestMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLocateRequest));
  LocateRequestMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes LocateReplyMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLocateReply);
  writer.WriteU64(query_id);
  name.Encode(writer);
  writer.WriteU32(host);
  writer.WriteBool(active);
  writer.WriteU64(epoch);
  return writer.Take();
}

StatusOr<LocateReplyMsg> LocateReplyMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLocateReply));
  LocateReplyMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.active, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  return msg;
}

Bytes MoveTransferMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kMoveTransfer);
  writer.WriteU64(transfer_id);
  writer.WriteU32(source);
  name.Encode(writer);
  writer.WriteString(type_name);
  representation.Encode(writer);
  policy.Encode(writer);
  writer.WriteBool(frozen);
  span.Encode(writer);
  writer.WriteVarint(cached_replies.size());
  for (const CachedReplyEntry& entry : cached_replies) {
    writer.WriteU64(entry.invocation_id);
    entry.result.Encode(writer);
    writer.WriteBool(entry.frozen);
  }
  // Floors as (client, floor - client base): a few bytes per client.
  writer.WriteVarint(reply_floors.size());
  for (const ReplyFloorEntry& entry : reply_floors) {
    writer.WriteVarint(entry.client);
    writer.WriteVarint(entry.floor - (entry.client << kInvocationSeqBits));
  }
  return writer.Take();
}

StatusOr<MoveTransferMsg> MoveTransferMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kMoveTransfer));
  MoveTransferMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.transfer_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.source, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.type_name, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(msg.representation, Representation::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.policy, CheckpointPolicy::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.frozen, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(uint64_t reply_count, reader.ReadVarint());
  if (reply_count > 8192) {
    return InvalidArgumentError("implausible cached-reply count");
  }
  for (uint64_t i = 0; i < reply_count; i++) {
    MoveTransferMsg::CachedReplyEntry entry;
    EDEN_ASSIGN_OR_RETURN(entry.invocation_id, reader.ReadU64());
    EDEN_ASSIGN_OR_RETURN(entry.result, InvokeResult::Decode(reader));
    EDEN_ASSIGN_OR_RETURN(entry.frozen, reader.ReadBool());
    msg.cached_replies.push_back(std::move(entry));
  }
  EDEN_ASSIGN_OR_RETURN(uint64_t floor_count, reader.ReadVarint());
  if (floor_count > 65536) {
    return InvalidArgumentError("implausible reply-floor count");
  }
  for (uint64_t i = 0; i < floor_count; i++) {
    MoveTransferMsg::ReplyFloorEntry entry;
    EDEN_ASSIGN_OR_RETURN(entry.client, reader.ReadVarint());
    EDEN_ASSIGN_OR_RETURN(uint64_t seq, reader.ReadVarint());
    if (entry.client >> (64 - kInvocationSeqBits) != 0 ||
        seq >> kInvocationSeqBits != 0) {
      return InvalidArgumentError("reply floor out of range");
    }
    entry.floor = (entry.client << kInvocationSeqBits) | seq;
    msg.reply_floors.push_back(entry);
  }
  return msg;
}

Bytes MoveAckMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kMoveAck);
  writer.WriteU64(transfer_id);
  name.Encode(writer);
  writer.WriteBool(accepted);
  writer.WriteU64(epoch);
  return writer.Take();
}

StatusOr<MoveAckMsg> MoveAckMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kMoveAck));
  MoveAckMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.transfer_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.accepted, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  return msg;
}

Bytes CheckpointPutMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kCheckpointPut);
  writer.WriteU64(request_id);
  writer.WriteU32(reply_to);
  name.Encode(writer);
  writer.WriteBytes(record.view());
  writer.WriteBool(is_mirror);
  writer.WriteVarint(delta_seq);
  span.Encode(writer);
  return writer.Take();
}

StatusOr<CheckpointPutMsg> CheckpointPutMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kCheckpointPut));
  CheckpointPutMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.request_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(Bytes record, reader.ReadBytes());
  msg.record = SharedBytes(std::move(record));
  EDEN_ASSIGN_OR_RETURN(msg.is_mirror, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.delta_seq, reader.ReadVarint());
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes CheckpointAckMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kCheckpointAck);
  writer.WriteU64(request_id);
  writer.WriteBool(ok);
  return writer.Take();
}

StatusOr<CheckpointAckMsg> CheckpointAckMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kCheckpointAck));
  CheckpointAckMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.request_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.ok, reader.ReadBool());
  return msg;
}

Bytes CheckpointEraseMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kCheckpointErase);
  name.Encode(writer);
  return writer.Take();
}

StatusOr<CheckpointEraseMsg> CheckpointEraseMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kCheckpointErase));
  CheckpointEraseMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  return msg;
}

Bytes ReplicaFetchMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kReplicaFetch);
  writer.WriteU64(request_id);
  writer.WriteU32(reply_to);
  name.Encode(writer);
  span.Encode(writer);
  return writer.Take();
}

StatusOr<ReplicaFetchMsg> ReplicaFetchMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kReplicaFetch));
  ReplicaFetchMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.request_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes ReplicaReplyMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kReplicaReply);
  writer.WriteU64(request_id);
  name.Encode(writer);
  writer.WriteBool(ok);
  writer.WriteString(type_name);
  representation.Encode(writer);
  return writer.Take();
}

StatusOr<ReplicaReplyMsg> ReplicaReplyMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kReplicaReply));
  ReplicaReplyMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.request_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.ok, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.type_name, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(msg.representation, Representation::Decode(reader));
  return msg;
}

Bytes PingMsg::Encode() const {
  return StartMessage(MessageKind::kPing).Take();
}

StatusOr<PingMsg> PingMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kPing));
  return PingMsg{};
}

Bytes DirectoryUpdateMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kDirectoryUpdate);
  name.Encode(writer);
  writer.WriteU32(host);
  writer.WriteU64(epoch);
  writer.WriteBool(active);
  writer.WriteBool(removal);
  return writer.Take();
}

StatusOr<DirectoryUpdateMsg> DirectoryUpdateMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kDirectoryUpdate));
  DirectoryUpdateMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.active, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.removal, reader.ReadBool());
  return msg;
}

Bytes DirectoryLookupMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kDirectoryLookup);
  writer.WriteU64(query_id);
  writer.WriteU32(reply_to);
  name.Encode(writer);
  writer.WriteVarint(avoid_hosts.size());
  for (StationId host : avoid_hosts) {
    writer.WriteU32(host);
  }
  span.Encode(writer);
  return writer.Take();
}

StatusOr<DirectoryLookupMsg> DirectoryLookupMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kDirectoryLookup));
  DirectoryLookupMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(uint64_t avoid_count, reader.ReadVarint());
  if (avoid_count > 64) {
    return InvalidArgumentError("implausible avoid-host count");
  }
  for (uint64_t i = 0; i < avoid_count; i++) {
    EDEN_ASSIGN_OR_RETURN(StationId host, reader.ReadU32());
    msg.avoid_hosts.push_back(host);
  }
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes LeaseGrantMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLeaseGrant);
  name.Encode(writer);
  writer.WriteString(type_name);
  representation.Encode(writer);
  writer.WriteU64(expiry);
  writer.WriteU64(epoch);
  writer.WriteU64(seq);
  return writer.Take();
}

StatusOr<LeaseGrantMsg> LeaseGrantMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLeaseGrant));
  LeaseGrantMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.type_name, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(msg.representation, Representation::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.expiry, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.seq, reader.ReadU64());
  return msg;
}

Bytes LeaseRecallMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLeaseRecall);
  name.Encode(writer);
  writer.WriteU64(epoch);
  writer.WriteU64(seq);
  span.Encode(writer);
  return writer.Take();
}

StatusOr<LeaseRecallMsg> LeaseRecallMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLeaseRecall));
  LeaseRecallMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.seq, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes LeaseReleaseMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLeaseRelease);
  name.Encode(writer);
  writer.WriteU32(holder);
  writer.WriteU64(epoch);
  writer.WriteU64(seq);
  return writer.Take();
}

StatusOr<LeaseReleaseMsg> LeaseReleaseMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLeaseRelease));
  LeaseReleaseMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.holder, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.seq, reader.ReadU64());
  return msg;
}

Bytes DirectoryReplyMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kDirectoryReply);
  writer.WriteU64(query_id);
  name.Encode(writer);
  writer.WriteBool(known);
  writer.WriteU32(host);
  writer.WriteU64(epoch);
  writer.WriteBool(active);
  return writer.Take();
}

StatusOr<DirectoryReplyMsg> DirectoryReplyMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kDirectoryReply));
  DirectoryReplyMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.known, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.active, reader.ReadBool());
  return msg;
}

}  // namespace eden
