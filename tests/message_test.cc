// Codec tests for every kernel wire message: round trips, kind dispatch, and
// rejection of truncated/corrupted buffers (nothing a peer sends may crash a
// kernel).
#include <gtest/gtest.h>

#include "src/kernel/message.h"

namespace eden {
namespace {

Capability SampleCapability() {
  return Capability(ObjectName(3, 77, 0xabcd), Rights(Rights::kInvoke | Rights::kRead));
}

Representation SampleRepresentation() {
  Representation rep;
  rep.SetDataFromString(0, "state");
  rep.AddCapability(SampleCapability());
  return rep;
}

// Every decoder must reject every strict prefix of a valid encoding.
template <typename Msg>
void ExpectPrefixRejection(const Bytes& encoded) {
  for (size_t cut = 1; cut + 1 < encoded.size(); cut += 3) {
    Bytes truncated(encoded.begin(), encoded.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Msg::Decode(truncated).ok()) << "prefix length " << cut;
  }
}

TEST(MessageTest, InvokeRequestRoundTrip) {
  InvokeRequestMsg msg;
  msg.invocation_id = 0x123456789abcULL;
  msg.reply_to = 4;
  msg.target = SampleCapability();
  msg.operation = "put";
  msg.args.AddString("this is a new line").AddCapability(SampleCapability());
  msg.avoid_hosts = {9, 11};

  Bytes encoded = msg.Encode();
  EXPECT_EQ(PeekMessageKind(encoded).value(), MessageKind::kInvokeRequest);
  auto decoded = InvokeRequestMsg::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->invocation_id, msg.invocation_id);
  EXPECT_EQ(decoded->reply_to, msg.reply_to);
  EXPECT_EQ(decoded->target, msg.target);
  EXPECT_EQ(decoded->operation, "put");
  EXPECT_EQ(decoded->args.StringAt(0).value(), "this is a new line");
  EXPECT_EQ(decoded->avoid_hosts, (std::vector<StationId>{9, 11}));
  EXPECT_EQ(decoded->low_water, 0u);
  ExpectPrefixRejection<InvokeRequestMsg>(encoded);
}

TEST(MessageTest, InvokeRequestCarriesItsLowWaterMark) {
  InvokeRequestMsg msg;
  msg.invocation_id = (7ull << kInvocationSeqBits) | 300;
  msg.low_water = (7ull << kInvocationSeqBits) | 299;
  msg.target = SampleCapability();
  msg.operation = "get";
  Bytes encoded = msg.Encode();
  auto decoded = InvokeRequestMsg::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->low_water, msg.low_water);

  // The mark costs one byte in a closed loop (delta 1)...
  InvokeRequestMsg same = msg;
  same.low_water = same.invocation_id;
  EXPECT_EQ(same.Encode().size(), encoded.size());

  // ...and a delta larger than the id itself (a mark "above" the
  // invocation, which wraps) is rejected.
  InvokeRequestMsg above = msg;
  above.low_water = msg.invocation_id + 1;
  EXPECT_FALSE(InvokeRequestMsg::Decode(above.Encode()).ok());
}

TEST(MessageTest, InvokeReplyRoundTrip) {
  InvokeReplyMsg msg;
  msg.invocation_id = 42;
  msg.result.status = TimeoutError("too slow");
  msg.result.results.AddU64(7);
  msg.target_frozen = true;

  Bytes encoded = msg.Encode();
  auto decoded = InvokeReplyMsg::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->result.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(decoded->result.status.message(), "too slow");
  EXPECT_EQ(decoded->result.results.U64At(0).value(), 7u);
  EXPECT_TRUE(decoded->target_frozen);
  ExpectPrefixRejection<InvokeReplyMsg>(encoded);
}

TEST(MessageTest, InvokeRedirectRoundTrip) {
  InvokeRedirectMsg msg;
  msg.invocation_id = 5;
  msg.name = ObjectName(1, 2, 3);
  msg.new_host = kNoStation;
  msg.epoch = 0x1122334455ULL;
  auto decoded = InvokeRedirectMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->new_host, kNoStation);
  EXPECT_EQ(decoded->name, msg.name);
  EXPECT_EQ(decoded->epoch, msg.epoch);
}

TEST(MessageTest, LocateRoundTrips) {
  LocateRequestMsg request;
  request.query_id = 77;
  request.reply_to = 2;
  request.name = ObjectName(9, 9, 9);
  auto decoded_request = LocateRequestMsg::Decode(request.Encode());
  ASSERT_TRUE(decoded_request.ok());
  EXPECT_EQ(decoded_request->query_id, 77u);

  LocateReplyMsg reply;
  reply.query_id = 77;
  reply.name = request.name;
  reply.host = 3;
  reply.active = true;
  reply.epoch = 987654321u;
  auto decoded_reply = LocateReplyMsg::Decode(reply.Encode());
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_TRUE(decoded_reply->active);
  EXPECT_EQ(decoded_reply->host, 3u);
  EXPECT_EQ(decoded_reply->epoch, 987654321u);
}

TEST(MessageTest, MoveTransferRoundTripCarriesEverything) {
  MoveTransferMsg msg;
  msg.transfer_id = 8;
  msg.source = 1;
  msg.name = ObjectName(1, 5, 6);
  msg.type_name = "std.mailbox";
  msg.representation = SampleRepresentation();
  msg.policy = CheckpointPolicy{2, ReliabilityLevel::kMirrored, 3};
  msg.frozen = true;

  Bytes encoded = msg.Encode();
  auto decoded = MoveTransferMsg::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type_name, "std.mailbox");
  EXPECT_EQ(decoded->representation, msg.representation);
  EXPECT_EQ(decoded->policy.level, ReliabilityLevel::kMirrored);
  EXPECT_EQ(decoded->policy.mirror_site, 3u);
  EXPECT_TRUE(decoded->frozen);
  ExpectPrefixRejection<MoveTransferMsg>(encoded);
}

TEST(MessageTest, MoveAckRoundTrip) {
  MoveAckMsg msg;
  msg.transfer_id = 11;
  msg.name = ObjectName(4, 4, 4);
  msg.accepted = true;
  msg.epoch = 42424242u;
  auto decoded = MoveAckMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->accepted);
  EXPECT_EQ(decoded->epoch, 42424242u);
}

TEST(MessageTest, DirectoryMessagesRoundTrip) {
  DirectoryUpdateMsg update;
  update.name = ObjectName(6, 7, 8);
  update.host = 5;
  update.epoch = 0xdeadbeefULL;
  update.active = true;
  Bytes encoded = update.Encode();
  EXPECT_EQ(PeekMessageKind(encoded).value(), MessageKind::kDirectoryUpdate);
  auto decoded_update = DirectoryUpdateMsg::Decode(encoded);
  ASSERT_TRUE(decoded_update.ok());
  EXPECT_EQ(decoded_update->name, update.name);
  EXPECT_EQ(decoded_update->host, 5u);
  EXPECT_EQ(decoded_update->epoch, 0xdeadbeefULL);
  EXPECT_TRUE(decoded_update->active);
  EXPECT_FALSE(decoded_update->removal);
  ExpectPrefixRejection<DirectoryUpdateMsg>(encoded);

  DirectoryUpdateMsg removal;
  removal.name = update.name;
  removal.epoch = 99;
  removal.removal = true;
  auto decoded_removal = DirectoryUpdateMsg::Decode(removal.Encode());
  ASSERT_TRUE(decoded_removal.ok());
  EXPECT_TRUE(decoded_removal->removal);
  EXPECT_EQ(decoded_removal->epoch, 99u);

  DirectoryLookupMsg lookup;
  lookup.query_id = 31;
  lookup.reply_to = 2;
  lookup.name = update.name;
  lookup.avoid_hosts = {4, 12};
  Bytes lookup_encoded = lookup.Encode();
  EXPECT_EQ(PeekMessageKind(lookup_encoded).value(),
            MessageKind::kDirectoryLookup);
  auto decoded_lookup = DirectoryLookupMsg::Decode(lookup_encoded);
  ASSERT_TRUE(decoded_lookup.ok());
  EXPECT_EQ(decoded_lookup->query_id, 31u);
  EXPECT_EQ(decoded_lookup->reply_to, 2u);
  EXPECT_EQ(decoded_lookup->avoid_hosts, (std::vector<StationId>{4, 12}));
  ExpectPrefixRejection<DirectoryLookupMsg>(lookup_encoded);

  DirectoryReplyMsg reply;
  reply.query_id = 31;
  reply.name = update.name;
  reply.known = true;
  reply.host = 5;
  reply.epoch = 0xdeadbeefULL;
  reply.active = true;
  Bytes reply_encoded = reply.Encode();
  EXPECT_EQ(PeekMessageKind(reply_encoded).value(),
            MessageKind::kDirectoryReply);
  auto decoded_reply = DirectoryReplyMsg::Decode(reply_encoded);
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_TRUE(decoded_reply->known);
  EXPECT_EQ(decoded_reply->host, 5u);
  EXPECT_EQ(decoded_reply->epoch, 0xdeadbeefULL);
  EXPECT_TRUE(decoded_reply->active);
  ExpectPrefixRejection<DirectoryReplyMsg>(reply_encoded);
}

TEST(MessageTest, CheckpointMessagesRoundTrip) {
  CheckpointPutMsg put;
  put.request_id = 13;
  put.reply_to = 1;
  put.name = ObjectName(2, 3, 4);
  put.record = SharedBytes(ToBytes("record bytes"));
  put.is_mirror = true;
  put.delta_seq = 7;
  auto decoded_put = CheckpointPutMsg::Decode(put.Encode());
  ASSERT_TRUE(decoded_put.ok());
  EXPECT_TRUE(decoded_put->is_mirror);
  EXPECT_EQ(decoded_put->delta_seq, 7u);
  EXPECT_EQ(ToString(decoded_put->record.view()), "record bytes");

  CheckpointAckMsg ack;
  ack.request_id = 13;
  ack.ok = true;
  auto decoded_ack = CheckpointAckMsg::Decode(ack.Encode());
  ASSERT_TRUE(decoded_ack.ok());
  EXPECT_TRUE(decoded_ack->ok);

  CheckpointEraseMsg erase;
  erase.name = put.name;
  auto decoded_erase = CheckpointEraseMsg::Decode(erase.Encode());
  ASSERT_TRUE(decoded_erase.ok());
  EXPECT_EQ(decoded_erase->name, put.name);
}

TEST(MessageTest, ReplicaMessagesRoundTrip) {
  ReplicaFetchMsg fetch;
  fetch.request_id = 21;
  fetch.reply_to = 0;
  fetch.name = ObjectName(7, 8, 9);
  auto decoded_fetch = ReplicaFetchMsg::Decode(fetch.Encode());
  ASSERT_TRUE(decoded_fetch.ok());
  EXPECT_EQ(decoded_fetch->name, fetch.name);

  ReplicaReplyMsg reply;
  reply.request_id = 21;
  reply.name = fetch.name;
  reply.ok = true;
  reply.type_name = "std.data";
  reply.representation = SampleRepresentation();
  Bytes encoded = reply.Encode();
  auto decoded_reply = ReplicaReplyMsg::Decode(encoded);
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_EQ(decoded_reply->representation, reply.representation);
  ExpectPrefixRejection<ReplicaReplyMsg>(encoded);
}

TEST(MessageTest, PeekRejectsGarbage) {
  EXPECT_FALSE(PeekMessageKind(Bytes{}).ok());
  EXPECT_FALSE(PeekMessageKind(Bytes{0x00}).ok());
  EXPECT_FALSE(PeekMessageKind(Bytes{0xee, 0x01}).ok());
}

TEST(MessageTest, DecodersRejectWrongKind) {
  LocateRequestMsg locate;
  locate.query_id = 1;
  locate.reply_to = 0;
  locate.name = ObjectName(1, 1, 1);
  Bytes encoded = locate.Encode();
  EXPECT_FALSE(InvokeRequestMsg::Decode(encoded).ok());
  EXPECT_FALSE(MoveAckMsg::Decode(encoded).ok());
}

TEST(MessageTest, CheckpointPolicyRejectsBadLevel) {
  BufferWriter writer;
  writer.WriteU32(1);
  writer.WriteU8(99);  // invalid ReliabilityLevel
  writer.WriteU32(2);
  BufferReader reader(writer.buffer());
  EXPECT_FALSE(CheckpointPolicy::Decode(reader).ok());
}

}  // namespace
}  // namespace eden
