#include "src/kernel/node_kernel.h"

#include <algorithm>
#include <cassert>

#include "src/common/log.h"
#include "src/kernel/eden_system.h"

namespace eden {

namespace {

// Joins two asynchronous Status results: OK iff both OK (first error wins).
Future<Status> CombineStatus(Future<Status> a, Future<Status> b) {
  struct JoinState {
    int remaining = 2;
    Status status = OkStatus();
  };
  auto state = std::make_shared<JoinState>();
  Promise<Status> done;
  auto arm = [state, done](Future<Status> f) mutable {
    f.OnReadyValue([state, done](const Status& status) mutable {
      if (!status.ok() && state->status.ok()) {
        state->status = status;
      }
      if (--state->remaining == 0) {
        done.Set(state->status);
      }
    });
  };
  arm(std::move(a));
  arm(std::move(b));
  return done.GetFuture();
}

Future<Status> ReadyStatus(Status status) {
  Promise<Status> promise;
  promise.Set(std::move(status));
  return promise.GetFuture();
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / environment
// ---------------------------------------------------------------------------

NodeKernel::NodeKernel(EdenSystem& system, std::string node_name,
                       KernelConfig config, DiskConfig disk,
                       TransportConfig transport, Simulation* shard_sim)
    : system_(system),
      node_name_(std::move(node_name)),
      sim_(shard_sim != nullptr ? shard_sim : &system.sim()),
      config_(config),
      rng_(system.sim().rng().Fork()) {
  InitMetrics();
  // The transport and store run on this node's shard simulation; message ids
  // keep drawing from the primary rng so the id sequence depends only on
  // node-creation order, never on the shard layout.
  transport_ = std::make_unique<Transport>(*sim_, system_.lan(), transport,
                                           &system_.sim().rng());
  store_ = std::make_unique<StableStore>(*sim_, disk);
  location_ = LocationService::Create(*this, config_.locate.backend);
  transport_->set_metrics(&metrics_);
  store_->set_metrics(&metrics_);
  transport_->SetHandler(
      [this](StationId src, BytesView message) { OnMessage(src, message); });
  transport_->SetSendOutcomeHandler([this](StationId dst, bool delivered) {
    if (delivered) {
      ReportPeerAlive(dst);
    } else {
      ReportPeerFailure(dst);
    }
  });
}

NodeKernel::~NodeKernel() = default;

void NodeKernel::InitMetrics() {
  counters_.invocations_started = &metrics_.counter("kernel.invoke.started");
  counters_.invocations_local = &metrics_.counter("kernel.invoke.local");
  counters_.invocations_remote = &metrics_.counter("kernel.invoke.remote");
  counters_.invocations_completed = &metrics_.counter("kernel.invoke.completed");
  counters_.invocations_timed_out = &metrics_.counter("kernel.invoke.timed_out");
  counters_.invocations_unavailable =
      &metrics_.counter("kernel.invoke.unavailable");
  counters_.dispatches = &metrics_.counter("kernel.dispatches");
  counters_.rights_denied = &metrics_.counter("kernel.rights_denied");
  counters_.queue_refusals = &metrics_.counter("kernel.queue_refusals");
  counters_.locate_queries_broadcast =
      &metrics_.counter("kernel.locate.queries.broadcast");
  counters_.locate_queries_directory =
      &metrics_.counter("kernel.locate.queries.directory");
  counters_.locate_cache_hits = &metrics_.counter("kernel.locate.cache_hits");
  counters_.directory_lookups = &metrics_.counter("kernel.directory.lookups");
  counters_.directory_updates = &metrics_.counter("kernel.directory.updates");
  counters_.directory_stale_updates =
      &metrics_.counter("kernel.directory.stale_updates");
  counters_.directory_stale_forwards =
      &metrics_.counter("kernel.directory.stale_forwards");
  counters_.directory_fallbacks =
      &metrics_.counter("kernel.directory.fallbacks");
  counters_.directory_repairs = &metrics_.counter("kernel.directory.repairs");
  counters_.directory_handoffs = &metrics_.counter("kernel.directory.handoffs");
  counters_.redirects_followed = &metrics_.counter("kernel.redirects_followed");
  counters_.activations = &metrics_.counter("kernel.activations");
  counters_.checkpoints = &metrics_.counter("kernel.checkpoints");
  counters_.checkpoint_bases = &metrics_.counter("kernel.checkpoint.bases");
  counters_.checkpoint_deltas = &metrics_.counter("kernel.checkpoint.deltas");
  counters_.checkpoint_noops = &metrics_.counter("kernel.checkpoint.noops");
  counters_.checkpoint_record_bytes =
      &metrics_.counter("kernel.checkpoint.record_bytes");
  counters_.crashes = &metrics_.counter("kernel.crashes");
  counters_.moves_out = &metrics_.counter("kernel.moves_out");
  counters_.moves_in = &metrics_.counter("kernel.moves_in");
  counters_.replica_fetches = &metrics_.counter("kernel.replica.fetches");
  counters_.replica_reads = &metrics_.counter("kernel.replica.reads");
  counters_.duplicate_requests = &metrics_.counter("kernel.duplicate_requests");
  counters_.stale_requests =
      &metrics_.counter("kernel.reply_cache.stale_requests");
  counters_.reply_cache_cap_evictions =
      &metrics_.counter("kernel.reply_cache.cap_evictions");
  counters_.lease_grants = &metrics_.counter("kernel.lease.grants");
  counters_.lease_recalls = &metrics_.counter("kernel.lease.recalls");
  counters_.lease_renewals = &metrics_.counter("kernel.lease.renewals");
  counters_.lease_expiries = &metrics_.counter("kernel.lease.expiries");
  counters_.lease_local_reads = &metrics_.counter("kernel.lease.local_reads");
  counters_.peer_suspects = &metrics_.counter("kernel.peer.suspects");
  counters_.peer_probes = &metrics_.counter("kernel.peer.probes");
  counters_.peer_recoveries = &metrics_.counter("kernel.peer.recoveries");
  counters_.suspect_fast_fails = &metrics_.counter("kernel.peer.fast_fails");
  counters_.restore_fallbacks = &metrics_.counter("kernel.restore.fallbacks");
  counters_.restore_quarantines =
      &metrics_.counter("kernel.restore.quarantines");
  invoke_latency_local_ = &metrics_.histogram("kernel.invoke.latency.local");
  invoke_latency_remote_ = &metrics_.histogram("kernel.invoke.latency.remote");
  locate_latency_ = &metrics_.histogram("kernel.locate.latency");
  checkpoint_latency_ = &metrics_.histogram("kernel.checkpoint.latency");
  reply_cache_entries_ = &metrics_.gauge("kernel.reply_cache.entries");
}

KernelStats NodeKernel::stats() const {
  KernelStats s;
  s.invocations_started = counters_.invocations_started->value();
  s.invocations_local = counters_.invocations_local->value();
  s.invocations_remote = counters_.invocations_remote->value();
  s.invocations_completed = counters_.invocations_completed->value();
  s.invocations_timed_out = counters_.invocations_timed_out->value();
  s.invocations_unavailable = counters_.invocations_unavailable->value();
  s.dispatches = counters_.dispatches->value();
  s.rights_denied = counters_.rights_denied->value();
  s.queue_refusals = counters_.queue_refusals->value();
  s.locate_queries = counters_.locate_queries_broadcast->value() +
                     counters_.locate_queries_directory->value();
  s.locate_cache_hits = counters_.locate_cache_hits->value();
  s.directory_updates = counters_.directory_updates->value();
  s.directory_stale_forwards = counters_.directory_stale_forwards->value();
  s.redirects_followed = counters_.redirects_followed->value();
  s.activations = counters_.activations->value();
  s.checkpoints = counters_.checkpoints->value();
  s.crashes = counters_.crashes->value();
  s.moves_out = counters_.moves_out->value();
  s.moves_in = counters_.moves_in->value();
  s.replica_fetches = counters_.replica_fetches->value();
  s.replica_reads = counters_.replica_reads->value();
  s.duplicate_requests = counters_.duplicate_requests->value();
  s.lease_grants = counters_.lease_grants->value();
  s.lease_recalls = counters_.lease_recalls->value();
  s.lease_renewals = counters_.lease_renewals->value();
  s.lease_expiries = counters_.lease_expiries->value();
  s.lease_local_reads = counters_.lease_local_reads->value();
  return s;
}

void NodeKernel::RecordInvocationLatency(const PendingInvocation& pending,
                                         bool ok) {
  SimDuration elapsed = sim().now() - pending.started;
  (pending.went_remote ? invoke_latency_remote_ : invoke_latency_local_)
      ->Record(elapsed);
  if (!pending.metrics_class.empty()) {
    metrics_.histogram("kernel.invoke.latency.class." + pending.metrics_class)
        .Record(elapsed);
    // Per-class completion/error counters: the telemetry SLO engine's
    // error-burn inputs (DESIGN.md §17). Not cached — classified invocations
    // are a driver-side minority.
    metrics_
        .counter("kernel.invoke.class." + pending.metrics_class + ".completed")
        .Increment();
    if (!ok) {
      metrics_
          .counter("kernel.invoke.class." + pending.metrics_class + ".errors")
          .Increment();
    }
  }
}

SimDuration NodeKernel::SerializeCost(size_t bytes) const {
  return config_.serialize_per_kb * static_cast<SimDuration>(bytes / 1024 + 1);
}

uint64_t NodeKernel::NewInvocationId() {
  return (static_cast<uint64_t>(station()) << kInvocationSeqBits) |
         next_invocation_seq_++;
}

bool NodeKernel::HasCheckpoint(const ObjectName& name) const {
  return store_->Contains(CheckpointKey(name));
}

std::shared_ptr<ActiveObject> NodeKernel::FindActive(const ObjectName& name) const {
  auto it = active_.find(name);
  if (it == active_.end()) {
    return nullptr;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Peer health (DESIGN.md §11)
// ---------------------------------------------------------------------------

bool NodeKernel::PeerSuspect(StationId peer) const {
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.mode == PeerState::Mode::kSuspect;
}

int NodeKernel::PeerConsecutiveFailures(StationId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.consecutive_failures;
}

void NodeKernel::ReportPeerAlive(StationId peer) {
  // Healthy peers have no entry, so the common case is one failed lookup.
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    return;
  }
  if (it->second.mode == PeerState::Mode::kSuspect) {
    counters_.peer_recoveries->Increment();
  }
  sim().Cancel(it->second.probe_timer);
  peers_.erase(it);
}

void NodeKernel::ReportPeerFailure(StationId peer) {
  if (!config_.peer_health || failed_ || peer == station() ||
      peer == kBroadcastStation) {
    return;
  }
  PeerState& state = peers_[peer];
  state.consecutive_failures++;
  if (state.mode == PeerState::Mode::kHealthy) {
    if (state.consecutive_failures < config_.suspect_after_failures) {
      return;
    }
    state.mode = PeerState::Mode::kSuspect;
    state.probes_sent = 0;
    counters_.peer_suspects->Increment();
  }
  // Suspect (newly or still): keep exactly one probe pending. The failure
  // that lands here may itself be a probe's give-up, which is what walks the
  // interval up the backoff ladder.
  if (state.probe_timer == kInvalidEventId) {
    SchedulePeerProbe(peer);
  }
}

void NodeKernel::SchedulePeerProbe(StationId peer) {
  PeerState& state = peers_[peer];
  double interval = static_cast<double>(config_.probe_interval);
  for (int k = 0;
       k < state.probes_sent &&
       interval < static_cast<double>(config_.probe_interval_max);
       k++) {
    interval *= config_.probe_backoff;
  }
  interval =
      std::min(interval, static_cast<double>(config_.probe_interval_max));
  state.probe_timer = sim().Schedule(static_cast<SimDuration>(interval),
                                     [this, peer] { SendPeerProbe(peer); });
}

void NodeKernel::SendPeerProbe(StationId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end() || failed_) {
    return;
  }
  it->second.probe_timer = kInvalidEventId;
  it->second.probes_sent++;
  counters_.peer_probes->Increment();
  // The transport outcome resolves the probe: an ack reports the peer alive
  // (clearing the suspicion), a give-up reports another failure (scheduling
  // the next, further-backed-off probe).
  transport_->SendReliable(peer, PingMsg{}.Encode());
}

// ---------------------------------------------------------------------------
// Object creation
// ---------------------------------------------------------------------------

StatusOr<Capability> NodeKernel::CreateObject(const std::string& type_name,
                                              Representation initial,
                                              CreateOptions options) {
  if (failed_) {
    return UnavailableError("node is down");
  }
  std::shared_ptr<TypeManager> type = system_.FindType(type_name);
  if (type == nullptr) {
    return NotFoundError("unknown type: " + type_name);
  }
  // Nonce from the primary rng: object names must not depend on which shard
  // the creating node landed on (they feed directory-home hashing).
  ObjectName name(station(), next_object_seq_++,
                  static_cast<uint32_t>(system_.sim().rng().NextU64()));
  auto object = std::make_shared<ActiveObject>(type);
  object->name = name;
  object->core = std::make_shared<ObjectCore>();
  object->core->name = name;
  object->core->rep = std::move(initial);
  object->policy =
      options.policy.value_or(CheckpointPolicy{station(), ReliabilityLevel::kLocal, 0});
  active_[name] = object;
  UpdateActiveGauge();
  PublishResidenceHere(object);
  StartBehaviors(object);
  return Capability(name, Rights::All());
}

// ---------------------------------------------------------------------------
// Client-side invocation
// ---------------------------------------------------------------------------

Future<InvokeResult> NodeKernel::Invoke(const Capability& target,
                                        const std::string& op, InvokeArgs args,
                                        const InvokeOptions& options) {
  Promise<InvokeResult> promise;
  Future<InvokeResult> future = promise.GetFuture();
  StartInvocation(target, op, std::move(args), options, std::move(promise),
                  SpanContext{});
  return future;
}

uint64_t NodeKernel::StartInvocation(const Capability& target,
                                     const std::string& op, InvokeArgs args,
                                     const InvokeOptions& options,
                                     Promise<InvokeResult> promise,
                                     const SpanContext& parent_span) {
  uint64_t id = NewInvocationId();
  if (failed_) {
    promise.Set(InvokeResult::Error(UnavailableError("node is down")));
    return id;
  }
  if (target.IsNull()) {
    promise.Set(InvokeResult::Error(InvalidArgumentError("null capability")));
    return id;
  }
  counters_.invocations_started->Increment();
  PendingInvocation& pending = pending_invocations_[id];
  pending.promise = std::move(promise);
  pending.target = target;
  pending.operation = op;
  pending.args = std::move(args);
  pending.started = sim().now();
  pending.metrics_class = options.metrics_class;
  // A driver call (invalid parent) roots a fresh trace; a nested Invoke hangs
  // off the calling invocation's dispatch span.
  pending.span = StartSpan(parent_span, SpanKind::kInvocation, target.name(),
                           options.trace_label.empty() ? op : options.trace_label);
  SimDuration user_timeout =
      options.timeout > 0 ? options.timeout : config_.default_invoke_timeout;
  pending.user_timer = sim().Schedule(user_timeout, [this, id] {
    counters_.invocations_timed_out->Increment();
    CompleteInvocation(
        id, InvokeResult::Error(TimeoutError("invocation timed out")));
  });
  TryResolve(id);
  return id;
}

void NodeKernel::TryResolve(uint64_t id) {
  auto it = pending_invocations_.find(id);
  if (it == pending_invocations_.end()) {
    return;
  }
  PendingInvocation& pending = it->second;
  const ObjectName& name = pending.target.name();

  // 1. Active on this node.
  if (auto active = active_.find(name); active != active_.end()) {
    DispatchLocally(id, active->second);
    return;
  }

  // 2. Unexpired read lease on this node (DESIGN.md §15): read-class
  // invocations dispatch into the leased copy with zero network traffic.
  // Near expiry the read routes to the home instead, so the reply can
  // piggyback a renewal; write-class invocations always route to the home.
  if (config_.lease_reads) {
    if (auto lease = lease_cache_.find(name); lease != lease_cache_.end()) {
      SimTime now = sim().now();
      if (lease->second.expiry <= now) {
        counters_.lease_expiries->Increment();
        lease_cache_.erase(lease);
      } else {
        const OperationSpec* op =
            lease->second.replica->type->FindOperation(pending.operation);
        if (op != nullptr && op->read_only &&
            lease->second.expiry > now + config_.lease_renew_margin) {
          counters_.lease_local_reads->Increment();
          DispatchLocally(id, lease->second.replica);
          return;
        }
        SendRequestTo(id, lease->second.home);
        return;
      }
    }
  }

  // 3. Cached replica of a frozen object, for read-only operations.
  if (auto replica = replicas_.find(name); replica != replicas_.end()) {
    const OperationSpec* op =
        replica->second->type->FindOperation(pending.operation);
    if (op != nullptr && op->read_only) {
      counters_.replica_reads->Increment();
      DispatchLocally(id, replica->second);
      return;
    }
  }

  // 4. Reincarnation already under way on this node.
  if (activating_.count(name) > 0) {
    activation_local_waiters_[name].push_back(id);
    return;
  }

  // 5. We moved it away: follow the forwarding address — unless this very
  // invocation already found that host dead or ignorant, in which case the
  // pointer is stale and must be dropped (same healing the remote path gets
  // via InvokeRequestMsg::avoid_hosts).
  if (auto fwd = forwarding_.find(name); fwd != forwarding_.end()) {
    if (pending.dead_hosts.count(fwd->second.host) > 0) {
      forwarding_.erase(fwd);
    } else {
      SendRequestTo(id, fwd->second.host);
      return;
    }
  }

  // 6. Location cache.
  if (auto hint = location_cache_.find(name); hint != location_cache_.end()) {
    counters_.locate_cache_hits->Increment();
    SendRequestTo(id, hint->second.host);
    return;
  }

  // 7. Passive on this node (we hold its authoritative checkpoint).
  if (store_->Contains(CheckpointKey(name))) {
    activation_local_waiters_[name].push_back(id);
    BeginActivation(name, pending.span);
    return;
  }

  // 8. Ask the network.
  StartLocate(id);
}

void NodeKernel::DispatchLocally(uint64_t id, std::shared_ptr<ActiveObject> object) {
  auto it = pending_invocations_.find(id);
  if (it == pending_invocations_.end()) {
    return;
  }
  counters_.invocations_local->Increment();
  PendingDispatch dispatch;
  dispatch.local = true;
  dispatch.request.invocation_id = id;
  dispatch.request.reply_to = station();
  dispatch.request.target = it->second.target;
  dispatch.request.operation = it->second.operation;
  dispatch.request.args = it->second.args;
  dispatch.request.span = it->second.span;
  dispatch.span = ChildSpan(it->second.span, SpanKind::kDispatch,
                            it->second.target.name(), it->second.operation);
  SimDuration cost = config_.local_invoke_overhead +
                     SerializeCost(it->second.args.TotalBytes());
  sim().Schedule(cost, [this, object = std::move(object),
                        dispatch = std::move(dispatch)]() mutable {
    AcceptDispatch(object, std::move(dispatch));
  });
}

void NodeKernel::SendRequestTo(uint64_t id, StationId host) {
  auto it = pending_invocations_.find(id);
  if (it == pending_invocations_.end()) {
    return;
  }
  if (host == station()) {
    // A redirect or hint pointing at ourselves (e.g. the object moved TO this
    // node while our request was in flight): resolve locally. Drop the hint
    // first so a stale self-pointing cache entry cannot loop.
    location_cache_.erase(it->second.target.name());
    TryResolve(id);
    return;
  }
  if (config_.peer_health && PeerSuspect(host)) {
    // Fast-fail: recent traffic already proved this peer unresponsive, so
    // don't burn a full attempt timeout on it — count the attempt and
    // re-locate now. The probe loop owns its rehabilitation.
    counters_.suspect_fast_fails->Increment();
    AnnotateSpan(it->second.span,
                 "suspect_fast_fail host " + std::to_string(host));
    FailAttempt(id, host, "object unreachable");
    return;
  }
  PendingInvocation& pending = it->second;
  counters_.invocations_remote->Increment();
  pending.current_host = host;
  pending.went_remote = true;

  InvokeRequestMsg msg;
  msg.invocation_id = id;
  msg.reply_to = station();
  msg.target = pending.target;
  msg.operation = pending.operation;
  msg.args = pending.args;
  msg.avoid_hosts.assign(pending.dead_hosts.begin(), pending.dead_hosts.end());
  msg.span = pending.span;
  // Every invocation below our oldest pending one has finished.
  msg.low_water = pending_invocations_.begin()->first;
  Bytes encoded = msg.Encode();

  sim().Cancel(pending.attempt_timer);
  pending.attempt_timer =
      sim().Schedule(AttemptTimeout(pending.attempts, encoded.size()),
                     [this, id] { OnAttemptTimeout(id); });

  sim().Schedule(SerializeCost(encoded.size()),
                 [this, host, span = pending.span,
                  encoded = std::move(encoded)]() mutable {
                   if (!failed_) {
                     transport_->SendReliable(host, std::move(encoded), span);
                   }
                 });
}

SimDuration NodeKernel::AttemptTimeout(int attempts, size_t bytes) {
  double timeout = static_cast<double>(config_.attempt_timeout);
  for (int k = 0;
       k < attempts && timeout < static_cast<double>(config_.attempt_timeout_max);
       k++) {
    timeout *= config_.attempt_backoff;
  }
  timeout = std::min(timeout, static_cast<double>(config_.attempt_timeout_max));
  if (config_.attempt_jitter > 0) {
    timeout *= 1.0 + (rng_.NextDouble() * 2.0 - 1.0) * config_.attempt_jitter;
  }
  return static_cast<SimDuration>(timeout) + SerializeCost(bytes);
}

void NodeKernel::FailAttempt(uint64_t id, StationId host,
                             const char* give_up_message) {
  auto it = pending_invocations_.find(id);
  if (it == pending_invocations_.end()) {
    return;
  }
  PendingInvocation& pending = it->second;
  pending.attempts++;
  if (host != kNoStation) {
    pending.dead_hosts.insert(host);
  }
  AnnotateSpan(pending.span, "attempt " + std::to_string(pending.attempts) +
                                 " failed at host " + std::to_string(host));
  location_cache_.erase(pending.target.name());
  if (pending.attempts >= config_.max_attempts) {
    counters_.invocations_unavailable->Increment();
    CompleteInvocation(
        id, InvokeResult::Error(UnavailableError(give_up_message)));
    return;
  }
  StartLocate(id);
}

void NodeKernel::OnAttemptTimeout(uint64_t id) {
  auto it = pending_invocations_.find(id);
  if (it == pending_invocations_.end()) {
    return;
  }
  StationId host = it->second.current_host;
  // The silence that timed this attempt out is also peer-health evidence.
  if (host != kNoStation) {
    ReportPeerFailure(host);
  }
  FailAttempt(id, host, "object unreachable");
}

void NodeKernel::StartLocate(uint64_t id) {
  auto it = pending_invocations_.find(id);
  if (it == pending_invocations_.end()) {
    return;
  }
  const ObjectName& name = it->second.target.name();
  if (auto existing = locate_by_name_.find(name); existing != locate_by_name_.end()) {
    pending_locates_[existing->second].waiting.push_back(id);
    return;
  }
  uint64_t query_id = next_query_id_++;
  PendingLocate& locate = pending_locates_[query_id];
  locate.name = name;
  locate.started = sim().now();
  locate.waiting.push_back(id);
  locate.span = ChildSpan(it->second.span, SpanKind::kLocate, name, "locate");
  locate_by_name_[name] = query_id;
  LocateAttempt(query_id);
}

void NodeKernel::LocateAttempt(uint64_t query_id) {
  auto it = pending_locates_.find(query_id);
  if (it == pending_locates_.end()) {
    return;
  }
  // The object may have arrived here (move, reincarnation) after the locate
  // began; our own query would never reach us, so re-check locally.
  if (active_.count(it->second.name) > 0 || activating_.count(it->second.name) > 0 ||
      store_->Contains(CheckpointKey(it->second.name))) {
    std::vector<uint64_t> waiting = std::move(it->second.waiting);
    sim().Cancel(it->second.timer);
    locate_latency_->Record(sim().now() - it->second.started);
    location_->EndQuery(query_id, "resolved_locally");
    EndSpan(it->second.span, "resolved_locally");
    locate_by_name_.erase(it->second.name);
    pending_locates_.erase(it);
    for (uint64_t id : waiting) {
      TryResolve(id);
    }
    return;
  }
  PendingLocate& locate = it->second;
  // Hosts the waiting invocations proved dead or ignorant: the backends drop
  // stale records pointing there instead of returning them.
  std::set<StationId> dead;
  for (uint64_t id : locate.waiting) {
    auto w = pending_invocations_.find(id);
    if (w != pending_invocations_.end()) {
      dead.insert(w->second.dead_hosts.begin(), w->second.dead_hosts.end());
    }
  }
  std::vector<StationId> avoid(dead.begin(), dead.end());
  // Arm the round timer BEFORE issuing the round: a directory query whose
  // home is this very node can resolve synchronously through ResolveLocate,
  // which cancels the timer and erases the PendingLocate.
  locate.timer = sim().Schedule(config_.locate.timeout, [this, query_id] {
    OnLocateRoundFailed(query_id);
  });
  location_->QueryRound(query_id, locate.name, locate.attempts, avoid,
                        locate.span);
}

void NodeKernel::OnLocateRoundFailed(uint64_t query_id) {
  auto it = pending_locates_.find(query_id);
  if (it == pending_locates_.end()) {
    return;
  }
  it->second.attempts++;
  AnnotateSpan(it->second.span,
               "round timeout #" + std::to_string(it->second.attempts));
  if (it->second.attempts >= config_.locate.max_attempts) {
    ObjectName name = it->second.name;
    std::vector<uint64_t> waiting = std::move(it->second.waiting);
    SpanContext locate_span = it->second.span;
    location_->EndQuery(query_id, "not_found");
    locate_by_name_.erase(name);
    pending_locates_.erase(it);
    if (config_.restore_fallback && !store_->Contains(CheckpointKey(name)) &&
        store_->Contains(MirrorKey(name))) {
      // Nobody answered for the object, but we hold its mirror chain: the
      // primary site is gone, so promote the mirror and reincarnate here
      // rather than failing the waiters (RunActivation does the promote).
      EndSpan(locate_span, "mirror_fallback");
      SpanContext act_parent;
      if (!waiting.empty()) {
        auto w = pending_invocations_.find(waiting.front());
        if (w != pending_invocations_.end()) {
          act_parent = w->second.span;
        }
      }
      for (uint64_t id : waiting) {
        activation_local_waiters_[name].push_back(id);
      }
      BeginActivation(name, act_parent);
      return;
    }
    EndSpan(locate_span, "not_found");
    for (uint64_t id : waiting) {
      counters_.invocations_unavailable->Increment();
      CompleteInvocation(
          id, InvokeResult::Error(UnavailableError("object not found")));
    }
    return;
  }
  LocateAttempt(query_id);
}

void NodeKernel::RetryLocateNow(uint64_t query_id) {
  auto it = pending_locates_.find(query_id);
  if (it == pending_locates_.end()) {
    return;
  }
  // Short-circuit the round timer: the round is already known lost (a home
  // answered "unknown"), so count it against the budget and move on now.
  sim().Cancel(it->second.timer);
  it->second.timer = kInvalidEventId;
  OnLocateRoundFailed(query_id);
}

void NodeKernel::ResolveLocate(uint64_t query_id, StationId host,
                               uint64_t epoch, bool active) {
  auto it = pending_locates_.find(query_id);
  if (it == pending_locates_.end()) {
    return;
  }
  CacheLocation(it->second.name, ResidenceRecord{host, epoch, active});
  sim().Cancel(it->second.timer);
  locate_latency_->Record(sim().now() - it->second.started);
  location_->EndQuery(query_id, active ? "resolved" : "passive_host");
  EndSpan(it->second.span,
          active ? std::string() : std::string("passive_host"));
  std::vector<uint64_t> waiting = std::move(it->second.waiting);
  locate_by_name_.erase(it->second.name);
  pending_locates_.erase(it);
  for (uint64_t id : waiting) {
    SendRequestTo(id, host);
  }
}

void NodeKernel::CacheLocation(const ObjectName& name,
                               const ResidenceRecord& record) {
  auto [it, inserted] = location_cache_.try_emplace(name, record);
  if (inserted) {
    return;
  }
  ResidenceRecord& existing = it->second;
  if (record.epoch > existing.epoch ||
      (record.epoch == existing.epoch && record.active && !existing.active)) {
    existing = record;
  }
}

uint64_t NodeKernel::PublishResidenceHere(
    const std::shared_ptr<ActiveObject>& object) {
  // +1 so an object acquired at the simulation origin still outranks the
  // passive-sighting sentinel epoch 0.
  object->location_epoch = static_cast<uint64_t>(sim().now()) + 1;
  location_->PublishResidence(
      object->name, ResidenceRecord{station(), object->location_epoch, true});
  return object->location_epoch;
}

void NodeKernel::CompleteInvocation(uint64_t id, InvokeResult result) {
  auto it = pending_invocations_.find(id);
  if (it == pending_invocations_.end()) {
    return;  // late reply, duplicate, or already timed out
  }
  sim().Cancel(it->second.user_timer);
  sim().Cancel(it->second.attempt_timer);
  EndSpan(it->second.span,
          result.status.ok()
              ? std::string()
              : std::string(StatusCodeName(result.status.code())));
  RecordInvocationLatency(it->second, result.status.ok());
  Promise<InvokeResult> promise = std::move(it->second.promise);
  pending_invocations_.erase(it);
  counters_.invocations_completed->Increment();
  promise.Set(std::move(result));
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void NodeKernel::OnMessage(StationId src, BytesView message) {
  if (failed_) {
    return;
  }
  // Per-node determinism oracle: the full inbound stream in arrival order.
  digest_.Mix(static_cast<uint64_t>(sim().now()));
  digest_.Mix(src);
  digest_.Mix(Hash64(message));
  // Any traffic from a peer is liveness evidence (find-only on healthy peers).
  ReportPeerAlive(src);
  auto kind = PeekMessageKind(message);
  if (!kind.ok()) {
    EDEN_LOG(kWarning, "kernel") << node_name_ << ": undecodable message";
    return;
  }
  switch (*kind) {
    case MessageKind::kInvokeRequest: {
      auto msg = InvokeRequestMsg::Decode(message);
      if (msg.ok()) {
        HandleInvokeRequest(src, std::move(*msg));
      }
      break;
    }
    case MessageKind::kInvokeReply: {
      auto msg = InvokeReplyMsg::Decode(message);
      if (msg.ok()) {
        HandleInvokeReply(src, *msg);
      }
      break;
    }
    case MessageKind::kInvokeRedirect: {
      auto msg = InvokeRedirectMsg::Decode(message);
      if (msg.ok()) {
        HandleInvokeRedirect(src, *msg);
      }
      break;
    }
    case MessageKind::kLocateRequest: {
      auto msg = LocateRequestMsg::Decode(message);
      if (msg.ok()) {
        HandleLocateRequest(src, *msg);
      }
      break;
    }
    case MessageKind::kLocateReply: {
      auto msg = LocateReplyMsg::Decode(message);
      if (msg.ok()) {
        HandleLocateReply(*msg);
      }
      break;
    }
    case MessageKind::kMoveTransfer: {
      auto msg = MoveTransferMsg::Decode(message);
      if (msg.ok()) {
        HandleMoveTransfer(src, std::move(*msg));
      }
      break;
    }
    case MessageKind::kMoveAck: {
      auto msg = MoveAckMsg::Decode(message);
      if (msg.ok()) {
        HandleMoveAck(*msg);
      }
      break;
    }
    case MessageKind::kCheckpointPut: {
      auto msg = CheckpointPutMsg::Decode(message);
      if (msg.ok()) {
        HandleCheckpointPut(src, std::move(*msg));
      }
      break;
    }
    case MessageKind::kCheckpointAck: {
      auto msg = CheckpointAckMsg::Decode(message);
      if (msg.ok()) {
        HandleCheckpointAck(*msg);
      }
      break;
    }
    case MessageKind::kCheckpointErase: {
      auto msg = CheckpointEraseMsg::Decode(message);
      if (msg.ok()) {
        HandleCheckpointErase(*msg);
      }
      break;
    }
    case MessageKind::kReplicaFetch: {
      auto msg = ReplicaFetchMsg::Decode(message);
      if (msg.ok()) {
        HandleReplicaFetch(src, *msg);
      }
      break;
    }
    case MessageKind::kReplicaReply: {
      auto msg = ReplicaReplyMsg::Decode(message);
      if (msg.ok()) {
        HandleReplicaReply(src, std::move(*msg));
      }
      break;
    }
    case MessageKind::kPing:
      // Health probe: the transport-level ack already answered it.
      break;
    case MessageKind::kDirectoryUpdate: {
      auto msg = DirectoryUpdateMsg::Decode(message);
      if (msg.ok()) {
        location_->HandleDirectoryUpdate(src, *msg);
      }
      break;
    }
    case MessageKind::kDirectoryLookup: {
      auto msg = DirectoryLookupMsg::Decode(message);
      if (msg.ok()) {
        location_->HandleDirectoryLookup(src, *msg);
      }
      break;
    }
    case MessageKind::kDirectoryReply: {
      auto msg = DirectoryReplyMsg::Decode(message);
      if (msg.ok()) {
        location_->HandleDirectoryReply(*msg);
      }
      break;
    }
    case MessageKind::kLeaseGrant: {
      auto msg = LeaseGrantMsg::Decode(message);
      if (msg.ok()) {
        HandleLeaseGrant(src, std::move(*msg));
      }
      break;
    }
    case MessageKind::kLeaseRecall: {
      auto msg = LeaseRecallMsg::Decode(message);
      if (msg.ok()) {
        HandleLeaseRecall(src, *msg);
      }
      break;
    }
    case MessageKind::kLeaseRelease: {
      auto msg = LeaseReleaseMsg::Decode(message);
      if (msg.ok()) {
        HandleLeaseRelease(src, *msg);
      }
      break;
    }
  }
}

void NodeKernel::HandleInvokeRequest(StationId src, InvokeRequestMsg msg) {
  uint64_t id = msg.invocation_id;
  uint64_t client = id >> kInvocationSeqBits;

  // Acknowledgement (Birrell & Nelson): the invoker has finished everything
  // below its floor, so a request down there is a stale retry that nobody
  // awaits. Drop it; executing it again would break at-most-once.
  if (auto floor = reply_floors_.find(client);
      floor != reply_floors_.end() && id < floor->second) {
    counters_.stale_requests->Increment();
    return;
  }
  RaiseReplyFloor(client, msg.low_water);

  // At-most-once execution: a retransmitted request must not run twice.
  if (auto cached = reply_cache_.find(id); cached != reply_cache_.end()) {
    counters_.duplicate_requests->Increment();
    InvokeReplyMsg reply;
    reply.invocation_id = id;
    reply.result = cached->second.result;
    reply.target_frozen = cached->second.frozen;
    transport_->SendReliable(msg.reply_to, reply.Encode());
    return;
  }
  if (requests_in_progress_.count(id) > 0) {
    counters_.duplicate_requests->Increment();
    return;  // still executing; the eventual reply covers this duplicate
  }

  const ObjectName name = msg.target.name();
  StationId reply_to = msg.reply_to;
  PendingDispatch dispatch;
  dispatch.local = false;
  dispatch.request = std::move(msg);
  // Opened only on paths that accept the request for execution here; redirect
  // paths reply without ever owning the invocation.
  auto open_dispatch_span = [this, &dispatch, &name] {
    dispatch.span = ChildSpan(dispatch.request.span, SpanKind::kDispatch, name,
                              dispatch.request.operation);
  };

  if (auto it = active_.find(name); it != active_.end()) {
    requests_in_progress_.insert(id);
    open_dispatch_span();
    AcceptDispatch(it->second, std::move(dispatch));
    return;
  }
  if (activating_.count(name) > 0) {
    requests_in_progress_.insert(id);
    open_dispatch_span();
    activation_remote_hold_[name].push_back(std::move(dispatch));
    return;
  }
  if (auto fwd = forwarding_.find(name); fwd != forwarding_.end()) {
    bool stale = false;
    for (StationId avoid : dispatch.request.avoid_hosts) {
      if (fwd->second.host == avoid) {
        stale = true;
        break;
      }
    }
    if (stale) {
      // The invoker found the forwarded-to node dead (or ignorant). The
      // active copy is gone; our checkpoint, if any, is now authoritative.
      forwarding_.erase(fwd);
    } else {
      // The invoker landed on a stale host: hand back a version-stamped
      // forward hint so its cache merges it by epoch.
      counters_.directory_stale_forwards->Increment();
      InvokeRedirectMsg redirect;
      redirect.invocation_id = id;
      redirect.name = name;
      redirect.new_host = fwd->second.host;
      redirect.epoch = fwd->second.epoch;
      transport_->SendReliable(reply_to, redirect.Encode());
      return;
    }
  }
  if (store_->Contains(CheckpointKey(name))) {
    requests_in_progress_.insert(id);
    open_dispatch_span();
    SpanContext act_parent = dispatch.request.span;
    activation_remote_hold_[name].push_back(std::move(dispatch));
    BeginActivation(name, act_parent);
    return;
  }
  if (config_.restore_fallback && store_->Contains(MirrorKey(name))) {
    // Mirror-only holder targeted directly (our delayed locate reply won,
    // so the primary passive site is gone): promote the mirror chain and
    // reincarnate from it (RunActivation does the promote).
    requests_in_progress_.insert(id);
    open_dispatch_span();
    SpanContext act_parent = dispatch.request.span;
    activation_remote_hold_[name].push_back(std::move(dispatch));
    BeginActivation(name, act_parent);
    return;
  }
  InvokeRedirectMsg redirect;
  redirect.invocation_id = id;
  redirect.name = name;
  redirect.new_host = kNoStation;
  transport_->SendReliable(reply_to, redirect.Encode());
}

void NodeKernel::HandleInvokeReply(StationId src, const InvokeReplyMsg& msg) {
  auto it = pending_invocations_.find(msg.invocation_id);
  if (it == pending_invocations_.end()) {
    return;
  }
  ObjectName name = it->second.target.name();
  SpanContext inv_span = it->second.span;
  // Renewal piggyback (DESIGN.md §15): the home extends a lease we already
  // hold on this object. Only forward extensions apply — a lease recalled or
  // re-granted in the meantime carries a different version and the stale
  // piggyback simply loses the max.
  if (msg.lease_renew_expiry != 0) {
    if (auto lease = lease_cache_.find(name);
        lease != lease_cache_.end() && lease->second.home == src) {
      lease->second.expiry = std::max(
          lease->second.expiry, static_cast<SimTime>(msg.lease_renew_expiry));
    }
  }
  CompleteInvocation(msg.invocation_id, msg.result);
  if (msg.target_frozen && config_.cache_frozen_replicas &&
      replicas_.count(name) == 0 && active_.count(name) == 0) {
    MaybeFetchReplica(name, src, inv_span);
  }
}

void NodeKernel::HandleInvokeRedirect(StationId src, const InvokeRedirectMsg& msg) {
  auto it = pending_invocations_.find(msg.invocation_id);
  if (it == pending_invocations_.end()) {
    return;
  }
  PendingInvocation& pending = it->second;
  sim().Cancel(pending.attempt_timer);
  pending.attempt_timer = kInvalidEventId;
  if (msg.new_host == kNoStation || pending.dead_hosts.count(msg.new_host) > 0) {
    if (msg.new_host == kNoStation) {
      // The sender is alive but knows nothing about the object: any
      // forwarding address still pointing at it is stale. Recording it lets
      // nodes further back the chain erase their pointers, so a multi-hop
      // stale chain heals across locate rounds.
      pending.dead_hosts.insert(src);
    }
    location_cache_.erase(msg.name);
    pending.attempts++;
    if (pending.attempts >= config_.max_attempts) {
      counters_.invocations_unavailable->Increment();
      CompleteInvocation(msg.invocation_id,
                         InvokeResult::Error(UnavailableError("object lost")));
      return;
    }
    StartLocate(msg.invocation_id);
    return;
  }
  pending.redirects++;
  if (pending.redirects > config_.max_redirects) {
    counters_.invocations_unavailable->Increment();
    CompleteInvocation(
        msg.invocation_id,
        InvokeResult::Error(UnavailableError("forwarding chain too long")));
    return;
  }
  counters_.redirects_followed->Increment();
  AnnotateSpan(pending.span, "redirect from host " + std::to_string(src) +
                                 " to host " + std::to_string(msg.new_host));
  // Merge the version-stamped hint; if the cache already holds a strictly
  // newer sighting (the object moved again and that move's update got here
  // first), follow the cache instead of the older hint.
  CacheLocation(msg.name, ResidenceRecord{msg.new_host, msg.epoch, true});
  auto hint = location_cache_.find(msg.name);
  SendRequestTo(msg.invocation_id,
                hint != location_cache_.end() ? hint->second.host : msg.new_host);
}

void NodeKernel::HandleLocateRequest(StationId src, const LocateRequestMsg& msg) {
  const ObjectName name = msg.name;
  // Replicas never answer: only the authoritative copy counts.
  bool is_active_here = active_.count(name) > 0 || activating_.count(name) > 0;
  if (is_active_here) {
    LocateReplyMsg reply;
    reply.query_id = msg.query_id;
    reply.name = name;
    reply.host = station();
    reply.active = true;
    // A still-activating object has no epoch minted yet; 0 + active still
    // beats passive sightings and fills empty slots.
    auto it = active_.find(name);
    reply.epoch = it != active_.end() ? it->second->location_epoch : 0;
    transport_->SendBestEffort(msg.reply_to, reply.Encode());
    return;
  }
  if (forwarding_.count(name) > 0 && !store_->Contains(CheckpointKey(name))) {
    return;  // the new host will answer for itself
  }
  // If we hold the primary checkpoint we answer even with a forwarding entry
  // outstanding: if the new host is alive its immediate "active" reply beats
  // our delayed one; if it died, we are the only path back to the object.
  if (store_->Contains(CheckpointKey(name))) {
    // Delay so an active host's answer always arrives first.
    sim().Schedule(config_.locate.passive_reply_delay,
                   [this, query_id = msg.query_id, name,
                    reply_to = msg.reply_to] {
                     if (failed_) {
                       return;
                     }
                     if (!store_->Contains(CheckpointKey(name))) {
                       return;
                     }
                     LocateReplyMsg reply;
                     reply.query_id = query_id;
                     reply.name = name;
                     reply.host = station();
                     reply.active = active_.count(name) > 0;
                     transport_->SendBestEffort(reply_to, reply.Encode());
                   });
    return;
  }
  if (config_.restore_fallback && store_->Contains(MirrorKey(name))) {
    // Mirror-only holder: answer at twice the passive delay, so both an
    // active host and the primary passive site always win. If neither
    // exists any more, this reply is the invoker's only path back to the
    // state — the resulting request promotes our mirror chain.
    sim().Schedule(config_.locate.passive_reply_delay * 2,
                   [this, query_id = msg.query_id, name,
                    reply_to = msg.reply_to] {
                     if (failed_ || store_->Contains(CheckpointKey(name)) ||
                         !store_->Contains(MirrorKey(name))) {
                       return;
                     }
                     LocateReplyMsg reply;
                     reply.query_id = query_id;
                     reply.name = name;
                     reply.host = station();
                     reply.active = false;
                     transport_->SendBestEffort(reply_to, reply.Encode());
                   });
  }
}

void NodeKernel::HandleLocateReply(const LocateReplyMsg& msg) {
  ResidenceRecord record{msg.host, msg.epoch, msg.active};
  auto it = pending_locates_.find(msg.query_id);
  if (it == pending_locates_.end()) {
    // Late reply (another holder already answered): still a sighting.
    CacheLocation(msg.name, record);
    return;
  }
  // The first broadcast reply for a still-pending query is what a fallback
  // round learned: let the directory repair its home partition from it.
  location_->NoteResidence(msg.name, record);
  ResolveLocate(msg.query_id, msg.host, msg.epoch, msg.active);
}

// ---------------------------------------------------------------------------
// Server-side dispatch: the coordinator
// ---------------------------------------------------------------------------

void NodeKernel::AcceptDispatch(const std::shared_ptr<ActiveObject>& object,
                                PendingDispatch d) {
  if (!object->core->alive) {
    // A local dispatch is scheduled a shortcut overhead ahead; if the object
    // moved away in between, follow it as the move's queued dispatches did.
    if (auto fwd = forwarding_.find(object->name);
        fwd != forwarding_.end() && active_.count(object->name) == 0) {
      ForwardDispatch(d, fwd->second.host);
      return;
    }
    RefuseDispatch(d, UnavailableError("object crashed"));
    return;
  }
  if (object->activating || object->moving) {
    object->hold_queue.push_back(std::move(d));
    return;
  }
  const OperationSpec* op = object->type->FindOperation(d.request.operation);
  if (op == nullptr) {
    RefuseDispatch(d, UnimplementedError("no operation \"" + d.request.operation +
                                         "\" on type " + object->type->name()));
    return;
  }
  if (!d.request.target.rights().Covers(op->required_rights)) {
    counters_.rights_denied->Increment();
    RefuseDispatch(d, PermissionDeniedError("capability lacks rights for \"" +
                                            d.request.operation + "\""));
    return;
  }
  if (object->frozen && op->mutates && !op->read_only) {
    RefuseDispatch(d, FailedPreconditionError("object is frozen"));
    return;
  }
  // Lease write gate (DESIGN.md §15): a write-class invocation cannot touch
  // the representation while any node may still be serving leased reads —
  // recall the leases (or wait out the post-reincarnation quiesce) first.
  // Admitted writes are counted in lease_mutators_pending from here until
  // they terminate, so no lease is granted over a queued or running write.
  if (config_.lease_reads && !object->is_replica && op->mutates &&
      !op->read_only) {
    if (LeaseWriteBlocked(object)) {
      StartLeaseRecall(object, std::move(d));
      return;
    }
    d.lease_mutator = true;
    object->lease_mutators_pending++;
  }
  size_t class_index = op->invocation_class;
  const InvocationClassSpec& spec = object->type->classes()[class_index];
  if (object->class_running[class_index] < spec.concurrency_limit) {
    object->class_running[class_index]++;
    object->total_running++;
    counters_.dispatches->Increment();
    RunInvocation(object, std::move(d), op);
    return;
  }
  if (object->class_queues[class_index].size() < spec.queue_limit) {
    object->class_queues[class_index].push_back(std::move(d));
    return;
  }
  if (d.lease_mutator) {
    object->lease_mutators_pending--;
  }
  counters_.queue_refusals->Increment();
  RefuseDispatch(d, ResourceExhaustedError("invocation class \"" + spec.name +
                                           "\" queue overflow"));
}

DetachedTask NodeKernel::RunInvocation(std::shared_ptr<ActiveObject> object,
                                       PendingDispatch d, const OperationSpec* op) {
  size_t class_index = op->invocation_class;
  // Coordinator overhead: rights were checked, now build the process.
  co_await SleepFor(sim(), config_.dispatch_overhead);
  if (!object->core->alive) {
    if (d.lease_mutator) {
      object->lease_mutators_pending--;
    }
    ReplyTo(d, InvokeResult::Error(AbortedError("object crashed")), false);
    FinishDispatch(object, class_index);
    co_return;
  }
  InvokeContext context(this, object, d.request.operation, d.request.args,
                        d.request.target.rights(), d.span);
  InvokeResult result = co_await op->handler(context);
  if (d.lease_mutator) {
    object->lease_mutators_pending--;
  }
  // A successful remote read-class invocation is the lease machinery's cue:
  // grant (or renew) and piggyback the expiry on the reply (DESIGN.md §15).
  uint64_t lease_renew_expiry = 0;
  if (!d.local && op->read_only && result.status.ok()) {
    lease_renew_expiry = MaybeGrantLease(object, d.request.reply_to);
  }
  // Even if the object crashed or moved while we ran, the invoker gets the
  // produced reply (the work happened); bookkeeping checks map identity.
  ReplyTo(d, result, object->frozen, lease_renew_expiry);
  FinishDispatch(object, class_index);
}

void NodeKernel::FinishDispatch(const std::shared_ptr<ActiveObject>& object,
                                size_t class_index) {
  object->class_running[class_index]--;
  object->total_running--;
  object->invocations_served++;
  if (object->drain_waiter.has_value() &&
      object->total_running <= object->drain_threshold) {
    Promise<Unit> waiter = std::move(*object->drain_waiter);
    object->drain_waiter.reset();
    waiter.Set(Unit{});
  }
  PumpQueues(object);
}

void NodeKernel::PumpQueues(const std::shared_ptr<ActiveObject>& object) {
  if (!object->core->alive || object->activating || object->moving) {
    return;
  }
  for (size_t ci = 0; ci < object->class_queues.size(); ci++) {
    const InvocationClassSpec& spec = object->type->classes()[ci];
    while (object->class_running[ci] < spec.concurrency_limit &&
           !object->class_queues[ci].empty()) {
      PendingDispatch d = std::move(object->class_queues[ci].front());
      object->class_queues[ci].pop_front();
      const OperationSpec* op = object->type->FindOperation(d.request.operation);
      if (op == nullptr) {
        if (d.lease_mutator) {
          object->lease_mutators_pending--;
        }
        RefuseDispatch(d, UnimplementedError("operation vanished"));
        continue;
      }
      object->class_running[ci]++;
      object->total_running++;
      counters_.dispatches->Increment();
      RunInvocation(object, std::move(d), op);
    }
  }
}

void NodeKernel::ReplyTo(const PendingDispatch& d, InvokeResult result,
                         bool target_frozen, uint64_t lease_renew_expiry) {
  uint64_t id = d.request.invocation_id;
  EndSpan(d.span, result.status.ok()
                      ? std::string()
                      : std::string(StatusCodeName(result.status.code())));
  if (d.local) {
    SimDuration cost = SerializeCost(result.results.TotalBytes());
    sim().Schedule(cost, [this, id, result = std::move(result)] {
      CompleteInvocation(id, result);
    });
    return;
  }
  CacheReply(id, d.request.target.name(), result, target_frozen);
  requests_in_progress_.erase(id);
  InvokeReplyMsg reply;
  reply.invocation_id = id;
  reply.result = std::move(result);
  reply.target_frozen = target_frozen;
  reply.lease_renew_expiry = lease_renew_expiry;
  Bytes encoded = reply.Encode();
  // Receive-side kernel processing for the request plus reply marshalling.
  SimDuration cost = config_.remote_receive_overhead + SerializeCost(encoded.size());
  sim().Schedule(cost, [this, dst = d.request.reply_to, span = d.span,
                        encoded = std::move(encoded)]() mutable {
    if (!failed_) {
      // The reply's wire span parents to the (just closed) dispatch span:
      // the trace stays open until the reply is acknowledged, so its ACK
      // leg is attributed rather than lost.
      transport_->SendReliable(dst, std::move(encoded), span);
    }
  });
}

void NodeKernel::RefuseDispatch(const PendingDispatch& d, Status status) {
  ReplyTo(d, InvokeResult::Error(std::move(status)), false);
}

void NodeKernel::ForwardDispatch(PendingDispatch& d, StationId host) {
  if (d.local) {
    SendRequestTo(d.request.invocation_id, host);
  } else {
    requests_in_progress_.erase(d.request.invocation_id);
    transport_->SendReliable(host, d.request.Encode());
  }
}

void NodeKernel::RaiseReplyFloor(uint64_t client, uint64_t mark) {
  uint64_t base = client << kInvocationSeqBits;
  auto floor = reply_floors_.try_emplace(client, base).first;
  if (mark <= floor->second) {
    return;
  }
  floor->second = mark;
  reply_cache_.erase(reply_cache_.lower_bound(base),
                     reply_cache_.lower_bound(mark));
  reply_cache_entries_->Set(static_cast<int64_t>(reply_cache_.size()));
}

void NodeKernel::CacheReply(uint64_t invocation_id, const ObjectName& object,
                            const InvokeResult& result, bool frozen) {
  // The invoker may have finished already (timed out) and said so.
  if (auto floor = reply_floors_.find(invocation_id >> kInvocationSeqBits);
      floor != reply_floors_.end() && invocation_id < floor->second) {
    return;
  }
  reply_cache_[invocation_id] = CachedReply{result, frozen, object};
  while (reply_cache_.size() > config_.reply_cache_capacity) {
    reply_cache_.erase(reply_cache_.begin());
    counters_.reply_cache_cap_evictions->Increment();
  }
  reply_cache_entries_->Set(static_cast<int64_t>(reply_cache_.size()));
}

// ---------------------------------------------------------------------------
// Read leases (DESIGN.md §15)
// ---------------------------------------------------------------------------

uint64_t NodeKernel::MaybeGrantLease(const std::shared_ptr<ActiveObject>& object,
                                     StationId reader) {
  // No grant while anything could invalidate the snapshot: a write queued or
  // running, a recall open, a move draining, the post-reincarnation quiesce.
  if (!config_.lease_reads || object->is_replica || object->frozen ||
      !object->core->alive || object->moving || draining_ ||
      object->lease_recall.has_value() || object->lease_mutators_pending > 0 ||
      reader == station()) {
    return 0;
  }
  SimTime now = sim().now();
  if (now < object->lease_quiesce_until) {
    return 0;
  }
  SimTime expiry = now + config_.lease_duration;
  if (auto it = object->lease_holders.find(reader);
      it != object->lease_holders.end() && it->second.expiry > now) {
    // Renewal rides the invoke reply alone: the holder's cached copy is
    // still the current state (no write got past the gate since the grant),
    // so no new snapshot needs to travel.
    it->second.expiry = std::max(it->second.expiry, expiry);
    counters_.lease_renewals->Increment();
    return static_cast<uint64_t>(it->second.expiry);
  }
  uint64_t seq = ++object->lease_seq;
  object->lease_holders[reader] = {expiry, seq};
  counters_.lease_grants->Increment();
  LeaseGrantMsg grant;
  grant.name = object->name;
  grant.type_name = object->type->name();
  grant.representation = object->core->rep;  // snapshot at grant time
  grant.expiry = static_cast<uint64_t>(expiry);
  grant.epoch = object->location_epoch;
  grant.seq = seq;
  Bytes encoded = grant.Encode();
  sim().Schedule(SerializeCost(encoded.size()),
                 [this, reader, encoded = std::move(encoded)]() mutable {
                   if (!failed_) {
                     transport_->SendReliable(reader, std::move(encoded));
                   }
                 });
  return static_cast<uint64_t>(expiry);
}

bool NodeKernel::LeaseWriteBlocked(const std::shared_ptr<ActiveObject>& object) {
  if (object->lease_recall.has_value()) {
    return true;
  }
  SimTime now = sim().now();
  if (object->lease_quiesce_until > now) {
    return true;
  }
  // Prune holders whose term lapsed — their copies self-invalidate, no
  // recall owed.
  for (auto it = object->lease_holders.begin();
       it != object->lease_holders.end();) {
    if (it->second.expiry <= now) {
      counters_.lease_expiries->Increment();
      it = object->lease_holders.erase(it);
    } else {
      ++it;
    }
  }
  return !object->lease_holders.empty();
}

void NodeKernel::OpenLeaseRecall(const std::shared_ptr<ActiveObject>& object,
                                 const SpanContext& parent) {
  counters_.lease_recalls->Increment();
  ActiveObject::LeaseRecall recall;
  recall.epoch = object->location_epoch;
  // The recall's seq outranks every grant issued so far, so a holder's floor
  // set from it also kills grants still in flight.
  recall.seq = ++object->lease_seq;
  recall.span = ChildSpan(parent, SpanKind::kLease, object->name, "lease recall");
  SimTime now = sim().now();
  SimTime backstop = std::max(now, object->lease_quiesce_until);
  for (const auto& [holder, lease] : object->lease_holders) {
    recall.waiting.emplace(holder, lease);
    backstop = std::max(backstop, lease.expiry);
  }
  object->lease_recall = std::move(recall);
  // Per-holder recall messages; lease_holders is an ordered map, so the wire
  // send order is deterministic. Each wire leg parents to the kLease span.
  // The batch goes out after the marshalling cost (matching every other send
  // path); a recall that resolved meanwhile is harmless on the wire — the
  // holder floors and releases, the home ignores the stale release.
  std::vector<std::pair<StationId, Bytes>> sends;
  size_t total_bytes = 0;
  for (const auto& [holder, lease] : object->lease_recall->waiting) {
    LeaseRecallMsg msg;
    msg.name = object->name;
    msg.epoch = object->lease_recall->epoch;
    msg.seq = object->lease_recall->seq;
    msg.span = object->lease_recall->span;
    Bytes encoded = msg.Encode();
    total_bytes += encoded.size();
    sends.emplace_back(holder, std::move(encoded));
  }
  sim().Schedule(SerializeCost(total_bytes),
                 [this, span = object->lease_recall->span,
                  sends = std::move(sends)]() mutable {
                   if (failed_) {
                     return;
                   }
                   for (auto& [holder, encoded] : sends) {
                     transport_->SendReliable(holder, std::move(encoded), span);
                   }
                 });
  // Backstop: past `backstop` every recalled lease has lapsed of its own
  // accord, so lost releases (holder crash, partition) only ever delay the
  // write to the lease term — never block it forever, never leave a holder
  // serving reads the home no longer honors.
  object->lease_recall->backstop_timer = sim().Schedule(
      backstop + 1 - now, [this, weak = std::weak_ptr<ActiveObject>(object)] {
        std::shared_ptr<ActiveObject> object = weak.lock();
        if (object == nullptr || !object->lease_recall.has_value()) {
          return;
        }
        object->lease_recall->backstop_timer = kInvalidEventId;
        counters_.lease_expiries->Increment(
            object->lease_recall->waiting.size());
        FinishLeaseRecall(object, "expired");
      });
}

void NodeKernel::StartLeaseRecall(const std::shared_ptr<ActiveObject>& object,
                                  PendingDispatch d) {
  if (!object->lease_recall.has_value()) {
    OpenLeaseRecall(object, d.span);
  }
  object->lease_recall->write_queue.push_back(std::move(d));
}

void NodeKernel::FinishLeaseRecall(const std::shared_ptr<ActiveObject>& object,
                                   std::string_view how) {
  ActiveObject::LeaseRecall recall = std::move(*object->lease_recall);
  object->lease_recall.reset();
  sim().Cancel(recall.backstop_timer);
  object->lease_holders.clear();
  EndSpan(recall.span, how);
  for (Promise<Unit>& waiter : recall.waiters) {
    waiter.Set(Unit{});
  }
  // Re-admit the blocked writes through the full gate: a waiter (a move) may
  // have set `moving`, the object may have crashed — AcceptDispatch re-checks
  // everything. The first write admitted bumps lease_mutators_pending, so no
  // grant slips in between queued writes.
  while (!recall.write_queue.empty()) {
    PendingDispatch d = std::move(recall.write_queue.front());
    recall.write_queue.pop_front();
    AcceptDispatch(object, std::move(d));
  }
}

void NodeKernel::TeardownLeases(const std::shared_ptr<ActiveObject>& object,
                                const Status* refuse) {
  object->lease_holders.clear();
  object->lease_quiesce_until = 0;
  if (!object->lease_recall.has_value()) {
    return;
  }
  ActiveObject::LeaseRecall recall = std::move(*object->lease_recall);
  object->lease_recall.reset();
  sim().Cancel(recall.backstop_timer);
  EndSpan(recall.span, refuse != nullptr
                           ? std::string_view(StatusCodeName(refuse->code()))
                           : std::string_view());
  for (Promise<Unit>& waiter : recall.waiters) {
    waiter.Set(Unit{});
  }
  while (!recall.write_queue.empty()) {
    PendingDispatch d = std::move(recall.write_queue.front());
    recall.write_queue.pop_front();
    if (refuse != nullptr) {
      RefuseDispatch(d, *refuse);
    } else {
      AcceptDispatch(object, std::move(d));
    }
  }
}

void NodeKernel::HandleLeaseGrant(StationId src, LeaseGrantMsg msg) {
  if (active_.count(msg.name) > 0) {
    // Home-side authority here now (the object moved to this node while the
    // grant was in flight); the cached copy would be a stale shadow.
    return;
  }
  std::pair<uint64_t, uint64_t> version{msg.epoch, msg.seq};
  if (auto floor = lease_floor_.find(msg.name);
      floor != lease_floor_.end() && version <= floor->second) {
    return;  // recalled before the grant arrived: dead on arrival
  }
  SimTime now = sim().now();
  if (static_cast<SimTime>(msg.expiry) <= now) {
    counters_.lease_expiries->Increment();
    return;
  }
  if (auto it = lease_cache_.find(msg.name);
      it != lease_cache_.end() &&
      std::pair<uint64_t, uint64_t>{it->second.epoch, it->second.seq} >
          version) {
    return;  // an even fresher grant already landed
  }
  std::shared_ptr<TypeManager> type = system_.FindType(msg.type_name);
  if (type == nullptr) {
    return;
  }
  auto replica = std::make_shared<ActiveObject>(type);
  replica->name = msg.name;
  replica->core = std::make_shared<ObjectCore>();
  replica->core->name = msg.name;
  replica->core->rep = std::move(msg.representation);
  // Frozen replica: the dispatch path refuses mutating operations outright,
  // so a leased copy can only ever serve read-class invocations.
  replica->frozen = true;
  replica->is_replica = true;
  LeaseEntry entry;
  entry.replica = std::move(replica);
  entry.expiry = static_cast<SimTime>(msg.expiry);
  entry.home = src;
  entry.epoch = msg.epoch;
  entry.seq = msg.seq;
  lease_cache_[msg.name] = std::move(entry);
}

void NodeKernel::HandleLeaseRecall(StationId src, const LeaseRecallMsg& msg) {
  std::pair<uint64_t, uint64_t> version{msg.epoch, msg.seq};
  auto& floor = lease_floor_[msg.name];
  floor = std::max(floor, version);
  if (auto it = lease_cache_.find(msg.name);
      it != lease_cache_.end() &&
      std::pair<uint64_t, uint64_t>{it->second.epoch, it->second.seq} <=
          version) {
    lease_cache_.erase(it);
  }
  // Always release, even with nothing cached: the grant may still be in
  // flight (the floor above makes it dead on arrival), and the home's write
  // stays blocked until it hears from us or the backstop fires.
  LeaseReleaseMsg release;
  release.name = msg.name;
  release.holder = station();
  release.epoch = msg.epoch;
  release.seq = msg.seq;
  transport_->SendReliable(src, release.Encode(), msg.span);
}

void NodeKernel::HandleLeaseRelease(StationId src, const LeaseReleaseMsg& msg) {
  auto it = active_.find(msg.name);
  if (it == active_.end()) {
    return;
  }
  std::shared_ptr<ActiveObject> object = it->second;
  if (!object->lease_recall.has_value()) {
    // No recall open (it resolved by backstop just before this arrived, or
    // the holder volunteered a release): drop the holder unless a fresher
    // grant to the same station superseded the one being released.
    if (auto h = object->lease_holders.find(msg.holder);
        h != object->lease_holders.end() && h->second.seq <= msg.seq) {
      object->lease_holders.erase(h);
    }
    return;
  }
  if (object->lease_recall->epoch != msg.epoch ||
      object->lease_recall->seq != msg.seq) {
    return;  // a release for some older recall; this home's state moved on
  }
  object->lease_recall->waiting.erase(msg.holder);
  object->lease_holders.erase(msg.holder);
  // The recall also waits out any reincarnation quiesce still running — the
  // backstop timer covers that tail.
  if (object->lease_recall->waiting.empty() &&
      object->lease_quiesce_until <= sim().now()) {
    FinishLeaseRecall(object, {});
  }
}

// ---------------------------------------------------------------------------
// Activation (reincarnation) and behaviors
// ---------------------------------------------------------------------------

void NodeKernel::BeginActivation(const ObjectName& name,
                                 const SpanContext& parent) {
  if (activating_.count(name) > 0 || active_.count(name) > 0) {
    return;
  }
  activating_.insert(name);
  RunActivation(name, parent);
}

DetachedTask NodeKernel::RunActivation(ObjectName name, SpanContext parent) {
  counters_.activations->Increment();
  SpanContext act_span =
      ChildSpan(parent, SpanKind::kActivation, name, "activation");
  co_await SleepFor(sim(), config_.activation_overhead);

  auto fail_waiters = [this, &name](const Status& status) {
    activating_.erase(name);
    auto local = activation_local_waiters_.find(name);
    if (local != activation_local_waiters_.end()) {
      std::vector<uint64_t> waiting = std::move(local->second);
      activation_local_waiters_.erase(local);
      for (uint64_t id : waiting) {
        CompleteInvocation(id, InvokeResult::Error(status));
      }
    }
    auto remote = activation_remote_hold_.find(name);
    if (remote != activation_remote_hold_.end()) {
      std::deque<PendingDispatch> held = std::move(remote->second);
      activation_remote_hold_.erase(remote);
      for (PendingDispatch& d : held) {
        RefuseDispatch(d, status);
      }
    }
  };

  RestoredChain chain;
  Status restored = co_await ReadCheckpointChain(name, chain, act_span);
  if (failed_) {
    EndSpan(act_span, "node_failed");
    co_return;
  }
  bool complete = restored.ok() && !chain.corrupt;

  if (!complete && config_.restore_fallback) {
    // Tier 1: promote the local mirror chain (if any) over the damaged or
    // missing primary and re-read. Covers both a corrupt primary with a
    // healthy local mirror and the mirror-only holder reincarnating after
    // the primary site died.
    if (store_->Contains(MirrorKey(name))) {
      AnnotateSpan(act_span, "fallback:mirror_promote");
      (void)co_await CopyMirrorChain(name);
      if (failed_) {
        EndSpan(act_span, "node_failed");
        co_return;
      }
      RestoredChain retry;
      Status reread = co_await ReadCheckpointChain(name, retry, act_span);
      if (failed_) {
        EndSpan(act_span, "node_failed");
        co_return;
      }
      if (reread.ok()) {
        // The promotion rewrote the primary chain; whatever it produced is
        // now the on-disk truth, corrupt tail or not.
        chain = std::move(retry);
        restored = OkStatus();
        if (!chain.corrupt) {
          complete = true;
          counters_.restore_fallbacks->Increment();
        }
      } else if (reread.code() != StatusCode::kNotFound) {
        restored = reread;
      }
    }
    // Tier 2: the longest intact prefix — every state the object ever had
    // acked durable up to the first bad link — beats data loss. Drop the
    // unusable tail so the on-disk chain matches what was restored.
    if (!complete && restored.ok() && chain.prefix_ok && chain.corrupt_at >= 1) {
      EraseDeltaChain(name, /*is_mirror=*/false, chain.corrupt_at);
      counters_.restore_fallbacks->Increment();
      AnnotateSpan(act_span,
                   "fallback:prefix@" + std::to_string(chain.corrupt_at));
      complete = true;
    }
  }

  if (!complete) {
    EndSpan(act_span, "data_loss");
    if (!restored.ok() && restored.code() == StatusCode::kNotFound) {
      fail_waiters(DataLossError("no checkpoint for " + name.ToString()));
    } else {
      // Unusable chain with no usable fallback: quarantine it so later
      // locates stop landing on this site (a surviving mirror elsewhere
      // becomes the answer instead).
      if (config_.restore_fallback && store_->Contains(CheckpointKey(name))) {
        counters_.restore_quarantines->Increment();
        EraseDeltaChain(name, /*is_mirror=*/false);
        store_->Delete(CheckpointKey(name));
      }
      fail_waiters(DataLossError("corrupt checkpoint for " + name.ToString()));
    }
    co_return;
  }

  std::shared_ptr<TypeManager> type = system_.FindType(chain.type_name);
  if (type == nullptr) {
    EndSpan(act_span, "unknown_type");
    fail_waiters(DataLossError("unknown type in checkpoint: " + chain.type_name));
    co_return;
  }

  auto object = std::make_shared<ActiveObject>(type);
  object->name = name;
  object->core = std::make_shared<ObjectCore>();
  object->core->name = name;
  object->core->rep = std::move(chain.rep);
  object->core->rep.ClearDirty();
  object->policy = chain.policy;
  object->frozen = chain.frozen;
  // The restored state is exactly what is on disk: resume the chain (and
  // let a mutation-free checkpoint be a no-op).
  object->ckpt_has_base = true;
  object->ckpt_chain_len = chain.chain_len;
  object->ckpt_policy = chain.policy;
  object->ckpt_frozen = chain.frozen;
  object->activating = true;
  if (config_.lease_reads) {
    // Gray & Cheriton's recovering-server rule: the reborn home cannot know
    // what leases its predecessor granted, so write-class invocations wait
    // until every pre-crash lease must have expired.
    object->lease_quiesce_until = sim().now() + config_.lease_duration;
    // Any lease this node held as a *client* is superseded by home-side
    // authority over the same object.
    lease_cache_.erase(name);
  }
  active_[name] = object;
  UpdateActiveGauge();
  activating_.erase(name);
  PublishResidenceHere(object);

  // "The coordinator will block the invocation while it attempts to execute
  // the object's reincarnation condition handler."
  if (type->reincarnation()) {
    InvokeContext context(this, object, "<reincarnation>", InvokeArgs{},
                          Rights::All(), act_span);
    Status status = co_await type->reincarnation()(context);
    if (!status.ok()) {
      EDEN_LOG(kWarning, "kernel")
          << node_name_ << ": reincarnation handler for " << name.ToString()
          << " failed: " << status.ToString();
    }
  }
  if (!object->core->alive) {
    EndSpan(act_span, "crashed");
    co_return;  // the handler crashed the object
  }

  StartBehaviors(object);
  object->activating = false;
  EndSpan(act_span);

  // Dispatch everything that queued up while we were passive.
  auto local = activation_local_waiters_.find(name);
  if (local != activation_local_waiters_.end()) {
    std::vector<uint64_t> waiting = std::move(local->second);
    activation_local_waiters_.erase(local);
    for (uint64_t id : waiting) {
      TryResolve(id);
    }
  }
  auto remote = activation_remote_hold_.find(name);
  if (remote != activation_remote_hold_.end()) {
    std::deque<PendingDispatch> held = std::move(remote->second);
    activation_remote_hold_.erase(remote);
    for (PendingDispatch& d : held) {
      AcceptDispatch(object, std::move(d));
    }
  }
  while (!object->hold_queue.empty()) {
    PendingDispatch d = std::move(object->hold_queue.front());
    object->hold_queue.pop_front();
    AcceptDispatch(object, std::move(d));
  }
}

Task<Status> NodeKernel::ReadCheckpointChain(const ObjectName& name,
                                             RestoredChain& out,
                                             const SpanContext& parent) {
  StatusOr<SharedBytes> record =
      co_await store_->Get(CheckpointKey(name), parent);
  if (failed_) {
    co_return AbortedError("node failed during restore");
  }
  if (!record.ok()) {
    // Missing base passes through as kNotFound; a checksum failure (the
    // store reads under verify_checksums) or other read error is data loss.
    co_return record.status().code() == StatusCode::kNotFound
        ? record.status()
        : DataLossError("corrupt checkpoint for " + name.ToString());
  }

  BufferReader reader(record->view());
  auto tag = reader.ReadU8();
  if (!tag.ok() ||
      *tag != static_cast<uint8_t>(CheckpointRecordKind::kBase)) {
    co_return DataLossError("corrupt checkpoint for " + name.ToString());
  }
  auto type_name = reader.ReadString();
  auto policy = type_name.ok() ? CheckpointPolicy::Decode(reader)
                               : StatusOr<CheckpointPolicy>(type_name.status());
  auto frozen = policy.ok() ? reader.ReadBool() : StatusOr<bool>(policy.status());
  auto rep = frozen.ok() ? Representation::Decode(reader)
                         : StatusOr<Representation>(frozen.status());
  if (!rep.ok()) {
    co_return DataLossError("corrupt checkpoint for " + name.ToString());
  }
  out.type_name = *type_name;
  out.policy = *policy;
  out.frozen = *frozen;
  out.rep = std::move(*rep);
  out.chain_len = 0;
  out.corrupt = false;
  out.corrupt_at = 0;
  out.prefix_ok = true;

  // Replay the delta chain on top of the base. Links are contiguous by
  // construction (WriteLocalCheckpoint's guard), so the first missing key
  // ends the chain. Policy and frozen-ness track the newest link. Each link
  // applies to a scratch copy, so a link that fails mid-apply leaves `rep`
  // at the intact prefix instead of half-mutated.
  for (uint64_t k = 1;
       store_->Contains(DeltaKey(name, k, /*is_mirror=*/false)); k++) {
    StatusOr<SharedBytes> delta =
        co_await store_->Get(DeltaKey(name, k, /*is_mirror=*/false), parent);
    if (failed_) {
      co_return AbortedError("node failed during restore");
    }
    if (!delta.ok()) {
      out.corrupt = true;
      out.corrupt_at = k;
      break;
    }
    BufferReader delta_reader(delta->view());
    auto delta_tag = delta_reader.ReadU8();
    if (!delta_tag.ok() ||
        *delta_tag != static_cast<uint8_t>(CheckpointRecordKind::kDelta)) {
      out.corrupt = true;
      out.corrupt_at = k;
      break;
    }
    auto delta_type = delta_reader.ReadString();
    auto delta_policy = delta_type.ok()
                            ? CheckpointPolicy::Decode(delta_reader)
                            : StatusOr<CheckpointPolicy>(delta_type.status());
    auto delta_frozen = delta_policy.ok()
                            ? delta_reader.ReadBool()
                            : StatusOr<bool>(delta_policy.status());
    Representation scratch = out.rep;
    if (!delta_frozen.ok() || *delta_type != out.type_name ||
        !scratch.ApplyDelta(delta_reader).ok()) {
      out.corrupt = true;
      out.corrupt_at = k;
      break;
    }
    out.rep = std::move(scratch);
    out.policy = *delta_policy;
    out.frozen = *delta_frozen;
    out.chain_len = k;
  }
  co_return OkStatus();
}

void NodeKernel::StartBehaviors(const std::shared_ptr<ActiveObject>& object) {
  if (object->is_replica) {
    return;
  }
  std::erase_if(behaviors_, [](const Task<void>& task) { return task.done(); });
  for (const auto& [behavior_name, body] : object->type->behaviors()) {
    Task<void> task = RunBehavior(object, behavior_name, body);
    task.Start();
    behaviors_.push_back(std::move(task));
  }
}

Task<void> NodeKernel::RunBehavior(std::shared_ptr<ActiveObject> object,
                                   std::string name, BehaviorBody body) {
  InvokeContext context(this, object, "<behavior:" + name + ">", InvokeArgs{},
                        Rights::All());
  co_await body(context);
}

// ---------------------------------------------------------------------------
// Checkpoint / crash / destroy
// ---------------------------------------------------------------------------

Future<Status> NodeKernel::CheckpointObject(const ObjectName& name) {
  auto it = active_.find(name);
  if (it == active_.end()) {
    return ReadyStatus(NotFoundError("object not active on this node"));
  }
  return CheckpointForObject(it->second);
}

Future<Status> NodeKernel::CheckpointForObject(
    const std::shared_ptr<ActiveObject>& object, const SpanContext& parent) {
  if (!object->core->alive) {
    return ReadyStatus(FailedPreconditionError("object crashed"));
  }
  if (object->is_replica) {
    return ReadyStatus(FailedPreconditionError("replicas do not checkpoint"));
  }
  counters_.checkpoints->Increment();

  // No-op checkpoint: nothing was dirtied since the last record was cut and
  // the policy/frozen flag it captured still hold, so the durable chain
  // already reproduces this state. Nothing is written — but durability is
  // only as good as the last write, so return that write's future (if it
  // later fails, its OnReady handler below has already forced the next
  // checkpoint to write a fresh base).
  Representation& rep = object->core->rep;
  if (config_.checkpoint_deltas && object->ckpt_has_base && !rep.AnyDirty() &&
      object->policy == object->ckpt_policy &&
      object->frozen == object->ckpt_frozen) {
    counters_.checkpoint_noops->Increment();
    checkpoint_latency_->Record(0);
    return object->ckpt_pending.value_or(ReadyStatus(OkStatus()));
  }

  // Write a full base record on the first checkpoint of an activation, when
  // the delta chain has reached its compaction threshold (fold), when deltas
  // are disabled, or when everything is dirty anyway (a delta would not be
  // smaller than a base).
  bool all_dirty = rep.data_segment_count() > 0 &&
                   rep.DirtySegmentCount() == rep.data_segment_count() &&
                   rep.caps_dirty();
  bool base = !config_.checkpoint_deltas || !object->ckpt_has_base ||
              object->ckpt_chain_len >= config_.checkpoint_delta_limit ||
              all_dirty;
  Bytes record = EncodeCheckpointRecord(
      *object, base ? CheckpointRecordKind::kBase : CheckpointRecordKind::kDelta);
  uint64_t delta_seq = 0;
  if (base) {
    counters_.checkpoint_bases->Increment();
    object->ckpt_has_base = true;
    object->ckpt_chain_len = 0;
  } else {
    counters_.checkpoint_deltas->Increment();
    delta_seq = ++object->ckpt_chain_len;
  }
  counters_.checkpoint_record_bytes->Increment(record.size());
  rep.ClearDirty();
  object->ckpt_policy = object->policy;
  object->ckpt_frozen = object->frozen;

  // A checkpoint issued inside a traced invocation hangs off that invocation's
  // dispatch span; a bare driver-side checkpoint roots its own trace. Opened
  // only for real writes — no-op checkpoints above do no attributable work.
  SpanContext ckpt_span = StartSpan(parent, SpanKind::kCheckpoint, object->name,
                                    base ? "checkpoint base"
                                         : "checkpoint delta " +
                                               std::to_string(delta_seq));
  Future<Status> done = WriteCheckpoint(object->name, SharedBytes(std::move(record)),
                                        delta_seq, object->policy, ckpt_span);
  object->ckpt_pending = done;
  SimTime started = sim().now();
  // Weak capture: the object holds `done` in ckpt_pending, so a strong
  // capture here (of either the object or the future) would cycle and leak
  // any activation with a checkpoint still in flight at teardown.
  std::weak_ptr<ActiveObject> weak = object;
  done.OnReadyValue([this, weak, started, ckpt_span](const Status& status) {
    checkpoint_latency_->Record(sim().now() - started);
    EndSpan(ckpt_span, status.ok() ? std::string()
                                   : std::string(StatusCodeName(status.code())));
    if (!status.ok()) {
      // The chain's durable suffix is now unknown (and the dirty bits that
      // would have covered it are cleared): force a full base next time.
      if (auto object = weak.lock()) {
        object->ckpt_has_base = false;
      }
    }
  });
  return done;
}

Bytes NodeKernel::EncodeCheckpointRecord(const ActiveObject& object,
                                         CheckpointRecordKind kind) const {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(kind));
  writer.WriteString(object.type->name());
  object.policy.Encode(writer);
  writer.WriteBool(object.frozen);
  if (kind == CheckpointRecordKind::kBase) {
    object.core->rep.Encode(writer);
  } else {
    object.core->rep.EncodeDelta(writer);
  }
  return writer.Take();
}

Future<Status> NodeKernel::WriteCheckpoint(const ObjectName& name,
                                           SharedBytes record,
                                           uint64_t delta_seq,
                                           const CheckpointPolicy& policy,
                                           const SpanContext& parent) {
  Future<Status> primary =
      policy.primary_site == station()
          ? WriteLocalCheckpoint(name, record, delta_seq, /*is_mirror=*/false,
                                 parent)
          : SendRemoteCheckpoint(name, record, delta_seq, policy.primary_site,
                                 /*is_mirror=*/false, parent);
  if (policy.level != ReliabilityLevel::kMirrored) {
    return primary;
  }
  Future<Status> mirror =
      policy.mirror_site == station()
          ? WriteLocalCheckpoint(name, std::move(record), delta_seq,
                                 /*is_mirror=*/true, parent)
          : SendRemoteCheckpoint(name, std::move(record), delta_seq,
                                 policy.mirror_site, /*is_mirror=*/true,
                                 parent);
  return CombineStatus(std::move(primary), std::move(mirror));
}

Future<Status> NodeKernel::WriteLocalCheckpoint(const ObjectName& name,
                                                SharedBytes record,
                                                uint64_t delta_seq,
                                                bool is_mirror,
                                                const SpanContext& parent) {
  if (delta_seq == 0) {
    // A fresh base supersedes the previous chain; the deletes join the base
    // write's flush. Erase before Put so a same-key chain restarts cleanly.
    EraseDeltaChain(name, is_mirror);
    return store_->Put(is_mirror ? MirrorKey(name) : CheckpointKey(name),
                       std::move(record), parent);
  }
  // Contiguity guard: never store a delta whose predecessor is missing
  // (e.g. after a capacity failure mid-chain) — restore stops at the first
  // gap, so a stored successor would resurrect stale state later.
  std::string base_key = is_mirror ? MirrorKey(name) : CheckpointKey(name);
  if (!store_->Contains(base_key) ||
      (delta_seq > 1 && !store_->Contains(DeltaKey(name, delta_seq - 1, is_mirror)))) {
    return ReadyStatus(
        FailedPreconditionError("checkpoint delta chain broken; base required"));
  }
  return store_->Put(DeltaKey(name, delta_seq, is_mirror), std::move(record),
                     parent);
}

void NodeKernel::EraseDeltaChain(const ObjectName& name, bool is_mirror,
                                 uint64_t from_seq) {
  for (uint64_t k = from_seq; store_->Contains(DeltaKey(name, k, is_mirror));
       k++) {
    store_->Delete(DeltaKey(name, k, is_mirror));
  }
}

Future<Status> NodeKernel::SendRemoteCheckpoint(const ObjectName& name,
                                                SharedBytes record,
                                                uint64_t delta_seq,
                                                StationId site,
                                                bool is_mirror,
                                                const SpanContext& parent) {
  uint64_t request_id = next_request_id_++;
  PendingAck& pending = pending_acks_[request_id];
  Future<Status> future = pending.promise.GetFuture();
  pending.timer =
      sim().Schedule(config_.attempt_timeout * 2, [this, request_id] {
        auto it = pending_acks_.find(request_id);
        if (it == pending_acks_.end()) {
          return;
        }
        Promise<Status> promise = std::move(it->second.promise);
        pending_acks_.erase(it);
        promise.Set(UnavailableError("checksite unreachable"));
      });

  CheckpointPutMsg msg;
  msg.request_id = request_id;
  msg.reply_to = station();
  msg.name = name;
  msg.record = std::move(record);
  msg.is_mirror = is_mirror;
  msg.delta_seq = delta_seq;
  msg.span = parent;
  Bytes encoded = msg.Encode();
  sim().Schedule(SerializeCost(encoded.size()),
                 [this, site, span = parent,
                  encoded = std::move(encoded)]() mutable {
                   if (!failed_) {
                     transport_->SendReliable(site, std::move(encoded), span);
                   }
                 });
  return future;
}

void NodeKernel::HandleCheckpointPut(StationId src, CheckpointPutMsg msg) {
  // The checksite's disk write becomes a cross-node store-write child of the
  // origin's checkpoint span.
  Future<Status> write = WriteLocalCheckpoint(msg.name, std::move(msg.record),
                                             msg.delta_seq, msg.is_mirror,
                                             msg.span);
  write.OnReadyValue([this, request_id = msg.request_id,
                      reply_to = msg.reply_to](const Status& status) {
    if (failed_) {
      return;
    }
    CheckpointAckMsg ack;
    ack.request_id = request_id;
    // A rejected delta (broken chain — e.g. an earlier link failed or the
    // links arrived out of order) nacks, which makes the source write a
    // full base on its next checkpoint.
    ack.ok = status.ok();
    transport_->SendReliable(reply_to, ack.Encode());
  });
}

void NodeKernel::HandleCheckpointAck(const CheckpointAckMsg& msg) {
  auto it = pending_acks_.find(msg.request_id);
  if (it == pending_acks_.end()) {
    return;
  }
  sim().Cancel(it->second.timer);
  Promise<Status> promise = std::move(it->second.promise);
  pending_acks_.erase(it);
  promise.Set(msg.ok ? OkStatus() : InternalError("checksite write failed"));
}

void NodeKernel::HandleCheckpointErase(const CheckpointEraseMsg& msg) {
  EraseDeltaChain(msg.name, /*is_mirror=*/false);
  EraseDeltaChain(msg.name, /*is_mirror=*/true);
  store_->Delete(CheckpointKey(msg.name));
  store_->Delete(MirrorKey(msg.name));
}

void NodeKernel::CrashObject(const std::shared_ptr<ActiveObject>& object,
                             const Status& reason) {
  if (!object->core->alive) {
    return;
  }
  counters_.crashes->Increment();
  object->core->Fail(reason);

  // Refuse everything that was waiting; running invocations reply on their own.
  auto refuse_all = [this, &reason](std::deque<PendingDispatch>& queue) {
    while (!queue.empty()) {
      PendingDispatch d = std::move(queue.front());
      queue.pop_front();
      RefuseDispatch(d, AbortedError(reason.message()));
    }
  };
  refuse_all(object->hold_queue);
  for (auto& queue : object->class_queues) {
    refuse_all(queue);
  }
  {
    Status aborted = AbortedError(reason.message());
    TeardownLeases(object, &aborted);
  }
  if (object->drain_waiter.has_value()) {
    Promise<Unit> waiter = std::move(*object->drain_waiter);
    object->drain_waiter.reset();
    waiter.Set(Unit{});
  }

  const ObjectName& name = object->name;
  if (auto it = active_.find(name); it != active_.end() && it->second == object) {
    active_.erase(it);
    UpdateActiveGauge();
  }
  if (auto it = replicas_.find(name); it != replicas_.end() && it->second == object) {
    replicas_.erase(it);
  }
}

void NodeKernel::DestroyObject(const std::shared_ptr<ActiveObject>& object) {
  ObjectName name = object->name;
  CheckpointPolicy policy = object->policy;
  CrashObject(object, AbortedError("object destroyed"));

  // Erase long-term state everywhere it may live.
  EraseDeltaChain(name, /*is_mirror=*/false);
  EraseDeltaChain(name, /*is_mirror=*/true);
  store_->Delete(CheckpointKey(name));
  store_->Delete(MirrorKey(name));
  CheckpointEraseMsg erase;
  erase.name = name;
  if (policy.primary_site != station()) {
    transport_->SendReliable(policy.primary_site, erase.Encode());
  }
  if (policy.level == ReliabilityLevel::kMirrored &&
      policy.mirror_site != station()) {
    transport_->SendReliable(policy.mirror_site, erase.Encode());
  }
  forwarding_.erase(name);
  location_cache_.erase(name);
  // Tombstone the directory record (names are never reused, so the epoch
  // only guards against an in-flight move's fresher update).
  location_->PublishRemoval(name, static_cast<uint64_t>(sim().now()) + 1);
}

Future<Status> NodeKernel::PromoteMirror(const ObjectName& name) {
  return Launch(CopyMirrorChain(name));
}

Task<Status> NodeKernel::CopyMirrorChain(ObjectName name) {
  StatusOr<SharedBytes> base = co_await store_->Get(MirrorKey(name));
  if (!base.ok()) {
    co_return base.status();
  }
  // Any stale primary chain dies with its base (and the base write batches
  // with the deletes).
  EraseDeltaChain(name, /*is_mirror=*/false);
  Status written = co_await store_->Put(CheckpointKey(name), *base);
  if (!written.ok()) {
    co_return written;
  }
  for (uint64_t k = 1; store_->Contains(DeltaKey(name, k, /*is_mirror=*/true));
       k++) {
    StatusOr<SharedBytes> delta =
        co_await store_->Get(DeltaKey(name, k, /*is_mirror=*/true));
    if (!delta.ok()) {
      co_return delta.status();
    }
    written = co_await store_->Put(DeltaKey(name, k, /*is_mirror=*/false),
                                   *delta);
    if (!written.ok()) {
      co_return written;
    }
  }
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Move (object mobility)
// ---------------------------------------------------------------------------

Future<Status> NodeKernel::MoveObject(const std::shared_ptr<ActiveObject>& object,
                                      StationId destination,
                                      const SpanContext& parent,
                                      int drain_threshold) {
  if (object->is_replica) {
    return ReadyStatus(FailedPreconditionError("cannot move a replica"));
  }
  if (object->moving) {
    return ReadyStatus(FailedPreconditionError("move already in progress"));
  }
  if (destination == station()) {
    return ReadyStatus(OkStatus());
  }
  if (!object->core->alive) {
    return ReadyStatus(FailedPreconditionError("object crashed"));
  }
  Promise<Status> done;
  Future<Status> future = done.GetFuture();
  RunMove(object, destination, std::move(done), parent, drain_threshold);
  return future;
}

DetachedTask NodeKernel::RunMove(std::shared_ptr<ActiveObject> object,
                                 StationId destination, Promise<Status> done,
                                 SpanContext parent, int drain_threshold) {
  // Opened before the drain wait, so drain latency is attributed to the move.
  SpanContext move_span =
      StartSpan(parent, SpanKind::kMove, object->name,
                "move to node" + std::to_string(destination));
  object->moving = true;
  // Wait for other running invocations to drain. When the invocation that
  // requested the move is itself still running the caller passes threshold 1;
  // driver and rebalancer moves quiesce fully (threshold 0) so no in-flight
  // invocation's effects are serialized mid-run.
  object->drain_threshold = drain_threshold;
  while (object->total_running > drain_threshold && object->core->alive) {
    object->drain_waiter = Promise<Unit>();
    Future<Unit> drained = object->drain_waiter->GetFuture();
    co_await drained;
  }
  // A move carries the representation to a new home, where the old
  // (epoch, seq) versions stop meaning anything — so clear every outstanding
  // lease first. `moving` is already set, so no new lease or write can slip
  // in behind the recall (AcceptDispatch holds them).
  if (config_.lease_reads) {
    while (object->core->alive &&
           (object->lease_recall.has_value() || !object->lease_holders.empty() ||
            object->lease_quiesce_until > sim().now())) {
      if (!object->lease_recall.has_value()) {
        OpenLeaseRecall(object, move_span);
      }
      Promise<Unit> cleared;
      Future<Unit> lease_clear = cleared.GetFuture();
      object->lease_recall->waiters.push_back(std::move(cleared));
      co_await lease_clear;
    }
  }
  if (!object->core->alive) {
    object->moving = false;
    EndSpan(move_span, "crashed");
    done.Set(AbortedError("object crashed during move"));
    co_return;
  }

  uint64_t transfer_id = next_transfer_id_++;
  MoveTransferMsg msg;
  msg.transfer_id = transfer_id;
  msg.source = station();
  msg.name = object->name;
  msg.type_name = object->type->name();
  msg.representation = object->core->rep;
  msg.policy = object->policy;
  msg.frozen = object->frozen;
  msg.span = move_span;
  // At-most-once state travels with the object: cached replies for its
  // invocations keep answering retries at the new home, so a request whose
  // reply raced the move is re-replied there instead of re-executed.
  // (reply_cache_ is id-ordered, so the carried list is deterministic.)
  for (const auto& [id, cached] : reply_cache_) {
    if (cached.object == object->name) {
      msg.cached_replies.push_back({id, cached.result, cached.frozen});
    }
  }
  // The floors are facts about clients, not about this object, and a stale
  // retry must meet the same floor at the new home.
  for (const auto& [client, floor] : reply_floors_) {
    msg.reply_floors.push_back({client, floor});
  }
  Bytes encoded = msg.Encode();

  PendingMove& pending = pending_moves_[transfer_id];
  pending.promise = std::move(done);
  pending.object = object;
  pending.destination = destination;
  pending.span = move_span;
  pending.timer =
      sim().Schedule(config_.attempt_timeout * 2, [this, transfer_id] {
        auto it = pending_moves_.find(transfer_id);
        if (it == pending_moves_.end()) {
          return;
        }
        PendingMove pending = std::move(it->second);
        pending_moves_.erase(it);
        // Abort: resume service on this node.
        EndSpan(pending.span, "destination_unreachable");
        pending.object->moving = false;
        Promise<Status> promise = std::move(pending.promise);
        std::shared_ptr<ActiveObject> object = pending.object;
        while (!object->hold_queue.empty()) {
          PendingDispatch d = std::move(object->hold_queue.front());
          object->hold_queue.pop_front();
          AcceptDispatch(object, std::move(d));
        }
        PumpQueues(object);
        promise.Set(UnavailableError("move destination unreachable"));
      });

  counters_.moves_out->Increment();
  sim().Schedule(SerializeCost(encoded.size()),
                 [this, destination, span = move_span,
                  encoded = std::move(encoded)]() mutable {
                   if (!failed_) {
                     transport_->SendReliable(destination, std::move(encoded),
                                              span);
                   }
                 });
}

void NodeKernel::HandleMoveTransfer(StationId src, MoveTransferMsg msg) {
  MoveAckMsg ack;
  ack.transfer_id = msg.transfer_id;
  ack.name = msg.name;

  if (auto dup = active_.find(msg.name); dup != active_.end()) {
    // Duplicate transfer (retransmission past the transport window). Re-ack
    // with the epoch the first arrival minted.
    ack.accepted = true;
    ack.epoch = dup->second->location_epoch;
    transport_->SendReliable(src, ack.Encode());
    return;
  }
  std::shared_ptr<TypeManager> type = system_.FindType(msg.type_name);
  if (type == nullptr) {
    ack.accepted = false;
    transport_->SendReliable(src, ack.Encode());
    return;
  }

  auto object = std::make_shared<ActiveObject>(type);
  object->name = msg.name;
  object->core = std::make_shared<ObjectCore>();
  object->core->name = msg.name;
  object->core->rep = std::move(msg.representation);
  object->policy = msg.policy;
  object->frozen = msg.frozen;
  object->activating = true;
  active_[msg.name] = object;
  UpdateActiveGauge();
  forwarding_.erase(msg.name);
  location_cache_.erase(msg.name);
  // Home-side authority supersedes any read lease this node held as a client.
  lease_cache_.erase(msg.name);
  counters_.moves_in->Increment();
  // Install the carried at-most-once state before any retry can land here:
  // floors first, so carried replies they already acknowledge are skipped.
  for (const auto& carried : msg.reply_floors) {
    RaiseReplyFloor(carried.client, carried.floor);
  }
  for (const auto& carried : msg.cached_replies) {
    if (reply_cache_.count(carried.invocation_id) == 0) {
      CacheReply(carried.invocation_id, msg.name, carried.result,
                 carried.frozen);
    }
  }

  ack.accepted = true;
  // The destination mints the epoch: a causally later move always lands at a
  // later simulation time here than the acquisition it supersedes, so epochs
  // stay monotone along any chain of moves.
  ack.epoch = PublishResidenceHere(object);
  transport_->SendReliable(src, ack.Encode());

  // The move-in rebuild is a cross-node kActivation child of the mover's
  // kMove span.
  SpanContext act_span =
      ChildSpan(msg.span, SpanKind::kActivation, msg.name, "move-in");

  // Arrival at a new node rebuilds short-term state exactly like a
  // reincarnation: run the condition handler, restart behaviors, then serve.
  [](NodeKernel* kernel, std::shared_ptr<ActiveObject> object,
     SpanContext act_span) -> DetachedTask {
    co_await SleepFor(kernel->sim(), kernel->config_.activation_overhead);
    if (!object->core->alive) {
      kernel->EndSpan(act_span, "crashed");
      co_return;
    }
    if (object->type->reincarnation()) {
      InvokeContext context(kernel, object, "<reincarnation>", InvokeArgs{},
                            Rights::All(), act_span);
      co_await object->type->reincarnation()(context);
    }
    if (!object->core->alive) {
      kernel->EndSpan(act_span, "crashed");
      co_return;
    }
    kernel->StartBehaviors(object);
    object->activating = false;
    kernel->EndSpan(act_span);
    while (!object->hold_queue.empty()) {
      PendingDispatch d = std::move(object->hold_queue.front());
      object->hold_queue.pop_front();
      kernel->AcceptDispatch(object, std::move(d));
    }
  }(this, object, act_span);
}

void NodeKernel::HandleMoveAck(const MoveAckMsg& msg) {
  auto it = pending_moves_.find(msg.transfer_id);
  if (it == pending_moves_.end()) {
    return;
  }
  sim().Cancel(it->second.timer);
  PendingMove pending = std::move(it->second);
  pending_moves_.erase(it);
  std::shared_ptr<ActiveObject> object = pending.object;

  if (!msg.accepted) {
    EndSpan(pending.span, "refused");
    object->moving = false;
    while (!object->hold_queue.empty()) {
      PendingDispatch d = std::move(object->hold_queue.front());
      object->hold_queue.pop_front();
      AcceptDispatch(object, std::move(d));
    }
    PumpQueues(object);
    pending.promise.Set(UnavailableError("destination refused the object"));
    return;
  }

  const ObjectName& name = object->name;
  ResidenceRecord moved{pending.destination, msg.epoch, true};
  forwarding_[name] = moved;
  CacheLocation(name, moved);

  // Re-route everything that queued during the move.
  while (!object->hold_queue.empty()) {
    PendingDispatch d = std::move(object->hold_queue.front());
    object->hold_queue.pop_front();
    ForwardDispatch(d, pending.destination);
  }
  for (auto& queue : object->class_queues) {
    while (!queue.empty()) {
      PendingDispatch d = std::move(queue.front());
      queue.pop_front();
      ForwardDispatch(d, pending.destination);
    }
  }

  active_.erase(name);
  UpdateActiveGauge();
  object->moving = false;
  EndSpan(pending.span);
  // Behaviors and any post-move handler code on this node see a dead core.
  object->core->Fail(AbortedError("object moved to another node"));
  pending.promise.Set(OkStatus());
}

// ---------------------------------------------------------------------------
// Frozen-object replication
// ---------------------------------------------------------------------------

void NodeKernel::MaybeFetchReplica(const ObjectName& name, StationId host,
                                   const SpanContext& parent) {
  for (const auto& [request_id, pending_name] : pending_replica_fetches_) {
    if (pending_name == name) {
      return;  // fetch already under way
    }
  }
  uint64_t request_id = next_request_id_++;
  pending_replica_fetches_[request_id] = name;
  counters_.replica_fetches->Increment();
  ReplicaFetchMsg msg;
  msg.request_id = request_id;
  msg.reply_to = station();
  msg.name = name;
  // Context only: the fetch is a background prefetch whose triggering
  // invocation has already completed, so no span is opened for it (the
  // parent trace may finalize before the fetch resolves).
  msg.span = parent;
  transport_->SendReliable(host, msg.Encode());
}

void NodeKernel::HandleReplicaFetch(StationId src, const ReplicaFetchMsg& msg) {
  ReplicaReplyMsg reply;
  reply.request_id = msg.request_id;
  reply.name = msg.name;
  auto it = active_.find(msg.name);
  if (it != active_.end() && it->second->frozen && !it->second->is_replica) {
    reply.ok = true;
    reply.type_name = it->second->type->name();
    reply.representation = it->second->core->rep;
  } else {
    reply.ok = false;
  }
  transport_->SendReliable(msg.reply_to, reply.Encode());
}

void NodeKernel::HandleReplicaReply(StationId src, ReplicaReplyMsg msg) {
  auto it = pending_replica_fetches_.find(msg.request_id);
  if (it == pending_replica_fetches_.end()) {
    return;
  }
  pending_replica_fetches_.erase(it);
  if (!msg.ok || replicas_.count(msg.name) > 0 || active_.count(msg.name) > 0) {
    return;
  }
  std::shared_ptr<TypeManager> type = system_.FindType(msg.type_name);
  if (type == nullptr) {
    return;
  }
  auto replica = std::make_shared<ActiveObject>(type);
  replica->name = msg.name;
  replica->core = std::make_shared<ObjectCore>();
  replica->core->name = msg.name;
  replica->core->rep = std::move(msg.representation);
  replica->frozen = true;
  replica->is_replica = true;
  replicas_[msg.name] = replica;
}

// ---------------------------------------------------------------------------
// Node failure / restart
// ---------------------------------------------------------------------------

void NodeKernel::FailNode() {
  if (failed_) {
    return;
  }
  failed_ = true;
  system_.lan().DetachStation(station());
  transport_->Reset();

  // Volatile state dies. (The stable store, by definition, survives.)
  auto active = std::move(active_);
  active_.clear();
  auto replicas = std::move(replicas_);
  replicas_.clear();
  for (auto& [name, object] : active) {
    object->core->Fail(UnavailableError("node failed"));
    // Open recalls die with the home: cancel the backstop, close the kLease
    // span, and wake any co_awaiting mover so its coroutine is not leaked.
    // (active_ is an ordered map, so span close order is deterministic.)
    if (object->lease_recall.has_value()) {
      ActiveObject::LeaseRecall recall = std::move(*object->lease_recall);
      object->lease_recall.reset();
      sim().Cancel(recall.backstop_timer);
      EndSpan(recall.span, "node_failed");
      for (Promise<Unit>& waiter : recall.waiters) {
        waiter.Set(Unit{});
      }
      // write_queue replies die silently: the invokers' attempt timers fire.
    }
    object->lease_holders.clear();
  }
  for (auto& [name, object] : replicas) {
    object->core->Fail(UnavailableError("node failed"));
  }
  // Client-side leases are volatile; holders that crash simply stop serving,
  // and the home's recall backstop covers any release they now fail to send.
  lease_cache_.clear();
  lease_floor_.clear();
  forwarding_.clear();
  location_cache_.clear();
  // Both backend roles are volatile: the home partition dies with the node
  // and is rebuilt lazily from the hosts' inventories via fallback + repair.
  location_->OnNodeFailed();

  auto pending = std::move(pending_invocations_);
  pending_invocations_.clear();
  for (auto& [id, invocation] : pending) {
    sim().Cancel(invocation.user_timer);
    sim().Cancel(invocation.attempt_timer);
    EndSpan(invocation.span, "node_failed");
    invocation.promise.Set(
        InvokeResult::Error(UnavailableError("invoking node failed")));
  }
  {
    // pending_locates_ iterates in hash order; close spans in query-id order
    // so the collector sees the same sequence on every run.
    std::vector<std::pair<uint64_t, SpanContext>> locate_spans;
    auto locates = std::move(pending_locates_);
    pending_locates_.clear();
    locate_by_name_.clear();
    for (auto& [query_id, locate] : locates) {
      sim().Cancel(locate.timer);
      if (locate.span.valid()) {
        locate_spans.emplace_back(query_id, locate.span);
      }
    }
    std::sort(locate_spans.begin(), locate_spans.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [query_id, span] : locate_spans) {
      EndSpan(span, "node_failed");
    }
  }
  auto acks = std::move(pending_acks_);
  pending_acks_.clear();
  for (auto& [request_id, ack] : acks) {
    sim().Cancel(ack.timer);
    ack.promise.Set(UnavailableError("node failed"));
  }
  auto moves = std::move(pending_moves_);
  pending_moves_.clear();
  for (auto& [transfer_id, move] : moves) {
    sim().Cancel(move.timer);
    EndSpan(move.span, "node_failed");
    move.promise.Set(UnavailableError("node failed"));
  }
  pending_replica_fetches_.clear();
  requests_in_progress_.clear();
  reply_cache_.clear();
  reply_floors_.clear();
  reply_cache_entries_->Set(0);
  activating_.clear();
  activation_local_waiters_.clear();
  activation_remote_hold_.clear();
  // Peer-health state is volatile too: a reborn node presumes everyone
  // healthy. Probe timers must die with it (order-insensitive iteration).
  for (auto& [peer, state] : peers_) {
    sim().Cancel(state.probe_timer);
  }
  peers_.clear();
}

void NodeKernel::RestartNode() {
  if (!failed_) {
    return;
  }
  failed_ = false;
  system_.lan().ReattachStation(station());

  // Proactive directory repair (DESIGN.md §13): scan the stable store for
  // checkpoint bases and re-publish a passive residence record for each. The
  // epoch-0 record only fills an *empty* directory slot — if the object moved
  // (or was reincarnated elsewhere) while this node was down, the incumbent
  // record has a real epoch and wins — so locates for objects that only ever
  // lived here resolve without a broadcast fallback round.
  for (const std::string& key : store_->Keys()) {
    constexpr std::string_view kPrefix = "ckpt/";
    if (key.compare(0, kPrefix.size(), kPrefix) != 0) {
      continue;
    }
    // Delta links ("...#d<k>") fail the parse; only bases publish.
    StatusOr<ObjectName> name =
        ObjectName::FromKey(std::string_view(key).substr(kPrefix.size()));
    if (!name.ok()) {
      continue;
    }
    location_->PublishResidence(*name, ResidenceRecord{station(), 0, false});
  }
}

// ---------------------------------------------------------------------------
// Elastic membership / drain (DESIGN.md §16)
// ---------------------------------------------------------------------------

bool NodeKernel::DrainIdle() const {
  return active_.empty() && activating_.empty() && pending_moves_.empty() &&
         pending_invocations_.empty() && pending_acks_.empty();
}

std::vector<ObjectName> NodeKernel::ActiveObjects() const {
  std::vector<ObjectName> names;
  names.reserve(active_.size());
  for (const auto& [name, object] : active_) {
    if (!object->is_replica) {
      names.push_back(name);
    }
  }
  return names;  // active_ is ordered, so this is sorted
}

std::vector<ObjectName> NodeKernel::ActiveObjectsWithPolicySite(
    StationId site) const {
  std::vector<ObjectName> names;
  for (const auto& [name, object] : active_) {
    if (object->is_replica || !object->core->alive) {
      continue;
    }
    const CheckpointPolicy& p = object->policy;
    if (p.primary_site == site ||
        (p.level == ReliabilityLevel::kMirrored && p.mirror_site == site)) {
      names.push_back(name);
    }
  }
  return names;
}

std::vector<ObjectName> NodeKernel::CheckpointInventory() const {
  std::vector<ObjectName> names;
  for (const std::string& key : store_->Keys()) {
    constexpr std::string_view kPrefix = "ckpt/";
    if (key.compare(0, kPrefix.size(), kPrefix) != 0) {
      continue;
    }
    // Delta links ("...#d<k>") fail the parse; only bases count.
    StatusOr<ObjectName> name =
        ObjectName::FromKey(std::string_view(key).substr(kPrefix.size()));
    if (name.ok()) {
      names.push_back(*name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void NodeKernel::Reactivate(const ObjectName& name) {
  if (failed_ || active_.count(name) > 0 || activating_.count(name) > 0) {
    return;
  }
  if (!store_->Contains(CheckpointKey(name))) {
    return;
  }
  BeginActivation(name);
}

Future<Status> NodeKernel::ResiteCheckpoint(const ObjectName& name,
                                            const CheckpointPolicy& policy) {
  if (failed_) {
    return ReadyStatus(UnavailableError("node is down"));
  }
  auto it = active_.find(name);
  if (it == active_.end()) {
    return ReadyStatus(NotFoundError("object not active here"));
  }
  std::shared_ptr<ActiveObject> object = it->second;
  if (!object->core->alive) {
    return ReadyStatus(FailedPreconditionError("object crashed"));
  }
  if (object->moving || object->activating) {
    return ReadyStatus(FailedPreconditionError("object is in transit"));
  }
  if (policy.level == ReliabilityLevel::kMirrored &&
      policy.mirror_site == policy.primary_site) {
    return ReadyStatus(
        InvalidArgumentError("mirror site must differ from primary site"));
  }
  const CheckpointPolicy old_policy = object->policy;
  if (old_policy == policy) {
    return ReadyStatus(OkStatus());
  }
  object->policy = policy;
  // Force a full base at the new site(s): a delta appended to the old chain
  // would leave the authoritative state on the store being evacuated.
  object->ckpt_has_base = false;
  Future<Status> done = CheckpointForObject(object);
  done.OnReadyValue([this, name, old_policy, policy](const Status& status) {
    if (!status.ok() || failed_) {
      return;  // old chains stay authoritative; the rebalancer retries
    }
    // The fresh chain is durable: retire old chains wherever their role
    // moved. Local chains are erased per role (the new policy may still use
    // this store in the other role); a remote old site that serves no role
    // at all in the new policy drops everything it has.
    if (old_policy.primary_site == station() &&
        policy.primary_site != station()) {
      EraseDeltaChain(name, /*is_mirror=*/false);
      store_->Delete(CheckpointKey(name));
    }
    const bool old_mirror_here =
        old_policy.level == ReliabilityLevel::kMirrored &&
        old_policy.mirror_site == station();
    const bool new_mirror_here =
        policy.level == ReliabilityLevel::kMirrored &&
        policy.mirror_site == station();
    if (old_mirror_here && !new_mirror_here) {
      EraseDeltaChain(name, /*is_mirror=*/true);
      store_->Delete(MirrorKey(name));
    }
    auto used_by_new = [&policy](StationId site) {
      return site == policy.primary_site ||
             (policy.level == ReliabilityLevel::kMirrored &&
              site == policy.mirror_site);
    };
    CheckpointEraseMsg erase;
    erase.name = name;
    std::set<StationId> erased;
    auto erase_remote = [&, this](StationId site) {
      if (site == station() || used_by_new(site) ||
          !erased.insert(site).second) {
        return;
      }
      transport_->SendReliable(site, erase.Encode());
    };
    erase_remote(old_policy.primary_site);
    if (old_policy.level == ReliabilityLevel::kMirrored) {
      erase_remote(old_policy.mirror_site);
    }
  });
  return done;
}

// ---------------------------------------------------------------------------
// InvokeContext methods that need the kernel definition
// ---------------------------------------------------------------------------

Future<InvokeResult> InvokeContext::Invoke(const Capability& target,
                                           const std::string& op, InvokeArgs args,
                                           const InvokeOptions& options) {
  Promise<InvokeResult> promise;
  Future<InvokeResult> future = promise.GetFuture();
  kernel_->StartInvocation(target, op, std::move(args), options,
                           std::move(promise), span_);
  return future;
}

Future<Status> InvokeContext::Checkpoint() {
  return kernel_->CheckpointForObject(object_, span_);
}

Status InvokeContext::SetChecksite(const CheckpointPolicy& policy) {
  if (policy.level == ReliabilityLevel::kMirrored &&
      policy.mirror_site == policy.primary_site) {
    return InvalidArgumentError("mirror site must differ from primary site");
  }
  object_->policy = policy;
  return OkStatus();
}

void InvokeContext::Crash() {
  kernel_->CrashObject(object_, AbortedError("object crashed itself"));
}

void InvokeContext::Destroy() { kernel_->DestroyObject(object_); }

Future<Status> InvokeContext::RequestMove(StationId new_home) {
  // The requesting invocation is itself still counted as running.
  return kernel_->MoveObject(object_, new_home, span_, /*drain_threshold=*/1);
}

Status InvokeContext::Freeze() {
  if (object_->is_replica) {
    return FailedPreconditionError("replicas are already frozen");
  }
  object_->frozen = true;
  return OkStatus();
}

Future<Unit> InvokeContext::Sleep(SimDuration duration) {
  return SleepFor(kernel_->sim(), duration);
}

StationId InvokeContext::node() const { return kernel_->station(); }

Simulation& InvokeContext::sim() { return kernel_->sim(); }

}  // namespace eden
