#include "overlay/overlay.h"

namespace baton {
namespace overlay {

namespace {

void Bump(obs::Registry& reg, const char* name, uint64_t delta) {
  if (delta > 0) reg.Counter(name) += delta;
}

/// Clears the answer fields an attempt fills, so a discarded attempt leaves
/// nothing behind for the next one (or for a gave-up op) to report.
void ResetAnswer(OpStats* st) {
  st->status = Status::OK();
  st->peer = kNullPeer;
  st->found = false;
  st->matches = 0;
  st->nodes = 0;
  st->hops = 0;
}

}  // namespace

/// Runs the operation `fn(from, &st)` with counter snapshots around it, so
/// st.messages is the exact message cost of the operation whatever the
/// backend did inside. With an observer attached the whole operation is
/// one causal span named `op`, and its outcome feeds the per-op metrics.
///
/// One attempt loop serves every operation. Each attempt runs in its own
/// sim measurement window and writes its answer straight into `st`;
/// attempts repeat until the answer is trustworthy (no message of the
/// attempt was dropped, and it beat the timeout) or the retry budget runs
/// out. Mutating operations (`retryable == false`) take exactly one attempt
/// and report absorbed faults as degraded service -- re-issuing a join or
/// insert could double-apply state, and the protocols repair damage through
/// their own recovery paths instead. With no fault plan attached the
/// default policy applies: one attempt that always stands, so a policy set
/// while detached has no effect.
template <typename Fn>
OpStats Overlay::Measured(const char* op, PeerId origin, bool retryable,
                          Fn&& fn) {
  net::Network* net = network();
  const fault::Policy detached;
  const fault::Policy& pol = net->faults() != nullptr ? resilience_ : detached;
  OpStats st;
  net::CounterSnapshot before = net->Snapshot();
  const bool cache_metrics = cache_ != nullptr && obs_ != nullptr;
  cache::Stats cache_before;
  if (cache_metrics) cache_before = cache_->stats();
  if (obs_ != nullptr) obs_->BeginOp(op, net->ObsClock());
  net->FaultOpTick();
  const int attempts = 1 + (retryable ? pol.max_retries : 0);
  uint64_t dup_msgs = 0;
  bool accepted = false;
  PeerId from = origin;
  for (int attempt = 0; attempt < attempts && !accepted; ++attempt) {
    if (attempt > 0) {
      ResetAnswer(&st);
      ++st.retries;
      st.latency_ticks += pol.BackoffFor(attempt);
      if (pol.reroute && origin != kNullPeer) {
        from = RetryOrigin(origin, attempt);
      }
    }
    // Cache interactions are real (and billed) whether or not the attempt
    // is accepted: fn adds them to st, so they accumulate across attempts.
    net->BeginOpWindow();
    fn(from, &st);
    const sim::Time ticks = net->EndOpWindow();
    st.latency_ticks += ticks;
    uint64_t drops = net->window_dropped();
    dup_msgs += net->window_duplicated();
    st.dropped_msgs += drops;
    // An attempt that lost any message cannot prove its answer reached
    // anyone (the loss may have been the reply); one that overran the
    // timeout is discarded by the impatient caller. Either way: retry.
    bool lost = retryable && drops > 0;
    bool late = retryable && pol.timeout_ticks > 0 && ticks > pol.timeout_ticks;
    if (late) ++st.timeouts;
    accepted = !lost && !late;
  }
  if (!accepted) {
    ResetAnswer(&st);
    st.gave_up = true;
    st.status = Status::Unavailable(
        "retry budget exhausted under fault injection");
  }
  st.degraded =
      !accepted || st.retries > 0 || st.dropped_msgs > 0 || dup_msgs > 0;
  st.messages = net::Network::Delta(before, net->Snapshot());
  if (obs_ != nullptr) {
    obs_->EndOp(op, net->ObsClock(),
                {st.ok(), st.peer, st.hops, st.messages, st.latency_ticks});
    // All zero with no fault plan attached.
    obs::Registry& reg = obs_->metrics();
    Bump(reg, fault::kMetricDrops, st.dropped_msgs);
    Bump(reg, fault::kMetricRetries, static_cast<uint64_t>(st.retries));
    Bump(reg, fault::kMetricTimeouts, static_cast<uint64_t>(st.timeouts));
    Bump(reg, fault::kMetricGaveUp, st.gave_up ? 1 : 0);
    Bump(reg, fault::kMetricDegraded, st.degraded ? 1 : 0);
    if (cache_metrics) PublishCacheMetrics(cache_before);
  }
  return st;
}

template <typename Fn>
OpStats Overlay::Membership(const char* op, PeerId contact, PeerId leaver,
                            Fn&& fn) {
  return Measured(op, contact, /*retryable=*/false,
                  [&](PeerId c, OpStats* s) {
                    if (cache_ == nullptr) return fn(c, s);
                    const cache::Departure d =
                        cache_->BeforeMembership(*this, leaver);
                    fn(c, s);
                    if (s->ok()) cache_->AfterMembership(*this, d, s->peer);
                  });
}

std::string CapabilitiesToString(uint32_t caps) {
  static constexpr struct {
    Capability bit;
    const char* name;
  } kNames[] = {
      {kRangeSearch, "range"},   {kFailRecovery, "fail"},
      {kLoadBalance, "balance"}, {kReplication, "replicate"},
      {kOrderedGrowth, "ordered"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((caps & bit) == 0) continue;
    if (!out.empty()) out += ",";
    out += name;
  }
  return out.empty() ? "-" : out;
}

PeerId Overlay::Bootstrap() { return DoBootstrap(); }

PeerId Overlay::RetryOrigin(PeerId origin, int attempt) const {
  (void)attempt;
  return origin;
}

OpStats Overlay::Join(PeerId contact) {
  return Membership("join", contact, kNullPeer,
                    [&](PeerId c, OpStats* s) { DoJoin(c, s); });
}

OpStats Overlay::Leave(PeerId leaver) {
  return Membership("leave", kNullPeer, leaver,
                    [&](PeerId, OpStats* s) { DoLeave(leaver, s); });
}

OpStats Overlay::Fail(PeerId victim) {
  return Membership("fail", kNullPeer, victim,
                    [&](PeerId, OpStats* s) { DoFail(victim, s); });
}

OpStats Overlay::RecoverAllFailures() {
  return Membership("recover", kNullPeer, kNullPeer,
                    [&](PeerId, OpStats* s) { DoRecoverAllFailures(s); });
}

OpStats Overlay::Insert(PeerId from, Key key) {
  return Measured("insert", from, /*retryable=*/false,
                  [&](PeerId f, OpStats* st) { DoInsert(f, key, st); });
}

OpStats Overlay::Delete(PeerId from, Key key) {
  return Measured("delete", from, /*retryable=*/false,
                  [&](PeerId f, OpStats* st) { DoDelete(f, key, st); });
}

OpStats Overlay::ExactSearch(PeerId from, Key key) {
  return Measured("exact", from, /*retryable=*/true,
                  [&](PeerId f, OpStats* st) { CacheAwareExact(f, key, st); });
}

OpStats Overlay::RangeSearch(PeerId from, Key lo, Key hi) {
  return Measured("range", from, /*retryable=*/true,
                  [&](PeerId f, OpStats* st) { DoRangeSearch(f, lo, hi, st); });
}

void Overlay::DoFail(PeerId victim, OpStats* st) {
  (void)victim;
  st->status = Unsupported("Fail");
}

void Overlay::DoRecoverAllFailures(OpStats* st) {
  st->status = Unsupported("RecoverAllFailures");
}

void Overlay::DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st) {
  (void)from;
  (void)lo;
  (void)hi;
  st->status = Unsupported("RangeSearch");
}

Status Overlay::Unsupported(const char* op) const {
  return Status::FailedPrecondition(name() + " does not support " + op);
}

void Overlay::CacheAwareExact(PeerId from, Key key, OpStats* st) {
  if (cache_ == nullptr) return DoExactSearch(from, key, st);
  const cache::Route r =
      cache_->Consult(*this, network(), from, RouteCoordOf(key));
  if (!r.hit || !CacheLocalAnswer(r.start, key, st)) {
    DoExactSearch(r.start, key, st);
  }
  st->hops += r.jump;
  st->cache_hits += r.hit ? 1 : 0;
  st->cache_stale += r.stale ? 1 : 0;
  st->hops_saved +=
      cache_->Complete(*this, r, st->ok() ? st->peer : kNullPeer, st->hops);
}

void Overlay::PublishCacheMetrics(const cache::Stats& before) {
  const cache::Stats& now = cache_->stats();
  obs::Registry& reg = obs_->metrics();
  for (const cache::StatMetric& m : cache::kStatMetrics) {
    Bump(reg, m.name, now.*m.field - before.*m.field);
  }
  const uint64_t consults = now.hits + now.misses + now.stale;
  if (consults > 0) {
    reg.Gauge(cache::kMetricHitRatePct) =
        static_cast<int64_t>(100 * now.hits / consults);
  }
}

}  // namespace overlay
}  // namespace baton
