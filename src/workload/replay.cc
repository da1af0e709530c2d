#include "workload/replay.h"

#include "util/check.h"

namespace baton {
namespace workload {

void OpAggregate::Accumulate(const overlay::OpStats& st) {
  ++count;
  if (st.ok()) ++ok;
  if (st.found) ++found;
  messages += st.messages;
  // hops is signed and some backends report a negative sentinel on failed
  // ops; a raw cast would wrap to ~2^64 and corrupt the aggregate.
  uint64_t h = st.hops > 0 ? static_cast<uint64_t>(st.hops) : 0;
  hops += h;
  latency += st.latency_ticks;
  retries += static_cast<uint64_t>(st.retries > 0 ? st.retries : 0);
  timeouts += static_cast<uint64_t>(st.timeouts > 0 ? st.timeouts : 0);
  if (st.gave_up) ++gave_up;
  if (st.degraded) ++degraded;
  dropped_msgs += st.dropped_msgs;
  cache_hits += static_cast<uint64_t>(st.cache_hits > 0 ? st.cache_hits : 0);
  cache_stale +=
      static_cast<uint64_t>(st.cache_stale > 0 ? st.cache_stale : 0);
  hops_saved += static_cast<uint64_t>(st.hops_saved > 0 ? st.hops_saved : 0);
  hops_hist.Add(h);
  messages_hist.Add(st.messages);
  latency_hist.Add(st.latency_ticks);
}

void OpAggregate::Merge(const OpAggregate& other) {
  count += other.count;
  ok += other.ok;
  found += other.found;
  skipped += other.skipped;
  unsupported += other.unsupported;
  messages += other.messages;
  hops += other.hops;
  latency += other.latency;
  retries += other.retries;
  timeouts += other.timeouts;
  gave_up += other.gave_up;
  degraded += other.degraded;
  dropped_msgs += other.dropped_msgs;
  cache_hits += other.cache_hits;
  cache_stale += other.cache_stale;
  hops_saved += other.hops_saved;
  hops_hist.Merge(other.hops_hist);
  messages_hist.Merge(other.messages_hist);
  latency_hist.Merge(other.latency_hist);
}

AppliedOp ApplyOp(overlay::Overlay& ov, const Op& op, Rng* rng,
                  std::vector<net::PeerId>* members,
                  const ReplayOptions& opts) {
  AppliedOp out;
  // The one rng draw this op gets, taken before any capability or guard
  // check so every backend consumes an identical random stream.
  size_t idx = rng->NextBelow(members->size());
  net::PeerId peer = (*members)[idx];
  switch (op.type) {
    case OpType::kJoin: {
      out.stats = ov.Join(peer);
      if (out.stats.ok()) members->push_back(out.stats.peer);
      break;
    }
    case OpType::kLeave: {
      if (members->size() <= opts.min_members) {
        out.disposition = AppliedOp::Disposition::kSkipped;
        break;
      }
      out.stats = ov.Leave(peer);
      if (out.stats.ok()) {
        members->erase(members->begin() + static_cast<long>(idx));
      }
      break;
    }
    case OpType::kFail: {
      if (members->size() <= opts.min_members) {
        out.disposition = AppliedOp::Disposition::kSkipped;
        break;
      }
      if (!ov.Supports(overlay::kFailRecovery)) {
        out.disposition = AppliedOp::Disposition::kUnsupported;
        break;
      }
      out.stats = ov.Fail(peer);
      if (out.stats.ok() && opts.recover_failures) {
        overlay::OpStats rec = ov.RecoverAllFailures();
        BATON_CHECK(rec.ok()) << rec.status.ToString();
        out.stats.messages += rec.messages;
        out.stats.latency_ticks += rec.latency_ticks;
      }
      if (out.stats.ok()) {
        members->erase(members->begin() + static_cast<long>(idx));
      }
      break;
    }
    case OpType::kFailRegion: {
      size_t width = static_cast<size_t>(op.key_hi);
      if (width == 0) width = 1;
      if (members->size() <= opts.min_members + width) {
        out.disposition = AppliedOp::Disposition::kSkipped;
        break;
      }
      if (!ov.Supports(overlay::kFailRecovery)) {
        out.disposition = AppliedOp::Disposition::kUnsupported;
        break;
      }
      // The drawn index anchors the outage in the backend's canonical
      // key-space order (not join order): `width` *consecutive* members
      // fail together, modelling one region / subtree extent going dark,
      // then recovery runs once over the whole burst.
      std::vector<net::PeerId> canon = ov.Members();
      BATON_CHECK_EQ(canon.size(), members->size());
      std::vector<net::PeerId> victims;
      victims.reserve(width);
      for (size_t j = 0; j < width; ++j) {
        victims.push_back(canon[(idx + j) % canon.size()]);
      }
      for (net::PeerId v : victims) {
        overlay::OpStats f = ov.Fail(v);
        BATON_CHECK(f.ok()) << f.status.ToString();
        out.stats.messages += f.messages;
        out.stats.latency_ticks += f.latency_ticks;
        out.stats.dropped_msgs += f.dropped_msgs;
        out.stats.degraded = out.stats.degraded || f.degraded;
      }
      if (opts.recover_failures) {
        overlay::OpStats rec = ov.RecoverAllFailures();
        BATON_CHECK(rec.ok()) << rec.status.ToString();
        out.stats.messages += rec.messages;
        out.stats.latency_ticks += rec.latency_ticks;
        out.stats.dropped_msgs += rec.dropped_msgs;
        out.stats.degraded = out.stats.degraded || rec.degraded;
      }
      for (net::PeerId v : victims) {
        for (size_t m = 0; m < members->size(); ++m) {
          if ((*members)[m] == v) {
            members->erase(members->begin() + static_cast<long>(m));
            break;
          }
        }
      }
      break;
    }
    case OpType::kInsert:
      out.stats = ov.Insert(peer, op.key);
      break;
    case OpType::kDelete:
      out.stats = ov.Delete(peer, op.key);
      break;
    case OpType::kExact:
      out.stats = ov.ExactSearch(peer, op.key);
      break;
    case OpType::kRange: {
      if (!ov.Supports(overlay::kRangeSearch)) {
        out.disposition = AppliedOp::Disposition::kUnsupported;
        break;
      }
      out.stats = ov.RangeSearch(peer, op.key, op.key_hi);
      break;
    }
    case OpType::kNumOpTypes:
      BATON_CHECK(false) << "kNumOpTypes is a sentinel, not an op";
  }
  return out;
}

ReplayResult Replay(overlay::Overlay& ov, const Trace& trace, Rng* rng,
                    std::vector<net::PeerId>* members,
                    const ReplayOptions& opts) {
  BATON_CHECK(members != nullptr && !members->empty())
      << "Replay needs a bootstrapped overlay with at least one member";
  ReplayResult res;
  for (const Op& op : trace) {
    OpAggregate* agg = &res.per_op[static_cast<size_t>(op.type)];
    AppliedOp applied = ApplyOp(ov, op, rng, members, opts);
    switch (applied.disposition) {
      case AppliedOp::Disposition::kSkipped:
        ++agg->skipped;
        break;
      case AppliedOp::Disposition::kUnsupported:
        ++agg->unsupported;
        break;
      case AppliedOp::Disposition::kExecuted:
        agg->Accumulate(applied.stats);
        res.total_messages += applied.stats.messages;
        res.total_latency += applied.stats.latency_ticks;
        if (opts.record_answers) {
          if (op.type == OpType::kExact) {
            res.exact_found.push_back(applied.stats.found);
          } else if (op.type == OpType::kRange) {
            res.range_matches.push_back(applied.stats.matches);
          }
        }
        break;
    }
  }
  return res;
}

}  // namespace workload
}  // namespace baton
