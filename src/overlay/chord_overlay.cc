#include "overlay/chord_overlay.h"

#include "util/check.h"

namespace baton {
namespace overlay {

ChordOverlay::ChordOverlay(uint64_t seed)
    : ring_(std::make_unique<chord::ChordNetwork>(&net_, seed)) {}

const std::string& ChordOverlay::name() const {
  static const std::string kName = "chord";
  return kName;
}

PeerId ChordOverlay::RetryOrigin(PeerId origin, int attempt) const {
  const chord::ChordNode& n = ring_->node(origin);
  if (!n.in_ring) return origin;
  PeerId cand[2];
  int cnt = 0;
  for (PeerId p : {n.successor, n.predecessor}) {
    if (p != kNullPeer && p != origin && ring_->node(p).in_ring &&
        net_.IsAlive(p)) {
      cand[cnt++] = p;
    }
  }
  if (cnt == 0) return origin;
  return cand[(attempt - 1) % cnt];
}

uint64_t ChordOverlay::RouteCoordOf(Key key) const {
  return static_cast<uint64_t>(chord::ChordNetwork::HashKey(key));
}

bool ChordOverlay::RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const {
  const chord::ChordNode& n = ring_->node(peer);
  if (!n.in_ring || n.predecessor == kNullPeer) return false;
  const uint64_t self = ring_->node(peer).chord_id;
  const uint64_t pred = ring_->node(n.predecessor).chord_id;
  // Ownership arc (pred, self] as a half-open interval. pred == self is the
  // single-node ring: lo == hi, which RangeContains reads as "everything".
  *lo = (pred + 1) & 0xffffffffull;
  *hi = (self + 1) & 0xffffffffull;
  return true;
}

bool ChordOverlay::CacheLocalAnswer(PeerId owner, Key key, OpStats* st) {
  const chord::ChordNode& n = ring_->node(owner);
  if (!n.in_ring) return false;
  // The probe verified `owner` holds the key's arc; a FindSuccessor from
  // the owner would walk the whole ring back to its own predecessor.
  st->peer = owner;
  st->found = n.keys.Contains(
      static_cast<Key>(chord::ChordNetwork::HashKey(key)));
  return true;
}

void ChordOverlay::CollectFastTable(int levels,
                                    std::vector<cache::FastEntry>* out) const {
  if (levels <= 0 || ring_->size() == 0) return;
  const std::vector<PeerId>& members = ring_->members();  // sorted by id
  const int arcs_log = levels < chord::kBits ? levels : chord::kBits;
  const uint64_t step = (1ull << chord::kBits) >> arcs_log;
  size_t cursor = 0;  // members and arc starts advance together
  for (uint64_t a = 0; a < (1ull << chord::kBits); a += step) {
    while (cursor < members.size() &&
           ring_->node(members[cursor]).chord_id < a) {
      ++cursor;
    }
    // successor(a): first id >= a, wrapping to the lowest id past the top.
    PeerId owner =
        cursor < members.size() ? members[cursor] : members.front();
    out->push_back({a, a + step, owner, levels});
  }
}

PeerId ChordOverlay::DoBootstrap() { return ring_->Bootstrap(); }

void ChordOverlay::DoJoin(PeerId contact, OpStats* st) {
  Result<PeerId> r = ring_->Join(contact);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->peer = r.value();
}

void ChordOverlay::DoLeave(PeerId leaver, OpStats* st) {
  st->status = ring_->Leave(leaver);
}

void ChordOverlay::DoInsert(PeerId from, Key key, OpStats* st) {
  st->status = ring_->Insert(from, key);
}

void ChordOverlay::DoDelete(PeerId from, Key key, OpStats* st) {
  st->status = ring_->Delete(from, key);
}

void ChordOverlay::DoExactSearch(PeerId from, Key key, OpStats* st) {
  auto r = ring_->Lookup(from, key);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->peer = r.value().node;
  st->found = r.value().found;
  st->hops = r.value().hops;
}

chord::ChordNetwork& ChordBackend(Overlay& ov) {
  auto* adapter = dynamic_cast<ChordOverlay*>(&ov);
  BATON_CHECK(adapter != nullptr)
      << "overlay '" << ov.name() << "' is not the chord backend";
  return adapter->chord();
}

const chord::ChordNetwork& ChordBackend(const Overlay& ov) {
  const auto* adapter = dynamic_cast<const ChordOverlay*>(&ov);
  BATON_CHECK(adapter != nullptr)
      << "overlay '" << ov.name() << "' is not the chord backend";
  return adapter->chord();
}

}  // namespace overlay
}  // namespace baton
