// The paper's Figure 8 panels, two design ablations and a durability table,
// one per --figure value (default: all, in this order):
//
//   8a  messages to find the join node / replacement node vs N
//   8b  messages to update routing tables on join / leave
//   8c  messages per insert / delete on a loaded network
//   8d  messages per exact-match query (--key-dist skews the query keys)
//   8e  messages per range query at 0.1% selectivity (Chord: n/a, hashing
//       destroys the key order)
//   8f  access load per node by tree level
//   8g  cumulative load-balancing messages, uniform vs Zipf(1.0) inserts
//   8h  nodes shifted per load-balancing restructure
//   8i  extra query messages while K joins/leaves are in flight
//   ablation-fanout  the multiway tree's fan-out trade-off (section V-A)
//   ablation-lb      adjacent-only vs recruiting load balancing (IV-D)
//   durability       key loss and replication overhead vs factor r
//
// 8a-8e and durability sweep --sizes; 8f runs the last size, the rest the
// first. Every table is deterministic per --seed; tests/golden/ pins each
// one at --sizes=500,1000 --seeds=2.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common/experiment.h"
#include "overlay/baton_overlay.h"
#include "overlay/multiway_overlay.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

constexpr int kChurnOps = 100;

uint64_t Seed(const Options& opt, int s) {
  return opt.base_seed + static_cast<uint64_t>(s);
}

// ---- Fig 8(a)-(e): one sweep over sizes x seeds x backends -----------------

/// Fills one backend's columns (stats[0], stats[1], ...) from its built
/// instance. The rng and the uniform key generator are shared by all
/// backends of one seed, in backend order. Every op draws its key before
/// its origin, in separate statements: argument evaluation order is
/// unspecified, and no table may depend on the compiler's choice.
using Series = std::function<void(Instance* inst, Rng* rng,
                                  workload::KeyGenerator* keys,
                                  const Options& opt, RunningStat* stats)>;

struct SweepBackend {
  const char* name;
  overlay::Config cfg;
  bool preload;     // keys_per_node keys per join batch while building
  bool load_after;  // LoadOverlay(keys_per_node) after a data-less build
  Series series;
};

struct SweepFigure {
  std::string title;
  uint64_t salt;                     // per-seed rng: Mix64(seed ^ salt)
  std::vector<std::string> columns;  // per-backend column suffixes
  std::vector<SweepBackend> backends;
  std::vector<std::pair<std::string, std::string>> fixed;  // (column, cell)
};

SweepBackend Baton(Series s) {
  return {"baton", BalancedOverlayConfig(), true, false, std::move(s)};
}
SweepBackend Chord(bool load_after, Series s) {
  return {"chord", {}, false, load_after, std::move(s)};
}
SweepBackend Multiway(Series s) {
  return {"multiway", {}, true, false, std::move(s)};
}

void RunSweep(const SweepFigure& fig, const Options& opt) {
  std::vector<std::string> headers = {"N"};
  for (const SweepBackend& b : fig.backends) {
    for (const std::string& c : fig.columns) headers.push_back(b.name + c);
  }
  for (const auto& cell : fig.fixed) headers.push_back(cell.first);
  TablePrinter table(headers);
  const size_t cols = fig.columns.size();
  for (size_t n : opt.sizes) {
    std::vector<RunningStat> stats(fig.backends.size() * cols);
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = Seed(opt, s);
      Rng rng(Mix64(seed ^ fig.salt));
      workload::UniformKeys keys(1, kDomainHi);
      for (size_t b = 0; b < fig.backends.size(); ++b) {
        const SweepBackend& be = fig.backends[b];
        Instance inst =
            BuildOverlay(be.name, n, seed, be.cfg,
                         be.preload ? opt.keys_per_node : 0,
                         be.preload ? &keys : nullptr);
        if (be.load_after) LoadOverlay(&inst, opt.keys_per_node, &keys, &rng);
        be.series(&inst, &rng, &keys, opt, &stats[b * cols]);
      }
    }
    std::vector<std::string> row = {
        TablePrinter::Int(static_cast<int64_t>(n))};
    for (const RunningStat& st : stats) {
      row.push_back(TablePrinter::Num(st.mean()));
    }
    for (const auto& cell : fig.fixed) row.push_back(cell.second);
    table.AddRow(row);
  }
  Emit(fig.title, table, opt);
}

/// Message cost of one phase, from the counter snapshots bracketing it.
using Cost = std::function<uint64_t(const net::CounterSnapshot&,
                                    const net::CounterSnapshot&)>;

Cost Types(std::vector<net::MsgType> types) {
  return [types = std::move(types)](const net::CounterSnapshot& a,
                                    const net::CounterSnapshot& b) {
    uint64_t sum = 0;
    for (net::MsgType t : types) sum += net::Network::DeltaOfType(a, b, t);
    return sum;
  };
}

/// kChurnOps join+leave pairs; columns: join cost, leave cost.
Series Churn(Cost join, Cost leave) {
  return [join = std::move(join), leave = std::move(leave)](
             Instance* inst, Rng* rng, workload::KeyGenerator*, const Options&,
             RunningStat* st) {
    JoinLeaveChurn(inst, rng, kChurnOps, join, leave, &st[0], &st[1]);
  };
}

/// --queries inserts, then deletes of the same keys; columns: messages per
/// insert, per delete.
void InsertDelete(Instance* inst, Rng* rng, workload::KeyGenerator* keys,
                  const Options& opt, RunningStat* st) {
  std::vector<Key> inserted;
  for (int i = 0; i < opt.queries; ++i) {
    Key k = keys->Next(rng);
    inserted.push_back(k);
    auto res = inst->overlay->Insert(inst->RandomMember(rng), k);
    BATON_CHECK(res.ok());
    st[0].Add(static_cast<double>(res.messages));
  }
  for (Key k : inserted) {
    auto res = inst->overlay->Delete(inst->RandomMember(rng), k);
    BATON_CHECK(res.ok());
    st[1].Add(static_cast<double>(res.messages));
  }
}

/// --queries exact searches for `qkeys` draws; column: messages per query.
Series ExactQueries(workload::KeyGenerator* qkeys) {
  return [qkeys](Instance* inst, Rng* rng, workload::KeyGenerator*,
                 const Options& opt, RunningStat* st) {
    for (int i = 0; i < opt.queries; ++i) {
      Key k = qkeys->Next(rng);
      auto res = inst->overlay->ExactSearch(inst->RandomMember(rng), k);
      BATON_CHECK(res.ok());
      st[0].Add(static_cast<double>(res.messages));
    }
  };
}

/// --queries range searches covering 0.1% of the key space (~10 nodes at
/// N = 10000); columns: messages, nodes spanned.
void RangeQueries(Instance* inst, Rng* rng, workload::KeyGenerator*,
                  const Options& opt, RunningStat* st) {
  const Key width = kDomainHi / 1000;
  for (int i = 0; i < opt.queries; ++i) {
    Key lo = rng->UniformInt(1, kDomainHi - width - 1);
    auto res =
        inst->overlay->RangeSearch(inst->RandomMember(rng), lo, lo + width);
    BATON_CHECK(res.ok());
    st[0].Add(static_cast<double>(res.messages));
    st[1].Add(static_cast<double>(res.nodes));
  }
}

void Fig8a(const Options& opt) {
  using T = net::MsgType;
  RunSweep({"Fig 8(a): avg messages to find join node / replacement node",
            0x8a,
            {"_join", "_leave"},
            {Baton(Churn(Types({T::kJoinForward}),
                         Types({T::kReplacementForward}))),
             // Chord's successor absorbs the leaver: no replacement search.
             Chord(false, Churn(Types({T::kChordLookup}), Types({}))),
             Multiway(Churn(
                 Types({T::kMultiwayJoinForward, T::kMultiwayProbe}),
                 Types({T::kMultiwayChildPoll})))},
            {}},
           opt);
}

void Fig8b(const Options& opt) {
  using T = net::MsgType;
  Cost chord = Types({T::kChordJoinInit, T::kChordUpdateOthers,
                      T::kChordNotify, T::kChordKeyMove});
  Cost multiway = Types({T::kMultiwayLinkUpdate, T::kContentTransfer});
  RunSweep({"Fig 8(b): avg messages to update routing tables on join / leave",
            0x8b,
            {"_join", "_leave"},
            {Baton(Churn(MaintenanceDelta, MaintenanceDelta)),
             Chord(false, Churn(chord, chord)),
             Multiway(Churn(multiway, multiway))},
            {}},
           opt);
}

void Fig8c(const Options& opt) {
  RunSweep({"Fig 8(c): avg messages per insert / delete", 0x8c,
            {"_ins", "_del"},
            {Baton(InsertDelete), Chord(true, InsertDelete),
             Multiway(InsertDelete)},
            {}},
           opt);
}

void Fig8d(const Options& opt) {
  // The default uniform query keys draw exactly like the preload generator.
  KeyDistSpec qdist = opt.key_dists.empty() ? KeyDistSpec{} : opt.key_dists[0];
  auto qkeys = MakeKeyGenerator(qdist, 1, kDomainHi);
  RunSweep({"Fig 8(d): avg messages per exact-match query", 0x8d, {""},
            {Baton(ExactQueries(qkeys.get())),
             Chord(true, ExactQueries(qkeys.get())),
             Multiway(ExactQueries(qkeys.get()))},
            {}},
           opt);
}

void Fig8e(const Options& opt) {
  RunSweep({"Fig 8(e): avg messages per range query (0.1% selectivity)", 0x8e,
            {"", "_nodes"},
            {Baton(RangeQueries), Multiway(RangeQueries)},
            {{"chord", "n/a"}}},
           opt);
}

void Fig8f(const Options& opt) {
  const size_t n = opt.sizes.back();
  std::map<int, RunningStat> insert_load, search_load;
  std::map<int, uint64_t> level_nodes;
  for (int s = 0; s < opt.seeds; ++s) {
    uint64_t seed = Seed(opt, s);
    Rng rng(Mix64(seed ^ 0x8f));
    workload::UniformKeys keys(1, kDomainHi);
    auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                           opt.keys_per_node, &keys);
    const BatonNetwork& tree = overlay::BatonBackend(*bi.overlay);
    auto level = [&](net::PeerId p) {
      return static_cast<int>(tree.node(p).pos.level);
    };

    // Insertion phase: keys_per_node additional keys per node on average.
    bi.net()->ResetPerPeerCounters();
    LoadOverlay(&bi, opt.keys_per_node, &keys, &rng);
    std::map<int, RunningStat> ins_this;
    for (net::PeerId p : bi.members) {
      ins_this[level(p)].Add(static_cast<double>(
          bi.net()->ProcessedBy(p, net::MsgCategory::kData)));
    }

    // Search phase: 10 x --queries exact-match queries.
    bi.net()->ResetPerPeerCounters();
    for (int i = 0; i < 10 * opt.queries; ++i) {
      Key k = keys.Next(&rng);
      BATON_CHECK(bi.overlay->ExactSearch(bi.RandomMember(&rng), k).ok());
    }
    for (net::PeerId p : bi.members) {
      search_load[level(p)].Add(static_cast<double>(
          bi.net()->ProcessedBy(p, net::MsgCategory::kQuery)));
      insert_load[level(p)].Add(ins_this[level(p)].mean());
      ++level_nodes[level(p)];
    }
  }
  TablePrinter table(
      {"level", "nodes", "insert_msgs_per_node", "search_msgs_per_node"});
  for (const auto& [lvl, stat] : insert_load) {
    table.AddRow({TablePrinter::Int(lvl),
                  TablePrinter::Int(static_cast<int64_t>(
                      level_nodes[lvl] / static_cast<uint64_t>(opt.seeds))),
                  TablePrinter::Num(stat.mean()),
                  TablePrinter::Num(search_load[lvl].mean())});
  }
  Emit("Fig 8(f): access load per node by tree level (N=" +
           std::to_string(n) + ")",
       table, opt);
}

// ---- Fig 8(g), 8(h), ablation-lb: one skewed-insert stream ------------------

constexpr KeyDistSpec kZipf1{KeyDistSpec::Kind::kZipf, 1.0};

struct InsertRun {
  Instance inst;
  uint64_t lb_msgs = 0;  // every message beyond plain kInsert routing
};

/// Builds a BATON of n nodes preloaded with keys_per_node uniform keys per
/// join batch, then inserts keys_per_node * n more keys drawn from `dist` at
/// random origins (rng Mix64(seed ^ salt)). `curve`, when given, sums
/// (inserts so far, load-balancing messages so far) at every tenth of the
/// stream across runs.
InsertRun InsertStream(size_t n, uint64_t seed, uint64_t salt,
                       const overlay::Config& cfg, size_t keys_per_node,
                       const KeyDistSpec& dist,
                       std::vector<std::pair<uint64_t, uint64_t>>* curve =
                           nullptr) {
  workload::UniformKeys preload(1, kDomainHi);
  InsertRun run{BuildOverlay("baton", n, seed, cfg, keys_per_node, &preload)};
  Rng rng(Mix64(seed ^ salt));
  auto gen = MakeKeyGenerator(dist, 1, kDomainHi);
  net::Network* net = run.inst.net();
  const uint64_t total = keys_per_node * n;
  const uint64_t checkpoint = total / 10;
  uint64_t routing = 0;
  size_t point = 0;
  auto base = net->Snapshot();
  for (uint64_t i = 1; i <= total; ++i) {
    auto before = net->Snapshot();
    Key k = gen->Next(&rng);
    auto st = run.inst.overlay->Insert(run.inst.RandomMember(&rng), k);
    BATON_CHECK(st.ok()) << st.status.ToString();
    auto after = net->Snapshot();
    routing += net::Network::DeltaOfType(before, after, net::MsgType::kInsert);
    if (curve != nullptr && checkpoint > 0 && i % checkpoint == 0) {
      if (point == curve->size()) curve->emplace_back(i, 0);
      (*curve)[point++].second += net::Network::Delta(base, after) - routing;
    }
  }
  run.inst.overlay->CheckInvariants();
  run.lb_msgs = net::Network::Delta(base, net->Snapshot()) - routing;
  return run;
}

void Fig8g(const Options& opt) {
  const size_t n = opt.sizes.front();
  std::vector<std::pair<uint64_t, uint64_t>> uni_curve, zipf_curve;
  RunningStat uni_ops, zipf_ops;
  for (int s = 0; s < opt.seeds; ++s) {
    auto lb_ops = [&](const KeyDistSpec& dist, auto* curve) {
      InsertRun run = InsertStream(n, Seed(opt, s), 0x90,
                                   BalancedOverlayConfig(), opt.keys_per_node,
                                   dist, curve);
      return static_cast<double>(
          overlay::BatonBackend(*run.inst.overlay).load_balance_ops());
    };
    uni_ops.Add(lb_ops(KeyDistSpec{}, &uni_curve));
    zipf_ops.Add(lb_ops(kZipf1, &zipf_curve));
  }
  TablePrinter table({"inserts", "uniform_lb_msgs", "zipf_lb_msgs",
                      "zipf_msgs_per_insert"});
  for (size_t i = 0; i < uni_curve.size(); ++i) {
    uint64_t inserts = uni_curve[i].first;
    double uni_avg = static_cast<double>(uni_curve[i].second) / opt.seeds;
    double zipf_avg = static_cast<double>(zipf_curve[i].second) / opt.seeds;
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(inserts)),
                  TablePrinter::Num(uni_avg), TablePrinter::Num(zipf_avg),
                  TablePrinter::Num(zipf_avg / static_cast<double>(inserts),
                                    4)});
  }
  Emit("Fig 8(g): cumulative load-balancing messages, uniform vs Zipf(1.0) "
       "(N=" + std::to_string(n) + ", avg LB ops uniform=" +
           TablePrinter::Num(uni_ops.mean(), 1) + " zipf=" +
           TablePrinter::Num(zipf_ops.mean(), 1) + ")",
       table, opt);
}

void Fig8h(const Options& opt) {
  const size_t n = opt.sizes.front();
  Histogram hist;
  for (int s = 0; s < opt.seeds; ++s) {
    InsertRun run = InsertStream(n, Seed(opt, s), 0x91, BalancedOverlayConfig(),
                                 opt.keys_per_node, kZipf1);
    hist.Merge(overlay::BatonBackend(*run.inst.overlay).shift_sizes());
  }
  TablePrinter table({"nodes_shifted", "count", "fraction"});
  const double total = static_cast<double>(hist.total_count());
  for (const auto& [value, count] : hist.Buckets()) {
    table.AddRow({TablePrinter::Int(value),
                  TablePrinter::Int(static_cast<int64_t>(count)),
                  TablePrinter::Num(static_cast<double>(count) / total, 4)});
  }
  Emit("Fig 8(h): size of the load-balancing shift (Zipf(1.0), N=" +
           std::to_string(n) + ", " + std::to_string(hist.total_count()) +
           " restructures)",
       table, opt);
}

void AblationLoadBalance(const Options& opt) {
  const size_t n = opt.sizes.front();
  TablePrinter table({"scheme", "max_load/avg", "lb_msgs_per_insert",
                      "lb_ops"});
  const char* labels[] = {"adjacent-only", "adjacent+recruit (paper)",
                          "recruit+directory ([4], fn.2)"};
  for (int scheme : {0, 1, 2}) {
    overlay::Config cfg = BalancedOverlayConfig();
    cfg.baton.enable_remote_recruit = scheme >= 1;
    cfg.baton.enable_recruit_directory = scheme >= 2;
    RunningStat ratio, msgs, ops;
    for (int s = 0; s < opt.seeds; ++s) {
      InsertRun run = InsertStream(n, Seed(opt, s), 0xab1, cfg,
                                   opt.keys_per_node, kZipf1);
      const overlay::Overlay& ov = *run.inst.overlay;
      const BatonNetwork& tree = overlay::BatonBackend(ov);
      size_t max_load = 0;
      for (net::PeerId p : ov.Members()) {
        max_load = std::max(max_load, tree.node(p).data.size());
      }
      double avg = static_cast<double>(ov.total_keys()) /
                   static_cast<double>(ov.size());
      ratio.Add(static_cast<double>(max_load) / avg);
      msgs.Add(static_cast<double>(run.lb_msgs) /
               static_cast<double>(opt.keys_per_node * n));
      ops.Add(static_cast<double>(tree.load_balance_ops()));
    }
    table.AddRow({labels[scheme], TablePrinter::Num(ratio.mean()),
                  TablePrinter::Num(msgs.mean(), 4),
                  TablePrinter::Num(ops.mean(), 1)});
  }
  Emit("Ablation: load-balancing scheme under Zipf(1.0) (N=" +
           std::to_string(n) + ")",
       table, opt);
}

/// While a batch of K membership changes is in flight (their routing-table
/// notifications withheld), queries hit stale links, time out against
/// departed peers and detour via the fault-tolerant paths of section III-D.
void Fig8i(const Options& opt) {
  const size_t n = opt.sizes.front();
  const std::vector<int> churn_levels = {0, 16, 32, 64, 128, 256, 512};
  std::vector<RunningStat> msgs(churn_levels.size()), fails(msgs.size());
  for (int s = 0; s < opt.seeds; ++s) {
    uint64_t seed = Seed(opt, s);
    workload::UniformKeys keys(1, kDomainHi);
    for (size_t ci = 0; ci < churn_levels.size(); ++ci) {
      Rng rng(Mix64(seed ^ 0x92));
      auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                             opt.keys_per_node, &keys);
      bi.net()->SetDeferUpdates(true);
      for (int i = 0; i < churn_levels[ci]; ++i) {
        if (rng.NextBool(0.5)) {
          auto joined = bi.overlay->Join(bi.RandomMember(&rng));
          if (joined.ok()) bi.members.push_back(joined.peer);
        } else {
          size_t idx = rng.NextBelow(bi.members.size());
          if (bi.overlay->Leave(bi.members[idx]).ok()) {
            bi.members.erase(bi.members.begin() + static_cast<long>(idx));
          }
        }
      }
      int failed = 0;
      auto before = bi.net()->Snapshot();
      for (int q = 0; q < opt.queries; ++q) {
        Key k = keys.Next(&rng);
        if (!bi.overlay->ExactSearch(bi.RandomMember(&rng), k).ok()) ++failed;
      }
      uint64_t query_msgs = net::Network::Delta(before, bi.net()->Snapshot());
      msgs[ci].Add(static_cast<double>(query_msgs) / opt.queries);
      fails[ci].Add(100.0 * failed / opt.queries);
      bi.net()->FlushDeferred();
      bi.net()->SetDeferUpdates(false);
    }
  }
  TablePrinter table({"concurrent_ops", "msgs_per_query", "extra_per_query",
                      "failed_queries_pct"});
  double baseline = msgs[0].mean();
  for (size_t ci = 0; ci < churn_levels.size(); ++ci) {
    table.AddRow({TablePrinter::Int(churn_levels[ci]),
                  TablePrinter::Num(msgs[ci].mean()),
                  TablePrinter::Num(msgs[ci].mean() - baseline),
                  TablePrinter::Num(fails[ci].mean())});
  }
  Emit("Fig 8(i): extra query messages under concurrent joins/leaves (N=" +
           std::to_string(n) + ")",
       table, opt);
}

/// "if a node can have many children, the cost of join operation is low but
/// the cost of leave operation is high". avg_children shows that each accept
/// carves half of the acceptor's remaining range, so data-driven joins
/// rarely fill the configured fan-out.
void AblationFanout(const Options& opt) {
  const size_t n = opt.sizes.front();
  TablePrinter table({"fanout", "depth", "avg_children", "join_msgs",
                      "leave_msgs", "search_msgs"});
  for (int fanout : {2, 4, 8, 16}) {
    RunningStat depth, join, leave, search, kids;
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = Seed(opt, s);
      Rng rng(Mix64(seed ^ 0xab2));
      workload::UniformKeys keys(1, kDomainHi);
      overlay::Config cfg;
      cfg.multiway.max_fanout = fanout;
      auto mi = BuildOverlay("multiway", n, seed, cfg, opt.keys_per_node,
                             &keys);
      const auto& tree = overlay::MultiwayBackend(*mi.overlay);
      depth.Add(tree.Depth());
      for (net::PeerId m : tree.Members()) {
        size_t c = tree.node(m).children.size();
        if (c > 0) kids.Add(static_cast<double>(c));
      }
      for (int i = 0; i < 50; ++i) {
        auto joined = mi.overlay->Join(mi.RandomMember(&rng));
        BATON_CHECK(joined.ok());
        mi.members.push_back(joined.peer);
        join.Add(static_cast<double>(joined.messages));
        // The leave-cost claim concerns internal nodes: pick one if any.
        size_t idx = rng.NextBelow(mi.members.size());
        for (size_t probe = 0; probe < mi.members.size(); ++probe) {
          size_t j = (idx + probe) % mi.members.size();
          if (!tree.node(mi.members[j]).children.empty()) {
            idx = j;
            break;
          }
        }
        auto left = mi.overlay->Leave(mi.members[idx]);
        BATON_CHECK(left.ok());
        mi.members.erase(mi.members.begin() + static_cast<long>(idx));
        leave.Add(static_cast<double>(left.messages));
      }
      for (int i = 0; i < opt.queries / 2; ++i) {
        Key k = keys.Next(&rng);
        auto r = mi.overlay->ExactSearch(mi.RandomMember(&rng), k);
        BATON_CHECK(r.ok());
        search.Add(static_cast<double>(r.messages));
      }
    }
    table.AddRow({TablePrinter::Int(fanout), TablePrinter::Num(depth.mean(), 1),
                  TablePrinter::Num(kids.mean(), 2),
                  TablePrinter::Num(join.mean()),
                  TablePrinter::Num(leave.mean()),
                  TablePrinter::Num(search.mean())});
  }
  Emit("Ablation: multiway-tree fan-out trade-off (N=" + std::to_string(n) +
           ")",
       table, opt);
}

/// One churn trace (joins, graceful leaves, single failures recovered at
/// once, index traffic) per (N, r). r = 0 loses every failed node's keys
/// (the paper's behaviour); r >= 1 restores them all, paying per-insert
/// pushes and per-failure restores.
void Durability(const Options& opt) {
  TablePrinter table({"N", "r", "failures", "at_risk", "lost", "recovered",
                      "loss_pct", "repl_msgs", "repl_pct", "healed"});
  for (size_t n : opt.sizes) {
    for (int r : {0, 1, 2, 3}) {
      RunningStat failures_s, at_risk_s, lost_s, recovered_s, repl_s, total_s,
          healed_s;
      for (int s = 0; s < opt.seeds; ++s) {
        uint64_t seed = Seed(opt, s);
        Rng rng(Mix64(seed ^ 0xd07a));
        workload::UniformKeys keys(1, kDomainHi);
        overlay::Config cfg;
        cfg.baton = ReplicatedConfig(r);
        auto bi = BuildOverlay("baton", n, seed, cfg, opt.keys_per_node,
                               &keys);
        BatonNetwork& tree = overlay::BatonBackend(*bi.overlay);
        auto before = bi.net()->Snapshot();

        // joins, leaves, failures, inserts, exacts
        workload::ChurnMix mix{n / 20, n / 20, n / 50, n,
                               static_cast<size_t>(opt.queries)};
        auto trace = workload::MakeChurnTrace(&rng, &keys, mix);

        auto live_member = [&]() {
          net::PeerId p;
          do {
            p = bi.RandomMember(&rng);
          } while (!bi.net()->IsAlive(p));
          return p;
        };
        auto drop_member = [&](net::PeerId p) {
          auto it = std::find(bi.members.begin(), bi.members.end(), p);
          if (it != bi.members.end()) bi.members.erase(it);
        };

        uint64_t at_risk = 0, healed = 0, failures_run = 0;
        size_t ops = 0;
        for (const workload::Op& op : trace) {
          if (op.type == workload::OpType::kJoin) {
            auto joined = bi.overlay->Join(live_member());
            if (joined.ok()) bi.members.push_back(joined.peer);
          } else if (op.type == workload::OpType::kLeave &&
                     bi.overlay->size() > 8) {
            net::PeerId leaver = live_member();
            if (bi.overlay->Leave(leaver).ok()) drop_member(leaver);
          } else if (op.type == workload::OpType::kFail &&
                     bi.overlay->size() > 8) {
            net::PeerId victim = live_member();
            at_risk += tree.node(victim).data.size();
            ++failures_run;
            BATON_CHECK(bi.overlay->Fail(victim).ok());
            // Single-failure trace: recovery completes before the next op,
            // so routing never hits a dead node.
            BATON_CHECK(bi.overlay->RecoverAllFailures().ok());
            drop_member(victim);
          } else if (op.type == workload::OpType::kInsert) {
            BATON_CHECK(bi.overlay->Insert(live_member(), op.key).ok());
          } else if (op.type == workload::OpType::kExact) {
            BATON_CHECK(bi.overlay->ExactSearch(live_member(), op.key).ok());
          }
          // Background anti-entropy: periodic probe/heal pass.
          if (++ops % 512 == 0) healed += tree.RepairReplicas().healed;
        }
        bi.overlay->CheckInvariants();

        auto after = bi.net()->Snapshot();
        failures_s.Add(static_cast<double>(failures_run));
        at_risk_s.Add(static_cast<double>(at_risk));
        lost_s.Add(static_cast<double>(tree.lost_keys()));
        recovered_s.Add(static_cast<double>(tree.recovered_keys()));
        repl_s.Add(static_cast<double>(
            CategoryDelta(before, after, net::MsgCategory::kReplication)));
        total_s.Add(static_cast<double>(net::Network::Delta(before, after)));
        healed_s.Add(static_cast<double>(healed));
      }
      auto pct = [](double part, double whole) {
        return whole <= 0.0 ? 0.0 : 100.0 * part / whole;
      };
      table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)),
                    TablePrinter::Int(r),
                    TablePrinter::Num(failures_s.mean(), 1),
                    TablePrinter::Num(at_risk_s.mean()),
                    TablePrinter::Num(lost_s.mean()),
                    TablePrinter::Num(recovered_s.mean()),
                    TablePrinter::Num(pct(lost_s.mean(), at_risk_s.mean())),
                    TablePrinter::Num(repl_s.mean()),
                    TablePrinter::Num(pct(repl_s.mean(), total_s.mean())),
                    TablePrinter::Num(healed_s.mean())});
    }
  }
  Emit("Durability under churn: key loss and replication overhead vs r",
       table, opt);
}

struct Figure {
  const char* name;
  void (*run)(const Options& opt);
};

const Figure kFigures[] = {
    {"8a", Fig8a}, {"8b", Fig8b}, {"8c", Fig8c}, {"8d", Fig8d},
    {"8e", Fig8e}, {"8f", Fig8f}, {"8g", Fig8g}, {"8h", Fig8h},
    {"8i", Fig8i}, {"ablation-fanout", AblationFanout},
    {"ablation-lb", AblationLoadBalance}, {"durability", Durability},
};

int Main(int argc, char** argv) {
  // Strip --figure before the shared parser, which rejects unknown flags.
  std::string figure = "all";
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--figure=", 9) == 0) {
      figure = argv[i] + 9;
    } else {
      rest.push_back(argv[i]);
    }
  }
  bool known = figure == "all";
  for (const Figure& f : kFigures) known = known || figure == f.name;
  if (!known) {
    std::fprintf(stderr,
                 "unknown --figure '%s' (want 8a..8i, ablation-fanout, "
                 "ablation-lb, durability or all)\n",
                 figure.c_str());
    return 2;
  }
  Options opt = ParseOptions(
      static_cast<int>(rest.size()), rest.data(),
      figure == "8d" ? kKeyDistFlags : kCoreFlags,
      "  --figure=NAME         8a..8i, ablation-fanout, ablation-lb,\n"
      "                        durability or all (default); --key-dist=D\n"
      "                        is accepted with --figure=8d only\n");
  // Tables that divide by a per-point count have no value at 0.
  const auto runs = [&](const char* name) {
    return figure == "all" || figure == name;
  };
  if (opt.queries == 0 && runs("8i")) {
    RejectFlag("--figure=8i divides by --queries: need --queries >= 1");
  }
  if (opt.keys_per_node == 0 && runs("ablation-lb")) {
    RejectFlag("--figure=ablation-lb divides by --keys: need --keys >= 1");
  }
  for (const Figure& f : kFigures) {
    if (figure == "all" || figure == f.name) f.run(opt);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) { return baton::bench::Main(argc, argv); }
