// Micro benchmarks (google-benchmark) for the core data structures: position
// arithmetic, routing-table slot math, key storage, the flat position
// directory (vs std::unordered_map), the in-order member walk, end-to-end
// search on a prebuilt overlay, and the Zipf sampler.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "baton/baton.h"
#include "util/flat_map.h"
#include "util/zipf.h"
#include "workload/workload.h"

namespace baton {
namespace {

void BM_PositionInOrderKey(benchmark::State& state) {
  Position p{20, 12345};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.InOrderKey());
    p.number = (p.number % 100000) + 1;
  }
}
BENCHMARK(BM_PositionInOrderKey);

void BM_RoutingTableReset(benchmark::State& state) {
  Position p{static_cast<uint32_t>(state.range(0)), 1};
  p.number = p.LevelWidth() / 2 + 1;
  RoutingTable rt;
  for (auto _ : state) {
    rt.Reset(p, /*left=*/true);
    benchmark::DoNotOptimize(rt.size());
  }
}
BENCHMARK(BM_RoutingTableReset)->Arg(8)->Arg(16)->Arg(24);

void BM_KeyBagInsertErase(benchmark::State& state) {
  Rng rng(1);
  KeyBag bag;
  for (int i = 0; i < 1000; ++i) bag.Insert(rng.UniformInt(1, 1000000000));
  for (auto _ : state) {
    Key k = rng.UniformInt(1, 1000000000);
    bag.Insert(k);
    benchmark::DoNotOptimize(bag.Erase(k));
  }
}
BENCHMARK(BM_KeyBagInsertErase);

void BM_KeyBagCountInRange(benchmark::State& state) {
  Rng rng(2);
  KeyBag bag;
  for (int i = 0; i < 10000; ++i) bag.Insert(rng.UniformInt(1, 1000000000));
  for (auto _ : state) {
    Key lo = rng.UniformInt(1, 900000000);
    benchmark::DoNotOptimize(bag.CountInRange(lo, lo + 50000000));
  }
}
BENCHMARK(BM_KeyBagCountInRange);

// The directory probe sits inside every routing hop; compare the flat map
// against the node-based std::unordered_map it replaced, on a key set shaped
// like real position keys (Packed() of a dense balanced tree).
std::vector<uint64_t> PositionKeys(int count) {
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(count));
  Position pos = Position::Root();
  // Breadth-first over a full tree: levels fill left to right.
  for (int i = 0; i < count; ++i) {
    keys.push_back(pos.Packed());
    if (pos.number < pos.LevelWidth()) {
      ++pos.number;
    } else {
      pos = Position{pos.level + 1, 1};
    }
  }
  return keys;
}

void BM_FlatMapProbe(benchmark::State& state) {
  auto keys = PositionKeys(static_cast<int>(state.range(0)));
  util::FlatMap64<uint32_t> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map.Insert(keys[i], static_cast<uint32_t>(i));
  }
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(keys[rng.NextBelow(keys.size())]));
  }
}
BENCHMARK(BM_FlatMapProbe)->Arg(1024)->Arg(131072);

void BM_UnorderedMapProbe(benchmark::State& state) {
  auto keys = PositionKeys(static_cast<int>(state.range(0)));
  std::unordered_map<uint64_t, uint32_t> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map.emplace(keys[i], static_cast<uint32_t>(i));
  }
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[rng.NextBelow(keys.size())]));
  }
}
BENCHMARK(BM_UnorderedMapProbe)->Arg(1024)->Arg(131072);

void BM_FlatMapInsertErase(benchmark::State& state) {
  util::FlatMap64<uint32_t> map;
  auto keys = PositionKeys(4096);
  for (size_t i = 0; i < keys.size(); ++i) {
    map.Insert(keys[i], static_cast<uint32_t>(i));
  }
  Rng rng(8);
  for (auto _ : state) {
    uint64_t k = keys[rng.NextBelow(keys.size())];
    map.Erase(k);
    benchmark::DoNotOptimize(map.Insert(k, 1));
  }
}
BENCHMARK(BM_FlatMapInsertErase);

void BM_MembersInOrderWalk(benchmark::State& state) {
  net::Network net;
  BatonNetwork overlay(BatonConfig{}, &net, 11);
  Rng rng(11);
  std::vector<net::PeerId> members{overlay.Bootstrap()};
  for (int i = 1; i < state.range(0); ++i) {
    members.push_back(
        overlay.Join(members[rng.NextBelow(members.size())]).value());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.Members().size());
  }
}
BENCHMARK(BM_MembersInOrderWalk)->Arg(1024)->Arg(16384);

void BM_ExactSearch(benchmark::State& state) {
  net::Network net;
  BatonNetwork overlay(BatonConfig{}, &net, 99);
  Rng rng(3);
  std::vector<net::PeerId> members{overlay.Bootstrap()};
  for (int i = 1; i < state.range(0); ++i) {
    members.push_back(
        overlay.Join(members[rng.NextBelow(members.size())]).value());
  }
  for (int i = 0; i < 10 * state.range(0); ++i) {
    // Key before origin, in separate statements: argument evaluation order
    // is unspecified.
    const Key key = rng.UniformInt(1, 999999999);
    Status s = overlay.Insert(members[rng.NextBelow(members.size())], key);
    BATON_CHECK(s.ok());
  }
  for (auto _ : state) {
    const Key key = rng.UniformInt(1, 999999999);
    auto res =
        overlay.ExactSearch(members[rng.NextBelow(members.size())], key);
    benchmark::DoNotOptimize(res.ok());
  }
}
BENCHMARK(BM_ExactSearch)->Arg(256)->Arg(1024)->Arg(4096);

void BM_JoinLeaveCycle(benchmark::State& state) {
  net::Network net;
  BatonNetwork overlay(BatonConfig{}, &net, 7);
  Rng rng(4);
  std::vector<net::PeerId> members{overlay.Bootstrap()};
  for (int i = 1; i < state.range(0); ++i) {
    members.push_back(
        overlay.Join(members[rng.NextBelow(members.size())]).value());
  }
  for (auto _ : state) {
    auto joined =
        overlay.Join(members[rng.NextBelow(members.size())]).value();
    members.push_back(joined);
    size_t idx = rng.NextBelow(members.size());
    BATON_CHECK(overlay.Leave(members[idx]).ok());
    members.erase(members.begin() + static_cast<long>(idx));
  }
}
BENCHMARK(BM_JoinLeaveCycle)->Arg(1024);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfGenerator zipf(1u << 20, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_UniformKeyGen(benchmark::State& state) {
  Rng rng(6);
  workload::UniformKeys gen(1, 1000000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(&rng));
  }
}
BENCHMARK(BM_UniformKeyGen);

}  // namespace
}  // namespace baton

BENCHMARK_MAIN();
