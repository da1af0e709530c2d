#include "bench_common/experiment.h"

#include <atomic>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "obs/trace.h"

namespace baton {
namespace bench {

namespace {

// ---- JSON mirror (--json=PATH) --------------------------------------------
// One JSON array per process; rows accumulate across Emit calls. The file is
// opened eagerly by SetJsonMirror (a bad path must fail before any bench
// work runs) and is kept VALID JSON after every flush: each mirror call
// seeks back over the closing "]" it wrote last time, appends its rows, and
// re-terminates the array. A CHECK abort mid-bench (which skips atexit
// handlers) therefore leaves a parseable artifact holding every row
// emitted so far.

struct JsonMirror {
  std::string path;
  std::FILE* file = nullptr;
  bool any_rows = false;
  long body_end = 0;  // offset just past the last row (before "\n]\n")
};
JsonMirror g_json;

void CloseJsonMirror() {
  if (g_json.file == nullptr) return;
  // The array terminator is already on disk; just release the handle.
  std::fclose(g_json.file);
  g_json.file = nullptr;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// True when the cell can be emitted as a JSON number verbatim (the strict
/// JSON grammar: optional minus, integer part, optional fraction/exponent).
bool LooksNumeric(const std::string& s) {
  if (s.empty()) return false;
  size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
    return false;
  }
  // JSON forbids leading zeros ("007"); such cells must stay quoted or the
  // whole mirror file becomes unparseable.
  if (s[i] == '0' && i + 1 < s.size() &&
      std::isdigit(static_cast<unsigned char>(s[i + 1]))) {
    return false;
  }
  bool seen_dot = false, seen_exp = false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) continue;
    if (c == '.' && !seen_dot && !seen_exp) {
      seen_dot = true;
      if (i + 1 == s.size()) return false;  // "1." is not JSON
      continue;
    }
    if ((c == 'e' || c == 'E') && !seen_exp && i + 1 < s.size()) {
      seen_exp = true;
      if (s[i + 1] == '+' || s[i + 1] == '-') ++i;
      if (i + 1 == s.size()) return false;
      continue;
    }
    return false;
  }
  return true;
}

void MirrorTableToJson(const std::string& title, const TablePrinter& table) {
  if (g_json.file == nullptr) return;
  std::fseek(g_json.file, g_json.body_end, SEEK_SET);
  const auto& headers = table.headers();
  for (const auto& row : table.rows()) {
    std::fprintf(g_json.file, "%s\n  {\"schema\": %d, \"table\": \"%s\"",
                 g_json.any_rows ? "," : "", kBenchJsonSchema,
                 JsonEscape(title).c_str());
    g_json.any_rows = true;
    for (size_t c = 0; c < headers.size() && c < row.size(); ++c) {
      if (LooksNumeric(row[c])) {
        std::fprintf(g_json.file, ", \"%s\": %s",
                     JsonEscape(headers[c]).c_str(), row[c].c_str());
      } else {
        std::fprintf(g_json.file, ", \"%s\": \"%s\"",
                     JsonEscape(headers[c]).c_str(),
                     JsonEscape(row[c]).c_str());
      }
    }
    std::fprintf(g_json.file, "}");
  }
  g_json.body_end = std::ftell(g_json.file);
  std::fprintf(g_json.file, "\n]\n");
  std::fflush(g_json.file);
}

std::vector<std::string> SplitNames(const char* arg) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur += *p;
    }
  }
  return out;
}

std::string JoinedRegisteredNames() {
  std::string joined;
  for (const std::string& name : overlay::RegisteredNames()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

// ---- Flag parsing ---------------------------------------------------------

/// The ParseOptions call in progress: every diagnostic prints the usage of
/// exactly the flags this binary honours.
struct ParseContext {
  const char* argv0 = "bench";
  unsigned groups = kCoreFlags;
  const char* extra_usage = "";
};
ParseContext g_parse;

void PrintUsage(std::FILE* out);

/// Prints `msg` plus the usage to stderr and exits 2.
[[noreturn]] void BadFlag(const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  PrintUsage(stderr);
  std::exit(2);
}

/// Strict base-10 parse for numeric flags: the whole value must be digits
/// (no sign, no trailing junk), must not overflow uint64, and must land in
/// [min_value, max_value] -- atoi-style parsing silently turned
/// "--threads=-2" into a negative and "--seeds=2x" into 2.
uint64_t ParseFlagUint(const char* flag, const char* val, uint64_t min_value,
                       uint64_t max_value = UINT64_MAX) {
  uint64_t v = 0;
  bool ok = *val != '\0';
  for (const char* p = val; ok && *p != '\0'; ++p) {
    uint64_t d = static_cast<uint64_t>(*p - '0');  // wraps for non-digits
    ok = d <= 9 && v <= (UINT64_MAX - d) / 10;
    if (ok) v = v * 10 + d;
  }
  if (!ok || v < min_value || v > max_value) {
    BadFlag(std::string("bad ") + flag + " value '" + val +
            "' (need an integer in [" + std::to_string(min_value) + ", " +
            std::to_string(max_value) + "])");
  }
  return v;
}

/// Strict double parse: the whole value must be a finite number in
/// (0, max_value].
double ParseFlagDouble(const char* flag, const char* val,
                       double max_value = HUGE_VAL) {
  char* end = nullptr;
  double v = std::strtod(val, &end);
  if (end == val || *end != '\0' || !std::isfinite(v) || v <= 0.0 ||
      v > max_value) {
    BadFlag(std::string("bad ") + flag + " value '" + val +
            (max_value == HUGE_VAL ? "' (need a finite number > 0)"
                                   : "' (need a probability in (0, 1])"));
  }
  return v;
}

/// Parses a comma list, one `parse(piece)` per entry; an empty list is an
/// error.
template <typename T, typename Fn>
std::vector<T> ParseList(const char* flag, const char* arg, Fn&& parse) {
  std::vector<T> out;
  for (const std::string& piece : SplitNames(arg)) {
    out.push_back(parse(piece.c_str()));
  }
  if (out.empty()) BadFlag(std::string(flag) + " needs at least one value");
  return out;
}

const char* NeedPath(const char* flag, const char* val) {
  if (*val == '\0') BadFlag(std::string(flag) + " needs a file path");
  return val;
}

/// Parses "const:N" or "uniform:LO,HI" (HI >= LO).
LatencySpec ParseLatencySpec(const char* arg) {
  LatencySpec spec;
  auto bad = [&]() {
    BadFlag(std::string("bad --latency value '") + arg +
            "' (want const:N or uniform:LO,HI with LO <= HI)");
  };
  auto parse_ticks = [&](const char** p) {
    if (**p < '0' || **p > '9') bad();
    sim::Time v = 0;
    while (**p >= '0' && **p <= '9') {
      v = v * 10 + static_cast<sim::Time>(**p - '0');
      ++*p;
    }
    return v;
  };
  const char* p = arg;
  if (std::strncmp(p, "const:", 6) == 0) {
    p += 6;
    spec.kind = LatencySpec::Kind::kConst;
    spec.lo = spec.hi = parse_ticks(&p);
  } else if (std::strncmp(p, "uniform:", 8) == 0) {
    p += 8;
    spec.kind = LatencySpec::Kind::kUniform;
    spec.lo = parse_ticks(&p);
    if (*p != ',') bad();
    ++p;
    spec.hi = parse_ticks(&p);
    if (spec.hi < spec.lo) bad();
  } else {
    bad();
  }
  if (*p != '\0') bad();
  return spec;
}

/// Parses one "uniform" / "zipf:THETA" (THETA > 0) entry.
KeyDistSpec ParseKeyDist(const char* name) {
  KeyDistSpec spec;
  if (std::strcmp(name, "uniform") == 0) return spec;
  if (std::strncmp(name, "zipf:", 5) == 0) {
    spec.kind = KeyDistSpec::Kind::kZipf;
    spec.theta = ParseFlagDouble("--key-dist zipf", name + 5);
    return spec;
  }
  BadFlag(std::string("bad --key-dist entry '") + name +
          "' (want uniform or zipf:THETA with THETA > 0)");
}

/// Splits "A<sep>B" at the first `sep`; no separator leaves *b empty.
void SplitPair(const char* arg, char sep, std::string* a, std::string* b) {
  const char* at = std::strchr(arg, sep);
  *a = at == nullptr ? arg : std::string(arg, static_cast<size_t>(at - arg));
  *b = at == nullptr ? "" : at + 1;
}

/// One command-line flag: the groups that honour it, its usage line and how
/// it sets Options.
struct Flag {
  const char* name;  // "--csv" matches exactly; "--sizes=" prefixes a value
  const char* arg;   // value placeholder shown in the usage
  unsigned groups;   // FlagGroup bits that honour it; kCoreFlags = always
  const char* help;  // usage text; '\n' continues on an indented line
  void (*set)(Options* opt, const char* val);
};

const Flag kFlags[] = {
    {"--paper_scale", "", kCoreFlags,
     "paper setup: N=1000..10000, 1000 keys/node, 10 seeds",
     [](Options* o, const char*) {
       o->keys_per_node = 1000;
       o->seeds = 10;
       o->sizes = {1000, 2000, 4000, 6000, 8000, 10000};
     }},
    {"--csv", "", kCoreFlags, "machine-readable CSV tables",
     [](Options* o, const char*) { o->csv = true; }},
    {"--sizes=", "a,b,c", kCoreFlags, "network sizes to sweep",
     [](Options* o, const char* v) {
       o->sizes = ParseList<size_t>("--sizes", v, [](const char* p) {
         return static_cast<size_t>(ParseFlagUint("--sizes", p, 1));
       });
     }},
    {"--seeds=", "N", kCoreFlags, "seeds (independent runs) per point",
     [](Options* o, const char* v) {
       o->seeds = static_cast<int>(ParseFlagUint("--seeds", v, 1, INT_MAX));
     }},
    {"--keys=", "N", kCoreFlags, "keys per node",
     [](Options* o, const char* v) {
       o->keys_per_node = static_cast<size_t>(ParseFlagUint("--keys", v, 0));
     }},
    {"--queries=", "N", kCoreFlags, "queries/operations per point",
     [](Options* o, const char* v) {
       o->queries = static_cast<int>(ParseFlagUint("--queries", v, 0, INT_MAX));
     }},
    {"--seed=", "S", kCoreFlags, "base RNG seed",
     [](Options* o, const char* v) {
       o->base_seed = ParseFlagUint("--seed", v, 0);
     }},
    {"--overlay=", "name[,...]", kOverlayFlags,
     "backends to run (--list-overlays prints them)",
     [](Options* o, const char* v) {
       o->overlays = ParseList<std::string>("--overlay", v, [](const char* p) {
         if (!overlay::IsRegistered(p)) {
           BadFlag(std::string("unknown overlay backend '") + p +
                   "' (registered: " + JoinedRegisteredNames() + ")");
         }
         return std::string(p);
       });
     }},
    {"--threads=", "N", kOverlayFlags,
     "worker threads for per-(backend,N,seed) tasks\n"
     "(default 1; 0 = hardware concurrency)",
     [](Options* o, const char* v) {
       o->threads = static_cast<int>(ParseFlagUint("--threads", v, 0, INT_MAX));
     }},
    {"--list-overlays", "", kOverlayFlags,
     "print the registered backend names and exit",
     [](Options*, const char*) {
       for (const std::string& name : overlay::RegisteredNames()) {
         std::printf("%s\n", name.c_str());
       }
       std::exit(0);
     }},
    {"--latency=", "MODEL", kLatencyFlags,
     "link latency: const:N or uniform:LO,HI (ticks);\n"
     "enables simulated per-op latency reporting",
     [](Options* o, const char* v) { o->latency = ParseLatencySpec(v); }},
    {"--key-dist=", "D[,...]", kKeyDistFlags,
     "request-key distribution(s): uniform or\n"
     "zipf:THETA (THETA > 0, e.g. zipf:0.9)",
     [](Options* o, const char* v) {
       o->key_dists = ParseList<KeyDistSpec>("--key-dist", v, ParseKeyDist);
     }},
    {"--load=", "f1,f2,...", kServeFlags,
     "offered-load sweep, as fractions of calibrated\n"
     "capacity (default 0.5,0.8,0.95,1.1,1.3)",
     [](Options* o, const char* v) {
       o->loads = ParseList<double>("--load", v, [](const char* p) {
         return ParseFlagDouble("--load", p);
       });
     }},
    {"--arrivals=", "KIND", kServeFlags,
     "open-loop arrival process: poisson (default)\nor fixed",
     [](Options* o, const char* v) {
       if (std::strcmp(v, "poisson") != 0 && std::strcmp(v, "fixed") != 0) {
         BadFlag(std::string("bad --arrivals value '") + v +
                 "' (want poisson or fixed)");
       }
       o->arrivals = v;
     }},
    {"--service-ticks=", "N", kServeFlags,
     "per-message node service time in ticks (>= 1;\ndefault 1)",
     [](Options* o, const char* v) {
       o->service_ticks = ParseFlagUint("--service-ticks", v, 1);
     }},
    {"--max-queue=", "N", kServeFlags,
     "per-node queue bound, arrivals past it drop\n"
     "the op (default 0 = unbounded)",
     [](Options* o, const char* v) {
       o->max_queue = ParseFlagUint("--max-queue", v, 0);
     }},
    {"--timeout-ticks=", "N", kServeFlags | kFaultFlags | kCacheFlags,
     "client deadline: ops past N ticks count as timed\n"
     "out (default 0 = no deadline)",
     [](Options* o, const char* v) {
       o->timeout_ticks = ParseFlagUint("--timeout-ticks", v, 0);
     }},
    {"--stragglers=", "K:F", kServeFlags,
     "mark K nodes as stragglers with F x the global\n"
     "service time (default 0 = homogeneous fleet)",
     [](Options* o, const char* v) {
       std::string k, factor;
       SplitPair(v, ':', &k, &factor);
       if (factor.empty()) {
         BadFlag(std::string("bad --stragglers value '") + v +
                 "' (want K:FACTOR with FACTOR > 1, e.g. 4:8)");
       }
       o->stragglers =
           static_cast<size_t>(ParseFlagUint("--stragglers", k.c_str(), 0));
       o->straggler_factor = ParseFlagDouble("--stragglers", factor.c_str());
       if (o->straggler_factor <= 1.0) {
         BadFlag("bad --stragglers factor '" + factor +
                 "' (need a multiplier > 1)");
       }
     }},
    {"--drop=", "p1,p2,...", kFaultFlags,
     "per-message drop probabilities to sweep\n(default 0.01,0.05,0.10)",
     [](Options* o, const char* v) {
       o->drop_rates = ParseList<double>("--drop", v, [](const char* p) {
         return ParseFlagDouble("--drop", p, 1.0);
       });
     }},
    {"--dup=", "P", kFaultFlags,
     "per-message duplicate-delivery probability\n(default 0)",
     [](Options* o, const char* v) {
       o->dup_rate = ParseFlagDouble("--dup", v, 1.0);
     }},
    {"--retries=", "r1,r2,...", kFaultFlags,
     "retry budgets to sweep (default 0,1,3)",
     [](Options* o, const char* v) {
       o->retry_budgets = ParseList<int>("--retries", v, [](const char* p) {
         return static_cast<int>(ParseFlagUint("--retries", p, 0, 64));
       });
     }},
    {"--cache=", "SIZE[,k]", kCacheFlags,
     "hot-path cache: per-node route cache of SIZE\n"
     "entries plus a replicated fast-table of the top\n"
     "k tree levels (default k=2; SIZE 0 = detached)",
     [](Options* o, const char* v) {
       std::string size, levels;
       SplitPair(v, ',', &size, &levels);
       o->cache_capacity =
           static_cast<size_t>(ParseFlagUint("--cache", size.c_str(), 0));
       if (std::strchr(v, ',') != nullptr) {
         o->cache_levels =
             static_cast<int>(ParseFlagUint("--cache", levels.c_str(), 0, 16));
       }
     }},
    {"--json=", "PATH", kCoreFlags, "mirror every table into PATH as JSON rows",
     // Last occurrence wins; the mirror is opened once, after parsing.
     [](Options* o, const char* v) { o->json_path = NeedPath("--json", v); }},
    {"--trace=", "PATH", kObsFlags,
     "write a Chrome trace-event JSON (open in\n"
     "Perfetto) of every replayed op + message",
     [](Options* o, const char* v) { o->trace_path = NeedPath("--trace", v); }},
    {"--metrics=", "PATH", kObsFlags,
     "write per-task obs metrics snapshots as JSON",
     [](Options* o, const char* v) {
       o->metrics_path = NeedPath("--metrics", v);
     }},
    {"--help", "", kCoreFlags, "print this message and exit",
     [](Options*, const char*) {
       PrintUsage(stdout);
       std::exit(0);
     }},
};

bool Honoured(const Flag& f) {
  return f.groups == kCoreFlags || (f.groups & g_parse.groups) != 0;
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "usage: %s [flags]\n", g_parse.argv0);
  for (const Flag& f : kFlags) {
    if (!Honoured(f)) continue;
    std::string head = std::string(f.name) + f.arg;
    std::fprintf(out, "  %-21s ", head.c_str());
    for (const char* h = f.help; *h != '\0'; ++h) {
      std::fputc(*h, out);
      if (*h == '\n') std::fprintf(out, "%24s", "");
    }
    std::fputc('\n', out);
  }
  std::fputs(g_parse.extra_usage, out);
  if ((g_parse.groups & kOverlayFlags) != 0) {
    std::fprintf(out, "registered backends: %s\n",
                 JoinedRegisteredNames().c_str());
  }
}

/// Builds the latency model `spec` describes, or nullptr for Kind::kNone.
std::unique_ptr<sim::LatencyModel> MakeLatencyModel(const LatencySpec& spec) {
  switch (spec.kind) {
    case LatencySpec::Kind::kNone:
      return nullptr;
    case LatencySpec::Kind::kConst:
      return std::make_unique<sim::ConstantLatency>(spec.lo);
    case LatencySpec::Kind::kUniform:
      return std::make_unique<sim::UniformLatency>(spec.lo, spec.hi);
  }
  return nullptr;
}

BatonConfig BalancedConfig() {
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_factor = 2.2;
  return cfg;
}

}  // namespace

void RejectFlag(const std::string& msg) { BadFlag(msg); }

std::string KeyDistSpec::Label() const {
  if (kind == Kind::kUniform) return "uniform";
  char buf[32];
  std::snprintf(buf, sizeof buf, "zipf:%.2g", theta);
  return buf;
}

std::unique_ptr<workload::KeyGenerator> MakeKeyGenerator(
    const KeyDistSpec& spec, Key lo, Key hi) {
  switch (spec.kind) {
    case KeyDistSpec::Kind::kUniform:
      return std::make_unique<workload::UniformKeys>(lo, hi);
    case KeyDistSpec::Kind::kZipf:
      return std::make_unique<workload::ZipfKeys>(lo, hi, spec.theta);
  }
  return nullptr;
}

void AttachLatency(Instance* inst, const LatencySpec& spec, uint64_t seed) {
  if (!spec.enabled()) return;
  inst->queue = std::make_unique<sim::EventQueue>();
  inst->latency = MakeLatencyModel(spec);
  inst->overlay->AttachLatency(inst->queue.get(), inst->latency.get(),
                               Mix64(seed ^ 0x11c0));
}

void AttachObserver(Instance* inst, bool tracing) {
  inst->observer = std::make_unique<obs::Observer>(tracing);
  inst->overlay->AttachObserver(inst->observer.get());
}

void AttachCache(Instance* inst, const cache::Config& cfg) {
  if (cfg.capacity == 0) return;
  inst->cache = std::make_unique<cache::Manager>(cfg);
  inst->overlay->AttachCache(inst->cache.get());
}

void WriteObsArtifacts(const Options& opt, const std::vector<SeedTask>& tasks,
                       const std::vector<const obs::Observer*>& observers) {
  BATON_CHECK(tasks.size() == observers.size())
      << "observers must align with tasks";
  auto label = [&](size_t i) {
    return tasks[i].overlay + " N=" + std::to_string(tasks[i].n) +
           " seed=" + std::to_string(tasks[i].seed);
  };
  if (!opt.trace_path.empty()) {
    std::vector<obs::TraceProcess> procs;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (observers[i] == nullptr || observers[i]->trace() == nullptr) {
        continue;
      }
      procs.push_back({label(i), observers[i]->trace()});
    }
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot open --trace file %s\n",
                   opt.trace_path.c_str());
      std::exit(2);
    }
    obs::WriteChromeTrace(out, procs);
    std::printf("wrote trace (%zu processes) to %s\n", procs.size(),
                opt.trace_path.c_str());
  }
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open --metrics file %s\n",
                   opt.metrics_path.c_str());
      std::exit(2);
    }
    out << "[";
    bool any = false;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (observers[i] == nullptr) continue;
      out << (any ? "," : "") << "\n  {\"schema\": " << kBenchJsonSchema
          << ", \"overlay\": \"" << JsonEscape(tasks[i].overlay)
          << "\", \"N\": " << tasks[i].n << ", \"seed\": " << tasks[i].seed
          << ", \"metrics\": ";
      observers[i]->metrics().AppendJson(out);
      out << "}";
      any = true;
    }
    out << "\n]\n";
    std::printf("wrote metrics snapshots to %s\n", opt.metrics_path.c_str());
  }
}
Options ParseOptions(int argc, char** argv, unsigned groups,
                     const char* extra_usage) {
  g_parse = {argv[0], groups, extra_usage};
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      size_t len = std::strlen(f.name);
      bool match = f.name[len - 1] == '=' ? std::strncmp(a, f.name, len) == 0
                                          : std::strcmp(a, f.name) == 0;
      if (match) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) BadFlag(std::string("unknown flag ") + a);
    if (!Honoured(*flag)) {
      BadFlag(std::string("flag ") + a + " is not honoured by " + argv[0]);
    }
    flag->set(&opt, a + std::strlen(flag->name));
  }
  if (!opt.json_path.empty()) SetJsonMirror(opt.json_path);
  return opt;
}

std::vector<std::string> SelectedOverlays(const Options& opt) {
  return opt.overlays.empty() ? overlay::RegisteredNames() : opt.overlays;
}

std::vector<SeedTask> SizeMajorTasks(
    const Options& opt, const std::vector<std::string>& overlays) {
  std::vector<SeedTask> tasks;
  tasks.reserve(opt.sizes.size() * overlays.size() *
                static_cast<size_t>(opt.seeds));
  for (size_t n : opt.sizes) {
    for (const std::string& name : overlays) {
      for (int s = 0; s < opt.seeds; ++s) tasks.push_back({name, n, s});
    }
  }
  return tasks;
}

std::vector<SeedTask> BackendMajorTasks(
    const Options& opt, const std::vector<std::string>& overlays) {
  std::vector<SeedTask> tasks;
  tasks.reserve(opt.sizes.size() * overlays.size() *
                static_cast<size_t>(opt.seeds));
  for (const std::string& name : overlays) {
    for (size_t n : opt.sizes) {
      for (int s = 0; s < opt.seeds; ++s) tasks.push_back({name, n, s});
    }
  }
  return tasks;
}

void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& fn) {
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  size_t workers = std::min(count, static_cast<size_t>(std::max(threads, 1)));
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Atomic work cursor instead of static partitioning: tasks (per-seed
  // overlay builds + replays) have wildly different costs across backends
  // and sizes, so early-finishing workers steal the tail.
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&next, count, &fn]() {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

BatonConfig ReplicatedConfig(int r) {
  BatonConfig cfg = BalancedConfig();
  cfg.replication.factor = r;
  return cfg;
}

overlay::Config BalancedOverlayConfig() {
  overlay::Config cfg;
  cfg.baton = BalancedConfig();
  return cfg;
}

Instance BuildOverlay(const std::string& name, size_t n, uint64_t seed,
                      const overlay::Config& cfg, size_t keys_per_node,
                      workload::KeyGenerator* preload) {
  // "For a network of size N, 1000 x N data values ... are inserted in
  // batches": joins and insert batches interleave, so order-preserving
  // backends keep per-node loads -- and therefore ranges -- matched to the
  // data distribution as the overlay grows.
  Instance inst;
  overlay::Config seeded = cfg;
  seeded.seed = seed;
  inst.overlay = overlay::Make(name, seeded);
  BATON_CHECK(inst.overlay != nullptr) << "unknown overlay backend " << name;
  Rng rng(Mix64(seed ^ inst.overlay->build_salt()));
  inst.members.push_back(inst.overlay->Bootstrap());
  auto insert_batch = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      net::PeerId from = inst.RandomMember(&rng);
      auto st = inst.overlay->Insert(from, preload->Next(&rng));
      BATON_CHECK(st.ok()) << st.status.ToString();
    }
  };
  if (preload != nullptr) insert_batch(keys_per_node);
  for (size_t i = 1; i < n; ++i) {
    net::PeerId contact = inst.RandomMember(&rng);
    auto joined = inst.overlay->Join(contact);
    BATON_CHECK(joined.ok()) << joined.status.ToString();
    inst.members.push_back(joined.peer);
    if (preload != nullptr) insert_batch(keys_per_node);
  }
  return inst;
}

void LoadOverlay(Instance* inst, size_t keys_per_node,
                 workload::KeyGenerator* gen, Rng* rng) {
  size_t total = keys_per_node * inst->overlay->size();
  for (size_t i = 0; i < total; ++i) {
    net::PeerId from = inst->RandomMember(rng);
    auto st = inst->overlay->Insert(from, gen->Next(rng));
    BATON_CHECK(st.ok()) << st.status.ToString();
  }
}

Instance BuildLoaded(const std::string& name, size_t n, uint64_t seed,
                     const Options& opt) {
  workload::UniformKeys keys(1, kDomainHi);
  const overlay::Config cfg = BalancedOverlayConfig();
  Instance inst;
  if (overlay::Make(name, cfg)->Supports(overlay::kOrderedGrowth)) {
    inst = BuildOverlay(name, n, seed, cfg, opt.keys_per_node, &keys);
  } else {
    Rng load_rng(Mix64(seed ^ 0x10ad));
    inst = BuildOverlay(name, n, seed, cfg);
    LoadOverlay(&inst, opt.keys_per_node, &keys, &load_rng);
  }
  AttachLatency(&inst, opt.latency, seed);
  if (opt.obs_enabled()) AttachObserver(&inst, !opt.trace_path.empty());
  return inst;
}

uint64_t MaintenanceDelta(const net::CounterSnapshot& before,
                          const net::CounterSnapshot& after) {
  return CategoryDelta(before, after, net::MsgCategory::kMaintenance);
}

uint64_t CategoryDelta(const net::CounterSnapshot& before,
                       const net::CounterSnapshot& after,
                       net::MsgCategory category) {
  uint64_t sum = 0;
  for (int i = 0; i < net::kNumMsgTypes; ++i) {
    auto t = static_cast<net::MsgType>(i);
    if (net::CategoryOf(t) == category) {
      sum += net::Network::DeltaOfType(before, after, t);
    }
  }
  return sum;
}

void SetJsonMirror(const std::string& path) {
  BATON_CHECK(g_json.file == nullptr)
      << "JSON mirror cannot be re-pointed once open";
  // Open eagerly: an unwritable path must fail at flag-parse time, not
  // after a multi-minute sweep has already run.
  g_json.path = path;
  g_json.file = std::fopen(path.c_str(), "w");
  if (g_json.file == nullptr) {
    std::fprintf(stderr, "cannot open --json file %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(g_json.file, "[");
  g_json.body_end = std::ftell(g_json.file);
  std::fprintf(g_json.file, "\n]\n");  // valid (empty) array from the start
  std::fflush(g_json.file);
  std::atexit(CloseJsonMirror);
}

void Emit(const std::string& title, const TablePrinter& table,
          const Options& opt) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("%s\n",
              opt.csv ? table.ToCsv().c_str() : table.ToText().c_str());
  std::fflush(stdout);
  if (!opt.json_path.empty()) MirrorTableToJson(title, table);
}

}  // namespace bench
}  // namespace baton
