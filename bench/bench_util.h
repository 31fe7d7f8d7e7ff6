// Shared helpers for the figure/table reproduction benches: system
// factories, op-count scaling, aligned table output, and the JSON report
// that scripts/bench_check.py gates. Every bench prints the rows/series of
// its paper figure.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/baseline.h"
#include "src/core/cluster.h"
#include "src/workload/generator.h"
#include "src/workload/runner.h"

namespace switchfs::bench {

// SFS_BENCH_SCALE scales op counts: a number (e.g. 0.2) or the presets
// "small" (0.2, CI smoke runs) / "full" (1.0).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("SFS_BENCH_SCALE");
    if (env == nullptr) {
      return 1.0;
    }
    const std::string s(env);
    if (s == "small") {
      return 0.2;
    }
    if (s == "full") {
      return 1.0;
    }
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

inline uint64_t ScaledOps(uint64_t n) {
  const auto scaled = static_cast<uint64_t>(static_cast<double>(n) * Scale());
  return scaled < 500 ? 500 : scaled;
}

inline std::unique_ptr<core::Cluster> MakeSwitchFs(
    uint32_t servers, int cores = 4,
    core::TrackerMode tracker = core::TrackerMode::kSwitch,
    bool async_updates = true, bool compaction = true, uint64_t seed = 42) {
  core::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.cores_per_server = cores;
  cfg.tracker = tracker;
  cfg.async_updates = async_updates;
  cfg.compaction = compaction;
  cfg.seed = seed;
  // Modest dirty-set sizing keeps construction fast; no overflow occurs in
  // the evaluation workloads (matching §7.1 "no dirty-set overflow occurs").
  cfg.switch_config.dirty_set.num_stages = 10;
  cfg.switch_config.dirty_set.registers_per_stage = 1 << 14;
  return std::make_unique<core::Cluster>(cfg);
}

inline std::unique_ptr<baselines::BaselineCluster> MakeBaseline(
    baselines::SystemKind kind, uint32_t servers, int cores = 4,
    uint64_t seed = 42) {
  baselines::BaselineConfig cfg;
  cfg.kind = kind;
  cfg.num_servers = servers;
  cfg.cores_per_server = cores;
  cfg.seed = seed;
  return std::make_unique<baselines::BaselineCluster>(cfg);
}

// Factory by display name; nullptr tracker args use defaults.
inline std::unique_ptr<core::FsWorld> MakeWorld(const std::string& system,
                                                uint32_t servers,
                                                int cores = 4) {
  if (system == "SwitchFS") {
    return MakeSwitchFs(servers, cores);
  }
  if (system == "Emulated-InfiniFS") {
    return MakeBaseline(baselines::SystemKind::kEInfiniFS, servers, cores);
  }
  if (system == "Emulated-CFS") {
    return MakeBaseline(baselines::SystemKind::kECfs, servers, cores);
  }
  if (system == "CephFS") {
    return MakeBaseline(baselines::SystemKind::kCephFS, servers, cores);
  }
  if (system == "IndexFS") {
    return MakeBaseline(baselines::SystemKind::kIndexFS, servers, cores);
  }
  std::fprintf(stderr, "unknown system %s\n", system.c_str());
  std::abort();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintKops(const char* label, double ops_per_sec) {
  std::printf("%-22s %10.1f Kops/s\n", label, ops_per_sec / 1e3);
}

// One bench's JSON document. Keys keep insertion order, and a dotted key
// nests: Set("per_owner.apply_keps", ...) sets apply_keps inside the
// per_owner object, the same path scripts/bench_check.py reads. Setting a
// key again replaces its value in place. Keys and strings are written
// verbatim, so they must not need JSON escaping.
class Report {
 public:
  template <std::integral T>
  void Set(const std::string& key, T value) {
    Put(key, std::to_string(value));
  }
  void Set(const std::string& key, const std::string& value) {
    Put(key, "\"" + value + "\"");
  }
  // A double printed with a fixed number of decimals ("%.*f").
  void Set(const std::string& key, double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    Put(key, buf);
  }

  // Top-level members one per line; nested objects on one line each.
  std::string ToJson() const {
    std::string out = "{\n";
    for (size_t i = 0; i < root_.members.size(); ++i) {
      out += i == 0 ? "  " : ",\n  ";
      AppendMember(root_.members[i], &out);
    }
    out += "\n}\n";
    return out;
  }

  // Writes the document to $SFS_BENCH_JSON when it is set and prints
  // "wrote <path>". A document that cannot be written exits the bench
  // nonzero, so the gate never reads a stale or missing file.
  void Write() const {
    const char* path = std::getenv("SFS_BENCH_JSON");
    if (path == nullptr) {
      return;
    }
    std::ofstream out(path);
    out << ToJson();
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      std::exit(1);
    }
    std::printf("wrote %s\n", path);
  }

 private:
  struct Node {
    std::string key;
    std::string value;          // rendered scalar; empty for an object
    std::vector<Node> members;  // object members, in insertion order
  };

  void Put(const std::string& key, std::string value) {
    Node* node = &root_;
    size_t begin = 0;
    while (true) {
      const size_t dot = key.find('.', begin);
      const std::string part = key.substr(begin, dot - begin);
      Node* child = nullptr;
      for (Node& m : node->members) {
        if (m.key == part) {
          child = &m;
          break;
        }
      }
      if (child == nullptr) {
        node->members.push_back(Node{part, "", {}});
        child = &node->members.back();
      }
      node = child;
      if (dot == std::string::npos) {
        break;
      }
      begin = dot + 1;
    }
    node->value = std::move(value);
  }

  static void AppendMember(const Node& n, std::string* out) {
    *out += "\"" + n.key + "\": ";
    if (n.members.empty()) {
      *out += n.value;
      return;
    }
    *out += "{";
    for (size_t i = 0; i < n.members.size(); ++i) {
      *out += i == 0 ? "" : ", ";
      AppendMember(n.members[i], out);
    }
    *out += "}";
  }

  Node root_;
};

}  // namespace switchfs::bench

#endif  // BENCH_BENCH_UTIL_H_
