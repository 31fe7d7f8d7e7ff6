#include "src/sim/discipline.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>
#include <vector>

namespace switchfs::sim {

namespace {

struct Hold {
  uint64_t chain = 0;
  LockClass cls = LockClass::kOther;
  bool exclusive = false;
  std::string key;
};

struct Registry {
  std::unordered_map<uint64_t, Hold> holds;  // hold id -> hold
  // chain id -> live hold ids (small per chain; O(holds-per-chain) scans).
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_chain;
  uint64_t next_hold_id = 1;
  uint64_t next_chain_id = 1;
  uint64_t current_chain = 0;
  uint64_t violations = 0;
  DisciplineChecker::Handler handler;
};

Registry& Reg() {
  static Registry* r = new Registry();  // leaked: outlives all static guards
  return *r;
}

void Report(const char* rule, std::string detail) {
  auto& reg = Reg();
  reg.violations++;
  DisciplineChecker::Violation violation{rule, std::move(detail)};
  if (reg.handler) {
    reg.handler(violation);
    return;
  }
  std::fprintf(stderr, "DisciplineChecker: %s violation: %s\n",
               violation.rule.c_str(), violation.detail.c_str());
  std::abort();
}

}  // namespace

std::string_view LockClassName(LockClass cls) {
  switch (cls) {
    case LockClass::kInode:
      return "inode";
    case LockClass::kChangelogGroup:
      return "changelog-group";
    case LockClass::kAggGate:
      return "agg-gate";
    case LockClass::kAppend:
      return "append";
    case LockClass::kOther:
      break;
  }
  return "other";
}

void DisciplineChecker::SetHandler(Handler h) { Reg().handler = std::move(h); }

uint64_t DisciplineChecker::OnAcquired(uint64_t chain, LockClass cls,
                                       bool exclusive, std::string_view key) {
  auto& reg = Reg();
  if (chain != 0 && cls != LockClass::kAppend) {
    // append-innermost: a chain already holding an append mutex must not
    // acquire a lock of any other class. A second kAppend is legal — the
    // moved_fp rebind takes the (old, new) append pair in key order.
    auto it = reg.by_chain.find(chain);
    if (it != reg.by_chain.end()) {
      for (uint64_t id : it->second) {
        const Hold& h = reg.holds.at(id);
        if (h.cls == LockClass::kAppend) {
          Report("append-innermost",
                 "chain " + std::to_string(chain) + " acquired " +
                     std::string(LockClassName(cls)) + " lock '" +
                     std::string(key) + "' while holding append mutex '" +
                     h.key + "'");
          break;
        }
      }
    }
  }
  const uint64_t id = reg.next_hold_id++;
  reg.holds.emplace(id, Hold{chain, cls, exclusive, std::string(key)});
  reg.by_chain[chain].push_back(id);
  return id;
}

void DisciplineChecker::OnReleased(uint64_t hold_id) {
  if (hold_id == 0) {
    return;  // default-constructed / already-released guard
  }
  auto& reg = Reg();
  auto it = reg.holds.find(hold_id);
  if (it == reg.holds.end()) {
    return;  // released after a Reset() wiped the registry
  }
  auto chain_it = reg.by_chain.find(it->second.chain);
  if (chain_it != reg.by_chain.end()) {
    auto& ids = chain_it->second;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == hold_id) {
        ids[i] = ids.back();
        ids.pop_back();
        break;
      }
    }
    if (ids.empty()) {
      reg.by_chain.erase(chain_it);
    }
  }
  reg.holds.erase(it);
}

void DisciplineChecker::CheckEvictAllowed(uint64_t chain,
                                          std::string_view context) {
  if (chain == 0) {
    return;  // unknown origin (non-coroutine caller); nothing to check
  }
  auto& reg = Reg();
  auto it = reg.by_chain.find(chain);
  if (it != reg.by_chain.end()) {
    for (uint64_t id : it->second) {
      const Hold& h = reg.holds.at(id);
      if (h.cls == LockClass::kInode && h.exclusive) {
        return;
      }
    }
  }
  Report("evict-requires-lock",
         "chain " + std::to_string(chain) +
             " ran a switch-cache evict without holding an exclusive inode "
             "lock (" +
             std::string(context) + ")");
}

size_t DisciplineChecker::live_holds() { return Reg().holds.size(); }

uint64_t DisciplineChecker::violations_seen() { return Reg().violations; }

void DisciplineChecker::Reset() {
  auto& reg = Reg();
  reg.holds.clear();
  reg.by_chain.clear();
  reg.current_chain = 0;
  reg.violations = 0;
}

namespace discipline {

#if SFS_DISCIPLINE_CHECKS
uint64_t FreshChainId() { return Reg().next_chain_id++; }
void SetCurrentChain(uint64_t id) { Reg().current_chain = id; }
uint64_t CurrentChain() { return Reg().current_chain; }
#endif

}  // namespace discipline
}  // namespace switchfs::sim
