// Reference-counted table of per-key reader/writer locks, used for inode
// locks and change-log locks on metadata servers. Slots are created on first
// acquisition and reclaimed when the last holder/waiter releases, so the
// table's footprint tracks the working set rather than the filesystem size.
//
// Each table carries a sim::LockClass describing its role in the server's
// lock order; in SFS_DISCIPLINE_CHECKS builds every grant is registered with
// the DisciplineChecker under the acquiring coroutine chain, which enforces
// the append-innermost and evict-requires-lock rules at runtime.
#ifndef SRC_CORE_LOCK_TABLE_H_
#define SRC_CORE_LOCK_TABLE_H_

#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/annotations.h"
#include "src/sim/discipline.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::core {

class SFS_LOCKABLE LockTable {
 public:
  explicit LockTable(sim::Simulator* sim,
                     sim::LockClass cls = sim::LockClass::kOther)
      : sim_(sim), class_(cls) {}
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  class [[nodiscard]] Handle {
   public:
    Handle() = default;
    Handle(LockTable* table, std::string key, sim::SharedMutex::Guard guard,
           uint64_t hold_id)
        : table_(table),
          key_(std::move(key)),
          guard_(std::move(guard)),
          hold_id_(hold_id) {}
    Handle(Handle&& o) noexcept
        : table_(std::exchange(o.table_, nullptr)),
          key_(std::move(o.key_)),
          guard_(std::move(o.guard_)),
          hold_id_(std::exchange(o.hold_id_, 0)) {}
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        Release();
        table_ = std::exchange(o.table_, nullptr);
        key_ = std::move(o.key_);
        guard_ = std::move(o.guard_);
        hold_id_ = std::exchange(o.hold_id_, 0);
      }
      return *this;
    }
    ~Handle() { Release(); }

    void Release() {
      if (table_ != nullptr) {
#if SFS_DISCIPLINE_CHECKS
        sim::DisciplineChecker::OnReleased(std::exchange(hold_id_, 0));
#endif
        guard_.Release();
        std::exchange(table_, nullptr)->Unref(key_);
      }
    }
    bool held() const { return table_ != nullptr; }

   private:
    LockTable* table_ = nullptr;
    std::string key_;
    sim::SharedMutex::Guard guard_;
    uint64_t hold_id_ = 0;
  };

  // `co_await table.AcquireExclusive(key)` yields a held Handle. A plain
  // awaitable over the slot's SharedMutex: the grant lands in the Handle
  // that await_resume returns, so a chain cancelled at this resume
  // (src/sim/task.h) drops the Handle and releases the lock and the slot.
  class [[nodiscard]] Acquirer {
   public:
    Acquirer(LockTable* table, std::string key, bool exclusive)
        : table_(table),
          key_(std::move(key)),
          exclusive_(exclusive),
          inner_(&table_->Ref(key_)->mu, exclusive) {}
    bool await_ready() {
#if SFS_DISCIPLINE_CHECKS
      // The awaiting chain, published by its await_transform just before.
      chain_ = sim::discipline::CurrentChain();
#endif
      return inner_.await_ready();
    }
    void await_suspend(std::coroutine_handle<> h) { inner_.await_suspend(h); }
    Handle await_resume() {
      sim::SharedMutex::Guard guard = inner_.await_resume();
      uint64_t hold_id = 0;
#if SFS_DISCIPLINE_CHECKS
      hold_id = sim::DisciplineChecker::OnAcquired(chain_, table_->class_,
                                                   exclusive_, key_);
#endif
      return Handle(table_, std::move(key_), std::move(guard), hold_id);
    }

   private:
    LockTable* table_;
    std::string key_;
    bool exclusive_;
    sim::SharedMutex::Acquirer inner_;
    uint64_t chain_ = 0;
  };

  Acquirer AcquireShared(std::string key) {
    return Acquirer(this, std::move(key), /*exclusive=*/false);
  }
  Acquirer AcquireExclusive(std::string key) {
    return Acquirer(this, std::move(key), /*exclusive=*/true);
  }

  size_t slot_count() const { return slots_.size(); }
  sim::LockClass lock_class() const { return class_; }

 private:
  struct Slot {
    explicit Slot(sim::Simulator* sim) : mu(sim) {}
    sim::SharedMutex mu;
    int refs = 0;
  };

  Slot* Ref(const std::string& key) {
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_unique<Slot>(sim_)).first;
    }
    it->second->refs++;
    return it->second.get();
  }

  void Unref(const std::string& key) {
    auto it = slots_.find(key);
    assert(it != slots_.end());
    if (--it->second->refs == 0) {
      slots_.erase(it);
    }
  }

  sim::Simulator* sim_;
  sim::LockClass class_;
  std::unordered_map<std::string, std::unique_ptr<Slot>> slots_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_LOCK_TABLE_H_
