#include "src/core/cache_evict.h"

#include <memory>
#include <string>

#include "src/sim/discipline.h"
#include "src/sim/sync.h"

namespace switchfs::core {

sim::Task<void> EvictSwitchCacheEntry(ServerContext& ctx, VolPtr v,
                                      psw::Fingerprint fp,
                                      EvictLockWitness witness) {
  if (!ctx.config->switch_cache || v->cached_fps.count(fp) == 0) {
    co_return;
  }
#if SFS_DISCIPLINE_CHECKS
  if (witness == EvictLockWitness::kChain) {
    sim::DisciplineChecker::CheckEvictAllowed(
        co_await sim::discipline::CurrentChainId{},
        "fp=" + std::to_string(fp));
  }
#else
  (void)witness;
#endif
  const uint64_t token = v->op_token_counter++;
  auto wait = std::make_shared<ServerVolatile::CacheEvictWait>();
  v->cache_evict_waits[token] = wait;

  // Self-addressed evict: the switch bumps the set version and drops the
  // entry in flight, then the packet reaches our raw handler as the ack.
  net::Packet ev;
  ev.dst = ctx.node_id();
  ev.mc.op = net::McOp::kEvict;
  ev.mc.fingerprint = fp;
  ev.mc.token = token;

  bool acked = false;
  for (int attempt = 0; attempt < kSwitchRoundTripAttempts; ++attempt) {
    if (wait->acked) {
      acked = true;
      break;
    }
    wait->slot = std::make_shared<sim::OneShot<int>>(ctx.sim);
    ctx.rpc->Send(ev);
    auto slot = wait->slot;
    ctx.sim->ScheduleTimer(kSwitchRoundTripTimeout,
                           [slot] { slot->Set(0); });
    const int result = co_await slot->Wait();
    if (result != 0) {
      acked = true;
      break;
    }
  }
  v->cache_evict_waits.erase(token);
  if (acked) {
    ctx.stats->cache_evicts++;
    v->cached_fps.erase(fp);
  } else {
    // Budget exhausted: the write proceeds. Either the evict executed and
    // only the acks were lost, or the switch is down and its cache state is
    // gone with it (Reset on recovery). Keep fp in cached_fps so the next
    // write retries the evict.
    ctx.stats->cache_evict_exhausted++;
  }
}

}  // namespace switchfs::core
