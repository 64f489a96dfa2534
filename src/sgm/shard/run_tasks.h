// The shard layer's one fan-out helper: ShardedGraph's constructor builds
// its shards with it, and ShardedMatchQuery builds a request's pass plans
// with it. Nothing else in src/sgm/shard/ creates threads.
#ifndef SGM_SHARD_RUN_TASKS_H_
#define SGM_SHARD_RUN_TASKS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace sgm::shard {

/// Runs body(0) .. body(count - 1) on up to min(count, max(2, hardware))
/// threads, each claiming the next unclaimed index, and returns when all
/// are done. At least two threads whenever there are two tasks, so the
/// concurrent builds stay exercised (and TSan-visible) on small machines.
template <typename Body>
void RunTasks(uint32_t count, const Body& body) {
  const uint32_t workers =
      std::min(count, std::max(2u, std::thread::hardware_concurrency()));
  if (workers <= 1) {
    for (uint32_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<uint32_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (uint32_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        body(i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace sgm::shard

#endif  // SGM_SHARD_RUN_TASKS_H_
