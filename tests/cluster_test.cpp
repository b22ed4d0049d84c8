// Worker model tests: batching behaviour, queue handling, model-swap costs,
// drop filters, reassignment flushing, and the least-loaded replica pick.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "cluster/worker.hpp"
#include "profile/zoo.hpp"
#include "sim/simulation.hpp"

namespace loki::cluster {
namespace {

struct Harness {
  sim::Simulation sim;
  Worker worker{0, &sim};
  std::vector<std::vector<WorkItem>> batches;
  std::vector<Worker::BatchContext> contexts;
  std::vector<WorkItem> dropped;
  profile::VariantCatalog catalog = profile::car_classification_catalog();

  Harness() {
    worker.set_batch_done([this](Worker&, std::vector<WorkItem>& items,
                                 const Worker::BatchContext& ctx) {
      contexts.push_back(ctx);
      batches.push_back(items);  // borrowed: copy what we keep
    });
    worker.set_dropped_sink([this](Worker&, std::vector<WorkItem>& items) {
      for (auto& i : items) dropped.push_back(i);
    });
  }

  WorkItem item(std::uint64_t id, double deadline = 1e9) {
    WorkItem w;
    w.query_id = id;
    w.task = 0;
    w.deadline = deadline;
    w.enqueue_time = sim.now();
    return w;
  }
};

TEST(Worker, ExecutesSingleItem) {
  Harness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 8, /*swap_cost=*/false);
  h.worker.enqueue(h.item(1));
  h.sim.run_all();
  ASSERT_EQ(h.batches.size(), 1u);
  EXPECT_EQ(h.batches[0].size(), 1u);
  EXPECT_EQ(h.batches[0][0].query_id, 1u);
  EXPECT_NEAR(h.sim.now(), h.catalog.at(0).latency.latency_s(1), 1e-12);
}

TEST(Worker, BatchesUpToMaxBatch) {
  Harness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 4, false);
  for (int i = 0; i < 10; ++i) h.worker.enqueue(h.item(i));
  h.sim.run_all();
  // First batch starts immediately with 1 item (greedy start), then the
  // queue accumulated during execution is served in batches of <= 4.
  ASSERT_GE(h.batches.size(), 3u);
  std::size_t total = 0;
  for (const auto& b : h.batches) {
    EXPECT_LE(b.size(), 4u);
    total += b.size();
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(h.worker.items_executed(), 10u);
}

TEST(Worker, BusyTimeAccountsExecution) {
  Harness h;
  h.worker.assign(0, 1, &h.catalog.at(1), 2, false);
  h.worker.enqueue(h.item(1));
  h.worker.enqueue(h.item(2));
  h.worker.enqueue(h.item(3));
  h.sim.run_all();
  EXPECT_GT(h.worker.busy_time_s(), 0.0);
  EXPECT_NEAR(h.worker.busy_time_s(), h.sim.now(), 1e-9);
}

TEST(Worker, SwapCostDelaysService) {
  Harness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 8, /*swap_cost=*/true);
  EXPECT_TRUE(h.worker.loading());
  h.worker.enqueue(h.item(1));
  h.sim.run_all();
  ASSERT_EQ(h.batches.size(), 1u);
  const double expected =
      h.catalog.at(0).load_time_s + h.catalog.at(0).latency.latency_s(1);
  EXPECT_NEAR(h.sim.now(), expected, 1e-9);
}

TEST(Worker, SameVariantReassignKeepsQueueAndSkipsSwap) {
  Harness h;
  h.worker.assign(0, 2, &h.catalog.at(2), 8, false);
  h.worker.enqueue(h.item(1));
  h.worker.enqueue(h.item(2));
  const auto flushed = h.worker.assign(0, 2, &h.catalog.at(2), 4, true);
  EXPECT_TRUE(flushed.empty());
  EXPECT_FALSE(h.worker.loading());
  EXPECT_EQ(h.worker.max_batch(), 4);
  h.sim.run_all();
  EXPECT_EQ(h.worker.items_executed(), 2u);
}

TEST(Worker, VariantChangeFlushesQueue) {
  Harness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 8, false);
  h.worker.enqueue(h.item(1));  // starts immediately (in flight)
  h.worker.enqueue(h.item(2));  // queued behind the running batch
  const auto flushed = h.worker.assign(0, 3, &h.catalog.at(3), 8, false);
  // Item 2 was still queued (worker busy with item 1).
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].query_id, 2u);
  h.sim.run_all();
  EXPECT_EQ(h.worker.variant(), 3);
}

TEST(Worker, DeactivateFlushesAndRejectsEnqueue) {
  Harness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 8, false);
  h.worker.enqueue(h.item(1));
  h.worker.enqueue(h.item(2));
  // Worker is busy with item 1; deactivate flushes the remaining queue.
  const auto flushed = h.worker.deactivate();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_FALSE(h.worker.active());
  EXPECT_THROW(h.worker.enqueue(h.item(3)), loki::CheckFailure);
  h.sim.run_all();  // in-flight batch still completes
  EXPECT_EQ(h.batches.size(), 1u);
}

TEST(Worker, DropFilterRemovesBeforeExecution) {
  Harness h;
  h.worker.set_drop_filter([](const Worker&, const WorkItem& item) {
    return item.deadline < 0.5;  // drop "hopeless" items
  });
  h.worker.assign(0, 0, &h.catalog.at(0), 8, false);
  h.worker.enqueue(h.item(1, /*deadline=*/0.1));
  h.worker.enqueue(h.item(2, /*deadline=*/9.0));
  h.sim.run_all();
  ASSERT_EQ(h.dropped.size(), 1u);
  EXPECT_EQ(h.dropped[0].query_id, 1u);
  ASSERT_EQ(h.batches.size(), 1u);
  EXPECT_EQ(h.batches[0][0].query_id, 2u);
}

TEST(Worker, AllDroppedBatchContinuesQueue) {
  Harness h;
  h.worker.set_drop_filter([](const Worker&, const WorkItem& item) {
    return item.query_id < 3;
  });
  h.worker.assign(0, 0, &h.catalog.at(0), 2, false);
  for (std::uint64_t i = 1; i <= 4; ++i) h.worker.enqueue(h.item(i));
  h.sim.run_all();
  EXPECT_EQ(h.dropped.size(), 2u);
  EXPECT_EQ(h.worker.items_executed(), 2u);
}

TEST(Worker, JitterAppliedToExecution) {
  Harness h;
  h.worker.set_jitter([](double nominal) { return nominal * 2.0; });
  h.worker.assign(0, 0, &h.catalog.at(0), 8, false);
  h.worker.enqueue(h.item(1));
  h.sim.run_all();
  EXPECT_NEAR(h.sim.now(), 2.0 * h.catalog.at(0).latency.latency_s(1), 1e-12);
}

TEST(Worker, LoadMetricCountsQueueAndInflight) {
  Harness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 1, false);
  h.worker.enqueue(h.item(1));  // starts immediately -> inflight
  h.worker.enqueue(h.item(2));  // queued
  EXPECT_EQ(h.worker.load(), 2u);
  EXPECT_EQ(h.worker.queue_length(), 1u);
}

// ---------------------------------------------------------------------------
// Stage counters and the external load cell
// ---------------------------------------------------------------------------

TEST(Worker, StageCountersTrackQueueBatchExecuteSwap) {
  Harness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 2, /*swap_cost=*/false);
  for (int i = 0; i < 4; ++i) h.worker.enqueue(h.item(i));
  h.sim.run_all();

  const StageCounters& sc = h.worker.stage_counters();
  EXPECT_EQ(sc.enqueued, 4u);
  EXPECT_EQ(sc.batch_items, 4u);
  EXPECT_GE(sc.batches, 2u);  // max_batch 2: at least two batches
  EXPECT_EQ(sc.batches, h.worker.batches_executed());
  EXPECT_DOUBLE_EQ(sc.execute_s, h.worker.busy_time_s());
  EXPECT_GT(sc.execute_s, 0.0);
  // Items enqueued at t=0 that executed in the 2nd+ batch waited in queue.
  EXPECT_GT(sc.queue_wait_s, 0.0);
  EXPECT_EQ(sc.swaps, 0u);
  EXPECT_DOUBLE_EQ(sc.swap_stall_s, 0.0);

  // Paid variant swap shows up in the swap stage.
  h.worker.assign(0, 1, &h.catalog.at(1), 2, /*swap_cost=*/true);
  const StageCounters& sc2 = h.worker.stage_counters();
  EXPECT_EQ(sc2.swaps, 1u);
  EXPECT_DOUBLE_EQ(sc2.swap_stall_s, h.catalog.at(1).load_time_s);
}

TEST(Worker, StageCountersAggregateWithPlus) {
  StageCounters a;
  a.enqueued = 3;
  a.queue_wait_s = 0.5;
  a.batches = 2;
  a.batch_items = 3;
  a.execute_s = 1.0;
  a.swaps = 1;
  a.swap_stall_s = 4.0;
  StageCounters b = a;
  b += a;
  EXPECT_EQ(b.enqueued, 6u);
  EXPECT_DOUBLE_EQ(b.queue_wait_s, 1.0);
  EXPECT_EQ(b.batches, 4u);
  EXPECT_EQ(b.batch_items, 6u);
  EXPECT_DOUBLE_EQ(b.execute_s, 2.0);
  EXPECT_EQ(b.swaps, 2u);
  EXPECT_DOUBLE_EQ(b.swap_stall_s, 8.0);
}

TEST(Worker, LoadCellPublishesEveryStateChange) {
  Harness h;
  std::uint32_t cell = 0;
  h.worker.bind_load_cell(&cell);
  // Unassigned worker: inactive sentinel immediately on bind.
  EXPECT_EQ(cell, Worker::kLoadCellInactive);

  h.worker.assign(0, 0, &h.catalog.at(0), 8, /*swap_cost=*/false);
  EXPECT_EQ(cell, 0u);  // active, idle

  h.worker.enqueue(h.item(1));
  // The item went straight into an executing batch: load 1, no loading bit.
  EXPECT_EQ(cell, 1u);
  h.sim.run_all();
  EXPECT_EQ(cell, 0u);  // drained

  // A paid swap publishes the loading bit for the load duration.
  h.worker.assign(0, 1, &h.catalog.at(1), 8, /*swap_cost=*/true);
  EXPECT_TRUE(cell & Worker::kLoadCellLoadingBit);
  h.worker.enqueue(h.item(2));
  EXPECT_EQ(cell, 1u | Worker::kLoadCellLoadingBit);
  h.sim.run_all();  // load completes, batch executes, queue drains
  EXPECT_EQ(cell, 0u);

  h.worker.deactivate();
  EXPECT_EQ(cell, Worker::kLoadCellInactive);
}

/// The two-tier least-loaded rule least_loaded() replaced, kept as the
/// reference: the first minimum among ready workers, else the first
/// minimum among workers mid model-swap; inactive and skipped workers are
/// never picked. Returns a position in `ids`, or -1.
int reference_least_loaded(const std::vector<std::uint32_t>& cells,
                           const std::vector<int>& ids,
                           const std::vector<char>* skip) {
  int ready = -1, loading = -1;
  std::uint32_t ready_load = Worker::kLoadCellInactive;
  std::uint32_t loading_load = Worker::kLoadCellInactive;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto wid = static_cast<std::size_t>(ids[i]);
    if (skip != nullptr && (*skip)[wid]) continue;
    const std::uint32_t cell = cells[wid];
    if (cell == Worker::kLoadCellInactive) continue;
    if (cell & Worker::kLoadCellLoadingBit) {
      const std::uint32_t l = cell & ~Worker::kLoadCellLoadingBit;
      if (l < loading_load) {
        loading_load = l;
        loading = static_cast<int>(i);
      }
    } else if (cell < ready_load) {
      ready_load = cell;
      ready = static_cast<int>(i);
    }
  }
  return ready >= 0 ? ready : loading;
}

TEST(LeastLoaded, MatchesTheTwoTierRuleOnRandomCells) {
  // Seeded differential over the shapes the serving core scans: a group's
  // member list (ids into the cell array, possibly empty) with and without
  // the quarantine mask. Small loads make ties common; the edge values are
  // the largest ready load and a loading cell one below the inactive
  // sentinel's load (a load of 2^31 - 1 would alias the sentinel; no queue
  // gets there).
  std::mt19937_64 rng(77);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const auto random_cell = [&]() -> std::uint32_t {
    switch (pick(8)) {
      case 0: return Worker::kLoadCellInactive;
      case 1: return Worker::kLoadCellLoadingBit |
                     static_cast<std::uint32_t>(pick(4));
      case 2: return Worker::kLoadCellLoadingBit - 1;  // largest ready
      case 3: return Worker::kLoadCellInactive - 1;    // largest loading
      default: return static_cast<std::uint32_t>(pick(4));
    }
  };
  int picked_loading = 0, picked_none = 0, skip_changed = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t workers = 1 + pick(12);
    std::vector<std::uint32_t> cells(workers);
    std::vector<char> skip(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      cells[w] = random_cell();
      skip[w] = pick(4) == 0 ? 1 : 0;
    }
    std::vector<int> ids;
    for (std::size_t w = 0; w < workers; ++w) {
      if (pick(3) != 0) ids.push_back(static_cast<int>(w));
    }
    const int plain = least_loaded(ids.size(), [&](std::size_t i) {
      return cells[static_cast<std::size_t>(ids[i])];
    });
    const int masked = least_loaded(ids.size(), [&](std::size_t i) {
      const auto wid = static_cast<std::size_t>(ids[i]);
      return masked_load_cell(cells[wid], skip[wid] != 0);
    });
    ASSERT_EQ(plain, reference_least_loaded(cells, ids, nullptr))
        << "trial " << trial;
    ASSERT_EQ(masked, reference_least_loaded(cells, ids, &skip))
        << "trial " << trial;
    if (plain < 0) {
      ++picked_none;
    } else {
      const auto wid =
          static_cast<std::size_t>(ids[static_cast<std::size_t>(plain)]);
      picked_loading += cells[wid] >= Worker::kLoadCellLoadingBit ? 1 : 0;
    }
    skip_changed += plain != masked ? 1 : 0;
  }
  // The draw reached every branch of the reference rule.
  EXPECT_GT(picked_loading, 0);
  EXPECT_GT(picked_none, 0);
  EXPECT_GT(skip_changed, 0);
}

}  // namespace
}  // namespace loki::cluster
