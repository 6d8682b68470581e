// Unit tests for the shared-memory runtime: ThreadPool and TaskGraph.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"

namespace {

using namespace rshc::parallel;

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> count{0};
  std::latch done(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.enqueue([&count, &done] {
      count.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, EnqueueFromWorkerRuns) {
  // run(pool) releases dependents by enqueueing from inside a worker. A
  // 1-worker pool is the worst case: the follow-ups can only run after the
  // task that enqueued them returns.
  ThreadPool pool(1);
  constexpr int kFollowUps = 8;
  std::atomic<int> count{0};
  std::latch done(kFollowUps + 1);
  pool.enqueue([&] {
    for (int i = 0; i < kFollowUps; ++i) {
      pool.enqueue([&count, &done] {
        count.fetch_add(1);
        done.count_down();
      });
    }
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(count.load(), kFollowUps);
}

TEST(ThreadPool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool(0), rshc::Error);
}

// The graph's two runners: run() on the calling thread in creation order,
// run(pool) on the pool's workers. Every behavioural test holds for both.
enum class Runner { kInline, kPool };

std::string runner_name(const ::testing::TestParamInfo<Runner>& info) {
  return info.param == Runner::kInline ? "Inline" : "Pool";
}

class TaskGraphRunners : public ::testing::TestWithParam<Runner> {
 protected:
  /// Run `g` with the parameter's runner; `workers` sizes the pool.
  void run(TaskGraph& g, unsigned workers) {
    if (GetParam() == Runner::kInline) {
      g.run();
      return;
    }
    if (!pool_ || pool_->size() != workers) {
      pool_ = std::make_unique<ThreadPool>(workers);
    }
    g.run(*pool_);
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

TEST_P(TaskGraphRunners, RunsAllNodes) {
  TaskGraph g;
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    g.add([&count] { count.fetch_add(1); });
  }
  run(g, 2);
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(g.size(), 10u);
}

TEST_P(TaskGraphRunners, RespectsChainOrder) {
  TaskGraph g;
  std::vector<int> order;
  std::mutex m;
  auto note = [&](int id) {
    std::scoped_lock lock(m);
    order.push_back(id);
  };
  const auto a = g.add([&] { note(0); });
  const auto b = g.add([&] { note(1); }, {a});
  g.add([&] { note(2); }, {b});
  run(g, 4);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_P(TaskGraphRunners, DiamondDependency) {
  TaskGraph g;
  std::atomic<int> top_done{0};
  std::atomic<int> mids_done{0};
  std::atomic<bool> bottom_saw_both{false};
  const auto top = g.add([&] { top_done.store(1); });
  const auto l = g.add(
      [&] {
        EXPECT_EQ(top_done.load(), 1);
        mids_done.fetch_add(1);
      },
      {top});
  const auto r = g.add(
      [&] {
        EXPECT_EQ(top_done.load(), 1);
        mids_done.fetch_add(1);
      },
      {top});
  g.add([&] { bottom_saw_both.store(mids_done.load() == 2); }, {l, r});
  run(g, 4);
  EXPECT_TRUE(bottom_saw_both.load());
}

TEST_P(TaskGraphRunners, ReRunnable) {
  TaskGraph g;
  std::atomic<int> count{0};
  const auto a = g.add([&] { count.fetch_add(1); });
  g.add([&] { count.fetch_add(10); }, {a});
  run(g, 2);
  run(g, 2);
  run(g, 2);
  EXPECT_EQ(count.load(), 33);
}

TEST_P(TaskGraphRunners, ExceptionIsRethrownAfterDrain) {
  TaskGraph g;
  std::atomic<int> ran{0};
  const auto a = g.add([] { throw std::runtime_error("node failed"); });
  g.add([&] { ran.fetch_add(1); }, {a});
  EXPECT_THROW(run(g, 2), std::runtime_error);
  // Downstream node still ran (failure policy documented in the header).
  EXPECT_EQ(ran.load(), 1);
}

TEST_P(TaskGraphRunners, EmptyGraphRuns) {
  TaskGraph g;
  EXPECT_NO_THROW(run(g, 1));
}

TEST_P(TaskGraphRunners, WideFanOutAndIn) {
  TaskGraph g;
  std::atomic<long long> sum{0};
  const auto root = g.add([] {});
  std::vector<TaskGraph::NodeId> mids;
  for (long long i = 1; i <= 64; ++i) {
    mids.push_back(g.add([&sum, i] { sum.fetch_add(i); }, {root}));
  }
  std::atomic<long long> total{-1};
  g.add([&] { total.store(sum.load()); },
        std::span<const TaskGraph::NodeId>(mids));
  run(g, 4);
  EXPECT_EQ(total.load(), 64 * 65 / 2);
}

INSTANTIATE_TEST_SUITE_P(Runners, TaskGraphRunners,
                         ::testing::Values(Runner::kInline, Runner::kPool),
                         runner_name);

// Graph shapes against runners: workers == 0 runs inline, otherwise on a
// pool of that many workers. Node i depends on its binary-tree parent
// (i-1)/2 and, from i >= 8, on node i-8: fan-out plus cross edges, so a
// pool has independent nodes to run at once.
class TaskGraphSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(TaskGraphSweep, FiresEveryNodeOnceAfterItsDeps) {
  const auto [workers, n] = GetParam();
  TaskGraph g;
  std::vector<std::atomic<int>> fired(static_cast<std::size_t>(n));
  std::atomic<int> early{0};  // nodes that fired before a dependency
  for (int i = 0; i < n; ++i) {
    std::vector<TaskGraph::NodeId> deps;
    if (i >= 1) deps.push_back(static_cast<TaskGraph::NodeId>((i - 1) / 2));
    if (i >= 8 && i - 8 != (i - 1) / 2) {
      deps.push_back(static_cast<TaskGraph::NodeId>(i - 8));
    }
    g.add(
        [&fired, &early, deps, i] {
          for (const auto d : deps) {
            if (fired[d].load() != 1) early.fetch_add(1);
          }
          fired[static_cast<std::size_t>(i)].fetch_add(1);
        },
        std::span<const TaskGraph::NodeId>(deps));
  }
  if (workers == 0) {
    g.run();
  } else {
    ThreadPool pool(workers);
    g.run(pool);
  }
  EXPECT_EQ(early.load(), 0);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)].load(), 1) << "node " << i;
  }
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<unsigned, int>>& info) {
  const auto [workers, n] = info.param;
  const std::string runner =
      workers == 0 ? std::string("Inline") : "Pool" + std::to_string(workers);
  return runner + "_Nodes" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TaskGraphSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 4u),
                       ::testing::Values(1, 7, 64, 1000)),
    sweep_name);

TEST(TaskGraph, ForwardDependenciesRejected) {
  TaskGraph g;
  const auto a = g.add([] {});
  (void)a;
  // Depending on a node that does not exist yet (id >= current) must throw.
  EXPECT_THROW(g.add([] {}, {TaskGraph::NodeId{5}}), rshc::Error);
}

TEST(TaskGraph, InlineRunFiresEveryNodeOnTheCallingThread) {
  TaskGraph g;
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  const auto root = g.add([&] { ran_on.push_back(std::this_thread::get_id()); });
  for (int i = 0; i < 8; ++i) {
    g.add([&] { ran_on.push_back(std::this_thread::get_id()); }, {root});
  }
  g.run();
  ASSERT_EQ(ran_on.size(), 9u);
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

}  // namespace
