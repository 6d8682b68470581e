#pragma once
// Dependency-driven task graph — the "futurized dataflow" execution model
// (DESIGN.md substitution for the HPX runtime). Solvers build one node per
// (block, stage) with edges from the neighbour blocks' previous stage, then
// run(pool) executes the whole step with no intra-step global barrier: a
// block advances as soon as its own halo dependencies are met. run() with
// no pool executes the same nodes on the calling thread in creation order.
//
// A graph is built once and can be run repeatedly (structure is immutable
// after the first run; per-run scheduling state is reset internally).

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <initializer_list>
#include <span>
#include <vector>

#include "rshc/check/check.hpp"
#include "rshc/common/mutex.hpp"

namespace rshc::parallel {

class ThreadPool;

class TaskGraph {
 public:
  using NodeId = std::size_t;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Add a node executing `fn` after every node in `deps` has completed.
  /// Dependencies must already exist (ids are returned in creation order),
  /// which makes cycles unrepresentable.
  NodeId add(std::function<void()> fn, std::span<const NodeId> deps = {});

  NodeId add(std::function<void()> fn, std::initializer_list<NodeId> deps) {
    return add(std::move(fn), std::span<const NodeId>(deps.begin(), deps.size()));
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Execute all nodes on `pool`, blocking until the graph drains.
  /// The first exception thrown by any node is rethrown here; downstream
  /// nodes of a failed node still run (physics kernels report failure via
  /// status fields, not exceptions, so this only matters for test hooks).
  void run(ThreadPool& pool) RSHC_EXCLUDES(error_mutex_);

  /// Execute all nodes on the calling thread in creation order, which is a
  /// topological order because add() rejects forward dependencies. Same
  /// per-node bookkeeping and failure policy as run(pool).
  void run() RSHC_EXCLUDES(error_mutex_);

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<NodeId> dependents;
    int num_deps = 0;
    // acq_rel on the releasing decrement: the node that drops pending to 0
    // must observe all writes of the dependencies it waited for. The
    // per-run reset in run() is relaxed (no worker is live yet).
    std::atomic<int> pending{0};
#if RSHC_CHECKS_ENABLED
    // relaxed: checker bookkeeping only (fired-exactly-once invariant);
    // ordering is already provided by `pending`.
    std::atomic<int> fired{0};
#endif
  };

  // Shared by both runners: reset the per-run bookkeeping; fire one node
  // (fired-once check, span, counters, exception capture); after the
  // drain, check every node fired once and rethrow the first exception.
  void begin_run() RSHC_EXCLUDES(error_mutex_);
  void fire(NodeId id) RSHC_EXCLUDES(error_mutex_);
  void end_run() RSHC_EXCLUDES(error_mutex_);

  void finish_node(ThreadPool& pool, NodeId id) RSHC_EXCLUDES(error_mutex_);
  void release_dependents(ThreadPool& pool, NodeId id);

  // deque: stable addresses, no relocation (Node holds an atomic).
  std::deque<Node> nodes_;

  // Per-run state of run(pool).
  // acq_rel on the final decrement: the thread observing 0 fulfils the
  // done_ promise and must see every node's side effects. The per-run
  // reset in run() is relaxed (no worker is live yet).
  std::atomic<std::size_t> remaining_{0};
  std::promise<void> done_;
  Mutex error_mutex_;
  std::exception_ptr error_ RSHC_GUARDED_BY(error_mutex_);
};

/// Process-wide scheduler introspection for the stall watchdog
/// (obs::telemetry): nodes scheduled-but-unfinished right now, and a
/// monotonic finished count. Summed over every TaskGraph run in flight.
/// Deliberately obs-free so the hooks exist in all build configurations.
namespace introspect {

// relaxed: watchdog diagnostics only; readers tolerate stale values.
inline std::atomic<long long>& graph_pending_counter() noexcept {
  static std::atomic<long long> pending{0};
  return pending;
}

// relaxed: monotonic progress ticker for the watchdog; no ordering needed.
inline std::atomic<long long>& graph_finished_counter() noexcept {
  static std::atomic<long long> finished{0};
  return finished;
}

/// Nodes scheduled by a run that has not observed their completion yet.
[[nodiscard]] inline long long pending_graph_nodes() noexcept {
  return graph_pending_counter().load(std::memory_order_relaxed);
}

/// Monotonic count of nodes that finished (successfully or not).
[[nodiscard]] inline long long graph_nodes_finished() noexcept {
  return graph_finished_counter().load(std::memory_order_relaxed);
}

}  // namespace introspect

}  // namespace rshc::parallel
