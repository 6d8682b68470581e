#include "rshc/parallel/task_graph.hpp"

#include "rshc/common/error.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/parallel/thread_pool.hpp"

namespace rshc::parallel {

TaskGraph::NodeId TaskGraph::add(std::function<void()> fn,
                                 std::span<const NodeId> deps) {
  const NodeId id = nodes_.size();
  auto& node = nodes_.emplace_back();
  node.fn = std::move(fn);
  node.num_deps = static_cast<int>(deps.size());
  for (const NodeId dep : deps) {
    RSHC_REQUIRE(dep < id, "task graph dependency must precede the node");
    nodes_[dep].dependents.push_back(id);
  }
  return id;
}

void TaskGraph::begin_run() {
#if RSHC_CHECKS_ENABLED
  for (auto& n : nodes_) n.fired.store(0, std::memory_order_relaxed);
#endif
  introspect::graph_pending_counter().fetch_add(
      static_cast<long long>(nodes_.size()), std::memory_order_relaxed);
  LockGuard lock(error_mutex_);
  error_ = nullptr;
}

void TaskGraph::fire(NodeId id) {
#if RSHC_CHECKS_ENABLED
  RSHC_CHECK("graph",
             nodes_[id].fired.fetch_add(1, std::memory_order_relaxed) == 0,
             "task graph node fired more than once in a run");
#endif
  try {
    RSHC_TRACE_SCOPE("graph.node", "graph", static_cast<std::int64_t>(id));
    nodes_[id].fn();
  } catch (...) {
    LockGuard lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  }
  RSHC_OBS_COUNT("graph.nodes_run", 1);
  introspect::graph_finished_counter().fetch_add(1, std::memory_order_relaxed);
  introspect::graph_pending_counter().fetch_sub(1, std::memory_order_relaxed);
}

void TaskGraph::end_run() {
#if RSHC_CHECKS_ENABLED
  // The graph drained: every node must have fired exactly once (a node
  // that never fired would mean an unsatisfiable dependency — a cycle or
  // a lost release — and would have hung run(pool) instead, but a
  // duplicate fire can slip through scheduling races; assert both edges).
  for (const auto& n : nodes_) {
    RSHC_CHECK("graph", n.fired.load(std::memory_order_relaxed) == 1,
               "task graph drained with a node not fired exactly once");
  }
#endif
  // The graph drained, so no writer remains; lock anyway to satisfy the
  // guarded-by contract (one uncontended lock per run).
  LockGuard lock(error_mutex_);
  if (error_) std::rethrow_exception(error_);
}

void TaskGraph::finish_node(ThreadPool& pool, NodeId id) {
  fire(id);
  release_dependents(pool, id);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_.set_value();
  }
}

void TaskGraph::release_dependents(ThreadPool& pool, NodeId id) {
  for (const NodeId dep : nodes_[id].dependents) {
    const int prev =
        nodes_[dep].pending.fetch_sub(1, std::memory_order_acq_rel);
    RSHC_CHECK("graph", prev >= 1,
               "task graph pending count went negative (double release)");
    if (prev == 1) {
      pool.enqueue([this, &pool, dep] { finish_node(pool, dep); });
    }
  }
}

void TaskGraph::run(ThreadPool& pool) {
  if (nodes_.empty()) return;
  // Reset per-run scheduling state.
  for (auto& n : nodes_) n.pending.store(n.num_deps, std::memory_order_relaxed);
  remaining_.store(nodes_.size(), std::memory_order_relaxed);
  done_ = std::promise<void>();
  begin_run();

  auto done = done_.get_future();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].num_deps == 0) {
      pool.enqueue([this, &pool, id] { finish_node(pool, id); });
    }
  }
  done.wait();
  end_run();
}

void TaskGraph::run() {
  if (nodes_.empty()) return;
  begin_run();
  for (NodeId id = 0; id < nodes_.size(); ++id) fire(id);
  end_run();
}

}  // namespace rshc::parallel
