#include "rshc/comm/communicator.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "rshc/obs/obs.hpp"

namespace rshc::comm {

namespace {

/// How long before ready_at a waiting receive stops parking and polls (the
/// delivery contract in communicator.hpp): a little above Linux's default
/// 50 us timer slack, by which a timed sleep overshoots.
constexpr auto kPollWindow = std::chrono::microseconds(80);

/// splitmix64 finalizer: uniform in [0, 1) from a message sequence number.
double jitter_fraction(std::uint64_t seq) noexcept {
  std::uint64_t z = seq + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

std::chrono::steady_clock::duration TransferModel::flight_time(
    std::size_t bytes, std::uint64_t seq) const {
  double secs = latency_sec;
  if (bandwidth_bytes_per_sec > 0.0) {
    secs += static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
  if (jitter_sec > 0.0) {
    secs += jitter_fraction(seq) * jitter_sec;
  }
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(secs));
}

World::World(int size, TransferModel model) : size_(size), model_(model) {
  RSHC_REQUIRE(size >= 1, "world needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

std::size_t World::total_messages() const {
  return msg_count_.load(std::memory_order_relaxed);
}
std::size_t World::total_bytes() const {
  return byte_count_.load(std::memory_order_relaxed);
}

void World::deliver(int dest, Message msg) {
  RSHC_REQUIRE(dest >= 0 && dest < size_, "send destination out of range");
  msg_count_.fetch_add(1, std::memory_order_relaxed);
  byte_count_.fetch_add(msg.payload.size(), std::memory_order_relaxed);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  {
    LockGuard lock(box.mutex);
    box.messages.push_back(std::move(msg));
  }
  introspect::mailbox_depth_counter().fetch_add(1, std::memory_order_relaxed);
  box.cv.notify_all();
}

bool World::matches(const Message& m, int source, int tag) {
  return (source == kAnySource || m.source == source) &&
         (tag == kAnyTag || m.tag == tag);
}

std::optional<World::Message> World::take_matching(int me, int source,
                                                   int tag, bool block) {
  Message out;
  const RecvPattern pattern{source, tag};
  if (!take_any(me, std::span<const RecvPattern>(&pattern, 1), out, block)) {
    return std::nullopt;
  }
  return out;
}

std::optional<std::size_t> World::take_any(
    int me, std::span<const RecvPattern> patterns, Message& out, bool block) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(me)];
  LockGuard lock(box.mutex);
  for (;;) {
    // In-order delivery per (source, tag): for every pattern consider only
    // its *first* match in FIFO order and, if that one is still in flight,
    // wait for it specifically — a later same-tag message must never
    // overtake it. Among ready head-of-line matches the lowest pattern
    // index wins, so the result does not depend on mailbox interleaving
    // beyond per-pattern FIFO order.
    auto earliest = std::chrono::steady_clock::time_point::max();
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
        if (!matches(*it, patterns[p].source, patterns[p].tag)) {
          continue;
        }
        if (it->ready_at <= now) {
          out = std::move(*it);
          box.messages.erase(it);
          introspect::mailbox_depth_counter().fetch_sub(
              1, std::memory_order_relaxed);
          introspect::received_counter().fetch_add(1,
                                                   std::memory_order_relaxed);
          return p;
        }
        earliest = std::min(earliest, it->ready_at);
        break;  // head-of-line only: do not look past the first match
      }
    }
    if (!block) return std::nullopt;
    if (earliest == std::chrono::steady_clock::time_point::max()) {
      box.cv.wait(lock.native_lock());
    } else if (earliest - now > kPollWindow) {
      box.cv.wait_until(lock.native_lock(), earliest - kPollWindow);
    } else {
      // Inside the window a timed sleep would overshoot ready_at by the
      // timer slack, so poll: drop the lock, yield, rescan.
      lock.native_lock().unlock();
      std::this_thread::yield();
      lock.native_lock().lock();
    }
  }
}

int Communicator::size() const { return world_->size(); }

void Communicator::send_bytes(int dest, int tag,
                              std::span<const std::byte> payload) {
  RSHC_TRACE_SCOPE("comm.send", "comm", dest);
  RSHC_OBS_COUNT("comm.messages_sent", 1);
  RSHC_OBS_COUNT("comm.bytes_sent",
                 static_cast<std::int64_t>(payload.size()));
  World::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload.assign(payload.begin(), payload.end());
  msg.ready_at =
      std::chrono::steady_clock::now() +
      world_->model_.flight_time(
          payload.size(),
          world_->send_seq_.fetch_add(1, std::memory_order_relaxed));
  // The flow id rides inside the message so the receiving rank can close
  // the send→recv arrow Perfetto draws between the two spans.
  msg.flow_id = RSHC_OBS_FLOW_BEGIN("comm.msg", "comm");
  world_->deliver(dest, std::move(msg));
}

int Communicator::recv_bytes(int source, int tag, std::span<std::byte> out) {
  RSHC_TRACE_SCOPE("comm.recv", "comm", source);
  RSHC_OBS_COUNT("comm.messages_received", 1);
  World::Message msg = *world_->take_matching(rank_, source, tag, true);
  RSHC_OBS_FLOW_END("comm.msg", "comm", msg.flow_id);
  RSHC_REQUIRE(msg.payload.size() == out.size(),
               "recv size mismatch: expected " + std::to_string(out.size()) +
                   " bytes, got " + std::to_string(msg.payload.size()));
  std::memcpy(out.data(), msg.payload.data(), out.size());
  return msg.source;
}

std::vector<std::byte> Communicator::recv_any_bytes(int source, int tag,
                                                    int* actual_source) {
  RSHC_TRACE_SCOPE("comm.recv", "comm", source);
  RSHC_OBS_COUNT("comm.messages_received", 1);
  World::Message msg = *world_->take_matching(rank_, source, tag, true);
  RSHC_OBS_FLOW_END("comm.msg", "comm", msg.flow_id);
  if (actual_source != nullptr) *actual_source = msg.source;
  return std::move(msg.payload);
}

// --- non-blocking point to point --------------------------------------

namespace detail {

/// Shared state behind a CommFuture. The owning rank's thread is the only
/// caller of test/wait/wait_any, but the done/actual_source transition is
/// still mutex-guarded so the thread-safety lanes can reason about it.
/// Lock order: the mailbox mutex (inside the World take helpers) is always
/// released before this mutex is taken — the two are never nested.
struct CommFutureState {
  World* world = nullptr;  ///< nullptr for already-complete send futures
  int me = -1;
  int source = kAnySource;
  int tag = kAnyTag;
  std::span<std::byte> out{};

  Mutex mutex;
  bool done RSHC_GUARDED_BY(mutex) = false;
  int actual_source RSHC_GUARDED_BY(mutex) = -1;

  /// Finish the receive with its matched message: close the trace flow the
  /// sender opened, account the receive, copy the payload out, and flip the
  /// guarded done flag. Runs with no locks held on entry.
  int finish(World::Message&& msg) {
    RSHC_OBS_COUNT("comm.messages_received", 1);
    RSHC_OBS_FLOW_END("comm.msg", "comm", msg.flow_id);
    RSHC_REQUIRE(msg.payload.size() == out.size(),
                 "irecv size mismatch: expected " +
                     std::to_string(out.size()) + " bytes, got " +
                     std::to_string(msg.payload.size()));
    if (!out.empty()) {
      std::memcpy(out.data(), msg.payload.data(), out.size());
    }
    LockGuard lock(mutex);
    done = true;
    actual_source = msg.source;
    return msg.source;
  }
};

}  // namespace detail

CommFuture::CommFuture() = default;
CommFuture::~CommFuture() = default;
CommFuture::CommFuture(CommFuture&&) noexcept = default;
CommFuture& CommFuture::operator=(CommFuture&&) noexcept = default;
CommFuture::CommFuture(std::unique_ptr<detail::CommFutureState> state)
    : state_(std::move(state)) {}

bool CommFuture::done() const {
  RSHC_REQUIRE(state_ != nullptr, "done() on an empty CommFuture");
  LockGuard lock(state_->mutex);
  return state_->done;
}

int CommFuture::source() const {
  RSHC_REQUIRE(state_ != nullptr, "source() on an empty CommFuture");
  LockGuard lock(state_->mutex);
  RSHC_REQUIRE(state_->done, "source() before the future completed");
  return state_->actual_source;
}

bool CommFuture::test() {
  RSHC_REQUIRE(state_ != nullptr, "test() on an empty CommFuture");
  if (done()) return true;
  std::optional<World::Message> msg = state_->world->take_matching(
      state_->me, state_->source, state_->tag, false);
  if (!msg) return false;
  state_->finish(std::move(*msg));
  return true;
}

int CommFuture::wait() {
  RSHC_REQUIRE(state_ != nullptr, "wait() on an empty CommFuture");
  {
    LockGuard lock(state_->mutex);
    if (state_->done) return state_->actual_source;
  }
  RSHC_TRACE_SCOPE("comm.wait", "comm", state_->tag);
  World::Message msg = *state_->world->take_matching(
      state_->me, state_->source, state_->tag, true);
  return state_->finish(std::move(msg));
}

std::size_t CommFuture::wait_any(std::span<CommFuture* const> futures) {
  RSHC_REQUIRE(!futures.empty(), "wait_any() on an empty future set");
  std::vector<World::RecvPattern> patterns;
  std::vector<std::size_t> pending;  // pattern index -> futures index
  patterns.reserve(futures.size());
  pending.reserve(futures.size());
  World* world = nullptr;
  int me = -1;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    CommFuture* f = futures[i];
    RSHC_REQUIRE(f != nullptr && f->valid(),
                 "wait_any() over an empty CommFuture");
    if (f->done()) return i;
    RSHC_REQUIRE(f->state_->world != nullptr,
                 "wait_any() over a detached future");
    if (world == nullptr) {
      world = f->state_->world;
      me = f->state_->me;
    }
    RSHC_REQUIRE(world == f->state_->world && me == f->state_->me,
                 "wait_any() futures must belong to one rank");
    patterns.push_back({f->state_->source, f->state_->tag});
    pending.push_back(i);
  }
  RSHC_TRACE_SCOPE("comm.wait", "comm",
                   static_cast<int>(patterns.size()));
  World::Message msg;
  const std::size_t p = *world->take_any(me, patterns, msg, true);
  const std::size_t idx = pending[p];
  futures[idx]->state_->finish(std::move(msg));
  return idx;
}

void CommFuture::wait_all(std::span<CommFuture* const> futures) {
  for (CommFuture* f : futures) {
    RSHC_REQUIRE(f != nullptr && f->valid(),
                 "wait_all() over an empty CommFuture");
    f->wait();
  }
}

CommFuture Communicator::isend_bytes(int dest, int tag,
                                     std::span<const std::byte> payload) {
  send_bytes(dest, tag, payload);
  auto state = std::make_unique<detail::CommFutureState>();
  state->me = rank_;
  {
    LockGuard lock(state->mutex);
    state->done = true;  // copied into the destination mailbox already
    state->actual_source = dest;
  }
  return CommFuture(std::move(state));
}

CommFuture Communicator::irecv_bytes(int source, int tag,
                                     std::span<std::byte> out) {
  // Deliberately no obs events here: the receive is accounted (and its
  // trace flow closed) when the message is actually taken, so counter
  // totals match the blocking path exactly.
  auto state = std::make_unique<detail::CommFutureState>();
  state->world = world_;
  state->me = rank_;
  state->source = source;
  state->tag = tag;
  state->out = out;
  return CommFuture(std::move(state));
}

void Communicator::barrier() {
  RSHC_TRACE_SCOPE("comm.barrier", "comm", rank_);
  LockGuard lock(world_->coll_mutex_);
  const long long gen = world_->coll_generation_;
  if (++world_->coll_count_ == world_->size_) {
    world_->coll_count_ = 0;
    ++world_->coll_generation_;
    world_->coll_cv_.notify_all();
  } else {
    world_->coll_cv_.wait(lock.native_lock(), [&] {
      world_->coll_mutex_.assert_held();  // predicate runs under the wait
      return world_->coll_generation_ != gen;
    });
  }
}

void Communicator::allreduce(std::span<double> values, ReduceOp op) {
  RSHC_TRACE_SCOPE("comm.allreduce", "comm", rank_);
  auto combine = [op](double a, double b) {
    switch (op) {
      case ReduceOp::kSum: return a + b;
      case ReduceOp::kMin: return std::min(a, b);
      case ReduceOp::kMax: return std::max(a, b);
    }
    return a;  // unreachable
  };
  LockGuard lock(world_->coll_mutex_);
  const long long gen = world_->coll_generation_;
  if (world_->coll_count_ == 0) {
    world_->coll_buffer_.assign(values.begin(), values.end());
  } else {
    RSHC_REQUIRE(world_->coll_buffer_.size() == values.size(),
                 "allreduce length mismatch across ranks");
    for (std::size_t i = 0; i < values.size(); ++i) {
      world_->coll_buffer_[i] = combine(world_->coll_buffer_[i], values[i]);
    }
  }
  if (++world_->coll_count_ == world_->size_) {
    world_->coll_count_ = 0;
    // Snapshot into a separate result buffer: the *next* collective's first
    // arriver reuses coll_buffer_ while slow ranks may still be reading.
    world_->coll_result_ = world_->coll_buffer_;
    ++world_->coll_generation_;
    world_->coll_cv_.notify_all();
  } else {
    world_->coll_cv_.wait(lock.native_lock(), [&] {
      world_->coll_mutex_.assert_held();  // predicate runs under the wait
      return world_->coll_generation_ != gen;
    });
  }
  std::copy(world_->coll_result_.begin(), world_->coll_result_.end(),
            values.begin());
}

double Communicator::allreduce(double value, ReduceOp op) {
  allreduce(std::span<double>(&value, 1), op);
  return value;
}

namespace {
// Reserved tag range for collectives implemented over point-to-point.
constexpr int kBcastTag = 1 << 28;
constexpr int kGatherTag = (1 << 28) + 1;
}  // namespace

void Communicator::bcast(std::span<double> data, int root) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kBcastTag, std::span<const double>(data));
    }
  } else {
    recv(root, kBcastTag, data);
  }
}

std::vector<double> Communicator::gather(double value, int root) {
  if (rank_ == root) {
    std::vector<double> out(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] = value;
    for (int i = 0; i < size() - 1; ++i) {
      int src = kAnySource;
      const double v = [&] {
        double tmp;
        src = recv(kAnySource, kGatherTag, std::span<double>(&tmp, 1));
        return tmp;
      }();
      out[static_cast<std::size_t>(src)] = v;
    }
    return out;
  }
  send_value(root, kGatherTag, value);
  return {};
}

void run_world(int size, const std::function<void(Communicator&)>& body,
               TransferModel model) {
  World world(size, model);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size));
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      threads.emplace_back([&world, &body, &errors, r] {
        try {
          Communicator comm = world.communicator(r);
          body(comm);
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace rshc::comm
