#pragma once
// MPI-style message passing between "ranks" that live in one process
// (DESIGN.md substitution for a real interconnect). Each rank is a thread
// with a mailbox; send() copies the payload into the destination mailbox and
// recv() blocks until a matching (source, tag) message arrives. A transfer
// model (latency + bandwidth) can be injected so overlap experiments (F6)
// see realistic message costs.
//
// Delivery contract: a message is receivable at its ready_at (send time +
// modeled flight time), never earlier, and a waiting receive takes it
// within one poll of ready_at. The wait parks on the mailbox condition
// variable until shortly before ready_at and then polls (unlock, yield,
// relock, rescan): a timed sleep to ready_at itself would wake late by the
// kernel's timer slack (50 us by default on Linux), which would stretch
// every modeled flight by more than half of a 100 us latency.
//
// The subset implemented mirrors the dozen-routine core of MPI that the LLNL
// tutorial calls out: send/recv, sendrecv, barrier, allreduce, bcast, gather.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/common/mutex.hpp"

namespace rshc::comm {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Modeled network cost per message; zero-initialized = instantaneous.
/// flight_time() is exact: a message sent at t is receivable at
/// t + flight_time(), never earlier, and a waiting receive takes it within
/// one poll of that instant (see the delivery contract above).
struct TransferModel {
  double latency_sec = 0.0;        ///< per-message latency
  double bandwidth_bytes_per_sec = 0.0;  ///< 0 => infinite
  /// Extra per-message delay drawn deterministically from [0, jitter_sec):
  /// message `seq` gets splitmix64(seq) scaled into the window, so delivery
  /// order gets scrambled under test without losing reproducibility.
  double jitter_sec = 0.0;

  [[nodiscard]] std::chrono::steady_clock::duration flight_time(
      std::size_t bytes, std::uint64_t seq = 0) const;
};

enum class ReduceOp { kSum, kMin, kMax };

class World;
class CommFuture;

namespace detail {
/// Opaque shared state behind a CommFuture (defined in communicator.cpp).
struct CommFutureState;
}  // namespace detail

/// Per-rank handle; cheap to copy within the owning rank's thread.
class Communicator {
 public:
  Communicator(World& world, int rank) : world_(&world), rank_(rank) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  // --- point to point ------------------------------------------------
  void send_bytes(int dest, int tag, std::span<const std::byte> payload);
  /// Blocking receive into `out`; message size must match exactly.
  /// Returns the actual source (useful with kAnySource).
  int recv_bytes(int source, int tag, std::span<std::byte> out);
  /// Blocking receive of unknown size.
  std::vector<std::byte> recv_any_bytes(int source, int tag,
                                        int* actual_source = nullptr);

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(data));
  }
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send(dest, tag, std::span<const T>(&v, 1));
  }
  template <typename T>
  int recv(int source, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes(source, tag, std::as_writable_bytes(out));
  }
  template <typename T>
  T recv_value(int source, int tag) {
    T v{};
    recv(source, tag, std::span<T>(&v, 1));
    return v;
  }

  /// Exchange: send to `dest` and receive from `src` with the same tag.
  /// Sends first (sends never block), so symmetric exchanges cannot deadlock.
  template <typename T>
  void sendrecv(int dest, std::span<const T> sendbuf, int src,
                std::span<T> recvbuf, int tag) {
    send(dest, tag, sendbuf);
    recv(src, tag, recvbuf);
  }

  // --- non-blocking point to point ------------------------------------
  /// Start a send. Sends never block in this model (the payload is copied
  /// into the destination mailbox immediately), so the returned future is
  /// already complete — it exists so call sites read symmetrically with
  /// irecv and keep working if sends ever gain real asynchrony.
  CommFuture isend_bytes(int dest, int tag, std::span<const std::byte> payload);
  /// Post a receive into `out` and return immediately. The message is
  /// matched and copied out lazily, when the future is completed via
  /// test()/wait()/wait_any(); `out` must stay alive and unread until then.
  CommFuture irecv_bytes(int source, int tag, std::span<std::byte> out);

  // (defined after CommFuture below — the return type must be complete)
  template <typename T>
  CommFuture isend(int dest, int tag, std::span<const T> data);
  template <typename T>
  CommFuture irecv(int source, int tag, std::span<T> out);

  // --- collectives ----------------------------------------------------
  void barrier();
  double allreduce(double value, ReduceOp op);
  void allreduce(std::span<double> values, ReduceOp op);
  /// Root's `data` is broadcast into every rank's `data`.
  void bcast(std::span<double> data, int root);
  /// Gathers each rank's scalar to root (returned vector is empty elsewhere).
  std::vector<double> gather(double value, int root);

 private:
  World* world_;
  int rank_;
};

/// Waitable handle for a non-blocking comm operation (MPI_Request
/// analogue). Completion is *lazy*: the matching message is taken out of
/// the owning rank's mailbox by whichever of test()/wait()/wait_any()
/// observes it first, preserving the blocking path's semantics exactly —
/// FIFO head-of-line matching per (source, tag), modeled flight time
/// honoured, trace flow pairing closed and the watchdog's received counter
/// bumped at the moment the message is actually taken.
///
/// A future is owned by the rank that created it and its methods must be
/// called from that rank's thread (same single-consumer rule as recv).
/// Internal state still carries its own mutex (see State in the .cpp) so
/// done/source transitions are annotated for the thread-safety lanes; the
/// mailbox lock is always released before the state lock is taken, so the
/// two levels cannot deadlock.
class CommFuture {
 public:
  CommFuture();                              ///< empty; valid() == false
  ~CommFuture();
  CommFuture(CommFuture&&) noexcept;
  CommFuture& operator=(CommFuture&&) noexcept;
  CommFuture(const CommFuture&) = delete;
  CommFuture& operator=(const CommFuture&) = delete;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// True once the operation completed (message copied into `out`).
  [[nodiscard]] bool done() const;
  /// Try to complete without blocking. Returns done().
  bool test();
  /// Block until complete; returns the actual source rank (kAnySource
  /// receives resolve here). No-op if already done.
  int wait();
  /// Actual source rank; requires done().
  [[nodiscard]] int source() const;

  /// Block until at least one future completes; returns its index within
  /// `futures`. Already-done entries are returned immediately (lowest index
  /// first). All pending entries must belong to the same rank. When several
  /// patterns could match the same mailbox message, the lowest-index
  /// pending future wins — completion order is a property of message
  /// readiness, not of the order the futures were posted in.
  static std::size_t wait_any(std::span<CommFuture* const> futures);
  /// wait() every future (any order; result is order-independent).
  static void wait_all(std::span<CommFuture* const> futures);

 private:
  friend class Communicator;
  explicit CommFuture(std::unique_ptr<detail::CommFutureState> state);

  std::unique_ptr<detail::CommFutureState> state_;
};

template <typename T>
CommFuture Communicator::isend(int dest, int tag, std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  return isend_bytes(dest, tag, std::as_bytes(data));
}

template <typename T>
CommFuture Communicator::irecv(int source, int tag, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  return irecv_bytes(source, tag, std::as_writable_bytes(out));
}

/// Owns the mailboxes and collective state for `size` ranks.
class World {
 public:
  explicit World(int size, TransferModel model = {});

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] Communicator communicator(int rank) {
    RSHC_REQUIRE(rank >= 0 && rank < size_, "rank out of range");
    return Communicator(*this, rank);
  }

  /// Diagnostics for the distributed experiments.
  [[nodiscard]] std::size_t total_messages() const;
  [[nodiscard]] std::size_t total_bytes() const;

 private:
  friend class Communicator;
  friend class CommFuture;
  friend struct detail::CommFutureState;

  struct Message {
    int source;
    int tag;
    std::vector<std::byte> payload;
    std::chrono::steady_clock::time_point ready_at;
    /// Trace flow pairing id carried from send to recv (0 = not traced).
    std::uint64_t flow_id = 0;
  };

  struct Mailbox {
    Mutex mutex;
    std::condition_variable cv;
    std::deque<Message> messages RSHC_GUARDED_BY(mutex);
  };

  /// (source, tag) matching pattern for multi-receive waits; either field
  /// may be the kAny* wildcard.
  struct RecvPattern {
    int source;
    int tag;
  };

  static bool matches(const Message& m, int source, int tag);

  void deliver(int dest, Message msg);
  /// take_any over the single pattern (source, tag).
  std::optional<Message> take_matching(int me, int source, int tag,
                                       bool block);
  /// Take the first ready head-of-line match of any pattern and return the
  /// pattern index (lowest index wins ties). Only a pattern's *first* FIFO
  /// match is eligible, and only once its ready_at has passed, so a ready
  /// later message never overtakes an in-flight earlier one. With `block`
  /// false, returns nullopt instead of waiting; with `block` true, waits
  /// under the delivery contract in the header comment.
  std::optional<std::size_t> take_any(int me,
                                      std::span<const RecvPattern> patterns,
                                      Message& out, bool block);

  int size_;
  TransferModel model_;
  // Set up in the constructor, immutable afterwards (per-element state is
  // behind each Mailbox's own mutex).
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Collective state (monitor-style, generation-counted for reuse).
  Mutex coll_mutex_;
  std::condition_variable coll_cv_;
  long long coll_generation_ RSHC_GUARDED_BY(coll_mutex_) = 0;
  int coll_count_ RSHC_GUARDED_BY(coll_mutex_) = 0;
  std::vector<double> coll_buffer_ RSHC_GUARDED_BY(coll_mutex_);
  std::vector<double> coll_result_ RSHC_GUARDED_BY(coll_mutex_);

  // relaxed: traffic statistics only; read after join/barrier, no
  // synchronization is derived from them.
  std::atomic<std::size_t> msg_count_{0};
  std::atomic<std::size_t> byte_count_{0};
  // relaxed: per-message sequence feeding the deterministic jitter hash.
  std::atomic<std::uint64_t> send_seq_{0};
};

/// Spawn `size` rank threads each running `body(comm)`; joins all and
/// rethrows the first exception raised by any rank.
void run_world(int size, const std::function<void(Communicator&)>& body,
               TransferModel model = {});

/// Mailbox introspection for the stall watchdog (obs::telemetry): messages
/// sitting delivered-but-unreceived across all Worlds, and a monotonic
/// received count. Deliberately obs-free so the hooks exist in all build
/// configurations.
namespace introspect {

// relaxed: watchdog diagnostics only; readers tolerate stale values.
inline std::atomic<long long>& mailbox_depth_counter() noexcept {
  static std::atomic<long long> depth{0};
  return depth;
}

// relaxed: monotonic progress ticker for the watchdog; no ordering needed.
inline std::atomic<long long>& received_counter() noexcept {
  static std::atomic<long long> received{0};
  return received;
}

/// Messages currently waiting in some rank's mailbox.
[[nodiscard]] inline long long mailbox_depth() noexcept {
  return mailbox_depth_counter().load(std::memory_order_relaxed);
}

/// Monotonic count of messages actually received (taken out of a mailbox).
[[nodiscard]] inline long long messages_received() noexcept {
  return received_counter().load(std::memory_order_relaxed);
}

}  // namespace introspect

}  // namespace rshc::comm
