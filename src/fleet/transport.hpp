// The byte boundary of the serving front-end: ingest frames and the
// Transport interface they travel through. A served fleet does not call
// into its clients — sessions arrive as a stream of wire-encoded frames
// (measurements, device-side coast notices, end-of-stream markers), each
// stamped with its position on the *virtual ingest clock* (`t_s`). Every
// admission/shaping decision downstream (fleet/shaper.hpp) is a function of
// those stamps, never of wall clock, which is what keeps a served run
// replayable bit for bit.
//
// One implementation ships today: RingBufferTransport, a bounded in-process
// MPMC queue (the same BoundedQueue that feeds fleet::Server's workers)
// whose blocking send() is the transport-level backpressure (a slow server
// stalls its producers instead of buffering unboundedly). A socket
// transport slots in behind the same three-method interface later.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "fleet/wire.hpp"

namespace uwp::fleet {

// --- ingest frame codec -----------------------------------------------------

inline constexpr std::uint32_t kIngestMagic = 0x49475755u;  // "UWGI" little-endian
inline constexpr std::uint16_t kIngestVersion = 1;

enum class IngestKind : std::uint8_t {
  kMeasurement = 1,  // payload = encode_measurement bytes for one round
  kCoast = 2,        // the device side skipped a jammed round (no payload)
  kBye = 3,          // end of this session's stream; evict after processing
};

// One frame of a session's ingest stream.
struct IngestFrame {
  IngestKind kind = IngestKind::kMeasurement;
  std::uint64_t session_id = 0;
  std::uint32_t round = 0;  // client-side event index within the session
  double t_s = 0.0;         // virtual arrival time (the ingest schedule clock)
  double dt_s = 0.0;        // pipeline dt to the session's previous event
  std::vector<std::uint8_t> payload;  // kMeasurement only

  void clear() {
    kind = IngestKind::kMeasurement;
    session_id = 0;
    round = 0;
    t_s = dt_s = 0.0;
    payload.clear();
  }
};

// Whole-buffer frame codec (one frame per transport message). Decoders
// validate magic/version/kind/length and the clocks (t_s finite and
// nonnegative, dt_s finite), and throw WireError on malformed or trailing
// bytes; like the rest of fleet/wire.*, they never read past the
// buffer and never size an allocation from an unchecked length field.
void encode_ingest_frame(const IngestFrame& f, std::vector<std::uint8_t>& out);
void decode_ingest_frame(std::span<const std::uint8_t> in, IngestFrame& out);

// --- transport --------------------------------------------------------------

// A byte-stream channel between measurement producers and fleet::Server.
// Contract: frames arrive exactly once, in send order (producers sending
// concurrently are serialized at the transport); send() blocks for
// backpressure rather than dropping; after close(), senders fail fast and
// receivers drain what is in flight before seeing end-of-stream.
class Transport {
 public:
  virtual ~Transport() = default;

  // Blocking; false once the stream is closed (the frame is then dropped).
  virtual bool send(std::vector<std::uint8_t> frame) = 0;
  // Blocking; fills `frame` and returns true, or returns false when the
  // stream is closed and fully drained.
  virtual bool recv(std::vector<std::uint8_t>& frame) = 0;
  // End the stream (idempotent). Wakes all blocked senders and receivers.
  virtual void close() = 0;
};

// Bounded blocking FIFO: mutex + two condvars, capacity fixed at
// construction. push() blocks while the queue is full (backpressure, never
// a drop) and fails fast once the queue is closed; pop() drains what is in
// flight before reporting end-of-stream. The occupancy counters are
// wall-clock artifacts for observability only — they are NOT part of any
// determinism contract.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  // Blocking; false once the queue is closed (the item is then dropped).
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!closed_ && items_.size() >= capacity_) {
      ++push_waits_;
      not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    ++pushed_;
    not_empty_.notify_one();
    return true;
  }

  // Blocking; false when the queue is closed and drained.
  bool pop(T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  // Idempotent; wakes every blocked pusher and popper.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  // Instantaneous occupancy.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  // Items accepted by push().
  std::size_t pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
  }
  // Times a pusher found the queue full and had to block.
  std::size_t push_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return push_waits_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t pushed_ = 0;
  std::size_t push_waits_ = 0;
  bool closed_ = false;
};

// The in-process Transport: a BoundedQueue of frames.
class RingBufferTransport final : public Transport {
 public:
  explicit RingBufferTransport(std::size_t capacity) : ring_(capacity) {}

  bool send(std::vector<std::uint8_t> frame) override {
    return ring_.push(std::move(frame));
  }
  bool recv(std::vector<std::uint8_t>& frame) override { return ring_.pop(frame); }
  void close() override { ring_.close(); }

  // Total frames accepted by send().
  std::size_t frames_sent() const { return ring_.pushed(); }
  // Times a sender found the ring full and had to block (backpressure hits).
  std::size_t send_waits() const { return ring_.push_waits(); }

 private:
  BoundedQueue<std::vector<std::uint8_t>> ring_;
};

}  // namespace uwp::fleet
