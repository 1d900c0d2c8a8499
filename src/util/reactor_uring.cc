// io_uring reactor backend — raw syscalls, no liburing.
//
// Each loop thread owns one ring. The listener carries a multishot
// accept SQE (one submission serves every future connection); each
// connection carries a multishot recv with IOSQE_BUFFER_SELECT against
// a registered provided-buffer ring, so the kernel picks a buffer per
// datagram-sized chunk and hands it back in the CQE — the handler sees
// a string_view straight into ring memory and the buffer is recycled
// by a tail advance in shared memory, no syscall. Outbound data takes
// an inline nonblocking send first and falls back to an async SEND SQE
// for the remainder. One io_uring_enter per loop iteration (EXT_ARG
// timeout = the tick) submits every SQE queued during CQE processing,
// which is what gets the syscall count per record batch to ~0.
//
// Compiled out (factory falls back to epoll) when <linux/io_uring.h>
// lacks the multishot/pbuf-ring API; runtime availability is probed
// separately by uring_supported().
#include "util/reactor_internal.h"

#if defined(__linux__)
#include <linux/io_uring.h>
#include <sys/syscall.h>
#endif

// IORING_REGISTER_PBUF_RING is an enum constant (not testable with
// #ifdef); IORING_RECV_MULTISHOT is a macro from the same kernel
// release (5.19), so its presence implies the pbuf-ring API too.
#if defined(__linux__) && defined(IORING_RECV_MULTISHOT) && \
    defined(IORING_ACCEPT_MULTISHOT) && defined(IORING_ENTER_EXT_ARG)
#define ADSCOPE_HAVE_URING_BACKEND 1
#else
#define ADSCOPE_HAVE_URING_BACKEND 0
#endif

#if ADSCOPE_HAVE_URING_BACKEND

#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_set>
#include <vector>

namespace adscope::util::detail {
namespace {

int sys_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int sys_uring_enter(int ring_fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags, const void* arg, std::size_t arg_size) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, arg, arg_size));
}

int sys_uring_register(int ring_fd, unsigned opcode, const void* arg,
                       unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, ring_fd, opcode, arg, nr_args));
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

template <typename Value>
Value* ring_ptr(void* base, std::uint32_t offset) {
  return reinterpret_cast<Value*>(static_cast<char*>(base) + offset);
}

/// user_data encoding: connection pointer (8-aligned ⇒ low bits free)
/// OR'd with an op tag. Null pointer + tag means a loop-level op.
constexpr std::uintptr_t kTagRecv = 0x1;    // also: accept when ptr null
constexpr std::uintptr_t kTagSend = 0x2;    // also: wake when ptr null
constexpr std::uintptr_t kTagMask = 0x7;

class UringReactor final : public Reactor {
 public:
  explicit UringReactor(Options options)
      : options_(options), loop_count_(effective_loops(options)) {}

  ~UringReactor() override { stop(); }

  void serve(ListenSocket& listener, HandlerFactory factory) override {
    listener_ = &listener;
    factory_ = std::move(factory);
    set_nonblocking(listener.fd());
  }

  void set_tick(std::function<void()> tick) override {
    tick_ = std::move(tick);
  }

  void start() override {
    if (listener_ == nullptr) {
      throw std::logic_error("Reactor::start before serve()");
    }
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true)) return;
    stopping_.store(false);
    loops_.clear();
    for (int i = 0; i < loop_count_; ++i) {
      loops_.push_back(std::make_unique<Loop>(*this, i));
    }
    for (auto& loop : loops_) loop->thread = std::thread([&l = *loop] {
      l.run();
    });
  }

  void stop() override {
    if (!running_.load()) return;
    stopping_.store(true);
    for (auto& loop : loops_) loop->wake();
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    loops_.clear();
    running_.store(false);
  }

  NetBackend backend() const noexcept override { return NetBackend::kUring; }

  std::uint64_t connections_accepted() const noexcept override {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Loop;

  class UringConn final : public Conn {
   public:
    UringConn(Loop& loop, int fd) : loop_(loop), sock_(fd) {}

    int fd() const noexcept override { return sock_.get(); }

    bool send(std::string_view data) override;

    void shutdown() noexcept override { closing_ = true; }
    bool closing() const noexcept override { return closing_ || dead_; }

   private:
    friend struct Loop;

    Loop& loop_;
    Fd sock_;
    std::unique_ptr<Handler> handler_;
    // Two-string send machine: `sending_` is pinned while its SEND SQE
    // is in flight (the kernel reads it asynchronously); new data lands
    // in `queued_` and the two swap on completion.
    std::string sending_;
    std::size_t send_offset_ = 0;
    std::string queued_;
    bool send_inflight_ = false;
    bool recv_armed_ = false;
    bool closing_ = false;  // graceful: flush sends, then close
    bool dead_ = false;     // hard: tear down once in-flight ops settle
  };

  struct Loop {
    Loop(UringReactor& reactor_ref, int loop_index)
        : reactor(reactor_ref), index(loop_index) {
      wake_fd = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
      if (!wake_fd.valid()) throw_errno("eventfd");
      setup_ring();
      setup_buf_ring();
    }

    ~Loop() {
      for (UringConn* conn : conns) {
        conn->handler_->on_close();
        delete conn;
      }
      conns.clear();
      if (buf_ring_mem != MAP_FAILED && buf_ring_mem != nullptr) {
        ::munmap(buf_ring_mem, buf_ring_bytes);
      }
      if (sqes != MAP_FAILED && sqes != nullptr) {
        ::munmap(sqes, sq_entries * sizeof(io_uring_sqe));
      }
      if (sq_mem != MAP_FAILED && sq_mem != nullptr) {
        ::munmap(sq_mem, sq_bytes);
        if (cq_mem != sq_mem && cq_mem != MAP_FAILED && cq_mem != nullptr) {
          ::munmap(cq_mem, cq_bytes);
        }
      }
    }

    void setup_ring() {
      io_uring_params params{};
      // Multishot recv can burst many CQEs per submitted SQE; oversize
      // the CQ so bursts don't overflow into dropped completions.
      params.flags = IORING_SETUP_CQSIZE;
      params.cq_entries =
          static_cast<std::uint32_t>(reactor.options_.uring_entries * 4);
      ring_fd = Fd(sys_uring_setup(
          static_cast<unsigned>(reactor.options_.uring_entries), &params));
      if (!ring_fd.valid()) throw_errno("io_uring_setup");

      sq_entries = params.sq_entries;
      cq_entries = params.cq_entries;
      sq_bytes = params.sq_off.array + params.sq_entries * sizeof(std::uint32_t);
      cq_bytes = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
      const bool single_mmap =
          (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
      if (single_mmap) sq_bytes = cq_bytes = std::max(sq_bytes, cq_bytes);

      sq_mem = ::mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd.get(),
                      IORING_OFF_SQ_RING);
      if (sq_mem == MAP_FAILED) throw_errno("mmap(SQ ring)");
      cq_mem = single_mmap
                   ? sq_mem
                   : ::mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ring_fd.get(),
                            IORING_OFF_CQ_RING);
      if (cq_mem == MAP_FAILED) throw_errno("mmap(CQ ring)");
      sqes = static_cast<io_uring_sqe*>(
          ::mmap(nullptr, params.sq_entries * sizeof(io_uring_sqe),
                 PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                 ring_fd.get(), IORING_OFF_SQES));
      if (sqes == MAP_FAILED) throw_errno("mmap(SQEs)");

      sq_khead = ring_ptr<std::atomic<std::uint32_t>>(sq_mem,
                                                      params.sq_off.head);
      sq_ktail = ring_ptr<std::atomic<std::uint32_t>>(sq_mem,
                                                      params.sq_off.tail);
      sq_mask = *ring_ptr<std::uint32_t>(sq_mem, params.sq_off.ring_mask);
      sq_array = ring_ptr<std::uint32_t>(sq_mem, params.sq_off.array);
      cq_khead = ring_ptr<std::atomic<std::uint32_t>>(cq_mem,
                                                      params.cq_off.head);
      cq_ktail = ring_ptr<std::atomic<std::uint32_t>>(cq_mem,
                                                      params.cq_off.tail);
      cq_mask = *ring_ptr<std::uint32_t>(cq_mem, params.cq_off.ring_mask);
      cqes = ring_ptr<io_uring_cqe>(cq_mem, params.cq_off.cqes);
      sq_local_tail = sq_ktail->load(std::memory_order_relaxed);
    }

    void setup_buf_ring() {
      buf_count = reactor.options_.uring_buffers;
      // Round the ring up to a power of two (kernel requirement).
      while ((buf_count & (buf_count - 1)) != 0) ++buf_count;
      buf_size = reactor.options_.read_chunk_bytes;
      buf_ring_bytes = buf_count * sizeof(io_uring_buf);
      buf_ring_mem =
          ::mmap(nullptr, buf_ring_bytes, PROT_READ | PROT_WRITE,
                 MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
      if (buf_ring_mem == MAP_FAILED) throw_errno("mmap(buffer ring)");
      // Deliberately NOT io_uring_buf_ring::bufs: its __DECLARE_FLEX_ARRAY
      // expansion contains an empty struct, which C++ gives size 1 (C
      // gives 0), shifting the array 8 bytes off the kernel's layout.
      // The ring is plainly an array of io_uring_buf whose entry 0 resv
      // field doubles as the shared tail.
      static_assert(sizeof(io_uring_buf) == 16 &&
                        offsetof(io_uring_buf, resv) == 14,
                    "io_uring_buf entry layout diverges from the kernel ABI");
      buf_slots = static_cast<io_uring_buf*>(buf_ring_mem);
      buf_tail = reinterpret_cast<std::atomic<std::uint16_t>*>(
          &buf_slots[0].resv);
      slab.resize(buf_count * buf_size);

      io_uring_buf_reg reg{};
      reg.ring_addr = reinterpret_cast<std::uint64_t>(buf_ring_mem);
      reg.ring_entries = static_cast<std::uint32_t>(buf_count);
      reg.bgid = 0;
      if (sys_uring_register(ring_fd.get(), IORING_REGISTER_PBUF_RING, &reg,
                             1) < 0) {
        throw_errno("io_uring_register(PBUF_RING)");
      }
      buf_local_tail = 0;
      for (std::size_t i = 0; i < buf_count; ++i) {
        recycle_buffer(static_cast<std::uint16_t>(i));
      }
      publish_buffers();
    }

    /// Hands buffer `bid` back to the kernel (visible after
    /// publish_buffers advances the shared tail — no syscall).
    void recycle_buffer(std::uint16_t bid) {
      io_uring_buf& slot = buf_slots[buf_local_tail & (buf_count - 1)];
      slot.addr = reinterpret_cast<std::uint64_t>(slab.data() +
                                                  bid * buf_size);
      slot.len = static_cast<std::uint32_t>(buf_size);
      slot.bid = bid;
      ++buf_local_tail;
    }

    void publish_buffers() {
      buf_tail->store(static_cast<std::uint16_t>(buf_local_tail),
                      std::memory_order_release);
    }

    // --- SQE queueing -------------------------------------------------

    io_uring_sqe* get_sqe() {
      const std::uint32_t head = sq_khead->load(std::memory_order_acquire);
      if (sq_local_tail - head == sq_entries) {
        submit(0, 0);  // ring full: flush what's queued, no wait
      }
      io_uring_sqe* sqe = &sqes[sq_local_tail & sq_mask];
      std::memset(sqe, 0, sizeof(*sqe));
      sq_array[sq_local_tail & sq_mask] = sq_local_tail & sq_mask;
      ++sq_local_tail;
      return sqe;
    }

    /// Publishes queued SQEs and enters the kernel once. With
    /// `wait_ms` >= 0 also waits for one completion up to the timeout.
    void submit(unsigned min_complete, int wait_ms) {
      sq_ktail->store(sq_local_tail, std::memory_order_release);
      const std::uint32_t head = sq_khead->load(std::memory_order_acquire);
      const unsigned to_submit = sq_local_tail - head;
      unsigned flags = 0;
      io_uring_getevents_arg arg{};
      __kernel_timespec ts{};
      const void* arg_ptr = nullptr;
      std::size_t arg_size = 0;
      if (min_complete > 0) {
        flags |= IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG;
        ts.tv_sec = wait_ms / 1000;
        ts.tv_nsec = static_cast<long long>(wait_ms % 1000) * 1000000;
        arg.ts = reinterpret_cast<std::uint64_t>(&ts);
        arg_ptr = &arg;
        arg_size = sizeof(arg);
      }
      for (;;) {
        const int ret = sys_uring_enter(ring_fd.get(), to_submit,
                                        min_complete, flags, arg_ptr,
                                        arg_size);
        if (ret >= 0) return;
        if (errno == EINTR) continue;
        if (errno == ETIME) return;  // tick timeout — not an error
        if (errno == EBUSY) return;  // CQ saturated; reap then retry
        throw_errno("io_uring_enter");
      }
    }

    // --- op arming ----------------------------------------------------

    void arm_accept() {
      io_uring_sqe* sqe = get_sqe();
      sqe->opcode = IORING_OP_ACCEPT;
      sqe->fd = reactor.listener_->fd();
      sqe->ioprio = IORING_ACCEPT_MULTISHOT;
      sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
      sqe->user_data = kTagRecv;  // null conn + recv tag = accept
    }

    void arm_wake() {
      io_uring_sqe* sqe = get_sqe();
      sqe->opcode = IORING_OP_READ;
      sqe->fd = wake_fd.get();
      sqe->addr = reinterpret_cast<std::uint64_t>(&wake_value);
      sqe->len = sizeof(wake_value);
      sqe->user_data = kTagSend;  // null conn + send tag = wake
    }

    void arm_recv(UringConn& conn) {
      io_uring_sqe* sqe = get_sqe();
      sqe->opcode = IORING_OP_RECV;
      sqe->fd = conn.fd();
      sqe->ioprio = IORING_RECV_MULTISHOT;
      sqe->flags = IOSQE_BUFFER_SELECT;
      sqe->buf_group = 0;
      sqe->user_data =
          reinterpret_cast<std::uintptr_t>(&conn) | kTagRecv;
      conn.recv_armed_ = true;
    }

    void arm_send(UringConn& conn) {
      io_uring_sqe* sqe = get_sqe();
      sqe->opcode = IORING_OP_SEND;
      sqe->fd = conn.fd();
      sqe->addr = reinterpret_cast<std::uint64_t>(conn.sending_.data() +
                                                  conn.send_offset_);
      sqe->len = static_cast<std::uint32_t>(conn.sending_.size() -
                                            conn.send_offset_);
      sqe->msg_flags = MSG_NOSIGNAL;
      sqe->user_data =
          reinterpret_cast<std::uintptr_t>(&conn) | kTagSend;
      conn.send_inflight_ = true;
    }

    // --- completions --------------------------------------------------

    void run() {
      arm_accept();
      arm_wake();
      const auto tick = std::chrono::milliseconds(reactor.options_.tick_ms);
      auto next_tick = std::chrono::steady_clock::now() + tick;
      try {
        while (!reactor.stopping_.load(std::memory_order_relaxed)) {
          const auto now = std::chrono::steady_clock::now();
          const int wait_ms =
              now >= next_tick
                  ? 0
                  : static_cast<int>(
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(next_tick - now)
                            .count()) +
                        1;
          submit(1, wait_ms);
          reap();
          if (std::chrono::steady_clock::now() >= next_tick) {
            next_tick += tick;
            run_ticks();
          }
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "adscope: io_uring loop %d failed: %s\n",
                     index, error.what());
      }
    }

    void reap() {
      std::uint32_t head = cq_khead->load(std::memory_order_relaxed);
      const std::uint32_t tail = cq_ktail->load(std::memory_order_acquire);
      bool recycled = false;
      while (head != tail) {
        const io_uring_cqe& cqe = cqes[head & cq_mask];
        recycled |= handle_cqe(cqe);
        ++head;
        cq_khead->store(head, std::memory_order_release);
      }
      if (recycled) publish_buffers();
    }

    /// Returns true when a provided buffer was recycled (caller
    /// publishes the new tail once per reap batch).
    bool handle_cqe(const io_uring_cqe& cqe) {
      const auto data = static_cast<std::uintptr_t>(cqe.user_data);
      auto* conn = reinterpret_cast<UringConn*>(data & ~kTagMask);
      const std::uintptr_t tag = data & kTagMask;
      if (conn == nullptr) {
        if (tag == kTagRecv) {
          on_accept(cqe);
        } else if ((cqe.flags & IORING_CQE_F_MORE) == 0 &&
                   !reactor.stopping_.load(std::memory_order_relaxed)) {
          arm_wake();
        }
        return false;
      }
      if (conns.find(conn) == conns.end()) return false;  // late CQE
      const bool recycled =
          tag == kTagRecv ? on_recv(*conn, cqe) : (on_send(*conn, cqe), false);
      maybe_destroy(conn);
      return recycled;
    }

    void on_accept(const io_uring_cqe& cqe) {
      if ((cqe.flags & IORING_CQE_F_MORE) == 0 &&
          !reactor.stopping_.load(std::memory_order_relaxed)) {
        arm_accept();  // multishot terminated (e.g. -ENFILE); re-arm
      }
      if (cqe.res < 0) return;  // transient accept failure
      reactor.accepted_.fetch_add(1, std::memory_order_relaxed);
      Fd sock(cqe.res);
      // The accept CQE bypasses ListenSocket::accept_nb, so apply its
      // TCP socket options here.
      if (reactor.listener_->path().empty()) set_tcp_nodelay(sock.get());
      std::unique_ptr<Handler> handler;
      try {
        handler = reactor.factory_();
      } catch (...) {
        return;
      }
      if (handler == nullptr) return;
      auto* conn = new UringConn(*this, sock.release());
      conn->handler_ = std::move(handler);
      conns.insert(conn);
      if (!guarded([&] {
            conn->handler_->on_open(*conn);
            return true;
          })) {
        conn->dead_ = true;
      }
      if (!conn->dead_ && !conn->closing_) arm_recv(*conn);
      maybe_destroy(conn);
    }

    bool on_recv(UringConn& conn, const io_uring_cqe& cqe) {
      const bool more = (cqe.flags & IORING_CQE_F_MORE) != 0;
      if (!more) conn.recv_armed_ = false;
      bool recycled = false;
      if (cqe.res > 0 && (cqe.flags & IORING_CQE_F_BUFFER) != 0) {
        const auto bid = static_cast<std::uint16_t>(
            cqe.flags >> IORING_CQE_BUFFER_SHIFT);
        const char* buf = slab.data() + bid * buf_size;
        if (!conn.dead_ && !conn.closing_) {
          if (!guarded([&] {
                return conn.handler_->on_data(
                    conn, std::string_view(
                              buf, static_cast<std::size_t>(cqe.res)));
              })) {
            conn.closing_ = true;
          }
        }
        // The view handed to on_data dies here: the buffer goes back
        // on the ring for the kernel to reuse.
        recycle_buffer(bid);
        recycled = true;
      } else if (cqe.res == 0 || (cqe.res < 0 && cqe.res != -ENOBUFS)) {
        conn.dead_ = true;  // EOF or hard error
      }
      // -ENOBUFS (all buffers were in flight) just falls through to the
      // re-arm below; by now this reap batch has recycled buffers.
      if (!more && !conn.dead_ && !conn.closing_) arm_recv(conn);
      return recycled;
    }

    void on_send(UringConn& conn, const io_uring_cqe& cqe) {
      conn.send_inflight_ = false;
      if (cqe.res < 0) {
        if (cqe.res != -EPIPE && cqe.res != -ECONNRESET &&
            cqe.res != -ECANCELED) {
          // Unexpected: drop the connection rather than spin.
        }
        conn.dead_ = true;
        return;
      }
      conn.send_offset_ += static_cast<std::size_t>(cqe.res);
      if (conn.send_offset_ < conn.sending_.size()) {
        arm_send(conn);  // short write: push the remainder
        return;
      }
      conn.sending_.clear();
      conn.send_offset_ = 0;
      if (!conn.queued_.empty()) {
        conn.sending_.swap(conn.queued_);
        arm_send(conn);
      }
    }

    void maybe_destroy(UringConn* conn) {
      const bool flushed = !conn->send_inflight_ && conn->sending_.empty() &&
                           conn->queued_.empty();
      if (!conn->dead_ && !(conn->closing_ && flushed)) return;
      if (conn->recv_armed_ || conn->send_inflight_) {
        // Force in-flight ops to complete; the conn is freed from the
        // CQE that retires the last one.
        if (!conn->dead_) conn->dead_ = true;
        ::shutdown(conn->fd(), SHUT_RDWR);
        return;
      }
      conns.erase(conn);
      conn->handler_->on_close();
      delete conn;
    }

    void run_ticks() {
      if (index == 0 && reactor.tick_) reactor.tick_();
      std::vector<UringConn*> expired;
      for (UringConn* conn : conns) {
        if (conn->dead_ || conn->closing_) continue;
        if (!guarded([&] { return conn->handler_->on_tick(*conn); })) {
          conn->closing_ = true;
          expired.push_back(conn);
        }
      }
      for (UringConn* conn : expired) maybe_destroy(conn);
    }

    void wake() const {
      const std::uint64_t one = 1;
      [[maybe_unused]] const auto n =
          ::write(wake_fd.get(), &one, sizeof(one));
    }

    UringReactor& reactor;
    const int index;
    Fd wake_fd;
    std::uint64_t wake_value = 0;
    Fd ring_fd;

    void* sq_mem = nullptr;
    void* cq_mem = nullptr;
    io_uring_sqe* sqes = nullptr;
    std::size_t sq_bytes = 0;
    std::size_t cq_bytes = 0;
    std::uint32_t sq_entries = 0;
    std::uint32_t cq_entries = 0;
    std::atomic<std::uint32_t>* sq_khead = nullptr;
    std::atomic<std::uint32_t>* sq_ktail = nullptr;
    std::uint32_t sq_mask = 0;
    std::uint32_t* sq_array = nullptr;
    std::uint32_t sq_local_tail = 0;
    std::atomic<std::uint32_t>* cq_khead = nullptr;
    std::atomic<std::uint32_t>* cq_ktail = nullptr;
    std::uint32_t cq_mask = 0;
    io_uring_cqe* cqes = nullptr;

    void* buf_ring_mem = nullptr;
    io_uring_buf* buf_slots = nullptr;
    std::atomic<std::uint16_t>* buf_tail = nullptr;
    std::size_t buf_ring_bytes = 0;
    std::size_t buf_count = 0;
    std::size_t buf_size = 0;
    std::uint32_t buf_local_tail = 0;
    std::vector<char> slab;  // buf_count × buf_size, kernel-visible

    std::unordered_set<UringConn*> conns;  // owned; loop-thread only
    std::thread thread;
  };

  Options options_;
  const int loop_count_;
  ListenSocket* listener_ = nullptr;
  HandlerFactory factory_;
  std::function<void()> tick_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::uint64_t> accepted_{0};
};

bool UringReactor::UringConn::send(std::string_view data) {
  if (closing_ || dead_) return false;
  // Inline fast path: nothing pinned or queued — push what the socket
  // takes synchronously and only SQE the remainder. Skips a full
  // submit/complete round trip for small responses.
  if (!send_inflight_ && sending_.empty() && queued_.empty() &&
      !data.empty()) {
    try {
      const auto step = send_nb(sock_.get(), data);
      if (step.closed) {
        dead_ = true;
        return false;
      }
      data.remove_prefix(step.bytes);
    } catch (const std::system_error&) {
      dead_ = true;
      return false;
    }
  }
  if (data.empty()) return true;
  if (send_inflight_) {
    queued_.append(data);
  } else {
    sending_.append(data);
    loop_.arm_send(*this);
  }
  return true;
}

}  // namespace

std::unique_ptr<Reactor> make_uring_reactor(Reactor::Options options) {
  return std::make_unique<UringReactor>(options);
}

}  // namespace adscope::util::detail

#else  // !ADSCOPE_HAVE_URING_BACKEND

namespace adscope::util::detail {

// Headers predate the multishot/pbuf-ring API: the uring backend can't
// be built, so requests for it get the epoll reactor. (Backend
// selection normally prevents this via uring_supported().)
std::unique_ptr<Reactor> make_uring_reactor(Reactor::Options options) {
  return make_epoll_reactor(options);
}

}  // namespace adscope::util::detail

#endif  // ADSCOPE_HAVE_URING_BACKEND
