#include "ingress/dispatcher.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "tensor/check.hpp"

extern char** environ;

namespace dchag::ingress {

namespace {

using Event = serve::Metrics::Event;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / worker spawning
// ---------------------------------------------------------------------------

std::string Ingress::resolve_worker_exe() const {
  std::vector<std::string> candidates;
  if (!cfg_.worker_exe.empty()) candidates.push_back(cfg_.worker_exe);
  if (const char* env = std::getenv(kEnvWorkerExe);
      env != nullptr && env[0] != '\0')
    candidates.emplace_back(env);
  // Build-tree layout: tests live in build/tests/, examples in
  // build/examples/, benches in build/bench/ — the worker binary is a
  // sibling tree away at build/src/ingress/.
  if (const std::string dir = exe_dir(); !dir.empty()) {
    candidates.push_back(dir + "/dchag_ingress_worker");
    candidates.push_back(dir + "/../src/ingress/dchag_ingress_worker");
    candidates.push_back(dir + "/../../src/ingress/dchag_ingress_worker");
  }
  for (const std::string& c : candidates) {
    if (::access(c.c_str(), X_OK) == 0) return c;
  }
  DCHAG_FAIL(
      "cannot locate the dchag_ingress_worker binary; set "
      "IngressConfig::worker_exe or $DCHAG_ING_WORKER");
}

std::unique_ptr<Ingress::Worker> Ingress::spawn_worker() {
  auto w = std::make_unique<Worker>();
  w->spawn_seq = next_spawn_seq_++;
  const std::string ring_name = make_ring_name();
  w->ring = std::make_unique<ShmRing>(ShmRing::create(ring_name, cfg_.ring));
  w->last_beat_seen = std::chrono::steady_clock::now();

  // Child environment: the parent's, minus every context/ingress variable
  // we are about to restate, plus the dispatcher's effective context
  // re-exported through Context::to_env() — the cross-process context
  // hand-off — and the worker-protocol variables.
  std::vector<std::string> env_store;
  for (char** it = environ; it != nullptr && *it != nullptr; ++it) {
    const std::string entry(*it);
    const auto is = [&entry](const char* name) {
      const std::size_t n = std::strlen(name);
      return entry.compare(0, n, name) == 0 && entry.size() > n &&
             entry[n] == '=';
    };
    if (is("DCHAG_KERNEL") || is("DCHAG_THREADS") || is("DCHAG_COMM") ||
        is("DCHAG_COMM_CHUNKS") || is(kEnvCheckpoint) || is(kEnvModelSpec) ||
        is(kEnvCrashAt))
      continue;
    env_store.push_back(entry);
  }
  for (const runtime::Context::EnvEntry& e : ctx_.to_env())
    env_store.push_back(e.name + "=" + e.value);
  env_store.push_back(std::string(kEnvCheckpoint) + "=" + cfg_.checkpoint);
  env_store.push_back(std::string(kEnvModelSpec) + "=" +
                      cfg_.model.serialize());
  for (const CrashSpec& c : cfg_.crash_plan) {
    if (c.spawn_seq == w->spawn_seq) {
      env_store.push_back(std::string(kEnvCrashAt) + "=" +
                          std::to_string(c.after_requests));
      break;
    }
  }

  std::vector<char*> envp;
  envp.reserve(env_store.size() + 1);
  for (std::string& s : env_store) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::string exe = worker_exe_;
  std::string arg_ring = ring_name;
  char* argv[] = {exe.data(), arg_ring.data(), nullptr};

  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv, envp.data());
  if (rc != 0) {
    w->ring->unlink();
    DCHAG_FAIL("posix_spawn(" << exe << ") failed: " << std::strerror(rc));
  }
  w->pid = pid;
  return w;
}

Ingress::Ingress(IngressConfig cfg, const runtime::Context& ctx)
    : cfg_(std::move(cfg)), ctx_(ctx.effective()) {
  DCHAG_CHECK(cfg_.min_workers >= 1 && cfg_.max_workers >= cfg_.min_workers,
              "Ingress needs 1 <= min_workers <= max_workers");
  DCHAG_CHECK(cfg_.queue_capacity >= 1, "Ingress needs queue_capacity >= 1");
  worker_exe_ = resolve_worker_exe();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DCHAG_CHECK(listen_fd_ >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    DCHAG_FAIL("bind(127.0.0.1:" << cfg_.port
                                 << ") failed: " << std::strerror(err));
  }
  DCHAG_CHECK(::listen(listen_fd_, 128) == 0,
              "listen() failed: " << std::strerror(errno));
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < cfg_.min_workers; ++i)
      workers_.push_back(spawn_worker());
    last_busy_ = std::chrono::steady_clock::now();
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  monitor_thread_ = std::thread([this] { monitor_loop(); });
}

Ingress::~Ingress() { drain(); }

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::size_t Ingress::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& w : workers_)
    if (!w->retiring) ++n;
  return n;
}

std::size_t Ingress::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

serve::Metrics::Snapshot Ingress::metrics() const {
  serve::Metrics::Snapshot s = metrics_.summary();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& w : workers_)
    if (!w->retiring) ++s.workers;
  s.queue_depth = queue_.size();
  s.completed = s.requests;
  s.worker_restarts = s.recoveries;
  return s;
}

std::string Ingress::metrics_text() const {
  return metrics().to_exposition();
}

// ---------------------------------------------------------------------------
// Listener + connections
// ---------------------------------------------------------------------------

void Ingress::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by drain()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    metrics_.record(Event::kConnection);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(conn);
    }
    std::lock_guard<std::mutex> lock(conn_threads_mu_);
    conn_threads_.emplace_back(
        [this, conn] { connection_loop(std::move(conn)); });
  }
}

void Ingress::send_error(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                         ErrorCode code, const std::string& message) {
  const std::vector<std::uint8_t> payload =
      encode_error(WireError{id, code, message});
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->fd >= 0) write_frame(conn->fd, MsgType::kError, payload);
}

void Ingress::handle_infer(const std::shared_ptr<Conn>& conn,
                           const Frame& frame) {
  InferRequest req;
  try {
    req = decode_infer(frame.payload.data(), frame.payload.size());
  } catch (const IngressError& e) {
    metrics_.record(Event::kRejectedBad);
    send_error(conn, 0, e.code(), e.what());
    return;
  }
  if (static_cast<std::uint64_t>(req.images.numel()) >
      cfg_.ring.max_payload_floats) {
    metrics_.record(Event::kRejectedBad);
    send_error(conn, req.id, ErrorCode::kBadRequest,
               "sample exceeds the ring payload budget");
    return;
  }

  Job job;
  job.client_id = req.id;
  job.conn = conn;
  job.hdr.lead_time = req.lead_time;
  job.hdr.n_channels = static_cast<std::uint32_t>(req.channels.size());
  for (std::size_t i = 0; i < req.channels.size(); ++i)
    job.hdr.channels[i] = req.channels[i];
  job.hdr.c = req.images.dim(0);
  job.hdr.h = req.images.dim(1);
  job.hdr.w = req.images.dim(2);
  job.payload.assign(req.images.data(),
                     req.images.data() + req.images.numel());
  job.accepted = std::chrono::steady_clock::now();

  // Admission control: typed rejects, never silent drops and never an
  // unbounded queue. Once a request is admitted here it WILL be answered
  // (redispatch survives worker crashes; drain finishes the queue).
  ErrorCode reject;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      metrics_.record(Event::kRejectedDraining);
      reject = ErrorCode::kShuttingDown;
    } else if (queue_.size() >= cfg_.queue_capacity) {
      metrics_.record(Event::kRejectedSaturated);
      reject = ErrorCode::kSaturated;
    } else {
      job.ingress_id = next_ingress_id_++;
      job.hdr.id = job.ingress_id;
      queue_.push_back(std::move(job));
      metrics_.record(Event::kAccepted);
      metrics_.observe_queue_depth(queue_.size());
      metrics_.mark_window(now_ms());
      work_cv_.notify_all();
      return;
    }
  }
  send_error(conn, req.id, reject,
             reject == ErrorCode::kShuttingDown
                 ? "ingress is draining"
                 : "admission queue is full, retry later");
}

void Ingress::connection_loop(std::shared_ptr<Conn> conn) {
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(conn->fd);
    } catch (const IngressError& e) {
      // Framing violations desynchronize the stream; answer and hang up.
      metrics_.record(Event::kRejectedBad);
      send_error(conn, 0, e.code(), e.what());
      break;
    }
    if (!frame) break;  // EOF
    switch (frame->type) {
      case MsgType::kInfer:
        handle_infer(conn, *frame);
        break;
      case MsgType::kMetricsQuery: {
        const std::string text = metrics_text();
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (conn->fd >= 0)
          write_frame(conn->fd, MsgType::kMetricsText,
                      reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size());
        break;
      }
      case MsgType::kHealthQuery: {
        bool draining = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          draining = draining_;
        }
        // A draining ingress is not healthy: the typed reject lets a
        // client on an open connection see the drain begin.
        if (draining) {
          send_error(conn, 0, ErrorCode::kShuttingDown, "ingress is draining");
          break;
        }
        static constexpr char kOk[] = "ok";
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (conn->fd >= 0)
          write_frame(conn->fd, MsgType::kHealthOk,
                      reinterpret_cast<const std::uint8_t*>(kOk), 2);
        break;
      }
      default:
        metrics_.record(Event::kRejectedBad);
        send_error(conn, 0, ErrorCode::kBadRequest,
                   "unexpected frame type from client");
        break;
    }
  }
  // Leave fd open for in-flight responses of this connection; drain()
  // closes every conn once all accepted work is answered and this
  // thread is joined.
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Ingress::dispatch_loop() {
  struct Done {
    Job job;
    RingResponse hdr;
    std::vector<float> payload;
    std::string error;
  };
  for (;;) {
    std::vector<Done> done;
    bool idle_now = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopped_) return;

      // 1. Collect finished work from every worker's response ring.
      for (auto& w : workers_) {
        RingResponse resp;
        std::vector<float> payload;
        std::string error;
        while (w->ring->try_pop_response(&resp, &payload, &error)) {
          auto it = w->in_flight.find(resp.id);
          if (it == w->in_flight.end()) continue;  // stale after redispatch
          done.push_back(Done{std::move(it->second), resp,
                              std::move(payload), std::move(error)});
          w->in_flight.erase(it);
          payload.clear();
          error.clear();
        }
        // Checked after the responses: one popped above implies ready.
        if (w->replaces_crash_at &&
            w->ring->state() != WorkerState::kStarting) {
          metrics_.record_recovery(ms_between(
              *w->replaces_crash_at, std::chrono::steady_clock::now()));
          w->replaces_crash_at.reset();
        }
      }

      // 2. Round-robin the admission queue onto workers with ring space.
      while (!queue_.empty() && !workers_.empty()) {
        bool placed = false;
        const std::size_t n = workers_.size();
        for (std::size_t probe = 0; probe < n; ++probe) {
          Worker& w = *workers_[(rr_cursor_ + probe) % n];
          if (w.retiring || w.pid < 0) continue;
          if (w.in_flight.size() >= w.ring->slots()) continue;
          Job& job = queue_.front();
          if (!w.ring->try_push_request(job.hdr, job.payload.data(),
                                        job.payload.size()))
            continue;
          job.dispatched = std::chrono::steady_clock::now();
          w.in_flight.emplace(job.ingress_id, std::move(job));
          queue_.pop_front();
          rr_cursor_ = static_cast<int>((rr_cursor_ + probe + 1) % n);
          placed = true;
          break;
        }
        if (!placed) break;  // every worker full — backpressure holds
      }

      undelivered_ += done.size();
      std::size_t inflight = 0;
      for (const auto& w : workers_) inflight += w->in_flight.size();
      idle_now = queue_.empty() && inflight == 0 && undelivered_ == 0;

      if (done.empty()) {
        // Response rings have no doorbell (cross-process), so poll:
        // tightly while work is in flight, lazily when idle.
        work_cv_.wait_for(lock, inflight > 0
                                    ? std::chrono::microseconds(100)
                                    : std::chrono::milliseconds(2));
      }
    }
    if (idle_now) drain_cv_.notify_all();

    // 3. Deliver outside the lock: socket writes must not stall dispatch.
    // Account before writing, so a client that has its answer never
    // scrapes metrics that still lack it.
    for (Done& d : done) {
      const auto now = std::chrono::steady_clock::now();
      const double total = ms_between(d.job.accepted, now);
      const double queued = ms_between(d.job.accepted, d.job.dispatched);
      metrics_.record_request(total, queued);
      // The worker timed its own forward: ring transit and poll sleeps
      // are latency, not service.
      metrics_.record_batch(1, d.hdr.forward_ms, d.hdr.forward_allocations);
      metrics_.mark_window(now_ms());
      if (d.hdr.status == 0) {
        InferResult result;
        result.id = d.job.client_id;
        result.pred = Tensor::from_data(
            tensor::Shape{d.hdr.s, d.hdr.d}, std::move(d.payload));
        const std::vector<std::uint8_t> bytes = encode_result(result);
        std::lock_guard<std::mutex> lock(d.job.conn->write_mu);
        if (d.job.conn->fd >= 0)
          write_frame(d.job.conn->fd, MsgType::kResult, bytes);
      } else {
        send_error(d.job.conn, d.job.client_id,
                   static_cast<ErrorCode>(d.hdr.status), d.error);
      }
    }
    if (!done.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      undelivered_ -= done.size();
      if (undelivered_ == 0) drain_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Health, elasticity, failover
// ---------------------------------------------------------------------------

void Ingress::fail_over(std::unique_ptr<Worker> dead) {
  // in_flight is keyed by ingress_id: pushing its jobs to the front
  // newest first leaves them at the head in admission order (their
  // latency budget is already spent).
  const std::size_t orphans = dead->in_flight.size();
  for (auto it = dead->in_flight.rbegin(); it != dead->in_flight.rend(); ++it)
    queue_.push_front(std::move(it->second));
  if (orphans != 0) {
    metrics_.record(Event::kRedispatch, orphans);
    work_cv_.notify_all();
  }
  dead->ring->unlink();
}

void Ingress::monitor_loop() {
  int target = cfg_.min_workers;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopped_) return;
      const auto now = std::chrono::steady_clock::now();

      // Reap exits and detect hangs.
      for (std::size_t i = 0; i < workers_.size();) {
        Worker& w = *workers_[i];
        int status = 0;
        const pid_t rc = ::waitpid(w.pid, &status, WNOHANG);
        bool dead = rc == w.pid;
        if (!dead && w.ring->state() == WorkerState::kReady &&
            !w.in_flight.empty()) {
          const std::uint64_t hb = w.ring->heartbeat();
          if (hb != w.last_heartbeat) {
            w.last_heartbeat = hb;
            w.last_beat_seen = now;
          } else if (now - w.last_beat_seen > cfg_.heartbeat_timeout) {
            // Liveness word stalled with work in flight: hung, not dead.
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, &status, 0);
            dead = true;
          }
        }
        if (dead) {
          std::unique_ptr<Worker> gone = std::move(workers_[i]);
          workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(i));
          // The recovery clock runs from this detection until a
          // replacement's ring reads ready (dispatch_loop books it); a
          // replacement that dies first hands its clock to the next one.
          if (!gone->retiring)
            unreplaced_crashes_.push_back(
                gone->replaces_crash_at.value_or(now));
          fail_over(std::move(gone));
        } else {
          ++i;
        }
      }

      // Elastic pool sizing from queue pressure.
      std::size_t inflight = 0;
      for (const auto& w : workers_) inflight += w->in_flight.size();
      const bool busy = !queue_.empty() || inflight > 0;
      if (busy) last_busy_ = now;
      if (!draining_) {
        if (queue_.size() >= cfg_.scale_up_depth &&
            target < cfg_.max_workers) {
          ++target;
          metrics_.record(Event::kScaleUp);
        } else if (!busy && target > cfg_.min_workers &&
                   now - last_busy_ > cfg_.scale_down_idle) {
          --target;
          metrics_.record(Event::kScaleDown);
          // Retire the newest non-retiring worker via its control word;
          // it exits cleanly and the reap above forgets it.
          for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
            if (!(*it)->retiring) {
              (*it)->retiring = true;
              (*it)->ring->set_control(ControlWord::kDrainStop);
              break;
            }
          }
          last_busy_ = now;  // rate-limit consecutive retirements
        }
      }

      // Heal the pool back to target (also mid-drain: accepted work must
      // still finish even when its worker died during shutdown).
      std::size_t live = 0;
      for (const auto& w : workers_)
        if (!w->retiring) ++live;
      const bool need_workers = !draining_ || busy;
      while (need_workers && live < static_cast<std::size_t>(target)) {
        workers_.push_back(spawn_worker());
        if (!unreplaced_crashes_.empty()) {
          workers_.back()->replaces_crash_at = unreplaced_crashes_.front();
          unreplaced_crashes_.pop_front();
        }
        ++live;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

void Ingress::drain() {
  // Stop accepting connections first, so once /healthz reports the drain
  // a new connect is already refused; in-flight and queued work keeps
  // going. shutdown() wakes accept_loop; the fd is closed only once that
  // thread is joined, so it never sees the number reused.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Every ACCEPTED request must be answered before teardown.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] {
      std::size_t inflight = 0;
      for (const auto& w : workers_) inflight += w->in_flight.size();
      if (queue_.empty() && inflight == 0 && undelivered_ == 0) return true;
      work_cv_.notify_all();
      return false;
    });
    stopped_ = true;
    work_cv_.notify_all();
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();

  // Stop workers through their control word; escalate only if one
  // ignores it past a generous deadline.
  std::vector<std::unique_ptr<Worker>> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) w->ring->set_control(ControlWord::kDrainStop);
  for (auto& w : workers) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    for (;;) {
      const pid_t rc = ::waitpid(w->pid, &status, WNOHANG);
      if (rc == w->pid || rc < 0) break;
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(w->pid, SIGKILL);
        ::waitpid(w->pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    w->ring->unlink();
  }

  // Hang up on every client: shutdown() unblocks the connection threads
  // from recv, and each fd is closed only after they are joined, so no
  // thread can read or write a recycled fd number.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns)
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  std::vector<std::thread> conn_threads;
  {
    std::lock_guard<std::mutex> lock(conn_threads_mu_);
    conn_threads.swap(conn_threads_);
  }
  for (std::thread& t : conn_threads) t.join();
  for (auto& c : conns) {
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
  metrics_.mark_window(now_ms());
}

}  // namespace dchag::ingress
