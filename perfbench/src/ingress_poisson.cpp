// ingress_poisson: open-loop Poisson traffic over the real TCP ingress.
//
// One sender thread writes kInfer frames (encode_infer + write_frame) at
// seeded Poisson due times, round-robin over up to 4 pipelined
// connections; one receiver thread polls the connections and reads the
// answers (read_frame + decode_result). Latency is timed from each
// request's due time, so a stalled sender charges its stall to every
// request it delays. The Ingress runs a fixed pool of 2 worker processes
// (min = max = 2) serving the tiny 6-channel Tree2 model from a
// checkpoint, kernels pinned to `blocked`. Half the requests carry all
// channels, half the subset {0, 2, 5}.
//
// Two phases. Nominal (1,000 req/s) gives the gated CPU figures and the
// latency percentiles: its answer count is fixed by the schedule, so CPU
// per answer does not depend on how much of the run the host stole.
// Overload (4,000 req/s, above the pool's capacity) gives the wall-clock
// goodput and the typed-reject share. Every answer must be bit-identical
// to the in-process serve::Engine answer for the same request template.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common.hpp"
#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "ingress/wire.hpp"
#include "ingress/worker.hpp"
#include "serve/engine.hpp"
#include "train/checkpoint.hpp"

namespace perfbench {

using dchag::tensor::Index;
using dchag::tensor::Tensor;
namespace ingress = dchag::ingress;

namespace {

constexpr Index kChannels = 6;
constexpr Index kImage = 16;
constexpr int kWorkers = 2;
constexpr int kMaxConnections = 4;
constexpr int kTemplates = 16;
constexpr double kNominalRps = 1000.0;
constexpr double kOverloadRps = 4000.0;
constexpr double kWarmupSeconds = 0.5;
/// A request answered later than this (from its due time) misses the
/// goodput count.
constexpr double kLatencyLimitMs = 250.0;
/// A phase whose sender ran later than this at p99 could not offer its
/// rate: it measured the load generator, not the system, and is discarded
/// and re-run. Shorter stalls (this shared host steals 10-40 ms slices)
/// are charged to the requests they delay, which are timed from their due
/// time, not discarded.
constexpr double kMaxLateP99Ms = 50.0;
constexpr int kPhaseAttempts = 3;
constexpr int kSetupReps = 25;
constexpr int kHealthProbes = 200;
constexpr int kEngineProbes = 400;
/// How long answers may trail the last send before they count unanswered.
constexpr double kAnswerGraceMs = 15000.0;

enum Status : int { kPending = 0, kOk, kWrong, kSaturated, kError };

struct Template {
  Tensor image;  ///< [C_sub, H, W]
  std::vector<Index> channels;
  std::vector<float> expected;  ///< in-process batch-1 answer, [S * D]
  Index s = 0, d = 0;
};

/// One scheduled request. The schedule fields are immutable once the
/// phase starts; the sender writes `sent`, the receiver writes `status`
/// and `received` and then publishes through Load::answered.
struct Record {
  double due_offset_ms = 0.0;
  int tmpl = 0;
  Clock::time_point sent{};
  Clock::time_point received{};
  Status status = kPending;
};

struct PhaseStats {
  std::uint64_t sent = 0, ok = 0, wrong = 0, saturated = 0, errors = 0,
                unanswered = 0, good = 0;
  std::vector<double> latency_ms;  ///< correct answers, from due time
  std::vector<double> late_ms;     ///< sender lateness per request
  double duration_s = 0.0;
  double queue_ms = 0.0;    ///< Ingress mean queue wait over the phase
  double service_ms = 0.0;  ///< Ingress mean (total - queued)
  double batch_mean = 0.0;  ///< requests per worker forward
  /// CPU of the serving system (this process's threads other than the
  /// load generator's and the harness's, plus the workers) per correct
  /// answer.
  double cpu_ms_per_answer = 0.0;
  /// Correct answers per CPU-second of the serving system's busiest
  /// thread or worker.
  double capacity_rps = 0.0;
};

/// Removes a file on every exit path.
struct TempFile {
  std::string path;
  ~TempFile() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DCHAG_CHECK(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    DCHAG_FAIL("connect to ingress port " << port << " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// The open-loop load generator: owns the connections and the receiver
/// thread for the lifetime of the load; runs one phase at a time.
class Load {
 public:
  Load(std::uint16_t port, int connections,
       const std::vector<Template>& templates, bool traced)
      : templates_(templates), traced_(traced) {
    for (int i = 0; i < connections; ++i)
      fds_.push_back(connect_loopback(port));
    receiver_ = std::thread([this] { receive_loop(); });
    while (receiver_tid_.load() == 0) std::this_thread::yield();
  }
  ~Load() {
    stop_.store(true);
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    if (receiver_.joinable()) receiver_.join();
    for (int fd : fds_) ::close(fd);
  }
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  /// Sends a seeded Poisson schedule at `rps` for `seconds` and waits for
  /// every answer (or the grace period).
  PhaseStats run_phase(ingress::Ingress& ing, double rps, double seconds,
                       std::uint64_t seed) {
    dchag::tensor::Rng rng(seed);
    std::vector<Record> schedule;
    double t = 0.0;
    for (;;) {
      // Exponential inter-arrival gap, mean 1/rps.
      t += -std::log(1.0 - static_cast<double>(rng.uniform(0.0f, 0.999999f))) *
           1e3 / rps;
      if (t >= seconds * 1e3) break;
      Record rec;
      rec.due_offset_ms = t;
      rec.tmpl = static_cast<int>(rng.uniform_int(0, kTemplates - 1));
      schedule.push_back(rec);
    }
    const auto m0 = ing.metrics();

    // Publish the new phase's records before any of its frames is sent.
    {
      std::lock_guard<std::mutex> lock(mu_);
      base_id_ = next_id_;
      records_ = std::move(schedule);
      next_id_ += records_.size();
    }
    answered_.store(0);
    const ThreadCpu cpu0 = thread_cpu_snapshot();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::thread sender([&] { send_loop(start); });
    sender.join();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               kAnswerGraceMs));
    while (answered_.load(std::memory_order_acquire) < records_.size() &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto m1 = ing.metrics();
    // The sender has exited; the receiver and this harness thread are
    // left out by id.
    const CpuUse cpu = cpu_between(cpu0, thread_cpu_snapshot(),
                                   {receiver_tid_.load(), current_tid()});

    PhaseStats ps;
    ps.duration_s = seconds;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Record& rec : records_) {
      ++ps.sent;
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          rec.due_offset_ms));
      ps.late_ms.push_back(ms_between(due, rec.sent));
      switch (rec.status) {
        case kOk: {
          ++ps.ok;
          const double lat = ms_between(due, rec.received);
          ps.latency_ms.push_back(lat);
          if (lat <= kLatencyLimitMs) ++ps.good;
          break;
        }
        case kWrong: ++ps.wrong; break;
        case kSaturated: ++ps.saturated; break;
        case kError: ++ps.errors; break;
        case kPending: ++ps.unanswered; break;
      }
    }
    if (ps.ok > 0 && cpu.busiest_s > 0.0) {
      ps.cpu_ms_per_answer = cpu.total_s * 1e3 / static_cast<double>(ps.ok);
      ps.capacity_rps = static_cast<double>(ps.ok) / cpu.busiest_s;
    }
    // Ingress-side stage means over this phase (metrics are cumulative).
    const double dr = static_cast<double>(m1.requests - m0.requests);
    const double db = static_cast<double>(m1.batches - m0.batches);
    if (dr > 0) {
      ps.queue_ms = (m1.mean_queue_ms * static_cast<double>(m1.requests) -
                     m0.mean_queue_ms * static_cast<double>(m0.requests)) /
                    dr;
    }
    if (db > 0) {
      ps.service_ms =
          (m1.mean_forward_ms * static_cast<double>(m1.batches) -
           m0.mean_forward_ms * static_cast<double>(m0.batches)) /
          db;
      ps.batch_mean =
          (m1.mean_batch_size * static_cast<double>(m1.batches) -
           m0.mean_batch_size * static_cast<double>(m0.batches)) /
          db;
    }
    return ps;
  }

  [[nodiscard]] std::uint64_t stray_errors() const { return stray_.load(); }
  [[nodiscard]] const std::vector<double>& encode_us() const {
    return encode_us_;
  }
  [[nodiscard]] std::vector<double> decode_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return decode_us_;
  }

 private:
  void send_loop(Clock::time_point start) {
    const std::size_t n = records_.size();
    for (std::size_t i = 0; i < n; ++i) {
      Record& rec = records_[i];
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          rec.due_offset_ms));
      std::this_thread::sleep_until(due);
      rec.sent = Clock::now();
      const Template& t = templates_[static_cast<std::size_t>(rec.tmpl)];
      ingress::InferRequest req;
      req.id = base_id_ + i;
      req.channels = t.channels;
      req.images = t.image;
      std::vector<std::uint8_t> payload;
      if (traced_) {
        const auto t0 = Clock::now();
        payload = ingress::encode_infer(req);
        encode_us_.push_back(ms_since(t0) * 1e3);
      } else {
        payload = ingress::encode_infer(req);
      }
      if (!ingress::write_frame(fds_[i % fds_.size()],
                                ingress::MsgType::kInfer, payload))
        break;  // connection lost: the rest stays unanswered
    }
  }

  void record(std::uint64_t id, Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < base_id_ || id >= base_id_ + records_.size()) {
      ++stray_;
      return;
    }
    Record& rec = records_[id - base_id_];
    if (rec.status != kPending) {
      ++stray_;  // a second answer to one request
      return;
    }
    rec.status = status;
    rec.received = Clock::now();
    answered_.fetch_add(1, std::memory_order_release);
  }

  void receive_loop() {
    receiver_tid_.store(current_tid());
    std::vector<pollfd> pfds;
    for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
    while (!stop_.load()) {
      if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      for (pollfd& p : pfds) {
        if (p.fd < 0 || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
          continue;
        std::optional<ingress::Frame> frame;
        try {
          frame = ingress::read_frame(p.fd);
        } catch (const std::exception&) {
          frame.reset();
        }
        if (!frame) {
          p.fd = -1;  // closed; outstanding requests stay unanswered
          if (!stop_.load()) ++stray_;
          continue;
        }
        if (frame->type == ingress::MsgType::kResult) {
          const auto t0 = Clock::now();
          const ingress::InferResult res = ingress::decode_result(
              frame->payload.data(), frame->payload.size());
          const double us = traced_ ? ms_since(t0) * 1e3 : 0.0;
          Status st = kWrong;
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (traced_) decode_us_.push_back(us);
            if (res.id >= base_id_ && res.id < base_id_ + records_.size()) {
              const Template& t = templates_[static_cast<std::size_t>(
                  records_[res.id - base_id_].tmpl)];
              if (res.pred.dim(0) == t.s && res.pred.dim(1) == t.d &&
                  std::memcmp(res.pred.data(), t.expected.data(),
                              t.expected.size() * sizeof(float)) == 0)
                st = kOk;
            }
          }
          record(res.id, st);
        } else if (frame->type == ingress::MsgType::kError) {
          const ingress::WireError err = ingress::decode_error(
              frame->payload.data(), frame->payload.size());
          record(err.id, err.code == ingress::ErrorCode::kSaturated
                             ? kSaturated
                             : kError);
        } else {
          ++stray_;
        }
      }
    }
  }

  const std::vector<Template>& templates_;
  const bool traced_;
  std::vector<int> fds_;
  std::thread receiver_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;  ///< guards records_, base_id_, decode_us_
  std::vector<Record> records_;
  std::uint64_t base_id_ = 1;
  std::uint64_t next_id_ = 1;
  std::atomic<std::size_t> answered_{0};
  std::atomic<std::uint64_t> stray_{0};
  std::atomic<long> receiver_tid_{0};
  std::vector<double> encode_us_;  ///< sender thread only
  std::vector<double> decode_us_;
};

std::uint64_t failures(const PhaseStats& p) {
  return p.wrong + p.errors + p.unanswered;
}

struct LoadResult {
  PhaseStats nominal;
  PhaseStats overload;
  std::vector<double> late_ms;  ///< both measured phases
  std::vector<double> encode_us, decode_us;
  /// Requests outside the two measured phases: warm-up, discarded phase
  /// attempts, stray frames, and an earlier pass of the same run. Their
  /// answers are checked like any other.
  std::uint64_t extra_sent = 0;
  std::uint64_t extra_failed = 0;
  std::uint64_t invalid_attempts = 0;
  std::string invalid;
};

/// Runs warm-up, nominal and overload phases on a live Ingress. A phase
/// whose sender fell behind is discarded and re-run.
LoadResult run_load(ingress::Ingress& ing, const std::vector<Template>& tmpl,
                    const Options& opt, int connections, bool traced) {
  LoadResult lr;
  Load load(ing.port(), connections, tmpl, traced);
  auto count_extra = [&lr](const PhaseStats& ps) {
    lr.extra_sent += ps.sent;
    lr.extra_failed += failures(ps);
  };
  count_extra(
      load.run_phase(ing, kNominalRps, kWarmupSeconds, opt.seed ^ 0x3A));
  auto measured = [&](double rps, std::uint64_t salt) {
    for (int attempt = 0; attempt < kPhaseAttempts; ++attempt) {
      PhaseStats ps = load.run_phase(ing, rps, opt.seconds / 2.0,
                                     opt.seed * 1315423911ULL + salt);
      const double late = percentile(ps.late_ms, 0.99);
      if (late <= kMaxLateP99Ms) return ps;
      count_extra(ps);
      ++lr.invalid_attempts;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "sender p99 lateness %.2f ms > %.1f ms at %.0f req/s in "
                    "%d attempts",
                    late, kMaxLateP99Ms, rps, kPhaseAttempts);
      lr.invalid = buf;
    }
    return PhaseStats{};
  };
  lr.nominal = measured(kNominalRps, 1);
  if (lr.nominal.sent == 0) return lr;
  lr.overload = measured(kOverloadRps, 2);
  if (lr.overload.sent == 0) return lr;
  lr.invalid.clear();
  lr.late_ms = lr.nominal.late_ms;
  lr.late_ms.insert(lr.late_ms.end(), lr.overload.late_ms.begin(),
                    lr.overload.late_ms.end());
  lr.encode_us = load.encode_us();
  lr.decode_us = load.decode_us();
  lr.extra_failed += load.stray_errors();
  return lr;
}

}  // namespace

Result run_ingress_poisson(const Options& opt) {
  const auto ctx = pinned_context(dchag::runtime::KernelBackend::kBlocked);
  Result r;
  const int children0 = count_children();
  const int shm0 = count_own_shm_segments();

  ingress::ModelSpec spec;
  spec.preset = "tiny";
  spec.channels = kChannels;
  spec.units = 2;
  auto model = ingress::build_model(spec, opt.seed * 2654435761ULL + 5);
  TempFile ckpt{opt.tmpdir + "/perfbench_ingress_" +
                std::to_string(::getpid()) + ".ckpt"};
  dchag::train::save_module(ckpt.path, *model);
  const dchag::serve::Engine engine(*model, ctx);

  // Request templates and their in-process answers (the bit-exact oracle).
  dchag::tensor::Rng data(opt.seed * 40503 + 7);
  std::vector<Template> templates;
  for (int i = 0; i < kTemplates; ++i) {
    Template t;
    if (i % 2 == 1) t.channels = {0, 2, 5};
    const Index c =
        t.channels.empty() ? kChannels : static_cast<Index>(t.channels.size());
    t.image = data.normal_tensor({c, kImage, kImage});
    const Tensor out =
        engine.run(t.image.reshape({1, c, kImage, kImage}), t.channels, 1.0f);
    t.s = out.dim(1);
    t.d = out.dim(2);
    t.expected.assign(out.data(), out.data() + out.numel());
    templates.push_back(std::move(t));
  }

  ingress::IngressConfig icfg;
  icfg.min_workers = kWorkers;
  icfg.max_workers = kWorkers;
  icfg.checkpoint = ckpt.path;
  icfg.model = spec;
  icfg.worker_exe = PERFBENCH_WORKER_EXE;

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int connections =
      std::min(kMaxConnections, static_cast<int>(nproc));

  // Set-up: worker spawn + checkpoint load to the first correct answer,
  // repeated; the last Ingress serves the load. Each set-up is charged the
  // CPU of this process and of the new workers, and timed on the wall.
  std::vector<double> setup_s, setup_wall_s;
  std::unique_ptr<ingress::Ingress> ing;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ing.reset();
    const auto t0 = Clock::now();
    const ThreadCpu cpu0 = thread_cpu_snapshot();
    ing = std::make_unique<ingress::Ingress>(icfg, ctx);
    ingress::Client client(ing->port());
    const Tensor pred = client.infer(templates[0].image);
    setup_s.push_back(
        cpu_between(cpu0, thread_cpu_snapshot(), {}).total_s);
    setup_wall_s.push_back(ms_since(t0) / 1e3);
    if (pred.numel() != static_cast<Index>(templates[0].expected.size()) ||
        std::memcmp(pred.data(), templates[0].expected.data(),
                    templates[0].expected.size() * sizeof(float)) != 0) {
      r.correct = false;
      r.findings.push_back("set-up answer " + std::to_string(rep) +
                           " differs from the in-process engine");
    }
  }

  LoadResult lr = run_load(*ing, templates, opt, connections, false);
  double untraced_cpu_ms = 0.0;
  if (opt.trace && lr.invalid.empty()) {
    untraced_cpu_ms = lr.nominal.cpu_ms_per_answer;
    const LoadResult untraced = lr;
    lr = run_load(*ing, templates, opt, connections, true);
    lr.invalid_attempts += untraced.invalid_attempts;
    lr.extra_sent += untraced.nominal.sent + untraced.overload.sent +
                     untraced.extra_sent;
    lr.extra_failed += failures(untraced.nominal) +
                       failures(untraced.overload) + untraced.extra_failed;
  }

  double health_us = 0.0;
  if (opt.trace && lr.invalid.empty()) {
    ingress::Client client(ing->port());
    std::vector<double> rtt;
    for (int i = 0; i < kHealthProbes; ++i) {
      const auto t0 = Clock::now();
      const bool ok = client.healthz();
      rtt.push_back(ms_since(t0) * 1e3);
      if (!ok) r.findings.push_back("healthz answered not-ok");
    }
    health_us = median(rtt);
  }
  const auto counters = ing->counters();
  ing.reset();  // drain: reaps the workers and unlinks their rings

  // Resource hygiene: the run must leave no child process and no ring.
  const int children1 = count_children();
  const int shm1 = count_own_shm_segments();
  if (children1 != children0 || shm1 != shm0) {
    r.correct = false;
    r.findings.push_back("resource leak: child processes " +
                         std::to_string(children0) + " -> " +
                         std::to_string(children1) + ", shm segments " +
                         std::to_string(shm0) + " -> " +
                         std::to_string(shm1));
  }
  if (!lr.invalid.empty()) {
    r.invalid = lr.invalid;
    return r;
  }

  const PhaseStats& nom = lr.nominal;
  const PhaseStats& ovl = lr.overload;
  r.attempted = nom.sent + ovl.sent + lr.extra_sent;
  r.failed = failures(nom) + failures(ovl) + lr.extra_failed;
  if (r.failed > 0) {
    r.correct = false;
    r.findings.push_back(std::to_string(r.failed) +
                         " requests failed, went unanswered or differed "
                         "from the in-process engine");
  }
  const double nominal_p50 = percentile(nom.latency_ms, 0.5);
  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"cpu_ms_per_answer", nom.cpu_ms_per_answer, "ms"},
      {"capacity_rps", nom.capacity_rps, "1/s"},
      {"peak_rss_mb", peak_rss_mb_self() + peak_rss_mb_children(), "MB"},
  };
  r.info = {
      {"latency_p50_ms", nominal_p50, "ms"},
      {"latency_p99_ms", percentile(nom.latency_ms, 0.99), "ms"},
      {"goodput_rps", static_cast<double>(ovl.good) / ovl.duration_s,
       "1/s"},
      {"setup_wall_s", median(setup_wall_s), "s"},
      {"cpu_ms_per_answer.overload", ovl.cpu_ms_per_answer, "ms"},
      {"capacity_rps.overload", ovl.capacity_rps, "1/s"},
      {"peak_rss_self_mb", peak_rss_mb_self(), "MB"},
      {"peak_rss_worker_mb", peak_rss_mb_children(), "MB"},
      {"latency_samples", static_cast<double>(nom.latency_ms.size()),
       "count"},
      {"latency_limit_ms", kLatencyLimitMs, "ms"},
      {"overload_sent", static_cast<double>(ovl.sent), "count"},
      {"overload_answered", static_cast<double>(ovl.ok), "count"},
      {"failed_share",
       r.attempted ? static_cast<double>(r.failed) /
                         static_cast<double>(r.attempted)
                   : 0.0,
       "share"},
      {"invalid_phase_attempts", static_cast<double>(lr.invalid_attempts),
       "count"},
      {"connections", static_cast<double>(connections), "count"},
      {"setup_reps", static_cast<double>(setup_s.size()), "count"},
  };

  if (opt.trace) {
    std::vector<double> b1;
    for (int i = 0; i < kEngineProbes; ++i) {
      const Template& t = templates[static_cast<std::size_t>(i % kTemplates)];
      const auto& s = t.image.shape();
      const Tensor img = t.image.reshape({1, s.dim(0), s.dim(1), s.dim(2)});
      const auto t0 = Clock::now();
      const Tensor out = engine.run(img, t.channels, 1.0f);
      b1.push_back(ms_since(t0));
      (void)out;
    }
    const double engine_b1 = median(b1);
    r.per_layer = {
        {"ingress.overhead_p50_ms", nominal_p50 - engine_b1, "ms"},
        {"ingress.health_rtt_us", health_us, "us"},
        {"ingress.queue_wait_ms.nominal", nom.queue_ms, "ms"},
        {"ingress.queue_wait_ms.overload", ovl.queue_ms, "ms"},
        {"ingress.service_ms", nom.service_ms, "ms"},
        {"ingress.worker_batch_mean", ovl.batch_mean, "count"},
        {"ingress.reject_share",
         ovl.sent ? static_cast<double>(ovl.saturated) /
                        static_cast<double>(ovl.sent)
                  : 0.0,
         "share"},
        {"ingress.retries",
         static_cast<double>(counters.redispatches +
                             counters.worker_restarts),
         "count"},
        {"ingress.wire_encode_us", median(lr.encode_us), "us"},
        {"ingress.wire_decode_us", median(lr.decode_us), "us"},
        {"serve.engine_b1_ms", engine_b1, "ms"},
        {"bench.gen_late_p99_ms", percentile(lr.late_ms, 0.99), "ms"},
        {"bench.trace_overhead_share",
         untraced_cpu_ms > 0 ? nom.cpu_ms_per_answer / untraced_cpu_ms - 1.0
                             : 0.0,
         "share"},
    };
    r.not_applicable = {"serve.queue_wait_ms", "serve.forward_ms",
                        "serve.batch_", "spmd.", "model.", "comm.",
                        "tensor.", "train."};
  }
  return r;
}

}  // namespace perfbench
