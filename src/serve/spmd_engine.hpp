// SPMD D-CHAG serving workers over the in-process comm::World runtime,
// with elastic fault recovery.
//
// The engine owns one long-lived World whose rank threads each construct
// their own rank-local model (via the factory) once, then loop on a shared
// job slot: every rank reads the same batch and runs the tape-free
// predict_subset over the request's channel list (every channel when it
// names none; DchagFrontEnd slices each rank's own channels internally).
// The final aggregation output is replicated across ranks, and the group
// leader publishes the result. Construction cost (tokenizer/tree weights
// per rank) is paid once at cold start, not per batch.
//
// Fault recovery (docs/ARCHITECTURE.md §10): when a FaultPlan structural
// event kills a rank mid-job, every survivor catches comm::RankFailure,
// regroups over the alive set (Communicator::split_survivors), rebinds its
// front-end onto the survivor group with the original channel slots
// preserved, and retries the interrupted job — answers keep flowing,
// served from the surviving channels (degraded but bit-exact for those
// channels). The survivor leader concurrently respawns each dead rank on a
// fresh thread: rebuild via the factory (same master seed), optionally
// reload the rank's checkpoint shard, then rejoin. The first job
// dispatched after heal-ready is stamped, and every participant switches
// to the full-width group at that same job, restoring full-channel
// serving bit-exact with a never-failed world.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "runtime/context.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"

namespace dchag::core {
class DchagFrontEnd;
}  // namespace dchag::core

namespace dchag::serve {

/// Structural knobs for the engine's internal World. Execution policy —
/// comm mode, kernel backend, and the fault plan installed on the World
/// — lives in the runtime::Context the engine is constructed with; rank
/// threads scope into that context, so the factory's front-ends inherit
/// it unless the factory pins its own.
struct SpmdEngineConfig {
  /// When non-empty, every rank saves its parameter shard here at cold
  /// start (`rank_<world_rank>.ckpt`) and a respawned rank reloads its
  /// shard after the factory rebuilds the architecture — the recovery
  /// path exercised by train/checkpoint round-tripping. When empty,
  /// respawn relies on the factory's master-seed determinism alone.
  std::string checkpoint_dir;
};

class SpmdEngine {
 public:
  /// Builds this rank's model; called once per rank inside the world (and
  /// once more per respawn after a rank death). All ranks must construct
  /// replicated parameters from the same master seed (or load the same
  /// checkpoint shards) — the usual D-CHAG contract. Respawn additionally
  /// requires construction to be collective-free, which DchagFrontEnd
  /// guarantees.
  using RankModelFactory =
      std::function<std::unique_ptr<model::ForecastModel>(
          comm::Communicator&)>;

  /// Spawns `ranks` worker ranks and blocks until every rank's model is
  /// constructed (cold start). Throws if any rank fails to construct.
  ///
  /// `ctx` (default: the CONSTRUCTING thread's effective context) is the
  /// engine's execution context: its fault_plan installs on the World
  /// and every rank thread scopes into it, so caller-side overrides
  /// reach the rank-local forwards by construction.
  SpmdEngine(int ranks, RankModelFactory factory, SpmdEngineConfig cfg = {},
             const runtime::Context& ctx = runtime::Context::current());
  ~SpmdEngine();
  SpmdEngine(const SpmdEngine&) = delete;
  SpmdEngine& operator=(const SpmdEngine&) = delete;

  /// Runs one batched forward across all ranks. `images` is the FULL batch
  /// [B, C, H, W] for full-channel requests (each rank takes its slice) or
  /// the full subset batch [B, W, H, W] when `channels` names a subset.
  /// Serialized: concurrent callers queue on an internal mutex (the world
  /// is one SPMD pipeline). A forward that throws (e.g. an out-of-range
  /// channel id) rethrows here but leaves the world serving — model
  /// validation runs on identical inputs on every rank, so such failures
  /// are uniform and the ranks stay in step.
  ///
  /// Under a degraded world the answer is computed from the surviving
  /// channels (full-channel requests use all surviving channels; subset
  /// requests use the surviving intersection, throwing if it is empty).
  /// The output shape is unchanged — the head always predicts every
  /// target channel.
  [[nodiscard]] Tensor run(const Tensor& images,
                           const std::vector<Index>& channels,
                           float lead_time);

  [[nodiscard]] InferenceFn inference_fn();

  /// Blocks until no recovery is in flight (all respawns finished or
  /// none started) and rethrows a fatal respawn error if one occurred.
  /// The heal takes effect on the next run(): recovered answers are
  /// bit-exact with a never-failed world from that job on.
  void wait_recovered();

  [[nodiscard]] int ranks() const { return ranks_; }

  /// Engine-level counters — recoveries (+ mean recovery time) and
  /// degraded responses — with the rank arenas' held bytes filled in.
  [[nodiscard]] Metrics::Snapshot metrics() const;

  /// Pool counters of the rank arenas, summed over world ranks (a
  /// respawned rank reuses its slot's arena, so respawns add no arena).
  /// peak_live_bytes is the sum of the per-rank peaks.
  [[nodiscard]] tensor::plan::Arena::Stats arena_stats() const;
  /// One world rank's arena counters.
  [[nodiscard]] tensor::plan::Arena::Stats arena_stats(int world_rank) const;

 private:
  struct Job {
    const Tensor* images = nullptr;
    const std::vector<Index>* channels = nullptr;
    float lead_time = 1.0f;
    /// Fault epoch of the newest completed heal at dispatch time. Every
    /// participant adopts the full-width "healed@<epoch>" group at the
    /// first job whose stamp exceeds what it has adopted, and a respawned
    /// rank consumes only jobs stamped >= its own recovery epoch — one
    /// shared stamp keeps the collective schedule lockstep.
    std::uint64_t heal_epoch = 0;
  };

  /// The per-participant serving loop: original rank threads enter it
  /// after cold start with the World's handle; respawned rank threads
  /// enter it with a minted "healed@" handle and `min_stamp` set to their
  /// recovery epoch. Handles job pickup, heal adoption, degraded
  /// execution, and failure recovery uniformly.
  void serve_loop(comm::Communicator* active, model::ForecastModel* model,
                  std::uint64_t min_stamp);
  /// Regroups `*active` over the alive set after a RankFailure. Returns
  /// false if this participant is a casualty (caller exits its loop).
  /// The survivor leader also books the recovery and spawns respawn
  /// threads for the casualties.
  bool recover(comm::Communicator** active,
               std::optional<comm::Communicator>* owned,
               core::DchagFrontEnd* fe);
  /// Leader-side bookkeeping for one fault epoch: records who is still
  /// serving, starts the recovery clock, spawns one respawn thread per
  /// newly dead rank (handle minted here, on a stable communicator).
  void begin_recovery(comm::Communicator& group, std::uint64_t epoch,
                      const std::vector<int>& alive);
  /// Respawn thread body: rebuild the dead rank's model on the minted
  /// healed-group handle, reload its checkpoint shard if configured,
  /// signal heal-ready, then serve.
  void respawn_rank(comm::Communicator healed, std::uint64_t epoch);
  /// One job execution on the current group: predict_subset over the
  /// request's channels (`all` when it names none), healthy or degraded.
  /// Throws comm::RankFailure upward for recovery, publishes result/error
  /// when this participant is the group leader.
  void execute_job(comm::Communicator& comm, model::ForecastModel& model,
                   const Job& job, std::uint64_t seq,
                   const std::vector<Index>& all);

  void stop_and_join();

  int ranks_;
  runtime::Context ctx_;
  RankModelFactory factory_;  ///< kept: respawned ranks rebuild through it
  Metrics metrics_;
  /// One arena per world rank, used by whichever thread serves that rank
  /// (the original or its respawn).
  std::unique_ptr<tensor::plan::Arena[]> arenas_;
  std::string checkpoint_dir_;
  std::thread world_thread_;

  std::mutex run_mu_;  // serializes run() callers
  std::mutex mu_;      // guards everything below
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  Job job_;
  Tensor result_;
  std::exception_ptr job_error_;  ///< failure of the last job, if any
  std::uint64_t job_seq_ = 0;
  std::uint64_t done_seq_ = 0;
  int ready_ranks_ = 0;
  int failed_ranks_ = 0;  ///< ranks whose model factory threw at cold start
  bool stop_ = false;
  std::exception_ptr failure_;  ///< fatal: the world itself died

  // Recovery state (still under mu_).
  std::vector<int> serving_members_;     ///< world ranks currently serving
  int pending_respawns_ = 0;             ///< respawn threads still building
  std::uint64_t latest_recovery_epoch_ = 0;
  std::uint64_t heal_ready_epoch_ = 0;   ///< stamped onto new jobs
  std::exception_ptr heal_error_;        ///< a respawn that could not rebuild
  std::chrono::steady_clock::time_point recovery_start_{};
  std::vector<std::thread> respawn_threads_;
};

}  // namespace dchag::serve
