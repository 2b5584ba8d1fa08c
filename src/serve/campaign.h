// Serve-layer fault campaign: the paper's AFI methodology pointed at the
// *service* instead of the bare pipeline (`vs inject --serve`).
//
// Each experiment submits one clip job to a resident, supervised,
// isolate-mode server with a journaled injection plan riding the submit
// frame (protocol.h fault_spec): the forked worker arms the plan around
// its pipeline run exactly as the offline campaign does, so the fault
// physics are identical — what changes is the observer.  The offline
// campaign classifies from inside the fault monitor (Masked / SDC /
// Crash / Hang); here every experiment is classified from the CLIENT's
// chair, the serving analog of the paper's Fig 10/11 user-visible
// taxonomy:
//
//   Completed                the submission returned a result first try
//   Completed-after-restart  the result arrived, but only after at least
//                            one reconnect (server crashed / was killed
//                            and the journal + idempotency key recovered
//                            the job)
//   Rejected                 the server answered, and the answer was a
//                            terminal refusal or an explicit failure
//                            report (the contained crash/hang taxonomy)
//   Lost                     no terminal reply within the client's
//                            attempt budget
//
// SDC stays observable end to end: a Completed montage whose hash differs
// from the golden hash is a silently corrupt result that crossed the
// service boundary undetected.
//
// With kill_every > 0 the campaign doubles as a crash drill: every N-th
// experiment SIGKILLs the server child once the server reports the job in
// flight (kill_server_mid_job), exercising respawn + journal replay under
// fire.  Determinism caveat: experiment *plans* are the same pure function
// of (seed, total_ops, index) the offline campaign uses, but where in the
// job the kill lands is wall-clock, so the split between Completed and
// Completed-after-restart is scenario-dependent even though the set of
// delivered montage hashes is not.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "app/config.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace vs::serve {

class respawn_supervisor;

/// Client-visible fate of one serve-layer experiment.
enum class client_outcome : std::uint8_t {
  completed = 0,
  completed_after_restart = 1,
  rejected = 2,
  lost = 3,
};
inline constexpr int client_outcome_count = 4;

[[nodiscard]] const char* client_outcome_name(client_outcome o) noexcept;

struct serve_campaign_config {
  video::input_id input = video::input_id::input1;
  app::algorithm alg = app::algorithm::vs;
  int frames = 12;
  rt::reg_class cls = rt::reg_class::gpr;
  int injections = 48;
  std::uint64_t seed = 2018;
  double step_budget_factor = 25.0;
  /// SIGKILL the server child mid-job on every N-th experiment; 0 = never.
  int kill_every = 0;
  int runners = 2;           ///< server runner threads
  unsigned pool_budget = 0;  ///< server worker-slot budget; 0 = auto
  int client_attempts = 8;   ///< resilient-submit budget per experiment
  /// Socket/journal paths; empty = unique /tmp defaults per process.
  std::string socket_path;
  std::string journal_path;
};

/// One experiment, classified from the client's chair.
struct serve_experiment {
  std::size_t index = 0;
  client_outcome outcome = client_outcome::lost;
  bool fault_armed = false;  ///< false = dead-register strike, ran clean
  bool sdc = false;          ///< delivered montage hash != golden hash
  int attempts = 0;
  int reconnects = 0;
  double wall_ms = 0.0;
};

struct serve_campaign_result {
  std::uint64_t golden_hash = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t step_budget = 0;
  std::uint64_t counts[client_outcome_count] = {0, 0, 0, 0};
  std::uint64_t sdc_visible = 0;      ///< corrupt montages delivered
  std::uint64_t server_restarts = 0;  ///< supervisor generations - 1
  std::vector<serve_experiment> records;

  [[nodiscard]] std::string to_string() const;
};

/// Crash drill step: polls the server at `socket_path` for stats until a
/// job is in flight, then SIGKILLs the supervisor's live child.  Returns
/// true once it killed; false, without killing, once `stop` is set first.
bool kill_server_mid_job(respawn_supervisor& supervisor,
                         const std::string& socket_path,
                         const std::atomic<bool>& stop);

/// Runs the campaign: boots a supervised isolate-mode server, fires every
/// experiment through submit_resilient, classifies client-visibly, shuts
/// the supervisor down.  Throws on setup failures (socket, golden run).
[[nodiscard]] serve_campaign_result run_serve_campaign(
    const serve_campaign_config& config);

}  // namespace vs::serve
