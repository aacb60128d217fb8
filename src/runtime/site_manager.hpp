// Site Manager (§1, §3, §4.1): the server software on each site's VDCE
// Server machine.  It "handles the inter-site communications and bridges
// the VDCE modules to the site databases."
//
// Repository maintenance — "periodically updates the resource-performance
// database ... with the monitoring information ... and it updates the
// task-performance database with the execution time after an application
// execution is completed":
//   * gm.report   -> ResourcePerformanceDb::record_workload
//   * gm.host_down-> ResourcePerformanceDb::set_host_up(false), plus an
//                    sm.host_down broadcast to peer Site Managers (the
//                    paper's "inter-site coordination").
//   * ac.task_done-> TaskPerformanceDb::record_execution (measured times
//                    sharpen future predictions, E3).
//
// Distributed scheduling (Fig. 2 over the fabric): the origin Site Manager
// multicasts the AFG (sm.afg) to the k nearest sites, each remote Site
// Manager runs the Host Selection Algorithm against its own repository and
// replies (sm.bids), and the origin runs the assignment phase when all
// replies arrive.
//
// Execution coordination (Fig. 4): multicast the resource allocation table
// (sm.rat -> involved sites -> sm.rat_gm -> group leaders -> gm.exec ->
// Application Controllers), collect ac.ready from every involved host,
// stage file inputs (dm.input), send the startup signal (sm.start), track
// ac.task_done, and drive recovery on ac.overload / host failures — the
// coordinator re-places tasks, ships an updated plan, and issues dm.resend
// pulls so moved tasks receive their inputs at the new machine.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "net/fabric.hpp"
#include "runtime/core.hpp"
#include "runtime/execution.hpp"
#include "runtime/protocol.hpp"
#include "sched/site_scheduler.hpp"
#include "sim/engine.hpp"

namespace vdce::runtime {

class SiteManager {
 public:
  SiteManager(RuntimeCore& core, common::SiteId site, common::HostId server)
      : core_(core), site_(site), server_(server) {}

  void start();
  void stop();

  void handle(const net::Message& message);

  // --- origin-side APIs (called by the environment façade) ----------------

  using ScheduleCallback =
      std::function<void(common::Expected<sched::ResourceAllocationTable>)>;

  /// Fig. 2 over the fabric: multicast the AFG, gather bids, assign.  The
  /// callback fires (in simulated time) once the table is ready.
  void schedule_application(common::AppId app,
                            std::shared_ptr<const afg::Afg> graph,
                            sched::SchedulingPolicy options,
                            ScheduleCallback callback);

  using ReportCallback = std::function<void(ExecutionReport)>;

  /// Launch an application whose allocation table is already decided.
  /// `kernels` and `initial_inputs` may be empty (timing-only run).
  /// `budget` is the user's spending cap in G$ (docs/ECONOMY.md); 0 means
  /// unconstrained.  A positive budget gates recovery re-placements (a
  /// candidate that would push the quoted spend past it is skipped) and
  /// fills the report's spend quote on completion.
  void execute_application(
      common::AppId app, afg::Afg graph, sched::ResourceAllocationTable rat,
      std::vector<db::TaskPerfRecord> perf, std::vector<tasklib::Kernel> kernels,
      std::unordered_map<std::uint32_t, std::unordered_map<int, tasklib::Value>>
          initial_inputs,
      ReportCallback callback, double budget = 0.0);

  /// Console service verbs for a running application.
  void suspend_application(common::AppId app);
  void resume_application(common::AppId app);

  /// I/O service hook: where arriving output files (dm.output) are written.
  /// The environment points this at the user object store.
  using OutputSink =
      std::function<void(const std::string& path, tasklib::Value value,
                         double size_bytes)>;
  void set_output_sink(OutputSink sink) { output_sink_ = std::move(sink); }

  [[nodiscard]] common::SiteId site() const noexcept { return site_; }
  [[nodiscard]] common::HostId server() const noexcept { return server_; }

 private:
  struct PendingSchedule {
    std::shared_ptr<const afg::Afg> graph;
    sched::SchedulingPolicy options;
    std::vector<common::SiteId> sites;  ///< candidate set, local first
    std::map<common::SiteId, sched::HostSelectionOutput> outputs;
    ScheduleCallback callback;
    common::SimTime started = 0;  ///< when the request arrived (bid-gather span)
  };

  struct ActiveApp {
    PlanPtr plan;  ///< original plan (graph/kernels/inputs never change)
    /// Current assignment per task (reschedules update this).
    std::unordered_map<std::uint32_t, sched::Assignment> current;
    std::set<std::uint32_t> done;
    std::unordered_map<std::uint32_t, TaskOutcome> outcomes;
    std::unordered_map<std::uint32_t, int> attempts;
    std::set<common::HostId> involved;
    std::set<common::HostId> ready;
    std::unordered_map<std::uint32_t, std::set<common::HostId>> excluded;
    bool started = false;
    bool finished = false;
    int reschedules = 0;
    int failures_survived = 0;
    common::SimTime submitted = 0;
    common::SimTime exec_started = 0;
    /// User spending cap in G$ (docs/ECONOMY.md); 0 = unconstrained.  When
    /// positive, recovery re-placements are budget-gated and complete_app
    /// quotes the final placements into the report.
    double budget = 0.0;
    ReportCallback callback;
    std::unordered_map<std::uint32_t, tasklib::Value> exit_outputs;
    /// Per-fault recovery outcomes, surfaced through ExecutionReport.
    std::vector<RecoveryEvent> recoveries;
    /// Bounded-recovery accounting: actions taken so far; past
    /// RuntimeOptions::max_app_recovery_actions the app is failed with a
    /// descriptive report instead of looping forever.
    int recovery_actions = 0;
    /// Stall detection (progress sweeps with nothing newly done / not yet
    /// launched).  Past RuntimeOptions::stall_sweeps the coordinator
    /// re-sends start signals and inputs (pre-launch: re-multicasts the
    /// allocation table) — the lost-message safety net.
    std::size_t last_done_count = 0;
    int stalled_sweeps = 0;
    int prestart_sweeps = 0;
    /// Stall recoveries since the last completed task; capped so a slow but
    /// healthy application is not spammed with resends.
    int quiet_stalls = 0;
  };

  /// `scheduling_for` names the application the context schedules or
  /// re-places for; the shared reservation table then hides machines held
  /// by *other* in-flight applications from its decisions (docs/TENANCY.md).
  [[nodiscard]] sched::SchedulerContext make_context(
      common::AppId scheduling_for = common::AppId{}) const;

  // message handlers
  void on_gm_report(const net::Message& message);
  void on_gm_host_down(const net::Message& message);
  void on_sm_host_down(const net::Message& message);
  void on_sm_afg(const net::Message& message);
  void on_sm_bids(const net::Message& message);
  void on_sm_rat(const net::Message& message);
  void on_ac_ready(const net::Message& message);
  void on_ac_task_done(const net::Message& message);
  void on_ac_overload(const net::Message& message);

  void finish_schedule(std::uint32_t app_value);
  void maybe_launch(ActiveApp& app);
  void stage_file_inputs(ActiveApp& app, afg::TaskId task);
  /// Re-place one task after an overload or host failure.  `bad_host` joins
  /// the task's exclusion set.  Cascades to parents whose cached outputs
  /// died with a failed host.  `reason` labels the RecoveryEvent recorded
  /// for the report ("host_down", "overload", "cascade", ...).
  void reschedule_task(ActiveApp& app, afg::TaskId task,
                       common::HostId bad_host, const char* reason);
  /// Charge one action against the app's recovery budget; when exhausted,
  /// fails the app (descriptive report + recovery.escalation trace) and
  /// returns false.
  [[nodiscard]] bool consume_recovery_budget(ActiveApp& app,
                                             const char* action);
  /// Lost-message safety net: re-send start signals, staged inputs, and
  /// dataflow pulls for every unfinished task.
  void stall_recover(ActiveApp& app);
  void dispatch_updated_plan(ActiveApp& app, afg::TaskId task,
                             const PlanPtr& plan, bool pin = false);
  void progress_sweep();
  void complete_app(ActiveApp& app, bool success, const std::string& reason);
  [[nodiscard]] PlanPtr current_plan(const ActiveApp& app) const;
  /// Quoted spend of the app's current assignments under the runtime price
  /// model, with `substitute` (when non-null) standing in for its own task —
  /// the what-if query the budget-gated recovery path asks per candidate
  /// (docs/ECONOMY.md).
  [[nodiscard]] econ::SpendBreakdown quote_current(
      const ActiveApp& app,
      const sched::Assignment* substitute = nullptr) const;
  void leader_echo_tick();
  void on_sm_echo_reply(const net::Message& message);

  RuntimeCore& core_;
  common::SiteId site_;
  common::HostId server_;
  sim::TimerHandle progress_timer_;
  sim::TimerHandle leader_echo_timer_;
  bool started_ = false;

  /// Leader failure detection (mirrors the Group Manager's member echo).
  std::set<common::HostId> leader_echo_replied_;
  std::set<common::HostId> leaders_reported_down_;
  std::uint64_t leader_echo_seq_ = 0;
  bool leader_echo_outstanding_ = false;

  std::unordered_map<std::uint32_t, PendingSchedule> pending_;
  std::unordered_map<std::uint32_t, ActiveApp> apps_;
  OutputSink output_sink_;
};

}  // namespace vdce::runtime
