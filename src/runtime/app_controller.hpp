// Application Controller (§4.1): per-host execution control.
//
// "The Application Controller sets up the execution environment and manages
// the services provided by interacting with the Data Manager.  After the
// Application Controller receives an execution request message from the
// Group Manager, it activates the Data Manager. ... When all the required
// acknowledgments are received an execution startup signal is sent."
//
// And the overload policy: "If the current load on any of these machines is
// more than a predefined threshold value, the Application Controller
// terminates the task execution on the machine and sends a task
// rescheduling request."  (Our rescheduling request travels to the origin
// Site Manager, which owns the application's allocation state; the paper
// routes it via the Group Manager — one hop we collapse, noted in
// DESIGN.md.)
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "net/fabric.hpp"
#include "runtime/core.hpp"
#include "runtime/data_manager.hpp"
#include "runtime/protocol.hpp"
#include "sim/engine.hpp"

namespace vdce::runtime {

class AppController;

/// The Application Controllers' periodic load check as one sweep: a single
/// timer runs every started controller's check_load() in start order, once
/// per controller_period.  The first controller to start arms the timer,
/// with the first tick one period later, so a fleet started at one instant
/// checks each host at the same instants, and in the same order, as one
/// timer per controller would.  One per environment; the timer stops when
/// the sweep is destroyed.
class LoadCheckSweep {
 public:
  explicit LoadCheckSweep(RuntimeCore& core) : core_(core) {}
  ~LoadCheckSweep() { timer_.cancel(); }
  LoadCheckSweep(const LoadCheckSweep&) = delete;
  LoadCheckSweep& operator=(const LoadCheckSweep&) = delete;

  void add(AppController& controller);

 private:
  void tick();

  RuntimeCore& core_;
  std::vector<AppController*> controllers_;
  sim::TimerHandle timer_;
};

class AppController {
 public:
  AppController(RuntimeCore& core, common::HostId host, DataManager& dm,
                LoadCheckSweep& sweep)
      : core_(core), host_(host), dm_(dm), sweep_(sweep) {}

  /// Begin periodic load monitoring of this machine (join the sweep, which
  /// checks it until the environment is torn down).
  void start();

  void handle(const net::Message& message);

  /// One load check: terminate the host's running tasks and request their
  /// rescheduling when its load is past the overload threshold.
  void check_load();

 private:
  void on_exec(const net::Message& message);

  RuntimeCore& core_;
  common::HostId host_;
  DataManager& dm_;
  LoadCheckSweep& sweep_;
  bool started_ = false;
};

}  // namespace vdce::runtime
