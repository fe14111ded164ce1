#ifndef CCSIM_TESTS_TEST_UTIL_H_
#define CCSIM_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/types.h"
#include "ccsim/config/params.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/txn/transaction.h"
#include "ccsim/workload/spec.h"

namespace ccsim::test {

/// A CcContext for unit-testing CC managers in isolation: records abort
/// requests and audit calls instead of routing them through an engine.
class FakeCcContext : public cc::CcContext {
 public:
  struct AbortRequest {
    TxnId txn;
    int attempt;
    NodeId from_node;
    txn::AbortReason reason;
  };
  struct AuditCall {
    TxnId txn;
    PageRef page;
    enum Kind { kRead, kInstall, kSkip } kind;
  };

  FakeCcContext() = default;
  /// A context whose configuration names `algorithm`: lock managers derive
  /// their conflict policy from it at construction.
  explicit FakeCcContext(config::CcAlgorithm algorithm) {
    config_.algorithm = algorithm;
  }

  sim::Simulation& simulation() override { return sim_; }
  const config::SystemConfig& config() const override { return config_; }
  /// Mutable for tests that exercise non-default options.
  config::SystemConfig& mutable_config() { return config_; }
  void RequestAbort(const txn::TxnPtr& txn, int attempt, NodeId from_node,
                    txn::AbortReason reason) override {
    abort_requests.push_back({txn->id(), attempt, from_node, reason});
  }
  void AuditRead(txn::Transaction& t, const PageRef& page) override {
    audits.push_back({t.id(), page, AuditCall::kRead});
  }
  void AuditInstallWrite(txn::Transaction& t, const PageRef& page) override {
    audits.push_back({t.id(), page, AuditCall::kInstall});
  }
  void AuditSkippedWrite(txn::Transaction& t, const PageRef& page) override {
    audits.push_back({t.id(), page, AuditCall::kSkip});
  }

  /// Drains scheduled events (completions resume through the calendar).
  void Pump() { sim_.Run(); }

  std::vector<AbortRequest> abort_requests;
  std::vector<AuditCall> audits;

 private:
  sim::Simulation sim_;
  config::SystemConfig config_;
};

/// Builds a single-cohort transaction at `node` accessing `pages`
/// (write_mask bit i set -> access i is an update). The attempt has begun at
/// `start_time`.
txn::TxnPtr MakeTxn(TxnId id, NodeId node, const std::vector<PageRef>& pages,
                    unsigned write_mask = 0, double start_time = 0.0);

/// Miniature paper configuration for fast integration runs: tiny windows,
/// fewer terminals, audit on.
config::SystemConfig SmallConfig(config::CcAlgorithm alg, double think_time,
                                 int num_proc_nodes = 4);

}  // namespace ccsim::test

#endif  // CCSIM_TESTS_TEST_UTIL_H_
