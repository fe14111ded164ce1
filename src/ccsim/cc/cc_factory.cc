#include "ccsim/cc/cc_factory.h"

#include "ccsim/cc/bto.h"
#include "ccsim/cc/no_dc.h"
#include "ccsim/cc/optimistic.h"
#include "ccsim/cc/two_phase_locking.h"
#include "ccsim/sim/check.h"

namespace ccsim::cc {

std::unique_ptr<CcManager> CreateCcManager(CcContext* ctx, NodeId node) {
  switch (ctx->config().algorithm) {
    case config::CcAlgorithm::kNoDc:
      return std::make_unique<NoDcManager>(ctx);
    case config::CcAlgorithm::kBasicTimestamp:
      return std::make_unique<BtoManager>(ctx, node);
    case config::CcAlgorithm::kOptimistic:
      return std::make_unique<OptimisticManager>(ctx, node);
    case config::CcAlgorithm::kTwoPhaseLocking:
    case config::CcAlgorithm::kWoundWait:
    case config::CcAlgorithm::kTwoPhaseLockingDeferred:
    case config::CcAlgorithm::kWaitDie:
    case config::CcAlgorithm::kTwoPhaseLockingTimeout:
      // One lock engine; it derives its conflict policy from the algorithm.
      return std::make_unique<TwoPhaseLockingManager>(ctx, node);
  }
  CCSIM_CHECK_MSG(false, "unknown concurrency control algorithm");
  return nullptr;
}

}  // namespace ccsim::cc
