#ifndef CCSIM_CC_CC_FACTORY_H_
#define CCSIM_CC_CC_FACTORY_H_

#include <memory>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/types.h"

namespace ccsim::cc {

/// Creates the concurrency control manager for one node, for the algorithm
/// `ctx->config()` names. The CC manager is the only module that changes
/// between algorithms (Sec 3.6).
std::unique_ptr<CcManager> CreateCcManager(CcContext* ctx, NodeId node);

}  // namespace ccsim::cc

#endif  // CCSIM_CC_CC_FACTORY_H_
