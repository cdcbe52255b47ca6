/**
 * @file
 * Umbrella header: include everything a downstream user needs.
 */

#ifndef CHASON_CORE_CHASON_H_
#define CHASON_CORE_CHASON_H_

#include "arch/accelerator.h"        // IWYU pragma: export
#include "arch/chason_accel.h"       // IWYU pragma: export
#include "arch/estimator.h"          // IWYU pragma: export
#include "arch/power.h"              // IWYU pragma: export
#include "arch/resources.h"          // IWYU pragma: export
#include "arch/serpens_accel.h"      // IWYU pragma: export
#include "baselines/cpu_spmv.h"      // IWYU pragma: export
#include "baselines/device_models.h" // IWYU pragma: export
#include "core/batch_engine.h"       // IWYU pragma: export
#include "core/engine.h"             // IWYU pragma: export
#include "core/report_json.h"        // IWYU pragma: export
#include "core/schedule_cache.h"     // IWYU pragma: export
#include "core/spmm.h"               // IWYU pragma: export
#include "core/thread_pool.h"        // IWYU pragma: export
#include "sched/analyzer.h"          // IWYU pragma: export
#include "sched/crhcs.h"             // IWYU pragma: export
#include "sched/pe_aware.h"          // IWYU pragma: export
#include "sched/row_based.h"         // IWYU pragma: export
#include "sparse/csc.h"              // IWYU pragma: export
#include "sparse/dataset.h"          // IWYU pragma: export
#include "sparse/generators.h"       // IWYU pragma: export
#include "sparse/matrix_market.h"    // IWYU pragma: export
#include "sparse/structure.h"        // IWYU pragma: export
#include "verify/mutate.h"           // IWYU pragma: export
#include "verify/rules.h"            // IWYU pragma: export
#include "verify/sarif.h"            // IWYU pragma: export
#include "verify/verifier.h"         // IWYU pragma: export

#endif // CHASON_CORE_CHASON_H_
