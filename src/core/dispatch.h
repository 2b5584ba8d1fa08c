// Two-lane kernel dispatch.
//
// Every hot kernel writes its per-row or per-item body once, as a template
// on a hook policy (rt/instrument.h): the instrumented lane runs it as
// body<rt::live>, sequentially, routing live values through the rt::
// fault-site hooks (the lane the campaigns study — its dynamic-op stream
// must stay fixed); the clean lane runs it as body<rt::inert>, hook-free,
// and around it keeps what only the clean lane does: tiling over
// core::thread_pool and selecting the active SIMD tier's row kernel.  This
// helper is the single place the lane decision lives; kernels write
//
//   return core::dispatch([&] { return kernel_clean(...); },
//                         [&] { return kernel_instrumented(...); });
//
// instead of each repeating the rt::tls.enabled branch.  Works at function
// or block granularity (both lambdas may return void).
#pragma once

#include <utility>

#include "rt/instrument.h"

namespace vs::core {

template <class Clean, class Instrumented>
decltype(auto) dispatch(Clean&& clean, Instrumented&& instrumented) {
  if (!rt::instrumented()) return std::forward<Clean>(clean)();
  return std::forward<Instrumented>(instrumented)();
}

}  // namespace vs::core
