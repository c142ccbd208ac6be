#pragma once
// Runtime registry for JIT-compiled kernels (Tier::kJit).
//
// The unrolled tier's registry is a compile-time closed set; this is its
// runtime twin: te::jit generates specialized ttsv0/ttsv1 source for an
// arbitrary (order, dim), compiles it with the host toolchain, dlopens the
// object, proves the loaded binary with the te::analysis probing pass, and
// only then registers the function pointers here. BoundKernels (span and
// VectorBatch calls alike) dispatches through this table exactly like it
// dispatches through the unrolled registry -- te_kernels itself never
// depends on the codegen
// machinery, so every existing client picks up the tier for free.
//
// Registration is append-or-replace keyed on (order, dim[, width]) per
// scalar type; entries live in never-shrinking storage, so a pointer
// returned by find_jit stays valid for the life of the process (re-
// registering a key updates the entry in place). The shared objects behind
// the function pointers are owned by the te::jit engine and are never
// dlclosed while registered.

#include <utility>
#include <vector>

#include "te/util/op_counter.hpp"
#include "te/util/types.hpp"

namespace te::kernels {

/// One admitted JIT kernel for (order, dim): same call shape as
/// UnrolledEntry, but the pointers target a dlopened shared object.
template <Real T>
struct JitEntry {
  int order = 0;
  int dim = 0;
  T (*ttsv0)(const T* a, const T* x) = nullptr;
  void (*ttsv1)(const T* a, const T* x, T* y) = nullptr;
  OpCounts ops0;  ///< exact float-op mix of one ttsv0 call
  OpCounts ops1;  ///< exact float-op mix of one ttsv1 call
};

/// One admitted multi-lane JIT kernel (SoA batch, lane width W).
template <Real T>
struct JitMultiEntry {
  int order = 0;
  int dim = 0;
  int width = 1;
  void (*ttsv0)(const T* a, const T* xb, T* out) = nullptr;
  void (*ttsv1)(const T* a, const T* xb, T* yb) = nullptr;
};

/// Register (or replace) the scalar JIT kernel for (order, dim). The
/// function pointers must stay callable for the life of the process.
template <Real T>
void register_jit(const JitEntry<T>& entry);

/// Register (or replace) a multi-lane JIT kernel.
template <Real T>
void register_jit_multi(const JitMultiEntry<T>& entry);

/// Lookup; nullptr when no admitted kernel exists for the key. The pointer
/// stays valid forever (entries are replaced in place, never removed).
template <Real T>
[[nodiscard]] const JitEntry<T>* find_jit(int order, int dim);
template <Real T>
[[nodiscard]] const JitMultiEntry<T>* find_jit_multi(int order, int dim,
                                                     int width);

/// Every (order, dim) with an admitted scalar kernel for T, sorted and
/// deduplicated -- the JIT analogue of the unrolled registry's shape list.
template <Real T>
[[nodiscard]] std::vector<std::pair<int, int>> jit_shapes();

}  // namespace te::kernels
