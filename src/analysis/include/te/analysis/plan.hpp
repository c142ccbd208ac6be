#pragma once
// te::analysis -- static access-plan model for the ttsv kernel tiers.
//
// Every shipped host ttsv kernel (general, precomputed, unrolled, jit,
// and the SoA multi-lane twins) has control flow fixed entirely by
// (order, dim, tier, lane width): no branch, loop bound or index ever
// depends on the tensor values or the vector. One recorded execution of
// such a kernel therefore *is* its complete behaviour on every input, and
// a kernel is provably correct iff its extracted plan matches the
// combinatorics-derived reference:
//
//   ttsv0:  A x^m      = sum over classes r of  c_r * a_r * prod_q x_q^k_q
//   ttsv1: (A x^{m-1})_i = sum over classes r containing i of
//                          sigma_{r,i} * a_r * prod_q x_q^(k_q - [q==i])
//
// with c_r the Eq. 4 multinomial and sigma_{r,i} the Eq. 6 drop-one
// multinomial of class r's monomial representation k.
//
// An AccessPlan is the extracted set of such terms for one kernel binary
// (extract.hpp recovers it by exact algebraic probing); checker.hpp proves
// it against reference_plan(); gpu_check.hpp adds the launch-level
// obligations (race-freedom, publish ordering) and the performance
// diagnostics (bank conflicts, coalescing) from the gpusim access trace.
// Findings split into *blocking* ones -- the kernel computes the wrong
// thing or races -- and *diagnostic* ones (cost-model cross-checks) that
// report but do not disprove.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "te/kernels/dispatch.hpp"
#include "te/util/types.hpp"

namespace te::analysis {

/// Exponent slot value meaning "probing could not express this factor as a
/// single power of x_q" -- the kernel's contribution from this class is not
/// one monomial, which no correct ttsv term can be.
inline constexpr index_t kBadExponent = -1;

/// One extracted term: index class `cls` contributes
/// coeff * a[cls] * prod_q x_q^exponents[q] to output `out_index`.
struct Term {
  offset_t cls = 0;
  index_t out_index = 0;  ///< 0 for ttsv0 (scalar output)
  double coeff = 0;
  std::vector<index_t> exponents;  ///< length dim; kBadExponent on failure

  friend bool operator==(const Term&, const Term&) = default;
};

/// The complete extracted behaviour of one kernel binary for one
/// (order, dim, tier, width, lane). Terms are ordered by (cls, out_index);
/// classes a kernel never touches simply have no term.
struct AccessPlan {
  int order = 0;
  int dim = 0;
  kernels::Tier tier = kernels::Tier::kGeneral;
  int width = 1;  ///< lane width of the probed kernel (1 = scalar)
  int lane = 0;   ///< which lane this plan describes
  std::vector<Term> ttsv0;
  std::vector<Term> ttsv1;
};

/// What a verification can find. The first block disproves a kernel; the
/// last entry is diagnostic only.
enum class FindingKind : std::uint8_t {
  kMissingClass,         ///< a reference term has no counterpart in the plan
  kCoefficientMismatch,  ///< term present with the wrong coefficient
  kWrongMonomial,        ///< term present with the wrong x exponents
  kWrongWriteTarget,     ///< a class's contribution landed on the wrong y_i
  kUnexpectedTerm,       ///< plan term with no reference counterpart
  kLaneMismatch,         ///< multi-lane plans disagree across lanes
  kRace,                 ///< same-epoch overlapping writes (shared or global)
  kReadBeforePublish,    ///< shared read not ordered after the writing barrier
  kCostModelMismatch,    ///< diagnostic: trace contradicts DeviceSpec costs
};

[[nodiscard]] std::string_view finding_kind_name(FindingKind k);

/// One verification finding.
struct Finding {
  FindingKind kind = FindingKind::kMissingClass;
  offset_t cls = -1;      ///< index class, -1 when not class-scoped
  index_t out_index = 0;  ///< output component (plan findings)
  int lane = 0;           ///< lane (multi) / thread (trace findings)
  double expected = 0;
  double actual = 0;
  bool diagnostic = false;  ///< true: advisory only, does not disprove
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Result of verifying one kernel (one shape x tier x width, or one traced
/// launch). `proven()` is the admission criterion future JIT-generated
/// kernels must meet before dispatch registration (ROADMAP item 3).
struct CheckReport {
  int order = 0;
  int dim = 0;
  kernels::Tier tier = kernels::Tier::kGeneral;
  int width = 1;
  /// "plan" for probing-based checks, "device" for traced launches.
  std::string subject = "plan";

  std::vector<Finding> findings;
  std::int64_t suppressed = 0;      ///< findings dropped past the cap
  std::int64_t terms_checked = 0;   ///< reference terms compared
  std::int64_t traced_events = 0;   ///< trace records analyzed (device only)

  /// Static performance diagnostics (device checks; 1.0 = model-clean).
  double max_bank_conflict_way = 1.0;
  double coalescing_ratio = 1.0;

  /// True iff nothing blocking was found (diagnostics do not disprove).
  [[nodiscard]] bool proven() const {
    if (suppressed > 0) return false;
    for (const Finding& f : findings) {
      if (!f.diagnostic) return false;
    }
    return true;
  }

  /// One line: "proven ttsv plan order=4 dim=3 tier=precomputed width=1" or the
  /// finding summary.
  [[nodiscard]] std::string summary() const;
};

/// Cap on findings retained per report; the remainder only bumps
/// `suppressed` (an empty mutant plan would otherwise flood O(U) findings).
inline constexpr std::int64_t kMaxFindingsPerReport = 64;

}  // namespace te::analysis
