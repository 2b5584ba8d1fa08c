#include "resil/cfcss.h"

#include <string>

#include "rt/instrument.h"

namespace vs::resil::cfcss {

namespace {

// Static signatures: arbitrary distinct 64-bit constants (wide signatures
// make an accidental collision after a strike on G astronomically unlikely;
// the original CFCSS uses the spare bits of an embedded signature word).
constexpr std::uint64_t kSig[node_count] = {
    0x9e3779b97f4a7c15ULL,  // frame_begin
    0xbf58476d1ce4e5b9ULL,  // acquire
    0x94d049bb133111ebULL,  // detect
    0x2545f4914f6cdd1dULL,  // describe
    0xd6e8feb86659fd93ULL,  // match
    0xa0761d6478bd642fULL,  // estimate
    0xe7037ed1a0b428dbULL,  // composite
    0x8ebc6af09c88c6e3ULL,  // frame_end
    0x589965cc75374cc3ULL,  // recover
    0x1d8e4e27c47d124fULL,  // prefetch
    0x3c79ac492ba7b653ULL,  // gate
};

// Designated primary predecessor p(v) of each node: the fall-through edge
// of the per-frame stage sequence.  frame_begin's primary is the previous
// frame's exit — the interprocedural edge that chains frames together
// (enter_frame re-seeds instead only on the first frame of a run).
constexpr node kPrimary[node_count] = {
    node::frame_end,    // frame_begin
    node::frame_begin,  // acquire
    node::acquire,      // detect
    node::detect,       // describe
    node::describe,     // match
    node::match,        // estimate
    node::estimate,     // composite
    node::composite,    // frame_end
    node::recover,      // recover (entered by re-seed, never by transition)
    node::frame_begin,  // prefetch
    node::acquire,      // gate
};

// Legal predecessor sets (bit i = node i is a legal predecessor):
//   frame_begin <- frame_end | recover       (interprocedural frame chain;
//               the retry path re-enters the frame from the recover node)
//   acquire   <- frame_begin | prefetch      (inline vs prefetched frame)
//   estimate  <- match | estimate            (homography -> affine cascade)
//   composite <- estimate | describe | match | composite
//               (anchor frames skip matching; a view-change closes the
//                panorama and re-anchors; canvas-cap retries re-composite)
//   frame_end <- composite | describe | match | estimate | gate
//               (discard paths end the frame from any post-extract stage;
//                a gate skip-classification ends the frame before extraction)
//   prefetch  <- frame_begin                 (a prefetch ticket is
//               consumed at the top of a frame, before acquisition)
//   gate      <- acquire                     (classification runs on the
//               freshly acquired frame, before feature extraction)
//   detect    <- acquire | gate              (gated runs reach extraction
//               through the classification node)
constexpr std::uint32_t bit(node n) { return 1u << static_cast<int>(n); }
constexpr std::uint32_t kPreds[node_count] = {
    bit(node::frame_end) | bit(node::recover),             // frame_begin
    bit(node::frame_begin) | bit(node::prefetch),          // acquire
    bit(node::acquire) | bit(node::gate),                  // detect
    bit(node::detect),                                     // describe
    bit(node::describe),                                   // match
    bit(node::match) | bit(node::estimate),                // estimate
    bit(node::estimate) | bit(node::describe) |            // composite
        bit(node::match) | bit(node::composite),
    bit(node::composite) | bit(node::describe) |           // frame_end
        bit(node::match) | bit(node::estimate) | bit(node::gate),
    0,                                                     // recover
    bit(node::frame_begin),                                // prefetch
    bit(node::acquire),                                    // gate
};

}  // namespace

const char* node_name(node n) noexcept {
  switch (n) {
    case node::frame_begin:
      return "frame_begin";
    case node::acquire:
      return "acquire";
    case node::detect:
      return "detect";
    case node::describe:
      return "describe";
    case node::match:
      return "match";
    case node::estimate:
      return "estimate";
    case node::composite:
      return "composite";
    case node::frame_end:
      return "frame_end";
    case node::recover:
      return "recover";
    case node::prefetch:
      return "prefetch";
    case node::gate:
      return "gate";
    case node::count_:
      break;
  }
  return "?";
}

std::uint64_t static_signature(node n) noexcept {
  return n == node::count_ ? 0 : kSig[static_cast<int>(n)];
}

void monitor::begin_frame() noexcept {
  cur_ = node::frame_begin;
  g_ = kSig[static_cast<int>(node::frame_begin)];
}

void monitor::enter_frame() {
  if (cur_ == node::frame_end || cur_ == node::recover) {
    transition(node::frame_begin);
  } else {
    // First frame of the run: the signature chain has no predecessor yet.
    begin_frame();
  }
}

void monitor::enter_recovery() noexcept {
  cur_ = node::recover;
  g_ = kSig[static_cast<int>(node::recover)];
}

void monitor::transition(node v) {
  const int vi = static_cast<int>(v);
  const node p = kPrimary[vi];
  // Static signature difference for the primary edge, plus the runtime
  // adjusting signature D when arriving over a legal fan-in edge.
  std::uint64_t update = g_ ^ kSig[static_cast<int>(p)] ^ kSig[vi];
  if (cur_ != p && (kPreds[vi] & bit(cur_)) != 0) {
    update ^= kSig[static_cast<int>(p)] ^ kSig[static_cast<int>(cur_)];
  }
  // The runtime signature lives in a register: in the instrumented lane it
  // is a fault site like any other live GPR value.
  g_ = static_cast<std::uint64_t>(
      rt::g64(static_cast<std::int64_t>(update), rt::op::branch));
  if (g_ != kSig[vi]) {
    ++violations_;
    const node from = cur_;
    cur_ = v;
    throw detected_error(
        detect_kind::control_flow,
        std::string("CFCSS signature mismatch entering ") + node_name(v) +
            " from " + node_name(from));
  }
  cur_ = v;
}

}  // namespace vs::resil::cfcss
