#include "pipeline/stage.h"

#include <cctype>

#include "core/error.h"
#include "resil/hardening.h"

namespace vs::pipeline {

namespace {

using resil::cfcss::node;

// Every stage but acquire is replicable.  Acquire sits *outside* the sphere
// of replication (the SWIFT/HAFT convention): it is the I/O boundary, and a
// general video decoder cannot be re-invoked for the same frame without
// re-seeking the stream.  Each replicable stage's dual check lives with its
// code: the gate's in app/pipeline.cpp, the extraction pair's in
// pipeline/executor.cpp, match's and composite's in stitch/stitcher.cpp,
// estimate's in geometry/ransac.cpp and geometry/homography.cpp.
constexpr stage_desc kRegistry[stage_count] = {
    {stage_id::acquire, "acquire", node::acquire, budget_key::acquire,
     /*opens_scope=*/true,
     {rt::fn::video_decode, rt::fn::count_, rt::fn::count_},
     /*replicable=*/false},
    {stage_id::gate, "gate", node::gate, budget_key::gate,
     /*opens_scope=*/true, {rt::fn::gate, rt::fn::count_, rt::fn::count_},
     /*replicable=*/true},
    {stage_id::detect, "detect", node::detect, budget_key::extract,
     /*opens_scope=*/true,
     {rt::fn::fast_detect, rt::fn::count_, rt::fn::count_},
     /*replicable=*/true},
    {stage_id::describe, "describe", node::describe, budget_key::extract,
     /*opens_scope=*/false,
     {rt::fn::orb_describe, rt::fn::count_, rt::fn::count_},
     /*replicable=*/true},
    {stage_id::match, "match", node::match, budget_key::align,
     /*opens_scope=*/true, {rt::fn::match, rt::fn::count_, rt::fn::count_},
     /*replicable=*/true},
    {stage_id::estimate, "estimate", node::estimate, budget_key::align,
     /*opens_scope=*/false,
     {rt::fn::ransac, rt::fn::homography, rt::fn::count_},
     /*replicable=*/true},
    {stage_id::composite, "composite", node::composite, budget_key::composite,
     /*opens_scope=*/true, {rt::fn::warp, rt::fn::remap, rt::fn::stitch},
     /*replicable=*/true},
};

}  // namespace

const char* budget_key_name(budget_key key) noexcept {
  switch (key) {
    case budget_key::acquire:
      return "acquire";
    case budget_key::gate:
      return "gate";
    case budget_key::extract:
      return "extract";
    case budget_key::align:
      return "align";
    case budget_key::composite:
      return "composite";
    case budget_key::count_:
      break;
  }
  return "?";
}

std::span<const stage_desc> stage_registry() noexcept { return kRegistry; }

const stage_desc& stage_info(stage_id id) noexcept {
  return kRegistry[static_cast<int>(id)];
}

const char* stage_name(stage_id id) noexcept {
  return id == stage_id::count_ ? "?" : stage_info(id).name;
}

stage_id stage_of(rt::fn f) noexcept {
  for (const stage_desc& stage : kRegistry) {
    for (const rt::fn scope : stage.scopes) {
      if (scope != rt::fn::count_ && scope == f) return stage.id;
    }
  }
  return stage_id::count_;
}

std::uint32_t replicable_stage_mask() noexcept {
  std::uint32_t mask = 0;
  for (const stage_desc& stage : kRegistry) {
    if (stage.replicable) mask |= stage_bit(stage.id);
  }
  return mask;
}

std::uint32_t geometry_stage_mask() noexcept {
  return stage_bit(stage_id::estimate);
}

std::uint32_t parse_replicate_stages(const std::string& spec) {
  std::string lower;
  lower.reserve(spec.size());
  for (char c : spec) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower.empty() || lower == "off" || lower == "none") return 0;
  if (lower == "geometry") return geometry_stage_mask();
  if (lower == "all") return replicable_stage_mask();

  std::uint32_t mask = 0;
  std::size_t begin = 0;
  while (begin <= lower.size()) {
    const std::size_t comma = lower.find(',', begin);
    const std::string name =
        lower.substr(begin, comma == std::string::npos ? comma : comma - begin);
    begin = comma == std::string::npos ? lower.size() + 1 : comma + 1;
    if (name.empty()) continue;
    bool found = false;
    for (const stage_desc& stage : kRegistry) {
      if (name == stage.name) {
        if (!stage.replicable) {
          throw invalid_argument("stage is not replicable: " + name);
        }
        mask |= stage_bit(stage.id);
        found = true;
        break;
      }
    }
    if (!found) {
      throw invalid_argument(
          "unknown stage in replicate list: " + name +
          " (expected off, geometry, all, or a comma-separated list of "
          "gate, detect, describe, match, estimate, composite)");
    }
  }
  return mask;
}

std::string replicate_stages_name(std::uint32_t mask) {
  if (mask == 0) return "off";
  if (mask == geometry_stage_mask()) return "geometry";
  if (mask == replicable_stage_mask()) return "all";
  std::string name;
  for (const stage_desc& stage : kRegistry) {
    if ((mask & stage_bit(stage.id)) == 0) continue;
    if (!name.empty()) name.push_back(',');
    name += stage.name;
  }
  return name;
}

std::uint64_t budget_value(const resil::stage_budget_config& budgets,
                           budget_key key) noexcept {
  switch (key) {
    case budget_key::acquire:
      return budgets.acquire;
    case budget_key::gate:
      return budgets.gate;
    case budget_key::extract:
      return budgets.extract;
    case budget_key::align:
      return budgets.align;
    case budget_key::composite:
      return budgets.composite;
    case budget_key::count_:
      break;
  }
  return 0;
}

}  // namespace vs::pipeline
