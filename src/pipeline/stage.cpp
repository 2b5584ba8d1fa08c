#include "pipeline/stage.h"

#include "resil/hardening.h"

namespace vs::pipeline {

namespace {

using resil::cfcss::node;

constexpr stage_desc kRegistry[stage_count] = {
    {stage_id::acquire, "acquire", node::acquire, budget_key::acquire,
     /*opens_scope=*/true,
     {rt::fn::video_decode, rt::fn::count_, rt::fn::count_}},
    {stage_id::gate, "gate", node::gate, budget_key::gate,
     /*opens_scope=*/true, {rt::fn::gate, rt::fn::count_, rt::fn::count_}},
    {stage_id::detect, "detect", node::detect, budget_key::extract,
     /*opens_scope=*/true,
     {rt::fn::fast_detect, rt::fn::count_, rt::fn::count_}},
    {stage_id::describe, "describe", node::describe, budget_key::extract,
     /*opens_scope=*/false,
     {rt::fn::orb_describe, rt::fn::count_, rt::fn::count_}},
    {stage_id::match, "match", node::match, budget_key::align,
     /*opens_scope=*/true, {rt::fn::match, rt::fn::count_, rt::fn::count_}},
    {stage_id::estimate, "estimate", node::estimate, budget_key::align,
     /*opens_scope=*/false,
     {rt::fn::ransac, rt::fn::homography, rt::fn::count_}},
    {stage_id::composite, "composite", node::composite, budget_key::composite,
     /*opens_scope=*/true, {rt::fn::warp, rt::fn::remap, rt::fn::stitch}},
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
