#include "common.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "host.h"
#include "perf/latency.h"

namespace vs::benchutil {

namespace {

bool parse_flag(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    value = arg + len + 1;
    return true;
  }
  return false;
}

[[noreturn]] void usage_and_exit(const char* bad) {
  std::fprintf(stderr,
               "bad argument: %s\n"
               "usage: [--frames=N] [--injections=N] [--sdc-injections=N]\n"
               "       [--threads=N] [--seed=N] [--quick] [--out-dir=PATH]\n",
               bad);
  std::exit(2);
}

/// The whole of `value` as a non-negative decimal, else the usage message
/// (the rule vs_cli's parse_count applies: "12x" is not 12).
template <typename T>
T parse_number(const std::string& value, const char* arg) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) usage_and_exit(arg);
  if constexpr (std::is_signed_v<T>) {
    if (parsed < 0) usage_and_exit(arg);
  }
  return parsed;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

options parse_options(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (parse_flag(argv[i], "--frames", value)) {
      opt.frames = parse_number<int>(value, argv[i]);
    } else if (parse_flag(argv[i], "--injections", value)) {
      opt.injections = parse_number<int>(value, argv[i]);
    } else if (parse_flag(argv[i], "--sdc-injections", value)) {
      opt.sdc_injections = parse_number<int>(value, argv[i]);
    } else if (parse_flag(argv[i], "--threads", value)) {
      opt.threads = parse_number<int>(value, argv[i]);
    } else if (parse_flag(argv[i], "--seed", value)) {
      opt.seed = parse_number<std::uint64_t>(value, argv[i]);
    } else if (parse_flag(argv[i], "--out-dir", value)) {
      opt.out_dir = value;
    } else {
      usage_and_exit(argv[i]);
    }
  }
  if (opt.quick) {
    opt.frames = std::min(opt.frames, 18);
    opt.injections = std::min(opt.injections, 120);
    opt.sdc_injections = std::min(opt.sdc_injections, 300);
  }
  if (opt.frames < 4 || opt.injections < 1) {
    throw std::runtime_error("options: frames must be >=4, injections >= 1");
  }
  return opt;
}

std::string output_dir(const options& opt) {
  const std::string dir = opt.out_dir.empty() ? "bench_out" : opt.out_dir;
  std::filesystem::create_directories(dir);
  return dir;
}

void bench_report::add(const row_params& params,
                       const std::vector<double>& samples) {
  std::string row = "{\"params\": {";
  for (std::size_t i = 0; i < params.size(); ++i) {
    row += (i ? ", " : "") + json_string(params[i].first) + ": " +
           json_string(params[i].second);
  }
  row += "}, \"n\": " + std::to_string(samples.size()) +
         ", \"median\": " + json_number(perf::percentile(samples, 0.5)) +
         ", \"p10\": " + json_number(perf::percentile(samples, 0.1)) +
         ", \"p90\": " + json_number(perf::percentile(samples, 0.9)) + "}";
  rows_.push_back(std::move(row));
}

std::string bench_report::write(const options& opt) const {
  const auto host = vsbench::probe_host(VS_BENCH_COMMIT, 0, opt.seed);
  const std::string path = output_dir(opt) + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << "{\n  \"bench\": " << json_string(name_)
      << ",\n  \"host\": {\"cpus\": " << host.nproc
      << ", \"simd\": " << json_string(host.simd)
      << ", \"build_type\": " << json_string(host.build_type)
      << ", \"commit\": " << json_string(host.commit)
      << "},\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out << "    " << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  if (!out) throw std::runtime_error("bench_report: cannot write " + path);
  return path;
}

app::pipeline_config variant_config(app::algorithm alg) {
  app::pipeline_config config;
  config.approx.alg = alg;
  config.approx.rfd_drop_fraction = 0.10;
  config.approx.kds_keypoint_fraction = 1.0 / 3.0;
  config.approx.sm_max_distance = 30;
  return config;
}

fault::workload vs_workload(std::shared_ptr<const video::video_source> source,
                            const app::pipeline_config& config) {
  return [source = std::move(source), config]() {
    return app::summarize(*source, config).panorama;
  };
}

const std::vector<app::algorithm>& all_variants() {
  static const std::vector<app::algorithm> variants = {
      app::algorithm::vs, app::algorithm::vs_rfd, app::algorithm::vs_kds,
      app::algorithm::vs_sm};
  return variants;
}

const std::vector<video::input_id>& all_inputs() {
  static const std::vector<video::input_id> inputs = {
      video::input_id::input1, video::input_id::input2};
  return inputs;
}

const std::vector<video::input_id>& all_scenarios() {
  static const std::vector<video::input_id> inputs = {
      video::input_id::input1, video::input_id::input2,
      video::input_id::input3};
  return inputs;
}

std::string pct(double fraction, int decimals) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", decimals, fraction * 100.0);
  return buffer;
}

void heading(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  for (std::size_t i = 0; i < title.size(); ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace vs::benchutil
