#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"us_per_step_atom_p50", "us"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<MetricSpec> kLayerMetrics = {
    {"md.force.ms_per_eval", "ms"},
    {"md.neighbor.ms_per_build", "ms"},
    {"md.neighbor.builds", "1/100steps"},
    {"md.integrate.us_per_step", "us"},
    {"fused.compute.ms_per_eval", "ms"},
    {"fused.slots_per_atom", "count"},
    {"fused.workspace_mib", "MiB"},
    {"tab.build_s", "s"},
    {"tab.walk.ns_per_slot", "ns"},
    {"tab.extrapolations_per_eval", "count"},
    {"tab.table_mib", "MiB"},
    {"dp.env_mat.ms_per_eval", "ms"},
    {"dp.descriptor.us_per_atom", "us"},
    {"dp.prod_force.ms_per_eval", "ms"},
    {"nn.fit.us_per_atom", "us"},
    {"nn.fit.gflops", "GFLOP/s"},
    {"nn.gemm.gflops_fit_shape", "GFLOP/s"},
    {"par.halo.wait_s_per_step", "s"},
    {"par.halo.hidden_s_per_step", "s"},
    {"par.halo.overlap_ratio", "ratio"},
    {"par.comm.messages_per_step", "count"},
    {"par.comm.kib_per_step", "KiB"},
    {"par.ghosts_max", "count"},
    {"par.load_imbalance", "ratio"},
    {"par.early_rebuilds", "1/100steps"},
    {"par.allreduce.us", "us"},
    {"train.grad.ms_per_frame", "ms"},
    {"train.comm.kib_per_epoch", "KiB"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

namespace {

const char* unit_of(const std::vector<MetricSpec>& specs, const std::string& name) {
  for (const auto& s : specs)
    if (name == s.name) return s.unit;
  throw std::logic_error("undeclared metric " + name);
}

void upsert(std::vector<Report::Metric>& v, Report::Metric m) {
  for (auto& x : v)
    if (x.name == m.name) {
      x = std::move(m);
      return;
    }
  v.push_back(std::move(m));
}

const Report::Metric* find(const std::vector<Report::Metric>& v, const char* name) {
  for (const auto& x : v)
    if (x.name == name) return &x;
  return nullptr;
}

/// Shortest decimal that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

void Report::stamp(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  stamp_.emplace_back(key, os.str());
}

void Report::end_to_end(const std::string& name, double value, std::size_t samples) {
  upsert(e2e_, {name, value, unit_of(kEndToEndMetrics, name), samples, ""});
}

void Report::layer(const std::string& name, double value, std::size_t samples) {
  upsert(layers_, {name, value, unit_of(kLayerMetrics, name), samples, ""});
}

void Report::unreached(const std::string& name, const std::string& why) {
  upsert(layers_, {name, 0.0, unit_of(kLayerMetrics, name), 0, "not reached: " + why});
}

void Report::info(const std::string& name, double value, const std::string& unit,
                  std::size_t samples) {
  upsert(info_, {name, value, unit, samples, ""});
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  ++checks_;
  if (!ok) ++failed_;
  check_lines_.push_back("check " + name + ": " + (ok ? "ok" : "FAILED") + " (" + detail + ")");
}

bool Report::print(bool trace) const {
  std::printf("stamp");
  for (const auto& [k, v] : stamp_) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  auto show = [](const Metric& m) {
    std::printf("metric %-30s %14.6g %-10s samples=%zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ", m.note.c_str());
  };
  for (const auto& m : e2e_) show(m);
  for (const auto& m : info_) show(m);
  for (const auto& m : layers_) show(m);
  for (const auto& line : check_lines_) std::printf("%s\n", line.c_str());
  const double frac =
      checks_ ? static_cast<double>(failed_) / static_cast<double>(checks_) : 1.0;
  std::printf("metric %-30s %14.6g %-10s samples=%zu\n", "verify_failed_frac", frac, "fraction",
              checks_);

  const auto& specs = trace ? kLayerMetrics : kEndToEndMetrics;
  const auto& have = trace ? layers_ : e2e_;
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && checks_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks_);
  json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool complete = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Metric* m = find(have, specs[i].name);
    if (m == nullptr) {
      std::fprintf(stderr, "metric %s was not measured\n", specs[i].name);
      complete = false;
      continue;
    }
    if (i > 0) json += ", ";
    json += "\"" + m->name + "\": {\"value\": " + number(m->value) + ", \"unit\": \"" +
            m->unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  if (!complete) return false;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double seconds_since(std::int64_t t0_ns) { return (Tracer::now_ns() - t0_ns) * 1e-9; }

}  // namespace perfbench
