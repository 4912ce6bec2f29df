// Shared pieces of the step benchmark: options, the result report and
// sample statistics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: smallest systems and datasets that still run every
  /// code path, so every metric is emitted within a few seconds.
  bool tiny = false;
  /// Scale every force the program returns by 1 + kPerturbation, to prove
  /// that the correctness checks catch a wrong force.
  bool perturb = false;
  std::string trace_out;
};

inline constexpr double kPerturbation = 0.01;

/// Name and unit of one metric the benchmark declares.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The end-to-end metrics of a timed run and the layer metrics of a traced
/// run, in output order. BENCHMARK.json lists the same names.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kLayerMetrics;

/// Everything one run reports. End-to-end metrics go into the final JSON of
/// a timed run, layer metrics into that of a traced run; `info` metrics and
/// the stamp are printed for the reader only.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note;
  };

  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);
  void end_to_end(const std::string& name, double value, std::size_t samples);
  void layer(const std::string& name, double value, std::size_t samples);
  /// A layer metric whose public call this workload does not reach; it is
  /// reported as 0 with the reason.
  void unreached(const std::string& name, const std::string& why);
  void info(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  void check(const std::string& name, bool ok, const std::string& detail);

  /// Prints the stamp, every metric and check, then the one-line JSON
  /// result. Returns false if a declared metric of the mode was not set.
  bool print(bool trace) const;

 private:
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<Metric> e2e_, info_, layers_;
  std::vector<std::string> check_lines_;
  std::size_t checks_ = 0, failed_ = 0;
};

double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double sum(const std::vector<double>& v);
double peak_rss_mib();
double seconds_since(std::int64_t t0_ns);

void run_md(const Options& opt, Report& rep);
void run_train(const Options& opt, Report& rep);

}  // namespace perfbench
