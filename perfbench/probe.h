// Measurement helpers for the replay benchmark: clocks, process counters,
// span totals, record digests and the raw JSON result the run.py script
// turns into metrics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "db/record.h"
#include "obs/registry.h"
#include "util/hash.h"

namespace perfbench {

double now_s();            ///< steady clock, seconds
double process_cpu_s();    ///< user + sys CPU of the whole process
double thread_cpu_s();     ///< CPU of the calling thread
double peak_rss_mb();      ///< VmHWM
/// Return freed heap to the system, then restart VmHWM from the resident
/// set, so each unit's peak does not depend on what earlier units left.
void reset_peak_rss();
std::size_t usable_cpus();  ///< size of the affinity mask

/// Counter delta between two registry snapshots.
std::uint64_t delta(const tracer::obs::Snapshot& before,
                    const tracer::obs::Snapshot& after,
                    const std::string& counter);

/// FNV-1a over one line per record, every numeric field printed with %.17g.
/// test_id and timestamp are left out: they differ between runs by design.
class RecordDigest {
 public:
  void add(const tracer::db::TestRecord& record);
  void add_line(const std::string& line);
  std::string hex() const;

 private:
  std::uint64_t hash_ = tracer::util::kFnvOffsetBasis;
};

/// Turn the program's span tracer (obs::Tracer, TRACER_SPAN) on or off.
/// The benchmark's own spans use the same tracer.
void set_tracing(bool on);
/// Total duration, self time (duration minus that of the spans directly
/// inside it on the same thread) and count per span name, over every span
/// recorded so far, as {"name": {"total_s":..,"self_s":..,"count":..}, ...}.
std::string span_totals_json();
/// Write every recorded span to `path` in Chrome trace format.
void write_spans(const std::filesystem::path& path);

/// Minimal JSON object writer (keys in insertion order).
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, std::uint64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& nums(const std::string& key, const std::vector<double>& values,
             int digits = 17);
  Json& raw(const std::string& key, const std::string& json);
  std::string text() const;

 private:
  std::string body_;
};

std::string quote(const std::string& s);

/// One named output check and what it saw.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

std::string checks_json(const std::vector<Check>& checks);

}  // namespace perfbench
