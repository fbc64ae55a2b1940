#include "probe.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>

#include "obs/span.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::uint64_t delta(const tracer::obs::Snapshot& before,
                    const tracer::obs::Snapshot& after,
                    const std::string& counter) {
  return after.counter_or(counter) - before.counter_or(counter);
}

void RecordDigest::add_line(const std::string& line) {
  hash_ = tracer::util::fnv1a(line, hash_);
  hash_ = tracer::util::fnv1a("\n", hash_);
}

void RecordDigest::add(const tracer::db::TestRecord& r) {
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "%s|%s|%" PRIu64 "|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|"
                "%d|%.17g|%.17g|%.17g|%.17g|%.17g",
                r.device.c_str(), r.trace_name.c_str(),
                static_cast<std::uint64_t>(r.request_size), r.random_ratio,
                r.read_ratio, r.load_proportion, r.avg_amps, r.avg_volts,
                r.avg_watts, r.joules, r.power_valid ? 1 : 0, r.iops, r.mbps,
                r.avg_response_ms, r.iops_per_watt, r.mbps_per_kilowatt);
  add_line(buf);
}

std::string RecordDigest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
  return buf;
}

void set_tracing(bool on) {
  if (on) {
    tracer::obs::Tracer::global().enable();
  } else {
    tracer::obs::Tracer::global().disable();
  }
}

std::string span_totals_json() {
  struct Totals {
    std::uint64_t total_us = 0;
    std::int64_t self_us = 0;
    std::uint64_t count = 0;
  };
  const std::vector<tracer::obs::SpanEvent> events =
      tracer::obs::Tracer::global().events();
  // Spans of one thread nest. events() keeps each thread's spans in the
  // order they ended, so of two spans with the same interval (the clock
  // ticks in microseconds) the later one is the parent.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&events](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.begin_us != y.begin_us) return x.begin_us < y.begin_us;
    if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
    return a > b;
  });
  std::map<std::string, Totals> totals;
  std::vector<std::size_t> open;  // enclosing spans of the current thread
  for (const std::size_t i : order) {
    const auto& e = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.tid == e.tid && e.begin_us + e.dur_us <= top.begin_us + top.dur_us) {
        break;
      }
      open.pop_back();
    }
    Totals& t = totals[e.name];
    t.total_us += e.dur_us;
    t.self_us += static_cast<std::int64_t>(e.dur_us);
    ++t.count;
    if (!open.empty()) {
      totals[events[open.back()].name].self_us -=
          static_cast<std::int64_t>(e.dur_us);
    }
    open.push_back(i);
  }
  std::string text = "{";
  for (const auto& [name, t] : totals) {
    if (text.size() > 1) text += ',';
    text += quote(name) + ":" +
            Json()
                .num("total_s", static_cast<double>(t.total_us) * 1e-6)
                .num("self_s", static_cast<double>(t.self_us) * 1e-6)
                .integer("count", t.count)
                .text();
  }
  return text + "}";
}

void write_spans(const std::filesystem::path& path) {
  tracer::obs::Tracer::global().write_chrome_json(path);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string number(double value, int digits = 17) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  return buf;
}
}  // namespace

Json& Json::raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ',';
  body_ += quote(key) + ':' + json;
  return *this;
}

Json& Json::num(const std::string& key, double value) {
  return raw(key, number(value));
}

Json& Json::integer(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

Json& Json::str(const std::string& key, const std::string& value) {
  return raw(key, quote(value));
}

Json& Json::boolean(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

Json& Json::nums(const std::string& key, const std::vector<double>& values,
                 int digits) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) text += ',';
    text += number(values[i], digits);
  }
  return raw(key, text + "]");
}

std::string Json::text() const { return "{" + body_ + "}"; }

std::string checks_json(const std::vector<Check>& checks) {
  std::string text = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i != 0) text += ',';
    text += Json()
                .str("name", checks[i].name)
                .boolean("ok", checks[i].ok)
                .str("detail", checks[i].detail)
                .text();
  }
  return text + "]";
}

}  // namespace perfbench
