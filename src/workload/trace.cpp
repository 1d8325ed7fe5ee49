#include "src/workload/trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

namespace rps::workload {

std::string TraceStats::intensiveness() const {
  // Buckets chosen to match Table 1's qualitative labels for the presets.
  const double rate = iops();
  if (rate >= 4000.0) return "Very high";
  if (rate >= 500.0) return "High";
  if (rate >= 50.0) return "Moderate";
  return "Low";
}

void Trace::sort_by_arrival() {
  std::stable_sort(requests_.begin(), requests_.end(),
                   [](const IoRequest& a, const IoRequest& b) {
                     return a.arrival_us < b.arrival_us;
                   });
}

bool Trace::is_sorted() const {
  return std::is_sorted(requests_.begin(), requests_.end(),
                        [](const IoRequest& a, const IoRequest& b) {
                          return a.arrival_us < b.arrival_us;
                        });
}

Lpn Trace::lpn_span() const {
  Lpn span = 0;
  for (const IoRequest& r : requests_) {
    span = std::max(span, r.lpn + r.page_count);
  }
  return span;
}

TraceStats Trace::stats(Microseconds idle_threshold_us) const {
  TraceStats s;
  s.idle_threshold_us = idle_threshold_us;
  if (requests_.empty()) return s;
  s.requests = requests_.size();
  Microseconds prev = requests_.front().arrival_us;
  Microseconds idle_total = 0;
  for (const IoRequest& r : requests_) {
    if (r.kind == IoKind::kRead) {
      ++s.read_requests;
      s.read_pages += r.page_count;
    } else {
      ++s.write_requests;
      s.write_pages += r.page_count;
    }
    const Microseconds gap = r.arrival_us - prev;
    if (gap > idle_threshold_us) idle_total += gap;
    prev = r.arrival_us;
  }
  s.duration_us = requests_.back().arrival_us - requests_.front().arrival_us;
  if (s.requests > 1) {
    s.mean_interarrival_us = s.duration_us / static_cast<Microseconds>(s.requests - 1);
  }
  s.idle_fraction = s.duration_us <= 0
                        ? 0.0
                        : static_cast<double>(idle_total) /
                              static_cast<double>(s.duration_us);
  return s;
}

Status Trace::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status{ErrorCode::kInvalidArgument};
  out << "# flexnand trace: " << name_ << "\n";
  for (const IoRequest& r : requests_) {
    out << r.arrival_us << " " << to_string(r.kind) << " " << r.lpn << " "
        << r.page_count << "\n";
  }
  return out ? Status::ok() : Status{ErrorCode::kInvalidArgument};
}

Result<Trace> Trace::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return ErrorCode::kNotFound;
  Trace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const auto tag = line.find("trace: ");
      if (tag != std::string::npos) trace.set_name(line.substr(tag + 7));
      continue;
    }
    std::istringstream fields(line);
    std::string arrival, kind, lpn, pages, extra;
    IoRequest r;
    const bool parsed = fields >> arrival >> kind >> lpn >> pages && !(fields >> extra) &&
                        (kind == "R" || kind == "W") && parse_number(arrival, r.arrival_us) &&
                        parse_number(lpn, r.lpn) && parse_number(pages, r.page_count);
    if (!parsed || r.page_count > std::numeric_limits<Lpn>::max() - r.lpn ||
        (!trace.empty() && r.arrival_us < trace.requests_.back().arrival_us)) {
      return ErrorCode::kInvalidArgument;
    }
    r.kind = kind == "R" ? IoKind::kRead : IoKind::kWrite;
    trace.add(r);
  }
  return trace;
}

}  // namespace rps::workload
