#include "src/workload/msr_trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace rps::workload {
namespace {

/// Split one CSV row; MSR traces are plain comma-separated with no quoting.
std::vector<std::string_view> split_csv(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<MsrImportResult> import_msr_trace(std::istream& input,
                                         const MsrImportOptions& options) {
  if (options.page_size_bytes == 0) return ErrorCode::kInvalidArgument;
  MsrImportResult result;
  result.trace.set_name("msr-import");

  std::string line;
  bool have_base = false;
  std::uint64_t base_ticks = 0;
  while (std::getline(input, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_csv(line);
    if (fields.size() < 6) {
      ++result.skipped_rows;
      continue;
    }
    std::uint64_t ticks = 0;
    std::int32_t disk = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    if (!parse_number(fields[0], ticks) || !parse_number(fields[2], disk) ||
        !parse_number(fields[4], offset) || !parse_number(fields[5], size) ||
        size == 0) {
      ++result.skipped_rows;  // includes any header row
      continue;
    }
    const bool is_read = equals_ignore_case(fields[3], "Read");
    if (!is_read && !equals_ignore_case(fields[3], "Write")) {
      ++result.skipped_rows;
      continue;
    }
    if (options.disk_filter >= 0 && disk != options.disk_filter) continue;

    if (!have_base) {
      base_ticks = ticks;
      have_base = true;
    }
    IoRequest request;
    // Windows filetime ticks are 100 ns: 10 ticks per microsecond.
    request.arrival_us =
        static_cast<Microseconds>((ticks - std::min(ticks, base_ticks)) / 10);
    request.kind = is_read ? IoKind::kRead : IoKind::kWrite;
    const Lpn first_page = offset / options.page_size_bytes;
    const Lpn last_page = (offset + size - 1) / options.page_size_bytes;
    request.page_count = static_cast<std::uint32_t>(last_page - first_page + 1);
    request.lpn = options.wrap_span_pages > 0 ? first_page % options.wrap_span_pages
                                              : first_page;
    if (options.wrap_span_pages > 0 &&
        request.lpn + request.page_count > options.wrap_span_pages) {
      // Keep wrapped requests inside the span (clip rather than split).
      request.lpn = options.wrap_span_pages - request.page_count;
    }
    result.trace.add(request);
    if (options.max_requests > 0 && result.trace.size() >= options.max_requests) {
      break;
    }
  }
  result.trace.sort_by_arrival();
  return result;
}

Result<MsrImportResult> import_msr_trace_file(const std::string& path,
                                              const MsrImportOptions& options) {
  std::ifstream input(path);
  if (!input) return ErrorCode::kNotFound;
  return import_msr_trace(input, options);
}

}  // namespace rps::workload
