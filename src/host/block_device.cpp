#include "src/host/block_device.hpp"

#include <algorithm>
#include <cassert>

namespace rps::host {

BlockDevice::BlockDevice(ftl::FtlBase& ftl, const BlockDeviceConfig& config)
    : ftl_(ftl), config_(config) {
  const std::uint32_t page_bytes = ftl.config().geometry.page_size_bytes;
  assert(config_.sector_bytes > 0);
  assert(page_bytes % config_.sector_bytes == 0);
  sectors_per_page_ = page_bytes / config_.sector_bytes;
}

std::vector<std::uint8_t> BlockDevice::page_bytes(Lpn lpn, Microseconds now,
                                                  Microseconds* complete) {
  const std::uint32_t size = ftl_.config().geometry.page_size_bytes;
  Microseconds read_done = now;
  Result<nand::PageImage> data = ftl_.read_data(lpn, now, &read_done);
  *complete = std::max(*complete, read_done);
  if (!data.is_ok()) {
    return std::vector<std::uint8_t>(size, 0);  // zero-fill
  }
  std::vector<std::uint8_t> bytes = std::move(data.value().bytes);
  bytes.resize(size, 0);
  return bytes;
}

Result<Microseconds> BlockDevice::write(std::uint64_t sector,
                                        const std::vector<std::uint8_t>& data,
                                        Microseconds now, double buffer_utilization) {
  if (data.empty() || data.size() % config_.sector_bytes != 0) {
    return ErrorCode::kInvalidArgument;
  }
  const std::uint64_t sectors = data.size() / config_.sector_bytes;
  if (sector + sectors > num_sectors()) return ErrorCode::kOutOfRange;
  ++stats_.write_requests;
  stats_.sectors_written += sectors;

  const std::uint32_t page_size = ftl_.config().geometry.page_size_bytes;
  Microseconds complete = now;
  std::uint64_t cursor = sector;            // current absolute sector
  std::size_t consumed = 0;                 // bytes of `data` consumed
  const std::uint64_t end = sector + sectors;
  while (cursor < end) {
    const Lpn lpn = cursor / sectors_per_page_;
    const std::uint32_t first_in_page =
        static_cast<std::uint32_t>(cursor % sectors_per_page_);
    const std::uint32_t span = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(sectors_per_page_ - first_in_page, end - cursor));

    std::vector<std::uint8_t> page;
    if (first_in_page == 0 && span == sectors_per_page_) {
      // Full-page write: no read-modify-write needed.
      page.assign(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                  data.begin() + static_cast<std::ptrdiff_t>(consumed) +
                      page_size);
    } else {
      // Partial page: merge with the current contents.
      ++stats_.rmw_cycles;
      page = page_bytes(lpn, now, &complete);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                  static_cast<std::size_t>(span) * config_.sector_bytes,
                  page.begin() + static_cast<std::ptrdiff_t>(first_in_page) *
                                     config_.sector_bytes);
    }
    const Result<ftl::HostOp> op =
        ftl_.write_data(lpn, page, now, buffer_utilization);
    if (!op.is_ok()) return op.code();
    complete = std::max(complete, op.value().complete);
    cursor += span;
    consumed += static_cast<std::size_t>(span) * config_.sector_bytes;
  }
  return complete;
}

Result<BlockDevice::ReadResult> BlockDevice::read(std::uint64_t sector,
                                                  std::uint64_t sectors,
                                                  Microseconds now) {
  if (sectors == 0) return ErrorCode::kInvalidArgument;
  if (sector + sectors > num_sectors()) return ErrorCode::kOutOfRange;
  ++stats_.read_requests;
  stats_.sectors_read += sectors;

  ReadResult result;
  result.complete = now;
  result.data.reserve(sectors * config_.sector_bytes);
  std::uint64_t cursor = sector;
  const std::uint64_t end = sector + sectors;
  while (cursor < end) {
    const Lpn lpn = cursor / sectors_per_page_;
    const std::uint32_t first_in_page =
        static_cast<std::uint32_t>(cursor % sectors_per_page_);
    const std::uint32_t span = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(sectors_per_page_ - first_in_page, end - cursor));
    const std::vector<std::uint8_t> page = page_bytes(lpn, now, &result.complete);
    const auto offset = static_cast<std::ptrdiff_t>(first_in_page) *
                        config_.sector_bytes;
    result.data.insert(result.data.end(), page.begin() + offset,
                       page.begin() + offset +
                           static_cast<std::ptrdiff_t>(span) * config_.sector_bytes);
    cursor += span;
  }
  return result;
}

Status BlockDevice::trim(std::uint64_t sector, std::uint64_t sectors) {
  if (sector + sectors > num_sectors()) return Status{ErrorCode::kOutOfRange};
  // Only whole pages can be discarded.
  const std::uint64_t first_full = (sector + sectors_per_page_ - 1) / sectors_per_page_;
  const std::uint64_t end_full = (sector + sectors) / sectors_per_page_;
  for (std::uint64_t lpn = first_full; lpn < end_full; ++lpn) {
    const Status status = ftl_.trim(lpn);
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

}  // namespace rps::host
