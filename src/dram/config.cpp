#include "dram/config.hpp"

#include <string>

namespace planaria::dram {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("dram config: " + what);
}

}  // namespace

void TimingConfig::validate() const {
  require(tRAS > 0 && tRCD > 0 && tRRD > 0 && tRC > 0 && tRP > 0 && tCCD > 0 &&
              tRTP > 0 && tWTR > 0 && tWR > 0 && tRTRS >= 0 && tRFC > 0 &&
              tFAW > 0 && tCKE > 0 && tXP > 0 && tCMD > 0,
          "all timing parameters must be positive");
  require(tCL > 0 && tCWL > 0 && tREFI > 0 && tRFCpb > 0,
          "latency parameters must be positive");
  require(burst_length > 0 && burst_length % 2 == 0,
          "burst length must be a positive even number");
  require(tRC >= tRAS, "tRC must cover tRAS");
  require(tFAW >= tRRD, "tFAW must be at least tRRD");
  require(tREFI > tRFC, "tREFI must exceed tRFC or refresh starves the bus");
}

void GeometryConfig::validate() const {
  require(channels > 0 && ranks > 0 && banks > 0 && rows > 0 && blocks_per_row > 0,
          "geometry must be positive");
  require((banks & (banks - 1)) == 0, "banks must be a power of two");
  require((blocks_per_row & (blocks_per_row - 1)) == 0,
          "blocks_per_row must be a power of two");
  // AddressMapper decodes every digit by shift and mask.
  require((ranks & (ranks - 1)) == 0, "ranks must be a power of two");
  require((rows & (rows - 1)) == 0, "rows must be a power of two");
}

void ControllerConfig::validate() const {
  require(read_queue_depth > 0 && write_queue_depth > 0, "queues must be positive");
  require(write_drain_high > write_drain_low && write_drain_low >= 0,
          "write drain thresholds inverted");
  require(write_drain_high <= write_queue_depth,
          "drain-high exceeds write queue depth");
  require(max_postponed_refreshes >= 0, "negative refresh postponement");
  require(powerdown_idle_threshold > 0, "power-down threshold must be positive");
}

}  // namespace planaria::dram
