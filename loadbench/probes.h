// Measurement probes of the load benchmark: forwarding decorators at the layer seams
// (BlockStore under the file server, BlockDevice under each block server), a TcpTransport
// subclass that times each network attempt, and the accumulators they feed.
//
// Counters are always on (one relaxed add each). Times are taken only while tracing is on
// (SetTracing), so the untraced run pays one relaxed load per call.

#ifndef LOADBENCH_PROBES_H_
#define LOADBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/block/block_store.h"
#include "src/disk/block_device.h"
#include "src/net/tcp_transport.h"

namespace loadbench {

using afs::BlockNo;

void SetTracing(bool on);
bool Tracing();

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Progress line on stderr, stamped with seconds since process start.
void Note(const std::string& what);

// Sum of durations plus a call count.
struct Clock {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};
  void Add(uint64_t d) {
    ns.fetch_add(d, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

// Times one call into `clock` while tracing; a null clock times nothing.
class Timer {
 public:
  explicit Timer(Clock* clock)
      : clock_(Tracing() ? clock : nullptr), start_(clock_ ? NowNs() : 0) {}
  ~Timer() {
    if (clock_ != nullptr) {
      clock_->Add(NowNs() - start_);
    }
  }
  uint64_t elapsed() const { return clock_ ? NowNs() - start_ : 0; }

 private:
  Clock* clock_;
  uint64_t start_;
};

// Raw samples for exact percentiles.
class Samples {
 public:
  void Add(uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }
  std::vector<uint64_t> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(values_);
  }

 private:
  std::mutex mu_;
  std::vector<uint64_t> values_;
};

// Everything the decorators record, process-wide (both shards feed the same probes).
struct Probes {
  // BlockStore seam (what the file server asks of the block layer), the collector's calls
  // excluded.
  Clock store_seam;
  std::atomic<uint64_t> seam_blocks_read{0};
  std::atomic<uint64_t> seam_blocks_read_vectored{0};
  std::atomic<uint64_t> seam_blocks_written{0};
  // Blocks allocated through the seam minus blocks freed, and its high-water mark.
  std::atomic<int64_t> allocated{0};
  std::atomic<int64_t> allocated_peak{0};
  // BlockDevice seam (each block server's FileDisk), the collector's calls excluded while
  // tracing (outside tracing they cannot be told apart).
  Clock device;
  std::atomic<uint64_t> device_reads{0};
  std::atomic<uint64_t> device_bytes_written{0};
  Samples device_write_ns;  // acknowledged-durable latency of one FileDisk::Write
  // The workloads' calls into the client library (FileClient, RunTransaction,
  // CrossTransaction), the workload's own code around them excluded.
  Clock client_call;
  // Client transports (wire calls made by the workload's clients) and the coordinators'
  // transports (prepare/decide fan-out inside a cross-shard commit).
  Clock client_wire;
  Clock coord_wire;

  void NoteAllocated(int64_t delta);
};

Probes& probes();

// Marks the calling thread as the collector's, so its BlockStore calls are booked apart.
void SetGcThread(bool on);
// Trace id of the collector cycle in progress (0 = none). Block servers adopt the trace
// context of the request they serve, so device calls made for the collector carry it.
void SetGcTrace(uint64_t trace_id);

// Forwards every BlockStore virtual, batch ones included, to `inner`.
class TimedBlockStore : public afs::BlockStore {
 public:
  explicit TimedBlockStore(afs::BlockStore* inner) : inner_(inner) {}

  afs::Result<BlockNo> AllocWrite(std::span<const uint8_t> payload) override;
  afs::Status Write(BlockNo bno, std::span<const uint8_t> payload) override;
  afs::Result<std::vector<uint8_t>> Read(BlockNo bno) override;
  afs::Status Free(BlockNo bno) override;
  afs::Result<std::vector<afs::BlockReadResult>> ReadMulti(
      std::span<const BlockNo> bnos) override;
  afs::Status WriteBatch(std::span<const afs::BlockWrite> writes) override;
  afs::Status FreeMulti(std::span<const BlockNo> bnos) override;
  afs::Result<std::vector<BlockNo>> AllocMulti(uint32_t n) override;
  afs::Status Lock(BlockNo bno, afs::Port owner) override;
  afs::Status Unlock(BlockNo bno, afs::Port owner) override;
  afs::Result<std::vector<BlockNo>> ListBlocks() override;
  uint32_t payload_capacity() const override { return inner_->payload_capacity(); }

 private:
  afs::BlockStore* inner_;
};

// Forwards every BlockDevice virtual to `inner`.
class TimedBlockDevice : public afs::BlockDevice {
 public:
  explicit TimedBlockDevice(afs::BlockDevice* inner) : inner_(inner) {}

  afs::DiskGeometry geometry() const override { return inner_->geometry(); }
  afs::Status Read(BlockNo bno, std::span<uint8_t> out) override;
  afs::Status Write(BlockNo bno, std::span<const uint8_t> data) override;
  uint64_t reads() const override { return inner_->reads(); }
  uint64_t writes() const override { return inner_->writes(); }

 private:
  afs::BlockDevice* inner_;
};

// A TcpTransport whose network attempts and control-plane calls are timed into `clock`.
class TimedTcpTransport : public afs::net::TcpTransport {
 public:
  TimedTcpTransport(std::string host, uint16_t port, uint64_t seed, Clock* clock);

  afs::Port AllocatePort(afs::Port parent = afs::kNullPort) override;
  void ClosePort(afs::Port port) override;
  bool IsPortAlive(afs::Port port) const override;

 protected:
  afs::Result<afs::Message> CallOnce(afs::Port target, const afs::Message& request,
                                     const afs::CallOptions& options) override;

 private:
  Clock* clock_;
};

}  // namespace loadbench

#endif  // LOADBENCH_PROBES_H_
