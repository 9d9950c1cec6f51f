#include "loadbench/probes.h"

#include <cstdio>

#include "src/obs/span.h"

namespace loadbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_gc_trace{0};
thread_local bool t_gc_thread = false;

bool DeviceCallIsGc() {
  const uint64_t gc = g_gc_trace.load(std::memory_order_relaxed);
  return gc != 0 && afs::obs::CurrentSpanContext().trace_id == gc;
}

}  // namespace

void Note(const std::string& what) {
  static const uint64_t start = NowNs();
  std::fprintf(stderr, "[%8.3fs] %s\n", (NowNs() - start) / 1e9, what.c_str());
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }
void SetGcThread(bool on) { t_gc_thread = on; }
void SetGcTrace(uint64_t trace_id) { g_gc_trace.store(trace_id, std::memory_order_relaxed); }

Probes& probes() {
  static Probes* p = new Probes();
  return *p;
}

void Probes::NoteAllocated(int64_t delta) {
  const int64_t now = allocated.fetch_add(delta, std::memory_order_relaxed) + delta;
  int64_t seen = allocated_peak.load(std::memory_order_relaxed);
  while (now > seen && !allocated_peak.compare_exchange_weak(seen, now)) {
  }
}

// --- TimedBlockStore ---------------------------------------------------------

afs::Result<BlockNo> TimedBlockStore::AllocWrite(std::span<const uint8_t> payload) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  auto r = inner_->AllocWrite(payload);
  if (r.ok()) {
    probes().NoteAllocated(1);
    if (!t_gc_thread) {
      probes().seam_blocks_written.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return r;
}

afs::Status TimedBlockStore::Write(BlockNo bno, std::span<const uint8_t> payload) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  if (!t_gc_thread) {
    probes().seam_blocks_written.fetch_add(1, std::memory_order_relaxed);
  }
  return inner_->Write(bno, payload);
}

afs::Result<std::vector<uint8_t>> TimedBlockStore::Read(BlockNo bno) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  if (!t_gc_thread) {
    probes().seam_blocks_read.fetch_add(1, std::memory_order_relaxed);
  }
  return inner_->Read(bno);
}

afs::Status TimedBlockStore::Free(BlockNo bno) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  afs::Status st = inner_->Free(bno);
  if (st.ok()) {
    probes().NoteAllocated(-1);
  }
  return st;
}

afs::Result<std::vector<afs::BlockReadResult>> TimedBlockStore::ReadMulti(
    std::span<const BlockNo> bnos) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  if (!t_gc_thread) {
    probes().seam_blocks_read.fetch_add(bnos.size(), std::memory_order_relaxed);
    probes().seam_blocks_read_vectored.fetch_add(bnos.size(), std::memory_order_relaxed);
  }
  return inner_->ReadMulti(bnos);
}

afs::Status TimedBlockStore::WriteBatch(std::span<const afs::BlockWrite> writes) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  if (!t_gc_thread) {
    probes().seam_blocks_written.fetch_add(writes.size(), std::memory_order_relaxed);
  }
  return inner_->WriteBatch(writes);
}

afs::Status TimedBlockStore::FreeMulti(std::span<const BlockNo> bnos) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  afs::Status st = inner_->FreeMulti(bnos);
  if (st.ok()) {
    probes().NoteAllocated(-static_cast<int64_t>(bnos.size()));
  }
  return st;
}

afs::Result<std::vector<BlockNo>> TimedBlockStore::AllocMulti(uint32_t n) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  auto r = inner_->AllocMulti(n);
  if (r.ok()) {
    probes().NoteAllocated(static_cast<int64_t>(r->size()));
  }
  return r;
}

afs::Status TimedBlockStore::Lock(BlockNo bno, afs::Port owner) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  return inner_->Lock(bno, owner);
}

afs::Status TimedBlockStore::Unlock(BlockNo bno, afs::Port owner) {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  return inner_->Unlock(bno, owner);
}

afs::Result<std::vector<BlockNo>> TimedBlockStore::ListBlocks() {
  Timer t(t_gc_thread ? nullptr : &probes().store_seam);
  return inner_->ListBlocks();
}

// --- TimedBlockDevice --------------------------------------------------------

afs::Status TimedBlockDevice::Read(BlockNo bno, std::span<uint8_t> out) {
  const bool gc = Tracing() && DeviceCallIsGc();
  Timer t(gc ? nullptr : &probes().device);
  if (!gc) {
    probes().device_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return inner_->Read(bno, out);
}

afs::Status TimedBlockDevice::Write(BlockNo bno, std::span<const uint8_t> data) {
  const bool gc = Tracing() && DeviceCallIsGc();
  Timer t(gc ? nullptr : &probes().device);
  afs::Status st = inner_->Write(bno, data);
  if (!gc) {
    probes().device_bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
    if (Tracing()) {
      probes().device_write_ns.Add(t.elapsed());
    }
  }
  return st;
}

// --- TimedTcpTransport -------------------------------------------------------

namespace {
afs::net::TcpTransport::Options TransportOptions(uint64_t seed) {
  afs::net::TcpTransport::Options options;
  options.seed = seed;
  return options;
}
}  // namespace

TimedTcpTransport::TimedTcpTransport(std::string host, uint16_t port, uint64_t seed,
                                     Clock* clock)
    : TcpTransport(std::move(host), port, TransportOptions(seed)), clock_(clock) {}

afs::Port TimedTcpTransport::AllocatePort(afs::Port parent) {
  Timer t(clock_);
  return TcpTransport::AllocatePort(parent);
}

void TimedTcpTransport::ClosePort(afs::Port port) {
  Timer t(clock_);
  TcpTransport::ClosePort(port);
}

bool TimedTcpTransport::IsPortAlive(afs::Port port) const {
  Timer t(clock_);
  return TcpTransport::IsPortAlive(port);
}

afs::Result<afs::Message> TimedTcpTransport::CallOnce(afs::Port target,
                                                      const afs::Message& request,
                                                      const afs::CallOptions& options) {
  Timer t(clock_);
  return TcpTransport::CallOnce(target, request, options);
}

}  // namespace loadbench
