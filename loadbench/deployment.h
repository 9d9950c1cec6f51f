// One shard of the durable deployment, assembled in-process from the library's public
// constructors with the settings `afs_server --store` uses (kDefaultBlockSize blocks, a
// 200 µs group-commit window), plus a background garbage collector:
//
//   TcpServer -> FileServer -> [TimedBlockStore] -> TieredStore -> StableStore
//     -> BlockServer pair (companion writes) -> [TimedBlockDevice] -> FileDisk + journal
//
// The bracketed decorators forward every call; they only count and (when tracing) time.

#ifndef LOADBENCH_DEPLOYMENT_H_
#define LOADBENCH_DEPLOYMENT_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "loadbench/probes.h"
#include "src/block/block_server.h"
#include "src/core/file_server.h"
#include "src/core/gc.h"
#include "src/disk/write_once_disk.h"
#include "src/net/tcp_server.h"
#include "src/rpc/network.h"
#include "src/shard/coordinator.h"
#include "src/shard/decision_log.h"
#include "src/shard/router.h"
#include "src/store/file_disk.h"
#include "src/tier/tiered_store.h"

namespace loadbench {

// Geometry of each magnetic FileDisk: large enough that the collector keeps up with four
// update clients (8192 blocks ran out of space within seconds).
inline constexpr uint32_t kMagneticBlocks = 65536;
inline constexpr uint32_t kArchiveBlocks = 8192;
inline constexpr std::chrono::microseconds kGroupCommitWindow{200};
inline constexpr std::chrono::milliseconds kGcInterval{1000};
inline constexpr uint32_t kGcKeepVersions = 1;

// Runs GarbageCollector::RunCycle on a thread of its own, so the probes can book the
// collector's store calls apart from the foreground, and times every cycle.
class CollectorThread {
 public:
  explicit CollectorThread(afs::FileServer* server);
  ~CollectorThread();
  void Stop();
  // Cycle durations (ns) finished since the last call.
  std::vector<uint64_t> TakeCycleNs();
  uint64_t blocks_swept() const { return gc_.stats().blocks_swept; }

 private:
  void Loop();

  afs::GarbageCollector gc_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<uint64_t> cycle_ns_;
  std::thread thread_;
};

struct ShardStack {
  // Builds (fresh == true) or reopens the shard's store under `dir`: FileDisk mount,
  // BlockServer::RecoverFromDisk on reopen, tier mount, AttachStore. With `serve` the
  // collector starts and the file server is exposed on a loopback TcpServer.
  static afs::Result<std::unique_ptr<ShardStack>> Open(const std::string& dir, bool fresh,
                                                       uint32_t shard_id, uint32_t num_shards,
                                                       bool serve);
  ~ShardStack();
  // Stops the collector and waits until the block servers have gone quiet: a collector
  // call that outlived its RPC deadline leaves a handler running in the block server.
  void StopCollector();
  // Orderly stop: TCP, coordinator, collector, file server, block servers, disks.
  void Close();

  uint16_t tcp_port() const { return tcp ? tcp->port() : 0; }
  afs::Port fs_port() const { return fs->port(); }

  std::string dir;
  afs::Network net{11};
  std::unique_ptr<afs::FileDisk> disk_a, disk_b, disk_archive;
  std::unique_ptr<TimedBlockDevice> dev_a, dev_b;
  std::unique_ptr<afs::BlockServer> block_a, block_b;
  std::unique_ptr<afs::StableStore> stable;
  std::unique_ptr<afs::WriteOnceDisk> platter;
  std::unique_ptr<afs::TieredStore> tiered;
  std::unique_ptr<TimedBlockStore> seam;
  std::unique_ptr<afs::FileServer> fs;
  std::unique_ptr<CollectorThread> gc;
  std::unique_ptr<afs::net::TcpServer> tcp;
  // Cross-shard commit coordination (two-shard deployments only).
  std::vector<std::unique_ptr<TimedTcpTransport>> peer_transports;
  std::unique_ptr<afs::ShardRouter> router;
  std::unique_ptr<afs::JournalDecisionLog> decision_log;
  std::unique_ptr<afs::ShardCoordinator> coordinator;

 private:
  bool closed_ = false;
};

// The shard map of a loopback deployment (shard i at 127.0.0.1:ports[i]).
afs::ShardMap LoopbackMap(const std::vector<ShardStack*>& shards);

// Wires a cross-shard coordinator (with a JournalDecisionLog in the shard's store) into
// every shard; its prepare/decide calls go through TimedTcpTransports timed as coord_wire.
afs::Status AttachCoordinators(const std::vector<ShardStack*>& shards);

}  // namespace loadbench

#endif  // LOADBENCH_DEPLOYMENT_H_
