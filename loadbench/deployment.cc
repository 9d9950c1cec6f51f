#include "loadbench/deployment.h"

#include <filesystem>

#include "src/block/protocol.h"
#include "src/obs/span.h"

namespace loadbench {

using afs::Status;

// --- CollectorThread ----------------------------------------------------------------

CollectorThread::CollectorThread(afs::FileServer* server)
    : gc_({server}, afs::GcOptions{kGcKeepVersions}), thread_([this] { Loop(); }) {}

CollectorThread::~CollectorThread() { Stop(); }

void CollectorThread::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

std::vector<uint64_t> CollectorThread::TakeCycleNs() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(cycle_ns_);
}

void CollectorThread::Loop() {
  SetGcThread(true);
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, kGcInterval, [this] { return stop_; })) {
    lock.unlock();
    const uint64_t start = NowNs();
    {
      afs::obs::ScopedSpan span("bench.gc", afs::obs::SpanKind::kInternal);
      SetGcTrace(span.trace_id());
      (void)gc_.RunCycle();
      SetGcTrace(0);
    }
    const uint64_t took = NowNs() - start;
    lock.lock();
    cycle_ns_.push_back(took);
  }
}

// --- ShardStack --------------------------------------------------------------

afs::Result<std::unique_ptr<ShardStack>> ShardStack::Open(const std::string& dir, bool fresh,
                                                          uint32_t shard_id,
                                                          uint32_t num_shards, bool serve) {
  auto s = std::make_unique<ShardStack>();
  s->dir = dir;
  std::error_code ec;
  if (fresh) {
    std::filesystem::remove_all(dir, ec);
  }
  std::filesystem::create_directories(dir, ec);

  afs::FileDiskOptions options;
  options.block_size = afs::kDefaultBlockSize;
  options.num_blocks = kMagneticBlocks;
  options.group_commit_window = kGroupCommitWindow;
  ASSIGN_OR_RETURN(s->disk_a, afs::FileDisk::Open(dir + "/a.afsdisk", options));
  ASSIGN_OR_RETURN(s->disk_b, afs::FileDisk::Open(dir + "/b.afsdisk", options));
  options.num_blocks = kArchiveBlocks;
  ASSIGN_OR_RETURN(s->disk_archive, afs::FileDisk::Open(dir + "/archive.afsdisk", options));
  s->dev_a = std::make_unique<TimedBlockDevice>(s->disk_a.get());
  s->dev_b = std::make_unique<TimedBlockDevice>(s->disk_b.get());

  s->block_a = std::make_unique<afs::BlockServer>(&s->net, "block-a", s->dev_a.get(), 3);
  s->block_b = std::make_unique<afs::BlockServer>(&s->net, "block-b", s->dev_b.get(), 3);
  s->block_a->Start();
  s->block_b->Start();
  s->block_a->SetCompanion(s->block_b->port());
  s->block_b->SetCompanion(s->block_a->port());
  if (!fresh) {
    s->block_a->RecoverFromDisk();
    s->block_b->RecoverFromDisk();
  }
  afs::Capability account = s->block_a->CreateAccountDirect();
  s->stable = std::make_unique<afs::StableStore>(
      std::make_unique<afs::BlockClient>(&s->net, s->block_a->port(), account,
                                         s->block_a->payload_capacity()),
      std::make_unique<afs::BlockClient>(&s->net, s->block_b->port(), account,
                                         s->block_b->payload_capacity()),
      1);
  s->platter = std::make_unique<afs::WriteOnceDisk>(s->disk_archive.get());
  s->tiered = std::make_unique<afs::TieredStore>(s->stable.get(), s->platter.get());
  RETURN_IF_ERROR(s->tiered->Mount());
  s->seam = std::make_unique<TimedBlockStore>(s->tiered.get());

  afs::FileServerOptions fs_options;
  fs_options.shard_id = shard_id;
  fs_options.num_shards = num_shards;
  s->fs = std::make_unique<afs::FileServer>(&s->net, "fs" + std::to_string(shard_id),
                                            s->seam.get(), fs_options);
  s->fs->Start();
  RETURN_IF_ERROR(s->fs->AttachStore());
  if (!serve) {
    return s;
  }
  s->gc = std::make_unique<CollectorThread>(s->fs.get());
  afs::net::TcpServer::Options tcp_options;
  tcp_options.port = 0;
  s->tcp = std::make_unique<afs::net::TcpServer>(&s->net, tcp_options);
  s->tcp->Expose(s->fs.get(), s->fs->name(), afs::net::ServiceKind::kFileServer);
  RETURN_IF_ERROR(s->tcp->Start());
  return s;
}

ShardStack::~ShardStack() { Close(); }

void ShardStack::StopCollector() {
  if (gc) {
    gc->Stop();
  }
  // Quiet = no FileDisk write for 200 ms (a collector free writes a block header each).
  auto writes = [this] { return disk_a->writes() + disk_b->writes(); };
  uint64_t seen = writes();
  for (int quiet_ms = 0; quiet_ms < 200; quiet_ms += 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (writes() != seen) {
      seen = writes();
      quiet_ms = -20;
    }
  }
}

void ShardStack::Close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  if (tcp) {
    tcp->Stop();
  }
  coordinator.reset();
  router.reset();
  peer_transports.clear();
  decision_log.reset();
  if (disk_a && disk_b) {
    StopCollector();
  }
  if (fs) {
    fs->Shutdown();
  }
  if (block_a) {
    block_a->Shutdown();
  }
  if (block_b) {
    block_b->Shutdown();
  }
  tcp.reset();
  gc.reset();
  fs.reset();
  seam.reset();
  tiered.reset();
  platter.reset();
  stable.reset();
  block_a.reset();
  block_b.reset();
  dev_a.reset();
  dev_b.reset();
  disk_a.reset();  // ~FileDisk checkpoints and stops the journal flusher
  disk_b.reset();
  disk_archive.reset();
}

afs::ShardMap LoopbackMap(const std::vector<ShardStack*>& shards) {
  afs::ShardMap map;
  map.epoch = 1;
  for (uint32_t i = 0; i < shards.size(); ++i) {
    afs::ShardEntry entry;
    entry.shard_id = i;
    entry.name = "shard" + std::to_string(i);
    entry.address = "127.0.0.1:" + std::to_string(shards[i]->tcp_port());
    entry.file_servers.push_back(shards[i]->fs_port());
    map.shards.push_back(std::move(entry));
  }
  return map;
}

Status AttachCoordinators(const std::vector<ShardStack*>& shards) {
  const afs::ShardMap map = LoopbackMap(shards);
  for (uint32_t k = 0; k < shards.size(); ++k) {
    ShardStack* s = shards[k];
    for (uint32_t i = 0; i < shards.size(); ++i) {
      s->peer_transports.push_back(std::make_unique<TimedTcpTransport>(
          "127.0.0.1", shards[i]->tcp_port(), 1000 + 10 * k + i, &probes().coord_wire));
    }
    ASSIGN_OR_RETURN(s->router,
                     afs::ShardRouter::Make(map, [s](const afs::ShardEntry& e) -> afs::Transport* {
                       return s->peer_transports[e.shard_id].get();
                     }));
    ASSIGN_OR_RETURN(s->decision_log, afs::JournalDecisionLog::Open(s->dir + "/decision.log"));
    s->coordinator = std::make_unique<afs::ShardCoordinator>(k, s->router.get(),
                                                             s->decision_log.get(),
                                                             s->fs->metrics());
    s->coordinator->Serve(s->fs.get());
  }
  return afs::OkStatus();
}

}  // namespace loadbench
