// The benchmark's workloads. Each builds its deployment, loads a seeded dataset through a
// client, runs one operation at a time per client thread, and checks the outcome against
// a model it keeps on the client side (never against the program's own output).

#ifndef LOADBENCH_WORKLOADS_H_
#define LOADBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "loadbench/deployment.h"
#include "src/base/rng.h"
#include "src/base/status.h"

namespace loadbench {

// What one operation reports besides its status.
struct OpInfo {
  int attempts = 1;           // tries including redos
  int cross_conflicts = 0;    // cross-shard commits refused as not serialisable
  uint64_t user_bytes = 0;    // page bytes the committed operation wrote
  uint64_t cross_commit_ns = 0;  // duration of the successful cross-shard Commit call
};

class Workload {
 public:
  Workload(uint64_t seed, int clients) : seed_(seed), clients_(clients) {}
  virtual ~Workload() = default;

  // Builds a fresh deployment under `dir`, dials every client's connections and loads
  // the dataset through them.
  virtual afs::Status Setup(const std::string& dir) = 0;
  // One operation on client `c`'s thread. A returned error is a failed operation; a wrong
  // value read back is reported through wrong().
  virtual afs::Status Op(int c, afs::Rng& rng, OpInfo* info) = 0;
  // Post-window checks (durability, structure, model). Runs with the clients stopped;
  // returns a failure description, empty when every check passed.
  virtual std::string Check() = 0;
  // Orderly shutdown of clients and servers.
  virtual void Teardown() = 0;

  const std::vector<ShardStack*>& shards() const { return shard_ptrs_; }
  uint64_t wrong() const { return wrong_.load(); }

 protected:
  const uint64_t seed_;
  const int clients_;
  std::vector<std::unique_ptr<ShardStack>> shards_;
  std::vector<ShardStack*> shard_ptrs_;
  std::atomic<uint64_t> wrong_{0};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, int clients);
// Most client threads a workload may run. transfer_cross_shard runs two: each kCrossCommit
// holds a TcpServer dispatcher and a FileServer worker (four of each) while its coordinator
// waits on prepare/decide calls to the same servers, so four concurrent cross-shard
// commits leave none free and all of them time out.
int ClientLimit(const std::string& name);

}  // namespace loadbench

#endif  // LOADBENCH_WORKLOADS_H_
