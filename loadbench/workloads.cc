#include "loadbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <thread>

#include "src/client/file_client.h"
#include "src/client/transaction.h"
#include "src/core/fsck.h"
#include "src/shard/router.h"
#include "src/shard/shard_fsck.h"

namespace loadbench {

using afs::Capability;
using afs::FileClient;
using afs::PagePath;
using afs::Result;
using afs::Rng;
using afs::Status;

namespace {

constexpr uint32_t kPagesPerFile = 16;
constexpr size_t kPageBytes = 1024;

using Bytes = std::vector<uint8_t>;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The page image a generator computes from (seed, file, page): the read oracle.
Bytes GenPage(uint64_t seed, uint64_t file, uint64_t page) {
  Bytes out(kPageBytes);
  uint64_t state = Mix(seed ^ Mix(file * 1000003 + page));
  for (size_t i = 0; i < out.size(); i += 8) {
    state = Mix(state);
    std::memcpy(out.data() + i, &state, 8);
  }
  return out;
}

Bytes RandomPage(Rng& rng) {
  Bytes out(kPageBytes);
  for (size_t i = 0; i < out.size(); i += 8) {
    uint64_t v = rng.NextU64();
    std::memcpy(out.data() + i, &v, 8);
  }
  return out;
}

Bytes EncodeI64(int64_t v) {
  Bytes out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

Result<int64_t> DecodeI64(const Bytes& b) {
  if (b.size() != 8) {
    return afs::CorruptError("counter page is not 8 bytes");
  }
  int64_t v;
  std::memcpy(&v, b.data(), 8);
  return v;
}

// Creates a file whose root has kPagesPerFile children holding `pages`, in one commit.
Result<Capability> CreateLoadedFile(FileClient* client, const std::vector<Bytes>& pages) {
  ASSIGN_OR_RETURN(Capability file, client->CreateFile());
  auto stats = afs::RunTransaction(client, file, [&](FileClient& c, const Capability& v) {
    std::vector<FileClient::PageWrite> writes;
    for (uint32_t i = 0; i < pages.size(); ++i) {
      RETURN_IF_ERROR(c.InsertRef(v, PagePath::Root(), i));
      writes.push_back({PagePath{i}, pages[i]});
    }
    return c.WritePages(v, writes);
  });
  RETURN_IF_ERROR(stats.status());
  return file;
}

// Loads files[i] = a new file holding contents[i], spreading the files over `threads`
// loader threads; `client_for(t, i)` is thread t's client for file i.
Status LoadFiles(const std::vector<std::vector<Bytes>>& contents, int threads,
                 const std::function<FileClient*(int, size_t)>& client_for,
                 std::vector<Capability>* files) {
  files->assign(contents.size(), Capability{});
  std::vector<Status> status(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < contents.size() && status[t].ok(); i += threads) {
        Result<Capability> file = CreateLoadedFile(client_for(t, i), contents[i]);
        if (file.ok()) {
          (*files)[i] = *file;
        } else {
          status[t] = file.status();
        }
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  for (const Status& st : status) {
    RETURN_IF_ERROR(st);
  }
  return afs::OkStatus();
}

Result<Bytes> ReadCurrent(FileClient* client, const Capability& file, uint32_t page) {
  ASSIGN_OR_RETURN(Capability v, client->GetCurrentVersion(file));
  ASSIGN_OR_RETURN(FileClient::ReadResult r, client->ReadPage(v, PagePath{page}));
  return std::move(r.data);
}

Result<Bytes> ReadCurrentDirect(afs::FileServer* fs, const Capability& file, uint32_t page) {
  ASSIGN_OR_RETURN(Capability v, fs->GetCurrentVersion(file));
  ASSIGN_OR_RETURN(afs::FileServer::ReadResult r, fs->ReadPage(v, PagePath{page}, false));
  return std::move(r.data);
}

std::string FsckVerdict(const std::string& what, const afs::FsckReport& report) {
  if (report.clean) {
    return "";
  }
  return what + " fsck: " + (report.errors.empty() ? "unclean" : report.errors.front());
}

// A client of one shard: its own connection and FileClient.
struct Conn {
  std::unique_ptr<TimedTcpTransport> transport;
  std::unique_ptr<FileClient> client;
};

Conn Dial(ShardStack* s, uint64_t seed) {
  Conn c;
  c.transport = std::make_unique<TimedTcpTransport>("127.0.0.1", s->tcp_port(), seed,
                                                    &probes().client_wire);
  c.client = std::make_unique<FileClient>(c.transport.get(), std::vector<afs::Port>{s->fs_port()});
  return c;
}

// Shared plumbing of the one-shard workloads.
class OneShardWorkload : public Workload {
 public:
  using Workload::Workload;

  Status Setup(const std::string& dir) override {
    ASSIGN_OR_RETURN(auto stack, ShardStack::Open(dir + "/shard0", true, 0, 1, true));
    shards_.push_back(std::move(stack));
    shard_ptrs_ = {shards_[0].get()};
    loader_ = Dial(shards_[0].get(), seed_ * 31 + 7);
    for (int c = 0; c < clients_; ++c) {
      conns_.push_back(Dial(shards_[0].get(), seed_ * 31 + 100 + c));
    }
    return Load();
  }

  void Teardown() override {
    conns_.clear();
    loader_ = Conn();
    for (auto& s : shards_) {
      s->Close();
    }
  }

 protected:
  virtual Status Load() = 0;

  ShardStack* stack() { return shards_[0].get(); }

  // Stops the collector and checks the live store's structure.
  std::string LiveFsck() {
    stack()->StopCollector();
    return FsckVerdict("live", afs::RunFsck(stack()->fs.get()));
  }

  // Loads the dataset through the clients' connections, in parallel.
  Status LoadAll(const std::vector<std::vector<Bytes>>& contents, std::vector<Capability>* files) {
    return LoadFiles(contents, clients_, [this](int t, size_t) { return conns_[t].client.get(); },
                     files);
  }

  afs::TransactionOptions TxnOptions(int c) const {
    afs::TransactionOptions options;
    options.backoff_seed = seed_ * 131 + c;
    return options;
  }

  Conn loader_;
  std::vector<Conn> conns_;
};

// --- read_committed ------------------------------------------------------------

class ReadCommitted : public OneShardWorkload {
 public:
  using OneShardWorkload::OneShardWorkload;
  static constexpr uint32_t kFiles = 64;

  Status Op(int c, Rng& rng, OpInfo*) override {
    const uint32_t f = static_cast<uint32_t>(rng.NextBelow(kFiles));
    const uint32_t p = static_cast<uint32_t>(rng.NextBelow(kPagesPerFile));
    Result<Bytes> got = [&] {
      Timer t(&probes().client_call);
      return ReadCurrent(conns_[c].client.get(), files_[f], p);
    }();
    RETURN_IF_ERROR(got.status());
    if (*got != expected_[f][p]) {
      wrong_.fetch_add(1);
    }
    return afs::OkStatus();
  }

  std::string Check() override { return LiveFsck(); }

 private:
  Status Load() override {
    for (uint32_t f = 0; f < kFiles; ++f) {
      std::vector<Bytes> pages;
      for (uint32_t p = 0; p < kPagesPerFile; ++p) {
        pages.push_back(GenPage(seed_, f, p));
      }
      expected_.push_back(std::move(pages));
    }
    return LoadAll(expected_, &files_);
  }

  std::vector<Capability> files_;
  std::vector<std::vector<Bytes>> expected_;
};

// --- update_disjoint -------------------------------------------------------------

class UpdateDisjoint : public OneShardWorkload {
 public:
  using OneShardWorkload::OneShardWorkload;
  static constexpr uint32_t kFilesPerClient = 4;
  static constexpr uint32_t kPagesPerTxn = 4;

  Status Op(int c, Rng& rng, OpInfo* info) override {
    const uint32_t k = static_cast<uint32_t>(rng.NextBelow(kFilesPerClient));
    std::vector<uint32_t> pages(kPagesPerFile);
    for (uint32_t i = 0; i < kPagesPerFile; ++i) {
      pages[i] = i;
    }
    std::vector<FileClient::PageWrite> writes;
    for (uint32_t i = 0; i < kPagesPerTxn; ++i) {
      std::swap(pages[i], pages[i + rng.NextBelow(kPagesPerFile - i)]);
      writes.push_back({PagePath{pages[i]}, RandomPage(rng)});
    }
    Timer t(&probes().client_call);
    auto stats = afs::RunTransaction(
        conns_[c].client.get(), files_[c][k],
        [&](FileClient& client, const Capability& v) { return client.WritePages(v, writes); },
        TxnOptions(c));
    RETURN_IF_ERROR(stats.status());
    info->attempts = stats->attempts;
    info->user_bytes = kPagesPerTxn * kPageBytes;
    for (const auto& w : writes) {
      model_[c][k][w.path.at(0)] = w.data;
    }
    return afs::OkStatus();
  }

  // Every page equals the model's last acknowledged write: live, then after a shutdown
  // and a reopen of the same store files.
  std::string Check() override {
    std::string err = CompareModel([&](const Capability& f, uint32_t p) {
      return ReadCurrent(loader_.client.get(), f, p);
    }, "live");
    if (err.empty()) {
      err = LiveFsck();
    }
    if (!err.empty()) {
      return err;
    }
    loader_ = Conn();
    conns_.clear();
    const std::string dir = stack()->dir;
    Note("closing the store for the reopen check");
    stack()->Close();
    Note("reopening the store");
    auto reopened = ShardStack::Open(dir, false, 0, 1, false);
    if (!reopened.ok()) {
      return "reopen: " + reopened.status().ToString();
    }
    shards_[0] = std::move(reopened).value();
    shard_ptrs_ = {shards_[0].get()};
    Note("reopened; comparing with the model");
    err = CompareModel([&](const Capability& f, uint32_t p) {
      return ReadCurrentDirect(stack()->fs.get(), f, p);
    }, "reopened");
    if (err.empty()) {
      err = FsckVerdict("reopened", afs::RunFsck(stack()->fs.get()));
    }
    return err;
  }

 private:
  Status Load() override {
    std::vector<std::vector<Bytes>> contents;
    for (int c = 0; c < clients_; ++c) {
      for (uint32_t k = 0; k < kFilesPerClient; ++k) {
        std::vector<Bytes> pages;
        for (uint32_t p = 0; p < kPagesPerFile; ++p) {
          pages.push_back(GenPage(seed_, c * kFilesPerClient + k, p));
        }
        contents.push_back(std::move(pages));
      }
    }
    std::vector<Capability> all;
    RETURN_IF_ERROR(LoadAll(contents, &all));
    files_.resize(clients_);
    model_.resize(clients_);
    for (int c = 0; c < clients_; ++c) {
      for (uint32_t k = 0; k < kFilesPerClient; ++k) {
        files_[c].push_back(all[c * kFilesPerClient + k]);
        model_[c].push_back(contents[c * kFilesPerClient + k]);
      }
    }
    return afs::OkStatus();
  }

  template <typename ReadFn>
  std::string CompareModel(const ReadFn& read, const std::string& what) {
    for (int c = 0; c < clients_; ++c) {
      for (uint32_t k = 0; k < kFilesPerClient; ++k) {
        for (uint32_t p = 0; p < kPagesPerFile; ++p) {
          Result<Bytes> got = read(files_[c][k], p);
          if (!got.ok()) {
            return what + " read: " + got.status().ToString();
          }
          if (*got != model_[c][k][p]) {
            return what + ": page differs from the last acknowledged write";
          }
        }
      }
    }
    return "";
  }

  std::vector<std::vector<Capability>> files_;
  std::vector<std::vector<std::vector<Bytes>>> model_;  // [client][file][page]
};

// --- update_hot ------------------------------------------------------------------

class UpdateHot : public OneShardWorkload {
 public:
  using OneShardWorkload::OneShardWorkload;
  static constexpr uint32_t kFiles = 4;

  Status Op(int c, Rng& rng, OpInfo* info) override {
    const uint32_t f = static_cast<uint32_t>(rng.NextBelow(kFiles));
    const PagePath path{static_cast<uint32_t>(rng.NextBelow(kPagesPerFile))};
    Timer t(&probes().client_call);
    auto stats = afs::RunTransaction(
        conns_[c].client.get(), files_[f],
        [&](FileClient& client, const Capability& v) -> Status {
          ASSIGN_OR_RETURN(FileClient::ReadResult r, client.ReadPage(v, path));
          ASSIGN_OR_RETURN(int64_t count, DecodeI64(r.data));
          return client.WritePage(v, path, EncodeI64(count + 1));
        },
        TxnOptions(c));
    RETURN_IF_ERROR(stats.status());
    info->attempts = stats->attempts;
    info->user_bytes = 8;
    commits_.fetch_add(1);
    return afs::OkStatus();
  }

  // No lost updates: the counters' sum rose by exactly the acknowledged commits.
  std::string Check() override {
    int64_t sum = 0;
    for (const Capability& file : files_) {
      for (uint32_t p = 0; p < kPagesPerFile; ++p) {
        Result<Bytes> got = ReadCurrent(loader_.client.get(), file, p);
        if (!got.ok()) {
          return "read: " + got.status().ToString();
        }
        Result<int64_t> v = DecodeI64(*got);
        if (!v.ok()) {
          return v.status().ToString();
        }
        sum += *v;
      }
    }
    const int64_t want = initial_sum_ + static_cast<int64_t>(commits_.load());
    if (sum != want) {
      return "counter sum " + std::to_string(sum) + " != " + std::to_string(want) +
             " (initial + acknowledged commits)";
    }
    return LiveFsck();
  }

 private:
  Status Load() override {
    Rng rng(seed_);
    std::vector<std::vector<Bytes>> contents(kFiles);
    for (auto& pages : contents) {
      for (uint32_t p = 0; p < kPagesPerFile; ++p) {
        const int64_t v = static_cast<int64_t>(rng.NextBelow(1000));
        initial_sum_ += v;
        pages.push_back(EncodeI64(v));
      }
    }
    return LoadAll(contents, &files_);
  }

  std::vector<Capability> files_;
  int64_t initial_sum_ = 0;
  std::atomic<uint64_t> commits_{0};
};

// --- transfer_cross_shard --------------------------------------------------------

class TransferCrossShard : public Workload {
 public:
  using Workload::Workload;
  static constexpr uint32_t kShards = 2;
  static constexpr uint32_t kFilesPerShard = 4;
  static constexpr int kMaxAttempts = 64;

  Status Setup(const std::string& dir) override {
    for (uint32_t k = 0; k < kShards; ++k) {
      ASSIGN_OR_RETURN(auto stack, ShardStack::Open(dir + "/shard" + std::to_string(k), true,
                                                    k, kShards, true));
      shards_.push_back(std::move(stack));
      shard_ptrs_.push_back(shards_.back().get());
    }
    RETURN_IF_ERROR(AttachCoordinators(shard_ptrs_));
    ASSIGN_OR_RETURN(loader_, MakeRouter(seed_ * 31 + 7));
    for (int c = 0; c < clients_; ++c) {
      ASSIGN_OR_RETURN(Routed r, MakeRouter(seed_ * 31 + 100 + 10 * c));
      conns_.push_back(std::move(r));
    }
    // Balances, then the files holding them: files [k*kFilesPerShard, ...) on shard k.
    Rng rng(seed_);
    std::vector<std::vector<Bytes>> contents(kShards * kFilesPerShard);
    for (uint32_t i = 0; i < contents.size(); ++i) {
      for (uint32_t p = 0; p < kPagesPerFile; ++p) {
        const int64_t v = 1000 + static_cast<int64_t>(rng.NextBelow(1000));
        initial_[i / kFilesPerShard] += v;
        contents[i].push_back(EncodeI64(v));
      }
    }
    std::vector<Capability> all;
    RETURN_IF_ERROR(LoadFiles(contents, clients_, [this](int t, size_t i) {
      auto client = conns_[t].router->ClientFor(static_cast<uint32_t>(i / kFilesPerShard));
      return client.ok() ? client->get() : nullptr;
    }, &all));
    for (uint32_t i = 0; i < all.size(); ++i) {
      const uint32_t k = i / kFilesPerShard;
      if (loader_.router->ShardOf(all[i]) != k) {
        return afs::InternalError("file placed on the wrong shard");
      }
      files_[k].push_back(all[i]);
    }
    return afs::OkStatus();
  }

  // Moves one unit between a page on shard 0 and a page on shard 1, redoing on conflict.
  Status Op(int c, Rng& rng, OpInfo* info) override {
    const Capability& fa = files_[0][rng.NextBelow(kFilesPerShard)];
    const Capability& fb = files_[1][rng.NextBelow(kFilesPerShard)];
    const PagePath pa{static_cast<uint32_t>(rng.NextBelow(kPagesPerFile))};
    const PagePath pb{static_cast<uint32_t>(rng.NextBelow(kPagesPerFile))};
    const int64_t to_shard0 = rng.NextBelow(2) == 0 ? 1 : -1;
    afs::ShardRouter* router = conns_[c].router.get();
    info->attempts = 0;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      ++info->attempts;
      Status st;
      {
        Timer t(&probes().client_call);
        afs::CrossTransaction txn(router);
        st = Transfer(&txn, fa, pa, fb, pb, to_shard0, info);
        if (!st.ok()) {
          (void)txn.Abort();
        }
      }
      if (st.ok()) {
        net_to_shard0_.fetch_add(to_shard0);
        info->user_bytes = 16;
        return st;
      }
      if (st.code() != afs::ErrorCode::kConflict) {
        return st;
      }
      ++info->cross_conflicts;
    }
    return afs::ConflictError("transfer still conflicting after retries");
  }

  // Balance is conserved; each shard moved by exactly its committed transfers; no version
  // family is left half-flipped (sharded fsck, in-doubt prepares counted as errors).
  std::string Check() override {
    int64_t sums[kShards] = {0, 0};
    for (uint32_t k = 0; k < kShards; ++k) {
      auto client = loader_.router->ClientFor(k);
      if (!client.ok()) {
        return client.status().ToString();
      }
      for (const Capability& file : files_[k]) {
        for (uint32_t p = 0; p < kPagesPerFile; ++p) {
          Result<Bytes> got = ReadCurrent(client->get(), file, p);
          if (!got.ok()) {
            return "read: " + got.status().ToString();
          }
          Result<int64_t> v = DecodeI64(*got);
          if (!v.ok()) {
            return v.status().ToString();
          }
          sums[k] += *v;
        }
      }
    }
    const int64_t net0 = net_to_shard0_.load();
    if (sums[0] + sums[1] != initial_[0] + initial_[1]) {
      return "total balance not conserved";
    }
    if (sums[0] - initial_[0] != net0 || sums[1] - initial_[1] != -net0) {
      return "a shard's net change differs from its committed transfers";
    }
    std::vector<afs::FileServer*> servers;
    for (auto& s : shards_) {
      s->StopCollector();
      servers.push_back(s->fs.get());
    }
    afs::FsckOptions options;
    options.fail_on_in_doubt = true;
    afs::ShardFsckReport report =
        afs::RunShardFsck(servers, shards_[0]->decision_log.get(), options);
    if (!report.clean) {
      return "shard fsck: " + (report.errors.empty() ? report.ToString() : report.errors.front());
    }
    return "";
  }

  void Teardown() override {
    conns_.clear();
    loader_ = Routed();
    for (auto& s : shards_) {
      s->Close();
    }
  }

 private:
  struct Routed {
    std::vector<std::unique_ptr<TimedTcpTransport>> transports;
    std::unique_ptr<afs::ShardRouter> router;
  };

  Result<Routed> MakeRouter(uint64_t seed) {
    Routed r;
    for (uint32_t k = 0; k < kShards; ++k) {
      r.transports.push_back(std::make_unique<TimedTcpTransport>(
          "127.0.0.1", shards_[k]->tcp_port(), seed + k, &probes().client_wire));
    }
    auto* transports = &r.transports;
    ASSIGN_OR_RETURN(r.router,
                     afs::ShardRouter::Make(LoopbackMap(shard_ptrs_),
                                            [transports](const afs::ShardEntry& e) -> afs::Transport* {
                                              return (*transports)[e.shard_id].get();
                                            }));
    return r;
  }

  static Status Move(afs::CrossTransaction* txn, const Capability& file, const PagePath& path,
                     int64_t delta) {
    ASSIGN_OR_RETURN(Capability v, txn->CreateVersion(file));
    ASSIGN_OR_RETURN(std::shared_ptr<FileClient> client, txn->Client(file));
    ASSIGN_OR_RETURN(FileClient::ReadResult r, client->ReadPage(v, path));
    ASSIGN_OR_RETURN(int64_t balance, DecodeI64(r.data));
    return client->WritePage(v, path, EncodeI64(balance + delta));
  }

  // Shard 0's version is opened first, so shard 0's coordinator runs every commit.
  static Status Transfer(afs::CrossTransaction* txn, const Capability& fa, const PagePath& pa,
                         const Capability& fb, const PagePath& pb, int64_t to_shard0,
                         OpInfo* info) {
    RETURN_IF_ERROR(Move(txn, fa, pa, to_shard0));
    RETURN_IF_ERROR(Move(txn, fb, pb, -to_shard0));
    const uint64_t start = NowNs();
    RETURN_IF_ERROR(txn->Commit().status());
    info->cross_commit_ns = NowNs() - start;
    return afs::OkStatus();
  }

  Routed loader_;
  std::vector<Routed> conns_;
  std::vector<Capability> files_[kShards];
  int64_t initial_[kShards] = {0, 0};
  std::atomic<int64_t> net_to_shard0_{0};
};

}  // namespace

int ClientLimit(const std::string& name) { return name == "transfer_cross_shard" ? 2 : 64; }

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, int clients) {
  if (name == "read_committed") {
    return std::make_unique<ReadCommitted>(seed, clients);
  }
  if (name == "update_disjoint") {
    return std::make_unique<UpdateDisjoint>(seed, clients);
  }
  if (name == "update_hot") {
    return std::make_unique<UpdateHot>(seed, clients);
  }
  if (name == "transfer_cross_shard") {
    return std::make_unique<TransferCrossShard>(seed, clients);
  }
  return nullptr;
}

}  // namespace loadbench
