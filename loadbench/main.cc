// afs_loadbench: closed-loop load on the durable TCP deployment, checked against
// client-side oracles. See README.md for the workloads, metrics and layer ledger.
//
//   afs_loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --store <dir>
//                 [--setups <n>]
//
// The last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the line before it stamps the host.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loadbench/deployment.h"
#include "loadbench/probes.h"
#include "loadbench/workloads.h"
#include "src/core/protocol.h"
#include "src/obs/span.h"

namespace loadbench {

extern std::atomic<uint64_t> g_fdatasync_calls;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string store;
  int setups = 5;
};

// A second of the window during which host CPU steal took more than this share of the
// host's CPU time is left out of the end-to-end figures.
constexpr double kStealLimit = 0.05;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Exact percentile (linear interpolation between closest ranks) of raw samples.
double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return static_cast<double>(v[lo]) + (rank - lo) * (static_cast<double>(v[hi]) - v[lo]);
}

// Histogram state, so a window's share can be taken as a difference.
struct Hist {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets = std::vector<uint64_t>(afs::obs::Histogram::kNumBuckets);

  static Hist Of(afs::obs::Histogram* h) {
    Hist s;
    s.count = h->count();
    s.sum = h->sum_ns();
    for (int i = 0; i < afs::obs::Histogram::kNumBuckets; ++i) {
      s.buckets[i] = h->bucket(i);
    }
    return s;
  }
  Hist operator-(const Hist& o) const {
    Hist d;
    d.count = count - o.count;
    d.sum = sum - o.sum;
    for (size_t i = 0; i < buckets.size(); ++i) {
      d.buckets[i] = buckets[i] - o.buckets[i];
    }
    return d;
  }
  Hist& operator+=(const Hist& o) {
    count += o.count;
    sum += o.sum;
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += o.buckets[i];
    }
    return *this;
  }
  // Percentile interpolated linearly inside its power-of-two bucket.
  double Percentile(double p) const {
    if (count == 0) {
      return 0;
    }
    const double target = p * static_cast<double>(count);
    double seen = 0;
    for (int i = 0; i < afs::obs::Histogram::kNumBuckets; ++i) {
      const double n = static_cast<double>(buckets[i]);
      if (n > 0 && seen + n >= target) {
        const double lo = static_cast<double>(afs::obs::Histogram::BucketLowerBound(i));
        const double hi = i == 0 ? 2.0 : 2.0 * lo;
        return lo + (hi - lo) * (target - seen) / n;
      }
      seen += n;
    }
    return 0;
  }
};

// Every always-on counter and histogram the ledger reads, summed over the shards.
struct Snapshot {
  std::map<std::string, double> v;
  Hist commit_latency;
  Hist group_size;

  double operator[](const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0 : it->second;
  }
};

Snapshot Take(const Workload& w, const std::vector<CollectorThread*>& gcs) {
  Snapshot s;
  auto& v = s.v;
  Probes& p = probes();
  v["store_seam_ns"] = p.store_seam.ns.load();
  v["device_ns"] = p.device.ns.load();
  v["client_call_ns"] = p.client_call.ns.load();
  v["client_wire_ns"] = p.client_wire.ns.load();
  v["client_wire_calls"] = p.client_wire.calls.load();
  v["coord_wire_ns"] = p.coord_wire.ns.load();
  v["coord_wire_calls"] = p.coord_wire.calls.load();
  v["seam_read"] = p.seam_blocks_read.load();
  v["seam_read_vec"] = p.seam_blocks_read_vectored.load();
  v["seam_written"] = p.seam_blocks_written.load();
  v["device_reads"] = p.device_reads.load();
  v["device_bytes"] = p.device_bytes_written.load();
  const std::string cross_op =
      "rpc.op." + std::to_string(static_cast<uint32_t>(afs::FileOp::kCrossCommit)) + ".handle_ns";
  for (ShardStack* st : w.shards()) {
    auto* fsm = st->fs->metrics();
    v["dispatch_ns"] += st->tcp->metrics()->histogram("net.tcp.dispatch_ns")->sum_ns();
    v["frames_in"] += st->tcp->metrics()->counter("net.tcp.frames_in")->value();
    v["fs_handle_ns"] += fsm->histogram("rpc.handle_ns")->sum_ns();
    v["cross_handle_ns"] += fsm->histogram(cross_op)->sum_ns();
    v["serialise_tests"] += fsm->counter("commit.serialise_tests")->value();
    v["conflicts"] += fsm->counter("commit.conflict_aborted")->value();
    v["index_hit"] += fsm->counter("commit.index_hit")->value();
    v["index_miss"] += fsm->counter("commit.index_miss")->value();
    v["cache_hit"] += fsm->counter("cache.hit")->value();
    v["cache_miss"] += fsm->counter("cache.miss")->value();
    v["block_handle_ns"] += st->block_a->metrics()->histogram("rpc.handle_ns")->sum_ns() +
                            st->block_b->metrics()->histogram("rpc.handle_ns")->sum_ns();
    v["block_rpcs"] += st->net.total_calls();
    v["retransmits"] += st->net.retransmits();
    v["appends"] += st->disk_a->journal_appends() + st->disk_b->journal_appends();
    v["fsyncs"] += st->disk_a->fsync_batches() + st->disk_b->fsync_batches();
    s.commit_latency += Hist::Of(fsm->histogram("commit.latency_ns"));
    s.group_size += Hist::Of(fsm->histogram("commit.group_size"));
  }
  for (CollectorThread* gc : gcs) {
    v["gc_swept"] += gc->blocks_swept();
  }
  return s;
}

struct Window {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;
  uint64_t attempts = 0;
  uint64_t cross_conflicts = 0;
  uint64_t user_bytes = 0;
  double seconds = 0;
  double latency_sum_ns = 0;  // operation time of every completed operation
  std::vector<uint64_t> cross_commit_ns;
  // Per whole second of the window: completions, their latencies, process CPU and the
  // host's steal share.
  std::vector<double> per_second;
  std::vector<std::vector<uint64_t>> latency_by_second;
  std::vector<double> cpu_by_second;
  std::vector<double> steal_by_second;
  double steal_share = 0;
  Snapshot before, after;
  std::vector<uint64_t> gc_cycle_ns;
  int64_t allocated_peak = 0;
  std::string first_error;

  double d(const std::string& k) const { return after[k] - before[k]; }
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
std::pair<double, double> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {0};
  in >> cpu;
  for (double& x : f) {
    in >> x;
  }
  double total = 0;
  for (double x : f) {
    total += x;
  }
  return {f[7], total};
}

Window RunWindow(Workload* w, const Args& args, int clients, double seconds) {
  std::vector<CollectorThread*> gcs;
  for (ShardStack* st : w->shards()) {
    gcs.push_back(st->gc.get());
    (void)st->gc->TakeCycleNs();
  }
  Window win;
  win.seconds = seconds;
  const int whole = std::max(1, static_cast<int>(seconds));
  struct PerClient {
    std::vector<uint64_t> latency_ns, cross_ns;
    std::vector<uint32_t> second;  // whole second of the window each operation ended in
    uint64_t attempted = 0, failed = 0, ops = 0, attempts = 0, cross_conflicts = 0,
             user_bytes = 0;
    std::string first_error;
  };
  std::vector<PerClient> pcs(clients);
  probes().allocated_peak.store(probes().allocated.load());
  win.before = Take(*w, gcs);
  const auto steal0 = StealJiffies();
  const double cpu0 = CpuSeconds();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  // Process CPU and host steal at each whole-second boundary of the window.
  std::vector<double> cpu_at(whole + 1, cpu0);
  std::vector<std::pair<double, double>> steal_at(whole + 1, steal0);
  std::thread sampler([&] {
    for (int i = 1; i <= whole; ++i) {
      const uint64_t due = start + static_cast<uint64_t>(i) * 1000000000ull;
      const uint64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      cpu_at[i] = CpuSeconds();
      steal_at[i] = StealJiffies();
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& pc = pcs[c];
      afs::Rng rng(args.seed * 1000003 + static_cast<uint64_t>(c) * 7919 + 1);
      while (NowNs() < deadline) {
        OpInfo info;
        const uint64_t t0 = NowNs();
        afs::Status st = w->Op(c, rng, &info);
        const uint64_t t1 = NowNs();
        ++pc.attempted;
        if (!st.ok()) {
          ++pc.failed;
          if (pc.first_error.empty()) {
            pc.first_error = st.ToString();
          }
          continue;
        }
        ++pc.ops;
        pc.attempts += info.attempts;
        pc.cross_conflicts += info.cross_conflicts;
        pc.user_bytes += info.user_bytes;
        pc.latency_ns.push_back(t1 - t0);
        pc.second.push_back(static_cast<uint32_t>((t1 - start) / 1000000000ull));
        if (info.cross_commit_ns > 0) {
          pc.cross_ns.push_back(info.cross_commit_ns);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  sampler.join();
  const auto steal1 = StealJiffies();
  win.after = Take(*w, gcs);
  win.allocated_peak = probes().allocated_peak.load();
  const double dt = steal1.second - steal0.second;
  win.steal_share = dt > 0 ? (steal1.first - steal0.first) / dt : 0;
  win.per_second.assign(whole, 0);
  win.latency_by_second.resize(whole);
  for (int i = 0; i < whole; ++i) {
    win.cpu_by_second.push_back(cpu_at[i + 1] - cpu_at[i]);
    const double jiffies = steal_at[i + 1].second - steal_at[i].second;
    win.steal_by_second.push_back(
        jiffies > 0 ? (steal_at[i + 1].first - steal_at[i].first) / jiffies : 0);
  }
  for (auto& pc : pcs) {
    for (size_t i = 0; i < pc.second.size(); ++i) {
      if (pc.second[i] < static_cast<uint32_t>(whole)) {
        win.per_second[pc.second[i]] += 1;
        win.latency_by_second[pc.second[i]].push_back(pc.latency_ns[i]);
      }
    }
    win.attempted += pc.attempted;
    win.failed += pc.failed;
    win.ops += pc.ops;
    win.attempts += pc.attempts;
    win.cross_conflicts += pc.cross_conflicts;
    win.user_bytes += pc.user_bytes;
    for (uint64_t x : pc.latency_ns) {
      win.latency_sum_ns += static_cast<double>(x);
    }
    win.cross_commit_ns.insert(win.cross_commit_ns.end(), pc.cross_ns.begin(), pc.cross_ns.end());
    if (win.first_error.empty()) {
      win.first_error = pc.first_error;
    }
  }
  for (CollectorThread* gc : gcs) {
    auto cycles = gc->TakeCycleNs();
    win.gc_cycle_ns.insert(win.gc_cycle_ns.end(), cycles.begin(), cycles.end());
  }
  return win;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FsType(const std::string& path) {
  struct statfs sf {};
  if (statfs(path.c_str(), &sf) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0;
  in >> one;
  return one;
}

class Json {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    metrics_ << (metrics_.tellp() > 0 ? ", " : "") << '"' << name << "\": {\"value\": " << buf
             << ", \"unit\": \"" << unit << "\"}";
  }
  std::string metrics() const { return metrics_.str(); }

 private:
  std::ostringstream metrics_;
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// The window's whole seconds whose host steal stayed within kStealLimit.
std::vector<size_t> QuietSeconds(const Window& win) {
  std::vector<size_t> quiet;
  for (size_t i = 0; i < win.steal_by_second.size(); ++i) {
    if (win.steal_by_second[i] <= kStealLimit) {
      quiet.push_back(i);
    }
  }
  return quiet;
}

// A window at least half of whose seconds were quiet.
bool Usable(const Window& win) { return 2 * QuietSeconds(win).size() >= win.per_second.size(); }

// The seconds the end-to-end figures are taken over: the quiet ones, or every second of an
// unusable window.
std::vector<size_t> MeasuredSeconds(const Window& win) {
  if (Usable(win)) {
    return QuietSeconds(win);
  }
  std::vector<size_t> all(win.per_second.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return all;
}

// Throughput as the windows report it: the median of the per-second completion counts.
double Throughput(const Window& win) {
  std::vector<double> counts;
  for (size_t i : MeasuredSeconds(win)) {
    counts.push_back(win.per_second[i]);
  }
  return Median(counts);
}

// The per-layer metrics of one traced window (README.md, "Layer ledger"). `untraced` are
// the untraced windows measured just before and just after it. Returns false when the
// ledger does not account for the operation time: the self times cover less than 0.9 of
// it, or negative self times (children overlapping or counted twice) add up to more than
// 0.1 of it.
bool LayerMetrics(const Window& win, const std::vector<const Window*>& untraced, Json* out) {
  const double ops = static_cast<double>(std::max<uint64_t>(win.ops, 1));
  const double ms = 1e6;  // ns per ms
  const double total_ns = win.latency_sum_ns;
  const double c = win.d("client_call_ns");
  const double w1 = win.d("client_wire_ns"), w2 = win.d("coord_wire_ns");
  const double disp = win.d("dispatch_ns"), handle = win.d("fs_handle_ns");
  const double cross = win.d("cross_handle_ns"), seam = win.d("store_seam_ns");
  const double dev = win.d("device_ns");
  const double self[] = {
      c - w1,                 // client
      w1 + w2 - disp,         // net
      disp - handle,          // rpc
      handle - cross - seam,  // core
      seam - dev,             // block
      dev,                    // store
      cross - w2,             // shard
  };
  const char* names[] = {"client", "net", "rpc", "core", "block", "store", "shard"};
  double covered = 0, overlap = 0;
  for (int i = 0; i < 7; ++i) {
    out->Metric(std::string(names[i]) + ".self_ms_per_op", self[i] / ops / ms, "ms");
    covered += self[i];
    overlap += std::max(0.0, -self[i]);
  }
  const double coverage = Ratio(covered, total_ns);
  const double overlap_share = Ratio(overlap, total_ns);
  if (coverage < 0.9) {
    std::fprintf(stderr, "layer ledger covers only %.3f of operation time\n", coverage);
  }
  if (overlap_share > 0.1) {
    std::fprintf(stderr, "negative self times add up to %.3f of operation time\n",
                 overlap_share);
  }

  out->Metric("client.rpcs_per_op", win.d("client_wire_calls") / ops, "count");
  out->Metric("client.attempts_per_op", win.attempts / ops, "count");
  out->Metric("net.frames_per_op", win.d("frames_in") / ops, "count");
  out->Metric("net.wire_ms_per_op", w1 / ops / ms, "ms");
  out->Metric("rpc.queue_wait_ms_per_op", (disp - handle) / ops / ms, "ms");
  out->Metric("core.handle_ms_per_op", handle / ops / ms, "ms");
  const Hist commit = win.after.commit_latency - win.before.commit_latency;
  out->Metric("core.commit_ms_p50", commit.Percentile(0.5) / ms, "ms");
  const Hist group = win.after.group_size - win.before.group_size;
  out->Metric("core.group_size_mean", Ratio(group.sum, group.count), "count");
  out->Metric("core.serialise_tests_per_commit", win.d("serialise_tests") / ops, "count");
  out->Metric("core.conflict_aborts_per_commit", win.d("conflicts") / ops, "count");
  out->Metric("core.index_hit_ratio",
              Ratio(win.d("index_hit"), win.d("index_hit") + win.d("index_miss")), "ratio");
  out->Metric("core.cache_hit_ratio",
              Ratio(win.d("cache_hit"), win.d("cache_hit") + win.d("cache_miss")), "ratio");
  out->Metric("core.gc_cycle_s", Percentile(win.gc_cycle_ns, 0.5) / 1e9, "s");
  out->Metric("core.gc_blocks_swept_per_op", win.d("gc_swept") / ops, "count");
  out->Metric("block.rpcs_per_op", win.d("block_rpcs") / ops, "count");
  out->Metric("block.reads_per_op", win.d("seam_read") / ops, "count");
  out->Metric("block.writes_per_op", win.d("seam_written") / ops, "count");
  out->Metric("block.vectored_read_share", Ratio(win.d("seam_read_vec"), win.d("seam_read")),
              "ratio");
  out->Metric("block.handle_ms_per_op", win.d("block_handle_ns") / ops / ms, "ms");
  out->Metric("block.allocated_blocks_peak", static_cast<double>(win.allocated_peak), "count");
  out->Metric("store.appends_per_op", win.d("appends") / ops, "count");
  out->Metric("store.fsyncs_per_op", win.d("fsyncs") / ops, "count");
  out->Metric("store.batch_records_mean", Ratio(win.d("appends"), win.d("fsyncs")), "count");
  out->Metric("store.durable_wait_ms_p50", Percentile(probes().device_write_ns.Take(), 0.5) / ms,
              "ms");
  out->Metric("store.bytes_per_user_byte", Ratio(win.d("device_bytes"), win.user_bytes),
              "ratio");
  out->Metric("store.reads_per_op", win.d("device_reads") / ops, "count");
  out->Metric("shard.cross_commit_ms_p50", Percentile(win.cross_commit_ns, 0.5) / ms, "ms");
  out->Metric("shard.rpcs_per_op", win.d("coord_wire_calls") / ops, "count");
  out->Metric("shard.cross_aborts_per_op", win.cross_conflicts / ops, "count");
  double untraced_ops_s = 0;
  for (const Window* u : untraced) {
    untraced_ops_s += Throughput(*u) / static_cast<double>(untraced.size());
  }
  out->Metric("trace.overhead_share", 1.0 - Ratio(Throughput(win), untraced_ops_s), "ratio");
  out->Metric("ledger.coverage", coverage, "ratio");
  out->Metric("ledger.overlap_share", overlap_share, "ratio");
  return coverage >= 0.9 && overlap_share <= 0.1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--store <dir> [--setups <n>]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure a build without NDEBUG\n");
  return 3;
#endif
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--store") {
      args.store = value;
    } else if (flag == "--setups") {
      args.setups = std::atoi(value.c_str());
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.workload.empty() || args.store.empty() || args.seconds <= 0 || args.setups < 1) {
    return Usage(argv[0]);
  }
  const int nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const int clients = std::min({nproc, 4, ClientLimit(args.workload)});

  // Set up several times; the last deployment is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < args.setups; ++i) {
    const std::string dir = args.store + "/setup" + std::to_string(i);
    probes().allocated.store(0);
    const uint64_t t0 = NowNs();
    w = MakeWorkload(args.workload, args.seed, clients);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    afs::Status st = w->Setup(dir);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      w->Teardown();
      return 1;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    Note("setup " + std::to_string(i) + " done");
    if (i + 1 < args.setups) {
      w->Teardown();
      w.reset();
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  // Every window's operations count in attempted and failed, reported or not.
  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  auto run = [&] {
    Window win = RunWindow(w.get(), args, clients, args.seconds);
    attempted += win.attempted;
    failed += win.failed;
    if (first_error.empty()) {
      first_error = win.first_error;
    }
    return win;
  };
  // Untraced: one window. Traced: a discarded warm-up window, then untraced, traced and
  // untraced windows, so the tracing overhead compares the traced window with untraced
  // ones on either side of it.
  Window win, before, after;
  if (!args.trace) {
    win = run();
  } else {
    (void)run();
    before = run();
    afs::obs::SetSpanEnabled(true);
    SetTracing(true);
    (void)probes().device_write_ns.Take();
    win = run();
    SetTracing(false);
    afs::obs::SetSpanEnabled(false);
    after = run();
  }
  Note("windows done; checking");
  const std::string check = w->Check();
  const uint64_t wrong = w->wrong();
  Note("checks done");
  w->Teardown();
  w.reset();
  Note("teardown done");

  Json json;
  bool correct = check.empty() && wrong == 0;
  if (args.trace) {
    if (!LayerMetrics(win, {&before, &after}, &json)) {
      correct = false;
    }
  } else {
    // Each a median over the window's quiet seconds: host CPU steal moves none of them
    // unless it disturbs more than half the window.
    std::vector<double> p50, p90, cpu;
    for (size_t i : MeasuredSeconds(win)) {
      if (win.per_second[i] > 0) {
        p50.push_back(Percentile(win.latency_by_second[i], 0.5) / 1e6);
        p90.push_back(Percentile(win.latency_by_second[i], 0.9) / 1e6);
        cpu.push_back(win.cpu_by_second[i] * 1e3 / win.per_second[i]);
      }
    }
    json.Metric("throughput_ops_s", Throughput(win), "1/s");
    json.Metric("latency_p50_ms", Median(p50), "ms");
    json.Metric("latency_p90_ms", Median(p90), "ms");
    json.Metric("cpu_ms_per_op", Median(cpu), "ms");
    json.Metric("setup_s", Median(setup_s), "s");
    json.Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  if (!check.empty()) {
    std::fprintf(stderr, "check failed: %s\n", check.c_str());
  }
  if (wrong > 0) {
    std::fprintf(stderr, "%llu reads returned wrong bytes\n", (unsigned long long)wrong);
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "first failed operation: %s\n", first_error.c_str());
  }
  const size_t quiet = QuietSeconds(win).size();
  const bool usable = Usable(win);
  if (!usable) {
    std::fprintf(stderr,
                 "host steal over %.2f in more than half the window's seconds: figures not "
                 "comparable\n",
                 kStealLimit);
  }

  std::printf(
      "{\"host\": {\"nproc\": %d, \"clients\": %d, \"build\": \"Release NDEBUG\", "
      "\"store_fs\": \"%s\", \"steal_share\": %.4f, \"steal_limit\": %.2f, "
      "\"quiet_seconds\": %zu, \"usable\": %s, \"loadavg_1m\": %.2f, "
      "\"ops\": %llu, \"seconds\": %.1f, \"block_rpc_retransmits\": %.0f, "
      "\"fdatasync_calls\": %llu}}\n",
      nproc, clients, FsType(args.store).c_str(), win.steal_share, kStealLimit,
      quiet, usable ? "true" : "false", LoadAverage(), (unsigned long long)win.ops, win.seconds,
      win.d("retransmits"),
      (unsigned long long)g_fdatasync_calls.load());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", (unsigned long long)std::max<uint64_t>(attempted, 1),
              (unsigned long long)failed, json.metrics().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) { return loadbench::Main(argc, argv); }
