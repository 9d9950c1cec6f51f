// The store's flushes, as they cost on a memory-backed filesystem.
//
// The benchmark may write only inside its checkout, and the checkout sits on whatever disk
// the host gives it. On a shared VM disk fdatasync drifts from ~130 µs to several hundred
// and stalls for over a second now and then, past the 1 s RPC timeout of the block layer
// (README.md, "Store and flush policy"). So this binary defines fdatasync itself: every
// journal batch still calls it, at the same points and as often, but the call returns at
// once, as it does on tmpfs. The definition in the executable takes precedence over the C
// library's for every call the statically linked library code makes.

#include <atomic>
#include <cstdint>

namespace loadbench {
std::atomic<uint64_t> g_fdatasync_calls{0};
}  // namespace loadbench

extern "C" int fdatasync(int) {
  loadbench::g_fdatasync_calls.fetch_add(1, std::memory_order_relaxed);
  return 0;
}
