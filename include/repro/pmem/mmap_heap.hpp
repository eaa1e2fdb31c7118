// File-backed persistent heap: the mmap durability backend.
//
// Everything the paper calls "NVRAM" — announcement boards, structure
// heads, pool slabs full of nodes — lives in one MAP_SHARED file, so a
// process that dies (including kill -9) leaves its durable image in
// the page cache / on disk, and a *fresh* process can map the same
// file and read it back.  This is what turns the detectability
// contract from an in-process simulation (shadow-NVM, PR 4/5) into a
// claim about real crashes: harness/killfuzz.hpp forks a workload
// child against this heap, SIGKILLs it, and re-attaches in a verifier
// process that replays AnnouncementBoard::recover() against the file.
//
// Pointer representation: rebase-on-open.  The first attach picks a
// fixed virtual base (recorded in the header) and every later attach
// maps the file at that exact address, so the raw pointers the
// structures store in persist<Node*> cells are valid verbatim in every
// process that ever maps the heap.  This keeps the ds/ cores byte-for-
// byte identical between volatile and persistent operation — the
// alternative (offset pointers) would tax every link dereference and
// fork the core implementations.  The base constants avoid the
// sanitizer shadow regions (TSan's low app range, ASan's HighMem) and
// a handful of stepped candidates are tried before giving up;
// attach() returning nullptr means "this environment cannot map
// there", which callers (tests) treat as a skip, not a failure.
//
// Layout:
//   [0, 4096)        Header — magic/version, chosen base, file size,
//                    persistent bump offset, root directory (named
//                    slots, each {name, offset, initialized}).
//   [4096, bytes)    Arena — 64-byte-aligned bump allocations: root
//                    objects (whole structures: board + heads inline)
//                    and the 64 KiB slabs mem/pool.hpp carves its node
//                    cells from (attach installs the slab source).
//
// Root creation publishes in three persisted steps (object contents,
// then name+offset, then the initialized flag), so a kill can only
// leave an absent or an uninitialized slot — never a dangling one; a
// torn slot is reused by the next creator.  All heap-internal metadata
// persists through pmem::persist_range_raw, which neither counts in
// the per-op tallies nor advances the crash/kill countdowns — replay
// determinism must not depend on how many slabs the allocator carved.
//
// Crash-consistency of the *allocator* is deliberately simple: bump
// never rewinds, and space owned by a killed process's volatile free
// lists is simply leaked inside the file (bounded by the trial's live
// set).  The kill harness reuses or deletes its heap file per trial,
// so the leak never accumulates.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "repro/mem/pool.hpp"
#include "repro/pmem/persist.hpp"

namespace repro::pmem {

class MmapHeap {
 public:
  static constexpr std::uint64_t kMagic = 0x5250'4d48'4541'5031ull;
  static constexpr std::uint64_t kVersion = 1;
  static constexpr std::size_t kHeaderBytes = 4096;
  static constexpr std::size_t kDefaultBytes = std::size_t{64} << 20;
  static constexpr int kMaxRoots = 16;
  static constexpr std::size_t kRootNameBytes = 40;

  // Fixed-base candidates.  TSan maps its shadow over most of the
  // address space and only tolerates application memory in its app
  // ranges; the low range ends at 0x008000000000, so candidates step
  // inside it.  Everywhere else (ASan HighMem starts below this, plain
  // builds don't care) a high address clear of the PIE image
  // (0x5555...) and the mmap region (0x7f...) is used.
#if defined(__SANITIZE_THREAD__)
#define REPRO_MMAP_HEAP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define REPRO_MMAP_HEAP_TSAN 1
#endif
#endif
#ifdef REPRO_MMAP_HEAP_TSAN
  static constexpr std::uintptr_t kBase = 0x0070'0000'0000ull;
  static constexpr std::uintptr_t kBaseStep = 0x0002'0000'0000ull;
#else
  static constexpr std::uintptr_t kBase = 0x5100'0000'0000ull;
  static constexpr std::uintptr_t kBaseStep = 0x0010'0000'0000ull;
#endif
  static constexpr int kBaseTries = 8;

  struct RootSlot {
    char name[kRootNameBytes];
    std::uint64_t offset;       // from the mapping base
    std::uint64_t initialized;  // set (and persisted) after the ctor
  };

  struct Header {
    std::uint64_t magic;
    std::uint64_t version;
    std::uint64_t base;       // the address every attach must map at
    std::uint64_t bytes;      // file / mapping size
    std::uint64_t arena_off;  // first allocatable byte
    alignas(8) std::uint64_t bump;  // next free arena byte (atomic_ref)
    RootSlot roots[kMaxRoots];
  };
  static_assert(sizeof(Header) <= kHeaderBytes,
                "heap header must fit the first page");

  // The process-wide attached heap (at most one at a time).
  static MmapHeap* active() { return active_cell(); }

  // Opens (creating if absent) `path` and maps it at its fixed base.
  // Returns nullptr if the file exists but is not a heap, the base is
  // unavailable in this process, or no candidate base can be mapped —
  // environment-caused failures callers should skip on, not crash on.
  static MmapHeap* attach(const std::string& path,
                          std::size_t bytes = kDefaultBytes) {
    if (active_cell() != nullptr) return nullptr;
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return nullptr;

    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return nullptr;
    }

    bool existing = false;
    std::uintptr_t base = 0;
    std::size_t total = bytes < (std::size_t{1} << 20)
                            ? (std::size_t{1} << 20)
                            : bytes;
    if (static_cast<std::size_t>(st.st_size) >= kHeaderBytes) {
      Header probe{};
      if (::pread(fd, &probe, sizeof(probe), 0) ==
              static_cast<ssize_t>(sizeof(probe)) &&
          probe.magic == kMagic) {
        if (probe.version != kVersion) {
          ::close(fd);
          return nullptr;
        }
        existing = true;
        base = static_cast<std::uintptr_t>(probe.base);
        total = static_cast<std::size_t>(probe.bytes);
      }
    }

    void* map = MAP_FAILED;
    if (existing) {
      map = map_at(fd, base, total);
      if (map == nullptr) {
        ::close(fd);
        return nullptr;
      }
    } else {
      if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
        ::close(fd);
        return nullptr;
      }
      for (int i = 0; i < kBaseTries; ++i) {
        const std::uintptr_t cand = kBase + kBaseStep * static_cast<std::uintptr_t>(i);
        map = map_at(fd, cand, total);
        if (map != nullptr) {
          base = cand;
          break;
        }
      }
      if (map == nullptr || map == MAP_FAILED) {
        ::close(fd);
        return nullptr;
      }
      auto* h = static_cast<Header*>(map);
      std::memset(h, 0, sizeof(Header));
      h->version = kVersion;
      h->base = static_cast<std::uint64_t>(base);
      h->bytes = static_cast<std::uint64_t>(total);
      h->arena_off = kHeaderBytes;
      h->bump = kHeaderBytes;
      persist_range_raw(h, sizeof(Header));
      // Magic last: a heap file is only recognised once its header is
      // fully durable, so a kill mid-format reads as "not a heap".
      h->magic = kMagic;
      persist_range_raw(&h->magic, sizeof(h->magic));
    }
    ::close(fd);  // the mapping outlives the descriptor

    auto* heap = new MmapHeap(path, base, total);
    active_cell() = heap;

    // A recovered process never saw the killed writer's per-slab
    // SlabDirectory registrations; vouch for the arena's used extent
    // wholesale so durable walks accept mapped node pointers.  The
    // extent mixes every pool's slabs, so it registers on the finest
    // cell grid.
    const std::uint64_t used = std::atomic_ref<std::uint64_t>(
                                   heap->header()->bump)
                                   .load(std::memory_order_relaxed);
    if (existing && used > heap->header()->arena_off) {
      mem::SlabDirectory::instance().add(
          reinterpret_cast<void*>(base + heap->header()->arena_off),
          static_cast<std::size_t>(used - heap->header()->arena_off),
          mem::kMinCellBytes);
    }
    mem::set_slab_source(&MmapHeap::carve_slab);
    set_msync_hook(&MmapHeap::msync_active);
    return heap;
  }

  // Unmaps the active heap (msyncing it durable first) and uninstalls
  // the pool/fence hooks.  Pool shards may still hold cells carved
  // from the mapped arena: re-attaching the *same* file revalidates
  // them (same base, same contents); attaching a different file from
  // the same process after pool use is not supported.
  static void detach() {
    MmapHeap* h = active_cell();
    if (h == nullptr) return;
    mem::set_slab_source(nullptr);
    set_msync_hook(nullptr);
    h->sync();
    ::munmap(reinterpret_cast<void*>(h->base_), h->bytes_);
    active_cell() = nullptr;
    delete h;
  }

  Header* header() { return reinterpret_cast<Header*>(base_); }
  const Header* header() const {
    return reinterpret_cast<const Header*>(base_);
  }
  std::uintptr_t base() const { return base_; }
  std::size_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }
  std::uint64_t used_bytes() const {
    // atomic_ref<const T> is C++26; the cast is sound (the referent is
    // mutable mapped memory).
    return std::atomic_ref<std::uint64_t>(
               const_cast<Header*>(header())->bump)
        .load(std::memory_order_relaxed);
  }

  // Bump-allocates `n` bytes (rounded up to whole cache lines) from
  // the arena; nullptr when the file is full.  The bump offset is
  // persisted raw — see the header comment for why it must not count.
  void* alloc(std::size_t n) {
    const std::uint64_t need =
        (static_cast<std::uint64_t>(n) + 63u) & ~std::uint64_t{63};
    std::atomic_ref<std::uint64_t> bump(header()->bump);
    const std::uint64_t off =
        bump.fetch_add(need, std::memory_order_relaxed);
    if (off + need > header()->bytes) {
      bump.fetch_sub(need, std::memory_order_relaxed);
      return nullptr;
    }
    persist_range_raw(&header()->bump, sizeof(std::uint64_t));
    return reinterpret_cast<void*>(base_ + off);
  }

  // Create-or-reattach a named root object.  First call constructs a T
  // in the arena and publishes it (contents, then name+offset, then
  // the initialized flag — each persisted before the next); later
  // calls, in this or any other process mapping the file, return the
  // same object WITHOUT re-running the constructor.  A slot whose
  // creator died before the flag was persisted is reused.
  template <typename T, typename... Args>
  T* root(const char* name, Args&&... args) {
    std::lock_guard<std::mutex> lock(roots_mu_);
    Header* h = header();
    RootSlot* free_slot = nullptr;
    for (int i = 0; i < kMaxRoots; ++i) {
      RootSlot& s = h->roots[i];
      if (s.name[0] == '\0') {
        if (free_slot == nullptr) free_slot = &s;
        continue;
      }
      if (std::strncmp(s.name, name, kRootNameBytes) == 0) {
        if (s.initialized != 0) {
          return reinterpret_cast<T*>(base_ + s.offset);
        }
        free_slot = &s;  // torn creation: redo it in this slot
        break;
      }
    }
    if (free_slot == nullptr) return nullptr;  // directory full
    void* p = alloc(sizeof(T));
    if (p == nullptr) return nullptr;
    T* obj = ::new (p) T(std::forward<Args>(args)...);
    persist_range_raw(p, sizeof(T));
    std::memset(free_slot->name, 0, kRootNameBytes);
    std::strncpy(free_slot->name, name, kRootNameBytes - 1);
    free_slot->offset =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p) -
                                   base_);
    persist_range_raw(free_slot, sizeof(RootSlot));
    free_slot->initialized = 1;
    persist_range_raw(&free_slot->initialized,
                      sizeof(free_slot->initialized));
    return obj;
  }

  // Reattach-only lookup: never constructs.  nullptr when the name is
  // absent or its creator died mid-construction — for the kill
  // verifier both mean "the trial ended before setup finished".
  template <typename T>
  T* find_root(const char* name) {
    std::lock_guard<std::mutex> lock(roots_mu_);
    Header* h = header();
    for (int i = 0; i < kMaxRoots; ++i) {
      RootSlot& s = h->roots[i];
      if (s.name[0] != '\0' && s.initialized != 0 &&
          std::strncmp(s.name, name, kRootNameBytes) == 0) {
        return reinterpret_cast<T*>(base_ + s.offset);
      }
    }
    return nullptr;
  }

  // Block until the whole mapping is durable on its backing file.
  void sync() const {
    ::msync(reinterpret_cast<void*>(base_), bytes_, MS_SYNC);
  }

  MmapHeap(const MmapHeap&) = delete;
  MmapHeap& operator=(const MmapHeap&) = delete;

 private:
  MmapHeap(std::string path, std::uintptr_t base, std::size_t bytes)
      : path_(std::move(path)), base_(base), bytes_(bytes) {}
  ~MmapHeap() = default;

  static MmapHeap*& active_cell() {
    static MmapHeap* h = nullptr;
    return h;
  }

  // Map `fd` at exactly `addr`, or nullptr.  MAP_FIXED_NOREPLACE never
  // clobbers an existing mapping; where the flag is unknown the plain
  // hint is used and a relocated result rejected.
  static void* map_at(int fd, std::uintptr_t addr, std::size_t len) {
    int flags = MAP_SHARED;
#ifdef MAP_FIXED_NOREPLACE
    flags |= MAP_FIXED_NOREPLACE;
#endif
    void* map = ::mmap(reinterpret_cast<void*>(addr), len,
                       PROT_READ | PROT_WRITE, flags, fd, 0);
    if (map == MAP_FAILED) return nullptr;
    if (reinterpret_cast<std::uintptr_t>(map) != addr) {
      ::munmap(map, len);
      return nullptr;
    }
    return map;
  }

  // mem/pool.hpp slab source: carve pool slabs from the arena while a
  // heap is attached (nullptr return falls back to the volatile path).
  static void* carve_slab(std::size_t bytes) {
    MmapHeap* h = active_cell();
    return h != nullptr ? h->alloc(bytes) : nullptr;
  }

  // Non-x86 fence/psync fallback (see persist.hpp).
  static void msync_active() {
    if (MmapHeap* h = active_cell()) h->sync();
  }

  std::string path_;
  std::uintptr_t base_ = 0;
  std::size_t bytes_ = 0;
  std::mutex roots_mu_;
};

}  // namespace repro::pmem
