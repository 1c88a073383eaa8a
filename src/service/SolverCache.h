//===- service/SolverCache.h - Shared keyed solver-cache registry -*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transient simulator's warm state (the built thermal network and the
/// uniform-grid fluid property tables) is per-object: it dies with the
/// simulator that built it. This registry lifts it to the service layer:
/// warmed sim::TransientSolverAssets are kept alive keyed on
/// (plant-config hash, dt) so concurrent transient requests sharing a
/// plant configuration skip the network build and the table resampling
/// instead of paying cold-start per query.
///
/// Because a thermal network must not be solved from two threads at once,
/// entries are handed out under exclusive move-only Leases. A second
/// request hitting a leased key builds a private detached entry (counted
/// as contention) rather than blocking the worker. Idle entries are
/// bounded by an LRU cap; invalidation marks leased entries stale so they
/// are discarded on release instead of being reinserted.
///
/// All shared state is RCS_GUARDED_BY-annotated (docs/STATIC_ANALYSIS.md
/// §4); entry construction runs outside the lock.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SERVICE_SOLVERCACHE_H
#define RCS_SERVICE_SOLVERCACHE_H

#include "sim/SolverAssets.h"
#include "sim/Transient.h"
#include "support/Status.h"
#include "support/ThreadSafety.h"
#include "system/Module.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace rcs {
namespace service {

/// Cache key: a canonical hash of the plant configuration plus the
/// integration step, compared bit-exactly.
struct SolverCacheKey {
  uint64_t ConfigHash = 0;
  /// Transient integration step, s.
  double DtS = 0.0;
};

bool operator==(const SolverCacheKey &A, const SolverCacheKey &B);

/// FNV-1a over the fields of \p Module and the asset-shaping tunables of
/// \p Sim that change solver state (the capacitance anchors). Two configs
/// hashing equal must produce interchangeable assets.
uint64_t hashPlantConfig(const rcsystem::ModuleConfig &Module,
                         const sim::TransientConfig &Sim);

/// What one cache entry keeps warm for its plant configuration.
struct PlantCacheEntry {
  std::unique_ptr<sim::TransientSolverAssets> Assets;
};

/// Counters for telemetry and tests. Hit rate = Hits / (Hits + Misses).
struct SolverCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Key present but leased out: a detached private entry was built.
  uint64_t Contended = 0;
  uint64_t Evictions = 0;
  uint64_t Invalidations = 0;
  size_t Entries = 0;
};

/// The shared, bounded, keyed cache of warmed plant evaluators.
class SolverCacheRegistry {
public:
  /// \p MaxEntries bounds resident entries (leased + idle); at the bound
  /// the least-recently-used idle entry is evicted to admit a new key.
  explicit SolverCacheRegistry(size_t MaxEntries = 16);
  ~SolverCacheRegistry();
  SolverCacheRegistry(const SolverCacheRegistry &) = delete;
  SolverCacheRegistry &operator=(const SolverCacheRegistry &) = delete;

  /// Builds the entry for a key on a miss. Runs outside the registry
  /// lock; must not call back into the registry.
  using BuildFn = std::function<Expected<PlantCacheEntry>()>;

  /// Exclusive handle to one entry. Returns it to the registry on
  /// destruction (detached/stale entries are discarded instead).
  class Lease {
  public:
    Lease() = default;
    Lease(Lease &&Other) noexcept;
    Lease &operator=(Lease &&Other) noexcept;
    ~Lease();
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

    /// True when this lease holds an entry (acquire succeeded).
    explicit operator bool() const { return Entry != nullptr; }
    PlantCacheEntry &entry() { return *Entry; }
    /// True when the entry was already warm (cache hit).
    bool warm() const { return Warm; }

  private:
    friend class SolverCacheRegistry;
    Lease(SolverCacheRegistry *Registry, uint64_t TokenIn,
          std::unique_ptr<PlantCacheEntry> EntryIn, bool WarmIn)
        : Registry(Registry), Token(TokenIn), Owned(std::move(EntryIn)),
          Warm(WarmIn) {
      Entry = Owned.get();
    }
    SolverCacheRegistry *Registry = nullptr;
    /// Unique id of the slot this entry returns to; 0 = detached (a
    /// contention/overflow private build whose entry dies with the
    /// lease).
    uint64_t Token = 0;
    std::unique_ptr<PlantCacheEntry> Owned;
    PlantCacheEntry *Entry = nullptr;
    bool Warm = false;
  };

  /// Returns an exclusive lease on the entry for \p Key, building it
  /// with \p Build on a miss (or when the resident entry is leased out).
  /// Fails only when \p Build fails.
  Expected<Lease> acquire(const SolverCacheKey &Key, const BuildFn &Build);

  /// Drops the entry for \p Key. A leased entry is marked stale and
  /// discarded when its lease returns.
  void invalidate(const SolverCacheKey &Key);

  /// Drops every entry (leased ones on release).
  void invalidateAll();

  SolverCacheStats stats() const;

private:
  struct Slot {
    SolverCacheKey Key;
    /// Process-unique slot id; how a returning lease finds its slot
    /// (indices shift under eviction, and a stale leased slot may
    /// coexist with a fresh slot for the same key).
    uint64_t Token = 0;
    /// Resident entry; null while leased out.
    std::unique_ptr<PlantCacheEntry> Entry;
    bool Leased = false;
    bool Stale = false;
    uint64_t LastUse = 0;
  };

  void release(uint64_t Token, std::unique_ptr<PlantCacheEntry> Entry);
  void recordUseCounters(bool Hit);

  const size_t MaxEntries;
  mutable rcs::Mutex Mu;
  std::vector<std::unique_ptr<Slot>> Slots RCS_GUARDED_BY(Mu);
  uint64_t UseClock RCS_GUARDED_BY(Mu) = 0;
  uint64_t NextToken RCS_GUARDED_BY(Mu) = 0;
  SolverCacheStats Counters RCS_GUARDED_BY(Mu);
};

} // namespace service
} // namespace rcs

#endif // RCS_SERVICE_SOLVERCACHE_H
