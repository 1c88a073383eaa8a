//===- service/SolverCache.cpp - Shared keyed solver-cache registry -----------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SolverCache.h"

#include "telemetry/Telemetry.h"

#include <cassert>
#include <cstring>

using namespace rcs;
using namespace rcs::service;

bool rcs::service::operator==(const SolverCacheKey &A,
                              const SolverCacheKey &B) {
  // dt is a cache key, not a tolerance comparison: entries are
  // interchangeable only at bit-identical steps (thermal::ThermalNetwork
  // keys its transient factor the same way).
  return A.ConfigHash == B.ConfigHash && A.DtS == B.DtS;
}

namespace {

/// FNV-1a fold helpers. Doubles are folded by representation so any
/// parameter change (however small) produces a distinct plant hash.
constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

void foldBytes(uint64_t &Hash, const void *Bytes, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Bytes);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= P[I];
    Hash *= FnvPrime;
  }
}

void fold(uint64_t &Hash, double Value) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(Value), "double must be 64-bit");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  foldBytes(Hash, &Bits, sizeof(Bits));
}

void fold(uint64_t &Hash, int Value) {
  foldBytes(Hash, &Value, sizeof(Value));
}

void fold(uint64_t &Hash, bool Value) {
  unsigned char Byte = Value ? 1 : 0;
  foldBytes(Hash, &Byte, sizeof(Byte));
}

void fold(uint64_t &Hash, const std::string &Value) {
  foldBytes(Hash, Value.data(), Value.size());
  // Terminator byte so {"ab","c"} and {"a","bc"} fold differently.
  unsigned char Zero = 0;
  foldBytes(Hash, &Zero, sizeof(Zero));
}

} // namespace

uint64_t
rcs::service::hashPlantConfig(const rcsystem::ModuleConfig &Module,
                              const sim::TransientConfig &Sim) {
  uint64_t Hash = FnvOffset;
  fold(Hash, Module.Name);
  fold(Hash, Module.HeightU);
  fold(Hash, Module.NumCcbs);
  fold(Hash, static_cast<int>(Module.Board.Model));
  fold(Hash, Module.Board.NumComputeFpgas);
  fold(Hash, Module.Board.SeparateControllerFpga);
  fold(Hash, Module.Board.ControllerOverheadFraction);
  fold(Hash, Module.Board.ControllerPowerFraction);
  fold(Hash, Module.Board.MiscPowerW);
  fold(Hash, Module.Load.Utilization);
  fold(Hash, Module.Load.ClockFraction);
  fold(Hash, Module.NumPsus);
  fold(Hash, Module.PsuRatedPowerW);
  fold(Hash, static_cast<int>(Module.Cooling));
  const rcsystem::ImmersionCoolingConfig &Im = Module.Immersion;
  fold(Hash, static_cast<int>(Im.CoolantKind));
  fold(Hash, Im.PumpRatedFlowM3PerS);
  fold(Hash, Im.PumpRatedHeadPa);
  fold(Hash, Im.NumPumps);
  fold(Hash, Im.ImmersedPumps);
  fold(Hash, Im.BathFlowAreaM2);
  fold(Hash, Im.BathLossCoefficient);
  fold(Hash, Im.HxUaWPerK);
  fold(Hash, Im.HxOilRatedFlowM3PerS);
  fold(Hash, Im.HxOilRatedDropPa);
  fold(Hash, static_cast<int>(Im.Tim));
  fold(Hash, Im.TimExposureHours);
  fold(Hash, static_cast<int>(Im.Distribution));
  // The asset-shaping engine tunables: the capacitance anchors change
  // warm state, so they key it.
  fold(Hash, Sim.ChipCapacitancePerFpgaJPerK);
  fold(Hash, Sim.OilVolumeM3);
  return Hash;
}

//===----------------------------------------------------------------------===//
// Lease
//===----------------------------------------------------------------------===//

SolverCacheRegistry::Lease::Lease(Lease &&Other) noexcept
    : Registry(Other.Registry), Token(Other.Token),
      Owned(std::move(Other.Owned)), Entry(Other.Entry),
      Warm(Other.Warm) {
  Other.Registry = nullptr;
  Other.Entry = nullptr;
  Other.Token = 0;
}

SolverCacheRegistry::Lease &
SolverCacheRegistry::Lease::operator=(Lease &&Other) noexcept {
  if (this != &Other) {
    if (Registry && Owned)
      Registry->release(Token, std::move(Owned));
    Registry = Other.Registry;
    Token = Other.Token;
    Owned = std::move(Other.Owned);
    Entry = Other.Entry;
    Warm = Other.Warm;
    Other.Registry = nullptr;
    Other.Entry = nullptr;
    Other.Token = 0;
  }
  return *this;
}

SolverCacheRegistry::Lease::~Lease() {
  if (Registry && Owned)
    Registry->release(Token, std::move(Owned));
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

SolverCacheRegistry::SolverCacheRegistry(size_t MaxEntriesIn)
    : MaxEntries(MaxEntriesIn == 0 ? 1 : MaxEntriesIn) {}

SolverCacheRegistry::~SolverCacheRegistry() = default;

void SolverCacheRegistry::recordUseCounters(bool Hit) {
  // Registry-global mirrors so the service hit rate shows up in the
  // Prometheus exposition without polling every instance.
  telemetry::Registry &Telemetry = telemetry::Registry::global();
  static telemetry::Counter &Hits =
      Telemetry.counter("service.cache.hits");
  static telemetry::Counter &Misses =
      Telemetry.counter("service.cache.misses");
  (Hit ? Hits : Misses).add();
}

Expected<SolverCacheRegistry::Lease>
SolverCacheRegistry::acquire(const SolverCacheKey &Key,
                             const BuildFn &Build) {
  {
    LockGuard Lock(Mu);
    for (std::unique_ptr<Slot> &S : Slots) {
      if (!(S->Key == Key) || S->Stale)
        continue;
      if (S->Leased) {
        // The warm entry exists but is busy in another worker: build a
        // private detached entry rather than serializing the batch.
        ++Counters.Contended;
        break;
      }
      S->Leased = true;
      S->LastUse = ++UseClock;
      ++Counters.Hits;
      std::unique_ptr<PlantCacheEntry> Entry = std::move(S->Entry);
      recordUseCounters(/*Hit=*/true);
      return Lease(this, S->Token, std::move(Entry), /*Warm=*/true);
    }
    ++Counters.Misses;
  }
  recordUseCounters(/*Hit=*/false);

  // Build outside the lock: asset construction (fluid tables, property
  // resampling) is the expensive part the cache exists to amortize.
  Expected<PlantCacheEntry> Built = Build();
  if (!Built)
    return Expected<Lease>::error(Built.message());
  auto Entry = std::make_unique<PlantCacheEntry>(std::move(*Built));

  LockGuard Lock(Mu);
  // Another worker may have inserted the key meanwhile; keep ours
  // detached then (one resident entry per key).
  for (const std::unique_ptr<Slot> &S : Slots)
    if (S->Key == Key && !S->Stale)
      return Lease(this, /*Token=*/0, std::move(Entry), /*Warm=*/false);

  if (Slots.size() >= MaxEntries) {
    // Evict the least-recently-used idle slot; with every slot leased
    // the new entry stays detached (the bound holds).
    size_t Victim = SIZE_MAX;
    for (size_t I = 0; I != Slots.size(); ++I) {
      if (Slots[I]->Leased)
        continue;
      if (Victim == SIZE_MAX ||
          Slots[I]->LastUse < Slots[Victim]->LastUse)
        Victim = I;
    }
    if (Victim == SIZE_MAX)
      return Lease(this, /*Token=*/0, std::move(Entry), /*Warm=*/false);
    Slots.erase(Slots.begin() + static_cast<ptrdiff_t>(Victim));
    ++Counters.Evictions;
  }

  auto NewSlot = std::make_unique<Slot>();
  NewSlot->Key = Key;
  NewSlot->Token = ++NextToken;
  NewSlot->Leased = true;
  NewSlot->LastUse = ++UseClock;
  uint64_t Token = NewSlot->Token;
  Slots.push_back(std::move(NewSlot));
  return Lease(this, Token, std::move(Entry), /*Warm=*/false);
}

void SolverCacheRegistry::release(uint64_t Token,
                                  std::unique_ptr<PlantCacheEntry> Entry) {
  if (Token == 0)
    return; // Detached: the entry dies here.
  LockGuard Lock(Mu);
  for (size_t I = 0; I != Slots.size(); ++I) {
    Slot &S = *Slots[I];
    if (S.Token != Token)
      continue;
    if (S.Stale) {
      Slots.erase(Slots.begin() + static_cast<ptrdiff_t>(I));
      return;
    }
    S.Leased = false;
    S.Entry = std::move(Entry);
    return;
  }
  // The slot was invalidated-and-erased while leased out; nothing to
  // restore.
}

void SolverCacheRegistry::invalidate(const SolverCacheKey &Key) {
  LockGuard Lock(Mu);
  for (size_t I = 0; I != Slots.size(); ++I) {
    if (!(Slots[I]->Key == Key))
      continue;
    ++Counters.Invalidations;
    if (Slots[I]->Leased)
      Slots[I]->Stale = true;
    else
      Slots.erase(Slots.begin() + static_cast<ptrdiff_t>(I));
    return;
  }
}

void SolverCacheRegistry::invalidateAll() {
  LockGuard Lock(Mu);
  for (size_t I = Slots.size(); I != 0; --I) {
    Slot &S = *Slots[I - 1];
    ++Counters.Invalidations;
    if (S.Leased)
      S.Stale = true;
    else
      Slots.erase(Slots.begin() + static_cast<ptrdiff_t>(I - 1));
  }
}

SolverCacheStats SolverCacheRegistry::stats() const {
  LockGuard Lock(Mu);
  SolverCacheStats Out = Counters;
  Out.Entries = Slots.size();
  return Out;
}
