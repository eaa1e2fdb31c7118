// Publish-on-ping epoch reclamation (the PPoPP'25 "POP" idea applied
// to the three-epoch scheme in ebr.hpp) — the third scheme behind the
// Reclaimer concept.
//
// EBR's steady-state guard cost is two loads and a branch: one of the
// *global* epoch counter (shared, invalidated on every advance) and
// one of the slot's own announcement.  ebr.hpp's header documents why
// the re-announcement store is expensive (~20% of throughput when paid
// per-op); POP removes the remaining shared read too.  A POP guard
// never reads the global epoch on entry — it checks only two
// slot-local words: its announcement (is the slot quiescent?) and a
// `ping` flag that *reclaiming* threads set when they find the slot's
// announcement lagging.  Steady state is therefore entirely
// slot-local: no shared-cache-line traffic at all until someone
// actually needs this thread to move.  The asymmetry matches the
// workload — guard entries happen every operation, epoch advances once
// per kAdvanceEvery retires per thread.
//
// Safety is unchanged from EBR: an announcement, once published, is
// refreshed only at guard *entry* (outside any critical section), so a
// lagging announcement is conservative — it holds the epoch back,
// never lets reclamation run early.  try_advance refuses to advance
// past a lagging pinned slot and instead sets its ping; the slot
// re-announces (seq_cst) on its next operation, and the advance
// succeeds on a later scan.  The liveness trade is one extra
// advance-scan round-trip per epoch per lagging thread.
//
// POP is not a second engine: it is EpochEngine's Freshness::on_ping
// rule, so limbo lists, pause-parking, the drain/walk hooks and the
// pooled facade are the very code EBR runs.
#pragma once

#include "repro/mem/ebr.hpp"

namespace repro::mem {

using PopDomain = EpochEngine<Freshness::on_ping>;
using PopReclaimer = PooledReclaimer<PopDomain>;

}  // namespace repro::mem
