//! The one engine pool behind every campaign cell: `moheco-campaign` leases
//! from a quota-free pool under one fixed tenant, `moheco-serve` from a
//! shared, bounded, tenant-partitioned one.
//!
//! One engine lives per `(tenant, scenario, engine kind, estimator, cache
//! bound)`. An engine is never shared across scenarios: the cache keys
//! blocks by the design point, and two scenarios of equal dimension could
//! alias the same key to different simulation models. The tenant dimension
//! keeps one tenant's jobs from reading or evicting another tenant's warm
//! cache. Engines persist across cells and jobs, so a tenant resubmitting a
//! related spec hits its own warm blocks.
//!
//! Engines are stateful (active seed, cache, counters), so a slot is leased
//! to exactly one cell at a time: [`EnginePool::checkout`] blocks until the
//! slot is free and returns an RAII [`EngineLease`] on an engine prepared
//! for the cell (reseeded, then reset per the spec's [`EngineReuse`] mode);
//! dropping the lease frees the slot. Under the shared execution core,
//! several workers may execute cells of the *same* job concurrently; cells
//! of one `(job, scenario)` pair map to the same slot and therefore
//! serialize on its lease, while cells of different scenarios proceed in
//! parallel. That serialization is a throughput cost only — result bytes
//! are pinned by the core's in-order commit, not by which worker held a
//! lease when.
//!
//! Per-tenant cache quotas sit *on top of* each engine's own
//! `max_cached_blocks`: after a cell completes (and its lease is dropped),
//! [`crate::CellRunner`] calls [`EnginePool::enforce_tenant_quota`], which
//! trims the tenant's idle engines to an equal share of the quota. Busy
//! engines are skipped — never evict under a running batch — and get
//! trimmed when their own cell finishes, so enforcement is eventually
//! consistent but deadlock-free (no lease is ever held while waiting for
//! another).

use crate::jobspec::{EngineReuse, JobSpec};
use moheco_runtime::{EngineCacheUsage, EngineConfig, EvalEngine};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// The slot identity: everything that shapes an engine's behaviour, plus the
/// tenant partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SlotKey {
    tenant: String,
    scenario: String,
    engine: &'static str,
    estimator: &'static str,
    max_cached_blocks: usize,
}

struct Slot {
    engine: Arc<dyn EvalEngine>,
    /// `true` while a lease is out. Guarded by the pool mutex; the pool
    /// condvar wakes waiters on release.
    busy: bool,
}

/// The tenant-partitioned engine pool. Cheap to share (`Arc<EnginePool>`).
pub struct EnginePool {
    quota_blocks: usize,
    inner: Mutex<HashMap<SlotKey, Slot>>,
    freed: Condvar,
}

impl EnginePool {
    /// Creates an empty pool. `quota_blocks` caps each tenant's *total*
    /// cached blocks across all its engines (0 = no tenant quota).
    pub fn new(quota_blocks: usize) -> Self {
        Self {
            quota_blocks,
            inner: Mutex::new(HashMap::new()),
            freed: Condvar::new(),
        }
    }

    /// The configured per-tenant quota (blocks; 0 = unlimited).
    pub fn quota_blocks(&self) -> usize {
        self.quota_blocks
    }

    /// Leases the tenant's engine for one cell of `spec` on `scenario`,
    /// blocking while another cell holds it. The first checkout of a slot
    /// builds its engine from the spec's engine kind, estimator and cache
    /// bound. The engine comes back prepared: reseeded to `seed` and reset
    /// according to the spec's reuse mode (`Reset` empties the cache,
    /// `SharedCache` keeps it and zeroes only the counters).
    pub fn checkout(
        &self,
        tenant: &str,
        scenario: &str,
        spec: &JobSpec,
        seed: u64,
    ) -> EngineLease<'_> {
        let key = SlotKey {
            tenant: tenant.to_string(),
            scenario: scenario.to_string(),
            engine: spec.engine.label(),
            estimator: spec.estimator.label(),
            max_cached_blocks: spec.max_cached_blocks,
        };
        let mut inner = self.inner.lock().expect("pool lock");
        loop {
            let slot = inner.entry(key.clone()).or_insert_with(|| Slot {
                engine: spec.engine.build_with(EngineConfig {
                    seed,
                    estimator: spec.estimator,
                    max_cached_blocks: spec.max_cached_blocks,
                    ..EngineConfig::default()
                }),
                busy: false,
            });
            if !slot.busy {
                slot.busy = true;
                let engine = slot.engine.clone();
                engine.reseed(seed);
                match spec.reuse {
                    EngineReuse::Reset => engine.reset(),
                    EngineReuse::SharedCache => engine.reset_counters(),
                }
                return EngineLease {
                    pool: self,
                    key,
                    engine,
                };
            }
            inner = self.freed.wait(inner).expect("pool lock");
        }
    }

    /// Trims the tenant's engines so their combined cache stays within the
    /// quota: every engine holding blocks is cut to an equal share. Busy
    /// engines are skipped (their cell's own completion enforces the quota
    /// next); call this only after dropping your own lease. A no-op when no
    /// quota is configured or the tenant is within it.
    pub fn enforce_tenant_quota(&self, tenant: &str) {
        if self.quota_blocks == 0 {
            return;
        }
        // Snapshot the tenant's idle engines under the lock, trim outside it
        // (trimming can walk a large cache; holding the pool lock that long
        // would stall every checkout).
        let idle: Vec<Arc<dyn EvalEngine>> = {
            let inner = self.inner.lock().expect("pool lock");
            inner
                .iter()
                .filter(|(key, slot)| key.tenant == tenant && !slot.busy)
                .map(|(_, slot)| slot.engine.clone())
                .collect()
        };
        let total: usize = idle.iter().map(|e| e.cache_blocks()).sum();
        if total <= self.quota_blocks {
            return;
        }
        let holding = idle.iter().filter(|e| e.cache_blocks() > 0).count().max(1);
        let share = (self.quota_blocks / holding).max(1);
        for engine in &idle {
            if engine.cache_blocks() > share {
                engine.enforce_cache_limit(share);
            }
        }
    }

    /// Per-engine cache footprint of the whole pool, labelled
    /// `tenant/scenario/estimator` and sorted for deterministic exposition.
    pub fn usage(&self) -> Vec<EngineCacheUsage> {
        let inner = self.inner.lock().expect("pool lock");
        let mut usage: Vec<EngineCacheUsage> = inner
            .iter()
            .map(|(key, slot)| EngineCacheUsage {
                label: format!("{}/{}/{}", key.tenant, key.scenario, key.estimator),
                blocks: slot.engine.cache_blocks(),
                bytes: slot.engine.cache_bytes(),
            })
            .collect();
        usage.sort_by(|a, b| a.label.cmp(&b.label));
        usage
    }

    /// `(tenant, blocks, bytes)` cache totals per tenant, sorted by tenant.
    pub fn tenant_usage(&self) -> Vec<(String, usize, usize)> {
        let inner = self.inner.lock().expect("pool lock");
        let mut per_tenant: HashMap<&str, (usize, usize)> = HashMap::new();
        for (key, slot) in inner.iter() {
            let entry = per_tenant.entry(key.tenant.as_str()).or_default();
            entry.0 += slot.engine.cache_blocks();
            entry.1 += slot.engine.cache_bytes();
        }
        let mut rows: Vec<(String, usize, usize)> = per_tenant
            .into_iter()
            .map(|(t, (blocks, bytes))| (t.to_string(), blocks, bytes))
            .collect();
        rows.sort();
        rows
    }
}

/// An exclusive lease on one pool slot; dropping it frees the slot and
/// wakes one waiting [`EnginePool::checkout`].
pub struct EngineLease<'a> {
    pool: &'a EnginePool,
    key: SlotKey,
    /// The leased engine, prepared for the cell.
    pub engine: Arc<dyn EvalEngine>,
}

impl Drop for EngineLease<'_> {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock().expect("pool lock");
        if let Some(slot) = inner.get_mut(&self.key) {
            slot.busy = false;
        }
        self.pool.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algo, EngineKind};

    fn spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["margin_wall".into()],
            algos: vec![Algo::TwoStage],
            seeds: vec![1],
            engine: EngineKind::Serial,
            ..JobSpec::default()
        }
    }

    #[test]
    fn checkout_prepares_and_serializes_a_slot() {
        let pool = Arc::new(EnginePool::new(0));
        let lease = pool.checkout("acme", "margin_wall", &spec(), 7);
        assert_eq!(lease.engine.active_seed(), 7);
        // A second checkout of the same slot must wait for the lease.
        let contender = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let lease = pool.checkout("acme", "margin_wall", &spec(), 8);
                lease.engine.active_seed()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!contender.is_finished(), "contender must block on the slot");
        drop(lease);
        assert_eq!(contender.join().expect("contender"), 8);
    }

    #[test]
    fn checkout_prepares_the_engine_per_reuse_mode() {
        let scenario = moheco_scenarios::find_scenario("margin_wall").expect("registered");
        for reuse in [EngineReuse::Reset, EngineReuse::SharedCache] {
            let spec = JobSpec { reuse, ..spec() };
            let pool = EnginePool::new(0);
            let warmed = {
                let lease = pool.checkout("acme", "margin_wall", &spec, 3);
                crate::RunSpec::new(scenario.as_ref(), Algo::TwoStage)
                    .budget(crate::BudgetClass::Tiny)
                    .seed(3)
                    .engine(lease.engine.clone())
                    .execute();
                assert!(lease.engine.simulations() > 0);
                lease.engine.cache_blocks()
            };
            assert!(warmed > 0, "the cell must leave cached blocks");
            let lease = pool.checkout("acme", "margin_wall", &spec, 5);
            let engine = &lease.engine;
            assert_eq!(engine.active_seed(), 5, "{reuse:?}");
            assert_eq!(engine.simulations(), 0, "{reuse:?}");
            assert_eq!(engine.stats().cache_hits, 0, "{reuse:?}");
            let kept = match reuse {
                EngineReuse::Reset => 0,
                EngineReuse::SharedCache => warmed,
            };
            assert_eq!(engine.cache_blocks(), kept, "{reuse:?}");
        }
    }

    #[test]
    fn tenants_get_distinct_engines() {
        let pool = EnginePool::new(0);
        let a = pool.checkout("acme", "margin_wall", &spec(), 1);
        // Does not block: different tenant, different slot.
        let b = pool.checkout("beta", "margin_wall", &spec(), 1);
        assert!(!Arc::ptr_eq(&a.engine, &b.engine));
        drop((a, b));
        assert_eq!(pool.usage().len(), 2);
        assert_eq!(pool.tenant_usage().len(), 2);
    }
}
