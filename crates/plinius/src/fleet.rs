//! The multi-tenant fleet layer: N concurrent training jobs on one PM module.
//!
//! The paper assumes one training job owns the PM module end-to-end. This module
//! removes that assumption:
//!
//! * **Region sharding** — the Romulus root directory is carved into per-tenant
//!   root pairs ([`TenantId::model_root`] / [`TenantId::dataset_root`]), so every
//!   tenant's mirror ring and PM dataset hang off its own roots. Publishes write
//!   only the publishing tenant's allocations (both twin copies receive identical
//!   bytes), so a mid-publish crash of tenant A is recovered without ever touching
//!   the bytes reachable from tenant B's roots — crash isolation is structural,
//!   not cooperative.
//! * **Key sharding** — each tenant's model key is derived in the enclave layer
//!   ([`Enclave::tenant_sealing_key`](plinius_sgx::Enclave::tenant_sealing_key)):
//!   HMAC of the platform sealing secret over `measurement ‖ tenant`. Sealed
//!   epochs exported by one tenant fail AES-GCM authentication wholesale under any
//!   other tenant's key.
//! * **Admission + fair scheduling** — [`Fleet::run`] drives all admitted tenants
//!   with a least-virtual-time round-robin over the shared sim clock. Compute runs
//!   on per-tenant lanes (tenants overlap each other's compute), while persists
//!   serialize on the single modeled PM write lane, exactly like PR 5's overlap
//!   model generalised across tenants. Accounting is deterministic and
//!   thread-count invariant: every cost is taken from the sim-clock cost model,
//!   never from wall-clock time.
//! * **Tenant-aware VFS** — [`FleetVfs`] lifts the per-deployment [`MirrorVfs`]
//!   tree to `/tenant/{id}/epoch/{n}/...`, preserving the zero-copy sealed-read
//!   lane of the underlying VFS.

use crate::knobs::Knobs;
use crate::persist::PersistStats;
use crate::pmdata::PmDataset;
use crate::trainer::{PliniusBuilder, PliniusTrainer, TrainingSetup};
use crate::vfs::{MirrorVfs, Vfs, VfsEntry, VfsKind};
use crate::{PliniusContext, PliniusError, TenantId, MAX_TENANTS};
use sim_clock::latency::{LatencyHistogram, LatencySummary};

/// Environment variable selecting the default tenant count; unset, unparsable or
/// out-of-range values mean [`DEFAULT_TENANTS`] (see [`crate::knobs`]).
pub const TENANTS_ENV: &str = "PLINIUS_TENANTS";

/// Default number of tenants admitted when [`TENANTS_ENV`] is unset.
pub const DEFAULT_TENANTS: usize = 1;

/// Fleet deployment parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of tenants to admit (`1..=MAX_TENANTS`). Each runs the template
    /// setup's full training job on its own region of the shared PM module.
    pub tenants: usize,
    /// Admission-queue width: how many tenants train concurrently. Queued tenants
    /// are admitted (in tenant order) as running jobs complete. `0` means no cap —
    /// every tenant is admitted immediately.
    pub max_concurrent: usize,
}

impl Default for FleetConfig {
    /// The deployment-default fleet: `PLINIUS_TENANTS` tenants (falling back to
    /// [`DEFAULT_TENANTS`]), no admission cap — mirroring how `PLINIUS_RING`
    /// feeds the mirror's default ring depth.
    fn default() -> Self {
        FleetConfig {
            tenants: Knobs::from_env().tenants.unwrap_or(DEFAULT_TENANTS),
            max_concurrent: 0,
        }
    }
}

/// Outcome of one tenant's training job within a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The tenant the job belonged to.
    pub tenant: TenantId,
    /// Loss of the job's last iteration.
    pub final_loss: f32,
    /// The model's iteration counter at job completion.
    pub final_iteration: u64,
    /// Virtual nanoseconds from admission to completion on the fleet's lanes
    /// (compute overlapped across tenants, persists serialized on the PM lane).
    pub latency_ns: u64,
    /// The tenant's persistence activity (snapshots, publishes, overlap waits...).
    pub persist_stats: PersistStats,
    /// Torn snapshot-read retries charged to the deployment while this tenant's
    /// job ran (deployment-wide counter sampled at completion).
    pub torn_read_retries: u64,
}

/// Aggregate outcome of a [`Fleet::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-tenant job reports, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Virtual nanoseconds from fleet start to the last job's completion under
    /// the overlap model (*not* the serial sum of the per-tenant costs).
    pub makespan_ns: u64,
    /// Serial simulated nanoseconds actually charged to the shared clock — the
    /// sum every job would cost back-to-back; `makespan_ns <= serial_ns`.
    pub serial_ns: u64,
    /// Virtual nanoseconds the PM write lane was busy with publishes.
    pub pm_lane_busy_ns: u64,
    /// Job-latency distribution across tenants.
    pub latency: LatencySummary,
}

impl FleetReport {
    /// Aggregate fleet-level persistence counters: every tenant's
    /// [`TenantReport::persist_stats`] merged.
    pub fn persist_stats(&self) -> PersistStats {
        self.tenants.iter().fold(PersistStats::default(), |acc, t| {
            acc.merged(t.persist_stats)
        })
    }

    /// Completed jobs per virtual hour of makespan.
    pub fn jobs_per_hour(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.tenants.len() as f64 * 3.6e12 / self.makespan_ns as f64
    }
}

/// One tenant's slot in the fleet: its scoped context, its trainer, and its
/// virtual-lane bookkeeping.
#[derive(Debug)]
struct TenantSlot {
    tenant: TenantId,
    trainer: PliniusTrainer,
    /// The tenant's virtual lane time (admission-relative bookkeeping uses
    /// `admitted_at`).
    lane_ns: u64,
    admitted_at: u64,
    admitted: bool,
    done: bool,
}

/// A fleet of N tenants sharing one PM module, one enclave and one sim clock.
///
/// [`Fleet::deploy`] carves the module: every tenant gets a scoped context
/// ([`PliniusContext::for_tenant`]), a derived sealing key provisioned under its
/// own key-store slot, its own PM copy of the training data, and its own trainer.
/// [`Fleet::run`] then schedules them to completion.
#[derive(Debug)]
pub struct Fleet {
    ctx: PliniusContext,
    slots: Vec<TenantSlot>,
    max_concurrent: usize,
}

impl Fleet {
    /// Deploys `config.tenants` training jobs from the `setup` template onto one
    /// fresh PM module. `setup.pm_bytes` is the *total* pool: size it for N
    /// datasets plus N mirror rings. Per-tenant batch seeds are decorrelated by
    /// mixing in the tenant id; everything else is shared verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::InvalidConfig`] for a tenant count outside
    /// `1..=MAX_TENANTS`, or any context/dataset/trainer construction error.
    pub fn deploy(setup: TrainingSetup, config: FleetConfig) -> Result<Fleet, PliniusError> {
        if config.tenants == 0 || config.tenants > MAX_TENANTS {
            return Err(PliniusError::InvalidConfig(format!(
                "fleet tenant count {} out of range 1..={MAX_TENANTS}",
                config.tenants
            )));
        }
        let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes)?;
        let mut slots = Vec::with_capacity(config.tenants);
        for raw in 0..config.tenants as u64 {
            let tenant = TenantId::new(raw)?;
            let tctx = ctx.for_tenant(tenant);
            // The tenant's model key is its derived sealing key: bound to the
            // enclave measurement AND the tenant id, so sealed epochs are
            // cryptographically isolated between tenants.
            tctx.provision_key_directly(tctx.enclave().tenant_sealing_key(raw));
            PmDataset::load(&tctx, &setup.dataset)?;
            let mut tenant_setup = setup.clone();
            tenant_setup.trainer.seed = setup.trainer.seed.wrapping_add(raw.wrapping_mul(0x9e37));
            let trainer = PliniusBuilder::new(tenant_setup)
                .context(tctx)
                .tenant(tenant)
                .build()?;
            slots.push(TenantSlot {
                tenant,
                trainer,
                lane_ns: 0,
                admitted_at: 0,
                admitted: false,
                done: false,
            });
        }
        Ok(Fleet {
            ctx,
            slots,
            max_concurrent: config.max_concurrent,
        })
    }

    /// The shared deployment context (tenant 0 scope).
    pub fn context(&self) -> &PliniusContext {
        &self.ctx
    }

    /// The number of tenants deployed.
    pub fn tenants(&self) -> usize {
        self.slots.len()
    }

    /// A context scoped to tenant `raw` of this fleet.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::InvalidConfig`] for an undeployed tenant.
    pub fn tenant_context(&self, raw: u64) -> Result<PliniusContext, PliniusError> {
        if raw >= self.slots.len() as u64 {
            return Err(PliniusError::InvalidConfig(format!(
                "tenant {raw} is not deployed in this fleet"
            )));
        }
        Ok(self.ctx.for_tenant(TenantId::new(raw)?))
    }

    /// The tenant-aware VFS over every deployed tenant's mirror:
    /// `/tenant/{id}/epoch/{n}/...`.
    pub fn vfs(&self) -> FleetVfs {
        let mut vfs = FleetVfs::new();
        for slot in &self.slots {
            if let Some(mirror) = slot.trainer.mirror_handle() {
                vfs.mount(MirrorVfs::new(slot.trainer.context(), &mirror));
            }
        }
        vfs
    }

    /// Runs every tenant's job to completion under the admission queue and the
    /// fair-sharing lane model, returning the aggregate report.
    ///
    /// Scheduling is a deterministic least-virtual-time round-robin: among
    /// admitted, unfinished tenants, the one with the smallest lane time steps
    /// next (ties break on tenant id). Each step's simulated cost is measured on
    /// the shared clock and split into compute (runs on the tenant's own lane —
    /// tenants overlap each other's compute) and persist (serializes on the
    /// single modeled PM write lane). The resulting makespan, per-job latencies
    /// and totals are pure functions of the cost model — identical for every
    /// `PLINIUS_THREADS` value and across repeated runs.
    ///
    /// # Errors
    ///
    /// Propagates the first training or persistence error.
    pub fn run(&mut self) -> Result<FleetReport, PliniusError> {
        let clock = self.ctx.clock();
        let serial_start = clock.now_ns();
        let cap = if self.max_concurrent == 0 {
            self.slots.len()
        } else {
            self.max_concurrent
        };
        // Admit the first `cap` tenants at virtual time zero.
        let mut admitted = 0usize;
        for slot in self.slots.iter_mut().take(cap) {
            slot.admitted = true;
            slot.admitted_at = 0;
            admitted += 1;
        }
        let mut pm_lane_free = 0u64;
        let mut pm_lane_busy = 0u64;
        let mut reports: Vec<Option<TenantReport>> = vec![None; self.slots.len()];
        let mut losses: Vec<f32> = vec![0.0; self.slots.len()];
        let mut remaining = self.slots.len();
        while remaining > 0 {
            // Least-virtual-time first; ties break on tenant id (stable order).
            let next = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.admitted && !s.done)
                .min_by_key(|(i, s)| (s.lane_ns, *i))
                .map(|(i, _)| i)
                .expect("remaining > 0 implies an admitted unfinished tenant");
            let slot = &mut self.slots[next];
            let before = clock.now_ns();
            let loss = slot.trainer.step()?;
            let step_ns = clock.now_ns() - before;
            losses[next] = loss;
            let persist_ns = slot.trainer.last_persist_ns().min(step_ns);
            // Compute overlaps across tenants: it advances only this tenant's lane.
            slot.lane_ns += step_ns - persist_ns;
            if persist_ns > 0 {
                // Publishes serialize on the one modeled PM write lane.
                let start = slot.lane_ns.max(pm_lane_free);
                slot.lane_ns = start + persist_ns;
                pm_lane_free = slot.lane_ns;
                pm_lane_busy += persist_ns;
            }
            let mut finished_at = None;
            if slot.trainer.is_done() {
                let before = clock.now_ns();
                slot.trainer.drain()?;
                let drain_ns = clock.now_ns() - before;
                if drain_ns > 0 {
                    let start = slot.lane_ns.max(pm_lane_free);
                    slot.lane_ns = start + drain_ns;
                    pm_lane_free = slot.lane_ns;
                    pm_lane_busy += drain_ns;
                }
                slot.done = true;
                remaining -= 1;
                let completion = slot.lane_ns;
                reports[next] = Some(TenantReport {
                    tenant: slot.tenant,
                    final_loss: losses[next],
                    final_iteration: slot.trainer.iteration(),
                    latency_ns: completion - slot.admitted_at,
                    persist_stats: slot.trainer.persist_stats(),
                    torn_read_retries: slot.trainer.torn_read_retries(),
                });
                finished_at = Some(completion);
            }
            // Admit the next queued tenant; its lane starts where the freed
            // slot's job finished (the admission queue is work-conserving).
            if let Some(completion) = finished_at {
                if admitted < self.slots.len() {
                    let queued = &mut self.slots[admitted];
                    queued.admitted = true;
                    queued.admitted_at = completion;
                    queued.lane_ns = completion;
                    admitted += 1;
                }
            }
        }
        let mut latency = LatencyHistogram::new();
        let tenants: Vec<TenantReport> = reports
            .into_iter()
            .map(|r| r.expect("every tenant completed"))
            .collect();
        for t in &tenants {
            latency.record(t.latency_ns);
        }
        Ok(FleetReport {
            makespan_ns: self.slots.iter().map(|s| s.lane_ns).max().unwrap_or(0),
            serial_ns: clock.now_ns() - serial_start,
            pm_lane_busy_ns: pm_lane_busy,
            latency: latency.summary(),
            tenants,
        })
    }
}

/// The tenant-aware VFS: mounts each tenant's [`MirrorVfs`] under
/// `/tenant/{id}/` and delegates everything below that prefix, so the zero-copy
/// sealed-read lane of the per-tenant VFS is preserved (prefix stripping is
/// borrow-only).
#[derive(Debug, Clone, Default)]
pub struct FleetVfs {
    mounts: Vec<(TenantId, MirrorVfs)>,
}

fn no_such_path(path: &str) -> PliniusError {
    PliniusError::VfsPath(path.to_string())
}

impl FleetVfs {
    /// An empty fleet tree (just `/tenant/` with no mounts).
    pub fn new() -> Self {
        FleetVfs { mounts: Vec::new() }
    }

    /// Mounts a tenant's VFS at `/tenant/{id}/`; the id is taken from the VFS's
    /// context. Remounting a tenant replaces its previous mount.
    pub fn mount(&mut self, vfs: MirrorVfs) {
        let tenant = vfs.context().tenant();
        if let Some(entry) = self.mounts.iter_mut().find(|(t, _)| *t == tenant) {
            entry.1 = vfs;
        } else {
            self.mounts.push((tenant, vfs));
            self.mounts.sort_by_key(|(t, _)| *t);
        }
    }

    /// The mounted tenants, in ascending id order.
    pub fn mounted(&self) -> Vec<TenantId> {
        self.mounts.iter().map(|(t, _)| *t).collect()
    }

    /// Splits `/tenant/{id}/rest` into the tenant's mount and the delegated
    /// remainder (`""` addresses the mount root). Borrow-only: no allocation.
    fn delegate<'a>(&self, path: &'a str) -> Result<(&MirrorVfs, &'a str), PliniusError> {
        let p = path.strip_prefix('/').unwrap_or(path);
        let rest = p
            .strip_prefix("tenant/")
            .ok_or_else(|| no_such_path(path))?;
        let (id, tail) = match rest.split_once('/') {
            Some((id, tail)) => (id, tail),
            None => (rest.strip_suffix('/').unwrap_or(rest), ""),
        };
        let raw: u64 = id.parse().map_err(|_| no_such_path(path))?;
        let vfs = self
            .mounts
            .iter()
            .find(|(t, _)| t.raw() == raw)
            .map(|(_, v)| v)
            .ok_or_else(|| no_such_path(path))?;
        Ok((vfs, tail))
    }

    /// Whether `path` names the fleet root (`/`) or the `/tenant` directory.
    fn classify(path: &str) -> Option<FleetNode> {
        let p = path.strip_prefix('/').unwrap_or(path);
        let p = p.strip_suffix('/').unwrap_or(p);
        match p {
            "" => Some(FleetNode::Root),
            "tenant" => Some(FleetNode::TenantDir),
            _ => None,
        }
    }
}

enum FleetNode {
    Root,
    TenantDir,
}

impl Vfs for FleetVfs {
    fn list(&self, path: &str) -> Result<Vec<VfsEntry>, PliniusError> {
        match FleetVfs::classify(path) {
            Some(FleetNode::Root) => Ok(vec![VfsEntry {
                name: "tenant".into(),
                kind: VfsKind::Directory,
                len: 0,
            }]),
            Some(FleetNode::TenantDir) => Ok(self
                .mounts
                .iter()
                .map(|(t, _)| VfsEntry {
                    name: t.to_string(),
                    kind: VfsKind::Directory,
                    len: 0,
                })
                .collect()),
            None => {
                let (vfs, rest) = self.delegate(path)?;
                vfs.list(rest)
            }
        }
    }

    fn stat(&self, path: &str) -> Result<VfsEntry, PliniusError> {
        match FleetVfs::classify(path) {
            Some(FleetNode::Root) => Ok(VfsEntry {
                name: "/".into(),
                kind: VfsKind::Directory,
                len: 0,
            }),
            Some(FleetNode::TenantDir) => Ok(VfsEntry {
                name: "tenant".into(),
                kind: VfsKind::Directory,
                len: 0,
            }),
            None => {
                let (vfs, rest) = self.delegate(path)?;
                if rest.is_empty() {
                    let tenant = vfs.context().tenant();
                    return Ok(VfsEntry {
                        name: tenant.to_string(),
                        kind: VfsKind::Directory,
                        len: 0,
                    });
                }
                vfs.stat(rest)
            }
        }
    }

    fn read_into(&self, path: &str, out: &mut [u8]) -> Result<usize, PliniusError> {
        if FleetVfs::classify(path).is_some() {
            return Err(no_such_path(path));
        }
        let (vfs, rest) = self.delegate(path)?;
        vfs.read_into(rest, out)
    }

    fn read_link(&self, path: &str) -> Result<String, PliniusError> {
        if FleetVfs::classify(path).is_some() {
            return Err(no_such_path(path));
        }
        let (vfs, rest) = self.delegate(path)?;
        vfs.read_link(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::TrainingSetup;

    fn fleet_setup() -> TrainingSetup {
        let mut setup = TrainingSetup::small_test();
        setup.trainer.max_iterations = 6;
        setup.trainer.mirror_frequency = 2;
        setup.pm_bytes = 96 * 1024 * 1024;
        setup
    }

    #[test]
    fn tenants_from_env_parses_and_bounds() {
        let tenants = |value: &str| {
            Knobs::from_lookup(|name| (name == TENANTS_ENV).then(|| value.to_owned())).tenants
        };
        assert_eq!(tenants(" 3\n"), Some(3));
        assert_eq!(tenants(&MAX_TENANTS.to_string()), Some(MAX_TENANTS));
        for bad in ["0", "lots", "", "-2", &(MAX_TENANTS + 1).to_string()] {
            assert_eq!(tenants(bad), None, "{bad:?}");
        }
        let row = crate::knobs::KNOBS.iter().find(|k| k.env == TENANTS_ENV);
        assert!(row.unwrap().accepts.contains(&MAX_TENANTS.to_string()));
    }

    #[test]
    fn fleet_rejects_out_of_range_tenant_counts() {
        let err = Fleet::deploy(
            fleet_setup(),
            FleetConfig {
                tenants: 0,
                max_concurrent: 0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, PliniusError::InvalidConfig(_)));
        let err = Fleet::deploy(
            fleet_setup(),
            FleetConfig {
                tenants: MAX_TENANTS + 1,
                max_concurrent: 0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, PliniusError::InvalidConfig(_)));
    }

    #[test]
    fn fleet_runs_every_tenant_to_completion_with_overlap() {
        let mut fleet = Fleet::deploy(
            fleet_setup(),
            FleetConfig {
                tenants: 3,
                max_concurrent: 0,
            },
        )
        .unwrap();
        let report = fleet.run().unwrap();
        assert_eq!(report.tenants.len(), 3);
        for (i, t) in report.tenants.iter().enumerate() {
            assert_eq!(t.tenant.raw(), i as u64);
            assert_eq!(t.final_iteration, 6);
            assert!(t.final_loss.is_finite());
            assert_eq!(t.persist_stats.persists, 3);
            assert!(t.latency_ns > 0);
        }
        // Compute overlaps across tenants, so the fleet makespan is strictly
        // below the serial sum of the three jobs; the PM lane is the shared
        // bottleneck and its busy time is bounded by the makespan.
        assert!(report.makespan_ns < report.serial_ns);
        assert!(report.pm_lane_busy_ns <= report.makespan_ns);
        assert_eq!(report.latency.count, 3);
        assert!(report.jobs_per_hour() > 0.0);
        // Fleet-level aggregate merges every tenant's counters.
        assert_eq!(report.persist_stats().persists, 9);
    }

    #[test]
    fn fleet_accounting_is_deterministic() {
        let run = |tenants: usize| {
            let mut fleet = Fleet::deploy(
                fleet_setup(),
                FleetConfig {
                    tenants,
                    max_concurrent: 0,
                },
            )
            .unwrap();
            fleet.run().unwrap()
        };
        let a = run(2);
        let b = run(2);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.serial_ns, b.serial_ns);
        assert_eq!(a.latency, b.latency);
        for (ta, tb) in a.tenants.iter().zip(b.tenants.iter()) {
            assert_eq!(ta.latency_ns, tb.latency_ns);
            assert_eq!(ta.final_loss.to_bits(), tb.final_loss.to_bits());
        }
    }

    #[test]
    fn admission_queue_caps_concurrency_and_stays_work_conserving() {
        let mut capped = Fleet::deploy(
            fleet_setup(),
            FleetConfig {
                tenants: 3,
                max_concurrent: 1,
            },
        )
        .unwrap();
        let report = capped.run().unwrap();
        // With one admission slot the jobs run back-to-back on the virtual
        // lanes: each completion admits the next tenant at that instant.
        for pair in report.tenants.windows(2) {
            assert!(pair[1].latency_ns > 0);
        }
        let sum: u64 = report.tenants.iter().map(|t| t.latency_ns).sum();
        assert!(report.makespan_ns >= report.tenants.last().unwrap().latency_ns);
        assert!(sum >= report.makespan_ns);
    }

    #[test]
    fn fleet_vfs_lifts_the_tree_to_tenant_prefixes() {
        let mut fleet = Fleet::deploy(
            fleet_setup(),
            FleetConfig {
                tenants: 2,
                max_concurrent: 0,
            },
        )
        .unwrap();
        fleet.run().unwrap();
        let vfs = fleet.vfs();
        assert_eq!(vfs.mounted().len(), 2);
        let root = vfs.list("/").unwrap();
        assert_eq!(root.len(), 1);
        assert_eq!(root[0].name, "tenant");
        let tenants: Vec<String> = vfs
            .list("/tenant")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(tenants, ["0", "1"]);
        // Delegation: the per-tenant tree appears under the prefix.
        assert_eq!(vfs.stat("/tenant/1").unwrap().kind, VfsKind::Directory);
        let head = vfs.read_link("/tenant/0/HEAD").unwrap();
        assert!(head.starts_with("epoch/"), "{head}");
        let epochs = vfs.list("/tenant/1/epoch").unwrap();
        assert!(!epochs.is_empty());
        let sealed = format!("/tenant/0/epoch/{}/layer0-tensor0.sealed", {
            let h = vfs.read_link("/tenant/0/HEAD").unwrap();
            h.strip_prefix("epoch/").unwrap().to_string()
        });
        let len = vfs.stat(&sealed).unwrap().len;
        let mut buf = vec![0u8; len];
        assert_eq!(vfs.read_into(&sealed, &mut buf).unwrap(), len);
        // Unknown tenants and the fleet root as a file are path errors.
        assert!(matches!(
            vfs.list("/tenant/9").unwrap_err(),
            PliniusError::VfsPath(_)
        ));
        assert!(vfs.read_into("/tenant", &mut buf).is_err());
        assert!(vfs.read_link("/").is_err());
    }
}
