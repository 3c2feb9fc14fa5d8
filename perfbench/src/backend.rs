//! A span-recording [`ModelPersistence`] wrapper, handed to the trainer through
//! `PliniusBuilder::backend_boxed`. It is the only way into the trainer's step from
//! outside: the persist it performs becomes a child span of the step span, and the
//! PM traffic of every persist and restore is counted from the statistics registry.

use crate::trace::Tracer;
use plinius::{ModelPersistence, PersistStats, PliniusContext, PliniusError, PmMirrorBackend};
use plinius_darknet::Network;
use sim_clock::StatsHandle;
use std::cell::RefCell;
use std::rc::Rc;

/// Sums of statistics deltas taken around the wrapped calls (traced runs only).
#[derive(Debug, Default, Clone, Copy)]
pub struct PmTraffic {
    pub bytes_written: u64,
    pub flushes: u64,
    pub fences: u64,
    pub bytes_read: u64,
}

impl PmTraffic {
    fn read(stats: &StatsHandle) -> Self {
        PmTraffic {
            bytes_written: stats.value("pm.bytes_written"),
            flushes: stats.value("pm.flushes"),
            fences: stats.value("pm.fences"),
            bytes_read: stats.value("pm.bytes_read"),
        }
    }

    fn add_delta(&mut self, before: &PmTraffic, after: &PmTraffic) {
        self.bytes_written += after.bytes_written - before.bytes_written;
        self.flushes += after.flushes - before.flushes;
        self.fences += after.fences - before.fences;
        self.bytes_read += after.bytes_read - before.bytes_read;
    }
}

/// PM traffic of the persist path (persist, persist_async, drain) and of restores,
/// shared between every wrapper of one run (a restart builds a new wrapper).
#[derive(Debug, Default)]
pub struct PersistTraffic {
    pub persist: PmTraffic,
    pub restore: PmTraffic,
    /// Publishes committed, summed over every wrapper of the run.
    pub publishes: u64,
    pub restores: u64,
}

#[derive(Debug)]
pub struct TracedMirror {
    inner: PmMirrorBackend,
    tracer: Rc<Tracer>,
    traffic: Rc<RefCell<PersistTraffic>>,
}

impl TracedMirror {
    pub fn new(ring: usize, tracer: Rc<Tracer>, traffic: Rc<RefCell<PersistTraffic>>) -> Self {
        TracedMirror {
            inner: PmMirrorBackend::with_ring(ring),
            tracer,
            traffic,
        }
    }

    /// Runs `f` inside a span called `name`, counting its PM traffic when tracing.
    fn traced<R>(
        &mut self,
        name: &'static str,
        ctx: &PliniusContext,
        restore: bool,
        f: impl FnOnce(&mut PmMirrorBackend) -> R,
    ) -> R {
        if !self.tracer.enabled() {
            return f(&mut self.inner);
        }
        let stats = ctx.stats();
        let before = PmTraffic::read(&stats);
        let publishes = self.inner.persist_stats().publishes;
        let result = {
            let _span = self.tracer.span(name);
            f(&mut self.inner)
        };
        let after = PmTraffic::read(&stats);
        let mut traffic = self.traffic.borrow_mut();
        if restore {
            traffic.restore.add_delta(&before, &after);
            traffic.restores += 1;
        } else {
            traffic.persist.add_delta(&before, &after);
            traffic.publishes += self.inner.persist_stats().publishes - publishes;
        }
        result
    }
}

impl ModelPersistence for TracedMirror {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn exists(&self, ctx: &PliniusContext) -> bool {
        self.inner.exists(ctx)
    }

    fn prepare(&mut self, ctx: &PliniusContext, network: &Network) -> Result<(), PliniusError> {
        let _span = self.tracer.span("mirror.prepare");
        self.inner.prepare(ctx, network)
    }

    fn restore(
        &mut self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<u64, PliniusError> {
        self.traced("mirror.restore", ctx, true, |b| b.restore(ctx, network))
    }

    fn persist(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        self.traced("mirror.persist", ctx, false, |b| {
            b.persist(ctx, network, iteration)
        })
    }

    fn persist_async(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        self.traced("mirror.persist_async", ctx, false, |b| {
            b.persist_async(ctx, network, iteration)
        })
    }

    fn drain(&mut self, ctx: &PliniusContext) -> Result<(), PliniusError> {
        self.traced("mirror.drain", ctx, false, |b| b.drain(ctx))
    }

    fn persist_stats(&self) -> PersistStats {
        self.inner.persist_stats()
    }

    fn mirror_model(&self) -> Option<&plinius::MirrorModel> {
        self.inner.mirror_model()
    }
}
