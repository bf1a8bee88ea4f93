//! The instrumentation hook: the seam where XPlacer's runtime attaches.
//!
//! In the paper, the ROSE pass rewrites source so every heap access calls
//! `traceR`/`traceW`/`traceRW` and every CUDA call goes through a wrapper.
//! Here the simulated machine plays the role of the instrumented binary:
//! when a hook is attached it invokes these callbacks at exactly the points
//! the instrumented source would — per heap word access, per allocation,
//! per copy, per kernel launch. Running with no hook attached corresponds
//! to the uninstrumented baseline (Table III measures the difference).

use std::cell::RefCell;
use std::rc::Rc;

use crate::clock::StreamId;
use crate::event::TimedEvent;
use crate::types::{AccessKind, Addr, AllocKind, CopyKind, Device};

/// Observer of simulated memory events.
pub trait MemHook {
    /// A heap allocation of `size` bytes at `base` via `kind`.
    fn on_alloc(&mut self, base: Addr, size: u64, kind: AllocKind) {
        let _ = (base, size, kind);
    }

    /// `free`/`cudaFree` of the allocation at `base`.
    fn on_free(&mut self, base: Addr) {
        let _ = base;
    }

    /// A read of `size` bytes at `addr` by `dev` (maps to `traceR`).
    fn on_read(&mut self, dev: Device, addr: Addr, size: u32) {
        let _ = (dev, addr, size);
    }

    /// A write of `size` bytes at `addr` by `dev` (maps to `traceW`).
    fn on_write(&mut self, dev: Device, addr: Addr, size: u32) {
        let _ = (dev, addr, size);
    }

    /// A read-modify-write (maps to `traceRW`).
    fn on_read_write(&mut self, dev: Device, addr: Addr, size: u32) {
        self.on_read(dev, addr, size);
        self.on_write(dev, addr, size);
    }

    /// A contiguous range access: `count` elements of `elem_size` bytes
    /// starting at `addr`, all performed by `dev` with the same access
    /// kind. This is the machine's bulk fast path (`read_range` and
    /// friends); the default implementation decomposes into the per-word
    /// callbacks above, so a hook that does not override it observes
    /// exactly the sequence the per-word path would have delivered.
    fn on_access_range(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
    ) {
        for i in 0..count {
            let a = addr + i * elem_size as u64;
            match kind {
                AccessKind::Read => self.on_read(dev, a, elem_size),
                AccessKind::Write => self.on_write(dev, a, elem_size),
                AccessKind::ReadWrite => self.on_read_write(dev, a, elem_size),
            }
        }
    }

    /// An explicit `cudaMemcpy`.
    fn on_memcpy(&mut self, dst: Addr, src: Addr, bytes: u64, kind: CopyKind) {
        let _ = (dst, src, bytes, kind);
    }

    /// A kernel launch (maps to the `replace kernel-launch` wrapper).
    fn on_kernel_launch(&mut self, name: &str) {
        let _ = name;
    }

    /// A kernel completed.
    fn on_kernel_end(&mut self, name: &str) {
        let _ = name;
    }

    /// A timestamped structured event (fault, migration, kernel span, ...).
    /// Fired in addition to the per-kind callbacks above; hooks that only
    /// care about word accesses can ignore it. See [`crate::event::Event`].
    fn on_event(&mut self, ev: &TimedEvent) {
        let _ = ev;
    }

    /// A `cudaMemcpy` with ordering context: the stream it was issued on
    /// and whether the host blocked for its completion. The machine calls
    /// *this* entry point; the default forwards to the plain
    /// [`on_memcpy`](Self::on_memcpy) so existing hooks are unaffected.
    fn on_memcpy_ctx(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
        stream: StreamId,
        blocking: bool,
    ) {
        let _ = (stream, blocking);
        self.on_memcpy(dst, src, bytes, kind);
    }

    /// A kernel launch with ordering context: the stream it runs on and
    /// its global launch sequence number. Defaults to the plain
    /// [`on_kernel_launch`](Self::on_kernel_launch).
    fn on_kernel_launch_ctx(&mut self, name: &str, stream: StreamId, seq: u64) {
        let _ = (stream, seq);
        self.on_kernel_launch(name);
    }

    /// A kernel completed; `blocking` says whether the host waited for it
    /// (a synchronous launch) or it retired asynchronously on its stream.
    /// Defaults to the plain [`on_kernel_end`](Self::on_kernel_end).
    fn on_kernel_end_ctx(&mut self, name: &str, stream: StreamId, blocking: bool) {
        let _ = (stream, blocking);
        self.on_kernel_end(name);
    }

    /// `cudaStreamSynchronize(stream)`: the host joined with everything
    /// previously enqueued on `stream`.
    fn on_stream_sync(&mut self, stream: StreamId) {
        let _ = stream;
    }

    /// `cudaDeviceSynchronize()`: the host joined with every stream.
    fn on_device_sync(&mut self) {}

    /// A harness write that bypasses the simulated access path (`poke`) —
    /// input setup, not program behavior. Validity checkers treat it as
    /// initialization; placement tracers ignore it.
    fn on_debug_write(&mut self, addr: Addr, bytes: u64) {
        let _ = (addr, bytes);
    }

    /// The interpreter is about to execute the statement at `line:col`
    /// (1-based MiniCU source position). Lets checkers attribute the next
    /// accesses to a source location.
    fn on_site(&mut self, line: u32, col: u32) {
        let _ = (line, col);
    }

    /// A human-readable name (the declared variable) for the allocation
    /// at `base`, reported right after its [`on_alloc`](Self::on_alloc).
    fn on_alloc_label(&mut self, base: Addr, label: &str) {
        let _ = (base, label);
    }
}

/// Broadcasts every callback to any number of inner hooks, in attachment
/// order — the way to run the XPlacer tracer and an [`EventLog`]
/// (`crate::event::EventLog`) side by side on one machine.
#[derive(Default)]
pub struct FanoutHook {
    hooks: Vec<Rc<RefCell<dyn MemHook>>>,
}

impl FanoutHook {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an initial set of hooks.
    pub fn from_hooks(hooks: Vec<Rc<RefCell<dyn MemHook>>>) -> Self {
        FanoutHook { hooks }
    }

    /// Append a hook; it observes after every previously pushed hook.
    pub fn push(&mut self, hook: Rc<RefCell<dyn MemHook>>) {
        self.hooks.push(hook);
    }

    pub fn len(&self) -> usize {
        self.hooks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }
}

impl MemHook for FanoutHook {
    fn on_alloc(&mut self, base: Addr, size: u64, kind: AllocKind) {
        for h in &self.hooks {
            h.borrow_mut().on_alloc(base, size, kind);
        }
    }
    fn on_free(&mut self, base: Addr) {
        for h in &self.hooks {
            h.borrow_mut().on_free(base);
        }
    }
    fn on_read(&mut self, dev: Device, addr: Addr, size: u32) {
        for h in &self.hooks {
            h.borrow_mut().on_read(dev, addr, size);
        }
    }
    fn on_write(&mut self, dev: Device, addr: Addr, size: u32) {
        for h in &self.hooks {
            h.borrow_mut().on_write(dev, addr, size);
        }
    }
    // Forwarded as one call (not the read+write decomposition) so inner
    // hooks with a custom RMW handler still see it.
    fn on_read_write(&mut self, dev: Device, addr: Addr, size: u32) {
        for h in &self.hooks {
            h.borrow_mut().on_read_write(dev, addr, size);
        }
    }
    // Forwarded as one range call so inner hooks with a vectorized range
    // handler (e.g. the tracer) keep their fast path through a fanout.
    fn on_access_range(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
    ) {
        for h in &self.hooks {
            h.borrow_mut()
                .on_access_range(dev, addr, elem_size, count, kind);
        }
    }
    fn on_memcpy(&mut self, dst: Addr, src: Addr, bytes: u64, kind: CopyKind) {
        for h in &self.hooks {
            h.borrow_mut().on_memcpy(dst, src, bytes, kind);
        }
    }
    fn on_kernel_launch(&mut self, name: &str) {
        for h in &self.hooks {
            h.borrow_mut().on_kernel_launch(name);
        }
    }
    fn on_kernel_end(&mut self, name: &str) {
        for h in &self.hooks {
            h.borrow_mut().on_kernel_end(name);
        }
    }
    fn on_event(&mut self, ev: &TimedEvent) {
        for h in &self.hooks {
            h.borrow_mut().on_event(ev);
        }
    }
    // The ctx variants forward as ctx calls so inner hooks that use the
    // ordering context still receive it through a fanout.
    fn on_memcpy_ctx(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
        stream: StreamId,
        blocking: bool,
    ) {
        for h in &self.hooks {
            h.borrow_mut()
                .on_memcpy_ctx(dst, src, bytes, kind, stream, blocking);
        }
    }
    fn on_kernel_launch_ctx(&mut self, name: &str, stream: StreamId, seq: u64) {
        for h in &self.hooks {
            h.borrow_mut().on_kernel_launch_ctx(name, stream, seq);
        }
    }
    fn on_kernel_end_ctx(&mut self, name: &str, stream: StreamId, blocking: bool) {
        for h in &self.hooks {
            h.borrow_mut().on_kernel_end_ctx(name, stream, blocking);
        }
    }
    fn on_stream_sync(&mut self, stream: StreamId) {
        for h in &self.hooks {
            h.borrow_mut().on_stream_sync(stream);
        }
    }
    fn on_device_sync(&mut self) {
        for h in &self.hooks {
            h.borrow_mut().on_device_sync();
        }
    }
    fn on_debug_write(&mut self, addr: Addr, bytes: u64) {
        for h in &self.hooks {
            h.borrow_mut().on_debug_write(addr, bytes);
        }
    }
    fn on_site(&mut self, line: u32, col: u32) {
        for h in &self.hooks {
            h.borrow_mut().on_site(line, col);
        }
    }
    fn on_alloc_label(&mut self, base: Addr, label: &str) {
        for h in &self.hooks {
            h.borrow_mut().on_alloc_label(base, label);
        }
    }
}

/// Self-overhead accounting for one observer: how much *wall-clock* time
/// the simulation spent inside its callbacks, and how often it was called.
/// The simulated clock never sees this time (observers are pure); the
/// meter exists so a run can report what its own instrumentation cost —
/// the Table III question, asked of the observers instead of the tracer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HookMeter {
    /// Callback invocations forwarded to the inner hook.
    pub calls: u64,
    /// Wall-clock nanoseconds spent inside those callbacks.
    pub wall_ns: u64,
}

impl HookMeter {
    /// Mean wall nanoseconds per forwarded callback (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.calls as f64
        }
    }
}

/// Wraps another hook and meters the wall time spent in its callbacks.
/// Forwards range and RMW callbacks as single calls so the inner hook's
/// fast paths survive the wrapping.
pub struct MeteredHook {
    inner: Rc<RefCell<dyn MemHook>>,
    meter: Rc<RefCell<HookMeter>>,
}

impl MeteredHook {
    /// Wrap `inner`; the returned meter handle stays readable after the
    /// hook has been attached to a machine.
    pub fn new(inner: Rc<RefCell<dyn MemHook>>) -> (Self, Rc<RefCell<HookMeter>>) {
        let meter = Rc::new(RefCell::new(HookMeter::default()));
        (
            MeteredHook {
                inner,
                meter: meter.clone(),
            },
            meter,
        )
    }

    fn timed(&self, f: impl FnOnce(&mut dyn MemHook)) {
        let t0 = std::time::Instant::now();
        f(&mut *self.inner.borrow_mut());
        let mut m = self.meter.borrow_mut();
        m.calls += 1;
        m.wall_ns += t0.elapsed().as_nanos() as u64;
    }
}

impl MemHook for MeteredHook {
    fn on_alloc(&mut self, base: Addr, size: u64, kind: AllocKind) {
        self.timed(|h| h.on_alloc(base, size, kind));
    }
    fn on_free(&mut self, base: Addr) {
        self.timed(|h| h.on_free(base));
    }
    fn on_read(&mut self, dev: Device, addr: Addr, size: u32) {
        self.timed(|h| h.on_read(dev, addr, size));
    }
    fn on_write(&mut self, dev: Device, addr: Addr, size: u32) {
        self.timed(|h| h.on_write(dev, addr, size));
    }
    fn on_read_write(&mut self, dev: Device, addr: Addr, size: u32) {
        self.timed(|h| h.on_read_write(dev, addr, size));
    }
    fn on_access_range(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
    ) {
        self.timed(|h| h.on_access_range(dev, addr, elem_size, count, kind));
    }
    fn on_memcpy(&mut self, dst: Addr, src: Addr, bytes: u64, kind: CopyKind) {
        self.timed(|h| h.on_memcpy(dst, src, bytes, kind));
    }
    fn on_kernel_launch(&mut self, name: &str) {
        self.timed(|h| h.on_kernel_launch(name));
    }
    fn on_kernel_end(&mut self, name: &str) {
        self.timed(|h| h.on_kernel_end(name));
    }
    fn on_event(&mut self, ev: &TimedEvent) {
        self.timed(|h| h.on_event(ev));
    }
    fn on_memcpy_ctx(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: CopyKind,
        stream: StreamId,
        blocking: bool,
    ) {
        self.timed(|h| h.on_memcpy_ctx(dst, src, bytes, kind, stream, blocking));
    }
    fn on_kernel_launch_ctx(&mut self, name: &str, stream: StreamId, seq: u64) {
        self.timed(|h| h.on_kernel_launch_ctx(name, stream, seq));
    }
    fn on_kernel_end_ctx(&mut self, name: &str, stream: StreamId, blocking: bool) {
        self.timed(|h| h.on_kernel_end_ctx(name, stream, blocking));
    }
    fn on_stream_sync(&mut self, stream: StreamId) {
        self.timed(|h| h.on_stream_sync(stream));
    }
    fn on_device_sync(&mut self) {
        self.timed(|h| h.on_device_sync());
    }
    fn on_debug_write(&mut self, addr: Addr, bytes: u64) {
        self.timed(|h| h.on_debug_write(addr, bytes));
    }
    fn on_site(&mut self, line: u32, col: u32) {
        self.timed(|h| h.on_site(line, col));
    }
    fn on_alloc_label(&mut self, base: Addr, label: &str) {
        self.timed(|h| h.on_alloc_label(base, label));
    }
}

/// A hook that counts events — useful for tests and overhead ablations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingHook {
    pub allocs: u64,
    pub frees: u64,
    pub reads: u64,
    pub writes: u64,
    pub rmws: u64,
    pub memcpys: u64,
    pub launches: u64,
    pub kernel_ends: u64,
}

impl MemHook for CountingHook {
    fn on_alloc(&mut self, _base: Addr, _size: u64, _kind: AllocKind) {
        self.allocs += 1;
    }
    fn on_free(&mut self, _base: Addr) {
        self.frees += 1;
    }
    fn on_read(&mut self, _dev: Device, _addr: Addr, _size: u32) {
        self.reads += 1;
    }
    fn on_write(&mut self, _dev: Device, _addr: Addr, _size: u32) {
        self.writes += 1;
    }
    fn on_read_write(&mut self, _dev: Device, _addr: Addr, _size: u32) {
        self.rmws += 1;
    }
    fn on_memcpy(&mut self, _dst: Addr, _src: Addr, _bytes: u64, _kind: CopyKind) {
        self.memcpys += 1;
    }
    fn on_kernel_launch(&mut self, _name: &str) {
        self.launches += 1;
    }
    fn on_kernel_end(&mut self, _name: &str) {
        self.kernel_ends += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_hook_counts() {
        let mut h = CountingHook::default();
        h.on_alloc(0x1000, 64, AllocKind::Managed);
        h.on_read(Device::Cpu, 0x1000, 4);
        h.on_write(Device::GPU0, 0x1004, 4);
        h.on_read_write(Device::Cpu, 0x1008, 4);
        h.on_memcpy(0x2000, 0x1000, 64, CopyKind::HostToDevice);
        h.on_kernel_launch("k");
        h.on_kernel_end("k");
        h.on_free(0x1000);
        assert_eq!(
            h,
            CountingHook {
                allocs: 1,
                frees: 1,
                reads: 1,
                writes: 1,
                rmws: 1,
                memcpys: 1,
                launches: 1,
                kernel_ends: 1,
            }
        );
    }

    #[test]
    fn kernel_end_is_symmetric_with_launch() {
        let mut h = CountingHook::default();
        for _ in 0..3 {
            h.on_kernel_launch("k");
            h.on_kernel_end("k");
        }
        assert_eq!(h.launches, 3);
        assert_eq!(h.kernel_ends, 3);
    }

    #[test]
    fn fanout_broadcasts_to_all_hooks() {
        let a = Rc::new(RefCell::new(CountingHook::default()));
        let b = Rc::new(RefCell::new(CountingHook::default()));
        let mut f = FanoutHook::new();
        f.push(a.clone());
        f.push(b.clone());
        assert_eq!(f.len(), 2);
        f.on_alloc(0x1000, 64, AllocKind::Managed);
        f.on_read_write(Device::Cpu, 0x1000, 8);
        f.on_kernel_launch("k");
        f.on_kernel_end("k");
        for h in [&a, &b] {
            let c = h.borrow();
            assert_eq!(c.allocs, 1);
            // Forwarded as one RMW, not decomposed into read + write.
            assert_eq!((c.rmws, c.reads, c.writes), (1, 0, 0));
            assert_eq!((c.launches, c.kernel_ends), (1, 1));
        }
    }

    #[test]
    fn fanout_forwards_structured_events() {
        use crate::event::{Event, EventLog};
        let a = Rc::new(RefCell::new(EventLog::new()));
        let b = Rc::new(RefCell::new(EventLog::new()));
        let mut f = FanoutHook::from_hooks(vec![a.clone(), b.clone()]);
        f.on_event(&TimedEvent {
            t_ns: 5.0,
            cost_ns: 0.0,
            ctx: crate::event::AttrCtx::host(),
            event: Event::Free { base: 0x1000 },
        });
        assert_eq!(a.borrow().len(), 1);
        assert_eq!(b.borrow().len(), 1);
    }

    #[test]
    fn default_access_range_decomposes_per_element() {
        let mut h = CountingHook::default();
        h.on_access_range(Device::Cpu, 0x1000, 8, 5, AccessKind::Read);
        h.on_access_range(Device::GPU0, 0x2000, 4, 3, AccessKind::Write);
        h.on_access_range(Device::Cpu, 0x3000, 4, 2, AccessKind::ReadWrite);
        assert_eq!((h.reads, h.writes, h.rmws), (5, 3, 2));
    }

    #[test]
    fn fanout_forwards_access_range_as_one_call() {
        // A hook that overrides on_access_range must see the single range
        // call through a fanout, not the per-word decomposition.
        #[derive(Default)]
        struct RangeSpy {
            ranges: Vec<(Device, Addr, u32, u64, AccessKind)>,
            words: u64,
        }
        impl MemHook for RangeSpy {
            fn on_read(&mut self, _: Device, _: Addr, _: u32) {
                self.words += 1;
            }
            fn on_write(&mut self, _: Device, _: Addr, _: u32) {
                self.words += 1;
            }
            fn on_access_range(&mut self, dev: Device, addr: Addr, es: u32, n: u64, k: AccessKind) {
                self.ranges.push((dev, addr, es, n, k));
            }
        }
        let spy = Rc::new(RefCell::new(RangeSpy::default()));
        let count = Rc::new(RefCell::new(CountingHook::default()));
        let mut f = FanoutHook::from_hooks(vec![spy.clone(), count.clone()]);
        f.on_access_range(Device::GPU0, 0x4000, 4, 7, AccessKind::Read);
        let s = spy.borrow();
        assert_eq!(
            s.ranges,
            vec![(Device::GPU0, 0x4000, 4, 7, AccessKind::Read)]
        );
        assert_eq!(s.words, 0);
        // The non-overriding hook still sees the per-word decomposition.
        assert_eq!(count.borrow().reads, 7);
    }

    #[test]
    fn metered_hook_forwards_and_accounts() {
        let inner = Rc::new(RefCell::new(CountingHook::default()));
        let (metered, meter) = MeteredHook::new(inner.clone());
        let mut h = metered;
        h.on_alloc(0x1000, 64, AllocKind::Managed);
        h.on_access_range(Device::Cpu, 0x1000, 8, 4, AccessKind::Read);
        h.on_kernel_launch("k");
        h.on_free(0x1000);
        // The inner hook saw everything (range decomposed by its default).
        let c = inner.borrow();
        assert_eq!((c.allocs, c.reads, c.launches, c.frees), (1, 4, 1, 1));
        // The meter counted one call per *forwarded* callback, not per
        // decomposed word.
        assert_eq!(meter.borrow().calls, 4);
        assert!(meter.borrow().mean_ns() >= 0.0);
    }

    #[test]
    fn default_rmw_decomposes_into_read_and_write() {
        // A hook that doesn't override on_read_write sees a read + a write.
        struct RW(u64, u64);
        impl MemHook for RW {
            fn on_read(&mut self, _: Device, _: Addr, _: u32) {
                self.0 += 1;
            }
            fn on_write(&mut self, _: Device, _: Addr, _: u32) {
                self.1 += 1;
            }
        }
        let mut h = RW(0, 0);
        h.on_read_write(Device::Cpu, 0x1000, 8);
        assert_eq!((h.0, h.1), (1, 1));
    }
}
