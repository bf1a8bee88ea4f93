//! The sanitizer hook: a [`MemHook`] that maintains per-byte shadow
//! state and happens-before vector clocks as the machine runs.
//!
//! The machine validates every access *before* invoking hooks, so the
//! per-access work here is what the machine cannot decide on its own:
//! uninitialized-read detection, initialization tracking, and race
//! bookkeeping. Hard faults (out-of-bounds, use-after-free, ...) abort
//! the run as [`hetsim::SimError`]s and are classified by the driver in
//! `lib.rs`, which reads this hook's context (current site, current
//! kernel, shadow heap) to attribute them.

use std::collections::{BTreeSet, HashMap};

use hetsim::{AccessKind, Addr, AllocKind, CopyKind, Device, MemHook, StreamId};

use crate::race::{AccessInfo, LocState, VectorClocks, HOST};
use crate::report::{AllocInfo, CheckReport, DefectClass, Diagnostic};
use crate::shadow::{AllocRecord, ShadowHeap, Site};

/// Race-tracking granularity for managed memory: the UM driver moves
/// pages, so unordered accesses anywhere in one page are a transfer-level
/// hazard. Unmanaged memory is tracked at exact element offsets —
/// neighboring slices of one `cudaMalloc` buffer are routinely touched by
/// overlapped copies and kernels (pathfinder's chunked transfer), and
/// page granularity would flag those as false shares.
const PAGE: u64 = 4096;

/// The kernel the machine is currently executing, from the launch hook.
#[derive(Debug, Clone)]
struct KernelCtx {
    name: String,
    seq: u64,
    stream: usize,
}

/// The checking [`MemHook`]. Attach to a machine, run, then harvest
/// findings with [`take_findings`](CheckHook::take_findings).
#[derive(Default)]
pub struct CheckHook {
    shadow: ShadowHeap,
    vc: VectorClocks,
    /// Per-(allocation, bucket) access history.
    locs: HashMap<(u64, u64), LocState>,
    findings: Vec<Diagnostic>,
    cur_site: Option<Site>,
    kernel: Option<KernelCtx>,
    /// Dedup: (serial, prior actor, current actor, prior is write,
    /// current is write) — one diagnostic per conflicting pair.
    seen_races: BTreeSet<(u64, usize, usize, bool, bool)>,
    /// Dedup: (serial, site, kernel) — one diagnostic per read site.
    seen_uninit: BTreeSet<(u64, Option<Site>, Option<String>)>,
}

fn alloc_info(r: &AllocRecord) -> AllocInfo {
    AllocInfo {
        name: r.name(),
        base: r.base,
        size: r.size,
        kind: r.kind_str(),
    }
}

fn verb(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

/// Human description of a remembered access, for race messages.
fn who(a: &AccessInfo) -> String {
    let mut s = match (a.epoch.actor, &a.kernel) {
        (HOST, _) => "the host".to_string(),
        (n, Some(k)) => format!("kernel `{k}` on stream {}", n - 1),
        (n, None) => format!("stream {}", n - 1),
    };
    if let Some((l, c)) = a.site {
        s.push_str(&format!(" at {l}:{c}"));
    }
    s
}

impl CheckHook {
    pub fn new() -> Self {
        Self::default()
    }

    /// The source position of the statement being executed, if known.
    pub fn cur_site(&self) -> Option<Site> {
        self.cur_site
    }

    /// `(name, launch seq, stream)` of the kernel being executed.
    pub fn kernel_ctx(&self) -> Option<(String, u64, usize)> {
        self.kernel
            .as_ref()
            .map(|k| (k.name.clone(), k.seq, k.stream))
    }

    pub fn shadow(&self) -> &ShadowHeap {
        &self.shadow
    }

    /// Deterministic digest of the full shadow state (the bulk-vs-per-word
    /// parity oracle).
    pub fn shadow_digest(&self) -> u64 {
        self.shadow.digest()
    }

    pub fn take_findings(&mut self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.findings)
    }

    /// Append a finding produced outside the hook (the driver's fatal
    /// classification).
    pub fn push_finding(&mut self, d: Diagnostic) {
        self.findings.push(d);
    }

    /// Move the findings into a report for `target`.
    pub fn into_report(&mut self, target: &str) -> CheckReport {
        let mut r = CheckReport::new(target);
        r.findings = self.take_findings();
        r
    }

    /// The actor performing plain accesses right now.
    fn actor(&self) -> usize {
        match &self.kernel {
            Some(k) => 1 + k.stream,
            None => HOST,
        }
    }

    fn diag(&self, class: DefectClass, message: String, alloc: Option<AllocInfo>) -> Diagnostic {
        Diagnostic {
            class,
            message,
            site: self.cur_site,
            kernel: self.kernel.as_ref().map(|k| k.name.clone()),
            launch_seq: self.kernel.as_ref().map(|k| k.seq),
            stream: self.kernel.as_ref().map(|k| k.stream),
            alloc,
            fatal: false,
        }
    }

    fn report_uninit(&mut self, serial: u64, alloc: &AllocInfo, off: u64, size: u64, first: u64) {
        let key = (
            serial,
            self.cur_site,
            self.kernel.as_ref().map(|k| k.name.clone()),
        );
        if !self.seen_uninit.insert(key) {
            return;
        }
        let d = self.diag(
            DefectClass::UninitRead,
            format!(
                "read of {size} bytes at {}+{off} touches uninitialized data \
                 (byte offset {first} was never written)",
                alloc.name
            ),
            Some(alloc.clone()),
        );
        self.findings.push(d);
    }

    /// The bucket an access at `off` belongs to for race tracking.
    fn bucket(kind: AllocKind, off: u64) -> u64 {
        match kind {
            AllocKind::Managed => off / PAGE * PAGE,
            _ => off,
        }
    }

    /// Record an access at (`serial`, `bucket`) by `actor` and report the
    /// first conflict with an unordered prior access.
    fn race_at(&mut self, serial: u64, bucket: u64, write: bool, actor: usize, alloc: &AllocInfo) {
        let info = AccessInfo {
            epoch: self.vc.epoch(actor),
            write,
            kernel: self.kernel.as_ref().map(|k| k.name.clone()),
            site: self.cur_site,
        };
        let conflict = self
            .locs
            .entry((serial, bucket))
            .or_default()
            .access(&mut self.vc, info);
        let Some(prev) = conflict else { return };
        let key = (serial, prev.epoch.actor, actor, prev.write, write);
        if !self.seen_races.insert(key) {
            return;
        }
        let mut d = self.diag(
            DefectClass::Race,
            format!(
                "unordered {} to {}+{bucket} conflicts with a {} by {}",
                verb(write),
                alloc.name,
                verb(prev.write),
                who(&prev)
            ),
            Some(alloc.clone()),
        );
        // A host-side access still races on behalf of no kernel; keep the
        // WHERE column honest when the racing access is the host's.
        if actor == HOST {
            d.kernel = None;
            d.launch_seq = None;
            d.stream = None;
        }
        self.findings.push(d);
    }

    /// One validated scalar access: uninit check, init marking, race
    /// bookkeeping. The machine has already ruled out hard faults.
    fn handle_access(&mut self, addr: Addr, size: u64, kind: AccessKind) {
        let Some(rec) = self.shadow.find_mut(addr) else {
            return; // defensive: never panic inside the hook
        };
        let serial = rec.serial;
        let akind = rec.kind;
        let off = addr - rec.base;
        let uninit = if kind.reads() {
            rec.first_uninit(off, size)
        } else {
            None
        };
        if kind.writes() {
            rec.mark_init(off, size);
        }
        let alloc = alloc_info(rec);
        if let Some(u) = uninit {
            self.report_uninit(serial, &alloc, off, size, u);
        }
        let actor = self.actor();
        if kind.reads() {
            self.race_at(serial, Self::bucket(akind, off), false, actor, &alloc);
        }
        if kind.writes() {
            self.race_at(serial, Self::bucket(akind, off), true, actor, &alloc);
        }
    }

    /// Leak pass for program exit: every still-live allocation is a
    /// finding. Workload harnesses skip this (their drivers free nothing
    /// by design); MiniCU programs own their heap.
    pub fn finish_leaks(&mut self) {
        let mut live: Vec<&AllocRecord> = self.shadow.live().collect();
        live.sort_by_key(|r| r.serial);
        let diags: Vec<Diagnostic> = live
            .iter()
            .map(|r| Diagnostic {
                class: DefectClass::Leak,
                message: format!(
                    "{} bytes allocated{} and never freed",
                    r.size,
                    match r.alloc_site {
                        Some((l, c)) => format!(" at {l}:{c}"),
                        None => String::new(),
                    }
                ),
                site: r.alloc_site,
                kernel: None,
                launch_seq: None,
                stream: None,
                alloc: Some(alloc_info(r)),
                fatal: false,
            })
            .collect();
        self.findings.extend(diags);
    }
}

impl MemHook for CheckHook {
    fn on_alloc(&mut self, base: Addr, size: u64, kind: AllocKind) {
        self.shadow.on_alloc(base, size, kind, self.cur_site);
    }

    fn on_free(&mut self, base: Addr) {
        self.shadow.on_free(base, self.cur_site);
    }

    fn on_alloc_label(&mut self, base: Addr, label: &str) {
        self.shadow.set_label(base, label);
    }

    fn on_site(&mut self, line: u32, col: u32) {
        self.cur_site = Some((line, col));
    }

    fn on_read(&mut self, _dev: Device, addr: Addr, size: u32) {
        self.handle_access(addr, size as u64, AccessKind::Read);
    }

    fn on_write(&mut self, _dev: Device, addr: Addr, size: u32) {
        self.handle_access(addr, size as u64, AccessKind::Write);
    }

    fn on_read_write(&mut self, dev: Device, addr: Addr, size: u32) {
        // Mirror the trait's default decomposition so the per-word and
        // bulk paths agree on the read-then-write order.
        self.on_read(dev, addr, size);
        self.on_write(dev, addr, size);
    }

    /// The bulk fast path: one vectorized shadow scan over the whole
    /// range, bit-identical in findings and final shadow state to the
    /// per-word decomposition (`tests/check.rs` proves it byte-for-byte).
    fn on_access_range(
        &mut self,
        dev: Device,
        addr: Addr,
        elem_size: u32,
        count: u64,
        kind: AccessKind,
    ) {
        if count == 0 {
            return;
        }
        let es = elem_size as u64;
        let len = es * count;
        let covered = self
            .shadow
            .find(addr)
            .is_some_and(|r| addr + len <= r.end());
        if !covered {
            // A range the shadow heap cannot see whole (the machine would
            // have faulted first; defensive): per-element fallback.
            for i in 0..count {
                self.handle_access(addr + i * es, es, kind);
            }
            return;
        }
        let rec = self.shadow.find_mut(addr).expect("covered range");
        let serial = rec.serial;
        let akind = rec.kind;
        let off = addr - rec.base;
        // Vectorized uninit scan: one pass over the shadow slice instead
        // of `count` element probes. The first dirty byte identifies the
        // same element the per-word walk would have flagged first.
        let uninit = if kind.reads() {
            rec.first_uninit(off, len)
        } else {
            None
        };
        if kind.writes() {
            rec.mark_init(off, len);
        }
        let alloc = alloc_info(rec);
        if let Some(u) = uninit {
            let eoff = off + (u - off) / es * es;
            self.report_uninit(serial, &alloc, eoff, es, u);
        }
        // Race updates, reads before writes (the per-element order for an
        // RMW range), visiting buckets ascending exactly as the per-word
        // walk does. Repeated same-epoch updates to one bucket are
        // idempotent, so once per bucket suffices.
        let actor = self.actor();
        for write in [false, true] {
            if (write && !kind.writes()) || (!write && !kind.reads()) {
                continue;
            }
            match akind {
                AllocKind::Managed => {
                    for p in (off / PAGE)..=((off + len - 1) / PAGE) {
                        self.race_at(serial, p * PAGE, write, actor, &alloc);
                    }
                }
                _ => {
                    for i in 0..count {
                        self.race_at(serial, off + i * es, write, actor, &alloc);
                    }
                }
            }
        }
        let _ = dev;
    }

    fn on_memcpy_ctx(
        &mut self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        _kind: CopyKind,
        stream: StreamId,
        blocking: bool,
    ) {
        if bytes == 0 {
            return;
        }
        let actor = if blocking { HOST } else { 1 + stream.0 };
        if !blocking {
            // An async copy is ordered after everything the host did —
            // the same release edge a kernel launch creates.
            self.vc.edge(HOST, actor);
        }
        // Initialization propagates byte-for-byte from source to
        // destination; an unknown source conservatively initializes.
        let src_shadow: Option<(u64, AllocKind, AllocInfo, Vec<u8>)> =
            self.shadow.find(src).map(|r| {
                let o = src - r.base;
                let hi = (o + bytes).min(r.size);
                (
                    o,
                    r.kind,
                    alloc_info(r),
                    r.shadow[o as usize..hi as usize].to_vec(),
                )
            });
        let src_serial = self.shadow.find(src).map(|r| r.serial);
        if let Some(d) = self.shadow.find_mut(dst) {
            let o = (dst - d.base) as usize;
            match &src_shadow {
                Some((_, _, _, sv)) => {
                    for (i, b) in sv.iter().enumerate() {
                        if o + i < d.shadow.len() {
                            d.shadow[o + i] = *b;
                        }
                    }
                }
                None => d.mark_init(o as u64, bytes),
            }
        }
        // Race bookkeeping: the copy reads its source and writes its
        // destination. Unmanaged buckets step by 4 bytes — the finest
        // element alignment MiniCU and the workloads use — so copy ranges
        // land on the same keys as the element accesses they race with.
        let sweep = |this: &mut Self, serial, akind, off0, info: &AllocInfo, write| match akind {
            AllocKind::Managed => {
                for p in (off0 / PAGE)..=((off0 + bytes - 1) / PAGE) {
                    this.race_at(serial, p * PAGE, write, actor, info);
                }
            }
            _ => {
                let mut o = off0;
                while o < off0 + bytes {
                    this.race_at(serial, o, write, actor, info);
                    o += 4;
                }
            }
        };
        if let (Some(serial), Some((off0, akind, info, _))) = (src_serial, &src_shadow) {
            sweep(self, serial, *akind, *off0, info, false);
        }
        let dst_rec = self
            .shadow
            .find(dst)
            .map(|r| (r.serial, r.kind, dst - r.base, alloc_info(r)));
        if let Some((serial, akind, off0, info)) = dst_rec {
            sweep(self, serial, akind, off0, &info, true);
        }
    }

    fn on_kernel_launch_ctx(&mut self, name: &str, stream: StreamId, seq: u64) {
        self.vc.edge(HOST, 1 + stream.0);
        self.kernel = Some(KernelCtx {
            name: name.to_string(),
            seq,
            stream: stream.0,
        });
    }

    fn on_kernel_end_ctx(&mut self, _name: &str, stream: StreamId, blocking: bool) {
        if blocking {
            self.vc.edge(1 + stream.0, HOST);
        }
        self.kernel = None;
    }

    fn on_stream_sync(&mut self, stream: StreamId) {
        self.vc.edge(1 + stream.0, HOST);
    }

    fn on_device_sync(&mut self) {
        for a in 1..self.vc.actors() {
            self.vc.edge(a, HOST);
        }
    }

    /// Harness pokes are input setup: they initialize but never race.
    fn on_debug_write(&mut self, addr: Addr, bytes: u64) {
        if let Some(r) = self.shadow.find_mut(addr) {
            let off = addr - r.base;
            r.mark_init(off, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn managed_alloc(h: &mut CheckHook, base: Addr, size: u64, name: &str) {
        h.on_alloc(base, size, AllocKind::Managed);
        h.on_alloc_label(base, name);
    }

    #[test]
    fn uninit_read_is_reported_once_per_site() {
        let mut h = CheckHook::new();
        h.on_alloc(0x1000, 64, AllocKind::Host);
        h.on_site(4, 3);
        h.on_write(Device::Cpu, 0x1000, 8);
        h.on_read(Device::Cpu, 0x1000, 8); // initialized: clean
        h.on_site(5, 3);
        h.on_read(Device::Cpu, 0x1008, 8); // uninitialized
        h.on_read(Device::Cpu, 0x1010, 8); // same site: deduped
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::UninitRead);
        assert_eq!(f[0].site, Some((5, 3)));
        assert!(f[0].message.contains("byte offset 8"), "{}", f[0].message);
    }

    #[test]
    fn unordered_stream_writes_race() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.on_debug_write(0x4000, 4096);
        h.on_kernel_launch_ctx("k1", StreamId(1), 1);
        h.on_write(Device::GPU0, 0x4000, 8);
        h.on_kernel_end_ctx("k1", StreamId(1), false);
        h.on_kernel_launch_ctx("k2", StreamId(2), 2);
        h.on_write(Device::GPU0, 0x4010, 8); // same page, unordered
        h.on_kernel_end_ctx("k2", StreamId(2), false);
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::Race);
        assert_eq!(f[0].kernel.as_deref(), Some("k2"));
        assert!(
            f[0].message.contains("kernel `k1` on stream 1"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn stream_sync_suppresses_the_race() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.on_debug_write(0x4000, 4096);
        h.on_kernel_launch_ctx("k1", StreamId(1), 1);
        h.on_write(Device::GPU0, 0x4000, 8);
        h.on_kernel_end_ctx("k1", StreamId(1), false);
        h.on_stream_sync(StreamId(1));
        h.on_kernel_launch_ctx("k2", StreamId(2), 2);
        h.on_write(Device::GPU0, 0x4010, 8);
        h.on_kernel_end_ctx("k2", StreamId(2), false);
        assert!(h.take_findings().is_empty());
    }

    #[test]
    fn host_read_races_with_pending_kernel_write() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.on_debug_write(0x4000, 4096);
        h.on_kernel_launch_ctx("k", StreamId(1), 1);
        h.on_write(Device::GPU0, 0x4000, 8);
        h.on_kernel_end_ctx("k", StreamId(1), false);
        h.on_read(Device::Cpu, 0x4000, 8); // no sync: racy
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::Race);
        assert!(f[0].kernel.is_none(), "host access: {f:?}");
    }

    #[test]
    fn device_sync_orders_everything() {
        let mut h = CheckHook::new();
        managed_alloc(&mut h, 0x4000, 4096, "arr");
        h.on_debug_write(0x4000, 4096);
        h.on_kernel_launch_ctx("k", StreamId(1), 1);
        h.on_write(Device::GPU0, 0x4000, 8);
        h.on_kernel_end_ctx("k", StreamId(1), false);
        h.on_device_sync();
        h.on_read(Device::Cpu, 0x4000, 8);
        assert!(h.take_findings().is_empty());
    }

    #[test]
    fn unmanaged_neighbors_do_not_false_share() {
        // Async copy into one slice while a kernel reads another slice of
        // the same cudaMalloc buffer: the pathfinder overlap pattern.
        let mut h = CheckHook::new();
        h.on_alloc(0x8000, 8192, AllocKind::Device(0));
        h.on_debug_write(0x8000, 8192);
        h.on_kernel_launch_ctx("k", StreamId(2), 1);
        h.on_read(Device::GPU0, 0x8000, 4);
        h.on_kernel_end_ctx("k", StreamId(2), false);
        h.on_memcpy_ctx(
            0x8000 + 4096,
            0x8000,
            0,
            CopyKind::HostToDevice,
            StreamId(1),
            false,
        );
        // Disjoint offsets, exact-offset buckets: no race.
        h.on_memcpy_ctx(
            0x9000,
            0x8000 + 2048,
            16,
            CopyKind::DeviceToDevice,
            StreamId(1),
            false,
        );
        let f = h.take_findings();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn memcpy_propagates_initialization() {
        let mut h = CheckHook::new();
        h.on_alloc(0x1000, 64, AllocKind::Host);
        h.on_alloc(0x4000, 64, AllocKind::Device(0));
        h.on_write(Device::Cpu, 0x1000, 32); // init first half of src
        h.on_memcpy_ctx(
            0x4000,
            0x1000,
            64,
            CopyKind::HostToDevice,
            StreamId(0),
            true,
        );
        h.on_kernel_launch_ctx("k", StreamId(0), 1);
        h.on_read(Device::GPU0, 0x4000, 32); // copied-from-initialized: clean
        h.on_read(Device::GPU0, 0x4020, 8); // copied-from-uninitialized
        h.on_kernel_end_ctx("k", StreamId(0), true);
        let f = h.take_findings();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].class, DefectClass::UninitRead);
    }

    #[test]
    fn leaks_surface_in_serial_order() {
        let mut h = CheckHook::new();
        h.on_site(2, 1);
        h.on_alloc(0x4000, 128, AllocKind::Managed);
        h.on_alloc_label(0x4000, "b");
        h.on_site(3, 1);
        h.on_alloc(0x1000, 64, AllocKind::Host);
        h.on_alloc_label(0x1000, "a");
        h.finish_leaks();
        let f = h.take_findings();
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].alloc.as_ref().unwrap().name, "b");
        assert_eq!(f[0].site, Some((2, 1)));
        assert_eq!(f[1].alloc.as_ref().unwrap().name, "a");
    }

    #[test]
    fn bulk_range_matches_per_word_byte_for_byte() {
        let run = |bulk: bool| -> (Vec<Diagnostic>, u64) {
            let mut h = CheckHook::new();
            managed_alloc(&mut h, 0x4000, 8192, "arr");
            h.on_site(7, 2);
            // Partially initialize, then a read range over the seam.
            h.on_access_range(Device::Cpu, 0x4000, 8, 100, AccessKind::Write);
            let read = |h: &mut CheckHook| {
                if bulk {
                    h.on_access_range(Device::Cpu, 0x4000, 8, 120, AccessKind::Read);
                    h.on_access_range(Device::GPU0, 0x4100, 4, 32, AccessKind::ReadWrite);
                } else {
                    for i in 0..120 {
                        h.on_read(Device::Cpu, 0x4000 + i * 8, 8);
                    }
                    for i in 0..32 {
                        h.on_read_write(Device::GPU0, 0x4100 + i * 4, 4);
                    }
                }
            };
            read(&mut h);
            (h.take_findings(), h.shadow_digest())
        };
        let (fb, db) = run(true);
        let (fw, dw) = run(false);
        assert_eq!(fb, fw);
        assert_eq!(db, dw);
        assert_eq!(fb.len(), 1, "{fb:?}");
        assert_eq!(fb[0].class, DefectClass::UninitRead);
    }
}
