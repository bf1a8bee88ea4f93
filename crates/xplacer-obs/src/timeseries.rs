//! Streaming time-series telemetry: per-allocation counters bucketed into
//! fixed simulated-time epochs, with hierarchical downsampling so memory
//! stays O(buckets) no matter how long the run is.
//!
//! [`Telemetry`] is a [`MemHook`] consumer of the structured event stream
//! (attach alongside the tracer with `Machine::add_hook`). Every event
//! folds into the [`Sample`] of its epoch — globally and per allocation —
//! using the same counter mapping as the profiler's `CostBreakdown`, so
//! the time axis decomposes exactly the totals the other exporters report.
//!
//! When a series outgrows [`TelemetryConfig::max_buckets`], adjacent
//! epochs merge pairwise (`new[i] = old[2i] + old[2i+1]`) and the epoch
//! width doubles. Every counter is an integer, so merging is plain `u64`
//! addition: **sums are conserved bit-exactly** across any number of
//! downsampling rounds — the invariant the conservation tests pin down.
//! Rates (bandwidth, interconnect utilization) are *derived* at render
//! time from the conserved integers, never stored.

use std::collections::BTreeMap;

use hetsim::{AccessKind, Addr, AllocKind, Device, Event, MemHook, TimedEvent};

use crate::json::Json;
use xplacer_core::Episode;

/// Schema tag of the document [`timeseries_json`] writes.
pub const TIMESERIES_SCHEMA: &str = "xplacer-timeseries/1";

/// One epoch's worth of counters. All integers, so bucket merges are
/// exact; see the module docs for the conservation invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Structured events observed (all kinds).
    pub events: u64,
    /// Page faults (CPU + GPU).
    pub faults: u64,
    /// Pages moved host→device (on-demand + prefetch).
    pub migrations_h2d: u64,
    /// Pages moved device→host (on-demand + eviction writeback).
    pub migrations_d2h: u64,
    /// ReadMostly pages duplicated.
    pub read_dups: u64,
    /// Duplicated copies invalidated by writes.
    pub invalidations: u64,
    /// Pages evicted by oversubscription.
    pub evictions: u64,
    /// Dirty subset of evicted pages written back.
    pub writebacks: u64,
    /// Bytes that crossed the interconnect (migrations + writebacks +
    /// prefetches + explicit copies) — the numerator of utilization.
    pub bytes_moved: u64,
}

/// One named-counter accessor in [`Sample::FIELDS`].
pub type SampleField = (&'static str, fn(&Sample) -> u64);

impl Sample {
    /// Name → accessor table driving JSON export and dashboard rows, so
    /// every surface renders the same counters in the same order.
    pub const FIELDS: &'static [SampleField] = &[
        ("events", |s| s.events),
        ("faults", |s| s.faults),
        ("migrations_h2d", |s| s.migrations_h2d),
        ("migrations_d2h", |s| s.migrations_d2h),
        ("read_dups", |s| s.read_dups),
        ("invalidations", |s| s.invalidations),
        ("evictions", |s| s.evictions),
        ("writebacks", |s| s.writebacks),
        ("bytes_moved", |s| s.bytes_moved),
    ];

    /// Fold one event in. The mapping mirrors the profiler's
    /// `CostBreakdown::absorb`: eviction writebacks count as D2H
    /// migrations with their bytes in `bytes_moved`, prefetched pages
    /// count as migrations, ReadDup bytes do *not* count as moved (the
    /// paper charges duplication separately from migration traffic).
    pub fn absorb(&mut self, ev: &Event) {
        self.events += 1;
        match ev {
            Event::PageFault { .. } => self.faults += 1,
            Event::Migration { to, bytes, .. } => {
                if to.is_gpu() {
                    self.migrations_h2d += 1;
                } else {
                    self.migrations_d2h += 1;
                }
                self.bytes_moved += bytes;
            }
            Event::ReadDup { .. } => self.read_dups += 1,
            Event::Invalidate { copies, .. } => self.invalidations += u64::from(*copies),
            Event::Evict {
                pages,
                writeback_pages,
                writeback_bytes,
                ..
            } => {
                self.evictions += u64::from(*pages);
                self.writebacks += u64::from(*writeback_pages);
                self.migrations_d2h += u64::from(*writeback_pages);
                self.bytes_moved += writeback_bytes;
            }
            Event::Memcpy { bytes, .. } => self.bytes_moved += bytes,
            Event::Prefetch {
                pages,
                bytes_moved,
                to,
                ..
            } => {
                if to.is_gpu() {
                    self.migrations_h2d += u64::from(*pages);
                } else {
                    self.migrations_d2h += u64::from(*pages);
                }
                self.bytes_moved += bytes_moved;
            }
            _ => {}
        }
    }

    /// Exact integer merge of two epochs (the downsampling step).
    pub fn merge(&mut self, other: &Sample) {
        self.events += other.events;
        self.faults += other.faults;
        self.migrations_h2d += other.migrations_h2d;
        self.migrations_d2h += other.migrations_d2h;
        self.read_dups += other.read_dups;
        self.invalidations += other.invalidations;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.bytes_moved += other.bytes_moved;
    }
}

/// Epoch width and memory bound of a [`Telemetry`] consumer.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Initial epoch width in simulated ns. Doubles on each downsample.
    pub epoch_ns: f64,
    /// Bucket cap per series; reaching it merges adjacent pairs.
    pub max_buckets: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            epoch_ns: 1024.0,
            max_buckets: 256,
        }
    }
}

/// One allocation's series and identity.
#[derive(Debug, Clone)]
pub struct AllocSeries {
    pub base: Addr,
    pub bytes: u64,
    pub kind: AllocKind,
    pub live: bool,
    /// Per-epoch samples (same epoch width as the global series).
    pub buckets: Vec<Sample>,
    /// Lifetime totals (equal to the bucket sums — tested invariant).
    pub total: Sample,
}

/// The streaming telemetry consumer. Attach with `Machine::add_hook`;
/// purely observational (never alters simulation results or timing).
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// Current epoch width (doubles with each downsample round).
    epoch_ns: f64,
    /// Downsample rounds performed.
    pub downsamples: u32,
    /// Model interconnect peak (bytes/ns) for derived utilization.
    peak_bw: f64,
    global: Vec<Sample>,
    total: Sample,
    allocs: BTreeMap<Addr, AllocSeries>,
    /// Latest event timestamp seen.
    now_ns: f64,
}

impl Telemetry {
    /// `peak_bw` is the platform's `link_bw` in bytes/ns.
    pub fn new(cfg: TelemetryConfig, peak_bw: f64) -> Self {
        assert!(cfg.epoch_ns > 0.0, "epoch width must be positive");
        assert!(cfg.max_buckets >= 2, "need at least two buckets to merge");
        Telemetry {
            epoch_ns: cfg.epoch_ns,
            cfg,
            downsamples: 0,
            peak_bw: peak_bw.max(f64::MIN_POSITIVE),
            global: Vec::new(),
            total: Sample::default(),
            allocs: BTreeMap::new(),
            now_ns: 0.0,
        }
    }

    /// Current epoch width in simulated ns.
    pub fn epoch_ns(&self) -> f64 {
        self.epoch_ns
    }

    /// Model interconnect peak in bytes/ns.
    pub fn peak_bw(&self) -> f64 {
        self.peak_bw
    }

    /// Latest simulated timestamp observed.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// The machine-wide series, one [`Sample`] per epoch.
    pub fn global(&self) -> &[Sample] {
        &self.global
    }

    /// Lifetime machine-wide totals.
    pub fn total(&self) -> &Sample {
        &self.total
    }

    /// Per-allocation series, keyed by base address (deterministic order).
    pub fn allocs(&self) -> impl Iterator<Item = &AllocSeries> {
        self.allocs.values()
    }

    /// Derived utilization of one epoch: bytes moved over what the link
    /// could move in that epoch, as a fraction (may exceed 1.0 when copies
    /// overlap on streams).
    pub fn utilization(&self, s: &Sample) -> f64 {
        s.bytes_moved as f64 / (self.peak_bw * self.epoch_ns)
    }

    fn bucket_index(&mut self, t_ns: f64) -> usize {
        loop {
            let idx = (t_ns.max(0.0) / self.epoch_ns) as usize;
            if idx < self.cfg.max_buckets {
                return idx;
            }
            self.downsample();
        }
    }

    /// Merge adjacent epoch pairs everywhere and double the epoch width.
    fn downsample(&mut self) {
        fn halve(buckets: &mut Vec<Sample>) {
            let mut merged = Vec::with_capacity(buckets.len().div_ceil(2) + 1);
            for pair in buckets.chunks(2) {
                let mut s = pair[0];
                if let Some(b) = pair.get(1) {
                    s.merge(b);
                }
                merged.push(s);
            }
            *buckets = merged;
        }
        halve(&mut self.global);
        for series in self.allocs.values_mut() {
            halve(&mut series.buckets);
        }
        self.epoch_ns *= 2.0;
        self.downsamples += 1;
    }

    fn ingest(&mut self, ev: &TimedEvent) {
        self.now_ns = self.now_ns.max(ev.t_ns);
        let idx = self.bucket_index(ev.t_ns);
        if self.global.len() <= idx {
            self.global.resize(idx + 1, Sample::default());
        }
        self.global[idx].absorb(&ev.event);
        self.total.absorb(&ev.event);

        // Identity bookkeeping, then charge the owning allocation.
        match &ev.event {
            Event::Alloc { base, bytes, kind } => {
                self.allocs.insert(
                    *base,
                    AllocSeries {
                        base: *base,
                        bytes: *bytes,
                        kind: *kind,
                        live: true,
                        buckets: Vec::new(),
                        total: Sample::default(),
                    },
                );
            }
            Event::Free { base } => {
                if let Some(s) = self.allocs.get_mut(base) {
                    s.live = false;
                }
            }
            _ => {}
        }
        let owner = ev.ctx.alloc.or(match &ev.event {
            Event::Alloc { base, .. } | Event::Free { base } => Some(*base),
            _ => None,
        });
        if let Some(base) = owner {
            if let Some(series) = self.allocs.get_mut(&base) {
                if series.buckets.len() <= idx {
                    series.buckets.resize(idx + 1, Sample::default());
                }
                series.buckets[idx].absorb(&ev.event);
                series.total.absorb(&ev.event);
            }
        }
    }
}

impl MemHook for Telemetry {
    // Telemetry listens only to the structured stream; word traffic is
    // already aggregated by Stats and would dominate hook overhead, so the
    // range callback is a no-op rather than the per-element default.
    fn on_access_range(&mut self, _: Device, _: Addr, _: u32, _: u64, _: AccessKind) {}

    fn on_event(&mut self, ev: &TimedEvent) {
        self.ingest(ev);
    }
}

fn sample_fields_json(s: &Sample) -> Json {
    let mut j = Json::obj();
    for (name, get) in Sample::FIELDS {
        j.set(name, get(s).into());
    }
    j
}

fn series_json(t: &Telemetry, buckets: &[Sample]) -> Json {
    let mut j = Json::obj();
    for (name, get) in Sample::FIELDS {
        j.set(
            name,
            Json::Arr(buckets.iter().map(|s| get(s).into()).collect()),
        );
    }
    // Derived, not stored: percent of model link peak per epoch.
    j.set(
        "utilization_pct",
        Json::Arr(
            buckets
                .iter()
                .map(|s| Json::Num((t.utilization(s) * 100.0 * 100.0).round() / 100.0))
                .collect(),
        ),
    );
    j
}

fn episode_json(e: &Episode) -> Json {
    let mut j = Json::obj();
    j.set("kind", e.kind.label().into());
    if let Some(a) = e.alloc {
        j.set("alloc", format!("0x{a:x}").into());
    }
    j.set("start_ns", Json::Num(e.start_ns))
        .set("end_ns", Json::Num(e.end_ns))
        .set("span_ns", Json::Num(e.span_ns()))
        .set("pages", e.pages.into())
        .set("trips", e.trips.into())
        .set("events", e.events.into())
        .set("cost_ns", Json::Num(e.cost_ns))
        .set("bytes", e.bytes.into())
        .set("active", e.active.into());
    j
}

/// Serialize the full telemetry state: conserved totals, the global
/// series, every allocation's series, and the detected episodes.
pub fn timeseries_json(
    t: &Telemetry,
    workload: &str,
    platform: &str,
    episodes: &[Episode],
) -> Json {
    let mut j = Json::obj();
    j.set("schema", TIMESERIES_SCHEMA.into())
        .set("workload", workload.into())
        .set("platform", platform.into())
        .set("epoch_ns", Json::Num(t.epoch_ns()))
        .set("buckets", t.global().len().into())
        .set("downsamples", u64::from(t.downsamples).into())
        .set("peak_bw_bytes_per_ns", Json::Num(t.peak_bw()))
        .set("totals", sample_fields_json(t.total()))
        .set("series", series_json(t, t.global()));
    let allocs = t
        .allocs()
        .map(|a| {
            let mut aj = Json::obj();
            aj.set("base", format!("0x{:x}", a.base).into())
                .set("bytes", a.bytes.into())
                .set("kind", a.kind.api_name().into())
                .set("live", a.live.into())
                .set("totals", sample_fields_json(&a.total))
                .set("series", series_json(t, &a.buckets));
            aj
        })
        .collect();
    j.set("allocations", Json::Arr(allocs));
    j.set(
        "episodes",
        Json::Arr(episodes.iter().map(episode_json).collect()),
    );
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::AttrCtx;

    fn ev(t: f64, alloc: Option<Addr>, event: Event) -> TimedEvent {
        TimedEvent {
            t_ns: t,
            cost_ns: 1.0,
            ctx: AttrCtx {
                alloc,
                ..AttrCtx::host()
            },
            event,
        }
    }

    fn feed(t: &mut Telemetry, events: &[TimedEvent]) {
        for e in events {
            MemHook::on_event(t, e);
        }
    }

    fn fault(t: f64, alloc: Addr, page: u64) -> TimedEvent {
        ev(
            t,
            Some(alloc),
            Event::PageFault {
                dev: Device::GPU0,
                page,
                write: false,
            },
        )
    }

    #[test]
    fn buckets_fill_by_epoch_and_totals_track() {
        let mut t = Telemetry::new(
            TelemetryConfig {
                epoch_ns: 100.0,
                max_buckets: 16,
            },
            12.0,
        );
        feed(
            &mut t,
            &[
                fault(0.0, 0x1000, 0),
                fault(50.0, 0x1000, 1),
                fault(250.0, 0x1000, 2),
            ],
        );
        assert_eq!(t.global().len(), 3);
        assert_eq!(t.global()[0].faults, 2);
        assert_eq!(t.global()[1].faults, 0);
        assert_eq!(t.global()[2].faults, 1);
        assert_eq!(t.total().faults, 3);
        assert_eq!(t.now_ns(), 250.0);
    }

    #[test]
    fn downsampling_conserves_every_field_and_bounds_memory() {
        let mut t = Telemetry::new(
            TelemetryConfig {
                epoch_ns: 10.0,
                max_buckets: 4,
            },
            12.0,
        );
        // 100 epochs of activity into a 4-bucket cap: many merge rounds.
        for i in 0..100u64 {
            MemHook::on_event(
                &mut t,
                &ev(
                    i as f64 * 10.0,
                    None,
                    Event::Migration {
                        page: i,
                        to: if i % 2 == 0 {
                            Device::GPU0
                        } else {
                            Device::Cpu
                        },
                        bytes: 65_536,
                    },
                ),
            );
        }
        assert!(t.global().len() <= 4, "memory stays O(max_buckets)");
        assert!(t.downsamples >= 5, "cap forced repeated merges");
        assert_eq!(t.epoch_ns(), 10.0 * f64::from(1u32 << t.downsamples));
        for (name, get) in Sample::FIELDS {
            let bucket_sum: u64 = t.global().iter().map(get).sum();
            assert_eq!(bucket_sum, get(t.total()), "field `{name}` conserved");
        }
        assert_eq!(t.total().migrations_h2d, 50);
        assert_eq!(t.total().migrations_d2h, 50);
        assert_eq!(t.total().bytes_moved, 100 * 65_536);
    }

    #[test]
    fn per_allocation_series_follow_attribution() {
        let mut t = Telemetry::new(TelemetryConfig::default(), 12.0);
        let a = 0x1000;
        let b = 0x2000;
        feed(
            &mut t,
            &[
                ev(
                    0.0,
                    None,
                    Event::Alloc {
                        base: a,
                        bytes: 4096,
                        kind: AllocKind::Managed,
                    },
                ),
                ev(
                    0.0,
                    None,
                    Event::Alloc {
                        base: b,
                        bytes: 8192,
                        kind: AllocKind::Managed,
                    },
                ),
                fault(10.0, a, 0),
                fault(20.0, a, 1),
                fault(30.0, b, 2),
                ev(40.0, None, Event::Free { base: b }),
            ],
        );
        let series: Vec<&AllocSeries> = t.allocs().collect();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].base, a);
        assert_eq!(series[0].total.faults, 2);
        assert!(series[0].live);
        assert_eq!(series[1].total.faults, 1);
        assert!(!series[1].live);
        // Alloc/free events charge their own allocation.
        assert_eq!(series[0].total.events, 3);
        assert_eq!(series[1].total.events, 3);
    }

    #[test]
    fn eviction_folds_like_the_profiler() {
        let mut t = Telemetry::new(TelemetryConfig::default(), 12.0);
        MemHook::on_event(
            &mut t,
            &ev(
                0.0,
                None,
                Event::Evict {
                    pages: 4,
                    bytes: 262_144,
                    writeback_pages: 3,
                    writeback_bytes: 196_608,
                },
            ),
        );
        let s = t.total();
        assert_eq!(s.evictions, 4);
        assert_eq!(s.writebacks, 3);
        assert_eq!(s.migrations_d2h, 3, "writebacks count as D2H traffic");
        assert_eq!(s.bytes_moved, 196_608);
    }

    #[test]
    fn utilization_is_derived_from_conserved_bytes() {
        let t = Telemetry::new(
            TelemetryConfig {
                epoch_ns: 1000.0,
                max_buckets: 8,
            },
            12.0,
        );
        let s = Sample {
            bytes_moved: 6_000,
            ..Sample::default()
        };
        assert!((t.utilization(&s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_export_is_deterministic_and_parseable() {
        let build = || {
            let mut t = Telemetry::new(
                TelemetryConfig {
                    epoch_ns: 50.0,
                    max_buckets: 8,
                },
                12.0,
            );
            feed(
                &mut t,
                &[
                    ev(
                        0.0,
                        None,
                        Event::Alloc {
                            base: 0x1000,
                            bytes: 4096,
                            kind: AllocKind::Managed,
                        },
                    ),
                    fault(10.0, 0x1000, 0),
                    fault(300.0, 0x1000, 1),
                ],
            );
            timeseries_json(&t, "demo", "intel_pascal", &[]).to_string_pretty()
        };
        let a = build();
        assert_eq!(a, build());
        let doc = Json::parse(&a).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(TIMESERIES_SCHEMA));
        assert_eq!(
            doc.get("totals").unwrap().get("faults").unwrap().as_u64(),
            Some(2)
        );
        let lanes = doc.get("series").unwrap();
        assert_eq!(lanes.get("faults").unwrap().as_arr().unwrap().len(), 7);
        assert!(lanes.get("utilization_pct").is_some());
    }
}
