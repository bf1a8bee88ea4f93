//! CUTHERMO-style page×epoch access heatmaps: where in each allocation the
//! program touches memory, and when.
//!
//! [`HeatmapRecorder`] is a [`MemHook`]: attach it to a machine (alongside
//! the tracer via `Machine::add_hook`) and it buckets every heap access by
//! page and by *epoch*, where a new epoch starts at every kernel launch
//! (or an explicit [`mark_phase`](HeatmapRecorder::mark_phase) call). The
//! result renders as terminal ASCII art — pages down, epochs across,
//! brightness = access count — and as CSV for tooling. Hot rows that only
//! light up in alternating columns are the visual signature of the paper's
//! ping-pong anti-pattern.

use std::fmt::Write as _;

use hetsim::{Addr, AllocKind, Device, MemHook};

/// Brightness ramp, dark to bright.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Maximum heatmap rows per allocation; denser allocations get their pages
/// bucketed.
const MAX_ROWS: usize = 32;

struct AllocHeat {
    base: Addr,
    size: u64,
    label: Option<String>,
    live: bool,
    pages: usize,
    /// `counts[epoch][page]` — grown lazily as epochs appear.
    counts: Vec<Vec<u64>>,
}

impl AllocHeat {
    fn display_name(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => format!("0x{:x}", self.base),
        }
    }
}

/// Records page×epoch access counts per allocation. Purely observational:
/// attaching it never changes simulation results or timing.
pub struct HeatmapRecorder {
    page_size: u64,
    epoch: usize,
    allocs: Vec<AllocHeat>,
    /// Index of the last allocation hit, for streaming-access locality.
    last_hit: usize,
}

impl HeatmapRecorder {
    /// `page_size` must match the machine's platform page size so rows
    /// line up with the UM driver's migration granularity.
    pub fn new(page_size: u64) -> Self {
        assert!(page_size > 0);
        HeatmapRecorder {
            page_size,
            epoch: 0,
            allocs: Vec::new(),
            last_hit: 0,
        }
    }

    /// Attach a display label to the allocation at `base` (mirrors the
    /// tracer's diagnostic pragma).
    pub fn name(&mut self, base: Addr, label: &str) {
        if let Some(a) = self.allocs.iter_mut().rev().find(|a| a.base == base) {
            a.label = Some(label.to_string());
        }
    }

    /// Start a new epoch explicitly (phase marker). Kernel launches do
    /// this automatically.
    pub fn mark_phase(&mut self) {
        self.epoch += 1;
    }

    /// The current epoch index.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Number of tracked allocations.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    fn touch(&mut self, addr: Addr, size: u32) {
        // Locality fast path, then linear scan (allocation counts are
        // small in every workload here).
        let idx = if self
            .allocs
            .get(self.last_hit)
            .is_some_and(|a| addr >= a.base && addr < a.base + a.size)
        {
            self.last_hit
        } else {
            match self
                .allocs
                .iter()
                .rposition(|a| addr >= a.base && addr < a.base + a.size)
            {
                Some(i) => i,
                None => return, // untracked address (stack, registers)
            }
        };
        self.last_hit = idx;
        let epoch = self.epoch;
        let a = &mut self.allocs[idx];
        let first = ((addr - a.base) / self.page_size) as usize;
        let last = ((addr - a.base + size.max(1) as u64 - 1) / self.page_size) as usize;
        while a.counts.len() <= epoch {
            a.counts.push(vec![0; a.pages]);
        }
        for p in first..=last.min(a.pages - 1) {
            a.counts[epoch][p] += 1;
        }
    }

    /// Render every allocation's heatmap as terminal ASCII art.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== page x epoch access heatmap ({} allocations, {} epochs, ramp \"{}\") ===",
            self.allocs.len(),
            self.epoch + 1,
            std::str::from_utf8(RAMP).unwrap()
        );
        for a in &self.allocs {
            let epochs = a.counts.len().max(1);
            let bucket = a.pages.div_ceil(MAX_ROWS);
            let rows = a.pages.div_ceil(bucket);
            // Fold pages into row buckets.
            let mut grid = vec![vec![0u64; epochs]; rows];
            for (e, per_page) in a.counts.iter().enumerate() {
                for (p, &c) in per_page.iter().enumerate() {
                    grid[p / bucket][e] += c;
                }
            }
            let max = grid.iter().flatten().copied().max().unwrap_or(0);
            let _ = writeln!(
                out,
                "--- {} ({} B, {} pages{}, {}) ---",
                a.display_name(),
                a.size,
                a.pages,
                if bucket > 1 {
                    format!(", {bucket} pages/row")
                } else {
                    String::new()
                },
                if a.live { "live" } else { "freed" }
            );
            if max == 0 {
                let _ = writeln!(out, "(never accessed)");
                continue;
            }
            let scale = (RAMP.len() - 1) as f64 / (1.0 + max as f64).ln();
            for (r, row) in grid.iter().enumerate() {
                let _ = write!(out, "page {:>6} |", r * bucket);
                for &c in row {
                    let level = if c == 0 {
                        0
                    } else {
                        (((1.0 + c as f64).ln() * scale).round() as usize).clamp(1, RAMP.len() - 1)
                    };
                    out.push(RAMP[level] as char);
                }
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "            +{} (epoch 0..{}, max {} accesses/cell)",
                "-".repeat(epochs),
                epochs - 1,
                max
            );
        }
        out
    }

    /// CSV dump: one row per non-zero (allocation, page, epoch) cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("alloc,base,page,epoch,accesses\n");
        for a in &self.allocs {
            for (e, per_page) in a.counts.iter().enumerate() {
                for (p, &c) in per_page.iter().enumerate() {
                    if c > 0 {
                        let _ =
                            writeln!(out, "{},0x{:x},{},{},{}", a.display_name(), a.base, p, e, c);
                    }
                }
            }
        }
        out
    }

    /// Total accesses recorded for the allocation at `base` (test hook).
    pub fn total_accesses(&self, base: Addr) -> u64 {
        self.allocs
            .iter()
            .filter(|a| a.base == base)
            .flat_map(|a| a.counts.iter().flatten())
            .sum()
    }
}

impl MemHook for HeatmapRecorder {
    fn on_alloc(&mut self, base: Addr, size: u64, _kind: AllocKind) {
        let pages = (size.max(1)).div_ceil(self.page_size) as usize;
        self.allocs.push(AllocHeat {
            base,
            size: size.max(1),
            label: None,
            live: true,
            pages,
            counts: Vec::new(),
        });
    }

    fn on_free(&mut self, base: Addr) {
        if let Some(a) = self
            .allocs
            .iter_mut()
            .rev()
            .find(|a| a.base == base && a.live)
        {
            a.live = false;
        }
    }

    fn on_read(&mut self, _dev: Device, addr: Addr, size: u32) {
        self.touch(addr, size);
    }

    fn on_write(&mut self, _dev: Device, addr: Addr, size: u32) {
        self.touch(addr, size);
    }

    fn on_kernel_launch(&mut self, _name: &str) {
        self.mark_phase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> HeatmapRecorder {
        let mut h = HeatmapRecorder::new(4096);
        h.on_alloc(0x10_0000, 4 * 4096, AllocKind::Managed);
        h.name(0x10_0000, "dom");
        h
    }

    #[test]
    fn accesses_bucket_by_page_and_epoch() {
        let mut h = recorder();
        h.on_write(Device::Cpu, 0x10_0000, 8); // page 0, epoch 0
        h.on_kernel_launch("k");
        h.on_read(Device::GPU0, 0x10_0000 + 4096, 8); // page 1, epoch 1
        h.on_read(Device::GPU0, 0x10_0000 + 4096, 8);
        let csv = h.to_csv();
        assert!(csv.contains("dom,0x100000,0,0,1"));
        assert!(csv.contains("dom,0x100000,1,1,2"));
        assert_eq!(h.total_accesses(0x10_0000), 3);
    }

    #[test]
    fn ascii_render_shows_name_and_ramp() {
        let mut h = recorder();
        for i in 0..100 {
            h.on_write(Device::Cpu, 0x10_0000 + (i % 4) * 4096, 8);
        }
        let art = h.render_ascii();
        assert!(art.contains("dom"));
        assert!(art.contains("page      0 |"));
        assert!(art.contains("max"));
        // Hottest cell uses a bright ramp character.
        assert!(art.contains('@') || art.contains('%') || art.contains('#'));
    }

    #[test]
    fn untouched_allocation_renders_as_such() {
        let h = recorder();
        assert!(h.render_ascii().contains("(never accessed)"));
        assert_eq!(h.to_csv().lines().count(), 1, "header only");
    }

    #[test]
    fn explicit_phase_marker_advances_epoch() {
        let mut h = recorder();
        assert_eq!(h.epoch(), 0);
        h.mark_phase();
        h.on_write(Device::Cpu, 0x10_0000, 8);
        assert!(h.to_csv().contains("dom,0x100000,0,1,1"));
    }

    #[test]
    fn large_allocations_bucket_rows() {
        let mut h = HeatmapRecorder::new(4096);
        let pages = 1000u64;
        h.on_alloc(0x20_0000, pages * 4096, AllocKind::Managed);
        for p in 0..pages {
            h.on_write(Device::Cpu, 0x20_0000 + p * 4096, 8);
        }
        let art = h.render_ascii();
        let rows = art.lines().filter(|l| l.starts_with("page ")).count();
        assert!(rows <= MAX_ROWS, "{rows} rows exceed the cap");
        assert!(art.contains("pages/row"));
    }

    #[test]
    fn unknown_addresses_and_free_are_tolerated() {
        let mut h = recorder();
        h.on_read(Device::Cpu, 0xDEAD_0000, 8); // not an allocation
        h.on_free(0x10_0000);
        h.on_write(Device::Cpu, 0x10_0000, 8); // still recorded after free
        assert!(h.render_ascii().contains("freed"));
        assert_eq!(h.total_accesses(0x10_0000), 1);
    }
}
