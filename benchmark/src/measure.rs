//! Timing statistics, the in-memory span recorder and process memory.

use std::time::Instant;

/// Order statistics of one timing over the passes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p10: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

/// Linear-interpolation quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        p10: quantile(values, 0.10),
        p50: quantile(values, 0.50),
        p75: quantile(values, 0.75),
        n: values.len(),
    }
}

/// The low decile over passes. Host noise only ever slows a pass down, so
/// the low decile estimates the undisturbed time; README.md has the measured
/// spreads behind this choice.
pub fn steady(values: &[f64]) -> f64 {
    quantile(values, 0.10)
}

/// Seconds the calibration kernel takes on the reference host when nothing
/// disturbs it, so a calibrated time reads like a wall time taken there in
/// a quiet moment.
pub const CALIBRATION_NOMINAL_S: f64 = 0.018;

/// A fixed piece of work that is the benchmark's own and shares no code with
/// the repo, run between passes: arithmetic, first-touch writes to fresh
/// pages, and dependent loads that miss the private caches — the three
/// things the simulator's host time is made of. The reference host shifts
/// for tens of seconds at a time between speeds up to 30% apart, slowing
/// memory-bound code most (README.md has the measurements); dividing a pass
/// by the calibration run just before and after it takes most of that out.
pub struct Calibration {
    /// A random cyclic permutation, 4 MB: the size of one private L2.
    next: Vec<u32>,
}

/// 64 MB: above the allocator's largest threshold for serving a request from
/// its own heap.
const FRESH_WORDS: usize = 8 << 20;
const PAGE_WORDS: usize = 512;
/// 2 MB resident at a time, 16 MB touched per run of the kernel.
const TOUCHED_PAGES: usize = 512;
const FRESH_MAPPINGS: usize = 8;

impl Calibration {
    pub fn new() -> Self {
        let n = 1usize << 20;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut r = 12345u64;
        // Sattolo's shuffle: one cycle through every entry.
        for i in (1..n).rev() {
            r = r
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (r >> 33) as usize % i;
            next.swap(i, j);
        }
        Calibration { next }
    }

    fn chase(&self) {
        let mut p = 0u32;
        for _ in 0..200_000 {
            p = self.next[p as usize];
        }
        std::hint::black_box(p);
    }

    /// Runs the kernel once; returns its wall seconds.
    fn run(&self) -> f64 {
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..std::hint::black_box(3_000_000u64) {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
        // First-touch writes to fresh pages, as each job's image clone makes.
        // An allocation this large is always its own mapping, returned to
        // the kernel on drop, so the pages are fresh every time; only
        // `TOUCHED_PAGES` of them ever become resident, fewer than any
        // workload's own peak.
        for _ in 0..FRESH_MAPPINGS {
            let mut fresh = vec![0u64; FRESH_WORDS];
            let touched = fresh.iter_mut().step_by(PAGE_WORDS).take(TOUCHED_PAGES);
            touched.for_each(|w| *w = 1);
            std::hint::black_box(&fresh);
        }
        self.chase();
        started.elapsed().as_secs_f64()
    }

    /// The fastest of `repeats` runs: the host's speed at this moment.
    pub fn burst(&self, repeats: usize) -> f64 {
        // The pass before evicted the table; bring it back, untimed, so the
        // kernel times the host and not what the workload left in the cache.
        self.chase();
        (0..repeats.max(1))
            .map(|_| self.run())
            .fold(f64::INFINITY, f64::min)
    }
}

/// Repeated timings of one thing with a calibration burst before each and
/// after the last.
#[derive(Default)]
pub struct Timed {
    pub seconds: Vec<f64>,
    /// One more entry than `seconds`.
    pub bursts: Vec<f64>,
}

impl Timed {
    /// What a second of each timing is worth in calibrated seconds, from
    /// the bursts on either side of it.
    pub fn factors(&self) -> Vec<f64> {
        self.bursts
            .windows(2)
            .map(|w| CALIBRATION_NOMINAL_S / ((w[0] + w[1]) / 2.0))
            .collect()
    }

    /// The same for something measured right after the last timing.
    pub fn factor_after(&self) -> f64 {
        CALIBRATION_NOMINAL_S / self.bursts.last().copied().unwrap_or(CALIBRATION_NOMINAL_S)
    }

    pub fn calibrated(&self) -> Vec<f64> {
        self.seconds
            .iter()
            .zip(self.factors())
            .map(|(s, f)| s * f)
            .collect()
    }

    /// The calibrated low decile.
    pub fn steady(&self) -> f64 {
        steady(&self.calibrated())
    }
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`start_memory_pass`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Makes the next pass's peak its own: returns the allocator's free memory
/// to the kernel, then restarts the kernel's peak-RSS watermark at what is
/// still resident. Without this the peak is mostly what earlier phases left
/// in the allocator, which differed by 20 MB between two processes on
/// `farm-sweep`. Where either step is unavailable the watermark stays the
/// process's.
pub fn start_memory_pass() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer, may be called at any time
        // from any thread, and only releases memory the allocator holds
        // free; nothing here can observe the difference.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub pass: u32,
    /// Index into the workload's cell list; `u16::MAX` outside any cell.
    pub cell: u16,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const NO_CELL: u16 = u16::MAX;

/// Spans are kept in memory for the whole run and written once at exit.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    pub pass: u32,
    pub cell: u16,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            cell: NO_CELL,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
            cell: self.cell,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span; returns its seconds.
    pub fn exit(&mut self) -> f64 {
        let index = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[index as usize];
        span.end_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        span.nanos() as f64 / 1e9
    }

    /// Times one call into a layer.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        let _ = self.exit();
        r
    }

    /// Records an interval measured elsewhere (a farm job's own
    /// `host_nanos`) as a child of the open span, starting at `start_ns`
    /// on this recorder's clock.
    pub fn record(&mut self, name: &'static str, start_ns: u64, nanos: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + nanos,
            parent: self.open.last().copied(),
            pass: self.pass,
            cell: self.cell,
        });
    }

    /// Start of the innermost open span on this recorder's clock.
    pub fn open_start_ns(&self) -> u64 {
        self.open
            .last()
            .map_or(0, |&i| self.spans[i as usize].start_ns)
    }

    /// Self time (span minus its children) summed per span name, for each
    /// pass: `result[pass]` is a list of `(name, self nanoseconds)`.
    pub fn self_time_by_pass(&self) -> Vec<Vec<(&'static str, u64)>> {
        let mut child_nanos = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_nanos[p as usize] += s.nanos();
            }
        }
        let passes = self.spans.iter().map(|s| s.pass + 1).max().unwrap_or(0);
        let mut out: Vec<Vec<(&'static str, u64)>> = vec![Vec::new(); passes as usize];
        for (s, children) in self.spans.iter().zip(&child_nanos) {
            let own = s.nanos().saturating_sub(*children);
            let row = &mut out[s.pass as usize];
            match row.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += own,
                None => row.push((s.name, own)),
            }
        }
        out
    }

    /// The span file: a name table, the cell labels, and one
    /// `[name, start_ns, end_ns, parent, pass, cell]` row per span
    /// (`parent` and `cell` are -1 when absent).
    pub fn to_json(&self, workload: &str, seed: u64, cells: &[String]) -> String {
        use spice_bench::json::string;
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(p) => p,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    [{name}, {}, {}, {}, {}, {}]",
                s.start_ns,
                s.end_ns,
                s.parent.map_or(-1, i64::from),
                s.pass,
                if s.cell == NO_CELL {
                    -1
                } else {
                    i64::from(s.cell)
                }
            ));
        }
        let names: Vec<String> = names.iter().map(|n| string(n)).collect();
        let cells: Vec<String> = cells.iter().map(|c| string(c)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \
             \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"pass\", \"cell\"],\n  \
             \"names\": [{}],\n  \"cells\": [{}],\n  \"spans\": [\n{rows}\n  ]\n}}\n",
            string(workload),
            names.join(", "),
            cells.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.1) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        s.enter("pass");
        s.record("layer", 0, 30);
        s.record("layer", 40, 20);
        s.exit();
        s.spans[0].end_ns = s.spans[0].start_ns + 100;
        let by_pass = s.self_time_by_pass();
        assert_eq!(by_pass.len(), 1);
        assert!(by_pass[0].contains(&("layer", 50)));
        assert!(by_pass[0].contains(&("pass", 50)));
    }
}
