//! `repro bench` — the committed performance harness.
//!
//! Times whole inventories (SCAT/FCAT under both membership modes, plus
//! DFSA/EDFSA/ABS/AQS) at several population sizes using the vendored
//! criterion's [`measure_with_budget`] timing discipline, and writes the
//! results as a `BENCH_*.json` file that is committed per PR so the repo
//! accumulates a performance trajectory.
//!
//! The harness also counts heap allocations per slot when the caller (the
//! `repro` binary, which installs a counting `#[global_allocator]`) hands it
//! an allocation counter, and — unless disabled — asserts that the
//! slot-level SCAT/FCAT loop is allocation-free in steady state.
//!
//! ```text
//! repro bench [--smoke] [--out FILE] [--baseline FILE] [--gate FILE]
//!             [--budget-ms N] [--seed S] [--no-alloc-check]
//! ```
//!
//! `--baseline FILE` points at a previous run's JSON (e.g. captured before
//! an optimization); per-entry speedups are computed and embedded in the
//! output. `--gate FILE` points at the committed `BENCH_*.json` and fails
//! the run if any `*/signal-soa*` cell's sampled-normalized throughput
//! drops more than [`GATE_TOLERANCE`] (20%) below the committed ratio. The
//! two cells of each compared ratio are timed together, one warm inventory
//! of each in turn, so both see the same host state; in smoke mode they keep
//! the full-mode 200 ms budget instead of 5 ms, so neither side of a ratio
//! rests on one or two timings (each entry records its budget).
//!
//! The run's header and JSON name the Hash-membership scan kernel the CPU
//! ran ([`scan_kernel_name`]), since the `*/hash` cells depend on it, and
//! the AWGN block kernel ([`polar_kernel_name`]), since the `*/signal-soa`
//! cells do.

use criterion::{measure_with_budget, Measurement};
use rfid_anc::{
    BackendModel, CompressedSensing, Fcat, FcatConfig, Membership, Mpr, ResolutionModel, Scat,
    ScatConfig, SignalResolutionConfig,
};
use rfid_protocols::{Abs, Aqs, Dfsa, Edfsa};
use rfid_sim::{run_inventory, seeded_rng, InventoryReport, SimConfig, SimError};
use rfid_types::hash::{polar_kernel_name, scan_kernel_name};
use rfid_types::{population, TagId};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Steady-state allocation tolerance for the ideal-resolution slot-level
/// loop, in allocations per slot. The loop itself must be allocation-free;
/// this allowance covers strictly amortized growth outside the loop (report
/// `Vec`/`HashSet` doublings, the rare spill of an unusable k > λ record)
/// which shrinks toward zero as the run gets longer.
pub const MAX_ALLOCS_PER_SLOT: f64 = 0.05;

/// Allocation allowance for the signal-backed (SoA) slot-level entries.
/// The arena + reference-cache + scratch design amortizes the DSP chain's
/// buffers (reference waveforms, least-squares residual, demodulated bits)
/// across the whole run, so steady state only pays for rare arena/pool
/// growth and report-side doublings. The pre-SoA per-record path measured
/// ≈ 2.9–3.1 allocs/slot; the gate pins the SoA budget at 2.0 so a
/// regression (e.g. losing the waveform arena or the pooled record
/// buffers) still fails the bench.
pub const MAX_ALLOCS_PER_SLOT_SIGNAL: f64 = 2.0;

/// Allocation allowance for the tree-splitting (ABS) walk. The depth-first
/// dynamics recycle drained group buffers through a spare pool, so a round
/// only allocates the root group, O(depth) pool growth and report-side
/// doublings — the naive two-fresh-vectors-per-collision version measured
/// ≈ 1.1 allocs/slot and would blow this gate by an order of magnitude.
pub const MAX_ALLOCS_PER_SLOT_TREE: f64 = 0.05;

/// Population size at which the allocation assertion is applied: large
/// enough that one-time setup cost is amortized far below the tolerance.
const ALLOC_CHECK_MIN_TAGS: usize = 2_000;

/// CLI-level options for a bench run.
#[derive(Debug)]
pub struct BenchOptions {
    /// Tiny populations and budget, for CI smoke coverage.
    pub smoke: bool,
    /// Per-entry measurement budget override (milliseconds).
    pub budget_ms: Option<u64>,
    /// Simulation seed (populations derive theirs from the size).
    pub seed: u64,
    /// Enforce the steady-state zero-allocation assertion.
    pub check_allocs: bool,
    /// Previous `BENCH_*.json` to compute speedups against.
    pub baseline: Option<PathBuf>,
    /// Committed `BENCH_*.json` to enforce the signal-throughput gate
    /// against: each `*/signal-soa*` cell's slots/s, normalized by the
    /// matching sampled-membership cell at the same `n` (so the gate is
    /// machine-speed independent), must stay within
    /// [`GATE_TOLERANCE`] of the committed ratio.
    pub gate: Option<PathBuf>,
    /// Output JSON path.
    pub out: PathBuf,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            smoke: false,
            budget_ms: None,
            seed: 0,
            check_allocs: true,
            baseline: None,
            gate: None,
            out: PathBuf::from("BENCH_PR7.json"),
        }
    }
}

/// Allowed relative regression of the signal-soa/sampled throughput ratio
/// before the `--gate` check fails (0.2 = 20%).
pub const GATE_TOLERANCE: f64 = 0.2;

/// Smoke-mode budget of the cells the `--gate` check compares: each
/// `*/signal-soa` cell and its [`gate_reference`], at a population the
/// gate file also holds. Under the 5 ms smoke budget a signal-soa
/// inventory at n = 2000 (about 30 ms) is timed once after its warm-up
/// and a sampled one a few times, so one host slowdown can move the ratio
/// past its floor. A longer budget for only one side would bias the
/// ratio, since best-of-more is faster. So both cells get the full-mode
/// budget, the one the committed ratios were measured with. An explicit
/// `--budget-ms` still applies to every cell. The pair is timed by
/// [`measure_interleaved`] over both budgets together.
const SMOKE_GATE_BUDGET_MS: u64 = 200;

/// One measured (protocol, population) cell.
#[derive(Debug)]
struct Entry {
    name: String,
    n: usize,
    slots: u64,
    identified: usize,
    best_wall_s: f64,
    slots_per_sec: f64,
    iters: u64,
    /// Measurement budget the best time was taken under.
    budget_ms: u64,
    /// Heap allocations over one full inventory (None without a counter).
    allocs: Option<u64>,
    allocs_per_slot: Option<f64>,
    /// Whether this entry runs a steady-state-pooled loop (the slot-level
    /// engine or the recycling tree walk) and is therefore subject to an
    /// allocation gate.
    slot_level: bool,
    /// Per-entry allocation gate (allocs/slot); `None` exempts the entry.
    alloc_limit: Option<f64>,
    /// For a `*/signal-soa` cell timed with its [`gate_reference`]: its
    /// slots/s ÷ the reference's, the median over the interleaved turns.
    /// This is the ratio the `--gate` check compares; it depends on the
    /// AWGN kernel, so the JSON row names [`polar_kernel_name`] beside it.
    gate_ratio: Option<f64>,
}

impl Entry {
    fn set_timing(&mut self, m: Measurement) {
        self.best_wall_s = m.best_ns_per_iter * 1e-9;
        self.slots_per_sec = if self.best_wall_s > 0.0 {
            self.slots as f64 / self.best_wall_s
        } else {
            0.0
        };
        self.iters = m.iters;
    }

    fn print(&self) {
        println!(
            "{:<16} n={:<6} {:>7} slots  {:>10.4} s/run {:>12.0} slots/s  {}",
            self.name,
            self.n,
            self.slots,
            self.best_wall_s,
            self.slots_per_sec,
            match self.allocs_per_slot {
                Some(aps) => format!("{aps:.4} allocs/slot"),
                None => "allocs n/a".to_owned(),
            }
        );
    }
}

/// One deterministic population per size, shared by all protocols so
/// cells at equal `n` are comparable.
fn bench_population(n: usize) -> Vec<TagId> {
    population::uniform(&mut seeded_rng(1_000 + n as u64), n)
}

/// Times `a` and `b` in turn and returns the best timed call of each side
/// and the median over turns of `b`'s time per call ÷ `a`'s. Interleaving
/// puts both sides under the same host state, which on a host that drifts
/// between fast and slow phases matters more than how many calls each side
/// gets. A turn times one call of `a` and a batch of calls of `b` that
/// lasts about as long (the batch size is set from one warm call of each),
/// so a host slowdown that takes a share of the CPU for longer than one
/// call of `a` takes the same share of both sides. The median of per-turn
/// ratios then discards the turns a brief slowdown hit. Each timed call or
/// batch directly follows an untimed call of the same routine, so it starts
/// with its own working set in cache, as in a batch of
/// [`measure_with_budget`], not with the other side's. Turns continue until
/// the timed calls add up to twice `budget`, one budget per side.
fn measure_interleaved<A, B>(
    budget: Duration,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Measurement, Measurement, f64) {
    let (first_a, first_b) = (time_warm(&mut a, 1), time_warm(&mut b, 1));
    let batch = (first_a.as_secs_f64() / first_b.as_secs_f64().max(1e-9))
        .round()
        .clamp(1.0, 1_000.0) as u32;
    let mut best = [f64::INFINITY; 2];
    let mut ratios = Vec::new();
    let mut timed = Duration::ZERO;
    while ratios.is_empty() || timed < 2 * budget {
        let (time_a, time_b) = (time_warm(&mut a, 1), time_warm(&mut b, batch));
        timed += time_a + time_b;
        let per_call = [
            time_a.as_nanos() as f64,
            time_b.as_nanos() as f64 / f64::from(batch),
        ];
        for (best, time) in best.iter_mut().zip(per_call) {
            *best = best.min(time);
        }
        ratios.push(per_call[1] / per_call[0].max(1.0));
    }
    let turns = ratios.len() as u64;
    let measurement = |best_ns_per_iter, iters| Measurement {
        best_ns_per_iter,
        iters,
    };
    (
        measurement(best[0], turns),
        measurement(best[1], turns * u64::from(batch)),
        median(&mut ratios),
    )
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Calls `routine` once untimed, then `calls` times, and returns the
/// duration of the timed calls.
fn time_warm<O>(routine: &mut impl FnMut() -> O, calls: u32) -> Duration {
    black_box(routine());
    let start = Instant::now();
    for _ in 0..calls {
        black_box(routine());
    }
    start.elapsed()
}

type Runner = Box<dyn Fn(&[TagId], &SimConfig) -> Result<InventoryReport, SimError>>;

/// The protocol axis of the matrix: (name, alloc gate, runner). A `Some`
/// gate marks a slot-level-engine entry whose allocs/slot must stay under
/// the given limit.
fn protocol_specs() -> Vec<(String, Option<f64>, Runner)> {
    let mut specs: Vec<(String, Option<f64>, Runner)> = Vec::new();
    for (mname, membership) in [("hash", Membership::Hash), ("sampled", Membership::Sampled)] {
        let scat = Scat::new(ScatConfig::default().with_membership(membership));
        specs.push((
            format!("scat2/{mname}"),
            Some(MAX_ALLOCS_PER_SLOT),
            Box::new(move |tags, cfg| run_inventory(&scat, tags, cfg)),
        ));
        let fcat = Fcat::new(FcatConfig::default().with_membership(membership));
        specs.push((
            format!("fcat2/{mname}"),
            Some(MAX_ALLOCS_PER_SLOT),
            Box::new(move |tags, cfg| run_inventory(&fcat, tags, cfg)),
        ));
    }
    // Non-ANC recovery backends: same slot-level engine, no records ever
    // deposited — MPR decodes bounded collisions in place, compressed
    // sensing draws a per-slot success from a counter stream. Both must
    // hold the ideal steady-state allocation budget.
    let mpr_fcat = Fcat::new(FcatConfig::default().with_backend(BackendModel::Mpr(Mpr::new(4))));
    specs.push((
        "fcat2/mpr4".into(),
        Some(MAX_ALLOCS_PER_SLOT),
        Box::new(move |tags, cfg| run_inventory(&mpr_fcat, tags, cfg)),
    ));
    let cs_fcat = Fcat::new(
        FcatConfig::default()
            .with_backend(BackendModel::CompressedSensing(CompressedSensing::default())),
    );
    specs.push((
        "fcat2/cs".into(),
        Some(MAX_ALLOCS_PER_SLOT),
        Box::new(move |tags, cfg| run_inventory(&cs_fcat, tags, cfg)),
    ));
    // Signal-backed resolution: same slot-level engine, but every collision
    // deposit synthesizes a waveform into the SoA arena and every
    // resolution runs the DSP chain. Gated by its own allowance.
    let signal_fcat = Fcat::new(FcatConfig::default().with_resolution(
        ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(0.1)),
    ));
    specs.push((
        "fcat2/signal-soa".into(),
        Some(MAX_ALLOCS_PER_SLOT_SIGNAL),
        Box::new(move |tags, cfg| run_inventory(&signal_fcat, tags, cfg)),
    ));
    let signal_scat = Scat::new(ScatConfig::default().with_resolution(
        ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(0.1)),
    ));
    specs.push((
        "scat2/signal-soa".into(),
        Some(MAX_ALLOCS_PER_SLOT_SIGNAL),
        Box::new(move |tags, cfg| run_inventory(&signal_scat, tags, cfg)),
    ));
    let dfsa = Dfsa::new();
    specs.push((
        "dfsa".into(),
        None,
        Box::new(move |tags, cfg| run_inventory(&dfsa, tags, cfg)),
    ));
    let edfsa = Edfsa::new();
    specs.push((
        "edfsa".into(),
        None,
        Box::new(move |tags, cfg| run_inventory(&edfsa, tags, cfg)),
    ));
    let abs = Abs::new();
    specs.push((
        "abs".into(),
        Some(MAX_ALLOCS_PER_SLOT_TREE),
        Box::new(move |tags, cfg| run_inventory(&abs, tags, cfg)),
    ));
    let aqs = Aqs::new();
    specs.push((
        "aqs".into(),
        None,
        Box::new(move |tags, cfg| run_inventory(&aqs, tags, cfg)),
    ));
    specs
}

/// Runs the full matrix, writes `opts.out`, and returns an error listing any
/// steady-state allocation violations (after the JSON is written, so a
/// failing run still leaves its evidence on disk).
pub fn run(opts: &BenchOptions, alloc_count: Option<&dyn Fn() -> u64>) -> Result<(), String> {
    let sizes: &[usize] = if opts.smoke {
        &[64, ALLOC_CHECK_MIN_TAGS]
    } else {
        &[500, 2_000, 10_000]
    };
    let default_budget_ms = opts.budget_ms.unwrap_or(if opts.smoke { 5 } else { 200 });
    let gate = match &opts.gate {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| format!("reading gate file {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let specs = protocol_specs();
    let runner_of = |name: &str| &specs.iter().find(|spec| spec.0 == name).expect("a spec").2;
    let config = SimConfig::default().with_seed(opts.seed);
    println!(
        "repro bench: {} mode, hash scan kernel {}, awgn kernel {}",
        if opts.smoke { "smoke" } else { "full" },
        scan_kernel_name(),
        polar_kernel_name()
    );

    let mut entries: Vec<Entry> = Vec::new();
    // Cells the gate compares, timed below in (signal-soa, reference) pairs.
    let mut gated_cells: Vec<usize> = Vec::new();
    for (name, alloc_limit, runner) in &specs {
        let alloc_limit = *alloc_limit;
        let slot_level = alloc_limit.is_some();
        for &n in sizes {
            // Smoke mode only needs the big population on the entries the
            // allocation assertion covers (and only when it is enforced).
            if opts.smoke && n >= ALLOC_CHECK_MIN_TAGS && !(slot_level && opts.check_allocs) {
                continue;
            }
            let tags = bench_population(n);

            // Untimed run: slot count, identified count, allocation delta.
            let before = alloc_count.map(|f| f());
            let report = runner(&tags, &config).map_err(|e| format!("bench {name} n={n}: {e}"))?;
            let allocs = alloc_count.map(|f| f() - before.unwrap_or(0));
            let slots = report.slots.total();

            let gated = gate.as_deref().is_some_and(|gate| {
                let cells = specs.iter().map(|spec| spec.0.as_str());
                gate_compares(gate, polar_kernel_name(), cells, name, n)
            });
            let budget_ms = if opts.smoke && opts.budget_ms.is_none() && gated {
                SMOKE_GATE_BUDGET_MS
            } else {
                default_budget_ms
            };
            let mut entry = Entry {
                name: name.clone(),
                n,
                slots,
                identified: report.identified,
                best_wall_s: 0.0,
                slots_per_sec: 0.0,
                iters: 0,
                budget_ms,
                allocs,
                allocs_per_slot: allocs.map(|a| a as f64 / slots.max(1) as f64),
                slot_level,
                alloc_limit,
                gate_ratio: None,
            };
            if gated {
                gated_cells.push(entries.len());
            } else {
                entry.set_timing(measure_with_budget(
                    Duration::from_millis(budget_ms),
                    || runner(&tags, &config).expect("bench rerun cannot fail"),
                ));
                entry.print();
            }
            entries.push(entry);
        }
    }
    // Each signal-soa cell the gate compares is timed together with its
    // reference, so host drift between the two cells cannot move the ratio.
    for &soa in &gated_cells {
        let Some(reference) = gate_reference(&entries[soa].name) else {
            continue;
        };
        let n = entries[soa].n;
        let partner = gated_cells
            .iter()
            .copied()
            .find(|&i| entries[i].name == reference && entries[i].n == n)
            .expect("the gate compares a signal-soa cell only with its reference");
        let tags = bench_population(n);
        let (run_soa, run_ref) = (runner_of(&entries[soa].name), runner_of(&reference));
        let (m_soa, m_ref, ref_over_soa) = measure_interleaved(
            Duration::from_millis(entries[soa].budget_ms),
            || run_soa(&tags, &config).expect("bench rerun cannot fail"),
            || run_ref(&tags, &config).expect("bench rerun cannot fail"),
        );
        entries[soa].set_timing(m_soa);
        entries[partner].set_timing(m_ref);
        let slots = entries[soa].slots as f64 / entries[partner].slots.max(1) as f64;
        entries[soa].gate_ratio = Some(slots * ref_over_soa);
        entries[partner].print();
        entries[soa].print();
    }

    let baseline = match &opts.baseline {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| format!("reading baseline {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let speedups = baseline.as_deref().map(|b| compute_speedups(&entries, b));

    let json = render_json(opts, &entries, speedups.as_deref());
    if let Some(parent) = opts.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(&opts.out, &json).map_err(|e| format!("writing {}: {e}", opts.out.display()))?;
    println!("json -> {}", opts.out.display());

    if let Some(speedups) = &speedups {
        for s in speedups {
            println!(
                "speedup {:<16} n={:<6} {:.4}s -> {:.4}s  ({:.2}x)",
                s.name, s.n, s.baseline_best_wall_s, s.new_best_wall_s, s.speedup
            );
        }
    }

    if opts.check_allocs {
        if alloc_count.is_none() {
            return Err(
                "allocation check requested but no counting allocator is installed \
                        (run via the repro binary, or pass --no-alloc-check)"
                    .into(),
            );
        }
        let violations: Vec<String> = entries
            .iter()
            .filter(|e| e.n >= ALLOC_CHECK_MIN_TAGS)
            .filter_map(|e| {
                let limit = e.alloc_limit?;
                let aps = e.allocs_per_slot.unwrap_or(0.0);
                (aps > limit).then(|| {
                    format!(
                        "{} n={}: {:.4} allocs/slot (limit {limit})",
                        e.name, e.n, aps
                    )
                })
            })
            .collect();
        if !violations.is_empty() {
            return Err(format!(
                "steady-state slot loop is allocating:\n  {}",
                violations.join("\n  ")
            ));
        }
        println!(
            "alloc check: gated entries at n >= {ALLOC_CHECK_MIN_TAGS} stay under \
             their per-entry allocs/slot limits ({MAX_ALLOCS_PER_SLOT} ideal, \
             {MAX_ALLOCS_PER_SLOT_SIGNAL} signal-backed, {MAX_ALLOCS_PER_SLOT_TREE} tree)"
        );
    }

    if let Some(gate) = &gate {
        check_throughput_gate(&entries, gate, polar_kernel_name())?;
    }
    Ok(())
}

/// Enforces the signal-throughput gate: for every `*/signal-soa*` cell
/// with a measured [`Entry::gate_ratio`] and a committed one in the gate
/// file for the same `n` and the AWGN `kernel` this CPU ran (rows of cells
/// this harness no longer runs find no partner and are skipped), the ratio
/// signal-soa slots/s ÷ sampled slots/s (same protocol family, same `n`)
/// must not fall more than [`GATE_TOLERANCE`] below the committed ratio.
/// Normalizing by a cell measured in the same run makes the gate
/// insensitive to absolute machine speed. The reference is the
/// sampled-membership cell because the signal-soa cells run sampled
/// membership too: both share the engine and differ only in resolution, so
/// a change to the Hash-membership scan, which neither runs, cannot move
/// the ratio. The AWGN kernel does move it (the AVX-512 block sampler
/// raises it about 1.4×), so a ratio is only compared with one committed
/// for the same kernel, and a gate file without such rows fails the run.
fn check_throughput_gate(entries: &[Entry], gate: &str, kernel: &str) -> Result<(), String> {
    let mut compared = 0usize;
    let mut violations = Vec::new();
    for e in entries {
        let (Some(cur_ratio), Some(old_ratio)) =
            (e.gate_ratio, committed_ratio(gate, kernel, &e.name, e.n))
        else {
            continue;
        };
        compared += 1;
        let floor = old_ratio * (1.0 - GATE_TOLERANCE);
        println!(
            "gate {:<18} n={:<6} signal/sampled ratio {cur_ratio:.4} \
             (committed {old_ratio:.4} for awgn kernel {kernel}, floor {floor:.4})",
            e.name, e.n
        );
        if cur_ratio < floor {
            violations.push(format!(
                "{} n={}: signal/sampled throughput ratio {cur_ratio:.4} fell below \
                 {floor:.4} ({}% under committed {old_ratio:.4})",
                e.name,
                e.n,
                (GATE_TOLERANCE * 100.0) as u32,
            ));
        }
    }
    if compared == 0 {
        let kernels = gate_kernels(gate);
        if !kernels.is_empty() && !kernels.contains(&kernel) {
            return Err(format!(
                "throughput gate: the gate file holds signal/sampled ratios for awgn \
                 kernel {} only, but this CPU runs awgn kernel {kernel}; measure its \
                 rows with `repro bench --smoke --gate` on such a CPU and commit them",
                kernels.join(", ")
            ));
        }
        return Err(
            "throughput gate: no (signal-soa, sampled) cell pair exists in both this \
                    run and the gate file — check sizes/alloc-check flags"
                .into(),
        );
    }
    if !violations.is_empty() {
        return Err(format!(
            "signal-soa throughput regressed:\n  {}",
            violations.join("\n  ")
        ));
    }
    Ok(())
}

/// The cell a `*/signal-soa*` cell's throughput is divided by in the
/// gate: the sampled-membership cell of the same protocol family. `None`
/// for every other cell.
fn gate_reference(name: &str) -> Option<String> {
    name.contains("/signal-soa").then(|| {
        let family = name.split('/').next().unwrap_or_default();
        format!("{family}/sampled")
    })
}

/// Whether the gate check compares cell `(name, n)`: `name` is one of the
/// signal-soa `cells` or the reference of one, and `gate` holds a ratio
/// for that signal-soa cell at `n` under the AWGN `kernel`.
fn gate_compares<'a>(
    gate: &str,
    kernel: &str,
    cells: impl IntoIterator<Item = &'a str>,
    name: &str,
    n: usize,
) -> bool {
    cells.into_iter().any(|soa| {
        gate_reference(soa).is_some_and(|reference| {
            (name == soa || name == reference) && committed_ratio(gate, kernel, soa, n).is_some()
        })
    })
}

/// The rows of a gate file that carry a committed signal/sampled ratio.
fn gate_rows(gate: &str) -> impl Iterator<Item = &str> {
    gate.lines()
        .filter(|l| l.contains("\"slots\":") && extract_json_num(l, "gate_ratio").is_some())
}

/// The committed ratio of signal-soa cell `(name, n)` under AWGN `kernel`
/// in a gate file, if present.
fn committed_ratio(gate: &str, kernel: &str, name: &str, n: usize) -> Option<f64> {
    gate_rows(gate)
        .find(|l| {
            extract_json_str(l, "name") == Some(name)
                && extract_json_num(l, "n") == Some(n as f64)
                && extract_json_str(l, "awgn_kernel") == Some(kernel)
        })
        .and_then(|l| extract_json_num(l, "gate_ratio"))
        .filter(|v| *v > 0.0)
}

/// The AWGN kernels a gate file holds ratios for, in file order.
fn gate_kernels(gate: &str) -> Vec<&str> {
    let mut kernels = Vec::new();
    for kernel in gate_rows(gate).filter_map(|l| extract_json_str(l, "awgn_kernel")) {
        if !kernels.contains(&kernel) {
            kernels.push(kernel);
        }
    }
    kernels
}

#[derive(Debug)]
struct Speedup {
    name: String,
    n: usize,
    baseline_best_wall_s: f64,
    new_best_wall_s: f64,
    speedup: f64,
}

/// Maps entry names from baselines captured before the SoA rewrite onto
/// their current spelling, so `--baseline` against a pre-rewrite file still
/// produces a speedup row for the renamed signal cell.
fn baseline_alias(name: &str) -> &str {
    match name {
        "fcat2/signal" => "fcat2/signal-soa",
        other => other,
    }
}

/// Matches entries against a previous run's JSON by (name, n). The baseline
/// file is our own output format: one entry object per line, identified by
/// the presence of a `"slots"` key.
fn compute_speedups(entries: &[Entry], baseline: &str) -> Vec<Speedup> {
    let mut speedups = Vec::new();
    for line in baseline.lines() {
        if !line.contains("\"slots\":") {
            continue;
        }
        let (Some(name), Some(n), Some(base)) = (
            extract_json_str(line, "name"),
            extract_json_num(line, "n"),
            extract_json_num(line, "best_wall_s"),
        ) else {
            continue;
        };
        let name = baseline_alias(name);
        let n = n as usize;
        if let Some(e) = entries.iter().find(|e| e.name == name && e.n == n) {
            if base > 0.0 && e.best_wall_s > 0.0 {
                speedups.push(Speedup {
                    name: e.name.clone(),
                    n,
                    baseline_best_wall_s: base,
                    new_best_wall_s: e.best_wall_s,
                    speedup: base / e.best_wall_s,
                });
            }
        }
    }
    speedups
}

fn extract_json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn extract_json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// `{:?}` gives the shortest f64 representation that round-trips, which is
/// also valid JSON for finite values.
fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn render_json(opts: &BenchOptions, entries: &[Entry], speedups: Option<&[Speedup]>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    writeln!(s, "\"schema\":\"anc-rfid-bench/1\",").unwrap();
    writeln!(
        s,
        "\"mode\":\"{}\",",
        if opts.smoke { "smoke" } else { "full" }
    )
    .unwrap();
    writeln!(
        s,
        "\"budget_ms\":{},",
        opts.budget_ms.unwrap_or(if opts.smoke { 5 } else { 200 })
    )
    .unwrap();
    writeln!(s, "\"seed\":{},", opts.seed).unwrap();
    writeln!(s, "\"hash_scan\":\"{}\",", scan_kernel_name()).unwrap();
    writeln!(s, "\"awgn_kernel\":\"{}\",", polar_kernel_name()).unwrap();
    writeln!(s, "\"max_allocs_per_slot\":{},", jf(MAX_ALLOCS_PER_SLOT)).unwrap();
    s.push_str("\"entries\":[\n");
    for (i, e) in entries.iter().enumerate() {
        write!(
            s,
            "  {{\"name\":\"{}\",\"n\":{},\"slots\":{},\"identified\":{},\
             \"best_wall_s\":{},\"slots_per_sec\":{},\"iters\":{},\
             \"budget_ms\":{},\"slot_level\":{}",
            e.name,
            e.n,
            e.slots,
            e.identified,
            jf(e.best_wall_s),
            jf(e.slots_per_sec),
            e.iters,
            e.budget_ms,
            e.slot_level,
        )
        .unwrap();
        if let (Some(a), Some(aps)) = (e.allocs, e.allocs_per_slot) {
            write!(s, ",\"allocs\":{a},\"allocs_per_slot\":{}", jf(aps)).unwrap();
        }
        if let Some(limit) = e.alloc_limit {
            write!(s, ",\"alloc_limit\":{}", jf(limit)).unwrap();
        }
        if let Some(ratio) = e.gate_ratio {
            write!(
                s,
                ",\"gate_ratio\":{},\"awgn_kernel\":\"{}\"",
                jf(ratio),
                polar_kernel_name()
            )
            .unwrap();
        }
        s.push('}');
        if i + 1 < entries.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push(']');
    if let Some(speedups) = speedups {
        s.push_str(",\n\"speedups\":[\n");
        for (i, sp) in speedups.iter().enumerate() {
            write!(
                s,
                "  {{\"name\":\"{}\",\"n\":{},\"baseline_best_wall_s\":{},\
                 \"new_best_wall_s\":{},\"speedup\":{}}}",
                sp.name,
                sp.n,
                jf(sp.baseline_best_wall_s),
                jf(sp.new_best_wall_s),
                jf(sp.speedup),
            )
            .unwrap();
            if i + 1 < speedups.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push(']');
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_extraction() {
        let line =
            r#"  {"name":"scat2/hash","n":10000,"slots":17000,"best_wall_s":0.4132,"iters":3},"#;
        assert_eq!(extract_json_str(line, "name"), Some("scat2/hash"));
        assert_eq!(extract_json_num(line, "n"), Some(10_000.0));
        assert_eq!(extract_json_num(line, "best_wall_s"), Some(0.4132));
        assert_eq!(extract_json_num(line, "iters"), Some(3.0));
        assert_eq!(extract_json_num(line, "missing"), None);
    }

    #[test]
    fn speedups_match_by_name_and_n() {
        let entries = vec![Entry {
            name: "scat2/hash".into(),
            n: 10_000,
            slots: 17_000,
            identified: 10_000,
            best_wall_s: 0.2,
            slots_per_sec: 85_000.0,
            iters: 3,
            budget_ms: 200,
            allocs: None,
            allocs_per_slot: None,
            slot_level: true,
            alloc_limit: Some(MAX_ALLOCS_PER_SLOT),
            gate_ratio: None,
        }];
        let baseline = r#"{
"entries":[
  {"name":"scat2/hash","n":10000,"slots":17000,"identified":10000,"best_wall_s":0.6,"slots_per_sec":1.0,"iters":2,"slot_level":true},
  {"name":"scat2/hash","n":500,"slots":900,"identified":500,"best_wall_s":0.01,"slots_per_sec":1.0,"iters":9,"slot_level":true}
]
}"#;
        let speedups = compute_speedups(&entries, baseline);
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].n, 10_000);
        assert!((speedups[0].speedup - 3.0).abs() < 1e-12);
    }

    /// A measured cell with only the fields the throughput gate reads.
    fn cell(name: &str, n: usize, gate_ratio: Option<f64>) -> Entry {
        Entry {
            name: name.into(),
            n,
            slots: 1_000,
            identified: n,
            best_wall_s: 0.01,
            slots_per_sec: 100_000.0,
            iters: 1,
            budget_ms: 5,
            allocs: None,
            allocs_per_slot: None,
            slot_level: true,
            alloc_limit: None,
            gate_ratio,
        }
    }

    /// A committed gate file for fcat2 at n = 500: signal-soa runs at a
    /// tenth of sampled with the AVX-512 block sampler, and a fifteenth
    /// with the scalar one.
    const GATE: &str = r#"{
"entries":[
  {"name":"fcat2/sampled","n":500,"slots":1000,"slots_per_sec":1000000.0},
  {"name":"fcat2/signal-soa","n":500,"slots":1000,"slots_per_sec":100000.0,"gate_ratio":0.1,"awgn_kernel":"avx512"},
  {"name":"fcat2/signal-soa","n":500,"slots":1000,"slots_per_sec":66666.0,"gate_ratio":0.0666,"awgn_kernel":"scalar"}
]
}"#;

    /// The same gate file with only its AVX-512 rows.
    fn avx512_gate() -> String {
        GATE.lines()
            .filter(|l| !l.contains("\"scalar\""))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// This run's cells, the signal-soa cell at `ratio` of sampled.
    fn run_cells(ratio: f64) -> Vec<Entry> {
        vec![
            cell("fcat2/hash", 500, None),
            cell("fcat2/sampled", 500, None),
            cell("fcat2/signal-soa", 500, Some(ratio)),
        ]
    }

    #[test]
    fn throughput_gate_passes_at_equal_ratios() {
        assert_eq!(
            check_throughput_gate(&run_cells(0.1), GATE, "avx512"),
            Ok(())
        );
        assert_eq!(
            check_throughput_gate(&run_cells(0.0666), GATE, "scalar"),
            Ok(())
        );
    }

    #[test]
    fn throughput_gate_fails_on_a_signal_slowdown() {
        // 25% slower is past the 20% tolerance.
        let err = check_throughput_gate(&run_cells(0.075), GATE, "avx512").unwrap_err();
        assert!(err.contains("fcat2/signal-soa n=500"), "{err}");
    }

    #[test]
    fn throughput_gate_compares_with_the_running_kernel() {
        // The scalar kernel's ratio passes its own floor (0.0533) but
        // would fail the AVX-512 one (0.08), and an AVX-512 ratio that
        // lost a third fails even though it clears the scalar floor.
        assert_eq!(
            check_throughput_gate(&run_cells(0.06), GATE, "scalar"),
            Ok(())
        );
        assert!(check_throughput_gate(&run_cells(0.06), GATE, "avx512").is_err());
    }

    #[test]
    fn throughput_gate_fails_clearly_on_a_kernel_mismatch() {
        // A gate measured only with the AVX-512 block sampler cannot judge
        // a CPU running the scalar one.
        let err = check_throughput_gate(&run_cells(0.0666), &avx512_gate(), "scalar").unwrap_err();
        assert!(err.contains("awgn kernel avx512 only"), "{err}");
        assert!(err.contains("this CPU runs awgn kernel scalar"), "{err}");
    }

    #[test]
    fn throughput_gate_needs_a_measured_ratio() {
        // The signal-soa cell was not timed with its reference.
        let cells = vec![cell("fcat2/signal-soa", 500, None)];
        let err = check_throughput_gate(&cells, GATE, "avx512").unwrap_err();
        assert!(err.contains("no (signal-soa, sampled) cell pair"), "{err}");
    }

    #[test]
    fn gate_compares_only_committed_signal_pairs() {
        let cells = ["fcat2/hash", "fcat2/sampled", "fcat2/signal-soa"];
        let compares = |name: &str, n: usize| gate_compares(GATE, "avx512", cells, name, n);
        assert!(compares("fcat2/signal-soa", 500));
        assert!(compares("fcat2/sampled", 500));
        assert!(!compares("fcat2/hash", 500));
        // The gate file holds no n = 64 cells, so nothing there is compared.
        assert!(!compares("fcat2/sampled", 64));
        assert!(!compares("fcat2/signal-soa", 64));
        // Without a signal-soa cell, a sampled cell is no reference.
        assert!(!gate_compares(
            GATE,
            "avx512",
            ["fcat2/sampled"],
            "fcat2/sampled",
            500
        ));
        // Nor is anything compared under a kernel the file has no rows for.
        assert!(!gate_compares(
            &avx512_gate(),
            "scalar",
            cells,
            "fcat2/signal-soa",
            500
        ));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn interleaved_timing_alternates_the_two_cells() {
        let calls = std::cell::RefCell::new(String::new());
        let (a, b, b_over_a) = measure_interleaved(
            Duration::from_millis(2),
            || {
                calls.borrow_mut().push('a');
                std::thread::sleep(Duration::from_micros(200));
            },
            || calls.borrow_mut().push('b'),
        );
        let calls = calls.into_inner();
        // A warm call of each sets the batch size. Then turns: an untimed
        // and a timed call of `a`, an untimed call of `b` and a timed batch
        // of `b` as long as `a`'s call, capped at 1000 calls since `b` is
        // nearly free. `a` goes first, and there are no more turns than
        // 4 ms of timed calls at 0.2 ms or more per turn allow.
        let turns = a.iters as usize;
        let batch = (b.iters / a.iters) as usize;
        assert!((1..=20).contains(&turns), "{turns}");
        assert_eq!(b.iters as usize, turns * batch);
        assert!((2..=1_000).contains(&batch), "{batch}");
        let turn = format!("aa{}", "b".repeat(1 + batch));
        assert_eq!(calls, format!("aabb{}", turn.repeat(turns)));
        // Each side keeps its own best: `a` sleeps, `b` does not.
        assert!(a.best_ns_per_iter >= 200_000.0, "{a:?}");
        assert!(b.best_ns_per_iter < a.best_ns_per_iter, "{a:?} {b:?}");
        // In every turn `b` took less time than `a`, so the median does too.
        assert!(b_over_a > 0.0 && b_over_a < 1.0, "{b_over_a}");
    }

    #[test]
    fn smoke_run_writes_json() {
        let dir = std::env::temp_dir().join("anc_rfid_perf_test");
        let out = dir.join("bench_smoke.json");
        let opts = BenchOptions {
            smoke: true,
            budget_ms: Some(1),
            check_allocs: false,
            out: out.clone(),
            ..BenchOptions::default()
        };
        run(&opts, None).expect("smoke bench runs");
        let json = std::fs::read_to_string(&out).expect("json written");
        assert!(json.contains("\"schema\":\"anc-rfid-bench/1\""));
        let kernel = extract_json_str(&json, "hash_scan").expect("hash_scan field");
        assert_eq!(kernel, scan_kernel_name());
        assert!(["avx512", "scalar"].contains(&kernel), "{kernel}");
        let awgn = extract_json_str(&json, "awgn_kernel").expect("awgn_kernel field");
        assert_eq!(awgn, polar_kernel_name());
        assert!(["avx512", "scalar"].contains(&awgn), "{awgn}");
        assert!(json.contains("\"name\":\"scat2/hash\""));
        assert!(json.contains("\"name\":\"aqs\""));
        // Entry lines are parseable by the same extractor used for baselines.
        let entry_lines: Vec<&str> = json.lines().filter(|l| l.contains("\"slots\":")).collect();
        assert!(!entry_lines.is_empty());
        for line in entry_lines {
            assert!(extract_json_str(line, "name").is_some());
            assert!(extract_json_num(line, "best_wall_s").is_some());
        }
        std::fs::remove_file(&out).ok();
    }
}
