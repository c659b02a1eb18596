//! The two inventory workloads: sequential 10 000-tag inventories on one
//! thread, each with a fresh population and simulation seed.
//!
//! * `inventory-hash` — FCAT-2 with the paper's hash membership test
//!   `H(ID|i) ≤ ⌊p·2^l⌋` and ideal resolution: the O(n) per-slot scan is
//!   most of the host work and no DSP runs.
//! * `inventory-signal` — SCAT-2 with sampled membership and signal-backed
//!   resolution: waveform synthesis and cascade decoding are most of the
//!   host work and no hash scan runs.

use crate::layers::{self, TimingSink};
use crate::report::Outcome;
use crate::stats::median;
use crate::{serve, sys, Args};
use rfid_anc::{
    Fcat, FcatConfig, Membership, ResolutionModel, Scat, ScatConfig, SignalResolutionConfig,
};
use rfid_sim::obs::{EventSink, NoopSink};
use rfid_sim::{derive_seed, run_inventory_observed, InventoryReport, SimConfig};
use rfid_types::TagId;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Tags per inventory.
const TAGS: usize = 10_000;
/// Channel noise of the signal-backed workload (and of every DSP cell).
const NOISE_STD: f64 = 0.1;
/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 5;
/// Traced/untraced pairs whose simulated counts are reported; later pairs
/// only add timing samples, so the counts repeat exactly run to run.
const COUNTED_PAIRS: usize = 4;

/// Which of the two inventory workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hash,
    Signal,
}

/// The workload's protocol, built exactly as the workload defines it.
enum Protocol {
    Fcat(Fcat),
    Scat(Scat),
}

impl Protocol {
    fn new(kind: Kind) -> Self {
        match kind {
            Kind::Hash => Protocol::Fcat(Fcat::new(
                FcatConfig::default().with_membership(Membership::Hash),
            )),
            Kind::Signal => Protocol::Scat(Scat::new(
                ScatConfig::default()
                    .with_membership(Membership::Sampled)
                    .with_resolution(ResolutionModel::SignalBacked(signal_resolution())),
            )),
        }
    }

    fn run<S: EventSink>(
        &self,
        tags: &[TagId],
        config: &SimConfig,
        sink: &mut S,
    ) -> Result<InventoryReport, rfid_sim::SimError> {
        match self {
            Protocol::Fcat(p) => run_inventory_observed(p, tags, config, sink),
            Protocol::Scat(p) => run_inventory_observed(p, tags, config, sink),
        }
    }

    fn lambda_omega(&self) -> (u32, f64) {
        match self {
            Protocol::Fcat(p) => (p.config().lambda(), p.config().omega()),
            Protocol::Scat(p) => (p.config().lambda(), p.config().omega()),
        }
    }
}

/// The signal-backed resolution the workload and the DSP cells use.
pub fn signal_resolution() -> SignalResolutionConfig {
    SignalResolutionConfig::default().with_noise_std(NOISE_STD)
}

/// The population and sim config of operation `index` under `seed`.
/// Set-up passes draw from a separate stream so they never repeat a
/// timed input.
pub fn op_inputs(seed: u64, index: u64, setup: bool) -> (Vec<TagId>, SimConfig) {
    let stream = derive_seed(seed, u64::from(setup));
    let tags = layers::tags_for(TAGS, derive_seed(stream, 2 * index));
    let config = SimConfig::default().with_seed(derive_seed(stream, 2 * index + 1));
    (tags, config)
}

/// The oracle on one finished inventory: an `Ok` report that identified
/// every tag.
fn check(index: u64, result: &Result<InventoryReport, rfid_sim::SimError>) -> Result<(), String> {
    match result {
        Err(e) => Err(format!("inventory {index}: {e}")),
        Ok(r) if r.identified != TAGS => Err(format!(
            "inventory {index}: identified {} of {TAGS}",
            r.identified
        )),
        Ok(_) => Ok(()),
    }
}

/// Builds the protocol and runs warm-up inventories, [`SETUP_PASSES`]
/// times; returns the protocol and the median pass time in seconds.
fn setup(kind: Kind, seed: u64) -> Result<(Protocol, f64), String> {
    let mut times = Vec::with_capacity(SETUP_PASSES);
    let mut protocol = None;
    for pass in 0..SETUP_PASSES as u64 {
        let start = Instant::now();
        let (tags, config) = op_inputs(seed, pass, true);
        let built = Protocol::new(kind);
        check(pass, &built.run(&tags, &config, &mut NoopSink))
            .map_err(|e| format!("set-up {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        protocol = Some(built);
    }
    Ok((protocol.expect("at least one pass"), median(&times)))
}

/// The untraced run: end-to-end metrics.
///
/// Inventories run one at a time on this thread until the timed
/// inventories add up to the measuring window. The oracle's reference
/// pass of each runs untimed on the benchmark's second thread while this
/// one times the next inventory, so checking every inventory does not
/// double the run's wall time.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (protocol, setup_s) = setup(kind, args.seed)?;
    // Read before the reference thread starts: the peak of the warm-up
    // inventories is the workload's own, not the oracle's.
    let peak_rss_mb = sys::peak_rss_mb()?;
    let reference = Protocol::new(kind);
    let mut out = Outcome::default();
    let mut samples_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let window = Duration::from_secs(args.seconds);
    // One report in flight: the reference thread never trails by more
    // than an inventory, so memory stays that of two inventories.
    let (tx, rx) = mpsc::sync_channel::<(u64, Vec<TagId>, SimConfig, InventoryReport)>(1);
    let mismatches = std::thread::scope(|scope| {
        let verifier = scope.spawn(move || {
            let mut failures = Vec::new();
            for (index, tags, config, timed) in rx {
                match reference.run(&tags, &config, &mut NoopSink) {
                    Ok(expected) if expected == timed => {}
                    Ok(_) => failures.push(format!(
                        "inventory {index}: report differs from the reference pass"
                    )),
                    Err(e) => failures.push(format!("inventory {index}: reference pass: {e}")),
                }
            }
            failures
        });
        let mut index = 0u64;
        while busy < window {
            let (tags, config) = op_inputs(args.seed, index, false);
            let begin = Instant::now();
            let result = protocol.run(&tags, &config, &mut NoopSink);
            let took = begin.elapsed();
            out.attempted += 1;
            busy += took;
            match check(index, &result) {
                Err(e) => out.fail(e),
                Ok(()) => {
                    samples_ms.push(took.as_secs_f64() * 1e3);
                    let report = result.expect("checked");
                    tx.send((index, tags, config, report))
                        .expect("the reference thread outlives the window");
                }
            }
            index += 1;
        }
        drop(tx);
        verifier.join().expect("reference thread panicked")
    });
    out.absorb(0, mismatches);

    if samples_ms.is_empty() {
        return Err("no inventory passed its checks".into());
    }
    let best = samples_ms.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("setup_s", setup_s);
    out.set("op_ms_best", best);
    // A blocking inventory's first and only output is its report.
    out.set("first_output_ms_best", best);
    out.set("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

/// The traced run: per-layer metrics.
///
/// Inventories run in traced/untraced pairs on the same inputs, in
/// alternating order; the traced one goes through a [`TimingSink`] and
/// must return the untraced one's report. Then the replay cells time each
/// lower layer with this workload's shape.
pub fn run_traced(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (protocol, _) = setup(kind, args.seed)?;
    let (lambda, omega) = protocol.lambda_omega();
    let mut out = Outcome::default();
    let mut sink = TimingSink::new(200_000);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut plain_slots = 0u64;
    let (mut slots, mut air_us, mut estimator, mut hash_tests, mut allocs) = (0u64, 0.0, 0, 0, 0);
    let deadline = Instant::now() + Duration::from_secs(args.seconds) / 2;
    let mut first_tags = None;
    let mut index = 0u64;
    while index < COUNTED_PAIRS as u64 || Instant::now() < deadline {
        let (tags, config) = op_inputs(args.seed, index, false);
        let mut plain = None;
        let mut traced = None;
        let mut plain_allocs = 0;
        let traced_first = index % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                let before = (sink.slots, sink.estimator_updates, sink.hash_tests);
                sink.start(TAGS, kind == Kind::Hash);
                let begin = Instant::now();
                let result = protocol.run(&tags, &config, &mut sink);
                traced_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                if index < COUNTED_PAIRS as u64 {
                    slots += sink.slots - before.0;
                    estimator += sink.estimator_updates - before.1;
                    hash_tests += sink.hash_tests - before.2;
                }
                traced = Some(result);
            } else {
                let before = sys::allocations();
                let begin = Instant::now();
                let result = protocol.run(&tags, &config, &mut NoopSink);
                plain_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                plain_allocs = sys::allocations() - before;
                plain = Some(result);
            }
        }
        let (plain, traced) = (plain.expect("ran"), traced.expect("ran"));
        out.attempted += 2;
        if let Err(e) = check(index, &plain) {
            out.fail(e);
        }
        match (&plain, &traced) {
            (Ok(a), Ok(b)) if a == b => {
                plain_slots += a.slots.total();
                if index < COUNTED_PAIRS as u64 {
                    air_us += b.elapsed_us;
                    allocs += plain_allocs;
                }
            }
            _ => out.fail(format!(
                "inventory {index}: traced report differs from the untraced one"
            )),
        }
        if first_tags.is_none() {
            first_tags = Some(tags);
        }
        index += 1;
    }
    let counted = COUNTED_PAIRS as f64;
    sink.report_slot_times(&mut out);
    out.set("slots_per_inventory", slots as f64 / counted);
    out.set("sim.air_ms_per_inventory", air_us / 1e3 / counted);
    out.set("estimator.updates", estimator as f64 / counted);
    out.set("allocs_per_slot", allocs as f64 / slots.max(1) as f64);
    out.set("hash.tests_per_inventory", hash_tests as f64 / counted);
    out.set(
        "trace_overhead_frac",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );
    let plain_s = plain_ms.iter().sum::<f64>() / 1e3;
    out.set("ungated.op_ms_p50", median(&plain_ms));
    out.set("ungated.first_output_ms_p50", median(&plain_ms));
    out.set("ungated.ops_per_s", plain_ms.len() as f64 / plain_s);
    out.set("ungated.items_per_s", plain_slots as f64 / plain_s);

    let tags = first_tags.expect("at least one pair ran");
    let hash_bits = SimConfig::default().hash_bits();
    layers::LayerCells {
        tags: &tags,
        lambda,
        omega,
        hash_bits,
        seed: args.seed,
    }
    .measure(&mut out, sink.captured());
    let options = serve::server_options();
    let requests: Vec<String> = (0..16)
        .map(|i| {
            let protocol = if kind == Kind::Hash { "fcat" } else { "scat" };
            format!(
                "{{\"protocol\":\"{protocol}\",\"tags\":{TAGS},\"spacing\":60,\"seed\":{}}}",
                derive_seed(args.seed, i) >> 11
            )
        })
        .collect();
    out.set("serve.parse_us", layers::parse_us(&requests, &options));
    out.set(
        "population.generate_us",
        layers::population_generate_us(&[(TAGS, 1, 0.0, 10.0)], args.seed),
    );
    // The serve path does not run on this workload.
    for name in [
        "serve.accept_ms_p50",
        "serve.compute_ms_p50",
        "serve.overhead_ms_p50",
        "serve.lines_per_request",
        "stream.dropped_events",
    ] {
        out.set(name, 0.0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_inputs_are_seed_deterministic() {
        let (tags, config) = op_inputs(5, 3, false);
        let (again, again_config) = op_inputs(5, 3, false);
        assert_eq!(tags.len(), TAGS);
        assert_eq!(tags, again);
        assert_eq!(config.seed(), again_config.seed());
        let (other, other_config) = op_inputs(6, 3, false);
        assert_ne!(tags, other);
        assert_ne!(config.seed(), other_config.seed());
        // Set-up passes and later inventories never reuse a timed input.
        assert_ne!(tags, op_inputs(5, 3, true).0);
        assert_ne!(tags, op_inputs(5, 4, false).0);
    }

    #[test]
    fn timing_sink_observes_without_perturbing() {
        let tags = layers::tags_for(300, 1);
        let config = SimConfig::default().with_seed(2);
        let protocol = Protocol::new(Kind::Hash);
        let plain = protocol.run(&tags, &config, &mut NoopSink).unwrap();
        let mut sink = TimingSink::new(10);
        sink.start(tags.len(), true);
        let traced = protocol.run(&tags, &config, &mut sink).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(sink.slots, plain.slots.total());
        assert_eq!(sink.captured().len(), 10);
        // Every slot scans at most the whole population.
        assert!(sink.hash_tests > 0);
        assert!(sink.hash_tests <= sink.slots * tags.len() as u64);
    }
}
