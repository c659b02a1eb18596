//! The traced run's instruments: a timing [`EventSink`] for the engine
//! layer, and replay cells that time calls into each lower layer's public
//! functions with inputs shaped like the workload (same n, same λ,
//! participant sets drawn from the workload seed).
//!
//! Nothing here reaches inside the crates: every span starts and ends in
//! benchmark code, around a public call.

use crate::report::Outcome;
use crate::stats::median;
use rand::rngs::StdRng;
use rfid_anc::{CollisionRecordStore, RecoveryPolicy, SignalResolutionConfig};
use rfid_bench::serve::{parse_request, ServeOptions};
use rfid_signal::{
    cascade, transmit_mixed_cached, Complex, MixScratch, ReferenceCache, ResolveScratch,
};
use rfid_sim::obs::jsonl::wire;
use rfid_sim::obs::{
    DetectionEvent, EstimatorEvent, EventSink, LambdaEvent, PopulationEvent, RecordEvent,
    ScheduleEvent, SiteEvent, SlotEvent, StreamQueue, StreamRecv,
};
use rfid_sim::sampling::{pick_distinct_indices_into, sample_binomial};
use rfid_sim::{derive_seed, seeded_rng, DwellModel, PopulationSchedule};
use rfid_types::hash::{probability_threshold, TagHashState};
use rfid_types::{population, SlotClass, TagId, TAG_ID_BITS};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Slot classes the timing sink splits host time by.
const EMPTY: usize = 0;
const SINGLETON: usize = 1;
const COLLISION: usize = 2;
/// Singleton slots whose decode unlocked at least one collision record.
const CASCADE: usize = 3;

/// Events kept for the wire-encoding and stream cells, so those cells
/// encode exactly the event mix the workload produces.
#[derive(Debug, Clone, Copy)]
pub enum Captured {
    Slot(SlotEvent),
    Record(RecordEvent),
    Estimator(EstimatorEvent),
    Lambda(LambdaEvent),
    Schedule(ScheduleEvent),
    Site(SiteEvent),
    Population(PopulationEvent),
    Detection(DetectionEvent),
}

impl Captured {
    /// The event's wire line, through `rfid_obs::jsonl::wire`.
    pub fn encode(&self) -> String {
        match self {
            Captured::Slot(e) => wire::slot_line(e),
            Captured::Record(e) => wire::record_line(e),
            Captured::Estimator(e) => wire::estimator_line(e),
            Captured::Lambda(e) => wire::lambda_line(e),
            Captured::Schedule(e) => wire::schedule_line(e),
            Captured::Site(e) => wire::site_line(e),
            Captured::Population(e) => wire::population_line(e),
            Captured::Detection(e) => wire::detection_line(e),
        }
    }
}

/// A benchmark-owned sink that timestamps every `slot()` callback and
/// charges the host time since the previous one to that slot's class.
///
/// The first slot of a run also carries engine construction, so it is
/// counted but not timed.
#[derive(Debug)]
pub struct TimingSink {
    last: Option<Instant>,
    /// Tags the run started with, to track the active set size.
    population: u64,
    learned: u64,
    /// Whether every active tag evaluates the hash test each slot.
    hash_membership: bool,
    ns: [f64; 4],
    timed: [u64; 4],
    pub slots: u64,
    pub estimator_updates: u64,
    pub hash_tests: u64,
    capture: Vec<Captured>,
    capture_limit: usize,
}

impl TimingSink {
    /// A sink that keeps up to `capture_limit` events; the buffer is
    /// reserved up front so capturing never allocates mid-run.
    pub fn new(capture_limit: usize) -> Self {
        TimingSink {
            last: None,
            population: 0,
            learned: 0,
            hash_membership: false,
            ns: [0.0; 4],
            timed: [0; 4],
            slots: 0,
            estimator_updates: 0,
            hash_tests: 0,
            capture: Vec::with_capacity(capture_limit),
            capture_limit,
        }
    }

    /// Arms the sink for one run over `population` tags.
    pub fn start(&mut self, population: usize, hash_membership: bool) {
        self.last = None;
        self.population = population as u64;
        self.learned = 0;
        self.hash_membership = hash_membership;
    }

    /// Sets the `slot.*_ns` metrics: mean host nanoseconds per timed slot
    /// of each class, 0 for a class that never ran.
    pub fn report_slot_times(&self, out: &mut Outcome) {
        let names = [
            "slot.empty_ns",
            "slot.singleton_ns",
            "slot.collision_ns",
            "slot.cascade_ns",
        ];
        for (class, name) in names.into_iter().enumerate() {
            let timed = self.timed[class];
            out.set(
                name,
                if timed == 0 {
                    0.0
                } else {
                    self.ns[class] / timed as f64
                },
            );
        }
    }

    /// The captured events, in emission order.
    pub fn captured(&self) -> &[Captured] {
        &self.capture
    }

    fn keep(&mut self, event: Captured) {
        if self.capture.len() < self.capture_limit {
            self.capture.push(event);
        }
    }
}

impl EventSink for TimingSink {
    fn slot(&mut self, event: &SlotEvent) {
        let now = Instant::now();
        let class = match event.class {
            SlotClass::Empty => EMPTY,
            SlotClass::Singleton if event.learned_resolved > 0 => CASCADE,
            SlotClass::Singleton => SINGLETON,
            SlotClass::Collision => COLLISION,
        };
        if let Some(last) = self.last {
            self.ns[class] += now.duration_since(last).as_nanos() as f64;
            self.timed[class] += 1;
        }
        if self.hash_membership && event.p > 0.0 {
            self.hash_tests += self.population - self.learned;
        }
        self.learned += u64::from(event.learned_direct + event.learned_resolved);
        self.slots += 1;
        self.keep(Captured::Slot(*event));
        self.last = Some(Instant::now());
    }

    fn record(&mut self, event: &RecordEvent) {
        self.keep(Captured::Record(*event));
    }

    fn estimator(&mut self, event: &EstimatorEvent) {
        self.estimator_updates += 1;
        self.keep(Captured::Estimator(*event));
    }

    fn lambda(&mut self, event: &LambdaEvent) {
        self.keep(Captured::Lambda(*event));
    }

    fn schedule(&mut self, event: &ScheduleEvent) {
        self.keep(Captured::Schedule(*event));
    }

    fn site(&mut self, event: &SiteEvent) {
        self.keep(Captured::Site(*event));
    }

    fn population(&mut self, event: &PopulationEvent) {
        self.keep(Captured::Population(*event));
    }

    fn detection(&mut self, event: &DetectionEvent) {
        self.keep(Captured::Detection(*event));
    }
}

/// Rounds each replay cell repeats; cells report the median round.
const ROUNDS: usize = 5;

/// Times `round` [`ROUNDS`] times and returns the median of
/// `elapsed / per_round` in nanoseconds. `round` returns the number of
/// operations it performed.
fn median_ns_per_op(mut round: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let ops = round();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// `types.hash`: ns per [`TagHashState::transmits`] test, swept over the
/// workload's active set for a frame of slots at the protocol's
/// operating probability `omega / n`.
fn hash_transmits_ns(tags: &[TagId], omega: f64, hash_bits: u32) -> f64 {
    let states: Vec<TagHashState> = tags.iter().map(|&t| TagHashState::new(t)).collect();
    let threshold = probability_threshold((omega / tags.len() as f64).min(1.0), hash_bits);
    let slots = (2_000_000 / tags.len().max(1)).max(1) as u64;
    let mut base = 0u64;
    median_ns_per_op(|| {
        let mut hits = 0u64;
        for slot in base..base + slots {
            for state in &states {
                hits += u64::from(black_box(*state).transmits(slot, threshold, hash_bits));
            }
        }
        black_box(hits);
        base += slots;
        slots * states.len() as u64
    })
}

/// What one pass of the records replay measured.
#[derive(Debug, Default)]
struct RecordsReplay {
    sampling_ns_per_slot: f64,
    add_record_us: f64,
    learn_us: f64,
    created: u64,
    usable: u64,
    attempts: u64,
    failed: u64,
    /// Usable participant sets, in deposit order, for the DSP cells.
    usable_sets: Vec<Vec<TagId>>,
}

/// Most participant sets the replay keeps for the DSP cells.
const MAX_KEPT_SETS: usize = 2_048;

/// `sim.sampling` + `core.records`: replays a slotted inventory of `tags`
/// straight through [`CollisionRecordStore::signal_backed`]. Each slot
/// draws its transmitters with `sample_binomial` and
/// `pick_distinct_indices_into` at report probability `omega / remaining`;
/// a singleton is `learn`ed, a collision deposited with `add_record`.
/// Only the layer calls are timed; the bookkeeping around them is not.
fn replay_records(
    tags: &[TagId],
    lambda: u32,
    omega: f64,
    resolution: &SignalResolutionConfig,
    seed: u64,
) -> RecordsReplay {
    let mut store = CollisionRecordStore::signal_backed(
        lambda,
        resolution.clone(),
        RecoveryPolicy::DropRecord,
        derive_seed(seed, 1),
    );
    let mut rng: StdRng = seeded_rng(derive_seed(seed, 2));
    let mut remaining: Vec<TagId> = tags.to_vec();
    let mut position: HashMap<TagId, usize> =
        remaining.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut picked = Vec::new();
    let mut out = RecordsReplay::default();
    let (mut sampling_ns, mut add_ns, mut learn_ns) = (0u128, 0u128, 0u128);
    let (mut slots, mut adds, mut learns) = (0u64, 0u64, 0u64);
    let mut retire = |tag: TagId, remaining: &mut Vec<TagId>| {
        if let Some(pos) = position.remove(&tag) {
            remaining.swap_remove(pos);
            if let Some(&moved) = remaining.get(pos) {
                position.insert(moved, pos);
            }
        }
    };
    // A clean-enough channel resolves most records; every slot still
    // makes progress through singletons, so the cap is a safety net.
    let max_slots = 64 * tags.len() as u64 + 1_000;
    while !remaining.is_empty() && slots < max_slots {
        let p = (omega / remaining.len() as f64).min(1.0);
        let start = Instant::now();
        let k = sample_binomial(remaining.len(), p, &mut rng);
        pick_distinct_indices_into(remaining.len(), k, &mut rng, &mut picked);
        sampling_ns += start.elapsed().as_nanos();
        let participants: Vec<TagId> = picked.iter().map(|&i| remaining[i]).collect();
        let slot = slots;
        slots += 1;
        let resolved = match participants.len() {
            0 => continue,
            1 => {
                let start = Instant::now();
                let resolved = store.learn(participants[0]);
                learn_ns += start.elapsed().as_nanos();
                learns += 1;
                retire(participants[0], &mut remaining);
                resolved
            }
            k => {
                if store.usable_at_insert(k, true) {
                    out.usable += 1;
                    if out.usable_sets.len() < MAX_KEPT_SETS {
                        out.usable_sets.push(participants.clone());
                    }
                }
                let start = Instant::now();
                let resolved = store.add_record(slot, participants, true, None);
                add_ns += start.elapsed().as_nanos();
                adds += 1;
                resolved
            }
        };
        for r in resolved {
            retire(r.tag, &mut remaining);
        }
    }
    let stats = store.stats();
    out.sampling_ns_per_slot = sampling_ns as f64 / slots.max(1) as f64;
    out.add_record_us = add_ns as f64 / 1e3 / adds.max(1) as f64;
    out.learn_us = learn_ns as f64 / 1e3 / learns.max(1) as f64;
    out.created = stats.created;
    // Under DropRecord every attempt either resolves or fails.
    out.attempts = stats.resolved + stats.failed_attempts;
    out.failed = stats.failed_attempts;
    out
}

/// `signal.anc` and `signal.cascade`: µs per `transmit_mixed_cached`
/// synthesis of each usable participant set, and µs per
/// `resolve_prepared` subtraction of all but its last member. Returns
/// `(synth_us, resolve_us)`.
fn dsp_cells(sets: &[Vec<TagId>], resolution: &SignalResolutionConfig, seed: u64) -> (f64, f64) {
    if sets.is_empty() {
        return (0.0, 0.0);
    }
    let msk = &resolution.msk;
    let span = msk.samples_for_bits(TAG_ID_BITS as usize);
    let mut cache = ReferenceCache::new(msk);
    let mut scratch = MixScratch::default();
    let mut mixtures: Vec<Vec<Complex>> = vec![vec![Complex::ZERO; span]; sets.len()];
    let mut round = 0u64;
    let synth_ns = median_ns_per_op(|| {
        let mut rng = seeded_rng(derive_seed(seed, round));
        round += 1;
        cache.clear();
        for (set, out) in sets.iter().zip(mixtures.iter_mut()) {
            transmit_mixed_cached(
                set,
                msk,
                &resolution.channel,
                &mut rng,
                &mut cache,
                &mut scratch,
                out,
            );
        }
        sets.len() as u64
    });
    let noise = resolution.channel.noise_std();
    let mut resolve = ResolveScratch::default();
    let mut resolve_ns = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut total = 0u128;
        for (set, samples) in sets.iter().zip(&mixtures) {
            let known = &set[..set.len() - 1];
            cache.clear();
            for &id in known {
                cache.ensure(id);
            }
            let start = Instant::now();
            let attempt =
                cascade::resolve_prepared(samples, known, msk, noise, 0.0, &cache, &mut resolve);
            total += start.elapsed().as_nanos();
            black_box(attempt);
        }
        resolve_ns.push(total as f64 / sets.len() as f64);
    }
    (synth_ns / 1e3, median(&resolve_ns) / 1e3)
}

/// `obs.jsonl`: ns per line to encode `events` through the wire module.
fn wire_encode_ns(events: &[Captured]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    median_ns_per_op(|| {
        for event in events {
            black_box(event.encode());
        }
        events.len() as u64
    })
}

/// `obs.stream`: ns per line to push `lines` through a [`StreamQueue`] of
/// the server's capacity and receive them back, a queue-full of lines at
/// a time so nothing is dropped.
fn stream_push_recv_ns(lines: &[String], capacity: usize) -> f64 {
    if lines.is_empty() {
        return 0.0;
    }
    let queue = StreamQueue::new(capacity);
    let mut copies: Vec<String> = Vec::with_capacity(lines.len());
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        copies.clear();
        copies.extend(lines.iter().cloned());
        let start = Instant::now();
        let mut received = 0usize;
        let mut pending = copies.drain(..);
        loop {
            let mut pushed = 0usize;
            for line in pending.by_ref().take(capacity) {
                queue.push_event(line, |_| String::new());
                pushed += 1;
            }
            for _ in 0..pushed {
                if let StreamRecv::Line(line) = queue.recv_timeout(Duration::ZERO) {
                    black_box(line);
                    received += 1;
                }
            }
            if pushed < capacity {
                break;
            }
        }
        samples.push(start.elapsed().as_nanos() as f64 / received.max(1) as f64);
    }
    median(&samples)
}

/// `bench.serve`: µs per `parse_request` over `lines`.
pub fn parse_us(lines: &[String], options: &ServeOptions) -> f64 {
    median_ns_per_op(|| {
        for line in lines {
            black_box(parse_request(line, options).is_ok());
        }
        lines.len() as u64
    }) / 1e3
}

/// `sim.population`: µs per `PopulationSchedule::generate` for the
/// workload's shapes `(initial tags, rounds, rate, dwell)`, seeded from
/// `seed`.
pub fn population_generate_us(shapes: &[(usize, usize, f64, f64)], seed: u64) -> f64 {
    let mut round = 0u64;
    median_ns_per_op(|| {
        for (i, &(initial, rounds, rate, dwell)) in shapes.iter().enumerate() {
            let model = DwellModel::poisson(rate, dwell);
            let schedule = PopulationSchedule::generate(
                &model,
                initial,
                rounds,
                derive_seed(seed, round + i as u64),
            );
            black_box(schedule.arrivals());
        }
        round += shapes.len() as u64;
        shapes.len() as u64
    }) / 1e3
}

/// The replay cells every workload shares: hash scan, sampling + records,
/// DSP, wire encoding and stream queueing, shaped by one population.
pub struct LayerCells<'a> {
    pub tags: &'a [TagId],
    pub lambda: u32,
    pub omega: f64,
    pub hash_bits: u32,
    pub seed: u64,
}

impl LayerCells<'_> {
    /// Sets every replay-cell metric; `captured` holds the workload's own
    /// events for the wire and stream cells.
    pub fn measure(&self, out: &mut Outcome, captured: &[Captured]) {
        out.set(
            "hash.transmits_ns",
            hash_transmits_ns(self.tags, self.omega, self.hash_bits),
        );
        let resolution = crate::inventory::signal_resolution();
        let replay = replay_records(self.tags, self.lambda, self.omega, &resolution, self.seed);
        out.set("sampling.draw_ns", replay.sampling_ns_per_slot);
        out.set("records.add_record_us", replay.add_record_us);
        out.set("records.learn_us", replay.learn_us);
        out.set("records.created", replay.created as f64);
        out.set("records.usable", replay.usable as f64);
        out.set("records.attempts", replay.attempts as f64);
        out.set("records.failed", replay.failed as f64);
        out.set(
            "records.attempts_per_usable",
            replay.attempts as f64 / replay.usable.max(1) as f64,
        );
        let (synth_us, resolve_us) = dsp_cells(&replay.usable_sets, &resolution, self.seed);
        out.set("anc.synth_us", synth_us);
        out.set("cascade.resolve_us", resolve_us);
        out.set("wire.encode_ns", wire_encode_ns(captured));
        let lines: Vec<String> = captured.iter().map(Captured::encode).collect();
        out.set(
            "stream.push_recv_ns",
            stream_push_recv_ns(&lines, crate::serve::QUEUE_CAPACITY),
        );
    }
}

/// A uniform population of `n` tags drawn from `seed`.
pub fn tags_for(n: usize, seed: u64) -> Vec<TagId> {
    population::uniform(&mut seeded_rng(seed), n)
}
