//! Bit-identity guard for the data-oriented (SoA arena) signal path.
//!
//! The goldens under `tests/goldens/soa_*.txt` are captured from the
//! counter-stream noise path: every AWGN realization is a pure function of
//! `(noise_seed, record, hop)`, so the report is invariant to draw order
//! *by construction*. The goldens pin the realizations themselves for FCAT
//! and SCAT at every `RecoveryPolicy`, across seeds 0–5 and at a noise
//! level high enough to exercise failed attempts, salvage retries and
//! re-query scheduling.
//!
//! To (re)bless after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test soa_bit_identity
//! ```

use anc_rfid::anc::{Fcat, FcatConfig, Scat, ScatConfig};
use anc_rfid::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: std::ops::Range<u64> = 0..6;

fn signal_backed(noise_std: f64) -> ResolutionModel {
    ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(noise_std))
}

/// Canonical, locale-free text form of a report; `{:?}` on `f64` prints
/// the shortest round-tripping representation, so any drift in
/// floating-point accumulation order shows up as a byte difference.
fn canonical(report: &InventoryReport) -> String {
    let mut s = String::new();
    writeln!(s, "protocol: {}", report.protocol).unwrap();
    writeln!(s, "population: {}", report.population_initial).unwrap();
    writeln!(s, "identified: {}", report.identified).unwrap();
    writeln!(
        s,
        "slots: empty={} singleton={} collision={}",
        report.slots.empty, report.slots.singleton, report.slots.collision
    )
    .unwrap();
    writeln!(
        s,
        "resolved_from_collisions: {}",
        report.resolved_from_collisions
    )
    .unwrap();
    writeln!(s, "duplicates_discarded: {}", report.duplicates_discarded).unwrap();
    writeln!(s, "elapsed_us: {:?}", report.elapsed_us).unwrap();
    let mut ids: Vec<TagId> = report.ids.iter().copied().collect();
    ids.sort_unstable();
    write!(s, "ids:").unwrap();
    for id in ids {
        write!(s, " {id}").unwrap();
    }
    writeln!(s).unwrap();
    s
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

fn check<P: AntiCollisionProtocol>(name: &str, protocol: &P, n_tags: usize) {
    let mut actual = String::new();
    for seed in SEEDS {
        let tags = population::uniform(&mut seeded_rng(700 + seed), n_tags);
        let config = SimConfig::default().with_seed(seed);
        let report = run_inventory(protocol, &tags, &config).expect("inventory completes");
        writeln!(actual, "# seed {seed}").unwrap();
        actual.push_str(&canonical(&report));
    }

    let path = goldens_dir().join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with UPDATE_GOLDENS=1 cargo test --test soa_bit_identity",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "report for {name} drifted from the per-record-path golden {}.\n\
         If this change is intentional, re-bless with UPDATE_GOLDENS=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

fn policies() -> [(&'static str, RecoveryPolicy); 3] {
    [
        ("drop", RecoveryPolicy::DropRecord),
        ("requery", RecoveryPolicy::requery()),
        ("salvage", RecoveryPolicy::SalvagePartial),
    ]
}

#[test]
fn fcat2_signal_backed_matches_per_record_goldens() {
    for (tag, policy) in policies() {
        check(
            &format!("soa_fcat2_signal_{tag}"),
            &Fcat::new(
                FcatConfig::default()
                    .with_resolution(signal_backed(0.35))
                    .with_recovery(policy),
            ),
            300,
        );
    }
}

#[test]
fn fcat3_signal_backed_matches_per_record_goldens() {
    // λ = 3 drives deeper cascades (hop ≥ 2), which is the only place the
    // per-hop residual noise streams fire — pinning the realizations of
    // every `(record, hop ≥ 2)` degradation stream, not just the hop-0
    // recording noise.
    for (tag, policy) in policies() {
        check(
            &format!("soa_fcat3_signal_{tag}"),
            &Fcat::new(
                FcatConfig::default()
                    .with_lambda(3)
                    .with_resolution(signal_backed(0.25))
                    .with_recovery(policy),
            ),
            300,
        );
    }
}

#[test]
fn scat2_signal_backed_matches_per_record_goldens() {
    for (tag, policy) in policies() {
        check(
            &format!("soa_scat2_signal_{tag}"),
            &Scat::new(
                ScatConfig::default()
                    .with_resolution(signal_backed(0.35))
                    .with_recovery(policy),
            ),
            300,
        );
    }
}

/// Regression: the first cell of `repro lambda-sweep` with λ = 4 (noise
/// 0.01, N = 1 500, seed 42). Its cascades subtract with far more distinct
/// known IDs than the 256-reference cache holds, so the cache fills and
/// clears many times over one inventory. Warming an attempt's knowns one
/// by one used to let the second miss clear the full cache and evict the
/// first, and the subtraction then panicked on the missing reference.
#[test]
fn lambda4_inventory_outgrows_the_reference_cache() {
    let fcat = Fcat::new(
        FcatConfig::default()
            .with_lambda(4)
            .with_omega(anc_rfid::analysis::optimal_omega(4))
            .with_resolution(signal_backed(0.01)),
    );
    let n = 1_500;
    let tags = population::uniform(&mut seeded_rng(42), n);
    let report =
        run_inventory(&fcat, &tags, &SimConfig::default().with_seed(42)).expect("completes");
    assert_eq!(report.identified, n);
    assert!(
        report.resolved_from_collisions > 256,
        "only {} tags came from collisions: the cascades never outgrew the cache",
        report.resolved_from_collisions
    );
}
