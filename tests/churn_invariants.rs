//! Property tests pinning down the dynamic-population (churn) layer:
//! schedules, continuous monitoring and detection accounting.

use anc_rfid::anc::{Fcat, FcatConfig};
use anc_rfid::prelude::*;
use anc_rfid::sim::rounds::StatelessSession;
use proptest::prelude::*;
use std::collections::HashSet;

fn model_for(kind: u8, rate: f64) -> DwellModel {
    match kind % 3 {
        0 => DwellModel::conveyor(rate, 3),
        1 => DwellModel::portal(rate, 1, 6),
        _ => DwellModel::poisson(rate, 4.0),
    }
}

fn monitor_report(
    schedule: &PopulationSchedule,
    monitor: &MonitorConfig,
    seed: u64,
) -> MonitorReport {
    let mut session = StatelessSession::new(Fcat::new(
        FcatConfig::default().with_lambda(2).with_frame_size(8),
    ));
    run_monitoring(
        &mut session,
        schedule,
        monitor,
        &SimConfig::default().with_seed(seed),
    )
    .expect("monitoring completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No tag is ever read outside its presence window: every ID in
    /// round `r`'s report arrived at or before `r` and departs after `r`.
    /// Corollary: the event timeline the rounds replay is monotone.
    #[test]
    fn tags_read_only_inside_their_presence_windows(
        n in 0usize..40,
        rate in 0.0f64..4.0,
        rounds in 1usize..10,
        kind in 0u8..3,
        audit_every in 1usize..4,
        seed in any::<u64>(),
    ) {
        let schedule = PopulationSchedule::generate(&model_for(kind, rate), n, rounds, seed);
        let event_rounds: Vec<u64> = schedule.events().iter().map(|e| e.round).collect();
        prop_assert!(event_rounds.windows(2).all(|w| w[0] <= w[1]), "timeline monotone");
        let windows = schedule.presence_windows();
        let monitor = MonitorConfig { audit_every, persistence: audit_every > 1 };
        let report = monitor_report(&schedule, &monitor, seed);
        for (round, round_report) in report.per_round.iter().enumerate() {
            for &tag in &round_report.ids {
                let (arrive, depart) = windows[&tag];
                prop_assert!(
                    (arrive..depart).contains(&(round as u64)),
                    "tag {tag} read in round {round} outside window [{arrive}, {depart})"
                );
            }
        }
    }

    /// `unique` partitions exactly into {still present at the end} ∪
    /// {departed after being read}, and the detection counters stay
    /// within the schedule's arrival/departure totals.
    #[test]
    fn unique_partitions_into_present_and_departed(
        n in 0usize..40,
        rate in 0.0f64..4.0,
        rounds in 1usize..10,
        kind in 0u8..3,
        audit_every in 1usize..4,
        seed in any::<u64>(),
    ) {
        let schedule = PopulationSchedule::generate(&model_for(kind, rate), n, rounds, seed);
        let monitor = MonitorConfig { audit_every, persistence: audit_every > 1 };
        let report = monitor_report(&schedule, &monitor, seed);

        prop_assert_eq!(
            report.unique,
            report.unique_present_at_end + report.unique_departed_after_read,
            "unique must partition"
        );
        // Cross-check the partition against the schedule itself.
        let windows = schedule.presence_windows();
        let read: HashSet<TagId> = report
            .per_round
            .iter()
            .flat_map(|r| r.ids.iter().copied())
            .collect();
        prop_assert_eq!(read.len(), report.unique);
        let present_at_end = read
            .iter()
            .filter(|tag| windows[tag].1 == rounds as u64)
            .count();
        prop_assert_eq!(report.unique_present_at_end, present_at_end);

        // Bookkeeping bounds: seen = initial + arrivals; detections never
        // exceed the schedule's event counts.
        prop_assert_eq!(report.population_initial, n);
        prop_assert_eq!(report.population_seen, n + schedule.arrivals());
        prop_assert!(
            report.detection_count(MonitorDetectionKind::UnknownTag) <= schedule.arrivals()
        );
        prop_assert!(
            report.detection_count(MonitorDetectionKind::MissingTag) <= schedule.departures()
        );
        // Every detection is causally ordered and its latency consistent.
        for d in &report.detections {
            prop_assert!(d.event_round <= d.detected_round);
            prop_assert_eq!(d.latency_rounds, (d.detected_round - d.event_round) as u64);
            prop_assert!(d.latency_us >= 0.0);
        }
    }

    /// A static schedule (rate 0, nobody leaves within the window) makes
    /// monitoring equivalent to re-running the inventory: every round
    /// reads the full population.
    #[test]
    fn zero_churn_monitoring_reads_everything_every_audit(
        n in 1usize..40,
        rounds in 1usize..6,
        seed in any::<u64>(),
    ) {
        let schedule = PopulationSchedule::static_population(n, rounds, seed);
        prop_assert!(schedule.is_static());
        let report = monitor_report(&schedule, &MonitorConfig::default(), seed);
        prop_assert_eq!(report.unique, n);
        prop_assert_eq!(report.unique_present_at_end, n);
        prop_assert_eq!(report.detections.len(), 0);
        for round_report in &report.per_round {
            prop_assert_eq!(round_report.identified, n);
        }
    }
}
