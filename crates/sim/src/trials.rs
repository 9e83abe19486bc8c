//! [`mlec_runner::Trial`] implementations for the simulators, making
//! `pool_sim` and `system_sim` runnable through the deterministic batched
//! executor (seed streams, adaptive stopping, checkpoint/resume).
//!
//! The trials drive the simulators through the [`SimObserver`] hook layer:
//! attach an [`EventLogSink`] to stream per-trial JSONL event logs, and the
//! accumulators pick up degraded-time accounting either way. Observers never
//! consume randomness, so attaching one cannot perturb fixed-seed results.

use crate::config::MlecDeployment;
use crate::failure::FailureModel;
use crate::importance::FailureBias;
use crate::kernel::SimObserver;
use crate::pool_sim::{simulate_pool_observed, PoolSimResult};
use crate::repair::RepairMethod;
use crate::system_sim::{simulate_system_observed, SystemSimOptions};
use mlec_runner::{
    Accumulator, Json, Proportion, Summary, Trial, WeightedRate, WeightedWelford, Welford,
};

/// A shared, thread-safe sink for per-trial JSONL event logs.
///
/// Worker threads buffer each trial's records locally and append them in one
/// locked write, so lines never interleave mid-trial (trial blocks may appear
/// in any order across threads; each line carries its trial index).
pub struct EventLogSink {
    out: std::sync::Mutex<Box<dyn std::io::Write + Send>>,
}

impl EventLogSink {
    /// A sink over any writer (a file, a `Vec<u8>` in tests, ...).
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> EventLogSink {
        EventLogSink {
            out: std::sync::Mutex::new(writer),
        }
    }

    /// A sink writing (buffered) to `path`, truncating any existing file.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<EventLogSink> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(EventLogSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    fn append(&self, block: &str) {
        use std::io::Write;
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning only follows a panic on another worker; propagating the abort is correct."
        )]
        let mut out = self.out.lock().expect("event log lock");
        // Log I/O failure must not abort a long simulation campaign; the
        // JSONL is diagnostics, the manifest is the durable result.
        let _ = out.write_all(block.as_bytes());
        let _ = out.flush();
    }
}

/// A [`SimObserver`] that accumulates degraded-time/event counters for one
/// trial and (optionally) buffers JSONL event records for an
/// [`EventLogSink`]. Call [`TrialObserver::finish`] after the simulation to
/// emit the buffered block plus a `trial_end` summary record.
pub struct TrialObserver<'a> {
    sink: Option<&'a EventLogSink>,
    label: &'a str,
    trial: u64,
    buf: String,
    /// Total hours spent degraded: pool sims count time with ≥1 disk
    /// failed; system sims count per-pool network-reconstruction sojourns.
    pub degraded_hours: f64,
    /// Disk failures observed.
    pub failures: u64,
    /// Repair completions observed.
    pub repairs: u64,
    /// Catastrophic pool events observed.
    pub catastrophes: u64,
    /// Network data-loss events observed (system sims only).
    pub data_losses: u64,
}

impl<'a> TrialObserver<'a> {
    /// An observer for trial `trial` of the run labelled `label`, logging to
    /// `sink` when one is given (counters accumulate either way).
    pub fn new(sink: Option<&'a EventLogSink>, label: &'a str, trial: u64) -> TrialObserver<'a> {
        TrialObserver {
            sink,
            label,
            trial,
            buf: String::new(),
            degraded_hours: 0.0,
            failures: 0,
            repairs: 0,
            catastrophes: 0,
            data_losses: 0,
        }
    }

    fn record(&mut self, body: std::fmt::Arguments<'_>) {
        if self.sink.is_some() {
            use std::fmt::Write;
            let _ = writeln!(
                self.buf,
                "{{\"label\":\"{}\",\"trial\":{},{}}}",
                self.label, self.trial, body
            );
        }
    }

    /// Emit the trial's buffered records plus a `trial_end` summary line.
    pub fn finish(mut self) {
        let (degraded, failures, repairs, catastrophes, losses) = (
            self.degraded_hours,
            self.failures,
            self.repairs,
            self.catastrophes,
            self.data_losses,
        );
        self.record(format_args!(
            "\"kind\":\"trial_end\",\"degraded_hours\":{degraded},\"failures\":{failures},\
             \"repairs\":{repairs},\"catastrophes\":{catastrophes},\"data_losses\":{losses}"
        ));
        if let Some(sink) = self.sink {
            sink.append(&self.buf);
        }
    }
}

impl SimObserver for TrialObserver<'_> {
    fn on_disk_failure(&mut self, time_h: f64, concurrent: u32) {
        self.failures += 1;
        self.record(format_args!(
            "\"kind\":\"disk_failure\",\"time_h\":{time_h},\"concurrent\":{concurrent}"
        ));
    }

    fn on_repair(&mut self, time_h: f64, concurrent: u32) {
        self.repairs += 1;
        self.record(format_args!(
            "\"kind\":\"repair\",\"time_h\":{time_h},\"concurrent\":{concurrent}"
        ));
    }

    fn on_catastrophe(&mut self, time_h: f64, concurrent: u32, lost_stripes: f64, weight: f64) {
        self.catastrophes += 1;
        self.record(format_args!(
            "\"kind\":\"catastrophe\",\"time_h\":{time_h},\"concurrent\":{concurrent},\
             \"lost_stripes\":{lost_stripes},\"weight\":{weight}"
        ));
    }

    fn on_data_loss(&mut self, time_h: f64) {
        self.data_losses += 1;
        self.record(format_args!("\"kind\":\"data_loss\",\"time_h\":{time_h}"));
    }

    fn on_degraded_interval(&mut self, from_h: f64, to_h: f64, _failed_disks: u32) {
        self.degraded_hours += to_h - from_h;
    }
}

/// One trial = one pool simulated for `years_per_trial` (splitting stage 1),
/// optionally with importance-sampled failure arrivals ([`FailureBias`] —
/// use [`FailureBias::NONE`] for direct simulation).
pub struct PoolTrial<'a> {
    pub dep: &'a MlecDeployment,
    pub model: &'a FailureModel,
    pub years_per_trial: f64,
    pub bias: FailureBias,
    /// Optional per-trial JSONL event log (`None` = no logging; the
    /// simulation is bit-identical either way).
    pub event_log: Option<&'a EventLogSink>,
    /// Label stamped on every event-log line (e.g. `fig10/CC`).
    pub log_label: &'a str,
}

/// Aggregate pool-simulation statistics. The primary statistic is the
/// weighted catastrophic-event rate per pool-year with a compound-Poisson
/// confidence interval and ESS ([`WeightedRate`]); lost stripes per event
/// accumulate in a weighted Welford estimator. Under unbiased simulation all
/// weights are exactly 1.0 and the estimates reduce to the plain Poisson
/// counting statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolAcc {
    pub trials: u64,
    pub disk_failures: u64,
    pub max_concurrent: u32,
    /// Weighted catastrophic-event rate over the simulated pool-years.
    pub rate: WeightedRate,
    /// Weighted lost-stripe distribution over catastrophic events.
    pub lost_stripes: WeightedWelford,
    /// Completed likelihood-ratio excursions across all trials.
    pub excursions: u64,
    /// Sum of final excursion weights (mean ≈ 1 is the unbiasedness check).
    pub excursion_weight: f64,
    /// Pool-hours spent with at least one disk failed, across all trials
    /// (observer-backed degraded-state accounting).
    pub degraded_hours: f64,
}

impl PoolAcc {
    /// Fold one pool run into the totals.
    fn record(&mut self, result: &PoolSimResult) {
        self.trials += 1;
        self.rate.add_exposure(result.pool_years);
        self.disk_failures += result.disk_failures;
        self.max_concurrent = self.max_concurrent.max(result.max_concurrent);
        for event in &result.events {
            self.rate.push(event.weight);
            self.lost_stripes.push(event.lost_stripes, event.weight);
        }
        self.excursions += result.excursions;
        self.excursion_weight += result.excursion_weight;
    }

    /// Catastrophic events observed (raw count, not weighted).
    pub fn events(&self) -> u64 {
        self.rate.events()
    }

    /// Simulated pool-years of exposure.
    pub fn pool_years(&self) -> f64 {
        self.rate.exposure()
    }

    /// Weighted catastrophic events per pool-year (0 with no exposure).
    pub fn rate_per_pool_year(&self) -> f64 {
        self.rate.rate()
    }

    /// Weighted mean lost local stripes per catastrophic event (0 if none).
    pub fn mean_lost_stripes(&self) -> f64 {
        if self.rate.events() == 0 {
            0.0
        } else {
            self.lost_stripes.mean()
        }
    }

    /// Mean final likelihood weight per excursion (≈1 when correctly
    /// weighted; 0 before any excursion completes).
    pub fn mean_excursion_weight(&self) -> f64 {
        if self.excursions == 0 {
            0.0
        } else {
            self.excursion_weight / self.excursions as f64
        }
    }

    /// Fraction of simulated time the pool spent degraded (≥1 disk failed);
    /// 0 with no exposure.
    pub fn degraded_fraction(&self) -> f64 {
        let hours = self.pool_years() * crate::config::HOURS_PER_YEAR;
        if hours <= 0.0 {
            0.0
        } else {
            self.degraded_hours / hours
        }
    }
}

impl Trial for PoolTrial<'_> {
    type Acc = PoolAcc;

    fn run(&self, index: u64, seed: u64, acc: &mut PoolAcc) {
        let mut observer = TrialObserver::new(self.event_log, self.log_label, index);
        let result = simulate_pool_observed(
            self.dep,
            self.model,
            self.years_per_trial,
            seed,
            self.bias,
            &mut observer,
        );
        acc.record(&result);
        acc.degraded_hours += observer.degraded_hours;
        observer.finish();
    }
}

impl Accumulator for PoolAcc {
    fn merge(&mut self, other: &Self) {
        self.trials += other.trials;
        self.disk_failures += other.disk_failures;
        self.max_concurrent = self.max_concurrent.max(other.max_concurrent);
        self.rate.merge(&other.rate);
        self.lost_stripes.merge(&other.lost_stripes);
        self.excursions += other.excursions;
        self.excursion_weight += other.excursion_weight;
        self.degraded_hours += other.degraded_hours;
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn summary(&self) -> Summary {
        // Compound-Poisson statistics: se(rate) = sqrt(sum w^2)/exposure,
        // reducing to sqrt(events)/exposure at unit weights.
        let (ci_low, ci_high) = self.rate.ci95();
        Summary {
            trials: self.trials,
            mean: self.rate.rate(),
            std_err: self.rate.std_err(),
            ci_low,
            ci_high,
            rel_err: self.rate.rel_err(),
        }
    }

    fn save(&self) -> Json {
        Json::obj(vec![
            ("trials", Json::U64(self.trials)),
            ("disk_failures", Json::U64(self.disk_failures)),
            ("max_concurrent", Json::U64(self.max_concurrent as u64)),
            ("rate", self.rate.save()),
            ("lost_stripes", self.lost_stripes.save()),
            ("excursions", Json::U64(self.excursions)),
            (
                "excursion_weight_bits",
                Json::U64(self.excursion_weight.to_bits()),
            ),
            (
                "degraded_hours_bits",
                Json::U64(self.degraded_hours.to_bits()),
            ),
        ])
    }

    fn load(value: &Json) -> Option<Self> {
        Some(PoolAcc {
            trials: value.get("trials")?.as_u64()?,
            disk_failures: value.get("disk_failures")?.as_u64()?,
            max_concurrent: value.get("max_concurrent")?.as_u64()? as u32,
            rate: WeightedRate::load(value.get("rate")?)?,
            lost_stripes: WeightedWelford::load(value.get("lost_stripes")?)?,
            excursions: value.get("excursions")?.as_u64()?,
            excursion_weight: f64::from_bits(value.get("excursion_weight_bits")?.as_u64()?),
            // Pre-observer manifests lack this field; resume them as zero
            // rather than refusing to load.
            degraded_hours: value
                .get("degraded_hours_bits")
                .and_then(Json::as_u64)
                .map_or(0.0, f64::from_bits),
        })
    }
}

/// One trial = one full-system mission simulation.
pub struct SystemTrial<'a> {
    pub dep: &'a MlecDeployment,
    pub model: &'a FailureModel,
    /// Catastrophic-repair method for the mission.
    pub strategy: RepairMethod,
    pub years: f64,
    pub opts: SystemSimOptions,
    /// Optional per-trial JSONL event log (`None` = no logging; the
    /// simulation is bit-identical either way).
    pub event_log: Option<&'a EventLogSink>,
    /// Label stamped on every event-log line (e.g. `fig07/sys/CC`).
    pub log_label: &'a str,
}

/// Aggregate system-simulation statistics. The primary statistic is the
/// probability a mission loses data (Wilson CI — the rare-event target of
/// the validation experiments).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossAcc {
    pub loss: Proportion,
    pub catastrophic_pools: u64,
    pub data_loss_events: u64,
    pub disk_failures: u64,
    pub cross_rack_traffic_tb: Welford,
    pub total_sojourn_h: Welford,
    /// Pool-hours spent under network reconstruction, across all trials
    /// (observer-backed degraded-state accounting).
    pub degraded_hours: f64,
}

impl Trial for SystemTrial<'_> {
    type Acc = LossAcc;

    fn run(&self, index: u64, seed: u64, acc: &mut LossAcc) {
        let mut observer = TrialObserver::new(self.event_log, self.log_label, index);
        let result = simulate_system_observed(
            self.dep,
            self.model,
            self.strategy,
            self.years,
            seed,
            self.opts,
            &mut observer,
        );
        acc.loss.push(result.lost_data());
        acc.catastrophic_pools += result.catastrophic_pools;
        acc.data_loss_events += result.data_loss_events;
        acc.disk_failures += result.disk_failures;
        acc.cross_rack_traffic_tb.push(result.cross_rack_traffic_tb);
        acc.total_sojourn_h.push(result.total_sojourn_h);
        acc.degraded_hours += observer.degraded_hours;
        observer.finish();
    }
}

impl Accumulator for LossAcc {
    fn merge(&mut self, other: &Self) {
        self.loss.merge(&other.loss);
        self.catastrophic_pools += other.catastrophic_pools;
        self.data_loss_events += other.data_loss_events;
        self.disk_failures += other.disk_failures;
        self.cross_rack_traffic_tb
            .merge(&other.cross_rack_traffic_tb);
        self.total_sojourn_h.merge(&other.total_sojourn_h);
        self.degraded_hours += other.degraded_hours;
    }

    fn trials(&self) -> u64 {
        self.loss.trials()
    }

    fn summary(&self) -> Summary {
        self.loss.summary()
    }

    fn save(&self) -> Json {
        Json::obj(vec![
            ("loss", self.loss.save()),
            ("catastrophic_pools", Json::U64(self.catastrophic_pools)),
            ("data_loss_events", Json::U64(self.data_loss_events)),
            ("disk_failures", Json::U64(self.disk_failures)),
            ("cross_rack_traffic_tb", self.cross_rack_traffic_tb.save()),
            ("total_sojourn_h", self.total_sojourn_h.save()),
            (
                "degraded_hours_bits",
                Json::U64(self.degraded_hours.to_bits()),
            ),
        ])
    }

    fn load(value: &Json) -> Option<Self> {
        Some(LossAcc {
            loss: Proportion::load(value.get("loss")?)?,
            catastrophic_pools: value.get("catastrophic_pools")?.as_u64()?,
            data_loss_events: value.get("data_loss_events")?.as_u64()?,
            disk_failures: value.get("disk_failures")?.as_u64()?,
            cross_rack_traffic_tb: Welford::load(value.get("cross_rack_traffic_tb")?)?,
            total_sojourn_h: Welford::load(value.get("total_sojourn_h")?)?,
            // Pre-observer manifests lack this field; resume them as zero
            // rather than refusing to load.
            degraded_hours: value
                .get("degraded_hours_bits")
                .and_then(Json::as_u64)
                .map_or(0.0, f64::from_bits),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_runner::{run, RunSpec, StopRule};
    use mlec_topology::MlecScheme;

    #[test]
    fn pool_trial_runs_through_executor_deterministically() {
        let dep = MlecDeployment::paper_default(MlecScheme::CC);
        let model = FailureModel::Exponential { afr: 4.0 };
        let trial = PoolTrial {
            dep: &dep,
            model: &model,
            years_per_trial: 20.0,
            bias: FailureBias::NONE,
            event_log: None,
            log_label: "",
        };
        let a = run(
            &trial,
            &RunSpec::new("trials/pool", 77, StopRule::fixed(24)).threads(1),
        )
        .unwrap();
        let b = run(
            &trial,
            &RunSpec::new("trials/pool", 77, StopRule::fixed(24)).threads(4),
        )
        .unwrap();
        assert_eq!(a.acc, b.acc);
        assert!((a.acc.pool_years() - 24.0 * 20.0).abs() < 1e-9);
        assert!(a.acc.disk_failures > 0);
    }

    #[test]
    fn weighted_pool_trial_is_thread_count_invariant() {
        // Importance-sampled campaigns must stay bit-identical across
        // worker-thread counts: weighted sums merge in batch order.
        let dep = MlecDeployment::paper_default(MlecScheme::CC);
        let model = FailureModel::Exponential { afr: 0.01 };
        let bias = FailureBias::auto(&dep, &model);
        let trial = PoolTrial {
            dep: &dep,
            model: &model,
            years_per_trial: 25.0,
            bias,
            event_log: None,
            log_label: "",
        };
        let a = run(
            &trial,
            &RunSpec::new("trials/pool-is", 77, StopRule::fixed(32)).threads(1),
        )
        .unwrap();
        let b = run(
            &trial,
            &RunSpec::new("trials/pool-is", 77, StopRule::fixed(32)).threads(4),
        )
        .unwrap();
        assert_eq!(a.acc, b.acc);
        assert_eq!(
            a.acc.rate.rate().to_bits(),
            b.acc.rate.rate().to_bits(),
            "weighted rate must be bit-identical"
        );
        assert!(
            a.acc.events() > 0,
            "auto bias must observe events at 1% AFR"
        );
        let mw = a.acc.mean_excursion_weight();
        assert!(mw > 0.1 && mw < 10.0, "mean excursion weight {mw}");
    }

    fn run_of(pool_years: f64, events: &[(f64, f64)], excursions: (u64, f64)) -> PoolSimResult {
        PoolSimResult {
            pool_years,
            events: events
                .iter()
                .map(
                    |&(lost_stripes, weight)| crate::pool_sim::CatastrophicEvent {
                        time_h: 1.0,
                        concurrent_failures: 4,
                        lost_stripes,
                        weight,
                    },
                )
                .collect(),
            disk_failures: 100,
            max_concurrent: 4,
            excursions: excursions.0,
            excursion_weight: excursions.1,
        }
    }

    #[test]
    fn rate_estimation() {
        let mut acc = PoolAcc::default();
        acc.record(&run_of(20.0, &[(10.0, 1.0)], (1, 1.0)));
        acc.record(&run_of(30.0, &[(20.0, 1.0)], (1, 1.0)));
        assert_eq!(acc.pool_years(), 50.0);
        assert_eq!((acc.trials, acc.events(), acc.disk_failures), (2, 2, 200));
        assert!((acc.rate_per_pool_year() - 0.04).abs() < 1e-12);
        assert!((acc.mean_lost_stripes() - 15.0).abs() < 1e-12);
        assert_eq!(acc.mean_excursion_weight(), 1.0);
    }

    #[test]
    fn weighted_rate_estimation() {
        // Half-weight events count half; the lost-stripe mean is weighted.
        let mut acc = PoolAcc::default();
        acc.record(&run_of(10.0, &[(10.0, 0.5), (40.0, 0.1)], (3, 2.7)));
        assert!((acc.rate_per_pool_year() - 0.06).abs() < 1e-12);
        let expect = (0.5 * 10.0 + 0.1 * 40.0) / 0.6;
        assert!((acc.mean_lost_stripes() - expect).abs() < 1e-12);
        assert!((acc.mean_excursion_weight() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_exposure_yields_zero_rate_not_nan() {
        // A resumed manifest with zero completed trials must not report NaN.
        let mut acc = PoolAcc::default();
        acc.record(&run_of(0.0, &[], (0, 0.0)));
        assert_eq!(acc.rate_per_pool_year(), 0.0);
        assert_eq!(acc.mean_lost_stripes(), 0.0);
        assert_eq!(acc.mean_excursion_weight(), 0.0);
        assert_eq!(acc.degraded_fraction(), 0.0);
    }

    #[test]
    fn pool_acc_round_trips_through_json() {
        let dep = MlecDeployment::paper_default(MlecScheme::CD);
        let model = FailureModel::Exponential { afr: 2.0 };
        let trial = PoolTrial {
            dep: &dep,
            model: &model,
            years_per_trial: 50.0,
            bias: FailureBias::degraded_only(20.0),
            event_log: None,
            log_label: "",
        };
        let report = run(
            &trial,
            &RunSpec::new("trials/pool-json", 3, StopRule::fixed(8)),
        )
        .unwrap();
        let back = PoolAcc::load(&report.acc.save()).unwrap();
        assert_eq!(back, report.acc);
    }

    #[test]
    fn system_trial_loss_proportion_is_sane() {
        let dep = MlecDeployment::paper_default(MlecScheme::CC);
        let model = FailureModel::Exponential { afr: 1.0 };
        let trial = SystemTrial {
            dep: &dep,
            model: &model,
            strategy: RepairMethod::Fco,
            years: 0.5,
            opts: SystemSimOptions::default(),
            event_log: None,
            log_label: "",
        };
        let report = run(
            &trial,
            &RunSpec::new("trials/system", 5, StopRule::fixed(6)),
        )
        .unwrap();
        assert_eq!(report.trials, 6);
        let s = report.summary;
        assert!((0.0..=1.0).contains(&s.mean));
        assert!(s.ci_low <= s.mean && s.mean <= s.ci_high);
    }
}
