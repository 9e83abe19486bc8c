//! The `Trial`/`Accumulator` abstraction every experiment runs through.
//!
//! A [`Trial`] maps one seed to one observation, folded into an
//! [`Accumulator`]. The executor runs disjoint batches of trials into
//! per-batch accumulators and merges them in batch order, so any
//! accumulator whose `merge` is associative over ordered batches yields
//! thread-count-independent results.

use crate::json::Json;
use crate::stats::{Proportion, Welford};

/// One unit of Monte Carlo work.
pub trait Trial: Sync {
    type Acc: Accumulator;

    /// Run trial number `index` (the global trial index — stable across
    /// batch sizes, thread counts, and resume) with its derived `seed` and
    /// fold the observation into `acc`. Most trials only use `seed`; grid
    /// trials map `index` to a cell.
    fn run(&self, index: u64, seed: u64, acc: &mut Self::Acc);
}

/// Mergeable, checkpointable trial statistics.
pub trait Accumulator: Clone + Send + Sync + 'static {
    /// Fold `other` in; called in ascending batch order.
    fn merge(&mut self, other: &Self);

    /// Number of trials folded in so far.
    fn trials(&self) -> u64;

    /// Convergence/reporting summary of the primary statistic.
    fn summary(&self) -> Summary;

    /// Bit-exact state for the run manifest.
    fn save(&self) -> Json;

    /// Restore from a manifest checkpoint.
    fn load(value: &Json) -> Option<Self>;
}

/// What an accumulator currently believes about its primary statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub trials: u64,
    pub mean: f64,
    /// Standard error of the mean (NaN when undefined).
    pub std_err: f64,
    /// 95% interval (Wilson for proportions, normal for means).
    pub ci_low: f64,
    pub ci_high: f64,
    /// Relative precision: |`std_err/mean`| or relative CI half-width.
    pub rel_err: f64,
}

impl Summary {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trials", Json::U64(self.trials)),
            ("mean", Json::F64(self.mean)),
            ("std_err", Json::F64(self.std_err)),
            ("ci_low", Json::F64(self.ci_low)),
            ("ci_high", Json::F64(self.ci_high)),
            ("rel_err", Json::F64(self.rel_err)),
        ])
    }
}

/// Accumulator for real-valued observations (Welford).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeanAcc {
    pub stats: Welford,
}

impl MeanAcc {
    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
    }
}

impl Accumulator for MeanAcc {
    fn merge(&mut self, other: &Self) {
        self.stats.merge(&other.stats);
    }

    fn trials(&self) -> u64 {
        self.stats.count()
    }

    fn summary(&self) -> Summary {
        self.stats.summary()
    }

    fn save(&self) -> Json {
        Json::obj(vec![("welford", self.stats.save())])
    }

    fn load(value: &Json) -> Option<Self> {
        Some(MeanAcc {
            stats: Welford::load(value.get("welford")?)?,
        })
    }
}

/// Accumulator for hit/miss observations (Wilson intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HitAcc {
    pub stats: Proportion,
}

impl HitAcc {
    pub fn push(&mut self, hit: bool) {
        self.stats.push(hit);
    }
}

impl Accumulator for HitAcc {
    fn merge(&mut self, other: &Self) {
        self.stats.merge(&other.stats);
    }

    fn trials(&self) -> u64 {
        self.stats.trials()
    }

    fn summary(&self) -> Summary {
        self.stats.summary()
    }

    fn save(&self) -> Json {
        Json::obj(vec![("proportion", self.stats.save())])
    }

    fn load(value: &Json) -> Option<Self> {
        Some(HitAcc {
            stats: Proportion::load(value.get("proportion")?)?,
        })
    }
}

/// Per-cell Welford accumulator for grid experiments (PDL heatmaps): one
/// run estimates every cell of a grid, with trial index `i` mapped to cell
/// `i / samples_per_cell` (see [`GridTrial`]). Construct with
/// [`GridAcc::sized`] and run via [`crate::run_with`] (a grid has no
/// meaningful `Default`).
#[derive(Debug, Clone, PartialEq)]
pub struct GridAcc {
    cells: Vec<Welford>,
}

impl GridAcc {
    /// An empty accumulator for `cells` grid cells.
    pub fn sized(cells: usize) -> GridAcc {
        GridAcc {
            cells: vec![Welford::default(); cells],
        }
    }

    pub fn push(&mut self, cell: usize, x: f64) {
        self.cells[cell].push(x);
    }

    pub fn cell(&self, cell: usize) -> &Welford {
        &self.cells[cell]
    }

    /// Per-cell means, in cell order.
    pub fn means(&self) -> Vec<f64> {
        self.cells.iter().map(super::stats::Welford::mean).collect()
    }
}

impl Accumulator for GridAcc {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.cells.len(), other.cells.len(), "grid shape mismatch");
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            mine.merge(theirs);
        }
    }

    fn trials(&self) -> u64 {
        self.cells.iter().map(super::stats::Welford::count).sum()
    }

    /// Summary over the pooled observations of every cell (adaptive
    /// stopping on a grid therefore targets the overall precision).
    fn summary(&self) -> Summary {
        let mut pooled = Welford::default();
        for cell in &self.cells {
            pooled.merge(cell);
        }
        pooled.summary()
    }

    fn save(&self) -> Json {
        Json::Arr(self.cells.iter().map(super::stats::Welford::save).collect())
    }

    fn load(value: &Json) -> Option<Self> {
        let Json::Arr(items) = value else {
            return None;
        };
        let cells = items
            .iter()
            .map(Welford::load)
            .collect::<Option<Vec<_>>>()?;
        Some(GridAcc { cells })
    }
}

/// How a [`GridTrial`] maps the global trial index onto grid cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridOrder {
    /// Cell `i / samples_per_cell`: all samples of cell 0, then cell 1, …
    /// The right choice for fixed budgets — each cell's seed block is
    /// contiguous, so shrinking or growing `samples_per_cell` preserves the
    /// seeds of the samples that remain.
    #[default]
    Blocked,
    /// Cell `i % cells`: one sample of every cell per grid sweep. The right
    /// choice under adaptive stopping ([`crate::StopRule`] with a relative
    /// precision target): whenever the run stops, every cell has received
    /// the same number of samples, give or take one sweep.
    Interleaved,
}

/// Adapter running a closure `(cell, seed) -> f64` over every cell of a
/// grid in one deterministic run: trial index `i` evaluates the cell given
/// by [`GridOrder`], so a full run performs `samples_per_cell`
/// observations of each of `cells` cells, and checkpoint/resume and thread
/// counts behave exactly as for scalar trials.
pub struct GridTrial<F: Fn(usize, u64) -> f64 + Sync> {
    pub cells: usize,
    pub samples_per_cell: u64,
    pub order: GridOrder,
    pub f: F,
}

impl<F: Fn(usize, u64) -> f64 + Sync> GridTrial<F> {
    /// The trial budget covering the whole grid (an upper bound under
    /// adaptive stopping).
    pub fn total_trials(&self) -> u64 {
        self.cells as u64 * self.samples_per_cell
    }

    /// The matching empty accumulator for [`crate::run_with`].
    pub fn empty(&self) -> GridAcc {
        GridAcc::sized(self.cells)
    }
}

impl<F: Fn(usize, u64) -> f64 + Sync> Trial for GridTrial<F> {
    type Acc = GridAcc;

    fn run(&self, index: u64, seed: u64, acc: &mut GridAcc) {
        let cell = match self.order {
            GridOrder::Blocked => (index / self.samples_per_cell) as usize,
            GridOrder::Interleaved => (index % self.cells as u64) as usize,
        };
        debug_assert!(cell < self.cells, "trial index beyond the grid budget");
        acc.push(cell, (self.f)(cell, seed));
    }
}

/// Adapter turning a closure `seed -> f64` into a mean-estimating trial.
pub struct FnTrial<F: Fn(u64) -> f64 + Sync>(pub F);

impl<F: Fn(u64) -> f64 + Sync> Trial for FnTrial<F> {
    type Acc = MeanAcc;
    fn run(&self, _index: u64, seed: u64, acc: &mut MeanAcc) {
        acc.push((self.0)(seed));
    }
}

/// Adapter turning a closure `seed -> bool` into a proportion-estimating
/// trial.
pub struct HitTrial<F: Fn(u64) -> bool + Sync>(pub F);

impl<F: Fn(u64) -> bool + Sync> Trial for HitTrial<F> {
    type Acc = HitAcc;
    fn run(&self, _index: u64, seed: u64, acc: &mut HitAcc) {
        acc.push((self.0)(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_acc_round_trips() {
        let mut acc = MeanAcc::default();
        for i in 0..50 {
            acc.push(i as f64);
        }
        let back = MeanAcc::load(&acc.save()).unwrap();
        assert_eq!(back, acc);
        assert_eq!(back.summary().trials, 50);
    }

    #[test]
    fn grid_trial_maps_indices_to_cells() {
        use crate::{run_with, RunSpec, StopRule};
        let trial = GridTrial {
            cells: 5,
            samples_per_cell: 40,
            order: GridOrder::Blocked,
            // Observation = the cell index itself: means must come out exact.
            f: |cell, _seed| cell as f64,
        };
        let report = run_with(
            &trial,
            &RunSpec::new("grid/map", 1, StopRule::fixed(trial.total_trials())).batch_size(7),
            trial.empty(),
        )
        .unwrap();
        assert_eq!(report.trials, 200);
        for (i, w) in (0..5).map(|i| (i, report.acc.cell(i))) {
            assert_eq!(w.count(), 40, "cell {i}");
            assert_eq!(w.mean(), i as f64, "cell {i}");
        }
        let back = GridAcc::load(&report.acc.save()).unwrap();
        assert_eq!(back, report.acc);
    }

    #[test]
    fn grid_acc_is_thread_count_invariant() {
        use crate::rng::SplitMix64;
        use crate::{run_with, RunSpec, StopRule};
        let trial = GridTrial {
            cells: 9,
            samples_per_cell: 64,
            order: GridOrder::default(),
            f: |cell, seed| SplitMix64::new(seed).next_f64() + cell as f64,
        };
        let stop = StopRule::fixed(trial.total_trials());
        let a = run_with(
            &trial,
            &RunSpec::new("grid/threads", 4, stop).threads(1),
            trial.empty(),
        )
        .unwrap();
        let b = run_with(
            &trial,
            &RunSpec::new("grid/threads", 4, stop).threads(4),
            trial.empty(),
        )
        .unwrap();
        assert_eq!(a.acc, b.acc);
    }

    #[test]
    fn interleaved_grid_balances_cells_under_adaptive_stop() {
        use crate::{run_with, RunSpec, StopRule};
        let trial = GridTrial {
            cells: 7,
            samples_per_cell: 4096,
            order: GridOrder::Interleaved,
            // Low-variance observations: the precision target fires long
            // before the budget is exhausted.
            f: |cell, seed| cell as f64 + 1.0 + 1e-3 * (seed % 7) as f64,
        };
        let stop = StopRule::until_rel_err(0.05, 7 * 8, trial.total_trials());
        let report = run_with(
            &trial,
            &RunSpec::new("grid/adaptive", 11, stop).batch_size(13),
            trial.empty(),
        )
        .unwrap();
        assert!(report.trials < trial.total_trials(), "{}", report.trials);
        let counts: Vec<u64> = (0..7).map(|i| report.acc.cell(i).count()).collect();
        let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // One interleaved sweep covers every cell once; a partial final
        // batch can leave at most one sweep of imbalance per batch row.
        assert!(hi - lo <= 2, "unbalanced cells: {counts:?}");
        for i in 0..7 {
            assert!(
                (report.acc.cell(i).mean() - (i as f64 + 1.0)).abs() < 0.01,
                "cell {i}"
            );
        }
    }

    #[test]
    fn hit_acc_summary_uses_wilson() {
        let mut acc = HitAcc::default();
        for i in 0..1000 {
            acc.push(i % 100 == 0);
        }
        let s = acc.summary();
        assert_eq!(s.trials, 1000);
        assert!((s.mean - 0.01).abs() < 1e-12);
        assert!(s.ci_low < 0.01 && 0.01 < s.ci_high);
        let back = HitAcc::load(&acc.save()).unwrap();
        assert_eq!(back, acc);
    }
}
