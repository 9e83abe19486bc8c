//! Fixed-seed, bit-exact golden tests for `simulate_pool` /
//! `simulate_pool_observed`, mirroring the kernel-invariance goldens in
//! `system_sim.rs`.
//!
//! These pin the exact RNG draw order of the clustered and declustered
//! pool simulators (biased and unbiased) so that the shared
//! `HazardKernel` port is provably draw-order-preserving on all three
//! simulators, not just `system_sim`. Values were captured from the
//! pre-kernel hand-rolled loops; any refactor that perturbs a single
//! draw or a single floating-point operation will flip these bits.
//!
//! We pin individual counters and `f64` bit patterns rather than whole
//! result structs so that additive fields (e.g. new observer-backed
//! accounting) do not invalidate the goldens.

use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::kernel::NoopObserver;
use mlec_sim::pool_sim::{simulate_pool, simulate_pool_observed, PoolSimResult};
use mlec_topology::MlecScheme;

struct GoldenCase {
    scheme: MlecScheme,
    afr: f64,
    years: f64,
    seed: u64,
    bias: FailureBias,
}

fn run_case(c: &GoldenCase) -> PoolSimResult {
    let dep = MlecDeployment::paper_default(c.scheme);
    let model = FailureModel::Exponential { afr: c.afr };
    if c.bias.is_unbiased() {
        simulate_pool(&dep, &model, c.years, c.seed)
    } else {
        simulate_pool_observed(&dep, &model, c.years, c.seed, c.bias, &mut NoopObserver)
    }
}

fn sum_weight_bits(r: &PoolSimResult) -> u64 {
    r.events.iter().map(|e| e.weight).sum::<f64>().to_bits()
}

fn sum_lost_bits(r: &PoolSimResult) -> u64 {
    r.events
        .iter()
        .map(|e| e.lost_stripes)
        .sum::<f64>()
        .to_bits()
}

#[test]
fn golden_clustered_pool_unbiased() {
    let r = run_case(&GoldenCase {
        scheme: MlecScheme::CC,
        afr: 8.0,
        years: 40.0,
        seed: 101,
        bias: FailureBias::NONE,
    });
    assert_eq!(r.disk_failures, 5965);
    assert_eq!(r.events.len(), 907);
    assert_eq!(r.max_concurrent, 4);
    assert_eq!(r.excursions, 1439);
    assert_eq!(r.excursion_weight.to_bits(), 4654043604375830528);
    assert_eq!(sum_weight_bits(&r), 4651189272190124032);
    assert_eq!(sum_lost_bits(&r), 4773955845385355264);
    let first = &r.events[0];
    assert_eq!(first.time_h.to_bits(), 4646665874588539634);
    assert_eq!(first.weight.to_bits(), 4607182418800017408);
    assert_eq!(first.concurrent_failures, 4);
}

#[test]
fn golden_clustered_pool_biased() {
    let r = run_case(&GoldenCase {
        scheme: MlecScheme::CC,
        afr: 0.5,
        years: 200.0,
        seed: 102,
        bias: FailureBias::degraded_only(40.0),
    });
    assert_eq!(r.disk_failures, 7449);
    assert_eq!(r.events.len(), 1799);
    assert_eq!(r.max_concurrent, 4);
    assert_eq!(r.excursions, 1810);
    assert_eq!(r.excursion_weight.to_bits(), 4645506620765389270);
    assert_eq!(sum_weight_bits(&r), 4605831497069243308);
    assert_eq!(sum_lost_bits(&r), 4778421045012725760);
    let first = &r.events[0];
    assert_eq!(first.time_h.to_bits(), 4658257099034104617);
    assert_eq!(first.weight.to_bits(), 4564487488913267643);
    assert_eq!(first.concurrent_failures, 4);
}

#[test]
fn golden_declustered_pool_unbiased() {
    let r = run_case(&GoldenCase {
        scheme: MlecScheme::CD,
        afr: 10.0,
        years: 60.0,
        seed: 103,
        bias: FailureBias::NONE,
    });
    assert_eq!(r.disk_failures, 70442);
    assert_eq!(r.events.len(), 10053);
    assert_eq!(r.max_concurrent, 8);
    assert_eq!(r.excursions, 10718);
    assert_eq!(r.excursion_weight.to_bits(), 4667117897141714944);
    assert_eq!(sum_weight_bits(&r), 4666752309525479424);
    assert_eq!(sum_lost_bits(&r), 4756206254222634411);
    let first = &r.events[0];
    assert_eq!(first.time_h.to_bits(), 4638288583647299186);
    assert_eq!(first.weight.to_bits(), 4607182418800017408);
    assert_eq!(first.concurrent_failures, 5);
}

#[test]
fn golden_declustered_pool_biased() {
    let r = run_case(&GoldenCase {
        scheme: MlecScheme::DD,
        afr: 1.0,
        years: 150.0,
        seed: 104,
        bias: FailureBias::degraded_only(25.0),
    });
    assert_eq!(r.disk_failures, 77453);
    assert_eq!(r.events.len(), 15551);
    assert_eq!(r.max_concurrent, 7);
    assert_eq!(r.excursions, 15560);
    assert_eq!(r.excursion_weight.to_bits(), 4666090281138535833);
    assert_eq!(sum_weight_bits(&r), 4620923819685333231);
    assert_eq!(sum_lost_bits(&r), 4756894700091184958);
    let first = &r.events[0];
    assert_eq!(first.time_h.to_bits(), 4633123850576866677);
    assert_eq!(first.weight.to_bits(), 4542386472144723907);
    assert_eq!(first.concurrent_failures, 5);
}
